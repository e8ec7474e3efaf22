"""Start ``repro serve`` for the service_mix workload.

    python3 perfbench/serve.py [--spans PATH] <repro serve arguments>

With ``--spans`` the layer probes are installed in the server process
and its spans are written to PATH when the server stops (SIGINT).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import config  # noqa: E402


def main(argv) -> int:
    config.use_source_tree()
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    from repro.cli import main as repro_main

    recorder = None
    if spans_path is not None:
        import layers

        recorder = layers.Recorder()
        layers.Probes(recorder).install()
    try:
        return repro_main(["serve"] + argv)
    finally:
        if recorder is not None:
            recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
