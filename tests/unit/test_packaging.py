"""Packaging metadata must agree with the code it ships."""

import os
import sys

import pytest

import repro

PYPROJECT = os.path.join(os.path.dirname(__file__), "..", "..", "pyproject.toml")


@pytest.fixture(scope="module")
def project():
    if sys.version_info < (3, 11):
        pytest.skip("tomllib needs Python 3.11+")
    import tomllib

    with open(PYPROJECT, "rb") as handle:
        return tomllib.load(handle)


def test_version_comes_from_the_package(project):
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    dynamic = project["tool"]["setuptools"]["dynamic"]["version"]
    assert dynamic == {"attr": "repro.__version__"}
    assert repro.__version__


def test_numpy_is_optional(project):
    """No engine uses numpy: it is neither a dependency nor an extra."""
    declared = list(project["project"].get("dependencies", []))
    for extra in project["project"].get("optional-dependencies", {}).values():
        declared.extend(extra)
    assert not any(dep.split()[0].lower().startswith("numpy") for dep in declared)
    assert "numpy" not in project["project"].get("optional-dependencies", {})
