"""The package metadata in ``pyproject.toml`` names real code.

``pip install .`` builds from this file, and its console scripts
(``tfapprox-table1``, ``-fig2``, ``-dse``, ``-serve``) must resolve to the
``main_*`` functions the golden CLI tests run.  Nothing is installed here:
the file is parsed and every entry-point target imported.
"""

from __future__ import annotations

import importlib
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SCRIPTS = {
    "tfapprox-table1": "repro.evaluation.cli:main_table1",
    "tfapprox-fig2": "repro.evaluation.cli:main_fig2",
    "tfapprox-dse": "repro.dse.cli:main_dse",
    "tfapprox-serve": "repro.serve.cli:main_serve",
}


def _project():
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)


def test_metadata_declares_the_src_layout_and_numpy():
    document = _project()
    project = document["project"]
    assert project["name"]
    assert project["dependencies"] == ["numpy"]
    assert document["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
    assert document["build-system"]["build-backend"] == "setuptools.build_meta"


def test_console_scripts_resolve_to_cli_mains():
    scripts = _project()["project"]["scripts"]
    assert scripts == SCRIPTS
    for target in scripts.values():
        module, _, attribute = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attribute))
