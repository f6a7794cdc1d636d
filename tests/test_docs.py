"""Documentation smoke tests: doctests, README snippets, link integrity.

Documented behaviour rots silently unless executed, so this module

* runs :mod:`doctest` over every library module that carries runnable
  examples (cheap, deterministic ones only — expensive flows use
  ``# doctest: +SKIP`` and are covered by the integration tests instead),
* extracts each ``python - <<'PY'`` heredoc from ``README.md`` and executes
  it (the quickstart and every section snippet must run as-is from a fresh
  checkout),
* runs the markdown link checker (``tools/check_links.py``) over the
  repository's own docs.
"""

from __future__ import annotations

import doctest
import importlib.util
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules whose docstring examples are executed verbatim.  Keep this list
#: in sync when adding doctests; test_doctest_modules_have_examples guards
#: against dead entries.
DOCTEST_MODULES = [
    "repro.backends.pipeline",
    "repro.dse.pareto",
    "repro.dse.space",
    "repro.evaluation.latency",
    "repro.graph.layerwise",
    "repro.serve.trace",
    "repro.train.losses",
]


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_module_doctests(module_name):
    module = __import__(module_name, fromlist=["_"])
    results = doctest.testmod(
        module, verbose=False, report=True,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    assert results.failed == 0, (
        f"{results.failed} doctest failure(s) in {module_name}")


def test_doctest_modules_have_examples():
    """Every listed module actually carries at least one example..."""
    import numpy as np  # noqa: F401 - doctest namespace convenience
    total = 0
    for module_name in DOCTEST_MODULES:
        module = __import__(module_name, fromlist=["_"])
        finder = doctest.DocTestFinder(exclude_empty=True)
        examples = sum(
            len(test.examples) for test in finder.find(module))
        assert examples > 0, f"{module_name} has no doctest examples"
        total += examples
    assert total >= 10


# ---------------------------------------------------------------------------
# README snippets
# ---------------------------------------------------------------------------

SNIPPET_PATTERN = re.compile(
    r"PYTHONPATH=src python - <<'PY'\n(.*?)\nPY\n", re.DOTALL)


def readme_snippets():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    return SNIPPET_PATTERN.findall(text)


def snippet_title(code: str) -> str:
    for line in code.splitlines():
        if line.startswith(("from ", "import ")):
            return line
    return code.splitlines()[0]


def test_readme_has_snippets():
    assert len(readme_snippets()) >= 4


@pytest.mark.parametrize(
    "index", range(len(readme_snippets())),
    ids=[f"snippet{n}" for n in range(len(readme_snippets()))])
def test_readme_snippet_runs(index, capsys):
    """Each README heredoc executes cleanly from a fresh checkout."""
    code = readme_snippets()[index]
    namespace = {"__name__": f"readme_snippet_{index}"}
    exec(compile(code, f"README.md:snippet{index}", "exec"), namespace)
    out = capsys.readouterr().out
    assert out.strip(), "README snippets are expected to print something"


# ---------------------------------------------------------------------------
# Link integrity
# ---------------------------------------------------------------------------

def test_markdown_links_resolve(capsys):
    spec = importlib.util.spec_from_file_location(
        "check_links", REPO_ROOT / "tools" / "check_links.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_links", module)
    spec.loader.exec_module(module)
    exit_code = module.main(["--root", str(REPO_ROOT)])
    output = capsys.readouterr().out
    assert exit_code == 0, f"broken markdown links:\n{output}"
