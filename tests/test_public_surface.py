"""Guard: no public function or method that only the tests reach.

Every public function and method defined under ``src/`` (module level or
in a class, name without a leading underscore) must be named by some
Python file outside ``tests/``: called, referenced, imported, or spelled in
a string (the benchmark tracer wraps functions by name).  A name only the
tests use is surface kept alive for the tests alone; delete it, or move a
test oracle into ``tests/`` (as ``tests/conv_reference.py`` holds
``fake_quantize``).  ``docs/API.md`` is generated from the source, so it
names everything and is not read.
"""

from __future__ import annotations

import ast
import re
import tomllib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Public names no Python file outside ``tests/`` needs to name.
ALLOWED = {
    # Read by the runnable DSE snippet of README.md (run by test_docs.py).
    "assignment_dict",
    # How the 16 MiB row-table budget of FilterBankCache is observed.
    "table_bytes",
}


def console_scripts() -> set[str]:
    """Functions named only by ``[project.scripts]`` of pyproject.toml."""
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    return {target.rpartition(":")[2]
            for target in project["project"]["scripts"].values()}


def public_definitions() -> dict[str, list[str]]:
    """Public function/method name -> ``path:Qualified.name`` of each def."""
    found: dict[str, list[str]] = {}

    def visit(body, owner: str, path: Path) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    found.setdefault(node.name, []).append(
                        f"{path}:{owner}{node.name}")
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{owner}{node.name}.", path)

    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        visit(ast.parse(path.read_text()).body, "",
              path.relative_to(REPO_ROOT))
    return found


def names_outside_tests() -> set[str]:
    """Every identifier used, and every word spelled in a string, by the
    Python files outside ``tests/``.  A ``def`` does not name itself."""
    names: set[str] = set()
    for path in REPO_ROOT.rglob("*.py"):
        if path.relative_to(REPO_ROOT).parts[0] == "tests":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(re.findall(r"\w+", node.value))
    return names


def test_every_public_function_is_reached_outside_tests():
    named = names_outside_tests() | ALLOWED | console_scripts()
    test_only = sorted(
        site for name, sites in public_definitions().items()
        if name not in named for site in sites)
    assert not test_only, (
        "public functions/methods only tests/ names (delete them, or move "
        "a test oracle into tests/):\n  " + "\n  ".join(test_only))

