#!/usr/bin/env python3
"""Generate ``docs/API.md`` — the public-API reference of ``repro``.

The reference is *generated*, never hand-edited: for every documented
subpackage it imports each module, walks the public symbols (the module's
``__all__`` when declared, else every non-underscore name defined in the
module), and emits ``signature + first docstring line`` entries.
``tests/test_api_docs.py`` regenerates the text and fails when the
committed file drifts from the source, so the reference cannot rot.

Usage::

    PYTHONPATH=src python tools/gen_api_docs.py            # (re)write docs/API.md
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

#: Subpackages (or plain modules) documented in the reference, in reading
#: order.
PACKAGES = [
    "repro.lut.table",
    "repro.conv.gemm",
    "repro.backends",
    "repro.serve",
    "repro.train",
    "repro.dse",
    "repro.evaluation",
]

HEADER = """\
# Public API reference

Generated by [`tools/gen_api_docs.py`](../tools/gen_api_docs.py) — do not
edit by hand.  Regenerate with:

```sh
PYTHONPATH=src python tools/gen_api_docs.py
```

The test suite regenerates it and fails when this file drifts from the
source, so every entry below is live.  Each subpackage section
lists the package's re-exported surface first, then every public module
with its classes and functions (`signature` + first docstring line).
"""


def first_doc_line(obj) -> str:
    """First non-empty docstring line of ``obj`` (empty when undocumented)."""
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    for line in doc.splitlines():
        line = line.strip()
        if line:
            return line
    return ""


def format_signature(obj) -> str:
    """Best-effort ``(...)`` signature (builtins and data have none)."""
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return "(...)"
    text = str(signature)
    # Long annotations make one-line entries unreadable; strip the return
    # annotation, keep parameters as written.
    if " -> " in text:
        text = text.split(" -> ")[0]
    return text


def public_symbols(module) -> list[tuple[str, object]]:
    """Public (name, object) pairs of ``module``, sorted by name.

    Honours ``__all__`` when declared; otherwise takes every non-underscore
    name whose object was *defined* in this module (re-exports excluded).
    """
    names = getattr(module, "__all__", None)
    if names is None:
        names = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            defined_in = getattr(obj, "__module__", None)
            if defined_in != module.__name__:
                continue
            names.append(name)
    pairs = []
    for name in sorted(set(names)):
        try:
            pairs.append((name, getattr(module, name)))
        except AttributeError:
            continue
    return pairs


def symbol_entry(name: str, obj) -> list[str]:
    """Markdown lines documenting one module-level symbol."""
    doc = first_doc_line(obj)
    if inspect.isclass(obj):
        entry = [f"- **class** `{name}{format_signature(obj)}` — {doc}"]
        members: dict[str, object] = {}
        for klass in reversed(obj.__mro__):
            if klass is object:
                continue
            for member_name, member in vars(klass).items():
                members[member_name] = member
        for method_name, method in sorted(members.items()):
            if method_name.startswith("_"):
                continue
            if isinstance(method, (staticmethod, classmethod)):
                method = method.__func__
            if isinstance(method, property):
                prop_doc = first_doc_line(method.fget) if method.fget else ""
                entry.append(f"  - `{method_name}` (property) — {prop_doc}")
                continue
            if not inspect.isfunction(method):
                continue
            entry.append(
                f"  - `{method_name}{format_signature(method)}` — "
                f"{first_doc_line(method)}")
        return entry
    if inspect.isroutine(obj):
        return [f"- `{name}{format_signature(obj)}` — {doc}"]
    kind = type(obj).__name__
    return [f"- `{name}` (*{kind}*) — {doc}"]


def package_section(package_name: str) -> list[str]:
    """Markdown lines of one subpackage's (or plain module's) section."""
    package = importlib.import_module(package_name)
    lines = [f"## `{package_name}`", ""]
    intro = first_doc_line(package)
    if intro:
        lines += [intro, ""]

    if not hasattr(package, "__path__"):
        # A plain module: its own public surface is the whole section.
        for name, obj in public_symbols(package):
            lines += symbol_entry(name, obj)
        lines += [""]
        return lines

    exported = sorted(getattr(package, "__all__", []))
    if exported:
        lines += ["Re-exported surface: "
                  + ", ".join(f"`{name}`" for name in exported), ""]

    module_names = [package_name]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name.startswith("_") or info.ispkg:
            continue
        module_names.append(f"{package_name}.{info.name}")

    for module_name in module_names:
        module = importlib.import_module(module_name)
        if module_name == package_name:
            continue  # the package surface is the __all__ listing above
        lines += [f"### `{module_name}`", ""]
        module_doc = first_doc_line(module)
        if module_doc:
            lines += [module_doc, ""]
        symbols = [
            (name, obj) for name, obj in public_symbols(module)
            if getattr(obj, "__module__", module_name) == module_name
        ]
        if not symbols:
            lines += ["*(no public module-level symbols)*", ""]
            continue
        for name, obj in symbols:
            lines += symbol_entry(name, obj)
        lines += [""]
    return lines


def generate() -> str:
    """The full docs/API.md text."""
    lines = [HEADER]
    for package_name in PACKAGES:
        lines += package_section(package_name)
    text = "\n".join(lines)
    while "\n\n\n" in text:
        text = text.replace("\n\n\n", "\n\n")
    return text.rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None,
                        help="output path (default: docs/API.md next to "
                             "this repository's docs/)")
    args = parser.parse_args(argv)

    output = Path(args.output) if args.output else (
        Path(__file__).resolve().parent.parent / "docs" / "API.md")
    text = generate()

    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(text)
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
