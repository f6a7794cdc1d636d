#!/usr/bin/env python3
"""Check that markdown cross-references resolve (files and heading anchors).

Scans the repository's markdown (root ``*.md`` plus ``docs/``) for inline
links ``[text](target)`` and verifies that

* relative file targets exist (resolved against the linking file's
  directory),
* ``#anchor`` fragments — same-file or ``file.md#anchor`` — match a heading
  in the target file under GitHub's anchor slug rules.

External (``http(s)://``, ``mailto:``) targets are not fetched.  Exit code
is non-zero when any link is broken; ``tests/test_docs.py`` runs it.

Usage::

    python tools/check_links.py [--root PATH]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

#: Inline markdown link: [text](target).  Images share the syntax (the
#: leading ``!`` is irrelevant for resolution).  Targets with spaces are
#: not used in this repository.
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_PATTERN = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE_PATTERN = re.compile(r"```.*?```", re.DOTALL)


def github_anchor(heading: str) -> str:
    """GitHub's heading→anchor slug: lowercase, drop punctuation, dashes."""
    heading = re.sub(r"`([^`]*)`", r"\1", heading)   # strip inline code
    heading = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)  # links
    heading = heading.strip().lower()
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def heading_anchors(path: Path) -> set[str]:
    """Anchors of every heading in ``path`` (duplicate suffixes included)."""
    text = CODE_FENCE_PATTERN.sub("", path.read_text(encoding="utf-8"))
    anchors: set[str] = set()
    counts: dict[str, int] = {}
    for match in HEADING_PATTERN.finditer(text):
        slug = github_anchor(match.group(1))
        seen = counts.get(slug, 0)
        anchors.add(slug if seen == 0 else f"{slug}-{seen}")
        counts[slug] = seen + 1
    return anchors


def markdown_files(root: Path) -> list[Path]:
    """The markdown set the repository documents itself with."""
    files = sorted(root.glob("*.md"))
    files += sorted((root / "docs").glob("*.md"))
    return [path for path in files if path.is_file()]


def check_file(path: Path, root: Path) -> list[str]:
    """Broken-link descriptions of one markdown file (empty when clean)."""
    text = path.read_text(encoding="utf-8")
    text = CODE_FENCE_PATTERN.sub("", text)
    errors = []
    for match in LINK_PATTERN.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if target.startswith("#"):
            if target[1:] not in heading_anchors(path):
                errors.append(f"{path.relative_to(root)}: broken anchor "
                              f"{target!r}")
            continue
        file_part, _, anchor = target.partition("#")
        resolved = (path.parent / file_part).resolve()
        if not resolved.exists():
            errors.append(f"{path.relative_to(root)}: broken link "
                          f"{target!r} (no such file)")
            continue
        if anchor and resolved.suffix == ".md":
            if anchor not in heading_anchors(resolved):
                errors.append(f"{path.relative_to(root)}: broken anchor "
                              f"{target!r}")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: this script's "
                             "parent's parent)")
    args = parser.parse_args(argv)
    root = (Path(args.root).resolve() if args.root
            else Path(__file__).resolve().parent.parent)

    errors: list[str] = []
    files = markdown_files(root)
    for path in files:
        errors.extend(check_file(path, root))

    if errors:
        for error in errors:
            print(f"error: {error}")
        return 1
    print(f"checked {len(files)} markdown file(s): all links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
