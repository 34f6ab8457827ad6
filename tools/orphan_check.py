#!/usr/bin/env python3
"""Orphan-header guard, stdlib only.

A header under src/ is an orphan when no shipped file includes it except
its own .cpp: the module builds and its tests pass, yet no binary the
repo ships (coeffctl, the figure and micro benches, the examples,
perfbench) can reach it. The check collects every `#include "..."`
under the shipped trees

    src/  tools/  bench/  examples/  perfbench/

and names every src/**/*.hpp whose only includer is its own .cpp (or
that nothing includes at all). tests/ and fuzz/ do not count as
shipped: a module that only its own test includes is exactly what this
check exists to catch.

An include resolves against the including file's directory first, then
against src/ (the include root every target shares).

The check is a floor, not a proof. It looks one include edge deep: a
header included only by another orphan-like header still passes, and a
header that some shipped file includes may still be dead weight. A pass
does not show that a header is needed.

Usage: orphan_check.py [ROOT]   (ROOT defaults to the repo containing
this script). Exits 0 when no orphan is found, 1 naming each orphan,
2 when ROOT has no src/ directory.
"""

import os
import re
import sys

SHIPPED = ("src", "tools", "bench", "examples", "perfbench")
SOURCE_EXTS = (".cpp", ".cc", ".hpp", ".h")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def source_files(root):
    for top in SHIPPED:
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def resolve(root, including_file, target):
    """Repo-relative path of an include target, or None if not in-tree."""
    for base in (os.path.dirname(including_file), os.path.join(root, "src")):
        candidate = os.path.normpath(os.path.join(base, target))
        if os.path.isfile(candidate):
            return os.path.relpath(candidate, root)
    return None


def includers_by_header(root):
    includers = {}
    for path in source_files(root):
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        rel = os.path.relpath(path, root)
        for target in INCLUDE_RE.findall(text):
            header = resolve(root, path, target)
            if header is not None and header != rel:
                includers.setdefault(header, set()).add(rel)
    return includers


def orphans(root):
    includers = includers_by_header(root)
    found = []
    for path in source_files(root):
        rel = os.path.relpath(path, root)
        if not (rel.startswith("src" + os.sep) and rel.endswith(".hpp")):
            continue
        own_cpp = rel[: -len(".hpp")] + ".cpp"
        if not includers.get(rel, set()) - {own_cpp}:
            found.append(rel)
    return sorted(found)


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if len(argv) > 2 or not os.path.isdir(os.path.join(root, "src")):
        print("usage: orphan_check.py [ROOT]  (ROOT must contain src/)",
              file=sys.stderr)
        return 2
    found = orphans(root)
    for rel in found:
        print(f"orphan: {rel}: no shipped file includes it but its own .cpp")
    if found:
        print(f"{len(found)} orphan header(s)")
        return 1
    print("orphan_check: no orphan headers")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
