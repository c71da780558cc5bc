"""Source lint: removed module names must not come back.

``repro.learned.fiting_tree`` was a misspelled alias of
``repro.learned.fitting_tree``; it has been removed.  Every reference to
the misspelled name is denied everywhere except this lint itself, so
reintroducing the alias or an import of it fails CI here.
"""

from __future__ import annotations

import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Trees scanned for denylisted references.
SCAN_DIRS = ("src", "tests", "examples", "benchmarks")

#: Substrings whose appearance in a Python file is a lint failure.
DENYLIST = ("fiting_tree",)

#: Files allowed to mention a denylisted name (only this lint, which
#: has to spell it), repo-relative.
ALLOWLIST = {"tests/test_lint_denylist.py"}


def _python_files():
    for scan_dir in SCAN_DIRS:
        root = os.path.join(REPO_ROOT, scan_dir)
        if not os.path.isdir(root):
            continue
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in filenames:
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


@pytest.mark.parametrize("token", DENYLIST)
def test_no_new_references_to_denylisted_modules(token):
    offenders = []
    for path in _python_files():
        rel = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
        if rel in ALLOWLIST:
            continue
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                if token in line:
                    offenders.append(f"{rel}:{lineno}: {line.strip()}")
    assert not offenders, (
        f"removed module name {token!r} referenced outside its allowlist "
        "(import the canonical module instead):\n" + "\n".join(offenders)
    )

