"""Every public top-level function and class in ``src/repro`` is named
by some program file.

A name counts as reached when a ``.py`` file outside the test suites
names it: another module of ``src/``, a script under ``perfbench/``,
``examples/`` or ``benchmarks/``, a build script at the repo root, or
its own module beyond the definition.  Package ``__init__`` files do
not count, since re-exporting a name reaches nothing.  Each file is
read once and split into words, so a name in a string or a comment
counts too (a tracer may wrap a function by its name).

The scan cannot see chains of dead code.  A name whose only callers
are themselves unreached counts as reached, and so does a name that
only its own docstring or error message mentions.  Deleting a flagged
name can therefore expose the next one.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
PROGRAM_DIRS = ("src", "perfbench", "examples", "benchmarks")

#: Names that stay although no program file reaches them, one per
#: line, each with its reason.
ALLOWLIST = {
    "repro/utils/rng.py::set_global_seed": (
        "the PYTEST_SEED hook of tests/conftest.py"
    ),
}

_WORD = re.compile(r"[A-Za-z_]\w*")


def _program_files():
    files = list(ROOT.glob("*.py"))
    for directory in PROGRAM_DIRS:
        files.extend((ROOT / directory).rglob("*.py"))
    return [
        path
        for path in files
        if path.name != "__init__.py"
        and not {"tests", "__pycache__"} & set(path.relative_to(ROOT).parts)
    ]


def _unreached():
    words = {
        path: Counter(_WORD.findall(path.read_text(encoding="utf-8")))
        for path in _program_files()
    }
    total = Counter()
    for counts in words.values():
        total.update(counts)
    unreached = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            # The definition itself names it once in its own module.
            if total[node.name] - (1 if path in words else 0) == 0:
                qualified = path.relative_to(PACKAGE.parent).as_posix()
                unreached.add(f"{qualified}::{node.name}")
    return unreached


def test_every_public_definition_is_reached():
    unreached = _unreached()
    dead = sorted(unreached - set(ALLOWLIST))
    assert not dead, (
        f"{len(dead)} public names in src/repro are named by no program "
        "file (only tests or __init__ re-exports reach them); delete "
        "them, or add each to ALLOWLIST with its reason:\n"
        + "\n".join(dead)
    )
    # An allowlisted name that a program file now reaches, or that was
    # deleted, leaves the list.
    stale = sorted(set(ALLOWLIST) - unreached)
    assert not stale, f"stale ALLOWLIST entries: {stale}"
