"""Every public top-level function and class in ``src/repro``, and
every method and property of its top-level classes, is reached by some
program file.

Program files are the ``.py`` files outside the test suites: the
modules of ``src/``, the scripts under ``perfbench/``, ``examples/``
and ``benchmarks/``, and the build scripts at the repo root.  Package
``__init__`` files do not count, since re-exporting a name reaches
nothing.

A top-level name counts as reached when a program file names it, the
definition's own module beyond the definition included.  Each file is
read once and split into words, so a name in a string or a comment
counts too (a tracer may wrap a function by its name).

A method or property counts as reached when a program file accesses it
as an attribute (``x.name``), or holds a string that is exactly its
name, which is how a tracer or a ``getattr`` names it.  Docstrings and
comments do not count.  Dunder methods are left out: the language
calls them.

The scan cannot see chains of dead code.  A name whose only callers
are themselves unreached counts as reached, and so does a top-level
name that only its own docstring or error message mentions.  Deleting
a flagged name can therefore expose the next one.
"""

import ast
import re
from collections import Counter
from functools import lru_cache
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


def _docstrings(tree):
    """The string constants of ``tree`` that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                first.value, ast.Constant
            ) and isinstance(first.value.value, str):
                found.add(first.value)
    return found


def _attribute_uses(tree):
    """Attribute names ``tree`` accesses, and its non-docstring strings
    that are identifiers."""
    docstrings = _docstrings(tree)
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            uses.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and node not in docstrings
        ):
            uses.add(node.value)
    return uses


def _is_function(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


@lru_cache(maxsize=None)
def _unreached():
    """(top-level names, methods) that no program file reaches."""
    words = Counter()
    uses = set()
    own = set()
    for path in _program_files():
        text = path.read_text(encoding="utf-8")
        own.add(path)
        words.update(_WORD.findall(text))
        uses |= _attribute_uses(ast.parse(text))
    names, methods = set(), set()
    for path in sorted(PACKAGE.rglob("*.py")):
        qualified = path.relative_to(PACKAGE.parent).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not (_is_function(node) or isinstance(node, ast.ClassDef)):
                continue
            # The definition itself names it once in its own module.
            if not node.name.startswith("_") and (
                words[node.name] - (1 if path in own else 0) == 0
            ):
                names.add(f"{qualified}::{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if (
                    _is_function(member)
                    and not (member.name.startswith("__")
                             and member.name.endswith("__"))
                    and member.name not in uses
                ):
                    methods.add(f"{qualified}::{node.name}.{member.name}")
    return names, methods


def _check(unreached, kind):
    allowed = {key for key in ALLOWLIST if ("." in key.split("::")[1])
               == (kind == "methods")}
    dead = sorted(unreached - allowed)
    assert not dead, (
        f"{len(dead)} {kind} in src/repro are reached by no program "
        "file (only tests or __init__ re-exports reach them); delete "
        "them, move an oracle into tests/oracles.py, or add each to "
        "ALLOWLIST with its reason:\n" + "\n".join(dead)
    )
    # An allowlisted name that a program file now reaches, or that was
    # deleted, leaves the list.
    stale = sorted(allowed - unreached)
    assert not stale, f"stale ALLOWLIST entries: {stale}"


def test_every_public_definition_is_reached():
    _check(_unreached()[0], "public names")


def test_every_method_is_reached():
    _check(_unreached()[1], "methods")
