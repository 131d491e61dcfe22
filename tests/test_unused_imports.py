"""Every name a module of ``src/repro`` imports is used in that module.

A module's imported names are the names its ``import`` and ``from ...
import`` statements bind (``import a.b`` binds ``a``; ``as`` binds the
alias), wherever in the module they stand.  ``from __future__`` imports
are compiler directives and bind nothing.  A name counts as used when
the module reads it as a name, or when a string in the module parses as
an expression that does: string annotations (``"np.ndarray | None"``)
and ``__all__`` entries.  Package ``__init__`` files are skipped, since
their imports are the package's re-exports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


def _used_names(tree: ast.AST) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            used.update(
                name.id
                for name in ast.walk(expression)
                if isinstance(name, ast.Name)
            )
    return used


def _unused_imports() -> list:
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "__future__"
            ):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    module = path.relative_to(PACKAGE.parent).as_posix()
                    unused.append(f"{module}:{node.lineno}: {bound}")
    return unused


def test_every_imported_name_is_used():
    unused = _unused_imports()
    assert not unused, (
        f"{len(unused)} imported names in src/repro are never used in "
        "their module; remove them:\n" + "\n".join(unused)
    )
