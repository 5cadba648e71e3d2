"""Source hygiene: no module-level import goes unused.

A stdlib `ast` scan of every file in src/lsvos, tests and demos.  Package
`__init__.py` files are skipped: their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path
    for folder in ("src/lsvos", "tests", "demos")
    for path in (REPO_ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import -> its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as -> "EvaluationReport" still uses the name
            if node.value.isidentifier():
                used.add(node.value)
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [
        f"line {line}: {name}"
        for name, line in _imported_names(tree).items()
        if name not in used
    ]
    assert not unused, f"{path.name} imports and never uses: {', '.join(unused)}"
