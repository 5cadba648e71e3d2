"""Source hygiene: no module-level import goes unused, no package name or
method goes unnamed, README's module table lists exactly the package's
modules, JSON goes through one reader and writer, threads start in two
functions only, and the package version is written down once.

A stdlib `ast` scan of every file in src/lsvos, tests and demos.  Package
`__init__.py` files are skipped: their imports are re-exports.
"""

import ast
import sys
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


NAMING_FOLDERS = ("src", "tests", "demos", "bench")
DEFINING = [path for path in SOURCES if path.parent.name == "lsvos"]


def _top_level_definitions(tree: ast.Module) -> dict[str, int]:
    """Function, class and constant bound at module level -> its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return names


def _naming_references(tree: ast.AST) -> set[str]:
    """Names read, attributes taken, and the parts of dotted-name strings.

    A string such as "models.ae_gradients" (the bench tracer's patch list)
    or "ae_gradients" (a monkeypatch target) names the function too.
    """
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                refs.update(parts)
    return refs


def _all_references() -> set[str]:
    # a package __init__ only re-exports, so it neither defines nor names
    refs = set()
    for folder in NAMING_FOLDERS:
        for path in (REPO_ROOT / folder).rglob("*.py"):
            if path.name != "__init__.py":
                refs |= _naming_references(ast.parse(path.read_text(), filename=str(path)))
    return refs


def test_every_top_level_name_in_the_package_is_named_elsewhere():
    refs = _all_references()
    dead = [
        f"{path.name}:{line} {name}"
        for path in DEFINING
        for name, line in _top_level_definitions(ast.parse(path.read_text())).items()
        if name not in refs
    ]
    assert not dead, f"defined and never named elsewhere: {', '.join(dead)}"


def test_every_method_and_property_in_the_package_is_named_elsewhere():
    # dunders are called by Python itself, so only the other members count
    refs = _all_references()
    dead = [
        f"{path.name}:{member.lineno} {node.name}.{member.name}"
        for path in DEFINING
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (member.name.startswith("__") and member.name.endswith("__"))
        and member.name not in refs
    ]
    assert not dead, f"defined and never named elsewhere: {', '.join(dead)}"


def test_readme_module_table_names_exactly_the_package_modules():
    readme = (REPO_ROOT / "README.md").read_text()
    block = readme.split("## Modules", 1)[1].split("```")[1]
    listed = [line.split()[0] for line in block.splitlines() if line.strip()]
    modules = {f"lsvos.{path.stem}" for path in DEFINING}
    assert len(listed) == len(set(listed)), f"listed twice: {listed}"
    assert set(listed) == modules


# every JSON file the package writes or reads goes through these two
JSON_CODEC = {("metrics.py", "json_text"), ("metrics.py", "read_json")}


def test_json_text_is_written_and_read_in_one_place():
    stray = []
    for path in DEFINING:
        for node in ast.parse(path.read_text()).body:
            if (path.name, getattr(node, "name", None)) in JSON_CODEC:
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom) and sub.module == "json":
                    stray.append(f"{path.name}:{sub.lineno} from json import")
                elif (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "json"
                    and sub.attr in ("dumps", "loads")
                ):
                    stray.append(f"{path.name}:{sub.lineno} json.{sub.attr}")
    assert not stray, f"JSON handled outside metrics.json_text/read_json: {', '.join(stray)}"


# the only functions that start threads; README states the rules their
# helpers keep (no traced function, bits independent of them)
THREAD_HOMES = {("nn.py", "run_threads"), ("pipeline.py", "_train")}
THREAD_NAMES = {"ThreadPoolExecutor", "Thread"}


def test_threads_start_only_where_the_readme_rules_cover_them():
    stray = []
    for path in DEFINING:
        for node in ast.parse(path.read_text()).body:
            if (path.name, getattr(node, "name", None)) in THREAD_HOMES:
                continue
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    names = {alias.name.rsplit(".", 1)[-1] for alias in sub.names}
                else:
                    names = {getattr(sub, "id", None), getattr(sub, "attr", None)}
                stray += [f"{path.name}:{sub.lineno} {name}" for name in names & THREAD_NAMES]
    assert not stray, f"threads outside {sorted(THREAD_HOMES)}: {', '.join(stray)}"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_pyproject_and_the_package_give_one_version():
    import tomllib

    import lsvos

    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]
    assert project["version"] == lsvos.__version__
