import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC, TESTS = ROOT / "src" / "polyzeta", ROOT / "tests"
MAX_COLUMNS = 100


def checked_files() -> list[Path]:
    """The package's modules and the test files."""
    src, tests = sorted(SRC.glob("*.py")), sorted(TESTS.glob("*.py"))
    assert src and tests, f"no sources under {SRC} or no tests under {TESTS}"
    return src + tests


def test_source_lines_fit_the_column_limit():
    long = [
        f"{path.relative_to(ROOT)}:{n} ({len(line)} columns)"
        for path in checked_files()
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert long == []


def test_no_unused_imports():
    """No module or test file but ``__init__.py`` imports a name that it never uses."""
    unused = []
    for path in checked_files():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert unused == []


def test_no_dead_private_helpers():
    """Every private module-level name of the package, and every method of a
    private class, is used in the package outside its own definition."""
    def loads(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))

    def dunder(name):
        return name.startswith("__") and name.endswith("__")

    defined, used = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used += loads(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(path, name, node) for name in names
                        if name.startswith("_") and not dunder(name)]
            if isinstance(node, ast.ClassDef) and node.name.startswith("_"):
                defined += [(path, item.name, item) for item in node.body
                            if isinstance(item, ast.FunctionDef) and not dunder(item.name)]
    dead = [f"{path.relative_to(ROOT)}:{node.lineno} {name}" for path, name, node in defined
            if used[name] == loads(node)[name]]
    assert dead == []
