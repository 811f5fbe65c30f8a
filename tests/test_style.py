import ast
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
