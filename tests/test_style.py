import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polyzeta"
MAX_COLUMNS = 100


def test_source_lines_fit_the_column_limit():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    long = [
        f"{path.name}:{n} ({len(line)} columns)"
        for path in files
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert long == []


def test_no_unused_imports():
    """No module but ``__init__.py`` imports a name that it never uses."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
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
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
