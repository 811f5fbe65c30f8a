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
