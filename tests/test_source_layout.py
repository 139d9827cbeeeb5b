"""Layout rules for the package source."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cycosc"
MAX_LINE = 100


def test_no_source_line_over_max_length():
    long_lines = [
        f"{path.name}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []
