"""Layout rules for the package source."""

import ast
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


def test_json_output_has_one_writer():
    """Every JSON output goes through cli._json: no module calls json.dump or json.dumps."""
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                calls += [f"{path.name}:{node.lineno}" for alias in node.names
                          if alias.name in ("dump", "dumps")]
            elif (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                  and isinstance(node.value, ast.Name) and node.value.id == "json"):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
