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


def _names_np(node) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "np" for n in ast.walk(node))


def test_the_algebra_core_uses_numpy_only_to_build_matrices():
    """identities.py imports no numpy; normal_order.py names np only inside nf_to_matrix.

    K-polynomials are tuples of complex numbers, so every published side is
    built with Python's own arithmetic.
    """
    tree = ast.parse((SRC / "identities.py").read_text(encoding="utf-8"))
    imports = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
    ]
    assert imports == []

    tree = ast.parse((SRC / "normal_order.py").read_text(encoding="utf-8"))
    users = [node.name for node in tree.body if _names_np(node)]
    assert users == ["nf_to_matrix"]
