"""Layout rules for the package source."""

import argparse
import ast
import json
import os
import re
import subprocess
import sys
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


def test_exports_match_all():
    """The names `cycosc/__init__.py` imports are the names of `__all__`, and each resolves."""
    import cycosc

    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imported) == len(set(imported))
    assert set(imported) == set(cycosc.__all__)
    assert len(cycosc.__all__) == len(set(cycosc.__all__))
    for name in cycosc.__all__:
        assert getattr(cycosc, name) is not None, name


def test_readme_names_exactly_the_parser_options():
    """Every `--option` README.md names is an option of `cycosc` or of a subcommand, and
    every option but --help and --version is named there."""
    from cycosc.cli import build_parser

    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme))
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {option for p in (parser, *subs.choices.values()) for action in p._actions
               for option in action.option_strings if option.startswith("--")}
    assert named <= options, sorted(named - options)
    assert options - {"--help", "--version"} <= named, sorted(options - named)


def _imports_of(package: str) -> list:
    """`file:line` of every import of `package` or one of its modules under src/."""
    imports = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports += [f"{path.name}:{node.lineno}" for name in names
                        if name.split(".")[0] == package]
    return imports


def test_no_source_module_imports_numpy():
    """The realization runs on tuples of Python complex numbers; numpy is a test dependency."""
    assert _imports_of("numpy") == []


def test_no_source_module_imports_dataclasses():
    """The value types are plain classes: `dataclasses` (with `inspect`) costs start-up time."""
    assert _imports_of("dataclasses") == []


CHILD = """
import contextlib, io, json, sys
from cycosc.cli import main
codes = []
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(json.loads(argv)))
print(json.dumps({"codes": codes, "loaded": sorted({"numpy", "dataclasses", "inspect"}
                                                 & sys.modules.keys())}))
"""


def test_the_command_line_runs_without_numpy(tmp_path):
    """verify (every suite), nf and spectrum, in one fresh process, never load numpy,
    dataclasses or inspect."""
    commands = [
        ["verify", "--lambda", "5", "--alpha", "0.3,-0.1,0.2,-0.25,-0.15", "--dim", "64",
         "--suite", "all", "--out", str(tmp_path / "report.json")],
        ["nf", "[a, ad^3]", "--lambda", "2", "--alpha", "0.5,-0.5"],
        ["spectrum", "--lambda", "3", "--alpha", "0.3,0.2,-0.5", "--dim", "16"],
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", CHILD, *map(json.dumps, commands)],
                          env=env, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == {"codes": [0, 0, 0], "loaded": []}


TRACED = """
import json, spans
tracer = spans.Tracer()
tracer.install()
from cycosc import cli, expr, normal_order
from cycosc.identities import run_suite
from cycosc.params import validate_alpha
params = validate_alpha(2, (0.5, -0.5))
run_suite(params, 16)
cli.format_nf_json(normal_order.normal_form(expr.parse("[a, ad^3]"), params))
print(json.dumps({"entered": sorted(tracer.calls), "rep_bytes": tracer.rep_bytes,
                  "memo": spans.memo_info(), "suites": spans.SUITES}))
"""


def test_every_benchmark_span_resolves_and_is_entered():
    """The benchmark's tracer wraps functions by name; a renamed or dropped one breaks its
    traced run.  Install it, run every suite, parse and render, and read the memo caches."""
    bench = SRC.parent.parent / "perfbench"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), str(bench)])}
    done = subprocess.run([sys.executable, "-c", TRACED], env=env, capture_output=True,
                          text=True, check=True)
    traced = json.loads(done.stdout)
    expected = {f"identities.suite.{suite}" for suite in traced["suites"]} | {
        "fock.build_rep", "fock.apply_word", "normal_order.normal_form",
        "normal_order.nf_to_matrix", "expr.parse", "cli.format_nf_json",
    }
    assert expected <= set(traced["entered"])
    assert traced["rep_bytes"] > 0
    assert traced["memo"]["misses"] > 0
