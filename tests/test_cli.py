import contextlib
import enum
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycosc.cli import _json, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf_bracket(capsys):
    code, out, _ = run(capsys, "nf", "[a, ad]", "--lambda", "2", "--kappa", "0.5")
    assert code == 0
    assert out.splitlines() == ["1 I", "0.5 K"]


def test_nf_partition_of_unity(capsys):
    code, out, _ = run(capsys, "nf", "P0+P1", "--lambda", "2")
    assert code == 0
    assert out.splitlines() == ["1 I"]


def test_nf_structure_function_expansion(capsys):
    # ad a is itself a canonical monomial; the number operator is the one
    # that picks up deformation terms in K powers
    code, out, _ = run(
        capsys, "nf", "ad a", "--lambda", "3", "--alpha", "0.3,0.2,-0.5"
    )
    assert code == 0
    assert out.splitlines() == ["1 ad a"]
    code, out, _ = run(capsys, "nf", "N", "--lambda", "3", "--alpha", "0.3,0.2,-0.5")
    assert code == 0
    lines = out.splitlines()
    assert any(line.endswith("ad a") for line in lines)
    assert any("K" in line for line in lines)


def test_nf_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "nf", "[a, ad]", "--lambda", "2", "--kappa", "0.5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == 2
    terms = {(t["p"], t["q"], t["r"]): complex(t["re"], t["im"]) for t in payload["terms"]}
    assert terms[(0, 0, 0)] == pytest.approx(1.0)
    assert terms[(0, 0, 1)] == pytest.approx(0.5)


@pytest.mark.parametrize("alpha, k_line", [("1e6,-1e6", "1000000 K"), ("0.5,-0.5", "0.5 K")])
def test_nf_text_hides_round_off_relative_to_the_coefficient(capsys, alpha, k_line):
    """The kappa DFT leaves an imaginary part of about 1e-16 times kappa: printed as real."""
    code, out, _ = run(capsys, "nf", "[a, ad]", "--lambda", "2", "--alpha", alpha)
    assert code == 0
    assert out.splitlines() == ["1 I", k_line]
    code, out, _ = run(capsys, "nf", "[a, ad]", "--lambda", "2", "--alpha", alpha,
                       "--format", "json")
    assert json.loads(out)["terms"][1]["im"] != 0.0  # the JSON keeps the exact value


def test_commutator_sugar(capsys):
    code_a, out_a, _ = run(capsys, "commutator", "a", "ad", "--lambda", "2", "--kappa", "0.5")
    code_b, out_b, _ = run(capsys, "nf", "[a, ad]", "--lambda", "2", "--kappa", "0.5")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_nf_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "nf", "ad^-1", "--lambda", "2")
    assert code == 2
    assert "error" in err


def test_spectrum_text(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--lambda", "2", "--alpha", "0.5,-0.5", "--dim", "16"
    )
    assert code == 0
    assert "0.750000000000" in out


def test_spectrum_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--lambda", "2", "--alpha", "0,0", "--dim", "8",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == list(range(7))
    assert rows[0]["energy"] == pytest.approx(0.5)
    assert max(r["abs_diff"] for r in rows) < 1e-10


def test_verify_undeformed_no_failures(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--lambda", "2", "--alpha", "0,0", "--dim", "32",
        "--suite", "basic,sp2,casimir", "--out", str(out_file),
    )
    assert code == 0
    assert "fail: 0" in out
    report = json.loads(out_file.read_text())
    assert report["summary"]["fail"] == 0
    assert report["summary"]["discrepancy"] == 0


def test_verify_deterministic_bytes(tmp_path, capsys):
    paths = []
    for name in ("a.json", "b.json"):
        out_file = tmp_path / name
        code, _, _ = run(
            capsys, "verify", "--lambda", "3", "--alpha", "0.3,0.2,-0.5",
            "--dim", "24", "--suite", "basic,single", "--out", str(out_file),
        )
        assert code == 0
        paths.append(out_file.read_bytes())
    assert paths[0] == paths[1]


def test_verify_strict_policy(tmp_path, capsys):
    args = [
        "verify", "--lambda", "2", "--kappa", "0.5", "--dim", "24",
        "--suite", "sp2", "--out", str(tmp_path / "r.json"),
    ]
    code, _, _ = run(capsys, *args)
    assert code == 0  # discrepancies alone do not fail the run
    code, _, _ = run(capsys, *args, "--strict-paper")
    assert code == 1


def test_verify_io_error(capsys):
    code, _, err = run(
        capsys, "verify", "--lambda", "2", "--alpha", "0,0", "--dim", "16",
        "--suite", "basic", "--out", "/nonexistent-dir/report.json",
    )
    assert code == 3
    assert "error" in err


def test_verify_json_to_stdout(capsys):
    code, out, _ = run(
        capsys, "verify", "--lambda", "2", "--alpha", "0,0", "--dim", "16",
        "--suite", "basic", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["dim"] == 16


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"lambda": 2, "alpha": [0.5, -0.5], "dim": 8}))
    code, out, _ = run(capsys, "spectrum", "--config", str(cfg), "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 7  # dim from config
    # flags win over the config file
    code, out, _ = run(
        capsys, "spectrum", "--config", str(cfg), "--dim", "6",
        "--alpha", "0,0", "--format", "json",
    )
    rows = json.loads(out)
    assert len(rows) == 5
    assert rows[0]["energy"] == pytest.approx(0.5)


def test_kappa_flag_complex_pairs(capsys):
    code, out, _ = run(
        capsys, "nf", "[a, ad]", "--lambda", "3",
        "--kappa", "0.2:0.1,0.2:-0.1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    terms = {(t["p"], t["q"], t["r"]): complex(t["re"], t["im"]) for t in payload["terms"]}
    assert terms[(0, 0, 1)] == pytest.approx(0.2 + 0.1j)
    assert terms[(0, 0, 2)] == pytest.approx(0.2 - 0.1j)


def test_dump_matrices(tmp_path, capsys):
    path = tmp_path / "mats.json"
    code, _, _ = run(
        capsys, "spectrum", "--lambda", "2", "--alpha", "0,0", "--dim", "8",
        "--dump-matrices", str(path),
    )
    assert code == 0
    blob = json.loads(path.read_text())
    assert blob["a"]["rows"] == 8
    assert [e[:2] for e in blob["K"]["entries"]] == [[n, n] for n in range(8)]


def test_wconst_output(capsys):
    code, out, _ = run(capsys, "wconst", "--i", "0")
    assert code == 0
    assert "c_0 = 1/24" in out
    code, out, _ = run(capsys, "wconst", "--i", "1", "--m", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["c_i_m"] == 0.0
    code, out, _ = run(
        capsys, "wconst", "--i", "0", "--j", "0", "--l", "0", "--m", "1", "--n", "-1"
    )
    assert "N_literal" in out and "N_alt" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_wconst_overflow_exits_2(capsys, fmt):
    """The phi series overflows from l = 115: a non-finite value is refused, never printed."""
    code, out, err = run(capsys, "wconst", "--l", "150", "--format", fmt)
    assert code == 2
    assert err == "error: phi(0,0,150) = nan: the series overflows\n"
    assert out == ""


def test_usage_error_exit_code(capsys):
    assert main(["verify", "--suite", "bogus"]) == 2
    assert main(["nonsense"]) == 2


@pytest.mark.parametrize(
    "flags",
    [
        ("--lambda", "2", "--alpha", "inf,-inf", "--dim", "16"),
        ("--lambda", "2", "--alpha", "nan,nan", "--dim", "16"),
        ("--lambda", "2", "--kappa", "inf", "--dim", "16"),
        ("--lambda", "2", "--alpha", "0.5,-0.5", "--dim", "512"),
        ("--lambda", "12", "--dim", "13"),
    ],
    ids=["alpha-inf", "alpha-nan", "kappa-inf", "dim-over-cap", "dim-below-lambda"],
)
def test_verify_rejects_invalid_input_before_grading(tmp_path, capsys, flags):
    out_file = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", *flags, "--out", str(out_file))
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""
    assert not out_file.exists()


def test_verify_wconst_is_realization_free(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", "--lambda", "2", "--dim", "512", "--suite", "wconst",
        "--out", str(out_file),
    )
    assert code == 0
    assert json.loads(out_file.read_text())["summary"]["fail"] == 0


@pytest.mark.parametrize("dim_text", ["Infinity", "NaN", "12.7"])
def test_config_dim_must_be_whole(tmp_path, capsys, dim_text):
    cfg = tmp_path / "params.json"
    cfg.write_text('{"lambda": 2, "alpha": [0.5, -0.5], "dim": %s}' % dim_text)
    out_file = tmp_path / "report.json"
    code, _, err = run(
        capsys, "verify", "--config", str(cfg), "--suite", "basic", "--out", str(out_file)
    )
    assert code == 2
    assert "dim must be a whole number" in err
    assert not out_file.exists()


def test_config_dim_whole_float_accepted(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"lambda": 2, "alpha": [0.5, -0.5], "dim": 8.0}))
    code, out, _ = run(capsys, "spectrum", "--config", str(cfg), "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 7


def test_config_file_read_once(tmp_path, capsys, monkeypatch):
    import cycosc.cli as cli

    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"lambda": 2, "alpha": [0.5, -0.5], "dim": 8}))
    reads = []
    original = cli._load_config

    def counting(args):
        reads.append(args.config)
        return original(args)

    monkeypatch.setattr(cli, "_load_config", counting)
    code, _, _ = run(capsys, "spectrum", "--config", str(cfg), "--format", "json")
    assert code == 0
    assert reads == [str(cfg)]


def test_wconst_dual_readings_match_structure(capsys):
    from cycosc.winf import winf_structure

    code, out, _ = run(
        capsys, "wconst", "--i", "2", "--j", "1", "--l", "1", "--m", "2", "--n", "-1",
        "--format", "json",
    )
    assert code == 0
    both = json.loads(out)["dual_readings"]
    for nr in ("literal", "alt"):
        for pr in ("literal", "alt"):
            const = winf_structure(2, 1, 1, 2, -1, n_reading=nr, phi_reading=pr)
            assert both[f"N_{nr}"] == const.value_N
            assert both[f"phi_{pr}"] == const.value_phi


@pytest.mark.parametrize(
    "cfg_text",
    [
        '{"lambda": null, "alpha": [0.5, -0.5], "dim": 16}',
        '{"lambda": 2, "alpha": [0.5, -0.5], "dim": null}',
        '{"lambda": 2, "alpha": [0.5, -0.5], "dim": [64]}',
    ],
    ids=["lambda-null", "dim-null", "dim-list"],
)
def test_config_values_must_be_whole_numbers(tmp_path, capsys, cfg_text):
    cfg = tmp_path / "params.json"
    cfg.write_text(cfg_text)
    out_file = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "--config", str(cfg), "--suite", "basic", "--out", str(out_file)
    )
    assert code == 2
    assert "must be a whole number" in err
    assert out == ""
    assert not out_file.exists()


def test_verify_refuses_dim_too_small_for_a_check(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "--lambda", "2", "--alpha", "0.5,-0.5", "--dim", "12",
        "--out", str(out_file),
    )
    assert code == 2
    assert err.startswith("error: lambda2 ") and "dim 12" in err
    assert out == ""
    assert not out_file.exists()
    code, _, _ = run(
        capsys, "verify", "--lambda", "2", "--alpha", "0.5,-0.5", "--dim", "13",
        "--out", str(out_file),
    )
    assert code == 0


@pytest.mark.parametrize("command", [("nf", "a"), ("commutator", "a", "ad")])
@pytest.mark.parametrize("flag", [("--dim", "3"), ("--dump-matrices", "x.json")])
def test_rewrite_commands_take_no_realization_flags(capsys, command, flag):
    code, out, _ = run(capsys, *command, *flag)
    assert code == 2
    assert out == ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_refuses_to_write_non_finite_report(tmp_path, capsys):
    # valid input whose matrix products overflow: the report would hold NaN
    out_file = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "--lambda", "2", "--alpha", "1e200,-1e200", "--dim", "16",
        "--format", "json", "--out", str(out_file),
    )
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""
    assert not out_file.exists()


@pytest.mark.parametrize("command", [("nf", "a"), ("commutator", "a", "ad")])
def test_rewrite_commands_have_no_json_flag(capsys, command):
    code, out, _ = run(capsys, *command, "--json")
    assert code == 2
    assert out == ""


BAD_PARAMETER_INPUTS = {
    "config-null": ("null", ()),
    "config-list": ("[1, 2]", ()),
    "alpha-null": ('{"lambda": 2, "alpha": null}', ()),
    "alpha-null-entry": ('{"lambda": 2, "alpha": [null, 0]}', ()),
    "alpha-string": ('{"lambda": 2, "alpha": "00"}', ()),
    "alpha-bool-entry": ('{"lambda": 2, "alpha": [true, -1]}', ()),
    "kappa-flat": ('{"lambda": 2, "kappa": [0.5]}', ()),
    "kappa-short-pair": ('{"lambda": 2, "kappa": [[0.5]]}', ()),
    "kappa-string": ('{"lambda": 2, "kappa": "5"}', ()),
    "kappa-string-pair": ('{"lambda": 3, "kappa": [["a", "b"], [1, 2]]}', ()),
    "alpha-flag-empty": (None, ("--lambda", "2", "--alpha=")),
    "kappa-flag-empty-beside-alpha": (None, ("--lambda", "2", "--kappa=", "--alpha=0.5,-0.5")),
}


@pytest.mark.parametrize("cfg_text, flags", BAD_PARAMETER_INPUTS.values(), ids=BAD_PARAMETER_INPUTS)
def test_verify_refuses_malformed_parameters(tmp_path, capsys, cfg_text, flags):
    if cfg_text is not None:
        cfg = tmp_path / "params.json"
        cfg.write_text(cfg_text)
        flags = ("--config", str(cfg))
    out_file = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", *flags, "--dim", "16", "--suite", "basic", "--out", str(out_file)
    )
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""
    assert not out_file.exists()


def test_both_vector_flags_are_refused(capsys):
    code, _, err = run(capsys, "nf", "a", "--lambda", "2", "--alpha", "0.5,-0.5", "--kappa", "0.5")
    assert code == 2
    assert err == "error: give exactly one of alpha / kappa, got alpha and kappa\n"


def test_trailing_comma_in_vector_flags(capsys):
    code, out, _ = run(capsys, "spectrum", "--lambda", "2", "--alpha=0.5,-0.5,", "--dim", "16")
    assert code == 0
    assert out == run(capsys, "spectrum", "--lambda", "2", "--alpha", "0.5,-0.5", "--dim", "16")[1]
    assert "0.750000000000" in out
    code, out, _ = run(capsys, "nf", "[a, ad]", "--lambda", "2", "--kappa=0.5,")
    assert code == 0
    assert out.splitlines() == ["1 I", "0.5 K"]


def test_vector_flag_replaces_both_config_vectors(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"lambda": 2, "kappa": [[0.5, 0.0]]}))
    code, out, _ = run(capsys, "nf", "[a, ad]", "--config", str(cfg), "--alpha", "0,0")
    assert code == 0
    assert out.splitlines() == ["1 I"]


@pytest.mark.parametrize(
    "argv",
    [
        ("nf", "a^1100 ad", "--lambda", "2"),
        ("nf", "(" * 300 + "a" + ")" * 300, "--lambda", "2"),
        ("nf", "a", "--config", "{big}"),
        ("nf", "a", "--lambda", "99999999999999999999"),
    ],
    ids=["rewrite-too-deep", "parse-too-deep", "alpha-too-large", "lambda-too-large"],
)
def test_too_deep_or_too_large_input_exits_2(tmp_path, capsys, argv):
    cfg = tmp_path / "params.json"
    cfg.write_text('{"lambda": 2, "alpha": [1%s, -1]}' % ("0" * 399))
    code, out, err = run(capsys, *(arg.format(big=cfg) for arg in argv))
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("source", ["flag", "config"])
def test_lambda_is_bounded_before_any_work(tmp_path, capsys, source):
    """A huge lambda is refused before the default alpha list or the transform is built."""
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"lambda": 1000000000}))
    argv = ("--lambda", "999999999") if source == "flag" else ("--config", str(cfg))
    code, out, err = run(capsys, "nf", "a", *argv)
    assert code == 2
    assert err.startswith("error: lambda ") and "exceeds 254" in err
    assert out == ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_refuses_an_overflowing_realization(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "--lambda", "2", "--alpha", "1e200,-1e200", "--dim", "16",
        "--out", str(out_file),
    )
    assert code == 2
    assert err.startswith("error: single.m") and "overflows" in err
    assert out == ""
    assert not out_file.exists()


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
NUMBERS = st.integers() | st.floats()
CONFIGS = JSON_VALUES | st.fixed_dictionaries({}, optional={
    "lambda": st.integers() | st.integers(-(2**60), 2**60).map(float),
    "alpha": JSON_VALUES | st.lists(NUMBERS, max_size=9),
    "kappa": JSON_VALUES | st.lists(st.lists(NUMBERS, max_size=3), max_size=8),
    "dim": JSON_VALUES | st.integers(-2, 300),
})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(cfg_obj=CONFIGS)
def test_config_boundary_never_raises(tmp_path_factory, cfg_obj):
    """Any JSON config ends `nf` and `spectrum` with exit 0 or 2, never an exception."""
    cfg = tmp_path_factory.mktemp("cfg") / "params.json"
    cfg.write_text(json.dumps(cfg_obj))
    for argv in (["nf", "a", "--config", str(cfg)], ["spectrum", "--config", str(cfg)]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nf_refuses_an_alpha_whose_kappa_overflows(capsys):
    # finite alpha, but the alpha -> kappa transform overflows: the K term would be lost
    code, out, err = run(capsys, "nf", "[a, ad]", "--lambda", "2", "--alpha", "1e308,-1e308")
    assert code == 2
    assert err.startswith("error: alpha ") and "overflows" in err
    assert out == ""


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("text", ["1e308 * 10 * a", "1e400", "1e200 * 1e200 * (1,1)"])
def test_nf_refuses_a_non_finite_coefficient(capsys, text, fmt):
    code, out, err = run(capsys, "nf", text, "--format", fmt)
    assert code == 2
    assert err.startswith("error: the normal form of ") and "non-finite" in err
    assert out == ""


FINITE = st.floats(allow_nan=False, allow_infinity=False)
WRITER_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**200) | FINITE
    | st.just(-0.0) | FINITE.map(np.float64) | st.text(max_size=4)
)
WRITER_VALUES = st.recursive(
    WRITER_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(value=WRITER_VALUES)
@example(value={"\u00e9\u4e2d\U0001f600": [{}, [], (), -0.0, 10**40, "\x00\"\\"]})
@example(value=[np.float64(1e-310), {"b": None, "a": [True, False]}])
@example(value=[enum.IntEnum("Level", "ONE TWO").TWO, {"n": enum.IntEnum("Grade", "G").G}])
def test_json_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), np.float64("nan")])
def test_json_writer_refuses_non_finite_numbers(bad):
    for value in (bad, [1, bad], {"x": {"y": bad}}):
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            _json(value)


@pytest.mark.parametrize("bad", [np.bool_(True), np.int64(3), 1j, {1, 2}, {1: 2}, {"a": 1, 2: 3}])
def test_json_writer_refuses_other_types(bad):
    for value in (bad, [bad], {"x": [bad]}):
        with pytest.raises(TypeError):
            _json(value)
