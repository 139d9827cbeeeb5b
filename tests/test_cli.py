import json

import pytest

from cycosc.cli import main


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
