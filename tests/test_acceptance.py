"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single [PASS]/[FAIL] verdict line (visible with -s).

Criterion 7 is implemented exactly as stated and is EXPECTED TO FAIL: the
published Klein-grading constants use the exponent m+1 (ladder case) and
s+m (spin case), while the realization forced by K^lam = 1 together with
a+ K = exp(-2i pi/lam) K a+ grades by the net degree, giving exponent m and
s-m.  No admissible realization choice can close that gap; the companion
test directly below verifies the measured gradings and passes.  The
verification reports document the same mismatch as 'discrepancy' entries.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from cycosc import expr as ex
from cycosc.cli import main
from cycosc.fock import apply_word, build_rep, safe_window, spectrum, spectrum_closed_form
from cycosc.identities import (
    check_basic,
    check_casimir,
    check_klein_virasoro,
    check_klein_winf,
    check_lambda2,
    check_single_mode,
    check_virasoro,
    run_suite,
    virasoro_sign,
)
from cycosc.normal_order import (
    beta_tower_raw,
    f_kpoly,
    kpoly_left_sum,
    nf_add,
    nf_to_matrix,
    normal_form,
)
from cycosc.params import params_from_kappa, validate_alpha
from cycosc.winf import central_charge, central_term, winf_structure

from conftest import random_valid_alpha

DIM = 64
LAMBDAS = (2, 3, 4, 5)
SEED = 987654321


def _verdict(number, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:>2}: {label}")


def _grid_params():
    rng = np.random.default_rng(SEED)
    out = []
    for lam in LAMBDAS:
        for _ in range(3):
            out.append(validate_alpha(lam, random_valid_alpha(rng, lam)))
    return out


def test_criterion01_defining_relations():
    start = time.time()
    worst = 0.0
    for params in _grid_params():
        for check in check_basic(params, DIM):
            assert check.status == "pass", (params.lam, check.id)
            worst = max(worst, check.residual_paper)
    elapsed = time.time() - start
    ok = worst < 1e-12 and elapsed < 5.0
    _verdict(1, f"defining relations (worst {worst:.2e}, {elapsed:.2f}s)", ok)
    assert worst < 1e-12
    assert elapsed < 5.0


def test_criterion02_spectrum():
    worst = 0.0
    for params in _grid_params():
        rep = build_rep(params, DIM)
        closed = spectrum_closed_form(params, DIM - 1)
        diff = max(abs(x - y) for x, y in zip(spectrum(rep), closed, strict=True))
        worst = max(worst, diff)
    ok = worst < 1e-10
    _verdict(2, f"spectrum closed form (worst {worst:.2e})", ok)
    assert ok


def test_criterion03_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    atoms = [ex.A, ex.AD, ex.KLEIN]
    cases = 0
    worst = 0.0
    while cases < 100:
        for lam in LAMBDAS:
            params = validate_alpha(lam, random_valid_alpha(rng, lam))
            rep = build_rep(params, 32)
            length = int(rng.integers(1, 7))
            word = ex.word(*[atoms[int(rng.integers(0, 3))] for _ in range(length)])
            window = safe_window(rep, [word])
            direct = apply_word(rep, word)
            engine = nf_to_matrix(normal_form(word, params), rep)
            scale = max(1.0, direct.window_max(window.lo, window.hi))
            worst = max(worst, (direct - engine).window_max(window.lo, window.hi) / scale)
            cases += 1
    ok = worst < 1e-8 and cases >= 100
    _verdict(3, f"oracle equivalence over {cases} words (worst {worst:.2e})", ok)
    assert ok


def test_criterion04_reordering_tower():
    rng = np.random.default_rng(SEED + 1)
    dim = 24
    worst = 0.0
    for lam in (2, 3):
        params = validate_alpha(lam, random_valid_alpha(rng, lam))
        rep = build_rep(params, dim)
        for n in range(1, 5):
            for m in range(1, 9):
                word = ex.Commutator(ex.Power(ex.A, n), ex.Power(ex.AD, m))
                nf = normal_form(word, params)
                allowed = {(m - 1 - l, n - 1 - l) for l in range(min(n, m))}
                assert nf.support() <= allowed, (lam, n, m)
                if n <= m - 1:
                    tower = beta_tower_raw(n, m, params)
                    total = None
                    for l, poly in enumerate(tower):
                        piece = kpoly_left_sum([(poly, m - 1 - l, n - l)], lam)
                        total = piece if total is None else nf_add(total, piece)
                    product = rep.matrix_power("a", n) @ rep.matrix_power("ad", m - 1)
                    window = safe_window(
                        rep, [ex.word(ex.Power(ex.A, n), ex.Power(ex.AD, m - 1))]
                    )
                    scale = max(1.0, product.window_max(window.lo, window.hi))
                    res = (nf_to_matrix(total, rep) - product).window_max(
                        window.lo, window.hi
                    ) / scale
                    worst = max(worst, res)
    plain = validate_alpha(2, (0.0, 0.0))
    spot = [c[0].real for c in beta_tower_raw(2, 3, plain)]
    spot_ok = spot == pytest.approx([1.0, 4.0, 2.0])
    ok = worst < 1e-8 and spot_ok
    _verdict(4, f"reordering tower (worst {worst:.2e}, spot {spot})", ok)
    assert ok


def test_criterion05_candidate_adjudication():
    lam = 2
    params = params_from_kappa(lam, [0.5])
    modes = (2, 3, 4, 5)
    fitted = {}
    for m in modes:
        check = check_single_mode(params, DIM, m)
        fitted[m] = np.array(
            [complex(*check.fitted[f"K{r}"]) for r in range(lam)]
        )

    def prediction(variant, m):
        vec = np.array(f_kpoly(params, m, variant), dtype=complex)
        vec[0] = m
        return vec

    matches = {}
    signatures = {}
    for variant in ("paper", "geometric", "conjugate"):
        preds = {m: prediction(variant, m) for m in modes}
        signatures[variant] = tuple(
            tuple(np.round(preds[m], 12)) for m in modes
        )
        matches[variant] = all(
            np.max(np.abs(preds[m] - fitted[m])) < 1e-9 for m in modes
        )

    # candidates with identical predictions over the whole grid collapse
    # (the two geometric phase conventions coincide at order two)
    distinct = {}
    for variant, sig in signatures.items():
        distinct.setdefault(sig, []).append(variant)
    matching_families = [
        variants for sig, variants in distinct.items() if matches[variants[0]]
    ]
    ok = len(matching_families) == 1
    winner = "+".join(matching_families[0]) if matching_families else "none"
    _verdict(5, f"coefficient adjudication (winner: {winner})", ok)
    assert ok
    assert "geometric" in matching_families[0]
    assert not matches["paper"]  # the pinned f_1 = 1 contradicts even modes


def test_criterion06_ladder_sign_consistency():
    for lam in LAMBDAS:
        params = validate_alpha(lam, (0.0,) * lam)
        sigma = virasoro_sign(lam)
        for m in range(-1, 4):
            for n in range(-1, 4):
                if m != n and m + n < -1:
                    continue
                check = check_virasoro(params, DIM, m, n)
                assert check.status == "pass", (lam, m, n, check.residual_paper)
                assert check.fitted["sigma"] == sigma
        pair = check_virasoro(params, DIM, 1, -1)
        assert complex(*pair.fitted["lead"]) == pytest.approx(sigma * 2.0)
    _verdict(6, f"undeformed ladder bracket, global sign {virasoro_sign(2)}", True)


def test_criterion07_klein_relations_as_published():
    """EXPECTED RED: the published Klein gradings (exponents m+1 and s+m)
    are contradicted by every realization compatible with the defining
    relations; the measured gradings use m and s-m (see the companion test).
    """
    rng = np.random.default_rng(SEED + 2)
    failures = []
    for lam in LAMBDAS:
        params = validate_alpha(lam, random_valid_alpha(rng, lam))
        for m in range(-1, 6):
            check = check_klein_virasoro(params, DIM, m)
            if not (check.residual_paper < 1e-10):
                failures.append(("ladder", lam, m, check.residual_paper))
            if (m + 1) % lam == 0 and not check.fitted["commutes"]:
                failures.append(("ladder-commute", lam, m, check.residual_paper))
        for s in range(5):
            for m in range(5):
                check = check_klein_winf(params, DIM, s, m)
                commutes = check.fitted["commutes"]
                if commutes != ((s + m) % lam == 0):
                    failures.append(("spin-commute", lam, s, m))
    ok = not failures
    _verdict(7, f"Klein relations as published ({len(failures)} contradictions)", ok)
    assert ok, (
        "published Klein gradings contradicted; measured grading is "
        "1 - exp(2i pi m/lam) for ladders (commutation at m = 0 mod lam) and "
        f"x^(s-m) - 1 for spins (commutation at s = m mod lam); first few: {failures[:6]}"
    )


def test_criterion07_companion_measured_gradings():
    """The gradings actually satisfied by the realization, verified tightly."""
    rng = np.random.default_rng(SEED + 2)
    for lam in LAMBDAS:
        params = validate_alpha(lam, random_valid_alpha(rng, lam))
        for m in range(-1, 6):
            check = check_klein_virasoro(params, DIM, m)
            assert check.residual_best < 1e-10, (lam, m)
            measured = complex(*check.fitted["coefficient"])
            assert measured == pytest.approx(
                complex(*check.fitted["grading"]), abs=1e-10
            )
            assert check.fitted["commutes"] == (m % lam == 0)
        for s in range(5):
            for m in range(5):
                check = check_klein_winf(params, DIM, s, m)
                assert check.residual_best < 1e-10, (lam, s, m)
                assert check.fitted["commutes"] == ((s - m) % lam == 0)
    _verdict(7, "companion: measured Klein gradings (m and s-m)", True)


def test_criterion08_order_two_brackets():
    for k1 in (0.0, 0.3, 0.7):
        params = params_from_kappa(2, [k1])
        checks = {c.id: c for c in check_lambda2(params, DIM)}
        for k in range(3):
            for l in range(3):
                for family in ("ee", "oo"):
                    check = checks[f"lambda2.{family}.k{k}.l{l}"]
                    assert check.residual_paper < 1e-8, (k1, check.id)
                    assert check.status == "pass"
    _verdict(8, "order-two even/even and odd/odd brackets", True)


def test_criterion09_casimir():
    plain = validate_alpha(2, (0.0, 0.0))
    checks = {c.id: c for c in check_casimir(plain, DIM)}
    assert checks["casimir.vanishing"].residual_paper < 1e-10
    assert checks["casimir.bracket"].residual_paper < 1e-10
    deformed = params_from_kappa(2, [0.4])
    emitted = {c.id: c for c in check_casimir(deformed, DIM)}
    assert "casimir.bracket" in emitted
    assert emitted["casimir.bracket"].residual_paper is not None
    assert emitted["casimir.bracket"].residual_best < 1e-8
    _verdict(9, "Casimir vanishing and deformed comparison emitted", True)


def test_criterion10_structure_constants():
    assert central_charge(0) == Fraction(1, 24)
    for i in range(7):
        for m in range(-(i + 1), i + 2):
            assert central_term(i, m) == 0
    for i in range(11):
        assert central_charge(i) > 0
    for i in range(4):
        for j in range(4):
            for l in range(4):
                for nr in ("literal", "alt"):
                    for pr in ("literal", "alt"):
                        winf_structure(i, j, l, 2, -1, nr, pr)
    _verdict(10, "central charges and dual-reading structure constants", True)


def test_criterion11_determinism(tmp_path):
    blobs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = main(
            [
                "verify", "--lambda", "2", "--kappa", "0.5", "--dim", "32",
                "--suite", "basic,single,sp2,casimir", "--out", str(out),
            ]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1]
    _verdict(11, "byte-identical reports on rerun", ok)
    assert ok


def test_criterion12_full_suite_runtime():
    params = params_from_kappa(2, [0.5])
    start = time.time()
    report = run_suite(params, DIM, ("all",))
    elapsed = time.time() - start
    ok = elapsed < 60.0 and report["summary"]["fail"] == 0
    _verdict(12, f"full default suite in {elapsed:.2f}s, fail={report['summary']['fail']}", ok)
    assert ok
