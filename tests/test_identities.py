import inspect
import json
import math
import re
from itertools import product

import numpy as np
import pytest

from cycosc import identities, normal_order
from cycosc.errors import (
    DimTooSmall, EmptyWindow, IndexOutOfRealization, NotFinite, WrongLambda,
)
from cycosc.fock import Banded, SafeWindow, build_rep
from cycosc.identities import (
    SUITES,
    IdentityCheck,
    _Dual,
    _verdict,
    check_basic,
    check_casimir,
    check_general,
    check_klein_virasoro,
    check_klein_winf,
    check_lambda2,
    check_single_mode,
    check_sp2,
    check_virasoro,
    check_winf,
    run_suite,
    virasoro_sign,
)
from cycosc.normal_order import NormalForm, nf_to_matrix
from cycosc.params import params_from_kappa, validate_alpha
from cycosc.winf import dual_readings, winf_structure

from conftest import dense, random_valid_alpha

D = 48


# ---------------------------------------------------------------------------
# defining relations


def test_basic_suite_passes_everywhere(rng):
    for lam in (2, 3, 4, 5):
        params = validate_alpha(lam, random_valid_alpha(rng, lam))
        for check in check_basic(params, D):
            assert check.status == "pass", (lam, check.id, check.residual_paper)
            assert check.residual_paper < 1e-12


def test_basic_suite_complex_kappa():
    params = params_from_kappa(3, [0.2 + 0.1j, 0.2 - 0.1j])
    for check in check_basic(params, D):
        assert check.status == "pass", (check.id, check.residual_paper)


# ---------------------------------------------------------------------------
# single-mode reordering


def test_single_mode_undeformed_all_candidates_agree(params_plain):
    for m in (1, 2, 3, 4):
        check = check_single_mode(params_plain, D, m)
        assert check.status == "pass"
        assert check.fitted["winner"] == "all"
        assert check.fitted["K0"][0] == pytest.approx(m)


def test_single_mode_geometric_candidate_wins(params_l2):
    for m in (2, 4):
        check = check_single_mode(params_l2, D, m)
        assert check.status == "discrepancy"  # published f_1 = 1 contradicted
        assert check.fitted["winner"] == "geometric"
        # the measured level-two coefficient vanishes for even m
        assert abs(complex(*check.fitted["K1"])) < 1e-12


def test_single_mode_full_root_sum_kills_deformation(params_l3):
    check = check_single_mode(params_l3, D, 3)
    poly = [complex(*check.fitted[f"K{r}"]) for r in range(1, 3)]
    assert max(abs(c) for c in poly) < 1e-10


def test_single_mode_support_is_single_grade(params_l2):
    check = check_single_mode(params_l2, D, 5)
    assert check.residual_best < 1e-10


# ---------------------------------------------------------------------------
# general reordering


def test_general_consistent_with_single(params_l2):
    single = check_single_mode(params_l2, D, 4)
    general = check_general(params_l2, D, 1, 4)
    assert general.residual_best < 1e-10
    # the n = 1 assembly is the single-mode identity itself
    assert general.residual_paper == pytest.approx(
        single.fitted["residual_paper"], abs=1e-9
    )


@pytest.mark.parametrize("lam, alpha", [(2, (0.5, -0.5)), (3, (0.5, -1 / 3, -1 / 6)),
                                        (5, (0.3, -0.1, 0.2, -0.25, -0.15)), (3, (0.0,) * 3)])
def test_single_mode_is_level_zero_of_general_at_n1_bit_for_bit(lam, alpha):
    """Both entries grade [a, (a+)^m] under the printed F: the single-mode side is level 0
    of the general side at n = 1, so their published residuals have the same bits."""
    params = validate_alpha(lam, alpha)
    for m in range(1, 6):
        single = check_single_mode(params, D, m).fitted["residual_paper"]
        general = check_general(params, D, 1, m).residual_paper
        assert single.hex() == general.hex(), m


def test_general_oracle_crosscheck_undeformed(params_plain):
    check = check_general(params_plain, D, 2, 3)
    assert check.residual_best < 1e-10
    assert check.fitted["on_support"]
    # the double-sum layout over-counts the ladder for two lowering factors
    assert check.status in ("pass", "discrepancy")


def test_general_deformed_recorded(params_l2):
    check = check_general(params_l2, D, 2, 2)
    assert check.residual_best < 1e-8
    assert check.fitted["assembly_oracle_beta"] is not None


@pytest.mark.parametrize("lam, alpha", [(2, (0.5, -0.5)), (3, (0.3, 0.2, -0.5)),
                                        (5, (0.3, -0.1, 0.2, -0.25, -0.15))])
def test_a_corrupted_reordering_core_fails_its_own_general_entry(monkeypatch, lam, alpha):
    """The rewrite engine's core a^q (a+)^p, off by a factor 1 + 1e-6, fails general.nq.mp.

    That entry's gate reads the core through its bracket; general.n(q+1).m(p+1),
    whose engine tower is that core, keeps its status.
    """
    params = validate_alpha(lam, alpha)
    real = normal_order._reorder_core
    clean = {(n, m): check_general(params, 24, n, m).status
             for n in range(1, 5) for m in range(1, 9)}
    for q, p in product(range(1, 4), range(1, 8)):

        def corrupted(lam_, kappa, q_, p_):
            core = real(lam_, kappa, q_, p_)
            if (q_, p_) == (q, p):
                return tuple((key, c * (1 + 1e-6)) for key, c in core)
            return core

        real.cache_clear()
        monkeypatch.setattr(normal_order, "_reorder_core", corrupted)
        try:
            assert check_general(params, 24, q, p).status == "fail", (q, p)
            assert check_general(params, 24, q + 1, p + 1).status == clean[q + 1, p + 1], (q, p)
        finally:
            monkeypatch.undo()
            real.cache_clear()


# ---------------------------------------------------------------------------
# ladder (Virasoro-type) relations


def test_global_sign_is_negative():
    for lam in (2, 3, 4, 5):
        assert virasoro_sign(lam) == -1


def test_virasoro_undeformed_grid(params_plain):
    for m in range(-1, 4):
        for n in range(-1, 4):
            if m != n and m + n < -1:
                continue
            check = check_virasoro(params_plain, D, m, n)
            assert check.status == "pass", (m, n, check.residual_paper)
            assert check.residual_paper < 1e-8


def test_virasoro_lowering_pair(params_plain):
    """[l_1, l_-1] = -2 l_0 in the realization."""
    check = check_virasoro(params_plain, D, 1, -1)
    assert check.fitted["sigma"] == -1
    assert complex(*check.fitted["lead"]) == pytest.approx(-2.0)


def test_virasoro_antisymmetry(params_l2):
    rep = build_rep(params_l2, 24)
    for m, n in [(0, 1), (2, -1), (3, 1)]:
        x = dense(rep.matrix_power("ad", m + 1) @ rep.mat_a)
        y = dense(rep.matrix_power("ad", n + 1) @ rep.mat_a)
        assert np.max(np.abs((x @ y - y @ x) + (y @ x - x @ y))) == 0.0


def test_virasoro_deformed_residual_recorded(params_l2):
    check = check_virasoro(params_l2, D, 2, 0)
    assert check.residual_best < 1e-8
    assert check.residual_paper is not None


def test_virasoro_out_of_realization(params_l2):
    # m + n = -1 is still realizable (the target is the plain lowering operator)
    assert check_virasoro(params_l2, D, -1, 0).residual_best < 1e-8
    with pytest.raises(IndexOutOfRealization):
        check_virasoro(params_l2, D, -1, -2)


def test_klein_ladder_grading(params_l3):
    """[l_m, K] closes on l_m K; commutation happens at m = 0 mod lam."""
    with pytest.raises(IndexOutOfRealization):
        check_klein_virasoro(params_l3, D, -2)
    for m in range(-1, 6):
        check = check_klein_virasoro(params_l3, D, m)
        assert check.residual_best < 1e-10, (m, check.residual_best)
        measured = complex(*check.fitted["coefficient"])
        grading = complex(*check.fitted["grading"])
        assert measured == pytest.approx(grading, abs=1e-10)
        assert check.fitted["commutes"] == (m % 3 == 0)
        # the published grading uses m + 1 and never matches
        assert check.status == "discrepancy" or (
            check.status == "pass" and abs(measured - complex(*check.fitted["claimed"])) < 1e-10
        )


def test_klein_winf_grading(rng):
    """[w^s_m, K] commutation criterion is s = m (mod lam), not s + m = 0."""
    for lam in (2, 3, 4, 5):
        params = validate_alpha(lam, random_valid_alpha(rng, lam))
        for s in range(5):
            for m in range(5):
                check = check_klein_winf(params, D, s, m)
                assert check.residual_best < 1e-10, (lam, s, m)
                commutes = check.fitted["commutes"]
                assert commutes == ((s - m) % lam == 0)
                if not commutes:
                    # a sharp criterion: non-commuting pairs sit far from zero
                    assert abs(complex(*check.fitted["coefficient"])) > 0.1
                claimed_matches = (2 * m) % lam == 0
                assert (check.status == "pass") == claimed_matches, (lam, s, m)


def test_klein_winf_coefficient_value(params_l2):
    check = check_klein_winf(params_l2, D, 1, 0)
    assert complex(*check.fitted["coefficient"]) == pytest.approx(-2.0)


# ---------------------------------------------------------------------------
# order-two family


def test_lambda2_regular_brackets(rng):
    for k1 in (0.0, 0.3, 0.7):
        params = params_from_kappa(2, [k1])
        checks = {c.id: c for c in check_lambda2(params, D)}
        for k in range(3):
            for l in range(3):
                ee = checks[f"lambda2.ee.k{k}.l{l}"]
                oo = checks[f"lambda2.oo.k{k}.l{l}"]
                assert ee.status == "pass", (k1, ee.id, ee.residual_paper)
                assert oo.status == "pass", (k1, oo.id, oo.residual_paper)
                assert ee.residual_paper < 1e-8
                assert oo.residual_paper < 1e-8


def test_lambda2_even_odd_mixing_documents_deformation():
    params = params_from_kappa(2, [0.5])
    checks = {c.id: c for c in check_lambda2(params, D)}
    eo = checks["lambda2.eo.k1.l0"]
    assert eo.residual_best < 1e-8
    # measured deformation on the odd target is -kappa_1, not -2 kappa_1 - 1
    assert complex(*eo.fitted["K1"]) == pytest.approx(-0.5, abs=1e-10)


def test_lambda2_klein_swap_documented():
    params = params_from_kappa(2, [0.4])
    checks = {c.id: c for c in check_lambda2(params, D)}
    for k in range(3):
        even = checks[f"lambda2.klein_even.k{k}"]
        odd = checks[f"lambda2.klein_odd.k{k}"]
        # even ladders commute with K, odd ones anticommute: both contradict
        # the published assignment, and the measurements say so
        assert complex(*even.fitted["coefficient"]) == pytest.approx(0.0, abs=1e-12)
        assert complex(*odd.fitted["coefficient"]) == pytest.approx(2.0, abs=1e-12)
        assert even.status == "discrepancy"
        assert odd.status == "discrepancy"


def test_lambda2_guard(params_l3):
    with pytest.raises(WrongLambda):
        check_lambda2(params_l3, D)


# ---------------------------------------------------------------------------
# higher-spin checks


def _winf_entry(params, s, m, t, n):
    """The entry of [w^s_m, w^t_n] among the ones check_winf grades in one call."""
    return {c.id: c for c in check_winf(params, D)}[f"winf.s{s}.m{m}.t{t}.n{n}"]


def test_winf_gate_and_grading(rng):
    params = validate_alpha(3, random_valid_alpha(rng, 3))
    for s, m, t, n in [(2, 1, 1, 1), (0, 0, 0, 0), (3, 2, 1, 0), (2, 2, 1, 1)]:
        check = _winf_entry(params, s, m, t, n)
        assert check.residual_best < 1e-8
        assert check.fitted["on_ladder"]


def test_winf_trivial_pair(params_l2):
    check = _winf_entry(params_l2, 0, 0, 0, 0)
    assert check.status == "pass"
    assert check.residual_paper < 1e-12


def test_winf_spin_ladder_cell(params_plain):
    # undeformed [w^2_1, w^1_1] = -w^2_1 is reproduced by the level sums
    check = _winf_entry(params_plain, 2, 1, 1, 1)
    assert check.status == "pass"


def test_sp2_undeformed(params_plain):
    for check in check_sp2(params_plain, D):
        assert check.status == "pass", (check.id, check.residual_paper)


def test_sp2_deformed_fitted_constants(params_l2):
    checks = {c.id: c for c in check_sp2(params_l2, D)}
    low = checks["sp2.low_mid"]
    # measured: [w^0_1, w^1_1] = (1 + kappa_1 K) w^0_1; published doubles it
    assert complex(*low.fitted["K0"]) == pytest.approx(1.0, abs=1e-10)
    assert complex(*low.fitted["K1"]) == pytest.approx(0.5, abs=1e-10)
    assert low.status == "discrepancy"
    # the high/low bracket happens to agree at order two: both sides vanish
    assert checks["sp2.high_low"].status == "pass"


def test_casimir_vanishes_undeformed(params_plain):
    checks = {c.id: c for c in check_casimir(params_plain, D)}
    assert checks["casimir.vanishing"].status == "pass"
    assert checks["casimir.vanishing"].residual_paper < 1e-10
    assert checks["casimir.bracket"].status == "pass"


def test_casimir_deformed_comparison_emitted(params_l2):
    checks = {c.id: c for c in check_casimir(params_l2, D)}
    bracket = checks["casimir.bracket"]
    assert bracket.residual_best < 1e-8
    assert bracket.residual_paper is not None
    assert "w11_K1" in bracket.fitted


# ---------------------------------------------------------------------------
# cross-cutting properties


def test_matrix_jacobi_on_random_triples(rng):
    params = validate_alpha(3, random_valid_alpha(rng, 3))
    rep = build_rep(params, 40)
    count = 0
    for _ in range(20):
        mats = []
        weight = 0
        for _ in range(3):
            s, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            mats.append(dense(rep.matrix_power("ad", s) @ rep.matrix_power("a", m)))
            weight += s
        x, y, z = mats

        def br(u, v):
            return u @ v - v @ u

        total = br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y)
        cols = 40 - weight
        scale = max(1.0, max(np.max(np.abs(m[:, :cols])) for m in mats))
        assert np.max(np.abs(total[:, :cols])) / scale**3 < 1e-8
        count += 1
    assert count == 20


def test_deformation_residual_shrinks_with_kappa():
    """Published-vs-measured gaps vanish in the undeformed limit for the
    sign-adjusted ladder bracket and the sp(2) brackets."""
    scales = (1.0, 0.5, 0.25)
    histories = {key: [] for key in ("virasoro", "low", "mid", "high")}
    for scale in scales:
        params = params_from_kappa(2, [0.6 * scale])
        histories["virasoro"].append(
            check_virasoro(params, D, 2, 0).residual_paper
        )
        checks = {c.id: c for c in check_sp2(params, D)}
        histories["low"].append(checks["sp2.low_mid"].residual_paper)
        histories["mid"].append(checks["sp2.high_mid"].residual_paper)
        histories["high"].append(checks["sp2.high_low"].residual_paper)
    for key, values in histories.items():
        for a, b in zip(values, values[1:]):
            assert b < a or b < 1e-8, (key, values)


def test_winf_continuity_on_mode_one_cells():
    scales = (1.0, 0.5, 0.25)
    for s, t in [(0, 1), (2, 1), (1, 3)]:
        values = []
        for scale in scales:
            params = params_from_kappa(2, [0.6 * scale])
            values.append(_winf_entry(params, s, 1, t, 1).residual_paper)
        for a, b in zip(values, values[1:]):
            assert b < a or b < 1e-8, (s, t, values)


# ---------------------------------------------------------------------------
# suite driver


def test_run_suite_is_deterministic(params_l2):
    a = json.dumps(run_suite(params_l2, 32, ("basic", "sp2", "wconst")), sort_keys=True)
    b = json.dumps(run_suite(params_l2, 32, ("basic", "sp2", "wconst")), sort_keys=True)
    assert a == b


def test_run_suite_schema(params_l2):
    report = run_suite(params_l2, 32, ("basic", "casimir"))
    assert set(report) == {"config", "checks", "summary"}
    for check in report["checks"]:
        assert set(check) == {
            "id",
            "window",
            "residual_paper",
            "residual_best",
            "fitted",
            "status",
        }
    assert {"pass", "discrepancy", "fail"} <= set(report["summary"])
    assert report["summary"]["fail"] == 0
    assert json.loads(json.dumps(report)) == report


def test_run_suite_sorted_ids(params_l3):
    report = run_suite(params_l3, 32, ("basic", "single", "sp2"))
    ids = [c["id"] for c in report["checks"]]
    assert ids == sorted(ids)


def test_run_suite_marks_wrong_lambda(params_l3):
    report = run_suite(params_l3, 32, ("lambda2",))
    assert report["checks"][0]["status"] == "not-applicable"


def test_run_suite_rejects_unknown_selection(params_l2):
    with pytest.raises(ValueError):
        run_suite(params_l2, 32, ("nonsense",))


def test_run_suite_never_aborts(monkeypatch, params_l2):
    import cycosc.identities as ident

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(ident, "check_sp2", boom)
    report = ident.run_suite(params_l2, 32, ("basic", "sp2"))
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert len(failed) == 1
    assert "synthetic failure" in failed[0]["fitted"]["error"]


def test_run_suite_refuses_unbuildable_dim(params_l2):
    with pytest.raises(ValueError):
        run_suite(params_l2, 512, ("basic",))
    with pytest.raises(DimTooSmall):
        run_suite(validate_alpha(12, (0.0,) * 12), 13)


def test_run_suite_wconst_needs_no_realization(params_l2):
    report = run_suite(params_l2, 512, ("wconst",))
    assert report["summary"]["fail"] == 0
    assert report["config"]["dim"] == 512


def test_wconst_g_is_the_printed_reading_of_its_own_dual_readings(params_l2):
    report = run_suite(params_l2, 32, ("wconst",))
    assert not {"phi_reading", "N_reading"} & report["config"].keys()
    assert list(inspect.signature(run_suite).parameters) == ["params", "dim", "selection"]
    entries = [c for c in report["checks"] if c["id"].startswith("wconst.g.")]
    assert len(entries) == 64
    for c in entries:
        i, j, l = map(int, re.fullmatch(r"wconst\.g\.i(\d)\.j(\d)\.l(\d)", c["id"]).groups())
        assert c["fitted"] == {**dual_readings(i, j, l, 1, -1), "readings": "N=literal,phi=literal",
                               "g": winf_structure(i, j, l, 1, -1)["value_g"]}


# which id families (the id up to its first dot) each --suite name runs
SUITE_FAMILIES = {
    "basic": {"basic"},
    "single": {"single"},
    "general": {"general"},
    "virasoro": {"virasoro", "klein_v"},
    "lambda2": {"lambda2"},
    "winf": {"winf", "klein_w"},
    "sp2": {"sp2"},
    "casimir": {"casimir"},
    "wconst": {"wconst"},
}


@pytest.mark.parametrize("alpha", [(0.5, -0.5), (0.3, 0.2, -0.5)], ids=["lambda2", "lambda3"])
def test_each_suite_runs_exactly_its_families(alpha):
    params = validate_alpha(len(alpha), alpha)
    assert set(SUITES) == set(SUITE_FAMILIES)
    every = run_suite(params, 20)["checks"]
    for name in SUITES:
        own = [c for c in every if c["id"].split(".")[0] in SUITE_FAMILIES[name]]
        assert own, name
        assert run_suite(params, 20, (name,))["checks"] == own, name
    if params.lam != 2:
        assert [c["status"] for c in every if c["id"].startswith("lambda2")] == ["not-applicable"]


def test_verdict_fails_a_non_finite_gate():
    window = SafeWindow(0, 1)
    assert _verdict("single.m1", window, float("nan"), 0.0).status == "fail"
    assert _verdict("single.m1", window, float("inf"), 0.0).status == "fail"
    assert _verdict("single.m1", window, 0.0, 0.0).status == "pass"


def _random_band(rng, dim):
    """A Banded of up to three random diagonals at a random magnitude, zero off the matrix."""
    bands = {}
    for offset in rng.choice(np.arange(1 - dim, dim), size=min(3, 2 * dim - 1), replace=False):
        vec = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * 10.0 ** rng.uniform(-3, 3)
        rows = np.arange(dim) + offset
        vec[(rows < 0) | (rows >= dim)] = 0.0
        bands[int(offset)] = vec
    return Banded(dim, bands)


@pytest.mark.parametrize("terms", [0, 1, 2])
def test_dual_gate_divides_by_the_word_window_max(terms, params_l2):
    """The gate is max|mat - nf| / max(1, max|mat|), both over the window's columns."""
    rng = np.random.default_rng(terms)
    for _ in range(50):
        dim = int(rng.integers(4, 10))
        rep = build_rep(params_l2, dim)
        lo, hi = sorted(int(j) for j in rng.integers(0, dim, size=2))
        mat = _random_band(rng, dim)
        grades = [tuple(int(v) for v in rng.integers(0, [3, 3, 2])) for _ in range(terms)]
        scales = 10.0 ** rng.uniform(-3, 3, terms)
        nf = NormalForm(2, {g: complex(*rng.normal(size=2)) * c for g, c in zip(grades, scales)})

        def dense_max(values):  # Python's complex abs, as the banded maximum takes it
            return max(abs(complex(v)) for v in values[:, lo : hi + 1].ravel())

        diff = dense(mat) - dense(nf_to_matrix(nf, rep))
        expected = dense_max(diff) / max(1.0, dense_max(dense(mat)))
        assert _Dual(rep, mat, nf, SafeWindow(lo, hi)).gate == expected


def test_dual_gate_floors_at_one_and_refuses_a_nan_scale(params_l2):
    rep = build_rep(params_l2, 4)
    empty = NormalForm(2, {})
    small = Banded(4, {0: (0.25 + 0j,) * 4})
    assert _Dual(rep, small, empty, SafeWindow(0, 3)).gate == 0.25
    # a NaN in the window makes the word's maximum NaN, floored to 1, and the gate NaN
    nan = Banded(4, {0: (0.5 + 0j, 0j, 0j, complex(math.nan, 0.0))})
    with pytest.raises(NotFinite, match=r"^gate nan at dim 4"):
        _Dual(rep, nan, empty, SafeWindow(0, 3))
    assert _Dual(rep, nan, empty, SafeWindow(0, 2)).gate == 0.5


ROW_CLAIMS = ("single.", "general.", "virasoro.", "lambda2.ee.", "lambda2.oo.", "lambda2.eo.",
              "sp2.", "casimir.", "winf.")
DIRECT = ("basic.", "klein_v.", "klein_w.", "lambda2.klein_")


def test_every_row_claim_is_graded_by_closes_on(monkeypatch):
    """`_closes_on` grades each K-polynomial row claim, single-mode and general included;
    `_verdict` is called directly only by the checks that aggregate a relation's pairs,
    print K on the right or have no realization."""
    real_closes, real_verdict = identities._closes_on, identities._verdict
    closed, direct, inside = set(), set(), []

    def closes_on(*args, **kwargs):
        inside.append(True)
        try:
            entry = real_closes(*args, **kwargs)
        finally:
            inside.pop()
        closed.add(entry.id)
        return entry

    def verdict(*args, **kwargs):
        entry = real_verdict(*args, **kwargs)
        if not inside:
            direct.add(entry.id)
        return entry

    monkeypatch.setattr(identities, "_closes_on", closes_on)
    monkeypatch.setattr(identities, "_verdict", verdict)
    identities._wconst_checks.cache_clear()
    params = [validate_alpha(2, (0.5, -0.5)), validate_alpha(5, (0.3, -0.1, 0.2, -0.25, -0.15)),
              validate_alpha(3, (0.0,) * 3)]
    for p in params:
        for c in run_suite(p, 32)["checks"]:
            if not c["id"].startswith(ROW_CLAIMS) or c["status"] == "not-applicable":
                continue
            # a winf pair is graded once; its mirror is a copy of that entry under its own id
            pair = re.fullmatch(r"winf\.s(\d)\.m(\d)\.t(\d)\.n(\d)", c["id"])
            mirror = pair and "winf.s{2}.m{3}.t{0}.n{1}".format(*pair.groups())
            assert c["id"] in closed or mirror in closed, c["id"]
    assert {"single.m1", "general.n4.m8", "virasoro.m0.n0", "lambda2.eo.k0.l0", "sp2.high_low",
            "casimir.vanishing"} <= closed
    assert closed.isdisjoint(direct)
    assert all(i.startswith(DIRECT) or i == "wconst.central" for i in direct), sorted(direct)
    assert {i.split(".")[0] for i in direct} == {"basic", "klein_v", "klein_w", "lambda2",
                                                "wconst"}


@pytest.mark.parametrize("res_paper", [float("nan"), float("inf")])
def test_verdict_fails_a_non_finite_published_residual(res_paper):
    # a finite, small res_best must not turn a non-finite res_paper into a discrepancy
    assert _verdict("single.m1", SafeWindow(0, 1), 0.0, res_paper, 0.0).status == "fail"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_suite_refuses_an_overflowing_realization():
    with pytest.raises(NotFinite, match=r"^single\.m\d: gate "):
        run_suite(validate_alpha(2, (1e200, -1e200)), 16)


def test_identity_check_copies_are_separate_and_vars_is_the_fields():
    check = IdentityCheck("basic.x", (0, 5), 1e-15, 1e-15, {"k": 1.0}, "pass")
    copy = check.replace(id="basic.y", fitted=dict(check.fitted))
    assert vars(copy) == {**vars(check), "id": "basic.y"}
    assert list(vars(check)) == ["id", "window", "residual_paper", "residual_best", "fitted",
                                 "status"]
    copy.fitted["k"] = 2.0
    assert check.fitted == {"k": 1.0} and check != copy
    assert check == IdentityCheck(**vars(check))
    with pytest.raises(EmptyWindow):
        SafeWindow(3, 2)
