"""The winf grid graded in one call equals the per-bracket grading, bit for bit.

`check_winf` evaluates each monomial and each ordered product once, builds one
`_Dual` per unordered pair of monomials, and grades a pair's mirror on the
same `_Dual` against its own published side negated.  The reference below is
the per-bracket grading it replaced: one `_Dual` of the `Commutator` for every
ordered pair, mirrors included, and the Xi right side summed row by row with
`nf_add`.
"""

import math

import numpy as np
import pytest

from cycosc import expr as ex
from cycosc import identities
from cycosc.errors import EmptyWindow, NotFinite
from cycosc.identities import _Dual, _mono_expr, _rep, _verdict, _xi_side, check_winf, run_suite
from cycosc.normal_order import kpoly_left_mul, nf_add, nf_scale, nf_zero
from cycosc.params import validate_alpha

DIMS = (7, 13, 24, 64, 256)


def _alpha(lam: int) -> tuple:
    head = np.linspace(-0.3, 0.25, lam - 1)
    return tuple(np.append(head, -head.sum()))


def _reference(params, dim, s, m, t, n):
    """One winf entry graded on its own, as the per-bracket check did."""
    rep = _rep(params, dim)
    lam = params.lam
    d = _Dual(rep, ex.Commutator(_mono_expr(s, m), _mono_expr(t, n)))
    grade = (s - m) + (t - n)
    on_ladder = all(p - q == grade for (p, q) in d.nf.support())
    polys = np.zeros((max(m, n), lam), dtype=complex)
    polys[:m] += _xi_side(params, s, m, t)
    polys[:n] -= _xi_side(params, t, n, s)
    rhs_nf = nf_zero(lam)
    dropped = 0
    for l, poly in enumerate(polys):
        p, q = s + t - l - 1, m + n - l - 1
        if p < 0 or q < 0:
            if np.any(np.abs(poly) > 1e-13):
                dropped += 1
            continue
        rhs_nf = nf_add(rhs_nf, kpoly_left_mul(poly, p, q, lam))
    fitted = {"on_ladder": bool(on_ladder), "dropped_terms": dropped}
    return _verdict(f"winf.s{s}.m{m}.t{t}.n{n}", d.window, d.gate, d.against(rhs_nf),
                    fitted=fitted, ok=on_ladder)


def _bits(check) -> tuple:
    residuals = (check.residual_paper, check.residual_best)
    return check.id, check.window, *map(float.hex, residuals), check.fitted, check.status


@pytest.mark.parametrize("lam, dim", [(lam, dim) for lam in range(2, 9) for dim in DIMS
                                      if dim >= lam + 2])  # dim 7 holds orders up to 5
def test_grid_matches_the_per_bracket_reference(lam, dim):
    params = validate_alpha(lam, _alpha(lam))
    graded = check_winf(params, dim)
    assert len(graded) == 256
    ids = [c.id for c in graded]
    assert ids == sorted(ids)  # grid order, one block per left factor
    for check in graded:
        s, m, t, n = (int(part[1:]) for part in check.id.split(".")[1:])
        assert _bits(check) == _bits(_reference(params, dim, s, m, t, n))


def test_an_error_fails_only_the_entries_that_read_it(monkeypatch):
    params = validate_alpha(3, _alpha(3))
    clean = {c.id: c for c in check_winf(params, 16)}
    real = identities._xi_side

    def xi_side(p, s, m, t):
        if (s, m, t) == (2, 1, 1):
            raise RuntimeError(f"no side for ({s}, {m}, {t})")
        return real(p, s, m, t)

    monkeypatch.setattr(identities, "_xi_side", xi_side)
    graded = check_winf(params, 16)
    assert sorted(c.id for c in graded) == sorted(clean)
    # [w^2_1, w^1_n] reads Xi^(2,1) against t = 1, and [w^1_m, w^2_1] reads it as its right side
    readers = {f"winf.s2.m1.t1.n{k}" for k in range(4)} | {f"winf.s1.m{k}.t2.n1" for k in range(4)}
    for check in graded:
        if check.id in readers:
            assert check.status == "fail"
            assert check.fitted == {"error": "RuntimeError: no side for (2, 1, 1)"}
            assert check.residual_paper is None
        else:
            assert check == clean[check.id]


def test_an_off_diagonal_term_is_seen_by_its_own_gate(monkeypatch):
    params = validate_alpha(3, _alpha(3))
    clean = {c.id: c for c in check_winf(params, 16)}
    rep = _rep(params, 16)
    target = identities.normal_form(ex.Commutator(_mono_expr(2, 1), _mono_expr(1, 1)), params)
    # the pair is reduced in one orientation, whose normal form is target or its negation
    oriented = (target.terms, nf_scale(target, -1.0).terms)
    real = identities.nf_to_matrix

    def nf_to_matrix(nf, rep_):
        mat = real(nf, rep_)
        if nf.terms in oriented:  # the oracle side of the pair only: grade 1, offset 1
            mat = mat + rep.monomial(0, 2, 0)  # a term two diagonals away, inside the window
        return mat

    monkeypatch.setattr(identities, "nf_to_matrix", nf_to_matrix)
    graded = {c.id: c for c in check_winf(params, 16)}
    hits = ("winf.s2.m1.t1.n1", "winf.s1.m1.t2.n1")  # both brackets of the pair share its gate
    for hit_id in hits:
        hit = graded.pop(hit_id)
        assert clean[hit_id].status != "fail"
        assert hit.status == "fail"
        assert hit.fitted["on_ladder"]  # the normal form is untouched: the gate alone fails it
        assert hit.residual_best > 1e-3
    assert graded == {k: v for k, v in clean.items() if k not in hits}


def test_a_failed_product_fails_its_pair_alone(monkeypatch):
    params = validate_alpha(3, _alpha(3))
    clean = {c.id: c for c in check_winf(params, 16)}
    pair = [identities.normal_form(_mono_expr(*sm), params).terms for sm in ((2, 1), (1, 1))]
    real = identities.nf_mul

    def nf_mul(x, y, p):
        if [x.terms, y.terms] in (pair, pair[::-1]):
            raise RuntimeError("no product of w^2_1 and w^1_1")
        return real(x, y, p)

    monkeypatch.setattr(identities, "nf_mul", nf_mul)
    graded = check_winf(params, 16)
    assert [c.id for c in graded] == sorted(clean)
    for check in graded:
        if check.id in ("winf.s2.m1.t1.n1", "winf.s1.m1.t2.n1"):
            assert check.status == "fail"
            assert check.fitted == {"error": "RuntimeError: no product of w^2_1 and w^1_1"}
            assert check.residual_paper is None
        else:
            assert check == clean[check.id]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowing_realization_names_a_winf_entry():
    with pytest.raises(NotFinite, match=r"^winf: winf\.s\d\.m\d\.t\d\.n\d: gate "):
        run_suite(validate_alpha(2, (1e200, -1e200)), 16, ("winf",))


def test_a_truncation_too_small_names_a_winf_entry():
    params = validate_alpha(3, _alpha(3))
    with pytest.raises(EmptyWindow, match=r"winf\.s\d\.m\d\.t\d\.n\d"):
        run_suite(params, 5, ("winf",))


def test_winf_is_one_call_per_parameter_set(monkeypatch):
    params = validate_alpha(2, _alpha(2))
    calls = []
    real = identities.check_winf
    monkeypatch.setattr(identities, "check_winf", lambda *args: calls.append(args) or real(*args))
    report = run_suite(params, 13, ("winf",))
    assert calls == [(params, 13)]
    assert sum(c["id"].startswith("winf.") for c in report["checks"]) == 256
    assert all(math.isfinite(c["residual_best"]) for c in report["checks"])
