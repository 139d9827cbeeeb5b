"""Published sides graded in normal-form space.

A published right side is graded by its coefficients on the basis
(a+)^p a^q K^r, max_k |nf_k - pub_k| / max(1, max_k |nf_k|), so the residual
does not depend on the truncation, and a small error in any one term is seen
however large the other terms of the bracket grow along the window.  Only the
oracle gate is evaluated as a matrix.
"""

import math

import pytest

from cycosc import expr as ex
from cycosc import identities
from cycosc.identities import (
    TOL, _Dual, _closes_on, _dual, _rep, _verdict, check_single_mode, run_suite,
)
from cycosc.normal_order import NormalForm
from cycosc.params import validate_alpha

ALPHAS = {2: (0.5, -0.5), 5: (0.3, -0.1, 0.2, -0.25, -0.15)}
DIMS = (32, 64, 128, 256)


def _stale_erange():
    """Leave errno at ERANGE, as a complex abs that overflows does."""
    with pytest.raises(OverflowError):
        abs(complex(1.5e308, 1.5e308))


@pytest.mark.parametrize("lam", sorted(ALPHAS))
def test_residual_paper_does_not_depend_on_dim(lam):
    params = validate_alpha(lam, ALPHAS[lam])
    reports = [run_suite(params, dim)["checks"] for dim in DIMS]
    first = {c["id"]: c["residual_paper"] for c in reports[0]}
    for report in reports[1:]:
        assert {c["id"]: c["residual_paper"] for c in report} == first


def _perturbed(monkeypatch, params, dim):
    """Each term of each passing comparison, changed alone by 1e-6 of its size.

    `_residual` is wrapped to record its calls, and `_verdict` to give
    them the check id and family tolerance of the entry they grade.  A
    comparison passes when its residual is below that tolerance; each of its
    nonzero terms is then changed alone and compared again.  Returns
    (id, term, changed residual >= tolerance, status) for every change, where
    status is the entry graded again with the changed residual when the
    comparison is the one behind the entry's `res_paper`, and None otherwise.
    """
    residual, verdict = identities._residual, identities._verdict
    pending, changes = [], []

    def recorded(nf, published, *floor):
        res = residual(nf, published, *floor)
        pending.append((nf, published, floor, res))
        return res

    def graded(check_id, window, gate, res_paper, *rest, **kw):
        tol = TOL[check_id.split(".")[0]]
        for nf, pub, floor, res in pending:
            if pub is None or not res < tol:
                continue
            for key, c in pub.terms.items():
                if c == 0:
                    continue
                changed_pub = NormalForm(pub.lam, {**pub.terms, key: c + 1e-6 * c})
                changed = residual(nf, changed_pub, *floor)
                status = None
                if res is res_paper:
                    status = verdict(check_id, window, gate, changed, *rest, **kw).status
                changes.append((check_id, key, changed >= tol, status))
        pending.clear()
        return verdict(check_id, window, gate, res_paper, *rest, **kw)

    monkeypatch.setattr(identities, "_residual", recorded)
    monkeypatch.setattr(identities, "_verdict", graded)
    run_suite(params, dim)
    monkeypatch.undo()
    return changes


@pytest.mark.parametrize("lam, count, entries", [(2, 135, 74), (5, 160, 48)])
def test_every_changed_published_term_is_seen_at_every_dim(monkeypatch, lam, count, entries):
    """`count` changed terms, `entries` of them on the side behind an entry's res_paper.

    A winf mirror [w_y, w_x] is its pair's entry under its own id, so its
    published side is built and graded once, with the pair's (18 terms at
    lambda 2, none at lambda 5, where no winf entry passes).
    """
    params = validate_alpha(lam, ALPHAS[lam])
    terms = None
    for dim in DIMS:
        changes = _perturbed(monkeypatch, params, dim)
        assert all(seen for _, _, seen, _ in changes), dim
        statuses = [status for *_, status in changes if status is not None]
        assert set(statuses) <= {"fail", "discrepancy"}, dim
        assert len(statuses) == entries
        if terms is None:
            terms = [change[:2] for change in changes]
        assert [change[:2] for change in changes] == terms
    assert len(terms) == count


def test_nf_to_matrix_runs_once_per_dual_one_gate_per_general_entry(monkeypatch):
    """Published sides never become matrices: every nf_to_matrix call is a gate.

    Each `_Dual` is the gate of a reported bracket, so a `general` entry
    builds one and a full lambda 5 run builds 286.
    """
    params = validate_alpha(5, ALPHAS[5])
    real_init, real_to_matrix = _Dual.__init__, identities.nf_to_matrix
    calls = {"duals": 0, "nf_to_matrix": 0}

    def init(self, *args):
        calls["duals"] += 1
        real_init(self, *args)

    def to_matrix(*args):
        calls["nf_to_matrix"] += 1
        return real_to_matrix(*args)

    monkeypatch.setattr(_Dual, "__init__", init)
    monkeypatch.setattr(identities, "nf_to_matrix", to_matrix)
    run_suite(params, 64)
    assert calls == {"duals": 286, "nf_to_matrix": 286}
    calls.update(duals=0, nf_to_matrix=0)
    entries = run_suite(params, 64, ("general",))["checks"]
    assert len(entries) == 32
    assert calls == {"duals": 32, "nf_to_matrix": 32}


@pytest.mark.parametrize("stale", [False, True])
def test_a_non_finite_published_coefficient_grades_fail(monkeypatch, stale):
    """The coefficient test runs before `abs`, whatever errno earlier calls left."""
    params = validate_alpha(2, ALPHAS[2])
    real = identities.kpoly_left_sum

    def spoiled(*args):
        nf = real(*args)
        nan_terms = {key: complex(math.nan, 0.0) for key in nf.terms}
        if stale:
            _stale_erange()
        return NormalForm(nf.lam, nan_terms)

    monkeypatch.setattr(identities, "kpoly_left_sum", spoiled)
    check = check_single_mode(params, 32, 3)
    assert check.status == "fail"
    assert math.isnan(check.residual_paper)
    assert "error" not in check.fitted


def test_a_claim_that_the_bracket_vanishes_is_the_empty_form():
    params = validate_alpha(2, ALPHAS[2])
    d = _dual(_rep(params, 32), ex.Commutator(ex.A, ex.AD))
    empty = NormalForm(2, {})
    assert d.against(None) == d.against(empty) == 1.0  # [a, a+] = 1 + 0.5 K
    assert _closes_on(d, "basic.x", []).residual_paper == 1.0  # no rows: the empty form
    # the gate passes, so a wrong claim of zero is a discrepancy
    assert _verdict("basic.x", d.window, d.gate, d.against(None)).status == "discrepancy"


@pytest.mark.parametrize("lam, alpha", [(2, (1e4, -1e4)), (3, (1e4, 3e3, -1.3e4))])
def test_basic_relations_pass_at_large_alpha(lam, alpha):
    """The residual is floored at the size of the beta_mu and kappa_r the relations expand over.

    Their terms cancel to round-off of that size, which a floor of 1 reads as
    an error once |alpha| is large.
    """
    checks = run_suite(validate_alpha(lam, alpha), 32, ("basic",))["checks"]
    assert [(c["id"], c["status"]) for c in checks if c["status"] != "pass"] == []
