"""An exact classical-limit oracle for the K-free brackets of the suites.

At alpha = 0 every kappa vanishes and a K-free word reorders by Wick's rule

    a^n (a+)^m = sum_k k! C(n,k) C(m,k) (a+)^(m-k) a^(n-k),

so its coefficients are rationals (integers for the monomial brackets).
The evaluator below applies that rule in `Fraction`s, independently of the
rewrite engine and of the matrix realization, and the engine's float normal
form must equal it exactly.  The same limit splits the suites' discrepancies
into those already found at alpha = 0 and those found only when deformed.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from cycosc import expr as ex
from cycosc import identities
from cycosc.identities import _mono_expr, run_suite
from cycosc.normal_order import normal_form
from cycosc.params import validate_alpha

_GRADES = {"a": (0, 1), "ad": (1, 0), "I": (0, 0)}  # atom -> (p, q) of (a+)^p a^q


def _times(x: dict, y: dict) -> dict:
    """Product of two forms {(p, q): Fraction}, each a^q1 (a+)^p2 reordered by Wick's rule."""
    out = Counter()
    for ((p1, q1), c1), ((p2, q2), c2) in product(x.items(), y.items()):
        for k in range(min(q1, p2) + 1):
            out[p1 + p2 - k, q1 + q2 - k] += c1 * c2 * factorial(k) * comb(q1, k) * comb(p2, k)
    return {key: c for key, c in out.items() if c}


def _plus(x: dict, y: dict, sign: int = 1) -> dict:
    out = Counter(x)
    for key, c in y.items():
        out[key] += sign * c
    return {key: c for key, c in out.items() if c}


def wick(e) -> dict:
    """The exact normal form {(p, q): Fraction} of a K-free word at alpha = 0."""
    kind = type(e)
    if kind is ex.Atom:
        return {_GRADES[e.kind]: Fraction(1)}
    if kind is ex.Scalar:
        assert complex(e.value).imag == 0, e
        return {(0, 0): Fraction(complex(e.value).real)} if e.value else {}
    if kind is ex.Power:
        acc = {(0, 0): Fraction(1)}
        for _ in range(e.exponent):
            acc = _times(acc, wick(e.base))
        return acc
    if kind is ex.Product:
        acc = wick(e.factors[0])
        for f in e.factors[1:]:
            acc = _times(acc, wick(f))
        return acc
    if kind is ex.Sum:
        acc = {}
        for t in e.terms:
            acc = _plus(acc, wick(t))
        return acc
    left, right = wick(e.left), wick(e.right)
    sign = -1 if kind is ex.Commutator else 1
    return _plus(_times(left, right), _times(right, left), sign)


def _k_free(e) -> bool:
    kind = type(e)
    if kind is ex.Atom:
        return e.kind in _GRADES
    if kind is ex.Scalar:
        return True
    if kind is ex.Power:
        return _k_free(e.base)
    if kind is ex.Product:
        return all(map(_k_free, e.factors))
    if kind is ex.Sum:
        return all(map(_k_free, e.terms))
    if kind in (ex.Commutator, ex.Anticommutator):
        return _k_free(e.left) and _k_free(e.right)
    return False  # a projector


def _suite_brackets(monkeypatch, params) -> dict:
    """Every K-free word the suites grade at `params`, by the family of the check grading it.

    The words evaluated by `_dual` are recorded from a run, each tagged by the
    next verdict; winf's are the commutators of its 16 monomials, which it
    multiplies itself.
    """
    seen, families = [], {}
    real_dual, real_verdict = identities._dual, identities._verdict

    def dual(rep, e):
        seen.append(e)
        return real_dual(rep, e)

    def verdict(check_id, *args, **kwargs):
        for e in seen:
            families.setdefault(check_id.split(".")[0], []).append(e)
        seen.clear()
        return real_verdict(check_id, *args, **kwargs)

    monkeypatch.setattr(identities, "_dual", dual)
    monkeypatch.setattr(identities, "_verdict", verdict)
    run_suite(params, 16)
    monkeypatch.undo()
    words = {family: [e for e in found if _k_free(e)] for family, found in families.items()}
    monomials = list(product(range(4), repeat=2))
    words["winf"] = [ex.Commutator(_mono_expr(*x), _mono_expr(*y))
                     for x, y in product(monomials, repeat=2)]
    return {family: found for family, found in words.items() if found}


def test_wick_reorders_a_n_ad_m_by_the_binomial_sum():
    for n, m in product(range(5), range(9)):
        word = ex.word(ex.Power(ex.A, n), ex.Power(ex.AD, m))
        want = {(m - k, n - k): factorial(k) * comb(n, k) * comb(m, k)
                for k in range(min(n, m) + 1)}
        assert wick(word) == want, (n, m)


@pytest.mark.parametrize("lam", range(2, 8))
def test_the_engine_equals_wick_on_every_k_free_bracket_at_alpha_zero(monkeypatch, lam):
    """Exact equality: each engine coefficient is the complex of the Wick rational, on K^0."""
    params = validate_alpha(lam, (0.0,) * lam)
    brackets = _suite_brackets(monkeypatch, params)
    counts = {family: len(found) for family, found in brackets.items()}
    assert counts["general"] == 32 and counts["winf"] == 256
    assert {"single", "virasoro", "sp2", "casimir"} <= counts.keys()
    assert ("lambda2" in counts) == (lam == 2)
    for e in (e for found in brackets.values() for e in found):
        want = wick(e)
        assert all(Fraction(float(c)) == c for c in want.values()), e
        got = normal_form(e, params).terms
        assert got == {(p, q, 0): complex(c) for (p, q), c in want.items()}, e


# the discrepancies at dim 64, by family: those also found at alpha = 0 (a wrong printed
# structure) and those found only when deformed (a wrong deformation constant)
SPLIT = [
    (2, (0.5, -0.5),
     {"general": 14, "klein_v": 7, "lambda2": 15, "winf": 132},
     {"casimir": 1, "general": 11, "single": 2, "sp2": 2, "virasoro": 12, "winf": 64}),
    (3, (0.5, -1 / 3, -1 / 6),
     {"general": 14, "klein_v": 7, "klein_w": 15, "winf": 132},
     {"casimir": 1, "general": 13, "single": 3, "sp2": 3, "virasoro": 16, "winf": 82}),
    (5, (0.3, -0.1, 0.2, -0.25, -0.15),
     {"general": 14, "klein_v": 7, "klein_w": 20, "winf": 132},
     {"casimir": 1, "general": 16, "single": 4, "sp2": 3, "virasoro": 20, "winf": 84}),
]


@pytest.mark.parametrize("lam, alpha, classical, deformed_only", SPLIT,
                         ids=[f"lambda{lam}" for lam, *_ in SPLIT])
def test_the_discrepancies_split_into_classical_and_deformed(lam, alpha, classical,
                                                            deformed_only):
    """No entry is a discrepancy at alpha = 0 but not when deformed."""

    def discrepancies(alpha):
        checks = run_suite(validate_alpha(lam, alpha), 64)["checks"]
        return {c["id"] for c in checks if c["status"] == "discrepancy"}

    deformed, undeformed = discrepancies(alpha), discrepancies((0.0,) * lam)
    assert undeformed <= deformed
    assert Counter(i.split(".")[0] for i in undeformed) == classical
    assert Counter(i.split(".")[0] for i in deformed - undeformed) == deformed_only
