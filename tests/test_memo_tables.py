"""The Z_lambda tables and memos: each value computed once, none shared mutably.

Roots of unity, the geometric sums f_r, the F polynomials, the Xi right sides
and the wconst entries are memoized.  These tests pin that a memo is hit
rather than recomputed, and that no caller can change what a later one reads.
"""

import json

import numpy as np
import pytest

from cycosc import expr as ex
from cycosc import identities, normal_order, params
from cycosc.identities import check_general, check_single_mode, check_wconst, run_suite
from cycosc.normal_order import f_kpoly, normal_form
from cycosc.params import validate_alpha

from conftest import lru_caches

ALPHAS = {
    lam: [
        tuple(np.append(head, -head.sum()))
        for head in (np.linspace(-0.3, 0.3, lam - 1), np.linspace(0.25, -0.1, lam - 1))
    ]
    for lam in range(2, 9)
}


def _clear_all():
    for fn in lru_caches().values():
        fn.cache_clear()


def _recorded(monkeypatch, memo) -> list:
    """Route every call of `memo` through a recorder, wherever a cycosc module binds it."""
    seen = []

    def record(*args):
        seen.append(args)
        return memo(*args)

    for module in (params, normal_order, identities):
        for name, value in list(vars(module).items()):
            if value is memo:
                monkeypatch.setattr(module, name, record)
    return seen


def test_each_root_and_geometric_sum_is_evaluated_once(monkeypatch):
    _clear_all()
    roots, geometric = params.root_table, normal_order.geometric_f
    root_args = _recorded(monkeypatch, roots)
    geometric_args = _recorded(monkeypatch, geometric)
    for lam, alphas in ALPHAS.items():
        for alpha in alphas:
            run_suite(validate_alpha(lam, alpha), 13)

    assert {args[0] for args in root_args} == set(range(2, 9))
    assert roots.cache_info().misses == len(set(root_args))
    assert geometric.cache_info().misses == len(set(geometric_args))
    assert len(geometric_args) > len(set(geometric_args))  # the memo is read, not only filled


def test_reports_do_not_depend_on_what_ran_before():
    p1 = validate_alpha(5, (0.3, -0.1, 0.2, -0.25, -0.15))
    p2 = validate_alpha(3, (0.2, -0.3, 0.1))
    _clear_all()
    first = run_suite(p1, 14)
    text = json.dumps(first, sort_keys=True)
    for check in first["checks"]:  # a caller that edits its report must not reach the memos
        if check["fitted"]:
            check["fitted"].clear()
    run_suite(p2, 13)
    assert json.dumps(run_suite(p1, 14), sort_keys=True) == text


def test_shared_values_are_read_only_or_fresh():
    p = validate_alpha(3, (0.2, -0.3, 0.1))
    xi = identities._xi_side(p, 2, 3, 1)
    assert type(xi) is tuple and all(type(row) is tuple for row in xi)
    assert type(f_kpoly(p, 3, "paper")) is tuple

    check_wconst()[0].fitted.clear()
    assert check_wconst()[0].fitted

    for kind in ("a", "ad", "K"):
        power = ex.Power(ex.Atom(kind), 4)
        first = normal_form(power, p)
        expected = dict(first.terms)
        first.terms.clear()
        first.terms[(9, 9, 0)] = 99.0
        assert normal_form(power, p).terms == expected


@pytest.mark.parametrize("m", range(1, 6))
def test_single_mode_after_general_equals_a_cold_call(m):
    p = validate_alpha(3, (0.2, -0.3, 0.1))
    _clear_all()
    cold = check_single_mode(p, 16, m)
    _clear_all()
    for n in range(1, 5):
        check_general(p, 16, n, m)
    assert check_single_mode(p, 16, m) == cold
    assert check_single_mode(p, 16, m) == cold


def _bits(form) -> list:
    return [(key, c.real.hex(), c.imag.hex()) for key, c in form.terms.items()]


def test_generator_powers_do_not_depend_on_kappa():
    """A power of a, a+ or K is the product chain that reads kappa, for every kappa, bit for bit."""
    for lam, alphas in ALPHAS.items():
        sets = [validate_alpha(lam, alpha) for alpha in [*alphas, (0.0,) * lam]]
        for kind in ("a", "ad", "K"):
            for n in range(10):
                power = ex.Power(ex.Atom(kind), n)
                for p in sets:
                    chained = normal_order.nf_power(normal_form(ex.Atom(kind), p), n, p)
                    assert _bits(normal_form(power, p)) == _bits(chained), (lam, kind, n, p.kappa)


def test_one_realization_is_held_at_a_time():
    """Every suite of a run_suite call reads one realization; the next parameter set replaces it."""
    _clear_all()
    for lam, alphas in list(ALPHAS.items())[:2]:
        run_suite(validate_alpha(lam, alphas[0]), 16)
    info = identities._rep.cache_info()
    assert (info.misses, info.currsize) == (2, 1)
    assert info.hits > 0


def test_equal_parameter_sets_share_one_realization():
    """AlgebraParams key the realization cache by value: a second equal set is a hit."""
    first, second = validate_alpha(3, (0.2, -0.3, 0.1)), validate_alpha(3, (0.2, -0.3, 0.1))
    assert first is not second and first == second and hash(first) == hash(second)
    assert first != validate_alpha(3, (0.1, -0.3, 0.2))
    identities._rep.cache_clear()
    assert identities._rep(first, 16) is identities._rep(second, 16)
    info = identities._rep.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
