import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycosc.errors import (
    BadLength,
    CycoscError,
    NotFinite,
    NotHermitian,
    NotReal,
    SumNotZero,
    UnitarityBound,
)
from cycosc.params import (
    LAMBDA_MAX,
    alpha_from_kappa,
    cyclic_order,
    kappa_from_alpha,
    params_from_json,
    params_from_kappa,
    validate_alpha,
    whole_number,
)

from conftest import random_valid_alpha


def test_partial_sums_and_level_shifts():
    p = validate_alpha(2, (0.5, -0.5))
    assert p.beta == (0.0, 0.5, 0.0)
    assert p.gamma == (0.25, 0.25)
    assert abs(p.kappa[0] - 0.5) < 1e-12


def test_undeformed_is_all_zero():
    p = validate_alpha(3, (0.0, 0.0, 0.0))
    assert p.beta == (0.0, 0.0, 0.0, 0.0)
    assert p.gamma == (0.0, 0.0, 0.0)
    assert all(abs(k) < 1e-15 for k in p.kappa)
    assert not p.is_deformed


def test_order_three_partial_sums():
    p = validate_alpha(3, (0.3, 0.2, -0.5))
    assert p.beta[:3] == (0.0, 0.3, 0.5)
    assert abs(p.beta[3]) < 1e-15
    assert p.gamma == (0.15, 0.4, 0.25)


def test_sum_constraint_enforced():
    with pytest.raises(SumNotZero):
        validate_alpha(2, (0.5, -0.4))


def test_partial_sum_bound_enforced():
    with pytest.raises(UnitarityBound):
        validate_alpha(2, (-1.5, 1.5))


def test_length_mismatch():
    with pytest.raises(BadLength):
        validate_alpha(3, (0.5, -0.5))


def test_alpha_from_kappa_two_point():
    alpha = alpha_from_kappa(2, [0.5])
    assert np.allclose(alpha, (0.5, -0.5), atol=1e-14)


def test_alpha_from_kappa_zero():
    assert np.allclose(alpha_from_kappa(3, [0.0, 0.0]), (0.0, 0.0, 0.0))


def test_hermiticity_enforced():
    with pytest.raises(NotHermitian):
        alpha_from_kappa(2, [0.3j])
    with pytest.raises(NotHermitian):
        alpha_from_kappa(3, [0.3 + 0.1j, 0.3 + 0.1j])


def test_kappa_from_alpha_two_point():
    assert abs(kappa_from_alpha(2, (0.5, -0.5))[0] - 0.5) < 1e-14


def test_telescoping_is_exact():
    # left-to-right accumulation makes each step reproducible bit for bit
    p = validate_alpha(5, (0.11, -0.07, 0.19, -0.05, -0.18))
    for mu in range(5):
        assert p.beta[mu + 1] == p.beta[mu] + p.alpha[mu]


def test_derived_kappa_is_hermitian():
    p = validate_alpha(5, (0.11, -0.07, 0.19, -0.05, -0.18))
    lam = 5
    for r in range(1, lam):
        assert abs(p.kappa[r - 1].conjugate() - p.kappa[lam - r - 1]) < 1e-13


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_transform_roundtrip(seed, lam):
    rng = np.random.default_rng(seed)
    alpha = random_valid_alpha(rng, lam)
    kappa = kappa_from_alpha(lam, alpha)
    back = alpha_from_kappa(lam, kappa)
    assert np.max(np.abs(np.array(back) - alpha)) < 1e-12


def test_roundtrip_from_kappa_side(rng):
    # conjugate-symmetric complex kappa for lam = 5
    k1 = 0.12 + 0.07j
    k2 = -0.05 + 0.02j
    kappa = [k1, k2, k2.conjugate(), k1.conjugate()]
    p = params_from_kappa(5, kappa)
    assert np.max(np.abs(np.array(p.kappa) - np.array(kappa))) < 1e-12


def test_json_loading_alpha():
    p = params_from_json({"lambda": 2, "alpha": [0.5, -0.5]})
    assert p.lam == 2
    assert abs(p.kappa[0] - 0.5) < 1e-12


def test_json_loading_kappa():
    p = params_from_json('{"lambda": 3, "kappa": [[0.1, 0.05], [0.1, -0.05]]}')
    assert p.lam == 3
    assert abs(p.kappa[0] - (0.1 + 0.05j)) < 1e-12


def test_json_rejects_both_and_neither():
    with pytest.raises(BadLength):
        params_from_json({"lambda": 2, "alpha": [0.0, 0.0], "kappa": [[0.0, 0.0]]})
    with pytest.raises(BadLength):
        params_from_json({"lambda": 2})


def test_reality_guard():
    # lam = 4 kappa with kappa_2 imaginary violates kappa_2* = kappa_2
    with pytest.raises((NotHermitian, NotReal)):
        alpha_from_kappa(4, [0.1, 0.2j, 0.1])


@pytest.mark.parametrize(
    "alpha", [(float("inf"), float("-inf")), (float("nan"), float("nan")), (0.0, float("nan"))]
)
def test_non_finite_alpha_rejected(alpha):
    with pytest.raises(NotFinite):
        validate_alpha(2, alpha)


def test_non_finite_kappa_rejected():
    with pytest.raises(NotFinite):
        params_from_kappa(2, [complex(float("inf"), 0.0)])


def test_whole_number():
    assert whole_number(3, "lambda") == 3
    assert whole_number(8.0, "dim") == 8
    for bad in (12.7, float("inf"), float("nan"), None, [64], "3", True):
        with pytest.raises(CycoscError, match="must be a whole number"):
            whole_number(bad, "dim")
    with pytest.raises(CycoscError, match="lambda must be a whole number, got None"):
        params_from_json({"lambda": None, "alpha": [0.0, 0.0]})


@pytest.mark.parametrize(
    "obj",
    [
        None,
        [1, 2],
        {"lambda": 2, "alpha": None},
        {"lambda": 2, "alpha": [None, 0]},
        {"lambda": 2, "alpha": "00"},
        {"lambda": 2, "alpha": [True, -1]},
        {"lambda": 2, "kappa": [0.5]},
        {"lambda": 2, "kappa": [[0.5]]},
        {"lambda": 2, "kappa": [[0.5, 0.0, 0.0]]},
        {"lambda": 2, "kappa": "5"},
        {"lambda": 2, "kappa": [[False, 0]]},
        {"lambda": 3, "kappa": [["a", "b"], [1, 2]]},
    ],
)
def test_json_refuses_bad_shapes(obj):
    with pytest.raises(CycoscError):
        params_from_json(obj)


def test_json_accepts_whole_and_integer_entries():
    assert params_from_json({"lambda": 2.0, "alpha": [1, -1]}) == validate_alpha(2, (1.0, -1.0))
    assert params_from_json({"lambda": 2, "kappa": [[1, 0]]}) == params_from_kappa(2, [1.0])


def test_tolerances_scale_with_the_input():
    """Round-off on large inputs is accepted: each tolerance scales with its vector's size."""
    big = validate_alpha(5, (4e4, -1e4, -1e4, -1e4, -1e4))
    again = params_from_kappa(5, big.kappa)
    assert np.max(np.abs(np.array(again.alpha) - big.alpha)) < 1e-12 * 4e4
    p = params_from_json({"lambda": 2, "kappa": [[1e6, 0.0]]})
    assert p.alpha == pytest.approx((1e6, -1e6))
    rng = np.random.default_rng(5)
    for lam in (5, 7, 64, 254):
        for _ in range(3):
            # a lead entry near 2e4 drained by the others keeps every partial sum >= 0
            rest = rng.uniform(0.0, 4e4 / (lam - 1), lam - 1)
            p = validate_alpha(lam, (rest.sum(), *-rest))
            back = params_from_kappa(lam, p.kappa)
            assert np.max(np.abs(np.array(back.alpha) - p.alpha)) < 1e-12 * p.alpha[0]


def test_lambda_bound():
    assert cyclic_order(LAMBDA_MAX) == LAMBDA_MAX == 254
    for bad in (LAMBDA_MAX + 1, 10**9, float(10**12)):
        with pytest.raises(CycoscError, match="exceeds 254"):
            params_from_json({"lambda": bad, "alpha": [0.0, 0.0]})
