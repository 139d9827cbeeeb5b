"""The banded realization against an independent dense evaluator.

The reference builds every generator with `np.diag` and evaluates words with
dense `@`.  Alongside each matrix it carries the same word evaluated over the
entry moduli (the size of the terms that make up an entry), which bounds the
round-off of any evaluation order, and the number k of products the
evaluation chains (a product's count is the sum of its operands' counts plus
one).  The forward error of k sequential products grows like k eps, so a
banded result must be zero wherever the reference has no term, and within
max(16, k) eps of the term sizes elsewhere.
"""

import cmath

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cycosc import expr as ex
from cycosc.fock import Banded, apply_word, build_rep, structure_function
from cycosc.normal_order import nf_to_matrix, normal_form
from cycosc.params import validate_alpha

from conftest import dense

EPS = np.finfo(float).eps


def dense_generators(params, dim: int) -> dict:
    """(value, size) pairs of every atom and projector from np.diag."""
    lam, levels = params.lam, np.arange(dim)
    a = np.diag(np.sqrt([structure_function(params, n) for n in range(1, dim)]).astype(complex), 1)
    k = np.diag([cmath.exp(2j * cmath.pi * (n % lam) / lam) for n in levels])
    gens = {"a": a, "ad": a.conj().T, "N": np.diag(levels.astype(complex)), "K": k,
            "I": np.eye(dim, dtype=complex)}
    gens = {kind: (mat, np.abs(mat)) for kind, mat in gens.items()}
    for mu in range(lam):
        roots = [sum(cmath.exp(2j * cmath.pi * nu * ((n - mu) % lam) / lam)
                     for nu in range(lam)) / lam for n in levels]
        gens[f"P{mu}"] = (np.diag(roots), np.eye(dim))
    return gens


def dense_eval(e, gens: dict):
    """(value, size, k) of a word: its dense matrix, the word over entry moduli
    and the number of products chained in evaluating it."""
    dim = len(gens["I"][0])

    def mul(x, y):
        return x[0] @ y[0], x[1] @ y[1], x[2] + y[2] + 1

    if isinstance(e, ex.Atom):
        return (*gens[e.kind], 0)
    if isinstance(e, ex.Proj):
        return (*gens[f"P{e.mu}"], 0)
    if isinstance(e, ex.Scalar):
        return e.value * np.eye(dim), abs(e.value) * np.eye(dim), 0
    if isinstance(e, ex.Sum):
        parts = [dense_eval(t, gens) for t in e.terms]
        return sum(p[0] for p in parts), sum(p[1] for p in parts), max(p[2] for p in parts)
    if isinstance(e, ex.Product):
        acc = dense_eval(e.factors[0], gens)
        for f in e.factors[1:]:
            acc = mul(acc, dense_eval(f, gens))
        return acc
    if isinstance(e, ex.Power):
        acc, base = (*gens["I"], 0), dense_eval(e.base, gens)
        for _ in range(e.exponent):
            acc = mul(acc, base)
        return acc
    left, right = dense_eval(e.left, gens), dense_eval(e.right, gens)
    lr, rl = mul(left, right), mul(right, left)
    return lr[0] - rl[0], lr[1] + rl[1], max(lr[2], rl[2])


def _degree(e) -> int:
    """Most ladder factors in one expanded term (N counts two); bounds the rewrite cost."""
    if isinstance(e, ex.Atom):
        return {"a": 1, "ad": 1, "N": 2}.get(e.kind, 0)
    if isinstance(e, ex.Sum):
        return max(map(_degree, e.terms))
    if isinstance(e, ex.Product):
        return sum(map(_degree, e.factors))
    if isinstance(e, ex.Power):
        return e.exponent * _degree(e.base)
    if isinstance(e, ex.Commutator):
        return _degree(e.left) + _degree(e.right)
    return 0


def _words(lam: int):
    leaves = st.one_of(
        st.sampled_from([ex.A, ex.AD, ex.NUM, ex.KLEIN, ex.ONE]),
        st.integers(0, lam - 1).map(ex.Proj),
        st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False).map(ex.Scalar),
    )

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(lambda t: ex.Sum(tuple(t))),
            st.lists(children, min_size=2, max_size=3).map(lambda t: ex.Product(tuple(t))),
            st.builds(ex.Power, children, st.integers(0, 4)),
            st.builds(ex.Commutator, children, children),
        )

    return st.recursive(leaves, extend, max_leaves=6)


@st.composite
def cases(draw):
    lam = draw(st.integers(2, 7))
    head = draw(st.lists(st.floats(-0.1, 0.1), min_size=lam - 1, max_size=lam - 1))
    params = validate_alpha(lam, [*head, -sum(head)])
    word = draw(_words(lam))
    assume(_degree(word) <= 8)
    return params, draw(st.integers(lam + 2, 20)), word


def _assert_close(got, ref):
    value, size, k = ref
    assert np.all(got[size == 0] == 0)
    assert np.all(np.abs(got - value) <= max(16, k) * EPS * size)


# 36 scalar factors in 52 chained products: the banded power is off by 19.9 eps
NESTED_POWER = ex.Power(ex.Power(ex.Power(ex.Scalar(1.618589033825121 + 1e-08j), 3), 3), 4)


@settings(max_examples=150, deadline=None)
@given(case=cases())
@example(case=(validate_alpha(2, (0.0, 0.0)), 4, NESTED_POWER))
def test_banded_matches_dense_reference(case):
    params, dim, word = case
    rep = build_rep(params, dim)
    gens = dense_generators(params, dim)
    _assert_close(dense(apply_word(rep, word)), dense_eval(word, gens))

    nf = normal_form(word, params)
    terms = [(c, ex.word(ex.Power(ex.AD, p), ex.Power(ex.A, q), ex.Power(ex.KLEIN, r)))
             for (p, q, r), c in sorted(nf.terms.items())]
    refs = [(c, dense_eval(t, gens)) for c, t in terms]
    value = sum((c * ref[0] for c, ref in refs), np.zeros((dim, dim)))
    size = sum((abs(c) * ref[1] for c, ref in refs), np.zeros((dim, dim)))
    k = max((ref[2] + 1 for _, ref in refs), default=0)  # one more product: the coefficient
    _assert_close(dense(nf_to_matrix(nf, rep)), (value, size, k))


def _random_banded(rng, dim: int):
    """A dense matrix with random entries on a few random diagonals, and its Banded form."""
    offsets = rng.permutation(np.arange(1 - dim, dim))[: rng.integers(0, 4)]
    full = np.zeros((dim, dim), dtype=complex)
    for o in offsets:
        for j in range(max(0, -o), dim - max(0, o)):
            full[j + o, j] = complex(*rng.normal(size=2))
    bands = {int(o): tuple(complex(full[j + o, j]) if 0 <= j + o < dim else 0j for j in range(dim))
             for o in offsets}
    return Banded(dim, bands), full


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_banded_arithmetic_matches_dense(dim, seed):
    rng = np.random.default_rng(seed)
    (x, dx), (y, dy) = _random_banded(rng, dim), _random_banded(rng, dim)
    c = complex(*rng.normal(size=2))
    assert np.array_equal(dense(x), dx)
    assert [(i, j) for i, j, _ in x.entries()] == list(zip(*np.nonzero(dx)))
    pairs = [(x + y, dx + dy), (x - y, dx - dy), (x @ y, dx @ dy), (c * x, c * dx),
             (x * c, dx * c), (x.power(5), np.linalg.matrix_power(dx, 5))]
    for got, want in pairs:
        scale = max(1.0, np.max(np.abs(want), initial=0.0))
        assert np.max(np.abs(dense(got) - want), initial=0.0) <= 1e-12 * scale
    lo, hi = sorted(int(v) for v in rng.integers(0, dim, 2))
    assert x.window_max(lo, hi) == max(abs(complex(v)) for v in dx[:, lo : hi + 1].ravel())
