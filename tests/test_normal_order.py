import cmath
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycosc import expr as ex
from cycosc import normal_order
from cycosc.errors import BadRange, LambdaMismatch, NotFinite
from cycosc.expr import parse
from cycosc.fock import Banded, apply_word, build_rep, safe_window
from cycosc.normal_order import (
    PRUNE_TOL,
    NormalForm,
    accumulate,
    beta_closed_form,
    beta_tower_raw,
    f_kpoly,
    geometric_f,
    kpoly_left_sum,
    kpoly_mul,
    left_read,
    nf_add,
    nf_monomial,
    nf_mul,
    nf_power,
    nf_scale,
    nf_sub,
    nf_to_matrix,
    normal_form,
)
from cycosc.params import root_power, validate_alpha

from conftest import bits, dense, lru_caches, random_valid_alpha

SRC = Path(__file__).resolve().parent.parent / "src" / "cycosc"


def test_deformed_bracket_expansion(params_l2):
    nf = normal_form(parse("a*ad"), params_l2)
    assert nf.coefficient(1, 1, 0) == pytest.approx(1.0)
    assert nf.coefficient(0, 0, 0) == pytest.approx(1.0)
    assert nf.coefficient(0, 0, 1) == pytest.approx(0.5)
    assert len(nf.terms) == 3


def test_number_operator_plain(params_plain):
    nf = normal_form(parse("N"), params_plain)
    assert nf.terms == {(1, 1, 0): pytest.approx(1.0)}


def test_number_operator_deformed(params_l3):
    rep = build_rep(params_l3, 12)
    nf = normal_form(parse("N"), params_l3)
    mat = dense(nf_to_matrix(nf, rep))
    assert np.max(np.abs(mat - dense(rep.mat_n))) < 1e-12


def test_projector_expansion_matches_matrices(params_l3):
    rep = build_rep(params_l3, 12)
    for mu in range(3):
        nf = normal_form(ex.Proj(mu), params_l3)
        assert np.max(np.abs(dense(nf_to_matrix(nf, rep)) - dense(rep.mat_p[mu]))) < 1e-12


def test_engine_matches_matrix_on_bracket(params_l2):
    rep = build_rep(params_l2, 16)
    e = parse("[a, ad^2]")
    diff = nf_to_matrix(normal_form(e, params_l2), rep) - apply_word(rep, e)
    win = safe_window(rep, [e])
    assert diff.window_max(win.lo, win.hi) < 1e-12


def test_engine_matches_matrix_random_words(rng):
    """Randomized oracle-consistency gate over words in a, ad, K."""
    atoms = [ex.A, ex.AD, ex.KLEIN]
    cases = 0
    for lam in (2, 3, 4, 5):
        params = validate_alpha(lam, random_valid_alpha(rng, lam))
        rep = build_rep(params, 24)
        for _ in range(30):
            length = int(rng.integers(1, 7))
            word = ex.word(*[atoms[int(rng.integers(0, 3))] for _ in range(length)])
            nf = normal_form(word, params)
            diff = nf_to_matrix(nf, rep) - apply_word(rep, word)
            win = safe_window(rep, [word])
            assert diff.window_max(win.lo, win.hi) < 1e-8
            cases += 1
    assert cases >= 100


def test_engine_covers_mixed_atoms(params_l3):
    rep = build_rep(params_l3, 20)
    for text in ("N K a", "P1 ad a", "[N, ad^2]", "{K, a ad}", "(a + ad)^3"):
        e = parse(text)
        diff = nf_to_matrix(normal_form(e, params_l3), rep) - apply_word(rep, e)
        win = safe_window(rep, [e])
        assert diff.window_max(win.lo, win.hi) < 1e-10


def test_grading_of_pure_ladder_words(rng):
    for lam in (2, 4):
        params = validate_alpha(lam, random_valid_alpha(rng, lam))
        for n, m in [(1, 3), (2, 2), (3, 4), (2, 5)]:
            nf = normal_form(ex.word(ex.Power(ex.A, n), ex.Power(ex.AD, m)), params)
            assert all(p - q == m - n for (p, q) in nf.support())


_ADJOINT_ATOM = {"a": ex.AD, "ad": ex.A, "N": ex.NUM}


def _adjoint_word(factors, lam):
    """The adjoint of the word of generator powers `factors`, as a word of its own.

    The factors are reversed, a and a+ swap, N stays, and K^k becomes
    K^(k(lam-1)), the power of K^-1 that K^lam = 1 makes positive.
    """
    return ex.word(*(
        ex.Power(ex.KLEIN, k * (lam - 1)) if atom is ex.KLEIN
        else ex.Power(_ADJOINT_ATOM[atom.kind], k)
        for atom, k in reversed(factors)
    ))


def test_hermiticity_via_matrices(rng):
    """The normal-form matrix of a word's adjoint is the conjugate transpose of the word's."""
    words = (
        ((ex.A, 1), (ex.AD, 2), (ex.KLEIN, 1)),  # a ad^2 K
        ((ex.KLEIN, 2), (ex.A, 2), (ex.AD, 1)),  # K^2 a a ad
        ((ex.NUM, 1), (ex.AD, 1), (ex.KLEIN, 1)),  # N ad K
    )
    for lam in (2, 3):
        params = validate_alpha(lam, random_valid_alpha(rng, lam))
        rep = build_rep(params, 18)
        for factors in words:
            word = ex.word(*(ex.Power(atom, k) for atom, k in factors))
            adj = _adjoint_word(factors, lam)
            mat, adj_mat = (dense(nf_to_matrix(normal_form(e, params), rep)) for e in (word, adj))
            diff = adj_mat - mat.conj().T
            # adjoint swaps the climb direction; stay away from the boundary
            w = ex.creation_weight(word) + ex.creation_weight(adj)
            assert np.max(np.abs(diff[: 18 - w, : 18 - w])) < 1e-10


def test_nf_mul_associativity(rng):
    params = validate_alpha(3, random_valid_alpha(rng, 3))
    monos = []
    for _ in range(50):
        p, q, r = (int(rng.integers(0, 4)) for _ in range(3))
        coeff = complex(rng.normal(), rng.normal())
        monos.append(nf_monomial(3, p, q, r % 3, coeff))
    worst = 0.0
    for idx in range(0, 48, 3):
        x, y, z = monos[idx], monos[idx + 1], monos[idx + 2]
        left = nf_mul(nf_mul(x, y, params), z, params)
        right = nf_mul(x, nf_mul(y, z, params), params)
        keys = set(left.terms) | set(right.terms)
        worst = max(
            worst,
            max(
                (abs(left.coefficient(*k) - right.coefficient(*k)) for k in keys),
                default=0.0,
            ),
        )
    assert worst < 1e-10


def test_nf_cancellation(params_l2):
    nf = normal_form(parse("a ad K"), params_l2)
    assert nf_add(nf, nf_scale(nf, -1.0)).terms == {}


def test_lambda_mismatch_guard(params_l2, params_l3):
    with pytest.raises(LambdaMismatch):
        nf_add(nf_monomial(2, 0, 0, 0), nf_monomial(3, 0, 0, 0))
    with pytest.raises(LambdaMismatch):
        nf_mul(nf_monomial(2, 0, 0, 0), nf_monomial(2, 0, 0, 0), params_l3)


def test_geometric_sum_values():
    assert geometric_f(1, 2, 2) == pytest.approx(0.0)
    for lam in (2, 3, 4, 5):
        assert geometric_f(1, lam, lam) == pytest.approx(0.0, abs=1e-13)
    assert geometric_f(1, 1, 7) == pytest.approx(1.0)
    # sign flag conjugates the phase
    assert geometric_f(1, 2, 5, -1) == pytest.approx(
        np.conj(geometric_f(1, 2, 5, 1))
    )


def test_f_kpoly_builds_each_candidate_from_the_geometric_sum(rng):
    """F's coefficient on K^r is f_r kappa_r: 'paper' pins f_1 = 1, 'conjugate' flips the sign."""
    for lam in (2, 3, 5):
        params = validate_alpha(lam, random_valid_alpha(rng, lam))
        for m in range(1, 6):
            for variant, sign in (("paper", 1), ("geometric", 1), ("conjugate", -1)):
                f = [geometric_f(r, m, lam, sign) for r in range(lam)]
                if variant == "paper":
                    f[1] = 1.0 + 0.0j
                want = [0j, *(f[r] * params.kappa[r - 1] for r in range(1, lam))]
                assert bits(f_kpoly(params, m, variant)) == bits(want)
    with pytest.raises(ValueError, match="unknown f variant"):
        f_kpoly(params, 2, "printed")


def test_beta_oracle_undeformed_spot(params_plain):
    tower = beta_tower_raw(2, 3, params_plain)
    values = [c[0].real for c in tower]
    assert values == pytest.approx([1.0, 4.0, 2.0])
    assert np.max(np.abs(tower[0] - np.eye(2)[0])) < 1e-14  # beta_0 == 1


def test_beta_oracle_single_lowering(params_plain):
    # one lowering factor: the l = 1 coefficient is the mode count m - 1
    for m in (3, 5, 8):
        tower = beta_tower_raw(1, m, params_plain)
        assert tower[1][0].real == pytest.approx(m - 1)


def test_beta_oracle_matches_matrix(params_l2):
    rep = build_rep(params_l2, 24)
    n, m = 2, 4
    tower = beta_tower_raw(n, m, params_l2)
    total = None
    for l, poly in enumerate(tower):
        nf = kpoly_left_sum([(poly, m - 1 - l, n - l)], 2)
        total = nf if total is None else nf_add(total, nf)
    product = rep.matrix_power("a", n) @ rep.matrix_power("ad", m - 1)
    win = safe_window(rep, [ex.word(ex.Power(ex.A, n), ex.Power(ex.AD, m - 1))])
    assert (nf_to_matrix(total, rep) - product).window_max(win.lo, win.hi) < 1e-8


def test_beta_oracle_real_when_undeformed(params_plain):
    for n, m in [(1, 4), (2, 5), (3, 6)]:
        tower = beta_tower_raw(n, m, params_plain)
        for poly in tower:
            assert max(abs(c.imag) for c in poly) < 1e-12
            assert max(map(abs, poly[1:])) < 1e-12  # no Klein admixture


def test_closed_form_base_cases(params_l2, params_plain):
    assert beta_closed_form(2, 3, 0, params_l2)[0] == pytest.approx(1.0)
    assert beta_closed_form(2, 3, 1, params_plain)[0].real == pytest.approx(4.0)
    assert beta_closed_form(3, 5, 3, params_plain)[0].real == pytest.approx(24.0)
    with pytest.raises(BadRange):
        beta_closed_form(2, 3, 5, params_l2)


@pytest.mark.parametrize("lam", [2, 3, 4, 5])
def test_closed_form_covers_every_level(lam):
    """The printed cases (l <= 3, l = n, l = n - 1 and the general one) cover every
    0 <= l <= n: each level is a K-polynomial of lam finite terms; other levels are refused."""
    params = validate_alpha(lam, (0.3, -0.3) + (0.0,) * (lam - 2))
    for n in range(13):
        for l in range(n + 1):
            poly = beta_closed_form(n, n + 1, l, params)
            assert type(poly) is tuple and len(poly) == lam, (n, l)
            assert all(type(c) is complex and cmath.isfinite(c) for c in poly), (n, l)
        for l in (-1, n + 1):
            with pytest.raises(BadRange):
                beta_closed_form(n, n + 1, l, params)


def test_closed_form_matches_oracle_undeformed_edges():
    """Bottom (l <= 3) and top (l = n, n-1) printed cases agree with the
    oracle when the deformation is switched off; the mid-tower cases do not
    (see the next test)."""
    params = validate_alpha(3, (0.0, 0.0, 0.0))
    for n in range(1, 7):
        for m in range(n + 1, n + 4):
            tower = beta_tower_raw(n, m, params)
            for l in range(n + 1):
                if l not in (0, 1, 2, 3, n - 1, n):
                    continue
                closed = beta_closed_form(n, m, l, params)
                assert max(map(abs, np.subtract(closed, tower[l]))) < 1e-9, (n, m, l)


@pytest.mark.parametrize("lam", [2, 3])
def test_closed_form_mid_tower_differs_from_the_engine_undeformed(lam):
    """The printed mid-tower case (4 <= l <= n - 2, so n >= 6) is off at alpha = 0.

    `verify` never reaches it: `general` reads the tower of a^(n-1) with
    n - 1 <= 3, and winf's Xi^(s,m) that of a^m with m <= 3.  Over n <= 8,
    m <= 9 and the levels whose monomial exists (l <= m - 1), 26 triples
    differ, every one of them mid-tower.
    """
    params = validate_alpha(lam, (0.0,) * lam)
    off = []
    for n in range(1, 9):
        for m in range(1, 10):
            tower = beta_tower_raw(n, m, params)
            for l in range(min(n, m - 1) + 1):
                closed = beta_closed_form(n, m, l, params)
                if max(map(abs, np.subtract(closed, tower[l]))) > 1e-9:
                    off.append((n, m, l))
    assert len(off) == 26
    assert all(4 <= l <= n - 2 for n, _, l in off)


def test_closed_form_deformed_comparison_is_recorded_shape(params_l2):
    # deformed closed forms evaluate without error across the printed cases
    for n in range(1, 7):
        for l in range(n + 1):
            poly = beta_closed_form(n, n + 3, l, params_l2)
            assert type(poly) is tuple and len(poly) == 2


def test_kpoly_mul_is_cyclic():
    x = (1.0 + 0j, 2.0 + 0j, 0j)
    y = (0j, 0.5j, 3.0 + 0j)
    # (1 + 2K)(0.5i K + 3K^2) = 0.5i K + (3 + 1i) K^2 + 6 K^3, and K^3 = 1
    assert kpoly_mul(x, y) == (6.0, 0.5j, 3.0 + 1.0j)
    assert kpoly_mul(x, y, -2.0) == tuple(-2.0 * c for c in kpoly_mul(x, y))


@pytest.mark.parametrize("kind, grade", [("a", (0, 1, 0)), ("ad", (1, 0, 0)), ("K", (0, 0, 1))])
def test_a_huge_generator_power_is_one_monomial_without_products(monkeypatch, kind, grade):
    """a^n, (a+)^n and K^n are the monomial of n times the generator's grade, coefficient 1."""
    from cycosc import normal_order

    def no_product(*args):
        raise AssertionError("a power of one generator multiplied out")

    monkeypatch.setattr(normal_order, "_mul", no_product)
    n = 100_000_000
    for lam in (2, 3, 7):
        params = validate_alpha(lam, (0.0,) * lam)
        nf = normal_form(parse(f"{kind}^{n}"), params)
        p, q, r = (n * g for g in grade)
        assert list(nf.terms.items()) == [((p, q, r % lam), 1.0 + 0.0j)]


def test_rewrite_memo_is_bounded():
    from cycosc import normal_order

    word = parse("[a^3, ad^3]")
    for i in range(400):
        shift = 0.3 * i / 400
        normal_form(word, validate_alpha(2, (shift, -shift)))
    assert normal_order._reorder_core.cache_info().currsize <= 1024
    assert normal_order._a_times_adpow.cache_info().currsize <= 1024

    # every memo in the package is bounded, and every one in the source is seen here
    caches = lru_caches()
    unbounded = [name for name, fn in caches.items() if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []
    decorators = [
        f"{path.name}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if re.match(r"\s*@(functools\.)?(lru_cache|cache)\b", line)
    ]
    assert len(decorators) == len(caches), decorators


# ---------------------------------------------------------------------------
# bit-level contracts of the grading path: the same floating-point operations
# in the same order as the term-by-term formulations they replace


def _random_form(rng, lam: int, dim: int) -> NormalForm:
    """Terms on a few diagonals, several (p, q) grades on each, some past the truncation.

    Up to 4 lam terms share a diagonal, with magnitudes from 1e-8 to 1e8, so a
    sum taken in another order would show in the bits.
    """
    terms = {}
    for offset in rng.choice(np.arange(-3, 4), size=int(rng.integers(1, 3)), replace=False):
        for p in rng.choice(np.arange(max(0, offset), dim + 3), size=4, replace=False):
            for r in rng.choice(lam, size=int(rng.integers(1, lam + 1)), replace=False):
                scale = 10.0 ** rng.uniform(-8, 8)
                terms[(int(p), int(p - offset), int(r))] = complex(*rng.normal(size=2)) * scale
    return NormalForm(lam, terms)


def _term_by_term(x: NormalForm, rep) -> Banded:
    """sum of c * (a+)^p a^q K^r in sorted term order, each monomial multiplied out."""
    acc = Banded(rep.dim, {})
    for (p, q, r), c in sorted(x.terms.items()):
        mono = rep.matrix_power("ad", p) @ rep.matrix_power("a", q)
        if r:
            mono = mono @ rep.matrix_power("K", r)
        acc = acc + c * mono
    return acc


@pytest.mark.parametrize("lam", range(2, 9))
def test_nf_to_matrix_equals_the_sorted_term_sum_bit_for_bit(lam, rng):
    params = validate_alpha(lam, random_valid_alpha(rng, lam) * 0.5)
    for dim in (lam + 2, 13, 24):
        rep = build_rep(params, dim)
        forms = [NormalForm(lam, {})] + [_random_form(rng, lam, dim) for _ in range(8)]
        for x in forms:
            got, want = nf_to_matrix(x, rep), _term_by_term(x, rep)
            assert got.bands.keys() == want.bands.keys()
            for offset, vec in want.bands.items():
                assert bits(got.bands[offset]) == bits(vec)


def _kpoly_mul_scalar(x, y, scale=1.0):
    """kpoly_mul over numpy scalars."""
    out = np.zeros(len(x), dtype=complex)
    for r1, c1 in enumerate(np.asarray(x)):
        if c1 == 0:
            continue
        for r2, c2 in enumerate(np.asarray(y)):
            if c2 == 0:
                continue
            out[(r1 + r2) % len(x)] += c1 * c2 * scale
    return out


def _kpoly_left_row_scalar(poly, p, q, lam):
    """kpoly_left_sum of the one row (poly, p, q) over numpy scalars."""
    terms = {}
    for r, c in enumerate(np.asarray(poly, dtype=complex)):
        if abs(c) < PRUNE_TOL:
            continue
        terms[(p, q, r % lam)] = complex(c) * root_power(lam, r * (q - p))
    return NormalForm(lam, {k: v for k, v in terms.items() if abs(v) >= PRUNE_TOL})


def _left_read_scalar(nf, p, q):
    """left_read assigning numpy scalars one entry at a time."""
    poly = np.zeros(nf.lam, dtype=complex)
    for r in range(nf.lam):
        poly[r] = nf.coefficient(p, q, r) * root_power(nf.lam, r * (p - q))
    return poly


def _random_kpoly(rng, lam):
    vec = (rng.normal(size=lam) + 1j * rng.normal(size=lam)) * 10.0 ** rng.uniform(-4, 4, lam)
    vec[rng.random(lam) < 0.25] = 0.0
    vec[rng.random(lam) < 0.1] = 1e-15
    return tuple(vec.tolist())


@pytest.mark.parametrize("lam", range(2, 9))
def test_kpoly_loops_equal_their_numpy_scalar_forms_bit_for_bit(lam, rng):
    for _ in range(200):
        x, y = _random_kpoly(rng, lam), _random_kpoly(rng, lam)
        for scale in (1.0, float(rng.normal()), complex(*rng.normal(size=2))):
            assert bits(kpoly_mul(x, y, scale)) == _kpoly_mul_scalar(x, y, scale).tobytes()
        assert bits(kpoly_mul(x, y)) == _kpoly_mul_scalar(x, y).tobytes()

        p, q = (int(v) for v in rng.integers(0, 6, size=2))
        for poly in (x, [int(v) for v in rng.integers(-3, 4, size=lam)]):
            got = kpoly_left_sum([(poly, p, q)], lam)
            want = _kpoly_left_row_scalar(poly, p, q, lam)
            assert list(got.terms) == list(want.terms)
            assert bits(got.terms.values()) == bits(want.terms.values())

        nf = NormalForm(lam, {(p, q, r): complex(c) for r, c in enumerate(x) if c != 0})
        for grade in ((p, q), (p + 1, q)):
            assert bits(left_read(nf, *grade)) == _left_read_scalar(nf, *grade).tobytes()


@pytest.mark.parametrize("text", ["(a K)^300000", "(1*a)^300000"])
def test_a_power_of_a_word_takes_logarithmically_many_products(monkeypatch, text):
    """x^n squares x from the lowest bit of n up: at most 2 log2(n) products."""
    from cycosc import normal_order

    products = []

    def counted(x, y, params):
        products.append(1)
        return nf_mul(x, y, params)

    monkeypatch.setattr(normal_order, "nf_mul", counted)
    params = validate_alpha(2, (0.5, -0.5))
    nf = normal_form(parse(text), params)
    assert [(p, q) for p, q, _ in nf.terms] == [(0, 300000)]
    assert 0 < len(products) <= 2 * math.log2(300000)


@pytest.mark.parametrize("lam", [2, 3, 5])
def test_a_power_that_grows_is_the_left_to_right_product(lam, rng):
    """1 * x * ... * x left to right, bit for bit, for n <= 3 and for any x whose powers grow."""
    params = validate_alpha(lam, random_valid_alpha(rng, lam))
    one = normal_form(ex.ONE, params)
    for text, top in (("ad * a + 0.25 * K", 7), ("[a, ad^2] + P0", 5), ("ad * a", 7),
                      ("a K", 4), ("2.5 * ad K^2", 4)):
        x = normal_form(parse(text), params)
        acc = one
        for n in range(top):
            got = nf_power(x, n, params)
            assert list(got.terms) == list(acc.terms)
            assert bits(got.terms.values()) == bits(acc.terms.values())
            acc = nf_mul(acc, x, params)


# ---------------------------------------------------------------------------
# in-place sums against the copy-and-prune arithmetic they replace


def _reference_pruned(lam, terms):
    return NormalForm(lam, {k: v for k, v in terms.items()
                            if not (cmath.isfinite(v) and abs(v) < PRUNE_TOL)})


def _reference_add(x, y):
    """nf_add as a copy of x, a sum per key of y and a prune of the whole dict."""
    terms = dict(x.terms)
    for key, c in y.terms.items():
        terms[key] = terms.get(key, 0.0) + c
    return _reference_pruned(x.lam, terms)


def _reference_sub(x, y):
    """nf_sub as nf_add of the pruned -1 * y."""
    minus_y = _reference_pruned(y.lam, {k: v * complex(-1.0) for k, v in y.terms.items()})
    return _reference_add(x, minus_y)


def _same_bits(got: NormalForm, want: NormalForm):
    assert got.lam == want.lam
    assert list(got.terms) == list(want.terms)
    assert bits(got.terms.values()) == bits(want.terms.values())


# Parts that cancel exactly, sit just below or above PRUNE_TOL, are signed zeros or
# are not finite; keys from a small grid, so the forms share most of their keys.
_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3e-14, -3e-14, 9.9e-14, 1.1e-13,
                          5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan])
_COEFFS = st.builds(complex, _PARTS, _PARTS)
_KEYS = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 2))
_FORMS = st.dictionaries(_KEYS, _COEFFS, max_size=8).map(lambda terms: NormalForm(3, terms))


@settings(max_examples=400, deadline=None)
@given(first=_FORMS, rest=st.lists(st.tuples(st.booleans(), _FORMS), max_size=5))
def test_in_place_sums_match_chained_nf_add_and_nf_sub_bit_for_bit(first, rest):
    want = _reference_pruned(3, first.terms)
    terms = dict(want.terms)
    for subtract, y in rest:
        want = (_reference_sub if subtract else _reference_add)(want, y)
        accumulate(terms, y.terms, -1.0 + 0.0j if subtract else None)
        _same_bits(NormalForm(3, terms), want)


@settings(max_examples=400, deadline=None)
@given(x=_FORMS, y=_FORMS)
@example(x=NormalForm(3, {(0, 0, 0): 3e-14 + 0j, (1, 0, 0): 1 + 0j}),
         y=NormalForm(3, {(1, 0, 0): -1 + 0j, (0, 1, 2): 5e-324 + 0j}))
def test_public_sums_prune_an_unpruned_left_operand(x, y):
    _same_bits(nf_add(x, y), _reference_add(x, y))
    _same_bits(nf_sub(x, y), _reference_sub(x, y))


@pytest.mark.parametrize("text", ["a + ad - a + 1e-14", "[a^2, ad^3] + [ad, a^2] - 2 * N",
                                  "{a, ad} - {ad, a}", "[ad a, K] + P0 - P1", "[a, ad] - (1,0)"])
def test_sums_and_brackets_reduce_as_the_chained_arithmetic_does(params_l3, text):
    """normal_form's Sum, Commutator and Anticommutator against nf_mul and the chained sums."""
    def reference(e):
        match e:
            case ex.Sum(terms):
                acc = reference(terms[0])
                for t in terms[1:]:
                    acc = _reference_add(acc, reference(t))
                return acc
            case ex.Commutator(left, right) | ex.Anticommutator(left, right):
                lf, rf = reference(left), reference(right)
                combine = _reference_sub if isinstance(e, ex.Commutator) else _reference_add
                return combine(nf_mul(lf, rf, params_l3), nf_mul(rf, lf, params_l3))
            case ex.Product(factors):
                acc = reference(factors[0])
                for f in factors[1:]:
                    acc = nf_mul(acc, reference(f), params_l3)
                return acc
        return normal_form(e, params_l3)

    tree = parse(text)
    _same_bits(normal_form(tree, params_l3), reference(tree))


# ---------------------------------------------------------------------------
# the one-term product and the ordered-generator monomial against the general loop


def _reference_mul(x, y, params):
    """The general product loop of `_mul`: every term pair, then a prune of the whole dict."""
    lam, kappa = params.lam, params.kappa
    xs = [root_power(lam, j) for j in range(lam)]
    out = {}
    for (p1, q1, r1), c1 in x.terms.items():
        for (p2, q2, r2), c2 in y.terms.items():
            base = c1 * c2 * xs[r1 * (q2 - p2) % lam]
            for (pc, qc, rc), cc in normal_order._reorder_core(lam, kappa, q1, p2):
                key = (p1 + pc, qc + q2, (rc + r1 + r2) % lam)
                out[key] = out.get(key, 0.0) + base * cc * xs[rc * q2 % lam]
    return _reference_pruned(lam, out)


_PARAMS = {lam: validate_alpha(lam, (0.25,) + (0.0,) * (lam - 2) + (-0.25,)) for lam in range(2, 9)}
_GRADES = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
_GENERATOR_GRADES = {"ad": (1, 0, 0), "a": (0, 1, 0), "K": (0, 0, 1)}
_GENERATOR_FACTORS = st.tuples(st.sampled_from(sorted(_GENERATOR_GRADES)), st.integers(0, 6),
                               st.booleans())  # (kind, exponent, written as a bare atom)


@settings(max_examples=600, deadline=None)
@given(lam=st.integers(2, 8), x=_GRADES, y=_GRADES, c1=_COEFFS, c2=_COEFFS)
@example(lam=3, x=(0, 2, 1), y=(3, 0, 2), c1=complex(-0.0, -0.0), c2=complex(1.0, -0.0))
@example(lam=5, x=(1, 0, 4), y=(0, 6, 3), c1=complex(5e-324, 1e308), c2=complex(math.inf, 0.0))
def test_one_term_products_match_the_general_loop_bit_for_bit(lam, x, y, c1, c2):
    """One term times one term, ordered or reordered, keeps the loop's operations and prune.

    A finite coefficient too large for `abs` raises OverflowError from the
    prune; the branch must raise it where the loop does.
    """
    params = _PARAMS[lam]
    left = NormalForm(lam, {(x[0], x[1], x[2] % lam): c1})
    right = NormalForm(lam, {(y[0], y[1], y[2] % lam): c2})
    try:
        want = _reference_mul(left, right, params)
    except OverflowError:
        with pytest.raises(OverflowError):
            nf_mul(left, right, params)
        return
    _same_bits(nf_mul(left, right, params), want)


@settings(max_examples=400, deadline=None)
@given(lam=st.integers(2, 8), factors=st.lists(_GENERATOR_FACTORS, min_size=2, max_size=5))
def test_generator_products_match_the_chained_loop_bit_for_bit(lam, factors):
    """A product of generators and their powers, in normal order or not, is the chain of loops."""
    params = _PARAMS[lam]
    tree = ex.Product(tuple(ex.Atom(kind) if bare and n == 1 else ex.Power(ex.Atom(kind), n)
                            for kind, n, bare in factors))
    forms = [nf_monomial(lam, *(n * g for g in _GENERATOR_GRADES[kind])) for kind, n, _ in factors]
    want = forms[0]
    for form in forms[1:]:
        want = _reference_mul(want, form, params)
    _same_bits(normal_form(tree, params), want)
    ranks = [("ad", "a", "K").index(kind) for kind, _, _ in factors]
    if ranks == sorted(ranks):
        assert bits(want.terms.values()) == bits([1.0 + 0.0j])


# ---------------------------------------------------------------------------
# no operation changes the terms of a form it is given


def _snapshot(terms: dict):
    return list(terms), bits(terms.values())


def _keeps_its_inputs(fn, owned=0):
    """`fn` checked on every call: each form or dict it is given, past the first `owned`
    arguments, stays as it was, and none is the result's."""
    def checked(*args):
        given_in = [a.terms if isinstance(a, NormalForm) else a for a in args[owned:]
                    if isinstance(a, (NormalForm, dict))]
        before = [_snapshot(d) for d in given_in]
        out = fn(*args)
        assert [_snapshot(d) for d in given_in] == before
        if isinstance(out, NormalForm):
            assert all(out.terms is not d for d in given_in)
        return out

    return checked


_L3 = validate_alpha(3, (0.3, 0.2, -0.5))
_ATOMS = [ex.A, ex.AD, ex.KLEIN, ex.NUM, ex.ONE, ex.Proj(0), ex.Proj(2)]
_LEAVES = st.one_of(st.sampled_from(_ATOMS), _COEFFS.map(ex.Scalar))
_TREES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, min_size=2, max_size=3).map(lambda t: ex.Sum(tuple(t))),
    st.lists(inner, min_size=2, max_size=3).map(lambda f: ex.Product(tuple(f))),
    st.tuples(inner, st.integers(0, 5)).map(lambda b: ex.Power(*b)),
    st.tuples(inner, inner).map(lambda lr: ex.Commutator(*lr)),
    st.tuples(inner, inner).map(lambda lr: ex.Anticommutator(*lr)),
), max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(x=_FORMS, y=_FORMS, c=_COEFFS)
def test_sums_scales_and_products_leave_their_operands_unchanged(x, y, c):
    """`_pruned` owns the dict it is given; no public operation hands it an operand's terms."""
    want_x, want_y = _snapshot(x.terms), _snapshot(y.terms)
    for op in (nf_add, nf_sub, lambda x, y: nf_scale(x, c), lambda x, y: nf_mul(x, y, _L3),
               lambda x, y: nf_mul(y, x, _L3)):
        try:
            got = op(x, y)
        except OverflowError:  # a finite coefficient too large for `abs`
            got = None
        assert _snapshot(x.terms) == want_x and _snapshot(y.terms) == want_y
        assert got is None or (got.terms is not x.terms and got.terms is not y.terms)


@settings(max_examples=200, deadline=None)
@given(tree=_TREES)
def test_normal_form_leaves_the_forms_it_combines_unchanged(tree):
    with mock.patch.object(normal_order, "_mul", _keeps_its_inputs(normal_order._mul)), \
         mock.patch.object(normal_order, "accumulate", _keeps_its_inputs(accumulate, owned=1)):
        try:
            got = normal_form(tree, _L3)
        except NotFinite:  # a finite coefficient too large for `abs`
            return
    _same_bits(normal_form(tree, _L3), got)


def test_a_modulus_past_dbl_max_is_not_finite():
    """A finite coefficient too large for the prune's `abs`, at the top or inside a product,
    raises NotFinite from `normal_form` (`nf_mul` keeps its OverflowError)."""
    for text in ("(1.5e308,1.5e308)", "1.4 (1e308,1e308) a"):
        with pytest.raises(NotFinite, match="^a coefficient's modulus overflows: absolute value"):
            normal_form(parse(text), _L3)
