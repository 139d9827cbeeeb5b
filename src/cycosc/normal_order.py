"""Normal ordering of operator words and the reordering coefficient tower.

Every element of the algebra has a unique expansion over the monomial basis

    (a+)^p a^q K^r        p, q >= 0,   0 <= r < lam,

obtained by exhaustive application of the rewrite rules

    a a+   -> a+ a + 1 + sum_r kappa_r K^r
    K a+   -> exp(+2i pi/lam) a+ K
    K a    -> exp(-2i pi/lam) a  K
    K^lam  -> 1
    N      -> a+ a - sum_mu beta_mu P_mu
    P_mu   -> (1/lam) sum_nu x^{mu nu} K^nu          (x = exp(-2i pi/lam))

Each creation/annihilation swap strictly reduces the number of inversions and
each Klein move strictly reduces the K position sum, so the rewriting
terminates; here it is realized as a structurally recursive evaluation with a
memoized core for a^q (a+)^p.

Coefficient polynomials in K that sit to the LEFT of a monomial (the layout
used by the printed reordering identities) differ from the canonical
K-rightmost layout by the phase x^{r(q-p)} per K^r; helpers below convert
between the two conventions.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import expr as ex
from .errors import BadRange, FormulaGap, LambdaMismatch, UnknownSymbol
from .fock import Banded, FockRep
from .params import AlgebraParams, root_power, root_table

PRUNE_TOL = 1e-13
_NEG_ZERO = complex(-0.0, -0.0)  # the one complex x with x + y == y bit for bit


@dataclass(frozen=True)
class NormalForm:
    """Canonical expansion: map (p, q, r) -> complex coefficient."""

    lam: int
    terms: dict

    def sorted_terms(self):
        return sorted(self.terms.items())

    def creation_weight(self) -> int:
        return max((p for (p, _, _) in self.terms), default=0)

    def coefficient(self, p: int, q: int, r: int) -> complex:
        return self.terms.get((p, q, r), 0.0 + 0.0j)

    def support(self):
        """Set of (p, q) grades carrying a nonzero coefficient."""
        return {(p, q) for (p, q, _) in self.terms}


def _pruned(lam: int, terms: dict) -> NormalForm:
    """Drop the terms below PRUNE_TOL; a NaN coefficient is kept, so callers can refuse it."""
    return NormalForm(lam, {k: v for k, v in terms.items() if not abs(v) < PRUNE_TOL})


def nf_zero(lam: int) -> NormalForm:
    return NormalForm(lam, {})


def nf_monomial(lam: int, p: int, q: int, r: int, coeff=1.0) -> NormalForm:
    return NormalForm(lam, {(p, q, r % lam): complex(coeff)})


def nf_add(x: NormalForm, y: NormalForm) -> NormalForm:
    if x.lam != y.lam:
        raise LambdaMismatch(f"cannot add forms over orders {x.lam} and {y.lam}")
    terms = dict(x.terms)
    for key, c in y.terms.items():
        terms[key] = terms.get(key, 0.0) + c
    return _pruned(x.lam, terms)


def nf_scale(x: NormalForm, c) -> NormalForm:
    c = complex(c)
    return _pruned(x.lam, {k: v * c for k, v in x.terms.items()})


def nf_sub(x: NormalForm, y: NormalForm) -> NormalForm:
    return nf_add(x, nf_scale(y, -1.0))


@lru_cache(maxsize=1024)
def _a_times_adpow(lam: int, kappa: tuple, p: int) -> tuple:
    """Normal form of a (a+)^p as a tuple of ((p,q,r), coeff)."""
    if p == 0:
        return (((0, 1, 0), 1.0 + 0.0j),)
    terms = {}
    for (pp, qq, rr), c in _a_times_adpow(lam, kappa, p - 1):
        key = (pp + 1, qq, rr)
        terms[key] = terms.get(key, 0.0) + c
    # bracket remainder: (a+)^{p-1} (1 + sum_r kappa_r x^{-r(p-1)} K^r)
    terms[(p - 1, 0, 0)] = terms.get((p - 1, 0, 0), 0.0) + 1.0
    for r in range(1, lam):
        key = (p - 1, 0, r)
        terms[key] = terms.get(key, 0.0) + kappa[r - 1] * root_power(lam, -r * (p - 1))
    return tuple(sorted(terms.items()))


@lru_cache(maxsize=1024)
def _reorder_core(lam: int, kappa: tuple, q: int, p: int) -> tuple:
    """Normal form of a^q (a+)^p as a tuple of ((p,q,r), coeff)."""
    if q == 0:
        return (((p, 0, 0), 1.0 + 0.0j),)
    terms = {}
    for (pp, qq, rr), c in _reorder_core(lam, kappa, q - 1, p):
        for (p2, q2, r2), c2 in _a_times_adpow(lam, kappa, pp):
            # K^{r2} crosses a^{qq}: phase x^{r2 qq}
            key = (p2, q2 + qq, (r2 + rr) % lam)
            terms[key] = terms.get(key, 0.0) + c * c2 * root_power(lam, r2 * qq)
    return tuple(sorted(terms.items()))


def nf_mul(x: NormalForm, y: NormalForm, params: AlgebraParams) -> NormalForm:
    """Product of normal forms, re-normalized through the rewrite rules."""
    if x.lam != y.lam or x.lam != params.lam:
        raise LambdaMismatch(
            f"orders disagree: {x.lam}, {y.lam}, params {params.lam}"
        )
    return _mul(x, y, params.lam, params.kappa)


def _mul(x: NormalForm, y: NormalForm, lam: int, kappa: tuple | None) -> NormalForm:
    """`nf_mul` over (lam, kappa) without the order check; kappa None where none is read."""
    xs = root_table(lam)
    out = {}
    for (p1, q1, r1), c1 in x.terms.items():
        for (p2, q2, r2), c2 in y.terms.items():
            # K^{r1} crosses (a+)^{p2} a^{q2}: phase x^{r1 (q2 - p2)}
            base = c1 * c2 * xs[r1 * (q2 - p2) % lam]
            for (pc, qc, rc), cc in _reorder_core(lam, kappa, q1, p2):
                # K^{rc} crosses a^{q2}: phase x^{rc q2}
                key = (p1 + pc, qc + q2, (rc + r1 + r2) % lam)
                out[key] = out.get(key, 0.0) + base * cc * xs[rc * q2 % lam]
    return _pruned(lam, out)


def nf_power(x: NormalForm, n: int, params: AlgebraParams) -> NormalForm:
    acc = nf_monomial(params.lam, 0, 0, 0)
    for _ in range(n):
        acc = nf_mul(acc, x, params)
    return acc


_GENERATORS = {"a": (0, 1, 0), "ad": (1, 0, 0), "K": (0, 0, 1)}  # kind -> (p, q, r)


@lru_cache(maxsize=1024)
def _generator_power(lam: int, kind: str, n: int) -> tuple:
    """Terms of a, a+ or K to the n-th power, multiplied out as `nf_power` does.

    A power of one generator never moves an a past an a+, so none of its
    products reads kappa: they run with kappa None, where a read would raise,
    and one entry serves every parameter set of order lam.
    """
    x = nf_monomial(lam, *_GENERATORS[kind])
    acc = nf_monomial(lam, 0, 0, 0)
    for _ in range(n):
        acc = _mul(acc, x, lam, None)
    return tuple(acc.terms.items())


def nf_adjoint(x: NormalForm, params: AlgebraParams) -> NormalForm:
    """Formal adjoint: conjugate coefficients, swap p<->q, invert K."""
    lam = params.lam
    out = {}
    for (p, q, r), c in x.terms.items():
        rr = (-r) % lam
        phase = root_power(lam, rr * (p - q))
        key = (q, p, rr)
        out[key] = out.get(key, 0.0) + c.conjugate() * phase
    return _pruned(lam, out)


def nf_to_matrix(x: NormalForm, rep: FockRep) -> Banded:
    """Reconstruct the matrix sum_{p,q,r} c (a+)^p a^q K^r, term by sorted term.

    Each monomial is the single diagonal p - q, row r of its grade's table
    (absent when it leaves the truncation).  The terms on one diagonal are
    scaled in one product, coefficient on the left as in `c * vec` (numpy's
    SIMD complex multiply rounds differently with its operands swapped), and
    summed in sorted order by one axis-0 sum, which numpy takes row after row
    over a C-contiguous stack.  The sum starts from -0 - 0j, which leaves the
    first row's bits unchanged (signed zeros too).
    """
    groups = {}
    for (p, q, r), c in sorted(x.terms.items()):
        table = rep.grade_table(p, q)
        if table is not None:
            coeffs, rows = groups.setdefault(p - q, ([], []))
            coeffs.append(c)
            rows.append(table[r])
    bands = {}
    for offset, (coeffs, rows) in groups.items():
        if len(rows) == 1:
            bands[offset] = coeffs[0] * rows[0]
        else:
            scaled = np.array(coeffs)[:, None] * np.array(rows)
            bands[offset] = scaled.sum(axis=0, initial=_NEG_ZERO)
    return Banded(rep.dim, bands)


def _projector_form(params: AlgebraParams, mu: int) -> NormalForm:
    lam = params.lam
    terms = {}
    for nu in range(lam):
        terms[(0, 0, nu)] = root_power(lam, mu * nu) / lam
    return _pruned(lam, terms)


def _number_form(params: AlgebraParams) -> NormalForm:
    lam = params.lam
    terms = {(1, 1, 0): 1.0 + 0.0j}
    for nu in range(lam):
        acc = 0.0 + 0.0j
        for mu in range(lam):
            acc -= params.beta[mu] * root_power(lam, mu * nu) / lam
        key = (0, 0, nu)
        terms[key] = terms.get(key, 0.0) + acc
    return _pruned(lam, terms)


def normal_form(e: ex.OperatorExpr, params: AlgebraParams) -> NormalForm:
    """Canonical expansion of an expression tree (total on valid input)."""
    lam = params.lam
    match e:
        case ex.Atom(kind) if kind in _GENERATORS:
            return nf_monomial(lam, *_GENERATORS[kind])
        case ex.Atom("I"):
            return nf_monomial(lam, 0, 0, 0)
        case ex.Atom("N"):
            return _number_form(params)
        case ex.Atom(kind):
            raise UnknownSymbol(f"unknown atom {kind!r}")
        case ex.Proj(mu):
            if not (0 <= mu < lam):
                raise UnknownSymbol(f"P{mu} undefined for cyclic order {lam}")
            return _projector_form(params, mu)
        case ex.Scalar(value):
            return nf_monomial(lam, 0, 0, 0, value)
        case ex.Sum(terms):
            acc = normal_form(terms[0], params)
            for t in terms[1:]:
                acc = nf_add(acc, normal_form(t, params))
            return acc
        case ex.Product(factors):
            acc = normal_form(factors[0], params)
            for f in factors[1:]:
                acc = nf_mul(acc, normal_form(f, params), params)
            return acc
        case ex.Power(ex.Atom(kind), exponent) if kind in _GENERATORS:
            # a fresh dict: callers may edit a form's terms
            return NormalForm(lam, dict(_generator_power(lam, kind, exponent)))
        case ex.Power(base, exponent):
            return nf_power(normal_form(base, params), exponent, params)
        case ex.Commutator(left, right):
            lf = normal_form(left, params)
            rf = normal_form(right, params)
            return nf_sub(nf_mul(lf, rf, params), nf_mul(rf, lf, params))
        case ex.Anticommutator(left, right):
            lf = normal_form(left, params)
            rf = normal_form(right, params)
            return nf_add(nf_mul(lf, rf, params), nf_mul(rf, lf, params))
    raise UnknownSymbol(f"cannot expand {e!r}")


# ---------------------------------------------------------------------------
# left-positioned K-polynomial helpers


def kpoly_left_mul(poly, p: int, q: int, lam: int) -> NormalForm:
    """Normal form of (sum_r poly[r] K^r) (a+)^p a^q with the poly on the left."""
    return kpoly_left_sum([(poly, p, q)], lam)


def kpoly_left_sum(rows, lam: int) -> NormalForm:
    """Sum of `kpoly_left_mul(poly, p, q, lam)` over rows (poly, p, q) of distinct grades (p, q).

    Distinct grades share no term, so the rows fill one dict; chaining
    `nf_add` would copy and prune the growing sum once per row.
    """
    xs = root_table(lam)
    terms = {}
    for poly, p, q in rows:
        for r, c in enumerate(np.asarray(poly).tolist()):
            if abs(c) < PRUNE_TOL:
                continue
            term = complex(c) * xs[r * (q - p) % lam]
            if not abs(term) < PRUNE_TOL:  # keeps NaN, as _pruned does
                terms[(p, q, r % lam)] = term
    return NormalForm(lam, terms)


def kpoly_mul(x, y, scale=1.0) -> np.ndarray:
    """Product of two K-polynomial vectors modulo K^lam = 1, times `scale`.

    The scalar multiplies each pair product before it is summed, which keeps
    the rounding of a right side printed as a sum of such triple products.
    """
    lam = len(x)
    out = [0j] * lam
    ys = list(enumerate(np.asarray(y).tolist()))
    for r1, c1 in enumerate(np.asarray(x).tolist()):
        if c1 == 0:
            continue
        for r2, c2 in ys:
            if c2 == 0:
                continue
            out[(r1 + r2) % lam] += c1 * c2 * scale
    return np.array(out, dtype=complex)


def left_read(nf: NormalForm, p: int, q: int) -> np.ndarray:
    """Left-positioned K-polynomial multiplying (a+)^p a^q inside `nf`."""
    lam = nf.lam
    xs = root_table(lam)
    return np.array(
        [nf.coefficient(p, q, r) * xs[r * (p - q) % lam] for r in range(lam)], dtype=complex
    )


# ---------------------------------------------------------------------------
# reordering tower


@lru_cache(maxsize=1024)
def geometric_f(r: int, m: int, lam: int, sign: int = 1) -> complex:
    """Root-of-unity sum sum_{p=0}^{m-1} exp(sign * (-2i pi r p / lam)), memoized.

    The sign parameter lets verification code probe both phase conventions.
    """
    acc = 0.0 + 0.0j
    for p in range(m):
        acc += cmath.exp(sign * (-2j * cmath.pi * r * p / lam))
    return acc


@dataclass(frozen=True)
class BetaTower:
    """Reordering coefficients of a^n (a+)^{m-1}.

    coeffs[l] is the K-polynomial (length lam, left-positioned) multiplying
    (a+)^{m-1-l} a^{n-l}; coeffs[0] is exactly 1.
    """

    n: int
    m: int
    coeffs: tuple  # tuple of length-lam complex ndarrays


def beta_tower_raw(n: int, m: int, params: AlgebraParams) -> BetaTower:
    """Tower for a^n (a+)^{m-1} without range restrictions (n >= 0, m >= 1)."""
    lam = params.lam
    nf = NormalForm(lam, dict(_reorder_core(lam, params.kappa, n, m - 1)))
    expected = {(m - 1 - l, n - l) for l in range(min(n, m - 1) + 1)}
    extra = nf.support() - expected
    if extra:
        raise BadRange(f"unexpected monomial grades {sorted(extra)} in tower")
    coeffs = []
    for l in range(n + 1):
        p, q = m - 1 - l, n - l
        if p < 0 or q < 0:
            coeffs.append(np.zeros(lam, dtype=complex))
        else:
            coeffs.append(left_read(nf, p, q))
    return BetaTower(n=n, m=m, coeffs=tuple(coeffs))


def beta_oracle(n: int, m: int, params: AlgebraParams) -> BetaTower:
    """Tower coefficients read off the rewrite engine; the trusted source."""
    if not (1 <= n <= m - 1):
        raise BadRange(f"tower needs 1 <= n <= m-1, got n={n}, m={m}")
    return beta_tower_raw(n, m, params)


# ---- literal closed-form candidates -----------------------------------------
#
# The printed tower formulas are reproduced verbatim below and are treated as
# candidates to verify, not as ground truth.  All empty sums are zero and all
# empty products are one.  `subst` implements the bracketed-power notation:
# every explicit x^j inside a beta formula becomes x^{j*subst}.


class _KPoly:
    """Tiny helper ring: polynomials in K modulo K^lam = 1."""

    __slots__ = ("lam", "vec")

    def __init__(self, lam, vec=None):
        self.lam = lam
        self.vec = np.zeros(lam, dtype=complex) if vec is None else vec

    @classmethod
    def scalar(cls, lam, c):
        out = cls(lam)
        out.vec[0] = c
        return out

    def __add__(self, other):
        return _KPoly(self.lam, self.vec + other.vec)

    def __mul__(self, other):
        if isinstance(other, _KPoly):
            return _KPoly(self.lam, kpoly_mul(self.vec, other.vec))
        return _KPoly(self.lam, self.vec * other)

    __rmul__ = __mul__


def f_coefficient(r: int, m: int, lam: int, variant: str) -> complex:
    """Candidate coefficient functions f_r for the single-mode identity.

    variant: 'paper' pins f_1 = 1 and uses the geometric sum for r >= 2;
    'geometric' uses the sum for every r; 'conjugate' flips the phase sign.
    """
    if variant == "paper":
        return 1.0 + 0.0j if r == 1 else geometric_f(r, m, lam, 1)
    if variant == "geometric":
        return geometric_f(r, m, lam, 1)
    if variant == "conjugate":
        return geometric_f(r, m, lam, -1)
    raise ValueError(f"unknown f variant {variant!r}")


def f_kpoly(params: AlgebraParams, m: int, variant: str) -> _KPoly:
    """F = sum_r f_r kappa_r K^r as a K-polynomial with a fresh vector of its own."""
    return _KPoly(params.lam, _f_vec(params, m, variant).copy())


@lru_cache(maxsize=256)
def _f_vec(params: AlgebraParams, m: int, variant: str) -> np.ndarray:
    """The read-only coefficient vector of `f_kpoly`, built once per argument."""
    vec = np.zeros(params.lam, dtype=complex)
    for r in range(1, params.lam):
        vec[r] = f_coefficient(r, m, params.lam, variant) * params.kappa[r - 1]
    vec.setflags(write=False)
    return vec


def beta_closed_form(
    n: int,
    m: int,
    l: int,
    params: AlgebraParams,
    subst: int = 1,
) -> np.ndarray:
    """Literal evaluation of the printed tower coefficient beta_l.

    Returns the left-positioned K-polynomial as a length-lam vector.  The
    printed cases, read as formulas in general n with empty ranges collapsing
    to ring identities, cover every 0 <= l <= n; a fresh combination falling
    outside them raises FormulaGap.  Raises BadRange for l outside [0, n].
    """
    if not (0 <= l <= n):
        raise BadRange(f"need 0 <= l <= n, got l={l}, n={n}")
    lam = params.lam
    F = f_kpoly(params, m, "paper")

    def xs(j: int) -> complex:
        return root_power(lam, j * subst)

    def sc(c) -> _KPoly:
        return _KPoly.scalar(lam, complex(c))

    def factor(i: int, e: int) -> _KPoly:
        # one bracket ((m - i) + F x^e)
        return sc(m - i) + xs(e) * F

    def fprod(pairs) -> _KPoly:
        acc = sc(1.0)
        for i, e in pairs:
            acc = acc * factor(i, e)
        return acc

    def fsum(j0: int, j1: int) -> _KPoly:
        acc = _KPoly(lam)
        for j in range(j0, j1 + 1):
            acc = acc + xs(j) * F
        return acc

    if l == 0:
        poly = sc(1.0)
    elif l == 1:
        poly = sc(n * (m - 1)) + fsum(0, n - 1)
    elif l == 2:
        poly = fprod((i, n - i) for i in range(1, 3))
        for mu in range(2, n):
            poly = poly + (sc(mu * (m - 1)) + fsum(n - mu, n - 1)) * factor(2, n - mu - 1)
    elif l == 3:
        poly = fprod((i, n - i) for i in range(1, 4))
        poly = poly + fprod((i, n - i) for i in range(1, 3)) * (
            sc((n - 3) * (m - 3)) + fsum(0, n - 4)
        )
        for mu in range(2, n - 1):
            poly = poly + (
                (sc(mu * (m - 1)) + fsum(n - mu, n - 1))
                * factor(2, n - mu - 1)
                * (sc((n - mu - 1) * (m - 3)) + fsum(0, n - mu - 2))
            )
    elif l == n:
        poly = fprod((i, n - i) for i in range(1, n + 1))
    elif l == n - 1:
        poly = fprod((i, n - i) for i in range(1, n))
        for mu in range(2, n - 1):
            poly = poly + fprod((i, n - i) for i in range(1, n - mu + 1)) * fprod(
                (i, mu - i - 1) for i in range(n - mu + 1, n)
            )
        poly = poly + (sc(2 * (m - 1)) + fsum(n - 2, n - 1)) * fprod(
            (i, n - i - 1) for i in range(2, n)
        )
    elif 2 <= n - l <= n - 4:
        k = n - l
        poly = fprod((i, n - i) for i in range(1, n - k + 1))
        poly = poly + fprod((i, n - i) for i in range(1, n - k)) * (
            sc(k * (m - (n - k))) + fsum(0, k - 1)
        )
        for alpha in range(k + 2, n - 1):
            inner = fprod((i, n - i - 1) for i in range(n - alpha + 1, n - k + 1))
            for mu in range(n - alpha + 1, n - k):
                inner = inner + fprod(
                    (i, n - i - 1) for i in range(n - alpha - 1, n - mu + 1)
                ) * fprod((i, mu - i - 2) for i in range(n - mu + 1, n - k + 1))
            for ll in range(2, k + 1):
                inner = inner + (
                    sc(ll * (m - (n - alpha + 1))) + fsum(alpha - ll - 1, n - 4)
                ) * fprod((i, n - i - ll) for i in range(n - alpha + 2, n - ll + 1))
            poly = poly + fprod((i, n - i) for i in range(1, n - alpha + 1)) * inner
        for ll in range(2, k + 1):
            inner = fprod((i, n - i - 1) for i in range(2, n - k + 1))
            for mu in range(k + 1, n - 3):
                inner = inner + fprod(
                    (i, n - i - 1) for i in range(2, n - mu + 1)
                ) * fprod((i, mu - i - 2) for i in range(n - mu + 1, n - k - 1))
            inner = inner + (
                factor(2, n - 3)
                * (sc((k + 2 - ll) * (m - 3)) + fsum(n - 5, n - 4))
                * fprod((i, n - i - k) for i in range(n - k - 1, n - k + 1))
            )
            poly = poly + (sc(ll * (m - 1)) + fsum(n - 2, n - 1)) * inner
        poly = poly + (sc((k + 1) * (m - 1)) + fsum(2, n - 1)) * fprod(
            (i, n - i - 2) for i in range(2, n - 1)
        )
    else:
        raise FormulaGap(f"no printed case covers l={l} at n={n}")
    return poly.vec.copy()
