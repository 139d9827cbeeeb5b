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
from functools import lru_cache
from itertools import repeat
from operator import add, mul

from . import expr as ex
from .errors import BadRange, LambdaMismatch, NotFinite, UnknownSymbol
from .fock import Banded, FockRep
from .params import AlgebraParams, root_power, root_table
from .record import Record

PRUNE_TOL = 1e-13
_UNIT = 1.0 + 0.0j  # the coefficient of an ordered reordering core


class NormalForm(Record):
    """Canonical expansion: map (p, q, r) -> complex coefficient."""

    __slots__ = __match_args__ = ("lam", "terms")

    def __init__(self, lam: int, terms: dict):
        self.lam = lam
        self.terms = terms

    def sorted_terms(self):
        return sorted(self.terms.items())

    def coefficient(self, p: int, q: int, r: int) -> complex:
        return self.terms.get((p, q, r), 0.0 + 0.0j)

    def support(self):
        """Set of (p, q) grades carrying a nonzero coefficient."""
        return {(p, q) for (p, q, _) in self.terms}


def _pruned(lam: int, terms: dict) -> NormalForm:
    """The form of `terms` without its terms below PRUNE_TOL; a non-finite coefficient is kept.

    Takes ownership of `terms`: the small keys are deleted in place and the
    dict becomes the form's, so every caller passes a dict of its own.
    Finiteness is tested before `abs`: CPython's complex abs of a NaN leaves
    `errno` as an earlier C call set it, and may raise OverflowError from it.
    """
    small = [k for k, v in terms.items() if cmath.isfinite(v) and abs(v) < PRUNE_TOL]
    for k in small:
        del terms[k]
    return NormalForm(lam, terms)


def nf_monomial(lam: int, p: int, q: int, r: int, coeff=1.0) -> NormalForm:
    return NormalForm(lam, {(p, q, r % lam): complex(coeff)})


def accumulate(terms: dict, other: dict, scale=None) -> None:
    """terms += scale * other, in place, over the keys of `other` alone.

    A scaled term below PRUNE_TOL is skipped, as `nf_scale` prunes it; a
    sum below PRUNE_TOL drops its key, as `_pruned` does.  Without `scale`
    the terms of `other` are added as they are.  With `terms` pruned, the
    result has the bits, and the key order, of `nf_add`/`nf_sub` chained.
    """
    for key, c in other.items():
        if scale is not None:
            c = c * scale
            if cmath.isfinite(c) and abs(c) < PRUNE_TOL:
                continue
        c = terms.get(key, 0.0) + c
        if cmath.isfinite(c) and abs(c) < PRUNE_TOL:
            terms.pop(key, None)
        else:
            terms[key] = c


def nf_add(x: NormalForm, y: NormalForm) -> NormalForm:
    return _combined(x, y, None)


def nf_scale(x: NormalForm, c) -> NormalForm:
    c = complex(c)
    return _pruned(x.lam, {k: v * c for k, v in x.terms.items()})


def nf_sub(x: NormalForm, y: NormalForm) -> NormalForm:
    return _combined(x, y, -1.0 + 0.0j)


def _combined(x: NormalForm, y: NormalForm, scale) -> NormalForm:
    """x + scale * y; the closing prune drops the terms below PRUNE_TOL of an unpruned x too."""
    if x.lam != y.lam:
        raise LambdaMismatch(f"cannot add forms over orders {x.lam} and {y.lam}")
    terms = dict(x.terms)
    accumulate(terms, y.terms, scale)
    return _pruned(x.lam, terms)


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
    if q == 0 or p == 0:  # ordered already: recursing q levels deep gives the same 1.0 + 0.0j
        return (((p, q, 0), _UNIT),)
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


def _mul(x: NormalForm, y: NormalForm, lam: int, kappa: tuple) -> NormalForm:
    """`nf_mul` over (lam, kappa) without the order check.

    Each reordering core a^q1 (a+)^p2 is fetched from its cache once per
    product, however many term pairs share it.  One term times one term
    fetches no core when q1 or p2 is 0: that core is the single term
    (p2, q1, 0) with coefficient 1, applied below with the loop's operations.
    """
    xs = root_table(lam)
    if len(x.terms) == 1 and len(y.terms) == 1:
        [((p1, q1, r1), c1)] = x.terms.items()
        [((p2, q2, r2), c2)] = y.terms.items()
        base = c1 * c2 * xs[r1 * (q2 - p2) % lam]
        if q1 and p2:
            out = {}
            for (pc, qc, rc), cc in _reorder_core(lam, kappa, q1, p2):
                key = (p1 + pc, qc + q2, (rc + r1 + r2) % lam)
                out[key] = out.get(key, 0.0) + base * cc * xs[rc * q2 % lam]
            return _pruned(lam, out)
        c = 0.0 + base * _UNIT * xs[0]
        if cmath.isfinite(c) and abs(c) < PRUNE_TOL:
            return NormalForm(lam, {})
        return NormalForm(lam, {(p1 + p2, q1 + q2, (r1 + r2) % lam): c})
    ys = y.terms.items()
    cores = {}
    out = {}
    for (p1, q1, r1), c1 in x.terms.items():
        for (p2, q2, r2), c2 in ys:
            core = cores.get((q1, p2))
            if core is None:
                core = cores[q1, p2] = _reorder_core(lam, kappa, q1, p2)
            # K^{r1} crosses (a+)^{p2} a^{q2}: phase x^{r1 (q2 - p2)}
            base = c1 * c2 * xs[r1 * (q2 - p2) % lam]
            for (pc, qc, rc), cc in core:
                # K^{rc} crosses a^{q2}: phase x^{rc q2}
                key = (p1 + pc, qc + q2, (rc + r1 + r2) % lam)
                out[key] = out.get(key, 0.0) + base * cc * xs[rc * q2 % lam]
    return _pruned(lam, out)


def nf_power(x: NormalForm, n: int, params: AlgebraParams) -> NormalForm:
    """x^n for n >= 0.

    A single term c a^q K^r or c (a+)^p K^r stays a single term in every
    power, so from n = 4 on it is squared from the lowest bit of n up, in
    `Banded.power`'s order, and its power costs O(log n) products.  Any other
    x, and every n <= 3, is multiplied onto the identity one factor at a
    time: the power of such an x grows with n, and multiplying it by the
    small x costs far less than squaring it; its first power that is not
    finite raises NotFinite.
    """
    acc = nf_monomial(params.lam, 0, 0, 0)
    one_sided = len(x.terms) <= 1 and not any(p and q for p, q, _ in x.terms)
    if n <= 3 or not one_sided:
        for k in range(1, n + 1):
            acc = nf_mul(acc, x, params)
            if not all(map(cmath.isfinite, acc.terms.values())):
                raise NotFinite(f"power {k} has a non-finite coefficient")
        return acc
    z = result = None
    while n > 0:  # bits from the lowest up, squaring z at each
        z = x if z is None else nf_mul(z, z, params)
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else nf_mul(result, z, params)
    return result


_GENERATORS = {"a": (0, 1, 0), "ad": (1, 0, 0), "K": (0, 0, 1)}  # kind -> (p, q, r)
_ORDER_RANK = {"ad": 0, "a": 1, "K": 2}  # the generators' places in a normal-ordered word


def nf_to_matrix(x: NormalForm, rep: FockRep) -> Banded:
    """Reconstruct the matrix sum_{p,q,r} c (a+)^p a^q K^r, term by sorted term.

    Each monomial is the single diagonal p - q, row r of its grade's table
    (absent when it leaves the truncation), scaled as `c * entry`; the terms
    on one diagonal are summed in sorted order.
    """
    bands = {}
    for (p, q, r), c in sorted(x.terms.items()):
        table = rep.grade_table(p, q)
        if table is None:
            continue
        scaled = map(mul, repeat(c), table[r])
        acc = bands.get(p - q)
        bands[p - q] = tuple(scaled) if acc is None else tuple(map(add, acc, scaled))
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


def _ordered_monomial(factors) -> tuple | None:
    """(p, q, r) of a product of generators and their powers in normal order, else None.

    Normal order is every a+ factor, then every a, then every K.  Multiplying
    such a chain moves no a past an a+ and no K past either, so each product
    in it has coefficient exactly 1 and the chain is one monomial.
    """
    p = q = r = rank = 0
    for f in factors:
        kind = type(f)
        if kind is ex.Atom:
            name, n = f.kind, 1
        elif kind is ex.Power and type(f.base) is ex.Atom:
            name, n = f.base.kind, f.exponent
        else:
            return None
        step = _ORDER_RANK.get(name)
        if step is None or step < rank:
            return None
        rank = step
        gp, gq, gr = _GENERATORS[name]
        p, q, r = p + n * gp, q + n * gq, r + n * gr
    return p, q, r


def normal_form(e: ex.OperatorExpr, params: AlgebraParams) -> NormalForm:
    """Canonical expansion of an expression tree (total on valid input).

    A finite coefficient whose modulus passes DBL_MAX, which the prune's
    `abs` cannot take, and a power multiplied factor by factor past its
    first non-finite power raise NotFinite; any other non-finite one is kept.
    """
    try:
        return _expand(e, params)
    except OverflowError as err:
        raise NotFinite(f"a coefficient's modulus overflows: {err}") from err


def _expand(e: ex.OperatorExpr, params: AlgebraParams) -> NormalForm:
    """`normal_form` of `e`, dispatched on the exact node type, products first."""
    lam = params.lam
    kind = type(e)
    if kind is ex.Product:
        factors = e.factors
        ordered = _ordered_monomial(factors)
        if ordered is not None:
            return nf_monomial(lam, *ordered)
        acc = _expand(factors[0], params)
        for f in factors[1:]:
            acc = _mul(acc, _expand(f, params), lam, params.kappa)
        return acc
    if kind is ex.Atom:
        name = e.kind
        if name in _GENERATORS:
            return nf_monomial(lam, *_GENERATORS[name])
        if name == "I":
            return nf_monomial(lam, 0, 0, 0)
        if name == "N":
            return _number_form(params)
        raise UnknownSymbol(f"unknown atom {name!r}")
    if kind is ex.Power:
        ordered = _ordered_monomial((e,))  # a power of one generator
        if ordered is not None:
            return nf_monomial(lam, *ordered)
        return nf_power(_expand(e.base, params), e.exponent, params)
    if kind is ex.Scalar:
        return _pruned(lam, {(0, 0, 0): complex(e.value)})
    if kind is ex.Sum:
        terms = e.terms
        acc = dict(_expand(terms[0], params).terms)
        for t in terms[1:]:
            accumulate(acc, _expand(t, params).terms)
        return NormalForm(lam, acc)
    if kind is ex.Commutator or kind is ex.Anticommutator:
        # LR - RL or LR + RL, summed into the fresh dict of LR
        lf = _expand(e.left, params)
        rf = _expand(e.right, params)
        out = _mul(lf, rf, lam, params.kappa).terms
        scale = -1.0 + 0.0j if kind is ex.Commutator else None
        accumulate(out, _mul(rf, lf, lam, params.kappa).terms, scale)
        return NormalForm(lam, out)
    if kind is ex.Proj:
        mu = e.mu
        if not (0 <= mu < lam):
            raise UnknownSymbol(f"P{mu} undefined for cyclic order {lam}")
        return _projector_form(params, mu)
    raise UnknownSymbol(f"cannot expand {e!r}")


# ---------------------------------------------------------------------------
# left-positioned K-polynomial helpers


def kpoly_left_sum(rows, lam: int) -> NormalForm:
    """Normal form of the sum of (sum_r poly[r] K^r) (a+)^p a^q over rows (poly, p, q).

    Each poly sits on the left of its monomial.  The rows have distinct
    grades (p, q), which share no term, so they fill one dict; chaining
    `nf_add` would copy and prune the growing sum once per row.
    """
    xs = root_table(lam)
    terms = {}
    for poly, p, q in rows:
        for r, c in enumerate(poly):
            if cmath.isfinite(c) and abs(c) < PRUNE_TOL:
                continue
            term = complex(c) * xs[r * (q - p) % lam]
            if not (cmath.isfinite(term) and abs(term) < PRUNE_TOL):  # as _pruned tests
                terms[(p, q, r % lam)] = term
    return NormalForm(lam, terms)


def kpoly_mul(x, y, scale=1.0) -> tuple:
    """Product of two K-polynomials modulo K^lam = 1, times `scale`.

    The scalar multiplies each pair product before it is summed, which keeps
    the rounding of a right side printed as a sum of such triple products.
    """
    lam = len(x)
    out = [0j] * lam
    for r1, c1 in enumerate(x):
        if c1 == 0:
            continue
        for r2, c2 in enumerate(y):
            if c2 == 0:
                continue
            out[(r1 + r2) % lam] += c1 * c2 * scale
    return tuple(out)


def left_read(nf: NormalForm, p: int, q: int) -> tuple:
    """Left-positioned K-polynomial multiplying (a+)^p a^q inside `nf`."""
    lam = nf.lam
    xs = root_table(lam)
    return tuple(nf.coefficient(p, q, r) * xs[r * (p - q) % lam] for r in range(lam))


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


def beta_tower_raw(n: int, m: int, params: AlgebraParams) -> tuple:
    """Reordering coefficients of a^n (a+)^{m-1} (n >= 0, m >= 1), read off the rewrite engine.

    Item l of the tuple is the K-polynomial (lam complex numbers,
    left-positioned) multiplying (a+)^{m-1-l} a^{n-l}, zero where that
    monomial does not exist; item 0 is exactly 1.
    """
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
            coeffs.append((0j,) * lam)
        else:
            coeffs.append(left_read(nf, p, q))
    return tuple(coeffs)


# ---- literal closed-form candidates -----------------------------------------
#
# The printed tower formulas are reproduced verbatim below and are treated as
# candidates to verify, not as ground truth.  All empty sums are zero and all
# empty products are one.  `subst` implements the bracketed-power notation:
# every explicit x^j inside a beta formula becomes x^{j*subst}.


class _KPoly(tuple):
    """A polynomial in K modulo K^lam = 1, as its lam coefficients, with `+` and `*`."""

    __slots__ = ()

    def __add__(self, other):
        return _KPoly(a + b for a, b in zip(self, other))

    def __mul__(self, other):
        if isinstance(other, tuple):
            return _KPoly(kpoly_mul(self, other))
        return _KPoly(c * other for c in self)

    __rmul__ = __mul__


@lru_cache(maxsize=256)
def f_kpoly(params: AlgebraParams, m: int, variant: str) -> tuple:
    """F = sum_r f_r kappa_r K^r as a K-polynomial, built once per argument.

    The candidate coefficients f_r of the single-mode identity, by variant:
    'paper' pins f_1 = 1 and uses the geometric sum for r >= 2; 'geometric'
    uses the sum for every r; 'conjugate' flips the phase sign.
    """
    if variant not in ("paper", "geometric", "conjugate"):
        raise ValueError(f"unknown f variant {variant!r}")
    sign = -1 if variant == "conjugate" else 1
    rest = ((1.0 + 0.0j if variant == "paper" and r == 1 else geometric_f(r, m, params.lam, sign))
            * params.kappa[r - 1] for r in range(1, params.lam))
    return (0j, *rest)


def beta_closed_form(
    n: int,
    m: int,
    l: int,
    params: AlgebraParams,
    subst: int = 1,
) -> tuple:
    """Literal evaluation of the printed tower coefficient beta_l.

    Returns the left-positioned K-polynomial as lam complex numbers.  The
    printed cases, read as formulas in general n with empty ranges collapsing
    to ring identities, cover every 0 <= l <= n: l <= 3, l = n, l = n - 1,
    and the general case for the rest.  Raises BadRange for l outside [0, n].
    """
    if not (0 <= l <= n):
        raise BadRange(f"need 0 <= l <= n, got l={l}, n={n}")
    lam = params.lam
    F = _KPoly(f_kpoly(params, m, "paper"))

    def xs(j: int) -> complex:
        return root_power(lam, j * subst)

    def sc(c) -> _KPoly:
        return _KPoly((complex(c), *(0j,) * (lam - 1)))

    def factor(i: int, e: int) -> _KPoly:
        # one bracket ((m - i) + F x^e)
        return sc(m - i) + xs(e) * F

    def fprod(pairs) -> _KPoly:
        acc = sc(1.0)
        for i, e in pairs:
            acc = acc * factor(i, e)
        return acc

    def fsum(j0: int, j1: int) -> _KPoly:
        acc = _KPoly((0j,) * lam)
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
    else:  # 2 <= n - l <= n - 4, that is 4 <= l <= n - 2
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
    return tuple(poly)
