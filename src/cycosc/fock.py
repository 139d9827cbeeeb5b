"""Truncated Fock-space matrix realization of the algebra generators.

On the basis |0>, ..., |D-1> the generators act as

    N |n> = n |n>
    K |n> = exp(2i pi n / lam) |n>
    P_mu  = (1/lam) sum_nu exp(2i pi nu (n - mu) / lam)   (projector onto n = mu mod lam)
    a  |n> = sqrt(F(n))   |n-1>,   a+ |n> = sqrt(F(n+1)) |n+1>

with structure function F(n) = n + beta_{n mod lam}.  The Klein phase
exp(+2i pi n/lam) is forced by a+ K = exp(-2i pi/lam) K a+ together with
K^lam = 1; it is the only diagonal unitary satisfying both.

Everything here is exact up to the truncation boundary: any word containing
W creation factors is evaluated without truncation error on columns
n <= D - 1 - W (the "safe window").

Every generator is a single diagonal of the matrix, so the realization is
stored by diagonals (`Banded`), each a tuple of Python complex numbers, and
words are evaluated one diagonal at a time: a product costs O(D) per pair of
diagonals, and no matrix is ever made dense.  All of it is Python's own
arithmetic, so a result depends on IEEE doubles, the C library's
`exp`/`sqrt`/`hypot` and CPython's complex multiply, and on nothing else.
"""

from __future__ import annotations

import cmath
import math
from itertools import repeat
from operator import add, mul, neg, sub

from . import expr as ex
from .errors import (
    DimTooSmall,
    EmptyWindow,
    NegativeLevel,
    NonPositiveF,
    UnknownSymbol,
)
from .params import AlgebraParams
from .record import Record


def structure_function(params: AlgebraParams, n: int) -> float:
    """F(n) = n + beta_{n mod lam} for a level n; raises NegativeLevel below 0."""
    if n < 0:
        raise NegativeLevel(f"level {n} < 0")
    return n + params.beta[n % params.lam]


class SafeWindow(Record):
    """Columns [lo, hi] on which a set of words evaluates truncation-exactly."""

    __slots__ = __match_args__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if not (0 <= lo <= hi):
            raise EmptyWindow(f"invalid window [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi


class Banded:
    """A dim x dim complex matrix stored by diagonals: {offset: tuple over columns}.

    Entry (j + offset, j) is vec[j]; vec[j] is kept at zero where row j + offset
    falls outside the matrix, and no offset reaches dim.  `a` lies on offset -1,
    `a+` on +1 and every other generator on 0, so (a+)^p a^q K^r is the single
    diagonal p - q.  The diagonals are tuples, so a realization can share them
    with every word evaluated from it.
    """

    __slots__ = ("dim", "bands")

    def __init__(self, dim: int, bands: dict):
        self.dim = dim
        self.bands = bands

    @classmethod
    def identity(cls, dim: int) -> Banded:
        return cls(dim, {0: (1 + 0j,) * dim})

    def __matmul__(self, other: Banded) -> Banded:
        """One shifted elementwise product per pair of diagonals.

        Contributions to an entry are summed in ascending order of the right
        operand's offset, i.e. in ascending order of the contracted index.
        """
        dim = self.dim
        out = {}
        for s in sorted(other.bands):
            right = other.bands[s]
            for t, left in self.bands.items():
                offset = s + t
                if abs(offset) >= dim:
                    continue
                # column j of the product is left[j + s] * right[j], zero where j + s
                # leaves the matrix: the last s columns, or the first -s
                if s >= 0:
                    prod = (*map(mul, left[s:], right), *repeat(0j, s))
                else:
                    prod = (*repeat(0j, -s), *map(mul, left, right[-s:]))
                acc = out.get(offset)
                out[offset] = prod if acc is None else tuple(map(add, acc, prod))
        return Banded(dim, out)

    def __add__(self, other: Banded) -> Banded:
        out = dict(self.bands)
        for offset, vec in other.bands.items():
            out[offset] = tuple(map(add, out[offset], vec)) if offset in out else vec
        return Banded(self.dim, out)

    def __sub__(self, other: Banded) -> Banded:
        out = dict(self.bands)
        for offset, vec in other.bands.items():
            if offset in out:
                out[offset] = tuple(map(sub, out[offset], vec))
            else:
                out[offset] = tuple(map(neg, vec))
        return Banded(self.dim, out)

    def __mul__(self, c) -> Banded:
        """The scalar product `c * entry` of every entry, c on the left."""
        scaled = {offset: tuple(map(mul, repeat(c), vec)) for offset, vec in self.bands.items()}
        return Banded(self.dim, scaled)

    __rmul__ = __mul__

    def power(self, n: int) -> Banded:
        """self**n (n >= 0): (x x) x for 3, else squaring from the lowest bit (x x for 2)."""
        if n == 0:
            return Banded.identity(self.dim)
        if n == 3:
            return (self @ self) @ self
        z = result = None
        while n > 0:  # bits from the lowest up, squaring z at each
            z = self if z is None else z @ z
            n, bit = divmod(n, 2)
            if bit:
                result = z if result is None else result @ z
        return result

    def window_max(self, lo: int, hi: int) -> float:
        """Largest absolute entry in columns lo..hi; NaN if one is NaN, 0.0 with no bands."""
        peak = 0.0
        for vec in self.bands.values():
            window = vec[lo : hi + 1]
            try:
                moduli = list(map(abs, window))
            except OverflowError:  # complex abs past DBL_MAX, or of a NaN with a stale errno
                moduli = [math.hypot(v.real, v.imag) for v in window]
            if math.isnan(sum(moduli)):  # `max` passes over a NaN that is not first
                return math.nan
            peak = max(peak, *moduli)
        return peak

    def entries(self):
        """(row, col, value) of every nonzero entry, in row-major order."""
        return sorted(
            (j + offset, j, value)
            for offset, vec in self.bands.items()
            for j, value in enumerate(vec)
            if value
        )

    @property
    def nbytes(self) -> int:
        """Size of the stored entries at 16 bytes each, one C double complex."""
        return 16 * sum(map(len, self.bands.values()))


class FockRep(Record):
    """Banded realization of all generators at truncation D."""

    __match_args__ = ("dim", "params", "mat_n", "mat_k", "mat_p", "mat_a", "mat_adag", "mat_h0")
    __slots__ = (*__match_args__, "_cache")

    def __init__(self, dim: int, params: AlgebraParams, mat_n: Banded, mat_k: Banded,
                 mat_p: tuple, mat_a: Banded, mat_adag: Banded, mat_h0: Banded):
        self.dim = dim
        self.params = params
        self.mat_n = mat_n
        self.mat_k = mat_k
        self.mat_p = mat_p  # one projector per residue class
        self.mat_a = mat_a
        self.mat_adag = mat_adag
        self.mat_h0 = mat_h0
        self._cache = {}  # matrix powers and grade tables, outside equality and repr

    def atom_matrix(self, kind: str) -> Banded:
        table = {
            "a": self.mat_a,
            "ad": self.mat_adag,
            "N": self.mat_n,
            "K": self.mat_k,
        }
        if kind == "I":
            return Banded.identity(self.dim)
        if kind in table:
            return table[kind]
        raise UnknownSymbol(f"no matrix for atom {kind!r}")

    def matrix_power(self, kind: str, n: int) -> Banded:
        """Cached powers of single generators (a, ad, K, N, I)."""
        key = (kind, n)
        if key not in self._cache:
            self._cache[key] = self.atom_matrix(kind).power(n)
        return self._cache[key]

    def grade_table(self, p: int, q: int) -> tuple | None:
        """Cached diagonals of (a+)^p a^q K^r for r = 0..lam-1, one tuple each.

        Row r is the single diagonal p - q of the product multiplied left to
        right; None when the product leaves the truncation.
        """
        key = ("grade", p, q)
        if key not in self._cache:
            term = self.matrix_power("ad", p) @ self.matrix_power("a", q)
            base = term.bands.get(p - q)
            table = None
            if base is not None:
                # the one product of `term @ K^r`, with its operand order
                table = (base, *(tuple(map(mul, base, self.matrix_power("K", r).bands[0]))
                                 for r in range(1, self.params.lam)))
            self._cache[key] = table
        return self._cache[key]


# Lifting the cap waits for truncation-independent residuals: the oracle gate
# still grows with dim (at lambda=2, dim 2048, four checks turn `fail` on round-off).
DIM_CAP = 256


def build_rep(params: AlgebraParams, dim: int) -> FockRep:
    """Construct the banded realization; raises DimTooSmall for dim < lam + 2.

    dim is capped at DIM_CAP, above which the residual gates drift with the
    truncation (ValueError).
    """
    lam = params.lam
    if dim < lam + 2:
        raise DimTooSmall(f"dim {dim} < lam + 2 = {lam + 2}")
    if dim > DIM_CAP:
        raise ValueError(
            f"dim {dim} exceeds the cap {DIM_CAP}, above which residuals drift with truncation"
        )

    f_vals = [structure_function(params, n) for n in range(dim)]
    for n in range(1, dim):
        if f_vals[n] <= 0.0:
            raise NonPositiveF(f"F({n}) = {f_vals[n]} <= 0")

    # K and P_mu depend only on a level's residue: one lam-entry table each,
    # P_mu from the literal root-of-unity sum.  Each angle 2 pi d / lam is taken
    # as 2 pi d times the double 1/lam, which pins the phases' last bits (a true
    # division by lam rounds differently at some lam, 6 and 9 among 2..9).
    inv = 1 / lam
    phase = [cmath.exp(2j * cmath.pi * d * inv) for d in range(lam)]
    root_sum = [sum(cmath.exp(2j * cmath.pi * nu * d * inv) for nu in range(lam)) / lam
                for d in range(lam)]

    # a |n> = sqrt(F(n)) |n-1> sits on offset -1 (column 0 has no row above it);
    # a+ is its conjugate transpose on offset +1 (column D-1 has no row below).
    ladder = [complex(math.sqrt(f)) for f in f_vals[1:]]
    mat_a = Banded(dim, {-1: (0j, *ladder)})
    mat_adag = Banded(dim, {1: (*(v.conjugate() for v in ladder), 0j)})
    return FockRep(
        dim=dim,
        params=params,
        mat_n=Banded(dim, {0: tuple(complex(n) for n in range(dim))}),
        mat_k=Banded(dim, {0: tuple(phase[n % lam] for n in range(dim))}),
        mat_p=tuple(Banded(dim, {0: tuple(root_sum[(n - mu) % lam] for n in range(dim))})
                    for mu in range(lam)),
        mat_a=mat_a,
        mat_adag=mat_adag,
        mat_h0=0.5 * (mat_a @ mat_adag + mat_adag @ mat_a),
    )


def spectrum(rep: FockRep) -> list:
    """Sorted eigenvalues of H0 on the uncorrupted block 0..D-2.

    H0 is diagonal in the Fock basis, so these are its sorted diagonal.  The
    top level D-1 is discarded because a a+ needs level D there.
    """
    return sorted(v.real for v in rep.mat_h0.bands[0][: rep.dim - 1])


def spectrum_closed_form(params: AlgebraParams, count: int) -> list:
    """Level energies n + gamma_{n mod lam} + 1/2 for n = 0..count-1, sorted."""
    return sorted(n + params.gamma[n % params.lam] + 0.5 for n in range(count))


def apply_word(rep: FockRep, e: ex.OperatorExpr) -> Banded:
    """Literal matrix evaluation of an expression tree, by its exact node type."""
    kind = type(e)
    if kind is ex.Product:
        acc = apply_word(rep, e.factors[0])
        for f in e.factors[1:]:
            acc = acc @ apply_word(rep, f)
        return acc
    if kind is ex.Atom:
        return rep.atom_matrix(e.kind)
    if kind is ex.Power:
        if type(e.base) is ex.Atom:
            return rep.matrix_power(e.base.kind, e.exponent)
        return apply_word(rep, e.base).power(e.exponent)
    if kind is ex.Scalar:
        return e.value * Banded.identity(rep.dim)
    if kind is ex.Sum:
        acc = apply_word(rep, e.terms[0])
        for t in e.terms[1:]:
            acc = acc + apply_word(rep, t)
        return acc
    if kind is ex.Commutator or kind is ex.Anticommutator:
        left = apply_word(rep, e.left)
        right = apply_word(rep, e.right)
        if kind is ex.Commutator:
            return left @ right - right @ left
        return left @ right + right @ left
    if kind is ex.Proj:
        if not (0 <= e.mu < rep.params.lam):
            raise UnknownSymbol(f"P{e.mu} undefined for cyclic order {rep.params.lam}")
        return rep.mat_p[e.mu]
    raise UnknownSymbol(f"cannot evaluate {e!r}")


def safe_window(rep: FockRep, exprs) -> SafeWindow:
    """Columns on which every expression in `exprs` is truncation-exact.

    The window is [0, D - 1 - W] where W is the largest creation weight among
    the expressions; raises EmptyWindow when W >= D.
    """
    weight = max((ex.creation_weight(e) for e in exprs), default=0)
    hi = rep.dim - 1 - weight
    if hi < 0:
        raise EmptyWindow(
            f"creation weight {weight} leaves no exact column at dim {rep.dim}"
        )
    return SafeWindow(0, hi)


def dump_matrices(rep: FockRep) -> dict:
    """Sparse JSON-friendly dump of every generator matrix."""

    def encode(mat: Banded) -> dict:
        entries = [[i, j, float(v.real), float(v.imag)] for i, j, v in mat.entries()]
        return {"rows": mat.dim, "cols": mat.dim, "entries": entries}

    out = {
        "N": encode(rep.mat_n),
        "K": encode(rep.mat_k),
        "a": encode(rep.mat_a),
        "ad": encode(rep.mat_adag),
        "H0": encode(rep.mat_h0),
    }
    for mu in range(rep.params.lam):
        out[f"P{mu}"] = encode(rep.mat_p[mu])
    return out
