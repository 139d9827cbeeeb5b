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
stored by diagonals (`Banded`) and words are evaluated one diagonal at a
time: a product costs O(D) per pair of diagonals, and no matrix is ever
made dense.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import (
    DimTooSmall,
    EmptyWindow,
    NegativeLevel,
    NonPositiveF,
    UnknownSymbol,
)
from .params import AlgebraParams


def structure_function(params: AlgebraParams, n):
    """F(n) = n + beta_{n mod lam} for a level or array of levels; raises NegativeLevel below 0."""
    if np.any(np.asarray(n) < 0):
        raise NegativeLevel(f"level {np.min(n)} < 0")
    return n + np.asarray(params.beta)[n % params.lam]


@dataclass(frozen=True)
class SafeWindow:
    """Columns [lo, hi] on which a set of words evaluates truncation-exactly."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi):
            raise EmptyWindow(f"invalid window [{self.lo}, {self.hi}]")


class Banded:
    """A dim x dim complex matrix stored by diagonals: {offset: vector over columns}.

    Entry (j + offset, j) is vec[j]; vec[j] is kept at zero where row j + offset
    falls outside the matrix, and no offset reaches dim.  `a` lies on offset -1,
    `a+` on +1 and every other generator on 0, so (a+)^p a^q K^r is the single
    diagonal p - q.  Instances and their vectors are never changed in place.
    """

    __slots__ = ("dim", "bands")
    __array_ufunc__ = None  # a numpy scalar times a Banded defers to __rmul__

    def __init__(self, dim: int, bands: dict):
        self.dim = dim
        self.bands = bands

    @classmethod
    def identity(cls, dim: int) -> Banded:
        return cls(dim, {0: np.ones(dim, dtype=complex)})

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
                prod = np.zeros(dim, dtype=complex)
                if s >= 0:
                    np.multiply(left[s:], right[: dim - s], out=prod[: dim - s])
                else:
                    np.multiply(left[: dim + s], right[-s:], out=prod[-s:])
                if offset in out:
                    out[offset] += prod
                else:
                    out[offset] = prod
        return Banded(dim, out)

    def __add__(self, other: Banded) -> Banded:
        out = dict(self.bands)
        for offset, vec in other.bands.items():
            out[offset] = out[offset] + vec if offset in out else vec
        return Banded(self.dim, out)

    def __sub__(self, other: Banded) -> Banded:
        out = dict(self.bands)
        for offset, vec in other.bands.items():
            out[offset] = out[offset] - vec if offset in out else -vec
        return Banded(self.dim, out)

    def __mul__(self, c) -> Banded:
        return Banded(self.dim, {offset: c * vec for offset, vec in self.bands.items()})

    __rmul__ = __mul__

    def power(self, n: int) -> Banded:
        """self**n (n >= 0) in the association order of numpy's matrix_power."""
        if n == 0:
            return Banded.identity(self.dim)
        if n == 1:
            return self
        if n == 2:
            return self @ self
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
            band = float(np.abs(vec[lo : hi + 1]).max())
            if band > peak:
                peak = band
            elif band != band:  # NaN: no later band may replace it
                return band
        return peak

    def entries(self):
        """(row, col, value) of every nonzero entry, in row-major order."""
        return sorted(
            (int(j) + offset, int(j), vec[j])
            for offset, vec in self.bands.items()
            for j in np.flatnonzero(vec)
        )

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for i, j, value in self.entries():
            out[i, j] = value
        return out

    @property
    def nbytes(self) -> int:
        return sum(vec.nbytes for vec in self.bands.values())


@dataclass(frozen=True)
class FockRep:
    """Banded realization of all generators at truncation D."""

    dim: int
    params: AlgebraParams
    mat_n: Banded
    mat_k: Banded
    mat_p: tuple  # one projector per residue class
    mat_a: Banded
    mat_adag: Banded
    mat_h0: Banded
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def projector(self, mu: int) -> Banded:
        return self.mat_p[mu % self.params.lam]

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

    def grade_table(self, p: int, q: int) -> np.ndarray | None:
        """Cached diagonals of (a+)^p a^q K^r for r = 0..lam-1, one row each.

        Row r is the single diagonal p - q of the product multiplied left to
        right; None when the product leaves the truncation.  The rows share
        one read-only (lam, dim) array, the only copy of these diagonals.
        """
        key = ("grade", p, q)
        if key not in self._cache:
            term = self.matrix_power("ad", p) @ self.matrix_power("a", q)
            base = term.bands.get(p - q)
            table = None
            if base is not None:
                table = np.empty((self.params.lam, self.dim), dtype=complex)
                table[0] = base
                for r in range(1, self.params.lam):
                    # the one product of `term @ K^r`, with its operand order
                    np.multiply(base, self.matrix_power("K", r).bands[0], out=table[r])
                table.setflags(write=False)
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

    levels = np.arange(dim)
    f_vals = structure_function(params, np.arange(dim + 1))
    if np.any(f_vals[1:dim] <= 0.0):
        bad = int(np.argmax(f_vals[1:dim] <= 0.0)) + 1
        raise NonPositiveF(f"F({bad}) = {f_vals[bad]} <= 0")

    # K and P_mu depend only on a level's residue: one lam-entry table each,
    # P_mu from the literal root-of-unity sum.  The residues are numpy ints, as
    # `levels % lam` is, so the complex division by lam rounds the same way.
    residues = np.arange(lam)
    phase = np.array([cmath.exp(2j * cmath.pi * d / lam) for d in residues])
    root_sum = np.array(
        [sum(cmath.exp(2j * cmath.pi * nu * d / lam) for nu in range(lam)) / lam
         for d in residues]
    )

    def diagonal(vec: np.ndarray, offset: int = 0) -> Banded:
        vec.setflags(write=False)
        return Banded(dim, {offset: vec})

    # a |n> = sqrt(F(n)) |n-1> sits on offset -1 (column 0 has no row above it);
    # a+ is its conjugate transpose on offset +1 (column D-1 has no row below).
    ladder = np.sqrt(f_vals[1:dim]).astype(complex)
    zero = np.zeros(1, dtype=complex)
    mat_a = diagonal(np.concatenate([zero, ladder]), -1)
    mat_adag = diagonal(np.concatenate([ladder.conj(), zero]), 1)
    mat_h0 = 0.5 * (mat_a @ mat_adag + mat_adag @ mat_a)
    return FockRep(
        dim=dim,
        params=params,
        mat_n=diagonal(levels.astype(complex)),
        mat_k=diagonal(phase[levels % lam]),
        mat_p=tuple(diagonal(root_sum[(levels - mu) % lam]) for mu in range(lam)),
        mat_a=mat_a,
        mat_adag=mat_adag,
        mat_h0=diagonal(mat_h0.bands[0]),
    )


def spectrum(rep: FockRep) -> np.ndarray:
    """Sorted eigenvalues of H0 on the uncorrupted block 0..D-2.

    H0 is diagonal in the Fock basis, so these are its sorted diagonal.  The
    top level D-1 is discarded because a a+ needs level D there.
    """
    return np.sort(rep.mat_h0.bands[0][: rep.dim - 1].real)


def spectrum_closed_form(params: AlgebraParams, count: int) -> np.ndarray:
    """Level energies n + gamma_{n mod lam} + 1/2 for n = 0..count-1."""
    return np.sort(
        np.array([n + params.gamma[n % params.lam] + 0.5 for n in range(count)])
    )


def apply_word(rep: FockRep, e: ex.OperatorExpr) -> Banded:
    """Literal matrix evaluation of an expression tree."""
    if isinstance(e, ex.Atom):
        return rep.atom_matrix(e.kind)
    if isinstance(e, ex.Proj):
        if not (0 <= e.mu < rep.params.lam):
            raise UnknownSymbol(f"P{e.mu} undefined for cyclic order {rep.params.lam}")
        return rep.projector(e.mu)
    if isinstance(e, ex.Scalar):
        return e.value * Banded.identity(rep.dim)
    if isinstance(e, ex.Sum):
        acc = apply_word(rep, e.terms[0])
        for t in e.terms[1:]:
            acc = acc + apply_word(rep, t)
        return acc
    if isinstance(e, ex.Product):
        acc = apply_word(rep, e.factors[0])
        for f in e.factors[1:]:
            acc = acc @ apply_word(rep, f)
        return acc
    if isinstance(e, ex.Power):
        if isinstance(e.base, ex.Atom):
            return rep.matrix_power(e.base.kind, e.exponent)
        return apply_word(rep, e.base).power(e.exponent)
    if isinstance(e, ex.Commutator):
        left = apply_word(rep, e.left)
        right = apply_word(rep, e.right)
        return left @ right - right @ left
    if isinstance(e, ex.Anticommutator):
        left = apply_word(rep, e.left)
        right = apply_word(rep, e.right)
        return left @ right + right @ left
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


def window_residual(mat: Banded, window: SafeWindow, *scale: Banded) -> float:
    """Max absolute entry of `mat` over the safe-window columns, relative to `scale`.

    The maximum is divided by the largest window maximum of the `scale`
    operands, floored at 1; with no operands it is the absolute maximum.
    """
    norm = 1.0
    for op in scale:
        norm = max(norm, op.window_max(window.lo, window.hi))
    return mat.window_max(window.lo, window.hi) / norm


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
