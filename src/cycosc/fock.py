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


@dataclass(frozen=True)
class FockRep:
    """Dense matrix realization of all generators at truncation D."""

    dim: int
    params: AlgebraParams
    mat_n: np.ndarray
    mat_k: np.ndarray
    mat_p: tuple  # one projector per residue class
    mat_a: np.ndarray
    mat_adag: np.ndarray
    mat_h0: np.ndarray
    _pow_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def projector(self, mu: int) -> np.ndarray:
        return self.mat_p[mu % self.params.lam]

    def atom_matrix(self, kind: str) -> np.ndarray:
        table = {
            "a": self.mat_a,
            "ad": self.mat_adag,
            "N": self.mat_n,
            "K": self.mat_k,
        }
        if kind == "I":
            return np.eye(self.dim, dtype=complex)
        if kind in table:
            return table[kind]
        raise UnknownSymbol(f"no matrix for atom {kind!r}")

    def matrix_power(self, kind: str, n: int) -> np.ndarray:
        """Cached powers of single generators (a, ad, K)."""
        key = (kind, n)
        if key not in self._pow_cache:
            self._pow_cache[key] = np.linalg.matrix_power(self.atom_matrix(kind), n)
        return self._pow_cache[key]


DIM_CAP = 256


def build_rep(params: AlgebraParams, dim: int) -> FockRep:
    """Construct the dense realization; raises DimTooSmall for dim < lam + 2.

    Matrices are dense (ladder products fill in), so dim is capped at DIM_CAP.
    """
    lam = params.lam
    if dim < lam + 2:
        raise DimTooSmall(f"dim {dim} < lam + 2 = {lam + 2}")
    if dim > DIM_CAP:
        raise ValueError(f"dim {dim} exceeds the dense-matrix cap {DIM_CAP}")

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
    mat_n = np.diag(levels.astype(complex))
    mat_k = np.diag(phase[levels % lam])
    mat_p = [np.diag(root_sum[(levels - mu) % lam]) for mu in range(lam)]
    mat_a = np.diag(np.sqrt(f_vals[1:dim]).astype(complex), 1)
    mat_adag = mat_a.conj().T
    mat_h0 = 0.5 * (mat_a @ mat_adag + mat_adag @ mat_a)

    rep = FockRep(
        dim=dim,
        params=params,
        mat_n=mat_n,
        mat_k=mat_k,
        mat_p=tuple(mat_p),
        mat_a=mat_a,
        mat_adag=mat_adag,
        mat_h0=mat_h0,
    )
    for m in (mat_n, mat_k, mat_a, mat_adag, mat_h0, *mat_p):
        m.setflags(write=False)
    return rep


def spectrum(rep: FockRep) -> np.ndarray:
    """Sorted eigenvalues of H0 on the uncorrupted block 0..D-2.

    H0 is diagonal in the Fock basis, so these are its sorted diagonal.  The
    top level D-1 is discarded because a a+ needs level D there.
    """
    return np.sort(rep.mat_h0.diagonal()[: rep.dim - 1].real)


def spectrum_closed_form(params: AlgebraParams, count: int) -> np.ndarray:
    """Level energies n + gamma_{n mod lam} + 1/2 for n = 0..count-1."""
    return np.sort(
        np.array([n + params.gamma[n % params.lam] + 0.5 for n in range(count)])
    )


def apply_word(rep: FockRep, e: ex.OperatorExpr) -> np.ndarray:
    """Literal matrix evaluation of an expression tree."""
    if isinstance(e, ex.Atom):
        return rep.atom_matrix(e.kind)
    if isinstance(e, ex.Proj):
        if not (0 <= e.mu < rep.params.lam):
            raise UnknownSymbol(f"P{e.mu} undefined for cyclic order {rep.params.lam}")
        return rep.projector(e.mu)
    if isinstance(e, ex.Scalar):
        return e.value * np.eye(rep.dim, dtype=complex)
    if isinstance(e, ex.Sum):
        acc = apply_word(rep, e.terms[0]).copy()
        for t in e.terms[1:]:
            acc += apply_word(rep, t)
        return acc
    if isinstance(e, ex.Product):
        acc = apply_word(rep, e.factors[0])
        for f in e.factors[1:]:
            acc = acc @ apply_word(rep, f)
        return acc
    if isinstance(e, ex.Power):
        return np.linalg.matrix_power(apply_word(rep, e.base), e.exponent)
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


def window_residual(mat: np.ndarray, window: SafeWindow) -> float:
    """Max absolute entry of `mat` over the safe-window columns."""
    return float(np.max(np.abs(mat[:, window.lo : window.hi + 1])))


def dump_matrices(rep: FockRep) -> dict:
    """Sparse JSON-friendly dump of every generator matrix."""

    def encode(mat: np.ndarray) -> dict:
        entries = [
            [int(i), int(j), float(mat[i, j].real), float(mat[i, j].imag)]
            for i, j in zip(*np.nonzero(mat))
        ]
        return {"rows": int(mat.shape[0]), "cols": int(mat.shape[1]), "entries": entries}

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
