"""Defining parameters of the extended oscillator algebra.

The algebra of cyclic order ``lam`` is fixed by a real vector
``alpha = (alpha_0, ..., alpha_{lam-1})`` with ``sum(alpha) = 0`` and all
partial sums > -1, or equivalently by the complex bracket coefficients
``kappa = (kappa_1, ..., kappa_{lam-1})`` of ``[a, a+] = 1 + sum kappa_r K^r``
with ``kappa_r* = kappa_{lam-r}``.  The two descriptions are related by a
discrete Fourier pair; this module owns that conversion and the derived
partial-sum (beta) and level-shift (gamma) vectors.

Convention note: with the Klein operator realized as ``K = exp(2i pi N/lam)``
(the unique choice compatible with ``a+ K = exp(-2i pi/lam) K a+``), the
transform pair that makes ``sum_mu alpha_mu P_mu == sum_r kappa_r K^r`` hold
on Fock space is

    kappa_r  = (1/lam) * sum_mu alpha_mu * exp(-2i pi mu r / lam)
    alpha_mu = sum_r   kappa_r * exp(+2i pi mu r / lam)

Verification reports carry this convention in their header.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadLength, CycoscError, NotFinite, NotHermitian, NotReal, SumNotZero, UnitarityBound,
)

SUM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
REALITY_TOL = 1e-10


def unit_root(lam: int) -> complex:
    """Primitive root x = exp(-2i pi / lam)."""
    return cmath.exp(-2j * cmath.pi / lam)


def root_power(lam: int, j: int) -> complex:
    """x**j with the exponent reduced mod lam (keeps |x^j| = 1 exactly)."""
    return cmath.exp(-2j * cmath.pi * (j % lam) / lam)


@dataclass(frozen=True)
class AlgebraParams:
    """Validated parameter set; immutable and safe to share across threads.

    Fields:
        lam: cyclic order (>= 2).
        alpha: lam reals summing to zero.
        kappa: lam-1 complex bracket coefficients (index r = 1..lam-1).
        beta: lam+1 partial sums, beta_0 = 0, beta_mu = alpha_0+..+alpha_{mu-1}.
        gamma: lam level shifts, gamma_mu = (beta_mu + beta_{mu+1}) / 2.
        root: exp(-2i pi / lam).
    """

    lam: int
    alpha: tuple[float, ...]
    kappa: tuple[complex, ...]
    beta: tuple[float, ...]
    gamma: tuple[float, ...]
    root: complex

    @property
    def is_deformed(self) -> bool:
        return any(abs(k) > 1e-14 for k in self.kappa)


def whole_number(value, name: str) -> int:
    """`value` as an int: an int, or a float with no fractional part.

    Raises CycoscError for anything else (12.7, inf, NaN, null, a list).
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise CycoscError(f"{name} must be a whole number, got {value}")


def validate_alpha(lam: int, alpha) -> AlgebraParams:
    """Validate an alpha vector and derive beta, gamma and kappa.

    Raises BadLength, NotFinite, SumNotZero or UnitarityBound when the input
    violates the defining constraints.
    """
    if lam < 2:
        raise BadLength(f"cyclic order must be >= 2, got {lam}")
    alpha = tuple(float(a) for a in alpha)
    if len(alpha) != lam:
        raise BadLength(f"alpha must have {lam} entries, got {len(alpha)}")
    if not all(math.isfinite(a) for a in alpha):
        raise NotFinite(f"alpha entries must be finite, got {list(alpha)}")

    # Left-to-right cumulative sums so beta_{mu+1} - beta_mu == alpha_mu exactly.
    beta = [0.0]
    for a in alpha:
        beta.append(beta[-1] + a)
    if abs(beta[-1]) > SUM_TOL:
        raise SumNotZero(f"sum(alpha) = {beta[-1]:.3e} exceeds {SUM_TOL}")
    for mu in range(1, lam):
        if beta[mu] <= -1.0:
            raise UnitarityBound(
                f"partial sum beta_{mu} = {beta[mu]} <= -1 breaks positivity of F"
            )

    gamma = tuple(0.5 * (beta[mu] + beta[mu + 1]) for mu in range(lam))
    kappa = kappa_from_alpha(lam, alpha)
    return AlgebraParams(
        lam=lam,
        alpha=alpha,
        kappa=tuple(kappa),
        beta=tuple(beta),
        gamma=gamma,
        root=unit_root(lam),
    )


def kappa_from_alpha(lam: int, alpha) -> tuple[complex, ...]:
    """Forward transform: kappa_r = (1/lam) sum_mu alpha_mu x^{mu r}, r >= 1."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (lam,):
        raise BadLength(f"alpha must have {lam} entries, got {alpha.shape}")
    kappa = []
    for r in range(1, lam):
        acc = 0.0 + 0.0j
        for mu in range(lam):
            acc += alpha[mu] * root_power(lam, mu * r)
        kappa.append(complex(acc) / lam)
    return tuple(kappa)


def alpha_from_kappa(lam: int, kappa) -> tuple[float, ...]:
    """Inverse transform: alpha_mu = sum_r kappa_r x^{-mu r} with kappa_0 = 0.

    The kappa_0 = 0 slot enforces sum(alpha) = 0.  Raises NotHermitian when
    the conjugation symmetry fails and NotReal when the reconstructed alpha
    keeps a residual imaginary part above tolerance.
    """
    kappa = tuple(complex(k) for k in kappa)
    if len(kappa) != lam - 1:
        raise BadLength(f"kappa must have {lam - 1} entries, got {len(kappa)}")
    for r in range(1, lam):
        partner = kappa[(lam - r) - 1]
        if abs(kappa[r - 1].conjugate() - partner) > HERMITICITY_TOL:
            raise NotHermitian(
                f"kappa_{r}* != kappa_{lam - r} "
                f"({kappa[r - 1].conjugate()} vs {partner})"
            )
    alpha = []
    for mu in range(lam):
        acc = 0.0 + 0.0j
        for r in range(1, lam):
            acc += kappa[r - 1] * root_power(lam, -mu * r)
        alpha.append(acc)
    worst = max(abs(a.imag) for a in alpha)
    if worst > REALITY_TOL:
        raise NotReal(f"reconstructed alpha has imaginary residue {worst:.3e}")
    return tuple(a.real for a in alpha)


def params_from_kappa(lam: int, kappa) -> AlgebraParams:
    """Build a validated parameter set starting from kappa."""
    return validate_alpha(lam, alpha_from_kappa(lam, kappa))


def params_from_json(obj) -> AlgebraParams:
    """Load parameters from a parsed JSON object.

    Accepted shapes (exactly one of alpha / kappa may be present):
        {"lambda": int, "alpha": [real, ...]}
        {"lambda": int, "kappa": [[re, im], ...]}
    """
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if "lambda" not in obj:
        raise BadLength("parameter object must carry a 'lambda' field")
    lam = whole_number(obj["lambda"], "lambda")
    has_alpha = "alpha" in obj
    has_kappa = "kappa" in obj
    if has_alpha == has_kappa:
        raise BadLength("exactly one of 'alpha' or 'kappa' must be present")
    if has_alpha:
        return validate_alpha(lam, obj["alpha"])
    kappa = [complex(pair[0], pair[1]) for pair in obj["kappa"]]
    return params_from_kappa(lam, kappa)
