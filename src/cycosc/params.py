"""Defining parameters of the extended oscillator algebra.

The algebra of cyclic order ``lam`` is fixed by a real vector
``alpha = (alpha_0, ..., alpha_{lam-1})`` with ``sum(alpha) = 0`` and all
partial sums > -1, or equivalently by the complex bracket coefficients
``kappa = (kappa_1, ..., kappa_{lam-1})`` of ``[a, a+] = 1 + sum kappa_r K^r``
with ``kappa_r* = kappa_{lam-r}``.  The two descriptions are related by a
discrete Fourier pair; this module owns that conversion and the derived
partial-sum (beta) and level-shift (gamma) vectors.  ``params_from_json`` is
the one check of parameter input from outside (CLI flags, config files).

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
from functools import lru_cache

from .errors import (
    BadLength, CycoscError, NotFinite, NotHermitian, NotReal, SumNotZero, UnitarityBound,
)
from .record import Record

# Tolerances for inputs of magnitude up to 1; each scales with the largest
# entry of the vector it checks (see `_magnitude`).
SUM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
REALITY_TOL = 1e-10

# The largest cyclic order the realization holds: build_rep needs dim >= lam + 2
# and caps dim at fock.DIM_CAP = 256.  Checked before any O(lam) work.
LAMBDA_MAX = 254


def root_power(lam: int, j: int) -> complex:
    """x**j with the exponent reduced mod lam (keeps |x^j| = 1 exactly)."""
    return root_table(lam)[j % lam]


@lru_cache(maxsize=LAMBDA_MAX)
def root_table(lam: int) -> tuple[complex, ...]:
    """x**j for j = 0..lam-1: each root of unity evaluated once per order."""
    return tuple(cmath.exp(-2j * cmath.pi * j / lam) for j in range(lam))


def _magnitude(values) -> float:
    """The largest absolute entry of `values`, floored at 1: the scale of a tolerance."""
    return max([1.0, *(abs(v) for v in values)])


class AlgebraParams(Record):
    """Validated parameter set; never changed after construction, so safe to share across threads.

    Fields:
        lam: cyclic order (>= 2).
        alpha: lam reals summing to zero.
        kappa: lam-1 complex bracket coefficients (index r = 1..lam-1).
        beta: lam+1 partial sums, beta_0 = 0, beta_mu = alpha_0+..+alpha_{mu-1}.
        gamma: lam level shifts, gamma_mu = (beta_mu + beta_{mu+1}) / 2.
        root: exp(-2i pi / lam).

    A parameter set keys memo caches, so its hash is taken once, at construction.
    """

    __match_args__ = ("lam", "alpha", "kappa", "beta", "gamma", "root")
    __slots__ = (*__match_args__, "_hash")

    def __init__(self, lam: int, alpha: tuple[float, ...], kappa: tuple[complex, ...],
                 beta: tuple[float, ...], gamma: tuple[float, ...], root: complex):
        self.lam = lam
        self.alpha = alpha
        self.kappa = kappa
        self.beta = beta
        self.gamma = gamma
        self.root = root
        self._hash = hash(self._fields())

    def __hash__(self):
        return self._hash

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


def cyclic_order(value) -> int:
    """`value` as a cyclic order: a whole number no larger than LAMBDA_MAX."""
    lam = whole_number(value, "lambda")
    if lam > LAMBDA_MAX:
        raise CycoscError(
            f"lambda {lam} exceeds {LAMBDA_MAX}, the largest order a dim-256 realization holds"
        )
    return lam


def validate_alpha(lam: int, alpha) -> AlgebraParams:
    """Validate an alpha vector and derive beta, gamma and kappa.

    Raises BadLength, NotFinite, SumNotZero or UnitarityBound when the input
    violates the defining constraints; NotFinite also when gamma or kappa
    overflows.
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
    sum_tol = SUM_TOL * _magnitude(alpha)
    if abs(beta[-1]) > sum_tol:
        raise SumNotZero(f"sum(alpha) = {beta[-1]:.3e} exceeds {sum_tol:.3e}")
    for mu in range(1, lam):
        if beta[mu] <= -1.0:
            raise UnitarityBound(
                f"partial sum beta_{mu} = {beta[mu]} <= -1 breaks positivity of F"
            )

    gamma = tuple(0.5 * (beta[mu] + beta[mu + 1]) for mu in range(lam))
    kappa = kappa_from_alpha(lam, alpha)  # an overflow is refused below
    if not all(cmath.isfinite(v) for v in (*gamma, *kappa)):
        raise NotFinite(f"alpha {list(alpha)} overflows its level shifts or kappa")
    return AlgebraParams(
        lam=lam,
        alpha=alpha,
        kappa=tuple(kappa),
        beta=tuple(beta),
        gamma=gamma,
        root=root_power(lam, 1),
    )


def kappa_from_alpha(lam: int, alpha) -> tuple[complex, ...]:
    """Forward transform: kappa_r = (1/lam) sum_mu alpha_mu x^{mu r}, r >= 1."""
    alpha = [float(a) for a in alpha]
    if len(alpha) != lam:
        raise BadLength(f"alpha must have {lam} entries, got {len(alpha)}")
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
    hermiticity_tol = HERMITICITY_TOL * _magnitude(kappa)
    for r in range(1, lam):
        partner = kappa[(lam - r) - 1]
        if abs(kappa[r - 1].conjugate() - partner) > hermiticity_tol:
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
    if worst > REALITY_TOL * _magnitude(alpha):
        raise NotReal(f"reconstructed alpha has imaginary residue {worst:.3e}")
    return tuple(a.real for a in alpha)


def params_from_kappa(lam: int, kappa) -> AlgebraParams:
    """Build a validated parameter set starting from kappa."""
    return validate_alpha(lam, alpha_from_kappa(lam, kappa))


def params_from_json(obj) -> AlgebraParams:
    """Load parameters from a parsed JSON object: the one check of outside input.

    Accepted shapes (exactly one of alpha / kappa must be present):
        {"lambda": int, "alpha": [real, ...]}
        {"lambda": int, "kappa": [[re, im], ...]}
    Numbers are JSON numbers: booleans, strings and null are refused.
    """
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise CycoscError(f"parameters must be a JSON object, got {obj!r}")
    if "lambda" not in obj:
        raise BadLength("parameter object must carry a 'lambda' field")
    lam = cyclic_order(obj["lambda"])
    given = [key for key in ("alpha", "kappa") if key in obj]
    if len(given) != 1:
        raise BadLength(f"give exactly one of alpha / kappa, got {' and '.join(given) or 'none'}")
    key, value = given[0], obj[given[0]]
    if key == "alpha" and _numbers(value):
        return validate_alpha(lam, value)
    if key == "kappa" and isinstance(value, list) and all(
        _numbers(pair) and len(pair) == 2 for pair in value
    ):
        return params_from_kappa(lam, [complex(re, im) for re, im in value])
    shape = "a list of numbers" if key == "alpha" else "a list of [re, im] number pairs"
    raise CycoscError(f"{key} must be {shape}, got {value!r}")


def _numbers(value) -> bool:
    """Whether `value` is a list of JSON numbers (booleans are not numbers)."""
    return isinstance(value, list) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
    )
