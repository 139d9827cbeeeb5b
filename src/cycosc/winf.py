"""Abstract higher-spin structure constants and central charges.

Generators of spin s = i + 2 are indexed by i >= 0.  The quantum algebra
closes as

    [V^i_m, V^j_n] = sum_{l>0} g^{ij}_{2l}(m, n) V^{i+j-2l}_{m+n}
                     + c_i(m) delta^{ij} delta_{m+n,0}

with

    c_i(m) = m (m^2 - 1)(m^2 - 4) ... (m^2 - (i+1)^2) c_i
    c_i    = 2^{2i-3} i! (i+1)! / ((2i+1)!! (2i+3)!!)
    g^{ij}_{2l}(m, n) = phi^{ij}_l N^{ij}_l(m, n) / (2 (l + 1))

The printed N and phi formulas contain garbled factors, so both a literal
transcription and the standard corrected reading are computed side by side;
which one is used is recorded, never silently chosen.  `dual_readings`
evaluates N and phi once per reading; `winf_structure`, the payload of
`cycosc wconst`, reads the chosen readings from it, and `g_factor` forms g
for it and for the wconst suite.  All of this is standalone: the realized
algebra is centerless and these values are never compared against it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotFinite, PoleInPochhammer

N_READINGS = ("literal", "alt")
PHI_READINGS = ("literal", "alt")
PHI_SERIES_CAP = 64
# The largest i, j or l that `winf_structure` evaluates.  N's binomials C(l+1, k)
# convert to a double up to l = 1028, and N costs O(l^2): `cycosc wconst` at
# i = j = l = 1000 takes 0.16 s in-process on one core of a 2-core x86 host.
INDEX_MAX = 1000


def falling(x: float, n: int) -> float:
    """Falling factorial [x]_n = x (x-1) ... (x-n+1); [x]_0 = 1."""
    out = 1.0
    for k in range(n):
        out *= x - k
    return out


def rising(x: float, n: int) -> float:
    """Pochhammer symbol (x)_n = x (x+1) ... (x+n-1); (x)_0 = 1."""
    out = 1.0
    for k in range(n):
        out *= x + k
    return out


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def central_charge(i: int) -> Fraction:
    """Exact rational c_i = 2^{2i-3} i! (i+1)! / ((2i+1)!! (2i+3)!!)."""
    if i < 0:
        raise ValueError(f"spin index must be >= 0, got {i}")
    num = Fraction(2) ** (2 * i - 3) * math.factorial(i) * math.factorial(i + 1)
    den = double_factorial(2 * i + 1) * double_factorial(2 * i + 3)
    return num / den


def central_term(i: int, m: int) -> Fraction:
    """c_i(m) = m (m^2-1)(m^2-4)...(m^2-(i+1)^2) c_i; zero for |m| <= i+1."""
    acc = Fraction(m)
    for k in range(1, i + 2):
        acc *= m * m - k * k
    return acc * central_charge(i)


def mode_factor(i: int, j: int, l: int, m: int, n: int, reading: str = "literal") -> float:
    """Mode-dependent factor N^{ij}_l(m, n).

    reading 'literal' keeps the doubled [i+1+m] factor exactly as printed;
    'alt' uses the mixed-sign pattern [i+1+m] [i+1-m] [j+1+n] [j+1-n], the
    standard form (and the one whose l = 0 value reproduces the classical
    bracket coefficient m (j+1) - n (i+1)).  Raises NotFinite when the sum
    overflows, or when a mode or binomial is too large for a double.
    """
    if reading not in N_READINGS:
        raise ValueError(f"unknown N reading {reading!r}")
    name = f"N({i},{j},{l})({m},{n})"
    acc = 0.0
    try:
        for k in range(l + 2):
            second = falling(i + 1 + m, k) if reading == "literal" else falling(i + 1 - m, k)
            acc += (
                (-1) ** k
                * math.comb(l + 1, k)
                * falling(i + 1 + m, l + 1 - k)
                * second
                * falling(j + 1 + n, k)
                * falling(j + 1 - n, l + 1 - k)
            )
    except OverflowError as err:  # an integer factor too large for a double
        raise NotFinite(f"{name}: {err}: the series overflows") from err
    return _finite(acc, name)


def phi_factor(i: int, j: int, l: int, reading: str = "literal") -> float:
    """Hypergeometric-type factor phi^{ij}_l.

    reading 'literal' is the cleanest transcription of the printed series,

        sum_k [ (-1/2)_k (3/2)_k (-l/2 - 1/2)_k (-l/2)_k ]
            / [ k! (-i - 1/2)_k (-j - 1/2)_k (i + j - l + 5/2)_k ],

    'alt' shifts the garbled half-integer offsets the other way
    ((-l/2 + 1/2)_k upstairs, (-i + 1/2)_k and (-j + 1/2)_k downstairs).
    The series truncates once a numerator Pochhammer hits zero, and after
    its k = PHI_SERIES_CAP term otherwise; a zero denominator factor before
    that raises PoleInPochhammer, and a sum that overflows raises NotFinite.
    """
    if reading not in PHI_READINGS:
        raise ValueError(f"unknown phi reading {reading!r}")
    if reading == "literal":
        num_bases = (-0.5, 1.5, -l / 2 - 0.5, -l / 2)
        den_bases = (-i - 0.5, -j - 0.5, i + j - l + 2.5)
    else:
        num_bases = (-0.5, 1.5, -l / 2 + 0.5, -l / 2)
        den_bases = (-i + 0.5, -j + 0.5, i + j - l + 2.5)
    total = 0.0
    for k in range(PHI_SERIES_CAP + 1):
        num = 1.0
        for b in num_bases:
            num *= rising(b, k)
        if num == 0.0:
            break
        den = math.factorial(k)
        for b in den_bases:
            piece = rising(b, k)
            if piece == 0.0:
                raise PoleInPochhammer(
                    f"denominator Pochhammer ({b})_{k} vanished in phi({i},{j},{l})"
                )
            den *= piece
        total += num / den
    return _finite(total, f"phi({i},{j},{l})")


def _finite(value: float, name: str) -> float:
    """`value` itself; raises NotFinite if it is infinite or NaN."""
    if not math.isfinite(value):
        raise NotFinite(f"{name} = {value}: the series overflows")
    return value


def g_factor(value_n: float, value_phi: float, i: int, j: int, l: int, m: int, n: int) -> float:
    """g^{ij}_{2l}(m, n) = phi N / (2 (l + 1)); raises NotFinite when it overflows."""
    return _finite(value_phi * value_n / (2.0 * (l + 1)), f"g({i},{j},{l})({m},{n})")


def winf_structure(i: int, j: int, l: int, m: int, n: int, n_reading: str = "literal",
                   phi_reading: str = "literal") -> dict:
    """The `cycosc wconst` payload: c_i, c_i(m), and N, phi and g under the chosen readings.

    N and phi come from `dual_readings`, once per reading: the chosen ones,
    then g, then the others, so an overflow names the first value it meets.
    Raises ValueError for an index i, j or l below 0 or above INDEX_MAX
    before evaluating anything, and NotFinite when a value overflows.
    """
    if min(i, j, l) < 0:
        raise ValueError("indices i, j, l must be non-negative")
    for name, index in (("i", i), ("j", j), ("l", l)):
        if index > INDEX_MAX:
            raise ValueError(f"index {name} = {index} is above the bound {INDEX_MAX}")
    both = dual_readings(i, j, l, m, n, (n_reading,), (phi_reading,))
    value_n, value_phi = both[f"N_{n_reading}"], both[f"phi_{phi_reading}"]
    value_g = g_factor(value_n, value_phi, i, j, l, m, n)
    both.update(dual_readings(i, j, l, m, n, [r for r in N_READINGS if r != n_reading],
                              [r for r in PHI_READINGS if r != phi_reading]))
    c_i = central_charge(i)
    try:
        c_i_m = float(central_term(i, m))
    except OverflowError as err:  # a rational too large for a double
        raise NotFinite(f"c_{i}({m}): {err}") from err
    return {"i": i, "j": j, "l": l, "m": m, "n": n,
            "c_i": f"{c_i.numerator}/{c_i.denominator}", "c_i_m": c_i_m,
            "value_N": value_n, "value_phi": value_phi, "value_g": value_g,
            "N_reading": n_reading, "phi_reading": phi_reading, "dual_readings": both}


def dual_readings(i: int, j: int, l: int, m: int, n: int, n_readings=N_READINGS,
                  phi_readings=PHI_READINGS) -> dict:
    """N^{ij}_l(m, n) and phi^{ij}_l under the given readings, keyed N_<reading> and phi_<reading>.

    N does not depend on the phi reading, nor phi on the N reading, so one
    evaluation per reading covers every combination.
    """
    table = {f"N_{reading}": mode_factor(i, j, l, m, n, reading) for reading in n_readings}
    for reading in phi_readings:
        table[f"phi_{reading}"] = phi_factor(i, j, l, reading)
    return table
