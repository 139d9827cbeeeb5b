"""Exception types shared across the package."""


class CycoscError(Exception):
    """Base class for all errors raised by this package."""


# ---- parameter validation ----

class BadLength(CycoscError):
    """Parameter vector has the wrong length for the given cyclic order."""


class SumNotZero(CycoscError):
    """The alpha vector does not sum to zero."""


class UnitarityBound(CycoscError):
    """A partial sum of alpha is <= -1, so the Fock norm would collapse."""


class NotHermitian(CycoscError):
    """kappa violates the conjugation symmetry kappa_mu* = kappa_{lambda-mu}."""


class NotReal(CycoscError):
    """A quantity that must be real carries a non-negligible imaginary part."""


class NotFinite(CycoscError):
    """A parameter entry or a quantity derived from it (kappa, a level shift, a normal-form
    coefficient, a residual of the realization) is infinite or NaN."""


# ---- Fock realization ----

class NegativeLevel(CycoscError):
    """Fock level index must be non-negative."""


class DimTooSmall(CycoscError):
    """Truncation dimension is too small for the cyclic order."""


class NonPositiveF(CycoscError):
    """Structure function would be non-positive at some level (defensive)."""


class UnknownSymbol(CycoscError):
    """Expression contains a generator the realization does not provide."""


class EmptyWindow(CycoscError):
    """No basis column survives the truncation-exactness requirement."""


# ---- expression parsing ----

class ParseError(CycoscError):
    """Syntax error in an operator expression, with source position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class NegativePower(CycoscError):
    """Operator powers must be non-negative integers."""


# ---- normal ordering ----

class LambdaMismatch(CycoscError):
    """Normal forms over different cyclic orders cannot be combined."""


class BadRange(CycoscError):
    """Index arguments outside the range a reordering tower supports."""


# ---- identity checks ----

class WrongLambda(CycoscError):
    """Check is specific to a different cyclic order."""


class IndexOutOfRealization(CycoscError):
    """Generator index falls outside the non-negative-power realization."""


class PoleInPochhammer(CycoscError):
    """A denominator Pochhammer factor vanished before the series truncated."""
