"""Exception types shared across the package."""


class CdcodesError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(CdcodesError):
    """A value required to be prime is not."""


class ReducibleModulus(CdcodesError):
    """A field modulus is not irreducible (or not monic of the right degree)."""


class Overflow(CdcodesError):
    """A field, or the length n of x^n - 1, exceeds the supported size."""


class GcdViolation(CdcodesError):
    """Parameters violate gcd(n, q) = 1 (or n odd > 1 where required)."""


class DimensionMismatch(CdcodesError):
    """Operands live in different fields or have different lengths."""


class NotInComponent(CdcodesError):
    """Element does not belong to the requested block of the decomposition."""


class NotPaired(CdcodesError):
    """Operation requires a paired-idempotent block."""


class DegenerateG(CdcodesError):
    """The norm-equation parameter g equals +-2, where X^2+gX+1 splits."""


class BlockCollision(CdcodesError):
    """Two code parts were supplied for the same block."""


class InvalidBeta(CdcodesError):
    """A twist vector has a non-unit (or missing) component."""


class HypothesisUnmet(CdcodesError):
    """The hypotheses of the requested construction fail for these parameters."""


class BudgetExceeded(CdcodesError):
    """An exhaustive enumeration would exceed the configured budget."""


class DomainError(CdcodesError):
    """An argument lies outside its admissible values (an interval, or a set of names)."""


class NotLeftIdeal(CdcodesError):
    """A code expected to be a left ideal is not invariant under the algebra."""


class NoNonzeroWords(CdcodesError):
    """The zero code has no nonzero codeword (minimum weight undefined)."""

