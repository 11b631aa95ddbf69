"""Exception types raised across the package.

Everything derives from RSExactError so callers can catch the whole family.
The CLI maps these onto its exit codes (config errors -> 2, the non-banal
refusal -> 3, verification failures -> 1).
"""


class RSExactError(Exception):
    """Base class for all package-specific errors."""


class NotMonomialMultiple(RSExactError):
    """Rational function is not c*X^m times an inverse-normalized Euler factor."""


class NotExpandable(RSExactError):
    """Power-series expansion around X=0 does not exist (denominator at 0 is 0)."""


class NotIntegralAtEll(RSExactError):
    """A coefficient has ell in its denominator, so reduction mod ell is undefined."""


class TooLarge(RSExactError):
    """Requested explicit enumeration exceeds the safety bound."""


class NotRegular(RSExactError):
    """Character parameter is fixed by a nontrivial power of Frobenius."""


class DepthExceeded(RSExactError):
    """Additive-character argument is deeper than the session's p-power cap."""


class EvenResidualCharacteristic(RSExactError):
    """The ramified family requires odd p."""


class NondegeneracyFailure(RSExactError):
    """Type data is incompatible with the chosen Whittaker normalization."""


class FamilyMismatch(RSExactError):
    """The two types belong to different construction families."""


class EllEqualsP(RSExactError):
    """Reduction modulo the residual characteristic p is not supported."""


class NonBanal(RSExactError):
    """ell divides the relevant (q-1)(q^{n/e}-1), outside the banal range."""
