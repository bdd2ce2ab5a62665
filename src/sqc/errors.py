"""Exception types shared across the package."""


class SqcError(Exception):
    """Base class for errors raised by this package."""


class NotPositiveDefinite(SqcError):
    """A matrix required to be symmetric positive definite is not."""


class Singular(SqcError):
    """A matrix required to be invertible is numerically singular."""


class DomainViolation(SqcError):
    """A potential was evaluated outside its admissible domain."""


class NonFinite(SqcError):
    """A state or belief left the finite range."""


class MassLoss(SqcError):
    """Grid quadrature lost more probability mass than tolerated."""


class QuadratureDomain(SqcError):
    """Quadrature nodes fall outside the potential domain with non-negligible weight."""


class ParseError(SqcError):
    """A scenario file could not be parsed."""


class ValidationError(SqcError):
    """A scenario file parsed but violated an invariant."""
