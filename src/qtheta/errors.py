"""Exception taxonomy shared across the package."""


class QThetaError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QThetaError):
    """An argument is outside the mathematical domain of the operation."""


class FieldMismatchError(QThetaError):
    """Coefficient fields are incompatible (neither order divides the other)."""


class DivergenceError(QThetaError):
    """A sum or product does not settle below the truncation order."""


class UnknownIdError(QThetaError, KeyError):
    """A registry lookup failed."""

    def __str__(self):
        return Exception.__str__(self)  # KeyError's own __str__ quotes the message


class DegenerateCaseError(QThetaError):
    """The requested value is not determined (vanishing prefactor at N=1)."""


class UnsupportedMethodError(QThetaError):
    """The evaluation method is not available for this object."""


class PrecisionError(QThetaError):
    """A numeric routine could not meet the requested tolerance."""
