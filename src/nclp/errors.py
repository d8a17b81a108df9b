"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class InvalidSpecError(InvalidInputError):
    """Raised when an isometry block specification fails validation."""

