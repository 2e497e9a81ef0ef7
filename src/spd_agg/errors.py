"""Exception types shared across the package."""

__all__ = [
    "ShapeMismatchError",
    "SingularMatrixError",
    "NonFiniteError",
    "FtsParseError",
]


class ShapeMismatchError(ValueError):
    """Operands have incompatible dimensions; the message names both shapes."""


class SingularMatrixError(ValueError):
    """A factorization met a numerically rank-deficient matrix."""


class NonFiniteError(ValueError):
    """A value that must be finite contains NaN or Inf; the message names it."""


class FtsParseError(ValueError):
    """A serialized container failed validation.

    ``offset`` is the byte position the failure was detected at, or None
    for a check of decoded content (a checkpoint's configuration or
    parameters) that no single byte position pins down.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (at byte {offset})")
        self.offset = offset
