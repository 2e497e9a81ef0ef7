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
    """A value that must be finite contains NaN or Inf; the message names it.

    ``epoch``, ``sample`` and ``layer`` carry what the message names of
    where it happened: the training epoch, the sample's index in its set
    and the checked layer; each is None where the message names none.
    """

    def __init__(
        self,
        message: str,
        *,
        epoch: int | None = None,
        sample: int | None = None,
        layer: str | None = None,
    ):
        super().__init__(message)
        self.epoch = epoch
        self.sample = sample
        self.layer = layer


class FtsParseError(ValueError):
    """A serialized container failed validation.

    ``offset`` is the byte position the failure was detected at, or None
    for a check of decoded content (a checkpoint's configuration or
    parameters) that no single byte position pins down.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (at byte {offset})")
        self.offset = offset
