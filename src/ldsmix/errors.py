"""Exception types shared across the package."""


class DecompositionError(RuntimeError):
    """Tensor decomposition failed; carries the extraction round that failed."""

    def __init__(self, round_index: int, message: str):
        super().__init__(message)
        self.round_index = round_index

    def __reduce__(self):  # the default rebuilds cls(*self.args) = cls(message), a TypeError
        return type(self), (self.round_index, self.args[0]), self.__dict__


class DegenerateMixtureError(RuntimeError):
    """The second-moment matrix is numerically rank deficient for the requested K."""

    def __init__(self, message: str, sigma=None):
        super().__init__(message)
        self.sigma = sigma


class InsufficientLengthError(ValueError):
    """A trajectory or horizon is too short for the requested operation."""
