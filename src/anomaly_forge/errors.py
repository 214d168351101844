"""Exception types shared across the package."""


class NotRepresentableError(ValueError):
    """The requested closed form does not exist for this potential family."""


class UnsupportedPotentialError(ValueError):
    """The operation does not support this potential family."""


class UnconvergedError(RuntimeError):
    """A quadrature or summation failed to reach its accuracy target.

    Carries the best available value and error estimate so callers can
    decide whether to use them anyway.
    """

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


class MixedSignError(ValueError):
    """Power-law fit input changes sign; a log-log fit would be meaningless."""


class NotPowerLawError(ValueError):
    """Fit residual too large for the samples to be described by a power law."""
