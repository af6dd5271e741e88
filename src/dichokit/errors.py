"""Exception types shared across the toolkit."""


class DichokitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(DichokitError):
    """A time argument fell outside the domain of a rate or system."""


class IntegrationError(DichokitError):
    """The ODE integrator failed (step-size underflow, blow-up, ...)."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class TailCertificationError(DichokitError):
    """An improper-integral tail could not be certified below tolerance."""


class EstimationError(DichokitError):
    """Constant estimation failed (degenerate grid, wrong-sign exponent)."""
