"""Exception types shared across the solver stack."""

from __future__ import annotations


class WflowError(Exception):
    """Base class for all package errors."""


class ParameterError(WflowError):
    """An argument is outside its admissible range or does not fit the others."""


class InvalidSpecError(WflowError):
    """A cost/energy/potential description violates its standing assumptions."""


class InvalidDensityError(WflowError):
    """Density data cannot represent a probability density, or cannot be
    converted between its grid and quantile views."""


class ConvergenceError(WflowError):
    """An iterative solver failed to reach its tolerance, or its result left
    the positive-density regime.

    Carries the best iterate found and the residual at that iterate so
    callers can inspect partial results.
    """

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class SchemeAbortError(WflowError):
    """A multi-step run failed mid-way.

    Carries the partial trajectory computed before the failing step; its
    ``__cause__`` is the step's ``ConvergenceError``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
