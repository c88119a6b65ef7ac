"""Exception hierarchy for the leftdef package."""


class LeftDefError(Exception):
    """Base class for all leftdef errors."""


class ValidationError(LeftDefError, ValueError):
    """Input data violates a structural or sign constraint."""


class WindowError(LeftDefError, ValueError):
    """A sequence window is too short or misaligned for the requested operation."""


class SolverOverflowError(LeftDefError, ArithmeticError):
    """The forward recurrence produced a non-finite value (unrescaled growth)."""


class NonCauchyError(LeftDefError, ValueError):
    """A family handed to the Cauchy diagnostics does not contract numerically."""


class InertiaError(LeftDefError, ArithmeticError):
    """A computed spectrum contradicts Sylvester's law of inertia for the pencil."""


class DisagreementError(LeftDefError, ArithmeticError):
    """Two independent solvers return eigenvalues that break their agreement contract."""
