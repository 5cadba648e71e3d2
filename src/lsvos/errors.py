"""Exception hierarchy shared by every lsvos module.

All library-raised errors derive from LsvosError so callers can catch one
type at the boundary.  Each subclass also inherits the matching builtin so
existing ``except ValueError`` style handlers keep working.
"""


class LsvosError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LsvosError, ValueError):
    """Malformed arguments: bad shapes, non-finite values, unknown keys."""


class NotReadyError(LsvosError, RuntimeError):
    """Operation requires state that has not been prepared yet.

    Examples: sampling from an empty feature queue, a run configured to
    synthesize latent-space outliers before any reconstruction epoch.
    """


class NumericalFailure(LsvosError, ArithmeticError):
    """NaN/Inf appeared during computation, or an iteration diverged."""


class UndefinedMetricError(LsvosError, ValueError):
    """A metric is undefined for the given inputs (e.g. single-class AUROC)."""
