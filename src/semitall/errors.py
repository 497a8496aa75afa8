"""Shared exception types."""


class ChartViolationError(RuntimeError):
    """An affine-chart inversion hit a singular or ill-conditioned block."""


class DegenerateStartError(RuntimeError):
    """The start system is unusable: the b chart's vector is nearly
    orthogonal to a start kernel, so that start point has no image on the
    chart, or a start row fails the audit of the identity homotopy's
    endpoints (``solver.start_solutions``)."""


class ResourceLimitError(RuntimeError):
    """A requested enumeration exceeds its hard budget."""


# Path failure reasons reported by the tracker.
PATH_STALL = "PATH_STALL"
# The tracker never reports this one; perfbench/bench.py tallies it in FAIL_REASONS.
PATH_DIVERGE = "PATH_DIVERGE"
AT_INFINITY = "AT_INFINITY"
CHART_ESCAPE = "CHART_ESCAPE"
WARN_MULTIPLICITY = "WARN_MULTIPLICITY"


class PathError(RuntimeError):
    """A continuation path could not be completed.

    The ``reason`` attribute carries one of the module-level reason codes.
    """

    def __init__(self, reason: str, message: str = ""):
        super().__init__(message or reason)
        self.reason = reason
