"""Exception hierarchy shared by all solvers."""


class TransoptError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(TransoptError):
    """Malformed instance data."""


class DisconnectedTreeError(ValidationError):
    """Edge list does not connect all vertices."""


class CycleError(ValidationError):
    """Edge list contains a cycle."""


class NegativeLengthError(ValidationError):
    """An edge length is negative."""


class InvalidPolygonError(ValidationError):
    """Vertex ring is not a counterclockwise simple polygon."""


class InfeasibleError(TransoptError):
    """No physically valid plan exists for the given parameters."""


class PlanInfeasibleError(TransoptError):
    """A concrete trip plan violates a tank or fuel constraint.

    Carries the index of the offending segment and a description of the
    violated constraint.
    """

    def __init__(self, segment, reason):
        super().__init__(f"segment {segment}: {reason}")
        self.segment = segment
        self.reason = reason


class BudgetUnreachableError(TransoptError):
    """Subdivision refinement hit its cap without meeting the budget.

    ``best_k`` / ``best_value`` record the closest result found; ``best_k``
    is None when the budget is below the continuous optimum ``best_value``.
    """

    def __init__(self, best_k, best_value):
        at = "the continuous optimum" if best_k is None else f"k={best_k}"
        super().__init__(f"budget not reached; best value {best_value} at {at}")
        self.best_k = best_k
        self.best_value = best_value


class SizeLimitError(TransoptError):
    """Instance exceeds the hard size limit of a brute-force oracle."""
