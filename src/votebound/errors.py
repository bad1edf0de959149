"""Exception types shared across the package.

Each class carries a stable ``code`` slug that the CLI emits in
machine-readable error JSON.
"""


class VoteboundError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class DimensionError(VoteboundError):
    """Operands have incompatible shapes or lengths."""

    code = "dimension_error"


class InfeasibleConstraint(VoteboundError):
    """The correlation constraint exceeds what any label vector can deliver."""

    code = "infeasible_constraint"


class DegenerateBound(VoteboundError):
    """The correlation bound is nonpositive, so the game is undefined."""

    code = "degenerate_bound"


class InvalidCost(VoteboundError):
    """The abstain cost must be positive and finite."""

    code = "invalid_cost"


class InfiniteDivergence(VoteboundError):
    """KL divergence is infinite for the given pair of distributions."""

    code = "infinite_divergence"
