"""Exception hierarchy shared by all qrepeater modules."""


class RepeaterError(Exception):
    """Base class for all package errors."""


class ValidationError(RepeaterError, ValueError):
    """A parameter or state violates its domain (CLI exit code 2)."""


class InfeasibleError(RepeaterError):
    """The requested protocol cannot succeed at these parameters (CLI exit code 3).

    ``level`` is the nesting level at which a repeater run failed; ``simulate``
    sets it on every such error it raises, and it stays ``None`` elsewhere.
    """

    level: int | None = None


class PurificationImpossibleError(InfeasibleError):
    """The purification map has no fixed points: it lies below the diagonal everywhere."""


class BelowThresholdError(InfeasibleError):
    """The connected fidelity fell at or below the lower purification fixed point."""


class WorkingFidelityUnreachableError(InfeasibleError):
    """Purification converges below the requested working fidelity."""


class AuxPurificationError(InfeasibleError):
    """Pumping with a constant-fidelity auxiliary pair cannot reach the working fidelity."""


class DegeneratePostSelectionError(InfeasibleError):
    """Post-selection kept essentially zero probability mass."""


class NumericError(RepeaterError):
    """A numerical procedure failed in a way that is not a physical infeasibility."""
