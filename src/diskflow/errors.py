"""Exception taxonomy shared by all diskflow modules."""


class DiskflowError(Exception):
    """Base class for all library errors."""


class DomainError(DiskflowError):
    """An argument lies outside the mathematical domain of the operation."""


class AtomAtPoint(DiskflowError):
    """A boundary functional was requested at a point carrying an atom."""


class QuadratureFailure(DiskflowError):
    """Adaptive quadrature could not reach the requested accuracy."""


class DegenerateConfig(DiskflowError):
    """The fixed-point configuration does not support the requested object."""


class DivisionByZero(DiskflowError):
    """A chart or functional is undefined at zero."""


class StepFailure(DiskflowError):
    """The ODE error controller stalled before reaching the target time."""


class BoundaryEscape(DiskflowError):
    """Numerical state reached the boundary guard; integration aborted."""


class ExtrapolationDivergence(DiskflowError):
    """Successive extrapolants failed the Cauchy criterion."""


class NormalizationError(DiskflowError):
    """A normalization constraint (unit sum, strict class membership) fails."""


class WeightError(DiskflowError):
    """Probability weights are negative or do not sum to one."""


class TargetMismatch(DiskflowError):
    """A field does not realize the prescribed boundary derivatives."""
