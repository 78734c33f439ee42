"""Exception types shared across the package."""


class DephnetError(Exception):
    """Base class for all package-specific errors."""


class GraphConstructionError(DephnetError, ValueError):
    """Invalid graph input: bad endpoint, duplicate edge, self-loop, or
    a disconnected result."""


class CircuitFileError(DephnetError, ValueError):
    """Malformed circuit definition file."""


class UnknownCircuitError(DephnetError, ValueError):
    """A builtin circuit name that is not in the registry."""


class CalibrationNotRunError(DephnetError, RuntimeError):
    """A calibrated constructor was asked for a topology whose definition
    file carries no record of a completed calibration."""


class CalibrationError(DephnetError, ValueError):
    """Empty candidate family or a target that no candidate can satisfy."""


class DimensionMismatchError(DephnetError, ValueError):
    """State dimension does not match the generator."""


class UnsupportedFormError(DephnetError, TypeError):
    """Operation not defined for this generator form: real_linear_system
    writes the reduced form only. The explicit-bath form gets its matrix
    by probing its own map, so it stays an independent check of the
    reduced form's matrix."""


class PhysicalityError(DephnetError, ValueError):
    """A state violated Hermiticity or positivity beyond tolerance."""


class UnphysicalSolutionError(DephnetError, RuntimeError):
    """The direct solver has no trustworthy answer: its linear algebra is
    too ill-conditioned for working precision, or the solution is not a
    stationary, physical density matrix. Reported distinctly from a
    genuine divergence verdict."""


class IndeterminateResultError(DephnetError, RuntimeError):
    """A transport quantity was requested from a solve that hit its time
    cutoff without either converging or diverging."""


class NoSignChangeError(DephnetError, ValueError):
    """Bisection bracket does not straddle a sign change, or the function
    is not finite at an endpoint or a midpoint, so the side of the sign
    change it lies on is unknown."""


class TrajectoryTooShortError(DephnetError, ValueError):
    """Divergence detection needs at least two analysis windows."""


class UsageError(DephnetError, ValueError):
    """Bad command line or config-file input."""
