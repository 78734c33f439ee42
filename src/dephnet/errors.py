"""Exception types shared across the package, and the two rules every
count, time and tolerance a caller passes in is checked by."""
from math import inf

import numpy as np


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
    """An empty candidate family, or a graph enumeration past the
    7-site atlas."""


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
    """A window given to divergence detection lacks two samples at
    strictly increasing times."""


class UsageError(DephnetError, ValueError):
    """Bad command-line input."""


def require_count(value, name: str, minimum: int, error=UsageError) -> int:
    """`value` as an int if it is a Python or numpy integer, not a bool,
    of at least `minimum`; otherwise raise `error`, naming `name`."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise error(f"{name} must be an integer of at least {minimum}, "
                    f"got {value!r}")
    return int(value)


def require_positive(value, name: str) -> None:
    """Raise UsageError, naming `name`, unless 0 < value < inf (so NaN
    is refused too)."""
    if not 0 < value < inf:
        raise UsageError(f"{name} must be positive and finite, got {value}")
