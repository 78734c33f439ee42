"""Measured quantities: current, voltage, resistance, conductance, and
the relative-entropy gauge for coherence.

The injected current SOURCE_FLUX is the unit of current (see
generator), so resistance is numerically the source-sink population
difference and conductance its inverse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndeterminateResultError, PhysicalityError
from .generator import GAMMA_BATH, SOURCE_FLUX
from .graphs import Circuit
from .steady_state import (CONVERGED, DIVERGED, HERMITICITY_TOL,
                           MAX_TIME_EXCEEDED, MIN_EIGENVALUE_TOL,
                           SteadyStateResult)

#: Eigenvalues below this are treated as exact zeros (0 ln 0 = 0).
EIGENVALUE_FLOOR = 1e-12
#: Numerical noise allowance before clipping the entropy to zero.
ENTROPY_CLIP = -1e-9


@dataclass(frozen=True)
class TransportReading:
    current: float
    voltage: float
    resistance: float
    conductance: float
    converged: bool


@dataclass(frozen=True)
class PhysicalityReport:
    hermiticity_deviation: float
    min_eigenvalue: float
    trace: float


def current_out(rho: np.ndarray, c: Circuit) -> float:
    """Instantaneous ejection rate GAMMA_BATH * rho_kk."""
    return float(GAMMA_BATH * np.asarray(rho)[c.sink, c.sink].real)


def voltage(rho: np.ndarray, c: Circuit) -> float:
    """Population difference between source and sink."""
    rho = np.asarray(rho)
    return float(rho[c.source, c.source].real - rho[c.sink, c.sink].real)


def resistance(res: SteadyStateResult, c: Circuit) -> float:
    """R = U / I with I = SOURCE_FLUX; infinite for a diverged
    (insulating) device."""
    if res.status == MAX_TIME_EXCEEDED:
        raise IndeterminateResultError(
            "solver hit its time cutoff: neither a steady state nor a "
            "divergence verdict is certified")
    if res.status == DIVERGED:
        return math.inf
    return voltage(res.rho_ness, c) / SOURCE_FLUX


def conductance(res: SteadyStateResult, c: Circuit) -> float:
    """G = 1/R; zero for a diverged device."""
    if res.status == DIVERGED:
        return 0.0
    r = resistance(res, c)
    return math.inf if r == 0 else 1.0 / r


def transport_reading(res: SteadyStateResult, c: Circuit) -> TransportReading:
    if res.status == CONVERGED:
        return TransportReading(
            current=current_out(res.rho_ness, c),
            voltage=voltage(res.rho_ness, c),
            resistance=resistance(res, c),
            conductance=conductance(res, c),
            converged=True,
        )
    # divergence is a physical verdict, kept as tagged non-finite values
    return TransportReading(current=math.nan, voltage=math.nan,
                            resistance=resistance(res, c),
                            conductance=conductance(res, c),
                            converged=False)


def relative_entropy_coherence(rho: np.ndarray) -> float:
    """S(rho || sigma) with sigma the dephased (diagonal) counterpart.

    Computed from the eigenvalues of rho and the diagonal of rho:
    S = sum(lam ln lam) - sum(d ln d). Zero iff rho is already diagonal;
    small negative values from rounding (>= -1e-9) are clipped to 0.
    """
    rho = np.asarray(rho, dtype=complex)
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > HERMITICITY_TOL:
        raise PhysicalityError(f"state is not Hermitian (deviation {herm:.3e})")
    lam = np.linalg.eigvalsh(rho)
    if lam.min() < MIN_EIGENVALUE_TOL:
        raise PhysicalityError(
            f"negative eigenvalue {lam.min():.3e} beyond tolerance")
    diag = np.diag(rho).real
    entropy = _sum_x_ln_x(lam) - _sum_x_ln_x(diag)
    if entropy < ENTROPY_CLIP:
        raise PhysicalityError(
            f"relative entropy {entropy:.3e} below the noise allowance; "
            "eigendecomposition inconsistent")
    return max(entropy, 0.0)


def _sum_x_ln_x(values: np.ndarray) -> float:
    kept = values[values > EIGENVALUE_FLOOR]
    return float(np.sum(kept * np.log(kept)))


def physicality_report(rho: np.ndarray) -> PhysicalityReport:
    """Hermiticity deviation, smallest eigenvalue, and trace of a state."""
    rho = np.asarray(rho, dtype=complex)
    herm = float(np.abs(rho - rho.conj().T).max())
    sym = 0.5 * (rho + rho.conj().T)
    return PhysicalityReport(
        hermiticity_deviation=herm,
        min_eigenvalue=float(np.linalg.eigvalsh(sym).min()),
        trace=float(np.trace(rho).real),
    )
