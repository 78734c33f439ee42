"""Measured quantities: current, voltage, resistance, conductance, and
the relative-entropy gauge for coherence.

The injected current SOURCE_FLUX is the unit of current (see
generator), so resistance is numerically the source-sink population
difference and conductance its inverse.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import IndeterminateResultError, PhysicalityError
from .generator import GAMMA_BATH, SOURCE_FLUX
from .graphs import Circuit
from .steady_state import (DIVERGED, HERMITICITY_TOL, MAX_TIME_EXCEEDED,
                           MIN_EIGENVALUE_TOL, SteadyStateResult)

#: Eigenvalues below this are treated as exact zeros (0 ln 0 = 0).
EIGENVALUE_FLOOR = 1e-12
#: Numerical noise allowance before clipping the entropy to zero, per
#: particle: the two sums whose difference is S grow like tr(rho), and
#: so does their rounding.
ENTROPY_CLIP = -1e-9


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


def relative_entropy_coherence(rho: np.ndarray) -> float:
    """S(rho || sigma) with sigma the dephased (diagonal) counterpart.

    Computed from the eigenvalues of rho and the diagonal of rho:
    S = sum(lam ln lam) - sum(d ln d). Zero iff rho is already diagonal.
    Hermiticity, eigenvalues and S are judged relative to
    scale = max(1, tr rho), as the sums grow with the trace: small
    negative values from rounding (S >= -1e-9 scale) are clipped to 0.
    """
    rho = np.asarray(rho, dtype=complex)
    diag = np.diag(rho).real
    scale = max(1.0, float(diag.sum()))
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > HERMITICITY_TOL * scale:
        raise PhysicalityError(f"state is not Hermitian (deviation {herm:.3e} "
                               f"at scale {scale:.3e})")
    lam = np.linalg.eigvalsh(rho)
    if lam.min() < MIN_EIGENVALUE_TOL * scale:
        raise PhysicalityError(
            f"negative eigenvalue {lam.min():.3e} beyond tolerance at scale "
            f"{scale:.3e}")
    entropy = _sum_x_ln_x(lam) - _sum_x_ln_x(diag)
    if entropy < ENTROPY_CLIP * scale:
        raise PhysicalityError(
            f"relative entropy {entropy:.3e} below the noise allowance; "
            "eigendecomposition inconsistent")
    return max(entropy, 0.0)


def _sum_x_ln_x(values: np.ndarray) -> float:
    kept = values[values > EIGENVALUE_FLOOR]
    return float(np.sum(kept * np.log(kept)))

