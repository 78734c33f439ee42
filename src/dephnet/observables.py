"""Measured quantities: current, voltage, resistance, conductance, and
the relative-entropy gauge for coherence, summed as non-negative terms
so that it keeps its digits at strong dephasing.

The injected current SOURCE_FLUX is the unit of current (see
generator), so resistance is numerically the source-sink population
difference and conductance its inverse.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (DimensionMismatchError, IndeterminateResultError,
                     PhysicalityError)
from .generator import GAMMA_BATH, SOURCE_FLUX
from .graphs import Circuit
from .steady_state import (DIVERGED, HERMITICITY_TOL, MAX_TIME_EXCEEDED,
                           MIN_EIGENVALUE_TOL, SteadyStateResult)


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

    Computed in the Bregman form from one eigendecomposition
    rho = U diag(lam) U^+ and the populations p = diag(rho):

        S = sum_{i,a} |U_ia|^2 p_i h(lam_a / p_i),  h(t) = t ln t - t + 1,

    which equals sum(lam ln lam) - sum(p ln p) but sums terms that are
    all >= 0, so nothing cancels when S is small against tr rho (strong
    dephasing). t is formed before h is taken, as the difference
    ln lam - ln p cancels; h(0) = 1, each h is clamped at 0 against
    rounding, and a site with p_i <= 0 adds nothing. Zero iff rho is
    already diagonal. An input that is not a non-empty square matrix
    raises DimensionMismatchError; then a matrix with a NaN or infinite
    entry is refused, as no comparison with NaN fails. Hermiticity and
    eigenvalues are judged relative to scale = max(1, tr rho); small
    negative eigenvalues from rounding count as 0.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or not rho.size:
        raise DimensionMismatchError(
            f"state must be a non-empty square matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise PhysicalityError("NaN or infinite entry in the state")
    diag = np.diag(rho).real
    scale = max(1.0, float(diag.sum()))
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > HERMITICITY_TOL * scale:
        raise PhysicalityError(f"state is not Hermitian (deviation {herm:.3e} "
                               f"at scale {scale:.3e})")
    lam, u = np.linalg.eigh(rho)
    if lam.min() < MIN_EIGENVALUE_TOL * scale:
        raise PhysicalityError(
            f"negative eigenvalue {lam.min():.3e} beyond tolerance at scale "
            f"{scale:.3e}")
    occupied = diag > 0
    p = diag[occupied, None]
    t = np.maximum(lam, 0.0) / p
    # t is a float, so t - 1 is exact for t in [1/2, 2] (Sterbenz) and
    # ln t there is as accurate as log1p(t - 1)
    h = np.maximum(t * np.log(np.where(t > 0, t, 1.0)) - (t - 1.0), 0.0)
    return float(np.sum(np.abs(u[occupied]) ** 2 * p * h))
