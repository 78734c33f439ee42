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


def relative_entropy_coherence(rho: np.ndarray) -> float | np.ndarray:
    """S(rho || sigma) with sigma the dephased (diagonal) counterpart.

    rho is one state (n, n), which gives a float, or a stack (k, n, n),
    which gives an array of k values; a single state is a stack of one,
    and each value of a stack is the value of its state alone. The
    stack takes one batched eigendecomposition rho = U diag(lam) U^+.
    With the populations p = diag(rho), the value is the Bregman sum

        S = sum_{i,a} |U_ia|^2 p_i h(lam_a / p_i),  h(t) = t ln t - t + 1,

    which equals sum(lam ln lam) - sum(p ln p) but sums terms that are
    all >= 0, so nothing cancels when S is small against tr rho (strong
    dephasing). t is formed before h is taken, as the difference
    ln lam - ln p cancels; h(0) = 1, each h is clamped at 0 against
    rounding, and a site with p_i <= 0 adds nothing.

    At extreme dephasing the state's own rounding, about delta eps
    relative, swamps the Bregman sum. So for each state whose expansion
    in the coherences has converged to rounding, the second-order sum
    (see _second_order_coherence) is taken instead; elsewhere the value
    is the Bregman sum, bit for bit. Zero iff rho is already diagonal.

    An input that is not a non-empty square matrix, or a stack of them,
    raises DimensionMismatchError; then a state with a NaN or infinite
    entry is refused, as no comparison with NaN fails. Hermiticity and
    eigenvalues are judged relative to scale = max(1, tr rho) of each
    state; small negative eigenvalues from rounding count as 0.
    """
    rho = np.asarray(rho, dtype=complex)
    if (rho.ndim not in (2, 3) or rho.shape[-2] != rho.shape[-1]
            or not rho.size):
        raise DimensionMismatchError(
            f"state must be a non-empty square matrix or a stack of them, "
            f"got shape {rho.shape}")
    states = rho if rho.ndim == 3 else rho[None]

    def where(i: int) -> str:
        return f" (state {i} of the stack)" if rho.ndim == 3 else ""

    finite = np.isfinite(states).all(axis=(-2, -1))
    if not finite.all():
        raise PhysicalityError("NaN or infinite entry in the state"
                               + where(int(np.argmin(finite))))
    diag = np.diagonal(states, axis1=-2, axis2=-1).real
    scale = np.maximum(1.0, diag.sum(axis=-1))
    herm = np.abs(states - states.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    bad = herm > HERMITICITY_TOL * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise PhysicalityError(f"state is not Hermitian (deviation "
                               f"{herm[i]:.3e} at scale {scale[i]:.3e})"
                               + where(i))
    lam, u = np.linalg.eigh(states)
    bad = lam[:, 0] < MIN_EIGENVALUE_TOL * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise PhysicalityError(
            f"negative eigenvalue {lam[i, 0]:.3e} beyond tolerance at scale "
            f"{scale[i]:.3e}" + where(i))
    occupied = diag > 0
    p = np.where(occupied, diag, 1.0)[..., None]
    t = np.maximum(lam, 0.0)[:, None, :] / p
    # t is a float, so t - 1 is exact for t in [1/2, 2] (Sterbenz) and
    # ln t there is as accurate as log1p(t - 1). From delta ~ 1e305 on
    # t ln t overflows, and inf * 0 is NaN; the second-order sum below
    # replaces those states
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.maximum(t * np.log(np.where(t > 0, t, 1.0)) - (t - 1.0), 0.0)
        terms = np.abs(u) ** 2 * p * h * occupied[..., None]
    values = terms.sum(axis=(-2, -1))
    strong = _second_order_coherence(states, diag)
    values = np.where(np.isnan(strong), values, strong)
    return values if rho.ndim == 3 else float(values[0])


def _second_order_coherence(states: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per state of the stack, the second-order sum

        S2 = (1/2) sum_{i != j} |rho_ij|^2 (ln p_i - ln p_j) / (p_i - p_j)

    where the rest of the expansion of S in the coherences is provably
    below eps S2, and NaN elsewhere; p holds the populations.

    With rho = D + X (D = diag(p), X the coherences), S = tr f(D + X) -
    tr f(D) for f(x) = x ln x, and its term of order m is
    (1/m) sum f'^[m-1](p_i1, ..., p_im) X_i1i2 ... X_imi1 in divided
    differences of f' = ln + 1. From ln x = int_0^inf (1/(1+s) -
    1/(x+s)) ds, S2 = (1/2) int |Z_s|_F^2 ds with Z_s = R X R,
    R = (D + s)^(-1/2), and with Y = D^(-1/2) X D^(-1/2), y = |Y|_F:

    - order 3: by Hoelder over s, at most (1/6) tr(M^3) with
      M_ij = |Y_ij| (p_i p_j)^(1/6); it is 0 for two sites;
    - order m >= 4: at most (2/m) y^(m-2) S2, so together at most
      (1/2) y^2 / (1 - y) S2.

    The second-order sum is taken where the sum of the two bounds is
    below eps S2. Every p_i must be positive. For wire2 at dephasing
    delta, y^2 is about 1/delta, so it is taken from delta ~ 1e16.
    """
    n = states.shape[-1]
    eps = np.finfo(float).eps
    out = np.full(len(states), np.nan)
    positive = (p > 0).all(axis=-1)
    root = np.sqrt(np.where(positive[:, None], p, 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        y_abs = np.abs(states) / root[:, :, None] / root[:, None, :]
        y_abs[:, range(n), range(n)] = 0.0
        y = np.sqrt((y_abs * y_abs).sum(axis=(-2, -1)))
    # necessary: the order >= 4 bound alone is below eps
    for i in np.flatnonzero(positive & (0.5 * y * y < eps * (1.0 - y))):
        pi, pj = p[i][:, None], p[i][None, :]
        hi, lo = np.maximum(pi, pj), np.minimum(pi, pj)
        gap = hi - lo  # exact where hi <= 2 lo (Sterbenz)
        coherence = np.abs(states[i])
        coherence[range(n), range(n)] = 0.0
        c = p[i] ** (1.0 / 6.0)
        m = c[:, None] * y_abs[i] * c[None, :]
        # a ratio that overflows makes s2 inf or NaN, and the test fails
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = hi / lo
            log_ratio = np.where(ratio <= 2.0, np.log1p(gap / lo), np.log(ratio))
            coefficient = np.where(gap > 0, log_ratio / gap, 1.0 / hi)
            s2 = 0.5 * float((coherence * coherence * coefficient).sum())
        third = float((m * (m @ m)).sum()) / 6.0
        if third + 0.5 * y[i] ** 2 / (1.0 - y[i]) * s2 < eps * s2:
            out[i] = s2
    return out
