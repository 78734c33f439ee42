"""Steady-state solvers: direct linear solve and adaptive time evolution.

Both report the same three-way verdict: ``converged`` (a physical NESS
was found), ``diverged`` (the device is insulating and piles up
particles forever), or ``max-time-exceeded`` (evolution hit its cutoff
without either verdict).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    DimensionMismatchError,
    IntegrationError,
    PhysicalityError,
    TrajectoryTooShortError,
    UnphysicalSolutionError,
)
from .generator import (
    REDUCED,
    Generator,
    _hermitian_coords,
    apply_generator,
    empty_state,
    real_linear_system,
)

log = logging.getLogger("dephnet.steady_state")

CONVERGED = "converged"
DIVERGED = "diverged"
MAX_TIME_EXCEEDED = "max-time-exceeded"

#: Trailing-window trace slope (particles per unit time) above which a
#: trajectory counts as growing without saturation.
SLOPE_MIN = 0.01

HERMITICITY_TOL = 1e-10
MIN_EIGENVALUE_TOL = -1e-8
POPULATION_TOL = -1e-10
#: Relative to max(1, largest coordinate of the direct solution).
FLUX_TOL = 1e-8
#: Normwise relative backward error above which the direct solution is
#: inconsistent, i.e. the device diverges.
BACKWARD_ERROR_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution of the master equation.

    times start at 0 and increase strictly; trace_series holds the total
    particle number at each sample.
    """

    times: np.ndarray
    states: list
    trace_series: np.ndarray


@dataclass(frozen=True, eq=False)
class SteadyStateResult:
    status: str
    rho_ness: np.ndarray | None
    residual: float
    method: str
    elapsed_model_time: float | None = None

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def _check_state_physical(rho: np.ndarray, where: str) -> None:
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > HERMITICITY_TOL:
        raise PhysicalityError(f"Hermiticity deviation {herm:.3e} {where}")
    diag = np.diag(rho).real
    if diag.min() < POPULATION_TOL:
        raise PhysicalityError(f"negative population {diag.min():.3e} {where}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if min_eig < MIN_EIGENVALUE_TOL:
        raise PhysicalityError(f"negative eigenvalue {min_eig:.3e} {where}")


def evolve(g: Generator, rho0: np.ndarray, t_end: float,
           rtol: float = 1e-9, atol: float = 1e-12,
           samples: int = 201, t_offset: float = 0.0,
           check_physicality: bool = True) -> Trajectory:
    """Integrate drho/dt = g(rho) from 0 to t_end.

    Uses an explicit embedded Runge-Kutta pair (RK45) with the given
    local error tolerances. The state is integrated in Hermitian
    coordinates (populations plus upper-triangle coherences), so the
    trajectory is exactly Hermitian by construction; the generator
    preserves that subspace, making the restriction lossless. The
    returned trajectory is sampled on a uniform grid of `samples` points
    and each sampled state is checked against the density-matrix
    invariants (smallest eigenvalue above -1e-8, populations
    non-negative) unless `check_physicality` is disabled.

    t_offset only shifts the reported times; integration always starts
    at the supplied state.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (g.dim, g.dim):
        raise DimensionMismatchError(
            f"initial state shape {rho0.shape} does not match dim {g.dim}")
    herm0 = float(np.abs(rho0 - rho0.conj().T).max())
    if herm0 > HERMITICITY_TOL:
        raise PhysicalityError(
            f"initial state is not Hermitian (deviation {herm0:.3e})")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    pack, unpack = _hermitian_coords(g.dim)

    if g.form == REDUCED:
        # linear in the real coordinates too: precompute the real matrix
        # once, then each evaluation is a single real matrix-vector product
        a, b = real_linear_system(g)

        def rhs(_t, y):
            return a @ y + b
    else:
        def rhs(_t, y):
            return pack(apply_generator(g, unpack(y)))

    t_eval = np.linspace(0.0, t_end, samples)
    sol = solve_ivp(rhs, (0.0, t_end), pack(rho0),
                    method="RK45", t_eval=t_eval, rtol=rtol, atol=atol)
    if not sol.success:
        raise IntegrationError(f"integrator failed: {sol.message}")
    states = [unpack(sol.y[:, i]) for i in range(sol.y.shape[1])]
    if check_physicality:
        for t, rho in zip(sol.t, states):
            _check_state_physical(rho, f"at t={t_offset + t:.6g}")
    trace = np.array([np.trace(rho).real for rho in states])
    return Trajectory(times=sol.t + t_offset, states=states, trace_series=trace)


def solve_ness_direct(g: Generator) -> SteadyStateResult:
    """Stationary point of the generator, restricted to Hermitian states.

    Solved by singular-value decomposition of the real system
    a y + b = 0 of real_linear_system, in which the answer is exactly
    Hermitian. A plain solve would return an arbitrary null-space
    admixture where the generator is singular (some devices at delta = 0).

    The verdict rests on the normwise relative backward error
    eta = |a y + b| / (|a| |y| + |b|) in the infinity norm (Rigal &
    Gaches, 1967) of the minimum-norm solution y. Conducting devices
    reach rounding level (below 1e-15) however large y grows with delta
    or 1/delta; eta above BACKWARD_ERROR_TOL means the injected flux has
    nowhere to go and the device diverges. The condition number grows
    like max(delta, 1/delta)^2, so the state is accurate to about
    eps * max(delta, 1/delta)^2 relative. For delta > 0 the steady state
    of a connected device is unique, so a singular value lost to
    rounding (once max(delta, 1/delta)^2 approaches 1/eps) raises
    UnphysicalSolutionError instead of returning a verdict.

    When the system is consistent but singular at delta = 0 (dark modes
    decoupled from source and sink, e.g. parallel branches), the
    stationary state is not unique; the solver returns the one the
    dynamics actually reach from the canonical empty device. That state
    is pinned by conservation laws: each left null vector w of the
    generator makes w . y a constant of motion, so the reachable steady
    state keeps those components at their initial (zero) values.
    """
    a, b = real_linear_system(g)
    u, s, vt = np.linalg.svd(a)
    kept = s > s[0] * max(a.shape) * np.finfo(float).eps
    if g.rates.gamma_D > 0 and not kept.all():
        raise UnphysicalSolutionError(
            f"stationary system at delta = {g.rates.gamma_D:g} is singular "
            f"to working precision: its condition number, which grows like "
            f"max(delta, 1/delta)^2, has reached 1/eps")
    norm_a = float(np.abs(a).sum(axis=1).max())

    def backward_error(y):
        residual = float(np.abs(a @ y + b).max())
        return residual, residual / (norm_a * np.abs(y).max() + np.abs(b).max())

    # minimum-norm solution of a y = -b
    y = vt[kept].T @ ((u[:, kept].T @ -b) / s[kept])
    residual, eta = backward_error(y)
    if eta <= BACKWARD_ERROR_TOL and not kept.all():
        u0, v0 = u[:, ~kept], vt[~kept].T
        try:
            # conserved components are zero from the empty start
            z = np.linalg.solve(u0.T @ v0, u0.T @ -y)
        except np.linalg.LinAlgError as exc:
            raise UnphysicalSolutionError(
                "stationary system is consistent but its zero mode is "
                "defective; no steady state is reachable") from exc
        y = y + v0 @ z
        residual, eta = backward_error(y)
    if eta > BACKWARD_ERROR_TOL:
        return SteadyStateResult(DIVERGED, None, residual, "direct")
    rho = _hermitian_coords(g.dim)[1](y)
    sink_pop = rho[g.circuit.sink, g.circuit.sink].real
    expected = g.rates.source_flux / g.rates.gamma_bath
    try:
        _check_state_physical(rho, "in direct NESS")
    except PhysicalityError as exc:
        raise UnphysicalSolutionError(
            f"stationary system solvable (residual {residual:.3e}) but the "
            f"minimum-norm solution is unphysical: {exc}") from exc
    if abs(sink_pop - expected) > FLUX_TOL * max(1.0, float(np.abs(y).max())):
        raise UnphysicalSolutionError(
            f"stationary solution violates flux balance: sink population "
            f"{sink_pop:.12f} vs expected {expected}")
    return SteadyStateResult(CONVERGED, rho, residual, "direct")


def solve_ness_by_evolution(g: Generator, tol: float = 1e-9,
                            t_max: float = 1e4, rho0: np.ndarray | None = None,
                            window: float = 20.0, samples_per_window: int = 81,
                            rtol: float = 1e-9, atol: float = 1e-12,
                            ) -> SteadyStateResult:
    """Integrate from rho0 (empty device by default) until stationary.

    Convergence is declared when the max-norm of drho/dt falls to `tol`;
    divergence when the trailing trace slope keeps growing past
    SLOPE_MIN with a non-decreasing derivative norm (see
    detect_divergence); otherwise the t_max cutoff yields
    ``max-time-exceeded``.

    Strong dephasing makes the generator stiff for an explicit stepper:
    near the steady state the step-size control hovers at the stability
    boundary and the residual plateaus around the local error tolerance.
    When a window fails to improve the residual, rtol/atol are tightened
    a hundredfold (down to 1e-13/1e-16) instead of switching schemes.
    """
    if tol <= 0:
        raise ValueError("stationarity tolerance must be positive")
    rho = empty_state(g) if rho0 is None else np.asarray(rho0, dtype=complex)
    t = 0.0
    times = [np.array([0.0])]
    traces = [np.array([np.trace(rho).real])]
    all_states = [rho]
    prev_residual = np.inf
    while t < t_max:
        span = min(window, t_max - t)
        traj = evolve(g, rho, span, rtol=rtol, atol=atol,
                      samples=samples_per_window, t_offset=t)
        rho = traj.states[-1]
        t += span
        times.append(traj.times[1:])
        traces.append(traj.trace_series[1:])
        all_states.extend(traj.states[1:])
        residual = float(np.abs(apply_generator(g, rho)).max())
        if residual <= tol:
            return SteadyStateResult(CONVERGED, rho, residual, "evolution",
                                     elapsed_model_time=t)
        full = Trajectory(np.concatenate(times), all_states,
                          np.concatenate(traces))
        if full.times[-1] >= 2 * window and detect_divergence(full, window):
            return SteadyStateResult(DIVERGED, None, residual, "evolution",
                                     elapsed_model_time=t)
        if residual > 0.5 * prev_residual and rtol > 1e-13:
            rtol = max(rtol * 1e-2, 1e-13)
            atol = max(atol * 1e-2, 1e-16)
            log.debug("residual stalled at %.3e by t=%.3g; tightening "
                      "step control to rtol=%g atol=%g", residual, t,
                      rtol, atol)
        prev_residual = residual
    residual = float(np.abs(apply_generator(g, rho)).max())
    return SteadyStateResult(MAX_TIME_EXCEEDED, None, residual, "evolution",
                             elapsed_model_time=t)


def detect_divergence(traj: Trajectory, window: float) -> bool:
    """True iff the trajectory is growing without saturation.

    Two conditions, both over trailing windows of the given time span:
    the least-squares slope of the total particle number over the last
    window exceeds SLOPE_MIN, and the max-norm of drho/dt (estimated by
    finite differences) did not decrease from the previous window to the
    last one. The second condition guards against slow transients that
    still carry a large trace slope while relaxing.
    """
    times = traj.times
    if times[-1] - times[0] < 2 * window:
        raise TrajectoryTooShortError(
            f"trajectory spans {times[-1] - times[0]:.3g} time units, "
            f"need at least two windows of {window:.3g}")
    t_end = times[-1]
    last = times >= t_end - window
    slope = np.polyfit(times[last], traj.trace_series[last], 1)[0]
    if slope <= SLOPE_MIN:
        return False

    # finite-difference derivative norm, attributed to interval midpoints
    mids, norms = [], []
    for i in range(len(times) - 1):
        dt = times[i + 1] - times[i]
        if dt <= 0:
            continue
        mids.append(0.5 * (times[i] + times[i + 1]))
        norms.append(np.abs(traj.states[i + 1] - traj.states[i]).max() / dt)
    mids = np.array(mids)
    norms = np.array(norms)
    in_last = mids >= t_end - window
    in_prev = (mids >= t_end - 2 * window) & (mids < t_end - window)
    if not in_last.any() or not in_prev.any():
        raise TrajectoryTooShortError("too few samples per analysis window")
    last_norm = norms[in_last].max()
    prev_norm = norms[in_prev].max()
    return bool(last_norm >= prev_norm * (1.0 - 1e-9))
