"""Steady-state solvers: direct linear solve and time evolution.

Both report the same three-way verdict: ``converged`` (a physical NESS
was found), ``diverged`` (the device is insulating and piles up
particles forever), or ``max-time-exceeded`` (evolution hit its cutoff
without either verdict).

scipy is imported where it is called, by the matrix exponential of
the evolution solver and by the RK45 integrator, so a direct solve
runs on numpy alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    IntegrationError,
    PhysicalityError,
    TrajectoryTooShortError,
    UnphysicalSolutionError,
    UsageError,
)
from .generator import (
    GAMMA_BATH,
    REDUCED,
    SOURCE_FLUX,
    Generator,
    _hermitian_coords,
    apply_generator,
    empty_state,
    real_linear_system,
)

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

#: Time span of one evolution window, and the samples taken in it: the
#: evolution solver checks stationarity once per window, and
#: detect_divergence compares the last two windows.
WINDOW = 20.0
SAMPLES_PER_WINDOW = 81

#: Local error tolerances of the RK45 integrator of the explicit-bath form.
RK45_RTOL = 1e-9
RK45_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution of the master equation.

    times increase strictly; states is a (samples, dim, dim) stack (a
    list of dim x dim matrices is accepted too).
    """

    times: np.ndarray
    states: np.ndarray

    @property
    def trace_series(self) -> np.ndarray:
        """Total particle number at each sample."""
        return _trace(np.asarray(self.states))


@dataclass(frozen=True, eq=False)
class SteadyStateResult:
    """Verdict of a steady-state solve.

    residual is the absolute max-norm of the stationarity defect: |a y + b|
    in the real coordinates for the direct solver, |drho/dt| at the last
    sample for evolution. backward_error is the normwise relative backward
    error on which the direct solver bases its verdict; evolution leaves
    it None.
    """

    status: str
    rho_ness: np.ndarray | None
    residual: float
    method: str
    elapsed_model_time: float | None = None
    backward_error: float | None = None

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def _check_physical(states: np.ndarray, where) -> None:
    """Raise PhysicalityError for the first state of the (k, dim, dim)
    stack that is not a density matrix; where(i) places state i."""
    adjoint = states.conj().swapaxes(-1, -2)
    herm = np.abs(states - adjoint).max(axis=(-2, -1))
    pops = np.diagonal(states, axis1=-2, axis2=-1).real.min(axis=-1)
    eigs = np.linalg.eigvalsh(0.5 * (states + adjoint)).min(axis=-1)
    bad = ((herm > HERMITICITY_TOL) | (pops < POPULATION_TOL)
           | (eigs < MIN_EIGENVALUE_TOL))
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if herm[i] > HERMITICITY_TOL:
        raise PhysicalityError(f"Hermiticity deviation {herm[i]:.3e} {where(i)}")
    if pops[i] < POPULATION_TOL:
        raise PhysicalityError(f"negative population {pops[i]:.3e} {where(i)}")
    raise PhysicalityError(f"negative eigenvalue {eigs[i]:.3e} {where(i)}")


def _initial_coords(g: Generator, rho0) -> np.ndarray:
    """Real coordinates of a Hermitian initial state of the right shape."""
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (g.dim, g.dim):
        raise DimensionMismatchError(
            f"initial state shape {rho0.shape} does not match dim {g.dim}")
    herm0 = float(np.abs(rho0 - rho0.conj().T).max())
    if herm0 > HERMITICITY_TOL:
        raise PhysicalityError(
            f"initial state is not Hermitian (deviation {herm0:.3e})")
    return _hermitian_coords(g.dim)[0](rho0)


def _propagator(a: np.ndarray, b: np.ndarray, dt: float):
    """Exact step y(t + dt) = f y(t) + c of dy/dt = a y + b: the blocks of
    expm([[a dt, b dt], [0, 0]]) (Moler & Van Loan, 2003)."""
    from scipy.linalg import expm

    m = len(b)
    augmented = np.zeros((m + 1, m + 1))
    augmented[:m, :m] = a * dt
    augmented[:m, m] = b * dt
    e = expm(augmented)
    return e[:m, :m], e[:m, m]


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call: the
    explicit-bath form of evolve is its only user, so a process that
    never integrates that form does not pay for the import. Kept at
    module level under scipy's name so that bench/tracer.py can rebind
    it."""
    from scipy.integrate import solve_ivp as integrate

    return integrate(*args, **kwargs)


def _advance(f: np.ndarray, c: np.ndarray, y0: np.ndarray,
             steps: int) -> np.ndarray:
    """(steps + 1, m) samples of y -> f y + c from y0, y0 included."""
    ys = np.empty((steps + 1, len(y0)))
    ys[0] = y0
    for i in range(steps):
        ys[i + 1] = f @ ys[i] + c
    return ys


def _trace(states: np.ndarray) -> np.ndarray:
    return np.trace(states, axis1=-2, axis2=-1).real


def evolve(g: Generator, rho0: np.ndarray, t_end: float,
           samples: int = 201) -> Trajectory:
    """Integrate drho/dt = g(rho) from 0 to t_end.

    The state lives in Hermitian coordinates (populations plus
    upper-triangle coherences), so the trajectory is exactly Hermitian by
    construction; the generator preserves that subspace, making the
    restriction lossless. The reduced form is affine with constant
    coefficients, dy/dt = a y + b, and is advanced by its exact
    propagator over the sample spacing. The explicit-bath form clamps
    the bath at every evaluation; that map is affine as well, but it is
    integrated on purpose by an explicit embedded Runge-Kutta pair
    (RK45) to the local error tolerances RK45_RTOL and RK45_ATOL, so that
    acceptance criterion 13 compares two independent integrators.

    The returned trajectory is sampled on a uniform grid of `samples`
    points from 0 to t_end and each sampled state is checked against the
    density-matrix invariants (smallest eigenvalue above -1e-8,
    populations non-negative).
    """
    y0 = _initial_coords(g, rho0)
    if not 0 < t_end < np.inf:
        raise UsageError(f"t_end must be positive and finite, got {t_end}")
    if samples < 1:
        raise UsageError(f"samples must be positive, got {samples}")
    pack, unpack = _hermitian_coords(g.dim)
    t_eval = np.linspace(0.0, t_end, samples)
    if g.form == REDUCED:
        step = _propagator(*real_linear_system(g), t_end / max(samples - 1, 1))
        ys = _advance(*step, y0, samples - 1)
    else:
        def rhs(_t, y):
            return pack(apply_generator(g, unpack(y)))

        sol = solve_ivp(rhs, (0.0, t_end), y0, method="RK45", t_eval=t_eval,
                        rtol=RK45_RTOL, atol=RK45_ATOL)
        if not sol.success:
            raise IntegrationError(f"integrator failed: {sol.message}")
        ys = sol.y.T
    states = unpack(ys)
    _check_physical(states, lambda i: f"at t={t_eval[i]:.6g}")
    return Trajectory(times=t_eval, states=states)


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
    if g.delta > 0 and not kept.all():
        raise UnphysicalSolutionError(
            f"stationary system at delta = {g.delta:g} is singular "
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
        return SteadyStateResult(DIVERGED, None, residual, "direct",
                                 backward_error=eta)
    rho = _hermitian_coords(g.dim)[1](y)
    sink_pop = rho[g.circuit.sink, g.circuit.sink].real
    expected = SOURCE_FLUX / GAMMA_BATH
    try:
        _check_physical(rho[None], lambda _i: "in direct NESS")
    except PhysicalityError as exc:
        raise UnphysicalSolutionError(
            f"stationary system solvable (residual {residual:.3e}) but the "
            f"minimum-norm solution is unphysical: {exc}") from exc
    if abs(sink_pop - expected) > FLUX_TOL * max(1.0, float(np.abs(y).max())):
        raise UnphysicalSolutionError(
            f"stationary solution violates flux balance: sink population "
            f"{sink_pop:.12f} vs expected {expected}")
    return SteadyStateResult(CONVERGED, rho, residual, "direct",
                             backward_error=eta)


def solve_ness_by_evolution(g: Generator, tol: float = 1e-9,
                            t_max: float = 1e4, rho0: np.ndarray | None = None,
                            ) -> SteadyStateResult:
    """Evolve the reduced form from rho0 (empty device by default) until
    stationary.

    The real system of real_linear_system is built once, and every
    window of span WINDOW is sampled at SAMPLES_PER_WINDOW points by the
    same exact propagator (a shorter last window gets its own). Each
    window's samples are checked for physicality as in evolve.
    Convergence is declared when the max-norm of drho/dt falls to `tol`;
    divergence when the trailing trace slope keeps growing past
    SLOPE_MIN with a non-decreasing derivative norm (see
    detect_divergence); otherwise the t_max cutoff yields
    ``max-time-exceeded``. Only the samples detect_divergence reads, the
    trailing two windows, are kept.
    """
    if not tol > 0:
        raise UsageError(f"stationarity tolerance must be positive, got {tol}")
    if not 0 < t_max < np.inf:
        raise UsageError(f"t_max must be positive and finite, got {t_max}")
    y = _initial_coords(g, empty_state(g) if rho0 is None else rho0)
    a, b = real_linear_system(g)
    unpack = _hermitian_coords(g.dim)[1]
    steps = SAMPLES_PER_WINDOW - 1
    propagators = {}
    t = 0.0
    times, states = np.array([0.0]), unpack(y)[None]
    while t < t_max:
        span = min(WINDOW, t_max - t)
        if span not in propagators:
            propagators[span] = _propagator(a, b, span / steps)
        ys = _advance(*propagators[span], y, steps)
        window_times = np.linspace(0.0, span, SAMPLES_PER_WINDOW) + t
        window_states = unpack(ys)
        _check_physical(window_states, lambda i: f"at t={window_times[i]:.6g}")
        y, rho = ys[-1], window_states[-1]
        t += span
        residual = float(np.abs(apply_generator(g, rho)).max())
        if residual <= tol:
            # a copy, so the result does not keep the window stack alive
            return SteadyStateResult(CONVERGED, rho.copy(), residual,
                                     "evolution", elapsed_model_time=t)
        times = np.concatenate([times, window_times[1:]])
        states = np.concatenate([states, window_states[1:]])
        # detect_divergence reads the samples from t - 2 window on; the
        # one before them only adds an interval it leaves out
        first = max(int(np.searchsorted(times, t - 2 * WINDOW)) - 1, 0)
        times, states = times[first:], states[first:]
        if t >= 2 * WINDOW and detect_divergence(Trajectory(times, states)):
            return SteadyStateResult(DIVERGED, None, residual, "evolution",
                                     elapsed_model_time=t)
    residual = float(np.abs(apply_generator(g, unpack(y))).max())
    return SteadyStateResult(MAX_TIME_EXCEEDED, None, residual, "evolution",
                             elapsed_model_time=t)


def detect_divergence(traj: Trajectory) -> bool:
    """True iff the trajectory is growing without saturation.

    Two conditions, both over trailing windows of time span WINDOW:
    the least-squares slope of the total particle number over the last
    window exceeds SLOPE_MIN, and the max-norm of drho/dt (estimated by
    finite differences) did not decrease from the previous window to the
    last one. The second condition guards against slow transients that
    still carry a large trace slope while relaxing.
    """
    times = np.asarray(traj.times)
    if times[-1] - times[0] < 2 * WINDOW:
        raise TrajectoryTooShortError(
            f"trajectory spans {times[-1] - times[0]:.3g} time units, "
            f"need at least two windows of {WINDOW:.3g}")
    t_end = times[-1]
    last = times >= t_end - WINDOW
    slope = np.polyfit(times[last], traj.trace_series[last], 1)[0]
    if slope <= SLOPE_MIN:
        return False

    # finite-difference derivative norm, attributed to interval midpoints
    # (intervals whose time does not advance are skipped)
    dt = np.diff(times)
    forward = dt > 0
    steps = np.abs(np.diff(np.asarray(traj.states), axis=0))
    norms = steps.max(axis=(-2, -1))[forward] / dt[forward]
    mids = 0.5 * (times[:-1] + times[1:])[forward]
    in_last = mids >= t_end - WINDOW
    in_prev = (mids >= t_end - 2 * WINDOW) & (mids < t_end - WINDOW)
    if not in_last.any() or not in_prev.any():
        raise TrajectoryTooShortError("too few samples per analysis window")
    last_norm = norms[in_last].max()
    prev_norm = norms[in_prev].max()
    return bool(last_norm >= prev_norm * (1.0 - 1e-9))
