"""Steady-state solvers: direct linear solve and time evolution.

The direct solver inverts the real system once at delta > 0 and
refines the state by one step with that inverse, and diagonalizes the
n x n operator K = H - i(g/2)|k><k| at delta = 0 (see
solve_ness_direct). Both solvers report the same three-way
verdict: ``converged`` (a physical NESS was found), ``diverged`` (the
device is insulating and piles up particles forever), or
``max-time-exceeded`` (evolution hit its cutoff without either
verdict). The evolution solver runs whole windows of span WINDOW and
judges divergence on its last two (see detect_divergence).

scipy is imported where it is called, by the matrix exponential that
both forms of evolve and the evolution solver propagate, so a direct
solve runs on numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    PhysicalityError,
    TrajectoryTooShortError,
    UnphysicalSolutionError,
    UnsupportedFormError,
    UsageError,
)
from .generator import (
    GAMMA_BATH,
    REDUCED,
    SOURCE_FLUX,
    Generator,
    _explicit_linear_system,
    _hermitian_coords,
    apply_generator,
    empty_state,
    real_linear_system,
)

CONVERGED = "converged"
DIVERGED = "diverged"
MAX_TIME_EXCEEDED = "max-time-exceeded"

#: Last-window trace slope (particles per unit time) above which a
#: trajectory counts as growing without saturation.
SLOPE_MIN = 0.01

HERMITICITY_TOL = 1e-10
MIN_EIGENVALUE_TOL = -1e-8
POPULATION_TOL = -1e-10
#: Relative to max(1, largest entry of the direct solution).
FLUX_TOL = 1e-8
#: Normwise relative backward error above which a direct solution is
#: not accepted as stationary.
BACKWARD_ERROR_TOL = 1e-10
#: Safety factor c of the forward-error estimate c kappa eps of a
#: direct solution at delta > 0 (see solve_ness_direct). Against exact
#: rational solves the true error is at most kappa eps.
FORWARD_ERROR_FACTOR = 10.0
#: At delta = 0: a mode of K with |Im lambda| at most this times
#: max(1, max |lambda|) is undamped, and the source feeds it if its
#: overlap exceeds this times the largest overlap.
UNDAMPED_TOL = 1e-9
#: At delta = 0: largest accepted cond_1(W)^2 eps, the error scale of a
#: state computed in the eigenbasis W of K.
EIGENBASIS_ERROR_TOL = 1e-8

#: Time span of one evolution window, and the samples taken in it: the
#: evolution solver runs whole windows only, checks stationarity at the
#: end of each, and detect_divergence compares the last two.
WINDOW = 20.0
SAMPLES_PER_WINDOW = 81


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
    in the real coordinates for the direct solver at delta > 0, |drho/dt|
    of the returned state for the direct solver at delta = 0 and at the
    last sample for evolution. backward_error is that defect relative to
    the size of the generator and the state, and condition the direct
    solver's condition number (see solve_ness_direct): at delta > 0 the
    componentwise kappa of its state, whose relative max-norm error is
    at most about kappa eps; evolution leaves both None.
    """

    status: str
    rho_ness: np.ndarray | None
    residual: float
    method: str
    elapsed_model_time: float | None = None
    backward_error: float | None = None
    condition: float | None = None

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def _check_physical(states: np.ndarray, where) -> None:
    """Raise PhysicalityError for the first state of the (k, dim, dim)
    stack that is not a density matrix; where(i) places state i.

    The eigenvalue test first tries a Cholesky factorization of every
    Hermitian part, shifted by tau = -MIN_EIGENVALUE_TOL / 2 (see
    _positive_by_cholesky). Only when one fails, or the entries are too
    large for that test to decide, are the eigenvalues computed, as
    without the shortcut, so each verdict and message is the same.
    """
    adjoint = states.conj().swapaxes(-1, -2)
    herm = np.abs(states - adjoint).max(axis=(-2, -1))
    pops = np.diagonal(states, axis1=-2, axis2=-1).real.min(axis=-1)
    sym = 0.5 * (states + adjoint)
    bad = (herm > HERMITICITY_TOL) | (pops < POPULATION_TOL)
    if not _positive_by_cholesky(sym):
        eigs = np.linalg.eigvalsh(sym).min(axis=-1)
        bad |= eigs < MIN_EIGENVALUE_TOL
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if herm[i] > HERMITICITY_TOL:
        raise PhysicalityError(f"Hermiticity deviation {herm[i]:.3e} {where(i)}")
    if pops[i] < POPULATION_TOL:
        raise PhysicalityError(f"negative population {pops[i]:.3e} {where(i)}")
    raise PhysicalityError(f"negative eigenvalue {eigs[i]:.3e} {where(i)}")


def _positive_by_cholesky(sym: np.ndarray) -> bool:
    """True if every Hermitian matrix of the stack provably has all its
    eigenvalues above MIN_EIGENVALUE_TOL; False means unknown.

    Cholesky succeeds on sym + tau I only if sym + tau I + E is positive
    definite for a backward error of norm |E| <= dim^2 eps max|sym|
    (Higham, 2002, thm 10.5). While that bound stays below tau / 4,
    success puts every eigenvalue of sym above -5 tau / 4, which is
    above MIN_EIGENVALUE_TOL = -2 tau.
    """
    tau = -MIN_EIGENVALUE_TOL / 2
    dim = sym.shape[-1]
    # written so that a NaN or infinite entry also declines
    if not dim * dim * np.finfo(float).eps * np.abs(sym).max() < tau / 4:
        return False
    try:
        np.linalg.cholesky(sym + tau * np.eye(dim))
    except np.linalg.LinAlgError:
        return False
    return True


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


def _block(steps: int) -> int:
    """Rows per block of _advance: ceil(sqrt(steps + 1)), which balances
    the fine steps against the block steps."""
    return math.isqrt(steps) + 1


def _propagator(a: np.ndarray, b: np.ndarray, dt: float, steps: int):
    """Exact steps of dy/dt = a y + b for _advance over `steps` steps:
    (f, c, f_block, c_block), where y(t + dt) = f y(t) + c are the blocks
    of e = expm([[a dt, b dt], [0, 0]]) (Moler & Van Loan, 2003) and
    (f_block, c_block) are those of e^B, B = _block(steps)."""
    from scipy.linalg import expm

    m = len(b)
    augmented = np.zeros((m + 1, m + 1))
    augmented[:m, :m] = a * dt
    augmented[:m, m] = b * dt
    e = expm(augmented)
    e_block = np.linalg.matrix_power(e, _block(steps))
    return e[:m, :m], e[:m, m], e_block[:m, :m], e_block[:m, m]


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call. No code of
    the package calls it: both forms of evolve use the exact propagator.
    It stays only because bench/tracer.py rebinds steady_state.solve_ivp
    by name, and a traced benchmark run fails without it."""
    from scipy.integrate import solve_ivp as integrate

    return integrate(*args, **kwargs)


def _advance(f: np.ndarray, c: np.ndarray, f_block: np.ndarray,
             c_block: np.ndarray, y0: np.ndarray, steps: int) -> np.ndarray:
    """(steps + 1, m) samples of y -> f y + c from y0, y0 included, for
    the propagator _propagator built for the same `steps`.

    The first B = _block(steps) rows are stepped one at a time; each
    later run of B rows is the run B rows earlier advanced by the
    B-fold step (f_block, c_block), one matrix product per run. A window
    of 80 steps takes 8 matrix-vector and 8 matrix-matrix products.
    """
    block = _block(steps)
    ys = np.empty((steps + 1, len(y0)))
    ys[0] = y0
    for i in range(min(block, steps + 1) - 1):
        ys[i + 1] = f @ ys[i] + c
    for k in range(block, steps + 1, block):
        end = min(k + block, steps + 1)
        ys[k:end] = ys[k - block:end - block] @ f_block.T + c_block
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
    propagator: one step per sample spacing for the first ~sqrt(samples)
    samples, then whole blocks of that many samples at once by the
    propagator's power (see _advance). The explicit-bath form clamps
    the bath; that map is affine as well, and its system is probed from
    the map itself once per call (_explicit_linear_system), not taken
    from real_linear_system, then advanced the same way. Its bath rows
    and columns are exactly zero, so every propagator step keeps the
    bath coordinates exactly at their initial values (the pinned ones,
    from empty_state). Acceptance criterion 13 compares the two
    independent generator constructions.

    The returned trajectory is sampled on a uniform grid of `samples`
    >= 2 points from 0 to t_end and each sampled state is checked
    against the density-matrix invariants (smallest eigenvalue above
    -1e-8, populations non-negative), by Cholesky factorization where
    that settles positivity and by eigenvalues otherwise (see
    _check_physical).
    """
    y0 = _initial_coords(g, rho0)
    if not 0 < t_end < np.inf:
        raise UsageError(f"t_end must be positive and finite, got {t_end}")
    if samples < 2:
        raise UsageError(f"samples must be at least 2, got {samples}")
    unpack = _hermitian_coords(g.dim)[1]
    t_eval = np.linspace(0.0, t_end, samples)
    steps = samples - 1
    system = real_linear_system(g) if g.form == REDUCED else _explicit_linear_system(g)
    ys = _advance(*_propagator(*system, t_end / steps, steps), y0, steps)
    states = unpack(ys)
    _check_physical(states, lambda i: f"at t={t_eval[i]:.6g}")
    return Trajectory(times=t_eval, states=states)


def solve_ness_direct(g: Generator) -> SteadyStateResult:
    """Stationary point of the generator, by one of two numpy-only paths.

    delta > 0: the real system a y + b = 0 of real_linear_system, in
    which the answer is exactly Hermitian, is solved by its explicit
    inverse, y = -a^-1 b, and one step of fixed-precision iterative
    refinement, y -= a^-1 (a y + b) (Higham, 2002, sec. 12.2). Forming
    a^-1 costs an LU and N right-hand sides, and the solve holds at most
    four N x N arrays at once: a, numpy's two LAPACK buffers and a^-1.
    With the residual r = a y + b of the refined state,

        kappa = | |a^-1| (|a| |y| + |b| + |r| / eps) |_inf / |y|_inf

    is the componentwise condition number of the computed state (Skeel,
    1980), which ignores the scaling of the rows (coherence rows carry
    -2 delta on the diagonal, population rows O(1)), plus the error
    a^-1 r that the residual itself carries (the bound of LAPACK's
    xGERFS; Higham, 2002, sec. 7.2). Without refinement the residual
    term leads where the solve is not componentwise stable, as on
    devices whose state has an exactly empty block for a dark mode the
    source does not feed (relative error up to 3e-2 there); the
    refinement step clears most of that error and keeps the term small.
    The relative max-norm error of the state is at most about kappa
    eps; once the estimate FORWARD_ERROR_FACTOR kappa eps reaches 1, the
    state carries no significant digit and UnphysicalSolutionError is
    raised instead. A connected device has a unique steady state here,
    so this path converges or raises. kappa stays O(10) at every delta
    on devices whose undamped modes the source feeds, and grows like
    1/delta at weak dephasing on devices with a dark mode it does not
    feed, such as parallel branches.

    delta = 0: the equation reduces to K rho - rho K^+ = -i S |s><s| with
    K = H - i(g/2)|k><k|, solved in the eigenbasis of K (see
    _solve_coherent). The device is an insulator (``diverged``) iff an
    undamped mode of K (real eigenvalue) overlaps the source; undamped
    modes the source does not feed, such as the antisymmetric modes of
    parallel branches, stay empty, which is the state the dynamics reach
    from the empty device.

    residual is the max-norm stationarity defect of the returned state
    (of the state with the insulating modes left empty, for a
    ``diverged`` verdict). backward_error is the normwise relative
    backward error (Rigal & Gaches, 1967), that defect relative to
    |L| |rho| + S in the infinity norm, with |L| = |a| at delta > 0 and
    the bound 2 |K| at delta = 0; condition is kappa at delta > 0 and
    cond_1 of the eigenvector matrix of K at delta = 0. A converged
    state must have a backward error of at most BACKWARD_ERROR_TOL and
    pass _check_physical and flux balance, or UnphysicalSolutionError
    is raised. Both paths solve the reduced form; a generator of the
    explicit-bath form raises UnsupportedFormError at every delta.
    """
    if g.form != REDUCED:
        raise UnsupportedFormError("direct solves take the reduced form only")
    if g.delta > 0:
        return _solve_dephased(g)
    return _solve_coherent(g)


def _solve_dephased(g: Generator) -> SteadyStateResult:
    """solve_ness_direct at delta > 0: y = -a^-1 b from the explicit
    inverse, one refinement step y -= a^-1 (a y + b), and from a^-1 the
    condition number kappa of the refined y."""
    a, b = real_linear_system(g)
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise UnphysicalSolutionError(
            f"stationary system at delta = {g.delta:g} is exactly singular "
            f"in floating point") from exc
    y = -(inverse @ b)
    y -= inverse @ (a @ y + b)
    defect = np.abs(a @ y + b)
    residual, scale = float(defect.max()), float(np.abs(y).max())
    # a and a^-1 are not needed again: their absolute values are taken
    # in place, so that no N x N temporary is allocated
    abs_a, abs_b = np.abs(a, out=a), np.abs(b)
    eta = residual / (float(abs_a.sum(axis=1).max()) * scale
                      + float(abs_b.max()))
    eps = np.finfo(float).eps
    cond = float((np.abs(inverse, out=inverse)
                  @ (abs_a @ np.abs(y) + abs_b + defect / eps)).max()) / scale
    # written so that an infinite or NaN condition number raises too
    if not FORWARD_ERROR_FACTOR * cond * eps < 1.0:
        raise UnphysicalSolutionError(
            f"stationary system at delta = {g.delta:g} leaves its state no "
            f"significant digit: the error estimate {FORWARD_ERROR_FACTOR:g} "
            f"kappa eps reaches 1 at kappa = {cond:.3e}")
    return _accept(g, _hermitian_coords(g.dim)[1](y), residual, eta, cond, scale)


def _solve_coherent(g: Generator) -> SteadyStateResult:
    """solve_ness_direct at delta = 0, in the eigenbasis of K.

    With K = W diag(lambda) W^-1 and v = W^-1 e_s, rho = W X W^+ where
    X_ab = -i S v_a conj(v_b) / (lambda_a - conj(lambda_b)). A mode with
    |Im lambda_a| <= UNDAMPED_TOL max(1, max |lambda|) is undamped; it
    makes the device an insulator if |v_a| > UNDAMPED_TOL max |v|, and is
    left empty otherwise. The state's error grows like cond(W)^2 eps, so
    an eigenbasis with cond_1(W)^2 eps > EIGENBASIS_ERROR_TOL (close to an
    exceptional point of K) raises UnphysicalSolutionError; a W that
    numpy cannot invert counts as cond = inf and raises the same way.
    """
    sink = g.circuit.sink
    k_op = g.H.copy()
    k_op[sink, sink] -= 0.5j * GAMMA_BATH
    lam, w = np.linalg.eig(k_op)
    try:
        w_inv = np.linalg.inv(w)
        cond = float(np.linalg.norm(w, 1) * np.linalg.norm(w_inv, 1))
    except np.linalg.LinAlgError:
        cond = math.inf  # linearly dependent eigenvectors
    # written so that an infinite or NaN condition number raises too
    if not cond * cond * np.finfo(float).eps <= EIGENBASIS_ERROR_TOL:
        raise UnphysicalSolutionError(
            f"eigenbasis of the delta = 0 system is ill-conditioned "
            f"(condition number {cond:.3e}); K is close to an exceptional "
            f"point")
    v = w_inv[:, g.circuit.source]
    undamped = np.abs(lam.imag) <= UNDAMPED_TOL * max(1.0, float(np.abs(lam).max()))
    insulating = bool((np.abs(v[undamped]) > UNDAMPED_TOL * np.abs(v).max()).any())
    v = np.where(undamped, 0.0, v)
    denom = lam[:, None] - lam.conj()[None, :]
    denom[undamped[:, None] & undamped[None, :]] = 1.0  # numerator is 0
    x = -1j * SOURCE_FLUX * np.outer(v, v.conj()) / denom
    rho = w @ x @ w.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    residual = float(np.abs(apply_generator(g, rho)).max())
    scale = float(np.abs(rho).max())
    eta = residual / (2.0 * float(np.linalg.norm(k_op, np.inf)) * scale
                      + SOURCE_FLUX)
    if insulating:
        return SteadyStateResult(DIVERGED, None, residual, "direct",
                                 backward_error=eta, condition=cond)
    return _accept(g, rho, residual, eta, cond, scale)


def _accept(g: Generator, rho: np.ndarray, residual: float, eta: float,
            cond: float, scale: float) -> SteadyStateResult:
    """Converged result for a direct solution rho whose largest entry is
    `scale`, once its backward error, physicality and flux balance hold."""
    if eta > BACKWARD_ERROR_TOL:
        raise UnphysicalSolutionError(
            f"direct solution is not stationary: backward error {eta:.3e}")
    sink_pop = rho[g.circuit.sink, g.circuit.sink].real
    expected = SOURCE_FLUX / GAMMA_BATH
    norm = max(1.0, scale)
    try:
        _check_physical(rho[None] / norm, lambda _i: f"in direct NESS, "
                        f"relative to its scale {norm:.3e}")
    except PhysicalityError as exc:
        raise UnphysicalSolutionError(
            f"stationary system solvable (residual {residual:.3e}) but the "
            f"solution is unphysical: {exc}") from exc
    if abs(sink_pop - expected) > FLUX_TOL * max(1.0, scale):
        raise UnphysicalSolutionError(
            f"stationary solution violates flux balance: sink population "
            f"{sink_pop:.12f} vs expected {expected}")
    return SteadyStateResult(CONVERGED, rho, residual, "direct",
                             backward_error=eta, condition=cond)


def solve_ness_by_evolution(g: Generator, tol: float = 1e-9,
                            t_max: float = 1e4, rho0: np.ndarray | None = None,
                            ) -> SteadyStateResult:
    """Evolve the reduced form from rho0 (empty device by default) until
    stationary.

    The evolution runs in whole windows of span WINDOW while the model
    time is below t_max, so a t_max that is not a multiple of WINDOW
    rounds up to one, and elapsed_model_time is the time reached. The
    real system of real_linear_system is built once, and one exact
    propagator samples every window at SAMPLES_PER_WINDOW points: its
    first 9 samples one fine step at a time, the other 72 as 8 blocks of
    9, each block one matrix product with the 9-step propagator (see
    _advance). Each window's samples are checked for physicality as in
    evolve, Cholesky first.
    Convergence is declared when the max-norm of drho/dt at the end of a
    window falls to `tol`; divergence when detect_divergence finds the
    last window growing past SLOPE_MIN with a derivative norm no smaller
    than in the window before it; otherwise the t_max cutoff yields
    ``max-time-exceeded``. Only the previous window is kept.
    """
    if not tol > 0:
        raise UsageError(f"stationarity tolerance must be positive, got {tol}")
    if not 0 < t_max < np.inf:
        raise UsageError(f"t_max must be positive and finite, got {t_max}")
    y = _initial_coords(g, empty_state(g) if rho0 is None else rho0)
    unpack = _hermitian_coords(g.dim)[1]
    steps = SAMPLES_PER_WINDOW - 1
    step = _propagator(*real_linear_system(g), WINDOW / steps, steps)
    offsets = np.linspace(0.0, WINDOW, SAMPLES_PER_WINDOW)
    t, previous = 0.0, None
    while t < t_max:
        ys = _advance(*step, y, steps)
        window = Trajectory(offsets + t, unpack(ys))
        _check_physical(window.states, lambda i: f"at t={window.times[i]:.6g}")
        y, rho = ys[-1], window.states[-1]
        t += WINDOW
        residual = float(np.abs(apply_generator(g, rho)).max())
        if residual <= tol:
            # a copy, so the result does not keep the window stack alive
            return SteadyStateResult(CONVERGED, rho.copy(), residual,
                                     "evolution", elapsed_model_time=t)
        if previous is not None and detect_divergence(previous, window):
            return SteadyStateResult(DIVERGED, None, residual, "evolution",
                                     elapsed_model_time=t)
        previous = window
    return SteadyStateResult(MAX_TIME_EXCEEDED, None, residual, "evolution",
                             elapsed_model_time=t)


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x, in closed form."""
    dx = x - x.mean()
    return float(dx @ (y - y.mean()) / (dx @ dx))


def _largest_rate(window: Trajectory) -> float:
    """Largest finite-difference max-norm of drho/dt over the window."""
    steps = np.abs(np.diff(np.asarray(window.states), axis=0))
    return float((steps.max(axis=(-2, -1)) / np.diff(window.times)).max())


def detect_divergence(previous: Trajectory, last: Trajectory) -> bool:
    """True iff the last of two consecutive windows, such as the two of
    span WINDOW that the evolution solver ends on, grows without
    saturation.

    Two conditions: the least-squares slope of the total particle
    number against time over `last` exceeds SLOPE_MIN, and the largest
    max-norm of drho/dt (estimated by finite differences between
    neighbouring samples) over `last` is at least that over `previous`,
    less a relative 1e-9. The second condition guards against slow
    transients that still carry a large trace slope while relaxing. A
    window without two samples at strictly increasing times raises
    TrajectoryTooShortError.
    """
    for window in (previous, last):
        times = window.times
        if len(times) < 2 or not (times[1:] > times[:-1]).all():
            raise TrajectoryTooShortError(
                "a window needs at least two samples at strictly increasing "
                "times")
    if _slope(last.times, last.trace_series) <= SLOPE_MIN:
        return False
    return _largest_rate(last) >= _largest_rate(previous) * (1.0 - 1e-9)
