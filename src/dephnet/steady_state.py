"""Steady-state solvers: direct linear solve and time evolution.

The direct solver inverts the real system once at delta > 0 and
refines the state by one step with that inverse; where dephasing damps
enough Im-coherence coordinates faster than hopping moves them, every
Im-coherence is eliminated first, so only the Schur complement on the
Re coordinates is inverted. At delta = 0 it diagonalizes the n x n
operator K = H - i(g/2)|k><k| (see solve_ness_direct). Both solvers
report the same three-way verdict: ``converged`` (a physical NESS was
found), ``diverged`` (the device is insulating and piles up particles
forever), or ``max-time-exceeded`` (evolution hit its cutoff without
either verdict).

Time evolution has one propagation loop, _windows: it builds the exact
propagator of an affine system once and yields checked windows of
samples. evolve returns its first window, of span t_end; the evolution
solver runs whole windows of span WINDOW and judges divergence on its
last two (see detect_divergence).

Every state a solver returns or samples is checked for finite entries,
non-negative populations and positivity (_check_physical). Hermiticity
is not checked there: the states are exactly Hermitian by construction.
It is checked where a matrix enters, in the initial state of evolve and
of the evolution solver (_initial_coords).

scipy is imported where it is called, by the matrix exponential of
that loop, so a direct solve runs on numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    PhysicalityError,
    TrajectoryTooShortError,
    UnphysicalSolutionError,
    UnsupportedFormError,
    require_count,
    require_positive,
)
from .generator import (
    GAMMA_BATH,
    REDUCED,
    SOURCE_FLUX,
    Generator,
    _apply_reduced,
    _explicit_linear_system,
    _hermitian_coords,
    apply_generator,
    empty_state,
    real_linear_system,
)
from .graphs import Circuit

CONVERGED = "converged"
DIVERGED = "diverged"
MAX_TIME_EXCEEDED = "max-time-exceeded"

#: Last-window trace slope (particles per unit time) above which a
#: trajectory counts as growing without saturation.
SLOPE_MIN = 0.01

#: Largest |rho - rho^+| entry accepted where a matrix enters the
#: package (an initial state, the argument of relative_entropy_coherence);
#: states the solvers compute are exactly Hermitian and not tested again.
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
#: At delta = 0: the prime modulus of the Krylov rank that confirms an
#: insulating verdict (see _krylov_rank), the Mersenne prime 2^61 - 1.
KRYLOV_PRIME = 2 ** 61 - 1

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

    @cached_property
    def largest_rate(self) -> float:
        """Largest finite-difference max-norm of drho/dt over the
        samples, computed on first use only: the evolution solver
        compares each window's with the next one's."""
        return _largest_rate(self)


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

    Every state is exactly Hermitian by construction: unpacked from
    Hermitian coordinates, or 0.5 (rho + rho^+) at delta = 0. So only
    finiteness, populations and eigenvalues are checked, and the
    eigenvalue tests read the lower triangle alone. A state with a NaN
    or infinite entry is refused first, after the states before it are
    checked: every comparison with NaN is false, so no later test would
    catch it. The eigenvalue test first tries a Cholesky factorization
    of every state, shifted by tau = -MIN_EIGENVALUE_TOL / 2 (see
    _positive_by_cholesky). Only when one fails, or the entries are too
    large for that test to decide, are the eigenvalues computed, as
    without the shortcut, so each verdict and message is the same.
    """
    largest = float(np.abs(states).max())
    if not largest < np.inf:  # also for NaN
        i = int(np.argmin(np.isfinite(states).all(axis=(-2, -1))))
        if i:
            _check_physical(states[:i], where)
        raise PhysicalityError(f"NaN or infinite entry {where(i)}")
    pops = np.diagonal(states, axis1=-2, axis2=-1).real.min(axis=-1)
    bad = pops < POPULATION_TOL
    if not _positive_by_cholesky(states, largest):
        eigs = np.linalg.eigvalsh(states).min(axis=-1)
        bad |= eigs < MIN_EIGENVALUE_TOL
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if pops[i] < POPULATION_TOL:
        raise PhysicalityError(f"negative population {pops[i]:.3e} {where(i)}")
    raise PhysicalityError(f"negative eigenvalue {eigs[i]:.3e} {where(i)}")


def _positive_by_cholesky(states: np.ndarray, largest: float) -> bool:
    """True if every Hermitian matrix of the stack provably has all its
    eigenvalues above MIN_EIGENVALUE_TOL; False means unknown. largest
    bounds every |entry| of states.

    Cholesky succeeds on rho + tau I only if rho + tau I + E is positive
    definite for a backward error of norm |E| <= dim^2 eps max|rho|
    (Higham, 2002, thm 10.5). While dim^2 eps largest stays below
    tau / 4, success puts every eigenvalue of rho above -5 tau / 4, which
    is above MIN_EIGENVALUE_TOL = -2 tau.
    """
    tau = -MIN_EIGENVALUE_TOL / 2
    dim = states.shape[-1]
    if not dim * dim * np.finfo(float).eps * largest < tau / 4:
        return False
    try:
        np.linalg.cholesky(states + tau * np.eye(dim))
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


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call. No code of
    the package calls it: both forms of evolve use the exact propagator.
    It stays only because bench/tracer.py rebinds steady_state.solve_ivp
    by name, and a traced benchmark run fails without it."""
    from scipy.integrate import solve_ivp as integrate

    return integrate(*args, **kwargs)


def _windows(g: Generator, system: tuple[np.ndarray, np.ndarray],
             y: np.ndarray, span: float, samples: int):
    """Consecutive windows of dy/dt = a y + b, system = (a, b), from the
    real coordinates y at t = 0: each a Trajectory of `samples` >= 2
    points from t to t + span, checked by _check_physical.

    One step of the sample spacing dt is y -> f y + c, where f and c are
    the blocks of e = expm([[a dt, b dt], [0, 0]]) (Moler & Van Loan,
    2003), built once with its B-th power, B = ceil(sqrt(samples)). In
    each window the first B samples are stepped one at a time; each
    later run of B samples is the run B samples earlier advanced by the
    B-fold step, one matrix product per run. A window of 81 samples
    takes 8 matrix-vector and 8 matrix-matrix products.
    """
    from scipy.linalg import expm

    steps, m = samples - 1, len(y)
    block = math.isqrt(steps) + 1
    dt = span / steps
    augmented = np.zeros((m + 1, m + 1))
    augmented[:m, :m] = system[0] * dt
    augmented[:m, m] = system[1] * dt
    e = expm(augmented)
    e_block = np.linalg.matrix_power(e, block)
    f, c, f_block, c_block = e[:m, :m], e[:m, m], e_block[:m, :m], e_block[:m, m]
    unpack = _hermitian_coords(g.dim)[1]
    offsets = np.linspace(0.0, span, samples)
    t = 0.0
    while True:
        ys = np.empty((samples, m))
        ys[0] = y
        for i in range(min(block, samples) - 1):
            ys[i + 1] = f @ ys[i] + c
        for k in range(block, samples, block):
            end = min(k + block, samples)
            ys[k:end] = ys[k - block:end - block] @ f_block.T + c_block
        window = Trajectory(offsets + t, unpack(ys))
        _check_physical(window.states, lambda i: f"at t={window.times[i]:.6g}")
        yield window
        y, t = ys[-1], t + span


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
    propagator's power. The trajectory is the first window of
    _windows, of span t_end. The explicit-bath form clamps
    the bath; that map is affine as well, and its system is probed from
    the map itself once per call (_explicit_linear_system), not taken
    from real_linear_system, then advanced the same way. Its bath rows
    and columns are exactly zero, so every propagator step keeps the
    bath coordinates exactly at their initial values (the pinned ones,
    from empty_state). Acceptance criterion 13 compares the two
    independent generator constructions.

    The returned trajectory is sampled on a uniform grid of `samples`
    >= 2 points from 0 to t_end (a sample count that is not an integer
    raises UsageError), and each sampled state is checked against the
    density-matrix invariants (smallest eigenvalue above -1e-8,
    populations non-negative), by Cholesky factorization where that
    settles positivity and by eigenvalues otherwise (see
    _check_physical).
    """
    y0 = _initial_coords(g, rho0)
    require_positive(t_end, "t_end")
    require_count(samples, "samples", 2)
    system = real_linear_system(g) if g.form == REDUCED else _explicit_linear_system(g)
    return next(_windows(g, system, y0, t_end, samples))


def solve_ness_direct(g: Generator) -> SteadyStateResult:
    """Stationary point of the generator, by one of two numpy-only paths.

    delta > 0: the real system a y + b = 0 of real_linear_system, in
    which the answer is exactly Hermitian, is solved by its explicit
    inverse, y = -a^-1 b, and one step of fixed-precision iterative
    refinement, y -= a^-1 (a y + b) (Higham, 2002, sec. 12.2). Where
    enough Im-coherence columns of a are diagonally dominant, as where
    dephasing (rate 2 delta) outpaces hopping, every Im-coherence
    coordinate is eliminated before a^-1 is formed: only the Schur
    complement on the split = n(n+1)/2 Re coordinates is inverted, and
    a^-1 is assembled from its blocks in a's own order (see
    _dephased_inverse). That takes an LU of size split instead of N and
    holds 2 N^2 + 3 split^2 numbers at once, below the four N x N
    arrays of the plain inverse (a, numpy's two LAPACK buffers and
    a^-1). The points are picked by counting the dominated columns;
    memory does not limit the choice. Elsewhere, as where no column is
    dominated (weak dephasing, and on the small shipped circuits up to
    delta ~ 0.5 at least), a^-1 is numpy's plain inverse of a, and every
    result is the same to the last bit as without the elimination.
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
    undamped mode of K (real eigenvalue) overlaps the source, a verdict
    that an exact Krylov rank confirms before it is returned; undamped
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
    inverse (see _dephased_inverse, which eliminates every Im-coherence
    or none), one refinement step y -= a^-1 (a y + b), and from a^-1 the
    condition number kappa of the refined y. Both steps and kappa run
    in a's own coordinate order."""
    a, b = real_linear_system(g)
    # at either end of the float range a^-1 or kappa overflows; the
    # guard below refuses a kappa that is not finite
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            inverse = _dephased_inverse(a, g.dim)
        except np.linalg.LinAlgError as exc:
            raise UnphysicalSolutionError(
                f"stationary system at delta = {g.delta:g} is exactly "
                f"singular in floating point") from exc
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
        spread = abs_a @ np.abs(y) + abs_b + defect / eps
        cond = float((np.abs(inverse, out=inverse) @ spread).max()) / scale
    # written so that an infinite or NaN condition number raises too
    if not FORWARD_ERROR_FACTOR * cond * eps < 1.0:
        raise UnphysicalSolutionError(
            f"stationary system at delta = {g.delta:g} leaves its state no "
            f"significant digit: the error estimate {FORWARD_ERROR_FACTOR:g} "
            f"kappa eps reaches 1 at kappa = {cond:.3e}")
    return _accept(g, _hermitian_coords(g.dim)[1](y), residual, eta, cond, scale)


def _dephased_inverse(a: np.ndarray, n: int) -> np.ndarray:
    """a^-1 for the real system a of an n-site device.

    In the coordinates of real_linear_system the n(n-1)/2 Im-coherence
    coordinates Y come last, after the split = n(n+1)/2 Re coordinates.
    Their block of a is exactly diagonal, -(2 delta + sink damping), and
    they couple to the Re coordinates only through [H, .]. A Y column
    is dominated where |a_jj| >= sum_{i != j} |a_ij|, as where dephasing
    outpaces hopping; with m = N - (the number of dominated Y columns),
    every Y is eliminated where 3 m^2 <= 2 N^2 (about a fifth of the N
    coordinates dominated), and none elsewhere. With a = [[A, B], [C, D]]
    split after the Re coordinates, D diagonal, the Schur complement
    S = A - B D^-1 C is inverted, and

        a^-1 = [[S^-1, -S^-1 B D^-1], [-D^-1 C S^-1, D^-1 + D^-1 C S^-1 B D^-1]]

    is written block by block over a copy of a, in a's own order. That
    holds a, a^-1, S^-1 and numpy's two LAPACK buffers for S, that is
    2 N^2 + 3 split^2 numbers: below the plain inverse's 4 N^2 for every
    n >= 2 (about 2.8 N^2 at 20 to 36 sites). The threshold is the
    memory rule of an elimination of the dominated columns alone, which
    held 2 N^2 + 3 m^2; it is kept so that the same points are
    eliminated, and memory no longer limits it. A dominated pivot grows
    no column: each column of S has a 1-norm at most that of its column
    of a (Higham, 2002, ch. 9 and 13). A Y column that is not dominated has no such
    bound; its accuracy rests on measurement: on stars of 7 to 31 sites
    (hub source or hub sink) and parallel m = 6, 12 and 18, at all 924
    points of a 201-point log grid from delta = 0.3 to 100 where the
    rule eliminates and some Y column is not dominated, the state lies
    within 2.8e-15 relative (max-norm) of the plain inverse's, and a
    tier-1 test holds it there to 1e-13. The backward error that
    _solve_dephased checks is taken with a itself, not with a^-1.
    Elsewhere, as where no column is dominated, the inverse is the plain
    np.linalg.inv(a), and every result is the same to the last bit as
    without the elimination.
    """
    split = n * (n + 1) // 2
    diagonal = np.diagonal(a)[split:]
    dominated = 2.0 * np.abs(diagonal) >= np.abs(a[:, split:]).sum(axis=0)
    m = len(a) - int(np.count_nonzero(dominated))
    if 3 * m * m > 2 * len(a) ** 2:
        return np.linalg.inv(a)
    # a copy of a, overwritten block by block until it is a^-1
    inverse = a.copy()
    s, top = inverse[:split, :split], inverse[:split, split:]
    low, corner = inverse[split:, :split], inverse[split:, split:]
    low /= -diagonal[:, None]
    s += top @ low
    s[...] = np.linalg.inv(s)
    top[...] = s @ top
    top /= -diagonal
    np.matmul(low, top, out=corner)
    corner.flat[::len(diagonal) + 1] += 1.0 / diagonal
    low[...] = low @ s
    return inverse


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

    That float test can only err towards "insulating": with cond_1(W)^2
    eps <= EIGENBASIS_ERROR_TOL a computed |Im lambda| moves by about
    cond(W) eps |K| (Bauer-Fike), far below the threshold, so a mode it
    calls damped is damped. But on larger graphs a mode the source feeds
    can be damped more weakly than UNDAMPED_TOL. So an "insulating"
    verdict, and only that one, is confirmed by _krylov_rank: the device
    insulates iff e_s is not in K(H, e_k), whose dimension r leaves
    exactly n - r modes undamped. Where the rank finds that the device
    conducts, the n - r modes with the smallest |Im lambda| are left
    empty and the state is solved as above. A converged verdict still
    rests on floats: a truly undamped fed mode whose overlap is below
    UNDAMPED_TOL relative would be left empty, which the backward-error
    check catches only where it leaves a larger defect; no such case is
    known.
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
    if insulating:
        rank, fed = _krylov_rank(g.circuit)
        if fed:
            # a fed mode is damped more weakly than UNDAMPED_TOL: exactly
            # n - rank modes are undamped, those with the smallest |Im lambda|
            undamped = np.zeros(len(lam), dtype=bool)
            undamped[np.argsort(np.abs(lam.imag), kind="stable")[:len(lam) - rank]] = True
            insulating = False
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


def _krylov_rank(c: Circuit) -> tuple[int, bool]:
    """(r, fed) for the circuit's Laplacian H: r = dim K(H, e_k), the
    Krylov space span{e_k, H e_k, ..., H^(n-1) e_k} of the sink, and fed
    = whether the source vector e_s lies in it.

    H is real symmetric, so the orthogonal complement of K(H, e_k) is
    spanned by the eigenvectors of H with zero sink amplitude: the n - r
    undamped modes of K at delta = 0. The device insulates at delta = 0
    iff e_s is not in K(H, e_k).

    Computed in pure Python integers modulo the prime p = KRYLOV_PRIME:
    H is applied from adjacency lists, each new Krylov vector is reduced
    against an echelon basis, the sequence stops at the first that
    reduces to zero, and then e_s is reduced against that basis.
    Guarantee: the answer is exact over GF(p), and it equals the
    rational one unless p divides every nonzero maximal minor of the
    integer Krylov matrix [e_k, H e_k, ..., H^(n-1) e_k], or of that
    matrix with e_s appended. One prime is strong evidence, not a proof;
    no circuit where the two differ is known, and on every circuit of
    the atlas with n <= 6 the result equals exact rational elimination.
    """
    p, n, sink = KRYLOV_PRIME, c.graph.n, c.sink
    neighbours = [np.flatnonzero(row).tolist() for row in c.graph.adjacency]
    # (pivot, vector): vector[pivot] = 1 and vector is 0 at every
    # earlier pivot
    basis: list[tuple[int, list[int]]] = []

    def reduce(v: list[int]) -> list[int]:
        for q, b in basis:
            if v[q]:
                x = v[q]
                v = [(vi - x * bi) % p for vi, bi in zip(v, b)]
        return v

    v = [int(i == sink) for i in range(n)]
    while True:
        v = reduce(v)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            break
        inverse = pow(v[pivot], p - 2, p)
        v = [x * inverse % p for x in v]
        basis.append((pivot, v))
        v = [(len(nb) * v[i] - sum(v[j] for j in nb)) % p
             for i, nb in enumerate(neighbours)]
    return len(basis), not any(reduce([int(i == c.source) for i in range(n)]))


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
    windows come from _windows, the loop that evolve runs for one
    window: the real system of real_linear_system is built once (so an
    explicit-bath generator raises UnsupportedFormError), and one exact
    propagator samples every window at SAMPLES_PER_WINDOW points: its
    first 9 samples one fine step at a time, the other 72 as 8 blocks of
    9, each block one matrix product with the 9-step propagator. Each
    window's samples are checked for physicality as in evolve, Cholesky
    first.
    After each window, in this order: convergence is declared when the
    max-norm of drho/dt at its end falls to `tol`; divergence when
    detect_divergence finds it growing past SLOPE_MIN with a derivative
    norm no smaller than in the window before it; ``max-time-exceeded``
    once the time reached is t_max or more. Only the previous window is
    kept, with its largest rate if detect_divergence needed it, so that
    no window's rate is computed twice. The residual is drho/dt of a
    state the window unpacked, so it is taken without apply_generator's
    checks of shape and type.
    """
    require_positive(tol, "stationarity tolerance")
    require_positive(t_max, "t_max")
    y = _initial_coords(g, empty_state(g) if rho0 is None else rho0)
    previous = None
    for window in _windows(g, real_linear_system(g), y, WINDOW,
                           SAMPLES_PER_WINDOW):
        rho, t = window.states[-1], float(window.times[-1])
        # rho was unpacked here from real coordinates, so it needs no
        # validation of its shape or type
        residual = float(np.abs(_apply_reduced(g, rho)).max())
        if residual <= tol:
            # a copy, so the result does not keep the window stack alive
            return SteadyStateResult(CONVERGED, rho.copy(), residual,
                                     "evolution", elapsed_model_time=t)
        if previous is not None and detect_divergence(previous, window):
            return SteadyStateResult(DIVERGED, None, residual, "evolution",
                                     elapsed_model_time=t)
        if t >= t_max:
            return SteadyStateResult(MAX_TIME_EXCEEDED, None, residual,
                                     "evolution", elapsed_model_time=t)
        previous = window


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x, in closed form. The means are
    sums over sizes, the arithmetic of ndarray.mean without its call
    overhead."""
    dx = x - x.sum() / x.size
    return float(dx @ (y - y.sum() / y.size) / (dx @ dx))


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
    transients that still carry a large trace slope while relaxing; each
    window's rate is Trajectory.largest_rate, computed on first use. A
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
    return last.largest_rate >= previous.largest_rate * (1.0 - 1e-9)
