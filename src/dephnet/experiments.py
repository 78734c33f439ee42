"""Scripted parameter sweeps: branch counts, dephasing grids, and the
rectification crossings.

Sweep points are solved one after another by the direct solver; the
emitted records are sorted by (branch count as a number, circuit label,
delta, direction), whatever order the points were given in, so a branch
sweep lists m = 1, 2, ..., 10 and not the label parallel10x1 first. A
point the direct solver refuses raises its UnphysicalSolutionError,
which ends the sweep, ratio or search that asked for it.

A rectification sweep's grid is also the crossing search's bracket:
series_crossings bisects each sign change of the forward/reverse ratio
minus 1 between neighbouring grid points until its ends agree to the 6
decimals that are printed (CROSSING_TOL). A grid point whose ratio lies
within SYMMETRY_NOISE of 1 has no side of 1 and brackets nothing, so a
device whose two directions a symmetry swaps shows no crossing. A series
with no sign change makes series_crossings raise NoSignChangeError with
the reason: no finite ratio, a ratio pinned at 1, or a grid that
brackets no crossing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NoSignChangeError, UsageError, require_count, require_positive
from .generator import assemble_generator, empty_state
from .graphs import Circuit, make_parallel_circuit, reverse_circuit
from .observables import conductance, relative_entropy_coherence, resistance
from .registry import make_triangle_funnel
from .steady_state import CONVERGED, evolve, solve_ness_direct

#: Dephasing strengths for branch-count sweeps.
BRANCH_DELTAS = (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)
#: Log grid for pentagon and rectification sweeps: resolves both the
#: sharp small-delta features and the classical tail.
LOG_GRID = tuple(np.logspace(-3.0, math.log10(50.0), 40))
DEFAULT_M_MAX = 10
#: The crossing bisection stops once both bracket ends round alike to
#: this step: the crossing is printed to 6 decimals.
CROSSING_TOL = 1e-6
#: A ratio this close to 1 is rounding noise about an exact 1, as where
#: a graph symmetry swaps the two directions; its side of 1 means nothing.
SYMMETRY_NOISE = 1e-9
#: Model time of the coherence traces, long enough to pass the peak.
ENTROPY_T_END = 25.0


@dataclass(frozen=True)
class SweepRecord:
    """One (circuit, delta, direction) measurement row: R is finite for
    a converged point and inf for an insulating one."""

    circuit_label: str
    delta: float
    direction: str
    branches: int | None
    R: float
    G: float
    coherence: float | None
    status: str

    def __post_init__(self):
        if not (math.isfinite(self.R) if self.status == CONVERGED
                else self.R == math.inf):
            raise ValueError("R must be finite for status converged and "
                             "inf otherwise")


def _sort_key(rec: SweepRecord):
    return (-1 if rec.branches is None else rec.branches, rec.circuit_label,
            rec.delta, rec.direction)


def _resistance_at(c: Circuit, delta: float) -> float:
    """R by direct solve: inf for an insulating device (a verdict)."""
    return resistance(solve_ness_direct(assemble_generator(c, delta)), c)


def _ratio(r_forward: float, r_reverse: float) -> float:
    """Forward/reverse resistance ratio; nan unless both are finite and
    the reverse one is nonzero."""
    if math.isfinite(r_forward) and math.isfinite(r_reverse) and r_reverse != 0:
        return r_forward / r_reverse
    return math.nan


def _ratio_flips(series: Sequence[tuple[float, float]],
                 ) -> list[tuple[float, float]]:
    """(delta, delta') of neighbouring points of a (delta, ratio) series
    between which ratio - 1 changes sign; a point where the ratio is not
    finite or within SYMMETRY_NOISE of 1 is skipped."""
    sided = [(d, r) for d, r in series
             if math.isfinite(r) and abs(r - 1.0) >= SYMMETRY_NOISE]
    return [(d0, d1) for (d0, r0), (d1, r1) in zip(sided, sided[1:])
            if (r0 - 1.0) * (r1 - 1.0) < 0]


def _measure(c: Circuit, delta: float, direction: str = "forward",
             branches: int | None = None) -> SweepRecord:
    point = dict(circuit_label=c.label or "circuit", delta=float(delta),
                 direction=direction, branches=branches)
    res = solve_ness_direct(assemble_generator(c, delta))
    coherence = None
    if res.converged:
        coherence = relative_entropy_coherence(res.rho_ness)
    return SweepRecord(**point, R=resistance(res, c), G=conductance(res, c),
                       coherence=coherence, status=res.status)


def _run_points(points: Sequence[tuple], sweep: str) -> list[SweepRecord]:
    """Records of the points, sorted; UsageError names the sweep if its
    grid gave it no point."""
    if not points:
        raise UsageError(f"{sweep} needs at least one delta")
    return sorted((_measure(*p) for p in points), key=_sort_key)


def sweep_branch_count(m_max: int, deltas: Sequence[float] = BRANCH_DELTAS,
                       branch_length: int = 1) -> list[SweepRecord]:
    """Conductance of the parallel family: one record per (m, delta).
    m_max must be an integer of at least 2 and the grid not empty, or
    UsageError is raised."""
    require_count(m_max, "m_max of the branch sweep", 2)
    points = [(make_parallel_circuit(m, branch_length), d, "forward", m)
              for d in deltas for m in range(1, m_max + 1)]
    return _run_points(points, "branch sweep")


def find_conductance_peak(delta: float, m_max: int = DEFAULT_M_MAX,
                          branch_length: int = 1) -> int | None:
    """Branch count that maximizes conductance at the given delta.

    Ties break toward smaller m. Returns None (a no-peak verdict) when
    the maximum sits on the boundary of the range, i.e. the curve is
    monotone and has no interior peak; this happens once dephasing is
    strong enough that adding branches always helps.
    """
    recs = sweep_branch_count(m_max, deltas=(delta,),
                              branch_length=branch_length)
    g_values = np.array([r.G for r in recs])
    best = int(np.argmax(g_values)) + 1  # argmax takes the first maximum
    if best == 1 or best == m_max:
        return None
    return best


def dephasing_sweep(c: Circuit, deltas: Sequence[float] = (0.0,) + LOG_GRID,
                    ) -> list[SweepRecord]:
    """R and G of one circuit across a dephasing grid."""
    return _run_points([(c, float(d), "forward", None) for d in deltas],
                       "dephasing sweep")


def rectification_sweep(deltas: Sequence[float] = LOG_GRID,
                        circuit: Circuit | None = None,
                        ) -> tuple[list[SweepRecord], list[tuple[float, float]]]:
    """Forward and reverse records for the funnel, plus the ratio series
    R_forward / R_reverse per delta (nan where either direction has no
    steady state). An empty grid raises UsageError."""
    forward = circuit if circuit is not None else make_triangle_funnel("forward")
    backward = reverse_circuit(forward)
    points = [(c, d, direction, None)
              for d in deltas
              for c, direction in ((forward, "forward"), (backward, "reverse"))]
    records = _run_points(points, "rectification sweep")
    r_at = {(r.delta, r.direction): r.R for r in records}
    ratio_series = [(d, _ratio(r_at[(d, "forward")], r_at[(d, "reverse")]))
                    for d in sorted({r.delta for r in records})]
    return records, ratio_series


def funnel_ratio(delta: float, circuit: Circuit | None = None) -> float:
    """Forward/reverse resistance ratio of the calibrated funnel, or of
    `circuit` against its reverse; nan where either direction is
    insulating or the reverse R is 0. UnphysicalSolutionError where the
    direct solver refuses either direction."""
    forward = circuit if circuit is not None else make_triangle_funnel("forward")
    return _ratio(_resistance_at(forward, delta),
                  _resistance_at(reverse_circuit(forward), delta))


def find_ratio_crossing(bracket: tuple[float, float] = (0.01, 1.0),
                        tol: float = CROSSING_TOL,
                        ratio_fn: Callable[[float], float] | None = None,
                        ) -> float:
    """Bisect the bracket until it is at most tol wide and both ends
    round to the same multiple of tol, or until no float lies strictly
    between them, and return its midpoint. The midpoint then rounds to
    a multiple of tol as the crossing does: a width of tol alone leaves
    the last digit open where the crossing is near a rounding boundary.

    The function whose root is sought is ratio(delta) - 1; by default
    the ratio of the calibrated funnel. Raises NoSignChangeError if the
    bracket endpoints are on the same side of 1, or if the ratio is not
    finite at an endpoint or a midpoint, where its side of 1 is unknown,
    and UsageError unless 0 < tol < inf and lo < hi.
    """
    fn = ratio_fn if ratio_fn is not None else funnel_ratio
    lo, hi = float(bracket[0]), float(bracket[1])
    require_positive(tol, "bisection tolerance")
    if not lo < hi:
        raise UsageError(f"bracket must satisfy lo < hi, got {lo:g}, {hi:g}")

    def excess(d: float) -> float:
        ratio = fn(d)
        if not math.isfinite(ratio):
            raise NoSignChangeError(
                f"the ratio is undefined at delta = {d:g} ({ratio}), so its "
                f"side of 1 is unknown")
        return ratio - 1.0

    f_lo = excess(lo)
    f_hi = excess(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise NoSignChangeError(
            f"ratio - 1 keeps its sign over [{lo}, {hi}]: "
            f"{f_lo:.3e} .. {f_hi:.3e}")
    # the width test first: it keeps lo / tol below 2^53
    while hi - lo > tol or round(lo / tol) != round(hi / tol):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # the ends are adjacent floats
            return mid
        f_mid = excess(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def series_crossings(series: Sequence[tuple[float, float]],
                     circuit: Circuit | None = None) -> list[float]:
    """Every delta where the ratio of `circuit` (by default the
    calibrated funnel) crosses 1: one bisection to CROSSING_TOL per sign
    change of its (delta, ratio) series, which is in delta order, and
    the crossings in that order. Ratios the series holds, such as the
    bracket ends, are read from it and not solved again.

    A series without a sign change raises NoSignChangeError, which says
    why: no ratio is finite (a direction insulates, or the reverse R is
    0); every finite ratio lies within SYMMETRY_NOISE of 1, as where a
    symmetry swaps the two directions and no grid would show a
    crossing; or the grid does not bracket one. A bisection raises it
    as find_ratio_crossing does.
    """
    flips = _ratio_flips(series)
    if not flips:
        finite = [r for _, r in series if math.isfinite(r)]
        if not finite:
            raise NoSignChangeError(
                "the ratio is undefined at every grid point: a direction "
                "insulates, or the reverse R is 0")
        if all(abs(r - 1.0) < SYMMETRY_NOISE for r in finite):
            raise NoSignChangeError("the ratio stays within rounding of 1 "
                                    "wherever it is defined")
        raise NoSignChangeError("the ratio does not cross 1 between grid "
                                "points where it is defined and not within "
                                "rounding of 1; widen or refine --delta-grid")
    known = dict(series)

    def ratio(d: float) -> float:
        return known[d] if d in known else funnel_ratio(d, circuit)
    return [find_ratio_crossing(flip, CROSSING_TOL, ratio) for flip in flips]


def entropy_trace(c: Circuit, delta: float, t_end: float,
                  samples: int = 201) -> tuple[np.ndarray, np.ndarray]:
    """Coherence S(rho(t) || dephased rho(t)) along the evolution from
    the empty device, taken on the whole trajectory at once."""
    g = assemble_generator(c, delta)
    traj = evolve(g, empty_state(g), t_end, samples=samples)
    return traj.times, relative_entropy_coherence(traj.states)
