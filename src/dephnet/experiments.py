"""Scripted parameter sweeps: branch counts, dephasing grids, the
one-extra-edge pair, and the rectification crossing.

Sweep points are solved one after another; the emitted records are
sorted by (circuit label, delta, direction, branches), whatever order
the points were given in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NoSignChangeError, UnphysicalSolutionError, UsageError
from .generator import assemble_generator, empty_state
from .graphs import (
    Circuit,
    make_additivity_pair,
    make_parallel_circuit,
    make_pentagon,
    make_triangle_funnel,
    reverse_circuit,
)
from .observables import conductance, relative_entropy_coherence, resistance
from .steady_state import CONVERGED, evolve, solve_ness_direct

#: Dephasing strengths for branch-count sweeps.
BRANCH_DELTAS = (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)
#: Log grid for pentagon and rectification sweeps: resolves both the
#: sharp small-delta features and the classical tail.
LOG_GRID = tuple(np.logspace(-3.0, math.log10(50.0), 40))
DEFAULT_M_MAX = 10
#: Model time of the coherence traces, long enough to pass the peak.
ENTROPY_T_END = 25.0
#: Status of a sweep point whose stationary system is singular to
#: working precision: neither R nor G is known.
ILL_CONDITIONED = "ill-conditioned"


@dataclass(frozen=True)
class SweepRecord:
    """One (circuit, delta, direction) measurement row."""

    circuit_label: str
    delta: float
    direction: str
    branches: int | None
    R: float
    G: float
    coherence: float | None
    status: str

    def __post_init__(self):
        if (self.status == CONVERGED) != math.isfinite(self.R):
            raise ValueError("status converged must coincide with finite R")


def _sort_key(rec: SweepRecord):
    return (rec.circuit_label, rec.delta, rec.direction,
            -1 if rec.branches is None else rec.branches)


def _measure(c: Circuit, delta: float, direction: str = "forward",
             branches: int | None = None) -> SweepRecord:
    point = dict(circuit_label=c.label or "circuit", delta=float(delta),
                 direction=direction, branches=branches)
    try:
        res = solve_ness_direct(assemble_generator(c, delta))
    except UnphysicalSolutionError:
        # one point past the conditioning limit must not abort the sweep
        return SweepRecord(**point, R=math.nan, G=math.nan, coherence=None,
                           status=ILL_CONDITIONED)
    coherence = None
    if res.converged:
        coherence = relative_entropy_coherence(res.rho_ness)
    return SweepRecord(**point, R=resistance(res, c), G=conductance(res, c),
                       coherence=coherence, status=res.status)


def _run_points(points: Sequence[tuple]) -> list[SweepRecord]:
    return sorted((_measure(*p) for p in points), key=_sort_key)


def sweep_branch_count(m_max: int, deltas: Sequence[float] = BRANCH_DELTAS,
                       branch_length: int = 1) -> list[SweepRecord]:
    """Conductance of the parallel family: one record per (m, delta)."""
    if m_max < 2:
        raise UsageError("branch sweep needs m_max >= 2")
    points = [(make_parallel_circuit(m, branch_length), d, "forward", m)
              for d in deltas for m in range(1, m_max + 1)]
    return _run_points(points)


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
    if any(r.status == ILL_CONDITIONED for r in recs):
        raise UnphysicalSolutionError(
            f"branch sweep at delta = {delta:g} is past the conditioning "
            f"limit of the direct solver; no peak can be located")
    g_values = np.array([r.G for r in sorted(recs, key=lambda r: r.branches)])
    best = int(np.argmax(g_values)) + 1  # argmax takes the first maximum
    if best == 1 or best == m_max:
        return None
    return best


def additivity_experiment(deltas: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 5.0),
                          ) -> tuple[list[SweepRecord], dict]:
    """Records for devices A and B across deltas, plus coherence-vs-time
    traces at delta = 0 from the empty initial state, up to ENTROPY_T_END."""
    a, b = make_additivity_pair()
    points = [(c, d, "forward", None) for d in deltas for c in (a, b)]
    records = _run_points(points)
    traces = {}
    for c in (a, b):
        times, values = entropy_trace(c, 0.0, ENTROPY_T_END)
        traces[c.label] = (times, values)
    return records, traces


def dephasing_sweep(c: Circuit, deltas: Sequence[float] = (0.0,) + LOG_GRID,
                    ) -> list[SweepRecord]:
    """R and G of one circuit across a dephasing grid."""
    if not tuple(deltas):
        raise UsageError("dephasing sweep needs at least one delta")
    return _run_points([(c, float(d), "forward", None) for d in deltas])


def pentagon_sweep(deltas: Sequence[float] = (0.0,) + LOG_GRID,
                   ) -> list[SweepRecord]:
    """R(delta) for the canonical pentagon; the grid must include 0,
    where the device is insulating and the row carries the diverged
    status."""
    if 0.0 not in tuple(deltas):
        raise UsageError("pentagon sweep must include delta = 0")
    return dephasing_sweep(make_pentagon(), deltas)


def rectification_sweep(deltas: Sequence[float] = LOG_GRID,
                        circuit: Circuit | None = None,
                        ) -> tuple[list[SweepRecord], list[tuple[float, float]]]:
    """Forward and reverse records for the funnel, plus the ratio series
    R_forward / R_reverse per delta (nan where either direction has no
    steady state)."""
    forward = circuit if circuit is not None else make_triangle_funnel("forward")
    backward = reverse_circuit(forward)
    points = [(c, d, direction, None)
              for d in deltas
              for c, direction in ((forward, "forward"), (backward, "reverse"))]
    records = _run_points(points)
    by_key = {(r.delta, r.direction): r for r in records}
    ratio_series = []
    for d in sorted(set(float(x) for x in deltas)):
        fwd, rev = by_key[(d, "forward")], by_key[(d, "reverse")]
        if math.isfinite(fwd.R) and math.isfinite(rev.R) and rev.R != 0:
            ratio_series.append((d, fwd.R / rev.R))
        else:
            ratio_series.append((d, math.nan))
    return records, ratio_series


def funnel_ratio(delta: float, circuit: Circuit | None = None) -> float:
    """Forward/reverse resistance ratio of the calibrated funnel."""
    forward = circuit if circuit is not None else make_triangle_funnel("forward")
    r_fwd = resistance(solve_ness_direct(assemble_generator(forward, delta)),
                       forward)
    backward = reverse_circuit(forward)
    r_rev = resistance(solve_ness_direct(assemble_generator(backward, delta)),
                       backward)
    return r_fwd / r_rev


def find_ratio_crossing(bracket: tuple[float, float] = (0.01, 1.0),
                        tol: float = 1e-4,
                        ratio_fn: Callable[[float], float] | None = None,
                        ) -> float:
    """Bisect the bracket down to width <= tol, or until no float lies
    strictly between its ends, and return its midpoint.

    The function whose root is sought is ratio(delta) - 1; by default
    the ratio of the calibrated funnel. Raises NoSignChangeError if the
    bracket endpoints are on the same side of 1.
    """
    fn = ratio_fn if ratio_fn is not None else funnel_ratio
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise UsageError("bracket must satisfy lo < hi")
    if not tol > 0:
        raise UsageError(f"bisection tolerance must be positive, got {tol}")
    f_lo = fn(lo) - 1.0
    f_hi = fn(hi) - 1.0
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise NoSignChangeError(
            f"ratio - 1 keeps its sign over [{lo}, {hi}]: "
            f"{f_lo:.3e} .. {f_hi:.3e}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # the ends are adjacent floats
            return mid
        f_mid = fn(mid) - 1.0
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def entropy_trace(c: Circuit, delta: float, t_end: float,
                  samples: int = 201) -> tuple[np.ndarray, np.ndarray]:
    """Coherence S(rho(t) || dephased rho(t)) along the evolution from
    the empty device."""
    g = assemble_generator(c, delta)
    traj = evolve(g, empty_state(g), t_end, samples=samples)
    values = np.array([relative_entropy_coherence(rho) for rho in traj.states])
    return traj.times, values
