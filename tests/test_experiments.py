import math

import numpy as np
import pytest

from dephnet import (CONVERGED, DIVERGED, NoSignChangeError, SweepRecord,
                     UnphysicalSolutionError, UsageError,
                     dephasing_sweep, entropy_trace,
                     find_conductance_peak, find_ratio_crossing,
                     funnel_ratio, make_additivity_pair,
                     make_parallel_circuit, make_pentagon,
                     make_wire, rectification_sweep, sweep_branch_count)
from dephnet.experiments import ENTROPY_T_END


def test_sweep_records_are_canonically_sorted():
    # at m_max = 10 the label parallel10x1 sorts before parallel1x1 as a
    # string; the records follow the branch count as a number
    records = sweep_branch_count(10, deltas=(1.0, 0.0))
    assert [(r.branches, r.delta) for r in records] == [
        (m, d) for m in range(1, 11) for d in (0.0, 1.0)]
    assert all(r.status == CONVERGED for r in records)


def test_sweep_branch_count_needs_range():
    with pytest.raises(UsageError):
        sweep_branch_count(1)


def test_record_consistency_enforced():
    with pytest.raises(ValueError):
        SweepRecord("x", 0.0, "forward", None, R=math.inf, G=0.0,
                    coherence=None, status=CONVERGED)
    with pytest.raises(ValueError):
        SweepRecord("x", 0.0, "forward", None, R=1.0, G=1.0,
                    coherence=None, status=DIVERGED)


def test_find_conductance_peak_interior_and_boundary():
    assert find_conductance_peak(0.0) == 3
    # strong dephasing: G grows with every added branch, argmax sits on
    # the boundary, reported as a no-peak verdict
    assert find_conductance_peak(20.0, m_max=8) is None


def test_find_conductance_peak_refuses_ill_conditioned_sweep():
    # the direct solver refuses two or more parallel branches at 1e-15,
    # where the state keeps no significant digit; the refusal ends each
    # sweep, ratio and search that meets it
    with pytest.raises(UnphysicalSolutionError):
        find_conductance_peak(1e-15, m_max=4)
    with pytest.raises(UnphysicalSolutionError):
        sweep_branch_count(4, deltas=(1.0, 1e-15))
    with pytest.raises(UnphysicalSolutionError):
        dephasing_sweep(make_parallel_circuit(2), deltas=(1.0, 1e-15))
    with pytest.raises(UnphysicalSolutionError):
        funnel_ratio(1e-15, make_parallel_circuit(3))
    # at 1e8 every branch count converges, and G grows with m
    assert find_conductance_peak(1e8, m_max=4) is None


def test_dephasing_sweep_single_circuit():
    records = dephasing_sweep(make_wire(2), deltas=(0.0, 1.0))
    assert [r.delta for r in records] == [0.0, 1.0]
    assert records[0].R == pytest.approx(0.5, abs=1e-8)
    assert records[1].R == pytest.approx(1.5, abs=1e-8)
    with pytest.raises(UsageError):
        dephasing_sweep(make_wire(2), deltas=())


def test_dephasing_sweep_keeps_diverged_row():
    # the pentagon insulates at delta = 0: a verdict recorded as a row
    records = dephasing_sweep(make_pentagon(), deltas=(0.0, 0.5))
    by_delta = {r.delta: r for r in records}
    assert by_delta[0.0].status == DIVERGED
    assert by_delta[0.0].R == math.inf
    assert by_delta[0.0].G == 0.0
    assert by_delta[0.0].coherence is None
    assert by_delta[0.5].status == CONVERGED


def test_rectification_series_alignment():
    records, series = rectification_sweep(deltas=(0.1, 0.5))
    assert len(records) == 4
    assert [d for d, _ in series] == [0.1, 0.5]
    by_key = {(r.delta, r.direction): r.R for r in records}
    for d, ratio in series:
        assert ratio == pytest.approx(
            by_key[(d, "forward")] / by_key[(d, "reverse")])
    # the device conducts better forward below the crossing and worse
    # above it: the series straddles 1
    assert (series[0][1] - 1.0) * (series[1][1] - 1.0) < 0
    # the series and funnel_ratio apply one ratio rule: nan where a
    # direction is insulating (the funnel at 0) or the reverse R is 0
    # (a one-site wire, whose source is its sink)
    for circuit in (None, make_wire(1)):
        _, series = rectification_sweep((0.0, 0.1, 0.5), circuit=circuit)
        for d, ratio in series:
            expected = funnel_ratio(d, circuit)
            assert ratio == expected or (math.isnan(ratio)
                                         and math.isnan(expected))
    assert math.isnan(funnel_ratio(0.5, make_wire(1)))


def test_find_ratio_crossing_synthetic():
    # synthetic ratio with known root at 0.5
    crossing = find_ratio_crossing((0.1, 0.9), tol=1e-6,
                                   ratio_fn=lambda d: 2.0 * d)
    assert crossing == pytest.approx(0.5, abs=1e-6)


def test_find_ratio_crossing_validates():
    with pytest.raises(UsageError):
        find_ratio_crossing((0.5, 0.5), ratio_fn=lambda d: d)
    with pytest.raises(NoSignChangeError):
        find_ratio_crossing((0.1, 0.9), ratio_fn=lambda d: 2.0 + d)


def test_find_ratio_crossing_endpoint_root():
    assert find_ratio_crossing((1.0, 2.0), ratio_fn=lambda d: d) == 1.0
    assert find_ratio_crossing((0.5, 1.0), ratio_fn=lambda d: d) == 1.0


#: The funnel's rectification crossing to 30 digits: the one positive
#: root of the numerator of R_forward - R_reverse, a polynomial of degree
#: 34 with integer coefficients.
FUNNEL_CROSSING_EXACT = 0.225119720757909557176477474398


def test_find_ratio_crossing_reaches_the_funnels_exact_root():
    crossing = find_ratio_crossing(tol=1e-12)
    assert abs(crossing - FUNNEL_CROSSING_EXACT) <= 1e-12


def _call_limited(fn, limit=2000):
    calls = [0]

    def limited(d):
        calls[0] += 1
        if calls[0] > limit:
            raise RuntimeError(f"bisection made more than {limit} calls")
        return fn(d)
    return limited


def test_find_ratio_crossing_stops_at_float_spacing():
    # the ratio jumps across 1 at 0.3, so no float is an exact root, and
    # a width of 1e-300 is below the float spacing there
    step = _call_limited(lambda d: 0.5 if d < 0.3 else 2.0)
    crossing = find_ratio_crossing((0.1, 0.9), tol=1e-300, ratio_fn=step)
    assert crossing == pytest.approx(0.3, abs=1e-15)


def test_find_ratio_crossing_refuses_undefined_ratio():
    # a nan ratio has no side of 1; it must not steer the bisection
    nan_at_lo = _call_limited(lambda d: math.nan if d == 0.0 else 2.0 * d)
    with pytest.raises(NoSignChangeError, match="undefined"):
        find_ratio_crossing((0.0, 0.9), ratio_fn=nan_at_lo)
    nan_at_mid = _call_limited(lambda d: math.nan if d == 0.5 else 4.0 * d)
    with pytest.raises(NoSignChangeError, match="undefined"):
        find_ratio_crossing((0.1, 0.9), ratio_fn=nan_at_mid)


def test_find_ratio_crossing_rejects_nonpositive_tol():
    for tol in (0.0, -1e-4):
        with pytest.raises(UsageError, match="tolerance"):
            find_ratio_crossing((0.1, 0.9), tol=tol,
                                ratio_fn=_call_limited(lambda d: 2.0 * d))


def test_entropy_trace_starts_at_zero():
    times, values = entropy_trace(make_wire(2), 0.0, 4.0, samples=21)
    assert times[0] == 0.0
    assert values[0] == 0.0
    assert values[5:].min() > 0.0  # coherence builds up
    with pytest.raises(UsageError):
        entropy_trace(make_wire(2), 0.0, -1.0)


def test_additivity_pair_entropy_traces_are_finite_and_nonnegative():
    # the traces start from the empty device, so their early states have
    # eigenvalues and populations far below their largest ones
    for c in make_additivity_pair():
        times, values = entropy_trace(c, 0.0, ENTROPY_T_END)
        assert len(times) == len(values) == 201
        assert times[-1] == ENTROPY_T_END
        assert values[0] == 0.0
        assert np.isfinite(values).all() and values.min() >= 0.0
        assert values[-1] > 0.0


def test_strong_dephasing_suppresses_ness_coherence():
    weak = dephasing_sweep(make_wire(3), deltas=(0.1,))[0].coherence
    strong = dephasing_sweep(make_wire(3), deltas=(20.0,))[0].coherence
    assert strong < weak
