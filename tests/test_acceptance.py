"""Acceptance gate: one test per shipped behavior guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get a single
pass/fail line per criterion. The suite circuits (wires, parallel
branches, the n=8 one-edge pair, the insulating pentagon, the
asymmetric funnel in both directions) come from tests/conftest.py.
"""
import functools

import numpy as np
import pytest
from conftest import SUITE_DELTAS, random_density_matrix

from dephnet import (CONVERGED, DIVERGED, assemble_generator, conductance,
                     current_out, empty_state, evolve, find_conductance_peak,
                     find_ratio_crossing, funnel_ratio, make_additivity_pair,
                     make_parallel_circuit, make_pentagon,
                     make_triangle_funnel, make_wire,
                     relative_entropy_coherence, resistance,
                     solve_ness_by_evolution, solve_ness_direct)
from dephnet.experiments import LOG_GRID
from dephnet.generator import EXPLICIT_BATH


@functools.lru_cache(maxsize=None)
def _branch_conductances(delta: float, m_max: int) -> tuple[float, ...]:
    values = []
    for m in range(1, m_max + 1):
        c = make_parallel_circuit(m)
        values.append(conductance(solve_ness_direct(
            assemble_generator(c, delta)), c))
    return tuple(values)


def test_criterion_01_wire_closed_form():
    """R of the 2-site wire equals (1 + 2*delta)/2 by both solvers."""
    c = make_wire(2)
    for delta in (0.0, 0.5, 1.0, 5.0):
        expected = (1.0 + 2.0 * delta) / 2.0
        g = assemble_generator(c, delta)
        for res in (solve_ness_direct(g), solve_ness_by_evolution(g)):
            assert res.status == CONVERGED
            assert abs(resistance(res, c) - expected) <= 1e-8


def test_criterion_02_second_branch_quadruples_conductance():
    """Without dephasing, adding a second branch takes G from 1 to 4."""
    g = _branch_conductances(0.0, 10)
    assert abs(g[1] / g[0] - 4.0) <= 0.04


def test_criterion_03_branch_curve_is_non_monotone():
    """G keeps rising past two branches, then interference turns it down."""
    g = _branch_conductances(0.0, 10)
    peak = int(np.argmax(g))
    assert g[2] > g[1]
    for idx in range(peak + 2, len(g)):
        assert g[idx] < g[peak]


def test_criterion_04_strong_dephasing_gives_linear_scaling():
    """At delta=20 conductance grows linearly in branch count (R^2 >= 0.999)."""
    g = np.array(_branch_conductances(20.0, 8))
    m = np.arange(1, 9, dtype=float)
    slope, intercept = np.polyfit(m, g, 1)
    predicted = slope * m + intercept
    ss_res = float(np.sum((g - predicted) ** 2))
    ss_tot = float(np.sum((g - g.mean()) ** 2))
    assert 1.0 - ss_res / ss_tot >= 0.999


def test_criterion_05_peak_position_follows_fitted_line():
    """The conductance peak sits at round(2.785 + 1.909*delta) branches."""
    for delta in (0.0, 0.5, 1.0):
        expected = round(2.785 + 1.909 * delta)
        assert find_conductance_peak(delta) == expected
    assert find_conductance_peak(1.0) == 5


def test_criterion_06_one_edge_pair_splits_under_dephasing():
    """The calibrated pair agrees at delta=0 (R = 1.75 +- 0.01), then the
    edge-moved variant becomes more resistive and starts less coherent."""
    a, b = make_additivity_pair()
    res_a = solve_ness_direct(assemble_generator(a, 0.0))
    res_b = solve_ness_direct(assemble_generator(b, 0.0))
    r_a, r_b = resistance(res_a, a), resistance(res_b, b)
    assert abs(r_a - 1.75) <= 0.01
    assert abs(r_b - 1.75) <= 0.01
    assert abs(r_a - r_b) <= 1e-6
    r_a5 = resistance(solve_ness_direct(assemble_generator(a, 5.0)), a)
    r_b5 = resistance(solve_ness_direct(assemble_generator(b, 5.0)), b)
    assert r_b5 > r_a5
    s_a = relative_entropy_coherence(res_a.rho_ness)
    s_b = relative_entropy_coherence(res_b.rho_ness)
    assert s_b < s_a


def test_criterion_07_pentagon_insulates_then_zeno_tail():
    """The pentagon diverges at delta=0 under both solvers, and R(delta)
    dips to an interior minimum before rising again at strong dephasing."""
    c = make_pentagon()
    g = assemble_generator(c, 0.0)
    assert solve_ness_direct(g).status == DIVERGED
    assert solve_ness_by_evolution(g).status == DIVERGED
    rs = [resistance(solve_ness_direct(assemble_generator(c, d)), c)
          for d in LOG_GRID]
    k = int(np.argmin(rs))
    assert 0 < k < len(rs) - 1
    assert rs[-3] < rs[-2] < rs[-1]


def test_criterion_08_rectification_ratio_crossing():
    """The funnel's forward/reverse ratio crosses 1 at delta = 0.2259
    +- 0.005 and returns to 1 within 1% by delta = 100."""
    crossing = find_ratio_crossing()
    assert abs(crossing - 0.2259) <= 0.005
    assert abs(funnel_ratio(100.0) - 1.0) <= 0.01


def test_criterion_09_flux_balance(suite_circuits, ness_pairs):
    """Every converged steady state carries unit current into a
    half-filled drain site."""
    checked = 0
    for (idx, delta), pair in ness_pairs.items():
        c = suite_circuits[idx]
        n = c.graph.n
        for res in pair:
            if res.status != CONVERGED:
                continue
            rho = res.rho_ness[:n, :n]
            assert abs(rho[c.sink, c.sink].real - 0.5) <= 1e-8
            assert abs(current_out(rho, c) - 1.0) <= 1e-8
            checked += 1
    # pentagon and both funnel directions diverge at delta=0; everything
    # else must have produced a checkable steady state
    assert checked >= 2 * (len(suite_circuits) * len(SUITE_DELTAS) - 3)


def test_criterion_10_solver_equivalence(suite_circuits, ness_pairs):
    """Direct solve and long-time integration give the same verdict and,
    when converged, the same state to 1e-6 elementwise."""
    for (idx, delta), (direct, evo) in ness_pairs.items():
        assert direct.status == evo.status, \
            f"{suite_circuits[idx].label} at delta={delta}"
        if direct.status == CONVERGED:
            gap = float(np.max(np.abs(direct.rho_ness - evo.rho_ness)))
            assert gap <= 1e-6, \
                f"{suite_circuits[idx].label} at delta={delta}: {gap:.3e}"


def test_criterion_11_steady_state_forgets_initial_state(suite_circuits,
                                                         ness_pairs):
    """Empty, maximally mixed, and random initial states all relax to
    the same steady state at delta=1."""
    rng = np.random.default_rng(7)
    for idx, c in enumerate(suite_circuits):
        reference = ness_pairs[idx, 1.0][1]  # evolution from empty
        assert reference.status == CONVERGED
        g = assemble_generator(c, 1.0)
        n = c.graph.n
        for rho0 in (np.eye(n, dtype=complex) / n,
                     random_density_matrix(rng, n, trace=1.0)):
            res = solve_ness_by_evolution(g, rho0=rho0)
            assert res.status == CONVERGED
            gap = float(np.max(np.abs(res.rho_ness - reference.rho_ness)))
            assert gap <= 1e-6, f"{c.label}: {gap:.3e}"


def test_criterion_12_trajectories_stay_physical(suite_circuits):
    """Sampled states along every trajectory stay Hermitian to 1e-10,
    positive to -1e-8, and carry nonnegative coherence entropy."""
    for c in suite_circuits:
        for delta in (0.0, 1.0):
            g = assemble_generator(c, delta)
            traj = evolve(g, empty_state(g), 30.0, samples=31)
            for rho in traj.states:
                assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
                assert np.linalg.eigvalsh(rho).min() >= -1e-8
                assert relative_entropy_coherence(rho) >= 0.0


def test_criterion_13_explicit_bath_matches_reduced_form():
    """Carrying the source and drain as explicit clamped sites reproduces
    the reduced 3-site wire trajectory to 1e-8 on the system block."""
    c = make_wire(3)
    n = c.graph.n
    for delta in (0.0, 1.0):
        reduced = assemble_generator(c, delta)
        explicit = assemble_generator(c, delta, form=EXPLICIT_BATH)
        t_red = evolve(reduced, empty_state(reduced), 20.0, samples=41)
        t_exp = evolve(explicit, empty_state(explicit), 20.0, samples=41)
        assert np.allclose(t_red.times, t_exp.times)
        gap = max(float(np.max(np.abs(r - e[:n, :n])))
                  for r, e in zip(t_red.states, t_exp.states))
        assert gap <= 1e-8, f"delta={delta}: {gap:.3e}"


@pytest.mark.parametrize("circuit", [make_pentagon, make_triangle_funnel],
                         ids=["pentagon", "funnel"])
def test_explicit_bath_matches_reduced_form_on_benchmark_inputs(circuit):
    """Criterion 13's comparison on the inputs the evolution benchmark
    integrates in explicit-bath form: delta = 1, t = 40, 81 samples. The
    bath populations never leave their pinned (0.5, 0)."""
    c = circuit()
    n = c.graph.n
    reduced = assemble_generator(c, 1.0)
    explicit = assemble_generator(c, 1.0, form=EXPLICIT_BATH)
    t_red = evolve(reduced, empty_state(reduced), 40.0, samples=81)
    t_exp = evolve(explicit, empty_state(explicit), 40.0, samples=81)
    assert np.array_equal(t_red.times, t_exp.times)
    gap = np.abs(t_red.states - t_exp.states[:, :n, :n]).max()
    assert gap <= 1e-8, f"{gap:.3e}"
    baths = t_exp.states[:, [n, n + 1], [n, n + 1]]
    assert np.array_equal(baths, np.broadcast_to([0.5, 0.0], baths.shape))
