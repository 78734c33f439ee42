import numpy as np
import pytest

from dephnet import (CONVERGED, DIVERGED, MAX_TIME_EXCEEDED, PhysicalityError,
                     Trajectory, TrajectoryTooShortError, assemble_generator,
                     detect_divergence, empty_state, evolve,
                     laplacian_hamiltonian, make_parallel_circuit,
                     make_pentagon, make_triangle_funnel, make_wire,
                     resistance, reverse_circuit, solve_ness_by_evolution,
                     solve_ness_direct)
from conftest import random_connected_circuit, random_density_matrix


def test_wire1_analytic_filling_curve():
    g = assemble_generator(make_wire(1), 0.0)
    traj = evolve(g, empty_state(g), 5.0, samples=51)
    expected = 0.5 * (1.0 - np.exp(-2.0 * traj.times))
    actual = np.array([rho[0, 0].real for rho in traj.states])
    assert np.abs(actual - expected).max() < 1e-8


def test_wire2_long_time_limit():
    g = assemble_generator(make_wire(2), 0.0)
    traj = evolve(g, empty_state(g), 50.0)
    final = traj.states[-1]
    assert final[0, 0].real == pytest.approx(1.0, abs=1e-6)
    assert final[1, 1].real == pytest.approx(0.5, abs=1e-6)
    assert final[0, 1] == pytest.approx(-0.5j, abs=1e-6)


def test_evolve_validates_input():
    g = assemble_generator(make_wire(2), 0.0)
    with pytest.raises(ValueError):
        evolve(g, empty_state(g), -1.0)
    with pytest.raises(PhysicalityError, match="Hermitian"):
        evolve(g, np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_trajectory_is_exactly_hermitian():
    g = assemble_generator(make_pentagon(), 0.3)
    traj = evolve(g, empty_state(g), 20.0, samples=81)
    for rho in traj.states:
        assert np.abs(rho - rho.conj().T).max() == 0.0


def test_direct_wire1():
    res = solve_ness_direct(assemble_generator(make_wire(1), 0.0))
    assert res.status == CONVERGED
    assert res.residual <= 1e-14
    assert res.rho_ness[0, 0].real == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("delta", [0.0, 0.5, 1.0, 5.0])
def test_direct_wire2_closed_form(delta):
    res = solve_ness_direct(assemble_generator(make_wire(2), delta))
    expected = np.array([[1.0 + delta, -0.5j], [0.5j, 0.5]])
    assert np.abs(res.rho_ness - expected).max() < 1e-10


def test_direct_insulators_diverge():
    funnel = make_triangle_funnel("forward")
    for c in (make_pentagon(), funnel, reverse_circuit(funnel)):
        res = solve_ness_direct(assemble_generator(c, 0.0))
        assert res.status == DIVERGED
        assert res.rho_ness is None
        assert res.residual > 1e-8
        assert not res.converged


def _effective_resistance(c) -> float:
    """Two-point resistance of the graph with unit edges, from the
    Laplacian pseudo-inverse."""
    lp = np.linalg.pinv(laplacian_hamiltonian(c.graph))
    s, k = c.source, c.sink
    return float(lp[s, s] + lp[k, k] - 2.0 * lp[s, k])


def test_direct_strong_dephasing_reaches_kirchhoff_limit(suite_circuits):
    # R -> delta * R_eff + O(1) as delta -> infinity; the O(1) excess is
    # 1/2 for wires and between 0 and 1 on every graph tried
    rng = np.random.default_rng(2008)
    cases = [(c, 1e4) for c in suite_circuits]
    cases += [(random_connected_circuit(rng), 10.0 ** rng.uniform(2.0, 4.0))
              for _ in range(100)]
    for c, delta in cases:
        res = solve_ness_direct(assemble_generator(c, delta))
        assert res.status == CONVERGED
        excess = resistance(res, c) - delta * _effective_resistance(c)
        assert 0.0 <= excess <= 1.0, (c, delta, excess)


def test_direct_resolves_dark_sector_to_reachable_state():
    # two parallel branches at delta = 0: the antisymmetric branch mode
    # is decoupled, so the stationary family is degenerate; the solver
    # must return the member the dynamics reach from the empty device,
    # which leaves the dark mode unpopulated
    c = make_parallel_circuit(2)
    res = solve_ness_direct(assemble_generator(c, 0.0))
    assert res.status == CONVERGED
    dark = np.zeros(4, dtype=complex)
    dark[1], dark[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    occupation = (dark.conj() @ res.rho_ness @ dark).real
    assert abs(occupation) < 1e-10
    ref = solve_ness_by_evolution(assemble_generator(c, 0.0))
    assert np.abs(res.rho_ness - ref.rho_ness).max() < 1e-6


def test_evolution_wire2_matches_direct():
    g = assemble_generator(make_wire(2), 0.0)
    by_evolution = solve_ness_by_evolution(g, tol=1e-9)
    by_direct = solve_ness_direct(g)
    assert by_evolution.status == CONVERGED
    assert np.abs(by_evolution.rho_ness - by_direct.rho_ness).max() < 1e-6
    assert by_evolution.elapsed_model_time is not None


def test_evolution_initial_state_independent():
    g = assemble_generator(make_wire(2), 0.0)
    ref = solve_ness_by_evolution(g).rho_ness
    other = solve_ness_by_evolution(g, rho0=np.diag([0.3, 0.1])).rho_ness
    assert np.abs(ref - other).max() < 1e-6


def test_evolution_pentagon_diverges_before_cutoff():
    res = solve_ness_by_evolution(assemble_generator(make_pentagon(), 0.0))
    assert res.status == DIVERGED
    assert res.elapsed_model_time < 1e4


def test_evolution_rejects_bad_tolerance():
    g = assemble_generator(make_wire(2), 0.0)
    with pytest.raises(ValueError):
        solve_ness_by_evolution(g, tol=0.0)


def test_max_time_exceeded_verdict():
    # a tolerance far below reachable accuracy forces the cutoff verdict
    g = assemble_generator(make_wire(2), 0.0)
    res = solve_ness_by_evolution(g, tol=1e-17, t_max=60.0)
    assert res.status == MAX_TIME_EXCEEDED
    assert res.rho_ness is None


def _synthetic(times, trace_fn, state_fn):
    times = np.asarray(times, dtype=float)
    states = [state_fn(t) for t in times]
    return Trajectory(times=times, states=states,
                      trace_series=np.array([trace_fn(t) for t in times]))


def test_detect_divergence_on_linear_growth():
    times = np.linspace(0.0, 100.0, 401)
    traj = _synthetic(times, lambda t: 0.2 * t,
                      lambda t: np.array([[0.2 * t]], dtype=complex))
    assert detect_divergence(traj, window=20.0)


def test_detect_divergence_false_for_constant():
    times = np.linspace(0.0, 100.0, 401)
    traj = _synthetic(times, lambda t: 1.0,
                      lambda t: np.array([[1.0]], dtype=complex))
    assert not detect_divergence(traj, window=20.0)


def test_detect_divergence_false_for_saturating():
    times = np.linspace(0.0, 100.0, 401)
    traj = _synthetic(times, lambda t: 3.0 * (1 - np.exp(-t / 30.0)),
                      lambda t: np.array([[3.0 * (1 - np.exp(-t / 30.0))]],
                                         dtype=complex))
    assert not detect_divergence(traj, window=20.0)


def test_detect_divergence_needs_two_windows():
    times = np.linspace(0.0, 10.0, 41)
    traj = _synthetic(times, lambda t: t,
                      lambda t: np.array([[t]], dtype=complex))
    with pytest.raises(TrajectoryTooShortError):
        detect_divergence(traj, window=20.0)


def test_direct_ness_is_physical_state():
    rng = np.random.default_rng(5)
    for delta in (0.0, 0.1, 2.0):
        res = solve_ness_direct(assemble_generator(make_wire(3), delta))
        rho = res.rho_ness
        assert np.abs(rho - rho.conj().T).max() == 0.0
        assert np.linalg.eigvalsh(rho).min() >= -1e-8
    # random initial states relax to the same point
    g = assemble_generator(make_wire(3), 0.1)
    target = solve_ness_direct(g).rho_ness
    rho0 = random_density_matrix(rng, 3, trace=1.5)
    reached = solve_ness_by_evolution(g, rho0=rho0).rho_ness
    assert np.abs(reached - target).max() < 1e-6
