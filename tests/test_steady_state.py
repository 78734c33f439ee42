import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from dephnet import (CONVERGED, DIVERGED, EXPLICIT_BATH, MAX_TIME_EXCEEDED,
                     PhysicalityError, Trajectory, TrajectoryTooShortError,
                     UnphysicalSolutionError, UnsupportedFormError,
                     UsageError, apply_generator,
                     assemble_generator, detect_divergence, empty_state,
                     evolve,
                     laplacian_hamiltonian, make_parallel_circuit,
                     make_pentagon, make_triangle_funnel, make_wire,
                     resistance, reverse_circuit, solve_ness_by_evolution,
                     solve_ness_direct)
from dephnet import steady_state
from dephnet.generator import _hermitian_coords, real_linear_system
from dephnet.steady_state import (BACKWARD_ERROR_TOL, MIN_EIGENVALUE_TOL,
                                  POPULATION_TOL, SAMPLES_PER_WINDOW, WINDOW,
                                  _accept, _check_physical, _slope)
from conftest import (SUITE_DELTAS, build_suite, random_connected_circuit,
                      random_density_matrix)


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
    # one sample would be the initial state alone, never t_end
    for samples in (0, 1):
        with pytest.raises(UsageError, match="at least 2"):
            evolve(g, empty_state(g), 1.0, samples=samples)
    # refused before math.isqrt sees it
    for samples in (2.5, 3.0):
        with pytest.raises(UsageError, match="integer"):
            evolve(g, empty_state(g), 1.0, samples=samples)
    assert len(evolve(g, empty_state(g), 1.0, samples=np.int64(3)).times) == 3
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


@pytest.mark.parametrize("delta", [0.0, 1.0])
def test_direct_refuses_explicit_bath_form(delta):
    # at delta = 0 the coherent path would return the bath sites empty,
    # not clamped at their pinned populations
    g = assemble_generator(make_wire(3), delta, form=EXPLICIT_BATH)
    with pytest.raises(UnsupportedFormError, match="reduced form"):
        solve_ness_direct(g)


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
    # further out, R = delta R_eff + c0 + O(1/delta), with the constants
    # of the exact rational functions; past 1e8 a few ulp of R exceed
    # the 5/delta bound
    funnel = make_triangle_funnel("forward")
    tails = [(make_wire(3), Fraction(2), Fraction(1, 2)),
             (make_pentagon(), Fraction(6, 5), Fraction(13, 50)),
             (funnel, Fraction(37, 95), Fraction(447, 3610)),
             (reverse_circuit(funnel), Fraction(37, 95), Fraction(2493, 18050))]
    for c, r_eff, c0 in tails:
        assert _effective_resistance(c) == pytest.approx(float(r_eff))
        for delta in (1e6, 1e8):
            r = resistance(solve_ness_direct(assemble_generator(c, delta)), c)
            deviation = Fraction(r) - Fraction(delta) * r_eff - c0
            assert abs(deviation) <= 5 / Fraction(delta), (c, delta, deviation)


def test_direct_reports_backward_error_not_residual():
    # at strong dephasing populations reach ~1e4, so the absolute
    # residual sits far above rounding while the backward error does not
    g = assemble_generator(make_pentagon(), 1e4)
    res = solve_ness_direct(g)
    assert res.status == CONVERGED
    assert res.backward_error <= 1e-15
    a, b = real_linear_system(g)
    y = _hermitian_coords(g.dim)[0](res.rho_ness)
    scale = np.abs(a).sum(axis=1).max() * np.abs(y).max() + np.abs(b).max()
    assert res.backward_error == pytest.approx(res.residual / scale, rel=1e-12)
    assert res.backward_error < 1e-6 * res.residual
    evo = solve_ness_by_evolution(assemble_generator(make_wire(2), 1.0))
    assert evo.backward_error is None


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


def _relative_gap(rho, reference) -> float:
    return float(np.abs(rho - reference).max() / np.abs(reference).max())


def test_evolution_matches_direct_on_random_graphs():
    # a quarter at delta = 0 (dark states, insulators), the rest
    # log-uniform in [1e-2, 10]
    rng = np.random.default_rng(2016)
    for i in range(60):
        c = random_connected_circuit(rng, max_n=6)
        delta = 0.0 if i % 4 == 0 else 10.0 ** rng.uniform(-2.0, 1.0)
        g = assemble_generator(c, delta)
        direct, evo = solve_ness_direct(g), solve_ness_by_evolution(g)
        assert direct.status == evo.status, (c, delta)
        if direct.converged:
            gap = _relative_gap(evo.rho_ness, direct.rho_ness)
            assert gap <= 1e-6, (c, delta, gap)


@pytest.mark.parametrize("circuit", [make_wire(3), make_pentagon(),
                                     make_triangle_funnel("forward")],
                         ids=["wire3", "pentagon", "funnel"])
def test_evolution_at_strong_dephasing_matches_direct(circuit):
    g = assemble_generator(circuit, 1e2)
    evo = solve_ness_by_evolution(g)
    assert evo.status == CONVERGED
    assert _relative_gap(evo.rho_ness, solve_ness_direct(g).rho_ness) <= 1e-6


def test_evolution_state_owns_its_memory():
    # a view would keep the solver's last window of samples alive
    res = solve_ness_by_evolution(assemble_generator(make_wire(3), 1.0))
    assert res.rho_ness.flags.owndata


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
    # a tolerance that every state meets would end each solve after one
    # window with a converged verdict
    g = assemble_generator(make_wire(2), 0.0)
    for tol in (0.0, float("inf"), float("nan")):
        with pytest.raises(UsageError, match="tolerance"):
            solve_ness_by_evolution(g, tol=tol)


@pytest.mark.parametrize("t_max", [-5.0, 0.0, float("inf"), float("nan")])
def test_evolution_rejects_bad_time_budget(t_max):
    # an infinite budget would never end a solve that neither converges
    # nor diverges; a non-positive one reported max-time-exceeded
    g = assemble_generator(make_wire(2), 1.0)
    with pytest.raises(UsageError, match="t_max"):
        solve_ness_by_evolution(g, t_max=t_max)


def test_max_time_exceeded_verdict():
    # a tolerance far below reachable accuracy forces the cutoff verdict
    g = assemble_generator(make_wire(2), 0.0)
    res = solve_ness_by_evolution(g, tol=1e-17, t_max=60.0)
    assert res.status == MAX_TIME_EXCEEDED
    assert res.rho_ness is None


def _synthetic(times, state_fn):
    times = np.asarray(times, dtype=float)
    return Trajectory(times=times, states=[state_fn(t) for t in times])


def _last_two_windows(state_fn):
    """The last two windows of span WINDOW of a series sampled from 0 to
    100 at the evolution solver's spacing, as (previous, last)."""
    times = np.linspace(0.0, 100.0, 401)
    k = SAMPLES_PER_WINDOW
    previous, last = times[-2 * k + 1:-k + 1], times[-k:]
    assert previous[-1] - previous[0] == last[-1] - last[0] == WINDOW
    return _synthetic(previous, state_fn), _synthetic(last, state_fn)


def test_detect_divergence_on_linear_growth():
    windows = _last_two_windows(lambda t: np.array([[0.2 * t]], dtype=complex))
    assert detect_divergence(*windows)


def test_detect_divergence_false_for_constant():
    windows = _last_two_windows(lambda t: np.array([[1.0]], dtype=complex))
    assert not detect_divergence(*windows)


def test_detect_divergence_false_for_saturating():
    windows = _last_two_windows(
        lambda t: np.array([[3.0 * (1 - np.exp(-t / 30.0))]], dtype=complex))
    assert not detect_divergence(*windows)


def test_detect_divergence_needs_two_samples_per_window():
    # one sample leaves no slope to fit and no derivative to estimate
    growth = lambda t: np.array([[t]], dtype=complex)  # noqa: E731
    full = _synthetic(np.linspace(0.0, WINDOW, SAMPLES_PER_WINDOW), growth)
    single = _synthetic([WINDOW], growth)
    for windows in ((single, full), (full, single)):
        with pytest.raises(TrajectoryTooShortError, match="two samples"):
            detect_divergence(*windows)
    # a repeated or a decreasing time leaves no rate to estimate: refused,
    # not a 0/0 warning or a silent False
    repeated = _synthetic([0.0, 1.0, 1.0], growth)
    decreasing = _synthetic([3.0, 2.0, 1.0], growth)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (repeated, decreasing):
            for windows in ((bad, full), (full, bad)):
                with pytest.raises(TrajectoryTooShortError,
                                   match="strictly increasing"):
                    detect_divergence(*windows)


def test_evolution_budget_rounds_up_to_whole_windows():
    # 65 runs the 4 windows that 80 runs, so the pentagon's verdict is
    # taken on two whole windows, as with the default budget
    res = solve_ness_by_evolution(assemble_generator(make_pentagon(), 0.0),
                                  t_max=65.0)
    assert (res.status, res.elapsed_model_time) == (DIVERGED, 80.0)
    res = solve_ness_by_evolution(assemble_generator(make_wire(2), 0.0),
                                  tol=1e-17, t_max=45.0)
    assert (res.status, res.elapsed_model_time) == (MAX_TIME_EXCEEDED, 60.0)


def test_evolution_short_budget_never_contradicts_direct():
    # a budget of a few windows may end a solve early, but any verdict
    # it reaches is the direct solver's
    rng = np.random.default_rng(24)
    seen = set()
    for _ in range(20):
        c = random_connected_circuit(rng, max_n=6)
        for delta in (0.0, 0.1, 1.0):
            g = assemble_generator(c, delta)
            expected = solve_ness_direct(g).status
            for t_max in (45.0, 130.5):
                status = solve_ness_by_evolution(g, t_max=t_max).status
                assert status in (expected, MAX_TIME_EXCEEDED), \
                    (c, delta, t_max)
                seen.add(status)
    assert seen == {CONVERGED, DIVERGED, MAX_TIME_EXCEEDED}


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


# The evolution solver's (status, elapsed_model_time) on the suite, in
# conftest order, at delta = 0, 0.1, 1 and 20. Recorded with the
# one-step-at-a-time propagator and eigenvalue-only physicality checks;
# the blocked stepping must declare each verdict in the same window.
_C, _D = CONVERGED, DIVERGED
EVOLUTION_VERDICT_TRAIL = [
    ("wire2", [(_C, 40.0), (_C, 40.0), (_C, 40.0), (_C, 440.0)]),
    ("wire3", [(_C, 80.0), (_C, 60.0), (_C, 100.0), (_C, 1120.0)]),
    ("parallel3x1", [(_C, 60.0), (_C, 320.0), (_C, 120.0), (_C, 620.0)]),
    ("additivity-a", [(_C, 920.0), (_C, 260.0), (_C, 200.0), (_C, 1100.0)]),
    ("additivity-b", [(_C, 540.0), (_C, 220.0), (_C, 200.0), (_C, 1100.0)]),
    ("pentagon", [(_D, 80.0), (_C, 240.0), (_C, 140.0), (_C, 1100.0)]),
    ("funnel", [(_D, 80.0), (_C, 620.0), (_C, 180.0), (_C, 560.0)]),
    ("funnel reversed", [(_D, 480.0), (_C, 340.0), (_C, 160.0), (_C, 700.0)]),
]


def test_evolution_verdict_trail_is_pinned(suite_circuits, ness_pairs):
    assert len(EVOLUTION_VERDICT_TRAIL) == len(suite_circuits)
    for idx, (name, row) in enumerate(EVOLUTION_VERDICT_TRAIL):
        for delta, expected in zip(SUITE_DELTAS, row):
            evo = ness_pairs[idx, delta][1]
            assert (evo.status, evo.elapsed_model_time) == expected, \
                (name, delta)


@pytest.mark.parametrize("samples", [2, 9, 10, 81, 201])
def test_evolve_matches_plain_recurrence(samples):
    # 81 samples (one window) run in blocks of 9; 2 samples take no
    # block step, 9 and 81 end on a whole block, 10 and 201 on a partial one
    rng = np.random.default_rng(samples)
    cases = [(make_wire(3), 0.0), (make_triangle_funnel(), 0.3),
             (random_connected_circuit(np.random.default_rng(17)), 1.7)]
    for c, delta in cases:
        g = assemble_generator(c, delta)
        a, b = real_linear_system(g)
        dt = 4.0 / (samples - 1)
        m = len(b)
        augmented = np.zeros((m + 1, m + 1))
        augmented[:m, :m], augmented[:m, m] = a * dt, b * dt
        e = scipy.linalg.expm(augmented)
        f, offset = e[:m, :m], e[:m, m]
        rho0 = random_density_matrix(rng, c.graph.n, 0.5)
        pack = _hermitian_coords(g.dim)[0]
        plain = np.empty((samples, m))
        plain[0] = pack(rho0)
        for i in range(samples - 1):
            plain[i + 1] = f @ plain[i] + offset
        traj = evolve(g, rho0, 4.0, samples=samples)
        packed = pack(traj.states)
        assert packed.shape == plain.shape
        gap = np.abs(packed - plain).max() / np.abs(plain).max()
        assert gap <= 1e-12, (c.label, gap)


def test_evolution_solver_refuses_explicit_bath_form():
    g = assemble_generator(make_wire(2), 1.0, form=EXPLICIT_BATH)
    with pytest.raises(UnsupportedFormError, match="reduced form"):
        solve_ness_by_evolution(g)


@pytest.mark.parametrize("circuit, delta, t_end, samples", [
    (make_wire(3), 0.0, 20.0, 41),
    (make_wire(3), 1.0, 20.0, 41),
    (make_pentagon(), 1.0, 40.0, 81),
    (make_triangle_funnel(), 1.0, 40.0, 81),
], ids=["wire3-0", "wire3-1", "pentagon-1", "funnel-1"])
def test_explicit_bath_evolve_matches_rk45_of_its_map(circuit, delta, t_end,
                                                      samples):
    """An integrator independent of the exact propagator: RK45 on the
    explicit-bath map itself, over the flattened complex state."""
    from scipy.integrate import solve_ivp

    g = assemble_generator(circuit, delta, form=EXPLICIT_BATH)
    dim = g.dim
    rho0 = empty_state(g)
    traj = evolve(g, rho0, t_end, samples=samples)

    def rhs(_t, y):
        return apply_generator(g, y.reshape(dim, dim)).ravel()

    sol = solve_ivp(rhs, (0.0, t_end), rho0.ravel(), method="RK45",
                    t_eval=traj.times, rtol=1e-9, atol=1e-12)
    assert sol.success, sol.message
    rk45 = sol.y.T.reshape(samples, dim, dim)
    gap = np.abs(traj.states - rk45).max()
    assert gap <= 1e-8, f"{gap:.3e}"


def _eigvalsh_check(states, where):
    """_check_physical's verdict from eigenvalues alone."""
    pops = np.diagonal(states, axis1=-2, axis2=-1).real.min(axis=-1)
    eigs = np.linalg.eigvalsh(states).min(axis=-1)
    bad = (pops < POPULATION_TOL) | (eigs < MIN_EIGENVALUE_TOL)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if pops[i] < POPULATION_TOL:
        raise PhysicalityError(f"negative population {pops[i]:.3e} {where(i)}")
    raise PhysicalityError(f"negative eigenvalue {eigs[i]:.3e} {where(i)}")


def _outcome(check, states):
    try:
        check(states, lambda i: f"at sample {i}")
    except PhysicalityError as exc:
        return str(exc)
    return None


def _state_stack(rng, smallest, k=81, dim=7, at=40):
    """(k, dim, dim) stack of states with eigenvalues in [1e-3, 1]; state
    `at` has its smallest eigenvalue set to `smallest`."""
    stack = np.empty((k, dim, dim), dtype=complex)
    for i in range(k):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim))
                            + 1j * rng.normal(size=(dim, dim)))
        eigs = rng.uniform(1e-3, 1.0, size=dim)
        if i == at:
            eigs[0] = smallest
        rho = (q * eigs) @ q.conj().T
        stack[i] = 0.5 * (rho + rho.conj().T)
    return stack


@pytest.mark.parametrize("smallest, max_entry, fallback, expected", [
    # the shift tau = 0.5e-8 lifts this one to positive definite
    (-0.4e-8, None, False, None),
    # within the tolerance but below -tau: eigenvalues decide
    (-0.9e-8, None, True, None),
    (-1.1e-8, None, True, "negative eigenvalue"),
    # at this scale Cholesky rounding is too coarse to decide
    (1e-3, 1e7, True, None),
    (-1.0, 1e7, True, "negative eigenvalue"),
])
def test_cholesky_check_agrees_with_eigenvalues(monkeypatch, smallest,
                                                max_entry, fallback, expected):
    rng = np.random.default_rng(81)
    states = _state_stack(rng, smallest)
    if max_entry is not None:
        states *= max_entry / np.abs(states).max()
    reference = _outcome(_eigvalsh_check, states)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda x: calls.append(x) or eigvalsh(x))
    outcome = _outcome(_check_physical, states)
    assert outcome == reference
    assert (outcome is None) == (expected is None)
    if expected is not None:
        assert outcome.startswith(expected) and "at sample 40" in outcome
    assert bool(calls) == fallback


def test_cholesky_check_reports_first_bad_state_as_before():
    # a negative eigenvalue at sample 40 comes before a negative
    # population at sample 60
    rng = np.random.default_rng(7)
    states = _state_stack(rng, -1e-6)
    states[60, 2, 2] = -1e-6
    message = _outcome(_check_physical, states)
    assert message == _outcome(_eigvalsh_check, states)
    assert message.startswith("negative eigenvalue")
    states[40] = _state_stack(rng, 0.5, k=1, at=0)[0]
    message = _outcome(_check_physical, states)
    assert message == _outcome(_eigvalsh_check, states)
    assert message.startswith("negative population")


def test_closed_form_slope_matches_polyfit():
    times = np.linspace(0.0, 100.0, 401)
    rng = np.random.default_rng(3)
    series = [0.2 * times, np.ones_like(times),
              3.0 * (1 - np.exp(-times / 30.0)),
              rng.normal(size=times.size) + 0.05 * times]
    cases = [(times, y) for y in series] + [(times[:41] / 10.0, times[:41] / 10.0)]
    for x, y in cases:
        last = x >= x[-1] - WINDOW
        expected = np.polyfit(x[last], y[last], 1)[0]
        assert abs(_slope(x[last], y[last]) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_checked_states_are_exactly_hermitian(monkeypatch):
    # _check_physical does not test Hermiticity and reads only the lower
    # triangle; that holds only while every solver hands it exactly
    # Hermitian states, which this pins
    checked = []

    def spy(states, where):
        checked.append(np.array_equal(states, states.conj().swapaxes(-1, -2)))
        check(states, where)

    check = steady_state._check_physical
    monkeypatch.setattr(steady_state, "_check_physical", spy)
    rng = np.random.default_rng(29)
    g = assemble_generator(make_triangle_funnel("forward"), 0.5)
    evolve(g, random_density_matrix(rng, g.dim, trace=2.0), 20.0, samples=41)
    g = assemble_generator(make_triangle_funnel("forward"), 0.5,
                           form=EXPLICIT_BATH)
    evolve(g, empty_state(g), 20.0, samples=41)
    solve_ness_by_evolution(assemble_generator(make_wire(3), 1.0))
    # the direct solver eliminates no coherence at 0.5, all at 1e3, and
    # at 3 none or all, among them (parallel m = 6, three of the random
    # circuits) some whose columns are not dominated
    circuits = build_suite() + [make_parallel_circuit(6)] + [
        random_connected_circuit(rng, max_n=6) for _ in range(6)]
    for c in circuits:
        for delta in (0.0, 0.5, 3.0, 1e3):
            solve_ness_direct(assemble_generator(c, delta))
    assert len(checked) > 40
    assert all(checked)


def test_check_physical_refuses_a_non_finite_state():
    # every comparison with NaN is false, so only this test catches it
    with pytest.raises(PhysicalityError,
                       match="^NaN or infinite entry at sample 0$"):
        _check_physical(np.full((1, 2, 2), np.nan), lambda i: f"at sample {i}")
    # an earlier state that is not a density matrix is reported first
    states = np.stack([np.diag([0.5, 0.5]).astype(complex)] * 3)
    states[2, 0, 0] = np.inf
    with pytest.raises(PhysicalityError, match="infinite entry at sample 2"):
        _check_physical(states, lambda i: f"at sample {i}")
    states[1, 1, 1] = -1.0
    with pytest.raises(PhysicalityError,
                       match="negative population -1.000e[+]00 at sample 1"):
        _check_physical(states, lambda i: f"at sample {i}")


def _accepted_args(rho):
    return dict(residual=0.0, eta=0.0, cond=1.0,
                scale=float(np.abs(rho).max()))


def test_accept_refuses_a_nonstationary_or_unphysical_state():
    g = assemble_generator(make_wire(2), 1.0)
    rho = solve_ness_direct(g).rho_ness
    assert _accept(g, rho, **_accepted_args(rho)).status == CONVERGED
    args = dict(_accepted_args(rho), eta=2 * BACKWARD_ERROR_TOL)
    with pytest.raises(UnphysicalSolutionError, match="backward error"):
        _accept(g, rho, **args)
    # populations and the sink stay as they are; the coherence is too
    # large for a density matrix
    bad = rho.copy()
    bad[0, 1], bad[1, 0] = 2.0, 2.0
    with pytest.raises(UnphysicalSolutionError, match="negative eigenvalue"):
        _accept(g, bad, **_accepted_args(bad))
    bad = rho.copy()
    bad[1, 1] += 0.1
    with pytest.raises(UnphysicalSolutionError, match="flux balance"):
        _accept(g, bad, **_accepted_args(bad))


def test_each_window_largest_rate_is_computed_once(monkeypatch):
    # the solver passes each window to detect_divergence first as the
    # last window and then as the previous one; its rate is computed on
    # first use only. The windows are kept alive, so their ids are unique.
    windows = []

    def spy(window):
        windows.append(window)
        return rate(window)

    rate = steady_state._largest_rate
    monkeypatch.setattr(steady_state, "_largest_rate", spy)
    for c, delta in [(make_pentagon(), 0.0), (make_wire(3), 0.1),
                     (make_triangle_funnel(), 1.0)]:
        solve_ness_by_evolution(assemble_generator(c, delta))
    # the pentagon's trace grows in every window until it diverges, so
    # some windows are compared twice
    assert len(windows) >= 4
    assert len({id(w) for w in windows}) == len(windows)


def test_solver_residual_is_the_generator_defect_of_its_state():
    # the residual is taken without apply_generator's checks, and is the
    # same number
    for c, delta in [(make_wire(3), 1.0), (make_triangle_funnel(), 0.1)]:
        g = assemble_generator(c, delta)
        res = solve_ness_by_evolution(g)
        assert res.residual == float(np.abs(apply_generator(g, res.rho_ness)).max())
