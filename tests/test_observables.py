import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dephnet import (CONVERGED, DIVERGED, MAX_TIME_EXCEEDED,
                     DimensionMismatchError,
                     IndeterminateResultError, PhysicalityError,
                     SteadyStateResult, assemble_generator, conductance,
                     current_out, make_additivity_pair, make_parallel_circuit,
                     make_pentagon, make_triangle_funnel, make_wire,
                     relative_entropy_coherence,
                     resistance, solve_ness_direct, voltage)
from dephnet.experiments import ENTROPY_T_END, entropy_trace
from dephnet.generator import empty_state
from dephnet.observables import _second_order_coherence
from dephnet.steady_state import evolve
from conftest import SUITE_DELTAS, build_suite, random_density_matrix
from exact_oracle import exact_state


def _result(status, rho=None):
    return SteadyStateResult(status, rho, 0.0, "direct")


def test_current_and_voltage_from_state():
    c = make_wire(2)
    rho = np.array([[0.8, 0.1], [0.1, 0.5]])
    assert current_out(rho, c) == pytest.approx(1.0)
    assert voltage(rho, c) == pytest.approx(0.3)


def test_resistance_conventions():
    c = make_wire(2)
    rho = np.array([[1.0, 0.0], [0.0, 0.5]])
    assert resistance(_result(CONVERGED, rho), c) == pytest.approx(0.5)
    assert resistance(_result(DIVERGED), c) == math.inf
    with pytest.raises(IndeterminateResultError):
        resistance(_result(MAX_TIME_EXCEEDED), c)


def test_conductance_conventions():
    c = make_wire(2)
    assert conductance(_result(DIVERGED), c) == 0.0
    zero_drop = np.diag([0.5, 0.5]).astype(complex)
    assert conductance(_result(CONVERGED, zero_drop), c) == math.inf


def test_entropy_zero_for_diagonal_states():
    assert relative_entropy_coherence(np.diag([0.2, 0.3, 0.5])) == 0.0
    assert relative_entropy_coherence(np.zeros((3, 3))) == 0.0


def test_entropy_known_value_for_pure_superposition():
    # |+><+| has eigenvalues {1, 0} and diagonal {1/2, 1/2}:
    # S = 0 - 2*(1/2 ln 1/2) = ln 2
    rho = 0.5 * np.ones((2, 2), dtype=complex)
    assert relative_entropy_coherence(rho) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_input_validation():
    # not a non-empty square matrix: refused before numpy's own errors
    # (an empty reduction, a broadcast, a LinAlgError)
    for rho in (np.zeros((0, 0)), np.ones((2, 3)), np.ones(3)):
        with pytest.raises(DimensionMismatchError, match="square matrix"):
            relative_entropy_coherence(rho)
    with pytest.raises(PhysicalityError, match="Hermitian"):
        relative_entropy_coherence(np.array([[0.5, 0.4], [0.0, 0.5]]))
    with pytest.raises(PhysicalityError, match="eigenvalue"):
        relative_entropy_coherence(np.diag([1.0, -0.5]))
    # every comparison with NaN is false: an all-NaN matrix would pass
    # the Hermiticity and eigenvalue tests and give 0.0
    for rho in (np.full((2, 2), np.nan), np.array([[np.inf, 0.0], [0.0, 1.0]]),
                np.array([[0.5, np.nan], [np.nan, 0.5]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PhysicalityError, match="NaN or infinite entry"):
                relative_entropy_coherence(rho)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_entropy_nonnegative_on_random_states(seed):
    rho = random_density_matrix(np.random.default_rng(seed), 4, trace=1.0)
    assert relative_entropy_coherence(rho) >= 0.0


@given(st.integers(0, 2 ** 32 - 1), st.permutations(list(range(4))))
@settings(max_examples=40, deadline=None)
def test_entropy_invariant_under_site_relabeling(seed, perm):
    rho = random_density_matrix(np.random.default_rng(seed), 4, trace=1.0)
    p = np.eye(4)[list(perm)]
    relabeled = p @ rho @ p.T
    assert relative_entropy_coherence(relabeled) == pytest.approx(
        relative_entropy_coherence(rho), abs=1e-9)


def test_entropy_tolerates_tiny_negative_eigenvalues():
    rho = np.diag([1.0, -1e-9, 0.0]).astype(complex)
    assert relative_entropy_coherence(rho) == 0.0


@pytest.mark.parametrize("c, delta", [
    (make_additivity_pair()[0], 1e8), (make_pentagon(), 1e10),
    (make_parallel_circuit(4), 1e12), (make_triangle_funnel(), 1e16),
    (make_parallel_circuit(3), 1e16)])
def test_entropy_nonnegative_on_states_with_a_large_trace(c, delta):
    # at strong dephasing the populations reach delta R_eff while S falls
    # like 1/delta; every term of the Bregman sum is >= 0 at any trace
    res = solve_ness_direct(assemble_generator(c, delta))
    assert np.trace(res.rho_ness).real > 1e8
    s = relative_entropy_coherence(res.rho_ness)
    assert math.isfinite(s) and s >= 0.0


def _exact_coherence(c, delta: float, digits: int = 40):
    """S of the exact rational steady state to about `digits` significant
    digits: sum(lam ln lam) - sum(p ln p) from mpmath eigenvalues, with
    20 guard digits for the cancellation of the two sums, which costs
    log10(tr rho / S), about 16 digits at delta = 1e8."""
    x, y = exact_state(c, delta)
    n = len(x)
    with mpmath.workdps(digits + 20):
        rho = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                rho[i, j] = mpmath.mpc(
                    mpmath.mpf(x[i][j].numerator) / x[i][j].denominator,
                    mpmath.mpf(y[i][j].numerator) / y[i][j].denominator)
        lam = mpmath.eighe(rho, eigvals_only=True)
        s = (mpmath.fsum(v * mpmath.log(v) for v in lam if v > 0)
             - mpmath.fsum(rho[i, i].real * mpmath.log(rho[i, i].real)
                           for i in range(n) if rho[i, i].real > 0))
        return float(s)


#: Largest relative error of S against the exact state, by delta: S
#: falls like 1/delta while the state's rounding grows like delta eps.
COHERENCE_RTOL = {1.0: 1e-13, 1e4: 1e-11, 1e6: 2e-9, 1e8: 1e-7}


@pytest.mark.parametrize("c", [
    make_triangle_funnel(), make_additivity_pair()[1], make_pentagon(),
    make_parallel_circuit(3)], ids=lambda c: c.label)
def test_entropy_matches_exact_reference(c):
    for delta, rtol in COHERENCE_RTOL.items():
        exact = _exact_coherence(c, delta)
        s = relative_entropy_coherence(
            solve_ness_direct(assemble_generator(c, delta)).rho_ness)
        assert s == pytest.approx(exact, rel=rtol), delta


def _bregman(rho: np.ndarray) -> float:
    """The Bregman sum of one state, written out on its own in the
    kernel's documented order: every term |U_ia|^2 p_i h(lam_a / p_i) of
    every row i, an unoccupied row (p_i <= 0, taken as 1 in t) multiplied
    by 0, summed over all n^2 terms at once."""
    rho = np.asarray(rho, dtype=complex)
    diag = np.diag(rho).real
    lam, u = np.linalg.eigh(rho)
    occupied = diag > 0
    p = np.where(occupied, diag, 1.0)[:, None]
    t = np.maximum(lam, 0.0) / p
    h = np.maximum(t * np.log(np.where(t > 0, t, 1.0)) - (t - 1.0), 0.0)
    return float(np.sum(np.abs(u) ** 2 * p * h * occupied[:, None]))


def test_stack_equals_each_state_on_the_suite_entropy_traces():
    # every sample of every suite trace: the stack's value is its
    # state's own value and the Bregman sum, to the bit
    for c in build_suite():
        for delta in SUITE_DELTAS:
            times, values = entropy_trace(c, delta, ENTROPY_T_END)
            g = assemble_generator(c, delta)
            states = evolve(g, empty_state(g), ENTROPY_T_END).states
            assert values.shape == times.shape
            singles = [relative_entropy_coherence(rho) for rho in states]
            assert all(type(s) is float for s in singles)
            assert values.tolist() == singles == [_bregman(rho) for rho in states]


def test_stack_skips_unoccupied_sites_as_a_single_state_does():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(rng, 4, trace=1.0)
    rho[1, :] = rho[:, 1] = 0.0  # site 1 empty
    rho[2, :] = rho[:, 2] = 0.0  # site 2 empty
    stack = np.stack([rho, np.zeros((4, 4)), random_density_matrix(rng, 4, 2.0)])
    values = relative_entropy_coherence(stack)
    assert values.tolist() == [relative_entropy_coherence(r) for r in stack]
    assert values.tolist() == [_bregman(r) for r in stack]
    assert values[1] == 0.0 and values[0] > 0.0
    # 300 random states of each size from 2 to 12, each with 1 to n - 1
    # empty sites: summing only the occupied rows differs from the
    # kernel's order by up to 2 eps on about one in four of them
    rng = np.random.default_rng(7)
    for n in range(2, 13):
        stack = []
        for _ in range(300):
            rho = random_density_matrix(rng, n, trace=rng.uniform(0.5, n))
            empty = rng.choice(n, rng.integers(1, n), replace=False)
            rho[empty, :] = rho[:, empty] = 0.0
            stack.append(rho)
        values = relative_entropy_coherence(np.stack(stack))
        assert values.tolist() == [_bregman(r) for r in stack], n


def test_stack_names_the_state_it_refuses():
    good = np.diag([0.5, 0.5]).astype(complex)
    for bad, message in [(np.array([[0.5, 0.4], [0.0, 0.5]]), "Hermitian"),
                         (np.diag([1.0, -0.5]), "eigenvalue"),
                         (np.full((2, 2), np.nan), "NaN or infinite")]:
        with pytest.raises(PhysicalityError,
                           match=f"{message}.*state 1 of the stack"):
            relative_entropy_coherence(np.stack([good, bad, good]))
    for shape in [(0, 2, 2), (2, 2, 3), (1, 1, 2, 2)]:
        with pytest.raises(DimensionMismatchError, match="square matrix"):
            relative_entropy_coherence(np.zeros(shape))


@pytest.mark.parametrize("delta", [0.1, 1.0, 20.0, 1e3, 1e4, 1e6, 1e8])
def test_values_up_to_1e8_are_the_bregman_sum(delta):
    # the strong-dephasing branch is not taken anywhere on the suite up
    # to delta = 1e8
    for c in build_suite():
        res = solve_ness_direct(assemble_generator(c, delta))
        assert relative_entropy_coherence(res.rho_ness) == _bregman(res.rho_ness)
    funnel = make_triangle_funnel()
    rho = solve_ness_direct(assemble_generator(funnel, 1e8)).rho_ness
    assert f"{relative_entropy_coherence(rho):.12g}".startswith("4.5427172")


def _second_order_mp(rho: np.ndarray) -> float:
    """(1/2) sum_{i != j} |rho_ij|^2 (ln p_i - ln p_j) / (p_i - p_j) of
    the float state, evaluated in 50-digit arithmetic."""
    n = len(rho)
    with mpmath.workdps(50):
        p = [mpmath.mpf(float(rho[i, i].real)) for i in range(n)]
        total = mpmath.mpf(0)
        for i in range(n):
            for j in range(n):
                if i != j:
                    size = mpmath.mpf(float(abs(rho[i, j]))) ** 2
                    total += size * ((mpmath.log(p[i]) - mpmath.log(p[j]))
                                     / (p[i] - p[j]))
        return float(total / 2)


@pytest.mark.parametrize("delta", [1e100, 1e300, 1e307])
def test_extreme_dephasing_takes_the_second_order_sum(delta):
    # the Bregman sum gave 0 at 1e100 and 1.2e268 at 1e300, and from
    # 1e305 on it overflows (a numpy warning, an error in this suite);
    # the state is right, and its expansion in the coherences has
    # converged
    c = make_wire(2)
    rho = solve_ness_direct(assemble_generator(c, delta)).rho_ness
    s = relative_entropy_coherence(rho)
    assert s == pytest.approx(_second_order_mp(rho), rel=1e-12)
    # |rho_12|^2 ln(p1 / p2) / (p1 - p2): about 5.8e-99 and 1.7e-298
    assert s == pytest.approx(0.25 * math.log(2 * delta) / delta, rel=1e-6)


def test_second_order_branch_needs_the_whole_expansion_below_rounding():
    # wire2 has no third-order term; the rest is about 1/delta relative,
    # so the branch starts near delta ~ 1e16 and not at 1e12
    c = make_wire(2)
    for delta, taken in [(1e12, False), (1e14, False), (1e17, True)]:
        rho = solve_ness_direct(assemble_generator(c, delta)).rho_ness
        strong = _second_order_coherence(rho[None], np.diag(rho).real[None])
        assert (not np.isnan(strong[0])) == taken, delta
