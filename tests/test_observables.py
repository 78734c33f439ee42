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
from conftest import random_density_matrix
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
