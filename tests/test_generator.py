import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dephnet import (EXPLICIT_BATH, REDUCED, DimensionMismatchError,
                     GraphConstructionError, UnsupportedFormError,
                     apply_generator, assemble_generator, clamp_bath,
                     empty_state, make_pentagon, make_triangle_funnel,
                     make_wire, real_linear_system)
from dephnet.generator import (SOURCE_FLUX, _apply_explicit, _coordinate_pairs,
                               _explicit_linear_system, _hermitian_coords)
from conftest import random_connected_circuit, random_density_matrix


def test_assemble_generator_validates():
    c = make_wire(2)
    with pytest.raises(UnsupportedFormError):
        assemble_generator(c, 0.0, form="banana")
    g = assemble_generator(c, 1.0)
    assert g.dim == 2 and g.delta == 1.0
    assert assemble_generator(c, 1.0, form=EXPLICIT_BATH).dim == 4
    # just below the delta whose rate 2 delta overflows
    assert assemble_generator(c, 8.98e307).delta == 8.98e307
    assert SOURCE_FLUX == 1.0  # the injected flux is the unit of current


@pytest.mark.parametrize("delta", [-0.1, float("nan"), float("inf")])
def test_assemble_generator_rejects_bad_delta(delta):
    with pytest.raises(GraphConstructionError, match="finite and >= 0"):
        assemble_generator(make_wire(2), delta)


@pytest.mark.parametrize("delta", [8.99e307, 1e308, np.finfo(float).max])
def test_assemble_generator_rejects_delta_whose_rate_overflows(delta):
    # the rate 2 delta is infinite, and inf * 0 would put NaN into the
    # real system
    with pytest.raises(GraphConstructionError, match="overflows its rate"):
        assemble_generator(make_wire(2), delta)


def test_wire1_derivative_is_scalar_filling_law():
    # single site, source = sink: drho/dt = 1 - 2 rho
    g = assemble_generator(make_wire(1), 0.0)
    for value in (0.0, 0.25, 0.5):
        d = apply_generator(g, np.array([[value]], dtype=complex))
        assert d[0, 0] == pytest.approx(1.0 - 2.0 * value, abs=1e-14)
    a, b = real_linear_system(g)
    assert np.array_equal(a, [[-2.0]]) and np.array_equal(b, [1.0])


def test_reduced_trace_derivative_is_injection_minus_ejection():
    c = make_pentagon()
    g = assemble_generator(c, 0.7)
    rng = np.random.default_rng(3)
    rho = random_density_matrix(rng, 5, trace=2.0)
    d = apply_generator(g, rho)
    expected = 1.0 - 2.0 * rho[c.sink, c.sink].real
    assert np.trace(d).real == pytest.approx(expected, abs=1e-12)
    assert abs(np.trace(d).imag) < 1e-12


def test_dim_mismatch_rejected():
    g = assemble_generator(make_wire(3), 0.0)
    with pytest.raises(DimensionMismatchError):
        apply_generator(g, np.zeros((2, 2)))


@given(st.floats(min_value=0.0, max_value=20.0), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_generator_preserves_hermiticity(delta, seed):
    c = make_pentagon()
    g = assemble_generator(c, delta)
    rho = random_density_matrix(np.random.default_rng(seed), 5, trace=1.5)
    d = apply_generator(g, rho)
    assert np.abs(d - d.conj().T).max() < 1e-12


@given(st.floats(min_value=0.0, max_value=20.0), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_real_linear_system_matches_apply(delta, seed):
    rng = np.random.default_rng(seed)
    g = assemble_generator(random_connected_circuit(rng), delta)
    pack, unpack = _hermitian_coords(g.dim)
    a, b = real_linear_system(g)
    y = rng.normal(size=g.dim ** 2)
    assert np.abs(pack(apply_generator(g, unpack(y))) - (a @ y + b)).max() < 1e-12


@given(st.floats(min_value=0.0, max_value=20.0), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_explicit_linear_system_matches_apply(delta, seed):
    # y is random in every coordinate, the bath ones included, so the
    # clamp inside apply_generator has entries to pin
    rng = np.random.default_rng(seed)
    c = random_connected_circuit(rng)
    g = assemble_generator(c, delta, form=EXPLICIT_BATH)
    pack, unpack = _hermitian_coords(g.dim)
    a, b = _explicit_linear_system(g)
    y = rng.normal(size=g.dim ** 2)
    assert np.abs(pack(apply_generator(g, unpack(y))) - (a @ y + b)).max() < 1e-12
    ci, cj, _ = _coordinate_pairs(g.dim)
    bath = (ci >= c.graph.n) | (cj >= c.graph.n)
    assert not a[bath].any() and not b[bath].any()


def test_real_linear_system_rejects_explicit_form():
    g = assemble_generator(make_wire(2), 0.0, form=EXPLICIT_BATH)
    with pytest.raises(UnsupportedFormError):
        real_linear_system(g)


def test_explicit_bath_clamping():
    c = make_wire(3)
    g = assemble_generator(c, 0.5, form=EXPLICIT_BATH)
    rho0 = empty_state(g)
    assert rho0[3, 3] == 0.5  # input bath starts at its pinned value
    assert rho0[4, 4] == 0.0
    rng = np.random.default_rng(11)
    noisy = random_density_matrix(rng, 5, trace=2.0)
    clamped = clamp_bath(g, noisy)
    assert clamped[3, 3] == 0.5 and clamped[4, 4] == 0.0
    assert np.abs(clamped[3:, :3]).max() == 0.0
    # the derivative never moves the bath entries
    d = apply_generator(g, noisy)
    assert np.abs(d[3:, :]).max() == 0.0
    assert np.abs(d[:, 3:]).max() == 0.0


def test_explicit_matches_reduced_on_system_block():
    c = make_wire(3)
    rng = np.random.default_rng(7)
    system = random_density_matrix(rng, 3, trace=1.2)
    for delta in (0.0, 1.3):
        g_r = assemble_generator(c, delta)
        g_x = assemble_generator(c, delta, form=EXPLICIT_BATH)
        full = empty_state(g_x)
        full[:3, :3] = system
        d_r = apply_generator(g_r, system)
        d_x = apply_generator(g_x, full)
        assert np.abs(d_r - d_x[:3, :3]).max() < 1e-12


def _zero_fill_unpack(dim: int, y: np.ndarray) -> np.ndarray:
    """unpack as it was written before it wrote each entry once: zero
    fill, then the real parts, then the imaginary parts added, then the
    lower triangle read back and conjugated."""
    ci, cj, split = _coordinate_pairs(dim)
    re, im = slice(0, split), slice(split, None)
    rho = np.zeros(y.shape[:-1] + (dim, dim), dtype=complex)
    rho[..., ci[re], cj[re]] = y[..., re]
    rho[..., ci[im], cj[im]] += 1j * y[..., im]
    rho[..., cj[im], ci[im]] = rho[..., ci[im], cj[im]].conj()
    return rho


@pytest.mark.parametrize("dim", [1, 2, 5, 9])
def test_unpack_equals_zero_fill_reference_to_the_bit(dim):
    rng = np.random.default_rng(dim)
    y = rng.normal(size=(7, 3, dim * dim)) * 10.0 ** rng.integers(-8, 8, (7, 3, 1))
    # signed zeros, which a zero fill and an add treat in their own way
    y[0] = 0.0
    y[1] = -0.0
    y[2, :, ::2] = -0.0
    unpack = _hermitian_coords(dim)[1]
    for stack in (y, y[4, 1]):
        assert unpack(stack).tobytes() == _zero_fill_unpack(dim, stack).tobytes()


@pytest.mark.parametrize("delta", [0.0, 0.1, 1.0, 20.0])
def test_stacked_probe_equals_one_probe_per_basis_state(delta):
    for c in (make_pentagon(), make_triangle_funnel(), make_wire(2)):
        g = assemble_generator(c, delta, form=EXPLICIT_BATH)
        pack, unpack = _hermitian_coords(g.dim)
        b = pack(_apply_explicit(g, np.zeros((g.dim, g.dim), dtype=complex)))
        a = np.stack([pack(_apply_explicit(g, e))
                      for e in unpack(np.eye(g.dim * g.dim))], axis=1)
        probed = _explicit_linear_system(g)
        assert probed[0].tobytes() == (a - b[:, None]).tobytes()
        assert probed[1].tobytes() == b.tobytes()
