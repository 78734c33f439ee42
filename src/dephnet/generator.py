"""Right-hand side of the master equation.

The generator bundles four parts: unitary motion under the graph
Laplacian, constant injection at the source, ejection at the sink, and
position-basis dephasing. Two equivalent forms are provided:

* ``reduced`` (canonical): the bath sites are eliminated, leaving an
  affine map on the n-site density matrix,

      drho/dt = -i[H, rho] + S |s><s| - (g/2)(|k><k| rho + rho |k><k|)
                + L_D(rho),

  with g = GAMMA_BATH = 2 and S = SOURCE_FLUX = g * RHO_L = 1, so the
  sink population drains at rate 2 rho_kk and sink coherences at rate 1.
  These rates are fixed: S is the unit of current. L_D multiplies each
  off-diagonal by -2 delta and leaves populations untouched.

* ``explicit-bath``: two bath sites |L>, |R> are appended and the
  injection/ejection become jump operators sqrt(g)|s><L| and
  sqrt(g)|R><k|. The bath populations are pinned (rho_LL = 0.5,
  rho_RR = 0, bath coherences 0) at every derivative evaluation, which
  makes the two forms agree exactly on the system block. The pinning
  sets constants and zeroes entries, so this map is affine too.

Both forms are written as dy/dt = a y + b over the dim^2 real
coordinates y of a Hermitian state, by two independent constructions.
real_linear_system writes the reduced form entry by entry; both
solvers use it. _explicit_linear_system probes _apply_explicit on the
coordinate basis; evolve advances either system by the same exact
propagator, so acceptance criterion 13 compares the two constructions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, GraphConstructionError, UnsupportedFormError
from .graphs import Circuit, laplacian_hamiltonian

REDUCED = "reduced"
EXPLICIT_BATH = "explicit-bath"


#: The paper's units. The drain rate g and the pinned input-bath
#: population rho_L set the injected flux S = g rho_L, which is the unit
#: of current, so a resistance is just a population difference.
GAMMA_BATH = 2.0
RHO_L = 0.5
SOURCE_FLUX = GAMMA_BATH * RHO_L


@dataclass(frozen=True, eq=False)
class Generator:
    """Assembled affine map rho -> drho/dt for one circuit and one delta.

    delta is the dephasing rate gamma_D, equal to the dimensionless
    strength because the hopping amplitude is 1.
    """

    circuit: Circuit
    delta: float
    H: np.ndarray
    form: str

    @property
    def dim(self) -> int:
        n = self.circuit.graph.n
        return n if self.form == REDUCED else n + 2


def assemble_generator(circuit: Circuit, delta: float,
                       form: str = REDUCED) -> Generator:
    """Build the generator for `circuit` at dephasing strength `delta`."""
    if form not in (REDUCED, EXPLICIT_BATH):
        raise UnsupportedFormError(f"unknown generator form {form!r}")
    delta = float(delta)
    if not 0.0 <= delta < np.inf:
        raise GraphConstructionError(
            f"dephasing strength must be finite and >= 0, got {delta}")
    if 2.0 * delta == np.inf:
        raise GraphConstructionError(
            f"dephasing strength {delta} overflows its rate 2 delta")
    h = laplacian_hamiltonian(circuit.graph).astype(complex)
    if form == EXPLICIT_BATH:
        n = circuit.graph.n
        full = np.zeros((n + 2, n + 2), dtype=complex)
        full[:n, :n] = h  # bath sites are uncoupled from the Hamiltonian
        h = full
    h.setflags(write=False)
    return Generator(circuit, delta, h, form)


def empty_state(g: Generator) -> np.ndarray:
    """Canonical initial state: no particles on the device.

    In the explicit-bath form the input bath starts at its pinned
    population.
    """
    rho = np.zeros((g.dim, g.dim), dtype=complex)
    if g.form == EXPLICIT_BATH:
        rho[g.dim - 2, g.dim - 2] = RHO_L
    return rho


def apply_generator(g: Generator, rho: np.ndarray) -> np.ndarray:
    """Evaluate drho/dt. Hermitian input gives Hermitian output."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (g.dim, g.dim):
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not match generator dim {g.dim}")
    if g.form == REDUCED:
        return _apply_reduced(g, rho)
    return _apply_explicit(g, rho)


def _apply_reduced(g: Generator, rho: np.ndarray) -> np.ndarray:
    s, k = g.circuit.source, g.circuit.sink
    half = 0.5 * GAMMA_BATH
    d = -1j * (g.H @ rho - rho @ g.H)
    d[s, s] += SOURCE_FLUX
    d[k, :] -= half * rho[k, :]
    d[:, k] -= half * rho[:, k]
    if g.delta > 0:
        d -= 2.0 * g.delta * (rho - np.diag(np.diag(rho)))
    return d


def clamp_bath(g: Generator, rho: np.ndarray) -> np.ndarray:
    """Copy of rho, or of each state of a (k, dim, dim) stack, with the
    bath entries pinned.

    Input bath population RHO_L, output bath population 0, every bath-row
    and bath-column coherence 0.
    """
    n = g.circuit.graph.n
    out = rho.copy()
    out[..., n:, :] = 0.0
    out[..., :, n:] = 0.0
    out[..., n, n] = RHO_L
    return out


def _apply_explicit(g: Generator, rho: np.ndarray) -> np.ndarray:
    """drho/dt of the explicit-bath form, for one state or for each
    state of a (k, dim, dim) stack (it acts on the last two axes)."""
    n = g.circuit.graph.n
    s, k = g.circuit.source, g.circuit.sink
    left, right = n, n + 1
    rho = clamp_bath(g, rho)
    d = -1j * (g.H @ rho - rho @ g.H)
    # injection jump sqrt(GAMMA_BATH)|s><L|
    d[..., s, s] += GAMMA_BATH * rho[..., left, left].real
    d[..., left, :] -= 0.5 * GAMMA_BATH * rho[..., left, :]
    d[..., :, left] -= 0.5 * GAMMA_BATH * rho[..., :, left]
    # ejection jump sqrt(GAMMA_BATH)|R><k|
    d[..., right, right] += GAMMA_BATH * rho[..., k, k].real
    d[..., k, :] -= 0.5 * GAMMA_BATH * rho[..., k, :]
    d[..., :, k] -= 0.5 * GAMMA_BATH * rho[..., :, k]
    if g.delta > 0:
        offdiag = rho[..., :n, :n].copy()
        sites = np.arange(n)
        offdiag[..., sites, sites] -= rho[..., sites, sites]
        d[..., :n, :n] -= 2.0 * g.delta * offdiag
    # the bath populations are held constant, so their rows and columns
    # of the derivative are forced to zero after each evaluation
    d[..., n:, :] = 0.0
    d[..., :, n:] = 0.0
    return d


def _explicit_linear_system(g: Generator) -> tuple[np.ndarray, np.ndarray]:
    """Real matrix a and offset b with pack(_apply_explicit(g, unpack(y)))
    = a y + b in the coordinates of _hermitian_coords.

    Probed, not derived: b is the derivative at y = 0 and column i of a
    is the derivative at the unit vector e_i minus b, all dim^2 unit
    vectors in one call on their stack. The bath clamp sets constants
    and zeroes entries, so the map is affine and the probe exact to
    rounding; the bath rows of a and b and the bath columns of a are
    exactly zero. Built from _apply_explicit alone, never from
    real_linear_system.
    """
    pack, unpack = _hermitian_coords(g.dim)
    basis = unpack(np.eye(g.dim * g.dim))
    b = pack(_apply_explicit(g, np.zeros((g.dim, g.dim), dtype=complex)))
    return pack(_apply_explicit(g, basis)).T - b[:, None], b


def _coordinate_pairs(dim: int):
    """Site pair (i, j) of each of the dim**2 real coordinates of a
    Hermitian matrix, and the count `split` of leading coordinates that
    are real parts: rho_ii, then Re rho_ij and then Im rho_ij for i < j."""
    sites = np.arange(dim)
    iu, ju = np.triu_indices(dim, 1)
    return (np.concatenate([sites, iu, iu]), np.concatenate([sites, ju, ju]),
            dim + len(iu))


def _hermitian_coords(dim: int):
    """pack/unpack between a Hermitian matrix and its real coordinates.

    Both act on the last axes, so a (k, dim, dim) stack of states packs
    into a (k, dim**2) array of coordinates and unpacks back."""
    ci, cj, split = _coordinate_pairs(dim)
    re, im = slice(0, split), slice(split, None)

    def pack(rho: np.ndarray) -> np.ndarray:
        v = rho[..., ci, cj]
        return np.concatenate([v[..., re].real, v[..., im].imag], axis=-1)

    # flat positions of the diagonal, the upper and the lower triangle
    diagonal, upper = ci[:dim] * (dim + 1), ci[dim:split] * dim + cj[dim:split]
    lower = cj[dim:split] * dim + ci[dim:split]

    def unpack(y: np.ndarray) -> np.ndarray:
        # every entry is written once; the upper triangle is formed as
        # Re + 1j Im, the lower one as its conjugate
        rho = np.empty(y.shape[:-1] + (dim * dim,), dtype=complex)
        rho[..., diagonal] = y[..., :dim]
        coherence = y[..., dim:split] + 1j * y[..., im]
        rho[..., upper] = coherence
        rho[..., lower] = coherence.conj()
        return rho.reshape(y.shape[:-1] + (dim, dim))

    return pack, unpack


def real_linear_system(g: Generator) -> tuple[np.ndarray, np.ndarray]:
    """Real matrix a and offset b with pack(apply_generator(g, unpack(y)))
    = a y + b in the coordinates of _hermitian_coords.

    Written entry by entry from rho = X + iY (X symmetric, Y
    antisymmetric, H the real Laplacian, P_k the sink projector):

        dX = [H, Y] - (g/2){P_k, X} - 2 delta offdiag(X) + S e_s e_s^T
        dY = -[H, X] - (g/2){P_k, Y} - 2 delta Y

    A commutator entry has at most 2n terms, so the build is O(n^3)
    beyond allocating a.
    """
    if g.form != REDUCED:
        raise UnsupportedFormError(
            "real_linear_system writes the reduced form only; the "
            "explicit-bath form is probed from its own map, so that it "
            "stays an independent check of this matrix")
    n, h, sink = g.dim, g.H.real, g.circuit.sink
    ci, cj, split = _coordinate_pairs(n)
    coord, sites = np.arange(n * n), np.arange(n)
    # X_lm = y[col[0, l, m]] and Y_lm = sign[1, l, m] * y[col[1, l, m]];
    # sign[1] is 0 on the diagonal, where Y vanishes
    col, part = np.zeros((2, n, n), dtype=int), (coord >= split).astype(int)
    col[part, ci, cj] = col[part, cj, ci] = coord
    sign = np.stack([np.ones((n, n)), np.sign(sites - sites[:, None])])
    half = 0.5 * GAMMA_BATH
    a = np.diag(-(half * (ci == sink) + half * (cj == sink)
                  + 2.0 * g.delta * (ci != cj)))

    def add_commutator(rows, z, scale):
        # a[rows] += scale * [H, Z]_ij for the pair (i, j) of each row,
        # [H, Z]_ij = sum_l H_il Z_lj - Z_il H_lj, Z = X (z = 0) or Y (1)
        i, j, c, s = ci[rows], cj[rows], col[z], sign[z]
        rows = rows[:, None]
        np.add.at(a, (rows, c[:, j].T), scale * h[i, :] * s[:, j].T)
        np.add.at(a, (rows, c[i, :]), -scale * h[:, j].T * s[i, :])

    add_commutator(coord[:split], 1, 1.0)
    add_commutator(coord[split:], 0, -1.0)
    b = SOURCE_FLUX * (coord == g.circuit.source)  # X_ss is y[s]
    return a, b
