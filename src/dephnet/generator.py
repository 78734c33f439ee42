"""Right-hand side of the master equation.

The generator bundles four parts: unitary motion under the graph
Laplacian, constant injection at the source, ejection at the sink, and
position-basis dephasing. Two equivalent forms are provided:

* ``reduced`` (canonical): the bath sites are eliminated, leaving an
  affine map on the n-site density matrix,

      drho/dt = -i[H, rho] + S |s><s| - (g/2)(|k><k| rho + rho |k><k|)
                + L_D(rho),

  with g = 2 and S = g * 0.5 = 1, so the sink population drains at rate
  2 rho_kk and sink coherences at rate 1. L_D multiplies each
  off-diagonal by -2 gamma_D and leaves populations untouched.

* ``explicit-bath``: two bath sites |L>, |R> are appended and the
  injection/ejection become jump operators sqrt(g)|s><L| and
  sqrt(g)|R><k|. The bath populations are pinned (rho_LL = 0.5,
  rho_RR = 0, bath coherences 0) at every derivative evaluation, which
  makes the two forms agree exactly on the system block. The pinning is
  not linear, so only the reduced form has a matrix representation:
  real_linear_system writes it as dy/dt = a y + b over the n^2 real
  coordinates y of a Hermitian state, the form both solvers use.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, GraphConstructionError, UnsupportedFormError
from .graphs import Circuit, laplacian_hamiltonian

REDUCED = "reduced"
EXPLICIT_BATH = "explicit-bath"


@dataclass(frozen=True)
class RateSet:
    """Bath and dephasing rates.

    gamma_bath and rho_L default to the values that fix the current unit
    (source flux S = gamma_bath * rho_L = 1); gamma_D is the dephasing
    rate, equal to the dimensionless strength delta because the hopping
    amplitude is 1.
    """

    gamma_D: float
    gamma_bath: float = 2.0
    rho_L: float = 0.5

    def __post_init__(self):
        if self.gamma_D < 0:
            raise GraphConstructionError("dephasing strength must be >= 0")
        if self.gamma_bath <= 0:
            raise GraphConstructionError("bath rate must be positive")
        if self.rho_L < 0:
            raise GraphConstructionError("bath population must be >= 0")

    @property
    def source_flux(self) -> float:
        return self.gamma_bath * self.rho_L

    @property
    def delta(self) -> float:
        return self.gamma_D


@dataclass(frozen=True, eq=False)
class Generator:
    """Assembled affine map rho -> drho/dt for one circuit and one delta."""

    circuit: Circuit
    rates: RateSet
    H: np.ndarray
    form: str

    @property
    def dim(self) -> int:
        n = self.circuit.graph.n
        return n if self.form == REDUCED else n + 2


def assemble_generator(circuit: Circuit, delta: float,
                       form: str = REDUCED,
                       rates: RateSet | None = None) -> Generator:
    """Build the generator for `circuit` at dephasing strength `delta`."""
    if form not in (REDUCED, EXPLICIT_BATH):
        raise UnsupportedFormError(f"unknown generator form {form!r}")
    if rates is None:
        rates = RateSet(gamma_D=float(delta))
    elif rates.gamma_D != delta:
        raise GraphConstructionError("rates.gamma_D must equal delta")
    h = laplacian_hamiltonian(circuit.graph).astype(complex)
    if form == EXPLICIT_BATH:
        n = circuit.graph.n
        full = np.zeros((n + 2, n + 2), dtype=complex)
        full[:n, :n] = h  # bath sites are uncoupled from the Hamiltonian
        h = full
    h.setflags(write=False)
    return Generator(circuit, rates, h, form)


def empty_state(g: Generator) -> np.ndarray:
    """Canonical initial state: no particles on the device.

    In the explicit-bath form the input bath starts at its pinned
    population.
    """
    rho = np.zeros((g.dim, g.dim), dtype=complex)
    if g.form == EXPLICIT_BATH:
        rho[g.dim - 2, g.dim - 2] = g.rates.rho_L
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
    half = 0.5 * g.rates.gamma_bath
    d = -1j * (g.H @ rho - rho @ g.H)
    d[s, s] += g.rates.source_flux
    d[k, :] -= half * rho[k, :]
    d[:, k] -= half * rho[:, k]
    gamma_d = g.rates.gamma_D
    if gamma_d > 0:
        d -= 2.0 * gamma_d * (rho - np.diag(np.diag(rho)))
    return d


def clamp_bath(g: Generator, rho: np.ndarray) -> np.ndarray:
    """Copy of rho with the bath entries pinned.

    Input bath population 0.5, output bath population 0, every bath-row
    and bath-column coherence 0.
    """
    n = g.circuit.graph.n
    out = rho.copy()
    out[n:, :] = 0.0
    out[:, n:] = 0.0
    out[n, n] = g.rates.rho_L
    return out


def _apply_explicit(g: Generator, rho: np.ndarray) -> np.ndarray:
    n = g.circuit.graph.n
    s, k = g.circuit.source, g.circuit.sink
    left, right = n, n + 1
    gamma = g.rates.gamma_bath
    rho = clamp_bath(g, rho)
    d = -1j * (g.H @ rho - rho @ g.H)
    # injection jump sqrt(gamma)|s><L|
    d[s, s] += gamma * rho[left, left].real
    d[left, :] -= 0.5 * gamma * rho[left, :]
    d[:, left] -= 0.5 * gamma * rho[:, left]
    # ejection jump sqrt(gamma)|R><k|
    d[right, right] += gamma * rho[k, k].real
    d[k, :] -= 0.5 * gamma * rho[k, :]
    d[:, k] -= 0.5 * gamma * rho[:, k]
    gamma_d = g.rates.gamma_D
    if gamma_d > 0:
        sys = rho[:n, :n]
        d[:n, :n] -= 2.0 * gamma_d * (sys - np.diag(np.diag(sys)))
    # the bath populations are held constant, so their rows and columns
    # of the derivative are forced to zero after each evaluation
    d[n:, :] = 0.0
    d[:, n:] = 0.0
    return d


def _coordinate_pairs(dim: int):
    """Site pair (i, j) of each of the dim**2 real coordinates of a
    Hermitian matrix, and the count `split` of leading coordinates that
    are real parts: rho_ii, then Re rho_ij and then Im rho_ij for i < j."""
    sites = np.arange(dim)
    iu, ju = np.triu_indices(dim, 1)
    return (np.concatenate([sites, iu, iu]), np.concatenate([sites, ju, ju]),
            dim + len(iu))


def _hermitian_coords(dim: int):
    """pack/unpack between a Hermitian matrix and its real coordinates."""
    ci, cj, split = _coordinate_pairs(dim)
    re, im = slice(0, split), slice(split, None)

    def pack(rho: np.ndarray) -> np.ndarray:
        v = rho[ci, cj]
        return np.concatenate([v[re].real, v[im].imag])

    def unpack(y: np.ndarray) -> np.ndarray:
        rho = np.zeros((dim, dim), dtype=complex)
        rho[ci[re], cj[re]] = y[re]
        rho[ci[im], cj[im]] += 1j * y[im]
        rho[cj[im], ci[im]] = rho[ci[im], cj[im]].conj()
        return rho

    return pack, unpack


def real_linear_system(g: Generator) -> tuple[np.ndarray, np.ndarray]:
    """Real matrix a and offset b with pack(apply_generator(g, unpack(y)))
    = a y + b in the coordinates of _hermitian_coords.

    Written entry by entry from rho = X + iY (X symmetric, Y
    antisymmetric, H the real Laplacian, P_k the sink projector):

        dX = [H, Y] - (g/2){P_k, X} - 2 gamma_D offdiag(X) + S e_s e_s^T
        dY = -[H, X] - (g/2){P_k, Y} - 2 gamma_D Y

    A commutator entry has at most 2n terms, so the build is O(n^3)
    beyond allocating a.
    """
    if g.form != REDUCED:
        raise UnsupportedFormError(
            "only the reduced form has a matrix representation; "
            "bath clamping in the explicit form is not linear")
    n, h, sink = g.dim, g.H.real, g.circuit.sink
    ci, cj, split = _coordinate_pairs(n)
    coord, sites = np.arange(n * n), np.arange(n)
    # X_lm = y[col[0, l, m]] and Y_lm = sign[1, l, m] * y[col[1, l, m]];
    # sign[1] is 0 on the diagonal, where Y vanishes
    col, part = np.zeros((2, n, n), dtype=int), (coord >= split).astype(int)
    col[part, ci, cj] = col[part, cj, ci] = coord
    sign = np.stack([np.ones((n, n)), np.sign(sites - sites[:, None])])
    half = 0.5 * g.rates.gamma_bath
    a = np.diag(-(half * (ci == sink) + half * (cj == sink)
                  + 2.0 * g.rates.gamma_D * (ci != cj)))

    def add_commutator(rows, z, scale):
        # a[rows] += scale * [H, Z]_ij for the pair (i, j) of each row,
        # [H, Z]_ij = sum_l H_il Z_lj - Z_il H_lj, Z = X (z = 0) or Y (1)
        i, j, c, s = ci[rows], cj[rows], col[z], sign[z]
        rows = rows[:, None]
        np.add.at(a, (rows, c[:, j].T), scale * h[i, :] * s[:, j].T)
        np.add.at(a, (rows, c[i, :]), -scale * h[:, j].T * s[i, :])

    add_commutator(coord[:split], 1, 1.0)
    add_commutator(coord[split:], 0, -1.0)
    b = g.rates.source_flux * (coord == g.circuit.source)  # X_ss is y[s]
    return a, b


def dephase(rho: np.ndarray) -> np.ndarray:
    """Project onto the position basis: keep the diagonal, zero the rest."""
    rho = np.asarray(rho, dtype=complex)
    return np.diag(np.diag(rho))
