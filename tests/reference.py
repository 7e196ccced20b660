"""Reference routes that the tests compare the library against.

Each function here is an independent way to compute something the library
computes, or a way to build an input for one of its checks: the
positive-energy projectors from the helicity basis, the single-block spin
integrals, the spectral gradient and divergence of position fields, the
complex positive-frequency field pair with its Landau-Peierls weighting, a
classical field assembled from Fourier data, and the four-current with its
continuity residual.  ``dpl`` runs none of them, so they live with the tests;
nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from darwinlab import kgrid
from darwinlab.algebra import _check_wavevector, helicity_vectors
from darwinlab.dynamics import default_maxwell_dt
from darwinlab.fieldbridge import ClassicalField, _safe_inverse, _validate_classical
from darwinlab.kgrid import (
    MOMENTUM,
    POSITION,
    Field,
    KGrid,
    _require,
    momentum_field,
    to_momentum,
    to_position,
)
from darwinlab.state import PhotonState


# -- algebra: positive- and negative-energy projectors at one wavevector

def _energy_eigenvectors(k, sign: int) -> np.ndarray:
    """Two orthonormal 6-vectors spanning the energy-`sign` eigenspace."""
    k, kmag = _check_wavevector(k)
    w = k / kmag
    vecs = []
    for pol in helicity_vectors(w):
        lower = sign * np.cross(w, pol)
        vecs.append(np.concatenate([pol, lower]) / np.sqrt(2.0))
    return np.stack(vecs, axis=1)  # (6, 2)


def positive_energy_projector(k) -> np.ndarray:
    """Rank-2 Hermitian projector onto the +|k| eigenspace of H(k).

    Built analytically from the helicity vectors: the eigenspace is spanned by
    (e_pm, w x e_pm)/sqrt(2), which keeps the projector reproducible and free
    of eigensolver phase ambiguity.
    """
    u = _energy_eigenvectors(k, +1)
    return u @ u.conj().T


def negative_energy_projector(k) -> np.ndarray:
    """Rank-2 projector onto the -|k| eigenspace (lower block w x f negated)."""
    u = _energy_eigenvectors(k, -1)
    return u @ u.conj().T


# -- observables: <spin> from one block

def _block_spin(f: np.ndarray, measure: float) -> np.ndarray:
    """-i integral f* x f over the bins of one 3-block."""
    density = -1j * kgrid.cross(np.conj(f), f)
    return (np.sum(density, axis=(1, 2, 3)) * measure).real


def spin_cross(state: PhotonState, block: str = "upper") -> np.ndarray:
    """<spin> = -i integral f* x f d3k over a single block."""
    f = state.f_upper() if block == "upper" else state.f_lower()
    return _block_spin(f, state.psi.measure)


def spin_position(state: PhotonState, block: str = "upper") -> np.ndarray:
    """<spin> = -i integral F* x F d3x over a single block, position space."""
    pos = state.psi_position
    F = np.sqrt(2.0) * (pos.values[:3] if block == "upper" else pos.values[3:])
    return _block_spin(F, pos.measure)


# -- kgrid: spatial derivatives of position fields, through momentum space

def spectral_gradient(field: Field) -> tuple[Field, Field, Field]:
    """Exact spatial gradient of a position field, one Field per axis."""
    _require(field, POSITION)
    f = to_momentum(field)
    g = field.grid
    out = []
    for axis in range(3):
        mult = 1j * g.kvec[axis]
        out.append(to_position(Field(mult * f.values, MOMENTUM, g, field.time)))
    return out[0], out[1], out[2]


def spectral_divergence(field: Field) -> Field:
    """Divergence of a 3-component position field, returned as a scalar field."""
    _require(field, POSITION)
    if field.ncomp != 3:
        raise ValueError("divergence requires a 3-component field")
    f = to_momentum(field)
    div = 1j * kgrid.dot(field.grid.kvec, f.values)
    return to_position(Field(div[None], MOMENTUM, field.grid, field.time))


# -- fieldbridge: classical data in, wavefunction blocks out

def classical_from_kspace(eps_k, eta_k, grid: KGrid, time: float = 0.0) -> ClassicalField:
    """Assemble a ClassicalField from Fourier data, checking its invariants."""
    eps_k = np.asarray(eps_k, dtype=np.complex128)
    eta_k = np.asarray(eta_k, dtype=np.complex128)
    E_real = to_position(momentum_field(eps_k, grid, time)).values.real
    H_real = to_position(momentum_field(eta_k, grid, time)).values.real
    cf = ClassicalField(eps_k=eps_k, eta_k=eta_k, E_real=E_real, H_real=H_real, grid=grid, time=time)
    _validate_classical(cf)
    return cf


@dataclass(frozen=True)
class ComplexFieldPair:
    """Positive-frequency complex field pair in both representations."""

    e: np.ndarray  # (3, n, n, n) momentum amplitudes of E
    h: np.ndarray  # (3, n, n, n) momentum amplitudes of H
    E: np.ndarray  # position-space complex E
    H: np.ndarray  # position-space complex H
    grid: KGrid
    time: float = 0.0


def complex_pair(state: PhotonState) -> ComplexFieldPair:
    """e = sqrt(k) f_u and h = sqrt(k) f_l, with their position transforms;
    the pair whose real part ``fieldbridge.classical_from_state`` returns."""
    g = state.grid
    sqrt_k = np.sqrt(g.kmag)
    e = sqrt_k * state.f_upper()
    h = sqrt_k * state.f_lower()
    E = to_position(momentum_field(e, g, state.time)).values
    H = to_position(momentum_field(h, g, state.time)).values
    return ComplexFieldPair(e=e, h=h, E=E, H=H, grid=g, time=state.time)


def landau_peierls_transform(pair: ComplexFieldPair) -> tuple[Field, Field]:
    """Position-space wavefunction blocks from the complex field pair.

    The 1/sqrt(k) weighting is the spectral realization of the
    fractional |x - x'|^(-5/2) convolution; applying it to (e, h) and
    transforming yields (F_u, F_l).
    """
    g = pair.grid
    inv_sqrt_k = _safe_inverse(np.sqrt(g.kmag))
    F_u = to_position(momentum_field(inv_sqrt_k * pair.e, g, pair.time))
    F_l = to_position(momentum_field(inv_sqrt_k * pair.h, g, pair.time))
    return F_u, F_l


# -- dynamics: the four-current and its continuity equation

@dataclass(frozen=True)
class CurrentField:
    """Four-current of the wave equation in position space.

    j0 is the pointwise-positive candidate probability density |Psi|^2; the
    spatial components come out real for any state because the sandwiched
    matrices are anti-Hermitian.  No interpretation beyond the
    continuity equation is attached to the spatial part.
    """

    j0: np.ndarray   # (n, n, n) real, >= 0
    j: np.ndarray    # (3, n, n, n) real
    grid: KGrid
    time: float


def four_current(state: PhotonState) -> CurrentField:
    """j0 = Psi^dag Psi and j_a = i (Psi^dag gamma0 gamma_a Psi).

    On the block split the spatial part reduces to cross products:
    j = 2 Re(Psi_u* x Psi_l), with Psi_u, Psi_l the (1/sqrt 2)-scaled blocks.
    """
    pos = state.psi_position
    upper = pos.values[:3]
    lower = pos.values[3:]
    j0 = np.sum(np.abs(pos.values) ** 2, axis=0)
    j = 2.0 * np.real(kgrid.cross(np.conj(upper), lower))
    return CurrentField(j0=j0, j=j, grid=state.grid, time=state.time)


def _phase_evolved(state: PhotonState, t: float) -> PhotonState:
    g = state.grid
    psi = momentum_field(state.psi.values * np.exp(-1j * g.kmag * t), g, state.time + t)
    return PhotonState(psi, scale_factor=state.scale_factor)


def continuity_residual(state: PhotonState, dt: float | None = None) -> float:
    """Pointwise residual of d(j0)/dt + div j = 0, via a centered stencil.

    The time derivative uses the exactly evolved state at t +- dt; the
    divergence is spectral.  O(dt^2), like the Maxwell-form check, provided
    the current's spectrum fits the band: the current is quadratic in the
    amplitudes, so its bandwidth doubles, and states occupying more than half
    the band alias into a dt-independent floor.
    """
    g = state.grid
    if dt is None:
        dt = default_maxwell_dt(g)
    before = four_current(_phase_evolved(state, -dt))
    after = four_current(_phase_evolved(state, +dt))
    now = four_current(state)
    drho_dt = (after.j0 - before.j0) / (2.0 * dt)
    div_j = spectral_divergence(
        kgrid.position_field(now.j.astype(np.complex128), g, state.time)
    ).values[0].real
    scale = float(np.abs(div_j).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(drho_dt + div_j).max()) / scale
