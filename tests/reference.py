"""Reference routes that the tests compare the library against.

Each function here is an independent way to compute something the library
computes, or a way to build an input for one of its checks: the
positive-energy projectors from the helicity basis, the single-block spin
integrals, the spectral gradient and divergence of position fields, the
complex positive-frequency field pair with its Landau-Peierls weighting, a
classical field assembled from Fourier data, the whole state a classical
field carries, the position densities as whole arrays, the four-current
with its continuity residual, the full (3, n, n, n) coordinate grids and
the README example's modes.  ``dpl`` runs none of them, so they live with
the tests; nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from darwinlab import kgrid, observables
from darwinlab.algebra import _check_wavevector, helicity_vectors
from darwinlab.dynamics import default_maxwell_dt, evolve
from darwinlab.fieldbridge import ClassicalField, _validate_classical, state_blocks
from darwinlab.kgrid import (
    POSITION,
    Field,
    KGrid,
    _require,
    dc_safe_reciprocal,
    momentum_field,
    to_momentum,
    to_position,
)
from darwinlab.state import ModeSpec, PhotonState


# the modes of the README example config
README_MODES = [
    ModeSpec(kind="gaussian", k0=(0, 0, 8), sigma_k=1.5, helicity=1),
    ModeSpec(kind="vortex", k0=(0, 0, 7), sigma_k=1.5, helicity=None, polarization=(1, 0, 0),
             vortex_charge=2, ring_radius=7.0, amplitude=0.5),
]


def full_grid(axes) -> np.ndarray:
    """The (3, n, n, n) array of a grid's coordinates, from its broadcasting
    axes ``KGrid.k_axes`` or ``KGrid.x_axes``; ``dpl`` never builds one."""
    return np.stack(np.broadcast_arrays(*axes))


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
    return _block_spin(f, state.grid.dk**3)


def spin_position(state: PhotonState, block: str = "upper") -> np.ndarray:
    """<spin> = -i integral F* x F d3x over a single block, position space."""
    pos = observables.psi_position(state)
    F = np.sqrt(2.0) * (pos[:3] if block == "upper" else pos[3:])
    return _block_spin(F, state.grid.dx**3)


# -- observables: the routes on whole arrays, as they were before they worked
# one block or one component at a time; the library must match them bitwise.
# Like the library, they read the stored blocks psi = (f_u, f_l)/sqrt(2) and
# apply the exact factor 2 of a one-block bilinear form once, to its result

def _whole_array_kernel_density(state: PhotonState) -> np.ndarray:
    """The real nonlocal kernel spin density, from three six-component
    transforms.  w_i (w x f) is formed as the library places its factors:
    k_i (k x f) / |k|^2, with 1/|k|^2 set to 0 at the DC bin."""
    g = state.grid
    psi, pos = state.psi, observables.psi_position(state)
    kvec = full_grid(g.k_axes)
    k2 = np.sum(kvec**2, axis=0)
    inverse_k2 = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0.0)
    chi = np.empty_like(psi)
    kgrid.cross(kvec, psi[:3], out=chi[:3])
    kgrid.cross(kvec, psi[3:], out=chi[3:])
    chi *= 1j
    s = np.empty((3,) + g.shape)
    for i in range(3):
        phi = to_position(momentum_field(kvec[i] * chi * inverse_k2, g), overwrite=True)
        s[i] = np.sum(np.conj(pos) * phi, axis=0).real
    return s


def _whole_array_cross_density(block: np.ndarray) -> np.ndarray:
    """-i f* x f for f = sqrt(2) block, over the whole block."""
    return -2j * kgrid.cross(np.conj(block), block)


def whole_array_routes(state: PhotonState) -> dict[str, np.ndarray]:
    """The nonlocal density (three six-component transforms), both OAM routes
    (whole conjugate and derivative blocks; the position route both as the
    integral of x x h and as its moments), the canonical momentum density
    and the position-block cross densities, each over whole arrays."""
    g = state.grid
    psi, pos = state.psi, observables.psi_position(state)
    out = {"nonlocal": _whole_array_kernel_density(state)}
    kvec = full_grid(g.k_axes)

    f = psi[:3]
    peeled = f * np.exp(1j * g.kmag * state.time) if state.time != 0.0 else f
    h = np.stack([kgrid.dot(np.conj(peeled), kgrid.k_gradient(peeled, g, a)) for a in range(3)])
    out["oam_momentum"] = (-2j * np.sum(kgrid.cross(kvec, h), axis=(1, 2, 3)) * g.dk**3).real
    F_conj = np.conj(pos[:3])
    h = np.stack([kgrid.dot(F_conj, to_position(momentum_field(1j * kvec[a] * f, g)))
                  for a in range(3)])
    out["oam_position"] = (-2j * np.sum(kgrid.cross(full_grid(g.x_axes), h), axis=(1, 2, 3))
                           * g.dx**3).real
    # the same integral as differences of the moments M[a, b] = sum x_b h_a
    x = full_grid(g.x_axes)
    m = np.array([[np.sum(x[b] * h[a]) if b != a else 0.0 for b in range(3)] for a in range(3)])
    out["oam_position_moments"] = (-2j * np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0],
                                                   m[1, 0] - m[0, 1]]) * g.dx**3).real

    out["canonical"] = 0.5 * (_whole_array_cross_density(psi[:3])
                              + _whole_array_cross_density(psi[3:]))
    out["position_upper"] = _whole_array_cross_density(pos[:3])
    out["position_lower"] = _whole_array_cross_density(pos[3:])
    return out


def whole_array_densities(state: PhotonState) -> dict[str, np.ndarray]:
    """The seven position densities that ``dpl densities`` cuts planes from,
    each over the whole grid: the real spin densities ``spin_full``,
    ``spin_upper``, ``spin_lower`` and ``spin_kernel`` (3, n, n, n) and the
    probability densities ``prob_psi``, ``prob_upper`` and ``prob_lower``
    (n, n, n).  The full densities are the means of the block densities."""
    pos = observables.psi_position(state)
    upper = _whole_array_cross_density(pos[:3]).real
    lower = _whole_array_cross_density(pos[3:]).real
    prob_upper = 2.0 * np.sum(np.abs(pos[:3]) ** 2, axis=0)
    prob_lower = 2.0 * np.sum(np.abs(pos[3:]) ** 2, axis=0)
    return {"spin_full": 0.5 * (upper + lower), "spin_upper": upper, "spin_lower": lower,
            "spin_kernel": _whole_array_kernel_density(state),
            "prob_psi": 0.5 * (prob_upper + prob_lower),
            "prob_upper": prob_upper, "prob_lower": prob_lower}


# -- dynamics: the curl form on whole arrays, as it was before the curls were
# transformed one block at a time; the library must match it bitwise

def whole_array_maxwell(state: PhotonState) -> tuple[float, float]:
    """(curl residual, divergence residual) of ``dynamics.maxwell_residual``
    at its default dt, with one six-component stencil transform and one
    six-component transform of both curls, compared as whole arrays.  Both
    residuals are ratios to the curl scale, so the stored blocks are used."""
    g = state.grid
    dt = default_maxwell_dt(g)
    psi = state.psi
    stencil = psi * np.exp(-1j * g.kmag * dt) - psi * np.exp(1j * g.kmag * dt)
    stencil *= 1.0 / (2.0 * dt)
    d_dt = to_position(momentum_field(stencil, g))

    curls = np.empty_like(d_dt)
    kgrid.cross(g.k_axes, psi[3:], out=curls[:3])
    kgrid.cross(g.k_axes, psi[:3], out=curls[3:])
    np.negative(curls[3:], out=curls[3:])
    curls *= 1j
    curls = to_position(momentum_field(curls, g))
    scale = float(np.abs(curls).max())
    div = max(float(np.abs(to_position(momentum_field(1j * kgrid.dot(g.k_axes, f)[None],
                                                      g))).max())
              for f in (psi[:3], psi[3:]))
    return float(np.abs(d_dt - curls).max()) / scale, div / scale


# -- kgrid: spatial derivatives of position fields, through momentum space

def spectral_gradient(field: Field) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact spatial gradient of a position field, one position array per axis."""
    _require(field, POSITION)
    f = to_momentum(field)
    g = field.grid
    out = []
    for axis in range(3):
        mult = 1j * g.k_axes[axis]
        out.append(to_position(momentum_field(mult * f, g)))
    return out[0], out[1], out[2]


def spectral_divergence(field: Field) -> np.ndarray:
    """Divergence of a 3-component position field, as a one-component position array."""
    _require(field, POSITION)
    if field.values.shape[0] != 3:
        raise ValueError("divergence requires a 3-component field")
    f = to_momentum(field)
    div = 1j * kgrid.dot(field.grid.k_axes, f)
    return to_position(momentum_field(div[None], field.grid))


# -- fieldbridge: classical data in, wavefunction blocks out

def classical_from_kspace(eps_k, eta_k, grid: KGrid) -> ClassicalField:
    """Assemble a ClassicalField from Fourier data, checking its invariants."""
    eps_k = np.asarray(eps_k, dtype=np.complex128)
    eta_k = np.asarray(eta_k, dtype=np.complex128)
    E_real = to_position(momentum_field(eps_k, grid)).real
    H_real = to_position(momentum_field(eta_k, grid)).real
    cf = ClassicalField(eps_k=eps_k, eta_k=eta_k, E_real=E_real, H_real=H_real, grid=grid)
    _validate_classical(cf)
    return cf


def state_from_classical(cf: ClassicalField) -> PhotonState:
    """The state a classical snapshot carries, whole, at time 0 (a snapshot
    records no time): the two blocks of ``fieldbridge.state_blocks`` in one
    payload, scanned as any state's is.  ``dpl`` compares each block with the
    checked state as it is made and never builds this state."""
    return PhotonState(np.concatenate(list(state_blocks(cf))), cf.grid)


@dataclass(frozen=True)
class ComplexFieldPair:
    """Positive-frequency complex field pair in both representations."""

    e: np.ndarray  # (3, n, n, n) momentum amplitudes of E
    h: np.ndarray  # (3, n, n, n) momentum amplitudes of H
    E: np.ndarray  # position-space complex E
    H: np.ndarray  # position-space complex H
    grid: KGrid


def complex_pair(state: PhotonState) -> ComplexFieldPair:
    """e = sqrt(k) f_u and h = sqrt(k) f_l, with their position transforms;
    the pair whose real part ``fieldbridge.classical_from_state`` returns."""
    g = state.grid
    sqrt_k = np.sqrt(g.kmag)
    e = sqrt_k * state.f_upper()
    h = sqrt_k * state.f_lower()
    E = to_position(momentum_field(e, g))
    H = to_position(momentum_field(h, g))
    return ComplexFieldPair(e=e, h=h, E=E, H=H, grid=g)


def landau_peierls_transform(pair: ComplexFieldPair) -> tuple[np.ndarray, np.ndarray]:
    """Position-space wavefunction blocks from the complex field pair.

    The 1/sqrt(k) weighting is the spectral realization of the
    fractional |x - x'|^(-5/2) convolution; applying it to (e, h) and
    transforming yields (F_u, F_l).
    """
    g = pair.grid
    inv_sqrt_k = dc_safe_reciprocal(np.sqrt(g.kmag))
    F_u = to_position(momentum_field(inv_sqrt_k * pair.e, g))
    F_l = to_position(momentum_field(inv_sqrt_k * pair.h, g))
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


def four_current(state: PhotonState) -> CurrentField:
    """j0 = Psi^dag Psi and j_a = i (Psi^dag gamma0 gamma_a Psi).

    On the block split the spatial part reduces to cross products:
    j = 2 Re(Psi_u* x Psi_l), with Psi_u, Psi_l the (1/sqrt 2)-scaled blocks.
    """
    pos = observables.psi_position(state)
    upper = pos[:3]
    lower = pos[3:]
    j0 = np.sum(np.abs(pos) ** 2, axis=0)
    j = 2.0 * np.real(kgrid.cross(np.conj(upper), lower))
    return CurrentField(j0=j0, j=j, grid=state.grid)


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
    before = four_current(evolve(state, -dt))
    after = four_current(evolve(state, +dt))
    now = four_current(state)
    drho_dt = (after.j0 - before.j0) / (2.0 * dt)
    div_j = spectral_divergence(kgrid.position_field(now.j, g))[0].real
    scale = float(np.abs(div_j).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(drho_dt + div_j).max()) / scale
