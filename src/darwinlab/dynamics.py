"""Time evolution and its residuals: the eigenvalue equation and the curl form.

Everything is in natural units (hbar = c = eps0 = 1).  Free evolution is
diagonal in momentum space, so it is applied as an exact per-bin phase
exp(-i |k| t); no time stepping is ever performed.  The Maxwell-form
residual deliberately goes the other way -- a centered
finite-difference time stencil of the exactly evolved position field against
the spectral curl, taken as i k x f on the momentum blocks and transformed to
position space -- to provide an error signal that is independent of the
evolution path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kgrid
from .kgrid import Field, to_position
from .kgrid import spectral_curl  # noqa: F401  (re-export; perfbench/tests inspects it)
from .state import PhotonState, occupied_mask

DEFAULT_DT_FRACTION = 1e-3


def default_maxwell_dt(grid: kgrid.KGrid) -> float:
    """Stencil step small against the fastest representable oscillation."""
    return DEFAULT_DT_FRACTION / grid.k_max


def evolve(state: PhotonState, t: float) -> PhotonState:
    """The state a time increment t later: each bin times exp(-i |k| t).

    At t == 0 the state itself is returned, memo and all."""
    if t == 0.0:
        return state
    g = state.grid
    psi = Field(state.psi.values * g.phase(t), kgrid.MOMENTUM, g)
    return PhotonState(psi, state.time + t)


def dirac_residual(state: PhotonState) -> float:
    """Relative eigenvalue-equation residual, max over occupied bins.

    Per bin: |i gamma0 (gamma . k) psi - omega psi| / (omega |psi|) with
    omega = |k|.  Zero for exact positive-energy states, about 2 for the
    negative branch.
    """
    g = state.grid
    psi = state.psi.values
    omega = g.kmag

    def rows():
        # H psi = (-k x f_l, k x f_u) on the block split, one block at a time
        h = np.empty((3,) + g.shape, dtype=np.complex128)
        for block, partner, sign in ((psi[:3], psi[3:], -1), (psi[3:], psi[:3], 1)):
            kgrid.cross(g.k_axes, partner, out=h)
            if sign < 0:
                np.negative(h, out=h)
            for c in range(3):
                yield h[c] - omega * block[c]

    residual = kgrid.norm(rows())
    amp = kgrid.norm(psi)
    mask = occupied_mask(amp) & (g.kmag > 0.0)
    if not mask.any():
        return 0.0
    return float((residual[mask] / (omega[mask] * amp[mask])).max())


@dataclass(frozen=True)
class MaxwellReport:
    """Residuals of the curl-coupled first-order form in position space."""

    curl_residual: float
    divergence_residual: float
    dt: float


def maxwell_residual(state: PhotonState, dt: float | None = None) -> MaxwellReport:
    """Check d(F_u)/dt = curl F_l and d(F_l)/dt = -curl F_u.

    The curl residual is that of :func:`maxwell_curl_residual`.  The
    divergence of both blocks, an exact spectral derivative i k . f on the
    momentum blocks transformed to position space, is reported alongside,
    normalized by the same curl scale.
    """
    dt = _stencil_dt(state.grid, dt)
    gap, scale = _curl_gap_and_scale(state, dt)
    if scale == 0.0:
        return MaxwellReport(0.0, 0.0, dt)

    g = state.grid
    block_scale = np.sqrt(2.0)
    divs = []
    for f in (state.psi.values[:3], state.psi.values[3:]):
        div_k = 1j * block_scale * kgrid.dot(g.k_axes, f)
        div_x = to_position(Field(div_k[None], kgrid.MOMENTUM, g), overwrite=True)
        divs.append(kgrid.max_abs(div_x.values))
    div = float(np.max(divs))

    return MaxwellReport(gap / scale, div / scale, dt)


def maxwell_curl_residual(state: PhotonState, dt: float | None = None) -> float:
    """The curl residual of :func:`maxwell_residual`, without its divergence.

    The time derivative is a centered finite difference of the exactly
    evolved position field at t +- dt, so the residual is O(dt^2) and must
    shrink fourfold when dt is halved.  The curl is the exact spectral
    derivative i k x f on the momentum blocks, transformed to position
    space.  Three transforms, against the five of the full report.
    """
    gap, scale = _curl_gap_and_scale(state, _stencil_dt(state.grid, dt))
    return 0.0 if scale == 0.0 else gap / scale


def _stencil_dt(grid: kgrid.KGrid, dt: float | None) -> float:
    if dt is None:
        return default_maxwell_dt(grid)
    if dt == 0.0:
        raise ValueError("maxwell_residual needs a nonzero dt")
    return dt


def _curl_gap_and_scale(state: PhotonState, dt: float) -> tuple[float, float]:
    """max |dF/dt - curl F| and max |curl F| over both blocks in position space.

    As the transform is linear, the time difference is formed once, on the
    evolved momentum amplitudes, and then transformed.
    """
    g = state.grid
    psi = state.psi.values
    block_scale = np.sqrt(2.0)

    # both blocks at once: (dF_u/dt, dF_l/dt), compared with (curl F_l, -curl F_u);
    # the -dt copy is subtracted one component at a time, and each array is
    # built only to be transformed, so it is transformed in place
    phase = g.phase(dt)
    stencil = psi * phase
    np.conj(phase, out=phase)  # the backward phase: bitwise g.phase(-dt), one exponential fewer
    for c in range(6):
        stencil[c] -= psi[c] * phase
    del phase
    stencil *= block_scale / (2.0 * dt)
    d_dt = to_position(Field(stencil, kgrid.MOMENTUM, g), overwrite=True).values
    del stencil

    # the curls (curl F_l, -curl F_u) one block at a time, each compared with
    # its half of d_dt; maxima are exact, so the residual is the whole-array
    # one, and the block maxima are folded by np.max, which keeps a NaN
    scales, gaps = [], []
    curl = np.empty((3,) + g.shape, dtype=np.complex128)
    for half, partner, sign in ((d_dt[:3], psi[3:], 1), (d_dt[3:], psi[:3], -1)):
        kgrid.cross(g.k_axes, partner, out=curl)
        if sign < 0:
            np.negative(curl, out=curl)
        curl *= 1j * block_scale
        to_position(Field(curl, kgrid.MOMENTUM, g), overwrite=True)
        scales.append(kgrid.max_abs(curl))
        half -= curl
        gaps.append(kgrid.max_abs(half))
    return float(np.max(gaps)), float(np.max(scales))
