"""Physical photon states on a momentum grid.

A state is a normalized six-component momentum amplitude split into upper and
lower 3-blocks (f_u, f_l)/sqrt(2).  Synthesis builds the upper block from an
envelope times a polarization vector and sets the lower block to w x f_u per
bin, which places the state exactly on the positive-energy branch and makes
the transversality constraint hold by construction.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kgrid
from .algebra import helicity_frame, helicity_vectors
from .kgrid import Field, KGrid, momentum_field

_OCCUPANCY_CUT = 1e-12


@dataclass(frozen=True)
class ModeSpec:
    """One synthesizable mode; a state config may hold several (superposition).

    kind           'plane' (single excited bin nearest k0, which must lie in
                   the grid's band), 'gaussian'
                   (isotropic spectral envelope of width sigma_k), or 'vortex'
                   (envelope times an azimuthal phase of charge vortex_charge
                   about the k0 axis)
    helicity       +1 or -1 selects a circular polarization about the k0 axis;
                   None selects linear polarization along ``polarization``
    polarization   real 3-vector, used when helicity is None; it is
                   orthogonalized against the local momentum direction bin by
                   bin during synthesis
    ring_radius    vortex only: 0 gives the compact form, a gaussian times the
                   analytic winding factor (rho exp(i phi)/sigma)^|charge|;
                   a positive value places a gaussian annulus of that radius
                   around the k0 axis instead, which resolves the azimuthal
                   phase much better at fixed grid spacing
    """

    kind: str
    k0: tuple[float, float, float]
    sigma_k: float = 0.0
    helicity: int | None = 1
    polarization: tuple[float, float, float] | None = None
    vortex_charge: int = 0
    amplitude: complex = 1.0 + 0.0j
    ring_radius: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("plane", "gaussian", "vortex"):
            raise ValueError(f"unknown mode kind {self.kind!r}")
        k0 = np.asarray(self.k0, dtype=float)
        if k0.shape != (3,) or not 0.0 < _length(k0) < np.inf:
            raise ValueError("mode center k0 must be a nonzero 3-vector of finite length")
        if self.kind in ("gaussian", "vortex") and not (self.sigma_k > 0.0):
            raise ValueError(f"{self.kind} mode requires sigma_k > 0")
        if self.ring_radius < 0.0:
            raise ValueError("ring_radius must be non-negative")
        if self.helicity is None:
            if self.polarization is None:
                raise ValueError("mode needs either a helicity or a polarization vector")
            pol = np.asarray(self.polarization, dtype=float)
            if pol.shape != (3,) or not 0.0 < _length(pol) < np.inf:
                raise ValueError("polarization must be a nonzero 3-vector of finite length")
        elif self.helicity not in (1, -1):
            raise ValueError(f"helicity must be +1 or -1, got {self.helicity}")


def _length(v: np.ndarray) -> float:
    """|v| as synthesis computes it; inf where its square overflows."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(v))


class ModeOverflow(ValueError):
    """A mode value drives the synthesized amplitudes out of floating-point
    range, or a plane mode out of the grid's band; ``key`` names the value
    and ``mode`` is the mode's index."""

    def __init__(self, key: str,
                 message: str = "drives the synthesized amplitudes out of floating-point range"):
        super().__init__(message)
        self.key = key
        self.mode = -1  # set by synthesize


@contextmanager
def _blame(key: str):
    """Raise an overflow, invalid value or division by zero in the block as
    a ModeOverflow naming ``key``; synthesize runs with those raising."""
    try:
        yield
    except (FloatingPointError, OverflowError):
        raise ModeOverflow(key) from None


@dataclass(frozen=True)
class PhotonState:
    """Normalized (or deliberately unnormalized) positive-energy photon state.

    A state holds only what the amplitudes cannot give back: ``psi`` and the
    ``time`` it stands at.  The payload is checked finite here, once per
    state, and the fields computed from it are not scanned again.  The
    payload scalars ``norm`` and ``rqc_residual`` are derived from ``psi`` on
    first use and cached for as long as the state lives, so building a state
    computes nothing and no stored copy can disagree with the payload.  Arrays
    derived from it, such as the position transform, are kept by the memo of
    :mod:`darwinlab.observables`, which also decides when they are released.
    The payload is made read-only here, so no in-place operation can change
    it under those cached values.

    The payload stores the blocks as psi = (f_u, f_l)/sqrt(2); only this
    module and :mod:`darwinlab.fieldbridge` apply or undo that scale, and
    every other route reads the views ``psi[:3]`` and ``psi[3:]`` as stored.
    """

    psi: Field
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.psi.rep != kgrid.MOMENTUM or self.psi.ncomp != 6:
            raise ValueError("state wavefunction must be a 6-component momentum field")
        if not np.isfinite(self.psi.values).all():
            raise ValueError("field contains non-finite entries")
        self.psi.values.flags.writeable = False

    @property
    def grid(self) -> KGrid:
        return self.psi.grid

    @cached_property
    def norm(self) -> float:
        """Total probability of the payload, sum |psi|^2 dk^3."""
        return kgrid.norm_squared(self.psi)

    @cached_property
    def rqc_residual(self) -> float:
        """Transversality residual of the payload; see transversality_residual."""
        return transversality_residual(self.psi)

    def f_upper(self) -> np.ndarray:
        """A new array of f_u: the upper 3-block, its sqrt(2) scale undone."""
        return np.sqrt(2.0) * self.psi.values[:3]

    def f_lower(self) -> np.ndarray:
        return np.sqrt(2.0) * self.psi.values[3:]


def occupied_mask(amp: np.ndarray) -> np.ndarray:
    """Bins whose amplitude is above round-off of the peak amplitude."""
    peak = amp.max()
    if peak == 0.0:
        return np.zeros(amp.shape, dtype=bool)
    return amp > _OCCUPANCY_CUT * peak


def transversality_residual(psi: Field) -> float:
    """max over occupied bins of |k.f| / (|k| |f|), both blocks."""
    g = psi.grid
    blocks = (psi.values[:3], psi.values[3:])
    amps = [kgrid.norm(f) for f in blocks]
    mask = occupied_mask(amps[0] + amps[1]) & (g.kmag > 0.0)
    if not mask.any():
        return 0.0
    worst = 0.0
    for f, amp in zip(blocks, amps):
        sub = mask & (amp > 0.0)
        if not sub.any():
            continue
        longi = np.abs(kgrid.dot(g.khat, f))
        worst = max(worst, float((longi[sub] / amp[sub]).max()))
    return worst


def branch_residual(state: PhotonState) -> float:
    """Residual of the positive-energy coupling k x f_u = k f_l (and its twin)."""
    g = state.grid
    f_u, f_l = state.psi.values[:3], state.psi.values[3:]  # a ratio: the sqrt(2) cancels
    scale = kgrid.norm(f_u) + kgrid.norm(f_l)
    mask = occupied_mask(scale) & (g.kmag > 0.0)
    if not mask.any():
        return 0.0
    r1 = kgrid.norm(kgrid.cross(g.khat, f_u) - f_l)
    r2 = kgrid.norm(kgrid.cross(g.khat, f_l) + f_u)
    return float(((r1 + r2)[mask] / scale[mask]).max())


def _mode_polarization(spec: ModeSpec) -> np.ndarray:
    """Base polarization of the mode; a single vector, prior to projection."""
    w0 = np.asarray(spec.k0, dtype=float)
    w0 = w0 / np.linalg.norm(w0)
    if spec.helicity is not None:
        eplus, eminus = helicity_vectors(w0)
        return eplus if spec.helicity > 0 else eminus
    pol = np.asarray(spec.polarization, dtype=float)
    return (pol / np.linalg.norm(pol)).astype(np.complex128)


def _mode_envelope(spec: ModeSpec, grid: KGrid) -> np.ndarray:
    """The mode's scalar envelope; each step that can leave floating-point
    range names the mode value that drove it there (see synthesize)."""
    k0 = np.asarray(spec.k0, dtype=float)
    if spec.kind == "plane":
        env = np.zeros(grid.shape, dtype=np.complex128)
        with _blame("k0"):
            idx = tuple(int(np.rint(c / grid.dk)) for c in k0)
        # a bin beyond the band would alias onto another momentum
        h = grid.n // 2
        if not all(-h <= i < h for i in idx):
            raise ModeOverflow("k0", f"nearest bin {list(idx)} lies outside the grid band "
                                     f"[{-h}, {h - 1}]")
        env[idx] = 1.0
        return env
    if spec.kind == "gaussian" or (spec.kind == "vortex" and spec.ring_radius == 0.0):
        offset = [k - c for k, c in zip(grid.k_axes, k0)]
        with _blame("k0"):
            dist2 = kgrid.dot(offset, offset)
        with _blame("sigma_k"):
            env = np.exp(-dist2 / (2.0 * spec.sigma_k**2)).astype(np.complex128)
        if spec.kind == "vortex" and spec.vortex_charge != 0:
            # azimuthal winding about the k0 axis, carried by the analytic
            # factor ((k.e1 +- i k.e2)/sigma)^|l| = (rho/sigma)^|l| exp(i l phi);
            # the rho^|l| amplitude keeps the bins near the phase singularity
            # unoccupied, so finite differences stay second-order accurate
            w0 = k0 / np.linalg.norm(k0)
            e1, e2 = helicity_frame(w0)
            sign = 1.0 if spec.vortex_charge > 0 else -1.0
            with _blame("sigma_k"):
                winding = (
                    kgrid.dot(grid.k_axes, e1) + 1j * sign * kgrid.dot(grid.k_axes, e2)
                ) / spec.sigma_k
            with _blame("vortex_charge"):
                env = env * winding ** abs(spec.vortex_charge)
        return env

    # annular vortex: gaussian torus of radius ring_radius about the k0 axis,
    # centered at height |k0| along it; the annulus keeps the axis unoccupied.
    # A cosine taper cuts the tail to exactly zero at 5 sigma from the ring,
    # so the mode has compact spectral support and clean grid-boundary decay;
    # the taper sits where the gaussian is already < 5e-2 of peak, adding only
    # a negligible weighted contribution to finite-difference errors.
    w0 = k0 / np.linalg.norm(k0)
    e1, e2 = helicity_frame(w0)
    height = kgrid.dot(grid.k_axes, w0) - np.linalg.norm(k0)
    c1 = kgrid.dot(grid.k_axes, e1)
    c2 = kgrid.dot(grid.k_axes, e2)
    rho = np.hypot(c1, c2)
    dist = np.hypot(rho - spec.ring_radius, height)
    del rho, height  # each bins-sized array is freed once read for the last time
    with _blame("ring_radius"):
        dist2 = dist**2
    with _blame("sigma_k"):
        env = np.exp(-dist2 / (2.0 * spec.sigma_k**2)).astype(np.complex128)
        del dist2
        lo, hi = 2.5 * spec.sigma_k, 5.0 * spec.sigma_k
        taper = np.clip((dist - lo) / (hi - lo), 0.0, 1.0)
    del dist
    env = env * (0.5 * (1.0 + np.cos(np.pi * taper)))
    del taper
    if spec.vortex_charge != 0:
        with _blame("vortex_charge"):
            env = env * np.exp(1j * spec.vortex_charge * np.arctan2(c2, c1))
    return env


def synthesize(specs: list[ModeSpec], grid: KGrid) -> PhotonState:
    """Build a normalized positive-energy state from a list of mode specs.

    Per bin: accumulate envelope x polarization into the upper block, project
    out the longitudinal part, couple the lower block as w x f_u, zero the DC
    bin, then normalize.  Raises if the synthesis lands entirely outside the
    resolvable band (zero norm), and raises ModeOverflow, naming the mode
    and its value, where a mode would leave floating-point range: an
    envelope or a mode's sum |amplitude x envelope|^2 that overflows, or a
    total norm that does (named by the mode of the largest sum).  So no
    state it returns holds a non-finite value or a norm that is not finite.

    Both blocks are written into the one six-component array that becomes
    the payload, one component at a time through one bins-sized scratch
    array, and scaled in place; the state is made once, at the end.
    """
    if not specs:
        raise ValueError("need at least one mode spec")

    psi = np.zeros((6,) + grid.shape, dtype=np.complex128)
    f_u = psi[:3]
    scratch = np.empty(grid.shape, dtype=np.complex128)
    powers = []
    try:
        with np.errstate(all="raise", under="ignore"):
            for mode, spec in enumerate(specs):
                env = _mode_envelope(spec, grid)
                with _blame("vortex_charge"):  # only its winding lifts an envelope above 1
                    if not math.isfinite(np.vdot(env, env).real):
                        raise OverflowError
                with _blame("amplitude"):
                    term = complex(spec.amplitude) * env
                    del env
                    powers.append(np.vdot(term, term).real)  # the polarization is a unit vector
                    if not math.isfinite(powers[-1]):
                        raise OverflowError
                    for f, p in zip(f_u, _mode_polarization(spec)):
                        f += np.multiply(term, p, out=scratch)
                    del term

            mode = int(np.argmax(powers))  # a sum that overflows names its largest mode
            with _blame("amplitude"):
                # transverse projection of the upper block; the lower block inherits it
                longitudinal = kgrid.dot(grid.khat, f_u)
                for f, w in zip(f_u, grid.khat):
                    f -= np.multiply(longitudinal, w, out=scratch)
                del longitudinal, scratch
                f_u[:, 0, 0, 0] = 0.0  # the DC bin
                kgrid.cross(grid.khat, f_u, out=psi[3:])
                psi /= np.sqrt(2.0)
                norm = kgrid.norm_squared(momentum_field(psi, grid))
                if not math.isfinite(norm):  # the bin volume is applied in Python floats
                    raise OverflowError
    except ModeOverflow as exc:
        exc.mode = mode
        raise
    if norm <= 0.0:
        raise ValueError(
            "synthesized state is identically zero: mode spectrum falls outside "
            "the grid band or the polarization is purely longitudinal"
        )
    psi /= np.sqrt(norm)
    return PhotonState(momentum_field(psi, grid))

