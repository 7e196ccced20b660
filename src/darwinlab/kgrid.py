"""Discrete momentum grid and the Fourier contract between representations.

Conventions (fixed once, everything downstream depends on them):

* momentum -> position uses the +i k.x kernel with (2 pi)^(-3/2) prefactor,
  position -> momentum the -i k.x kernel;
* bins are laid out in standard FFT order, the k = 0 (DC) bin sits at array
  index (0, 0, 0), signed frequencies run over -n/2 .. n/2 - 1;
* the continuum measures d3k and d3x become the bin volumes dk^3 and dx^3,
  with dx = 2 pi / (n dk), which makes the discrete Parseval identity exact;
* the dual position grid uses signed coordinates, so position bins cover
  [-L/2, L/2) with L = 2 pi / dk.

Gradients with respect to k are centered finite differences (the amplitudes
are not periodic in k, so an FFT-based derivative would alias); spatial
derivatives are exact spectral multiplications by i k.

Every grid array is component-first: a c-component field is (c, n, n, n),
so each component is one contiguous block of bins.  Per-bin 3-vector algebra
goes through :func:`cross`, :func:`dot` and :func:`norm`, which work
component by component on a first axis of length 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

ArrayC = NDArray[np.complex128]
ArrayR = NDArray[np.float64]

MOMENTUM = "momentum"
POSITION = "position"

_FT_NORM = (2.0 * np.pi) ** 1.5


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b per bin over a first axis of length 3; either side may be one (3,) vector.

    Bitwise equal to ``np.cross(a, b, axis=0)``, which copies and promotes
    both inputs as a whole; here only the per-component products are
    allocated.  A (3,) vector is taken as constant over the bins.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    bins = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    out = np.empty((3,) + bins, dtype=np.result_type(a, b))
    np.subtract(a1 * b2, a2 * b1, out=out[0])
    np.subtract(a2 * b0, a0 * b2, out=out[1])
    np.subtract(a0 * b1, a1 * b0, out=out[2])
    return out


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b per bin (no conjugation); bitwise equal to ``np.sum(a * b, axis=0)``."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def norm(a: np.ndarray) -> np.ndarray:
    """|a| per bin; bitwise equal to ``np.linalg.norm(a, axis=0)``.

    Each square is the real part of conj(a_i) a_i, the complex product numpy's
    norm uses (with FMA it can differ from re^2 + im^2 in the last bit).
    """
    a0, a1, a2 = a
    return np.sqrt((a0.conj() * a0).real + (a1.conj() * a1).real + (a2.conj() * a2).real)


@dataclass(frozen=True)
class KGrid:
    """Uniform Cartesian momentum grid, n bins per axis with spacing dk."""

    n: int
    dk: float

    def __post_init__(self) -> None:
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {self.n}")
        if not (0.0 < self.dk < np.inf):
            raise ValueError(f"grid spacing must be positive and finite, got {self.dk}")

    @property
    def box_length(self) -> float:
        return 2.0 * np.pi / self.dk

    @property
    def dx(self) -> float:
        return self.box_length / self.n

    @property
    def k_nyquist(self) -> float:
        return 0.5 * self.n * self.dk

    @property
    def k_max(self) -> float:
        """Largest |k| representable on the grid (box corner)."""
        return np.sqrt(3.0) * self.k_nyquist

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @cached_property
    def signed_index(self) -> NDArray[np.int64]:
        return np.rint(np.fft.fftfreq(self.n) * self.n).astype(np.int64)

    @cached_property
    def k1d(self) -> ArrayR:
        return self.signed_index * self.dk

    @cached_property
    def x1d(self) -> ArrayR:
        return self.signed_index * self.dx

    @cached_property
    def kvec(self) -> ArrayR:
        return np.stack(np.meshgrid(self.k1d, self.k1d, self.k1d, indexing="ij"))

    @cached_property
    def xvec(self) -> ArrayR:
        return np.stack(np.meshgrid(self.x1d, self.x1d, self.x1d, indexing="ij"))

    @cached_property
    def kmag(self) -> ArrayR:
        return norm(self.kvec)

    @cached_property
    def khat(self) -> ArrayR:
        """Unit momentum direction per bin; zero at the DC bin."""
        safe = np.where(self.kmag > 0.0, self.kmag, 1.0)
        w = self.kvec / safe
        w[:, 0, 0, 0] = 0.0
        return w

    @cached_property
    def rmag(self) -> ArrayR:
        return norm(self.xvec)


def reverse_bins(values: np.ndarray) -> np.ndarray:
    """Map bin (i, j, l) to (-i, -j, -l) mod n over the three grid axes (1, 2, 3)."""
    out = values
    for axis in (1, 2, 3):
        out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
    return out


@dataclass(frozen=True)
class Field:
    """Complex multi-component amplitude field over a grid.

    ``values`` has shape (c, n, n, n) with c in {1, 3, 6}: component first,
    so each component (and each 3-block of a six-component field, ``[:3]``
    and ``[3:]``) is contiguous over the bins.  ``rep`` tags the
    representation the bins live in.  Fields are immutable values: every
    operation returns a new Field.
    """

    values: ArrayC
    rep: str
    grid: KGrid
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.rep not in (MOMENTUM, POSITION):
            raise ValueError(f"unknown representation {self.rep!r}")
        expect = self.grid.shape
        v = self.values
        if v.ndim != 4 or v.shape[1:] != expect or v.shape[0] not in (1, 3, 6):
            raise ValueError(
                f"field values must have shape (c, n, n, n) with c in (1, 3, 6); got {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ValueError("field contains non-finite entries")

    @property
    def ncomp(self) -> int:
        return self.values.shape[0]

    @property
    def measure(self) -> float:
        return self.grid.dk**3 if self.rep == MOMENTUM else self.grid.dx**3


def momentum_field(values, grid: KGrid, time: float = 0.0) -> Field:
    return Field(np.asarray(values, dtype=np.complex128), MOMENTUM, grid, time)


def position_field(values, grid: KGrid, time: float = 0.0) -> Field:
    return Field(np.asarray(values, dtype=np.complex128), POSITION, grid, time)


def _require(field: Field, rep: str) -> None:
    if field.rep != rep:
        raise ValueError(f"expected a {rep}-representation field, got {field.rep}")


def to_position(field: Field) -> Field:
    """Transform momentum amplitudes to the position representation."""
    _require(field, MOMENTUM)
    g = field.grid
    scale = g.n**3 * g.dk**3 / _FT_NORM
    # all three axes write into one output; without out= numpy allocates one
    # per axis, which costs time and a third field-sized array at the peak
    values = np.fft.ifftn(field.values, axes=(1, 2, 3),
                          out=np.empty(field.values.shape, dtype=np.complex128))
    values *= scale
    return Field(values, POSITION, g, field.time)


def to_momentum(field: Field) -> Field:
    """Inverse of :func:`to_position` (the -i k.x kernel)."""
    _require(field, POSITION)
    g = field.grid
    scale = g.dx**3 / _FT_NORM
    values = np.fft.fftn(field.values, axes=(1, 2, 3),
                         out=np.empty(field.values.shape, dtype=np.complex128))
    values *= scale
    return Field(values, MOMENTUM, g, field.time)


def norm_squared(field: Field) -> float:
    # summed bin by bin with the components innermost, the order of the former
    # (n, n, n, c) layout: normalization divides by this sum, so a built state
    # stays bit-identical to one built before the component-first layout
    density = np.moveaxis(np.abs(field.values) ** 2, 0, -1).copy()
    return float(np.sum(density)) * field.measure


def boundary_amplitude_ratio(field: Field) -> float:
    """Max |field| on the outermost bin shell divided by the global max."""
    mags = np.linalg.norm(field.values, axis=0)
    peak = float(mags.max())
    if peak == 0.0:
        return 0.0
    shifted = np.fft.fftshift(mags)
    edge = 0.0
    for axis in range(3):
        lead = np.take(shifted, 0, axis=axis)
        trail = np.take(shifted, -1, axis=axis)
        edge = max(edge, float(lead.max()), float(trail.max()))
    return edge / peak


@dataclass(frozen=True)
class KGradient:
    """Result of a finite-difference k-gradient."""

    components: tuple[Field, Field, Field]
    boundary_ratio: float


def k_gradient(field: Field) -> KGradient:
    """Centered finite-difference gradient along the three k-axes.

    The array is unwrapped to monotonically ordered frequencies before
    differencing, so stencils never straddle the Nyquist wrap; the boundary
    bins use one-sided second-order differences.  The result records how well
    the amplitude has decayed at the grid boundary, where the one-sided
    stencils (and the non-periodicity of the data) make the derivative
    unreliable.
    """
    _require(field, MOMENTUM)
    g = field.grid
    ratio = boundary_amplitude_ratio(field)
    shifted = np.fft.fftshift(field.values, axes=(1, 2, 3))
    comps = []
    for axis in (1, 2, 3):
        d = np.gradient(shifted, g.dk, axis=axis, edge_order=2)
        comps.append(Field(np.fft.ifftshift(d, axes=(1, 2, 3)), MOMENTUM, g, field.time))
    return KGradient(components=(comps[0], comps[1], comps[2]), boundary_ratio=ratio)


def spectral_curl(field: Field) -> Field:
    """Curl of a 3-component position field via i k x (.) in momentum space."""
    _require(field, POSITION)
    if field.ncomp != 3:
        raise ValueError("curl requires a 3-component field")
    f = to_momentum(field)
    curled = 1j * cross(field.grid.kvec, f.values)
    return to_position(Field(curled, MOMENTUM, field.grid, field.time))
