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
component by component on a first axis of length 3, or on the grid's one
coordinate form, the axes :attr:`KGrid.k_axes` and :attr:`KGrid.x_axes`.  A
:class:`Field` is values, representation and grid, never scanned for finiteness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

ArrayC = NDArray[np.complex128]
ArrayR = NDArray[np.float64]

MOMENTUM = "momentum"
POSITION = "position"

_FT_NORM = (2.0 * np.pi) ** 1.5


def _bins_and_dtype(a, b) -> tuple[tuple[int, ...], np.dtype]:
    """Bin shape and dtype of a per-bin product of a and b, from their components."""
    parts = (*a, *b)
    return np.broadcast_shapes(*(np.shape(p) for p in parts)), np.result_type(*parts)


def cross(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a x b per bin over a first axis of length 3.

    Either side may also be one (3,) vector, taken as constant over the
    bins, or three components that broadcast against the bins (such as
    :attr:`KGrid.k_axes`).  Bitwise equal to ``np.cross(a, b, axis=0)``,
    which copies and promotes both inputs as a whole; here each component is
    written into ``out`` (allocated when not given; it must not overlap a or
    b).  The first two rows take their second product in the last row,
    before it is written, and the last row takes its own one slab of the
    first bin axis at a time, so no bins-sized scratch array is made.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    bins, dtype = _bins_and_dtype(a, b)
    if out is None:
        out = np.empty((3,) + bins, dtype=dtype)
    x, y, last = out
    for row, (p, q, r, s) in ((x, (a1, b2, a2, b1)), (y, (a2, b0, a0, b2))):
        np.multiply(p, q, out=row)
        np.multiply(r, s, out=last)
        np.subtract(row, last, out=row)
    np.multiply(a0, b1, out=last)
    a1, b0 = np.broadcast_to(a1, bins), np.broadcast_to(b0, bins)
    scratch = np.empty(bins[1:], dtype=dtype)
    for j, slab in enumerate(last):
        np.multiply(a1[j], b0[j], out=scratch)
        np.subtract(slab, scratch, out=slab)
    return out


def dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a . b per bin (no conjugation); bitwise equal to ``np.sum(a * b, axis=0)``.

    The products are summed in order into ``out`` (allocated when not given)
    through one bins-sized scratch array.  Either side may also be a sequence
    of three component arrays, which is never stacked into one, or components
    that broadcast against the bins, as in :func:`cross`.
    """
    bins, dtype = _bins_and_dtype(a, b)
    if out is None:
        out = np.empty(bins, dtype=dtype)
    scratch = np.empty(bins, dtype=dtype)
    np.multiply(a[0], b[0], out=out)
    for i in (1, 2):
        np.multiply(a[i], b[i], out=scratch)
        np.add(out, scratch, out=out)
    return out


def norm(a) -> np.ndarray:
    """|a| per bin over the components a[0], a[1], ... of a first axis of any
    length (or of any sequence of equally shaped component arrays); bitwise
    equal to ``np.linalg.norm(a, axis=0)``.

    Each square is the real part of conj(a_i) a_i, the complex product numpy's
    norm uses (with FMA it can differ from re^2 + im^2 in the last bit); the
    squares are summed in component order, one component at a time.
    """
    total = None
    for component in a:
        square = (component.conj() * component).real
        if total is None:
            total = np.array(square, dtype=np.float64)
        else:
            total += square
    return np.sqrt(total, out=total)


def max_abs(a) -> float:
    """max |a| over the components a[0], a[1], ... (or any sequence of
    arrays), one component at a time: no array of all the moduli.  Maxima
    are exact, so this is bitwise ``np.abs(a).max()``, NaN in any component
    included."""
    return float(np.max([np.abs(component).max() for component in a]))


def relative_gap(a, reference) -> float:
    """max |a - reference| / max |reference| over paired components, as in
    :func:`max_abs`; 0 when the reference is zero everywhere."""
    peak = max_abs(reference)
    if peak == 0.0:
        return 0.0
    return float(np.max([np.abs(x - r).max() for x, r in zip(a, reference)])) / peak


@dataclass(frozen=True)
class KGrid:
    """Uniform Cartesian momentum grid, n bins per axis with spacing dk."""

    n: int
    dk: float

    def __post_init__(self) -> None:
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {self.n}")
        try:  # the bin volumes and the box volume n^3 dk^3, which scales to_position
            volumes = (self.dk**3, self.dx**3, self.n**3 * self.dk**3)
        except (OverflowError, ZeroDivisionError):  # a float's cube raises on overflow
            volumes = (math.nan,)
        if not all(0.0 < v < math.inf for v in volumes):
            raise ValueError(f"grid spacing {self.dk} is not positive or puts a bin or box "
                             "volume out of floating-point range")

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

    def phase(self, t: float) -> ArrayC:
        """The free-evolution phase exp(-i |k| t) per bin.

        |k| is exactly even in each signed index, so the exponential is taken
        only on the octant of indices 0 .. n/2, about an eighth of the bins,
        and gathered out by |signed index|: bitwise the whole-grid exponential.
        """
        h = self.n // 2
        octant = np.exp(-1j * self.kmag[:h + 1, :h + 1, :h + 1] * t)
        a = np.abs(self.signed_index)
        return octant[np.ix_(a, a, a)]

    def time_in_range(self, t: float) -> bool:
        """Whether the phase exp(-i |k| t) is finite on every bin: k_max |t| is."""
        return math.isfinite(float(self.k_max) * abs(float(t)))

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
    def k_axes(self) -> tuple[ArrayR, ArrayR, ArrayR]:
        """The momentum components k_x, k_y, k_z as the axes (n, 1, 1),
        (1, n, 1) and (1, 1, n), which broadcast against the bins."""
        k = self.k1d
        return k[:, None, None], k[None, :, None], k[None, None, :]

    @cached_property
    def x_axes(self) -> tuple[ArrayR, ArrayR, ArrayR]:
        """The position components as broadcasting axes, as :attr:`k_axes`."""
        x = self.x1d
        return x[:, None, None], x[None, :, None], x[None, None, :]

    @cached_property
    def kmag(self) -> ArrayR:
        return norm(np.broadcast_arrays(*self.k_axes))

    @cached_property
    def khat(self) -> ArrayR:
        """Unit momentum direction per bin; zero at the DC bin."""
        safe = np.where(self.kmag > 0.0, self.kmag, 1.0)
        w = np.empty((3,) + self.shape)
        for k, w_a in zip(self.k_axes, w):
            np.divide(k, safe, out=w_a)
        w[:, 0, 0, 0] = 0.0
        return w

    @cached_property
    def rmag(self) -> ArrayR:
        return norm(np.broadcast_arrays(*self.x_axes))


def reverse_bins(values: np.ndarray) -> np.ndarray:
    """Map bin (i, j, l) to (-i, -j, -l) mod n over the three grid axes (1, 2, 3).

    One flip view and one roll over all three axes: a single copy.
    """
    axes = (1, 2, 3)
    return np.roll(np.flip(values, axis=axes), 1, axis=axes)


@dataclass(frozen=True)
class Field:
    """Complex multi-component amplitude field over a grid.

    ``values`` has shape (c, n, n, n) with c in {1, 3, 6}: component first,
    so each component (and each 3-block of a six-component field, ``[:3]``
    and ``[3:]``) is contiguous over the bins.  ``rep`` tags the
    representation the bins live in.  Fields are immutable values: every
    operation returns a new Field.  None is scanned for finiteness: the time
    and the payload check belong to :class:`darwinlab.state.PhotonState`,
    :class:`KGrid` bounds the spacing, and a transform raises on overflow.
    """

    values: ArrayC
    rep: str
    grid: KGrid

    def __post_init__(self) -> None:
        if self.rep not in (MOMENTUM, POSITION):
            raise ValueError(f"unknown representation {self.rep!r}")
        v = self.values
        if v.ndim != 4 or v.shape[1:] != self.grid.shape or v.shape[0] not in (1, 3, 6):
            raise ValueError("field values must have shape (c, n, n, n) with c in (1, 3, 6); "
                             f"got {v.shape}")

    @property
    def ncomp(self) -> int:
        return self.values.shape[0]

    @property
    def measure(self) -> float:
        return self.grid.dk**3 if self.rep == MOMENTUM else self.grid.dx**3


def momentum_field(values, grid: KGrid) -> Field:
    return Field(np.asarray(values, dtype=np.complex128), MOMENTUM, grid)


def position_field(values, grid: KGrid) -> Field:
    return Field(np.asarray(values, dtype=np.complex128), POSITION, grid)


def _require(field: Field, rep: str) -> None:
    if field.rep != rep:
        raise ValueError(f"expected a {rep}-representation field, got {field.rep}")


def _transform(field: Field, fft, rep: str, scale: float, overwrite: bool) -> Field:
    # all three axes write into one output; without out= numpy allocates one
    # per axis, which costs time and a third field-sized array at the peak
    out = field.values if overwrite else np.empty(field.values.shape, dtype=np.complex128)
    with np.errstate(over="raise"):  # no Field is scanned: an overflow raises FloatingPointError
        values = fft(field.values, axes=(1, 2, 3), out=out)
        values *= scale
    return Field(values, rep, field.grid)


def to_position(field: Field, *, overwrite: bool = False) -> Field:
    """Transform momentum amplitudes to the position representation.

    With ``overwrite`` the transform runs in place on ``field.values``: a
    caller that built the array only to transform it hands it over and must
    not use ``field`` afterwards.  The result is bitwise the same either way.
    """
    _require(field, MOMENTUM)
    g = field.grid
    return _transform(field, np.fft.ifftn, POSITION, g.n**3 * g.dk**3 / _FT_NORM, overwrite)


def to_momentum(field: Field, *, overwrite: bool = False) -> Field:
    """Inverse of :func:`to_position` (the -i k.x kernel); ``overwrite`` as there."""
    _require(field, POSITION)
    return _transform(field, np.fft.fftn, MOMENTUM, field.grid.dx**3 / _FT_NORM, overwrite)


def norm_squared(field: Field) -> float:
    # summed bin by bin with the components innermost, the order of the former
    # (n, n, n, c) layout: normalization divides by this sum, so a built state
    # stays bit-identical to one built before the component-first layout; the
    # moduli are written straight into that order and squared in place
    values = field.values
    density = np.empty(values.shape[1:] + values.shape[:1])
    np.abs(values, out=np.moveaxis(density, -1, 0))
    np.square(density, out=density)
    return float(np.sum(density)) * field.measure


def boundary_amplitude_ratio(field: Field) -> float:
    """Max |field| on the outermost bin shell divided by the global max."""
    mags = norm(field.values)
    peak = float(mags.max())
    if peak == 0.0:
        return 0.0
    # the outermost shell: the most negative (index n/2) and most positive
    # (index n/2 - 1) frequency faces of each axis
    half = field.grid.n // 2
    edge = max(float(np.take(mags, i, axis=axis).max())
               for axis in range(3) for i in (half, half - 1))
    return edge / peak


def k_gradient(field: Field, axis: int) -> Field:
    """d(field)/d(k_axis) for axis in (0, 1, 2), in standard FFT bin order.

    The stencils follow the signed frequencies, not the array index: a
    centered difference pairs each bin with its frequency neighbours (across
    the FFT wrap between index n - 1 and 0), and the one-sided second-order
    stencils sit at the most negative (index n/2) and most positive (index
    n/2 - 1) frequency, where the derivative is only as good as the
    amplitude's decay (:func:`boundary_amplitude_ratio`).  The values are
    bitwise those of ``np.gradient(..., edge_order=2)`` on the fftshifted
    array, shifted back, without either shifted copy.
    """
    _require(field, MOMENTUM)
    f = field.values
    dk = field.grid.dk
    n = f.shape[axis + 1]
    h = n // 2

    def at(array: np.ndarray, index) -> np.ndarray:
        where = [slice(None)] * 4
        where[axis + 1] = index
        return array[tuple(where)]

    out = np.empty_like(f)
    # (f(k + dk) - f(k - dk)) / (2 dk): two runs of index neighbours, and
    # the two bins whose frequency neighbour sits across the wrap
    for target, ahead, behind in ((slice(1, h - 1), slice(2, h), slice(0, h - 2)),
                                  (slice(h + 1, n - 1), slice(h + 2, n), slice(h, n - 2)),
                                  (0, 1, n - 1),
                                  (n - 1, 0, n - 2)):
        d = np.subtract(at(f, ahead), at(f, behind), out=at(out, target))
        d /= 2.0 * dk
    # one-sided second-order stencils at the most negative and most positive frequency
    at(out, h)[:] = ((-1.5 / dk) * at(f, h) + (2.0 / dk) * at(f, h + 1)
                     + (-0.5 / dk) * at(f, h + 2))
    at(out, h - 1)[:] = ((0.5 / dk) * at(f, h - 3) + (-2.0 / dk) * at(f, h - 2)
                         + (1.5 / dk) * at(f, h - 1))
    return Field(out, MOMENTUM, field.grid)


def spectral_curl(field: Field) -> Field:
    """Curl of a 3-component position field via i k x (.) in momentum space."""
    _require(field, POSITION)
    if field.ncomp != 3:
        raise ValueError("curl requires a 3-component field")
    f = to_momentum(field)
    curled = 1j * cross(field.grid.k_axes, f.values)
    return to_position(Field(curled, MOMENTUM, field.grid), overwrite=True)
