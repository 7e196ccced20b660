"""Bridge between the quantum amplitudes and classical field data.

Three layers of the same free field are kept distinct here, in natural
units (hbar = c = eps0 = mu0 = 1):

* the real fields (E_real, H_real) and their Fourier data (eps_k, eta_k),
  which carry Hermitian bin symmetry;
* the complex positive-frequency pair (E, H) with momentum amplitudes
  (e, h), coupled per bin by h = w x e;
* the wavefunction blocks, which weight (e, h) by 1/sqrt(k) -- a nonlocal
  (fractional-kernel) relation in position space.

All nonlocal kernels (1/sqrt(k), 1/k) act as momentum-space multipliers;
their claimed position-space forms are validated separately by
:func:`kernel_pair_check` under a documented regularization, since the
continuum statements are distributional.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kgrid import (
    KGrid,
    cross,
    dc_safe_reciprocal,
    dot,
    max_abs,
    momentum_field,
    norm,
    position_field,
    relative_gap,
    reverse_bins,
    to_momentum,
    to_position,
)
from .state import PhotonState

HERMITIAN_TOLERANCE = 1e-8
DC_TOLERANCE = 1e-10


@dataclass(frozen=True)
class ClassicalField:
    """Fourier data of a real free-field snapshot."""

    eps_k: np.ndarray   # (3, n, n, n) Fourier data of E_real
    eta_k: np.ndarray   # (3, n, n, n) Fourier data of H_real
    grid: KGrid

    @cached_property
    def hermitian_residuals(self) -> tuple[float, float]:
        """hermitian_symmetry_residual of eps_k and of eta_k, computed once:
        the bridge's validation and the fieldbridge suite both report them."""
        return hermitian_symmetry_residual(self.eps_k), hermitian_symmetry_residual(self.eta_k)


def hermitian_symmetry_residual(values: np.ndarray) -> float:
    """Relative residual of conj(a(-k)) = a(k) at bin level; the mirror has
    the same peak as a, so this is max |a - conj(a(-k))| / max |a|."""
    mirror = reverse_bins(values)
    return relative_gap(values, np.conj(mirror, out=mirror))


def solenoidal_residual(values: np.ndarray, grid: KGrid) -> float:
    """Relative residual of k . a = 0 over the grid."""
    peak = float((grid.kmag * norm(values)).max())
    if peak == 0.0:
        return 0.0
    longi = np.abs(dot(grid.k_axes, values))
    return float(longi.max() / peak)


def _validate_classical(cf: ClassicalField) -> None:
    for name, a, res in (("eps_k", cf.eps_k, cf.hermitian_residuals[0]),
                         ("eta_k", cf.eta_k, cf.hermitian_residuals[1])):
        if res > HERMITIAN_TOLERANCE:
            raise ValueError(
                f"{name} violates Hermitian bin symmetry (residual {res:.2e}); "
                "the corresponding position-space field would not be real"
            )
        peak = max_abs(a)
        if peak > 0.0 and float(np.abs(a[:, 0, 0, 0]).max()) > DC_TOLERANCE * peak:
            raise ValueError(f"{name} carries a nonzero DC (k = 0) component")
        sol = solenoidal_residual(a, cf.grid)
        if sol > HERMITIAN_TOLERANCE:
            raise ValueError(f"{name} is not solenoidal (residual {sol:.2e})")


def fourier_data(block: np.ndarray, grid: KGrid) -> np.ndarray:
    """eps_k (or eta_k) of a state block f_u (or f_l), with no transform:
    the Fourier data (a + conj(a(-k)))/sqrt(2) of the real field whose
    complex positive-frequency amplitude is a = sqrt(k) f.  ``block`` is a
    fresh copy, which this consumes: a is formed in its place."""
    a = np.multiply(np.sqrt(grid.kmag), block, out=block)
    a_k = reverse_bins(a)
    np.conj(a_k, out=a_k)
    np.add(a, a_k, out=a_k)
    a_k /= np.sqrt(2.0)
    return a_k


def classical_fourier_data(state: PhotonState) -> ClassicalField:
    """Invert the amplitude weighting, e = sqrt(k) f_u and h = sqrt(k) f_l,
    and return the Fourier data of the real classical snapshot of the
    complex pair (E, H): E_real = (E + E*)/sqrt(2) and its magnetic twin.
    Nothing is transformed; :func:`real_field` makes either real field."""
    g = state.grid
    return ClassicalField(eps_k=fourier_data(state.f_upper(), g),
                          eta_k=fourier_data(state.f_lower(), g), grid=g)


def real_field(block: np.ndarray, grid: KGrid) -> np.ndarray:
    """E_real (or H_real) of a state block f_u (or f_l): the real part of
    (A + A*)/sqrt(2), with A the position transform of a = sqrt(k) f, whose
    Fourier data :func:`fourier_data` forms.  ``block`` is a fresh copy,
    which this consumes: a is formed and transformed in its place."""
    a = np.multiply(np.sqrt(grid.kmag), block, out=block)
    A = to_position(momentum_field(a, grid), overwrite=True)
    A_real = np.empty(A.shape)
    term = np.empty(grid.shape, dtype=np.complex128)
    for c in range(3):
        np.add(A[c], np.conj(A[c], out=term), out=term)
        term /= np.sqrt(2.0)
        A_real[c] = term.real
    return A_real


def _over_k_cross(partner: np.ndarray, grid: KGrid) -> np.ndarray:
    """(1/k) k x partner per bin, zero at the DC bin: the partner's share of a
    positive-frequency amplitude, in a new array."""
    out = cross(grid.k_axes, partner)
    out *= dc_safe_reciprocal(grid.kmag.copy())
    return out


def _positive_frequency(own: np.ndarray, term: np.ndarray, sign: int, out=None) -> np.ndarray:
    """(own + sign * term) / sqrt(2) with the DC bin zeroed, written into out
    (which may be own or term itself) or into a new array."""
    a = np.add(own, term, out=out) if sign > 0 else np.subtract(own, term, out=out)
    a /= np.sqrt(2.0)
    a[:, 0, 0, 0] = 0.0  # the DC bin
    return a


def extract_positive_frequency(eps_k, eta_k, grid: KGrid) -> Iterator[np.ndarray]:
    """Positive-frequency amplitudes from real-field Fourier data.

    e = (eps - (1 / k) k x eta) / sqrt(2)
    h = (eta + (1 / k) k x eps) / sqrt(2)

    The map is a projector onto the forward-frequency pairing: amplitudes
    already coupled as h = w x e pass through (up to the sqrt(2)
    bookkeeping), while the reversed pairing is annihilated.  The blocks are
    handed out one at a time, e and then h (``e, h = ...`` takes both); h is
    computed only when asked for.  Each block is a new array.
    """
    eps_k = np.asarray(eps_k, dtype=np.complex128)
    eta_k = np.asarray(eta_k, dtype=np.complex128)
    for own, partner, sign in ((eps_k, eta_k, -1), (eta_k, eps_k, +1)):
        cross_term = _over_k_cross(partner, grid)
        yield _positive_frequency(own, cross_term, sign, out=cross_term)
        del cross_term  # the block handed out, released before the next one is made


def state_blocks(cf: ClassicalField) -> Iterator[np.ndarray]:
    """The upper and then the lower block of the state a classical snapshot
    carries: its positive-frequency content, weighted by 1/sqrt(k).

    The state keeps the physical scale of the classical input (its norm
    records the conversion); callers wanting unit probability normalize
    explicitly.  The snapshot is validated before the first block is made.
    Each block is a new array, extracted and weighted in place; a caller
    that drops each block before asking for the next holds one at a time.
    """
    _validate_classical(cf)
    g = cf.grid
    inv_sqrt_k = dc_safe_reciprocal(np.sqrt(g.kmag))
    for f in extract_positive_frequency(cf.eps_k, cf.eta_k, g):
        np.multiply(inv_sqrt_k, f, out=f)
        # extraction preserves transversality analytically; enforcing it per
        # bin removes the absolute round-off debris that would otherwise
        # dominate the relative residual at faintly occupied bins
        longitudinal = dot(g.khat, f)
        for c in range(3):
            f[c] -= longitudinal * g.khat[c]
        del longitudinal
        f /= np.sqrt(2.0)
        yield f
        del f  # the caller's reference is the only one while the next block is made


def roundtrip_gap(cf: ClassicalField, state: PhotonState) -> float:
    """``relative_gap`` of the state that ``cf`` carries against ``state``.

    Each block of :func:`state_blocks` is scanned for non-finite entries, as
    a state's payload is, and compared with its half of the payload as it is
    made, so no six-component round-trip state is built.  Raises ValueError
    when the snapshot fails its validation or a block is not finite.
    """
    reference = state.psi
    peak = max_abs(reference)
    worst, start = 0.0, 0
    # no zip or enumerate: their reused result tuple would keep the previous
    # block alive while the next one is made
    for block in state_blocks(cf):
        if not np.isfinite(block).all():
            raise ValueError("the round-trip state contains non-finite entries")
        worst = max(worst, max(float(np.abs(b - r).max())
                               for b, r in zip(block, reference[start:start + 3])))
        start += 3
        del block
    return worst / peak if peak != 0.0 else 0.0


def nonlocal_gaps(own: np.ndarray, partner: np.ndarray, real: np.ndarray, sign: int,
                  grid: KGrid) -> tuple[float, float]:
    """(route gap, real-part residual) of one field of a classical snapshot:
    its Fourier data ``own`` (eps_k, or eta_k), the partner's (eta_k, or
    eps_k), its real field ``real`` (E_real, or H_real) and the sign of the
    partner in its extraction (-1 for E, +1 for H).

    Route one is the spectral extraction of the complex field; route two
    assembles (real + i * time-derivative of the 1/|x|^2 convolution of
    real) / sqrt(2), with the convolution realized as the analytic 1/k
    multiplier and the time derivative taken per bin from the curl of the
    partner field.  The two factorizations are algebraically identical, so
    the gap measures implementation error only, and the real part of
    sqrt(2) times route one must reproduce ``real`` exactly.  ``own`` is
    consumed: the extraction is formed, and transformed, in its place.
    """
    # (1/k) k x partner enters the extraction, and sign times it is the
    # imaginary part i (1/k) d(own)/dt, as d(eps)/dt = i k x eta and
    # d(eta)/dt = -i k x eps: one cross product serves both routes
    cross_term = _over_k_cross(partner, grid)
    a = _positive_frequency(own, cross_term, sign, out=own)
    route_one = to_position(momentum_field(a, grid), overwrite=True)
    if sign < 0:
        np.negative(cross_term, out=cross_term)
    route_two = to_position(momentum_field(cross_term, grid), overwrite=True)
    route_two += real
    route_two /= np.sqrt(2.0)
    # relative_gap(route_two, route_one), the difference formed in place
    peak = max_abs(route_one)
    route_two -= route_one
    route_gap = max_abs(route_two) / peak if peak != 0.0 else 0.0
    del cross_term, route_two  # one array, released before the real part is compared
    real_part = (np.sqrt(2.0) * component.real for component in route_one)
    return route_gap, relative_gap(real_part, real)


KERNEL_KINDS = ("half_power", "inverse_k")

_CORE_CELLS = 6          # cells within this radius get full 3D sub-sampling
_CORE_SUBSAMPLES = 6     # sub-samples per axis in a core cell
_CORE_BLOCK = 64         # core cells sub-sampled at once


def _kernel_values(kind: str, r: np.ndarray) -> np.ndarray:
    if kind == "half_power":
        return 1.0 / (2.0 * r**2.5)
    return np.sqrt(2.0 / np.pi) / r**2


def _kernel_window(r: np.ndarray, box_length: float) -> np.ndarray:
    """Half-cosine roll-off between L/4 and L/2, one beyond the excision."""
    L = box_length
    w = np.ones_like(r)
    taper = (r > L / 4.0) & (r < L / 2.0)
    w[taper] = 0.5 * (1.0 + np.cos(np.pi * (r[taper] - L / 4.0) / (L / 4.0)))
    w[r >= L / 2.0] = 0.0
    return w


def _regularized_kernel(kind: str, grid: KGrid) -> np.ndarray:
    """Cell-averaged regularized kernel on the position grid.

    The kernel is excised below r = dx and windowed above L/4.  Away from the
    origin each bin carries the analytic radial average of the kernel over its
    radial extent; bins near the singular core are averaged by dense 3D
    sub-sampling instead, so the discrete data carries the correct local mass.
    Point sampling would misrepresent the core badly enough to dominate the
    transform error at the top of the comparison shell.
    """
    r = grid.rmag
    dx = grid.dx
    a = np.maximum(r - dx / 2.0, dx)
    b = np.maximum(r + dx / 2.0, a * (1.0 + 1e-9))
    if kind == "half_power":
        kern = (a**-1.5 - b**-1.5) / (3.0 * (b - a))
    else:
        kern = np.sqrt(2.0 / np.pi) / (a * b)
    kern = np.where(r < dx, 0.0, kern) * _kernel_window(r, grid.box_length)

    core = np.argwhere(r < _CORE_CELLS * dx)
    m = _CORE_SUBSAMPLES
    offs = ((np.arange(m) + 0.5) / m - 0.5) * dx
    ox, oy, oz = np.meshgrid(offs, offs, offs, indexing="ij")
    sub = np.stack([ox, oy, oz]).reshape(3, -1)
    # a block of cells at a time: each cell's mean is over its own sub-samples
    for start in range(0, len(core), _CORE_BLOCK):
        cells = core[start:start + _CORE_BLOCK]
        pts = grid.x1d[cells.T][:, :, None] + sub[:, None, :]  # (3, cells, m^3)
        rr = norm(pts)
        vals = np.where(rr >= dx, _kernel_values(kind, np.maximum(rr, dx / 2.0)), 0.0)
        vals *= _kernel_window(rr, grid.box_length)
        kern[cells[:, 0], cells[:, 1], cells[:, 2]] = vals.mean(axis=1)
    return kern


def _radial_reference(kind: str, grid: KGrid, kmag: np.ndarray) -> np.ndarray:
    """1D radial quadrature of the identically regularized continuum kernel.

    F(k) = sqrt(2/pi) (1/k) * integral_dx^{L/2} r g(r) w(r) sin(k r) dr,
    evaluated by composite Simpson on a grid fine against both the kernel
    structure and the fastest oscillation in the band.
    """
    L = grid.box_length
    k_top = float(kmag.max())
    n_r = int(max(8192, 40 * k_top * L))
    if n_r % 2 == 1:
        n_r += 1
    r = np.linspace(grid.dx, L / 2.0, n_r + 1)
    base = r * _kernel_values(kind, r) * _kernel_window(r, L)
    weights = np.ones(n_r + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = (r[-1] - r[0]) / n_r
    phases = np.sin(np.outer(kmag, r))
    integral = (phases * (base * weights)[None, :]).sum(axis=1) * h / 3.0
    return np.sqrt(2.0 / np.pi) * integral / kmag


@dataclass(frozen=True)
class KernelCheckReport:
    """Mid-band transform of a regularized kernel against its claimed k-form.

    ``max_rel_error`` compares the grid transform with the radial-quadrature
    reference of the same regularized kernel; this isolates what the grid is
    responsible for and is the calibrated acceptance metric.
    ``max_rel_error_analytic`` compares with the bare 1/sqrt(k) or 1/k form;
    it is reported for context but is limited by the L/4 window truncation,
    not by resolution.
    """

    max_rel_error: float
    max_rel_error_analytic: float
    k_low: float
    k_high: float


def kernel_pair_check(kind: str, grid: KGrid, shell: tuple[float, float] | None = None) -> KernelCheckReport:
    """Transform a regularized position-space kernel and compare mid-band.

    Kernels: 'half_power' is 1/(2 r^(5/2)) against 1/sqrt(k); 'inverse_k' is
    sqrt(2/pi)/r^2 against 1/k.  Regularization: excised below r = dx,
    half-cosine windowed between L/4 and L/2 (the continuum statements are
    distributional; a documented cutoff makes the check falsifiable).  The
    default comparison shell is k in [4 dk, k_nyquist / 4]; passing an
    explicit shell lets refined grids be scored on a coarser grid's band.
    """
    if kind not in KERNEL_KINDS:
        raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}, got {kind!r}")
    if grid.n < 32:
        raise ValueError("kernel check needs n >= 32 (n >= 64 recommended)")

    kern = _regularized_kernel(kind, grid)
    transformed = to_momentum(position_field(kern[None], grid), overwrite=True)[0].real

    k_low, k_high = shell if shell is not None else (4.0 * grid.dk, grid.k_nyquist / 4.0)
    mask = (grid.kmag >= k_low) & (grid.kmag <= k_high)
    kmag = grid.kmag[mask]
    values = transformed[mask]

    uniq, inverse = np.unique(np.round(kmag, 12), return_inverse=True)
    reference = _radial_reference(kind, grid, uniq)[inverse]
    analytic = 1.0 / np.sqrt(kmag) if kind == "half_power" else 1.0 / kmag

    return KernelCheckReport(
        max_rel_error=float((np.abs(values - reference) / np.abs(reference)).max()),
        max_rel_error_analytic=float((np.abs(values - analytic) / np.abs(analytic)).max()),
        k_low=float(kmag.min()),
        k_high=float(kmag.max()),
    )
