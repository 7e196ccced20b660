"""Expectation values computed by every alternative formula.

The point of this module is redundancy: the photon spin has one value but
many inequivalent-looking expressions (canonical momentum-space form,
momentum-projected form, cross products of either block in either
representation, and the integral of the nonlocal kernel density).  For states
satisfying the transversality constraint all of them must agree; the local
*densities* behind them do not, and one pass over the position densities
(:func:`position_spin`) measures how far apart they sit.

Everything is in natural units (hbar = c = eps0 = 1), so spin and orbital
angular momentum come out in units of hbar.

The routes read the blocks as the payload stores them, psi = (f_u, f_l)/sqrt(2),
and never rescale them: a route bilinear in one block applies the exact
factor 2 once, to its result, and a ratio needs no factor at all.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import kgrid
from .kgrid import k_gradient, momentum_field, to_position
from .state import PhotonState


def _per_state(fn):
    """Evaluate fn(state) once per state.

    The value is stored on the state itself, keyed by the route's name, so it
    lives as long as the state or until :func:`drop_position` releases it;
    states are immutable, so it never goes stale.  The key is the name, not
    the function, so a release finds the entry whatever a module binding now
    refers to (a tracing wrapper, say).  Every caller shares the value, so
    its arrays (also inside tuples and dict values) are made read-only.
    """

    def freeze(value) -> None:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        elif isinstance(value, (tuple, dict)):
            for part in value.values() if isinstance(value, dict) else value:
                freeze(part)

    name = fn.__name__

    @functools.wraps(fn)
    def memoized(state: PhotonState):
        memo = vars(state).setdefault("_observables_memo", {})
        if name not in memo:
            value = fn(state)
            freeze(value)
            memo[name] = value
        return memo[name]

    return memoized


@_per_state
def psi_position(state: PhotonState) -> np.ndarray:
    """The (6, n, n, n) position transform of the six-component psi, read-only.

    Every position-space route of one state shares this one transform; its
    slices [:3] and [3:] are the block transforms F_u/sqrt(2) and
    F_l/sqrt(2), as stored.  It is kept until :func:`drop_position`.
    """
    return to_position(state.psi).values


def drop_position(state: PhotonState) -> None:
    """Release the state's position transform (25 MB at n = 64) once
    nothing more reads it; a later use computes it again.  The routes that
    read it keep their values."""
    vars(state).get("_observables_memo", {}).pop("psi_position", None)


def _cross_density(block: np.ndarray, out=None, scratch=None):
    """The rows of -i f* x f per bin for f = sqrt(2) block, computed as
    -2i block* x block (Hermitian form, real up to round-off), handed out
    one at a time.

    Each row is bitwise the row of ``-2j * kgrid.cross(np.conj(block),
    block)``.  Each conjugate component is formed where a product reads it,
    in one buffer, ``scratch`` when given.  Given ``out``, every row is
    formed there and overwritten by the next; otherwise each row is a new
    array, and a caller that drops each row before asking for the next
    holds one row at a time (``enumerate`` and ``zip`` keep the previous row
    while the next is made).
    """
    conj = np.empty(block.shape[1:], dtype=np.complex128) if scratch is None else scratch
    for p, q in ((1, 2), (2, 0), (0, 1)):
        row = np.multiply(np.conj(block[p], out=conj), block[q], out=out)
        row -= np.multiply(np.conj(block[q], out=conj), block[p], out=conj)
        row *= -2j
        yield row
        del row  # the caller's reference is the only one while the next row is made


def _row_sums(rows) -> np.ndarray:
    """The sum over the bins of each row; bitwise ``np.sum(rows, axis=(1, 2, 3))``."""
    sums = []
    for row in rows:
        sums.append(np.sum(row))
        del row  # a handed-out row is freed before the next one is made
    return np.array(sums)


def _integrated(sums: np.ndarray, measure: float) -> tuple[np.ndarray, float]:
    """(value, imaginary residue) of a density's integral from its row sums."""
    total = sums * measure
    return total.real, float(np.abs(total.imag).max())


def _canonical_density(state: PhotonState) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Rows of the canonical spin density 0.5 (d_u + d_l) in momentum space,
    with d_u and d_l the cross densities of the two blocks, and the row sums
    of d_u and of d_l, which the cross routes integrate.

    d_u is kept and d_l is added into it one row at a time, so four rows
    are alive at once.
    """
    psi = state.psi.values
    density = list(_cross_density(psi[:3]))
    upper = _row_sums(density)
    lower = []
    for extra in _cross_density(psi[3:]):
        row = density[len(lower)]
        lower.append(np.sum(extra))
        np.add(row, extra, out=row)
        row *= 0.5
        del extra
    return density, upper, np.array(lower)


def _probability_densities(values) -> tuple[np.ndarray, np.ndarray]:
    """|F_u|^2 = 2 sum_c |Psi_c|^2 and |F_l|^2 per bin, from the stored
    block transforms ``values[:3]`` and ``values[3:]``; the doubling is
    exact, so their integrals are twice those of the summed squares."""
    upper, lower = _summed_squares(values[:3]), _summed_squares(values[3:])
    upper *= 2.0
    lower *= 2.0
    return upper, lower


def _summed_squares(components) -> np.ndarray:
    """sum_c |v_c|^2 per bin, one component at a time; bitwise
    ``np.sum(np.abs(v) ** 2, axis=0)``."""
    total = None
    for v in components:
        square = np.abs(v) ** 2
        if total is None:
            total = square
        else:
            total += square
    return total


@_per_state
def momentum_spin_routes(state: PhotonState) -> dict[str, tuple[np.ndarray, float]]:
    """(value, imaginary residue) of the four momentum-space spin routes.

    They integrate the same two block densities, computed here once, and the
    canonical density 0.5 (d_u + d_l) formed once from them; only the
    3-vectors are kept on the state.
    """
    g = state.grid
    m = state.psi.measure
    canonical, sums_u, sums_l = _canonical_density(state)
    helicity_density = kgrid.dot(g.khat, canonical)
    return {
        "canonical": _integrated(_row_sums(canonical), m),
        "projected": _integrated(_row_sums(helicity_density * w for w in g.khat), m),
        "cross_upper": _integrated(sums_u, m),
        "cross_lower": _integrated(sums_l, m),
    }


def spin_canonical(state: PhotonState) -> np.ndarray:
    """<spin> from the constant block-diagonal spin matrices, momentum space."""
    return momentum_spin_routes(state)["canonical"][0]


def spin_projected(state: PhotonState) -> np.ndarray:
    """<spin> from the momentum-projected operator (spin . w) w."""
    return momentum_spin_routes(state)["projected"][0]


def _spin_density_rows(state: PhotonState):
    """Row i = 0, 1, 2 of the upper, lower and kernel position spin
    densities, complex, handed out together as ``(upper, lower, kernel)``
    in buffers that the next row overwrites.

    The block rows are those of -i F* x F of the upper and lower position
    blocks (:func:`_cross_density`).  The kernel row is Psi^dag Phi_i, with
    Phi_i the position transform of (spin . w) w_i psi, which realizes the
    convolution with the singular direction-dyadic kernel spectrally,
    exactly on the grid.  For each i, each block's w_i (w x f) is formed as
    k_i (k x f) / |k|^2, from the grid's momentum axes and one 1/|k|^2
    array that is 0 at the DC bin, so no unit-direction array is made; it
    is formed in one reused three-component buffer and transformed there,
    and the row gains the block's components in component order.  So six
    three-component transforms replace three of six components.  The row
    is built conjugated, as the sum of Psi_c conj(Phi_ic) with each
    conj(Phi_ic) formed in place, and conjugated back at the end: bitwise
    the sum of conj(Psi_c) Phi_ic, with no conjugate of Psi held.  The
    factor i of (spin . w) f = i w x f is applied once, to the finished
    row.  Once kernel row i is finished the three-component buffer is free,
    and the two block rows are formed there, so the three rows take no
    array beyond the kernel route's.
    """
    g = state.grid
    psi, psi_pos = state.psi.values, psi_position(state)
    inverse_k2 = kgrid.dot(g.k_axes, g.k_axes)
    inverse_k2[0, 0, 0] = 1.0
    np.reciprocal(inverse_k2, out=inverse_k2)
    inverse_k2[0, 0, 0] = 0.0
    phi = np.empty((3,) + g.shape, dtype=np.complex128)
    dens = np.empty(g.shape, dtype=np.complex128)
    upper = _cross_density(psi_pos[:3], out=phi[0], scratch=phi[2])
    lower = _cross_density(psi_pos[3:], out=phi[1], scratch=phi[2])
    for i in range(3):
        for start in (0, 3):
            # w_i (sigma . w) f = k_i (i k x f) / |k|^2, with the i applied to the finished row
            kgrid.cross(g.k_axes, psi[start:start + 3], out=phi)
            phi *= g.k_axes[i]
            phi *= inverse_k2
            to_position(momentum_field(phi, g), overwrite=True)
            np.conj(phi, out=phi)
            for c in range(3):
                if start + c == 0:
                    np.multiply(psi_pos[start + c], phi[c], out=dens)
                else:
                    dens += np.multiply(psi_pos[start + c], phi[c], out=phi[c])
        np.conj(dens, out=dens)
        dens *= 1j
        yield next(upper), next(lower), dens


def _full_density(upper: np.ndarray, lower: np.ndarray, out=None) -> np.ndarray:
    """The density of Psi from those of its blocks, their mean 0.5 (upper +
    lower), in ``out`` when given: Psi^dag spin Psi from the block spin
    densities, |Psi|^2 from |F_u|^2 and |F_l|^2."""
    full = np.add(upper, lower, out=out)
    full *= 0.5
    return full


@_per_state
def position_spin(state: PhotonState) -> tuple[dict[str, tuple[np.ndarray, float]], float, float, float]:
    """The three position spin routes and how far apart the densities
    behind them sit, from one pass over :func:`_spin_density_rows`:
    ``(routes, spread, gap_upper, gap_kernel)``.

    ``routes`` holds the (value, imaginary residue) of ``position_upper``,
    ``position_lower`` and ``kernel_integral``, from the complex row sums.
    The densities enter the rest through their real parts: ``spread`` is
    the largest gap between the integrals of the full, upper, lower and
    kernel densities, and ``gap_upper`` and ``gap_kernel`` are max |upper -
    full| and max |kernel - full| over max |full|.  The full densities are
    the means of the block densities, so upper - full = -(lower - full): a
    lower-block gap would repeat the upper one.  Pointwise the kernel density
    is not the canonical one; only its integral is a Hermitian form, so only
    that must be real.

    No density is kept.  Each row's sums are taken first; its imaginary
    halves are then free, so the full row is formed in the upper row's and
    each difference in the lower row's, and no array is made.
    """
    sums = ([], [], [])                 # complex: upper, lower, kernel
    real_sums = ([], [], [], [])        # full, upper, lower, kernel
    peaks, gaps_upper, gaps_kernel = [], [], []
    for rows in _spin_density_rows(state):
        upper, lower, kernel = rows
        for total, row in zip(sums, rows):
            total.append(np.sum(row))
        full = _full_density(upper.real, lower.real, out=upper.imag)
        for total, row in zip(real_sums, (full, upper.real, lower.real, kernel.real)):
            total.append(np.sum(row))
        scratch = lower.imag
        peaks.append(np.abs(full, out=scratch).max())
        gaps_upper.append(np.abs(np.subtract(upper.real, full, out=scratch), out=scratch).max())
        gaps_kernel.append(np.abs(np.subtract(kernel.real, full, out=scratch), out=scratch).max())
    m = state.grid.dx**3
    routes = dict(zip(("position_upper", "position_lower", "kernel_integral"),
                      (_integrated(np.array(s), m) for s in sums)))
    integrals = [np.array(s) * m for s in real_sums]
    spread = max(float(np.abs(a - b).max()) for a in integrals for b in integrals)
    # maxima are exact, so these are kgrid.relative_gap of the whole densities
    peak = float(np.max(peaks))
    gap_upper, gap_kernel = (float(np.max(g)) / peak if peak != 0.0 else 0.0
                             for g in (gaps_upper, gaps_kernel))
    return routes, spread, gap_upper, gap_kernel


def density_planes(state: PhotonState, axis: int, index: int, component: int) -> dict[str, np.ndarray]:
    """The seven position densities on the plane ``index`` along ``axis``:
    ``prob_psi``, ``prob_upper`` and ``prob_lower``, and the ``component``
    row of ``spin_full``, ``spin_upper``, ``spin_lower`` and ``spin_kernel``.

    The probability densities are formed on the plane only; the spin
    density rows are made up to ``component`` and no further, and each is
    cut to the plane.  Every value is per bin, so each plane is bitwise
    that of the whole density.
    """
    prob_upper, prob_lower = _probability_densities(
        np.take(psi_position(state), index, axis=axis + 1))
    planes = {"prob_psi": _full_density(prob_upper, prob_lower),
              "prob_upper": prob_upper, "prob_lower": prob_lower}
    for i, rows in enumerate(_spin_density_rows(state)):
        if i == component:
            upper, lower, kernel = (np.take(row.real, index, axis=axis) for row in rows)
            planes.update(spin_full=_full_density(upper, lower), spin_upper=upper,
                          spin_lower=lower, spin_kernel=kernel)
            break
    return planes


@_per_state
def oam_momentum(state: PhotonState) -> np.ndarray:
    """<L> = -i integral f^dag (k x grad_k) f d3k, in units of hbar.

    f = sqrt(2) psi[:3] is the upper block.  k is real, so the sum over
    components is taken first: with h_a = sum_c psi_c* d(psi_c)/d(k_a) per
    bin of the stored block, <L> = -2i integral k x h d3k.

    Finite differences in k assume a slowly varying amplitude; the dynamical
    phase exp(-i |k| t) oscillates arbitrarily fast at late times while
    contributing nothing to k x grad_k (its gradient is parallel to k), so
    it is peeled off analytically first.  At t = 0 the payload's own block
    is differentiated, not a copy.  The k-gradient is taken one component
    and one axis at a time and contracted at once, so a single derivative
    component and a single conjugate component are alive at any moment;
    each h_a still sums its components in order.
    """
    g = state.grid
    f = state.psi.values[:3]
    if state.time != 0.0:
        f = f * g.phase(-state.time)
    f_conj = np.empty(g.shape, dtype=np.complex128)
    h = np.empty((3,) + g.shape, dtype=np.complex128)
    for c in range(3):
        np.conj(f[c], out=f_conj)
        component = momentum_field(f[c:c + 1], g)
        for a in range(3):
            d = k_gradient(component, a).values[0]
            if c == 0:
                np.multiply(f_conj, d, out=h[a])
            else:
                h[a] += np.multiply(f_conj, d, out=d)
            del d  # before the next derivative is made
    del f, f_conj, component
    total = -2j * np.sum(kgrid.cross(g.k_axes, h), axis=(1, 2, 3)) * g.dk**3
    return total.real


@_per_state
def oam_boundary_ratio(state: PhotonState) -> float:
    """Boundary amplitude ratio of the upper block that :func:`oam_momentum`
    differentiates, whose moduli see neither the sqrt(2) nor the peeled
    phase; above 1e-8 its k-gradient is unreliable."""
    return kgrid.boundary_amplitude_ratio(momentum_field(state.psi.values[:3], state.grid))


@_per_state
def oam_position(state: PhotonState) -> np.ndarray:
    """<L> = -i integral F^dag (x x grad) F d3x with an exact spectral gradient.

    F = sqrt(2) Psi is the upper block, with Psi = psi_position[:3] stored.
    The gradient d_a Psi is the position transform of i k_a psi[:3], taken
    straight from the momentum block.  x is real, so the sum over components
    is taken first: with h_a = sum_c Psi_c* d_a Psi_c per bin,
    <L> = -2i integral x x h d3x, whose components are differences of the
    moments M[a, b] = sum over the bins of x_b h_a.

    One axis at a time: d_a Psi is one three-component transform, h_a sums
    its components in order in the place of d_a Psi_0, and the two moments
    M[a, b], b != a, are summed from it through the place of d_a Psi_1.  So
    no whole h, x x h or copy of a block is made.  h_a is built conjugated,
    as the sum of Psi_c conj(d_a Psi_c) with each conjugate formed in place,
    and conjugated once at the end: bitwise the sum of conj(Psi_c) d_a Psi_c,
    with no conjugate of Psi held, as the kernel route builds its rows.
    """
    g = state.grid
    psi = state.psi.values
    F = psi_position(state)
    d_F = np.empty((3,) + g.shape, dtype=np.complex128)
    M = np.zeros((3, 3), dtype=np.complex128)
    for a in range(3):
        ik = 1j * g.k_axes[a]
        for c in range(3):
            np.multiply(ik, psi[c], out=d_F[c])
        to_position(momentum_field(d_F, g), overwrite=True)
        np.conj(d_F, out=d_F)
        h = d_F[0]
        for c in range(3):
            if c == 0:
                np.multiply(F[0], d_F[0], out=h)
            else:
                h += np.multiply(F[c], d_F[c], out=d_F[c])
        np.conj(h, out=h)
        for b in range(3):
            if b != a:
                M[a, b] = np.sum(np.multiply(g.x_axes[b], h, out=d_F[1]))
    total = -2j * np.array([M[2, 1] - M[1, 2], M[0, 2] - M[2, 0], M[1, 0] - M[0, 1]]) * g.dx**3
    return total.real


def oam_position_shell(state: PhotonState) -> float:
    """Share of the probability on the outermost bin shell of the position
    box (a coordinate at -L/2 or L/2 - dx), where the x-weighted
    :func:`oam_position` sees a packet wrap round the box.  Each shell bin
    is counted once, from the shell planes of the memoized transform."""
    n, p_psi, values = state.grid.n, probability(state)[0], psi_position(state)
    edge, inner, every = [n // 2 - 1, n // 2], np.r_[:n // 2 - 1, n // 2 + 1:n], range(n)
    slabs = ((edge, every, every), (inner, edge, every), (inner, inner, edge))
    shell = sum(float(np.sum(_summed_squares(values[np.ix_(range(6), *bins)])))
                for bins in slabs)
    return shell * state.grid.dx**3 / p_psi if p_psi > 0.0 else 0.0


@_per_state
def probability(state: PhotonState) -> tuple[float, float, float]:
    """Total probability three ways: |Psi|^2, |F_u|^2 and |F_l|^2 integrals."""
    upper, lower = _probability_densities(psi_position(state))
    m = state.grid.dx**3
    p_upper = float(np.sum(upper)) * m
    p_lower = float(np.sum(lower)) * m
    p_psi = float(np.sum(_full_density(upper, lower, out=lower))) * m
    return p_psi, p_upper, p_lower


def probability_gap(state: PhotonState) -> float:
    """max |P_u - P| / max |P| of the upper-block probability density
    P_u = |F_u|^2 against P = |Psi|^2, the densities that
    :func:`probability` integrates."""
    upper, lower = _probability_densities(psi_position(state))
    return kgrid.relative_gap([upper], [_full_density(upper, lower, out=lower)])


def spin_routes(state: PhotonState) -> dict[str, tuple[np.ndarray, float]]:
    """(value, imaginary residue) of the seven spin routes of one state:
    canonical, projected, cross_upper, cross_lower, position_upper,
    position_lower and kernel_integral, in that order.

    The momentum routes run first, before the position transform exists,
    then the one pass of :func:`position_spin` over the position densities.
    """
    return {**momentum_spin_routes(state), **position_spin(state)[0]}


def spin_discrepancies(spin: dict[str, np.ndarray]) -> dict[str, float]:
    """The largest component gap of each pair of spin values, keyed "a|b"."""
    return {f"{a}|{b}": float(np.abs(spin[a] - spin[b]).max())
            for a, b in itertools.combinations(spin, 2)}
