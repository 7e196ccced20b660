"""Expectation values computed by every alternative formula.

The point of this module is redundancy: the photon spin has one value but
many inequivalent-looking expressions (canonical momentum-space form,
momentum-projected form, cross products of either block in either
representation, and the integral of the nonlocal kernel density).  For states
satisfying the transversality constraint all of them must agree; the local
*densities* behind them do not, and the candidates are computed side by side
so the disagreement can be quantified.

Everything is in natural units (hbar = c = eps0 = 1), so spin and orbital
angular momentum come out in units of hbar.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

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
    sqrt(2)-scaled slices [:3] and [3:] are the block transforms.  It is
    kept until :func:`drop_position`.
    """
    return to_position(state.psi).values


def drop_position(state: PhotonState) -> None:
    """Release the state's position transform (25 MB at n = 64), its
    position cross-density pair and its nonlocal kernel density once nothing
    more reads them; a later use computes them again.  The routes that
    integrate them keep their values."""
    memo = vars(state).get("_observables_memo", {})
    for name in ("psi_position", "position_densities", "nonlocal_spin_density"):
        memo.pop(name, None)


def _cross_density(block: np.ndarray):
    """The rows of -i f* x f per bin for f = sqrt(2) block (Hermitian form,
    real up to round-off), handed out one at a time.

    Each row is a new array, bitwise the row of
    ``-1j * kgrid.cross(np.conj(f), f)``.  A caller that drops each row
    before asking for the next holds one row at a time (``enumerate`` and
    ``zip`` keep the previous row while the next is made).  No scaled copy
    of the block is made: each factor sqrt(2) block_c is formed where a
    product reads it, in one of two component buffers, so one conjugate is
    alive at a time.
    """
    scale = np.sqrt(2.0)
    f_conj = np.empty(block.shape[1:], dtype=np.complex128)
    f = np.empty_like(f_conj)
    for p, q in ((1, 2), (2, 0), (0, 1)):
        np.conj(np.multiply(scale, block[p], out=f_conj), out=f_conj)
        row = np.multiply(f_conj, np.multiply(scale, block[q], out=f))
        np.conj(np.multiply(scale, block[q], out=f_conj), out=f_conj)
        np.multiply(f_conj, np.multiply(scale, block[p], out=f), out=f_conj)
        np.subtract(row, f_conj, out=row)
        row *= -1j
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


@_per_state
def position_densities(state: PhotonState) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The cross densities -i F* x F of the upper and lower position blocks,
    as ``((real_u, sums_u), (real_l, sums_l))``.

    The densities enter the candidates through their real parts only, and the
    spin routes through their integrals, so each row is summed (complex) and
    its real part kept: the pair holds 12.6 MB at n = 64, not the 25 MB of
    the complex densities.  The spin routes and the candidates share it
    until :func:`drop_position`.
    """
    pair = []
    values = psi_position(state)
    for block in (values[:3], values[3:]):
        real = np.empty((3,) + state.grid.shape)
        sums = []
        for row in _cross_density(block):
            real[len(sums)] = row.real
            sums.append(np.sum(row))
            del row
        pair.append((real, np.array(sums)))
    return tuple(pair)


def position_spin_integrals(state: PhotonState) -> dict[str, tuple[np.ndarray, float]]:
    """(value, imaginary residue) of the two position-block spin routes,
    ``position_upper`` and ``position_lower``.

    Each row of a position cross density is summed as it is made, so unlike
    :func:`position_densities` no density is kept; the sums are bitwise
    those of the memoized pair.
    """
    values, m = psi_position(state), state.grid.dx**3
    return {"position_upper": _integrated(_row_sums(_cross_density(values[:3])), m),
            "position_lower": _integrated(_row_sums(_cross_density(values[3:])), m)}


def _peeled_block(state: PhotonState) -> np.ndarray:
    """Upper block amplitude with the free-evolution phase removed.

    Finite differences in k assume a slowly varying amplitude; the dynamical
    phase exp(-i |k| t) oscillates arbitrarily fast at late times while
    contributing nothing to k x grad_k (its gradient is parallel to k).  It is
    therefore peeled off analytically before any k-derivative is taken.
    """
    f = state.f_upper()
    if state.time != 0.0:
        f *= state.grid.phase(-state.time)
    return f


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
def _momentum_spin_routes(state: PhotonState) -> dict[str, tuple[np.ndarray, float]]:
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
    return _momentum_spin_routes(state)["canonical"][0]


def spin_projected(state: PhotonState) -> np.ndarray:
    """<spin> from the momentum-projected operator (spin . w) w."""
    return _momentum_spin_routes(state)["projected"][0]


def _kernel_density_rows(state: PhotonState):
    """The rows Psi^dag Phi_i of the nonlocal kernel spin density, complex,
    handed out one at a time in one reused buffer.

    Phi_i is the position transform of (spin . w) w_i psi, which realizes
    the convolution with the singular direction-dyadic kernel spectrally,
    exactly on the grid.  For each i, each block's w_i chi, with
    chi = (spin . w) f, is formed in one reused three-component buffer and
    transformed there, and the row gains the block's components in
    component order.  So six three-component transforms replace three of
    six components, and one complex row is held.  The row is built
    conjugated, as the sum of Psi_c conj(Phi_ic) with each conj(Phi_ic)
    formed in place, and conjugated back at the end: bitwise the sum of
    conj(Psi_c) Phi_ic, with no conjugate of Psi held.  A caller reads each
    row before it asks for the next, which overwrites it.
    """
    g = state.grid
    psi, psi_pos = state.psi.values, psi_position(state)
    phi = np.empty((3,) + g.shape, dtype=np.complex128)
    dens = np.empty(g.shape, dtype=np.complex128)
    for i in range(3):
        for start in (0, 3):
            # w_i (sigma . w) f = w_i (i w x f)
            kgrid.cross(g.khat, psi[start:start + 3], out=phi)
            phi *= 1j
            phi *= g.khat[i]
            to_position(momentum_field(phi, g), overwrite=True)
            np.conj(phi, out=phi)
            for c in range(3):
                if start + c == 0:
                    np.multiply(psi_pos[start + c], phi[c], out=dens)
                else:
                    dens += np.multiply(psi_pos[start + c], phi[c], out=phi[c])
        np.conj(dens, out=dens)
        yield dens


@_per_state
def nonlocal_spin_density(state: PhotonState) -> tuple[np.ndarray, tuple[np.ndarray, float]]:
    """Spin density built from the nonlocal momentum-projected operator, and
    the (value, imaginary residue) of its integral.

    s_i(x) = Re[ Psi(x)^dag  Phi_i(x) ] with Phi_i the position transform of
    (spin . w) w_i psi (:func:`_kernel_density_rows`).  Its integral
    reproduces the projected-spin expectation; pointwise it is not the
    canonical density (:func:`density_candidates` measures the gap).  The
    density itself is complex away from the single-mode limit; only its
    integral is a Hermitian form, so only that must be real.
    """
    s = np.empty((3,) + state.grid.shape)
    sums = []
    for row in _kernel_density_rows(state):
        s[len(sums)] = row.real
        sums.append(np.sum(row))
    return s, _integrated(np.array(sums), state.grid.dx**3)


def nonlocal_spin_integral(state: PhotonState) -> tuple[np.ndarray, float]:
    """(value, imaginary residue) of the kernel density's integral, the
    kernel spin route, from its rows; unlike :func:`nonlocal_spin_density`
    it keeps no density."""
    return _integrated(_row_sums(_kernel_density_rows(state)), state.grid.dx**3)


@_per_state
def _oam_momentum_route(state: PhotonState) -> tuple[np.ndarray, float]:
    """<L> by the momentum route, and the boundary ratio of the block it differentiates.

    The k-gradient is taken one component and one axis at a time and
    contracted at once, so a single derivative component and a single
    conjugate component are alive at any moment; each h_a still sums its
    components in order.
    """
    g = state.grid
    f = _peeled_block(state)
    ratio = kgrid.boundary_amplitude_ratio(momentum_field(f, g))
    f_conj = np.empty(g.shape, dtype=np.complex128)
    h = np.empty_like(f)
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
    total = -1j * np.sum(kgrid.cross(g.k_axes, h), axis=(1, 2, 3)) * g.dk**3
    return total.real, ratio


def oam_momentum(state: PhotonState) -> np.ndarray:
    """<L> = -i integral f^dag (k x grad_k) f d3k, in units of hbar.

    f is the upper block.  k is real, so the sum over components is taken
    first: with h_a = sum_c f_c* d(f_c)/d(k_a) per bin,
    <L> = -i integral k x h d3k.
    """
    return _oam_momentum_route(state)[0]


def oam_boundary_ratio(state: PhotonState) -> float:
    """Boundary amplitude ratio of the phase-peeled block that oam_momentum
    differentiates; above 1e-8 its k-gradient is unreliable."""
    return _oam_momentum_route(state)[1]


@_per_state
def oam_position(state: PhotonState) -> np.ndarray:
    """<L> = -i integral F^dag (x x grad) F d3x with an exact spectral gradient.

    F is the upper block.  The gradient component d_a F is the position
    transform of i k_a f, taken straight from the momentum block.  x is real,
    so the sum over components is taken first: with h_a = sum_c F_c* d_a F_c
    per bin, <L> = -i integral x x h d3x, whose components are differences
    of the moments M[a, b] = sum over the bins of x_b h_a.

    One axis at a time: d_a F is one three-component transform, h_a sums
    its components in order in the place of d_a F_0, and the two moments
    M[a, b], b != a, are summed from it through the place of d_a F_1.  So
    no whole h, x x h or copy of f is made, and each F_c* is formed in one
    buffer.
    """
    g = state.grid
    psi = state.psi.values
    F = psi_position(state)
    d_F = np.empty((3,) + g.shape, dtype=np.complex128)
    F_conj = np.empty(g.shape, dtype=np.complex128)
    M = np.zeros((3, 3), dtype=np.complex128)
    for a in range(3):
        ik = 1j * g.k_axes[a]
        for c in range(3):
            np.multiply(ik, np.multiply(np.sqrt(2.0), psi[c], out=d_F[c]), out=d_F[c])
        to_position(momentum_field(d_F, g), overwrite=True)
        h = d_F[0]
        for c in range(3):
            np.conj(np.multiply(np.sqrt(2.0), F[c], out=F_conj), out=F_conj)
            if c == 0:
                np.multiply(F_conj, d_F[0], out=h)
            else:
                h += np.multiply(F_conj, d_F[c], out=d_F[c])
        for b in range(3):
            if b != a:
                M[a, b] = np.sum(np.multiply(g.x_axes[b], h, out=d_F[1]))
    total = -1j * np.array([M[2, 1] - M[1, 2], M[0, 2] - M[2, 0], M[1, 0] - M[0, 1]]) * g.dx**3
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
    values = psi_position(state)
    dens_u = _summed_squares(values[:3])
    dens_l = _summed_squares(values[3:])
    m = state.grid.dx**3
    p_upper = 2.0 * float(np.sum(dens_u)) * m
    p_lower = 2.0 * float(np.sum(dens_l)) * m
    p_psi = float(np.sum(dens_u + dens_l)) * m
    return p_psi, p_upper, p_lower


@dataclass(frozen=True)
class ObservableReport:
    """All alternative evaluations side by side, plus their disagreements."""

    spin: dict[str, np.ndarray]
    oam_momentum: np.ndarray
    oam_position: np.ndarray
    total_angular_momentum: np.ndarray
    probability_psi: float
    probability_upper: float
    probability_lower: float
    spin_discrepancies: dict[str, float]
    max_spin_discrepancy: float
    max_probability_discrepancy: float
    boundary_ratio: float
    max_imag_residue: float


def observable_report(state: PhotonState, kernel=None, position=None) -> ObservableReport:
    """Every spin, OAM and probability route of one state, side by side.

    The block cross densities (f_u, f_l in momentum space, F_u, F_l in
    position space) are shared by the spin routes that integrate them; each
    route still applies its own formula.  By default the position spin
    routes integrate the memoized pair of :func:`position_densities`, so
    :func:`density_candidates` on the same state reuses it.  It comes last,
    after the OAM and nonlocal routes have freed their buffers, so it never
    sits under their peak memory; and the OAM routes run before the
    nonlocal one, so theirs never sits over its kept density.  The momentum
    routes (spin and OAM) come first, before the position transform exists.

    ``position``, when given, is the value of the position spin routes as
    :func:`position_spin_integrals` returns it.  A caller that has also
    taken :func:`oam_position` and :func:`probability` (memoized) can then
    release the position transform with :func:`drop_position` before this
    call, whose momentum routes then run without it, as ``dpl observe``
    does.

    ``kernel``, when given, is a function of no arguments that returns the
    kernel route's (value, imaginary residue), as
    :func:`nonlocal_spin_integral` does, which keeps no density; it is
    called where the route runs, after the OAM routes.  By default the
    route is :func:`nonlocal_spin_density`, whose density
    :func:`density_candidates` reuses.
    """
    momentum_spin = _momentum_spin_routes(state)
    L_mom = oam_momentum(state)
    L_pos = oam_position(state)
    kernel_integral = nonlocal_spin_density(state)[1] if kernel is None else kernel()
    p_psi, p_up, p_low = probability(state)
    if position is None:
        (_, sums_u), (_, sums_l) = position_densities(state)
        m_x = state.grid.dx**3
        position = {"position_upper": _integrated(sums_u, m_x),
                    "position_lower": _integrated(sums_l, m_x)}
    pairs = {**momentum_spin, **position, "kernel_integral": kernel_integral}
    spin = {name: value for name, (value, _) in pairs.items()}
    imag_residue = max(res for _, res in pairs.values())
    discrepancies = {f"{a}|{b}": float(np.abs(spin[a] - spin[b]).max())
                     for a, b in itertools.combinations(spin, 2)}

    probs = (p_psi, p_up, p_low)
    prob_gap = max(abs(x - y) for x in probs for y in probs)

    return ObservableReport(
        spin=spin,
        oam_momentum=L_mom,
        oam_position=L_pos,
        total_angular_momentum=L_mom + spin["canonical"],
        probability_psi=p_psi,
        probability_upper=p_up,
        probability_lower=p_low,
        spin_discrepancies=discrepancies,
        max_spin_discrepancy=max(discrepancies.values()),
        max_probability_discrepancy=prob_gap,
        boundary_ratio=oam_boundary_ratio(state),
        max_imag_residue=imag_residue,
    )


@dataclass(frozen=True)
class DensityCandidates:
    """Competing position-space densities and how far apart they sit.

    Three spin-density candidates (full, upper-block weighted, lower-block
    weighted) plus the nonlocal kernel density; three probability densities.
    Each integrates to the same number; the pointwise gaps are normalized by
    the peak of the reference candidate.
    """

    spin_density_full: np.ndarray      # Psi^dag spin Psi
    spin_density_upper: np.ndarray     # upper-block (1 + gamma0) weighting
    spin_density_lower: np.ndarray     # lower-block (1 - gamma0) weighting
    spin_density_kernel: np.ndarray    # nonlocal kernel density
    prob_density_psi: np.ndarray
    prob_density_upper: np.ndarray
    prob_density_lower: np.ndarray
    max_spin_integral_spread: float
    max_prob_integral_spread: float
    spin_gap_upper: float
    spin_gap_lower: float
    spin_gap_kernel: float
    prob_gap_upper: float
    prob_gap_lower: float


def density_candidates(state: PhotonState) -> DensityCandidates:
    """The competing densities of one state; the position pair comes after
    the nonlocal route has freed its buffers."""
    spin_kernel, _ = nonlocal_spin_density(state)
    (spin_upper, _), (spin_lower, _) = position_densities(state)
    # the real part of a complex sum is the sum of the real parts
    spin_full = 0.5 * (spin_upper + spin_lower)

    values = psi_position(state)
    scaled = np.empty(state.grid.shape, dtype=np.complex128)  # each sqrt(2)-scaled component in turn
    prob_upper = _summed_squares(np.multiply(np.sqrt(2.0), v, out=scaled) for v in values[:3])
    prob_lower = _summed_squares(np.multiply(np.sqrt(2.0), v, out=scaled) for v in values[3:])
    del scaled
    prob_psi = 0.5 * (prob_upper + prob_lower)

    m = state.grid.dx**3
    spin_integrals = [np.sum(d, axis=(1, 2, 3)) * m
                      for d in (spin_full, spin_upper, spin_lower, spin_kernel)]
    prob_integrals = [float(np.sum(d)) * m for d in (prob_psi, prob_upper, prob_lower)]
    spin_spread = max(
        float(np.abs(a - b).max()) for a in spin_integrals for b in spin_integrals
    )
    prob_spread = max(abs(a - b) for a in prob_integrals for b in prob_integrals)

    return DensityCandidates(
        spin_density_full=spin_full,
        spin_density_upper=spin_upper,
        spin_density_lower=spin_lower,
        spin_density_kernel=spin_kernel,
        prob_density_psi=prob_psi,
        prob_density_upper=prob_upper,
        prob_density_lower=prob_lower,
        max_spin_integral_spread=spin_spread,
        max_prob_integral_spread=prob_spread,
        spin_gap_upper=kgrid.relative_gap(spin_upper, spin_full),
        spin_gap_lower=kgrid.relative_gap(spin_lower, spin_full),
        spin_gap_kernel=kgrid.relative_gap(spin_kernel, spin_full),
        prob_gap_upper=kgrid.relative_gap([prob_upper], [prob_psi]),
        prob_gap_lower=kgrid.relative_gap([prob_lower], [prob_psi]),
    )
