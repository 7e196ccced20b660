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
from dataclasses import dataclass

import numpy as np

from . import kgrid
from .kgrid import k_gradient, momentum_field, to_position
from .state import PhotonState


def _per_state(fn):
    """Evaluate fn(state) once per state.

    The value is stored on the state itself, keyed by the function, so it
    lives exactly as long as the state; states are immutable, so it never
    goes stale.  Every caller shares it, so its arrays (also inside tuples and
    dict values) are made read-only.
    """

    def freeze(value) -> None:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        elif isinstance(value, (tuple, dict)):
            for part in value.values() if isinstance(value, dict) else value:
                freeze(part)

    @functools.wraps(fn)
    def memoized(state: PhotonState):
        memo = vars(state).setdefault("_observables_memo", {})
        if fn not in memo:
            value = fn(state)
            freeze(value)
            memo[fn] = value
        return memo[fn]

    return memoized


def _position_block(state: PhotonState, block: str) -> np.ndarray:
    """Block F_u or F_l in position space, from the state's shared transform."""
    values = state.psi_position.values
    return np.sqrt(2.0) * (values[:3] if block == "upper" else values[3:])


def _cross_density(f: np.ndarray) -> np.ndarray:
    """-i f* x f per bin; Hermitian form, real up to round-off."""
    density = kgrid.cross(np.conj(f), f)
    density *= -1j
    return density


def _momentum_densities(state: PhotonState) -> tuple[np.ndarray, np.ndarray]:
    """Cross densities -i f* x f of the upper and lower momentum blocks."""
    return _cross_density(state.f_upper()), _cross_density(state.f_lower())


def position_densities(state: PhotonState) -> tuple[np.ndarray, np.ndarray]:
    """Cross densities -i F* x F of the upper and lower position blocks.

    The spin routes and the density candidates both use this pair.  It is
    25 MB at n = 64, so it is never kept on the state: a caller that evaluates
    both computes it once and passes it as ``densities``.
    """
    return (_cross_density(_position_block(state, "upper")),
            _cross_density(_position_block(state, "lower")))


def _peeled_block(state: PhotonState) -> np.ndarray:
    """Upper block amplitude with the free-evolution phase removed.

    Finite differences in k assume a slowly varying amplitude; the dynamical
    phase exp(-i |k| t) oscillates arbitrarily fast at late times while
    contributing nothing to k x grad_k (its gradient is parallel to k).  It is
    therefore peeled off analytically before any k-derivative is taken.
    """
    f = state.f_upper()
    if state.time != 0.0:
        f *= np.exp(1j * state.grid.kmag * state.time)
    return f


def _integrate_vector(density: np.ndarray, measure: float) -> tuple[np.ndarray, float]:
    total = np.sum(density, axis=(1, 2, 3)) * measure
    return total.real, float(np.abs(total.imag).max())


@_per_state
def _momentum_spin_routes(state: PhotonState) -> dict[str, tuple[np.ndarray, float]]:
    """(value, imaginary residue) of the four momentum-space spin routes.

    They integrate the same two block densities, computed here once, and the
    canonical density 0.5 (d_u + d_l) formed once from them; only the
    3-vectors are kept on the state.
    """
    g = state.grid
    m = state.psi.measure
    d_u, d_l = _momentum_densities(state)
    cross_upper, cross_lower = _integrate_vector(d_u, m), _integrate_vector(d_l, m)
    canonical = np.add(d_u, d_l, out=d_u)
    del d_l
    canonical *= 0.5
    helicity_density = kgrid.dot(g.khat, canonical)
    return {
        "canonical": _integrate_vector(canonical, m),
        "projected": _integrate_vector(helicity_density * g.khat, m),
        "cross_upper": cross_upper,
        "cross_lower": cross_lower,
    }


def spin_canonical(state: PhotonState) -> np.ndarray:
    """<spin> from the constant block-diagonal spin matrices, momentum space."""
    return _momentum_spin_routes(state)["canonical"][0]


def spin_projected(state: PhotonState) -> np.ndarray:
    """<spin> from the momentum-projected operator (spin . w) w."""
    return _momentum_spin_routes(state)["projected"][0]


def projected_spin_momentum_density(state: PhotonState) -> np.ndarray:
    """(spin . w) applied to psi, bin by bin.

    Multiplying by the direction components w_i and transforming gives the
    three fields entering the nonlocal kernel density."""
    g = state.grid
    chi = np.empty_like(state.psi.values)
    # (sigma . w) f = i w x f, block by block
    kgrid.cross(g.khat, state.psi.values[:3], out=chi[:3])
    kgrid.cross(g.khat, state.psi.values[3:], out=chi[3:])
    chi *= 1j
    return chi


@_per_state
def nonlocal_spin_density(state: PhotonState) -> tuple[np.ndarray, dict]:
    """Spin density built from the nonlocal momentum-projected operator.

    s_i(x) = Re[ Psi(x)^dag  Phi_i(x) ] with Phi_i the position transform of
    (spin . w) w_i psi.  This realizes the convolution with the singular
    direction-dyadic kernel spectrally, which is exact on the grid.  Its
    integral reproduces the projected-spin expectation; pointwise it is not
    the canonical density (:func:`density_candidates` measures the gap).

    The three w_i chi fields are formed and transformed in one reused
    six-component buffer, and Psi^dag Phi_i is summed one component at a time.
    """
    g = state.grid
    # before the buffers below exist: the projected spin makes its own densities
    projected = spin_projected(state)
    psi_pos = state.psi_position
    chi = projected_spin_momentum_density(state)
    phi = np.empty_like(chi)
    dens = np.empty(g.shape, dtype=np.complex128)
    psi_conj, term = np.empty_like(dens), np.empty_like(dens)
    s = np.empty((3,) + g.shape, dtype=np.float64)
    integral = np.empty(3)
    integral_imag = 0.0
    for i in range(3):
        np.multiply(g.khat[i], chi, out=phi)
        to_position(momentum_field(phi, g, state.time), overwrite=True)
        # the density itself is complex away from the single-mode limit; only
        # its integral is a Hermitian form, so only that must be real
        np.multiply(np.conj(psi_pos.values[0], out=psi_conj), phi[0], out=dens)
        for c in range(1, 6):
            np.conj(psi_pos.values[c], out=psi_conj)
            dens += np.multiply(psi_conj, phi[c], out=term)
        s[i] = dens.real
        total = np.sum(dens) * psi_pos.measure
        integral[i] = total.real
        integral_imag = max(integral_imag, abs(total.imag))

    diagnostics = {
        "integral": integral,
        "integral_vs_projected": float(np.abs(integral - projected).max()),
        "imag_residue": integral_imag,
    }
    return s, diagnostics


@_per_state
def _oam_momentum_route(state: PhotonState) -> tuple[np.ndarray, float]:
    """<L> by the momentum route, and the boundary ratio of its k-gradient.

    The k-gradient is taken one axis at a time and contracted at once, so a
    single derivative is alive at any moment.
    """
    g = state.grid
    f = _peeled_block(state)
    grad = k_gradient(momentum_field(f, g, 0.0))
    f_conj = np.conj(f)
    h = np.empty_like(f)
    for a in range(3):
        kgrid.dot(f_conj, grad.along(a).values, out=h[a])
    ratio = grad.boundary_ratio
    del f, f_conj, grad
    total = -1j * np.sum(kgrid.cross(g.kvec, h), axis=(1, 2, 3)) * g.dk**3
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
    per bin, <L> = -i integral x x h d3x.
    """
    g = state.grid
    f = state.f_upper()
    F_conj = _position_block(state, "upper")
    np.conj(F_conj, out=F_conj)
    d_F = np.empty_like(f)
    h = np.empty_like(f)
    for a in range(3):
        np.multiply(1j * g.kvec[a], f, out=d_F)
        to_position(momentum_field(d_F, g, state.time), overwrite=True)
        kgrid.dot(F_conj, d_F, out=h[a])
    del f, F_conj, d_F
    total = -1j * np.sum(kgrid.cross(g.xvec, h), axis=(1, 2, 3)) * g.dx**3
    return total.real


@_per_state
def probability(state: PhotonState) -> tuple[float, float, float]:
    """Total probability three ways: |Psi|^2, |F_u|^2 and |F_l|^2 integrals."""
    psi_pos = state.psi_position
    dens_u = np.sum(np.abs(psi_pos.values[:3]) ** 2, axis=0)
    dens_l = np.sum(np.abs(psi_pos.values[3:]) ** 2, axis=0)
    m = psi_pos.measure
    p_upper = 2.0 * float(np.sum(dens_u)) * m
    p_lower = 2.0 * float(np.sum(dens_l)) * m
    p_psi = float(np.sum(dens_u + dens_l)) * m
    return p_psi, p_upper, p_lower


_SPIN_FORMULAS = (
    "canonical",
    "projected",
    "cross_upper",
    "cross_lower",
    "position_upper",
    "position_lower",
    "kernel_integral",
)


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


def observable_report(state: PhotonState, *, densities=None) -> ObservableReport:
    """Every spin, OAM and probability route of one state, side by side.

    The block cross densities (f_u, f_l in momentum space, F_u, F_l in
    position space) are shared by the spin routes that integrate them; each
    route still applies its own formula.  ``densities`` is the position pair
    from :func:`position_densities` when the caller already holds it, as a
    full check does.  Without it the pair is made here, after the nonlocal
    route has freed its transforms, so the pair never sits under that route's
    peak memory.
    """
    _, nl_diag = nonlocal_spin_density(state)
    D_u, D_l = position_densities(state) if densities is None else densities
    m_x = state.psi_position.measure
    pairs = {
        **_momentum_spin_routes(state),
        "position_upper": _integrate_vector(D_u, m_x),
        "position_lower": _integrate_vector(D_l, m_x),
        "kernel_integral": (nl_diag["integral"], nl_diag["imag_residue"]),
    }
    del densities, D_u, D_l  # free them, if made here, before the OAM routes allocate theirs
    spin = {name: value for name, (value, _) in pairs.items()}
    imag_residue = max(res for _, res in pairs.values())
    discrepancies: dict[str, float] = {}
    for i, a in enumerate(_SPIN_FORMULAS):
        for b in _SPIN_FORMULAS[i + 1:]:
            discrepancies[f"{a}|{b}"] = float(np.abs(spin[a] - spin[b]).max())

    L_mom = oam_momentum(state)
    L_pos = oam_position(state)
    p_psi, p_up, p_low = probability(state)
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


def density_candidates(state: PhotonState, *, densities=None) -> DensityCandidates:
    """The competing densities of one state; ``densities`` is the pair from
    :func:`position_densities` when the caller already holds it."""
    spin_kernel, _ = nonlocal_spin_density(state)
    if densities is None:
        densities = position_densities(state)
    cross_u, cross_l = densities
    spin_full = 0.5 * (cross_u + cross_l).real
    spin_upper = cross_u.real
    spin_lower = cross_l.real

    prob_upper = np.sum(np.abs(_position_block(state, "upper")) ** 2, axis=0)
    prob_lower = np.sum(np.abs(_position_block(state, "lower")) ** 2, axis=0)
    prob_psi = 0.5 * (prob_upper + prob_lower)

    m = state.psi_position.measure
    spin_integrals = [np.sum(d, axis=(1, 2, 3)) * m
                      for d in (spin_full, spin_upper, spin_lower, spin_kernel)]
    prob_integrals = [float(np.sum(d)) * m for d in (prob_psi, prob_upper, prob_lower)]
    spin_spread = max(
        float(np.abs(a - b).max()) for a in spin_integrals for b in spin_integrals
    )
    prob_spread = max(abs(a - b) for a in prob_integrals for b in prob_integrals)

    def gap(candidate: np.ndarray, reference: np.ndarray) -> float:
        peak = float(np.abs(reference).max())
        if peak == 0.0:
            return 0.0
        return float(np.abs(candidate - reference).max() / peak)

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
        spin_gap_upper=gap(spin_upper, spin_full),
        spin_gap_lower=gap(spin_lower, spin_full),
        spin_gap_kernel=gap(spin_kernel, spin_full),
        prob_gap_upper=gap(prob_upper, prob_psi),
        prob_gap_lower=gap(prob_lower, prob_psi),
    )
