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
import inspect
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import kgrid
from .kgrid import k_gradient, momentum_field, to_position
from .state import PhotonState


def _per_state(fn):
    """Evaluate fn(state, ...) once per state and set of argument values.

    The value is stored on the state itself, so it lives exactly as long as
    the state; states are immutable, so it never goes stale.  Every caller
    shares it, so its arrays (also inside tuples and dict values) are made
    read-only.  Keyword-only arguments are not part of the key: they carry
    intermediates the caller already holds, which save work but do not change
    the value.
    """
    signature = inspect.signature(fn)

    def freeze(value) -> None:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        elif isinstance(value, (tuple, dict)):
            for part in value.values() if isinstance(value, dict) else value:
                freeze(part)

    @functools.wraps(fn)
    def memoized(state: PhotonState, *args, **kwargs):
        bound = signature.bind(state, *args, **kwargs)
        bound.apply_defaults()
        key = (fn.__name__, *bound.args[1:])
        memo = vars(state).setdefault("_observables_memo", {})
        if key not in memo:
            value = fn(state, *args, **kwargs)
            freeze(value)
            memo[key] = value
        return memo[key]

    return memoized


def _position_block(state: PhotonState, block: str) -> np.ndarray:
    """Block F_u or F_l in position space, from the state's shared transform."""
    values = state.psi_position.values
    return np.sqrt(2.0) * (values[:3] if block == "upper" else values[3:])


def _cross_density(f: np.ndarray) -> np.ndarray:
    """-i f* x f per bin; Hermitian form, real up to round-off."""
    return -1j * kgrid.cross(np.conj(f), f)


def _momentum_densities(state: PhotonState) -> tuple[np.ndarray, np.ndarray]:
    """Cross densities -i f* x f of the upper and lower momentum blocks."""
    return _cross_density(state.f_upper()), _cross_density(state.f_lower())


def position_densities(state: PhotonState) -> tuple[np.ndarray, np.ndarray]:
    """Cross densities -i F* x F of the upper and lower position blocks.

    The spin routes, the nonlocal-density comparison and the density
    candidates all use this pair.  It is 25 MB at n = 64, so it is never kept
    on the state: a caller that evaluates several of them computes it once and
    passes it as ``densities``.
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
        f = f * np.exp(1j * state.grid.kmag * state.time)
    return f


def _integrate_vector(density: np.ndarray, measure: float) -> tuple[np.ndarray, float]:
    total = np.sum(density, axis=(1, 2, 3)) * measure
    return total.real, float(np.abs(total.imag).max())


def _spin_canonical(state: PhotonState, d_u, d_l) -> tuple[np.ndarray, float]:
    d = 0.5 * (d_u + d_l)
    return _integrate_vector(d, state.psi.measure)


def _spin_projected(state: PhotonState, d_u, d_l) -> tuple[np.ndarray, float]:
    g = state.grid
    d = 0.5 * (d_u + d_l)
    helicity_density = kgrid.dot(g.khat, d)
    return _integrate_vector(helicity_density * g.khat, state.psi.measure)


@_per_state
def _momentum_spin_routes(state: PhotonState) -> dict[str, tuple[np.ndarray, float]]:
    """(value, imaginary residue) of the four momentum-space spin routes.

    They integrate the same two block densities, computed here once; only the
    3-vectors are kept on the state.
    """
    d_u, d_l = _momentum_densities(state)
    m = state.psi.measure
    return {
        "canonical": _spin_canonical(state, d_u, d_l),
        "projected": _spin_projected(state, d_u, d_l),
        "cross_upper": _integrate_vector(d_u, m),
        "cross_lower": _integrate_vector(d_l, m),
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
    f_u = state.psi.values[:3]
    f_l = state.psi.values[3:]
    # (sigma . w) f = i w x f
    chi_u = 1j * kgrid.cross(g.khat, f_u)
    chi_l = 1j * kgrid.cross(g.khat, f_l)
    return np.concatenate([chi_u, chi_l])


@_per_state
def nonlocal_spin_density(state: PhotonState, *, densities=None) -> tuple[np.ndarray, dict]:
    """Spin density built from the nonlocal momentum-projected operator.

    s_i(x) = Re[ Psi(x)^dag  Phi_i(x) ] with Phi_i the position transform of
    (spin . w) w_i psi.  This realizes the convolution with the singular
    direction-dyadic kernel spectrally, which is exact on the grid.  Its
    integral reproduces the projected-spin expectation; pointwise it is not
    the canonical density, and the diagnostics quantify the gap.
    ``densities`` is the pair from :func:`position_densities` when the caller
    already holds it.
    """
    g = state.grid
    psi_pos = state.psi_position
    psi_conj = np.conj(psi_pos.values)
    chi = projected_spin_momentum_density(state)
    s = np.empty((3,) + g.shape, dtype=np.float64)
    integral = np.empty(3)
    integral_imag = 0.0
    pointwise_imag = 0.0
    for i in range(3):
        phi = to_position(momentum_field(g.khat[i] * chi, g, state.time))
        dens = np.sum(psi_conj * phi.values, axis=0)
        s[i] = dens.real
        total = np.sum(dens) * psi_pos.measure
        integral[i] = total.real
        integral_imag = max(integral_imag, abs(total.imag))
        # the density itself is complex away from the single-mode limit; only
        # its integral is a Hermitian form, so only that must be real
        pointwise_imag = max(pointwise_imag, float(np.abs(dens.imag).max()))
    del psi_conj, chi, phi  # free them before the canonical density

    canonical = canonical_spin_density(state, densities=densities)
    peak = float(np.abs(canonical).max())
    gap = float(np.abs(s - canonical).max() / peak) if peak > 0.0 else 0.0
    diagnostics = {
        "integral": integral,
        "integral_vs_projected": float(
            np.abs(integral - spin_projected(state)).max()
        ),
        "pointwise_gap_vs_canonical": gap,
        "imag_residue": integral_imag,
        "pointwise_imag": pointwise_imag,
    }
    return s, diagnostics


def canonical_spin_density(state: PhotonState, *, densities=None) -> np.ndarray:
    """Psi^dag spin Psi in position space (the would-be local density).

    ``densities`` is the pair from :func:`position_densities` when the caller
    already holds it.
    """
    D_u, D_l = position_densities(state) if densities is None else densities
    return 0.5 * (D_u + D_l).real


@_per_state
def _oam_momentum_route(state: PhotonState) -> tuple[np.ndarray, float]:
    """<L> by the momentum route, and the boundary ratio of its k-gradient."""
    g = state.grid
    f = _peeled_block(state)
    grad = k_gradient(momentum_field(f, g, 0.0))
    f_conj = np.conj(f)
    h = np.stack([kgrid.dot(f_conj, d.values) for d in grad.components])
    total = -1j * np.sum(kgrid.cross(g.kvec, h), axis=(1, 2, 3)) * g.dk**3
    return total.real, grad.boundary_ratio


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
    F_conj = np.conj(_position_block(state, "upper"))
    h = np.stack([
        kgrid.dot(F_conj, to_position(
            momentum_field(1j * g.kvec[a] * f, g, state.time)).values)
        for a in range(3)
    ])
    total = -1j * np.sum(kgrid.cross(g.xvec, h), axis=(1, 2, 3)) * g.dx**3
    return total.real


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
    oam_formula_gap: float
    boundary_ratio: float
    max_imag_residue: float
    nonlocal_diagnostics: dict = dc_field(default_factory=dict)


def observable_report(state: PhotonState, *, densities=None) -> ObservableReport:
    """Every spin, OAM and probability route of one state, side by side.

    The block cross densities (f_u, f_l in momentum space, F_u, F_l in
    position space) are shared by the spin routes that integrate them; each
    route still applies its own formula.  ``densities`` is the position pair
    from :func:`position_densities` when the caller already holds it, as a
    full check does.  Without it the nonlocal route makes its own pair after
    its transforms are freed and this call makes the pair again, so the pair
    never sits under that route's peak memory.
    """
    _, nl_diag = nonlocal_spin_density(state, densities=densities)
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
        oam_formula_gap=float(np.abs(L_mom - L_pos).max()),
        boundary_ratio=oam_boundary_ratio(state),
        max_imag_residue=imag_residue,
        nonlocal_diagnostics=nl_diag,
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
    spin_integrals: dict[str, np.ndarray]
    prob_integrals: dict[str, float]
    max_spin_integral_spread: float
    max_prob_integral_spread: float
    spin_gap_upper: float
    spin_gap_lower: float
    spin_gap_kernel: float
    prob_gap_upper: float
    prob_gap_lower: float
    imag_residue: float


def density_candidates(state: PhotonState, *, densities=None) -> DensityCandidates:
    """The competing densities of one state; ``densities`` is the pair from
    :func:`position_densities` when the caller already holds it."""
    F_u = _position_block(state, "upper")
    F_l = _position_block(state, "lower")
    m = state.psi_position.measure

    if densities is None:
        densities = position_densities(state)
    cross_u, cross_l = densities
    imag_residue = float(max(np.abs(cross_u.imag).max(), np.abs(cross_l.imag).max()))

    spin_full = canonical_spin_density(state, densities=densities)
    spin_upper = cross_u.real
    spin_lower = cross_l.real
    spin_kernel, nl_diag = nonlocal_spin_density(state, densities=densities)
    imag_residue = max(imag_residue, nl_diag["imag_residue"])

    prob_upper = np.sum(np.abs(F_u) ** 2, axis=0)
    prob_lower = np.sum(np.abs(F_l) ** 2, axis=0)
    prob_psi = 0.5 * (prob_upper + prob_lower)

    spin_integrals = {
        "full": np.sum(spin_full, axis=(1, 2, 3)) * m,
        "upper": np.sum(spin_upper, axis=(1, 2, 3)) * m,
        "lower": np.sum(spin_lower, axis=(1, 2, 3)) * m,
        "kernel": np.sum(spin_kernel, axis=(1, 2, 3)) * m,
    }
    prob_integrals = {
        "psi": float(np.sum(prob_psi)) * m,
        "upper": float(np.sum(prob_upper)) * m,
        "lower": float(np.sum(prob_lower)) * m,
    }

    svals = list(spin_integrals.values())
    spin_spread = max(
        float(np.abs(a - b).max()) for a in svals for b in svals
    )
    pvals = list(prob_integrals.values())
    prob_spread = max(abs(a - b) for a in pvals for b in pvals)

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
        spin_integrals=spin_integrals,
        prob_integrals=prob_integrals,
        max_spin_integral_spread=spin_spread,
        max_prob_integral_spread=prob_spread,
        spin_gap_upper=gap(spin_upper, spin_full),
        spin_gap_lower=gap(spin_lower, spin_full),
        spin_gap_kernel=gap(spin_kernel, spin_full),
        prob_gap_upper=gap(prob_upper, prob_psi),
        prob_gap_lower=gap(prob_lower, prob_psi),
        imag_residue=imag_residue,
    )
