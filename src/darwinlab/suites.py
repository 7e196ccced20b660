"""Named verification suites run by the command-line ``check`` command.

Each suite is a list of CheckResult rows: a measured number, the tolerance it
was held to, and the verdict.  Matrix-level suites draw their random
wavevectors from a seeded generator so reports are reproducible; the seed is
recorded in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra, dynamics, fieldbridge, observables
from .kgrid import KGrid
from .state import PhotonState, branch_residual

DEFAULT_SEED = 20320
N_RANDOM_WAVEVECTORS = 100
DEFAULT_TIMES = (0.0, 1.0, 10.0)  # conservation sample times

DEFAULT_TOLERANCES: dict[str, float] = {
    "matrix_identities": 1e-13,
    "spin_spectrum": 1e-13,
    "h_spin_commutator": 1e-13,
    "projected_spin_commutators": 1e-13,
    "transversality": 1e-12,
    "branch_coupling": 1e-12,
    "rqc_projector_identity": 1e-13,
    "spin_equalities": 1e-10,
    "spin_imag_residue": 1e-10,
    # coarse-grid default: the k-stencil error of a vortex resolved by only a
    # few bins exceeds 1%; tighten via overrides for well-resolved states
    "oam_formula_gap": 0.05,
    "probability_equality": 1e-10,
    "density_integral_spread": 1e-10,
    "kernel_density_integral": 1e-10,
    "dirac_residual": 1e-12,
    "maxwell_residual": 1e-6,
    "maxwell_divergence": 1e-12,
    "norm_drift": 1e-13,
    "probability_drift": 1e-10,
    "spin_drift": 1e-10,
    "oam_drift": 1e-10,
    "total_angular_momentum_drift": 1e-10,
    "classical_roundtrip": 1e-10,
    "hermitian_symmetry": 1e-12,
    "real_part_identity": 1e-12,
    "nonlocal_route_gap": 1e-10,
    "kernel_transform": 0.05,
}

SUITE_NAMES = (
    "algebra",
    "constraint",
    "spin-equalities",
    "oam",
    "probability",
    "densities",
    "maxwell",
    "conservation",
    "fieldbridge",
    "kernels",
)

# `dpl check` runs these two groups in two processes (cli._run_suite_groups).
# The split follows what one state caches: the memo suites share
# PhotonState.psi_position, the observables memo and the position
# cross-density pair that run_suites hands from spin-equalities to densities,
# so they stay together and compute each of those once.  The other suites
# read none of them; each makes its own transforms, so running them apart
# computes nothing twice.
MEMO_SUITES = ("spin-equalities", "oam", "probability", "densities", "conservation")
OWN_TRANSFORM_SUITES = ("algebra", "constraint", "maxwell", "fieldbridge", "kernels")


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float | None
    passed: bool
    info: str = ""


@dataclass
class SuiteReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, value: float, tolerance: float | None, info: str = "") -> None:
        """Append a row; a NaN value fails whatever its tolerance."""
        value = float(value)
        ok = value == value and (tolerance is None or value <= tolerance)
        self.checks.append(CheckResult(name, value, tolerance, ok, info))


def _tol(overrides: dict[str, float] | None, key: str) -> float:
    if overrides and key in overrides:
        return float(overrides[key])
    return DEFAULT_TOLERANCES[key]


def _random_wavevectors(rng: np.random.Generator, count: int) -> np.ndarray:
    k = rng.uniform(-2.0, 2.0, size=(count, 3))
    norms = np.linalg.norm(k, axis=1)
    k[norms < 0.3] += np.array([1.0, 0.0, 0.0])
    return k


def suite_algebra(tolerances=None) -> SuiteReport:
    rep = SuiteReport("algebra")
    rng = np.random.default_rng(DEFAULT_SEED)

    identities = algebra.verify_matrix_identities()
    rep.add("matrix_identities", max(identities.values()), _tol(tolerances, "matrix_identities"),
            info=", ".join(f"{k}={v:.1e}" for k, v in identities.items()))

    worst_spec = 0.0
    for _ in range(16):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        spec = algebra.spin_direction_spectrum(n)
        worst_spec = max(worst_spec, float(np.abs(spec - [-1, -1, 0, 0, 1, 1]).max()))
    rep.add("spin_spectrum", worst_spec, _tol(tolerances, "spin_spectrum"))

    ks = _random_wavevectors(rng, N_RANDOM_WAVEVECTORS)
    worst_comm = max(algebra.commutator_h_spin_residual(k) for k in ks)
    rep.add("h_spin_commutator", worst_comm, _tol(tolerances, "h_spin_commutator"))

    worst_proj = 0.0
    for k in ks:
        s = algebra.projected_spin_matrices(k)
        h = algebra.hamiltonian_matrix(k)
        for i in range(3):
            worst_proj = max(worst_proj, float(np.abs(h @ s[i] - s[i] @ h).max()))
            for j in range(i + 1, 3):
                worst_proj = max(worst_proj, float(np.abs(s[i] @ s[j] - s[j] @ s[i]).max()))
    rep.add("projected_spin_commutators", worst_proj, _tol(tolerances, "projected_spin_commutators"))
    return rep


def suite_constraint(state: PhotonState, tolerances=None) -> SuiteReport:
    rep = SuiteReport("constraint")
    rng = np.random.default_rng(DEFAULT_SEED)

    rep.add("transversality", state.rqc_residual, _tol(tolerances, "transversality"))
    rep.add("branch_coupling", branch_residual(state), _tol(tolerances, "branch_coupling"))

    gamma = algebra.build_gamma_set().gamma
    worst = 0.0
    for k in _random_wavevectors(rng, N_RANDOM_WAVEVECTORS):
        gk = np.einsum("a,aij->ij", k, gamma)
        proj = algebra.transverse_projector(k)
        k2 = float(k @ k)
        worst = max(worst, float(np.abs((gk @ gk - k2 * np.eye(6)) @ proj).max()) / k2)
    rep.add("rqc_projector_identity", worst, _tol(tolerances, "rqc_projector_identity"))
    return rep


def suite_spin_equalities(state: PhotonState, tolerances=None, densities=None) -> SuiteReport:
    rep = SuiteReport("spin-equalities")
    report = observables.observable_report(state, densities=densities)
    rep.add("spin_equalities", report.max_spin_discrepancy, _tol(tolerances, "spin_equalities"),
            info="; ".join(f"{k}={np.array2string(v, precision=6)}" for k, v in report.spin.items()))
    rep.add("spin_imag_residue", report.max_imag_residue, _tol(tolerances, "spin_imag_residue"))
    return rep


def suite_oam(state: PhotonState, tolerances=None) -> SuiteReport:
    rep = SuiteReport("oam")
    l_mom = observables.oam_momentum(state)
    l_pos = observables.oam_position(state)
    gap = float(np.abs(l_mom - l_pos).max()) / max(1.0, float(np.abs(l_mom).max()))
    rep.add("oam_formula_gap", gap, _tol(tolerances, "oam_formula_gap"),
            info=f"momentum={np.array2string(l_mom, precision=6)} position={np.array2string(l_pos, precision=6)}")
    ratio = observables.oam_boundary_ratio(state)
    rep.add("oam_boundary_ratio", ratio, None, info="warning only; gradients unreliable above 1e-8")
    return rep


def suite_probability(state: PhotonState, tolerances=None) -> SuiteReport:
    rep = SuiteReport("probability")
    p_psi, p_up, p_low = observables.probability(state)
    spread = max(abs(p_psi - p_up), abs(p_psi - p_low), abs(p_up - p_low))
    rep.add("probability_equality", spread, _tol(tolerances, "probability_equality"),
            info=f"psi={p_psi:.12f} upper={p_up:.12f} lower={p_low:.12f}")
    return rep


def suite_densities(state: PhotonState, tolerances=None, densities=None) -> SuiteReport:
    rep = SuiteReport("densities")
    dc = observables.density_candidates(state, densities=densities)
    rep.add("density_integral_spread",
            max(dc.max_spin_integral_spread, dc.max_prob_integral_spread),
            _tol(tolerances, "density_integral_spread"))
    _, nl = observables.nonlocal_spin_density(state)
    rep.add("kernel_density_integral", nl["integral_vs_projected"],
            _tol(tolerances, "kernel_density_integral"))
    rep.add("spin_density_gap_upper", dc.spin_gap_upper, None,
            info="normalized pointwise gap; nonzero certifies candidate inequality")
    rep.add("spin_density_gap_lower", dc.spin_gap_lower, None)
    rep.add("spin_density_gap_kernel", dc.spin_gap_kernel, None)
    rep.add("prob_density_gap_upper", dc.prob_gap_upper, None)
    rep.add("prob_density_gap_lower", dc.prob_gap_lower, None)
    return rep


def suite_maxwell(state: PhotonState, tolerances=None) -> SuiteReport:
    rep = SuiteReport("maxwell")
    rep.add("dirac_residual", dynamics.dirac_residual(state), _tol(tolerances, "dirac_residual"))
    mr = dynamics.maxwell_residual(state)
    rep.add("maxwell_residual", mr.curl_residual, _tol(tolerances, "maxwell_residual"),
            info=f"dt={mr.dt:.3e}")
    rep.add("maxwell_divergence", mr.divergence_residual, _tol(tolerances, "maxwell_divergence"))
    return rep


def suite_conservation(state: PhotonState, times=DEFAULT_TIMES, tolerances=None) -> SuiteReport:
    rep = SuiteReport("conservation")
    cons = dynamics.continuity_and_conservation(state, times)
    rep.add("probability_drift", cons.probability_drift, _tol(tolerances, "probability_drift"),
            info=f"times={list(cons.times)}")
    rep.add("spin_drift", cons.spin_drift, _tol(tolerances, "spin_drift"))
    rep.add("oam_drift", cons.oam_drift, _tol(tolerances, "oam_drift"))
    rep.add("total_angular_momentum_drift", cons.total_drift,
            _tol(tolerances, "total_angular_momentum_drift"))
    rep.add("norm_drift", cons.norm_drift, _tol(tolerances, "norm_drift"))
    return rep


def suite_fieldbridge(state: PhotonState, tolerances=None) -> SuiteReport:
    rep = SuiteReport("fieldbridge")
    cf = fieldbridge.classical_from_state(state)
    try:
        back = fieldbridge.state_from_classical(cf)
    except ValueError as exc:
        # a state off the constraint has classical data the bridge rejects
        # (not solenoidal, or a DC part): the roundtrip has no value and fails
        rep.add("classical_roundtrip", float("nan"), None, info=str(exc))
    else:
        # component by component: the maxima of the whole arrays, without their copies
        peak = max(float(np.abs(c).max()) for c in state.psi.values)
        roundtrip = max(float(np.abs(b - c).max())
                        for b, c in zip(back.psi.values, state.psi.values)) / peak
        rep.add("classical_roundtrip", roundtrip, _tol(tolerances, "classical_roundtrip"))
        del back  # freed before the nonlocal relation check allocates its routes

    # computed once, by the bridge's validation
    rep.add("hermitian_symmetry", max(cf.hermitian_residuals), _tol(tolerances, "hermitian_symmetry"))

    nl = fieldbridge.nonlocal_relation_check(cf)
    rep.add("real_part_identity", max(nl.e_real_part_residual, nl.h_real_part_residual),
            _tol(tolerances, "real_part_identity"))
    rep.add("nonlocal_route_gap", nl.combined, _tol(tolerances, "nonlocal_route_gap"))
    return rep


def suite_kernels(grid: KGrid, tolerances=None) -> SuiteReport:
    rep = SuiteReport("kernels")
    for kind in fieldbridge.KERNEL_KINDS:
        try:
            result = fieldbridge.kernel_pair_check(kind, grid)
        except ValueError as exc:
            rep.add(f"kernel_{kind}", float("nan"), None, info=str(exc))
            continue
        rep.add(f"kernel_{kind}", result.max_rel_error, _tol(tolerances, "kernel_transform"),
                info=f"shell=[{result.k_low:.3g},{result.k_high:.3g}] "
                     f"vs_analytic={result.max_rel_error_analytic:.3g} (window-truncation limited)")
    return rep


class UnknownSuiteError(ValueError):
    """A requested suite name is not one of SUITE_NAMES."""


def check_suite_names(names) -> None:
    """Raise UnknownSuiteError unless every name is one of SUITE_NAMES."""
    unknown = [n for n in names if n not in SUITE_NAMES]
    if unknown:
        raise UnknownSuiteError(
            f"unknown suite(s) {unknown}; available: {', '.join(SUITE_NAMES)}"
        )


# suites that integrate the position-block cross densities
_DENSITY_SUITES = ("spin-equalities", "densities")


def run_suites(names, state: PhotonState, tolerances=None, times=DEFAULT_TIMES) -> list[SuiteReport]:
    """Run the named suites in order.

    The position-block cross densities that spin-equalities and densities
    both integrate are computed once and dropped after the last of those two
    suites; in the default order they are held across oam and probability
    only, whose peaks are far below the check's (fieldbridge).
    """
    shared: dict[str, tuple] = {}

    def densities():
        if "position" not in shared:
            shared["position"] = observables.position_densities(state)
        return shared["position"]

    runners = {
        "algebra": lambda: suite_algebra(tolerances),
        "constraint": lambda: suite_constraint(state, tolerances),
        "spin-equalities": lambda: suite_spin_equalities(state, tolerances, densities()),
        "oam": lambda: suite_oam(state, tolerances),
        "probability": lambda: suite_probability(state, tolerances),
        "densities": lambda: suite_densities(state, tolerances, densities()),
        "maxwell": lambda: suite_maxwell(state, tolerances),
        "conservation": lambda: suite_conservation(state, times, tolerances),
        "fieldbridge": lambda: suite_fieldbridge(state, tolerances),
        "kernels": lambda: suite_kernels(state.grid, tolerances),
    }
    check_suite_names(names)
    last_density_suite = max((i for i, n in enumerate(names) if n in _DENSITY_SUITES), default=-1)
    reports = []
    for i, name in enumerate(names):
        reports.append(runners[name]())
        if i == last_density_suite:
            shared.clear()
    return reports
