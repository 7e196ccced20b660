"""Named verification suites run by the command-line ``check`` command.

Each suite returns the rows that `ROWS` declares for it, in order, as (name,
value[, info]) tuples, and `run_suites` holds every row to its tolerance
(`_check`), giving a CheckResult: the measured number, its tolerance and the
verdict, with a FAIL's precondition rows named in its info.  Matrix-level
suites draw their random wavevectors from a seeded generator so reports are
reproducible; the seed is recorded in the report.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import algebra, dynamics, fieldbridge, observables
from .state import PhotonState, branch_residual

DEFAULT_SEED = 20320
N_RANDOM_WAVEVECTORS = 100
DEFAULT_TIMES = (0.0, 1.0, 10.0)  # conservation sample times
# from k_max |t| = 2^53 on, doubles around |k| t are 2 apart or more, so the
# phase exp(-i |k| t) keeps no correct digit on the outer bins
PHASE_PRECISION_LIMIT = 2.0**53

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

# Every report row in report order: its suite, tolerance key (None: info only),
# kind ("state": some payload FAILs it; "code": only broken code does;
# "self-test": nothing does; "info") and the rows of its suite that it needs.
Row = namedtuple("Row", ["suite", "key", "kind", "preconditions"], defaults=[()])
ROWS: dict[str, Row] = {
    "matrix_identities": Row("algebra", "matrix_identities", "code"),
    "spin_spectrum": Row("algebra", "spin_spectrum", "code"),
    "h_spin_commutator": Row("algebra", "h_spin_commutator", "code"),
    "projected_spin_commutators": Row("algebra", "projected_spin_commutators", "code"),
    "transversality": Row("constraint", "transversality", "state"),
    "branch_coupling": Row("constraint", "branch_coupling", "state"),
    "rqc_projector_identity": Row("constraint", "rqc_projector_identity", "code"),
    "spin_equalities": Row("spin-equalities", "spin_equalities", "state"),
    "spin_imag_residue": Row("spin-equalities", "spin_imag_residue", "code"),
    "oam_formula_gap": Row("oam", "oam_formula_gap", "state", ("oam_boundary_ratio", "oam_position_shell")),
    "oam_boundary_ratio": Row("oam", None, "info"),
    "oam_position_shell": Row("oam", None, "info"),
    "probability_equality": Row("probability", "probability_equality", "state"),
    "density_integral_spread": Row("densities", "density_integral_spread", "state"),
    "kernel_density_integral": Row("densities", "kernel_density_integral", "code"),
    "spin_density_gap_upper": Row("densities", None, "info"),
    "spin_density_gap_kernel": Row("densities", None, "info"),
    "prob_density_gap_upper": Row("densities", None, "info"),
    "dirac_residual": Row("maxwell", "dirac_residual", "state"),
    "maxwell_residual": Row("maxwell", "maxwell_residual", "state"),
    "maxwell_divergence": Row("maxwell", "maxwell_divergence", "state"),
    "probability_drift": Row("conservation", "probability_drift", "self-test"),
    "spin_drift": Row("conservation", "spin_drift", "self-test"),
    "oam_drift": Row("conservation", "oam_drift", "self-test"),
    "total_angular_momentum_drift": Row("conservation", "total_angular_momentum_drift", "self-test"),
    "norm_drift": Row("conservation", "norm_drift", "self-test"),
    "classical_roundtrip": Row("fieldbridge", "classical_roundtrip", "state"),
    "hermitian_symmetry": Row("fieldbridge", "hermitian_symmetry", "self-test"),
    "real_part_identity": Row("fieldbridge", "real_part_identity", "state"),
    "nonlocal_route_gap": Row("fieldbridge", "nonlocal_route_gap", "code"),
    "kernel_half_power": Row("kernels", "kernel_transform", "code"),
    "kernel_inverse_k": Row("kernels", "kernel_transform", "code"),
}

SUITE_NAMES = tuple(dict.fromkeys(row.suite for row in ROWS.values()))

# `dpl check` runs these two groups in two processes (cli._run_suite_groups).
# The split follows what one state caches: the memo suites share the
# observables memo (the position transform, the position cross-density pair
# and the routes built on them), so they stay together and compute each of
# those once.  The other suites read none of them; each makes its own
# transforms, so running them apart computes nothing twice.
MEMO_SUITES = ("spin-equalities", "oam", "probability", "densities", "conservation")
# fieldbridge, which sets a check's peak working set, runs first: algebra and
# constraint load numpy.random (and LAPACK), whose pages would sit under it
OWN_TRANSFORM_SUITES = ("fieldbridge", "maxwell", "constraint", "kernels", "algebra")


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
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(tolerances, name: str, value, info: str = "") -> CheckResult:
    """A suite's row (name, value[, info]) with its tolerance and verdict.

    The tolerance is the override for the row's `ROWS` key, else the key's
    default; an info-only row and a value of None, which the suite could not
    compute (NaN), have none.  A NaN fails whatever its tolerance.
    """
    key = ROWS[name].key
    if value is None or key is None:
        tolerance = None
    else:
        tolerance = float((tolerances or {}).get(key, DEFAULT_TOLERANCES[key]))
    value = float("nan") if value is None else float(value)
    passed = value == value and (tolerance is None or value <= tolerance)
    return CheckResult(name, value, tolerance, passed, info)


def _random_wavevectors(rng: np.random.Generator, count: int) -> np.ndarray:
    k = rng.uniform(-2.0, 2.0, size=(count, 3))
    norms = np.linalg.norm(k, axis=1)
    k[norms < 0.3] += np.array([1.0, 0.0, 0.0])
    return k


def suite_algebra(state: PhotonState, times) -> list:
    rng = np.random.default_rng(DEFAULT_SEED)

    identities = algebra.verify_matrix_identities()
    rows = [("matrix_identities", max(identities.values()),
             ", ".join(f"{k}={v:.1e}" for k, v in identities.items()))]

    worst_spec = 0.0
    for _ in range(16):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        spec = algebra.spin_direction_spectrum(n)
        worst_spec = max(worst_spec, float(np.abs(spec - [-1, -1, 0, 0, 1, 1]).max()))
    rows.append(("spin_spectrum", worst_spec))

    ks = _random_wavevectors(rng, N_RANDOM_WAVEVECTORS)
    rows.append(("h_spin_commutator", max(algebra.commutator_h_spin_residual(k) for k in ks)))

    worst_proj = 0.0
    for k in ks:
        s = algebra.projected_spin_matrices(k)
        h = algebra.hamiltonian_matrix(k)
        for i in range(3):
            worst_proj = max(worst_proj, float(np.abs(h @ s[i] - s[i] @ h).max()))
            for j in range(i + 1, 3):
                worst_proj = max(worst_proj, float(np.abs(s[i] @ s[j] - s[j] @ s[i]).max()))
    rows.append(("projected_spin_commutators", worst_proj))
    return rows


def suite_constraint(state: PhotonState, times) -> list:
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = 0.0
    for k in _random_wavevectors(rng, N_RANDOM_WAVEVECTORS):
        gk = np.einsum("a,aij->ij", k, algebra.GAMMA)
        proj = algebra.transverse_projector(k)
        k2 = float(k @ k)
        worst = max(worst, float(np.abs((gk @ gk - k2 * np.eye(6)) @ proj).max()) / k2)
    return [("transversality", state.rqc_residual),
            ("branch_coupling", branch_residual(state)),
            ("rqc_projector_identity", worst)]


def suite_spin_equalities(state: PhotonState, times) -> list:
    report = observables.observable_report(state)
    return [("spin_equalities", report.max_spin_discrepancy,
             "; ".join(f"{k}={np.array2string(v, precision=6)}" for k, v in report.spin.items())),
            ("spin_imag_residue", report.max_imag_residue)]


def suite_oam(state: PhotonState, times) -> list:
    l_mom = observables.oam_momentum(state)
    l_pos = observables.oam_position(state)
    gap = float(np.abs(l_mom - l_pos).max()) / max(1.0, float(np.abs(l_mom).max()))
    return [("oam_formula_gap", gap, f"momentum={np.array2string(l_mom, precision=6)} "
                                     f"position={np.array2string(l_pos, precision=6)}"),
            ("oam_boundary_ratio", observables.oam_boundary_ratio(state),
             "warning only; gradients unreliable above 1e-8"),
            ("oam_position_shell", observables.oam_position_shell(state),
             "info only; the position route wraps where the packet reaches the box edge")]


def suite_probability(state: PhotonState, times) -> list:
    p_psi, p_up, p_low = observables.probability(state)
    spread = max(abs(p_psi - p_up), abs(p_psi - p_low), abs(p_up - p_low))
    return [("probability_equality", spread,
             f"psi={p_psi:.12f} upper={p_up:.12f} lower={p_low:.12f}")]


def suite_densities(state: PhotonState, times) -> list:
    projected = observables.spin_projected(state)  # before the densities exist
    observables.probability(state)  # memoized for conservation before run_suites drops the transform
    dc = observables.density_candidates(state)
    _, (kernel_integral, _) = observables.nonlocal_spin_density(state)
    return [("density_integral_spread", max(dc.max_spin_integral_spread, dc.max_prob_integral_spread)),
            ("kernel_density_integral", float(np.abs(kernel_integral - projected).max())),
            ("spin_density_gap_upper", dc.spin_gap_upper,
             "normalized pointwise gap; nonzero certifies candidate inequality"),
            ("spin_density_gap_kernel", dc.spin_gap_kernel),
            ("prob_density_gap_upper", dc.prob_gap_upper)]


def suite_maxwell(state: PhotonState, times) -> list:
    rows = [("dirac_residual", dynamics.dirac_residual(state))]
    mr = dynamics.maxwell_residual(state)
    return rows + [("maxwell_residual", mr.curl_residual, f"dt={mr.dt:.3e}"),
                   ("maxwell_divergence", mr.divergence_residual)]


def suite_conservation(state: PhotonState, times) -> list:
    """P, the momentum-space norm, <spin>, <L> and <L> + <spin> at each
    sampled time; each row is the largest drift from the first sample.

    All five are exact constants for positive-energy states.  Each sample
    reads the norm and the momentum routes before the probability makes its
    position transform, so their temporaries never sit on that transform,
    and then releases its position arrays: the state's own, for the sample
    at the state's own time.
    An evolved copy is freed, with everything its memo holds, before the
    next one is built.
    """
    times = [float(t) for t in times]
    norms, oams, spins, probs = [], [], [], []
    for t in times:
        st = dynamics.evolve(state, t - state.time)
        norms.append(st.norm)
        oams.append(observables.oam_momentum(st))
        spins.append(observables.spin_canonical(st))
        probs.append(observables.probability(st)[0])
        observables.drop_position(st)
        del st
    totals = [l + s for l, s in zip(oams, spins)]

    def drift(values) -> float:
        return max(float(np.max(np.abs(v - values[0]))) for v in values)

    # the OAM route peels the phase off before its k-gradient, which fails
    # where the phase has lost its precision: those rows name the times
    k_max = float(state.grid.k_max)
    lost = "; ".join(
        f"t={t:.6g}: k_max|t|={k_max * abs(t):.3g} >= 2^53, so the phase exp(-i|k|t) "
        "has lost its precision" for t in times if k_max * abs(t) >= PHASE_PRECISION_LIMIT)
    return [("probability_drift", drift(probs), f"times={times}"),
            ("spin_drift", drift(spins)),
            ("oam_drift", drift(oams), lost),
            ("total_angular_momentum_drift", drift(totals), lost),
            ("norm_drift", drift(norms))]


def suite_fieldbridge(state: PhotonState, times) -> list:
    cf = fieldbridge.classical_from_state(state)
    try:
        # an all-zero payload comes back as zeros: no error, the zero-peak rule
        # of dirac_residual and maxwell_residual
        rows = [("classical_roundtrip", fieldbridge.roundtrip_gap(cf, state))]
    except ValueError as exc:
        # a state off the constraint has classical data the bridge rejects
        # (not solenoidal, or a DC part), and a round trip that is not finite
        # has no gap: the row has no value and fails
        rows = [("classical_roundtrip", None, str(exc))]

    # computed once, by the bridge's validation
    rows.append(("hermitian_symmetry", max(cf.hermitian_residuals)))

    nl = fieldbridge.nonlocal_relation_check(cf)
    return rows + [("real_part_identity", max(nl.e_real_part_residual, nl.h_real_part_residual)),
                   ("nonlocal_route_gap", nl.combined)]


def suite_kernels(state: PhotonState, times) -> list:
    rows = []
    for kind in fieldbridge.KERNEL_KINDS:
        try:
            result = fieldbridge.kernel_pair_check(kind, state.grid)
        except ValueError as exc:
            rows.append((f"kernel_{kind}", None, str(exc)))
            continue
        rows.append((f"kernel_{kind}", result.max_rel_error,
                     f"shell=[{result.k_low:.3g},{result.k_high:.3g}] "
                     f"vs_analytic={result.max_rel_error_analytic:.3g} (window-truncation limited)"))
    return rows


def check_suite_names(names) -> None:
    """Raise ValueError unless every name is one of SUITE_NAMES."""
    unknown = [n for n in names if n not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}; available: {', '.join(SUITE_NAMES)}")


def run_suites(names, state: PhotonState, tolerances=None, times=DEFAULT_TIMES) -> list[SuiteReport]:
    """Run each named suite once, in one fixed order, and return the reports
    in the order of `names` (a name given twice, twice).

    The run order is the memo group, then the own-transforms group, each in
    its declared order.  The position transform, the position cross-density
    pair and the nonlocal kernel density live in the observables memo, so
    each is made once, when a suite first reads it.  All three are released
    right after `densities`, the last suite that reads them, so the suites
    after it never hold them; conservation releases what its samples make.
    A suite that returns other rows than its `ROWS`, in order, raises.
    """
    check_suite_names(names)
    reports = {}
    for name in MEMO_SUITES + OWN_TRANSFORM_SUITES:
        if name in names:
            # the module's binding at call time, so a rebound suite_<name> runs
            rows = globals()[f"suite_{name.replace('-', '_')}"](state, times)
            if [row[0] for row in rows] != [row for row, d in ROWS.items() if d.suite == name]:
                raise RuntimeError(f"suite {name} returned {[row[0] for row in rows]}, not its ROWS")
            checks = {row[0]: _check(tolerances, *row) for row in rows}
            for c in [c for c in checks.values() if not c.passed and ROWS[c.name].preconditions]:
                held = ", ".join(f"{p}={checks[p].value:.3g}" for p in ROWS[c.name].preconditions)
                checks[c.name] = replace(c, info=f"{c.info}; preconditions: {held}")
            reports[name] = SuiteReport(name, list(checks.values()))
        if name == "densities":
            observables.drop_position(state)
    return [reports[name] for name in names]
