"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Grid sizes stay at desk scale (32^3 to 64^3, with 128^3 only for the
kernel refinement comparison) and every criterion carries its tolerance
inline.
"""

import numpy as np
import pytest

from darwinlab.algebra import (
    GAMMA,
    commutator_h_spin_residual,
    hamiltonian_matrix,
    projected_spin_matrices,
    spin_direction_spectrum,
    transverse_projector,
    verify_matrix_identities,
)
from darwinlab.dynamics import maxwell_residual
from darwinlab.fieldbridge import hermitian_symmetry_residual, kernel_pair_check
from darwinlab.kgrid import KGrid
from darwinlab.observables import (
    oam_momentum,
    oam_position,
    position_spin,
    probability,
    probability_gap,
    spin_canonical,
    spin_discrepancies,
    spin_routes,
)
from darwinlab.state import ModeSpec, branch_residual, synthesize
from darwinlab.suites import run_suites
from reference import classical_from_state, nonlocal_relation_check, state_from_classical

SEED = 7041


def conclude(number: int, label: str, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {number} ({label}): {verdict}")
    assert not failures, f"criterion {number} ({label}): " + "; ".join(failures)


def random_wavevectors(count: int) -> np.ndarray:
    rng = np.random.default_rng(SEED)
    k = rng.uniform(-2.0, 2.0, size=(count, 3))
    k[np.linalg.norm(k, axis=1) < 0.3] += np.array([1.0, 0.0, 0.0])
    return k


@pytest.fixture(scope="module")
def g32():
    return KGrid(32, 1.0)


@pytest.fixture(scope="module")
def g64():
    return KGrid(64, 1.0)


@pytest.fixture(scope="module")
def two_direction(g32):
    return synthesize(
        [
            ModeSpec(kind="gaussian", k0=(0, 0, 8), sigma_k=1.5, helicity=1),
            ModeSpec(kind="gaussian", k0=(8, 0, 0), sigma_k=1.5, helicity=-1),
        ],
        g32,
    )


def test_criterion_1_matrix_algebra():
    failures = []
    residuals = verify_matrix_identities()
    for name, value in residuals.items():
        if value >= 1e-13:
            failures.append(f"{name} residual {value:.2e}")

    rng = np.random.default_rng(SEED)
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        spec = spin_direction_spectrum(n)
        dev = np.abs(spec - [-1, -1, 0, 0, 1, 1]).max()
        if dev >= 1e-13:
            failures.append(f"spectrum deviation {dev:.2e} at n={n}")
    conclude(1, "matrix algebra", failures)


def test_criterion_2_constraints(g32, two_direction):
    failures = []
    states = {
        "gaussian": synthesize(
            [ModeSpec(kind="gaussian", k0=(0, 0, 8), sigma_k=1.2, helicity=1)], g32
        ),
        "vortex": synthesize(
            [ModeSpec(kind="vortex", k0=(0, 0, 7), sigma_k=1.5, helicity=1,
                      vortex_charge=2, ring_radius=7.0)], g32
        ),
        "two-direction": two_direction,
    }
    for name, st in states.items():
        if st.rqc_residual >= 1e-12:
            failures.append(f"{name}: transversality {st.rqc_residual:.2e}")
        br = branch_residual(st)
        if br >= 1e-12:
            failures.append(f"{name}: branch coupling {br:.2e}")

    for k in random_wavevectors(100):
        gk = np.einsum("a,aij->ij", k, GAMMA)
        res = np.abs((gk @ gk - (k @ k) * np.eye(6)) @ transverse_projector(k)).max()
        if res / max(1.0, k @ k) >= 1e-13:
            failures.append(f"projector identity residual {res:.2e} at k={k}")
            break
    conclude(2, "transversality constraint", failures)


def test_criterion_3_spin_operator():
    failures = []
    for k in random_wavevectors(100):
        s = projected_spin_matrices(k)
        h = hamiltonian_matrix(k)
        for i in range(3):
            hs = np.abs(h @ s[i] - s[i] @ h).max()
            if hs >= 1e-13:
                failures.append(f"[H,S_{i}] = {hs:.2e} at k={k}")
            for j in range(i + 1, 3):
                ss = np.abs(s[i] @ s[j] - s[j] @ s[i]).max()
                if ss >= 1e-13:
                    failures.append(f"[S_{i},S_{j}] = {ss:.2e} at k={k}")
        if failures:
            break
        if commutator_h_spin_residual(k) >= 1e-13:
            failures.append(f"precession identity at k={k}")
            break
    conclude(3, "projected spin operator", failures)


def test_criterion_4_spin_equalities(g32, two_direction):
    failures = []
    # (a) narrow circular states: all seven formulas agree and the value is
    # the helicity along the beam axis (spread-limited, so sigma_k is small)
    for hel in (+1, -1):
        st = synthesize(
            [ModeSpec(kind="gaussian", k0=(0, 0, 8), sigma_k=8e-3, helicity=hel)], g32
        )
        routes = spin_routes(st)
        spin = {name: value for name, (value, _) in routes.items()}
        spread = max(spin_discrepancies(spin).values())
        if spread >= 1e-10:
            failures.append(f"hel={hel}: seven-way spread {spread:.2e}")
        target = np.array([0.0, 0.0, float(hel)])
        dev = np.abs(spin["canonical"] - target).max()
        if dev >= 1e-6:
            failures.append(f"hel={hel}: <S> off axis value by {dev:.2e}")
        residue = max(res for _, res in routes.values())
        if residue >= 1e-10:
            failures.append(f"hel={hel}: imaginary residue {residue:.2e}")

    # (b) two-direction superposition
    spin = {name: value for name, (value, _) in spin_routes(two_direction).items()}
    spread = max(spin_discrepancies(spin).values())
    if spread >= 1e-10:
        failures.append(f"two-direction: seven-way spread {spread:.2e}")
    conclude(4, "spin-formula equality", failures)


def ring_state(grid, charge, kz, rho, sigma, helicity=None, polarization=(1, 0, 0)):
    return synthesize(
        [ModeSpec(kind="vortex", k0=(0, 0, kz), sigma_k=sigma, helicity=helicity,
                  polarization=polarization, vortex_charge=charge, ring_radius=rho)],
        grid,
    )


def test_criterion_5_oam(g64):
    failures = []

    def tol(charge):
        return 0.01 * max(1.0, abs(charge))

    # absolute targets at n=64: linearly polarized annular vortices
    for charge in (-1, 0, 2):
        st = ring_state(g64, charge, kz=14.0, rho=14.0, sigma=3.4)
        l_mom = oam_momentum(st)[2]
        l_pos = oam_position(st)[2]
        if abs(l_mom - charge) > tol(charge):
            failures.append(f"l={charge}: momentum-space L_z {l_mom:.4f}")
        if abs(l_pos - charge) > tol(charge):
            failures.append(f"l={charge}: position-space L_z {l_pos:.4f}")
        if abs(l_mom - l_pos) > tol(charge):
            failures.append(f"l={charge}: formula gap {abs(l_mom - l_pos):.4f}")

    # halving dk: both the target error and the formula gap shrink ~4x
    g32f = KGrid(32, 1.0)
    g64f = KGrid(64, 0.5)
    for charge in (-1, 2):
        errs, gaps = [], []
        for g in (g32f, g64f):
            st = ring_state(g, charge, kz=6.5, rho=6.5, sigma=1.5)
            lm, lp = oam_momentum(st)[2], oam_position(st)[2]
            errs.append(abs(lm - charge))
            gaps.append(abs(lm - lp))
        for name, pair in (("target error", errs), ("formula gap", gaps)):
            factor = pair[0] / pair[1]
            if not (3.5 <= factor <= 4.5):
                failures.append(f"l={charge}: {name} convergence factor {factor:.2f}")

    # total angular momentum for circularly polarized vortices
    for charge in (-1, 0, 2):
        st = ring_state(g64, charge, kz=14.0, rho=14.0, sigma=3.4,
                        helicity=1, polarization=None)
        jz = oam_position(st)[2] + spin_canonical(st)[2]
        target = charge + 1
        if abs(jz - target) > 0.01 * max(1.0, abs(target)):
            failures.append(f"l={charge}: J_z {jz:.4f} vs {target}")
    conclude(5, "orbital angular momentum", failures)


def test_criterion_6_density_non_uniqueness(two_direction):
    failures = []
    _, spin_spread, spin_gap, _ = position_spin(two_direction)
    p = probability(two_direction)
    prob_spread = max(abs(a - b) for a in p for b in p)
    # the lower-block gaps equal these (test_observables, TestDensities)
    for name, gap in (("spin upper", spin_gap), ("prob upper", probability_gap(two_direction))):
        if gap <= 0.05:
            failures.append(f"{name} pointwise gap {gap:.3f} not > 0.05")
    if spin_spread >= 1e-10:
        failures.append(f"spin integrals spread {spin_spread:.2e}")
    if prob_spread >= 1e-10:
        failures.append(f"probability integrals spread {prob_spread:.2e}")
    conclude(6, "density non-uniqueness", failures)


def test_criterion_7_conservation(two_direction):
    failures = []
    [report] = run_suites(["conservation"], two_direction, times=[0.0, 1.0, 10.0])
    for c in report.checks:  # P, spin, L, L+spin and the momentum-space norm
        if not c.value < 1e-10:
            failures.append(f"{c.name} {c.value:.2e}")

    mr = maxwell_residual(two_direction)
    if mr.curl_residual >= 1e-6:
        failures.append(f"maxwell residual {mr.curl_residual:.2e}")
    fine = maxwell_residual(two_direction, dt=mr.dt / 2.0)
    factor = mr.curl_residual / fine.curl_residual
    if not (3.5 <= factor <= 4.5):
        failures.append(f"maxwell dt-convergence factor {factor:.2f}")
    conclude(7, "conservation", failures)


def test_criterion_8_field_bridge(two_direction):
    failures = []
    cf = classical_from_state(two_direction)
    back = state_from_classical(cf)
    peak = np.abs(two_direction.psi).max()
    roundtrip = np.abs(back.psi - two_direction.psi).max() / peak
    if roundtrip >= 1e-10:
        failures.append(f"roundtrip {roundtrip:.2e}")

    herm = max(hermitian_symmetry_residual(cf.eps_k), hermitian_symmetry_residual(cf.eta_k))
    if herm >= 1e-12:
        failures.append(f"hermitian symmetry {herm:.2e}")

    nl = nonlocal_relation_check(cf)
    if max(nl.e_real_part_residual, nl.h_real_part_residual) >= 1e-12:
        failures.append("real-part identity residual")
    if nl.combined >= 1e-10:
        failures.append(f"nonlocal route gap {nl.combined:.2e}")

    # kernel pairs: calibrated against the radial-quadrature reference on the
    # n = 64 shell; the refined grid is scored on the same band
    shell = (4 * 0.25, (64 * 0.25 / 2) / 4)
    coarse = KGrid(64, 0.25)
    fine = KGrid(128, 0.25)
    for kind in ("inverse_k", "half_power"):
        a = kernel_pair_check(kind, coarse, shell=shell)
        b = kernel_pair_check(kind, fine, shell=shell)
        if a.max_rel_error >= 0.05:
            failures.append(f"{kind}: n=64 error {a.max_rel_error:.3f}")
        if not b.max_rel_error < a.max_rel_error:
            failures.append(f"{kind}: no improvement at n=128 "
                            f"({a.max_rel_error:.3f} -> {b.max_rel_error:.3f})")
    conclude(8, "field bridge", failures)
