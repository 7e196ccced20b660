"""Negative controls: each row that reads the state or the matrices FAILs on
some small input, as the kinds of ``suites.ROWS`` say.

Every case is the valid n=16 gaussian below plus one named breakage, of the
state or of the code it runs through, and names the rows that must FAIL on
it with the value they reach.  The kernel check needs n >= 32, so its case
breaks the same gaussian at n=32.  Each base state passes every row of the
same suites, so a FAIL here comes from the breakage alone.  With the
kernel case, every tolerance key has a case here or is a self-test.

Why the self-tests can never FAIL: evolution multiplies each bin by a
unimodular phase, so each quantity the ``conservation`` suite tracks is
conserved whatever that phase is, and its rows measure rounding only: with
the phase's sign flipped they still pass, while ``maxwell_residual``, which
compares the evolution with the curl, FAILs.  ``fieldbridge.fourier_data``
builds each Fourier block as (a + conj(R a))/sqrt 2 with R the exact bin
reversal, an involution, so ``hermitian_symmetry`` is 0.0 bitwise on any
payload, on the constraint or off it.

Why the code rows need broken code: ``nonlocal_route_gap`` compares two
factorizations of the same complex field, so on any state it reads rounding
only while ``E_real`` is the transform of ``eps_k``: its case breaks
``fieldbridge.real_field``, the code that makes ``E_real``, instead.  So do
``spin_imag_residue``, the imaginary part of Hermitian forms, and
``kernel_density_integral``, a Parseval identity, which read rounding on any
payload, on the constraint or off it: their case multiplies the kernel
density's rows by i.  The matrix
rows read no state, so their cases perturb ``algebra.SPIN`` and γ, and the
kernel rows read only the grid, so their case scales the kernel.  One
state row has a code case too: a full spin density formed without its ½
FAILs ``density_integral_spread``.  On
seeded random payloads off the constraint every code and self-test row
passes while every state row FAILs.
"""

import numpy as np
import pytest

from darwinlab import algebra, dynamics, fieldbridge, observables, suites
from darwinlab.kgrid import KGrid
from darwinlab.state import ModeSpec, PhotonState, synthesize
from test_state import longitudinal_state


def _base(n):
    return synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 3), sigma_k=0.8, helicity=1)],
                      KGrid(n, 1.0))


@pytest.fixture(scope="module")
def base_state():
    return _base(16)


@pytest.fixture(scope="module")
def base_state_n32():
    # the kernel check needs n >= 32
    return _base(32)


def _rows(state, names):
    return {c.name: c for report in suites.run_suites(names, state) for c in report.checks}


def _of_kind(kind):
    return {name for name, row in suites.ROWS.items() if row.kind == kind}


def _gamma_off_by_1e_9(monkeypatch, state):
    # gamma_x gains a Hermitian 1e-9 at [0, 4] and [4, 0]
    gamma = algebra.GAMMA.copy()
    gamma[0, 0, 4] += 1e-9
    gamma[0, 4, 0] += 1e-9
    monkeypatch.setattr(algebra, "GAMMA", gamma)
    return state


def _spin_z_off_by_1e_9(monkeypatch, state):
    # S_z gains a Hermitian 1e-9 at [0, 1] and [1, 0]
    spin = algebra.SPIN.copy()
    spin[2, 0, 1] += 1e-9
    spin[2, 1, 0] += 1e-9
    monkeypatch.setattr(algebra, "SPIN", spin)
    return state


def _kernel_rows_times_i(monkeypatch, state):
    # each row Psi^dag Phi_i of the kernel spin density comes out times i
    original = observables._spin_density_rows

    def broken(state):
        for upper, lower, kernel in original(state):
            kernel *= 1j
            yield upper, lower, kernel

    monkeypatch.setattr(observables, "_spin_density_rows", broken)
    return PhotonState(state.psi, state.grid, state.time)  # a fresh observables memo


def _full_density_without_half(monkeypatch, state):
    # the pass over the spin densities forms the full density as the sum of
    # the block densities, not their mean; the probabilities, memoized
    # first, keep theirs, so the spin integrals alone move the row
    fresh = PhotonState(state.psi, state.grid, state.time)  # a fresh observables memo
    observables.probability(fresh)
    monkeypatch.setattr(observables, "_full_density",
                        lambda upper, lower, out=None: np.add(upper, lower, out=out))
    return fresh


def _kernel_scaled_1_1(monkeypatch, state):
    # the regularized position-space kernel comes out 10% too large
    original = fieldbridge._regularized_kernel
    monkeypatch.setattr(fieldbridge, "_regularized_kernel",
                        lambda kind, grid: 1.1 * original(kind, grid))
    return state


def _negated_lower_block(monkeypatch, state):
    # the negative-energy partner of the state: f_l -> -f_l
    values = state.psi.copy()
    values[3:] *= -1.0
    return PhotonState(values, state.grid, state.time)


def _phase_sign_flipped(monkeypatch, state):
    monkeypatch.setattr(KGrid, "phase", lambda grid, t: np.exp(1j * grid.kmag * t))
    return state


def _longitudinal(monkeypatch, state):
    return longitudinal_state(state)


def _lower_block_scaled_1_01(monkeypatch, state):
    # f_l -> 1.01 f_l: the two blocks no longer carry equal weight
    values = state.psi.copy()
    values[3:] *= 1.01
    return PhotonState(values, state.grid, state.time)


def _nyquist_plane_weight(monkeypatch, state):
    # a plane wave of amplitude 1e-3 at k = (-8, 0, 3), on the kx Nyquist
    # plane: the bin reversal maps kx = -8 to itself, not to +8, so the
    # symmetrized Fourier data is not that of the complex field's real part
    g = state.grid
    plane = synthesize([ModeSpec(kind="plane", k0=(-g.n // 2, 0, 3), helicity=1)], g)
    return PhotonState(state.psi + 1e-3 * plane.psi, g, state.time)


def _e_real_scaled_1_01(monkeypatch, state):
    # the classical snapshot's E_real, the real field of the upper block,
    # comes out 1% too large; H_real is left as it is
    original = fieldbridge.real_field

    def broken(block, grid):
        electric = np.array_equal(block, state.f_upper())
        real = original(block, grid)
        return 1.01 * real if electric else real

    monkeypatch.setattr(fieldbridge, "real_field", broken)
    return state


def _evolved_by_10(monkeypatch, state):
    # the packet crosses the 2 pi/dk position box, which the position OAM route sees
    return dynamics.evolve(state, 10.0)


# breakage: (suites run, {row that must FAIL: the value it reaches})
CASES = {
    "spin_z_off_by_1e-9": (_spin_z_off_by_1e_9, ("algebra",),
                           {"spin_spectrum": 3.65e-10, "matrix_identities": 1.0e-9,
                            "h_spin_commutator": 2.0e-9,
                            "projected_spin_commutators": 1.73e-9}),
    "kernel_rows_times_i": (_kernel_rows_times_i, ("spin-equalities", "densities"),
                            {"spin_imag_residue": 0.967, "kernel_density_integral": 0.967,
                             "spin_equalities": 0.967, "density_integral_spread": 0.967}),
    "full_density_without_half": (_full_density_without_half, ("densities",),
                                  {"density_integral_spread": 0.967}),
    "kernel_scaled_1.1": (_kernel_scaled_1_1, ("kernels",),
                          {"kernel_half_power": 0.0708, "kernel_inverse_k": 0.0722}),
    "gamma_off_by_1e-9": (_gamma_off_by_1e_9, ("algebra", "constraint"),
                          {"matrix_identities": 2.0e-9, "h_spin_commutator": 2.0e-9,
                           "projected_spin_commutators": 1.65e-9,
                           "rqc_projector_identity": 9.5e-10}),
    "negated_lower_block": (_negated_lower_block, ("constraint", "maxwell"),
                            {"branch_coupling": 2.0, "dirac_residual": 2.0,
                             "maxwell_residual": 2.0}),
    "phase_sign_flipped": (_phase_sign_flipped, ("maxwell", "conservation"),
                           {"maxwell_residual": 2.0}),
    "longitudinal_part": (_longitudinal, ("constraint", "maxwell"),
                          {"transversality": 0.29, "maxwell_divergence": 0.44}),
    "lower_block_scaled_1.01": (_lower_block_scaled_1_01,
                                ("spin-equalities", "probability", "densities", "fieldbridge"),
                                {"spin_equalities": 0.0194, "probability_equality": 0.0201,
                                 "density_integral_spread": 0.0201,
                                 "classical_roundtrip": 0.00495}),
    "nyquist_plane_weight": (_nyquist_plane_weight, ("fieldbridge",),
                             {"real_part_identity": 3.42e-4}),
    "E_real_scaled_1.01": (_e_real_scaled_1_01, ("fieldbridge",),
                           {"real_part_identity": 0.0099, "nonlocal_route_gap": 0.01}),
    "evolved_by_10": (_evolved_by_10, ("oam",), {"oam_formula_gap": 0.81}),
}
# cases that break the n=32 base instead
N32_CASES = ("kernel_scaled_1.1",)


@pytest.mark.parametrize("case", sorted(CASES))
def test_breakage_fails_its_rows(case, base_state, base_state_n32, monkeypatch):
    breakage, names, expect = CASES[case]
    base = base_state_n32 if case in N32_CASES else base_state
    rows = _rows(breakage(monkeypatch, base), names)
    for name, value in expect.items():
        assert not rows[name].passed, name
        assert rows[name].value == pytest.approx(value, rel=0.02), name


def test_base_state_passes_every_row_of_the_cases(base_state, base_state_n32):
    for base, n32 in ((base_state, False), (base_state_n32, True)):
        cases = [case for name, case in CASES.items() if (name in N32_CASES) == n32]
        names = [n for n in suites.SUITE_NAMES if any(n in case[1] for case in cases)]
        failing = [c.name for c in _rows(base, names).values() if not c.passed]
        assert failing == [], base.grid.n


def test_conservation_rows_are_self_tests(base_state, monkeypatch):
    # a wrong-signed evolution still conserves every constant of motion
    (report,) = suites.run_suites(["conservation"], _phase_sign_flipped(monkeypatch, base_state))
    assert {c.name for c in report.checks} <= _of_kind("self-test")
    assert report.passed


def test_evolved_case_fail_names_its_position_shell(base_state, monkeypatch):
    # the FAIL carries the values of the rows it needs to hold, read from its report
    rows = _rows(_evolved_by_10(monkeypatch, base_state), ["oam"])
    gap, ratio = rows["oam_formula_gap"], rows["oam_boundary_ratio"]
    assert not gap.passed
    assert gap.info.endswith(f"; preconditions: oam_boundary_ratio={ratio.value:.3g}, "
                             "oam_position_shell=0.497")


def test_position_shell_names_the_wrap_of_the_evolved_case(base_state, monkeypatch):
    # the info-only row reads the weight in the outer shell of the position box
    base = _rows(base_state, ["oam"])["oam_position_shell"]
    evolved = _rows(_evolved_by_10(monkeypatch, base_state), ["oam"])["oam_position_shell"]
    assert base.value == pytest.approx(0.0133, rel=0.02)
    assert evolved.value == pytest.approx(0.50, rel=0.02)


def test_hermitian_symmetry_is_a_self_test():
    # a random payload, far off the constraint, still builds exactly symmetric blocks
    rng = np.random.default_rng(23)
    g = KGrid(16, 1.0)
    values = rng.normal(size=(6,) + g.shape) + 1j * rng.normal(size=(6,) + g.shape)
    cf = fieldbridge.classical_fourier_data(PhotonState(values, g))
    assert cf.hermitian_residuals == (0.0, 0.0)


def test_every_tolerance_key_has_a_case_or_is_a_self_test():
    failed = {suites.ROWS[row].key for case in CASES.values() for row in case[2]}
    assert set(suites.DEFAULT_TOLERANCES) - failed == {
        suites.ROWS[row].key for row in _of_kind("self-test")}


@pytest.mark.parametrize("n, seed", [(8, 31), (16, 32)])
def test_random_payloads_fail_only_state_rows(n, seed):
    # far off the constraint and off the positive-energy branch: the code rows
    # and the self-tests read rounding, while every state row FAILs; the
    # kernels suite reads only the grid, and needs n >= 32
    rng = np.random.default_rng(seed)
    g = KGrid(n, 1.0)
    values = rng.normal(size=(6,) + g.shape) + 1j * rng.normal(size=(6,) + g.shape)
    values = values / np.sqrt(PhotonState(values, g).norm)
    rows = _rows(PhotonState(values, g),
                 [name for name in suites.SUITE_NAMES if name != "kernels"])
    assert {name for name, c in rows.items() if not c.passed} == _of_kind("state")
