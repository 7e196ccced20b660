"""Negative controls: each row that reads the state or the matrices FAILs on
some small input.

Every case is the valid n=16 gaussian below plus one named breakage, of the
state or of the code it runs through, and names the rows that must FAIL on
it with the value they reach.  The base state passes every row of the same
suites, so a FAIL here comes from the breakage alone.

Self-tests: the five ``conservation`` rows (``probability_drift``,
``spin_drift``, ``oam_drift``, ``total_angular_momentum_drift`` and
``norm_drift``).  Evolution multiplies each bin by a unimodular phase, so
each conserved quantity is conserved whatever that phase is, and the rows
measure rounding only: with the phase's sign flipped they still pass, while
``maxwell_residual``, which compares the evolution with the curl, FAILs.
"""

import numpy as np
import pytest

from darwinlab import algebra, suites
from darwinlab.kgrid import KGrid, momentum_field
from darwinlab.state import ModeSpec, PhotonState, synthesize
from test_state import longitudinal_state


@pytest.fixture(scope="module")
def base_state():
    return synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 3), sigma_k=0.8, helicity=1)],
                      KGrid(16, 1.0))


def _rows(state, names):
    return {c.name: c for report in suites.run_suites(names, state) for c in report.checks}


def _gamma_off_by_1e_9(monkeypatch, state):
    # gamma_x gains a Hermitian 1e-9 at [0, 4] and [4, 0]
    gamma = algebra.GAMMA.copy()
    gamma[0, 0, 4] += 1e-9
    gamma[0, 4, 0] += 1e-9
    monkeypatch.setattr(algebra, "GAMMA", gamma)
    return state


def _negated_lower_block(monkeypatch, state):
    # the negative-energy partner of the state: f_l -> -f_l
    values = state.psi.values.copy()
    values[3:] *= -1.0
    return PhotonState(momentum_field(values, state.grid), state.time)


def _phase_sign_flipped(monkeypatch, state):
    monkeypatch.setattr(KGrid, "phase", lambda grid, t: np.exp(1j * grid.kmag * t))
    return state


def _longitudinal(monkeypatch, state):
    return longitudinal_state(state)


# breakage: (suites run, {row that must FAIL: the value it reaches})
CASES = {
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
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_breakage_fails_its_rows(case, base_state, monkeypatch):
    breakage, names, expect = CASES[case]
    rows = _rows(breakage(monkeypatch, base_state), names)
    for name, value in expect.items():
        assert not rows[name].passed, name
        assert rows[name].value == pytest.approx(value, rel=0.02), name


def test_base_state_passes_every_row_of_the_cases(base_state):
    names = [n for n in suites.SUITE_NAMES if any(n in case[1] for case in CASES.values())]
    failing = [c.name for c in _rows(base_state, names).values() if not c.passed]
    assert failing == []


def test_conservation_rows_are_self_tests(base_state, monkeypatch):
    # a wrong-signed evolution still conserves every constant of motion
    (report,) = suites.run_suites(["conservation"], _phase_sign_flipped(monkeypatch, base_state))
    assert [c.name for c in report.checks] == ["probability_drift", "spin_drift", "oam_drift",
                                               "total_angular_momentum_drift", "norm_drift"]
    assert report.passed
