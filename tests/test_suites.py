import numpy as np
import pytest

from darwinlab import KGrid, ModeSpec, algebra, dynamics, observables, suites, synthesize
from darwinlab.state import transversality_residual
from reference import spin_cross, spin_position


class TestSuiteMachinery:
    def test_algebra_suite_passes(self):
        rep = suites.suite_algebra()
        assert rep.passed
        names = [c.name for c in rep.checks]
        assert "matrix_identities" in names and "projected_spin_commutators" in names

    def test_algebra_suite_deterministic(self):
        a = suites.suite_algebra()
        b = suites.suite_algebra()
        assert [c.value for c in a.checks] == [c.value for c in b.checks]

    def test_run_suites_rejects_unknown(self, helicity_state):
        with pytest.raises(ValueError, match="available"):
            suites.run_suites(["algebra", "spectra"], helicity_state)

    def test_nan_row_fails_whatever_its_tolerance(self):
        rep = suites.SuiteReport("rows")
        rep.add("nan_checked", float("nan"), 1.0)
        rep.add("nan_info_only", np.float64("nan"), None)
        rep.add("info_only", 0.5, None)
        assert [c.passed for c in rep.checks] == [False, False, True]

    def test_tolerance_override(self, helicity_state):
        rep = suites.suite_constraint(helicity_state, tolerances={"transversality": 1e-30})
        assert not rep.passed
        failing = [c for c in rep.checks if not c.passed]
        assert failing[0].name == "transversality"

    def test_constraint_builds_one_gamma_set(self, helicity_state, monkeypatch):
        # reference: a fresh gamma set for every random wavevector
        build = algebra.build_gamma_set
        rng = np.random.default_rng(suites.DEFAULT_SEED)
        worst = 0.0
        for k in suites._random_wavevectors(rng, suites.N_RANDOM_WAVEVECTORS):
            gk = np.einsum("a,aij->ij", k, build().gamma)
            k2 = float(k @ k)
            residual = (gk @ gk - k2 * np.eye(6)) @ algebra.transverse_projector(k)
            worst = max(worst, float(np.abs(residual).max()) / k2)

        calls = []
        monkeypatch.setattr(algebra, "build_gamma_set", lambda: calls.append(1) or build())
        rep = suites.suite_constraint(helicity_state)
        assert len(calls) <= 1
        assert {c.name: c.value for c in rep.checks}["rqc_projector_identity"] == worst

    def test_full_run_on_state(self, two_direction_state):
        names = ["constraint", "spin-equalities", "probability", "densities"]
        reports = suites.run_suites(names, two_direction_state)
        assert [r.suite for r in reports] == names
        assert all(r.passed for r in reports)

    def test_informational_checks_never_fail(self, two_direction_state):
        rep = suites.suite_densities(two_direction_state)
        gaps = [c for c in rep.checks if c.tolerance is None]
        assert gaps and all(c.passed for c in gaps)


def _two_mode_state():
    """A freshly built n=32 two-mode state; nothing has been evaluated on it yet."""
    return synthesize(
        [
            ModeSpec(kind="gaussian", k0=(0, 0, 8), sigma_k=1.5, helicity=1),
            ModeSpec(kind="vortex", k0=(0, 0, 7), sigma_k=1.5, polarization=(1, 0, 0),
                     vortex_charge=1, ring_radius=7.0, amplitude=0.5),
        ],
        KGrid(32, 1.0),
    )


class TestPerStateEvaluation:
    def test_full_check_fft_budget(self, monkeypatch):
        calls = []
        for name in ("fftn", "ifftn"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        reports = suites.run_suites(suites.SUITE_NAMES, _two_mode_state())
        assert all(r.passed for r in reports)
        assert len(calls) <= 25

    def test_block_cross_densities_once_per_state(self, monkeypatch):
        # the checked state's two momentum- and two position-block densities,
        # and the two momentum-block densities of each of the other two
        # sampled times (t = 1, 10); nothing is computed twice
        calls = []
        original = observables._cross_density

        def counted(f):
            calls.append(1)
            return original(f)

        monkeypatch.setattr(observables, "_cross_density", counted)
        reports = suites.run_suites(suites.SUITE_NAMES, _two_mode_state())
        assert all(r.passed for r in reports)
        assert len(calls) == 8

    def test_shared_values_equal_standalone_functions(self):
        reports = suites.run_suites(suites.SUITE_NAMES, _two_mode_state())
        rows = {(r.suite, c.name): c for r in reports for c in r.checks}

        # each standalone call gets its own state, so no value is shared
        fresh = _two_mode_state
        spins = [
            observables.spin_canonical(fresh()),
            observables.spin_projected(fresh()),
            spin_cross(fresh(), "upper"),
            spin_cross(fresh(), "lower"),
            spin_position(fresh(), "upper"),
            spin_position(fresh(), "lower"),
            observables.nonlocal_spin_density(fresh())[1]["integral"],
        ]
        l_mom = observables.oam_momentum(fresh())
        l_pos = observables.oam_position(fresh())
        probs = observables.probability(fresh())
        dc = observables.density_candidates(fresh())
        mr = dynamics.maxwell_residual(fresh())
        cons = dynamics.continuity_and_conservation(fresh(), (0.0, 1.0, 10.0))
        expected = {
            ("constraint", "transversality"): transversality_residual(fresh().psi),
            ("spin-equalities", "spin_equalities"):
                max(float(np.abs(a - b).max()) for a in spins for b in spins),
            ("oam", "oam_formula_gap"):
                float(np.abs(l_mom - l_pos).max()) / max(1.0, float(np.abs(l_mom).max())),
            ("oam", "oam_boundary_ratio"): observables.oam_boundary_ratio(fresh()),
            ("probability", "probability_equality"):
                max(abs(a - b) for a in probs for b in probs),
            ("densities", "density_integral_spread"):
                max(dc.max_spin_integral_spread, dc.max_prob_integral_spread),
            ("densities", "kernel_density_integral"):
                observables.nonlocal_spin_density(fresh())[1]["integral_vs_projected"],
            ("densities", "spin_density_gap_upper"): dc.spin_gap_upper,
            ("densities", "spin_density_gap_lower"): dc.spin_gap_lower,
            ("densities", "spin_density_gap_kernel"): dc.spin_gap_kernel,
            ("densities", "prob_density_gap_upper"): dc.prob_gap_upper,
            ("densities", "prob_density_gap_lower"): dc.prob_gap_lower,
            ("maxwell", "dirac_residual"): dynamics.dirac_residual(fresh()),
            ("maxwell", "maxwell_residual"): mr.curl_residual,
            ("maxwell", "maxwell_divergence"): mr.divergence_residual,
            ("conservation", "probability_drift"): cons.probability_drift,
            ("conservation", "norm_drift"): cons.norm_drift,
            ("conservation", "spin_drift"): cons.spin_drift,
            ("conservation", "oam_drift"): cons.oam_drift,
            ("conservation", "total_angular_momentum_drift"): cons.total_drift,
        }
        for key, value in expected.items():
            row = rows[key]
            if row.tolerance is not None and abs(value) <= 1e-6:
                # a checked round-off level value: 1% of its tolerance
                assert abs(row.value - value) < 0.01 * row.tolerance, key
            else:
                assert row.value == pytest.approx(value, rel=1e-12, abs=0.0), key

        # a suite run alone on a fresh state computes the same numbers
        for name in suites.SUITE_NAMES:
            (alone,) = suites.run_suites([name], fresh())
            for c in alone.checks:
                assert rows[(name, c.name)].value == c.value, (name, c.name)
