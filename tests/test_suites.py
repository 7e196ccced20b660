import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from darwinlab import algebra, cli, dynamics, kgrid, observables, suites
from darwinlab.kgrid import KGrid
from darwinlab.state import ModeSpec, synthesize, transversality_residual
from darwinlab.stateio import write_state
from make_golden import golden_path
from reference import README_MODES, spin_cross, spin_position
from test_memory import _evolve_certified, _observe_on


class TestSuiteMachinery:
    def test_algebra_suite_passes(self, helicity_state):
        (rep,) = suites.run_suites(["algebra"], helicity_state)
        assert rep.passed
        names = [c.name for c in rep.checks]
        assert "matrix_identities" in names and "projected_spin_commutators" in names

    def test_algebra_suite_deterministic(self, helicity_state):
        (a,) = suites.run_suites(["algebra"], helicity_state)
        (b,) = suites.run_suites(["algebra"], helicity_state)
        assert [c.value for c in a.checks] == [c.value for c in b.checks]

    def test_run_suites_rejects_unknown(self, helicity_state):
        with pytest.raises(ValueError, match="available"):
            suites.run_suites(["algebra", "spectra"], helicity_state)

    def test_nan_row_fails_whatever_its_tolerance(self):
        rows = [suites._check({"transversality": 1.0}, "transversality", float("nan")),
                suites._check(None, "classical_roundtrip", None, "no value"),
                suites._check(None, "oam_boundary_ratio", np.float64("nan")),
                suites._check(None, "oam_boundary_ratio", 0.5)]
        assert [c.passed for c in rows] == [False, False, False, True]
        assert [c.tolerance for c in rows] == [1.0, None, None, None]
        assert np.isnan(rows[1].value) and rows[1].info == "no value"

    def test_tolerance_override(self, helicity_state):
        (rep,) = suites.run_suites(["constraint"], helicity_state,
                                   tolerances={"transversality": 1e-30})
        assert not rep.passed
        failing = [c for c in rep.checks if not c.passed]
        assert failing[0].name == "transversality"

    def test_constraint_projector_identity_matches_reference(self, helicity_state):
        # reference: the gamma matrices entry by entry from the Levi-Civita
        # symbol, sigma_a on both off-diagonal blocks
        gamma = np.zeros((3, 6, 6), dtype=np.complex128)
        for a, i, j in np.ndindex(3, 3, 3):
            gamma[a, i, 3 + j] = gamma[a, 3 + i, j] = -1j * algebra.LEVI_CIVITA[i, j, a]
        rng = np.random.default_rng(suites.DEFAULT_SEED)
        worst = 0.0
        for k in suites._random_wavevectors(rng, suites.N_RANDOM_WAVEVECTORS):
            gk = np.einsum("a,aij->ij", k, gamma)
            k2 = float(k @ k)
            residual = (gk @ gk - k2 * np.eye(6)) @ algebra.transverse_projector(k)
            worst = max(worst, float(np.abs(residual).max()) / k2)

        (rep,) = suites.run_suites(["constraint"], helicity_state)
        assert {c.name: c.value for c in rep.checks}["rqc_projector_identity"] == worst

    def test_full_run_on_state(self, two_direction_state):
        names = ["constraint", "spin-equalities", "probability", "densities"]
        reports = suites.run_suites(names, two_direction_state)
        assert [r.suite for r in reports] == names
        assert all(r.passed for r in reports)

    def test_informational_checks_never_fail(self, two_direction_state):
        (rep,) = suites.run_suites(["densities"], two_direction_state)
        gaps = [c for c in rep.checks if c.tolerance is None]
        assert gaps and all(c.passed for c in gaps)


def test_every_tolerance_key_governs_a_pinned_row():
    # the README n=32 pins: each checked row holds its key's default
    governing = set()
    for _, name, _, tolerance, _ in json.loads(golden_path("readme_n32").read_text())["check"]:
        if tolerance is not None:
            key = suites.ROWS[name].key
            assert tolerance == suites.DEFAULT_TOLERANCES[key], name
            governing.add(key)
    assert governing == set(suites.DEFAULT_TOLERANCES)


def test_rows_keys_are_the_tolerance_keys():
    keys = {row.key for row in suites.ROWS.values()} - {None}
    assert keys == set(suites.DEFAULT_TOLERANCES)


def test_rows_declare_kinds_and_preconditions_of_their_suite():
    for name, row in suites.ROWS.items():
        assert row.suite in suites.SUITE_NAMES, name
        assert row.kind in ("state", "code", "self-test", "info"), name
        assert (row.kind == "info") == (row.key is None), name
        assert all(suites.ROWS[p].suite == row.suite for p in row.preconditions), name


def _declared(suite):
    return [name for name, row in suites.ROWS.items() if row.suite == suite]


def test_every_declared_row_comes_back_from_its_suite_in_order():
    reports = suites.run_suites(suites.SUITE_NAMES, synthesize(README_MODES, KGrid(32, 1.0)))
    assert [(r.suite, c.name) for r in reports for c in r.checks] == [
        (row.suite, name) for name, row in suites.ROWS.items()]


@pytest.mark.parametrize("returned", [
    pytest.param(["oam_formula_gap", "oam_boundary_ratio", "oam_position_shell", "oam_z"],
                 id="undeclared"),
    pytest.param(["oam_formula_gap", "oam_boundary_ratio", "oam_position_shell", "spin_drift"],
                 id="another_suites_row"),
    pytest.param(["oam_boundary_ratio", "oam_formula_gap", "oam_position_shell"], id="reordered"),
    pytest.param(["oam_formula_gap", "oam_boundary_ratio"], id="one_missing"),
])
def test_run_suites_raises_on_rows_other_than_declared(g16, monkeypatch, returned):
    state = synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 4), sigma_k=0.8, helicity=1)], g16)
    monkeypatch.setattr(suites, "suite_oam", lambda state, times: [(name, 0.5) for name in returned])
    with pytest.raises(RuntimeError, match="suite oam returned"):
        suites.run_suites(["oam"], state)


def test_a_fail_names_its_precondition_rows_and_a_pass_does_not(g16, monkeypatch):
    state = synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 4), sigma_k=0.8, helicity=1)], g16)
    named = "gap; preconditions: oam_boundary_ratio=2.5e-09, oam_position_shell=0.123"
    for gap, info in ((0.01, "gap"), (0.5, named)):
        monkeypatch.setattr(suites, "suite_oam", lambda state, times, _gap=gap: [
            ("oam_formula_gap", _gap, "gap"), ("oam_boundary_ratio", 2.5e-9),
            ("oam_position_shell", 0.123456)])
        (report,) = suites.run_suites(["oam"], state)
        assert [c.info for c in report.checks] == [info, "", ""]


def test_suite_functions_are_the_suite_names():
    # run_suites finds each suite by its built name suite_<name>
    defined = sorted(name for name in vars(suites) if name.startswith("suite_"))
    assert defined == sorted(f"suite_{name.replace('-', '_')}" for name in suites.SUITE_NAMES)


def test_run_suites_runs_the_module_bindings(g16, monkeypatch):
    # the per-suite timings of the benchmark tracer wrap these bindings
    state = synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 4), sigma_k=0.8, helicity=1)], g16)
    returned = []
    for name in suites.SUITE_NAMES:
        real = getattr(suites, f"suite_{name.replace('-', '_')}")

        def recorded(*args, _real=real):
            rows = _real(*args)
            returned.append(rows)
            return rows

        monkeypatch.setattr(suites, real.__name__, recorded)
    suites.run_suites(suites.SUITE_NAMES, state)
    assert len(returned) == len(suites.SUITE_NAMES)
    assert all(isinstance(rows, list) for rows in returned)

    for name in suites.SUITE_NAMES:
        monkeypatch.setattr(suites, f"suite_{name.replace('-', '_')}",
                            lambda state, times, _name=name: [(row, 0.5) for row in _declared(_name)])
    reports = suites.run_suites(suites.SUITE_NAMES, state)
    assert [[(c.name, c.value) for c in r.checks] for r in reports] == [
        [(row, 0.5) for row in _declared(name)] for name in suites.SUITE_NAMES]


@pytest.mark.parametrize("order", ["in_order", "reversed"])
def test_run_suites_runs_each_suite_once_memo_group_first(g16, monkeypatch, order):
    # the request orders only the report: a request with a duplicate runs each
    # suite once, the memo group and then the own-transforms group, each in
    # its declared order, and reports the duplicate twice
    state = synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 4), sigma_k=0.8, helicity=1)], g16)
    ran = []
    for name in suites.SUITE_NAMES:
        def recorded(state, times, _name=name):
            ran.append(_name)
            return [(row, 0.5) for row in _declared(_name)]

        monkeypatch.setattr(suites, f"suite_{name.replace('-', '_')}", recorded)
    requested = list(suites.SUITE_NAMES if order == "in_order" else suites.SUITE_NAMES[::-1])
    names = ["oam", *requested]
    reports = suites.run_suites(names, state)
    assert ran == list(suites.MEMO_SUITES + suites.OWN_TRANSFORM_SUITES)
    assert ran[0] == "oam"  # its routes never sit beside the spin routes' temporaries
    assert [r.suite for r in reports] == names
    assert [[c.name for c in r.checks] for r in reports] == [_declared(name) for name in names]


def test_info_vectors_print_each_component_on_its_own(g16, monkeypatch):
    # the same vector with exact zeros and with round-off in their place:
    # the round-off changes the text of its own components and no other's
    exact, noisy = np.array([0.0, 0.0, 0.2378796]), np.array([-1.68e-18, -1.68e-18, 0.2378796])
    monkeypatch.setattr(observables, "oam_momentum", lambda st: exact)
    monkeypatch.setattr(observables, "oam_position", lambda st: noisy)
    monkeypatch.setattr(observables, "spin_routes",
                        lambda st: {"canonical": (exact, 0.0), "projected": (noisy, 0.0)})
    state = synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 4), sigma_k=0.8, helicity=1)], g16)
    (_, _, oam_info), *_ = suites.suite_oam(state, suites.DEFAULT_TIMES)
    (_, _, spin_info), _ = suites.suite_spin_equalities(state, suites.DEFAULT_TIMES)
    assert oam_info == "momentum=[0 0 0.23788] position=[-1.68e-18 -1.68e-18 0.23788]"
    assert spin_info == "canonical=[0 0 0.23788]; projected=[-1.68e-18 -1.68e-18 0.23788]"


_FIELDBRIDGE_FIRST = """
import sys

from darwinlab import suites
from darwinlab.kgrid import KGrid
from darwinlab.state import ModeSpec, synthesize

state = synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 4), sigma_k=0.8, helicity=1)],
                   KGrid(16, 1.0))
loaded = []
real = suites.suite_fieldbridge


def recorded(state, times):
    loaded.append("numpy.random" in sys.modules)
    return real(state, times)


suites.suite_fieldbridge = recorded
suites.run_suites(suites.OWN_TRANSFORM_SUITES, state)
print(loaded, "numpy.random" in sys.modules)
"""


def test_fieldbridge_runs_before_numpy_random_loads():
    # the reason for the order: algebra and constraint draw from numpy.random,
    # whose module pages would sit under fieldbridge's peak working set in the
    # worker of `dpl check`; a fresh interpreter, as this one has loaded it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(suites.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _FIELDBRIDGE_FIRST], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[False] True"


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


# FFT calls and transformed components, pinned exactly, of a full check,
# `dpl observe` and `dpl evolve` (with its certificate) on the two-mode n=32
# state; the check's calls split between its two groups, memo then own
# transforms, and six of observe's calls are the worker's one pass over the
# position spin densities.  tests/test_readme.py holds the README to them.
FFT_PINS = {"check": (24, 79), "observe": (10, 33), "evolve": (2, 12)}
CHECK_GROUP_CALLS = (12, 12)
OBSERVE_WORKER_PINS = (6, 18)


@pytest.fixture()
def transforms(monkeypatch):
    """The component count of each FFT call made in this process."""
    calls = []
    for name in ("fftn", "ifftn"):
        original = getattr(np.fft, name)

        def counted(values, *args, _original=original, **kwargs):
            calls.append(len(values))
            return _original(values, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


class TestPerStateEvaluation:
    def test_full_check_fft_budget(self, transforms):
        reports = suites.run_suites(suites.SUITE_NAMES, _two_mode_state())
        assert all(r.passed for r in reports)
        assert len(transforms) == FFT_PINS["check"][0]

    @pytest.mark.parametrize("path, budget", [("spin_routes", 1 + OBSERVE_WORKER_PINS[0]),
                                              ("evolve", FFT_PINS["evolve"][0])])
    def test_observe_and_evolve_fft_budgets(self, transforms, path, budget):
        # counted as for the full check: the check-path spin routes make one
        # six-component transform and six for the nonlocal density, and no
        # OAM route (`dpl observe`'s ten: test_observe_split.py); evolve
        # makes none, its certificate one per block for its stencil beside
        # its curl, and no divergence
        state = _two_mode_state()
        if path == "spin_routes":
            observables.spin_routes(state)
        else:
            _, dirac, maxwell = _evolve_certified(state)
            assert dirac < 1e-12 and maxwell < 1e-6
        assert len(transforms) == budget

    @pytest.mark.parametrize("run, pin", [
        (lambda state: suites.run_suites(suites.SUITE_NAMES, state), FFT_PINS["check"]),
        (_observe_on(1), FFT_PINS["observe"]),
        (_evolve_certified, FFT_PINS["evolve"]),
    ], ids=["check", "observe", "evolve"])
    def test_transformed_components(self, transforms, run, pin):
        # pairing transforms into fewer calls must not hide added work: the
        # components transformed, summed over the calls, are pinned
        run(_two_mode_state())
        assert (len(transforms), sum(transforms)) == pin

    def test_check_groups_and_observe_worker_share_the_calls(self, transforms):
        # what each process of a split check and of a split observe transforms
        calls = []
        for group in (suites.MEMO_SUITES, suites.OWN_TRANSFORM_SUITES):
            transforms.clear()
            suites.run_suites(group, _two_mode_state())
            calls.append(len(transforms))
        assert tuple(calls) == CHECK_GROUP_CALLS
        state = _two_mode_state()
        observables.psi_position(state)  # made before the fork; the worker inherits it
        transforms.clear()
        observables.position_spin(state)
        assert (len(transforms), sum(transforms)) == OBSERVE_WORKER_PINS

    @pytest.mark.parametrize("component, calls", [("x", 3), ("y", 5), ("z", 7)])
    def test_densities_transforms_up_to_its_component(self, transforms, tmp_path, component, calls):
        # `dpl densities` makes the payload's transform and the kernel rows
        # up to its component's, two transforms a row, and stops there
        path = tmp_path / "state.dpst"
        write_state(path, _two_mode_state())
        transforms.clear()
        assert cli.main(["densities", str(path), "--out", str(tmp_path / "slices"),
                         "--component", component]) == 0
        assert len(transforms) == calls

    def test_finiteness_scanned_once_per_made_state(self, monkeypatch):
        # a payload is scanned when its state is made, here the two evolved
        # conservation samples (t = 1, 10), and the field-bridge round trip,
        # which makes no state, is scanned one block at a time as each block
        # is compared (two scans); no other field computed from a state is
        # scanned
        state = synthesize(README_MODES, KGrid(32, 1.0))
        scans = []
        original = np.isfinite

        def counted(x, *args, **kwargs):
            if np.size(x) >= state.grid.n**3:
                scans.append(1)
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        reports = suites.run_suites(suites.SUITE_NAMES, state)
        assert all(r.passed for r in reports)
        assert len(scans) == 4

    def test_block_cross_densities_once_per_state(self, monkeypatch):
        # the checked state's two momentum- and two position-block densities,
        # and the two momentum-block densities of each of the other two
        # sampled times (t = 1, 10); nothing is computed twice
        calls = []
        original = observables._cross_density

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(observables, "_cross_density", counted)
        reports = suites.run_suites(suites.SUITE_NAMES, _two_mode_state())
        assert all(r.passed for r in reports)
        assert len(calls) == 8

    @pytest.mark.parametrize("names", [
        *(list(names) for size in range(1, len(suites.MEMO_SUITES) + 1)
          for names in itertools.combinations(suites.MEMO_SUITES, size)),
        list(suites.SUITE_NAMES)])
    def test_position_transform_once_and_dropped_after_use(self, g16, monkeypatch, names):
        # every request of memo suites, and all ten: the release step of
        # run_suites memoizes the probability that conservation's sample at
        # the state's own time reads before it drops the position arrays, so
        # no suite transforms the payload again and none is left behind
        state = synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 4), sigma_k=0.8, helicity=1)], g16)
        calls = []
        original = observables.to_position

        def counted(field, **kwargs):
            calls.append(field.values is state.psi)
            return original(field, **kwargs)

        monkeypatch.setattr(observables, "to_position", counted)
        suites.run_suites(names, state)
        assert calls.count(True) == 1
        memo = vars(state).get("_observables_memo", {})
        assert "psi_position" not in memo
        observables.psi_position(state)  # released: a later use transforms again
        assert calls.count(True) == 2

    def test_conservation_samples_read_momentum_before_position(self, monkeypatch):
        # each sample reads its norm and its momentum routes before its
        # position transform is made, and releases the transform before the
        # next sample begins; the sample at the state's own time included
        events = []  # (kind, payload): holding each payload keeps its id unique

        def recorded(kind, module, name, payload):
            original = getattr(module, name)

            def wrapper(arg, *args, **kwargs):
                events.append((kind, payload(arg)))
                return original(arg, *args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        recorded("norm", kgrid, "norm_squared", lambda values: values)
        for name in ("oam_momentum", "spin_canonical"):
            recorded("momentum", observables, name, lambda st: st.psi)
        recorded("position", observables, "psi_position", lambda st: st.psi)
        recorded("drop", observables, "drop_position", lambda st: st.psi)
        # called directly: run_suites memoizes the state's own probability
        # before conservation runs, so its first sample would make no transform
        state = _two_mode_state()
        suites.suite_conservation(state, suites.DEFAULT_TIMES)

        samples = []
        for kind, payload in events:
            if not samples or samples[-1][0] is not payload:
                assert all(p is not payload for p, _ in samples), "samples interleave"
                samples.append((payload, []))
            samples[-1][1].append(kind)
        assert len(samples) == len(suites.DEFAULT_TIMES)
        assert samples[0][0] is state.psi
        for _, kinds in samples:
            first = kinds.index("position")
            assert {"norm", "momentum"} <= set(kinds[:first])
            assert set(kinds[first:-1]) == {"position"} and kinds[-1] == "drop"

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
            observables.position_spin(fresh())[0]["kernel_integral"][0],
        ]
        l_mom = observables.oam_momentum(fresh())
        l_pos = observables.oam_position(fresh())
        probs = observables.probability(fresh())
        _, spin_spread, gap_upper, gap_kernel = observables.position_spin(fresh())
        mr = dynamics.maxwell_residual(fresh())

        # each conservation route at each default time, on its own evolved fresh state
        def drift(route):
            values = [route(dynamics.evolve(fresh(), t)) for t in (0.0, 1.0, 10.0)]
            return max(float(np.max(np.abs(v - values[0]))) for v in values)

        def total(st):
            return observables.oam_momentum(st) + observables.spin_canonical(st)

        expected = {
            ("constraint", "transversality"): transversality_residual(fresh().psi, fresh().grid),
            ("spin-equalities", "spin_equalities"):
                max(float(np.abs(a - b).max()) for a in spins for b in spins),
            ("oam", "oam_formula_gap"):
                float(np.abs(l_mom - l_pos).max()) / max(1.0, float(np.abs(l_mom).max())),
            ("oam", "oam_boundary_ratio"): observables.oam_boundary_ratio(fresh()),
            ("probability", "probability_equality"):
                max(abs(a - b) for a in probs for b in probs),
            ("densities", "density_integral_spread"):
                max(spin_spread, max(abs(a - b) for a in probs for b in probs)),
            ("densities", "kernel_density_integral"):
                float(np.abs(spins[-1] - observables.spin_projected(fresh())).max()),
            ("densities", "spin_density_gap_upper"): gap_upper,
            ("densities", "spin_density_gap_kernel"): gap_kernel,
            ("densities", "prob_density_gap_upper"): observables.probability_gap(fresh()),
            ("maxwell", "dirac_residual"): dynamics.dirac_residual(fresh()),
            ("maxwell", "maxwell_residual"): mr.curl_residual,
            ("maxwell", "maxwell_divergence"): mr.divergence_residual,
            ("conservation", "probability_drift"): drift(lambda st: observables.probability(st)[0]),
            ("conservation", "norm_drift"): drift(lambda st: st.norm),
            ("conservation", "spin_drift"): drift(observables.spin_canonical),
            ("conservation", "oam_drift"): drift(observables.oam_momentum),
            ("conservation", "total_angular_momentum_drift"): drift(total),
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
