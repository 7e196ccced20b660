"""Self-tests of the trace wrapper and the output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import contextlib
import importlib
import io
import json

import numpy as np
import pytest

import layertrace
import verify
import workloads
from layertrace import END, EXCLUDED, START, Tracer


def _dpl(args):
    from darwinlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(args)
    return rc, out.getvalue()


def test_every_public_binding_is_wrapped_and_restored():
    mods = {name: importlib.import_module(f"darwinlab.{name}") for name in layertrace.LAYERS}
    before = {(name, attr): obj for name, m in mods.items() for attr, obj in vars(m).items()}
    with Tracer():
        for name, m in mods.items():
            for attr, obj in vars(m).items():
                original = before[(name, attr)]
                if (callable(original) and not attr.startswith("_")
                        and getattr(original, "__module__", "").startswith("darwinlab.")
                        and not isinstance(original, type)):
                    assert obj is not original and obj.__wrapped__ is original, f"{name}.{attr}"
        # the re-exported bindings that a kgrid-only patch would miss
        from darwinlab import dynamics, fieldbridge, kgrid, observables, suites
        for binding in (observables.to_position, dynamics.to_position, fieldbridge.to_momentum,
                        observables.k_gradient, dynamics.spectral_curl, suites.branch_residual):
            assert hasattr(binding, "__wrapped__")
        assert observables.to_position is kgrid.to_position
    after = {(name, attr): obj for name, m in mods.items() for attr, obj in vars(m).items()}
    assert after == before


def _span(layer, func, parent, start, end, excluded=0.0, attrs=None):
    return [layer, func, parent, start, end, excluded, 0.0, 0, attrs]


def test_self_time_subtracts_children_and_tracer_work():
    spans = [
        _span("suites", "suite_oam", -1, 0.0, 10.0, excluded=1.0),
        _span("observables", "oam_momentum", 0, 1.0, 5.0),
        _span("kgrid", "to_position", 1, 2.0, 3.0, attrs={"components": 6, "n": 8, "repeat": 0}),
        _span("kgrid", "to_position", 0, 6.0, 7.0, attrs={"components": 3, "n": 8, "repeat": 1}),
    ]
    wrapped = ["suites.suite_oam", "kgrid.to_position", "kgrid.to_momentum"]
    m = layertrace.aggregate([{"wrapped": wrapped, "spans": spans}])
    assert m["suites.oam_s"] == pytest.approx(9.0)
    assert m["suites.self_s"] == pytest.approx(9.0 - 4.0 - 1.0)
    assert m["observables.self_s"] == pytest.approx(3.0)
    assert m["kgrid.fft_calls"] == 2 and m["kgrid.fft_components"] == 9
    assert m["kgrid.fft_bytes_computed"] == 2 * 8**3 * 9 * 16
    assert m["kgrid.fft_repeat_ratio"] == pytest.approx(0.5)


def test_missing_function_is_absent_and_uncalled_function_reads_zero():
    m = layertrace.aggregate([{"wrapped": ["stateio.read_state"], "spans": []}])
    assert m["stateio.read_calls"] == 0
    assert "kgrid.k_gradient_s" not in m and "suites.oam_s" not in m


def _independent_fft_count(monkeypatch):
    counts = {"fftn": 0, "ifftn": 0}
    for name in counts:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_fft_count_and_traced_check_equals_untraced(name, tmp_path, monkeypatch):
    """One `dpl check` of each workload's input state: the wrapper's FFT count
    equals a count of numpy's fftn/ifftn calls, and tracing changes no
    reported value.  evolve-n64 checks its time-0 state: on its evolved
    files oam_formula_gap exceeds its bound (0.22 at t = 3.2 for seed 0), as
    the packet has moved across the 2 pi / dk position box."""
    wl = workloads.WORKLOADS[name](seed=0, work=str(tmp_path))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(wl.config))
    state = str(tmp_path / "state.dpst")
    assert _dpl(["build", "--config", str(config), "--out", state])[0] == 0

    rc_plain, plain = _dpl(["check", state])
    counts = _independent_fft_count(monkeypatch)
    with Tracer() as tracer:
        rc_traced, traced = _dpl(["check", state])
    metrics = layertrace.aggregate([{"wrapped": sorted(tracer.wrapped), "spans": tracer.spans}])

    assert rc_plain == rc_traced == 0
    assert traced == plain
    assert json.loads(traced)["passed"] is True
    assert counts["fftn"] + counts["ifftn"] > 0
    assert metrics["kgrid.fft_calls"] == counts["fftn"] + counts["ifftn"], counts
    assert all(s[END] - s[START] - s[EXCLUDED] >= 0 for s in tracer.spans)


PROGRAM = {"tolerances": {"spin_equalities": 1e-10, "probability_equality": 1e-10,
                          "norm_drift": 1e-13, "maxwell_residual": 1e-6, "transversality": 1e-12},
           "suites": ["algebra", "oam"]}


def _observe_csv(spin_offset=0.0, prob=(1.0, 1.0, 1.0)):
    rows = ["name,x,y,z"]
    rows += [f"spin_{i},0.1,0.2,{0.3 + (spin_offset if i == 6 else 0.0)}" for i in range(7)]
    rows.append("probability,{},{},{}".format(*prob))
    return "\n".join(rows) + "\n"


def test_verify_flags_wrong_outputs(tmp_path):
    observe = workloads.Op("observe", ("s.dpst",))
    assert verify.verify(observe, 0, _observe_csv(), PROGRAM) is None
    assert "spin rows" in verify.verify(observe, 0, _observe_csv(spin_offset=1e-8), PROGRAM)
    assert "probability" in verify.verify(observe, 0, _observe_csv(prob=(1.0, 1.0, 1.001)), PROGRAM)
    assert "exit code" in verify.verify(observe, 3, _observe_csv(), PROGRAM)

    check = workloads.Op("check", ("s.dpst",))
    report = {"passed": True, "suites": [{"suite": "algebra", "checks": []}]}
    assert "suites" in verify.verify(check, 0, json.dumps(report), PROGRAM)
    report["suites"].append({"suite": "oam", "checks": []})
    assert verify.verify(check, 0, json.dumps(report), PROGRAM) is None

    slices = tmp_path / "slices"
    slices.mkdir()
    for i in range(7):
        (slices / f"f{i}.csv").write_text("h\n" + "r\n" * 16)
    dens = workloads.Op("densities", (), {"dir": str(slices), "n": 4})
    assert verify.verify(dens, 0, "", PROGRAM) is None
    (slices / "f0.csv").write_text("h\n")
    assert "lines" in verify.verify(dens, 0, "", PROGRAM)


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    for cls in workloads.WORKLOADS.values():
        a, b, c = cls(7, str(tmp_path)), cls(7, str(tmp_path)), cls(8, str(tmp_path))
        assert a.config == b.config != c.config
        assert a.iteration(3) == b.iteration(3)
