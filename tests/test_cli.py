import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darwinlab import dynamics
from darwinlab.cli import ConfigError, main, parse_config
from darwinlab.kgrid import momentum_field
from darwinlab.state import ModeSpec, PhotonState, synthesize
from darwinlab.stateio import read_state, write_state
from darwinlab.suites import DEFAULT_TIMES, SUITE_NAMES
from make_golden import README_N32
from test_state import longitudinal_state
from test_stateio import OLD_HEADER_CLAIMS, rewrite_header, rewrite_payload

BASE_CONFIG = {
    "grid": {"n": 16, "dk": 1.0},
    "modes": [
        {"kind": "gaussian", "k0": [0, 0, 4], "sigma_k": 1.0, "helicity": 1},
        {"kind": "gaussian", "k0": [4, 0, 0], "sigma_k": 1.0, "helicity": -1},
    ],
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return path


@pytest.fixture()
def built_state(tmp_path, config_path):
    out = tmp_path / "state.dpst"
    assert main(["build", "--config", str(config_path), "--out", str(out)]) == 0
    return out


class TestBuild:
    def test_creates_normalized_state(self, built_state):
        state, header = read_state(built_state)
        assert state.norm == pytest.approx(1.0, abs=1e-12)
        assert state.rqc_residual < 1e-12
        assert header["metadata"]["modes"] == BASE_CONFIG["modes"]

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["build", "--config", str(bad), "--out", str(tmp_path / "x.dpst")])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_unknown_key_reports_path(self, tmp_path, capsys):
        cfg = dict(BASE_CONFIG)
        cfg["modes"] = [dict(BASE_CONFIG["modes"][0], wavelength=3)]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["build", "--config", str(path), "--out", str(tmp_path / "x.dpst")])
        assert code == 2
        assert "$.modes[0]" in capsys.readouterr().err
        # `output` was once a key; nothing read it
        path.write_text(json.dumps(dict(BASE_CONFIG, output="out")))
        code = main(["build", "--config", str(path), "--out", str(tmp_path / "x.dpst")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: $: unknown key(s) ['output']")

    def test_empty_synthesis_rejected(self, tmp_path, capsys):
        cfg = {
            "grid": {"n": 16, "dk": 1.0},
            "modes": [{"kind": "gaussian", "k0": [0, 0, 900], "sigma_k": 1.0, "helicity": 1}],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["build", "--config", str(path), "--out", str(tmp_path / "x.dpst")])
        assert code == 2

    @pytest.mark.parametrize("change, path", [
        pytest.param({"times": ["abc"]}, "$.times[0]", id="times_abc"),
        pytest.param({"modes": [dict(BASE_CONFIG["modes"][0], k0=["a", 0, 4])]},
                     "$.modes[0].k0[0]", id="k0_string"),
        pytest.param({"modes": [dict(BASE_CONFIG["modes"][0], k0=5)]}, "$.modes[0].k0",
                     id="k0_scalar"),
        pytest.param({"tolerances": {"oam_formula_gap": "x"}}, "$.tolerances.oam_formula_gap",
                     id="tolerance_string"),
        pytest.param({"modes": [dict(BASE_CONFIG["modes"][0], kind="vortex", vortex_charge="2")]},
                     "$.modes[0].vortex_charge", id="vortex_charge_string"),
        # each grid case once built a state, the first at n=16
        pytest.param({"grid": {"n": 16.9, "dk": 1.0}}, "$.grid.n", id="grid_n_fraction"),
        pytest.param({"grid": {"n": "16", "dk": 1.0}}, "$.grid.n", id="grid_n_string"),
        pytest.param({"grid": {"n": True, "dk": 1.0}}, "$.grid.n", id="grid_n_boolean"),
        pytest.param({"grid": {"n": 16, "dk": "1.0"}}, "$.grid.dk", id="grid_dk_string"),
        pytest.param({"grid": {"n": 16, "dk": True}}, "$.grid.dk", id="grid_dk_boolean"),
        # a spacing whose bin volume dx^3 or dk^3, or box volume n^3 dk^3,
        # leaves floating-point range
        pytest.param({"grid": {"n": 16, "dk": 1e-200}}, "$.grid", id="grid_dk_tiny"),
        pytest.param({"grid": {"n": 16, "dk": 1e103}}, "$.grid", id="grid_dk_huge"),
        pytest.param({"grid": {"n": 16, "dk": 1e102}}, "$.grid", id="grid_dk_large"),
    ])
    def test_value_that_is_not_a_number_exits_2(self, tmp_path, capsys, change, path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(dict(BASE_CONFIG, **change)))
        code = main(["build", "--config", str(config), "--out", str(tmp_path / "x.dpst")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {path}:") and err.count("\n") == 1
        assert not (tmp_path / "x.dpst").exists()

    def test_roundtrip_read_back(self, built_state, tmp_path, config_path):
        from darwinlab.cli import parse_config
        from darwinlab.state import synthesize

        grid, modes, *_ = parse_config(json.loads(config_path.read_text()))
        direct = synthesize(modes, grid)
        loaded, _ = read_state(built_state)
        assert np.array_equal(loaded.psi.values, direct.psi.values)


class TestCheck:
    def test_all_default_suites_pass(self, built_state, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["check", str(built_state), "--suites",
                     "constraint,spin-equalities,probability,densities,maxwell,conservation,fieldbridge",
                     "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        names = {s["suite"] for s in report["suites"]}
        assert "spin-equalities" in names

    def test_config_supplies_suite_defaults(self, built_state, tmp_path, capsys):
        cfg = dict(BASE_CONFIG, checks=["probability"], times=[0.0, 0.5])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["check", str(built_state), "--config", str(path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [s["suite"] for s in report["suites"]] == ["probability"]

    @pytest.mark.parametrize("times", [None, []], ids=["absent", "empty"])
    def test_config_without_times_uses_default_times(self, built_state, tmp_path, capsys, times):
        cfg = dict(BASE_CONFIG, checks=["conservation"])
        if times is not None:
            cfg["times"] = times
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["check", str(built_state), "--config", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suites"][0]["checks"][0]["info"] == f"times={list(DEFAULT_TIMES)}"

    def test_unknown_suite_lists_available(self, built_state, tmp_path, capsys):
        # a config error naming where the names came from: the flag, or the config
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, checks=["algebra", "spectral"])))
        for argv, where in [(["--suites", "spectral"], "--suites"), (["--config", str(path)], "$.checks")]:
            code = main(["check", str(built_state), *argv])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"config error: {where}: unknown suite(s) ['spectral']; "
                                    f"available: {', '.join(SUITE_NAMES)}\n")

    @pytest.mark.parametrize("value", [",", " , "])
    def test_suites_naming_no_suite_exits_2(self, built_state, capsys, value):
        code = main(["check", str(built_state), "--suites", value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "available" in captured.err

    @pytest.mark.parametrize("grid", [None, {"n": 16, "dk": 1, "note": "hand-edited"}])
    def test_grid_is_reported_from_the_state(self, built_state, capsys, grid):
        # a written header gives its own record back; an edited one gives the
        # grid the state was read on, without the integer dk or the extra key
        if grid is not None:
            rewrite_header(built_state, grid=grid)
        capsys.readouterr()
        main(["check", str(built_state), "--suites", "constraint"])
        report = json.loads(capsys.readouterr().out)
        assert json.dumps(report["grid"]) == '{"n": 16, "dk": 1.0}'
        if grid is None:
            assert report["grid"] == read_state(built_state)[1]["grid"]

    def test_corrupted_file_exits_3(self, built_state, capsys):
        raw = bytearray(built_state.read_bytes())
        raw[-1] ^= 0x55
        built_state.write_bytes(bytes(raw))
        code = main(["check", str(built_state)])
        assert code == 3

    def test_longitudinal_file_fails_with_a_full_report(self, built_state, capsys):
        # its classical data is not solenoidal, which the field bridge rejects;
        # that is a failed row, not a config error and not a lost report
        state, _ = read_state(built_state)
        write_state(built_state, longitudinal_state(state, 0.3))
        capsys.readouterr()
        code = main(["check", str(built_state)])
        out = capsys.readouterr().out
        assert code == 1
        report = json.loads(out)
        assert [s["suite"] for s in report["suites"]] == list(SUITE_NAMES)
        bridge = next(s for s in report["suites"] if s["suite"] == "fieldbridge")
        row = next(c for c in bridge["checks"] if c["name"] == "classical_roundtrip")
        assert not row["passed"] and row["value"] is None
        assert "not solenoidal" in row["info"]

    def test_tolerance_override_can_fail(self, built_state, capsys):
        code = main(["check", str(built_state), "--suites", "maxwell",
                     "--tolerance", "maxwell_residual=1e-30"])
        assert code == 1

    @pytest.mark.parametrize("source", ["config", "flag"])
    @pytest.mark.parametrize("key, code", [("spin_equalities", 1), ("spin_equalites", 2)])
    def test_tolerance_key_is_checked(self, built_state, tmp_path, capsys, source, key, code):
        # a misspelled key would otherwise loosen nothing and pass silently
        args = ["check", str(built_state), "--suites", "spin-equalities"]
        if source == "config":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(dict(BASE_CONFIG, tolerances={key: 1e-30})))
            args += ["--config", str(path)]
        else:
            args += ["--tolerance", f"{key}=1e-30"]
        assert main(args) == code
        err = capsys.readouterr().err
        if code == 2:
            where = f"$.tolerances.{key}" if source == "config" else f"--tolerance {key}"
            assert err.startswith(f"config error: {where}:") and err.count("\n") == 1


class TestObserve:
    def test_csv_shape_and_precision(self, built_state, capsys):
        assert main(["observe", str(built_state)]) == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
        assert rows[0] == ["name", "x", "y", "z"]
        table = {r[0]: r[1:] for r in rows[1:]}
        sz = float(table["spin_canonical"][2])
        assert abs(sz - 0.5) < 0.05
        # default precision: six significant digits
        assert len(table["spin_canonical"][2].replace("-", "").replace(".", "").lstrip("0")) <= 6

    def test_precision_flag(self, built_state, tmp_path):
        out = tmp_path / "obs.csv"
        assert main(["observe", str(built_state), "--out", str(out), "--precision", "12"]) == 0
        rows = list(csv.reader(out.read_text().strip().splitlines()))
        table = {r[0]: r[1:] for r in rows[1:]}
        digits = table["spin_canonical"][2].replace("-", "").replace(".", "").lstrip("0")
        assert 7 <= len(digits) <= 12

    def test_formula_rows_agree(self, built_state, capsys):
        assert main(["observe", str(built_state)]) == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
        table = {r[0]: r[1:] for r in rows[1:]}
        a = np.array([float(v) for v in table["spin_canonical"]])
        b = np.array([float(v) for v in table["spin_kernel_integral"]])
        assert np.abs(a - b).max() < 1e-5  # printed at 6 significant digits


class TestDensities:
    def test_slices_written(self, built_state, tmp_path):
        out = tmp_path / "slices"
        assert main(["densities", str(built_state), "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert any(f.startswith("prob_psi") for f in files)
        assert any(f.startswith("spin_kernel_z") for f in files)
        assert len(files) == 7

    def test_slice_sums_match_full_integral(self, built_state, tmp_path):
        # summing one slice per offset reproduces the 3D integral
        state, _ = read_state(built_state)
        g = state.grid
        total = 0.0
        for idx in range(g.n):
            out = tmp_path / f"s{idx}"
            offset = g.x1d[idx]
            assert main(["densities", str(built_state), "--out", str(out),
                         "--axis", "z", "--offset", str(offset),
                         "--precision", "12"]) == 0
            rows = list(csv.reader((out / f"prob_psi_z{idx}.csv").read_text().splitlines()))
            total += sum(float(r[2]) for r in rows[1:]) * g.dx**3
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_candidate_slices_differ(self, built_state, tmp_path):
        # the exported interference patterns differ between candidates
        out = tmp_path / "fringes"
        assert main(["densities", str(built_state), "--out", str(out),
                     "--precision", "12"]) == 0

        def load(name):
            rows = list(csv.reader((out / f"{name}_z0.csv").read_text().splitlines()))
            return np.array([float(r[2]) for r in rows[1:]])

        psi = load("prob_psi")
        upper = load("prob_upper")
        assert np.abs(psi - upper).max() > 0.05 * np.abs(psi).max()

    def test_plane_outside_box_rejected(self, built_state, tmp_path, capsys):
        code = main(["densities", str(built_state), "--out", str(tmp_path / "s"),
                     "--offset", "1e6"])
        assert code == 2

    def test_zero_state_warns(self, tmp_path, capsys, g16):
        from darwinlab.kgrid import momentum_field
        from darwinlab.state import PhotonState

        zero = PhotonState(momentum_field(np.zeros((6,) + g16.shape, dtype=complex), g16))
        path = tmp_path / "zero.dpst"
        write_state(path, zero)
        out = tmp_path / "slices"
        assert main(["densities", str(path), "--out", str(out)]) == 0
        assert "zero norm" in capsys.readouterr().err


class TestHeaderTrust:
    def test_transversality_is_computed_from_the_payload(self, built_state, tmp_path, capsys):
        state, _ = read_state(built_state)
        path = tmp_path / "longitudinal.dpst"
        write_state(path, longitudinal_state(state, 0.3))
        rewrite_header(path, rqc_residual=0)
        capsys.readouterr()
        code = main(["check", str(path), "--suites", "constraint"])
        report = json.loads(capsys.readouterr().out)
        row = next(c for c in report["suites"][0]["checks"] if c["name"] == "transversality")
        assert code == 1
        assert not row["passed"] and row["value"] > 0.1

    def test_claimed_norm_does_not_reach_evolve(self, built_state, tmp_path, capsys):
        rewrite_header(built_state, **OLD_HEADER_CLAIMS)
        capsys.readouterr()
        assert main(["evolve", str(built_state), "2.5", "--out", str(tmp_path / "t.dpst")]) == 0
        drift = float(capsys.readouterr().out.split("norm_drift=")[1].split()[0])
        assert drift < 1e-13


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
CONFIG_PATHS = [(), ("grid",), ("grid", "n"), ("grid", "dk"), ("modes",), ("checks",),
                ("times",), ("tolerances",), ("tolerances", "oam_formula_gap"),
                *(("modes", 0, key) for key in ("kind", "k0", "sigma_k", "helicity", "polarization",
                                               "vortex_charge", "ring_radius", "amplitude"))]


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(CONFIG_PATHS), value=JSON_VALUES)
def test_parse_config_raises_only_config_error(path, value):
    """Whatever JSON value sits at any place of a valid config, only ConfigError escapes."""
    cfg = json.loads(json.dumps(dict(BASE_CONFIG, times=[0.0], tolerances={})))
    if not path:
        cfg = value
    else:
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    try:
        parse_config(cfg)
    except ConfigError:
        pass


NATURAL_UNITS = {"hbar": 1.0, "c": 1.0, "eps0": 1.0, "label": "natural"}
SI_UNITS = {"hbar": 1.054571817e-34, "c": 2.99792458e8, "eps0": 8.8541878128e-12, "label": "si"}


def _payload_with(entry):
    def rewrite(path):
        values = read_state(path)[0].psi.values.copy()
        values[1, 2, 3, 4] = entry
        rewrite_payload(path, values.astype("<c16").tobytes())
    return rewrite


INVALID_FILES = {
    "grid_n_4": lambda p: (rewrite_header(p, grid={"n": 4, "dk": 1.0}),
                           rewrite_payload(p, bytes(4**3 * 6 * 16))),
    "negative_dk": lambda p: rewrite_header(p, grid={"n": 16, "dk": -1}),
    "infinite_dk": lambda p: rewrite_header(p, grid={"n": 16, "dk": float("inf")}),
    # dx^3 overflows, dk^3 is zero and dx infinite, or the box volume n^3 dk^3
    # overflows while dk^3 and dx^3 are in range
    "dk_tiny": lambda p: rewrite_header(p, grid={"n": 16, "dk": 1e-200}),
    "dk_subnormal": lambda p: rewrite_header(p, grid={"n": 16, "dk": 1e-320}),
    "dk_large": lambda p: rewrite_header(p, grid={"n": 16, "dk": 1e102}),
    "nan_in_payload": _payload_with(complex("nan")),
    "inf_in_payload": _payload_with(complex("inf")),
    "time_not_a_number": lambda p: rewrite_header(p, time="abc"),
    "crc_not_a_number": lambda p: rewrite_header(p, payload_crc32="x"),
    "time_nan": lambda p: rewrite_header(p, time=float("nan")),
    "time_inf": lambda p: rewrite_header(p, time=float("inf")),
    "format_99": lambda p: rewrite_header(p, format=99),
    "format_string": lambda p: rewrite_header(p, format="1"),
    "format_missing": lambda p: rewrite_header(p, format=None),
    "si_units": lambda p: rewrite_header(p, units=SI_UNITS),
    "units_without_values": lambda p: rewrite_header(p, units={"label": "natural"}),
    "units_wrong_type": lambda p: rewrite_header(p, units=dict(NATURAL_UNITS, c="fast")),
}


@pytest.mark.parametrize("case", sorted(INVALID_FILES))
def test_invalid_file_exits_3(built_state, capsys, case):
    INVALID_FILES[case](built_state)
    capsys.readouterr()
    assert main(["check", str(built_state), "--suites", "constraint"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def _config_file(directory, **change):
    path = directory / "cfg.json"
    # json writes NaN and Infinity as bare literals, which json.load reads back
    path.write_text(json.dumps(dict(BASE_CONFIG, **change)))
    return str(path)


NON_FINITE = {
    "times_flag_nan": (lambda s, d: ["check", s, "--suites", "conservation", "--times", "nan"],
                       "--times nan"),
    "times_flag_inf": (lambda s, d: ["check", s, "--suites", "conservation", "--times", "0", "inf"],
                       "--times inf"),
    "tolerance_flag_nan": (lambda s, d: ["check", s, "--suites", "maxwell",
                                         "--tolerance", "maxwell_residual=nan"],
                           "--tolerance maxwell_residual=nan"),
    "tolerance_flag_inf": (lambda s, d: ["check", s, "--suites", "maxwell",
                                         "--tolerance", "maxwell_residual=inf"],
                           "--tolerance maxwell_residual=inf"),
    "config_times_nan": (lambda s, d: ["check", s, "--config",
                                       _config_file(d, times=[0.0, float("nan")])],
                         "$.times[1]"),
    "config_tolerance_inf": (lambda s, d: ["check", s, "--config",
                                           _config_file(d, tolerances={"spin_equalities": float("inf")})],
                             "$.tolerances.spin_equalities"),
    "config_k0_inf": (lambda s, d: ["build", "--config",
                                    _config_file(d, modes=[dict(BASE_CONFIG["modes"][0],
                                                                k0=[0, 0, float("inf")])]),
                                    "--out", str(d / "x.dpst")],
                      "$.modes[0].k0[2]"),
    "evolve_nan": (lambda s, d: ["evolve", s, "nan", "--out", str(d / "x.dpst")], "t=nan"),
    "evolve_inf": (lambda s, d: ["evolve", s, "inf", "--out", str(d / "x.dpst")], "t=inf"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_number_exits_2(built_state, tmp_path, capsys, case):
    make_args, where = NON_FINITE[case]
    capsys.readouterr()
    assert main(make_args(str(built_state), tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {where}: must be a finite number\n"
    assert not (tmp_path / "x.dpst").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("change, path", [
    pytest.param({"sigma_k": float("inf")}, "$.modes[0].sigma_k", id="sigma_k_infinite"),
    pytest.param({"kind": "vortex", "vortex_charge": 1, "ring_radius": float("nan")},
                 "$.modes[0].ring_radius", id="ring_radius_nan"),
    pytest.param({"sigma_k": "1.5"}, "$.modes[0].sigma_k", id="sigma_k_string"),
    pytest.param({"helicity": True}, "$.modes[0].helicity", id="helicity_boolean"),
    pytest.param({"kind": "vortex", "vortex_charge": True}, "$.modes[0].vortex_charge",
                 id="vortex_charge_boolean"),
    pytest.param({"k0": [True, 0, 8]}, "$.modes[0].k0[0]", id="k0_boolean"),
])
def test_mode_number_of_the_wrong_kind_exits_2(tmp_path, capsys, change, path):
    # each of these once built a state (exit 0) or failed without naming the key
    config = _config_file(tmp_path, modes=[dict(BASE_CONFIG["modes"][0], **change)])
    assert main(["build", "--config", config, "--out", str(tmp_path / "x.dpst")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {path}: must be") and captured.err.count("\n") == 1
    assert not (tmp_path / "x.dpst").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("change, path", [
    pytest.param({"amplitude": [1e300, 0]}, "$.modes[0].amplitude", id="amplitude_1e300"),
    pytest.param({"kind": "vortex", "vortex_charge": 400}, "$.modes[0].vortex_charge",
                 id="vortex_charge_400"),
    pytest.param({"sigma_k": 1e-300}, "$.modes[0].sigma_k", id="sigma_k_1e-300"),
    pytest.param({"kind": "vortex", "vortex_charge": 1, "ring_radius": 1e300},
                 "$.modes[1].ring_radius", id="second_mode_ring_radius_1e300"),
])
def test_synthesis_out_of_floating_point_range_exits_2(tmp_path, capsys, change, path):
    # the first once wrote an all-zero state and exited 0; the others failed
    # after numpy warnings without naming the mode or its key
    modes = [dict(BASE_CONFIG["modes"][0], **change)]
    if path.startswith("$.modes[1]"):
        modes.insert(0, BASE_CONFIG["modes"][1])
    config = _config_file(tmp_path, modes=modes)
    assert main(["build", "--config", config, "--out", str(tmp_path / "x.dpst")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {path}: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "x.dpst").exists()


@pytest.mark.parametrize("k0, accepted", [
    # each once wrote a plane wave on an aliased bin and exited 0: (0, 0, 12)
    # landed on k_z = -4, with canonical spin +z, so the wave travelled
    # along -z with the opposite helicity
    pytest.param([0, 0, 100], False, id="kz_100"),
    pytest.param([0, 0, 12], False, id="kz_12"),
    pytest.param([0, 0, 8], False, id="kz_8"),
    pytest.param([-8.6, 0, 3], False, id="kx_rounds_to_-9"),
    pytest.param([-8, 0, 3], True, id="kx_-8"),
    pytest.param([0, 7.4, 0], True, id="ky_rounds_to_7"),
])
def test_plane_mode_beyond_the_band_exits_2(tmp_path, capsys, k0, accepted):
    # the band of n=16, dk=1 is the signed index range [-8, 7] on each axis
    config = _config_file(tmp_path, modes=[{"kind": "plane", "k0": k0, "helicity": 1}])
    code = main(["build", "--config", config, "--out", str(tmp_path / "x.dpst")])
    captured = capsys.readouterr()
    if accepted:
        assert code == 0 and (tmp_path / "x.dpst").exists()
        return
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"config error: $.modes[0].k0: nearest bin "
                            f"{[int(round(c)) for c in k0]} lies outside the grid band [-8, 7]\n")
    assert not (tmp_path / "x.dpst").exists()


def test_running_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    # a grid too large for the machine (n = 4096) once ended in numpy's
    # _ArrayMemoryError traceback; the failing allocation is simulated, so
    # the outcome does not depend on how the machine overcommits memory
    message = "Unable to allocate 12.0 TiB for an array with shape (6, 4096, 4096, 4096)"

    def synthesize(specs, grid):
        raise MemoryError(message)

    monkeypatch.setattr("darwinlab.state.synthesize", synthesize)
    config = _config_file(tmp_path, grid={"n": 4096, "dk": 1.0})
    assert main(["build", "--config", config, "--out", str(tmp_path / "x.dpst")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not enough memory: {message}\n"
    assert not (tmp_path / "x.dpst").exists()


def _extreme(sign):
    """A magnitude anywhere from 1e-300 to 1e300, with the given sign."""
    return st.integers(-300, 300).map(lambda e: sign * 10.0**e)


SIGNED = st.one_of(st.floats(-20.0, 20.0), _extreme(1.0), _extreme(-1.0))
POSITIVE = st.one_of(st.floats(0.2, 5.0), _extreme(1.0))
MODES = st.fixed_dictionaries(
    {"kind": st.sampled_from(["plane", "gaussian", "vortex"]),
     "k0": st.lists(SIGNED, min_size=3, max_size=3),
     "sigma_k": POSITIVE,
     "helicity": st.sampled_from([1, -1, None]),
     "polarization": st.lists(SIGNED, min_size=3, max_size=3),
     "vortex_charge": st.integers(-500, 500),
     "ring_radius": st.one_of(st.just(0.0), POSITIVE),
     "amplitude": st.lists(SIGNED, min_size=2, max_size=2)},
)


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([8, 16]), dk=st.sampled_from([0.5, 1.0, 2.0]),
       modes=st.lists(MODES, min_size=1, max_size=3))
def test_build_writes_a_finite_state_or_names_a_path(tmp_path_factory, n, dk, modes):
    """Every config at n=8 or 16 either builds a state whose norm is finite
    and positive, or exits 2 with one `$.` line and writes nothing; numpy
    warnings are errors."""
    work = tmp_path_factory.mktemp("build")
    config, out = work / "cfg.json", work / "x.dpst"
    config.write_text(json.dumps({"grid": {"n": n, "dk": dk}, "modes": modes}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["build", "--config", str(config), "--out", str(out)])
    if code == 0:
        state, _ = read_state(out)
        assert 0.0 < state.norm < float("inf")
    else:
        assert code == 2
        assert err.getvalue().startswith("config error: $.") and err.getvalue().count("\n") == 1
        assert not out.exists()


@pytest.fixture()
def overflowing_file(tmp_path, helicity_state):
    """The n=32 fixture state times 1e300: every amplitude is finite, but the
    total probability overflows."""
    path = tmp_path / "huge.dpst"
    write_state(path, PhotonState(momentum_field(1e300 * helicity_state.psi.values,
                                                 helicity_state.grid)))
    return path


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["check", "observe", "evolve", "densities"])
def test_overflowing_payload_exits_3(overflowing_file, tmp_path, capsys, command):
    extra = {"evolve": ["1.0", "--out", str(tmp_path / "x.dpst")],
             "densities": ["--out", str(tmp_path / "slices")]}.get(command, [])
    assert main([command, str(overflowing_file), *extra]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "norm" in captured.err
    assert captured.err.count("\n") == 1


@pytest.fixture(scope="module")
def derived_overflow_files(tmp_path_factory, g16):
    """A valid n=16 gaussian file under two header spacings whose every amplitude
    and grid volume is finite, but a derived value is not: at dk=1e80 the
    position transform overflows, at dk=1e50 a product in the position OAM route."""
    directory = tmp_path_factory.mktemp("derived")
    state = synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 4), sigma_k=1.0, helicity=1)], g16)
    paths = {}
    for dk in ("1e80", "1e50"):
        paths[dk] = directory / f"dk{dk}.dpst"
        write_state(paths[dk], state)
        rewrite_header(paths[dk], grid={"n": 16, "dk": float(dk)})
    return paths


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dk, command", [
    # each once ended in a traceback, NaN rows or slices, or RuntimeWarnings
    ("1e80", "check"), ("1e80", "observe"), ("1e80", "evolve"), ("1e80", "densities"),
    ("1e50", "check"), ("1e50", "observe"),
])
def test_derived_value_out_of_range_exits_3(derived_overflow_files, tmp_path, capsys, dk, command):
    out = tmp_path / "out"
    extra = {"evolve": ["1.0", "--out", str(out)], "densities": ["--out", str(out)]}
    path = str(derived_overflow_files[dk])
    capsys.readouterr()
    assert main([command, path, *extra.get(command, [])]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: a value derived from the state leaves floating-point range\n"
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    pytest.param(["densities", "--offset", "nan"], "error: plane z=nan outside the box",
                 id="densities_offset_nan"),
    pytest.param(["densities", "--precision", "-1"], "config error: --precision -1:",
                 id="densities_precision_negative"),
    pytest.param(["observe", "--precision", "-1"], "config error: --precision -1:",
                 id="observe_precision_negative"),
    # float64 round-trips at 17 digits; 100000000000 was once a ValueError traceback
    pytest.param(["densities", "--precision", "18"], "config error: --precision 18:",
                 id="densities_precision_18"),
    pytest.param(["observe", "--precision", "18"], "config error: --precision 18:",
                 id="observe_precision_18"),
    pytest.param(["densities", "--precision", "100000000000"],
                 "config error: --precision 100000000000:", id="densities_precision_huge"),
    pytest.param(["observe", "--precision", "100000000000"],
                 "config error: --precision 100000000000:", id="observe_precision_huge"),
])
def test_offset_or_precision_it_cannot_honour_exits_2(built_state, tmp_path, capsys, args, message):
    out = tmp_path / "slices"
    command, *flags = args
    extra = ["--out", str(out)] if command == "densities" else []
    capsys.readouterr()
    assert main([command, str(built_state), *extra, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert not out.exists()


class TestEvolve:
    def test_zero_time_identical_payload(self, built_state, tmp_path):
        out = tmp_path / "t0.dpst"
        assert main(["evolve", str(built_state), "0", "--out", str(out)]) == 0
        a, _ = read_state(built_state)
        b, _ = read_state(out)
        assert np.array_equal(a.psi.values, b.psi.values)

    def test_composition(self, built_state, tmp_path):
        mid = tmp_path / "mid.dpst"
        twice = tmp_path / "twice.dpst"
        once = tmp_path / "once.dpst"
        assert main(["evolve", str(built_state), "1.5", "--out", str(mid)]) == 0
        assert main(["evolve", str(mid), "1.5", "--out", str(twice)]) == 0
        assert main(["evolve", str(built_state), "3.0", "--out", str(once)]) == 0
        a, _ = read_state(twice)
        b, _ = read_state(once)
        assert np.abs(a.psi.values - b.psi.values).max() < 1e-13
        assert a.time == pytest.approx(b.time)

    def test_norm_preserved(self, built_state, tmp_path):
        out = tmp_path / "t.dpst"
        assert main(["evolve", str(built_state), "4.2", "--out", str(out)]) == 0
        state, _ = read_state(out)
        assert state.norm == pytest.approx(1.0, abs=1e-13)

    def test_certificate_is_the_library_values(self, tmp_path, capsys):
        # on the README n=32 state: the norm drift between the input file and
        # the written one (0.000e+00 here; a sum in place of the difference
        # prints 2.000e+00), and the two residuals of the written one
        config, built, out = tmp_path / "config.json", tmp_path / "built.dpst", tmp_path / "t.dpst"
        config.write_text(json.dumps(README_N32))
        assert main(["build", "--config", str(config), "--out", str(built)]) == 0
        capsys.readouterr()
        assert main(["evolve", str(built), "7.25", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.split()
        before, after = read_state(built)[0], read_state(out)[0]
        expect = {"norm_drift": abs(after.norm - before.norm),
                  "dirac_residual": dynamics.dirac_residual(after),
                  "maxwell_residual": dynamics.maxwell_residual(after).curl_residual}
        assert printed[-3:] == [f"{name}={value:.3e}" for name, value in expect.items()]


# Finite times whose phase exp(-i |k| t) overflows: on the n=16 grid,
# k_max = 13.9, so k_max |t| is infinite from |t| = 1.3e307 on.  Each once
# ended in a ValueError traceback ("field contains non-finite entries").
TIME_RANGE = {
    "evolve_t": (["evolve", "{state}", "5e307", "--out", "{out}"], 2,
                 "config error: t=5e+307: out of range"),
    "evolve_to_2e307": (["evolve", "{late}", "1e307", "--out", "{out}"], 2,
                        "config error: t=1e+307: out of range"),
    "check_times_flag": (["check", "{state}", "--suites", "conservation", "--times", "0", "1e308"],
                         2, "config error: --times 1e+308: out of range"),
    "check_times_from_late_state": (["check", "{late}", "--suites", "conservation",
                                     "--times=-1e307"],
                                    2, "config error: --times -1e+307: out of range"),
    "check_config_times": (["check", "{state}", "--config", "{config}"], 2,
                           "config error: $.times[1]: out of range"),
    "observe_header_time_2e307": (["observe", "{far}"], 3, "error: "),
    "check_header_time_2e307": (["check", "{far}"], 3, "error: "),
}


@pytest.fixture()
def time_range_files(built_state, tmp_path):
    late, far = tmp_path / "late.dpst", tmp_path / "far.dpst"
    assert main(["evolve", str(built_state), "1e307", "--out", str(late)]) == 0
    far.write_bytes(built_state.read_bytes())
    rewrite_header(far, time=2e307)
    return {"state": built_state, "late": late, "far": far, "out": tmp_path / "x.dpst",
            "config": _config_file(tmp_path, times=[0.0, 1e308])}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(TIME_RANGE))
def test_time_whose_phase_overflows_is_rejected(time_range_files, capsys, case):
    args, code, start = TIME_RANGE[case]
    capsys.readouterr()
    assert main([arg.format(**time_range_files) for arg in args]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(start) and captured.err.count("\n") == 1
    assert code == 2 or "time 2e+307 out of range" in captured.err
    assert not time_range_files["out"].exists()


def test_time_within_range_still_runs(time_range_files, capsys):
    # 1e307 after a state at 1e307 would overflow; -1e307 brings it back to 0
    out = time_range_files["out"]
    assert main(["evolve", str(time_range_files["late"]), "--out", str(out), "--", "-1e307"]) == 0
    assert read_state(out)[0].time == 0.0
    capsys.readouterr()
    # a verdict, not an error: at these times the phase keeps no significant digits
    assert main(["check", str(time_range_files["late"]), "--suites", "conservation",
                 "--times", "1e307", "1.2e307"]) in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [s["suite"] for s in json.loads(captured.out)["suites"]] == ["conservation"]


def test_lost_phase_precision_is_named(time_range_files, capsys):
    # k_max = 8 sqrt(3) on this grid, so k_max |t| passes 2^53 from |t| = 6.5e14
    capsys.readouterr()
    main(["check", str(time_range_files["late"]), "--suites", "conservation",
          "--times", "1e307", "1.2e307"])
    rows = {c["name"]: c for c in json.loads(capsys.readouterr().out)["suites"][0]["checks"]}
    for name in ("oam_drift", "total_angular_momentum_drift"):
        info = rows[name]["info"]
        assert "t=1e+307: k_max|t|=1.39e+308 >= 2^53" in info, info
        assert "t=1.2e+307: k_max|t|=1.66e+308 >= 2^53" in info, info
        assert info.count("the phase exp(-i|k|t) has lost its precision") == 2
    assert rows["oam_drift"]["passed"] is False
    assert rows["spin_drift"]["info"] == rows["norm_drift"]["info"] == ""

    # below 2^53 the rows carry no such note
    main(["check", str(time_range_files["state"]), "--suites", "conservation",
          "--times", "0", "6e14"])
    rows = {c["name"]: c for c in json.loads(capsys.readouterr().out)["suites"][0]["checks"]}
    assert rows["oam_drift"]["info"] == rows["total_angular_momentum_drift"]["info"] == ""


def test_all_zero_payload_gets_a_full_report(tmp_path, capsys, g32):
    # norm 0 is finite, so the file is valid; every suite reports on it
    path = tmp_path / "zero.dpst"
    write_state(path, PhotonState(momentum_field(np.zeros((6,) + g32.shape), g32)))
    capsys.readouterr()
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert [s["suite"] for s in report["suites"]] == list(SUITE_NAMES)
    rows = {c["name"]: c for s in report["suites"] for c in s["checks"]}
    assert rows["classical_roundtrip"]["value"] == 0.0 and rows["classical_roundtrip"]["passed"]
    assert code == (0 if report["passed"] else 1)
