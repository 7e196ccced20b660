import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darwinlab.cli import ConfigError, main, parse_config
from darwinlab.stateio import read_state, write_state
from darwinlab.suites import SUITE_NAMES
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

    def test_unknown_suite_lists_available(self, built_state, capsys):
        code = main(["check", str(built_state), "--suites", "spectral"])
        assert code == 2
        err = capsys.readouterr().err
        assert "available" in err and "algebra" in err

    @pytest.mark.parametrize("value", [",", " , "])
    def test_suites_naming_no_suite_exits_2(self, built_state, capsys, value):
        code = main(["check", str(built_state), "--suites", value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "available" in captured.err

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
                ("times",), ("tolerances",), ("tolerances", "oam_formula_gap"), ("output",),
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


def _nan_payload(path):
    values = read_state(path)[0].psi.values.copy()
    values[1, 2, 3, 4] = complex("nan")
    rewrite_payload(path, values.astype("<c16").tobytes())


INVALID_FILES = {
    "grid_n_4": lambda p: (rewrite_header(p, grid={"n": 4, "dk": 1.0}),
                           rewrite_payload(p, bytes(4**3 * 6 * 16))),
    "negative_dk": lambda p: rewrite_header(p, grid={"n": 16, "dk": -1}),
    "infinite_dk": lambda p: rewrite_header(p, grid={"n": 16, "dk": float("inf")}),
    "nan_in_payload": _nan_payload,
    "time_not_a_number": lambda p: rewrite_header(p, time="abc"),
    "crc_not_a_number": lambda p: rewrite_header(p, payload_crc32="x"),
    "scale_factor_not_a_number": lambda p: rewrite_header(p, scale_factor="big"),
    "time_nan": lambda p: rewrite_header(p, time=float("nan")),
    "time_inf": lambda p: rewrite_header(p, time=float("inf")),
    "scale_factor_nan": lambda p: rewrite_header(p, scale_factor=float("nan")),
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
