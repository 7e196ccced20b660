import json

import numpy as np
import pytest

from darwinlab import dynamics, observables, stateio, suites
from darwinlab.cli import main
from darwinlab.dynamics import (
    default_maxwell_dt,
    dirac_residual,
    evolve,
    maxwell_curl_residual,
    maxwell_residual,
)
from darwinlab.kgrid import (
    KGrid,
    momentum_field,
    position_field,
    spectral_curl,
    to_position,
)
from darwinlab.state import ModeSpec, PhotonState, synthesize
from reference import continuity_residual, four_current, spectral_divergence
from test_state import branch_state, longitudinal_state


class TestEvolve:
    def test_zero_time_is_identity(self, helicity_state):
        evolved = evolve(helicity_state, 0.0)
        assert evolved is helicity_state
        assert abs(evolved.norm - helicity_state.norm) == 0.0
        assert dirac_residual(evolved) < 1e-12

    def test_norm_preserved(self, two_direction_state):
        evolved = evolve(two_direction_state, 7.3)
        assert abs(evolved.norm - two_direction_state.norm) < 1e-13
        # pure phase: per-bin modulus unchanged to one multiply's round-off
        assert np.abs(
            np.abs(evolved.psi.values) - np.abs(two_direction_state.psi.values)
        ).max() < 1e-15

    def test_single_bin_phase(self):
        # hand evaluation: |k| = 2, t = pi/2 -> exp(-i pi) = -1 on both blocks
        g = KGrid(8, 1.0)
        st = synthesize([ModeSpec(kind="plane", k0=(0, 0, 2), helicity=1)], g)
        evolved = evolve(st, np.pi / 2)
        assert np.abs(evolved.psi.values + st.psi.values).max() < 1e-13

    def test_composition(self, helicity_state):
        once = evolve(evolve(helicity_state, 1.3), 2.1)
        direct = evolve(helicity_state, 3.4)
        assert np.abs(once.psi.values - direct.psi.values).max() < 1e-13
        assert once.time == pytest.approx(direct.time)

    def test_constraint_residuals_invariant(self, two_direction_state):
        evolved = evolve(two_direction_state, 5.0)
        assert abs(evolved.rqc_residual - two_direction_state.rqc_residual) < 1e-12
        assert dirac_residual(evolved) < 1e-12


class TestDiracResidual:
    def test_positive_branch_near_zero(self, helicity_state):
        assert dirac_residual(helicity_state) < 1e-12

    def test_negative_branch_is_two(self, g32):
        # oracle: eigenvalue -omega against +omega gives |(-1) - 1| = 2
        neg = branch_state(g32, -1)
        assert dirac_residual(neg) == pytest.approx(2.0, abs=1e-10)

    def test_non_transverse_flagged(self, g16, rng):
        vals = rng.normal(size=(6,) + g16.shape) + 1j * rng.normal(size=(6,) + g16.shape)
        vals[:, 0, 0, 0] = 0.0
        psi = momentum_field(vals, g16)
        st = PhotonState(psi)
        assert dirac_residual(st) > 0.1


class TestMaxwellResidual:
    def test_default_dt_level(self, two_direction_state):
        report = maxwell_residual(two_direction_state)
        assert report.curl_residual < 1e-6
        assert report.divergence_residual < 1e-12
        assert report.dt == pytest.approx(default_maxwell_dt(two_direction_state.grid))

    def test_quadratic_in_dt(self, two_direction_state):
        dt = default_maxwell_dt(two_direction_state.grid)
        coarse = maxwell_residual(two_direction_state, dt=dt)
        fine = maxwell_residual(two_direction_state, dt=dt / 2)
        factor = coarse.curl_residual / fine.curl_residual
        assert 3.5 < factor < 4.5

    def test_zero_dt_rejected_and_state_untouched(self, helicity_state):
        before = helicity_state.psi.values.copy()
        for residual in (maxwell_residual, maxwell_curl_residual):
            with pytest.raises(ValueError):
                residual(helicity_state, dt=0.0)
        assert np.array_equal(helicity_state.psi.values, before)

    def test_curl_residual_is_the_report_value(self, two_direction_state, helicity_state):
        # `dpl evolve` prints maxwell_curl_residual, `dpl check` the report's row
        dt = default_maxwell_dt(two_direction_state.grid)
        for st, step in ((two_direction_state, None), (two_direction_state, dt / 2),
                         (evolve(helicity_state, 2.0), None),
                         (PhotonState(momentum_field(np.zeros((6,) + helicity_state.grid.shape),
                                                     helicity_state.grid)), None)):
            assert maxwell_curl_residual(st, step) == maxwell_residual(st, step).curl_residual

    @pytest.mark.parametrize("block", [0, 1])
    def test_nan_in_one_curl_block_fails_the_row(self, helicity_state, monkeypatch, tmp_path,
                                                 capsys, block):
        # the block maxima are folded so that a NaN is kept: the builtin
        # max(0.0, nan) is 0.0, and max(x, nan) is x
        path = tmp_path / "state.dpst"
        stateio.write_state(path, helicity_state)
        real, curls = dynamics.to_position, []

        def poisoned(field, **kwargs):
            out = real(field, **kwargs)
            # a block's stencil and curl are transformed together, the curl
            # in components 3:; a divergence has 1 component
            if out.values.shape[0] == 6:
                if len(curls) == block:
                    out.values[3 + 1, 2, 3, 4] = np.nan
                curls.append(1)
            return out

        monkeypatch.setattr(dynamics, "to_position", poisoned)
        capsys.readouterr()
        code = main(["check", str(path), "--suites", "maxwell"])
        (report,) = json.loads(capsys.readouterr().out)["suites"]
        row = next(c for c in report["checks"] if c["name"] == "maxwell_residual")
        assert (code, len(curls)) == (1, 2)
        assert row["value"] is None and row["passed"] is False

    def test_residual_at_later_time(self, helicity_state):
        evolved = evolve(helicity_state, 2.0)
        assert maxwell_residual(evolved).curl_residual < 1e-6

    def test_matches_position_space_route(self, two_direction_state):
        """Reference: transform each block at t and t +- dt, then take the
        curl and divergence by kgrid's position -> momentum -> position route."""
        st = two_direction_state
        g = st.grid
        dt = default_maxwell_dt(g)

        def blocks(t):
            phase = np.exp(-1j * g.kmag * t)
            pos = np.sqrt(2.0) * to_position(momentum_field(st.psi.values * phase, g)).values
            return pos[:3], pos[3:]

        (u_minus, l_minus), (u_plus, l_plus), (u, l) = blocks(-dt), blocks(dt), blocks(0.0)
        curl_u = spectral_curl(position_field(u, g)).values
        curl_l = spectral_curl(position_field(l, g)).values
        scale = max(np.abs(curl_u).max(), np.abs(curl_l).max())
        curl_res = max(
            np.abs((u_plus - u_minus) / (2 * dt) - curl_l).max(),
            np.abs((l_plus - l_minus) / (2 * dt) + curl_u).max(),
        ) / scale
        div_res = max(
            np.abs(spectral_divergence(position_field(f, g)).values).max() for f in (u, l)
        ) / scale

        report = maxwell_residual(st)
        # round-off only; the 1/dt stencil amplifies it: 1% of each tolerance
        assert abs(report.curl_residual - curl_res) < 1e-8
        assert abs(report.divergence_residual - div_res) < 1e-14

    def test_divergence_detects_longitudinal_part(self, two_direction_state):
        assert maxwell_residual(two_direction_state).divergence_residual < 1e-12
        assert maxwell_residual(longitudinal_state(two_direction_state)).divergence_residual > 1e-12


class TestFourCurrent:
    def test_density_positive_and_normalized(self, two_direction_state):
        cur = four_current(two_direction_state)
        assert cur.j0.min() >= 0.0
        g = two_direction_state.grid
        assert np.sum(cur.j0) * g.dx**3 == pytest.approx(1.0, abs=1e-10)

    def test_spatial_current_is_real_by_construction(self, two_direction_state):
        # cross-check against the dense matrix sandwich i c Psi^dag g0 g_a Psi
        from darwinlab.algebra import GAMMA, GAMMA0
        from darwinlab.kgrid import to_position

        pos = to_position(two_direction_state.psi)
        sandwich = np.einsum(
            "cxyz,acd,dxyz->axyz", np.conj(pos.values),
            np.stack([GAMMA0 @ GAMMA[a] for a in range(3)]), pos.values,
        )
        oracle = 1j * sandwich
        cur = four_current(two_direction_state)
        assert np.abs(oracle.imag).max() < 1e-12 * np.abs(oracle.real).max()
        assert np.abs(cur.j - oracle.real).max() < 1e-12 * np.abs(cur.j).max()

    def test_continuity_equation(self, g32):
        # beams at half band so the quadratic current spectrum still fits
        st = synthesize(
            [
                ModeSpec(kind="gaussian", k0=(0, 0, 5), sigma_k=1.2, helicity=1),
                ModeSpec(kind="gaussian", k0=(5, 0, 0), sigma_k=1.2, helicity=-1),
            ],
            g32,
        )
        res = continuity_residual(st)
        assert res < 1e-6

    def test_continuity_quadratic_in_dt(self, g32):
        st = synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 6), sigma_k=1.0, helicity=1)], g32)
        dt = 10.0 * default_maxwell_dt(g32)  # well above the aliasing floor
        coarse = continuity_residual(st, dt=dt)
        fine = continuity_residual(st, dt=dt / 2)
        assert 3.5 < coarse / fine < 4.5


def _conservation_rows(state, times):
    """The conservation suite's rows, by name."""
    [report] = suites.run_suites(["conservation"], state, times=times)
    return {c.name: c for c in report.checks}


class TestConservation:
    def test_drifts(self, two_direction_state):
        rows = _conservation_rows(two_direction_state, [0.0, 1.0, 10.0])
        assert rows["probability_drift"].value < 1e-13
        assert rows["spin_drift"].value < 1e-12
        assert rows["oam_drift"].value < 1e-10
        assert rows["total_angular_momentum_drift"].value < 1e-10

    def test_vortex_oam_conserved(self, g32):
        st = synthesize(
            [ModeSpec(kind="vortex", k0=(0, 0, 7), sigma_k=1.6, helicity=1,
                      vortex_charge=2, ring_radius=7.0)],
            g32,
        )
        rows = _conservation_rows(st, [0.0, 2.5, 10.0])
        assert rows["oam_drift"].value < 1e-10
        assert rows["total_angular_momentum_drift"].value < 1e-10

    def test_report_samples_all_times(self, helicity_state):
        rows = _conservation_rows(helicity_state, [0.0, 0.5])
        assert rows["probability_drift"].info == "times=[0.0, 0.5]"
        assert observables.probability(helicity_state)[0] == pytest.approx(1.0, abs=1e-12)
