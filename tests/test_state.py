import dataclasses
from functools import cached_property

import numpy as np
import pytest

from darwinlab import kgrid, observables
from darwinlab import state as state_module
from darwinlab.algebra import helicity_vectors
from darwinlab.kgrid import momentum_field, norm_squared, to_position
from darwinlab.state import (
    ModeSpec,
    PhotonState,
    branch_residual,
    synthesize,
    transversality_residual,
)
from reference import full_grid


def manual_state(grid, f_upper, f_lower):
    psi = momentum_field(np.concatenate([f_upper, f_lower]) / np.sqrt(2.0), grid)
    return PhotonState(psi)


def branch_state(grid, sign, k0=(0, 0, 8), sigma=1.2):
    """Gaussian helicity state placed by hand on either energy branch."""
    k0 = np.asarray(k0, dtype=float)
    env = np.exp(-np.sum((full_grid(grid.k_axes) - k0[:, None, None, None]) ** 2, axis=0)
                 / (2 * sigma**2))
    pol = helicity_vectors(k0 / np.linalg.norm(k0))[0]
    f_u = env * pol[:, None, None, None]
    f_u -= np.sum(grid.khat * f_u, axis=0) * grid.khat
    f_u[:, 0, 0, 0] = 0.0
    f_l = sign * np.cross(grid.khat, f_u, axis=0)
    return manual_state(grid, f_u, f_l)


def longitudinal_state(state, fraction=0.3):
    """Copy of state whose upper block gains a longitudinal part, per bin
    ``fraction`` of the block's amplitude along the momentum direction."""
    g = state.grid
    values = state.psi.values.copy()
    values[:3] += fraction * np.linalg.norm(values[:3], axis=0) * g.khat
    return PhotonState(momentum_field(values, g), state.time)


class TestDerivedValues:
    @pytest.fixture()
    def counted(self, monkeypatch):
        """Call counts of the two derivations a state may make."""
        calls = {"norm_squared": 0, "transversality_residual": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(kgrid, "norm_squared")
        counting(state_module, "transversality_residual")
        return calls

    def test_construction_computes_nothing(self, counted, helicity_state):
        st = PhotonState(helicity_state.psi)
        assert counted == {"norm_squared": 0, "transversality_residual": 0}
        assert [f.name for f in dataclasses.fields(st)] == ["psi", "time"]

    def test_only_payload_scalars_are_cached(self):
        # arrays derived from the payload belong to the observables memo
        cached = [name for name, attr in vars(PhotonState).items()
                  if isinstance(attr, cached_property)]
        assert cached == ["norm", "rqc_residual"]

    def test_each_value_computed_once(self, counted, helicity_state):
        st = PhotonState(helicity_state.psi)
        for _ in range(3):
            assert st.norm == norm_squared(helicity_state.psi)
            assert st.rqc_residual == transversality_residual(helicity_state.psi)
        # the reference values above come from this module's unpatched bindings
        assert counted == {"norm_squared": 1, "transversality_residual": 1}

    @pytest.mark.parametrize("entry", [complex("nan"), complex("inf")])
    def test_state_checks_its_payload_and_a_field_does_not(self, helicity_state, entry):
        values = helicity_state.psi.values.copy()
        values[1, 2, 3, 4] = entry
        field = momentum_field(values, helicity_state.grid)  # accepted: fields are not scanned
        with pytest.raises(ValueError, match="non-finite"):
            PhotonState(field, 1.5)

    def test_payload_is_read_only(self, g16):
        # an in-place transform handed the payload would leave every cached
        # value describing amplitudes the state no longer holds
        st = synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 4), sigma_k=1.0, helicity=1)], g16)
        norm, pos = st.norm, observables.psi_position(st)
        before = st.psi.values.copy()
        with pytest.raises(ValueError, match="read-only"):
            to_position(st.psi, overwrite=True)
        assert np.array_equal(st.psi.values, before)
        assert norm_squared(st.psi) == norm == st.norm
        assert observables.psi_position(st) is pos
        assert np.array_equal(pos, to_position(st.psi).values)


class TestModeSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ModeSpec(kind="bessel", k0=(0, 0, 1))

    def test_rejects_zero_center(self):
        with pytest.raises(ValueError, match="nonzero"):
            ModeSpec(kind="gaussian", k0=(0, 0, 0), sigma_k=1.0)

    def test_rejects_missing_width(self):
        with pytest.raises(ValueError, match="sigma_k"):
            ModeSpec(kind="gaussian", k0=(0, 0, 1))

    def test_rejects_bad_helicity(self):
        with pytest.raises(ValueError, match="helicity"):
            ModeSpec(kind="gaussian", k0=(0, 0, 1), sigma_k=1.0, helicity=2)

    def test_linear_needs_polarization(self):
        with pytest.raises(ValueError, match="polarization"):
            ModeSpec(kind="gaussian", k0=(0, 0, 1), sigma_k=1.0, helicity=None)


class TestSynthesize:
    def test_helicity_coupling_on_axis(self, g32):
        # hand evaluation: at the center bin w = z and f_l = z x e+ = -i e+
        st = synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 8), sigma_k=1.2, helicity=1)], g32)
        fu = st.f_upper()[:, 0, 0, 8]
        fl = st.f_lower()[:, 0, 0, 8]
        assert np.abs(fl + 1j * fu).max() < 1e-13 * np.abs(fu).max()

    def test_normalized_and_constrained(self, helicity_state):
        assert helicity_state.norm == pytest.approx(1.0, abs=1e-13)
        assert helicity_state.rqc_residual < 1e-12
        assert branch_residual(helicity_state) < 1e-12

    def test_superposition_normalizes(self, two_direction_state):
        assert two_direction_state.norm == pytest.approx(1.0, abs=1e-13)

    def test_vortex_transversality(self, g32):
        st = synthesize(
            [ModeSpec(kind="vortex", k0=(0, 0, 8), sigma_k=1.2, helicity=1, vortex_charge=1)],
            g32,
        )
        assert st.rqc_residual < 1e-12

    def test_plane_mode_single_bin(self, g16):
        st = synthesize([ModeSpec(kind="plane", k0=(0, 0, 3), helicity=1)], g16)
        amp = np.linalg.norm(st.psi.values, axis=0)
        assert np.count_nonzero(amp) == 1
        assert amp[0, 0, 3] > 0.0

    def test_out_of_band_spectrum_rejected(self, g16):
        # center far outside the resolvable band: envelope underflows to zero
        with pytest.raises(ValueError, match="zero"):
            synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 500.0), sigma_k=1.0, helicity=1)], g16)

    def test_dc_bin_zero(self, two_direction_state):
        assert np.abs(two_direction_state.psi.values[:, 0, 0, 0]).max() == 0.0

    def test_block_moduli_match(self, two_direction_state):
        # |f_u| = |f_l| per bin follows from the unit-norm coupling direction
        fu = np.linalg.norm(two_direction_state.f_upper(), axis=0)
        fl = np.linalg.norm(two_direction_state.f_lower(), axis=0)
        assert np.abs(fu - fl).max() < 1e-12 * fu.max()


class TestProjectTransverse:
    """The library's transversality residual on a state and on its transverse
    part, which the test projects out bin by bin."""

    def test_removes_longitudinal(self, g16, rng):
        vals = rng.normal(size=(6,) + g16.shape) + 1j * rng.normal(size=(6,) + g16.shape)
        st = PhotonState(momentum_field(vals, g16))
        assert st.rqc_residual > 0.1  # random data is far from transverse
        w = g16.khat
        projected = np.concatenate([f - kgrid.dot(w, f) * w for f in (vals[:3], vals[3:])])
        assert PhotonState(momentum_field(projected, g16)).rqc_residual < 1e-13


class TestProjectPositiveEnergy:
    """The positive-energy branch, projected by the test as
    P+ = P_transverse (1 + H/k) / 2 on random data, satisfies the library's
    branch-coupling and transversality residuals."""

    def test_projected_state_satisfies_coupling(self, g16, rng):
        vals = rng.normal(size=(6,) + g16.shape) + 1j * rng.normal(size=(6,) + g16.shape)
        w = g16.khat
        f_u, f_l = vals[:3], vals[3:]
        new_u = 0.5 * (f_u - kgrid.dot(w, f_u) * w - kgrid.cross(w, f_l))
        new_l = 0.5 * (f_l - kgrid.dot(w, f_l) * w + kgrid.cross(w, f_u))
        proj = PhotonState(momentum_field(np.concatenate([new_u, new_l]), g16))
        assert branch_residual(proj) < 1e-12
        assert proj.rqc_residual < 1e-12


class TestNormalize:
    # synthesize normalizes the state it builds
    def test_scaling_invariance(self, g16):
        def built(amplitude):
            return synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 4), sigma_k=0.8,
                                        amplitude=amplitude)], g16)

        unit, scaled = built(1.0), built(3.0)
        assert np.abs(scaled.psi.values - unit.psi.values).max() < 1e-14

    def test_zero_state_rejected(self, g16):
        # a linear polarization along k0 is wholly longitudinal on the plane
        # wave's one bin, so the transverse projection leaves nothing
        with pytest.raises(ValueError, match="identically zero"):
            synthesize([ModeSpec(kind="plane", k0=(0, 0, 4), helicity=None,
                                 polarization=(0, 0, 1))], g16)

    def test_unit_norm(self, two_direction_state):
        assert two_direction_state.norm == pytest.approx(1.0, abs=1e-13)

    def test_position_space_norm_matches(self, helicity_state):
        # oracle: Parseval ties both representations together
        pos = to_position(helicity_state.psi)
        assert norm_squared(pos) == pytest.approx(1.0, abs=1e-12)
