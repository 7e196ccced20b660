import functools
import inspect

import numpy as np
import pytest

from darwinlab import kgrid, observables
from darwinlab.algebra import SPIN
from darwinlab.dynamics import evolve, maxwell_residual
from darwinlab.kgrid import (
    boundary_amplitude_ratio,
    momentum_field,
    norm_squared,
    to_position,
)
from darwinlab.observables import (
    _canonical_density,
    _peeled_block,
    density_candidates,
    nonlocal_spin_density,
    nonlocal_spin_integral,
    oam_boundary_ratio,
    oam_momentum,
    oam_position,
    oam_position_shell,
    observable_report,
    position_densities,
    probability,
    psi_position,
    spin_canonical,
    spin_projected,
)
from darwinlab.state import ModeSpec, PhotonState, synthesize
from reference import (
    README_MODES,
    full_grid,
    spectral_gradient,
    spin_cross,
    spin_position,
    whole_array_maxwell,
    whole_array_routes,
)


def matrix_spin_oracle(state):
    """Independent route: sandwich the dense 6x6 spin matrices per bin."""
    psi = state.psi.values
    out = np.einsum("cxyz,icd,dxyz->i", np.conj(psi), SPIN, psi) * state.psi.measure
    assert np.abs(out.imag).max() < 1e-12
    return out.real


def matrix_projected_oracle(state):
    """Independent route for the momentum-projected operator (spin . w) w_i."""
    psi = state.psi.values
    g = state.grid
    spin_w = np.einsum("axyz,acd->xyzcd", g.khat, SPIN)
    scalar = np.einsum("cxyz,xyzcd,dxyz->xyz", np.conj(psi), spin_w, psi)
    out = np.einsum("xyz,axyz->a", scalar, g.khat) * state.psi.measure
    assert np.abs(out.imag).max() < 1e-12
    return out.real


class TestSpinFormulas:
    def test_helicity_plus_about_z(self, g32):
        st = synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 8), sigma_k=8e-3, helicity=1)], g32)
        assert np.abs(spin_canonical(st) - [0, 0, 1]).max() < 1e-6

    def test_helicity_minus_about_z(self, g32):
        # oracle: conjugate mode flips the cross product sign
        st = synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 8), sigma_k=8e-3, helicity=-1)], g32)
        assert np.abs(spin_canonical(st) - [0, 0, -1]).max() < 1e-6

    def test_linear_polarization_is_spinless(self, g32):
        st = synthesize(
            [ModeSpec(kind="gaussian", k0=(0, 0, 8), sigma_k=1.2, helicity=None,
                      polarization=(1, 0, 0))],
            g32,
        )
        assert np.abs(spin_canonical(st)).max() < 1e-10

    def test_matches_matrix_oracle(self, two_direction_state):
        assert np.abs(spin_canonical(two_direction_state)
                      - matrix_spin_oracle(two_direction_state)).max() < 1e-12
        assert np.abs(spin_projected(two_direction_state)
                      - matrix_projected_oracle(two_direction_state)).max() < 1e-12

    def test_projected_equals_canonical_for_constrained(self, two_direction_state):
        gap = np.abs(spin_projected(two_direction_state) - spin_canonical(two_direction_state))
        assert gap.max() < 1e-10

    def test_unprojected_state_shows_discrepancy(self, g16, rng):
        vals = rng.normal(size=(6,) + g16.shape) + 1j * rng.normal(size=(6,) + g16.shape)
        vals[:, 0, 0, 0] = 0.0
        psi = momentum_field(vals / np.sqrt(norm_squared(momentum_field(vals, g16))), g16)
        st = PhotonState(psi)
        gap = np.abs(spin_projected(st) - spin_canonical(st)).max()
        assert gap > 1e-3

    def test_diagonal_axis_spin_along_beam(self, g32):
        # helicity about a diagonal axis: <spin> parallel to the beam within
        # the spread-induced tolerance
        k0 = 8.0 * np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        st = synthesize([ModeSpec(kind="gaussian", k0=tuple(k0), sigma_k=0.8, helicity=1)], g32)
        s = spin_projected(st)
        axis = k0 / np.linalg.norm(k0)
        transverse = s - (s @ axis) * axis
        assert s @ axis > 0.95
        assert np.linalg.norm(transverse) < 0.05

    def test_cross_blocks_agree(self, two_direction_state):
        up = spin_cross(two_direction_state, "upper")
        low = spin_cross(two_direction_state, "lower")
        assert np.abs(up - low).max() < 1e-10
        assert np.abs(up - spin_canonical(two_direction_state)).max() < 1e-10

    def test_real_amplitudes_have_no_spin(self, g16):
        vals = np.zeros((6,) + g16.shape, dtype=complex)
        vals[1, 2, 3, 4] = 0.7  # single real entry
        psi = momentum_field(vals, g16)
        st = PhotonState(psi)
        assert np.abs(spin_cross(st, "upper")).max() == 0.0

    def test_position_space_formulas(self, two_direction_state):
        for block in ("upper", "lower"):
            gap = np.abs(spin_position(two_direction_state, block)
                         - spin_cross(two_direction_state, block))
            assert gap.max() < 1e-10

    def test_two_plane_wave_frozen_values(self, g16):
        # brute-force hand computation: two single bins, equal weight,
        # helicity +1 along z and -1 along x -> spin (-1/2, 0, +1/2)
        st = synthesize(
            [
                ModeSpec(kind="plane", k0=(0, 0, 3), helicity=1),
                ModeSpec(kind="plane", k0=(3, 0, 0), helicity=-1),
            ],
            g16,
        )
        expect = np.array([-0.5, 0.0, 0.5])
        rep = observable_report(st)
        for name, value in rep.spin.items():
            assert np.abs(value - expect).max() < 1e-12, name
        # isolated bins have vanishing finite-difference gradients
        assert np.abs(rep.oam_momentum).max() < 1e-12

    def test_seven_way_equality(self, two_direction_state):
        rep = observable_report(two_direction_state)
        assert rep.max_spin_discrepancy < 1e-10
        assert rep.max_imag_residue < 1e-10


class TestOam:
    def ring(self, grid, charge, helicity=None, polarization=(1, 0, 0)):
        return synthesize(
            [ModeSpec(kind="vortex", k0=(0, 0, 7), sigma_k=1.6, helicity=helicity,
                      polarization=polarization, vortex_charge=charge, ring_radius=7.0)],
            grid,
        )

    def test_charge_sets_axial_oam(self, g32):
        # oracle: the azimuthal phase gradient contributes exactly charge
        # units per quantum of norm; remaining error is the k-stencil
        for charge in (-1, 2):
            st = self.ring(g32, charge)
            assert abs(oam_momentum(st)[2] - charge) < 0.06 * max(1, abs(charge))
            assert abs(oam_position(st)[2] - charge) < 1e-6

    def test_centered_gaussian_has_no_oam(self, g32):
        st = synthesize(
            [ModeSpec(kind="gaussian", k0=(0, 0, 8), sigma_k=1.2, helicity=None,
                      polarization=(1, 0, 0))],
            g32,
        )
        assert np.abs(oam_momentum(st)).max() < 1e-8

    def test_total_angular_momentum(self, g32):
        # sum of independent oracles: J_z = charge + helicity
        for charge, hel in ((2, 1), (-1, 1)):
            st = self.ring(g32, charge, helicity=hel, polarization=None)
            jz = oam_position(st)[2] + spin_canonical(st)[2]
            assert abs(jz - (charge + hel)) < 1e-6

    def test_momentum_position_agreement(self, g32):
        # coarse-grid smoke level; the 1% claims run on n=64 in acceptance
        st = self.ring(g32, 2)
        gap = abs(oam_momentum(st)[2] - oam_position(st)[2])
        assert gap < 0.12

    def test_position_route_matches_position_space_gradient(self, g32):
        """Reference: transform the upper block, then differentiate it by the
        position -> momentum -> position spectral gradient."""
        st = self.ring(g32, 2)
        F = to_position(momentum_field(st.f_upper(), g32))
        grad = np.stack([d.values for d in spectral_gradient(F)])  # (axis, component, x, y, z)
        xg = np.cross(full_grid(g32.x_axes)[:, None], grad, axis=0)
        ref = (-1j * np.sum(np.conj(F.values) * xg, axis=(1, 2, 3, 4))
               * g32.dx**3).real
        assert np.abs(oam_position(st) - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())

    def test_boundary_ratio_comes_from_the_oam_gradient(self, g32, monkeypatch):
        # the phase-peeled block of an evolved state is differentiated once,
        # and its boundary ratio is the one that differentiation measured
        st = evolve(self.ring(g32, 1), 2.0)
        expect = boundary_amplitude_ratio(momentum_field(_peeled_block(st), g32))
        calls = []
        original = kgrid.boundary_amplitude_ratio

        def counted(field):
            calls.append(1)
            return original(field)

        monkeypatch.setattr(kgrid, "boundary_amplitude_ratio", counted)
        oam_momentum(st)
        assert oam_boundary_ratio(st) == expect
        assert len(calls) == 1

    @pytest.mark.parametrize("time", [0.0, 7.25])
    def test_position_shell_share_against_a_shell_mask(self, g32, time):
        # reference: the whole-grid density summed under a mask of the bins
        # with any coordinate at -L/2 or L/2 - dx (index n/2 or n/2 - 1)
        st = evolve(self.ring(g32, 1), time) if time else self.ring(g32, 1)
        x = full_grid(g32.x_axes)
        on_shell = np.any((x == -g32.box_length / 2) | (x == g32.box_length / 2 - g32.dx), axis=0)
        density = np.sum(np.abs(to_position(st.psi).values) ** 2, axis=0)
        expect = np.sum(density[on_shell]) / np.sum(density)
        assert on_shell.sum() == g32.n**3 - (g32.n - 2) ** 3
        assert oam_position_shell(st) == pytest.approx(expect, rel=1e-12)

    def test_repeated_evaluation_is_shared_and_read_only(self, g32):
        st = self.ring(g32, 1)
        assert psi_position(st) is psi_position(st)
        assert oam_position(st) is oam_position(st)
        assert oam_momentum(st) is oam_momentum(st)
        assert nonlocal_spin_density(st) is nonlocal_spin_density(st)
        assert probability(st) is probability(st)  # observable_report, its suite, conservation at t=0
        for shared in (psi_position(st), oam_position(st), nonlocal_spin_density(st)[0]):
            assert not shared.flags.writeable


@pytest.mark.parametrize("time", [0.0, 7.25])
def test_routes_are_bitwise_their_whole_array_forms(two_direction_state, time):
    # the routes work one block, one row or one component at a time; every
    # sum runs in the same order, so every value is the whole-array value
    st = evolve(two_direction_state, time) if time else two_direction_state
    ref = whole_array_routes(st)
    s, diag = nonlocal_spin_density(st)
    assert s.tobytes() == ref["nonlocal"].tobytes()
    assert oam_momentum(st).tobytes() == ref["oam_momentum"].tobytes()
    assert oam_position(st).tobytes() == ref["oam_position_moments"].tobytes()
    assert np.stack(_canonical_density(st)[0]).tobytes() == ref["canonical"].tobytes()
    (real_u, sums_u), (real_l, sums_l) = position_densities(st)
    for real, sums, name in ((real_u, sums_u, "position_upper"), (real_l, sums_l, "position_lower")):
        assert real.tobytes() == ref[name].real.tobytes()
        assert sums.tobytes() == np.sum(ref[name], axis=(1, 2, 3)).tobytes()


@pytest.mark.parametrize("which, time", [("two_direction", 0.0), ("two_direction", 7.25),
                                         ("readme", 0.0)])
def test_oam_position_moments_are_the_cross_integral(two_direction_state, g32, which, time):
    # the moment form sums x_b h_a over the bins before it takes the
    # differences of x x h, so it differs from the integral of x x h by
    # round-off only
    st = two_direction_state if which == "two_direction" else synthesize(README_MODES, g32)
    st = evolve(st, time) if time else st
    ref = whole_array_routes(st)
    cross, moments = ref["oam_position"], ref["oam_position_moments"]
    assert np.abs(moments - cross).max() <= 1e-13 * np.abs(cross).max()
    assert np.abs(oam_position(st) - cross).max() <= 1e-13 * np.abs(cross).max()


@pytest.mark.parametrize("time", [0.0, 7.25])
def test_maxwell_residual_is_bitwise_its_whole_array_form(two_direction_state, time):
    # the curls are formed, transformed and compared one block at a time;
    # maxima are exact, so both residuals are the whole-array ones
    st = evolve(two_direction_state, time) if time else two_direction_state
    report = maxwell_residual(st)
    curl, div = whole_array_maxwell(st)
    assert report.curl_residual.hex() == curl.hex()
    assert report.divergence_residual.hex() == div.hex()

class TestPositionOwnership:
    def test_report_and_candidates_share_one_position_pair(self, two_direction_state, monkeypatch):
        # two momentum- and two position-block densities; the candidates reuse
        # the report's position pair instead of making their own
        calls = []
        original = observables._cross_density

        def counted(f):
            calls.append(1)
            return original(f)

        monkeypatch.setattr(observables, "_cross_density", counted)
        st = PhotonState(two_direction_state.psi)  # a fresh memo
        observable_report(st)
        density_candidates(st)
        assert len(calls) == 4

    def test_release_survives_rebound_routes(self, two_direction_state, monkeypatch):
        # a tracer rebinds every public route of the module with a
        # functools.wraps wrapper; the release must find the entries anyway
        for name, fn in list(vars(observables).items()):
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == observables.__name__):
                wrapper = functools.wraps(fn)(lambda *args, _fn=fn, **kwargs: _fn(*args, **kwargs))
                monkeypatch.setattr(observables, name, wrapper)
        st = PhotonState(two_direction_state.psi)
        report = observables.observable_report(st)
        pos, pair = observables.psi_position(st), observables.position_densities(st)
        kernel = observables.nonlocal_spin_density(st)
        observables.drop_position(st)
        kept = vars(st)["_observables_memo"].values()
        assert not any(value is pos or value is pair or value is kernel for value in kept)
        assert observables.psi_position(st) is not pos
        assert observables.position_densities(st) is not pair
        assert observables.nonlocal_spin_density(st) is not kernel
        # the integrals read from the released arrays come back bitwise
        again = observables.observable_report(st)
        for name in ("position_upper", "position_lower", "kernel_integral"):
            np.testing.assert_array_equal(again.spin[name], report.spin[name])
        assert again.max_imag_residue == report.max_imag_residue


class TestProbability:
    def test_normalized_triple(self, two_direction_state):
        p = probability(two_direction_state)
        assert np.abs(np.array(p) - 1.0).max() < 1e-10

    def test_momentum_block_norm_equality(self, two_direction_state):
        dk3 = two_direction_state.psi.measure
        nu = np.sum(np.abs(two_direction_state.f_upper()) ** 2) * dk3
        nl = np.sum(np.abs(two_direction_state.f_lower()) ** 2) * dk3
        assert abs(nu - nl) < 1e-12

    def test_quadratic_scaling(self, helicity_state):
        psi = momentum_field(2.0 * helicity_state.psi.values, helicity_state.grid)
        st = PhotonState(psi)
        p = probability(st)
        assert np.abs(np.array(p) - 4.0).max() < 1e-9


class TestDensities:
    def test_two_mode_candidates_disagree_pointwise(self, two_direction_state):
        dc = density_candidates(two_direction_state)
        assert dc.spin_gap_upper > 0.05
        assert dc.spin_gap_lower > 0.05
        assert dc.prob_gap_upper > 0.05
        assert dc.prob_gap_lower > 0.05
        assert dc.max_spin_integral_spread < 1e-10
        assert dc.max_prob_integral_spread < 1e-10

    def test_single_mode_candidates_nearly_agree(self, helicity_state):
        # single-beam limit: upper and lower densities become proportional
        dc = density_candidates(helicity_state)
        assert dc.spin_gap_upper < 0.02
        assert dc.prob_gap_upper < 0.02

    def test_probability_density_identities(self, two_direction_state):
        dc = density_candidates(two_direction_state)
        # psi-density is the mean of the block densities by construction
        mean = 0.5 * (dc.prob_density_upper + dc.prob_density_lower)
        assert np.abs(dc.prob_density_psi - mean).max() < 1e-14
        assert dc.prob_density_psi.min() >= 0.0


class TestNonlocalDensity:
    def test_integral_matches_projected_spin(self, two_direction_state):
        _, (integral, imag_residue) = nonlocal_spin_density(two_direction_state)
        assert np.abs(integral - spin_projected(two_direction_state)).max() < 1e-10
        assert imag_residue < 1e-10

    def test_integral_only_route_is_the_density_route(self, two_direction_state):
        # the same rows, summed in the same order; the integral-only route keeps no density
        st = evolve(two_direction_state, 7.25)
        integral, imag_residue = nonlocal_spin_integral(st)
        assert vars(st)["_observables_memo"].keys() == {"psi_position"}
        expect_integral, expect_residue = nonlocal_spin_density(st)[1]
        assert integral.tobytes() == expect_integral.tobytes()
        assert imag_residue == expect_residue

    def test_two_mode_kernel_density_deviates(self, two_direction_state):
        assert density_candidates(two_direction_state).spin_gap_kernel > 0.05

    def test_single_mode_kernel_density_close(self, g32):
        # narrow single mode: kernel density approaches helicity * |Psi|^2
        st = synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 8), sigma_k=0.5, helicity=1)], g32)
        dc = density_candidates(st)
        assert dc.spin_gap_kernel < 0.05
        dens = dc.spin_density_full
        prob = dc.prob_density_psi
        assert np.abs(dens[2] - prob).max() < 0.05 * prob.max()
