import functools
import inspect

import numpy as np
import pytest

from darwinlab import kgrid, observables, suites
from darwinlab.algebra import SPIN
from darwinlab.dynamics import evolve, maxwell_residual
from darwinlab.kgrid import (
    KGrid,
    momentum_field,
    norm_squared,
    to_position,
)
from darwinlab.observables import (
    _canonical_density,
    _spin_density_rows,
    density_planes,
    oam_boundary_ratio,
    oam_momentum,
    oam_position,
    oam_position_shell,
    position_spin,
    probability,
    probability_gap,
    psi_position,
    spin_canonical,
    spin_discrepancies,
    spin_projected,
    spin_routes,
)
from darwinlab.state import ModeSpec, PhotonState, synthesize
from reference import (
    README_MODES,
    full_grid,
    spectral_gradient,
    spin_cross,
    spin_position,
    whole_array_densities,
    whole_array_maxwell,
    whole_array_routes,
)
from test_golden import allowed


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
        for name, (value, _) in spin_routes(st).items():
            assert np.abs(value - expect).max() < 1e-12, name
        # isolated bins have vanishing finite-difference gradients
        assert np.abs(oam_momentum(st)).max() < 1e-12

    def test_seven_way_equality(self, two_direction_state):
        routes = spin_routes(two_direction_state)
        gaps = spin_discrepancies({name: value for name, (value, _) in routes.items()})
        assert len(gaps) == 21
        assert max(gaps.values()) < 1e-10
        assert max(res for _, res in routes.values()) < 1e-10


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

    def test_boundary_ratio_is_computed_once_per_state_and_only_for_itself(
            self, g16, g32, monkeypatch):
        # the ratio is a route of its own, read from the stored upper block:
        # the momentum OAM route and the conservation samples never compute it
        calls = []
        original = kgrid.boundary_amplitude_ratio

        def counted(field):
            calls.append(1)
            return original(field)

        monkeypatch.setattr(kgrid, "boundary_amplitude_ratio", counted)
        suites.run_suites(["conservation"], synthesize(README_MODES, g16))
        assert len(calls) == 0
        suites.run_suites(suites.SUITE_NAMES, synthesize(README_MODES, g16))
        assert len(calls) == 1
        oam_momentum(self.ring(g16, 1))
        assert len(calls) == 1
        # moduli see neither the block scale nor the peeled phase
        st = evolve(self.ring(g32, 1), 2.0)
        peeled = st.f_upper() * g32.phase(-st.time)
        expect = original(momentum_field(peeled, g32))
        assert oam_boundary_ratio(st) == pytest.approx(expect, rel=1e-15, abs=0.0)

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
        assert position_spin(st) is position_spin(st)
        assert probability(st) is probability(st)  # its suite, the release step, conservation at t=0
        for shared in (psi_position(st), oam_position(st), position_spin(st)[0]["kernel_integral"][0]):
            assert not shared.flags.writeable


@pytest.mark.parametrize("time", [0.0, 7.25])
def test_routes_are_bitwise_their_whole_array_forms(two_direction_state, time):
    # the routes work one block, one row or one component at a time; every
    # sum runs in the same order, so every value is the whole-array value
    st = evolve(two_direction_state, time) if time else two_direction_state
    ref = whole_array_routes(st)
    upper, lower, kernel = (np.stack(rows) for rows in zip(
        *([row.copy() for row in rows] for rows in _spin_density_rows(st))))
    assert kernel.real.tobytes() == ref["nonlocal"].tobytes()
    assert oam_momentum(st).tobytes() == ref["oam_momentum"].tobytes()
    assert oam_position(st).tobytes() == ref["oam_position_moments"].tobytes()
    assert np.stack(_canonical_density(st)[0]).tobytes() == ref["canonical"].tobytes()
    routes = position_spin(st)[0]
    for density, name in ((upper, "position_upper"), (lower, "position_lower")):
        assert density.tobytes() == ref[name].tobytes()
        integral = (np.sum(ref[name], axis=(1, 2, 3)) * st.grid.dx**3).real
        assert routes[name][0].tobytes() == integral.tobytes()


def _dk_08_state():
    return synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 4), sigma_k=0.8, helicity=1),
                       ModeSpec(kind="gaussian", k0=(4, 0, 0), sigma_k=0.8, helicity=-1)],
                      KGrid(16, 0.8))


@pytest.mark.parametrize("which, time", [("two_direction", 0.0), ("two_direction", 7.25),
                                         ("readme", 0.0), ("dk_0.8", 0.0)])
def test_fold_and_planes_are_the_whole_array_densities(two_direction_state, g32, which, time):
    # one pass over the rows against the seven densities as whole arrays:
    # bitwise for the upper, lower and full densities and the probabilities,
    # and within the goldens' rule wherever the kernel density enters
    st = {"two_direction": lambda: two_direction_state,
          "readme": lambda: synthesize(README_MODES, g32), "dk_0.8": _dk_08_state}[which]()
    st = evolve(st, time) if time else PhotonState(st.psi)  # a fresh memo
    ref = whole_array_densities(st)
    m = st.grid.dx**3
    _, spread, gap_upper, gap_kernel = position_spin(st)
    integrals = [np.sum(ref[name], axis=(1, 2, 3)) * m
                 for name in ("spin_full", "spin_upper", "spin_lower", "spin_kernel")]
    expect_spread = max(float(np.abs(a - b).max()) for a in integrals for b in integrals)
    assert abs(spread - expect_spread) <= allowed(expect_spread, 1e-10)
    assert gap_upper.hex() == kgrid.relative_gap(ref["spin_upper"], ref["spin_full"]).hex()
    expect_gap = kgrid.relative_gap(ref["spin_kernel"], ref["spin_full"])
    assert abs(gap_kernel - expect_gap) <= allowed(expect_gap, None)
    probs = [float(np.sum(ref[name])) * m for name in ("prob_psi", "prob_upper", "prob_lower")]
    assert probability(st) == tuple(probs)
    assert probability_gap(st).hex() == kgrid.relative_gap(
        [ref["prob_upper"]], [ref["prob_psi"]]).hex()
    for axis, component, index in ((0, 0, 3), (1, 2, st.grid.n // 2), (2, 1, st.grid.n - 1)):
        planes = density_planes(st, axis, index, component)
        assert len(planes) == 7
        for name, plane in planes.items():
            expect = np.take(ref[name] if name.startswith("prob") else ref[name][component],
                             index, axis=axis)
            if name == "spin_kernel":
                bound = np.maximum(1e-13 * np.abs(expect), allowed(0.0, None))
                assert np.all(np.abs(plane - expect) <= bound), name
            else:
                assert plane.tobytes() == expect.tobytes(), name


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
        # two momentum- and two position-block densities; the densities
        # suite reads the spin routes' one pass instead of making its own
        calls = []
        original = observables._cross_density

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(observables, "_cross_density", counted)
        st = PhotonState(two_direction_state.psi)  # a fresh memo
        spin_routes(st)
        suites.suite_densities(st, suites.DEFAULT_TIMES)
        assert len(calls) == 4

    def test_release_survives_rebound_routes(self, two_direction_state, monkeypatch):
        # a tracer rebinds every public route of the module with a
        # functools.wraps wrapper; the release must find the entry anyway
        for name, fn in list(vars(observables).items()):
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == observables.__name__):
                wrapper = functools.wraps(fn)(lambda *args, _fn=fn, **kwargs: _fn(*args, **kwargs))
                monkeypatch.setattr(observables, name, wrapper)
        st = PhotonState(two_direction_state.psi)
        routes = observables.spin_routes(st)
        pos = observables.psi_position(st)
        observables.drop_position(st)
        memo = vars(st)["_observables_memo"]
        assert not any(value is pos for value in memo.values())
        assert observables.psi_position(st) is not pos
        # the routes read from a transform made again come back bitwise
        del memo["position_spin"]
        again = observables.spin_routes(st)
        for name in ("position_upper", "position_lower", "kernel_integral"):
            np.testing.assert_array_equal(again[name][0], routes[name][0])
            assert again[name][1] == routes[name][1]


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
        _, spin_spread, gap_upper, _ = position_spin(two_direction_state)
        p = probability(two_direction_state)
        assert gap_upper > 0.05
        assert probability_gap(two_direction_state) > 0.05
        assert spin_spread < 1e-10
        assert max(abs(a - b) for a in p for b in p) < 1e-10

    @pytest.mark.parametrize("modes", ["two_direction", "readme", "linear_gaussian"])
    def test_lower_block_gap_repeats_the_upper(self, modes, two_direction_state, g16, g32):
        # the full densities are the block means, so upper - full = -(lower - full)
        st = {"two_direction": lambda: two_direction_state,
              "readme": lambda: synthesize(README_MODES, g32),
              "linear_gaussian": lambda: synthesize(
                  [ModeSpec(kind="gaussian", k0=(1, 2, 3), sigma_k=0.8, helicity=None,
                            polarization=(1, 0, 0))], g16)}[modes]()
        d = whole_array_densities(st)
        for lower, upper, full in (
                (d["spin_lower"], d["spin_upper"], d["spin_full"]),
                ([d["prob_lower"]], [d["prob_upper"]], [d["prob_psi"]])):
            gap = kgrid.relative_gap(upper, full)
            assert gap > 0.0
            assert abs(kgrid.relative_gap(lower, full) - gap) <= 4 * np.spacing(gap)

    def test_single_mode_candidates_nearly_agree(self, helicity_state):
        # single-beam limit: upper and lower densities become proportional
        assert position_spin(helicity_state)[2] < 0.02
        assert probability_gap(helicity_state) < 0.02

    def test_probability_density_identities(self, two_direction_state):
        n = two_direction_state.grid.n
        planes = density_planes(two_direction_state, 2, n // 2, 2)
        # psi-density is the mean of the block densities, and |Psi|^2
        mean = 0.5 * (planes["prob_upper"] + planes["prob_lower"])
        assert np.abs(planes["prob_psi"] - mean).max() < 1e-14
        squares = np.sum(np.abs(psi_position(two_direction_state)[:, :, :, n // 2]) ** 2, axis=0)
        assert np.abs(planes["prob_psi"] - squares).max() < 1e-14
        assert planes["prob_psi"].min() >= 0.0


class TestNonlocalDensity:
    def test_integral_matches_projected_spin(self, two_direction_state):
        integral, imag_residue = position_spin(two_direction_state)[0]["kernel_integral"]
        assert np.abs(integral - spin_projected(two_direction_state)).max() < 1e-10
        assert imag_residue < 1e-10

    def test_two_mode_kernel_density_deviates(self, two_direction_state):
        assert position_spin(two_direction_state)[3] > 0.05

    def test_single_mode_kernel_density_close(self, g32):
        # narrow single mode: kernel density approaches helicity * |Psi|^2
        st = synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 8), sigma_k=0.5, helicity=1)], g32)
        assert position_spin(st)[3] < 0.05
        d = whole_array_densities(st)
        dens = d["spin_full"]
        prob = d["prob_psi"]
        assert np.abs(dens[2] - prob).max() < 0.05 * prob.max()
