import numpy as np
import pytest
from scipy.integrate import quad

from darwinlab import fieldbridge
from darwinlab.fieldbridge import (
    extract_positive_frequency,
    hermitian_symmetry_residual,
    kernel_pair_check,
    roundtrip_gap,
    solenoidal_residual,
)
from darwinlab.dynamics import maxwell_residual
from darwinlab.kgrid import KGrid, momentum_field, relative_gap, to_position
from darwinlab.state import ModeSpec, synthesize
from darwinlab.suites import run_suites
from reference import (
    classical_from_kspace,
    classical_from_state,
    complex_pair,
    full_grid,
    landau_peierls_transform,
    nonlocal_relation_check,
    state_from_classical,
)


class TestClassicalFromState:
    def test_coupling_relation(self, two_direction_state):
        # h = w x e per bin (natural units)
        pair = complex_pair(two_direction_state)
        g = two_direction_state.grid
        dev = np.abs(pair.h - np.cross(g.khat, pair.e, axis=0)).max()
        assert dev < 1e-12 * np.abs(pair.h).max()

    def test_real_fields_are_real(self, two_direction_state):
        state, g = two_direction_state, two_direction_state.grid
        cf = fieldbridge.classical_fourier_data(state)
        for block in (state.f_upper(), state.f_lower()):
            assert np.isrealobj(fieldbridge.real_field(block, g))
        assert hermitian_symmetry_residual(cf.eps_k) < 1e-12
        assert hermitian_symmetry_residual(cf.eta_k) < 1e-12
        assert solenoidal_residual(cf.eps_k, cf.grid) < 1e-12

    def test_classical_fields_solve_maxwell(self, helicity_state):
        # oracle: the independent finite-difference Maxwell check
        report = maxwell_residual(helicity_state)
        assert report.curl_residual < 1e-6

    def test_real_fields_satisfy_curl_equation(self, helicity_state):
        # eps0 dE/dt = curl H for the real classical fields, centered stencil
        from darwinlab.dynamics import default_maxwell_dt, evolve
        from darwinlab.kgrid import position_field, spectral_curl

        g = helicity_state.grid
        dt = default_maxwell_dt(g)
        E_real = {offset: fieldbridge.real_field(evolve(helicity_state, offset).f_upper(), g)
                  for offset in (-dt, dt)}
        dE_dt = (E_real[dt] - E_real[-dt]) / (2 * dt)
        H_real = fieldbridge.real_field(helicity_state.f_lower(), g)
        curl_h = spectral_curl(position_field(H_real, g)).real
        scale = np.abs(curl_h).max()
        assert np.abs(dE_dt - curl_h).max() < 1e-6 * scale

    def test_roundtrip_identity(self, two_direction_state):
        cf = fieldbridge.classical_fourier_data(two_direction_state)
        back = state_from_classical(cf)
        dev = np.abs(back.psi - two_direction_state.psi).max()
        assert dev < 1e-10 * np.abs(two_direction_state.psi).max()
        assert back.norm == pytest.approx(1.0, abs=1e-10)
        assert back.rqc_residual < 1e-12

    def test_double_roundtrip_idempotent(self, helicity_state):
        cf1 = fieldbridge.classical_fourier_data(helicity_state)
        st1 = state_from_classical(cf1)
        cf2 = fieldbridge.classical_fourier_data(st1)
        st2 = state_from_classical(cf2)
        dev = np.abs(st2.psi - st1.psi).max()
        assert dev < 1e-10 * np.abs(st1.psi).max()


class TestStateFromClassical:
    def test_standing_wave_extraction(self, g32):
        # real solenoidal snapshot built in k-space: x-polarized gaussians at
        # +/- 8 z with no magnetic data; extraction keeps the forward halves
        k0 = np.array([0.0, 0.0, 8.0])
        kvec = full_grid(g32.k_axes)
        env = (
            np.exp(-np.sum((kvec - k0[:, None, None, None]) ** 2, axis=0) / 2.0)
            + np.exp(-np.sum((kvec + k0[:, None, None, None]) ** 2, axis=0) / 2.0)
        )
        eps = env * np.array([1.0, 0, 0])[:, None, None, None]
        eps -= np.sum(g32.khat * eps, axis=0) * g32.khat
        eps[:, 0, 0, 0] = 0.0
        cf = classical_from_kspace(eps, np.zeros_like(eps), g32)
        st = state_from_classical(cf)
        assert st.norm > 0.0
        assert st.rqc_residual < 1e-12
        # the forward-z and backward-z halves carry equal weight
        weight_fwd = np.sum(np.abs(st.psi[:, :, :, 8]) ** 2)
        weight_bwd = np.sum(np.abs(st.psi[:, :, :, -8]) ** 2)
        assert weight_fwd == pytest.approx(weight_bwd, rel=1e-10)

    def test_rejects_non_hermitian(self, g32, helicity_state):
        pair = complex_pair(helicity_state)
        with pytest.raises(ValueError, match="Hermitian"):
            classical_from_kspace(pair.e, pair.h, g32)

    def test_rejects_dc_component(self, g16):
        eps = np.zeros((3,) + g16.shape, dtype=complex)
        eps[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="DC"):
            classical_from_kspace(eps, np.zeros_like(eps), g16)

    def test_negative_pairing_annihilated(self, helicity_state):
        # a reversed-frequency pair (coupling sign flipped) must extract to zero
        pair = complex_pair(helicity_state)
        e, h = extract_positive_frequency(pair.e, -pair.h, helicity_state.grid)
        scale = np.abs(pair.e).max()
        assert np.abs(e).max() < 1e-10 * scale
        assert np.abs(h).max() < 1e-10 * scale

    def test_extraction_is_projector(self, helicity_state):
        # forward pairing passes through up to the sqrt(2) bookkeeping
        pair = complex_pair(helicity_state)
        e1, h1 = extract_positive_frequency(pair.e, pair.h, helicity_state.grid)
        assert np.abs(e1 - np.sqrt(2.0) * pair.e).max() < 1e-12 * np.abs(pair.e).max()


class TestRoundtripGap:
    def test_equals_gap_of_the_whole_state(self, two_direction_state):
        cf = fieldbridge.classical_fourier_data(two_direction_state)
        whole = state_from_classical(cf).psi
        assert roundtrip_gap(cf, two_direction_state) == relative_gap(
            whole, two_direction_state.psi)

    @pytest.mark.parametrize("poisoned", [0, 1])
    def test_non_finite_block_fails_the_row(self, two_direction_state, monkeypatch, poisoned):
        # a NaN in either block, the second one too: the builtin max(0.0, nan)
        # is 0.0, so a gap folded block by block could lose it
        original = fieldbridge.extract_positive_frequency

        def with_nan(*args, **kwargs):
            for i, block in enumerate(original(*args, **kwargs)):
                if i == poisoned:
                    block[1, 2, 3, 4] = np.nan
                yield block
                del block

        monkeypatch.setattr(fieldbridge, "extract_positive_frequency", with_nan)
        (rep,) = run_suites(["fieldbridge"], two_direction_state)
        row = {c.name: c for c in rep.checks}["classical_roundtrip"]
        assert not row.passed and np.isnan(row.value)
        assert "non-finite" in row.info


class TestNonlocalRelation:
    def test_routes_agree(self, two_direction_state):
        cf = classical_from_state(two_direction_state)
        rep = nonlocal_relation_check(cf)
        assert rep.e_route_gap < 1e-10
        assert rep.h_route_gap < 1e-10

    def test_real_part_identity(self, two_direction_state):
        cf = classical_from_state(two_direction_state)
        rep = nonlocal_relation_check(cf)
        assert rep.e_real_part_residual < 1e-12
        assert rep.h_real_part_residual < 1e-12


@pytest.mark.parametrize("fixture", ["two_direction_state", "helicity_state"])
def test_suite_rows_are_bitwise_the_whole_snapshot_route(request, fixture):
    # the suite makes the Fourier data first and one real field at a time,
    # forming eps_k again for the H chain; each row is still the value of the
    # whole snapshot, with both real fields beside their Fourier data
    state = request.getfixturevalue(fixture)
    cf = classical_from_state(state)
    nl = nonlocal_relation_check(cf)
    expected = {
        "classical_roundtrip": relative_gap(state_from_classical(cf).psi, state.psi),
        "hermitian_symmetry": max(hermitian_symmetry_residual(cf.eps_k),
                                  hermitian_symmetry_residual(cf.eta_k)),
        "real_part_identity": max(nl.e_real_part_residual, nl.h_real_part_residual),
        "nonlocal_route_gap": nl.combined,
    }
    (rep,) = run_suites(["fieldbridge"], state)
    assert {c.name: c.value.hex() for c in rep.checks} == {
        name: float(value).hex() for name, value in expected.items()}


class TestLandauPeierls:
    def test_matches_state_blocks(self, two_direction_state):
        pair = complex_pair(two_direction_state)
        F_u, F_l = landau_peierls_transform(pair)
        pos = to_position(momentum_field(two_direction_state.psi, two_direction_state.grid))
        dev_u = np.abs(F_u - np.sqrt(2.0) * pos[:3]).max()
        dev_l = np.abs(F_l - np.sqrt(2.0) * pos[3:]).max()
        scale = np.abs(pos).max()
        assert dev_u < 1e-12 * scale and dev_l < 1e-12 * scale

    def test_wavefunction_broader_than_field(self, g32):
        # the 1/sqrt(k) weighting reddens the spectrum, widening the packet
        st = synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 6), sigma_k=1.8, helicity=1)], g32)
        pair = complex_pair(st)
        F_u, _ = landau_peierls_transform(pair)

        def second_moment(values):
            dens = np.sum(np.abs(values) ** 2, axis=0)
            return float(np.sum(dens * g32.rmag**2) / np.sum(dens))

        assert second_moment(F_u) / second_moment(pair.E) > 1.0

    def test_not_proportional_for_two_shell_spectrum(self, g32):
        # two different |k| shells: no single constant relates F_u and E
        st = synthesize(
            [
                ModeSpec(kind="gaussian", k0=(0, 0, 4), sigma_k=0.8, helicity=1),
                ModeSpec(kind="gaussian", k0=(0, 0, 10), sigma_k=0.8, helicity=1),
            ],
            g32,
        )
        pair = complex_pair(st)
        F_u, _ = landau_peierls_transform(pair)
        E = pair.E.ravel()
        F = F_u.ravel()
        beta = np.vdot(E, F) / np.vdot(E, E)  # least-squares scalar fit
        gap = np.abs(F - beta * E).max() / np.abs(F).max()
        assert gap > 1e-3


def quad_oracle(kind, grid, k):
    """Independent adaptive-quadrature transform of the regularized kernel."""
    dx, L = grid.dx, grid.box_length

    def kern(r):
        if r < dx or r >= L / 2:
            return 0.0
        v = 1.0 / (2.0 * r**2.5) if kind == "half_power" else np.sqrt(2.0 / np.pi) / r**2
        if r > L / 4:
            v *= 0.5 * (1.0 + np.cos(np.pi * (r - L / 4) / (L / 4)))
        return v

    edges = np.unique(np.concatenate([[dx, L / 4], np.arange(dx, L / 2, np.pi / k), [L / 2]]))
    edges = np.sort(edges[(edges >= dx) & (edges <= L / 2)])
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(lambda r: r * kern(r) * np.sin(k * r), a, b, limit=200)
        total += val
    return np.sqrt(2.0 / np.pi) * total / k


class TestKernelPairs:
    def test_reference_against_quad_oracle(self):
        # the built-in Simpson reference must agree with adaptive quadrature
        from darwinlab.fieldbridge import _radial_reference

        g = KGrid(64, 0.25)
        ks = np.array([1.0, 1.4, 1.9])
        for kind in ("inverse_k", "half_power"):
            ref = _radial_reference(kind, g, ks)
            for k, r in zip(ks, ref):
                assert r == pytest.approx(quad_oracle(kind, g, k), rel=1e-6)

    def test_midband_accuracy_n64(self):
        g = KGrid(64, 0.25)
        for kind in ("inverse_k", "half_power"):
            rep = kernel_pair_check(kind, g)
            assert rep.max_rel_error < 0.05
            shell = (g.kmag >= rep.k_low) & (g.kmag <= rep.k_high)
            assert shell.sum() > 100

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError, match="n >= 32"):
            kernel_pair_check("inverse_k", KGrid(16, 1.0))

    def test_rejects_unknown_kind(self, g32):
        with pytest.raises(ValueError, match="kind"):
            kernel_pair_check("cauchy", g32)


class TestComputedOnce:
    """The fieldbridge suite reuses what the bridge has already computed."""

    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        original = getattr(fieldbridge, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(fieldbridge, name, wrapper)
        return calls

    def test_each_hermitian_residual_once_per_suite(self, two_direction_state, monkeypatch):
        calls = self.counted(monkeypatch, "hermitian_symmetry_residual")
        (rep,) = run_suites(["fieldbridge"], two_direction_state)
        rows = {c.name: c for c in rep.checks}
        assert len(calls) == 2  # eps_k and eta_k, shared by the validation and the row
        assert rows["hermitian_symmetry"].passed and rows["classical_roundtrip"].passed

    def test_relation_check_makes_one_cross_product_per_block(self, two_direction_state,
                                                              monkeypatch):
        state, g = two_direction_state, two_direction_state.grid
        cf = fieldbridge.classical_fourier_data(state)
        E_real, H_real = (fieldbridge.real_field(f, g) for f in (state.f_upper(), state.f_lower()))
        eps_k = cf.eps_k.copy()  # the E chain consumes its own Fourier data
        calls = self.counted(monkeypatch, "cross")
        e_gap, _ = fieldbridge.nonlocal_gaps(cf.eps_k, cf.eta_k, E_real, -1, g)
        h_gap, _ = fieldbridge.nonlocal_gaps(cf.eta_k, eps_k, H_real, +1, g)
        # (1/k) k x partner serves both the extraction and the imaginary part
        assert len(calls) == 2
        assert max(e_gap, h_gap) < 1e-10
