import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import darwinlab
from darwinlab import cli, observables
from darwinlab.kgrid import (
    KGrid,
    boundary_amplitude_ratio,
    cross,
    dot,
    k_gradient,
    max_abs,
    momentum_field,
    norm,
    norm_squared,
    position_field,
    relative_gap,
    reverse_bins,
    spectral_curl,
    to_momentum,
    to_position,
)
from darwinlab.dynamics import default_maxwell_dt
from darwinlab.state import ModeSpec, PhotonState, synthesize
from reference import full_grid, spectral_divergence, spectral_gradient


def random_field(grid, rng, ncomp=3):
    vals = rng.normal(size=(ncomp,) + grid.shape) + 1j * rng.normal(size=(ncomp,) + grid.shape)
    return momentum_field(vals, grid)


class TestGridGeometry:
    def test_box_arithmetic(self):
        g = KGrid(16, 0.25)
        assert g.box_length == pytest.approx(8 * np.pi)
        assert g.dx == pytest.approx(np.pi / 2)

    @pytest.mark.parametrize("n, dk", [(8, 0.7), (16, 1.0)])
    def test_axes_are_the_full_grids(self, n, dk):
        g = KGrid(n, dk)
        for axes, line in ((g.k_axes, g.k1d), (g.x_axes, g.x1d)):
            meshed = np.stack(np.meshgrid(line, line, line, indexing="ij"))
            assert np.array_equal(full_grid(axes), meshed)
        # kmag, khat and rmag come from the axes, bitwise as from the full grids
        kvec = full_grid(g.k_axes)
        kmag = norm(kvec)
        khat = kvec / np.where(kmag > 0.0, kmag, 1.0)
        khat[:, 0, 0, 0] = 0.0
        assert g.kmag.tobytes() == kmag.tobytes() and g.khat.tobytes() == khat.tobytes()
        assert g.rmag.tobytes() == norm(full_grid(g.x_axes)).tobytes()

    @pytest.mark.filterwarnings("error")
    def test_time_in_range_iff_the_phase_is_finite(self, g16):
        limit = np.finfo(float).max / g16.k_max
        for t in (0.0, 0.99 * limit, -0.99 * limit):
            assert g16.time_in_range(t) and np.isfinite(g16.kmag * t).all()
        for t in (1.01 * limit, -1.01 * limit, np.inf, np.nan):
            assert not g16.time_in_range(t)

    @pytest.mark.parametrize("t", ["maxwell_dt", 0.37, 1.0, 7.25, 10.0, 1e5])
    def test_backward_phase_is_the_conjugate_forward_phase(self, g16, g32, t):
        # dynamics.maxwell_residual forms phase(-dt) as conj(phase(dt)); this
        # rests on the libm's exp(i x) giving cos and sin with cos(-x) = cos(x)
        # and sin(-x) = -sin(x) exactly.  Only the zero imaginary part of the
        # DC bin differs, in its sign: it changes only signed zeros, which the
        # residuals, maxima of moduli, do not see.
        for g in (g16, g32):
            time = default_maxwell_dt(g) if t == "maxwell_dt" else t
            conj, backward = np.conj(g.phase(time)), g.phase(-time)
            assert np.array_equal(conj, backward)
            backward[0, 0, 0] = conj[0, 0, 0]
            assert conj.tobytes() == backward.tobytes()

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("dk", [1e-3, 0.37, 1.0, 37.0])
    def test_phase_is_the_whole_grid_exponential(self, n, dk):
        # the phase is exponentiated on one octant and gathered by |signed
        # index|; compared as bytes, so the signed zeros count too
        g = KGrid(n, dk)
        for t in (0.0, -0.0, default_maxwell_dt(g), -0.37, 7.25, 1e5, -1e5):
            assert g.phase(t).tobytes() == np.exp(-1j * g.kmag * t).tobytes(), t

    def test_dc_bin_is_origin(self, g16):
        assert np.abs(full_grid(g16.k_axes)[:, 0, 0, 0]).max() == 0.0
        assert np.count_nonzero(g16.kmag == 0.0) == 1

    def test_index_negation_symmetry(self, g16):
        # k(-i) = -k(i) except on the Nyquist row
        k = g16.k1d
        for i in range(1, g16.n):
            if i == g16.n // 2:
                continue
            assert k[(-i) % g16.n] == -k[i]

    @pytest.mark.parametrize("n", [7, 12, 4, 0])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            KGrid(n, 1.0)

    def test_rejects_bad_dk(self):
        with pytest.raises(ValueError):
            KGrid(16, 0.0)

    # dx^3 overflows, dk^3 underflows to zero, dk^3 overflows, and (at n=16)
    # the box volume n^3 dk^3 that scales the position transform overflows
    @pytest.mark.parametrize("dk", [1e-200, 1e-320, 1e103, 1e102])
    def test_rejects_dk_whose_volumes_leave_range(self, dk):
        with pytest.raises(ValueError, match="bin or box volume out of floating-point range"):
            KGrid(16, dk)

    def test_reverse_bins_is_the_per_axis_loop(self, g16, rng):
        arr = rng.normal(size=(6,) + g16.shape) + 1j * rng.normal(size=(6,) + g16.shape)
        expect = arr
        for axis in (1, 2, 3):
            expect = np.roll(np.flip(expect, axis=axis), 1, axis=axis)
        assert reverse_bins(arr).tobytes() == expect.tobytes()

    def test_reverse_bins_involution(self, g16, rng):
        arr = rng.normal(size=(3,) + g16.shape)
        assert np.array_equal(reverse_bins(reverse_bins(arr)), arr)
        # reversal maps the k vector to its negative away from the Nyquist row
        keep = np.ones(g16.n, dtype=bool)
        keep[g16.n // 2] = False
        idx = np.flatnonzero(keep)
        sub = np.ix_(range(3), idx, idx, idx)
        kvec = full_grid(g16.k_axes)
        assert np.abs((reverse_bins(kvec) + kvec)[sub]).max() == 0.0


class TestTransforms:
    def test_roundtrip(self, g16, rng):
        f = random_field(g16, rng)
        back = to_momentum(to_position(f))
        assert np.abs(back.values - f.values).max() < 1e-12 * np.abs(f.values).max()

    @pytest.mark.filterwarnings("error")
    def test_transform_that_overflows_raises(self):
        # a finite field on a grid whose box volume is in range: the scaled
        # transform of the DC bin, 1e80 n^3 dk^3 / (2 pi)^1.5 / n^3, overflows
        grid = KGrid(16, 1e80)
        vals = np.zeros((1,) + grid.shape, dtype=complex)
        vals[0, 0, 0, 0] = 1e80
        with pytest.raises(FloatingPointError, match="overflow"):
            to_position(momentum_field(vals, grid))

    def test_parseval(self, g16, rng):
        f = random_field(g16, rng)
        F = to_position(f)
        a, b = norm_squared(f), norm_squared(F)
        assert abs(a - b) < 1e-12 * a

    def test_single_bin_plane_wave(self, g16):
        vals = np.zeros((1,) + g16.shape, dtype=complex)
        idx = (1, 0, 2)
        vals[0][idx] = 1.0
        F = to_position(momentum_field(vals, g16))
        k0 = full_grid(g16.k_axes)[:, 1, 0, 2]
        phase = np.exp(1j * np.einsum("axyz,a->xyz", full_grid(g16.x_axes), k0))
        expect = phase * g16.dk**3 / (2 * np.pi) ** 1.5
        assert np.abs(F.values[0] - expect).max() < 1e-13

    def test_gaussian_pair_closed_form(self):
        # oracle: analytic transform of a gaussian, exp(-|k-k0|^2/(2 s^2))
        # -> s^3 exp(i k0.x) exp(-s^2 |x|^2 / 2); width chosen so both the
        # spectral tail at the band edge and the position tail at the box
        # edge are below round-off
        g = KGrid(64, 0.5)
        s = 1.6
        k0 = np.array([0.0, 0.0, 3.0])
        kvec, xvec = full_grid(g.k_axes), full_grid(g.x_axes)
        f = np.exp(-np.sum((kvec - k0[:, None, None, None]) ** 2, axis=0) / (2 * s**2)).astype(complex)
        F = to_position(momentum_field(f[None], g))
        expect = s**3 * np.exp(1j * np.einsum("axyz,a->xyz", xvec, k0)) * np.exp(-s**2 * g.rmag**2 / 2)
        assert np.abs(F.values[0] - expect).max() < 1e-10

    def test_hermitian_symmetry_of_real_field(self, g16, rng):
        real_vals = rng.normal(size=(3,) + g16.shape).astype(complex)
        f = to_momentum(position_field(real_vals, g16))
        assert np.abs(f.values - np.conj(reverse_bins(f.values))).max() < 1e-13

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_linearity(self, seed):
        g = KGrid(8, 1.0)
        r = np.random.default_rng(seed)
        a = random_field(g, r)
        b = random_field(g, r)
        lhs = to_position(momentum_field(2.0 * a.values - 1j * b.values, g)).values
        rhs = 2.0 * to_position(a).values - 1j * to_position(b).values
        assert np.abs(lhs - rhs).max() < 1e-12

    @pytest.mark.parametrize("ncomp", [1, 3, 6])
    def test_in_place_transform_is_bitwise_the_copying_one(self, g16, rng, ncomp):
        f = random_field(g16, rng, ncomp)
        expect = to_position(f).values
        handed_over = f.values.copy()
        out = to_position(momentum_field(handed_over, g16), overwrite=True)
        assert out.values is handed_over and out.values.tobytes() == expect.tobytes()
        x = position_field(expect, g16)
        handed_over = expect.copy()
        out = to_momentum(position_field(handed_over, g16), overwrite=True)
        assert out.values is handed_over
        assert out.values.tobytes() == to_momentum(x).values.tobytes()

    def test_component_last_values_rejected(self, g16, rng):
        values = rng.normal(size=g16.shape + (6,)).astype(complex)
        with pytest.raises(ValueError, match=r"\(c, n, n, n\)"):
            momentum_field(values, g16)

    def test_representation_guard(self, g16, rng):
        f = random_field(g16, rng)
        with pytest.raises(ValueError, match="position"):
            to_momentum(f)
        with pytest.raises(ValueError, match="momentum"):
            to_position(to_position(f))


class TestKGradient:
    def gaussian(self, g, s=1.5, k0=(0.0, 0.0, 5.0)):
        k0 = np.asarray(k0)
        offset = full_grid(g.k_axes) - k0[:, None, None, None]
        f = np.exp(-np.sum(offset**2, axis=0) / (2 * s**2))
        return f.astype(complex), k0, s

    def test_gaussian_derivative(self, g32):
        # oracle: analytic gradient -(k - k0)/s^2 * f
        f, k0, s = self.gaussian(g32)
        field = momentum_field(f[None], g32)
        assert boundary_amplitude_ratio(field) <= 1e-8
        scale = np.abs(f).max() / s
        for a in range(3):
            exact = -(g32.k_axes[a] - k0[a]) / s**2 * f
            err = np.abs(k_gradient(field, a).values[0] - exact).max()
            assert err < 0.2 * scale

    def test_convergence_factor(self):
        # halving dk must reduce the gaussian-derivative error about fourfold
        def err(n, dk):
            g = KGrid(n, dk)
            f, k0, s = self.gaussian(g)
            field = momentum_field(f[None], g)
            worst = 0.0
            for a in range(3):
                exact = -(g.k_axes[a] - k0[a]) / s**2 * f
                worst = max(worst, np.abs(k_gradient(field, a).values[0] - exact).max())
            return worst

        factor = err(32, 1.0) / err(64, 0.5)
        assert 3.5 < factor < 4.5

    @pytest.mark.parametrize("n, dk, ncomp", [(8, 1.0, 1), (16, 0.37, 3), (32, 1.0, 3)])
    def test_bitwise_np_gradient_of_the_unwrapped_field(self, rng, n, dk, ncomp):
        # the stencils run across the FFT wrap instead of on an fftshifted copy
        g = KGrid(n, dk)
        f = random_field(g, rng, ncomp)
        unwrapped = np.fft.fftshift(f.values, axes=(1, 2, 3))
        for a in range(3):
            d = np.gradient(unwrapped, dk, axis=a + 1, edge_order=2)
            expect = np.fft.ifftshift(d, axes=(1, 2, 3))
            assert k_gradient(f, a).values.tobytes() == expect.tobytes(), a
            for c in range(ncomp):  # one component at a time, as the OAM route takes it
                one = momentum_field(f.values[c:c + 1], g)
                assert k_gradient(one, a).values.tobytes() == expect[c:c + 1].tobytes()

    def test_constant_field(self, g16):
        f = momentum_field(np.ones((1,) + g16.shape, dtype=complex), g16)
        interior = np.fft.fftshift(k_gradient(f, 0).values[0])[1:-1, 1:-1, 1:-1]
        assert np.abs(interior).max() < 1e-14

    def test_linear_field_exact(self, g16):
        f = momentum_field(full_grid(g16.k_axes)[0:1].astype(complex), g16)
        assert np.abs(k_gradient(f, 0).values - 1.0).max() < 1e-13
        assert np.abs(k_gradient(f, 1).values).max() < 1e-13
        assert np.abs(k_gradient(f, 2).values).max() < 1e-13

    def test_boundary_warning(self, g16):
        f = momentum_field(np.ones((1,) + g16.shape, dtype=complex), g16)
        assert boundary_amplitude_ratio(f) == 1.0  # far above 1e-8, where the stencils hold

    def test_boundary_ratio_reads_the_shifted_outer_faces(self, g16, rng):
        # the outermost shell is the first and last face of each axis of the
        # fftshifted moduli: FFT indices n/2 and n/2 - 1
        f = random_field(g16, rng)
        shifted = np.fft.fftshift(norm(f.values))
        edge = max(np.take(shifted, i, axis=axis).max() for axis in range(3) for i in (0, -1))
        assert boundary_amplitude_ratio(f) == edge / shifted.max()


class TestSpectralDerivatives:
    def test_curl_single_mode(self):
        # oracle: curl of (sin k0 z, 0, 0) is (0, k0 cos k0 z, 0)
        g = KGrid(32, 1.0)
        k0 = 3.0  # multiple of dk so the mode is exactly on-grid
        z = full_grid(g.x_axes)[2]
        F = np.zeros((3,) + g.shape, dtype=complex)
        F[0] = np.sin(k0 * z)
        curl = spectral_curl(position_field(F, g))
        expect = np.zeros_like(F)
        expect[1] = k0 * np.cos(k0 * z)
        assert np.abs(curl.values - expect).max() < 1e-11

    def test_gradient_field_is_curl_free(self):
        g = KGrid(32, 1.0)
        scalar = np.exp(-2.0 * g.rmag**2).astype(complex)
        grads = spectral_gradient(position_field(scalar[None], g))
        F = np.concatenate([c.values for c in grads])
        curl = spectral_curl(position_field(F, g))
        assert np.abs(curl.values).max() < 1e-10

    def test_divergence_of_transverse_field(self, helicity_state):
        F = to_position(momentum_field(helicity_state.f_upper(), helicity_state.grid))
        div = spectral_divergence(F)
        scale = np.abs(F.values).max() * helicity_state.grid.k_nyquist
        assert np.abs(div.values).max() < 1e-12 * scale


class TestInnerProduct:
    def test_inner_matches_parseval(self, g16, rng):
        a = random_field(g16, rng)
        b = random_field(g16, rng)

        def inner(u, v):
            """<u|v> with the bin-volume measure of u's representation."""
            return complex(np.sum(np.conj(u.values) * v.values) * u.measure)

        lhs = inner(a, b)
        rhs = inner(to_position(a), to_position(b))
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    def test_boundary_ratio_of_centered_packet(self, g32):
        kvec = full_grid(g32.k_axes)
        f = np.exp(-np.sum((kvec - np.array([0, 0, 5.0])[:, None, None, None]) ** 2, axis=0) / 2.0)
        ratio = boundary_amplitude_ratio(momentum_field(f[None], g32))
        assert ratio < 1e-8


class TestVectorKernels:
    """cross, dot and norm reproduce numpy's forms bit for bit."""

    @pytest.fixture()
    def operands(self, rng):
        shape = (8, 8, 8)
        real = rng.normal(size=(3,) + shape)
        six = rng.normal(size=(6,) + shape) + 1j * rng.normal(size=(6,) + shape)
        block = six[3:]  # a view into a six-component array, as the state blocks are
        vec = np.array([0.3, -1.2, 2.0])
        return {
            "float_complex": (real, block),
            "complex_float": (block, real),
            "complex_complex": (np.conj(block), block),
            "real_real": (real, rng.normal(size=(3,) + shape)),
            "vector_grid": (vec, block),
            "grid_vector": (real, vec),
            "complex_vector_grid": (vec * (1 - 2j), real),
        }

    @staticmethod
    def same(ours, numpy_form):
        return ours.dtype == numpy_form.dtype and np.array_equal(ours, numpy_form)

    @staticmethod
    def over_bins(v):
        """A single (3,) vector as (3, 1, 1, 1), so numpy broadcasts it over the bins."""
        return v.reshape(3, 1, 1, 1) if v.ndim == 1 else v

    def test_cross_and_dot(self, operands):
        for name, (a, b) in operands.items():
            numpy_cross = np.cross(a, b, axis=0)
            assert self.same(cross(a, b), numpy_cross), name
            out = np.empty_like(numpy_cross)
            assert cross(a, b, out=out) is out and self.same(out, numpy_cross), name
            numpy_dot = np.sum(self.over_bins(a) * self.over_bins(b), axis=0)
            assert self.same(dot(a, b), numpy_dot), name
            out = np.empty_like(numpy_dot)
            assert dot(a, b, out=out) is out and self.same(out, numpy_dot), name

    def test_axes_and_component_sequences(self, rng):
        # broadcasting axes in place of the full coordinate grids, a list of
        # components in place of a (3, n, n, n) array: bitwise the whole-array results
        g = KGrid(8, 0.7)
        kvec, xvec = full_grid(g.k_axes), full_grid(g.x_axes)
        block = rng.normal(size=(3,) + g.shape) + 1j * rng.normal(size=(3,) + g.shape)
        assert self.same(cross(g.k_axes, block), cross(kvec, block))
        assert self.same(cross(block, g.x_axes), cross(block, xvec))
        assert self.same(dot(g.k_axes, block), dot(kvec, block))
        assert self.same(dot(g.khat, list(block)), dot(g.khat, block))

    def test_norm(self, operands):
        for name, (a, b) in operands.items():
            for x in (a, b):
                assert self.same(norm(x), np.linalg.norm(x, axis=0)), name

    @pytest.mark.parametrize("ncomp", [1, 6])
    def test_norm_over_any_component_count(self, rng, ncomp):
        x = rng.normal(size=(ncomp, 8, 8, 8)) + 1j * rng.normal(size=(ncomp, 8, 8, 8))
        expect = np.linalg.norm(x, axis=0)
        assert self.same(norm(x), expect)
        assert self.same(norm(c for c in x), expect)  # components handed out one at a time

    def test_maxima_keep_a_nan_in_any_component(self, operands):
        # finite: bitwise the whole-array forms; a NaN in a later component
        # than the largest value comes back as NaN, as np.abs(a).max() gives it
        a, b = operands["complex_complex"]
        assert max_abs(a) == np.abs(a).max()
        assert relative_gap(a, b) == np.abs(a - b).max() / np.abs(b).max()
        rows = np.array([[1.0, 2.0], [np.nan, 0.0]])
        for order in (rows, rows[::-1]):
            assert np.isnan(max_abs(order))
            assert np.isnan(relative_gap(order, np.ones((2, 2))))

    def test_np_cross_only_in_algebra(self):
        # grid-sized cross products go through kgrid.cross; np.cross copies
        # and promotes both inputs, so only algebra's single vectors use it
        offenders = []
        for path in sorted(Path(darwinlab.__file__).parent.glob("*.py")):
            if path.name == "algebra.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                uses_attr = (isinstance(node, ast.Attribute) and node.attr == "cross"
                             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
                imports_it = (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                              and any(alias.name == "cross" for alias in node.names))
                if uses_attr or imports_it:
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []

    def test_no_component_last_indexing(self):
        # grid arrays are component-first, (c, n, n, n); an index that starts
        # with an ellipsis addresses a trailing component axis that no longer
        # exists.  No file is exempt.
        offenders = []
        for path in sorted(Path(darwinlab.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.Subscript):
                    continue
                index = node.slice
                first = index.elts[0] if isinstance(index, ast.Tuple) and index.elts else index
                if isinstance(first, ast.Constant) and first.value is Ellipsis:
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


def _spin_and_oam(state):
    """The spin and OAM vectors that `dpl observe` prints, computed on one CPU."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_cpu_count", lambda: 1)
        spin, l_mom, l_pos, _, _ = cli._observe_report(state)
    routes = {name: value for name, (value, _) in spin.items()}
    routes["oam_momentum"] = l_mom
    routes["oam_position"] = l_pos
    return routes


class TestMetamorphic:
    """Symmetries of the grid that every route must respect exactly."""

    def test_cyclic_axis_permutation_permutes_every_route(self, g16):
        # rotate by R: (x, y, z) -> (y, z, x), psi'(k) = R psi(R^-1 k); on the
        # cubic grid this is a relabelling of bins and components, so every
        # vector route must come out as R applied to the original vector
        state = synthesize([
            ModeSpec(kind="gaussian", k0=(1.0, 2.0, 3.0), sigma_k=1.0, helicity=1),
            ModeSpec(kind="gaussian", k0=(-3.0, 1.0, 1.0), sigma_k=1.0, helicity=-1, amplitude=0.6),
            ModeSpec(kind="vortex", k0=(2.0, -1.0, 2.0), sigma_k=1.0, helicity=1, vortex_charge=1,
                     amplitude=0.5j),
        ], g16)
        values = np.transpose(state.psi.values, (0, 3, 1, 2))[[2, 0, 1, 5, 3, 4]]
        rotated = PhotonState(momentum_field(values, g16))
        before, after = _spin_and_oam(state), _spin_and_oam(rotated)
        # the seven spin routes and the two OAM routes
        assert set(before) == set(after) == {
            "canonical", "projected", "cross_upper", "cross_lower", "position_upper",
            "position_lower", "kernel_integral", "oam_momentum", "oam_position"}
        for name, vec in before.items():
            assert np.abs(vec).max() > 0.01, name  # every route carries a signal
            assert np.abs(after[name] - vec[[2, 0, 1]]).max() < 1e-12, name

    def test_helicity_flip_negates_projected_spin(self, g16):
        gaussians = [
            ModeSpec(kind="gaussian", k0=(0.0, 0.0, 3.0), sigma_k=1.0, helicity=1),
            ModeSpec(kind="gaussian", k0=(3.0, 0.0, 0.0), sigma_k=1.0, helicity=-1, amplitude=0.7),
            ModeSpec(kind="gaussian", k0=(1.0, 2.0, -2.0), sigma_k=1.0, helicity=1, amplitude=0.5),
        ]
        flipped = [dataclasses.replace(m, helicity=-m.helicity) for m in gaussians]
        s = observables.spin_projected(synthesize(gaussians, g16))
        s_flipped = observables.spin_projected(synthesize(flipped, g16))
        assert np.abs(s).max() > 0.1
        assert np.abs(s_flipped + s).max() < 1e-12
