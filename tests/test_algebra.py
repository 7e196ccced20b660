import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darwinlab.algebra import (
    GAMMA,
    GAMMA0,
    I3,
    I6,
    LEVI_CIVITA,
    SIGMA,
    SPIN,
    commutator_h_spin_residual,
    hamiltonian_matrix,
    helicity_frame,
    helicity_vectors,
    projected_spin_matrices,
    spin_direction_spectrum,
    transverse_projector,
    verify_matrix_identities,
)
from reference import negative_energy_projector, positive_energy_projector

TOL = 1e-13


def random_k(rng):
    k = rng.normal(size=3)
    k /= np.linalg.norm(k)
    return k * rng.uniform(0.3, 3.0)


class TestSigma:
    def test_entries_match_definition(self):
        # sigma_z: (1,2) entry -i, (2,1) entry +i, everything else zero
        expect = np.zeros((3, 3), dtype=complex)
        expect[0, 1] = -1j
        expect[1, 0] = 1j
        assert np.array_equal(SIGMA[2], expect)

    def test_casimir(self):
        # oracle: direct matrix multiplication
        total = sum(s @ s for s in SIGMA)
        assert np.abs(total - 2.0 * np.eye(3)).max() < TOL

    def test_cross_product_action(self):
        # (sigma . a) b = i (a x b) for a = x, b = y gives i z
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        sa = np.einsum("a,aij->ij", a, SIGMA)
        assert np.abs(sa @ b - 1j * np.array([0, 0, 1.0])).max() < TOL

    def test_hermitian(self):
        for s in SIGMA:
            assert np.abs(s - s.conj().T).max() < TOL


class TestGammaSet:
    def test_block_structure(self):
        assert np.array_equal(GAMMA0[:3, :3], np.eye(3))
        assert np.array_equal(GAMMA0[3:, 3:], -np.eye(3))
        for k in range(3):
            assert np.abs(GAMMA[k][:3, :3]).max() == 0.0
            assert np.array_equal(GAMMA[k][:3, 3:], SIGMA[k])
            assert np.array_equal(SPIN[k][:3, :3], SIGMA[k])
            assert np.array_equal(SPIN[k][3:, 3:], SIGMA[k])

    def test_gamma0_squared(self):
        assert np.abs(GAMMA0 @ GAMMA0 - np.eye(6)).max() < TOL

    def test_anticommutation(self):
        for k in range(3):
            assert np.abs(GAMMA0 @ GAMMA[k] + GAMMA[k] @ GAMMA0).max() < TOL

    def test_triple_product_all_indices(self):
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    lhs = GAMMA[i] @ GAMMA[j] @ GAMMA[k] + GAMMA[k] @ GAMMA[j] @ GAMMA[i]
                    rhs = GAMMA[i] * (j == k) + GAMMA[k] * (i == j)
                    assert np.abs(lhs - rhs).max() < TOL

    def test_identity_table(self):
        residuals = verify_matrix_identities()
        assert set(residuals) == {
            "gamma0_squared",
            "gamma0_gamma_anticommute",
            "gamma_triple_product",
            "sigma_commutation",
            "spin_commutation",
            "gamma_cross_gamma",
            "spin_squared",
        }
        assert max(residuals.values()) < TOL

    def test_gamma_cross_gamma_z_component(self):
        # oracle: direct multiply of the z component
        acc = -1j * (GAMMA[0] @ GAMMA[1] - GAMMA[1] @ GAMMA[0])
        assert np.abs(acc - SPIN[2]).max() < TOL

    @pytest.mark.parametrize("constant", [LEVI_CIVITA, I3, I6, SIGMA, GAMMA0, GAMMA, SPIN])
    def test_constants_are_read_only(self, constant):
        # every caller shares the module arrays: a write must raise, not leak
        with pytest.raises(ValueError, match="read-only"):
            constant[(0,) * constant.ndim] = 2.0


class TestHamiltonian:
    def test_rejects_zero_wavevector(self):
        with pytest.raises(ValueError, match="zero wavevector"):
            hamiltonian_matrix(np.zeros(3))

    def test_hermitian_and_spectrum(self):
        # oracle: dense eigendecomposition
        h = hamiltonian_matrix(np.array([0.0, 0.0, 1.0]))
        assert np.abs(h - h.conj().T).max() < TOL
        evals = np.sort(np.linalg.eigvalsh(h))
        assert np.abs(evals - [-1, -1, 0, 0, 1, 1]).max() < TOL

    def test_squared_on_transverse_subspace(self, rng):
        for _ in range(20):
            k = random_k(rng)
            h = hamiltonian_matrix(k)
            p = transverse_projector(k)
            k2 = k @ k
            assert np.abs((h @ h - k2 * np.eye(6)) @ p).max() < 1e-12 * max(1.0, k2)

    def test_linear_in_k(self, rng):
        k = random_k(rng)
        assert np.abs(hamiltonian_matrix(2 * k) - 2 * hamiltonian_matrix(k)).max() < 1e-12


class TestProjectors:
    def test_transverse_axis_aligned(self):
        p = transverse_projector(np.array([0.0, 0.0, 2.0]))
        expect3 = np.diag([1.0, 1.0, 0.0])
        assert np.abs(p[:3, :3] - expect3).max() < TOL
        assert np.abs(p[3:, 3:] - expect3).max() < TOL

    def test_transverse_idempotent_rank4(self, rng):
        for _ in range(10):
            p = transverse_projector(random_k(rng))
            assert np.abs(p @ p - p).max() < TOL
            assert abs(np.trace(p).real - 4.0) < TOL

    def test_rqc_identity_random_k(self, rng):
        for _ in range(25):
            k = random_k(rng)
            gk = np.einsum("a,aij->ij", k, GAMMA)
            p = transverse_projector(k)
            assert np.abs((gk @ gk - (k @ k) * np.eye(6)) @ p).max() < 1e-13 * max(1.0, k @ k)

    def test_positive_energy_against_eig_oracle(self, rng):
        # oracle: numpy eigendecomposition of H(k)
        for _ in range(10):
            k = random_k(rng)
            kmag = np.linalg.norm(k)
            h = hamiltonian_matrix(k)
            evals, evecs = np.linalg.eigh(h)
            sel = np.abs(evals - kmag) < 1e-9 * kmag
            assert sel.sum() == 2
            v = evecs[:, sel]
            oracle = v @ v.conj().T
            assert np.abs(positive_energy_projector(k) - oracle).max() < 1e-11

    def test_positive_energy_properties(self, rng):
        for _ in range(10):
            k = random_k(rng)
            pp = positive_energy_projector(k)
            pm = negative_energy_projector(k)
            pt = transverse_projector(k)
            assert np.abs(pp - pp.conj().T).max() < TOL
            assert np.abs(pp @ pp - pp).max() < TOL
            assert abs(np.trace(pp).real - 2.0) < TOL
            assert np.abs(pp @ pm).max() < TOL
            assert np.abs(pp + pm - pt).max() < TOL
            assert np.abs(pp @ pt - pt @ pp).max() < TOL

    def test_axis_aligned_helicity_structure(self):
        # on-axis positive-energy vectors pair e_pm with -(+/-)i e_pm below
        k = np.array([0.0, 0.0, 3.0])
        pp = positive_energy_projector(k)
        eplus, eminus = helicity_vectors(k / 3.0)
        for pol, phase in ((eplus, -1j), (eminus, 1j)):
            v = np.concatenate([pol, phase * pol]) / np.sqrt(2.0)
            assert np.abs(pp @ v - v).max() < TOL


class TestSpinMatrices:
    def test_components_commute_and_conserve(self, rng):
        for _ in range(15):
            k = random_k(rng)
            s = projected_spin_matrices(k)
            h = hamiltonian_matrix(k)
            for i in range(3):
                assert np.abs(h @ s[i] - s[i] @ h).max() < TOL
                for j in range(3):
                    assert np.abs(s[i] @ s[j] - s[j] @ s[i]).max() < TOL

    def test_axis_aligned_eigenvalues(self):
        # oracle: eigendecomposition restricted to the positive-energy subspace
        k = np.array([0.0, 0.0, 2.0])
        s = projected_spin_matrices(k)
        pp = positive_energy_projector(k)
        evals = np.linalg.eigvalsh(pp @ s[2] @ pp)
        assert np.abs(np.sort(evals) - [-1, 0, 0, 0, 0, 1]).max() < 1e-12

    def test_commutator_h_spin(self, rng):
        for _ in range(15):
            assert commutator_h_spin_residual(random_k(rng)) < TOL
        assert commutator_h_spin_residual(np.array([0.0, 0.0, 1.0])) < TOL


class TestSpectrum:
    def test_axis_direction(self):
        spec = spin_direction_spectrum(np.array([0.0, 0.0, 1.0]))
        assert np.abs(spec - [-1, -1, 0, 0, 1, 1]).max() < TOL

    def test_diagonal_direction(self):
        n = np.ones(3) / np.sqrt(3.0)
        spec = spin_direction_spectrum(n)
        assert np.abs(spec - [-1, -1, 0, 0, 1, 1]).max() < TOL

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            spin_direction_spectrum(np.array([0.0, 0.0, 2.0]))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=3, max_size=3))
    def test_spectrum_any_direction(self, raw):
        v = np.asarray(raw)
        norm = np.linalg.norm(v)
        if norm < 1e-3:
            return
        spec = spin_direction_spectrum(v / norm)
        assert np.abs(spec - [-1, -1, 0, 0, 1, 1]).max() < 1e-12

    def test_direction_flip_symmetry(self):
        n = np.array([0.6, 0.0, 0.8])
        a = spin_direction_spectrum(n)
        b = spin_direction_spectrum(-n)
        assert np.abs(np.sort(a) - np.sort(-b[::-1])).max() < TOL


class TestHelicityFrame:
    def test_right_handed(self, rng):
        for _ in range(10):
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            e1, e2 = helicity_frame(w)
            assert abs(e1 @ w) < 1e-12 and abs(e2 @ w) < 1e-12
            assert np.abs(np.cross(e1, e2) - w).max() < 1e-12

    def test_pole_fallback(self):
        e1, e2 = helicity_frame(np.array([0.0, 0.0, 1.0]))
        assert np.array_equal(e1, [1.0, 0.0, 0.0])
        assert np.abs(e2 - [0.0, 1.0, 0.0]).max() < TOL

    def test_helicity_eigenvector_of_cross(self):
        # w x e_pm = -(+/-) i e_pm
        w = np.array([0.3, -0.5, 0.81])
        w /= np.linalg.norm(w)
        eplus, eminus = helicity_vectors(w)
        assert np.abs(np.cross(w, eplus) + 1j * eplus).max() < 1e-12
        assert np.abs(np.cross(w, eminus) - 1j * eminus).max() < 1e-12
