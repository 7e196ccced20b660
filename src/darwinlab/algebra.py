"""Exact matrix layer of the photon wave equation.

Holds the constants of Darwin's equations as read-only module arrays (the
spin-1 generators ``SIGMA`` and the 6x6 block matrices ``GAMMA0``, ``GAMMA``
and ``SPIN``) and builds from them the Hamiltonian matrix at a given
wavevector, the projector onto the transverse subspace and the
momentum-projected spin matrices.
Everything in this module is plain finite-dimensional linear algebra in
natural units (hbar = c = eps0 = 1); no grids are involved.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

ArrayC = NDArray[np.complex128]
ArrayR = NDArray[np.float64]

# Levi-Civita pseudotensor eps[i, j, k]
LEVI_CIVITA = np.zeros((3, 3, 3))
LEVI_CIVITA[0, 1, 2] = LEVI_CIVITA[1, 2, 0] = LEVI_CIVITA[2, 0, 1] = 1.0
LEVI_CIVITA[0, 2, 1] = LEVI_CIVITA[2, 1, 0] = LEVI_CIVITA[1, 0, 2] = -1.0

I3 = np.eye(3, dtype=np.complex128)
I6 = np.eye(6, dtype=np.complex128)
_ZERO3 = np.zeros((3, 3), dtype=np.complex128)

# spin-1 generators, (SIGMA_k)_{ij} = -i eps_{ijk}; shape (3, 3, 3)
SIGMA = np.stack([-1j * LEVI_CIVITA[:, :, k] for k in range(3)])
# beta-like matrix diag(I3, -I3)
GAMMA0 = np.block([[I3, _ZERO3], [_ZERO3, -I3]])
# three Hermitian matrices with the spin-1 generators on the off-diagonal blocks; (3, 6, 6)
GAMMA = np.stack([np.block([[_ZERO3, s], [s, _ZERO3]]) for s in SIGMA])
# block-diagonal doubling of the spin-1 generators, the canonical spin matrices; (3, 6, 6)
SPIN = np.stack([np.block([[s, _ZERO3], [_ZERO3, s]]) for s in SIGMA])

# every caller shares these arrays, so none may write to them
for _constant in (LEVI_CIVITA, I3, I6, SIGMA, GAMMA0, GAMMA, SPIN):
    _constant.flags.writeable = False
del _constant


def _commutator(a: ArrayC, b: ArrayC) -> ArrayC:
    return a @ b - b @ a


def verify_matrix_identities() -> dict[str, float]:
    """Max absolute entry of the residual for each constant-matrix identity."""
    res: dict[str, float] = {}

    res["gamma0_squared"] = float(np.abs(GAMMA0 @ GAMMA0 - I6).max())

    anti = max(
        float(np.abs(GAMMA0 @ GAMMA[k] + GAMMA[k] @ GAMMA0).max())
        for k in range(3)
    )
    res["gamma0_gamma_anticommute"] = anti

    triple = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                lhs = GAMMA[i] @ GAMMA[j] @ GAMMA[k] + GAMMA[k] @ GAMMA[j] @ GAMMA[i]
                rhs = GAMMA[i] * (1.0 if j == k else 0.0) + GAMMA[k] * (1.0 if i == j else 0.0)
                triple = max(triple, float(np.abs(lhs - rhs).max()))
    res["gamma_triple_product"] = triple

    sigma_cr = 0.0
    spin_cr = 0.0
    for i in range(3):
        for j in range(3):
            expect3 = sum(1j * LEVI_CIVITA[i, j, k] * SIGMA[k] for k in range(3))
            expect6 = sum(1j * LEVI_CIVITA[i, j, k] * SPIN[k] for k in range(3))
            sigma_cr = max(sigma_cr, float(np.abs(_commutator(SIGMA[i], SIGMA[j]) - expect3).max()))
            spin_cr = max(spin_cr, float(np.abs(_commutator(SPIN[i], SPIN[j]) - expect6).max()))
    res["sigma_commutation"] = sigma_cr
    res["spin_commutation"] = spin_cr

    # (-i gamma x gamma)_k = spin_k
    cross = 0.0
    for k in range(3):
        acc = np.zeros((6, 6), dtype=np.complex128)
        for i in range(3):
            for j in range(3):
                acc += LEVI_CIVITA[k, i, j] * (GAMMA[i] @ GAMMA[j])
        cross = max(cross, float(np.abs(-1j * acc - SPIN[k]).max()))
    res["gamma_cross_gamma"] = cross

    spin_sq = sum(SPIN[k] @ SPIN[k] for k in range(3))
    res["spin_squared"] = float(np.abs(spin_sq - 2.0 * I6).max())

    return res


def _check_wavevector(k: np.ndarray) -> tuple[np.ndarray, float]:
    k = np.asarray(k, dtype=float)
    if k.shape != (3,):
        raise ValueError(f"wavevector must be a 3-vector, got shape {k.shape}")
    kmag = float(np.linalg.norm(k))
    if kmag == 0.0:
        raise ValueError("zero wavevector: no photon state can carry zero momentum")
    return k, kmag


def hamiltonian_matrix(k) -> ArrayC:
    """Hamiltonian matrix i*gamma0*(gamma . k) at wavevector k."""
    k, _ = _check_wavevector(k)
    gk = np.einsum("a,aij->ij", k, GAMMA)
    return 1j * (GAMMA0 @ gk)


def transverse_projector(k) -> ArrayC:
    """Projector removing the longitudinal component of both 3-blocks."""
    k, kmag = _check_wavevector(k)
    w = k / kmag
    p3 = I3 - np.outer(w, w)
    out = np.zeros((6, 6), dtype=np.complex128)
    out[:3, :3] = p3
    out[3:, 3:] = p3
    return out


def helicity_frame(w) -> tuple[ArrayR, ArrayR]:
    """Right-handed transverse frame (e1, e2) for the unit direction w.

    e1 is the normalized z x w; when w is (anti)parallel to z the frame
    degenerates and e1 falls back to x, keeping the construction
    deterministic at the poles.
    """
    w = np.asarray(w, dtype=float)
    zxw = np.array([-w[1], w[0], 0.0])
    norm = np.linalg.norm(zxw)
    if norm < 1e-12:
        e1 = np.array([1.0, 0.0, 0.0])
    else:
        e1 = zxw / norm
    e2 = np.cross(w, e1)
    return e1, e2


def helicity_vectors(w) -> tuple[ArrayC, ArrayC]:
    """Circular polarization vectors (e_plus, e_minus) transverse to w."""
    e1, e2 = helicity_frame(w)
    eplus = (e1 + 1j * e2) / np.sqrt(2.0)
    eminus = (e1 - 1j * e2) / np.sqrt(2.0)
    return eplus, eminus


def projected_spin_matrices(k) -> ArrayC:
    """Momentum-projected spin matrices S_i(k) = (spin . w) w_i.

    All three components are proportional to the same matrix, hence mutually
    commuting, and each commutes with the Hamiltonian at the same k.
    """
    k, kmag = _check_wavevector(k)
    w = k / kmag
    spin_w = np.einsum("a,aij->ij", w, SPIN)
    return np.stack([spin_w * w[i] for i in range(3)])


def spin_direction_spectrum(n) -> ArrayR:
    """Sorted eigenvalues of (spin . n) for a unit direction n."""
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    if abs(np.linalg.norm(n) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    spin_n = np.einsum("a,aij->ij", n, SPIN)
    return np.linalg.eigvalsh(spin_n)


def commutator_h_spin_residual(k) -> float:
    """Residual of [H(k), spin_i] = -(gamma0 gamma x k)_i, max over i."""
    k, _ = _check_wavevector(k)
    h = hamiltonian_matrix(k)
    worst = 0.0
    for i in range(3):
        rhs = np.zeros((6, 6), dtype=np.complex128)
        for a in range(3):
            for b in range(3):
                if LEVI_CIVITA[i, a, b] != 0.0:
                    rhs -= LEVI_CIVITA[i, a, b] * (GAMMA0 @ GAMMA[a]) * k[b]
        worst = max(worst, float(np.abs(_commutator(h, SPIN[i]) - rhs).max()))
    return worst
