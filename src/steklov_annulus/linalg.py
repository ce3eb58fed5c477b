"""Sparse eigensolver for the discrete Steklov pencil K·u = λ·M_∂·u.

K is the P1 stiffness matrix (positive semidefinite, constants in its
kernel) and M_∂ the boundary mass, zero away from the boundary; neither is
invertible.  Their sum is symmetric positive definite on a connected mesh,
and the pencil is equivalent to

    M_∂·u = μ·(K + M_∂)·u,   μ = 1/(1 + λ) ∈ (0, 1],

whose largest μ belong to the smallest λ.  One sparse LU factorization of
K + M_∂ applies its inverse inside ARPACK's Lanczos iteration, so no dense
boundary operator is ever formed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

# largest accepted ‖K·v − λ·M_∂·v‖ / ((1 + λ)·‖M_∂·v‖) of a returned pair
RESIDUAL_BOUND = 1e-8


class EigensolveError(ValueError):
    """The Steklov pencil could not be solved to the residual bound."""


def steklov_eigs(stiffness: sp.spmatrix, boundary_mass: sp.spmatrix,
                 boundary_dofs, count: int):
    """`count` smallest eigenpairs of K·u = λ·M_∂·u.

    boundary_mass is indexed by position in boundary_dofs.  Returns the
    ascending eigenvalues and the boundary traces as columns, in
    boundary_dofs order and normalized to vᵀ·M_∂·v = 1.  Count + 1 pairs are
    computed, so both copies of a double eigenvalue at the end of the
    requested range come back.
    """
    boundary_dofs = np.asarray(boundary_dofs, dtype=np.int64)
    n, nb = stiffness.shape[0], len(boundary_dofs)
    if not 1 <= count < nb:
        raise ValueError(f"count must be in [1, {nb - 1}], got {count}")
    mb = boundary_mass.tocoo()
    mass = sp.csc_matrix((mb.data, (boundary_dofs[mb.row], boundary_dofs[mb.col])),
                         shape=(n, n))
    shifted = (stiffness + mass).tocsc()
    try:
        # K + M_∂ is SPD: a symmetric ordering and diagonal pivots are stable
        # and fill less than the default column ordering with row pivoting
        lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise EigensolveError(f"K + M_∂ factorization failed: {exc}") from exc
    minv = LinearOperator((n, n), matvec=lu.solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)  # fixed, so runs repeat exactly
    try:
        mu, vectors = eigsh(mass, count + 1, M=shifted, Minv=minv, which="LA", v0=v0)
    except ArpackError as exc:
        raise EigensolveError(f"Lanczos iteration failed: {exc}") from exc

    order = np.argsort(-mu)[:count]
    eigenvalues = 1.0 / mu[order] - 1.0
    vectors = vectors[:, order]
    mv = mass @ vectors
    scale = np.sqrt(np.einsum("ij,ij->j", vectors, mv))
    vectors, mv = vectors / scale, mv / scale
    residual = (np.linalg.norm(stiffness @ vectors - mv * eigenvalues, axis=0)
                / ((1.0 + eigenvalues) * np.linalg.norm(mv, axis=0)))
    worst = float(np.max(residual))
    if not worst <= RESIDUAL_BOUND:  # also catches NaN
        raise EigensolveError(f"eigenpair residual {worst:.3g} exceeds {RESIDUAL_BOUND:g}")
    return eigenvalues, vectors[boundary_dofs, :]
