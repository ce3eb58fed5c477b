"""Sparse eigensolver for the discrete Steklov pencil K·u = λ·M_∂·u.

K is the P1 stiffness matrix (positive semidefinite, constants in its
kernel) and M_∂ the boundary mass, zero away from the boundary; neither is
invertible.  Their sum is symmetric positive definite on a connected mesh,
and the pencil is equivalent to

    M_∂·u = μ·(K + M_∂)·u,   μ = 1/(1 + λ) ∈ (0, 1],

whose largest μ belong to the smallest λ.  M_∂ = E·M_bb·Eᵀ, with E the
injection of the n_b boundary vertices into all n, so every nonzero μ is an
eigenvalue of the boundary operator G·M_bb, where G = Eᵀ·(K + M_∂)⁻¹·E =
(S + M_bb)⁻¹ and S is the discrete Dirichlet-to-Neumann matrix.  ARPACK's
Lanczos iteration runs on the symmetric boundary pencil
M_bb·G·M_bb·w = μ·M_bb·w, vectors of length n_b; each application of G is
one solve with a single sparse LU of K + M_∂, right-hand side scattered onto
the boundary.  No dense operator is formed.
K + M_∂ is assembled directly in the elimination order the caller passes,
as the elimination step of each vertex, and factored in exactly that order
(SuperLU's NATURAL ordering of the permuted matrix, diagonal pivots).  For
the structured annular meshes that order is the minimum-degree order of the
resolution's union stencil, computed once per (N_θ, N_r) in `mesher`; this
module makes no ordering choice itself.
One more block solve lifts the converged traces w to full vertex vectors
u = (K + M_∂)⁻¹·E·M_bb·w/μ, on which every pair is checked against
RESIDUAL_BOUND: K·u − λ·M_∂·u = (1/μ)·E·M_bb·(w − Eᵀu) is the boundary
eigen-residual.

ARPACK stops when the M_bb-norm of a Ritz residual is below LANCZOS_TOL·μ.
The check measures Euclidean norms instead, which can be larger by up to the
square root of the condition number of M_bb: 3/ε for a hole of radius ε with
as many vertices as the outer circle, about 6 at ε = 0.08.  LANCZOS_TOL sits
100× below RESIDUAL_BOUND to cover that factor with room to spare.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

# largest accepted ‖K·v − λ·M_∂·v‖ / ((1 + λ)·‖M_∂·v‖) of a returned pair
RESIDUAL_BOUND = 1e-8
# ARPACK's relative Ritz-residual stopping tolerance (module docstring)
LANCZOS_TOL = 1e-10


class EigensolveError(ValueError):
    """The Steklov pencil could not be solved to the residual bound."""


def steklov_eigs(stiffness: sp.spmatrix, boundary_mass: sp.spmatrix,
                 boundary_dofs, count: int, elimination_steps):
    """`count` smallest eigenpairs of K·u = λ·M_∂·u.

    boundary_mass is indexed by position in boundary_dofs.
    elimination_steps is the elimination order of K + M_∂, a permutation of
    range(n) whose entry v is the step at which vertex v is eliminated
    (`Mesh.elimination_steps`); K + M_∂ is factored in that order and no
    other.  Any permutation gives the same pairs up to round-off; only fill
    and speed depend on it.  Returns the ascending eigenvalues and the
    boundary traces as columns, in boundary_dofs order and normalized to
    vᵀ·M_∂·v = 1.  Count + 1 pairs are
    computed (at most n_b − 1, ARPACK's limit on the boundary pencil), so
    both copies of a double eigenvalue at the end of the requested range come
    back: Lanczos finds the second copy only through round-off and locking,
    and asked for exactly `count` pairs it can return the next eigenvalue in
    its place.
    """
    boundary_dofs = np.asarray(boundary_dofs, dtype=np.int64)
    n, nb = stiffness.shape[0], len(boundary_dofs)
    if not 1 <= count < nb:
        raise ValueError(f"count must be in [1, {nb - 1}], got {count}")
    if not np.array_equal(np.sort(elimination_steps), np.arange(n)):
        raise ValueError(f"order must be a permutation of range({n})")
    # vertex v is eliminated at step position[v]; int32 halves the triplet indices
    position = np.asarray(elimination_steps, dtype=np.int32)
    mbb = sp.csc_matrix(boundary_mass)
    k, mb = stiffness.tocoo(), mbb.tocoo()
    # P·(K + M_∂)·Pᵀ in one COO → CSC step, which sums the duplicates
    rows = position[np.concatenate([k.row, boundary_dofs[mb.row]])]
    cols = position[np.concatenate([k.col, boundary_dofs[mb.col]])]
    shifted = sp.csc_matrix((np.concatenate([k.data, mb.data]), (rows, cols)), shape=(n, n))
    try:
        # K + M_∂ is SPD: diagonal pivots in a symmetric ordering are stable
        lu = splu(shifted, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        mbb_lu = splu(mbb)
    except RuntimeError as exc:
        raise EigensolveError(f"sparse LU factorization failed: {exc}") from exc
    boundary_steps = position[boundary_dofs]

    def lift(traces):
        """(K + M_∂)⁻¹·E·traces in elimination order: one LU solve, every
        column at once."""
        rhs = np.zeros((n,) + traces.shape[1:])
        rhs[boundary_steps] = traces
        return lu.solve(rhs)

    def boundary_op(w):
        """M_bb·G·M_bb·w with G = Eᵀ·(K + M_∂)⁻¹·E."""
        return mbb @ lift(mbb @ w)[boundary_steps]

    op = LinearOperator((nb, nb), matvec=boundary_op, dtype=float)
    minv = LinearOperator((nb, nb), matvec=mbb_lu.solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(nb)  # fixed, so runs repeat exactly
    try:
        mu, traces = eigsh(op, min(count + 1, nb - 1), M=mbb, Minv=minv, which="LA", v0=v0,
                           tol=LANCZOS_TOL)
    except ArpackError as exc:
        raise EigensolveError(f"Lanczos iteration failed: {exc}") from exc

    top = np.argsort(-mu)[:count]
    eigenvalues = 1.0 / mu[top] - 1.0
    # full vertex vectors u = (K + M_∂)⁻¹·E·M_bb·w/μ, back in vertex order,
    # whose residual below is the boundary eigen-residual of w
    vectors = lift(mbb @ traces[:, top])[position] / mu[top]
    on_boundary = vectors[boundary_dofs]
    mv = mbb @ on_boundary  # M_∂·u, zero off the boundary
    scale = np.sqrt(np.einsum("ij,ij->j", on_boundary, mv))
    vectors, on_boundary, mv = vectors / scale, on_boundary / scale, mv / scale
    residual = stiffness @ vectors
    residual[boundary_dofs] -= mv * eigenvalues
    residual = (np.linalg.norm(residual, axis=0)
                / ((1.0 + eigenvalues) * np.linalg.norm(mv, axis=0)))
    worst = float(np.max(residual))
    if not worst <= RESIDUAL_BOUND:  # also catches NaN
        raise EigensolveError(f"eigenpair residual {worst:.3g} exceeds {RESIDUAL_BOUND:g}")
    return eigenvalues, on_boundary
