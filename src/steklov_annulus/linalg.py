"""Sparse eigensolver for the discrete Steklov pencil K·u = λ·M_∂·u.

K is the P1 stiffness matrix (positive semidefinite, constants in its
kernel) and M_∂ the boundary mass, zero away from the boundary; neither is
invertible.  Their sum is symmetric positive definite on a connected mesh.
M_∂ = E·M_bb·Eᵀ, with E the injection of the n_b boundary vertices into all
n, so the pencil reduces to the boundary problem S·w = λ·M_bb·w, with S the
discrete Dirichlet-to-Neumann matrix and w the trace Eᵀu.  S is never
formed: G = Eᵀ·(K + M_∂)⁻¹·E = (S + M_bb)⁻¹ is its shifted inverse at
σ = −1.  ARPACK's Lanczos iteration runs in shift-invert mode on G·M_bb,
whose largest eigenvalues 1/(1 + λ) belong to the smallest λ, on vectors of
length n_b; each application of G is one solve with a single sparse LU of
K + M_∂, right-hand side scattered onto the boundary.  No dense operator is
formed.
K + M_∂ is factored in the order it is given (SuperLU's NATURAL ordering,
diagonal pivots).  The annular meshes number their vertices in a
fill-reducing elimination order (`mesher`), so this module makes no
ordering choice itself.
One more block solve lifts the converged traces w to full vertex vectors
u = (1 + λ)·(K + M_∂)⁻¹·E·M_bb·w, on which every pair is checked against
RESIDUAL_BOUND: K·u − λ·M_∂·u = (1 + λ)·E·M_bb·(w − Eᵀu) is the boundary
eigen-residual.

ARPACK stops when the M_bb-norm of a Ritz residual of G·M_bb is below
LANCZOS_TOL times its Ritz value 1/(1 + λ).  The check measures Euclidean
norms instead, which can be larger by up to the square root of the condition
number of M_bb: 3/ε for a hole of radius ε with as many vertices as the
outer circle, about 6 at ε = 0.08.  LANCZOS_TOL sits 100× below
RESIDUAL_BOUND to cover that factor with room to spare.
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
                 boundary_dofs, count: int):
    """`count` smallest eigenpairs of K·u = λ·M_∂·u.

    boundary_mass is indexed by position in boundary_dofs.  K + M_∂ is
    factored in its own vertex numbering; any numbering gives the same pairs
    up to round-off, only fill and speed depend on it.  Returns the ascending
    eigenvalues and the boundary traces as columns, in boundary_dofs order
    and normalized to vᵀ·M_∂·v = 1.  Count + 1 pairs are computed (at most
    n_b − 1, ARPACK's limit on the boundary pencil), so both copies of a
    double eigenvalue at the end of the requested range come back: Lanczos
    finds the second copy only through round-off and locking, and asked for
    exactly `count` pairs it can return the next eigenvalue in its place.
    """
    # int32 halves the triplet indices of K + M_∂
    boundary_dofs = np.asarray(boundary_dofs, dtype=np.int32)
    n, nb = stiffness.shape[0], len(boundary_dofs)
    if not 1 <= count < nb:
        raise ValueError(f"count must be in [1, {nb - 1}], got {count}")
    mbb = sp.csc_matrix(boundary_mass)
    k, mb = stiffness.tocoo(), mbb.tocoo()
    # K + E·M_bb·Eᵀ in one COO → CSC step, which sums the duplicates
    rows = np.concatenate([k.row, boundary_dofs[mb.row]])
    cols = np.concatenate([k.col, boundary_dofs[mb.col]])
    shifted = sp.csc_matrix((np.concatenate([k.data, mb.data]), (rows, cols)), shape=(n, n))
    try:
        # K + M_∂ is SPD: diagonal pivots in a symmetric ordering are stable
        lu = splu(shifted, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise EigensolveError(f"sparse LU factorization failed: {exc}") from exc

    def lift(traces):
        """(K + M_∂)⁻¹·E·traces: one LU solve, every column at once."""
        rhs = np.zeros((n,) + traces.shape[1:])
        rhs[boundary_dofs] = traces
        return lu.solve(rhs)

    g = LinearOperator((nb, nb), matvec=lambda w: lift(w)[boundary_dofs], dtype=float)
    v0 = np.random.default_rng(0).standard_normal(nb)  # fixed, so runs repeat exactly
    try:
        # the λ nearest σ = −1, i.e. the smallest.  Shift-invert mode never
        # applies A, so g stands in for its shape; S enters only through
        # OPinv = G = (S + M_bb)⁻¹
        eigenvalues, traces = eigsh(g, min(count + 1, nb - 1), M=mbb, sigma=-1.0, OPinv=g,
                                    v0=v0, tol=LANCZOS_TOL)
    except ArpackError as exc:
        raise EigensolveError(f"Lanczos iteration failed: {exc}") from exc

    lowest = np.argsort(eigenvalues)[:count]
    eigenvalues = eigenvalues[lowest]
    # full vertex vectors u = (1 + λ)·(K + M_∂)⁻¹·E·M_bb·w up to the
    # normalization below, whose residual is the boundary eigen-residual of w
    vectors = lift(mbb @ traces[:, lowest])
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
