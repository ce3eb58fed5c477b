"""Sparse eigensolver for the discrete Steklov pencil K·u = λ·M_∂·u.

K is the P1 stiffness matrix (positive semidefinite, constants in its
kernel) and M_∂ the boundary mass, zero away from the boundary; neither is
invertible.  Their sum is symmetric positive definite on a connected mesh,
and it is all this module is given of K: `fem` assembles K + M_∂ directly.
M_∂ = E·M_bb·Eᵀ, with E the injection of the n_b boundary vertices into all
n, so the pencil reduces to the boundary problem S·w = λ·M_bb·w, with S the
discrete Dirichlet-to-Neumann matrix and w the trace Eᵀu.  S is never
formed: G = Eᵀ·(K + M_∂)⁻¹·E = (S + M_bb)⁻¹ is its shifted inverse at
σ = −1.  ARPACK's Lanczos iteration runs in shift-invert mode on G·M_bb,
whose largest eigenvalues 1/(1 + λ) belong to the smallest λ, on vectors of
length n_b; each application of G is one solve with a single Cholesky
factor of K + M_∂, right-hand side scattered onto the boundary.  No dense
operator is formed.
K + M_∂ is factored in the order it is given, as a band matrix: its COO
triplets on and below the diagonal are summed into the lower band, of the
half-bandwidth they span, LAPACK's band Cholesky (dpbtrf) factors it in
place, and dpbtrs applies the factor.  The annular meshes
number their vertices so that the band is 2N_r + 3 wide (`mesher`), and
the mirror halves `fem` folds from them N_r + 2; this module makes no
ordering choice itself.
One more block solve lifts the converged traces w to full vertex vectors
u = (1 + λ)·(K + M_∂)⁻¹·E·M_bb·w, on which every pair is checked against
RESIDUAL_BOUND: K·u − λ·M_∂·u, computed as (K + M_∂)·u − (1 + λ)·M_∂·u,
equals (1 + λ)·E·M_bb·(w − Eᵀu), the boundary eigen-residual.

`steklov_eigs` solves a pencil in one block.  Its two steps are public
for `fem`, which solves a mirror-symmetric mesh as an even and an odd half
pencil: `lowest_pairs`, the lifted and normalized Lanczos pairs of one
pencil, and `check_residual`, which checks their union against the full
pencil.

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
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

# largest accepted ‖K·v − λ·M_∂·v‖ / ((1 + λ)·‖M_∂·v‖) of a returned pair
RESIDUAL_BOUND = 1e-8
# ARPACK's relative Ritz-residual stopping tolerance (module docstring)
LANCZOS_TOL = 1e-10


class EigensolveError(ValueError):
    """The Steklov pencil could not be solved to the residual bound."""


def steklov_eigs(shifted: sp.sparray | sp.spmatrix, boundary_mass: sp.spmatrix,
                 boundary_dofs, count: int):
    """`count` smallest eigenpairs of K·u = λ·M_∂·u, given K + M_∂.

    shifted is K + M_∂ over all vertices, in any sparse format, duplicate
    entries summed; boundary_mass is M_bb, indexed by position in
    boundary_dofs.  K + M_∂ is factored in its own vertex numbering; any
    numbering gives the same pairs up to round-off, only the band width,
    and with it memory and speed, depend on it.  Returns the ascending
    eigenvalues and the boundary traces as columns, in boundary_dofs order
    and normalized to vᵀ·M_∂·v = 1.  Count + 1 pairs are computed (at most
    n_b − 1, ARPACK's limit on the boundary pencil), so both copies of a
    double eigenvalue at the end of the requested range come back: Lanczos
    finds the second copy only through round-off and locking, and asked for
    exactly `count` pairs it can return the next eigenvalue in its place.
    """
    boundary_dofs = np.asarray(boundary_dofs)
    shifted = sp.coo_array(shifted)
    nb = len(boundary_dofs)
    if not 1 <= count < nb:
        raise ValueError(f"count must be in [1, {nb - 1}], got {count}")
    eigenvalues, vectors = lowest_pairs(shifted, boundary_mass, boundary_dofs,
                                        min(count + 1, nb - 1), count)
    check_residual(shifted, boundary_mass, boundary_dofs, eigenvalues, vectors)
    return eigenvalues, vectors[boundary_dofs]


def lowest_pairs(shifted, boundary_mass, boundary_dofs, computed: int, count: int):
    """The `count` smallest of the `computed` smallest eigenpairs that the
    Lanczos iteration returns, unchecked: ascending eigenvalues and full
    vertex vectors u as columns, normalized to uᵀ·M_∂·u = 1.

    shifted is K + M_∂ as a COO matrix; 1 ≤ count ≤ computed < n_b.
    """
    n, nb = shifted.shape[0], len(boundary_dofs)
    mbb = sp.csc_matrix(boundary_mass)
    factor = _band_cholesky(shifted)

    def lift(traces):
        """(K + M_∂)⁻¹·E·traces: one band solve, every column at once."""
        # Fortran order, so that dpbtrs solves in place without a copy
        rhs = np.zeros((n,) + traces.shape[1:], order="F")
        rhs[boundary_dofs] = traces
        return dpbtrs(factor, rhs, lower=1, overwrite_b=1)[0]

    g = LinearOperator((nb, nb), matvec=lambda w: lift(w)[boundary_dofs], dtype=float)
    v0 = np.random.default_rng(0).standard_normal(nb)  # fixed, so runs repeat exactly
    try:
        # the λ nearest σ = −1, i.e. the smallest.  Shift-invert mode never
        # applies A, so g stands in for its shape; S enters only through
        # OPinv = G = (S + M_bb)⁻¹
        eigenvalues, traces = eigsh(g, computed, M=mbb, sigma=-1.0, OPinv=g,
                                    v0=v0, tol=LANCZOS_TOL)
    except ArpackError as exc:
        raise EigensolveError(f"Lanczos iteration failed: {exc}") from exc

    lowest = np.argsort(eigenvalues)[:count]
    # full vertex vectors u = (1 + λ)·(K + M_∂)⁻¹·E·M_bb·w up to the
    # normalization below, whose residual is the boundary eigen-residual of w
    vectors = lift(mbb @ traces[:, lowest])
    on_boundary = vectors[boundary_dofs]
    scale = np.sqrt(np.einsum("ij,ij->j", on_boundary, mbb @ on_boundary))
    return eigenvalues[lowest], vectors / scale


def check_residual(shifted, boundary_mass, boundary_dofs, eigenvalues, vectors):
    """Raise EigensolveError unless every pair (λ, u), u a full vertex
    vector, has ‖K·u − λ·M_∂·u‖ / ((1 + λ)·‖M_∂·u‖) ≤ RESIDUAL_BOUND;
    shifted is K + M_∂, boundary_mass M_bb in boundary_dofs order."""
    mv = boundary_mass @ vectors[boundary_dofs]  # M_∂·u, zero off the boundary
    residual = shifted @ vectors
    residual[boundary_dofs] -= mv * (1.0 + eigenvalues)
    residual = (np.linalg.norm(residual, axis=0)
                / ((1.0 + eigenvalues) * np.linalg.norm(mv, axis=0)))
    worst = float(np.max(residual))
    if not worst <= RESIDUAL_BOUND:  # also catches NaN
        raise EigensolveError(f"eigenpair residual {worst:.3g} exceeds {RESIDUAL_BOUND:g}")


def _band_cholesky(a):
    """Lower Cholesky factor of the SPD COO matrix a in LAPACK band storage,
    (kd+1, n): entry (i − j, j) holds L[i, j], kd the largest i − j of a
    stored entry.

    The band is packed C-ordered as (n, kd+1) by one bincount over the
    entries on and below the diagonal, which sums duplicates, and factored
    through its transpose, which is Fortran-ordered, so dpbtrf overwrites it
    in place and dpbtrs reads it without a copy.  Raises EigensolveError
    unless a is positive definite and finite: dpbtrf reports a nonpositive
    pivot, and a NaN reaches the diagonal of the factor.
    """
    n = a.shape[0]
    lower = a.row >= a.col
    rows, cols = a.row[lower], a.col[lower]
    kd = int(np.max(rows - cols, initial=0))
    # entry (i, j) lands in row j, column i − j of the band, flat j·kd + i;
    # in intp, as n·(kd+1) can pass the int32 range
    band = np.bincount(cols.astype(np.intp) * kd + rows, weights=a.data[lower],
                       minlength=n * (kd + 1)).reshape(n, kd + 1)
    factor, info = dpbtrf(band.T, lower=1, overwrite_ab=1)
    if info != 0 or not np.all(np.isfinite(factor[0])):
        raise EigensolveError(f"band Cholesky factorization failed (LAPACK info {info}): "
                              "K + M_∂ is not positive definite and finite")
    return factor
