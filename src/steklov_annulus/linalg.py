"""Sparse eigensolver for the discrete Steklov pencil K·u = λ·M_∂·u.

K is the P1 stiffness matrix (positive semidefinite, constants in its
kernel) and M_∂ the boundary mass, zero away from the boundary; neither is
invertible.  Their sum is symmetric positive definite on a connected mesh,
and it is all this module is given of K: `fem` assembles K + M_∂ directly.
M_∂ = E·M_bb·Eᵀ, with E the injection of the n_b boundary vertices into all
n, so the pencil reduces to the boundary problem S·w = λ·M_bb·w, with S the
discrete Dirichlet-to-Neumann matrix and w the trace Eᵀu.  S is never
formed: G = Eᵀ·(K + M_∂)⁻¹·E = (S + M_bb)⁻¹ is its shifted inverse at
σ = −1, and with M_bb = L·Lᵀ the pencil becomes the standard symmetric
problem C·y = μ·y, C = Lᵀ·G·L, y = Lᵀ·w, μ = 1/(1 + λ), whose largest μ
belong to the smallest λ.  ARPACK's Lanczos iteration runs on C in its
standard mode, on vectors of length n_b: each step is one product with L,
one solve with the Cholesky factor of K + M_∂, right-hand side scattered
onto the boundary, and one product with Lᵀ, with no M_bb product and one
call back into Python.  No dense operator is formed.
Both matrices are factored as band matrices by LAPACK's band Cholesky
(dpbtrf), in place: K + M_∂ in the vertex order it is given, M_bb with its
boundary vertices in ascending order, in which the folds `fem` packs put
the two ends of every loop edge at most two boundary positions apart on a
mirror half and four in one block.  BLAS's dtbmv applies the band L.  The
factor of K + M_∂ is applied by two dtbsv sweeps per column, both on an
upper band: OpenBLAS's lower-transposed sweep, the Lᵀ·x = y step of
dpbtrs, runs 2.5–3× slower than the other three band sweeps (121–136
against 38–50 µs at n = 3225, kd = 26).  So the lower factor L is reversed in
place once per fold: its flat storage read backwards is the upper band
storage of Ũ = P·L·P, P the reversal of the vertex order, and
P·(K + M_∂)·P = Ũ·Ũᵀ.  Each solve scatters its right-hand side onto the
reversed boundary positions n − 1 − boundary_dofs and runs Ũ·z = b, then
Ũᵀ·x = z.  `mesher._folds` orders the vertices so that the band of
K + M_∂ is 2N_r + 3 wide on the whole mesh and N_r + 2 on a mirror half;
this module makes no ordering choice itself.
One more block solve lifts the converged traces to full vertex vectors
u = (1 + λ)·(K + M_∂)⁻¹·E·M_bb·w, with M_bb·w = L·y, on which every pair is
checked against RESIDUAL_BOUND: K·u − λ·M_∂·u, computed as
(K + M_∂)·u − (1 + λ)·M_∂·u, equals (1 + λ)·E·M_bb·(w − Eᵀu), the boundary
eigen-residual.

`fem` packs both bands and solves a pencil as one or more folds of it
(the whole mesh, or its two mirror halves) with the two steps here:
`lowest_pairs`, the lifted and normalized Lanczos pairs of one fold, and
`check_residual`, which checks their union against the full pencil.  This
module is given no matrix beyond the two bands: `check_residual` takes
K + M_∂ and M_bb as functions that apply them to one vector, which `fem`
does by their ring stencils, and applies them one column at a time.

ARPACK stops when the Euclidean norm of a Ritz residual of C is below
LANCZOS_TOL times its Ritz value μ.  On y = Lᵀ·w that norm is the M_bb-norm
of the residual of G·M_bb on w, since |Lᵀ·x|² = xᵀ·M_bb·x.  The check
measures Euclidean norms instead, which can be larger by up to the square
root of the condition number of M_bb: 3/ε for a hole of radius ε with as
many vertices as the outer circle, about 6 at ε = 0.08.  LANCZOS_TOL sits
100× below RESIDUAL_BOUND to cover that factor with room to spare.

Each function imports the SciPy routines it calls in its own body, so that
importing the package for its closed forms alone loads no SciPy
subpackage; the first solve pays that import once.
"""

from __future__ import annotations

import numpy as np

# largest accepted ‖K·v − λ·M_∂·v‖ / ((1 + λ)·‖M_∂·v‖) of a returned pair
RESIDUAL_BOUND = 1e-8
# ARPACK's relative Ritz-residual stopping tolerance (module docstring)
LANCZOS_TOL = 1e-10


class EigensolveError(ValueError):
    """The Steklov pencil could not be solved to the residual bound."""


def lowest_pairs(band, mass_band, boundary_dofs, computed: int, count: int):
    """The `count` smallest of the `computed` smallest eigenpairs that the
    Lanczos iteration returns, unchecked: ascending eigenvalues and full
    vertex vectors u as columns, normalized to uᵀ·M_∂·u = 1.

    band is the lower band of K + M_∂ and mass_band that of M_bb, its rows
    and columns in boundary_dofs order, each C-ordered as (n, kd+1): row j
    holds the entries (j, j), (j+1, j), …, (j+kd, j).  Both are factored in
    place, and the factor of K + M_∂ is then reversed in place (`_reverse`),
    so that every solve with it is two fast upper sweeps (module docstring);
    the Lanczos iteration works on the reversed boundary positions, and the
    final lift reverses the rows of its result.  1 ≤ count ≤ computed < n_b.
    """
    from scipy.linalg.blas import dtbmv
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    factor = _reverse(_band_cholesky(band, "K + M_∂"))  # P·(K + M_∂)·P = Ũ·Ũᵀ
    mass_factor = _band_cholesky(mass_band, "M_bb")  # M_bb = L·Lᵀ
    n, nb, kd = factor.shape[1], len(boundary_dofs), mass_factor.shape[0] - 1
    rows = n - 1 - boundary_dofs  # the boundary vertices' rows in reversed order

    def times_factor(x, trans=0):
        """L·x, or Lᵀ·x if trans, for a vector x."""
        return dtbmv(kd, mass_factor, x, lower=1, trans=trans)

    # C = Lᵀ·G·L, whose largest eigenvalues μ = 1/(1 + λ), with eigenvectors
    # y = Lᵀ·w, belong to the smallest λ
    c = LinearOperator((nb, nb), dtype=float,
                       matvec=lambda y: times_factor(_lift(factor, rows, times_factor(y))[rows], 1))
    v0 = np.random.default_rng(0).standard_normal(nb)  # fixed, so runs repeat exactly
    try:
        mu, traces = eigsh(c, computed, which="LA", v0=v0, tol=LANCZOS_TOL)
    except ArpackError as exc:
        raise EigensolveError(f"Lanczos iteration failed: {exc}") from exc

    eigenvalues = 1.0 / mu - 1.0
    lowest = np.argsort(eigenvalues)[:count]
    # full vertex vectors u = (1 + λ)·(K + M_∂)⁻¹·E·M_bb·w up to the
    # normalization below, whose residual is the boundary eigen-residual of
    # w; M_bb·w = L·y
    mass_traces = np.column_stack([times_factor(y) for y in traces[:, lowest].T])
    vectors = _lift(factor, rows, mass_traces)[::-1]  # back to the given vertex order
    # uᵀ·M_∂·u = |Lᵀ·Eᵀu|²
    scale = [np.linalg.norm(times_factor(u, 1)) for u in vectors[boundary_dofs].T]
    return eigenvalues[lowest], vectors / scale


def check_residual(shifted, boundary_mass, boundary_dofs, eigenvalues, vectors):
    """Raise EigensolveError unless every pair (λ, u), u a full vertex
    vector, has ‖K·u − λ·M_∂·u‖ / ((1 + λ)·‖M_∂·u‖) ≤ RESIDUAL_BOUND.

    shifted and boundary_mass are functions that return the product of
    K + M_∂ with one full vertex vector and of M_bb, rows and columns in
    boundary_dofs order, with one boundary vector; vectors holds u as its
    columns in the vertex order of shifted, and boundary_dofs gives the
    rows of its boundary vertices.  The pairs are checked one column at a
    time, so that no temporary is wider than one vector.
    """
    residuals = []
    for lam, u in zip(eigenvalues, vectors.T):
        mv = boundary_mass(u[boundary_dofs])  # M_∂·u, zero off the boundary
        residual = shifted(u)
        residual[boundary_dofs] -= mv * (1.0 + lam)
        residuals.append(np.linalg.norm(residual) / ((1.0 + lam) * np.linalg.norm(mv)))
    worst = float(np.max(residuals))
    if not worst <= RESIDUAL_BOUND:  # also catches NaN
        raise EigensolveError(f"eigenpair residual {worst:.3g} exceeds {RESIDUAL_BOUND:g}")


def _band_cholesky(band, name):
    """Lower Cholesky factor, in LAPACK band storage (kd+1, n), of the SPD
    matrix `name`, given its C-ordered (n, kd+1) lower band (`lowest_pairs`):
    entry (i − j, j) holds L[i, j].

    The band is factored through its transpose, which is Fortran-ordered,
    so dpbtrf overwrites it in place, and `_reverse` and dtbmv use the
    factor without a copy.  Raises EigensolveError unless the matrix is
    positive definite and finite: dpbtrf reports a nonpositive pivot, and a
    NaN reaches the diagonal of the factor.  Both checks run on the lower
    factor, before any reversal.
    """
    from scipy.linalg.lapack import dpbtrf

    factor, info = dpbtrf(band.T, lower=1, overwrite_ab=1)
    if info != 0 or not np.all(np.isfinite(factor[0])):
        raise EigensolveError(f"band Cholesky factorization failed (LAPACK info {info}): "
                              f"{name} is not positive definite and finite")
    return factor


def _reverse(factor):
    """The Fortran-ordered band `factor`, its flat storage reversed in place
    by one BLAS swap and returned.  Entry (i − j, j) of a lower band, L[i, j],
    lands on entry (kd + (n−1−i) − (n−1−j), n−1−j) of an upper band: the
    lower band of L becomes the upper band of Ũ = P·L·P, P the reversal of
    the vertex order, and reversing again restores L bit for bit.
    """
    from scipy.linalg.blas import dswap

    flat = factor.reshape(-1, order="F")  # a view: no band-sized temporary
    half = len(flat) // 2
    dswap(flat[:half], flat[-half:], incy=-1)  # a negative stride walks y backwards
    return factor


def _lift(factor, rows, traces):
    """Ũ⁻ᵀ·Ũ⁻¹·E·traces, every column at once, for the reversed factor Ũ of
    `_reverse` and E the injection at `rows`: zeros with traces scattered
    onto rows, then two upper dtbsv sweeps per column, Ũ·z = b and Ũᵀ·x = z.
    """
    from scipy.linalg.blas import dtbsv

    kd = factor.shape[0] - 1
    # Fortran order, so that every column is contiguous and dtbsv solves it
    # in place
    x = np.zeros((factor.shape[1],) + traces.shape[1:], order="F")
    x[rows] = traces
    for column in x.reshape(len(x), -1, order="F").T:
        dtbsv(kd, factor, column, overwrite_x=1)
        dtbsv(kd, factor, column, trans=1, overwrite_x=1)
    return x
