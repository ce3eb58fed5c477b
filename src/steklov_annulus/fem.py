"""P1 finite elements for the Steklov problem on annular meshes.

The solver needs K + M_∂, stiffness plus boundary mass, and assembles it
edge by edge from the mesh's ring array (see `mesher`), never forming its
vertex or triangle list: each quad's edge vectors give, through their
cross and dot products, the stiffness −½(cot α + cot β) of each of its
edges; every row's diagonal is minus its off-diagonal sum; and each
boundary loop edge of length ℓ adds ℓ/6·[[2, 1], [1, 2]].  The values
reach the solver as symmetric COO triplets over the union stencil
(`mesher._union_matrix`), indexed by the mesh's own vertex numbers, whose
folded θ-major order keeps every entry within 2N_r + 3 of the diagonal,
so K + M_∂ packs straight into a band; the boundary mass M_bb comes as
COO triplets over the boundary loops (`mesher._loop_matrix`).
K alone is formed only on request (`AssembledSystem.stiffness`).  The
spectrum comes from a standard-form Lanczos iteration on the boundary
traces (see `linalg`); only the traces are kept.  Where every assembled
entry lands in a band of K + M_∂ and of M_bb, and with what sign, depends
on the resolution alone, so `mesher._folds` works it out once per
resolution and a solve packs each band with one bincount over the
assembled triplets (`_solve_folds`).  A mesh that is its own mirror image
under y ↦ −y, as the mesh of every table row is, is solved as two half
pencils, one on even and one on odd vectors, each with a K + M_∂ band
N_r + 2 wide and an M_bb band 2 wide; any other mesh is solved in one
block, in its own numbering.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import AnnularDomain
from .linalg import check_residual, lowest_pairs
from .mesher import Mesh, _folds, _loop_matrix, _split_quads, _union_matrix, build_annular_mesh

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class AssembledSystem:
    shifted: sp.coo_array               # K + M_∂, laid out by mesher._union_matrix
    boundary_mass: sp.coo_array         # M_bb over boundary_dofs, by mesher._loop_matrix
    boundary_dofs: np.ndarray           # vertex indices, inner loop then outer loop
    mesh: Mesh

    @functools.cached_property
    def stiffness(self) -> sp.coo_array:
        """K alone, on the same stencil; the solve never needs it."""
        return _assemble(self.mesh, with_boundary=False)


@dataclass(frozen=True)
class SteklovSpectrum:
    """Ascending eigenvalues with boundary-trace eigenvectors.

    Eigenvectors are columns of boundary_vectors, in boundary_dofs order and
    normalized to unit discrete boundary L² norm; sign fixed so that the
    first nonzero value on the outer loop, from θ=0 on, is positive (an odd
    trace is zero at θ=0).  The sign rule pins simple eigenpairs only.  On
    a mirrored mesh every trace is exactly even or odd under θ ↦ −θ, so
    inside the double λ₁ of a concentric annulus (boundary_vectors[:, 1:3])
    the basis is the cos-like and the sin-like trace, in the order of their
    eigenvalues, which round-off splits; on any other mesh the basis inside
    a multiple eigenvalue depends on the eigensolver and its start vector.
    """

    eigenvalues: np.ndarray
    boundary_vectors: np.ndarray
    boundary_dofs: np.ndarray
    mesh: Mesh

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.boundary_vectors.setflags(write=False)


def assemble(mesh: Mesh) -> AssembledSystem:
    """K + M_∂ over all vertices plus the boundary mass over boundary dofs,
    both from the mesh's ring array alone."""
    return AssembledSystem(shifted=_assemble(mesh, with_boundary=True),
                           boundary_mass=boundary_mass(mesh),
                           boundary_dofs=mesh.boundary_vertices, mesh=mesh)


def _assemble(mesh, with_boundary):
    """K, plus M_∂ if with_boundary, in one pass over the ring-space quads."""
    ring = mesh.ring
    use_ac, edges, diagonal, cross = _split_quads(ring)

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1]

    # in a CCW triangle with edge vectors u, v, w the entry of edge u is
    # −½·cot of the angle opposite it, v·w / (2·u × v); the quad's first
    # triangle has the edges f0, f1, −diagonal, its second f2, f3, diagonal
    f0, f1, f2, f3 = edges.swapaxes(0, 1)
    first, second = 0.5 / cross
    sides = np.stack([-dot(f1, diagonal) * first, -dot(diagonal, f0) * first,
                      dot(f3, diagonal) * second, dot(diagonal, f2) * second])
    # back from "CCW from the start of the diagonal" to (ab, bc, cd, da)
    ab, bc, cd, da = np.where(use_ac, sides, np.roll(sides, -1, axis=0))
    across = dot(f0, f1) * first + dot(f2, f3) * second
    on_ac = np.where(use_ac, across, 0.0)
    on_bd = across - on_ac  # explicit zero on the diagonal the quad does not take

    # radial edge (j, i)–(j+1, i): side ab of quad (j, i), side cd of quad (j, i−1)
    radial = ab + np.roll(cd, 1, axis=1)
    # ring edge (j, i)–(j, i+1): side da of the quad outward of ring j, bc of the one inward
    around = np.zeros(ring.shape[1:])
    around[:-1] = da
    around[1:] += bc
    vertex = -(around + np.roll(around, 1, axis=1))
    vertex[:-1] -= radial + on_ac + np.roll(on_bd, 1, axis=1)  # corner a or d of its layer
    vertex[1:] -= radial + on_bd + np.roll(on_ac, 1, axis=1)   # corner b or c of its layer

    if with_boundary:
        for j in (0, -1):
            loop = np.roll(ring[:, j], -1, axis=1) - ring[:, j]
            length = np.sqrt(dot(loop, loop))
            around[j] += length / 6.0
            third = length / 3.0
            vertex[j] += third + np.roll(third, 1)

    return _union_matrix(vertex, radial, around, on_ac, on_bd)


def boundary_mass(mesh: Mesh) -> sp.coo_array:
    """P1 boundary mass over the boundary loops, inner then outer.

    Rows and columns are positions in `mesh.boundary_vertices`; each loop
    edge of length ℓ adds ℓ/6·[[2, 1], [1, 2]].  COO, each position once,
    laid out by `mesher._loop_matrix`.
    """
    loops = mesh.ring[:, [0, -1]]
    lengths = np.linalg.norm(np.roll(loops, -1, axis=2) - loops, axis=0)
    third = lengths / 3.0
    return _loop_matrix(third + np.roll(third, 1, axis=1), lengths / 6.0)


def solve_spectrum(system: AssembledSystem, count: int) -> SteklovSpectrum:
    """`count` smallest Steklov eigenpairs of the assembled system: on a
    mirrored mesh, with count no larger than the odd half's n_b, as the
    union of its even and odd half, otherwise in one block
    (`_solve_folds`)."""
    mesh = system.mesh
    halves = 1 <= count <= 2 * ((mesh.n_theta - 1) // 2) and mesh.mirrored
    eigenvalues, vectors = _solve_folds(system, count, halves)

    # deterministic sign: the first nonzero boundary value on the outer loop,
    # from θ=0 on, is positive; the outer loop follows the inner one in
    # boundary_dofs.  An odd trace is exactly zero at θ=0
    outer = vectors[mesh.n_theta:]
    first = outer[np.argmax(outer != 0.0, axis=0), np.arange(count)]
    vectors = vectors * np.where(first < 0.0, -1.0, 1.0)

    return SteklovSpectrum(eigenvalues=eigenvalues, boundary_vectors=vectors,
                           boundary_dofs=system.boundary_dofs, mesh=mesh)


def _solve_folds(system, count, halves):
    """The `count` smallest eigenpairs, ascending, with boundary traces in
    boundary_dofs order, from the folds `mesher._folds` maps the pencil
    onto: the whole mesh, or a mirrored mesh's even and odd half.  Raises
    ValueError unless 1 ≤ count < n_b.

    With Q the injection of a fold into all vertices, its pencil is
    Qᵀ(K + M_∂)Q against QᵀM_∂Q; each band is packed by one bincount over
    the stored entries and factored in place by `lowest_pairs` before the
    next fold is packed.  The whole mesh, Q the identity, is asked for
    count + 1 pairs (at most n_b − 1, ARPACK's limit): Lanczos finds the
    second copy of a double eigenvalue only through round-off and locking,
    and asked for exactly `count` pairs it can return the next eigenvalue
    in its place.  The mirror y ↦ −y commutes with K + M_∂ and M_∂, so a
    mirrored mesh's spectrum is the union of those of its even and odd
    half, where Q is 1 on θ column i and its mirror −i, negated past θ = π
    in the odd half, and a double eigenvalue with an even and an odd
    eigenvector splits into one simple eigenvalue per half.  The constant
    is even, so the `count` smallest pairs are among the `count` smallest
    even ones and the `count − 1` smallest odd ones.  The fold vectors are
    unfolded, u = Q·u_fold, and checked against the full pencil.
    """
    mesh = system.mesh
    k, mbb = system.shifted, system.boundary_mass
    nb = len(system.boundary_dofs)
    if not 1 <= count < nb:
        raise ValueError(f"count must be in [1, {nb - 1}], got {count}")
    plan = (count, count - 1) if halves else (min(count + 1, nb - 1),)
    eigenvalues, vectors = [], []
    for fold, computed in zip(_folds(mesh.n_theta, mesh.n_radial, halves), plan):
        if computed == 0:
            continue
        lams, fold_vectors = lowest_pairs(fold.stiffness.pack(k.data), fold.mass.pack(mbb.data),
                                          fold.boundary, computed, min(computed, count))
        eigenvalues.append(lams)
        vectors.append(fold.sign[:, None] * fold_vectors[fold.label])
    eigenvalues, vectors = np.concatenate(eigenvalues), np.hstack(vectors)
    lowest = np.argsort(eigenvalues, kind="stable")[:count]
    eigenvalues, vectors = eigenvalues[lowest], vectors[:, lowest]
    check_residual(k, mbb, system.boundary_dofs, eigenvalues, vectors)
    return eigenvalues, vectors[system.boundary_dofs]


def solve_domain(domain: AnnularDomain, n_theta: int, n_radial: int,
                 count: int = 3, grading: float = 1.0) -> SteklovSpectrum:
    """Mesh, assemble and solve in one call."""
    mesh = build_annular_mesh(domain, n_theta, n_radial, grading=grading)
    return solve_spectrum(assemble(mesh), count)
