"""P1 finite elements for the Steklov problem on annular meshes.

The solver needs K + M_∂, stiffness plus boundary mass, and assembles it
edge by edge from the mesh's ring array (see `mesher`), never forming its
vertex or triangle list: each quad's edge vectors give, through their
cross and dot products, the stiffness −½(cot α + cot β) of each of its
edges; every row's diagonal is minus its off-diagonal sum; and each
boundary loop edge of length ℓ adds ℓ/6·[[2, 1], [1, 2]].  The values are
written once into one flat array of ring-space entries on the union
stencil (`mesher._union_parts`), and the boundary mass M_bb into one of
its loop entries; no sparse matrix is formed on the way to the
eigenvalues.  Folded θ-major (`mesher._folds`), every entry lies within
2N_r + 3 of the diagonal, so K + M_∂ packs straight into a band.  Where
every held entry lands in a band of K + M_∂ and of M_bb, and with what
sign, depends on the resolution alone, so `mesher._folds` works it out
once per resolution and a solve packs each band with one bincount over the
entries (`_solve_folds`).  A mesh that is its own mirror image under
y ↦ −y, as the mesh of every table row is, is solved as two half pencils,
one on even and one on odd vectors, each with a K + M_∂ band N_r + 2 wide
and an M_bb band 2 wide; any other mesh is solved in one block, in the
folded order.  The spectrum comes from a standard-form Lanczos iteration on
the boundary traces (see `linalg`); only the traces are kept.  Every pair
is checked against the full pencil, K + M_∂ and M_bb applied by their
ring stencils (`mesher._union_product`, `mesher._loop_product`).  The COO
matrices of K + M_∂, M_bb and K alone are built on request only
(`AssembledSystem.shifted`, `.boundary_mass`, `.stiffness`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import AnnularDomain
from .linalg import check_residual, lowest_pairs
from .mesher import (Mesh, _folds, _loop_matrix, _loop_product, _quad_sides, _twice_areas,
                     _union_matrix, _union_parts, _union_product, build_annular_mesh)

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class AssembledSystem:
    """K + M_∂ and M_bb of a mesh as their ring-space entries, read-only.

    entries holds the V + E values of K + M_∂ on the union stencil, flat,
    in the order `mesher._union_matrix` lays out its first V + E entries
    (`parts` gives its ring-space views); mass_entries holds M_bb over
    boundary_dofs, its diagonal (2, N_θ) and then its loop edges (2, N_θ),
    flat.  The matrices themselves are built on request only, for the
    tests and for callers that want them; the solve never forms them.
    """

    entries: np.ndarray
    mass_entries: np.ndarray
    mesh: Mesh

    @property
    def boundary_dofs(self):
        """The boundary vertices, inner loop then outer loop."""
        return self.mesh.boundary_vertices

    @property
    def parts(self):
        """The ring-space views vertex, radial, around, on_ac, on_bd of
        entries (`mesher._union_parts`)."""
        return _union_parts(self.entries, self.mesh.n_theta, self.mesh.n_radial)

    @property
    def mass_parts(self):
        """The views diagonal and edge, each (2, N_θ), of mass_entries."""
        return tuple(self.mass_entries.reshape(2, 2, -1))

    @property
    def shifted(self) -> sp.coo_array:
        """K + M_∂ as a COO matrix, laid out by `mesher._union_matrix`."""
        return _union_matrix(*self.parts)

    @property
    def boundary_mass(self) -> sp.coo_array:
        """M_bb over boundary_dofs as a COO matrix, by `mesher._loop_matrix`."""
        return _loop_matrix(*self.mass_parts)

    @property
    def stiffness(self) -> sp.coo_array:
        """K alone, on the same stencil."""
        mesh = self.mesh
        return _union_matrix(*_union_parts(_assemble(mesh, with_boundary=False),
                                           mesh.n_theta, mesh.n_radial))


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
    mesh: Mesh

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.boundary_vectors.setflags(write=False)

    @property
    def boundary_dofs(self):
        """The boundary vertices, inner loop then outer loop."""
        return self.mesh.boundary_vertices


def assemble(mesh: Mesh) -> AssembledSystem:
    """K + M_∂ over all vertices plus the boundary mass over boundary dofs,
    both from the mesh's ring array alone, as their ring-space entries."""
    return AssembledSystem(entries=_assemble(mesh, with_boundary=True),
                           mass_entries=_loop_entries(mesh), mesh=mesh)


def _assemble(mesh, with_boundary):
    """K, plus M_∂ if with_boundary, in one pass over the ring-space quads,
    as the flat entries `mesher._union_parts` splits."""
    ring = mesh.ring
    use_ac, (ab, bc, cd, da), g = _quad_sides(ring)
    first, second = 0.5 / _twice_areas(use_ac, (ab, bc, cd, da))

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1]

    # in a CCW triangle with edge vectors u, v, w the entry of edge u is
    # −½·cot of the angle opposite it, v·w / (2·u × v).  Taken CCW from the
    # start of the diagonal g, a quad's edges are f0, f1, f2, f3 = ab, bc,
    # cd, da or da, ab, bc, cd; its first triangle has the edges f0, f1, −g,
    # its second f2, f3, g.  Each side takes its entry from whichever split
    # the quad has, one scalar where at a time
    on_ab = np.where(use_ac, -dot(bc, g), -dot(g, da)) * first
    on_bc = np.where(use_ac, -dot(g, ab) * first, dot(cd, g) * second)
    on_cd = np.where(use_ac, dot(da, g), dot(g, bc)) * second
    on_da = np.where(use_ac, dot(g, cd) * second, -dot(ab, g) * first)
    across = (np.where(use_ac, dot(ab, bc), dot(da, ab)) * first
              + np.where(use_ac, dot(cd, da), dot(bc, cd)) * second)
    del ab, bc, cd, da, g, first, second  # freed before the entries are allocated

    entries = np.empty((5 * mesh.n_radial + 2) * mesh.n_theta)  # V + E
    vertex, radial, around, on_ac, on_bd = _union_parts(entries, mesh.n_theta, mesh.n_radial)
    on_ac[...] = np.where(use_ac, across, 0.0)
    on_bd[...] = across - on_ac  # explicit zero on the diagonal the quad does not take

    # radial edge (j, i)–(j+1, i): side ab of quad (j, i), side cd of quad (j, i−1)
    radial[...] = on_ab + np.roll(on_cd, 1, axis=1)
    # ring edge (j, i)–(j, i+1): side da of the quad outward of ring j, bc of the one inward
    around[:-1] = on_da
    around[-1] = 0.0
    around[1:] += on_bc
    vertex[...] = -(around + np.roll(around, 1, axis=1))
    vertex[:-1] -= radial + on_ac + np.roll(on_bd, 1, axis=1)  # corner a or d of its layer
    vertex[1:] -= radial + on_bd + np.roll(on_ac, 1, axis=1)   # corner b or c of its layer

    if with_boundary:
        for j in (0, -1):
            loop = np.roll(ring[:, j], -1, axis=1) - ring[:, j]
            length = np.sqrt(dot(loop, loop))
            around[j] += length / 6.0
            third = length / 3.0
            vertex[j] += third + np.roll(third, 1)
    entries.setflags(write=False)
    return entries


def _loop_entries(mesh):
    """The entries of M_bb, flat: diagonal (2, N_θ), then edge (2, N_θ)
    coupling θ column i of a loop to column i+1 (`mesher._loop_matrix`)."""
    loops = mesh.ring[:, [0, -1]]
    lengths = np.linalg.norm(np.roll(loops, -1, axis=2) - loops, axis=0)
    third = lengths / 3.0
    entries = np.stack([third + np.roll(third, 1, axis=1), lengths / 6.0]).ravel()
    entries.setflags(write=False)
    return entries


def boundary_mass(mesh: Mesh) -> sp.coo_array:
    """P1 boundary mass over the boundary loops, inner then outer.

    Rows and columns are positions in `mesh.boundary_vertices`; each loop
    edge of length ℓ adds ℓ/6·[[2, 1], [1, 2]].  COO, each position once,
    laid out by `mesher._loop_matrix`; the solve never forms it.
    """
    return _loop_matrix(*_loop_entries(mesh).reshape(2, 2, -1))


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

    return SteklovSpectrum(eigenvalues=eigenvalues, boundary_vectors=vectors, mesh=mesh)


def _solve_folds(system, count, halves):
    """The `count` smallest eigenpairs, ascending, with boundary traces in
    boundary_dofs order, from the folds `mesher._folds` maps the pencil
    onto: the whole mesh, or a mirrored mesh's even and odd half.  Raises
    ValueError unless 1 ≤ count < n_b.

    With Q the injection of a fold into all vertices, its pencil is
    Qᵀ(K + M_∂)Q against QᵀM_∂Q; each band is packed by one bincount over
    the held entries and factored in place by `lowest_pairs` before the
    next fold is packed.  The whole mesh, Q the permutation into the folded
    θ-major order, is asked for count + 1 pairs (at most n_b − 1, ARPACK's
    limit): Lanczos finds the second copy of a double eigenvalue only
    through round-off and locking, and asked for exactly `count` pairs it
    can return the next eigenvalue in its place.  The mirror y ↦ −y
    commutes with K + M_∂ and M_∂, so a mirrored mesh's spectrum is the
    union of those of its even and odd half, where Q is 1 on θ column i
    and its mirror −i, negated past θ = π in the odd half, and a double
    eigenvalue with an even and an odd eigenvector splits into one simple
    eigenvalue per half.  The constant
    is even, so the `count` smallest pairs are among the `count` smallest
    even ones and the `count − 1` smallest odd ones.  The fold vectors are
    unfolded, u = Q·u_fold, by vertex number, and checked against the full
    pencil, applied by its ring stencils.
    """
    mesh, dofs = system.mesh, system.boundary_dofs
    nb = len(dofs)
    if not 1 <= count < nb:
        raise ValueError(f"count must be in [1, {nb - 1}], got {count}")
    plan = (count, count - 1) if halves else (min(count + 1, nb - 1),)
    eigenvalues, vectors = [], []
    for fold, computed in zip(_folds(mesh.n_theta, mesh.n_radial, halves), plan):
        if computed == 0:
            continue
        lams, fold_vectors = lowest_pairs(fold.stiffness.pack(system.entries),
                                          fold.mass.pack(system.mass_entries),
                                          fold.boundary, computed, min(computed, count))
        eigenvalues.append(lams)
        vectors.append(fold.sign[:, None] * fold_vectors[fold.label])
    eigenvalues, vectors = np.concatenate(eigenvalues), np.hstack(vectors)
    lowest = np.argsort(eigenvalues, kind="stable")[:count]
    eigenvalues, vectors = eigenvalues[lowest], vectors[:, lowest]
    check_residual(functools.partial(_union_product, *system.parts),
                   functools.partial(_loop_product, *system.mass_parts),
                   dofs, eigenvalues, vectors)
    return eigenvalues, vectors[dofs]


def solve_domain(domain: AnnularDomain, n_theta: int, n_radial: int,
                 count: int = 3, grading: float = 1.0) -> SteklovSpectrum:
    """Mesh, assemble and solve in one call."""
    mesh = build_annular_mesh(domain, n_theta, n_radial, grading=grading)
    return solve_spectrum(assemble(mesh), count)
