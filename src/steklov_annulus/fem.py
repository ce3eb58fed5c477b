"""P1 finite elements for the Steklov problem on annular meshes.

The stiffness matrix is assembled from exact element integrals of hat
function gradients; the boundary mass matrix from exact edge integrals
(edge-length/6 times the [[2,1],[1,2]] pattern).  Both are sparse and
indexed by the mesh's own vertex numbers, which follow the elimination order
(see `mesher`), so K + M_∂ reaches the solver ready to factor.  The spectrum
comes from one sparse eigensolve of the Steklov pencil, a shift-invert
Lanczos iteration on the boundary traces (see `linalg`); only the traces are
kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import AnnularDomain
from .linalg import steklov_eigs
from .mesher import Mesh, build_annular_mesh


class AssemblyError(ValueError):
    pass


@dataclass(frozen=True)
class AssembledSystem:
    stiffness: sp.csr_matrix
    boundary_mass: sp.csr_matrix        # over boundary dofs, in boundary_dofs order
    boundary_dofs: np.ndarray           # vertex indices, inner loop then outer loop
    mesh: Mesh


@dataclass(frozen=True)
class SteklovSpectrum:
    """Ascending eigenvalues with boundary-trace eigenvectors.

    Eigenvectors are columns of boundary_vectors, in boundary_dofs order and
    normalized to unit discrete boundary L² norm; sign fixed so the trace at
    θ=0 on the outer loop is nonnegative.  The sign rule pins simple
    eigenpairs only: inside a multiple eigenvalue (boundary_vectors[:, 1:3]
    on a concentric annulus) the basis depends on the eigensolver and its
    start vector.
    """

    eigenvalues: np.ndarray
    boundary_vectors: np.ndarray
    boundary_dofs: np.ndarray
    mesh: Mesh

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.boundary_vectors.setflags(write=False)


def assemble(mesh: Mesh) -> AssembledSystem:
    """Stiffness over all vertices plus boundary mass over boundary dofs."""
    verts, tris = mesh.vertices, mesh.triangles
    p = verts[tris]
    x, y = p[:, :, 0], p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = np.einsum("ti,ti->t", x, b)
    if np.any(area2 <= 0):
        raise AssemblyError("degenerate or inverted triangle in mesh")
    ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (2.0 * area2)[:, None, None]
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = len(verts)
    stiffness = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    stiffness.sum_duplicates()

    return AssembledSystem(stiffness=stiffness, boundary_mass=boundary_mass(mesh),
                           boundary_dofs=mesh.boundary_vertices, mesh=mesh)


def boundary_mass(mesh: Mesh) -> sp.csr_matrix:
    """P1 boundary mass over the boundary loops, inner then outer.

    Rows and columns are positions in `mesh.boundary_vertices`; each loop
    edge of length ℓ adds ℓ/6·[[2, 1], [1, 2]].
    """
    rows, cols, vals = [], [], []
    offset = 0
    for loop in (mesh.inner_loop, mesh.outer_loop):
        lengths = np.linalg.norm(mesh.vertices[np.roll(loop, -1)] - mesh.vertices[loop], axis=1)
        i = offset + np.arange(len(loop))
        j = offset + np.roll(np.arange(len(loop)), -1)
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        vals += [lengths / 3.0, lengths / 3.0, lengths / 6.0, lengths / 6.0]
        offset += len(loop)
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(offset, offset)).tocsr()


def solve_spectrum(system: AssembledSystem, count: int) -> SteklovSpectrum:
    """`count` smallest Steklov eigenpairs of the assembled system."""
    eigenvalues, vectors = steklov_eigs(system.stiffness, system.boundary_mass,
                                        system.boundary_dofs, count)

    # deterministic sign: boundary value at θ=0 on the outer loop >= 0; the
    # outer loop follows the inner one in boundary_dofs
    outer_start = len(system.mesh.inner_loop)
    signs = np.where(vectors[outer_start, :] < 0.0, -1.0, 1.0)
    vectors = vectors * signs[None, :]

    return SteklovSpectrum(eigenvalues=eigenvalues, boundary_vectors=vectors,
                           boundary_dofs=system.boundary_dofs, mesh=system.mesh)


def solve_domain(domain: AnnularDomain, n_theta: int, n_radial: int,
                 count: int = 3, grading: float = 1.0) -> SteklovSpectrum:
    """Mesh, assemble and solve in one call."""
    mesh = build_annular_mesh(domain, n_theta, n_radial, grading=grading)
    return solve_spectrum(assemble(mesh), count)
