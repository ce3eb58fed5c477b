"""Reference matrices and band packing for the solver tests, independent
of the fold maps the solve packs its bands by (`fem._folds`).

The package applies K + M_∂ and M_bb by their ring stencils only; the
tests take them as matrices from here.  `reference_boundary_mass` builds
M_bb edge by edge from the mesh's vertices, densely; `held_boundary_mass`
lays out the M_bb an assembled system holds, bit for bit, and
`shifted_matrix` its K + M_∂.  `pack_band` packs the lower band of any
symmetric COO matrix, summing duplicates, in the layout
`linalg.lowest_pairs` factors; `solve_pencil` solves a pencil given as
triplets in any vertex numbering with it, as one block, through the same
`lowest_pairs` and `check_residual` as the solve, applying both matrices
to the residual check by their sparse products.
"""

import numpy as np
import scipy.sparse as sp

from steklov_annulus import fem
from steklov_annulus.linalg import check_residual, lowest_pairs


def reference_boundary_mass(mesh):
    """M_bb accumulated edge by edge over both loops, densely, in
    boundary_vertices order."""
    dofs = mesh.boundary_vertices
    pos = {int(d): i for i, d in enumerate(dofs)}
    ref = np.zeros((len(dofs), len(dofs)))
    for loop in (mesh.inner_loop, mesh.outer_loop):
        for v0, v1 in zip(loop, np.roll(loop, -1)):
            ell = np.linalg.norm(mesh.vertices[v1] - mesh.vertices[v0])
            i, j = pos[int(v0)], pos[int(v1)]
            ref[[i, j], [i, j]] += ell / 3.0
            ref[[i, j], [j, i]] += ell / 6.0
    return ref


def held_boundary_mass(system):
    """The M_bb of an assembled system, densely, in boundary_dofs order:
    column k is `fem._loop_product` of its held entries with unit vector k,
    which holds each entry bit for bit."""
    unit = np.eye(len(system.boundary_dofs))
    return np.column_stack([fem._loop_product(*system.mass_parts, column) for column in unit])


def shifted_matrix(system):
    """K + M_∂ of an assembled system as the COO matrix `fem._union_matrix`
    lays out from its held entries."""
    return fem._union_matrix(*system.parts)


def pack_band(a):
    """The lower band of the symmetric COO matrix a, C-ordered as (n, kd+1),
    kd the largest i − j of a stored entry: row j holds a[j, j],
    a[j+1, j], …, a[j+kd, j].  One bincount over the entries on and below
    the diagonal packs it and sums duplicates."""
    n = a.shape[0]
    lower = a.row >= a.col
    rows, cols = a.row[lower], a.col[lower]
    kd = int(np.max(rows - cols, initial=0))
    # entry (i, j) lands in row j, column i − j of the band, flat j·kd + i;
    # in intp, as n·(kd+1) can pass the int32 range
    return np.bincount(cols.astype(np.intp) * kd + rows, weights=a.data[lower],
                       minlength=n * (kd + 1)).reshape(n, kd + 1)


def solve_pencil(shifted, boundary_mass, boundary_dofs, count):
    """The `count` smallest eigenpairs of K·u = λ·M_∂·u in one block, given
    K + M_∂ in any sparse format and numbering and M_bb in boundary_dofs
    order: ascending eigenvalues and boundary traces in boundary_dofs order.
    M_bb is packed with its boundary vertices in ascending vertex order,
    and count + 1 pairs are computed, at most n_b − 1, as the solve does."""
    boundary_dofs = np.asarray(boundary_dofs)
    shifted = sp.coo_array(shifted)
    nb = len(boundary_dofs)
    order = np.argsort(boundary_dofs)
    rank = np.argsort(order)  # of each boundary position in ascending vertex order
    mbb = sp.coo_array(boundary_mass)
    mass_band = pack_band(sp.coo_array((mbb.data, (rank[mbb.row], rank[mbb.col])),
                                       shape=mbb.shape))
    eigenvalues, vectors = lowest_pairs(pack_band(shifted), mass_band, boundary_dofs[order],
                                        min(count + 1, nb - 1), count)
    check_residual(shifted.__matmul__, mbb.__matmul__, boundary_dofs, eigenvalues, vectors)
    return eigenvalues, vectors[boundary_dofs]
