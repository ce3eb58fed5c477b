"""P1 finite elements for the Steklov problem on annular meshes.

The solver needs K + M_∂, stiffness plus boundary mass.  K is assembled
edge by edge from the mesh's ring array (see `mesher`), never forming its
vertex or triangle list: each quad's edge vectors give, through their
cross and dot products, the stiffness −½(cot α + cot β) of each of its
edges, and every row's diagonal is minus its off-diagonal sum.  Each
boundary loop edge of length ℓ gives M_bb ℓ/6·[[2, 1], [1, 2]]
(`_loop_entries`), which `assemble` adds onto the boundary rings of K.

K + M_∂ is held as one flat array of its V + E ring-space entries on the
union stencil, in which every quad carries both diagonals, so that it
contains the stiffness graph of every mesh of the resolution: the
diagonal, then the radial, ring, ac and bd edges (`_union_parts` gives
their views).  M_bb is held as its diagonal and loop-edge entries.
`_union_product` and `_loop_product` apply them to a vector by slices and
rolls in ring space; no sparse matrix is formed on the way to the
eigenvalues.  On request `_union_matrix` lays the entries out on the
vertex numbers as a symmetric COO matrix, each position once, the first
V + E of them in the order they are held, the diagonal a quad does not
take an explicit zero inside the band; `_loop_matrix` does the same for
M_bb.

`linalg` factors K + M_∂ not in the mesh numbering but in a fold of it,
written only in `_folds`, which works out once per resolution where each
held entry lands in a band of K + M_∂ and of M_bb, and with what sign, so
that a solve packs each band with one bincount (`_solve_folds`).  A mesh
that is its own mirror image under y ↦ −y, as the mesh of every table row
is, is solved as an even and an odd half pencil; any other mesh in one
block.  The spectrum comes from a standard-form Lanczos iteration on the
boundary traces (see `linalg`), and every pair is checked against the
full pencil, applied by the ring stencils.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import AnnularDomain
from .linalg import check_residual, lowest_pairs
from .mesher import Mesh, _corners, _quad_sides, _twice_areas, build_annular_mesh

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class AssembledSystem:
    """K + M_∂ and M_bb of a mesh as their ring-space entries, read-only.

    entries holds the V + E values of K + M_∂ on the union stencil, flat,
    in the order `_union_matrix` lays out its first V + E entries (`parts`
    gives its ring-space views); mass_entries holds M_bb over
    boundary_dofs, its diagonal (2, N_θ) and then its loop edges (2, N_θ),
    flat.
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
        entries (`_union_parts`)."""
        return _union_parts(self.entries, self.mesh.n_theta, self.mesh.n_radial)

    @property
    def mass_parts(self):
        """The views diagonal and edge, each (2, N_θ), of mass_entries."""
        return tuple(self.mass_entries.reshape(2, 2, -1))

    @property
    def shifted(self) -> sp.coo_array:
        """K + M_∂ as a COO matrix, laid out by `_union_matrix`."""
        return _union_matrix(*self.parts)

    @property
    def stiffness(self) -> sp.coo_array:
        """K alone, on the same stencil: the entries `assemble` adds M_bb to."""
        mesh = self.mesh
        return _union_matrix(*_union_parts(_assemble(mesh), mesh.n_theta, mesh.n_radial))


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
    both from the mesh's ring array alone, as their ring-space entries: K
    by `_assemble`, M_bb by `_loop_entries`, added onto rings 0 and N_r."""
    entries, mass_entries = _assemble(mesh), _loop_entries(mesh)
    vertex, _, around, _, _ = _union_parts(entries, mesh.n_theta, mesh.n_radial)
    diagonal, edge = mass_entries.reshape(2, 2, -1)
    vertex[[0, -1]] += diagonal
    around[[0, -1]] += edge
    entries.setflags(write=False)
    return AssembledSystem(entries=entries, mass_entries=mass_entries, mesh=mesh)


def _assemble(mesh):
    """K in one pass over the ring-space quads, as the flat entries
    `_union_parts` splits."""
    use_ac, (ab, bc, cd, da), g = _quad_sides(mesh.ring)
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
    return entries


def _loop_entries(mesh):
    """The entries of M_bb, flat: diagonal (2, N_θ), then edge (2, N_θ)
    coupling θ column i of a loop to column i+1 (`_loop_matrix`)."""
    loops = mesh.ring[:, [0, -1]]
    lengths = np.linalg.norm(np.roll(loops, -1, axis=2) - loops, axis=0)
    third = lengths / 3.0
    entries = np.stack([third + np.roll(third, 1, axis=1), lengths / 6.0]).ravel()
    entries.setflags(write=False)
    return entries


def boundary_mass(mesh: Mesh) -> sp.coo_array:
    """P1 boundary mass over the boundary loops, inner then outer, as a COO
    matrix laid out by `_loop_matrix`; rows and columns are positions in
    `mesh.boundary_vertices`."""
    return _loop_matrix(*_loop_entries(mesh).reshape(2, 2, -1))


def _stencil(n_theta, n_radial):
    """The union stencil in the order `_union_matrix` lays it out: the mesh
    number of every vertex (N_r+1, N_θ), then the ends p and q of its
    radial, ring, ac and bd edges, as tuples of their ring-space arrays."""
    number, nxt, a, b, c, d = _corners(n_theta, n_radial)
    return number, (a, number, a, b), (b, nxt, c, d)


def _union_parts(entries, n_theta, n_radial):
    """The ring-space views vertex (N_r+1, N_θ), radial (N_r, N_θ), around
    (N_r+1, N_θ), on_ac and on_bd (N_r, N_θ) of the flat array of the
    V + E = (5N_r + 2)·N_θ entries of K + M_∂ on the union stencil, laid
    out as `_union_matrix` lays out its first V + E entries."""
    layers = n_radial + 1
    ends = np.cumsum([layers, n_radial, layers, n_radial]) * n_theta
    return tuple(part.reshape(-1, n_theta) for part in np.split(entries, ends))


def _union_matrix(vertex, radial, around, on_ac, on_bd):
    """The mesh-numbered symmetric COO matrix on the union stencil with the
    given ring-space entries, each edge's in both of its places, int32
    indices, every entry once.

    vertex (N_r+1, N_θ) is the diagonal; radial (N_r, N_θ) couples (j, i)
    and (j+1, i), around (N_r+1, N_θ) couples (j, i) and (j, i+1), and
    on_ac and on_bd (N_r, N_θ) are the quad diagonals (j, i)–(j+1, i+1) and
    (j+1, i)–(j, i+1).  The diagonal comes first, then every edge (p, q) in
    `_stencil` order, then every (q, p): `_folds` reads the first
    V + E entries.
    """
    import scipy.sparse as sp

    n_radial, n_theta = radial.shape
    number, p, q = _stencil(n_theta, n_radial)
    off = (radial, around, on_ac, on_bd)
    return sp.coo_array((np.concatenate([vertex, *off, *off], axis=None),
                         (np.concatenate([number, *p, *q], axis=None),
                          np.concatenate([number, *q, *p], axis=None))),
                        shape=(number.size, number.size))


def _union_product(vertex, radial, around, on_ac, on_bd, u):
    """The product of the matrix `_union_matrix` lays out from the same
    entries with one vector u, by its ring stencil, where every edge
    couples slices and rolls of u.  u and the product are flat, by vertex
    number: vertex i of ring j at j·N_θ + i."""
    x = u.reshape(vertex.shape)
    nxt = np.roll(x, -1, axis=1)  # vertex i+1 of each ring
    y = vertex * x + around * nxt
    y[:-1] += radial * x[1:] + on_ac * nxt[1:]
    y[1:] += radial * x[:-1] + on_bd * nxt[:-1]
    back = around * x  # what each vertex gives vertex i+1 of its own or the next ring
    back[:-1] += on_bd * x[1:]
    back[1:] += on_ac * x[:-1]
    y += np.roll(back, 1, axis=1)
    return y.ravel()


def _loop_stencil(n_theta):
    """Every boundary position (2, N_θ), inner loop then outer loop, and the
    position after it on its loop."""
    position = np.arange(2 * n_theta).reshape(2, n_theta)
    return position, np.roll(position, -1, axis=1)


def _loop_matrix(diagonal, edge):
    """The symmetric COO matrix over the boundary positions, inner loop
    (0 … N_θ−1) then outer loop, with diagonal (2, N_θ) and edge (2, N_θ)
    coupling θ column i of a loop to column i+1; laid out like
    `_union_matrix`, the diagonal, every (i, i+1), then every (i+1, i)."""
    import scipy.sparse as sp

    n_theta = diagonal.shape[1]
    position, nxt = _loop_stencil(n_theta)
    return sp.coo_array((np.concatenate([diagonal, edge, edge], axis=None),
                         (np.concatenate([position, position, nxt], axis=None),
                          np.concatenate([position, nxt, position], axis=None))),
                        shape=(2 * n_theta, 2 * n_theta))


def _loop_product(diagonal, edge, w):
    """The product of the matrix `_loop_matrix` lays out from the same
    entries with one vector w over the boundary positions, by its loop
    stencil."""
    w = w.reshape(diagonal.shape)
    product = diagonal * w
    product += edge * np.roll(w, -1, axis=1)
    product += np.roll(edge * w, 1, axis=1)
    return product.ravel()


@dataclass(frozen=True)
class _BandFold:
    """Where each stored entry of a symmetric matrix lands in the lower band
    of its fold QᵀAQ, and with what weight.

    The entries are the diagonal and each off-diagonal pair once, in the
    order they are held (module docstring); slot is the flat position,
    j·kd + i, of the folded entry (i, j), i ≥ j, in a C-ordered (n, kd+1)
    band, whose row j holds the entries (j, j), (j+1, j), …, (j+kd, j), kd
    the largest i − j of a folded entry.
    weight is the product of the two ends' signs, doubled where both ends
    of a pair fold onto one vertex, whose diagonal then receives the pair's
    entry and its transpose.
    """

    slot: np.ndarray    # int32 where it fits
    weight: np.ndarray  # int8: 0, ±1 or ±2
    shape: tuple        # (n, kd+1)

    @classmethod
    def of(cls, label, sign, p, q):
        """The fold of the entries joining p and q, vertex v going to fold
        number label[v] with sign[v]."""
        lp, lq = label[p], label[q]
        lo, hi = np.minimum(lp, lq), np.maximum(lp, lq)
        n, kd = int(label.max()) + 1, int(np.max(hi - lo))
        weight = np.where((lp == lq) & (p != q), 2, 1) * sign[p] * sign[q]
        # kept as int32, which halves the cached map, unless n·(kd+1) passes its range
        index = np.int32 if n * (kd + 1) <= np.iinfo(np.int32).max else np.intp
        fold = cls(slot=(lo.astype(np.intp) * kd + hi).astype(index),
                   weight=weight.astype(np.int8), shape=(n, kd + 1))
        fold.slot.setflags(write=False)
        fold.weight.setflags(write=False)
        return fold

    def pack(self, entries):
        """The folded lower band, given the held entries of a matrix in the
        layout the fold was made for."""
        n, width = self.shape
        return np.bincount(self.slot, weights=self.weight * entries,
                           minlength=n * width).reshape(n, width)


@dataclass(frozen=True)
class _Fold:
    """The whole mesh or one mirror half at one resolution (`_folds`).

    label (V,) int32 and sign (V,) float give, for every mesh number, the
    fold vertex it lands on and its sign there, so that Q·u_fold is
    sign·u_fold[label].  boundary lists the fold numbers of the boundary
    vertices, ascending, the order in which its M_bb is a band.  stiffness
    folds K + M_∂ from its union-stencil triplets into the fold's band,
    mass folds M_bb from its loop triplets into the band over boundary.
    """

    label: np.ndarray
    sign: np.ndarray
    boundary: np.ndarray
    stiffness: _BandFold
    mass: _BandFold


@functools.lru_cache(maxsize=8)
def _folds(n_theta, n_radial, halves):
    """The folds a solve at this resolution packs its bands by, as `_Fold`s,
    built once per resolution and route and read-only; the last eight stay
    cached, a refinement ladder on both routes.

    Without halves, the whole mesh in folded θ-major order, sign 1: vertex
    (j, i) lands on slot(i)·(N_r+1) + j, with slot(i) = 2i for
    i < ⌈N_θ/2⌉ and 2(N_θ−1−i)+1 otherwise.  The θ columns are laid out
    0, N_θ−1, 1, N_θ−2, …, so columns adjacent in θ, the wrap from N_θ−1
    to 0 included, sit at most two slots apart (in the mesh's own order
    the wrap spans a whole ring), and every edge of the union stencil
    joins vertices at most 2N_r + 3 numbers apart, the half-bandwidth of
    K + M_∂; M_bb is numbered by the rank of each boundary vertex's fold
    number.  With halves, the even and the odd half of the mirror θ ↦ −θ:
    θ column i folds onto half column h = min(i, N_θ − i), and a half
    numbers its columns unfolded θ-major, vertex (j, h) at
    (h − h₀)·(N_r+1) + j, so that every stencil edge spans at most N_r + 2
    numbers.  The even half
    keeps h = 0 … ⌊N_θ/2⌋ with sign +1.  The odd half keeps
    h = 1 … ⌈N_θ/2⌉ − 1 with sign −1 past θ = π; an odd vector vanishes on
    the cut columns, θ = 0 and, for even N_θ, θ = π, which get the sign 0
    and the number of the kept column beside them, so that what they touch
    folds to zero inside the half's band.  For odd N_θ the ring edges
    across θ = π join the two columns that fold onto h = ⌊N_θ/2⌋ and fold
    onto its diagonal, with weight 2.
    """
    layers = n_radial + 1
    number, p, q = _stencil(n_theta, n_radial)
    i = np.arange(n_theta, dtype=np.int32)
    if halves:
        h = np.minimum(i, n_theta - i)
        odd_sign = np.where((i == 0) | (2 * i == n_theta), 0.0,
                            np.where(2 * i > n_theta, -1.0, 1.0))
        by_column = ((h, np.ones(n_theta)), (np.clip(h, 1, (n_theta - 1) // 2) - 1, odd_sign))
    else:
        slot = np.where(i < (n_theta + 1) // 2, 2 * i, 2 * (n_theta - 1 - i) + 1)
        by_column = ((slot, np.ones(n_theta)),)
    ends = (np.concatenate([number, *p], axis=None), np.concatenate([number, *q], axis=None))
    loops = number[[0, -1]].ravel()  # the boundary vertices, inner loop then outer loop
    position, nxt = _loop_stencil(n_theta)
    loop_ends = (np.concatenate([position, position], axis=None),
                 np.concatenate([position, nxt], axis=None))
    folds = []
    for fold_column, column_sign in by_column:
        # vertex (j, i) lands on fold number fold_column[i]·(N_r+1) + j
        label = (fold_column * layers + np.arange(layers, dtype=np.int32)[:, None]).ravel()
        sign = np.tile(column_sign, layers)
        # the fold's boundary vertices, and where each boundary position lands among them
        boundary, on_boundary = np.unique(label[loops], return_inverse=True)
        for array in (label, sign, boundary):
            array.setflags(write=False)
        folds.append(_Fold(label=label, sign=sign, boundary=boundary,
                           stiffness=_BandFold.of(label, sign, *ends),
                           mass=_BandFold.of(on_boundary, sign[loops], *loop_ends)))
    return tuple(folds)


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
    boundary_dofs order, from the folds `_folds` maps the pencil
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
