"""Structured triangle meshes of annular domains by transfinite blending.

Vertices sit on rays θ_i = 2πi/N_θ, blended linearly between the inner and
outer boundary parameterizations.  The construction is deterministic and
keeps the boundary loop indexing fixed under small boundary motion, which
the finite-difference shape-gradient checks rely on.

A `Mesh` is its ring-space array of (N_r+1) × N_θ vertices (ring 0 is the
inner boundary); its vertex list, triangles and boundary loops are derived
from it, and the sides and diagonals of every quad are slices and rolls of
it (`_quad_sides`).  The tangle check of `Mesh` and the cotangent weights
of the assembly (`fem`) read the same edge vectors and cross products
(`_twice_areas`), one (N_r, N_θ) scalar array at a time.

Vertex i of ring j is numbered j·N_θ + i, its position in the ring array,
so the vertex list is a view of it and the boundary loops are its first
and last ring.  The band order in which `linalg` factors K + M_∂ is not
this numbering but a fold of it (`_folds`), the one place that order is
written.  The union stencil, in which every quad carries both diagonals,
contains the stiffness graph of every mesh of the resolution, and the
boundary-mass couplings are quad edges.

K + M_∂ is held as its V + E ring-space entries on that stencil, one flat
array: the diagonal, then the radial, ring, ac and bd edges
(`_union_parts` gives their ring-space views), and M_bb as its diagonal
and loop-edge entries.  `_union_product` and `_loop_product` apply them
to a vector by their stencils, slices and rolls in ring space; the solve
forms no sparse matrix.  For the tests and for callers that want one,
`_union_matrix` lays the entries out on the vertex numbers as a
symmetric COO matrix, each position once, the first V + E of them in the
order they are held; the diagonal a quad does not take holds an explicit
zero, inside the band.  `_loop_matrix` does the same for M_bb.

The mirror θ ↦ −θ maps the θ grid onto itself for any N_θ.
`Mesh.mirrored` tells whether the ring array is symmetric under it.
`_folds` works out once per resolution where each held entry lands in a
band of K + M_∂ and of M_bb, and with what sign, for `fem` to pack each
band with one bincount: on the whole mesh in folded θ-major order with
half-bandwidth 2N_r + 3, or on its even and its odd half, each numbered
unfolded θ-major with half-bandwidth N_r + 2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI, AnnularDomain


class MeshingError(ValueError):
    pass


@dataclass(frozen=True)
class Mesh:
    """Conforming triangle mesh of an annulus, held as its ring-space array.

    ring: (2, N_r+1, N_θ) float array, read-only: x and y of vertex i of
    ring j at θ_i = 2πi/N_θ; ring 0 is the inner boundary.  The rest is
    derived from it, vertex i of ring j numbered j·N_θ + i: vertices
    (V, 2), a read-only view of ring, CCW triangles (T, 3), each quad split
    along its shorter diagonal, and inner_loop / outer_loop, the vertex
    numbers of the boundary rings by increasing θ.  Raises MeshingError,
    naming the offending θ, if a triangle has nonpositive area (the blend
    tangles).
    """

    ring: np.ndarray

    def __post_init__(self):
        self.ring.setflags(write=False)
        use_ac, sides, _ = _quad_sides(self.ring)
        cross = _twice_areas(use_ac, sides)
        if not np.all(cross > 0):
            i = np.unravel_index(np.argmin(cross), cross.shape)[-1]
            raise MeshingError("tangled mesh: nonpositive triangle area near "
                               f"theta={TWO_PI * i / self.n_theta:.6f}")

    @property
    def n_theta(self):
        return self.ring.shape[2]

    @property
    def n_radial(self):
        return self.ring.shape[1] - 1

    @property
    def mirrored(self):
        """Whether the mesh is its own mirror image under y ↦ −y, vertex i
        of each ring going to vertex −i mod N_θ, to 16 ulps of its largest
        coordinate: the angles of a mirrored pair are rounded apart, which
        leaves up to about 1e-15 on a unit annulus.  Column 0 is its own
        image; y is tested first, since an off-axis hole fails there."""
        x, y = self.ring
        tol = 16 * np.finfo(float).eps * np.max(np.abs(self.ring))
        return bool(2.0 * np.max(np.abs(y[:, 0])) <= tol
                    and np.max(np.abs(y[:, 1:] + y[:, :0:-1])) <= tol
                    and np.max(np.abs(x[:, 1:] - x[:, :0:-1])) <= tol)

    @property
    def inner_loop(self):
        return np.arange(self.n_theta)

    @property
    def outer_loop(self):
        return self.n_radial * self.n_theta + np.arange(self.n_theta)

    @property
    def boundary_vertices(self):
        return np.concatenate([self.inner_loop, self.outer_loop])

    @property
    def vertices(self):
        return self.ring.reshape(2, -1).T

    @property
    def triangles(self):
        """CCW and mesh-numbered, layer by layer: the first triangles of its
        quads ((a, b, c) or (a, b, d)), then the second ones ((a, c, d) or
        (b, c, d))."""
        use_ac = _quad_sides(self.ring)[0]
        _, _, a, b, c, d = _corners(self.n_theta, self.n_radial)
        first = np.stack([a, b, np.where(use_ac, c, d)], axis=-1)
        second = np.stack([np.where(use_ac, a, b), c, d], axis=-1)
        return np.stack([first, second], axis=1).reshape(-1, 3)


def radial_grading(inner_radius):
    """Grading the tables use for a hole of this radius: geometric layers
    around holes smaller than 0.15, to resolve the thin-hole boundary layer;
    uniform layers otherwise."""
    return 1.15 if inner_radius < 0.15 else 1.0


def _radial_fractions(n_radial, grading):
    """Blend fractions s_0=0 .. s_{N_r}=1; layer widths grow geometrically
    away from the inner boundary when grading > 1."""
    widths = grading ** np.arange(n_radial)
    s = np.concatenate([[0.0], np.cumsum(widths)])
    return s / s[-1]


def build_annular_mesh(domain: AnnularDomain, n_theta: int, n_radial: int,
                       grading: float = 1.0) -> Mesh:
    """Transfinite mesh with N_θ angular divisions and N_r radial layers.

    Each quad is split along its shorter diagonal, and vertex i of ring j
    is numbered j·N_θ + i.  Raises MeshingError for a grading
    that is not finite and positive and, naming the offending θ, if the
    blend tangles (nonpositive triangle area).
    """
    if n_theta < 16:
        raise MeshingError(f"n_theta must be >= 16, got {n_theta}")
    if n_radial < 2:
        raise MeshingError(f"n_radial must be >= 2, got {n_radial}")
    if not (np.isfinite(grading) and grading > 0):
        raise MeshingError(f"grading must be finite and positive, got {grading}")

    theta = TWO_PI * np.arange(n_theta) / n_theta
    inner_pts = domain.inner.point_at(theta)
    outer_pts = domain.outer.point_at(theta)
    s = _radial_fractions(n_radial, grading)[None, :, None]

    # ring j sits at blend fraction s_j; ring 0 is the inner boundary.  x and
    # y are laid out apart, so every slice of a ring is contiguous
    inner_xy, outer_xy = np.ascontiguousarray(inner_pts.T), np.ascontiguousarray(outer_pts.T)
    return Mesh((1.0 - s) * inner_xy[:, None, :] + s * outer_xy[:, None, :])


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


def _quad_sides(ring):
    """The sides and the diagonal of every quad of the ring-space vertices.

    ring is (2, N_r+1, N_θ): x and y of vertex i of ring j.  Quad (j, i) has
    the CCW corners a = (j, i), b = (j+1, i), c = (j+1, i+1), d = (j, i+1)
    and is split along its shorter diagonal, ac where |ac|² ≤ |bd|², bd
    otherwise.  Returns use_ac (N_r, N_θ); the side vectors ab, bc, cd, da,
    each (2, N_r, N_θ); and the diagonal it takes, ac or bd, which is
    ab + bc or da + ab, the sum of the first two edges CCW from its start.
    """
    nxt = np.roll(ring, -1, axis=2)  # vertex i+1 of each ring
    a, b, c, d = ring[:, :-1], ring[:, 1:], nxt[:, 1:], nxt[:, :-1]
    ac, bd = c - a, b - d
    use_ac = np.sum(ac ** 2, axis=0) <= np.sum(bd ** 2, axis=0)
    return use_ac, (b - a, c - b, d - c, a - d), np.where(use_ac, ac, bd)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _twice_areas(use_ac, sides):
    """Twice the areas of the two triangles of every quad, (2, N_r, N_θ):
    the cross products of the first two and of the last two of its edges
    CCW from the start of its diagonal, (ab, bc, cd, da) or (da, ab, bc, cd)."""
    ab, bc, cd, da = sides
    return np.stack([np.where(use_ac, _cross(ab, bc), _cross(da, ab)),
                     np.where(use_ac, _cross(cd, da), _cross(bc, cd))])


def _corners(n_theta, n_radial):
    """Vertex numbers j·N_θ + i in ring space: every vertex (N_r+1, N_θ), its
    θ-successor, vertex i+1 of its ring, and the CCW corners a = (j, i),
    b = (j+1, i), c = (j+1, i+1), d = (j, i+1) of every quad (N_r, N_θ),
    ring 0 the inner boundary."""
    vertex = np.arange((n_radial + 1) * n_theta, dtype=np.int32).reshape(-1, n_theta)
    nxt = np.roll(vertex, -1, axis=1)
    return vertex, nxt, vertex[:-1], vertex[1:], nxt[1:], nxt[:-1]


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
    V + E entries.  Built for the tests and on request only; the solve
    applies the matrix by `_union_product`.
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
    `_union_matrix`, the diagonal, every (i, i+1), then every (i+1, i).
    Built on request only; the solve applies it by `_loop_product`."""
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
