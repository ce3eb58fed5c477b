"""Structured triangle meshes of annular domains by transfinite blending.

Vertices sit on rays θ_i = 2πi/N_θ, blended linearly between the inner and
outer boundary parameterizations.  The construction is deterministic and
keeps the boundary loop indexing fixed under small boundary motion, which
the finite-difference shape-gradient checks rely on.

Geometry is computed in ring space, on an (N_r+1) × N_θ array of vertices
(ring 0 is the inner boundary): the edge vectors of every quad are slices
and rolls of it (`_split_quads`).  The tangle check here and the cotangent
weights of the assembly (`fem`) read the same edge vectors and cross
products.

Vertices are numbered in elimination order, so that K + M_∂ assembled on
the mesh factors without fill-reducing permutation.  The ring numbering
(vertex i of ring j is j·N_θ + i) depends on (N_θ, N_r) alone, and so does
the graph of K + M_∂ up to the diagonal each quad takes.  The order is
therefore computed once per resolution and process: SciPy's minimum-degree
ordering of the union stencil, in which every quad carries both diagonals.
That graph contains the stiffness graph of every mesh of the resolution, and
the boundary-mass couplings are quad edges.  Each vertex is then numbered by
the step at which it is eliminated.  The CSC pattern of the union stencil
in that numbering is cached beside the order (`_union_pattern`).  Assembly
writes K + M_∂ straight into its data array; the diagonal a quad does not
take holds an explicit zero.  That costs no fill, because the order was
chosen for the union stencil, both diagonals included.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .geometry import TWO_PI, AnnularDomain


class MeshingError(ValueError):
    pass


@dataclass(frozen=True)
class Mesh:
    """Conforming triangle mesh of an annulus.

    vertices: (V, 2) float array.
    triangles: (T, 3) int array, counterclockwise.
    inner_loop / outer_loop: vertex indices of the boundary rings, ordered by
    increasing θ; loop_theta holds the shared parameter values θ_i.
    Vertices are numbered in the fill-reducing elimination order of the
    resolution (module docstring).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    inner_loop: np.ndarray
    outer_loop: np.ndarray
    loop_theta: np.ndarray
    n_theta: int
    n_radial: int

    def __post_init__(self):
        for arr in (self.vertices, self.triangles, self.inner_loop,
                    self.outer_loop, self.loop_theta):
            arr.setflags(write=False)

    @property
    def boundary_vertices(self):
        return np.concatenate([self.inner_loop, self.outer_loop])


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

    Each quad is split along its shorter diagonal, and each vertex numbered
    by its elimination step.  Raises MeshingError for a grading that is not
    finite and positive and, naming the offending θ, if the blend tangles
    (nonpositive triangle area).
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
    ring = (1.0 - s) * inner_xy[:, None, :] + s * outer_xy[:, None, :]
    use_ac, _, _, cross = _split_quads(ring)
    if not np.all(cross > 0):
        bad_theta = theta[np.unravel_index(np.argmin(cross), cross.shape)[-1]]
        raise MeshingError(f"tangled mesh: nonpositive triangle area near theta={bad_theta:.6f}")

    # renumber: ring vertex v becomes vertex step[v], its elimination step
    step = _elimination_steps(n_theta, n_radial)
    vertices = np.empty((len(step), 2))
    for k in (0, 1):  # one coordinate at a time scatters contiguous data
        vertices[step, k] = ring[k].ravel()
    return Mesh(vertices=vertices, triangles=_triangles(n_theta, n_radial, use_ac),
                inner_loop=step[:n_theta], outer_loop=step[n_radial * n_theta:],
                loop_theta=theta, n_theta=n_theta, n_radial=n_radial)


def _ring_vertices(mesh):
    """The vertices of a mesh in ring space, (2, N_r+1, N_θ): x and y of
    vertex i of ring j, mesh vertex step[j·N_θ + i]."""
    step = _elimination_steps(mesh.n_theta, mesh.n_radial)
    return np.take(mesh.vertices.T, step, axis=1).reshape(2, mesh.n_radial + 1, mesh.n_theta)


def _split_quads(ring):
    """Every quad of the ring-space vertices, split along its shorter diagonal.

    ring is (2, N_r+1, N_θ): x and y of vertex i of ring j.  Quad (j, i) has
    the CCW corners a = (j, i), b = (j+1, i), c = (j+1, i+1), d = (j, i+1)
    and takes the diagonal ac where |ac|² ≤ |bd|², bd otherwise.  Returns
    use_ac (N_r, N_θ); the quad's edge vectors (2, 4, N_r, N_θ), CCW from
    the start of its diagonal, (ab, bc, cd, da) or (da, ab, bc, cd), so
    that edges 0, 1 bound its first triangle and edges 2, 3 its second; its
    diagonal (2, N_r, N_θ), edge 0 + edge 1; and the cross products
    edge 0 × edge 1 and edge 2 × edge 3 (2, N_r, N_θ), twice the areas of
    the two triangles.
    """
    nxt = np.roll(ring, -1, axis=2)  # vertex i+1 of each ring
    a, b, c, d = ring[:, :-1], ring[:, 1:], nxt[:, 1:], nxt[:, :-1]
    ac, bd = c - a, b - d
    use_ac = np.sum(ac ** 2, axis=0) <= np.sum(bd ** 2, axis=0)
    da = a - d
    cycle = np.stack([da, b - a, c - b, d - c, da], axis=1)
    edges = np.where(use_ac, cycle[:, 1:], cycle[:, :-1])
    cross = edges[0, 0::2] * edges[1, 1::2] - edges[1, 0::2] * edges[0, 1::2]
    return use_ac, edges, np.where(use_ac, ac, bd), cross


def _triangles(n_theta, n_radial, use_ac):
    """CCW triangles, elimination-numbered, of the quads split as use_ac
    says: layer by layer, the first triangles of its quads ((a, b, c) or
    (a, b, d)), then the second ones ((a, c, d) or (b, c, d))."""
    splits = _union_pattern(n_theta, n_radial).triangles
    return np.where(use_ac[:, None, :, None], splits[0], splits[1]).reshape(-1, 3)


def _quad_corners(n_theta, n_radial):
    """Ring numbers of the CCW quads (inner θ_i, outer θ_i, outer θ_{i+1},
    inner θ_{i+1}) of every layer, four (N_r, N_θ) arrays.  Vertex i of ring j
    is j·N_θ + i; ring 0 is the inner boundary."""
    ring = n_theta * np.arange(n_radial)[:, None]
    ii = np.arange(n_theta)
    a = ring + ii
    d = ring + (ii + 1) % n_theta
    return a, a + n_theta, d + n_theta, d


@functools.lru_cache(maxsize=16)
def _elimination_steps(n_theta, n_radial):
    """Minimum-degree elimination step of each ring-numbered vertex of the
    union stencil.

    SuperLU's MMD ordering of A + Aᵀ, read off one factorization of a
    diagonally dominant, hence SPD, matrix whose graph joins all four
    corners of every quad.  The ordering sees only the graph; the values
    just let the factorization, with the eigensolver's options, succeed.
    """
    a, b, c, d = _quad_corners(n_theta, n_radial)
    p = np.concatenate([a, b, c, d, a, b], axis=None)
    q = np.concatenate([b, c, d, a, c, d], axis=None)
    n = (n_radial + 1) * n_theta
    diag = np.arange(n)
    degree = np.bincount(p, minlength=n) + np.bincount(q, minlength=n)
    spd = sp.csc_matrix((np.concatenate([-np.ones(2 * len(p)), degree + 1.0]),
                         (np.concatenate([p, q, diag]), np.concatenate([q, p, diag]))),
                        shape=(n, n))
    # perm_c[v] is the step at which v is eliminated; perm_c is a view into
    # the factor, so the cache keeps a copy and lets the factor go
    steps = splu(spd, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                 options={"SymmetricMode": True}).perm_c.copy()
    steps.setflags(write=False)
    return steps


def _union_matrix(vertex, radial, around, on_ac, on_bd):
    """The elimination-numbered CSC matrix on the union stencil with the
    given ring-space entries, each edge's in both of its places.

    vertex (N_r+1, N_θ) is the diagonal; radial (N_r, N_θ) couples (j, i)
    and (j+1, i), around (N_r+1, N_θ) couples (j, i) and (j, i+1), and
    on_ac and on_bd (N_r, N_θ) are the quad diagonals (j, i)–(j+1, i+1) and
    (j+1, i)–(j, i+1).
    """
    n_radial, n_theta = radial.shape
    pattern = _union_pattern(n_theta, n_radial)
    values = np.concatenate([vertex, radial, around, on_ac, on_bd], axis=None)
    return sp.csc_matrix((np.take(values, pattern.gather), pattern.indices, pattern.indptr),
                         shape=(vertex.size, vertex.size))


class _Pattern(NamedTuple):
    """Index arrays shared by every mesh of one resolution, all int32.

    indptr, indices: the canonical CSC pattern of the union stencil (every
    vertex, ring edge, radial edge and both diagonals of every quad) in
    elimination numbering.  gather: entry s of its data array is entry
    gather[s] of the ring-space values `_union_matrix` lays out one after
    another; an edge gives both of its entries.  triangles:
    (2, N_r, 2, N_θ, 3), the mesh triangles of every quad split along ac
    (first) and along bd (second), in the order `_triangles` lays out.
    """

    indptr: np.ndarray
    indices: np.ndarray
    gather: np.ndarray
    triangles: np.ndarray


@functools.lru_cache(maxsize=16)
def _union_pattern(n_theta, n_radial):
    """The `_Pattern` of a resolution, read-only; each array owns its memory."""
    step = _elimination_steps(n_theta, n_radial)
    a, b, c, d = _quad_corners(n_theta, n_radial)
    n = len(step)
    vertex = np.arange(n).reshape(n_radial + 1, n_theta)
    # value k couples p[k] and q[k]; the first n are the vertices themselves
    p = np.concatenate([vertex, a, vertex, a, b], axis=None)
    q = np.concatenate([vertex, b, np.roll(vertex, -1, axis=1), c, d], axis=None)
    value = np.arange(len(p))
    rows = step[np.concatenate([p, q[n:]])]
    cols = step[np.concatenate([q, p[n:]])]
    order = np.lexsort((rows, cols))

    def split(first, second):
        return np.stack([np.stack(first, -1), np.stack(second, -1)], axis=1)

    splits = np.stack([split((a, b, c), (a, c, d)), split((a, b, d), (b, c, d))])
    pattern = _Pattern(
        indptr=np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))]).astype(np.int32),
        indices=rows[order].astype(np.int32),
        gather=np.concatenate([value, value[n:]])[order].astype(np.int32),
        triangles=step[splits])
    for arr in pattern:
        arr.setflags(write=False)
    return pattern
