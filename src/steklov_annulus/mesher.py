"""Structured triangle meshes of annular domains by transfinite blending.

Vertices sit on rays θ_i = 2πi/N_θ, blended linearly between the inner and
outer boundary parameterizations.  The construction is deterministic and
keeps the boundary loop indexing fixed under small boundary motion, which
the finite-difference shape-gradient checks rely on.

Vertices are numbered in elimination order, so that K + M_∂ assembled on
the mesh factors without fill-reducing permutation.  The ring numbering
(vertex i of ring j is j·N_θ + i) depends on (N_θ, N_r) alone, and so does
the graph of K + M_∂ up to the diagonal each quad takes.  The order is
therefore computed once per resolution and process: SciPy's minimum-degree
ordering of the union stencil, in which every quad carries both diagonals.
That graph contains the stiffness graph of every mesh of the resolution, and
the boundary-mass couplings are quad edges.  Each vertex is then numbered by
the step at which it is eliminated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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
    by its elimination step.  Raises MeshingError, naming the offending θ,
    if the blend tangles (nonpositive triangle area).
    """
    if n_theta < 16:
        raise MeshingError(f"n_theta must be >= 16, got {n_theta}")
    if n_radial < 2:
        raise MeshingError(f"n_radial must be >= 2, got {n_radial}")

    theta = TWO_PI * np.arange(n_theta) / n_theta
    inner_pts = domain.inner.point_at(theta)
    outer_pts = domain.outer.point_at(theta)
    s = _radial_fractions(n_radial, grading)

    # ring j sits at blend fraction s_j; ring 0 is the inner boundary
    verts = ((1.0 - s[:, None, None]) * inner_pts[None, :, :]
             + s[:, None, None] * outer_pts[None, :, :]).reshape(-1, 2)

    # every quad of every layer at once; CCW corners (a, b, c, d)
    a, b, c, d = _quad_corners(n_theta, n_radial)
    diag_ac = np.sum((verts[a] - verts[c]) ** 2, axis=-1)
    diag_bd = np.sum((verts[b] - verts[d]) ** 2, axis=-1)
    use_ac = (diag_ac <= diag_bd)[..., None]
    t1 = np.where(use_ac, np.stack([a, b, c], -1), np.stack([a, b, d], -1))
    t2 = np.where(use_ac, np.stack([a, c, d], -1), np.stack([b, c, d], -1))
    # layer by layer: the first triangles of its quads, then the second ones
    tris = np.concatenate([t1, t2], axis=1).reshape(-1, 3)

    areas = _signed_areas(verts, tris)
    if np.any(areas <= 0):
        bad = int(np.argmin(areas))
        bad_theta = theta[tris[bad, 0] % n_theta]
        raise MeshingError(f"tangled mesh: nonpositive triangle area near theta={bad_theta:.6f}")

    # renumber: ring vertex v becomes vertex step[v], its elimination step
    step = _elimination_steps(n_theta, n_radial)
    vertices = np.empty_like(verts)
    vertices[step] = verts
    return Mesh(vertices=vertices, triangles=step[tris],
                inner_loop=step[:n_theta], outer_loop=step[n_radial * n_theta:],
                loop_theta=theta, n_theta=n_theta, n_radial=n_radial)


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


def _signed_areas(verts, tris):
    p = verts[tris]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
