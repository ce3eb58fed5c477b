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
and last ring.  The mirror θ ↦ −θ maps the θ grid onto itself for any N_θ;
`Mesh.mirrored` tells whether the ring array is symmetric under it.  `fem`
holds the matrices on this numbering and folds them into bands.
"""

from __future__ import annotations

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
