"""Structured triangle meshes of annular domains by transfinite blending.

Vertices sit on rays θ_i = 2πi/N_θ, blended linearly between the inner and
outer boundary parameterizations.  The construction is deterministic and
keeps the boundary loop indexing fixed under small boundary motion, which
the finite-difference shape-gradient checks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    if grading == 1.0:
        return np.arange(n_radial + 1) / n_radial
    widths = grading ** np.arange(n_radial)
    s = np.concatenate([[0.0], np.cumsum(widths)])
    return s / s[-1]


def build_annular_mesh(domain: AnnularDomain, n_theta: int, n_radial: int,
                       grading: float = 1.0) -> Mesh:
    """Transfinite mesh with N_θ angular divisions and N_r radial layers.

    Each quad is split along its shorter diagonal.  Raises MeshingError,
    naming the offending θ, if the blend tangles (nonpositive triangle area).
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

    ii = np.arange(n_theta)
    ii1 = (ii + 1) % n_theta
    tris = np.empty((2 * n_theta * n_radial, 3), dtype=np.int64)
    row = 0
    for j in range(n_radial):
        # CCW quad: (inner θ_i, outer θ_i, outer θ_{i+1}, inner θ_{i+1})
        a = j * n_theta + ii
        b = (j + 1) * n_theta + ii
        c = (j + 1) * n_theta + ii1
        d = j * n_theta + ii1
        diag_ac = np.sum((verts[a] - verts[c]) ** 2, axis=1)
        diag_bd = np.sum((verts[b] - verts[d]) ** 2, axis=1)
        use_ac = diag_ac <= diag_bd
        t1 = np.where(use_ac[:, None], np.stack([a, b, c], 1), np.stack([a, b, d], 1))
        t2 = np.where(use_ac[:, None], np.stack([a, c, d], 1), np.stack([b, c, d], 1))
        tris[row:row + n_theta] = t1
        tris[row + n_theta:row + 2 * n_theta] = t2
        row += 2 * n_theta

    areas = _signed_areas(verts, tris)
    if np.any(areas <= 0):
        bad = int(np.argmin(areas))
        bad_theta = theta[tris[bad, 0] % n_theta]
        raise MeshingError(f"tangled mesh: nonpositive triangle area near theta={bad_theta:.6f}")

    return Mesh(vertices=verts, triangles=tris,
                inner_loop=ii.copy(), outer_loop=(n_radial * n_theta + ii),
                loop_theta=theta, n_theta=n_theta, n_radial=n_radial)


def _signed_areas(verts, tris):
    p = verts[tris]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def _loop_length(verts, loop):
    pts = verts[loop]
    return float(np.sum(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)))


def mesh_metrics(mesh: Mesh) -> dict:
    """Per-triangle quality and polygonal boundary lengths."""
    p = mesh.vertices[mesh.triangles]
    e = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]], axis=1)
    lengths = np.linalg.norm(e, axis=2)
    # interior angle at vertex i is between edges e_{i-1} and e_i reversed
    angles = np.empty_like(lengths)
    for i in range(3):
        u = -e[:, (i + 2) % 3]
        v = e[:, i]
        cosang = np.sum(u * v, axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angles[:, i] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return {
        "min_angle": float(angles.min()),
        "max_aspect": float((lengths.max(axis=1) / lengths.min(axis=1)).max()),
        "boundary_length_inner": _loop_length(mesh.vertices, mesh.inner_loop),
        "boundary_length_outer": _loop_length(mesh.vertices, mesh.outer_loop),
    }

