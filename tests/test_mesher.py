import warnings

import numpy as np
import pytest

from steklov_annulus.geometry import (INNER, TWO_PI, AnnularDomain, Circle,
                                      CosinePerturbedCircle)
from steklov_annulus.mesher import (Mesh, MeshingError, _radial_fractions, build_annular_mesh,
                                    radial_grading)


@pytest.fixture(scope="module")
def annulus():
    return AnnularDomain(outer=Circle(radius=1.0),
                         inner=Circle(radius=0.3, orientation=INNER))


def signed_areas(verts, tris):
    p = verts[tris]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def layer_loop_mesh(domain, n_theta, n_radial, grading):
    """Vertices and triangles built ring by ring and layer by layer, each quad
    split along its shorter diagonal, numbered by ring (vertex i of ring j is
    j·N_θ + i): the reference for the vectorised build_annular_mesh."""
    theta = TWO_PI * np.arange(n_theta) / n_theta
    inner_pts = domain.inner.point_at(theta)
    outer_pts = domain.outer.point_at(theta)
    verts = np.concatenate([(1.0 - s) * inner_pts + s * outer_pts
                            for s in _radial_fractions(n_radial, grading)])
    ii = np.arange(n_theta)
    ii1 = (ii + 1) % n_theta
    tris = []
    for j in range(n_radial):
        a = j * n_theta + ii
        b = (j + 1) * n_theta + ii
        c = (j + 1) * n_theta + ii1
        d = j * n_theta + ii1
        use_ac = (np.sum((verts[a] - verts[c]) ** 2, axis=1)
                  <= np.sum((verts[b] - verts[d]) ** 2, axis=1))[:, None]
        tris.append(np.where(use_ac, np.stack([a, b, c], 1), np.stack([a, b, d], 1)))
        tris.append(np.where(use_ac, np.stack([a, c, d], 1), np.stack([b, c, d], 1)))
    return verts, np.concatenate(tris)


# name -> (inner boundary, radial grading)
HOLES = {
    "eccentric": (Circle(radius=0.3, center=(0.25, 0.1), orientation=INNER), 1.0),
    "graded": (Circle(radius=0.08, center=(-0.3, 0.3), orientation=INNER), radial_grading(0.08)),
    "perturbed": (CosinePerturbedCircle(a=0.05, k=10, b=0.2, orientation=INNER), 1.0),
}


class TestBuild:
    @pytest.mark.parametrize("n_theta, n_radial", [(64, 8), (36, 5)])
    @pytest.mark.parametrize("hole", sorted(HOLES))
    def test_matches_layer_loop(self, hole, n_theta, n_radial):
        inner, grading = HOLES[hole]
        domain = AnnularDomain(outer=Circle(radius=1.0), inner=inner)
        mesh = build_annular_mesh(domain, n_theta, n_radial, grading=grading)
        verts, tris = layer_loop_mesh(domain, n_theta, n_radial, grading)
        np.testing.assert_array_equal(mesh.vertices, verts)
        np.testing.assert_array_equal(mesh.triangles, tris)

    def test_counts(self, annulus):
        mesh = build_annular_mesh(annulus, 32, 4)
        assert mesh.vertices.shape == (32 * 5, 2)
        assert mesh.triangles.shape == (2 * 32 * 4, 3)
        assert len(mesh.inner_loop) == len(mesh.outer_loop) == 32

    @pytest.mark.parametrize("n_theta, n_radial", [(32, 4), (65, 7)])
    def test_vertices_are_the_ring_array(self, annulus, n_theta, n_radial):
        """A vertex's number is its ring position j·N_θ + i: the vertex list
        is a read-only view of the ring array, the boundary vertices are the
        first and the last ring, and every quad still gives two triangles."""
        mesh = build_annular_mesh(annulus, n_theta, n_radial)
        vertices = mesh.vertices
        assert np.shares_memory(vertices, mesh.ring)
        assert not vertices.flags.writeable
        np.testing.assert_array_equal(vertices, mesh.ring.reshape(2, -1).T)
        n = (n_radial + 1) * n_theta
        np.testing.assert_array_equal(mesh.boundary_vertices,
                                      np.r_[:n_theta, n - n_theta:n])
        assert len(mesh.triangles) == 2 * n_theta * n_radial

    def test_all_triangles_ccw(self, annulus):
        mesh = build_annular_mesh(annulus, 48, 6)
        assert np.all(signed_areas(mesh.vertices, mesh.triangles) > 0)

    def test_total_area(self, annulus):
        mesh = build_annular_mesh(annulus, 512, 32)
        area = signed_areas(mesh.vertices, mesh.triangles).sum()
        assert area == pytest.approx(np.pi * (1 - 0.09), rel=1e-3)

    def test_boundary_loops_sit_on_curves(self, annulus):
        mesh = build_annular_mesh(annulus, 64, 4)
        np.testing.assert_allclose(
            np.linalg.norm(mesh.vertices[mesh.inner_loop], axis=1), 0.3, rtol=1e-13)
        np.testing.assert_allclose(
            np.linalg.norm(mesh.vertices[mesh.outer_loop], axis=1), 1.0, rtol=1e-13)

    def test_perturbed_inner_boundary(self):
        inner = CosinePerturbedCircle(a=0.05, k=10, b=0.2, orientation=INNER)
        domain = AnnularDomain(outer=Circle(radius=1.0), inner=inner)
        mesh = build_annular_mesh(domain, 128, 8)
        assert np.all(signed_areas(mesh.vertices, mesh.triangles) > 0)
        pts = mesh.vertices[mesh.inner_loop]
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1),
                                   inner._r(TWO_PI * np.arange(128) / 128), rtol=1e-13)

    def test_resolution_floor(self, annulus):
        with pytest.raises(MeshingError):
            build_annular_mesh(annulus, 8, 4)
        with pytest.raises(MeshingError):
            build_annular_mesh(annulus, 32, 1)

    def test_boundary_indexing_fixed_under_small_motion(self, annulus):
        # the quad diagonal choice may flip, but the boundary loops (which
        # the finite-difference branch matching relies on) must not move
        moved = AnnularDomain(outer=Circle(radius=1.0),
                              inner=Circle(center=(1e-3, 0.0), radius=0.3,
                                           orientation=INNER))
        m0 = build_annular_mesh(annulus, 32, 4)
        m1 = build_annular_mesh(moved, 32, 4)
        np.testing.assert_array_equal(m0.inner_loop, m1.inner_loop)
        np.testing.assert_array_equal(m0.outer_loop, m1.outer_loop)
        # and vertex i of either inner loop sits at θ_i about its own centre
        theta = TWO_PI * np.arange(32) / 32
        for mesh, centre in ((m0, 0.0), (m1, 1e-3)):
            x, y = mesh.ring[:, 0]
            np.testing.assert_allclose(np.arctan2(y, x - centre) % TWO_PI, theta,
                                       rtol=0.0, atol=1e-13)


class TestMirror:
    @pytest.mark.parametrize("n_theta", [64, 65])
    @pytest.mark.parametrize("inner", [
        Circle(radius=0.3, orientation=INNER),
        Circle(radius=0.08, center=(-0.4, 0.0), orientation=INNER),
        CosinePerturbedCircle(a=0.02, k=50, b=0.146721, orientation=INNER),
    ])
    def test_mirror_symmetric_meshes(self, inner, n_theta):
        """Holes symmetric about the x-axis give mirrored meshes for odd and
        even N_θ, although θ_i and θ_{N_θ−i} are rounded apart."""
        mesh = build_annular_mesh(AnnularDomain(outer=Circle(radius=1.0), inner=inner),
                                  n_theta, 8, grading=1.15)
        assert mesh.mirrored

    def test_asymmetry_is_seen(self, annulus):
        """A hole off the x-axis, and one vertex moved by 1e-12 in x or y,
        on a mirrored column pair or on the self-mirrored columns θ = 0 and
        θ = π, break the mirror: the test works to a few ulps of the mesh's
        scale."""
        off_axis = AnnularDomain(outer=Circle(radius=1.0),
                                 inner=Circle(radius=0.3, center=(0.2, 1e-9), orientation=INNER))
        assert not build_annular_mesh(off_axis, 64, 8).mirrored
        for coordinate, column in [(1, 5), (0, 5), (1, 0), (1, 32), (0, 63)]:
            ring = build_annular_mesh(annulus, 64, 8).ring.copy()
            ring[coordinate, 3, column] += 1e-12
            assert not Mesh(ring).mirrored


class TestGrading:
    def test_layers_grow_away_from_inner(self, annulus):
        mesh = build_annular_mesh(annulus, 32, 8, grading=1.3)
        ray = 32 * np.arange(9)  # θ=0 ray, vertex 0 of each ring
        radii = np.linalg.norm(mesh.vertices[ray], axis=1)
        widths = np.diff(radii)
        assert np.all(np.diff(widths) > 0)

    def test_unit_grading_is_uniform(self, annulus):
        mesh = build_annular_mesh(annulus, 32, 4)
        radii = np.linalg.norm(mesh.vertices[32 * np.arange(5)], axis=1)
        np.testing.assert_allclose(np.diff(radii), 0.7 / 4, rtol=1e-13)
        for n in (4, 12, 24, 48):
            np.testing.assert_array_equal(_radial_fractions(n, 1.0), np.arange(n + 1) / n)

    @pytest.mark.parametrize("grading", [float("nan"), float("inf"), 0.0, -1.0])
    def test_invalid_grading_rejected(self, annulus, grading):
        """A grading that is not finite and positive is refused, with no
        warning, before any vertex is placed.  Blended, NaN and −1 give NaN
        vertices, inf and 0 a RuntimeWarning or a misleading tangle."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshingError, match="grading"):
                build_annular_mesh(annulus, 32, 4, grading=grading)

    def test_grading_rule_threshold(self):
        # the tables grade the critical radius 0.146721 and ε = 0.08, not ε = 0.3
        assert radial_grading(0.08) == radial_grading(0.146721) > 1.0
        assert radial_grading(0.15) == radial_grading(0.3) == 1.0


class TestMetrics:
    def test_quality_bounds(self, annulus):
        mesh = build_annular_mesh(annulus, 64, 8)
        p = mesh.vertices[mesh.triangles]
        edges = np.roll(p, -1, axis=1) - p  # edge i runs from corner i to corner i+1
        lengths = np.linalg.norm(edges, axis=2)
        # the angle at corner i lies between edge i and the reversed edge i-1
        cosines = (np.sum(edges * -np.roll(edges, 1, axis=1), axis=2)
                   / (lengths * np.roll(lengths, 1, axis=1)))
        assert np.degrees(np.arccos(np.clip(cosines, -1.0, 1.0))).min() > 15.0
        assert (lengths.max(axis=1) / lengths.min(axis=1)).max() < 6.0
