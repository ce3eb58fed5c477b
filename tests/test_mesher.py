import numpy as np
import pytest

from steklov_annulus.geometry import (INNER, TWO_PI, AnnularDomain, Circle,
                                      CosinePerturbedCircle)
from steklov_annulus.mesher import (MeshingError, _elimination_steps, _radial_fractions,
                                    _signed_areas, build_annular_mesh, radial_grading)


@pytest.fixture(scope="module")
def annulus():
    return AnnularDomain(outer=Circle(radius=1.0),
                         inner=Circle(radius=0.3, orientation=INNER))


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
        # ring vertex v is mesh vertex step[v]
        step = _elimination_steps(n_theta, n_radial)
        np.testing.assert_array_equal(mesh.vertices[step], verts)
        np.testing.assert_array_equal(mesh.triangles, step[tris])

    def test_counts(self, annulus):
        mesh = build_annular_mesh(annulus, 32, 4)
        assert mesh.vertices.shape == (32 * 5, 2)
        assert mesh.triangles.shape == (2 * 32 * 4, 3)
        assert len(mesh.inner_loop) == len(mesh.outer_loop) == 32

    def test_all_triangles_ccw(self, annulus):
        mesh = build_annular_mesh(annulus, 48, 6)
        assert np.all(_signed_areas(mesh.vertices, mesh.triangles) > 0)

    def test_total_area(self, annulus):
        mesh = build_annular_mesh(annulus, 512, 32)
        area = _signed_areas(mesh.vertices, mesh.triangles).sum()
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
        assert np.all(_signed_areas(mesh.vertices, mesh.triangles) > 0)
        pts = mesh.vertices[mesh.inner_loop]
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1),
                                   inner._r(mesh.loop_theta), rtol=1e-13)

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
        np.testing.assert_array_equal(m0.loop_theta, m1.loop_theta)


class TestGrading:
    def test_layers_grow_away_from_inner(self, annulus):
        mesh = build_annular_mesh(annulus, 32, 8, grading=1.3)
        ray = _elimination_steps(32, 8)[::32]  # θ=0 ray, ring by ring
        radii = np.linalg.norm(mesh.vertices[ray], axis=1)
        widths = np.diff(radii)
        assert np.all(np.diff(widths) > 0)

    def test_unit_grading_is_uniform(self, annulus):
        mesh = build_annular_mesh(annulus, 32, 4)
        radii = np.linalg.norm(mesh.vertices[_elimination_steps(32, 4)[::32]], axis=1)
        np.testing.assert_allclose(np.diff(radii), 0.7 / 4, rtol=1e-13)
        for n in (4, 12, 24, 48):
            np.testing.assert_array_equal(_radial_fractions(n, 1.0), np.arange(n + 1) / n)

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
