import numpy as np
import pytest

from steklov_annulus.geometry import (INNER, TWO_PI, AnnularDomain, Circle,
                                      CosinePerturbedCircle)
from steklov_annulus.mesher import (MeshingError, _signed_areas, build_annular_mesh,
                                    mesh_metrics, radial_grading)


@pytest.fixture(scope="module")
def annulus():
    return AnnularDomain(outer=Circle(radius=1.0),
                         inner=Circle(radius=0.3, orientation=INNER))


class TestBuild:
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
        radii = np.linalg.norm(mesh.vertices[::32], axis=1)  # θ=0 ray
        widths = np.diff(radii)
        assert np.all(np.diff(widths) > 0)

    def test_unit_grading_is_uniform(self, annulus):
        mesh = build_annular_mesh(annulus, 32, 4)
        radii = np.linalg.norm(mesh.vertices[::32], axis=1)
        np.testing.assert_allclose(np.diff(radii), 0.7 / 4, rtol=1e-13)

    def test_grading_rule_threshold(self):
        # the tables grade the critical radius 0.146721 and ε = 0.08, not ε = 0.3
        assert radial_grading(0.08) == radial_grading(0.146721) > 1.0
        assert radial_grading(0.15) == radial_grading(0.3) == 1.0


class TestMetrics:
    def test_boundary_lengths_converge_to_perimeters(self, annulus):
        metrics = mesh_metrics(build_annular_mesh(annulus, 1024, 8))
        assert metrics["boundary_length_inner"] == pytest.approx(TWO_PI * 0.3, rel=1e-5)
        assert metrics["boundary_length_outer"] == pytest.approx(TWO_PI * 1.0, rel=1e-5)

    def test_quality_bounds(self, annulus):
        metrics = mesh_metrics(build_annular_mesh(annulus, 64, 8))
        assert metrics["min_angle"] > 15.0
        assert metrics["max_aspect"] < 6.0

