import math

import numpy as np
import pytest

from steklov_annulus import analytic
from steklov_annulus.fem import (AssemblyError, assemble, convergence_study,
                                 element_stiffness, normalized_first,
                                 solve_domain, solve_spectrum)
from steklov_annulus.geometry import INNER, OUTER, AnnularDomain, Circle
from steklov_annulus.mesher import build_annular_mesh

TWO_PI = 2.0 * math.pi


def concentric(eps):
    return AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER),
                         inner=Circle(radius=eps, orientation=INNER))


class TestElementStiffness:
    def test_reference_triangle(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ke = element_stiffness(coords)
        ref = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        np.testing.assert_allclose(ke, ref, atol=1e-14)

    def test_constant_in_kernel(self):
        rng = np.random.default_rng(7)
        coords = rng.standard_normal((3, 2))
        u, v = coords[1] - coords[0], coords[2] - coords[0]
        if u[0] * v[1] - u[1] * v[0] < 0:
            coords = coords[[0, 2, 1]]
        ke = element_stiffness(coords)
        np.testing.assert_allclose(ke @ np.ones(3), 0.0, atol=1e-13)

    def test_inverted_triangle_rejected(self):
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(AssemblyError):
            element_stiffness(coords)


class TestAssembly:
    def test_stiffness_kernel_is_constants(self):
        mesh = build_annular_mesh(concentric(0.3), 32, 4)
        system = assemble(mesh)
        np.testing.assert_allclose(system.stiffness @ np.ones(len(mesh.vertices)),
                                   0.0, atol=1e-12)

    def test_boundary_mass_total_is_polygonal_perimeter(self):
        mesh = build_annular_mesh(concentric(0.3), 256, 4)
        system = assemble(mesh)
        total = system.boundary_mass.sum()
        assert total == pytest.approx(TWO_PI * 1.3, rel=1e-4)

    def test_boundary_mass_matches_edge_loop(self):
        """The vectorized boundary mass equals the per-edge accumulation."""
        mesh = build_annular_mesh(
            AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER),
                          inner=Circle(radius=0.3, center=(0.2, -0.1), orientation=INNER)),
            32, 4)
        dofs = mesh.boundary_vertices
        pos = {int(d): i for i, d in enumerate(dofs)}
        ref = np.zeros((len(dofs), len(dofs)))
        for loop in (mesh.inner_loop, mesh.outer_loop):
            for v0, v1 in zip(loop, np.roll(loop, -1)):
                ell = np.linalg.norm(mesh.vertices[v1] - mesh.vertices[v0])
                i, j = pos[int(v0)], pos[int(v1)]
                ref[[i, j], [i, j]] += ell / 3.0
                ref[[i, j], [j, i]] += ell / 6.0
        np.testing.assert_allclose(assemble(mesh).boundary_mass.toarray(), ref,
                                   rtol=1e-15, atol=0.0)

    def test_boundary_dofs_order(self):
        mesh = build_annular_mesh(concentric(0.3), 32, 4)
        system = assemble(mesh)
        np.testing.assert_array_equal(system.boundary_dofs[:32], mesh.inner_loop)
        np.testing.assert_array_equal(system.boundary_dofs[32:], mesh.outer_loop)


@pytest.fixture(scope="module")
def spectrum():
    return solve_domain(concentric(0.3), 256, 24, count=4)


class TestSpectrum:
    def test_constant_mode_is_zero(self, spectrum):
        assert abs(spectrum.eigenvalues[0]) < 1e-10

    def test_first_pair_matches_closed_form(self, spectrum):
        lam_exact = analytic.steklov_eig(0.3, 1, "minus")
        assert spectrum.eigenvalues[1] == pytest.approx(lam_exact, rel=2e-3)
        assert spectrum.eigenvalues[2] == pytest.approx(lam_exact, rel=2e-3)

    def test_first_pair_degenerate(self, spectrum):
        gap = abs(spectrum.eigenvalues[2] - spectrum.eigenvalues[1])
        assert gap < 1e-3 * spectrum.eigenvalues[1]

    def test_eigenvector_is_mode_one(self, spectrum):
        trace = spectrum.trace_on(spectrum.mesh.outer_loop)[:, 1]
        theta = spectrum.mesh.loop_theta
        # project onto cosθ/sinθ: the trace is a pure first harmonic
        n = len(theta)
        c1 = 2.0 * np.mean(trace * np.cos(theta))
        s1 = 2.0 * np.mean(trace * np.sin(theta))
        recon = c1 * np.cos(theta) + s1 * np.sin(theta)
        resid = np.linalg.norm(trace - recon) / np.linalg.norm(trace)
        assert resid < 1e-3
        assert n == 256

    def test_sign_convention(self, spectrum):
        outer_trace = spectrum.trace_on(spectrum.mesh.outer_loop)
        assert np.all(outer_trace[0, :] >= -1e-14)

    def test_count_validation(self):
        mesh = build_annular_mesh(concentric(0.3), 32, 4)
        with pytest.raises(ValueError):
            solve_spectrum(assemble(mesh), 0)


class TestAccuracy:
    @pytest.mark.parametrize("eps", [0.08, 0.146721, 0.3, 0.5])
    def test_relative_error_bound(self, eps):
        grading = 1.15 if eps < 0.15 else 1.0
        spec = solve_domain(concentric(eps), 256, 24, count=2, grading=grading)
        lam_exact = analytic.steklov_eig(eps, 1, "minus")
        assert abs(spec.eigenvalues[1] - lam_exact) < 5e-3 * lam_exact

    def test_normalized_first_matches_curve(self):
        value = normalized_first(concentric(0.3), 256, 24)
        assert value == pytest.approx(analytic.normalized_first(0.3), abs=5e-3)

    def test_convergence_second_order(self):
        study = convergence_study(concentric(0.3), [(64, 8), (128, 16), (256, 32)])
        assert study["observed_order"] == pytest.approx(2.0, abs=0.4)
        lam_exact = analytic.steklov_eig(0.3, 1, "minus")
        assert study["limit"] == pytest.approx(lam_exact, rel=2e-4)

    def test_convergence_needs_three_resolutions(self):
        with pytest.raises(ValueError):
            convergence_study(concentric(0.3), [(64, 8), (128, 16)])
