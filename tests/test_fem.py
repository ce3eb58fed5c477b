import dataclasses
import math

import numpy as np
import pytest

from steklov_annulus import analytic
from steklov_annulus.experiments import TRANSLATION_TABLES
from steklov_annulus.fem import AssemblyError, assemble, solve_domain, solve_spectrum
from steklov_annulus.geometry import INNER, OUTER, AnnularDomain, Circle
from steklov_annulus.mesher import build_annular_mesh, radial_grading

TWO_PI = 2.0 * math.pi


def concentric(eps):
    return AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER),
                         inner=Circle(radius=eps, orientation=INNER))


def eccentric_mesh():
    return build_annular_mesh(
        AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER),
                      inner=Circle(radius=0.3, center=(0.2, -0.1), orientation=INNER)),
        32, 4)


def shoelace(points):
    x, y = points[:, 0], points[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class TestAssembly:
    def test_stiffness_integrates_linear_gradients(self):
        """The P1 functions x and y have orthonormal unit gradients, so their
        stiffness products are the mesh area and zero."""
        mesh = eccentric_mesh()
        k = assemble(mesh).stiffness
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        area = shoelace(mesh.vertices[mesh.outer_loop]) - shoelace(mesh.vertices[mesh.inner_loop])
        assert abs(x @ k @ x - area) < 1e-13
        assert abs(y @ k @ y - area) < 1e-13
        assert abs(x @ k @ y) < 1e-13

    def test_inverted_triangles_rejected(self):
        mesh = eccentric_mesh()
        flipped = dataclasses.replace(mesh, triangles=mesh.triangles[:, [0, 2, 1]])
        with pytest.raises(AssemblyError):
            assemble(flipped)

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
        mesh = eccentric_mesh()
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
        trace = spectrum.boundary_vectors[len(spectrum.mesh.inner_loop):, 1]
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
        outer_start = len(spectrum.mesh.inner_loop)
        assert np.all(spectrum.boundary_vectors[outer_start, :] >= -1e-14)

    def test_count_validation(self):
        mesh = build_annular_mesh(concentric(0.3), 32, 4)
        with pytest.raises(ValueError):
            solve_spectrum(assemble(mesh), 0)


class TestAccuracy:
    @pytest.mark.parametrize("eps", [0.08, 0.146721, 0.3, 0.5])
    def test_relative_error_bound(self, eps):
        spec = solve_domain(concentric(eps), 256, 24, count=2, grading=radial_grading(eps))
        lam_exact = analytic.steklov_eig(eps, 1, "minus")
        assert abs(spec.eigenvalues[1] - lam_exact) < 5e-3 * lam_exact

    def test_convergence_second_order(self):
        """λ₁ errors against the closed form fall by about 4 per halving of h."""
        lam1 = [solve_domain(concentric(0.3), n_theta, n_radial, count=2).eigenvalues[1]
                for n_theta, n_radial in [(64, 8), (128, 16), (256, 32)]]
        errors = np.abs(np.array(lam1) - analytic.steklov_eig(0.3, 1, "minus"))
        orders = np.log2(errors[:-1] / errors[1:])
        np.testing.assert_allclose(orders, 2.0, rtol=0.0, atol=0.4)


def scaled_domain(t, hole_radius, hole_center):
    return AnnularDomain(
        outer=Circle(radius=t, orientation=OUTER),
        inner=Circle(radius=t * hole_radius, orientation=INNER,
                     center=(t * hole_center[0], t * hole_center[1])))


class TestMetamorphic:
    @pytest.mark.parametrize("hole_radius, hole_center",
                             [(0.3, (0.25, 0.1)), (0.2, (-0.3, 0.4)), (0.3, (0.0, 0.0))])
    @pytest.mark.parametrize("t", [0.5, 1.7, 3.0])
    def test_scaling(self, t, hole_radius, hole_center):
        """λ_j(tΩ) = λ_j(Ω)/t: the mesh of tΩ is the mesh of Ω scaled by t,
        so the P1 stiffness is unchanged and the boundary mass scales by t."""
        base = solve_domain(scaled_domain(1.0, hole_radius, hole_center), 32, 4, count=4)
        scaled = solve_domain(scaled_domain(t, hole_radius, hole_center), 32, 4, count=4)
        np.testing.assert_allclose(t * scaled.eigenvalues[1:4], base.eigenvalues[1:4],
                                   rtol=1e-10, atol=0.0)
        assert abs(base.eigenvalues[0]) <= 1e-12
        assert abs(scaled.eigenvalues[0]) <= 1e-12

    @pytest.mark.parametrize("d", [0.1, 0.2, 0.3, 0.4])
    @pytest.mark.parametrize("table", sorted(TRANSLATION_TABLES))
    def test_translation_rows_reflect(self, table, d):
        """A translation row and its mirror row have the same λ₁: (d, 0) and
        (−d, 0) on the x-axis tables, (−d, d) and (d, −d) on the diagonal ones.
        The two meshes are congruent, but mirrored vertices get different
        numbers in the elimination order the mesher numbers them by, which
        has no mirror symmetry; so this also shows that the order does not
        bias the eigenvalues.
        `run_translation_table` solves only d ≤ 0 and relies on this at every
        offset."""
        eps, direction = TRANSLATION_TABLES[table]
        centers = ([(d, 0.0), (-d, 0.0)] if direction == "x-axis"
                   else [(-d, d), (d, -d)])
        lam1 = [solve_domain(AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER),
                                           inner=Circle(radius=eps, center=c,
                                                        orientation=INNER)),
                             64, 8, count=2, grading=radial_grading(eps)).eigenvalues[1]
                for c in centers]
        assert lam1[1] == pytest.approx(lam1[0], rel=1e-10, abs=0.0)
