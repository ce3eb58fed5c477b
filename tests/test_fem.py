import math

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from band_reference import held_boundary_mass, pack_band, reference_boundary_mass, shifted_matrix
from steklov_annulus import analytic, fem
from steklov_annulus.experiments import EPS0, TRANSLATION_TABLES
from steklov_annulus.fem import assemble, solve_domain, solve_spectrum
from steklov_annulus.geometry import (INNER, OUTER, AnnularDomain, Circle,
                                      CosinePerturbedCircle, amplitude_for_perimeter)
from steklov_annulus.linalg import EigensolveError
from steklov_annulus.mesher import Mesh, MeshingError, build_annular_mesh, radial_grading

TWO_PI = 2.0 * math.pi


def concentric(eps):
    return AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER),
                         inner=Circle(radius=eps, orientation=INNER))


def eccentric_mesh():
    return build_annular_mesh(
        AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER),
                      inner=Circle(radius=0.3, center=(0.2, -0.1), orientation=INNER)),
        32, 4)


def reference_stiffness(mesh):
    """K assembled triangle by triangle from the exact element integrals of
    the hat-function gradients, densely."""
    tris = mesh.triangles
    p = mesh.vertices[tris]
    x, y = p[:, :, 0], p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = np.einsum("ti,ti->t", x, b)
    assert np.all(area2 > 0)
    ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (2.0 * area2)[:, None, None]
    n = len(mesh.vertices)
    k = np.zeros((n, n))
    np.add.at(k, (np.repeat(tris, 3, axis=1), np.tile(tris, (1, 3))), ke.reshape(-1, 9))
    return k


def perturbed(k):
    return AnnularDomain(
        outer=Circle(radius=1.0, orientation=OUTER),
        inner=CosinePerturbedCircle(a=amplitude_for_perimeter(k, EPS0, EPS0), k=k, b=EPS0,
                                    orientation=INNER))


# name -> (domain, radial grading)
ORACLE_DOMAINS = {
    "concentric": (concentric(0.3), 1.0),
    "eccentric": (AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER),
                                inner=Circle(radius=0.3, center=(0.25, 0.1), orientation=INNER)),
                  1.0),
    "graded": (AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER),
                             inner=Circle(radius=0.08, center=(-0.3, 0.3), orientation=INNER)),
               radial_grading(0.08)),
    "cosine k=5": (perturbed(5), 1.15),
    "cosine k=50": (perturbed(50), 1.15),
}


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
        """A ring array with its rings in reverse order turns every triangle
        clockwise; no mesh can be made of it."""
        mesh = eccentric_mesh()
        with pytest.raises(MeshingError, match="tangled"):
            Mesh(mesh.ring[:, ::-1])

    def test_solve_path_forms_no_vertex_or_triangle_list(self, monkeypatch):
        """Meshing, assembly, the solve and the boundary mass all work on
        the ring array; none of them builds the vertex or triangle list."""
        def refuse(mesh):
            raise AssertionError("the solve path formed a vertex or triangle list")

        monkeypatch.setattr(Mesh, "vertices", property(refuse))
        monkeypatch.setattr(Mesh, "triangles", property(refuse))
        spectrum = solve_domain(concentric(0.3), 32, 4)
        assert fem._loop_entries(spectrum.mesh).shape == (4 * 32,)

    def test_stiffness_kernel_is_constants(self):
        mesh = build_annular_mesh(concentric(0.3), 32, 4)
        system = assemble(mesh)
        np.testing.assert_allclose(system.stiffness @ np.ones(len(mesh.vertices)),
                                   0.0, atol=1e-12)

    def test_boundary_mass_total_is_polygonal_perimeter(self):
        mesh = build_annular_mesh(concentric(0.3), 256, 4)
        system = assemble(mesh)
        total = fem._loop_product(*system.mass_parts, np.ones(2 * 256)).sum()
        assert total == pytest.approx(TWO_PI * 1.3, rel=1e-4)

    def test_boundary_mass_matches_edge_loop(self):
        """The vectorized boundary mass, held as `_loop_entries` and applied
        by `_loop_product`, equals the per-edge accumulation."""
        mesh = eccentric_mesh()
        np.testing.assert_allclose(held_boundary_mass(assemble(mesh)),
                                   reference_boundary_mass(mesh), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n_theta, n_radial", [(64, 8), (65, 7)])
    @pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
    def test_edge_assembly_matches_triangle_oracle(self, name, n_theta, n_radial):
        """K from the ring-space edge pass equals the per-triangle gradient
        products, and K + M_∂ equals that K plus the per-edge boundary mass,
        each to 1e-14 of its largest entry."""
        domain, grading = ORACLE_DOMAINS[name]
        mesh = build_annular_mesh(domain, n_theta, n_radial, grading=grading)
        system = assemble(mesh)
        k = reference_stiffness(mesh)
        mbb = reference_boundary_mass(mesh)
        np.testing.assert_allclose(system.stiffness.toarray(), k,
                                   rtol=0.0, atol=1e-14 * np.abs(k).max())
        np.testing.assert_allclose(held_boundary_mass(system), mbb,
                                   rtol=0.0, atol=1e-14 * np.abs(mbb).max())
        dofs = mesh.boundary_vertices
        k[np.ix_(dofs, dofs)] += mbb
        np.testing.assert_allclose(shifted_matrix(system).toarray(), k,
                                   rtol=0.0, atol=1e-14 * np.abs(k).max())

    @pytest.mark.parametrize("grading", [1.0, 1.15])
    @pytest.mark.parametrize("name", ["cosine k=5", "eccentric"])
    def test_shifted_holds_the_factored_boundary_mass(self, name, grading):
        """The M_∂ inside the entries of K + M_∂ is exactly the M_bb whose
        band the Lanczos factors: the entries equal those of K alone with
        mass_entries added on rings 0 and N_r, the diagonal onto the vertex
        entries and the loop edges onto the ring-edge entries, bit for bit,
        and mass_entries are the entries `_loop_entries` gives the mesh.
        On a mirrored and an off-axis mesh, each graded and ungraded."""
        domain, _ = ORACLE_DOMAINS[name]
        mesh = build_annular_mesh(domain, 64, 8, grading=grading)
        assert mesh.mirrored == (name == "cosine k=5")
        system = assemble(mesh)
        expected = system.stiffness.data[:system.entries.size].copy()  # K, in the held order
        vertex, _, around, _, _ = fem._union_parts(expected, 64, 8)
        diagonal, edge = system.mass_parts
        for j, loop in ((0, 0), (-1, 1)):
            vertex[j] += diagonal[loop]
            around[j] += edge[loop]
        np.testing.assert_array_equal(system.entries, expected)
        np.testing.assert_array_equal(system.mass_entries, fem._loop_entries(mesh))

    @settings(max_examples=40, deadline=None)
    @given(n_theta=st.integers(16, 64), n_radial=st.integers(2, 6),
           radius=st.floats(0.05, 0.6),
           center=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
    def test_stiffness_symmetric_with_zero_row_sums(self, n_theta, n_radial, radius, center):
        """On any meshable eccentric circle, K is symmetric and each of its
        rows sums to zero (constants are in its kernel)."""
        assume(math.hypot(*center) + radius < 0.95)
        domain = AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER),
                               inner=Circle(radius=radius, center=center, orientation=INNER))
        try:
            mesh = build_annular_mesh(domain, n_theta, n_radial)
        except MeshingError:
            assume(False)
        k = assemble(mesh).stiffness
        assert abs(k - k.T).max() == 0.0
        assert np.abs(k @ np.ones(k.shape[0])).max() <= 1e-13 * abs(k).max()

    @pytest.mark.parametrize("n_theta, n_radial", [(64, 8), (65, 7)])
    @pytest.mark.parametrize("name", ["graded", "cosine k=5"])
    def test_ring_stencils_match_union_layout(self, name, n_theta, n_radial):
        """The ring stencils by which the solve applies K + M_∂ and M_bb
        give the products of the matrix `_union_matrix` lays out from the
        same entries and of the per-edge M_bb, to 1e-13 of the largest
        entry, on three random columns: on an off-axis and a mirrored mesh,
        with even and odd N_θ, which covers the wrap of the θ rolls."""
        domain, grading = ORACLE_DOMAINS[name]
        mesh = build_annular_mesh(domain, n_theta, n_radial, grading=grading)
        assert mesh.mirrored == (name == "cosine k=5")
        system = assemble(mesh)
        rng = np.random.default_rng(5)
        u = rng.standard_normal((len(mesh.vertices), 3))
        w = rng.standard_normal((2 * n_theta, 3))
        pairs = [(np.column_stack([fem._union_product(*system.parts, column)
                                   for column in u.T]),
                  fem._union_matrix(*system.parts) @ u),
                 (np.column_stack([fem._loop_product(*system.mass_parts, column)
                                   for column in w.T]),
                  reference_boundary_mass(mesh) @ w)]
        for product, reference in pairs:
            np.testing.assert_allclose(product, reference, rtol=0.0,
                                       atol=1e-13 * np.abs(reference).max())

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
        n = spectrum.mesh.n_theta
        theta = TWO_PI * np.arange(n) / n
        # project onto cosθ/sinθ: the trace is a pure first harmonic
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
        numbers, and a diagonal hole is solved in one block, in the folded
        θ-major band order of `fem._folds`, which has no mirror symmetry
        (θ_i mirrors to θ_{N_θ−i}, the fold pairs it with θ_{N_θ−1−i}); so
        this also shows that the order does not bias the eigenvalues.
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


def mirror_positions(n_theta):
    """Boundary position of the mirror image θ ↦ −θ of each boundary
    position, inner loop then outer loop."""
    mirror = -np.arange(n_theta) % n_theta
    return np.concatenate([mirror, n_theta + mirror])


def reference_halves(n_theta, n_radial):
    """Half number and sign of every mesh vertex, by its number j·N_θ + i,
    even half then odd half, from their definition in ring space: θ column i goes to half column
    min(i, N_θ − i), numbered from h₀ = 0 (even) or 1 (odd), (h − h₀)·(N_r+1)
    + j; the odd half negates past θ = π and gives the cut columns θ = 0
    and π the sign 0 and the number of the column beside them."""
    i = np.arange(n_theta)
    h = np.minimum(i, n_theta - i)
    cut = (i == 0) | (2 * i == n_theta)
    ring = np.arange(n_radial + 1)[:, None]
    halves = []
    for column, sign in ((h, np.ones(n_theta)),
                         (np.clip(h, 1, (n_theta - 1) // 2) - 1,
                          np.where(cut, 0.0, np.where(2 * i > n_theta, -1.0, 1.0)))):
        halves.append(((column * (n_radial + 1) + ring).ravel(),
                       np.broadcast_to(sign, (n_radial + 1, n_theta)).ravel()))
    return halves


def reference_whole(n_theta, n_radial):
    """Number of every mesh vertex in the folded θ-major order of the whole
    fold: θ column i in slot 2i for i < ⌈N_θ/2⌉ and 2(N_θ−1−i)+1 otherwise,
    vertex (j, i) at slot·(N_r+1) + j."""
    i = np.arange(n_theta)
    slot = np.where(i < (n_theta + 1) // 2, 2 * i, 2 * (n_theta - 1 - i) + 1)
    return (slot * (n_radial + 1) + np.arange(n_radial + 1)[:, None]).ravel()


def assert_read_only(fold):
    for array in (fold.label, fold.sign, fold.boundary, fold.stiffness.slot,
                  fold.stiffness.weight, fold.mass.slot, fold.mass.weight):
        assert not array.flags.writeable


def generic_fold(matrix, label, sign, n):
    """The lower band of QᵀAQ: the triplets of A renumbered by label,
    weighted by the signs of both ends and packed by the reference packer,
    which takes any matrix."""
    a = sp.coo_array(matrix)
    return pack_band(sp.coo_array((sign[a.row] * sign[a.col] * a.data,
                                   (label[a.row], label[a.col])), shape=(n, n)))


class TestMirrorHalves:
    @pytest.mark.parametrize("n_theta, n_radial", [(64, 8), (256, 24), (512, 48),
                                                   (65, 6), (63, 5), (33, 4)])
    def test_fold_map_matches_generic_fold(self, n_theta, n_radial):
        """Each half's K + M_∂ and M_bb bands, packed from the resolution's
        fold map, equal the generic packing of Qᵀ(K + M_∂)Q and of QᵀM_∂Q on
        the half's boundary, cut columns included: bit for bit for even
        N_θ, where each band entry sums at most two terms, and to 2 ulps of
        the largest entry for odd N_θ, where the ring edges across θ = π
        fold onto the diagonal with weight 2 and are summed in another
        order.  The whole fold of an off-axis hole, Q the permutation into
        the folded θ-major order, equals the generic packing bit for bit,
        each band slot receiving one entry; its bands are (V, 2N_r + 4) and
        (2N_θ, 5).  Every map is read-only and built once per resolution
        and route."""
        domain, grading = ORACLE_DOMAINS["cosine k=5"]
        mesh = build_annular_mesh(domain, n_theta, n_radial, grading=grading)
        assert mesh.mirrored
        system = assemble(mesh)
        folds = fem._folds(n_theta, n_radial, True)
        for fold, (label, sign) in zip(folds, reference_halves(n_theta, n_radial)):
            np.testing.assert_array_equal(fold.label, label)
            np.testing.assert_array_equal(fold.sign, sign)
            half_dofs, position = np.unique(label[system.boundary_dofs], return_inverse=True)
            np.testing.assert_array_equal(fold.boundary, half_dofs)
            pairs = [(fold.stiffness.pack(system.entries),
                      generic_fold(shifted_matrix(system), label, sign, label.max() + 1)),
                     (fold.mass.pack(system.mass_entries),
                      generic_fold(held_boundary_mass(system), position,
                                   sign[system.boundary_dofs], len(half_dofs)))]
            for band, reference in pairs:
                assert band.shape == reference.shape
                if n_theta % 2 == 0:
                    np.testing.assert_array_equal(band, reference)
                else:
                    np.testing.assert_allclose(band, reference, rtol=0.0,
                                               atol=2 * np.spacing(np.abs(reference).max()))
            assert fold.stiffness.shape == (label.max() + 1, n_radial + 3)
            assert fold.mass.shape == (len(half_dofs), 3)
            assert np.any(np.abs(fold.stiffness.weight) == 2) == (n_theta % 2 == 1)
            assert_read_only(fold)

        off_axis = build_annular_mesh(ORACLE_DOMAINS["graded"][0], n_theta, n_radial)
        assert not off_axis.mirrored
        whole_system = assemble(off_axis)
        (whole,) = fem._folds(n_theta, n_radial, False)
        n, dofs = len(off_axis.vertices), whole_system.boundary_dofs
        label = reference_whole(n_theta, n_radial)
        np.testing.assert_array_equal(whole.label, label)
        np.testing.assert_array_equal(whole.sign, np.ones(n))
        np.testing.assert_array_equal(whole.boundary, np.sort(label[dofs]))
        rank = np.argsort(np.argsort(label[dofs]))
        pairs = [(whole.stiffness.pack(whole_system.entries),
                  generic_fold(shifted_matrix(whole_system), label, np.ones(n), n)),
                 (whole.mass.pack(whole_system.mass_entries),
                  generic_fold(held_boundary_mass(whole_system), rank, np.ones(len(dofs)),
                               len(dofs)))]
        for band, reference in pairs:
            np.testing.assert_array_equal(band, reference)
        assert np.bincount(whole.stiffness.slot).max() == np.bincount(whole.mass.slot).max() == 1
        assert whole.stiffness.shape == (n, 2 * n_radial + 4)
        assert whole.mass.shape == (2 * n_theta, 5)
        assert_read_only(whole)

        misses = fem._folds.cache_info().misses
        solve_spectrum(system, 3)
        solve_spectrum(whole_system, 3)
        assert fem._folds(n_theta, n_radial, True) is folds
        assert fem._folds(n_theta, n_radial, False)[0] is whole
        assert fem._folds.cache_info().misses == misses

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["concentric", "x-axis", "cosine", "graded"]),
           n_theta=st.integers(16, 64), n_radial=st.integers(2, 8),
           radius=st.floats(0.1, 0.5), offset=st.floats(-0.4, 0.4),
           k=st.integers(2, 8), amplitude=st.floats(0.0, 0.25), count=st.integers(2, 6))
    def test_halves_match_one_block(self, kind, n_theta, n_radial, radius, offset, k,
                                    amplitude, count):
        """On concentric, x-axis eccentric, cosine-perturbed (k ≤ 8) and
        graded holes, odd and even N_θ, the union of the two mirror halves
        equals the one-block solve of the same assembled K + M_∂ to 1e-12
        relative, and its traces are M_∂-orthonormal."""
        grading = 1.0
        if kind == "concentric":
            inner = Circle(radius=radius, orientation=INNER)
        elif kind == "cosine":
            inner = CosinePerturbedCircle(a=amplitude * radius, k=k, b=radius, orientation=INNER)
        else:
            assume(abs(offset) + radius < 0.9)
            inner = Circle(radius=radius, center=(offset, 0.0), orientation=INNER)
            grading = 1.15 if kind == "graded" else 1.0
        domain = AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER), inner=inner)
        try:
            mesh = build_annular_mesh(domain, n_theta, n_radial, grading=grading)
        except MeshingError:
            assume(False)
        assert mesh.mirrored
        system = assemble(mesh)
        spectrum = solve_spectrum(system, count)
        lams, _ = fem._solve_folds(system, count, halves=False)
        np.testing.assert_allclose(spectrum.eigenvalues, lams, rtol=1e-12, atol=1e-12 * lams[-1])
        v = spectrum.boundary_vectors
        np.testing.assert_allclose(v.T @ reference_boundary_mass(system.mesh) @ v, np.eye(count),
                                   atol=1e-10)

    def test_two_half_width_factors(self, monkeypatch):
        """A concentric 256×24 solve factors exactly two half pencils, each
        a band of half-width N_r + 2 (27 rows), and no full-width band; the
        only other bands are the two halves' boundary masses, of
        half-width 2 (3 rows) over their 2·127 and 2·129 boundary vertices."""
        real_dpbtrf = scipy.linalg.lapack.dpbtrf
        shapes = []

        def recorded_dpbtrf(ab, *args, **kwargs):
            shapes.append(ab.shape)
            return real_dpbtrf(ab, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", recorded_dpbtrf)
        solve_domain(concentric(0.3), 256, 24, count=3)
        assert sorted(shapes) == [(3, 127 * 2), (3, 129 * 2),
                                  (24 + 3, 127 * 25), (24 + 3, 129 * 25)]

    def test_one_full_width_factor(self, monkeypatch):
        """An off-axis 256×24 solve factors exactly one band of K + M_∂, of
        half-width 2N_r + 3 (52 rows) over all 6400 vertices, and one band
        of M_bb, of half-width 4 (5 rows) over the 512 boundary vertices.
        Its fold map is built once: a second solve at that resolution makes
        no cache miss, and a mirrored solve there gets its own entry."""
        real_dpbtrf = scipy.linalg.lapack.dpbtrf
        shapes = []

        def recorded_dpbtrf(ab, *args, **kwargs):
            shapes.append(ab.shape)
            return real_dpbtrf(ab, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", recorded_dpbtrf)
        fem._folds.cache_clear()
        off_axis, _ = ORACLE_DOMAINS["eccentric"]
        solve_domain(off_axis, 256, 24, count=3)
        assert sorted(shapes) == [(5, 512), (2 * 24 + 4, 256 * 25)]
        assert fem._folds.cache_info().misses == 1
        solve_domain(off_axis, 256, 24, count=3)
        assert fem._folds.cache_info().misses == 1
        solve_domain(concentric(0.3), 256, 24, count=3)
        info = fem._folds.cache_info()
        assert info.misses == 2 and info.currsize == 2
        assert len(fem._folds(256, 24, True)) == 2
        assert len(fem._folds(256, 24, False)) == 1

    def test_concentric_traces_have_parity(self):
        """Every concentric trace is exactly even or exactly odd under
        θ ↦ −θ: the double λ₁ comes back as its cos-like and its sin-like
        trace, and two solves return the same bits."""
        first, second = (solve_domain(concentric(0.3), 65, 6, count=6) for _ in range(2))
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_array_equal(first.boundary_vectors, second.boundary_vectors)
        v = first.boundary_vectors
        mirrored = v[mirror_positions(65)]
        parity = [np.array_equal(mirrored[:, c], v[:, c]) - np.array_equal(mirrored[:, c], -v[:, c])
                  for c in range(6)]
        assert parity[0] == 1 and sorted(parity[1:3]) == [-1, 1] and 0 not in parity

    def test_odd_traces_signed_past_their_zero(self):
        """An odd trace is exactly zero at θ = 0 on the outer loop; the sign
        rule makes its first nonzero outer-loop value, at θ₁, positive."""
        spectrum = solve_domain(concentric(0.3), 64, 8, count=3)
        outer = spectrum.boundary_vectors[64:]
        odd = outer[0] == 0.0
        assert np.count_nonzero(odd) == 1
        assert np.all(outer[1, odd] > 0.0) and np.all(outer[0, ~odd] > 0.0)

    def test_half_pairs_are_checked_on_the_full_pencil(self, monkeypatch):
        """The pairs of the halves are checked against the full K + M_∂:
        eigenvalues off by 1e-6 fail the residual bound."""
        real_pairs = fem.lowest_pairs

        def perturbed(*args):
            lams, vectors = real_pairs(*args)
            return lams * (1.0 + 1e-6), vectors

        monkeypatch.setattr(fem, "lowest_pairs", perturbed)
        with pytest.raises(EigensolveError, match="residual"):
            solve_domain(concentric(0.3), 32, 4, count=3)

    def test_one_block_pairs_are_checked_on_the_full_pencil(self, monkeypatch):
        """So are the pairs of the one block a mesh with no mirror is
        solved in: eigenvalues off by 1e-6 fail the residual bound."""
        real_pairs = fem.lowest_pairs

        def perturbed(*args):
            lams, vectors = real_pairs(*args)
            return lams * (1.0 + 1e-6), vectors

        off_axis, _ = ORACLE_DOMAINS["eccentric"]
        assert not build_annular_mesh(off_axis, 32, 4).mirrored
        monkeypatch.setattr(fem, "lowest_pairs", perturbed)
        with pytest.raises(EigensolveError, match="residual"):
            solve_domain(off_axis, 32, 4, count=3)
