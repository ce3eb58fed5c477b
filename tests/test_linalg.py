import dataclasses
import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

from band_reference import solve_pencil
from steklov_annulus import analytic, fem, linalg, mesher
from steklov_annulus.fem import assemble, boundary_mass, solve_domain, solve_spectrum
from steklov_annulus.geometry import INNER, OUTER, AnnularDomain, Circle
from steklov_annulus.linalg import EigensolveError, lowest_pairs
from steklov_annulus.mesher import MeshingError, build_annular_mesh


def annulus(radius, center=(0.0, 0.0)):
    return AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER),
                         inner=Circle(radius=radius, center=center, orientation=INNER))


def eigs(system, count):
    """The one-block solve of an assembled system, the route of every mesh
    with no mirror symmetry."""
    return fem._solve_folds(system, count, halves=False)


def with_entries(system, data):
    """The system with the ring-space entries of K + M_∂ replaced by data,
    in the assembled layout."""
    return dataclasses.replace(system, entries=data)


def relabel(system, label):
    """K + M_∂, boundary mass and boundary dofs of the same system with
    vertex v renamed label[v]."""
    k = system.shifted.tocoo()
    shifted = sp.csc_matrix((k.data, (label[k.row], label[k.col])), shape=k.shape)
    return shifted, boundary_mass(system.mesh), label[system.boundary_dofs]


def folded_labels(mesh):
    """Number of each mesh vertex in the folded θ-major band order the
    one-block solve packs K + M_∂ in: the label of the whole fold."""
    return fem._folds(mesh.n_theta, mesh.n_radial, False)[0].label


def dense_dtn(system):
    """The boundary Dirichlet-to-Neumann matrix S = K_BB − K_BI·K_II⁻¹·K_IB,
    densely, rows and columns in boundary_dofs order."""
    k = system.stiffness.toarray()
    b = system.boundary_dofs
    i = np.setdiff1d(np.arange(k.shape[0]), b)
    s = k[np.ix_(b, b)] - k[np.ix_(b, i)] @ np.linalg.solve(k[np.ix_(i, i)], k[np.ix_(i, b)])
    return 0.5 * (s + s.T)


def dense_reference(system):
    """Eigenvalues of S against the boundary mass, densely."""
    return scipy.linalg.eigh(dense_dtn(system), boundary_mass(system.mesh).toarray(),
                             eigvals_only=True)


def negative_inertia(a):
    """Number of negative eigenvalues of the symmetric matrix a, from the
    block-diagonal factor of its LDLᵀ factorization (Sylvester)."""
    _, d, _ = scipy.linalg.ldl(a)
    return int(np.sum(np.linalg.eigvalsh(d) < 0.0))


@pytest.fixture(scope="module")
def eccentric():
    return assemble(build_annular_mesh(annulus(0.3, center=(0.25, 0.1)), 32, 4))


class TestDenseDirichletToNeumann:
    def test_matches_dense_formula(self, eccentric):
        """The traces are eigenvectors of the Schur complement of the
        interior, formed densely: S·v = λ·M_∂·v."""
        lams, vecs = eigs(eccentric, 6)
        s = dense_dtn(eccentric)
        m = boundary_mass(eccentric.mesh).toarray()
        np.testing.assert_allclose(s @ vecs, m @ vecs @ np.diag(lams),
                                   rtol=0.0, atol=1e-10 * np.abs(s).max())


class TestSmallestEigenpairs:
    def test_determinant_scan_oracle(self, eccentric):
        """Returned eigenvalues are roots of det(S − λM_∂): its sign flips
        across each of them, and S − λM_∂ has exactly j negative eigenvalues
        just above the j-th, so no eigenvalue below is skipped."""
        lams, _ = eigs(eccentric, 6)
        s = dense_dtn(eccentric)
        m = boundary_mass(eccentric.mesh).toarray()
        for j, lam in enumerate(lams, start=1):
            delta = 1e-8 * (1.0 + lam)
            below, _ = np.linalg.slogdet(s - (lam - delta) * m)
            above, _ = np.linalg.slogdet(s - (lam + delta) * m)
            assert below * above < 0.0
            assert negative_inertia(s - (lam + delta) * m) == j

    def test_subset_is_smallest(self, eccentric):
        """The `count` smallest eigenvalues of the pencil, ascending, equal
        those of the dense condensed problem."""
        lams, vecs = eigs(eccentric, 6)
        ref = dense_reference(eccentric)
        assert abs(lams[0]) < 1e-10
        np.testing.assert_allclose(lams[1:], ref[1:6], rtol=1e-10)
        assert np.all(np.diff(lams) > 0)
        np.testing.assert_allclose(vecs.T @ boundary_mass(eccentric.mesh) @ vecs, np.eye(6),
                                   atol=1e-10)

    def test_concentric_double_eigenvalue(self):
        """Both copies of the double λ₁ come back, trace-normalized and with
        the sign rule applied."""
        spec = solve_domain(annulus(0.3), 64, 8, count=3)
        lam1, lam2 = spec.eigenvalues[1:3]
        assert abs(lam2 - lam1) < 1e-10 * lam1
        v = spec.boundary_vectors
        np.testing.assert_allclose(v.T @ boundary_mass(spec.mesh) @ v, np.eye(3), atol=1e-10)
        outer_start = np.nonzero(spec.boundary_dofs == spec.mesh.outer_loop[0])[0][0]
        assert np.all(v[outer_start, :] >= 0.0)

    def test_extra_pair_completes_double_eigenvalue(self):
        """Both copies of the double λ₁ of a concentric annulus, solved in
        one block, come back: at 512×48 they match the closed form, and on
        60 radii from 0.05 to 0.7 at 128×12 they agree to 1e-8.  ARPACK
        finds the second copy of a double eigenvalue only through round-off
        and locking, so asked for exactly `count` = 3 pairs it returns
        λ₂ ≈ 2 in place of the second λ₁ on some radii (8 of the 60 at
        128×12, none at ε = 0.14054703734224616 at 512×48 since the
        standard-form Lanczos; which ones depends on round-off); the extra
        pair the one-block solve computes prevents that.  (solve_spectrum
        splits these meshes into mirror halves, where λ₁ is simple.)"""
        eps = 0.14054703734224616
        lam1 = analytic.steklov_eig(eps, 1, "minus")
        lams, _ = eigs(assemble(build_annular_mesh(annulus(eps), 512, 48)), 3)
        np.testing.assert_allclose(lams[1:3], lam1, rtol=1e-3)
        for radius in np.linspace(0.05, 0.7, 60):
            lams, _ = eigs(assemble(build_annular_mesh(annulus(radius), 128, 12)), 3)
            assert lams[2] - lams[1] < 1e-8 * lams[1]

    def test_double_eigenspace_matches_dense(self):
        """Inside the double λ₁ the basis is arbitrary, the eigenspace is not:
        its M_∂-orthogonal projector V·Vᵀ·M_∂ equals the dense one."""
        spec = solve_domain(annulus(0.3), 64, 8, count=3)
        system = assemble(spec.mesh)
        m = boundary_mass(system.mesh).toarray()
        _, ref = scipy.linalg.eigh(dense_dtn(system), m)
        v, w = spec.boundary_vectors[:, 1:3], ref[:, 1:3]
        np.testing.assert_allclose(v @ v.T @ m, w @ w.T @ m, rtol=0.0, atol=1e-8)

    def test_lanczos_runs_on_boundary_traces(self, monkeypatch):
        """The iteration works on boundary traces to LANCZOS_TOL: a
        concentric 256×24 mesh is solved as its two mirror halves, and each
        half's factor is applied at most 24 times (22 measured: ARPACK's
        20-vector basis, the start and the lift).  The one factor of the
        full K + M_∂, whose double λ₁ slows convergence, took 36, and the
        iteration over all vertices at eigsh's default tolerance 64.  A
        solve is one call of `linalg._lift`, the two sweeps of the reversed
        factor over every column of its right-hand side."""
        n = len(build_annular_mesh(annulus(0.3), 256, 24).vertices)
        real_lift = linalg._lift
        solves = []

        def counted_lift(factor, rows, traces):
            solves.append(factor.shape[1])
            return real_lift(factor, rows, traces)

        monkeypatch.setattr(linalg, "_lift", counted_lift)
        solve_domain(annulus(0.3), 256, 24, count=3)
        sizes, counts = np.unique(solves, return_counts=True)
        assert len(sizes) == 2 and sizes.sum() == n  # θ = 0 and π are even only
        assert np.all(counts <= 24)

    def test_solves_never_call_dpbtrs(self, monkeypatch):
        """Every band solve runs through the two upper dtbsv sweeps of the
        reversed factor: with LAPACK's dpbtrs refusing to run, a mirrored
        and an off-axis mesh still solve, to the dense reference."""
        def refuse(*args, **kwargs):
            raise AssertionError("the solve called dpbtrs")

        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrs", refuse)
        for center in ((0.0, 0.0), (0.25, 0.1)):
            system = assemble(build_annular_mesh(annulus(0.3, center=center), 32, 4))
            lams = solve_spectrum(system, 3).eigenvalues
            np.testing.assert_allclose(lams[1:], dense_reference(system)[1:3], rtol=1e-10)
            assert system.mesh.mirrored == (center == (0.0, 0.0))

    def test_largest_count(self, eccentric):
        """count = n_b − 1 leaves no room for the extra pair and still works.
        On a mirrored mesh the halves hold at most n_b − 2 pairs between
        them: up to the odd half's n_b the mesh is solved as its halves,
        beyond it, up to n_b − 1, in one block; each matches the dense
        reference."""
        nb = len(eccentric.boundary_dofs)
        lams, _ = eigs(eccentric, nb - 1)
        np.testing.assert_allclose(lams[1:], dense_reference(eccentric)[1:nb - 1], rtol=1e-10)
        concentric = assemble(build_annular_mesh(annulus(0.3), 32, 4))
        ref = dense_reference(concentric)
        for count in (2 * 15, 2 * 15 + 1, 2 * 32 - 1):
            lams = solve_spectrum(concentric, count).eigenvalues
            assert abs(lams[0]) < 1e-10
            np.testing.assert_allclose(lams[1:], ref[1:count], rtol=1e-10)

    def test_count_validation(self, eccentric):
        """Counts outside [1, n_b − 1] are refused on a mirrored and an
        unmirrored mesh alike."""
        concentric = assemble(build_annular_mesh(annulus(0.3), 32, 4))
        assert concentric.mesh.mirrored and not eccentric.mesh.mirrored
        for system in (concentric, eccentric):
            for count in (0, len(system.boundary_dofs)):
                with pytest.raises(ValueError):
                    solve_spectrum(system, count)


def random_spd_band(rng, n, kd):
    """The C-ordered (n, kd+1) lower band of a random symmetric, strictly
    diagonally dominant and so positive definite matrix of half-bandwidth
    kd, with zeros past the last row: entry (j, d) holds A[j+d, j]."""
    band = rng.uniform(-1.0, 1.0, (n, kd + 1))
    band[np.arange(n)[:, None] + np.arange(kd + 1) >= n] = 0.0
    off = np.abs(band[:, 1:])
    # off-diagonal row sums of |A|: row j holds A[j+d, j] right of the
    # diagonal and A[j, j−d] left of it
    dominance = off.sum(axis=1)
    for d in range(1, min(kd, n - 1) + 1):
        dominance[d:] += off[:n - d, d - 1]
    band[:, 0] = dominance + rng.uniform(0.5, 1.5, n)
    return band


class TestReversedFactor:
    @settings(max_examples=60, deadline=None)
    @given(half=st.integers(1, 60), odd=st.booleans(), kd=st.integers(1, 30),
           columns=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1))
    def test_reversed_solve_matches_solveh_banded(self, half, odd, kd, columns, seed):
        """On a random SPD band, odd or even n, the two upper sweeps of the
        reversed factor, right-hand side scattered onto the reversed rows
        and the result read back reversed, solve the system to 1e-13
        relative, for one column and for three at once."""
        rng = np.random.default_rng(seed)
        n = 2 * half + odd
        band = random_spd_band(rng, n, kd)
        rhs = rng.standard_normal((n, columns)).squeeze()
        expected = scipy.linalg.solveh_banded(band.T, rhs, lower=True)
        factor = linalg._reverse(linalg._band_cholesky(band, "A"))
        x = linalg._lift(factor, n - 1 - np.arange(n), rhs)[::-1]
        assert x.shape == rhs.shape
        assert np.linalg.norm(x - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n, kd", [(7, 2), (8, 3), (3225, 26)])
    def test_reversal_is_in_place(self, n, kd):
        """The reversal writes into the band array itself, flat storage read
        backwards, and reversing twice restores the factor bit for bit."""
        band = random_spd_band(np.random.default_rng(n), n, kd)
        factor = linalg._band_cholesky(band, "A")
        lower = factor.copy(order="F")
        reversed_factor = linalg._reverse(factor)
        assert reversed_factor is factor and np.shares_memory(factor, band)
        np.testing.assert_array_equal(factor.ravel(order="F"), lower.ravel(order="F")[::-1])
        np.testing.assert_array_equal(linalg._reverse(factor), lower)


class TestEliminationOrder:
    def test_pairs_do_not_depend_on_order(self, eccentric):
        """The one-block solve, the system in the mesh's own ring order, the
        same system relabelled by the whole fold's label and one relabelled
        by a seeded random permutation give the same eigenvalues to 1e-12
        and, up to sign, the same traces of the simple eigenvalues to 1e-10.
        The bands of ring order and of a random order are wide (2N_θ − 1 in
        ring order, where the bd diagonals wrap, nearly n at random), which
        costs time, not accuracy; all three are packed by the reference
        packer, not a fold map."""
        n = eccentric.shifted.shape[0]
        ref_lams, ref_vecs = eigs(eccentric, 6)
        assert np.all(np.diff(ref_lams) > 1e-3)  # simple; the closest pair is λ₃, λ₄
        for label in (np.arange(n), folded_labels(eccentric.mesh),
                      np.random.default_rng(7).permutation(n)):
            lams, vecs = solve_pencil(*relabel(eccentric, label), 6)
            assert abs(lams[0]) < 1e-10
            np.testing.assert_allclose(lams[1:], ref_lams[1:], rtol=1e-12, atol=0.0)
            vecs = vecs * np.sign(np.sum(vecs * ref_vecs, axis=0))
            np.testing.assert_allclose(vecs, ref_vecs, rtol=0.0, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(n_theta=st.integers(16, 64), n_radial=st.integers(2, 8),
           radius=st.floats(0.05, 0.6),
           center=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
           grading=st.floats(1.0, 1.3))
    def test_band_of_folded_numbering(self, n_theta, n_radial, radius, center, grading):
        """On any meshable eccentric, graded hole, odd or even N_θ, every
        entry of K + M_∂ relabelled by the whole fold lies within 2N_r + 3
        of the diagonal, its band is (V, 2N_r + 4), and the boundary loops
        land where the folded θ-major order puts them: θ column i in slot
        2i for i < ⌈N_θ/2⌉ and 2(N_θ−1−i)+1 otherwise, the inner loop at
        slot·(N_r+1), the outer one N_r further."""
        assume(math.hypot(*center) + radius < 0.95)
        domain = annulus(radius, center)
        try:
            mesh = build_annular_mesh(domain, n_theta, n_radial, grading=grading)
        except MeshingError:
            assume(False)
        shifted = assemble(mesh).shifted.tocoo()
        (whole,) = fem._folds(n_theta, n_radial, False)
        label = whole.label
        assert np.max(np.abs(label[shifted.row] - label[shifted.col])) <= 2 * n_radial + 3
        assert whole.stiffness.shape == (len(mesh.vertices), 2 * n_radial + 4)
        i = np.arange(n_theta)
        slot = np.where(i < (n_theta + 1) // 2, 2 * i, 2 * (n_theta - 1 - i) + 1)
        np.testing.assert_array_equal(label[mesh.inner_loop], slot * (n_radial + 1))
        np.testing.assert_array_equal(label[mesh.outer_loop], slot * (n_radial + 1) + n_radial)

    def test_cached_order_is_one_fixed_permutation(self, eccentric):
        """The folded band order of a resolution, the whole fold's label, is
        one fixed permutation of the vertices with a (V, 2N_r + 4) band,
        equal when built again and in a fresh interpreter, so that runs
        repeat exactly; the inner loop is ring 0 and the outer loop ring
        N_r.  The assembled K + M_∂ repeats as well."""
        n = eccentric.shifted.shape[0]
        (whole,) = fem._folds(32, 4, False)
        label = whole.label
        np.testing.assert_array_equal(np.sort(label), np.arange(n))
        assert whole.stiffness.shape == (n, 2 * 4 + 4)
        np.testing.assert_array_equal(fem._folds.__wrapped__(32, 4, False)[0].label, label)
        np.testing.assert_array_equal(eccentric.mesh.inner_loop, np.arange(32))
        np.testing.assert_array_equal(eccentric.mesh.outer_loop, 4 * 32 + np.arange(32))
        shifted = eccentric.shifted
        env = dict(os.environ, PYTHONPATH=str(Path(mesher.__file__).resolve().parents[1]))
        fresh = subprocess.run(
            [sys.executable, "-c",
             "from steklov_annulus.fem import _folds, assemble;"
             " from steklov_annulus.geometry import INNER, OUTER, AnnularDomain, Circle;"
             " from steklov_annulus.mesher import build_annular_mesh;"
             " s = assemble(build_annular_mesh(AnnularDomain("
             "outer=Circle(radius=1.0, orientation=OUTER), inner=Circle(radius=0.3,"
             " center=(0.25, 0.1), orientation=INNER)), 32, 4)).shifted;"
             " print(_folds(32, 4, False)[0].label.tolist()); print(s.row.tolist());"
             " print(s.col.tolist())"],
            env=env, capture_output=True, text=True, check=True, timeout=60).stdout
        assert fresh.split("\n")[:3] == [str(label.tolist()), str(shifted.row.tolist()),
                                         str(shifted.col.tolist())]

    def test_assembled_matrix_is_the_union_stencil(self, eccentric):
        """The K + M_∂ laid out from the assembled entries is a symmetric COO
        matrix with int32 indices holding each (row, col) of the union
        stencil once: one entry per vertex and two per ring edge, radial
        edge and quad diagonal (both diagonals of every quad)."""
        shifted = eccentric.shifted
        assert shifted.format == "coo"
        assert shifted.row.dtype == shifted.col.dtype == np.int32
        assert shifted.nnz == 5 * 32 + 2 * 32 * (4 * 4 + 1)
        n = shifted.shape[0]
        flat = shifted.row.astype(np.int64) * n + shifted.col
        assert np.unique(flat).size == shifted.nnz
        np.testing.assert_array_equal(np.sort(flat), np.sort(shifted.col.astype(np.int64) * n
                                                             + shifted.row))
        assert abs(shifted - shifted.T).max() == 0.0

    def test_mesh_numbering_is_fill_reducing(self):
        """Factored in the folded band order with no reordering, as the
        one-block solve does, K + M_∂ of an eccentric 64×8 mesh fills no
        more than its band of half-width 2N_r + 3, under a third of the
        L + U entries that the mesh's own ring order gives (about 0.32×),
        and at most 1.5× what SuperLU's minimum-degree ordering gives the
        ring-numbered matrix (about 1.47×: the price of a band solver with
        no ordering step)."""
        system = assemble(build_annular_mesh(annulus(0.3, center=(0.25, 0.1)), 64, 8))
        n = system.shifted.shape[0]
        kd = 2 * 8 + 3

        def fill(label, permc_spec):
            lu = scipy.sparse.linalg.splu(relabel(system, label)[0], permc_spec=permc_spec,
                                          diag_pivot_thresh=0.0,
                                          options={"SymmetricMode": True})
            return lu.L.nnz + lu.U.nnz

        own = fill(folded_labels(system.mesh), "NATURAL")
        ring = np.arange(n)
        assert own <= 2 * (n * (kd + 1) - kd * (kd + 1) // 2) - n
        assert own < fill(ring, "NATURAL") / 3
        assert own <= 1.5 * fill(ring, "MMD_AT_PLUS_A")

    def test_no_factor_outlives_the_solve(self, monkeypatch):
        """Reference counting alone frees the band arrays, which hold the
        Cholesky factors of K + M_∂ and of M_bb, when the solve returns:
        with the cyclic collector off, a reference cycle through a factor
        would keep it alive."""
        real_dpbtrf = scipy.linalg.lapack.dpbtrf
        bands = []

        def tracked_dpbtrf(ab, *args, **kwargs):
            bands.append(weakref.ref(ab.base))  # ab is the transpose of the band array
            return real_dpbtrf(ab, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", tracked_dpbtrf)
        gc.disable()
        try:
            solve_domain(annulus(0.3, center=(0.25, 0.1)), 64, 8, count=3)
            assert len(bands) == 2
            assert all(ref() is None for ref in bands)
        finally:
            gc.enable()

    def test_factor_is_made_in_place(self):
        """The tracemalloc peak of one 256×24 one-block solve stays below 1.5×
        the bytes of its band array: the band is packed once, factored in
        place, reversed in place and applied without a copy.  A C-ordered
        band would make f2py copy it inside dpbtrf or on every dtbsv sweep,
        and a reversal through a temporary would hold a second band."""
        system = assemble(build_annular_mesh(annulus(0.3, center=(0.25, 0.1)), 256, 24))
        band_bytes = system.shifted.shape[0] * (2 * 24 + 3 + 1) * 8
        tracemalloc.start()
        try:
            eigs(system, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * band_bytes

    def test_solve_domain_memory(self):
        """The tracemalloc peak of one 256×24 solve_domain, mesh, assembly
        and solve, stays below 1.5× the bytes of the band array (1.34× with
        the fold map built, 1.43× building it): the band is the only array
        of that order, and no matrix of K + M_∂ is built beside it.  With
        the assembled COO matrix, as the solve built it before, the peak
        was 1.58× and 1.67×."""
        band_bytes = 256 * 25 * (2 * 24 + 3 + 1) * 8
        tracemalloc.start()
        try:
            solve_domain(annulus(0.3, center=(0.25, 0.1)), 256, 24, count=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * band_bytes

    def test_half_route_memory(self):
        """The tracemalloc peak of a warm concentric 256×24 solve_domain,
        which solves the mesh as its two mirror halves, stays below 0.8×
        the bytes of one full-width band (0.68× measured, 0.93× with the
        assembled COO matrix): each half's band is packed straight from the
        assembled entries by the resolution's fold map, built by the first
        solve, and freed before the next half is packed."""
        band_bytes = 256 * 25 * (2 * 24 + 3 + 1) * 8
        solve_domain(annulus(0.3), 256, 24, count=3)
        tracemalloc.start()
        try:
            solve_domain(annulus(0.3), 256, 24, count=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * band_bytes

    def test_half_route_memory_at_512(self):
        """At 512×48 the tracemalloc peak of a warm concentric solve_domain
        stays below two bands of its even half (1.85 measured, 2.34 with
        the assembled COO matrix): one half band, the two temporaries of
        its packing, and mesh and assembly transients that stay below
        them."""
        half_band_bytes = 257 * 49 * (48 + 3) * 8
        solve_domain(annulus(0.3), 512, 48, count=3)
        tracemalloc.start()
        try:
            solve_domain(annulus(0.3), 512, 48, count=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * half_band_bytes

    def test_solve_builds_no_sparse_matrix(self, monkeypatch):
        """Neither route builds a scipy.sparse matrix: with coo_array,
        `fem._union_matrix` and `fem._loop_matrix` refusing to run, a
        mirrored and an off-axis mesh still solve, and to the same
        eigenvalues."""
        domains = (annulus(0.3), annulus(0.3, center=(0.25, 0.1)))
        expected = [solve_domain(domain, 64, 8, count=3).eigenvalues for domain in domains]

        def refuse(*args, **kwargs):
            raise AssertionError("the solve built a sparse matrix")

        monkeypatch.setattr(sp, "coo_array", refuse)
        monkeypatch.setattr(fem, "_union_matrix", refuse)
        monkeypatch.setattr(fem, "_loop_matrix", refuse)
        assert [build_annular_mesh(domain, 64, 8).mirrored for domain in domains] == [True, False]
        for domain, lams in zip(domains, expected):
            np.testing.assert_array_equal(solve_domain(domain, 64, 8, count=3).eigenvalues, lams)


class TestSolverFailure:
    def test_singular_pencil_raises(self):
        # vertex 2 is not coupled to anything, so K + M_∂ is singular; the
        # bands hold rows (a[j, j], a[j+1, j])
        band = np.array([[1.0, -1.0], [1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(EigensolveError):
            lowest_pairs(band, np.ones((2, 1)), np.array([0, 1]), 1, 1)

    def test_indefinite_matrix_raises(self, eccentric):
        """A negative diagonal entry makes K + M_∂ indefinite: dpbtrf
        meets a nonpositive pivot."""
        data = eccentric.entries.copy()
        data[5] = -1.0  # the diagonal comes first in the assembled layout
        with pytest.raises(EigensolveError, match="Cholesky"):
            eigs(with_entries(eccentric, data), 3)

    def test_nan_entry_raises(self, eccentric):
        """A NaN coupling does not stop dpbtrf, whose pivot test NaN
        passes, but it reaches the diagonal of the factor."""
        shifted = eccentric.shifted
        data = eccentric.entries.copy()
        # the first entry past the diagonal is the radial edge from vertex 0
        # to vertex N_θ = 32, vertex 0 of ring 1; the matrix laid out from
        # the entries holds it there and its transpose as the first of the
        # second copies
        first = len(eccentric.mesh.vertices)
        edge = (first, first + (shifted.nnz - first) // 2)
        assert {(shifted.row[i], shifted.col[i]) for i in edge} == {(0, 32), (32, 0)}
        data[first] = np.nan
        with pytest.raises(EigensolveError, match="Cholesky"):
            eigs(with_entries(eccentric, data), 3)

    def test_no_convergence_raises(self, eccentric, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        with pytest.raises(EigensolveError):
            eigs(eccentric, 3)

    def test_inaccurate_pair_rejected(self, eccentric, monkeypatch):
        real_eigsh = scipy.sparse.linalg.eigsh

        def perturbed(*args, **kwargs):
            lams, vecs = real_eigsh(*args, **kwargs)
            return lams * (1.0 + 1e-6), vecs

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", perturbed)
        with pytest.raises(EigensolveError, match="residual"):
            eigs(eccentric, 3)
