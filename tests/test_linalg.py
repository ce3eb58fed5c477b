import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from steklov_annulus import analytic, linalg, mesher
from steklov_annulus.fem import assemble, boundary_mass, solve_domain
from steklov_annulus.geometry import INNER, OUTER, AnnularDomain, Circle
from steklov_annulus.linalg import EigensolveError, steklov_eigs
from steklov_annulus.mesher import build_annular_mesh


def annulus(radius, center=(0.0, 0.0)):
    return AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER),
                         inner=Circle(radius=radius, center=center, orientation=INNER))


def eigs(system, count):
    """steklov_eigs on an assembled system."""
    return steklov_eigs(system.shifted, system.boundary_mass, system.boundary_dofs, count)


def relabel(system, label):
    """K + M_∂, boundary mass and boundary dofs of the same system with
    vertex v renamed label[v]."""
    k = system.shifted.tocoo()
    shifted = sp.csc_matrix((k.data, (label[k.row], label[k.col])), shape=k.shape)
    return shifted, system.boundary_mass, label[system.boundary_dofs]


def ring_labels(mesh):
    """Ring number of each mesh vertex (vertex i of ring j is j·N_θ + i)."""
    return np.argsort(mesher._elimination_steps(mesh.n_theta, mesh.n_radial))


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
    return scipy.linalg.eigh(dense_dtn(system), system.boundary_mass.toarray(),
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
        m = eccentric.boundary_mass.toarray()
        np.testing.assert_allclose(s @ vecs, m @ vecs @ np.diag(lams),
                                   rtol=0.0, atol=1e-10 * np.abs(s).max())


class TestSmallestEigenpairs:
    def test_determinant_scan_oracle(self, eccentric):
        """Returned eigenvalues are roots of det(S − λM_∂): its sign flips
        across each of them, and S − λM_∂ has exactly j negative eigenvalues
        just above the j-th, so no eigenvalue below is skipped."""
        lams, _ = eigs(eccentric, 6)
        s = dense_dtn(eccentric)
        m = eccentric.boundary_mass.toarray()
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
        np.testing.assert_allclose(vecs.T @ eccentric.boundary_mass @ vecs, np.eye(6),
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
        """Both copies of the double λ₁ of a concentric annulus at 512×48
        match the closed form.  ARPACK finds the second copy of a double
        eigenvalue only through round-off and locking, so asking it for
        exactly `count` = 3 pairs here returns λ₂ ≈ 1.998 in place of the
        second λ₁; the extra pair steklov_eigs computes prevents that."""
        eps = 0.14054703734224616
        lam1 = analytic.steklov_eig(eps, 1, "minus")
        lams = solve_domain(annulus(eps), 512, 48, count=3).eigenvalues
        np.testing.assert_allclose(lams[1:3], lam1, rtol=1e-3)

    def test_double_eigenspace_matches_dense(self):
        """Inside the double λ₁ the basis is arbitrary, the eigenspace is not:
        its M_∂-orthogonal projector V·Vᵀ·M_∂ equals the dense one."""
        spec = solve_domain(annulus(0.3), 64, 8, count=3)
        system = assemble(spec.mesh)
        m = system.boundary_mass.toarray()
        _, ref = scipy.linalg.eigh(dense_dtn(system), m)
        v, w = spec.boundary_vectors[:, 1:3], ref[:, 1:3]
        np.testing.assert_allclose(v @ v.T @ m, w @ w.T @ m, rtol=0.0, atol=1e-8)

    def test_lanczos_runs_on_boundary_traces(self, monkeypatch):
        """The iteration works on boundary traces to LANCZOS_TOL: at most 40
        solves with the K + M_∂ factor on a concentric 256×24 mesh, whose
        double λ₁ slows convergence (64 over all vertices at eigsh's
        default tolerance)."""
        n = len(build_annular_mesh(annulus(0.3), 256, 24).vertices)
        real_splu = linalg.splu
        solves = []

        class CountedFactor:
            def __init__(self, factor):
                self.factor = factor

            def solve(self, rhs):
                solves.append(rhs.shape)
                return self.factor.solve(rhs)

        def counted_splu(a, *args, **kwargs):
            assert a.shape[0] == n  # the one factor is of K + M_∂
            return CountedFactor(real_splu(a, *args, **kwargs))

        monkeypatch.setattr(linalg, "splu", counted_splu)
        solve_domain(annulus(0.3), 256, 24, count=3)
        assert 0 < len(solves) <= 40

    def test_largest_count(self, eccentric):
        """count = n_b − 1 leaves no room for the extra pair and still works."""
        nb = len(eccentric.boundary_dofs)
        lams, _ = eigs(eccentric, nb - 1)
        np.testing.assert_allclose(lams[1:], dense_reference(eccentric)[1:nb - 1], rtol=1e-10)

    def test_count_validation(self, eccentric):
        nb = len(eccentric.boundary_dofs)
        for count in (0, nb):
            with pytest.raises(ValueError):
                eigs(eccentric, count)


class TestEliminationOrder:
    def test_pairs_do_not_depend_on_order(self, eccentric):
        """The mesh's own numbering, the same system relabelled back to ring
        order and one relabelled by a seeded random permutation give the same
        eigenvalues to 1e-12 and, up to sign, the same traces of the simple
        eigenvalues to 1e-10."""
        n = eccentric.stiffness.shape[0]
        ref_lams, ref_vecs = eigs(eccentric, 6)
        assert np.all(np.diff(ref_lams) > 1e-3)  # simple; the closest pair is λ₃, λ₄
        for label in (ring_labels(eccentric.mesh), np.random.default_rng(7).permutation(n)):
            lams, vecs = steklov_eigs(*relabel(eccentric, label), 6)
            assert abs(lams[0]) < 1e-10
            np.testing.assert_allclose(lams[1:], ref_lams[1:], rtol=1e-12, atol=0.0)
            vecs = vecs * np.sign(np.sum(vecs * ref_vecs, axis=0))
            np.testing.assert_allclose(vecs, ref_vecs, rtol=0.0, atol=1e-10)

    def test_cached_order_is_one_fixed_permutation(self, eccentric):
        """One read-only permutation of the vertices per resolution, equal
        across calls and in a fresh interpreter, so that runs repeat exactly.
        It owns its memory: a view of SuperLU's perm_c would keep the whole
        union-stencil factor alive in the cache."""
        steps = mesher._elimination_steps(32, 4)
        np.testing.assert_array_equal(np.sort(steps), np.arange(eccentric.stiffness.shape[0]))
        assert not steps.flags.writeable
        assert steps.base is None
        assert mesher._elimination_steps(32, 4) is steps
        np.testing.assert_array_equal(build_annular_mesh(annulus(0.2), 32, 4).inner_loop,
                                      steps[:32])
        env = dict(os.environ, PYTHONPATH=str(Path(mesher.__file__).resolve().parents[1]))
        fresh = subprocess.run(
            [sys.executable, "-c", "from steklov_annulus.mesher import _elimination_steps;"
             " print(_elimination_steps(32, 4).tolist())"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert fresh.strip() == str(steps.tolist())

    def test_cached_pattern_is_factor_ready(self, monkeypatch):
        """One read-only int32 union-stencil pattern per resolution, the same
        object on every call and owning its memory (no view into a SuperLU
        object).  The matrix a solve hands to splu is K + M_∂ written into
        it: canonical CSC with int32 indices, which SuperLU takes as it is,
        one entry per vertex and two per ring edge, radial edge and quad
        diagonal (both diagonals of every quad)."""
        pattern = mesher._union_pattern(32, 4)
        assert mesher._union_pattern(32, 4) is pattern
        for arr in pattern:
            assert arr.dtype == np.int32
            assert not arr.flags.writeable
            assert arr.base is None
        real_splu = linalg.splu
        factored = []

        def recording_splu(a, *args, **kwargs):
            factored.append(a)
            return real_splu(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "splu", recording_splu)
        solve_domain(annulus(0.3, center=(0.25, 0.1)), 32, 4, count=3)
        (shifted,) = factored
        assert shifted.format == "csc" and shifted.has_canonical_format
        assert shifted.indices.dtype == shifted.indptr.dtype == np.int32
        assert np.shares_memory(shifted.indices, pattern.indices)
        assert shifted.nnz == 5 * 32 + 2 * 32 * (4 * 4 + 1)

    def test_mesh_numbering_is_fill_reducing(self):
        """Factored in its own numbering, as steklov_eigs does, K + M_∂ of an
        eccentric 64×8 mesh has at most 1.1× the L + U entries that SuperLU's
        minimum-degree ordering gives the ring-numbered matrix (ring order
        itself gives about 4.6× as many)."""
        system = assemble(build_annular_mesh(annulus(0.3, center=(0.25, 0.1)), 64, 8))
        n = system.shifted.shape[0]

        def fill(label, permc_spec):
            lu = scipy.sparse.linalg.splu(relabel(system, label)[0], permc_spec=permc_spec,
                                          diag_pivot_thresh=0.0,
                                          options={"SymmetricMode": True})
            return lu.L.nnz + lu.U.nnz

        assert fill(np.arange(n), "NATURAL") <= 1.1 * fill(ring_labels(system.mesh),
                                                           "MMD_AT_PLUS_A")

    def test_no_factor_outlives_the_solve(self, monkeypatch):
        """Reference counting alone frees every LU factor when steklov_eigs
        returns: with the cyclic collector off, a reference cycle through a
        factor would keep it and all its fill alive."""
        real_splu = linalg.splu
        factors = []

        class Factor:
            def __init__(self, factor):
                self.factor = factor

            def solve(self, rhs):
                return self.factor.solve(rhs)

        def tracked_splu(*args, **kwargs):
            factor = Factor(real_splu(*args, **kwargs))
            factors.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(linalg, "splu", tracked_splu)
        gc.disable()
        try:
            solve_domain(annulus(0.3, center=(0.25, 0.1)), 64, 8, count=3)
            assert len(factors) == 1
            assert all(ref() is None for ref in factors)
        finally:
            gc.enable()


class TestSolverFailure:
    def test_singular_pencil_raises(self):
        # vertex 2 is not coupled to anything, so K + M_∂ is singular
        k = sp.csr_matrix(np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(EigensolveError):
            steklov_eigs(k, sp.identity(2, format="csr"), [0, 1], 1)

    def test_no_convergence_raises(self, eccentric, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(linalg, "eigsh", no_convergence)
        with pytest.raises(EigensolveError):
            eigs(eccentric, 3)

    def test_inaccurate_pair_rejected(self, eccentric, monkeypatch):
        real_eigsh = linalg.eigsh

        def perturbed(*args, **kwargs):
            lams, vecs = real_eigsh(*args, **kwargs)
            return lams * (1.0 + 1e-6), vecs

        monkeypatch.setattr(linalg, "eigsh", perturbed)
        with pytest.raises(EigensolveError, match="residual"):
            eigs(eccentric, 3)
