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
from scipy.sparse.linalg import ArpackNoConvergence

from steklov_annulus import linalg, mesher
from steklov_annulus.fem import assemble, boundary_mass, solve_domain
from steklov_annulus.geometry import INNER, OUTER, AnnularDomain, Circle
from steklov_annulus.linalg import EigensolveError, steklov_eigs
from steklov_annulus.mesher import build_annular_mesh


def annulus(radius, center=(0.0, 0.0)):
    return AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER),
                         inner=Circle(radius=radius, center=center, orientation=INNER))


def eigs(system, count, order=None):
    """steklov_eigs on an assembled system, in the mesh's elimination order
    unless another is given."""
    if order is None:
        order = system.mesh.elimination_order
    return steklov_eigs(system.stiffness, system.boundary_mass, system.boundary_dofs,
                        count, order)


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


class TestSchurCondense:
    def test_matches_dense_formula(self, eccentric):
        """The traces are eigenvectors of the Schur complement of the
        interior, formed densely: S·v = λ·M_∂·v."""
        lams, vecs = eigs(eccentric, 6)
        s = dense_dtn(eccentric)
        m = eccentric.boundary_mass.toarray()
        np.testing.assert_allclose(s @ vecs, m @ vecs @ np.diag(lams),
                                   rtol=0.0, atol=1e-10 * np.abs(s).max())


class TestGeneralizedEig:
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
            factor = real_splu(a, *args, **kwargs)
            return CountedFactor(factor) if a.shape[0] == n else factor

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
        """The cached order, the identity and a seeded random permutation give
        the same eigenvalues to 1e-12 and, up to sign, the same traces of the
        simple eigenvalues to 1e-10."""
        n = eccentric.stiffness.shape[0]
        ref_lams, ref_vecs = eigs(eccentric, 6)
        assert np.all(np.diff(ref_lams) > 1e-3)  # simple; the closest pair is λ₃, λ₄
        for order in (np.arange(n), np.random.default_rng(7).permutation(n)):
            lams, vecs = eigs(eccentric, 6, order)
            assert abs(lams[0]) < 1e-10
            np.testing.assert_allclose(lams[1:], ref_lams[1:], rtol=1e-12, atol=0.0)
            vecs = vecs * np.sign(np.sum(vecs * ref_vecs, axis=0))
            np.testing.assert_allclose(vecs, ref_vecs, rtol=0.0, atol=1e-10)

    def test_cached_order_is_one_fixed_permutation(self, eccentric):
        """One read-only permutation of the vertices per resolution, equal
        across calls and in a fresh interpreter, so that runs repeat exactly."""
        order = eccentric.mesh.elimination_order
        np.testing.assert_array_equal(np.sort(order), np.arange(eccentric.stiffness.shape[0]))
        assert not order.flags.writeable
        assert build_annular_mesh(annulus(0.2), 32, 4).elimination_order is order
        env = dict(os.environ, PYTHONPATH=str(Path(mesher.__file__).resolve().parents[1]))
        fresh = subprocess.run(
            [sys.executable, "-c", "from steklov_annulus.mesher import _elimination_order;"
             " print(_elimination_order(32, 4).tolist())"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert fresh.strip() == str(order.tolist())

    def test_order_validation(self, eccentric):
        n = eccentric.stiffness.shape[0]
        for order in (np.arange(n - 1), np.r_[0, np.arange(n - 1)]):
            with pytest.raises(ValueError, match="permutation"):
                eigs(eccentric, 3, order)

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
            assert len(factors) == 2
            assert all(ref() is None for ref in factors)
        finally:
            gc.enable()


class TestSolverFailure:
    def test_singular_pencil_raises(self):
        # vertex 2 is not coupled to anything, so K + M_∂ is singular
        k = sp.csr_matrix(np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(EigensolveError):
            steklov_eigs(k, sp.identity(2, format="csr"), [0, 1], 1, np.arange(3))

    def test_no_convergence_raises(self, eccentric, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(linalg, "eigsh", no_convergence)
        with pytest.raises(EigensolveError):
            eigs(eccentric, 3)

    def test_inaccurate_pair_rejected(self, eccentric, monkeypatch):
        real_eigsh = linalg.eigsh

        def perturbed(*args, **kwargs):
            mu, vecs = real_eigsh(*args, **kwargs)
            return mu * (1.0 + 1e-6), vecs

        monkeypatch.setattr(linalg, "eigsh", perturbed)
        with pytest.raises(EigensolveError, match="residual"):
            eigs(eccentric, 3)
