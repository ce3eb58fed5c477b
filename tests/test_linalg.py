import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

from steklov_annulus import linalg
from steklov_annulus.fem import assemble, boundary_mass, solve_domain
from steklov_annulus.geometry import INNER, OUTER, AnnularDomain, Circle
from steklov_annulus.linalg import EigensolveError, steklov_eigs
from steklov_annulus.mesher import build_annular_mesh


def annulus(radius, center=(0.0, 0.0)):
    return AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER),
                         inner=Circle(radius=radius, center=center, orientation=INNER))


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
        lams, vecs = steklov_eigs(eccentric.stiffness, eccentric.boundary_mass,
                                  eccentric.boundary_dofs, 6)
        s = dense_dtn(eccentric)
        m = eccentric.boundary_mass.toarray()
        np.testing.assert_allclose(s @ vecs, m @ vecs @ np.diag(lams),
                                   rtol=0.0, atol=1e-10 * np.abs(s).max())


class TestGeneralizedEig:
    def test_determinant_scan_oracle(self, eccentric):
        """Returned eigenvalues are roots of det(S − λM_∂): its sign flips
        across each of them, and S − λM_∂ has exactly j negative eigenvalues
        just above the j-th, so no eigenvalue below is skipped."""
        lams, _ = steklov_eigs(eccentric.stiffness, eccentric.boundary_mass,
                               eccentric.boundary_dofs, 6)
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
        lams, vecs = steklov_eigs(eccentric.stiffness, eccentric.boundary_mass,
                                  eccentric.boundary_dofs, 6)
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
        lams, _ = steklov_eigs(eccentric.stiffness, eccentric.boundary_mass,
                               eccentric.boundary_dofs, nb - 1)
        np.testing.assert_allclose(lams[1:], dense_reference(eccentric)[1:nb - 1], rtol=1e-10)

    def test_count_validation(self, eccentric):
        nb = len(eccentric.boundary_dofs)
        for count in (0, nb):
            with pytest.raises(ValueError):
                steklov_eigs(eccentric.stiffness, eccentric.boundary_mass,
                             eccentric.boundary_dofs, count)


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
            steklov_eigs(eccentric.stiffness, eccentric.boundary_mass,
                         eccentric.boundary_dofs, 3)

    def test_inaccurate_pair_rejected(self, eccentric, monkeypatch):
        real_eigsh = linalg.eigsh

        def perturbed(*args, **kwargs):
            mu, vecs = real_eigsh(*args, **kwargs)
            return mu * (1.0 + 1e-6), vecs

        monkeypatch.setattr(linalg, "eigsh", perturbed)
        with pytest.raises(EigensolveError, match="residual"):
            steklov_eigs(eccentric.stiffness, eccentric.boundary_mass,
                         eccentric.boundary_dofs, 3)
