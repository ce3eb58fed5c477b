import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_annulus import analytic
from steklov_annulus.geometry import (INNER, OUTER, AnnularDomain, BoundaryCurve,
                                      Circle, CosinePerturbedCircle,
                                      PerturbationField)
from steklov_annulus.shape_deriv import (ShapeDerivError, _trig_integrals,
                                         annulus_coeffs, annulus_matrices,
                                         ball_matrix, fd_branch_oracle,
                                         normalized_derivative,
                                         perimeter_derivative, split_radial)

TWO_PI = 2.0 * math.pi


def trapezoid_perimeter_derivative(curve, field, n_quad=4096):
    """∫ H·V_n dσ by the periodic trapezoid rule on the parametrisation."""
    theta = TWO_PI * np.arange(n_quad) / n_quad
    speed = np.linalg.norm(curve.tangent_at(theta), axis=-1)
    return float(np.sum(curve.curvature_at(theta) * field(theta) * speed) * TWO_PI / n_quad)


def trapezoid_pair_matrix(eps, field, circle, n_quad=64):
    """∫ r·V·(τ_jτ_k − ν_jν_k − λ·H·u_ju_k) dθ by the periodic trapezoid rule
    for the pair u = f(r)·(cos θ, sin θ), f(r) = A·r + A₋/r, on the inner
    (r = ε, ∂_n = −∂_r, H = −1/ε) or the outer (r = 1, ∂_n = ∂_r, H = 1)
    circle.  Exact for fields of fewer than n_quad − 2 modes."""
    pair = analytic.solve_coeffs(eps, 1, 0.0, "minus")
    r, sign, curv = (eps, -1.0, -1.0 / eps) if circle == INNER else (1.0, 1.0, 1.0)
    theta = TWO_PI * np.arange(n_quad) / n_quad
    f = pair.a_k * r + pair.a_mk / r
    df = pair.a_k - pair.a_mk / r ** 2
    u = f * np.array([np.cos(theta), np.sin(theta)])
    tau = (f / r) * np.array([-np.sin(theta), np.cos(theta)])  # ∂_θu / r
    nu = sign * df * np.array([np.cos(theta), np.sin(theta)])
    weight = r * field(theta) * TWO_PI / n_quad

    def gram(a, b):
        return np.einsum("q,jq,kq->jk", weight, a, b)

    return gram(tau, tau) - gram(nu, nu) - pair.lam * curv * gram(u, u)


def concentric(eps):
    return AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER),
                         inner=Circle(radius=eps, orientation=INNER))


class TestTrigIntegrals:
    def test_against_quadrature(self):
        field = PerturbationField(radial=0.4, cos_coeffs=(0.2, -0.7, 0.1),
                                  sin_coeffs=(0.5, 0.3, -0.2), target=INNER)
        theta = np.linspace(0, TWO_PI, 200001)
        v = field(theta)
        cos2, sin2, sincos = _trig_integrals(field)
        assert cos2 == pytest.approx(np.trapezoid(v * np.cos(theta) ** 2, theta), abs=1e-8)
        assert sin2 == pytest.approx(np.trapezoid(v * np.sin(theta) ** 2, theta), abs=1e-8)
        assert sincos == pytest.approx(
            np.trapezoid(v * np.sin(theta) * np.cos(theta), theta), abs=1e-8)


class TestBallMatrix:
    def test_zero_trace_for_length_preserving_fields(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            c = rng.standard_normal(4)
            s = rng.standard_normal(4)
            field = PerturbationField(radial=0.0, cos_coeffs=tuple(c),
                                      sin_coeffs=tuple(s), target=OUTER)
            m = ball_matrix(2, 1.0, 0.0, field)
            assert abs(m.trace()) < 1e-12

    def test_vanishes_without_degree_two_harmonics(self):
        field = PerturbationField(radial=0.0, cos_coeffs=(0.3, 0.0, -0.2),
                                  sin_coeffs=(0.1, 0.0, 0.4), target=OUTER)
        m = ball_matrix(2, 1.0, 0.5, field)
        np.testing.assert_allclose(m.entries, 0.0, atol=1e-14)

    def test_degree_two_harmonics_split_branches(self):
        field = PerturbationField(radial=0.0, cos_coeffs=(0.0, 0.3),
                                  sin_coeffs=(0.0, 0.0), target=OUTER)
        eig = np.linalg.eigvalsh(ball_matrix(2, 1.0, 0.0, field).entries)
        assert eig[0] == pytest.approx(-eig[1], abs=1e-14)
        assert eig[1] > 0

    def test_radius_scaling(self):
        field = PerturbationField(radial=0.0, cos_coeffs=(0.0, 1.0),
                                  sin_coeffs=(0.0, 0.0), target=OUTER)
        e1 = np.linalg.eigvalsh(ball_matrix(2, 1.0, 0.0, field).entries)
        e2 = np.linalg.eigvalsh(ball_matrix(2, 2.0, 0.0, field).entries)
        np.testing.assert_allclose(e2, e1 / 4.0, rtol=1e-12)

    def test_only_planar_supported(self):
        with pytest.raises(ShapeDerivError):
            ball_matrix(3, 1.0, 0.0, PerturbationField(target=OUTER))


class TestAnnulusCoefficients:
    @pytest.mark.parametrize("eps", np.linspace(0.05, 0.9, 18))
    def test_c1_identity(self, eps):
        """C₁ is the cross coefficient of the pair: V = sin 2θ on the inner
        circle gives the off-diagonal entry (π/2)·C₁ by the trapezoid rule."""
        coeffs = annulus_coeffs(float(eps))
        field = PerturbationField(radial=0.0, cos_coeffs=(0.0, 0.0), sin_coeffs=(0.0, 1.0),
                                  target=INNER)
        off_diagonal = trapezoid_pair_matrix(float(eps), field, INNER)[0, 1]
        assert abs(coeffs.c1 - off_diagonal / (math.pi / 2)) < 1e-12 * max(
            abs(coeffs.c2), abs(coeffs.c3), 1.0)

    def test_radial_matrix_recovers_curve_slope(self):
        """π(C₂+C₃) equals −dλ₁/dε: unit inward motion of the hole (V_n=1
        shrinks it) changes the eigenvalue at that rate."""
        eps, h = 0.3, 1e-6
        coeffs = annulus_coeffs(eps)
        dlam = (analytic.steklov_eig(eps + h, 1, "minus")
                - analytic.steklov_eig(eps - h, 1, "minus")) / (2 * h)
        assert math.pi * (coeffs.c2 + coeffs.c3) == pytest.approx(-dlam, rel=1e-5)


class TestMatrices:
    def test_radial_inner_matrix_is_scalar(self):
        field = PerturbationField(radial=1.0, target=INNER)
        m, _ = annulus_matrices(0.3, field, PerturbationField(target=OUTER))
        assert m.entries[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert m.entries[0, 0] == pytest.approx(m.entries[1, 1], rel=1e-13)

    def test_split_radial_trace_free_oscillatory_part(self):
        field = PerturbationField(radial=0.7, cos_coeffs=(0.1, 0.4),
                                  sin_coeffs=(0.2, -0.3), target=INNER)
        m_r, m_nr = split_radial(0.25, field)
        assert abs(m_nr.trace()) < 1e-12
        total, _ = split_radial(0.25, field)
        m, _ = annulus_matrices(0.25, field, PerturbationField(target=OUTER))
        np.testing.assert_allclose(m_r.entries + m_nr.entries, m.entries,
                                   rtol=1e-12, atol=1e-14)

    def test_both_circles_match_trapezoid(self):
        """Inner and outer matrices against the integrand summed on 64
        points, over seeded random inner radii and fields."""
        rng = np.random.default_rng(20)
        for _ in range(200):
            eps = float(rng.uniform(0.05, 0.95))
            n_modes = int(rng.integers(0, 5))
            fields = [PerturbationField(radial=float(rng.standard_normal()),
                                        cos_coeffs=tuple(rng.standard_normal(n_modes)),
                                        sin_coeffs=tuple(rng.standard_normal(n_modes)),
                                        target=target) for target in (INNER, OUTER)]
            for matrix, field in zip(annulus_matrices(eps, *fields), fields):
                expected = trapezoid_pair_matrix(eps, field, field.target)
                gap = np.max(np.abs(matrix.entries - expected))
                assert gap <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("eps", [0.3, 0.6])
    def test_radial_outer_matrix_recovers_scaling_slope(self, eps):
        """V_n = 1 on the outer circle grows it to radius R at unit rate, and
        λ₁ of the annulus ε < r < R is λ₁(ε/R)/R, so both eigenvalues of M̃
        equal d/dR of that at R = 1."""
        h = 1e-6
        lam = [analytic.steklov_eig(eps / big_r, 1, "minus") / big_r
               for big_r in (1.0 + h, 1.0 - h)]
        slope = (lam[0] - lam[1]) / (2 * h)
        _, m_out = annulus_matrices(eps, PerturbationField(target=INNER),
                                    PerturbationField(radial=1.0, target=OUTER))
        np.testing.assert_allclose(np.linalg.eigvalsh(m_out.entries), [slope, slope], rtol=1e-6)

    def test_field_target_validation(self):
        with pytest.raises(ShapeDerivError):
            annulus_matrices(0.3, PerturbationField(target=OUTER),
                             PerturbationField(target=OUTER))


class TestPerimeterDerivative:
    def test_inner_circle_radial(self):
        k = perimeter_derivative(Circle(radius=0.3, orientation=INNER),
                                 PerturbationField(radial=1.0, target=INNER))
        assert k == pytest.approx(-TWO_PI, rel=1e-12)

    def test_outer_circle_radial(self):
        k = perimeter_derivative(Circle(radius=2.0, orientation=OUTER),
                                 PerturbationField(radial=1.0, target=OUTER))
        assert k == pytest.approx(TWO_PI, rel=1e-12)

    def test_mean_zero_field_preserves_length_of_circle(self):
        field = PerturbationField(radial=0.0, cos_coeffs=(0.5, 0.2),
                                  sin_coeffs=(0.1, 0.3), target=INNER)
        k = perimeter_derivative(Circle(radius=0.3, orientation=INNER), field)
        assert abs(k) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(radius=st.floats(0.05, 3.0),
           center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           orientation=st.sampled_from([INNER, OUTER]),
           radial=st.floats(-10.0, 10.0),
           modes=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                          max_size=4))
    def test_matches_trapezoid_on_any_circle(self, radius, center, orientation,
                                             radial, modes):
        curve = Circle(center=center, radius=radius, orientation=orientation)
        field = PerturbationField(radial=radial,
                                  cos_coeffs=tuple(a for a, _ in modes),
                                  sin_coeffs=tuple(b for _, b in modes),
                                  target=orientation)
        scale = 1.0 + abs(radial) + sum(abs(a) + abs(b) for a, b in modes)
        assert abs(perimeter_derivative(curve, field)
                   - trapezoid_perimeter_derivative(curve, field)) <= 1e-12 * scale

    @pytest.mark.parametrize("orientation, sign", [(INNER, -1.0), (OUTER, 1.0)])
    def test_exact_value(self, orientation, sign):
        field = PerturbationField(radial=1.3, cos_coeffs=(0.5, 0.2, 0.7),
                                  sin_coeffs=(0.1, 0.3, -0.2), target=orientation)
        curve = Circle(center=(0.2, -0.4), radius=0.3, orientation=orientation)
        assert perimeter_derivative(curve, field) == sign * TWO_PI * 1.3

    def test_non_circle_rejected(self):
        curve = CosinePerturbedCircle(orientation=INNER, a=0.05, k=3, b=0.3)
        with pytest.raises(ShapeDerivError):
            perimeter_derivative(curve, PerturbationField(radial=1.0, target=INNER))

    def test_samples_no_curve_geometry(self, monkeypatch):
        def refuse(self, theta):
            raise AssertionError("perimeter_derivative sampled the curve")

        monkeypatch.setattr(BoundaryCurve, "curvature_at", refuse)
        monkeypatch.setattr(BoundaryCurve, "tangent_at", refuse)
        k = perimeter_derivative(Circle(radius=0.3, orientation=INNER),
                                 PerturbationField(radial=1.0, target=INNER))
        assert k == -TWO_PI


class TestFiniteDifferenceOracle:
    def test_radial_matches_matrix_route(self):
        eps = 0.3
        field = PerturbationField(radial=1.0, target=INNER)
        fd = fd_branch_oracle(concentric(eps), field, 1e-3,
                              n_theta=192, n_radial=20)
        m, _ = annulus_matrices(eps, field, PerturbationField(target=OUTER))
        expected = np.linalg.eigvalsh(m.entries)
        np.testing.assert_allclose(fd.eigenvalue_derivs, expected, rtol=5e-3)

    def test_cos2_field_splits_branches(self):
        eps = 0.3
        field = PerturbationField(radial=0.0, cos_coeffs=(0.0, 1.0),
                                  sin_coeffs=(0.0, 0.0), target=INNER)
        fd = fd_branch_oracle(concentric(eps), field, 1e-3,
                              n_theta=192, n_radial=20)
        m, _ = annulus_matrices(eps, field, PerturbationField(target=OUTER))
        expected = np.linalg.eigvalsh(m.entries)
        assert expected[0] < 0 < expected[1]
        np.testing.assert_allclose(fd.eigenvalue_derivs, expected, rtol=2e-2)

    def test_normalized_derivatives_match_shifted_matrix(self):
        eps = 0.3
        field = PerturbationField(radial=1.0, target=INNER)
        fd = fd_branch_oracle(concentric(eps), field, 1e-3,
                              n_theta=192, n_radial=20)
        coeffs = annulus_coeffs(eps)
        m, _ = annulus_matrices(eps, field, PerturbationField(target=OUTER))
        k_v = perimeter_derivative(Circle(radius=eps, orientation=INNER), field)
        res = normalized_derivative(m, TWO_PI * (1 + eps), k_v, coeffs.lam)
        np.testing.assert_allclose(fd.normalized_derivs, res.derivatives, rtol=5e-3)

    def test_rejects_unsupported_fields(self):
        with pytest.raises(ShapeDerivError):
            fd_branch_oracle(concentric(0.3),
                             PerturbationField(radial=1.0, target=OUTER), 1e-3)
        with pytest.raises(ShapeDerivError):
            fd_branch_oracle(concentric(0.3),
                             PerturbationField(radial=0.0, cos_coeffs=(0.0,),
                                               sin_coeffs=(0.5,), target=INNER), 1e-3)

    @pytest.mark.parametrize("step", [0.0, -0.0, float("inf"), -float("inf"), float("nan")])
    def test_rejects_degenerate_step(self, step):
        """A zero step would divide 0 by 0 into NaN derivatives, and an
        infinite one would surface as a misleading circle-radius error."""
        with pytest.raises(ShapeDerivError, match="step"):
            fd_branch_oracle(concentric(0.3), PerturbationField(radial=1.0, target=INNER),
                             step, n_theta=32, n_radial=4)


class TestStationarity:
    def test_normalized_derivative_vanishes_at_critical_radius(self):
        eps0 = analytic.find_eps0().root
        field = PerturbationField(radial=1.0, target=INNER)
        coeffs = annulus_coeffs(eps0)
        m, _ = annulus_matrices(eps0, field, PerturbationField(target=OUTER))
        k_v = perimeter_derivative(Circle(radius=eps0, orientation=INNER), field)
        res = normalized_derivative(m, TWO_PI * (1 + eps0), k_v, coeffs.lam)
        np.testing.assert_allclose(res.derivatives, 0.0, atol=1e-8)
