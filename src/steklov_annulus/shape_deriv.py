"""Shape-derivative matrices for eigenvalue branches and their validation.

For a multiple eigenvalue the branch derivatives under a normal field V_n
are the eigenvalues of the matrix of the boundary integrand
V_n(∇_τu_j·∇_τu_k − ∂_nu_j∂_nu_k − λHu_ju_k) over the eigenspace.  On a
circle, for a (cos θ, sin θ) pair, it is one 2×2 form in two coefficients
(t, n) and exact trigonometric integrals of the band-limited field, so the
matrices here are quadrature-free.  So is the perimeter term ∫H·V_n dσ of
the normalized derivative, which is defined on circles only.  A
finite-difference oracle re-solves the FEM problem on perturbed domains to
validate signs and magnitudes.

Orientation convention, fixed against the finite-difference oracle: V_n is
the component of the deformation along the *domain outward* normal, so on
the inner boundary V_n = +k shrinks the hole (dε/dt = −k), and the branch
derivatives are the eigenvalues of M_inner + M_outer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .geometry import (INNER, OUTER, TWO_PI, AnnularDomain, BoundaryCurve, Circle,
                       CosinePerturbedCircle, PerturbationField)
from .fem import _loop_entries, _loop_product, solve_domain
from .mesher import radial_grading


class ShapeDerivError(ValueError):
    pass


@dataclass(frozen=True)
class ShapeDerivMatrix:
    entries: np.ndarray  # (m, m) symmetric

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def order(self):
        return self.entries.shape[0]

    def trace(self):
        return float(np.trace(self.entries))


@dataclass(frozen=True)
class AnnulusCoeffs:
    """Inner-circle coefficients (t, n) = (C₂, C₃) of the first eigenvalue pair."""

    c2: float
    c3: float
    lam: float

    @property
    def c1(self):
        """Cross coefficient C₁ = C₃ − C₂."""
        return self.c3 - self.c2


@dataclass(frozen=True)
class NormalizedDerivResult:
    """Eigenvalues of |∂Ω|·M + K(V)·λ·Id (derivatives of λᵢ·|∂Ω_t|)."""

    derivatives: np.ndarray

    def __post_init__(self):
        self.derivatives.setflags(write=False)


def _trig_integrals(field: PerturbationField):
    """Exact ∫V cos²θ dθ, ∫V sin²θ dθ, ∫V sinθcosθ dθ."""
    a2 = field.cos_coeffs[1] if field.n_modes >= 2 else 0.0
    b2 = field.sin_coeffs[1] if field.n_modes >= 2 else 0.0
    cos2 = math.pi * field.radial + 0.5 * math.pi * a2
    sin2 = math.pi * field.radial - 0.5 * math.pi * a2
    sincos = 0.5 * math.pi * b2
    return cos2, sin2, sincos


def _pair_matrix(t: float, n: float, field: PerturbationField) -> ShapeDerivMatrix:
    """Branch-derivative matrix of the pair (f(r)·cosθ, f(r)·sinθ) on one circle.

    The integrand times dσ is V_n·(t·sin²θ + n·cos²θ)·dθ for j = k = 1,
    V_n·(t·cos²θ + n·sin²θ)·dθ for j = k = 2 and V_n·(n − t)·sinθcosθ·dθ
    off the diagonal: t is the tangential, n the normal and curvature term.
    """
    cos2, sin2, sincos = _trig_integrals(field)
    return ShapeDerivMatrix(entries=np.array([
        [t * sin2 + n * cos2, (n - t) * sincos],
        [(n - t) * sincos, n * sin2 + t * cos2],
    ]))


def _circle_coeffs(pair: analytic.CoeffPair, r: float, curvature: float):
    """(t, n) of `_pair_matrix` on the circle of radius r and curvature H.

    With f(r) = A·r + A₋/r, q = f(r) and p = f′(r): dσ = r·dθ,
    |∇_τu| = |∂_θu|/r and |∂_nu| = |∂_ru|, so t = q²/r and
    n = −r·(p² + λ·H·q²).
    """
    q = pair.a_k * r + pair.a_mk / r
    p = pair.a_k - pair.a_mk / r ** 2
    return q * q / r, -r * (p * p + pair.lam * curvature * q * q)


def ball_matrix(dim: int, radius: float, beta: float,
                field: PerturbationField) -> ShapeDerivMatrix:
    """Branch-derivative matrix of the first multiple eigenvalue on a ball.

    Only the planar disk (dim = 2) of radius R with Wentzell parameter β is
    supported: t = (1 − β/R)/(2πR²) and n = t − 3/(2πR²).
    """
    if dim != 2:
        raise ShapeDerivError(f"only the planar ball is supported, got dimension {dim}")
    t = (1.0 - beta / radius) / (TWO_PI * radius ** 2)
    return _pair_matrix(t, t - 3.0 / (TWO_PI * radius ** 2), field)


def annulus_coeffs(eps: float) -> AnnulusCoeffs:
    """Inner-circle coefficients of the lower first-mode branch (β = 0)."""
    pair = analytic.solve_coeffs(eps, 1, 0.0, "minus")
    c2, c3 = _circle_coeffs(pair, eps, -1.0 / eps)
    return AnnulusCoeffs(c2=c2, c3=c3, lam=pair.lam)


def annulus_matrices(eps: float, field_inner: PerturbationField,
                     field_outer: PerturbationField):
    """Inner- and outer-boundary branch-derivative matrices (M, M̃).

    The inner circle has r = ε and H = −1/ε, the outer one r = 1 and H = 1.
    The branch derivatives of the double first eigenvalue are the
    eigenvalues of M + M̃ (orientation validated by the finite-difference
    oracle).
    """
    if not 0.0 < eps < 1.0:
        raise ShapeDerivError(f"inner radius must lie in (0, 1), got {eps}")
    if field_inner.target != INNER or field_outer.target != OUTER:
        raise ShapeDerivError("field targets must be (inner, outer)")
    pair = analytic.solve_coeffs(eps, 1, 0.0, "minus")
    return (_pair_matrix(*_circle_coeffs(pair, eps, -1.0 / eps), field_inner),
            _pair_matrix(*_circle_coeffs(pair, 1.0, 1.0), field_outer))


def split_radial(eps: float, field: PerturbationField):
    """Split the inner-boundary matrix into radial and length-preserving parts.

    M_R comes from the constant part alone and is the scalar matrix
    π(C₂+C₃)·ω_r·Id; M_NR comes from the mean-zero part and is trace-free.
    """
    if field.target != INNER:
        raise ShapeDerivError("split_radial expects an inner-boundary field")
    coeffs = annulus_coeffs(eps)
    radial_only = PerturbationField(radial=field.radial, target=INNER)
    osc_only = PerturbationField(radial=0.0, cos_coeffs=field.cos_coeffs,
                                 sin_coeffs=field.sin_coeffs, target=INNER)
    return (_pair_matrix(coeffs.c2, coeffs.c3, radial_only),
            _pair_matrix(coeffs.c2, coeffs.c3, osc_only))


def perimeter_derivative(curve: BoundaryCurve, field: PerturbationField) -> float:
    """First-order perimeter variation ∫ H·V_n dσ on one circle, exactly.

    On a circle H·dσ = ±dθ (+ on an outer, − on an inner circle, whatever
    the centre and radius), and the oscillatory modes of V_n have zero mean,
    so the integral is ±2π·ω_r.  A concentric inner circle with V_n = k
    gives −2πk: the hole of radius ε − tk loses perimeter at rate 2πk.
    Any other curve raises ``ShapeDerivError``.
    """
    if not isinstance(curve, Circle):
        raise ShapeDerivError(
            f"perimeter derivative is defined for circles only, got {type(curve).__name__}")
    return (TWO_PI if curve.orientation == OUTER else -TWO_PI) * field.radial


def normalized_derivative(matrix: ShapeDerivMatrix, perimeter: float,
                          perimeter_deriv: float, lam: float) -> NormalizedDerivResult:
    """Derivatives of the branches of λ·|∂Ω_t|: eig(|∂Ω|·M + K·λ·Id)."""
    shifted = perimeter * matrix.entries + perimeter_deriv * lam * np.eye(matrix.order)
    return NormalizedDerivResult(derivatives=np.linalg.eigvalsh(shifted))


@dataclass(frozen=True)
class BranchDerivatives:
    """Central-difference branch derivatives from the FEM oracle."""

    eigenvalue_derivs: np.ndarray     # ascending
    normalized_derivs: np.ndarray     # d(λᵢ·|∂Ω_t|)/dt, same branch order

    def __post_init__(self):
        self.eigenvalue_derivs.setflags(write=False)
        self.normalized_derivs.setflags(write=False)


def _perturbed_inner(curve: Circle, field: PerturbationField, t: float) -> BoundaryCurve:
    """Inner circle moved by t·V_n along the domain outward normal.

    The outward normal on the inner boundary points toward the hole center,
    so the polar graph becomes r(θ) = ε − t·V_n(θ).  Only fields with at
    most one cosine mode map back onto the supported curve kinds.
    """
    radius = curve.radius - t * field.radial
    active = [(m + 1, cm) for m, cm in enumerate(field.cos_coeffs) if cm != 0.0]
    if any(sm != 0.0 for sm in field.sin_coeffs) or len(active) > 1:
        raise ShapeDerivError(
            "finite-difference oracle supports fields with a single cosine mode")
    if not active:
        return Circle(center=curve.center, orientation=INNER, radius=radius)
    mode, amp = active[0]
    return CosinePerturbedCircle(center=curve.center, orientation=INNER,
                                 a=-t * amp, k=mode, b=radius)


def fd_branch_oracle(domain: AnnularDomain, field: PerturbationField, step: float,
                     n_theta: int = 256, n_radial: int = 24,
                     grading: float = 1.0) -> BranchDerivatives:
    """Central differences of the two nontrivial eigenvalue branches.

    Solves the FEM problem on domains displaced by ±step along the field,
    matches branches by boundary-trace overlap (sorted order fails when the
    split branches cross t = 0), and differences both λᵢ and λᵢ·|∂Ω_t|.
    A pairing whose weaker overlap is below 0.9 counts as ambiguous.  A
    step that is zero or not finite is refused before any solve.
    """
    if not (math.isfinite(step) and step != 0.0):
        raise ShapeDerivError(f"step must be finite and nonzero, got {step}")
    if field.target != INNER:
        raise ShapeDerivError("finite-difference oracle supports inner-boundary fields only")
    if not isinstance(domain.inner, Circle):
        raise ShapeDerivError("finite-difference oracle needs a circular inner boundary")

    def solve_at(t):
        inner = _perturbed_inner(domain.inner, field, t)
        moved = AnnularDomain(outer=domain.outer, inner=inner)
        spec = solve_domain(moved, n_theta, n_radial, count=3, grading=grading)
        return spec, moved.perimeter()

    plus, per_plus = solve_at(step)
    minus, per_minus = solve_at(-step)

    # overlap in the boundary L² inner product of the +step mesh; the meshes
    # share topology and differ by O(step)
    vp = plus.boundary_vectors[:, 1:3]
    vm = minus.boundary_vectors[:, 1:3]
    diagonal, edge = _loop_entries(plus.mesh).reshape(2, 2, -1)
    overlap = np.abs(vp.T @ np.column_stack([_loop_product(diagonal, edge, column)
                                             for column in vm.T]))
    perm = overlap.argmax(axis=1)

    lam_p = plus.eigenvalues[1:3]
    lam_m = minus.eigenvalues[1:3]
    if perm[0] == perm[1] or overlap.max(axis=1).min() < 0.9:
        gap_p = abs(lam_p[1] - lam_p[0]) / max(abs(lam_p[0]), 1e-300)
        gap_m = abs(lam_m[1] - lam_m[0]) / max(abs(lam_m[0]), 1e-300)
        if gap_p < 1e-6 and gap_m < 1e-6:
            perm = np.array([0, 1])  # degenerate at both ends: any pairing works
        else:
            raise ShapeDerivError(
                f"branch matching ambiguous (min overlap {overlap.max(axis=1).min():.3f})")

    d_lam = (lam_p - lam_m[perm]) / (2.0 * step)
    d_norm = (lam_p * per_plus - lam_m[perm] * per_minus) / (2.0 * step)
    order = np.argsort(d_lam)
    return BranchDerivatives(eigenvalue_derivs=d_lam[order],
                             normalized_derivs=d_norm[order])


def consistency_triangle(eps: float, n_theta: int = 256, n_radial: int = 24) -> dict:
    """Three routes to the radial derivative of λ₁·|∂Ω_t| at a concentric annulus.

    Route 1: central difference of the closed-form curve E (scaled by
    dε/dt = −1 for unit inward radial transport).  Route 2: the matrix
    formula |∂Ω|·M + K·λ·Id on the radial field.  Route 3: the FEM
    finite-difference oracle with step 1e-3.  Returns all three plus
    pairwise relative mismatches.
    """
    h = 1e-7
    analytic_route = -(analytic.normalized_first(eps + h)
                       - analytic.normalized_first(eps - h)) / (2.0 * h)

    field = PerturbationField(radial=1.0, target=INNER)
    coeffs = annulus_coeffs(eps)
    m, _ = annulus_matrices(eps, field, PerturbationField(target=OUTER))
    perimeter = TWO_PI * (1.0 + eps)
    k_v = perimeter_derivative(Circle(radius=eps, orientation=INNER), field)
    matrix_route = float(normalized_derivative(m, perimeter, k_v, coeffs.lam)
                         .derivatives[0])

    domain = AnnularDomain(outer=Circle(orientation=OUTER, radius=1.0),
                           inner=Circle(orientation=INNER, radius=eps))
    fd = fd_branch_oracle(domain, field, 1e-3, n_theta=n_theta,
                          n_radial=n_radial, grading=radial_grading(eps))
    fd_route = float(np.mean(fd.normalized_derivs))

    scale = max(abs(analytic_route), abs(matrix_route), abs(fd_route), 1e-300)
    return {
        "eps": eps,
        "analytic": analytic_route,
        "matrix": matrix_route,
        "fd": fd_route,
        "rel_analytic_matrix": abs(analytic_route - matrix_route) / scale,
        "rel_analytic_fd": abs(analytic_route - fd_route) / scale,
        "rel_matrix_fd": abs(matrix_route - fd_route) / scale,
    }
