"""Closed-form spectrum of the concentric annulus and the critical radius.

The annulus has outer radius 1 and inner radius ε.  For each angular mode
n ≥ 1 the two Steklov eigenvalue branches are roots of a 2×2 linear system
in the harmonic coefficients (A_n, A_{-n}); the normalized first branch
defines the curve E(ε) = λ₁(ε)·2π(1+ε) whose interior maximum ε₀ is also a
root of a sextic polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI


class AnalyticError(ValueError):
    pass


def _check_eps(eps):
    if not 0.0 < eps < 1.0:
        raise AnalyticError(f"inner radius must lie in (0, 1), got {eps}")


def _check_mode(eps, n, branch):
    _check_eps(eps)
    if n < 1:
        raise AnalyticError(f"mode must be >= 1, got {n}")
    if branch not in ("minus", "plus"):
        raise AnalyticError(f"branch must be 'minus' or 'plus', got {branch!r}")


def steklov_eig(eps: float, n: int, branch: str) -> float:
    """Steklov eigenvalue of mode n on the annulus, lower or upper branch.

    λ_n = (n/2)·P ± (n/2)·√(P² − 4/ε) with P = ((1+ε)/ε)·((1+ε^{2n})/(1−ε^{2n})).
    """
    _check_mode(eps, n, branch)
    e2n = eps ** (2 * n)
    p = ((1.0 + eps) / eps) * ((1.0 + e2n) / (1.0 - e2n))
    root = math.sqrt(p * p - 4.0 / eps)
    if branch == "plus":
        return 0.5 * n * (p + root)
    # conjugate form of (n/2)(p - root): avoids cancellation when p ≫ 1/ε
    return 2.0 * n / (eps * (p + root))


def _coeff_rows(eps, k, beta):
    """The entries p − q·λ of the 2×2 system, linear in λ, as p and q, each
    (row 1 col 1, row 1 col 2, row 2 col 1, row 2 col 2)."""
    return ((beta * k * k + k, beta * k * k - k,
             beta * k * k * eps ** (k - 2) - k * eps ** (k - 1),
             beta * k * k * eps ** (-k - 2) + k * eps ** (-k - 1)),
            (1.0, 1.0, eps ** k, eps ** (-k)))


def _char_poly(p, q):
    """Quadratic aλ² + bλ + c whose roots make the 2×2 system singular."""
    (p11, p12, p21, p22), (q11, q12, q21, q22) = p, q
    a = q11 * q22 - q12 * q21
    b = -(p11 * q22 + p22 * q11) + (p12 * q21 + p21 * q12)
    c = p11 * p22 - p12 * p21
    return a, b, c


@dataclass(frozen=True)
class CoeffPair:
    """Normalized harmonic coefficients of one eigenfunction branch."""

    a_k: float
    a_mk: float
    k: int
    eps: float
    beta: float
    lam: float

    def boundary_norm_sq(self):
        """∫_{∂Ω} g² dσ for g = (A_k r^k + A_{-k} r^{-k})·cos(kθ)."""
        eps, k = self.eps, self.k
        outer = (self.a_k + self.a_mk) ** 2
        inner = eps * (self.a_k * eps ** k + self.a_mk * eps ** (-k)) ** 2
        return math.pi * (outer + inner)


def solve_coeffs(eps: float, k: int, beta: float, branch: str) -> CoeffPair:
    """Eigenvalue branch and unit-boundary-norm null vector of the 2×2 system.

    Raises AnalyticError where the characteristic equation leaves the
    floating-point range (ε^(−k) and its products grow with the mode k).
    """
    _check_mode(eps, k, branch)
    try:
        p, q = _coeff_rows(eps, k, beta)
        a, b, c = _char_poly(p, q)
        disc = b * b - 4.0 * a * c
    except OverflowError:
        disc = math.inf
    if not math.isfinite(disc):  # also catches a coefficient that is not finite
        raise AnalyticError(f"coefficient system of mode {k} at eps={eps} is not finite")
    if abs(a) < 1e-300:
        raise AnalyticError("defective coefficient system (degenerate characteristic equation)")
    if disc < 0:
        raise AnalyticError("defective coefficient system (complex eigenvalues)")
    sq = math.sqrt(disc)
    roots = sorted(((-b - sq) / (2 * a), (-b + sq) / (2 * a)))
    lam = roots[0] if branch == "minus" else roots[1]

    # null vector from the better-conditioned row
    m11, m12, m21, m22 = (p_ij - q_ij * lam for p_ij, q_ij in zip(p, q))
    if max(abs(m11), abs(m12)) >= max(abs(m21), abs(m22)):
        a_k, a_mk = -m12, m11
    else:
        a_k, a_mk = -m22, m21
    if a_k == 0.0 and a_mk == 0.0:
        raise AnalyticError("defective coefficient system (zero null vector)")

    pair = CoeffPair(a_k=a_k, a_mk=a_mk, k=k, eps=eps, beta=beta, lam=lam)
    scale = 1.0 / math.sqrt(pair.boundary_norm_sq())
    sign = 1.0 if a_k + a_mk >= 0 else -1.0
    return CoeffPair(a_k=a_k * scale * sign, a_mk=a_mk * scale * sign,
                     k=k, eps=eps, beta=beta, lam=lam)


def normalized_first(eps):
    """E(ε): first nontrivial eigenvalue times the total perimeter 2π(1+ε).

    The square-root term 1 − √(1−s) is evaluated in its conjugate form
    s/(1 + √(1−s)), which is stable across the whole interval (the direct
    form cancels near both ends).
    """
    _check_eps(eps)
    s = 4.0 * eps * ((1.0 - eps) / (1.0 + eps * eps)) ** 2
    term = s / (1.0 + math.sqrt(1.0 - s))
    return (1.0 + eps * eps) / (2.0 * eps * (1.0 - eps)) * term * TWO_PI * (1.0 + eps)


_CRITICAL_POLY = (1.0, -10.0, 23.0, -12.0, 23.0, -10.0, 1.0)


def critical_poly(eps):
    """ε⁶ − 10ε⁵ + 23ε⁴ − 12ε³ + 23ε² − 10ε + 1 by Horner's rule."""
    return np.polyval(_CRITICAL_POLY, eps)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo, hi, tol):
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class CriticalRadius:
    root: float          # smallest real root of the sextic in (0, 1)
    argmax: float        # golden-section maximizer of E on (0, 1)
    slope_at_root: float  # central-difference dE/dε at the root


def find_eps0() -> CriticalRadius:
    """Locate the critical inner radius ε₀ two independent ways.

    Takes the smallest real root in (0, 1) of the sextic from the
    eigenvalues of its companion matrix (`numpy.roots`) and maximizes E by
    golden section to 1e−10; raises if the two disagree by more than 1e−5.
    (The sextic is palindromic: its real roots come in reciprocal pairs,
    and the second root in (0, 1), near 0.3279, is not a maximizer of E.)
    """
    roots = np.roots(_CRITICAL_POLY)
    root = float(min(r.real for r in roots if r.imag == 0.0 and 0.0 < r.real < 1.0))
    argmax = _golden_max(normalized_first, 1e-3, 1.0 - 1e-3, 1e-10)
    if abs(root - argmax) > 1e-5:
        raise AnalyticError(
            f"polynomial root {root} and E-argmax {argmax} disagree beyond 1e-5")
    h = 1e-6
    slope = (normalized_first(root + h) - normalized_first(root - h)) / (2.0 * h)
    return CriticalRadius(root=root, argmax=argmax, slope_at_root=slope)


def sample_E(eps_values):
    """(ε, E(ε)) rows for curve export."""
    return [(float(e), normalized_first(float(e))) for e in np.asarray(eps_values, dtype=float)]
