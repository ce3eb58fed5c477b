"""Parametric boundary curves for annular domains.

Curves are star-shaped polar graphs r(θ) around a center: plain circles and
cosine-perturbed circles r(θ) = a·cos(kθ) + b.  Each curve carries an
orientation flag saying on which side the computational domain lies, which
fixes the sign of the outward normal and of the mean curvature H:
H = +1/R on an outer circle of radius R, H = -1/ε on a concentric inner
circle of radius ε.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

OUTER = "outer"
INNER = "inner"


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class BoundaryCurve:
    """Closed planar curve r(θ) around ``center``, θ ∈ [0, 2π).

    orientation is "outer" (domain inside the curve) or "inner" (domain
    outside the curve, i.e. the curve bounds a hole).
    """

    center: tuple[float, float] = (0.0, 0.0)
    orientation: str = OUTER

    def __post_init__(self):
        if self.orientation not in (OUTER, INNER):
            raise GeometryError(f"orientation must be 'outer' or 'inner', got {self.orientation!r}")

    # polar graph and its θ-derivatives; subclasses override
    def _r(self, theta):
        raise NotImplementedError

    def _dr(self, theta):
        raise NotImplementedError

    def _ddr(self, theta):
        raise NotImplementedError

    def point_at(self, theta):
        """Point on the curve; θ is wrapped mod 2π.  Accepts scalars or arrays."""
        theta = np.mod(theta, TWO_PI)
        r = self._r(theta)
        return np.stack([self.center[0] + r * np.cos(theta),
                         self.center[1] + r * np.sin(theta)], axis=-1)

    def tangent_at(self, theta):
        """Velocity dP/dθ (not normalized)."""
        theta = np.mod(theta, TWO_PI)
        r, dr = self._r(theta), self._dr(theta)
        c, s = np.cos(theta), np.sin(theta)
        return np.stack([dr * c - r * s, dr * s + r * c], axis=-1)

    def curvature_at(self, theta):
        """Mean curvature H with the signed-distance sign convention.

        Positive on a convex outer boundary, negative on a convex inner
        boundary (H is the Laplacian of the oriented distance function).
        """
        theta = np.mod(theta, TWO_PI)
        r, dr, ddr = self._r(theta), self._dr(theta), self._ddr(theta)
        speed2 = r * r + dr * dr
        if np.any(speed2 < 1e-28):
            raise GeometryError("degenerate tangent (zero velocity)")
        kappa = (r * r + 2.0 * dr * dr - r * ddr) / speed2 ** 1.5
        return kappa if self.orientation == OUTER else -kappa

    def arc_length(self):
        """Arc length ∫√(r² + r'²) dθ by the periodic trapezoid rule, which
        converges spectrally on this smooth periodic integrand; the points are
        doubled from 16 to a relative change of 1e-12 between doublings."""
        def trapezoid(points):
            # the grid is turned by an irrational fraction of a step: every
            # point of the unturned 16- and 32-point grids sees the same
            # r = a·cos(32θ) + b, which would pass for convergence
            theta = TWO_PI * (np.arange(points) + np.sqrt(0.5)) / points
            r, dr = self._r(theta), self._dr(theta)
            return TWO_PI / points * np.sum(np.sqrt(r * r + dr * dr))

        points = 16
        prev = trapezoid(points)
        for _ in range(20):
            points *= 2
            cur = trapezoid(points)
            if abs(cur - prev) <= 1e-12 * abs(cur):
                return cur
            prev = cur
        raise GeometryError("arc_length did not converge")


@dataclass(frozen=True)
class Circle(BoundaryCurve):
    radius: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.radius <= 0:
            raise GeometryError(f"radius must be positive, got {self.radius}")

    def _r(self, theta):
        return np.full_like(np.asarray(theta, dtype=float), self.radius)

    def _dr(self, theta):
        return np.zeros_like(np.asarray(theta, dtype=float))

    _ddr = _dr

    def arc_length(self):
        return TWO_PI * self.radius


@dataclass(frozen=True)
class CosinePerturbedCircle(BoundaryCurve):
    """Polar graph r(θ) = a·cos(kθ) + b."""

    a: float = 0.0
    k: int = 1
    b: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.k < 1 or self.k != int(self.k):
            raise GeometryError(f"frequency k must be a positive integer, got {self.k}")
        if self.b - abs(self.a) <= 0:
            raise GeometryError(f"need b - |a| > 0 for a positive-radius graph (a={self.a}, b={self.b})")

    def _r(self, theta):
        return self.a * np.cos(self.k * theta) + self.b

    def _dr(self, theta):
        return -self.a * self.k * np.sin(self.k * theta)

    def _ddr(self, theta):
        return -self.a * self.k * self.k * np.cos(self.k * theta)


def amplitude_for_perimeter(k, eps, b):
    """Positive amplitude a of r = a·cos(kθ) + b with surrogate
    ∫₀^{2π} (r² + r′²) dθ = π·a²·(1 + k²) + 2π·b² equal to 2πε.

    The surrogate is *not* the true arc length ∫√(r² + r′²) dθ; the two
    agree only in the circle limit a = 0.
    """
    disc = 2.0 * (eps - b * b) / (1.0 + k * k)
    if disc < 0:
        raise GeometryError(f"no real amplitude: need eps >= b^2 (eps={eps}, b={b})")
    return math.sqrt(disc)


@dataclass(frozen=True)
class AnnularDomain:
    """Region between an outer and an inner boundary curve."""

    outer: BoundaryCurve
    inner: BoundaryCurve

    def __post_init__(self):
        if self.outer.orientation != OUTER:
            raise GeometryError("outer curve must have 'outer' orientation")
        if self.inner.orientation != INNER:
            raise GeometryError("inner curve must have 'inner' orientation")
        if self.gap() <= 0:
            raise GeometryError("inner curve does not lie strictly inside the outer curve")

    def gap(self):
        """Minimum radial clearance of 720 inner-curve points to the outer curve."""
        theta = TWO_PI * np.arange(720) / 720
        pts = self.inner.point_at(theta)
        rel = pts - np.asarray(self.outer.center)
        rho = np.linalg.norm(rel, axis=-1)
        phi = np.arctan2(rel[:, 1], rel[:, 0])
        return float(np.min(self.outer._r(np.mod(phi, TWO_PI)) - rho))

    def perimeter(self):
        return self.outer.arc_length() + self.inner.arc_length()


@dataclass(frozen=True)
class PerturbationField:
    """Band-limited normal perturbation field V_n(θ) = ω_r + ω_l(θ).

    ω_r is the constant (radial) part; ω_l is a mean-zero finite Fourier
    series stored as cosine/sine coefficient tuples for modes 1..M.  The
    field is measured along the domain's outward normal on the target
    boundary.
    """

    radial: float = 0.0
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()
    target: str = INNER

    def __post_init__(self):
        if self.target not in (INNER, OUTER):
            raise GeometryError(f"target must be 'inner' or 'outer', got {self.target!r}")
        if len(self.cos_coeffs) != len(self.sin_coeffs):
            raise GeometryError("cos_coeffs and sin_coeffs must have equal length")

    @property
    def n_modes(self):
        return len(self.cos_coeffs)

    def oscillatory_at(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        for m, (cm, sm) in enumerate(zip(self.cos_coeffs, self.sin_coeffs), start=1):
            out += cm * np.cos(m * theta) + sm * np.sin(m * theta)
        return out

    def __call__(self, theta):
        return self.radial + self.oscillatory_at(theta)
