"""Geometry of the two-dimensional Minkowski plane.

Causal order, Lorentz distance, light-cone coordinates, the Penrose
compactification onto the closed square [-pi, pi]^2, and the deformed
order that replaces forward light cones with forward hyperbolae of a
given mass scale, extended to the compactification boundary by the
product order.
"""

from __future__ import annotations

import math

import numpy as np

from .hermitian import _Frozen, _scalar_map

PI = math.pi


class Event(_Frozen):
    """Point of the Minkowski plane in Cartesian coordinates (time, space)."""

    __slots__ = ("x0", "x1")

    def __init__(self, x0: float, x1: float):
        self._set(x0, x1)

    @property
    def u(self) -> float:
        return self.x0 + self.x1

    @property
    def v(self) -> float:
        return self.x0 - self.x1

    @classmethod
    def from_lightcone(cls, u: float, v: float) -> "Event":
        return cls((u + v) / 2.0, (u - v) / 2.0)


class PenrosePoint(_Frozen):
    """Point of the compactified plane; |mu| = pi or |nu| = pi is the boundary."""

    __slots__ = ("mu", "nu")

    def __init__(self, mu: float, nu: float):
        if not (abs(mu) <= PI and abs(nu) <= PI):
            raise ValueError("penrose coordinates must lie in [-pi, pi]")
        self._set(mu, nu)

    @property
    def is_boundary(self) -> bool:
        return abs(self.mu) == PI or abs(self.nu) == PI


def causal_leq(x: Event, y: Event) -> bool:
    """Causal order: the product order on light-cone coordinates, each of
    y's allowed below x's by the band ``1e-12 * max(1, |x's|)``, since
    coordinates rebuilt from Cartesian ones lose an ulp on x's light rays."""
    xu, xv = x.u, x.v
    return y.u >= xu - _band(xu) and y.v >= xv - _band(xv)


def lorentz_distance(x: Event, y: Event) -> float:
    """Proper time from x to y along the straight line; 0 when not causal."""
    if not causal_leq(x, y):
        return 0.0
    return math.sqrt(max(0.0, (y.u - x.u) * (y.v - x.v)))


def penrose_map(x: Event) -> PenrosePoint:
    """Compactification (u, v) -> (2 atan u, 2 atan v)."""
    return PenrosePoint(2.0 * math.atan(x.u), 2.0 * math.atan(x.v))


def penrose_inverse(p: PenrosePoint) -> Event:
    """Inverse of the compactification; defined on interior points only."""
    if p.is_boundary:
        raise ValueError("boundary points have no preimage in the plane")
    return Event.from_lightcone(math.tan(p.mu / 2.0), math.tan(p.nu / 2.0))


def _check_mass(lam: float) -> float:
    lam = float(lam)
    if lam < 0.0:
        raise ValueError("mass scale must be non-negative")
    return lam


def _band(scale: float) -> float:
    # Relative knife-edge band: tan/atan roundtrips and Cartesian
    # rebuilds perturb exact equality cases by a few ulps.
    return 1e-12 * max(1.0, abs(scale))


def _hyperbola_eps(lam: float) -> float:
    return _band(lam * lam)


def _hyperbola(du, dv, lam: float):
    """Forward-hyperbola test on light-cone displacements, floats or arrays:
    both non-negative and their product at least lam^2, less the band."""
    return (du >= 0.0) & (dv >= 0.0) & (du * dv >= lam * lam - _hyperbola_eps(lam))


def lambda_leq(p: PenrosePoint, q: PenrosePoint, lam: float) -> bool:
    """Deformed order on the compactified plane (canonical form).

    Interior pairs are related when both light-cone displacements are
    non-negative and their product reaches lam^2 (equal points are
    related for every lam).  As soon as either point sits on the
    boundary, the product order on (mu, nu) applies instead.
    """
    lam = _check_mass(lam)
    if p == q:
        return True
    if p.is_boundary or q.is_boundary:
        return q.mu >= p.mu and q.nu >= p.nu
    du = math.tan(q.mu / 2.0) - math.tan(p.mu / 2.0)
    dv = math.tan(q.nu / 2.0) - math.tan(p.nu / 2.0)
    return _hyperbola(du, dv, lam)


def causal_row_starts(p: PenrosePoint, centers: np.ndarray) -> np.ndarray:
    """The causal future of ``penrose_inverse(p)`` over the square grid of
    increasing ``centers``: row ``i`` is related from column ``starts[i]``
    on (``len(centers)`` when none is).

    ``tan(./2)`` is increasing, so the future is exactly the quadrant
    ``mu >= p.mu, nu >= p.nu``; no light-cone coordinate is computed.
    """
    return np.where(centers >= p.mu, np.searchsorted(centers, p.nu), len(centers))


def lambda_row_starts(p: PenrosePoint, centers: np.ndarray, lam: float) -> np.ndarray:
    """``lambda_leq(p, q, lam)`` for interior ``q != p`` over the square grid
    of increasing interior ``centers``, for an interior ``p``, as the first
    related column of each row (``len(centers)`` when none is).

    The related cells of a row are a suffix, and the starts never increase
    down the rows: ``math.tan`` is increasing, and a float difference with a
    fixed value, or a product with a fixed factor ``>= 0``, keeps order.  So
    one bisection over the columns, vectorised across rows, finds every start
    in ``r.bit_length()`` passes of ``_hyperbola`` on a column each.  ``lam``
    is a checked mass scale (``lambda`` of a loaded config).
    """
    tans = _scalar_map(math.tan, centers / 2.0)  # math.tan per coordinate, as lambda_leq
    du, dv = (tans - math.tan(x / 2.0) for x in (p.mu, p.nu))
    r = len(centers)
    starts = np.zeros(r, dtype=np.intp)  # every column before starts[i] is unrelated
    for k in reversed(range(r.bit_length())):
        ahead = np.minimum(starts + (1 << k), r)
        starts = np.where(_hyperbola(du, dv[ahead - 1], lam), starts, ahead)
    return starts


def lambda_closedness_probe(p: PenrosePoint, lam: float) -> float:
    """Radius of a punctured (mu, nu)-ball around p free of comparable points.

    Exists for every positive mass scale because comparability forces a
    Lorentz separation of at least lam while displacements shrink
    linearly with the ball radius.  The returned radius is verified on
    24 rings of 180 points in the punctured ball; it is non-decreasing in
    lam at a fixed base point.
    """
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("closedness probe requires a positive mass scale")
    if p.is_boundary:
        raise ValueError("closedness probe is defined for interior points only")
    margin = 0.5 * min(PI - abs(p.mu), PI - abs(p.nu))
    # Derivative bound for tan(./2) on the margin interval around p.
    slope_u = 0.5 / math.cos((abs(p.mu) + margin) / 2.0) ** 2
    slope_v = 0.5 / math.cos((abs(p.nu) + margin) / 2.0) ** 2
    radius = min(margin, 0.5 * lam / math.sqrt(slope_u * slope_v))
    r = radius * np.arange(1, 25)[:, None] / 24
    ang = 2.0 * PI * np.arange(180) / 180
    du = np.tan((p.mu + r * np.cos(ang)) / 2.0) - math.tan(p.mu / 2.0)
    dv = np.tan((p.nu + r * np.sin(ang)) / 2.0) - math.tan(p.nu / 2.0)
    if (_hyperbola(du, dv, lam) | _hyperbola(-du, -dv, lam)).any():
        raise RuntimeError("closedness probe found a comparable point")
    return radius

