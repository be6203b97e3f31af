"""Spectral distance of the finite Dirac and the order it induces.

The finite Dirac matrix diag(d1, d2) on the inner space M2(C) measures
Bloch states: the distance it induces is finite only at equal latitude,
where it is the Euclidean chord over the eigenvalue gap.  Product pure
states (event, Bloch state) of the plane times M2(C) are ordered by it:
(x, s1) precedes (y, s2) iff x causally precedes y and the Lorentz
distance from x to y dominates the spectral distance from s1 to s2.
Every experiment's config holds a ``FiniteDirac``; the causal cone
itself lives in ``causal_cone``.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .hermitian import BlochState, HermMat, _Frozen
from .minkowski import Event, causal_leq, lorentz_distance

INFINITE = float("inf")

LATITUDE_TOL = 1e-9
ORDER_TOL = 1e-9
# A chord of Bloch vectors is at most 2: chord / gap is finite above this gap.
MIN_GAP = 2.0 / sys.float_info.max


class FiniteDirac(_Frozen):
    """Diagonal finite Dirac matrix diag(d1, d2) on the inner space."""

    __slots__ = ("d1", "d2")

    def __init__(self, d1: float, d2: float):
        if not math.isfinite(d1 - d2):  # also an infinite or NaN d1 or d2
            raise ValueError("d1 and d2 must be finite numbers with a finite difference")
        self._set(d1, d2)

    @property
    def gap(self) -> float:
        return abs(self.d1 - self.d2)

    @property
    def nondegenerate(self) -> bool:
        """The gap exceeds ``MIN_GAP``, so every spectral distance is finite
        or infinite by latitude alone, never by overflow."""
        return self.gap > MIN_GAP

    @property
    def matrix(self) -> HermMat:
        return HermMat.diag([self.d1, self.d2])


def spectral_distances(dirac: FiniteDirac, n1, n2) -> np.ndarray:
    """Distances induced by the finite Dirac between Bloch vectors, row by row.

    ``n1`` and ``n2`` are Bloch vectors or stacks ``(..., 3)`` of them.  A
    distance is finite only at equal latitude (z measured along the
    Dirac eigenbasis), where it equals the Euclidean chord divided by
    the eigenvalue gap; the sup defining it is unbounded otherwise.
    """
    if not dirac.nondegenerate:
        raise ValueError("degenerate finite Dirac: the gap must exceed 2 / max float")
    n1, n2 = np.asarray(n1, dtype=float), np.asarray(n2, dtype=float)
    chord = n1 - n2
    apart = np.abs(n1[..., 2] - n2[..., 2]) > LATITUDE_TOL
    return np.where(apart, INFINITE, np.sqrt(np.vecdot(chord, chord)) / dirac.gap)


def spectral_distance(dirac: FiniteDirac, s1: BlochState, s2: BlochState) -> float:
    """Distance between Bloch states induced by the finite Dirac (see
    ``spectral_distances``)."""
    return float(spectral_distances(dirac, s1.n, s2.n))


def product_state_order(dirac: FiniteDirac, x: Event, s1: BlochState,
                        y: Event, s2: BlochState) -> bool:
    """Order on product pure states (event, Bloch state).

    Related iff x causally precedes y and the Lorentz distance reaches
    the spectral distance between the states (infinite spectral
    distance can never be reached).
    """
    if not causal_leq(x, y):
        return False
    dist = spectral_distance(dirac, s1, s2)
    if math.isinf(dist):
        return False
    return lorentz_distance(x, y) >= dist - ORDER_TOL
