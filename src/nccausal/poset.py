"""Finite partial orders stored as dense boolean relation matrices.

Index sets for lexicographic sums and expected-order oracles in tests.
Sizes stay small (tens of points), so dense matrices closed by
repeated Boolean squaring are the simplest correct choice.
"""

from __future__ import annotations

import numpy as np

from .hermitian import as_index


class CycleError(ValueError):
    """Transitive closure produced a cycle, breaking antisymmetry."""


def validate(relation) -> bool:
    """True iff the boolean matrix is reflexive, antisymmetric and transitive,
    that is, square and its own ``transitive_closure``."""
    try:
        return np.array_equal(transitive_closure(relation), np.asarray(relation, dtype=bool))
    except ValueError:  # not square, not reflexive, or a cycle (CycleError)
        return False


def transitive_closure(relation) -> np.ndarray:
    """Smallest transitive superset of a reflexive relation.

    Raises CycleError when the closure relates two distinct points both
    ways, and ValueError when the input is not reflexive.
    """
    rel = np.asarray(relation, dtype=bool).copy()
    if rel.ndim != 2 or rel.shape[0] != rel.shape[1]:
        raise ValueError("relation must be a square boolean matrix")
    n = rel.shape[0]
    if not np.all(np.diag(rel)):
        raise ValueError("relation must be reflexive")
    while True:
        nxt = rel | (rel @ rel)
        if np.array_equal(nxt, rel):
            break
        rel = nxt
    if np.any(rel & rel.T & ~np.eye(n, dtype=bool)):
        raise CycleError("closure relates two distinct points both ways")
    return rel


class FinitePoset:
    """Partially ordered finite index set; relation[x, y] means x <= y."""

    __slots__ = ("relation", "_strict_pairs")

    def __init__(self, relation):
        rel = np.asarray(relation, dtype=bool).copy()
        if not validate(rel):
            raise ValueError("relation is not a partial order")
        rel.setflags(write=False)
        self.relation = rel
        self._strict_pairs = tuple(
            (int(x), int(y)) for x, y in np.argwhere(rel & ~np.eye(len(rel), dtype=bool)))

    @property
    def size(self) -> int:
        return self.relation.shape[0]

    def leq(self, x: int, y: int) -> bool:
        return bool(self.relation[x, y])

    def strict_pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs x < y, in row-major order; computed once at construction."""
        return self._strict_pairs

    def levels(self) -> np.ndarray:
        """Length of the longest strict chain ending at each point."""
        lev = np.zeros(self.size, dtype=int)
        changed = True
        while changed:
            changed = False
            for x, y in self._strict_pairs:
                if lev[y] < lev[x] + 1:
                    lev[y] = lev[x] + 1
                    changed = True
        return lev

    @classmethod
    def from_pairs(cls, size: int, pairs) -> "FinitePoset":
        size = as_index(size, "size")
        rel = np.eye(size, dtype=bool)
        for x, y in pairs:
            x, y = as_index(x, "pair index"), as_index(y, "pair index")
            if not (0 <= x < size and 0 <= y < size):
                raise ValueError(f"pair ({x}, {y}) outside the points 0..{size - 1}")
            rel[x, y] = True
        return cls(transitive_closure(rel))

    @classmethod
    def chain(cls, n: int) -> "FinitePoset":
        return cls(np.triu(np.ones((n, n), dtype=bool)))

    @classmethod
    def antichain(cls, n: int) -> "FinitePoset":
        return cls(np.eye(n, dtype=bool))

    def to_json(self) -> dict:
        return {"size": self.size, "pairs": self.strict_pairs()}

    @classmethod
    def from_json(cls, obj: dict) -> "FinitePoset":
        return cls.from_pairs(obj["size"], obj.get("pairs", []))

    def __eq__(self, other) -> bool:
        return isinstance(other, FinitePoset) and np.array_equal(self.relation, other.relation)

    def __repr__(self) -> str:
        return f"FinitePoset(size={self.size}, strict_pairs={len(self.strict_pairs())})"
