"""Isocones of finite-dimensional matrix algebras and their state orders.

The building blocks are spherical-cap cones in the Hermitian part of
M2(C) (every rotationally symmetric isocone of M2 is of this shape),
the trivial "full" cone on blocks of any dimension, and lexicographic
sums of per-block cones over a finite poset.  The order induced on
pure states by a cap cone has a closed dual-cone form: writing K for
the cap and K deg for its polar dual (the cap of half-angle pi/2 - rho
around the same axis), state n1 precedes n2 iff n2 - n1 lies in K deg.
Tests validate that form against direct geodesic-distance sampling of
the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hermitian import (MAX_DIM, HermMat, PAULI, _hermitian_part, _pauli_stack,
                        _random_herm_entries, eigenvalues, pauli_coefficients, random_herm)
from .poset import FinitePoset, as_index

ANGLE_TOL = 1e-10
ZERO_VEC_TOL = 1e-10
SPECTRAL_TOL = 1e-10
STATE_TOL = 1e-9
BLOCH_NORM_TOL = 1e-12
LEVEL_MARGIN = 0.5
WITNESS_EPS = 0.25


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if not 0.0 < norm < math.inf:
        raise ValueError("need a finite non-zero vector")
    return v / norm


def _within_angle(w, axis: np.ndarray, half: float, tol: float) -> np.ndarray:
    """Per row of ``w`` (``(3,)`` or ``(k, 3)``): the row vanishes or lies
    within angle ``half + tol`` of the unit ``axis``."""
    wnorm = np.sqrt(np.vecdot(w, w))
    cosv = np.vecdot(w, axis) / (np.maximum(wnorm, ZERO_VEC_TOL) * np.linalg.norm(axis))
    return (wnorm <= ZERO_VEC_TOL) | (np.arccos(np.clip(cosv, -1.0, 1.0)) <= half + tol)


class BlochState:
    """Pure state of M2(C) as a unit vector on the Bloch sphere."""

    __slots__ = ("n",)

    def __init__(self, n):
        n = np.asarray(n, dtype=float)
        if n.shape != (3,):
            raise ValueError("Bloch vector must have three components")
        norm = math.sqrt(n.dot(n))
        if not abs(norm - 1.0) <= BLOCH_NORM_TOL:
            raise ValueError(f"Bloch vector norm {norm} is not 1 within {BLOCH_NORM_TOL}")
        n = n / norm
        n.setflags(write=False)
        self.n = n

    def projection(self) -> HermMat:
        """Rank-one projection (I + n.sigma)/2."""
        return HermMat.from_pauli(0.5, self.n / 2.0)

    def same_state(self, other: "BlochState", tol: float = STATE_TOL) -> bool:
        return bool(np.linalg.norm(self.n - other.n) <= tol)

    def __repr__(self) -> str:
        return f"BlochState({self.n.tolist()})"


def bloch_vectors(rows) -> np.ndarray:
    """``BlochState(row).n`` for every row of a ``(k, 3)`` array, in one pass:
    the same norm check and the same division, row by row."""
    rows = np.asarray(rows, dtype=float)
    norm = np.sqrt(np.vecdot(rows, rows))
    off = ~(np.abs(norm - 1.0) <= BLOCH_NORM_TOL)
    if off.any():
        raise ValueError(f"Bloch vector norm {norm[off][0]} is not 1 within {BLOCH_NORM_TOL}")
    return rows / norm[:, None]


class CapIsocone:
    """Isocone of M2(C) cut out by a spherical cap, or the trivial FULL cone.

    A cap with axis ``a`` and angular radius ``rho`` in (0, pi/2]
    represents the set of ``c*I + v.sigma`` with v zero or within angle
    rho of the axis: a closed convex cone containing the constants with
    non-empty interior.  ``CapIsocone.full()`` is the whole Hermitian
    part (usable as the trivial isocone in any dimension).  ``rotation``
    takes +z to the axis.
    """

    __slots__ = ("axis", "rho", "rotation")

    def __init__(self, axis, rho: float):
        self.axis = _unit(axis)
        self.axis.setflags(write=False)
        rho = float(rho)
        if not 0.0 < rho <= np.pi / 2.0:
            raise ValueError("cap radius must lie in (0, pi/2]")
        self.rho = rho
        self.rotation = _rotation_to(self.axis)

    @classmethod
    def full(cls) -> "CapIsocone":
        """The trivial isocone: the whole Hermitian part, in any dimension."""
        cone = object.__new__(cls)
        cone.axis = cone.rho = cone.rotation = None  # type: ignore[assignment]
        return cone

    @property
    def is_full(self) -> bool:
        return self.axis is None

    @property
    def dual_half_angle(self) -> float:
        """Half-angle of the polar dual cone (pi/2 - rho)."""
        if self.is_full:
            raise ValueError("the full cone has no dual cap")
        return np.pi / 2.0 - self.rho

    def to_json(self):
        if self.is_full:
            return "full"
        return {"axis": self.axis.tolist(), "rho": self.rho}

    @classmethod
    def from_json(cls, obj) -> "CapIsocone":
        if obj == "full":
            return cls.full()
        return cls(obj["axis"], obj["rho"])

    def __repr__(self) -> str:
        if self.is_full:
            return "CapIsocone(full)"
        return f"CapIsocone(axis={self.axis.tolist()}, rho={self.rho})"


def cap_membership(cone: CapIsocone, a: HermMat, tol: float = ANGLE_TOL) -> bool:
    """Is ``a`` in the cap cone?

    Decomposes a = c*I + v.sigma; membership holds when the cone is
    full, v vanishes, or v lies within the cap angle of the axis.
    """
    if a.dim != 2:
        raise ValueError("cap cones live in M2(C)")
    return cone.is_full or bool(_within_angle(a.pauli_coeffs()[1], cone.axis, cone.rho, tol))


def cap_induced_order(cone: CapIsocone, s1: BlochState, s2: BlochState,
                      tol: float = ANGLE_TOL) -> bool:
    """Order induced on Bloch states by a cap cone, via the dual cone.

    s1 precedes s2 iff every cap direction x has geodesic distance to
    s1 at least its distance to s2; equivalently n2 - n1 lies in the
    dual cap of half-angle pi/2 - rho.  The full cone induces equality.
    """
    if cone.is_full:
        return s1.same_state(s2)
    return bool(_within_angle(s2.n - s1.n, cone.axis, cone.dual_half_angle, tol))


def min_cap_dot(cone: CapIsocone, w):
    """Cap direction minimizing ``x . w`` and the minimum value.

    The minimizer lies in the plane spanned by the axis and w (the cap
    and the objective are symmetric under reflection across it).  There
    the objective is ``w_par cos(t) - |w_perp| sin(t)`` for polar angles
    t in [0, rho], which falls until ``pi - atan2(|w_perp|, w_par)`` and
    rises after it.  A stack ``w`` of shape ``(k, 3)`` gives ``(k, 3)``
    directions and ``(k,)`` values, each row equal to its one-vector call.
    """
    if cone.is_full:
        raise ValueError("the full cone has every direction")
    w = np.asarray(w, dtype=float)
    rows = np.atleast_2d(w)
    axis = cone.axis
    w_par = np.vecdot(rows, axis)
    perp = rows - w_par[:, None] * axis
    pnorm = np.sqrt(np.vecdot(perp, perp))
    tied = pnorm <= 1e-15 * np.maximum(1.0, np.sqrt(np.vecdot(rows, rows)))
    e = perp / np.where(tied, 1.0, pnorm)[:, None]
    if tied.any():
        # w parallel to the axis: every boundary direction ties.
        e[tied] = _unit(np.cross(axis, [1.0, 0.0, 0.0])
                        if abs(axis[0]) < 0.9 else np.cross(axis, [0.0, 1.0, 0.0]))
    theta = [min(cone.rho, math.pi - math.atan2(p, q))
             for p, q in zip(pnorm.tolist(), w_par.tolist())]
    cos_t = np.array([math.cos(t) for t in theta])
    sin_t = np.array([math.sin(t) for t in theta])
    x, value = cos_t[:, None] * axis - sin_t[:, None] * e, cos_t * w_par - sin_t * pnorm
    return (x[0], float(value[0])) if w.ndim == 1 else (x, value)


@dataclass(frozen=True)
class LexComponent:
    """One summand of a lexicographic isocone: block dimension plus cone."""

    dim: int
    cone: CapIsocone

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"block dimension must lie in 1..{MAX_DIM}")
        if not self.cone.is_full and self.dim != 2:
            raise ValueError("non-trivial cap cones require dimension 2")


class LexIsocone:
    """Lexicographic sum of per-block isocones over a finite poset.

    Membership: every block element lies in its component cone, and for
    each strict poset pair x < y the top of the spectrum at x does not
    exceed the bottom of the spectrum at y.
    """

    __slots__ = ("poset", "components")

    def __init__(self, poset: FinitePoset, components):
        components = tuple(components)
        if len(components) != poset.size:
            raise ValueError("one component per poset point required")
        self.poset = poset
        self.components = components

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.components)

    def random_member(self, rng: np.random.Generator, spread: float = 3.0) -> list[HermMat]:
        """Random member: per-block cone elements offset by chain levels.

        Levels are ``spread`` apart, or further apart when the drawn
        blocks' spectra are wider, so that every strict pair keeps a gap.
        """
        jitters, smalls = [], []
        for comp in self.components:
            jitters.append(float(rng.uniform(-0.4, 0.4)))
            if comp.cone.is_full:
                smalls.append(_random_herm_entries(rng, comp.dim, 0.3))
            else:
                smalls.append(random_cap_element(comp.cone, rng, scale=0.3).mat)
        levels = self.poset.levels()
        ext = [eigenvalues(small)[[0, -1]] + jit for small, jit in zip(smalls, jitters)]
        need = max(((ext[x][1] - ext[y][0]) / (levels[y] - levels[x])
                    for x, y in self.poset.strict_pairs()), default=0.0)
        spacing = max(spread, need + LEVEL_MARGIN)
        return [HermMat(small + (spacing * float(lev) + jit) * np.eye(comp.dim))
                for comp, small, lev, jit in zip(self.components, smalls, levels, jitters)]

    def to_json(self) -> dict:
        return {
            "poset": self.poset.to_json(),
            "components": [{"dim": c.dim, "cone": c.cone.to_json()} for c in self.components],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LexIsocone":
        """Parse ``{poset, components}``; sizes are checked before the
        poset's relation matrix or any block is built."""
        comps = [LexComponent(as_index(c["dim"], "dim"), CapIsocone.from_json(c["cone"]))
                 for c in obj["components"]]
        if len(comps) != as_index(obj["poset"]["size"], "poset size"):
            raise ValueError("one component per poset point required")
        return cls(FinitePoset.from_json(obj["poset"]), comps)


def lex_membership(L: LexIsocone, blocks, tol: float = SPECTRAL_TOL) -> bool:
    """Membership in the lexicographic sum.

    Only blocks in some strict pair have their spectra computed, and
    only their extreme eigenvalues are compared.
    """
    blocks = list(blocks)
    dims = tuple(b.dim for b in blocks)
    if dims != L.block_dims:
        raise ValueError(f"block dimensions {dims} do not match {L.block_dims}")
    return bool(_lex_members(L, [b.mat for b in blocks], tol))


def _lex_members(L: LexIsocone, mats, tol: float = SPECTRAL_TOL) -> np.ndarray:
    """``lex_membership`` of many elements: ``mats[z]`` is block z's entry
    ``(d, d)``, shared by every element, or a stack ``(k, d, d)``; one bool
    per element."""
    ok = np.bool_(True)
    for c, m in zip(L.components, mats):
        if not c.cone.is_full:
            ok = ok & _within_angle(pauli_coefficients(m)[1], c.cone.axis, c.cone.rho, ANGLE_TOL)
    if not ok.any():  # no spectrum can restore membership
        return ok
    pairs = L.poset.strict_pairs()
    ext = {i: eigenvalues(mats[i])[..., [0, -1]] for pair in pairs for i in pair}
    for x, y in pairs:
        ok = ok & ~(ext[x][..., 1] > ext[y][..., 0] + tol)
    return ok


def states_equal(dim: int, s1, s2, tol: float = STATE_TOL) -> bool:
    """Equality of pure states of a dim-n block, up to phase."""
    if dim == 2:
        return s1.same_state(s2, tol)
    if dim == 1:
        return True
    v1 = np.asarray(s1, dtype=complex)
    v2 = np.asarray(s2, dtype=complex)
    overlap = abs(complex(v1.conj() @ v2)) / (np.linalg.norm(v1) * np.linalg.norm(v2))
    return bool(1.0 - overlap <= tol)


class BlockStack:
    """One block's entries over many elements, evaluated on pure states in
    one numpy call.  ``mats`` is ``(d, d)`` or a stack ``(..., d, d)``; in
    dimension 2 the Pauli coefficients are read from the entries once."""

    __slots__ = ("mats", "c", "v")

    def __init__(self, mats):
        self.mats = np.asarray(mats)
        if self.mats.shape[-1] == 2:
            self.c, self.v = pauli_coefficients(self.mats)

    def values(self, states) -> np.ndarray:
        """Gelfand transforms, broadcast over the entries and the states.

        ``states`` is one state or a stack: Bloch vectors ``(..., 3)`` on a
        2x2 block, kets ``(..., d)`` (normalised here) otherwise; a 1x1
        block ignores them.  Dot products go through ``np.vecdot``, so each
        value equals its one-row result bit for bit.
        """
        s = np.asarray(states)
        d = self.mats.shape[-1]
        if d == 2 and s.shape[-1] == 3:
            return self.c + np.vecdot(self.v, s)
        if d == 1:
            return np.broadcast_to(self.mats[..., 0, 0].real,
                                   np.broadcast_shapes(self.mats.shape[:-2], s.shape[:-1]))
        ket = s.astype(complex)
        ket = ket / np.sqrt(np.vecdot(ket.real, ket.real)
                            + np.vecdot(ket.imag, ket.imag))[..., None]
        return np.vecdot(ket, (self.mats @ ket[..., None])[..., 0]).real


def _state_array(state):
    """A pure state as ``BlockStack.values`` takes it."""
    return state.n if isinstance(state, BlochState) else state


def state_value(a: HermMat, state) -> float:
    """Value of a pure state on a Hermitian element (Gelfand transform)."""
    return float(BlockStack(a.mat).values(_state_array(state)))


def lex_induced_order(L: LexIsocone, x: int, s1, y: int, s2) -> bool:
    """Order induced on pure states of the direct sum.

    (x, s1) precedes (y, s2) iff x and y differ and x <= y in the
    poset, or x == y and s1 precedes s2 in the block's own order (the
    full cone inducing equality).
    """
    if x != y:
        return L.poset.leq(x, y)
    comp = L.components[x]
    if comp.cone.is_full or comp.dim != 2:
        return states_equal(comp.dim, s1, s2)
    return cap_induced_order(comp.cone, s1, s2)


def random_bloch(rng: np.random.Generator) -> BlochState:
    return BlochState(_random_state(rng, 2))


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """``random_block_state`` as an array: in dimension 2 the drawn unit
    vector before ``BlochState``'s norm check and division."""
    if dim == 2:
        v = rng.standard_normal(3)
        norm = math.sqrt(v.dot(v))
        while norm < 1e-8:
            v = rng.standard_normal(3)
            norm = math.sqrt(v.dot(v))
        return v / norm
    ket = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return ket / np.linalg.norm(ket)


def random_block_state(rng: np.random.Generator, dim: int):
    """Random pure state of a dim-n block, in the block's representation."""
    return random_bloch(rng) if dim == 2 else _random_state(rng, dim)


def random_cap_element(cone: CapIsocone, rng: np.random.Generator,
                       scale: float = 1.0) -> HermMat:
    """Random element of a cap cone (random cap direction, random trace part)."""
    if cone.is_full:
        return random_herm(rng, 2, scale=scale)
    v = _random_cap_direction(cone.rotation, cone.rho, rng)
    c = float(rng.normal(0.0, 1.0))
    t = float(rng.uniform(0.0, 1.0))
    return HermMat.from_pauli(scale * c, scale * t * v)


def _random_cap_direction(rotation: np.ndarray, half: float,
                          rng: np.random.Generator) -> np.ndarray:
    """Random unit vector within angle ``half`` of the axis that ``rotation``
    takes +z to (polar angle drawn first, then azimuth)."""
    theta = half * float(np.sqrt(rng.uniform(0.0, 1.0)))
    phi = float(rng.uniform(0.0, 2.0 * np.pi))
    local = np.array([np.sin(theta) * np.cos(phi),
                      np.sin(theta) * np.sin(phi),
                      np.cos(theta)])
    return rotation @ local


def _rotation_to(axis: np.ndarray) -> np.ndarray:
    """Rotation matrix taking +z to the given unit axis."""
    z = np.array([0.0, 0.0, 1.0])
    c = float(np.dot(z, axis))
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        return np.diag([1.0, -1.0, -1.0])
    k = np.cross(z, axis)
    s = float(np.linalg.norm(k))
    k = k / s
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + s * kx + (1.0 - c) * (kx @ kx)


def _scalar_step_member(L: LexIsocone, x: int, lo: float = 0.0, hi: float = 1.0,
                        center: HermMat | None = None) -> list[HermMat]:
    """Scalar member taking value hi on the up-set of x and lo elsewhere;
    ``center``, when given, is the entry at x instead."""
    blocks = []
    for z, comp in enumerate(L.components):
        if z == x and center is not None:
            blocks.append(center)
            continue
        c = hi if L.poset.leq(x, z) else lo
        blocks.append(HermMat(c * np.eye(comp.dim, dtype=complex)))
    return blocks


def _same_block_witness(L: LexIsocone, x: int, s1, s2,
                        eps: float = WITNESS_EPS) -> list[HermMat]:
    """Member separating two states of block x when the block order fails.

    The block-x entry is a small cone element whose Gelfand transform
    decreases from s1 to s2; the other blocks carry scalar offsets
    respecting the poset.  For a cap block that element is the cap
    direction minimizing ``x . (n2 - n1)``, whose minimum is negative
    whenever the pair is unrelated.
    """
    center = _witness_centres(L.components[x], _state_array(s1)[None],
                              _state_array(s2)[None], eps)[0]
    return _scalar_step_member(L, x, lo=-2.0 * eps, hi=2.0 * eps, center=HermMat(center))


def _witness_centres(comp: LexComponent, s1: np.ndarray, s2: np.ndarray,
                     eps: float) -> np.ndarray:
    """Block entries ``(k, d, d)`` of the same-block witnesses of the state
    rows ``s1``, ``s2``: ``eps`` times the minimizing cap direction on a cap
    block; the projector gap ``eps (p1 - p2)`` on a full block, whose order
    is equality.  Built with ``HermMat``'s sums, check and symmetrization."""
    if not comp.cone.is_full:
        direction, _ = min_cap_dot(comp.cone, s2 - s1)
        return _hermitian_part(_pauli_stack(0.0, eps * direction))
    if comp.dim == 2:
        p1, p2 = (_hermitian_part(_pauli_stack(0.5, s / 2.0)) for s in (s1, s2))
    else:
        k1, k2 = (k / np.sqrt(np.vecdot(k.real, k.real) + np.vecdot(k.imag, k.imag))[:, None]
                  for k in (s1, s2))
        p1, p2 = k1[:, :, None] * k1.conj()[:, None, :], k2[:, :, None] * k2.conj()[:, None, :]
    return _hermitian_part(eps * (p1 - p2))


@dataclass
class ConsistencyReport:
    """Outcome of checking the lexicographic order against its cone."""

    pairs_checked: int
    members_checked: int
    monotonicity_violations: list = field(default_factory=list)
    witness_failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.monotonicity_violations and not self.witness_failures

    def to_json(self) -> dict:
        return {
            "pairs_checked": self.pairs_checked,
            "members_checked": self.members_checked,
            "monotonicity_violations": self.monotonicity_violations,
            "witness_failures": self.witness_failures,
            "passed": self.passed,
        }


def lex_order_consistency_check(L: LexIsocone, samples: int,
                                rng: np.random.Generator | None = None,
                                tol: float = STATE_TOL) -> ConsistencyReport:
    """Check the induced-order formula against element-wise comparison.

    For random state pairs: whenever the lexicographic order relates
    them, no sampled member may decrease between them; whenever it does
    not, a separating member is constructed (scalar steps across
    blocks, cone directions within a block) and verified.

    Members and samples are drawn first; the checks draw nothing.  Per
    ``(x, y)``, relatedness and bounded row slice, related pairs meet all
    members as one array and same-block witnesses form one stack
    ``(k, d, d)``; each x's cross-block witness is built once.  Report
    entries follow sample order, then member order.
    """
    rng = rng or np.random.default_rng(0)
    members = [L.random_member(rng) for _ in range(max(8, samples // 8))]
    n = L.poset.size
    groups: dict[tuple, list] = {}
    for k in range(samples):
        x = int(rng.integers(n))
        y = x if rng.uniform() < 0.5 else int(rng.integers(n))
        s1 = random_block_state(rng, L.components[x].dim)
        s2 = random_block_state(rng, L.components[y].dim)
        groups.setdefault((x, y, lex_induced_order(L, x, s1, y, s2)), []).append(
            (k, _state_array(s1), _state_array(s2)))
    stacks = [BlockStack([blocks[z].mat for blocks in members]) for z in range(n)]
    violations: dict[int, list] = {}
    failures: dict[int, dict] = {}
    cross: dict[int, tuple[list, bool]] = {}
    for (x, y, related), group in groups.items():
        if x != y and not related:
            if x not in cross:
                witness = _scalar_step_member(L, x)
                cross[x] = witness, lex_membership(L, witness)
            witness, member = cross[x]
        elif not related:
            witness = _scalar_step_member(L, x, lo=-2.0 * WITNESS_EPS, hi=2.0 * WITNESS_EPS)
        dim = max(L.components[x].dim, L.components[y].dim)
        # Row slices bound the (rows, members, d) values and (rows, d, d) witnesses.
        step = max(1, (1 << 12) // (dim * (len(members) if related else dim)))
        for lo in range(0, len(group), step):
            ks, s1, s2 = zip(*group[lo:lo + step])
            s1, s2 = np.array(s1), np.array(s2)
            if related:
                v1, v2 = stacks[x].values(s1[:, None]), stacks[y].values(s2[:, None])
                for j, m in np.argwhere(v1 > v2 + tol).tolist():
                    violations.setdefault(ks[j], []).append(
                        {"x": x, "y": y, "value_gap": float(v1[j, m] - v2[j, m]),
                         "blocks": [b.to_json() for b in members[m]]})
                continue
            if x != y:
                witness_x, witness_y, ok = witness[x].mat, witness[y].mat, member
            else:
                witness_x = witness_y = _witness_centres(L.components[x], s1, s2, WITNESS_EPS)
                ok = _lex_members(L, [witness_x if z == x else b.mat
                                      for z, b in enumerate(witness)])
            ok = np.broadcast_to(ok, len(ks))
            for j in np.nonzero(~ok)[0].tolist():
                blocks = witness if x != y else [HermMat(witness_x[j]) if z == x else b
                                                 for z, b in enumerate(witness)]
                failures[ks[j]] = {"x": x, "y": y, "reason": "witness not a member",
                                   "blocks": [b.to_json() for b in blocks]}
            v1, v2 = BlockStack(witness_x).values(s1), BlockStack(witness_y).values(s2)
            for j in np.nonzero(ok & ~(v1 > v2))[0].tolist():
                failures[ks[j]] = {"x": x, "y": y, "reason": "witness does not separate",
                                   "value_gap": float(v1[j] - v2[j])}
    return ConsistencyReport(
        pairs_checked=samples, members_checked=len(members),
        monotonicity_violations=[v for k in sorted(violations) for v in violations[k]],
        witness_failures=[failures[k] for k in sorted(failures)])


class BlockMorphism:
    """Surjective *-morphism between direct sums of matrix blocks.

    Each target block copies exactly one source block, optionally
    conjugated by a block unitary; distinct target blocks must copy
    distinct source blocks, which makes the map onto.
    """

    __slots__ = ("source_dims", "target_dims", "source_of", "unitaries")

    def __init__(self, source_dims, target_dims, source_of, unitaries=None):
        self.source_dims = tuple(int(d) for d in source_dims)
        self.target_dims = tuple(int(d) for d in target_dims)
        self.source_of = tuple(int(s) for s in source_of)
        if len(self.source_of) != len(self.target_dims):
            raise ValueError("one source index per target block required")
        if len(set(self.source_of)) != len(self.source_of):
            raise ValueError("morphism is not surjective: repeated source block")
        for k, src in enumerate(self.source_of):
            if not 0 <= src < len(self.source_dims):
                raise ValueError(f"source index {src} out of range")
            if self.source_dims[src] != self.target_dims[k]:
                raise ValueError("block dimensions do not match along the morphism")
        if unitaries is None:
            unitaries = (None,) * len(self.target_dims)
        checked = []
        for k, u in enumerate(unitaries):
            if u is None:
                checked.append(None)
                continue
            u = np.asarray(u, dtype=complex)
            d = self.target_dims[k]
            if u.shape != (d, d) or np.abs(u @ u.conj().T - np.eye(d)).max() > 1e-10:
                raise ValueError(f"block {k}: conjugator is not unitary")
            checked.append(u)
        self.unitaries = tuple(checked)

    def apply(self, blocks) -> list[HermMat]:
        blocks = list(blocks)
        out = []
        for k, src in enumerate(self.source_of):
            m = blocks[src].mat
            u = self.unitaries[k]
            if u is not None:
                m = u @ m @ u.conj().T
            out.append(HermMat(m, tol=1e-10))
        return out


def bloch_rotation(u) -> np.ndarray:
    """SO(3) rotation of Bloch vectors induced by a 2x2 unitary conjugation."""
    u = np.asarray(u, dtype=complex)
    rot = np.empty((3, 3))
    for j, sj in enumerate(PAULI):
        conj = u @ sj @ u.conj().T
        for i, si in enumerate(PAULI):
            rot[i, j] = float(np.trace(si @ conj).real) / 2.0
    return rot


def pushforward(pi: BlockMorphism, L: LexIsocone) -> LexIsocone:
    """Image of a lexicographic isocone under a block morphism.

    The image is again a lexicographic sum: the sub-poset induced on
    the selected source blocks, with each cap cone's axis rotated by
    the Bloch rotation of the block conjugator.  Unselected blocks
    impose no constraint because their entries can always be filled
    with scalar levels interpolating the selected spectra.
    """
    if L.block_dims != pi.source_dims:
        raise ValueError("morphism source does not match the isocone's blocks")
    selected = list(pi.source_of)
    sub_rel = L.poset.relation[np.ix_(selected, selected)]
    sub_poset = FinitePoset(sub_rel)
    comps = []
    for k, src in enumerate(selected):
        comp = L.components[src]
        cone = comp.cone
        u = pi.unitaries[k]
        if not cone.is_full and u is not None:
            cone = CapIsocone(bloch_rotation(u) @ cone.axis, cone.rho)
        comps.append(LexComponent(comp.dim, cone))
    return LexIsocone(sub_poset, comps)


@dataclass
class SaturationReport:
    """Sampling evidence for saturation of a lexicographic isocone.

    Survivors are sampled elements that look isotone on every sampled
    state pair yet fail membership, after densified re-testing.  An
    empty survivor list means "no counterexample found", never a proof
    of saturation.  ``members_flagged`` counts sampled members that are
    not isotone on the coarse pairs, which the induced order forbids.
    """

    elements_checked: int
    members_included: int
    flagged_coarse: int
    eliminated_by_densification: int
    survivors: list = field(default_factory=list)
    members_flagged: int = 0

    @property
    def summary(self) -> str:
        if self.survivors:
            return f"{len(self.survivors)} saturation counterexample candidate(s)"
        return "no counterexample found"

    def to_json(self) -> dict:
        return {
            "elements_checked": self.elements_checked,
            "members_included": self.members_included,
            "flagged_coarse": self.flagged_coarse,
            "eliminated_by_densification": self.eliminated_by_densification,
            "members_flagged": self.members_flagged,
            "survivors": self.survivors,
            "summary": self.summary,
        }


def _ordered_state_pairs(L: LexIsocone, count: int, rng: np.random.Generator):
    """Sample state pairs related by the lexicographic order.

    Mixes strict cross-block pairs with same-block pairs built from a
    dual-cap displacement (two unit vectors whose difference lies in
    K deg, so they are related by construction).  States are arrays, as
    ``_grouped_pairs`` takes them.
    """
    strict = L.poset.strict_pairs()
    cap_blocks = [i for i, c in enumerate(L.components)
                  if c.dim == 2 and not c.cone.is_full]
    pairs = []
    for _ in range(count):
        use_cross = strict and (not cap_blocks or rng.uniform() < 0.5)
        if use_cross:
            x, y = strict[int(rng.integers(len(strict)))]
            pairs.append(((x, _random_state(rng, L.components[x].dim)),
                          (y, _random_state(rng, L.components[y].dim))))
        elif cap_blocks:
            x = cap_blocks[int(rng.integers(len(cap_blocks)))]
            cone = L.components[x].cone
            pair = _dual_displacement_pair(cone, rng)
            if pair is not None:
                pairs.append(((x, pair[0]), (x, pair[1])))
    return pairs


def _dual_displacement_pair(cone: CapIsocone, rng: np.random.Generator,
                            direction: np.ndarray | None = None):
    """Two Bloch vectors with n2 - n1 in K deg (hence order-related), before
    ``BlochState``'s norm check and division."""
    if direction is None:
        w = _random_cap_direction(cone.rotation, cone.dual_half_angle, rng)
    else:
        w = _unit(direction)
    for _ in range(64):
        n1 = _random_state(rng, 2)
        n1 = n1 / math.sqrt(n1.dot(n1))  # random_bloch(rng).n; its norm check cannot fail
        proj = float(np.dot(n1, w))
        if proj < -1e-3:
            step = -2.0 * proj  # chord length keeping n1 + step*w on the sphere
            n2 = n1 + step * w
            return n1, n2 / math.sqrt(n2.dot(n2))
    return None


def _grouped_pairs(L: LexIsocone, pairs) -> tuple[int, list]:
    """A state-pair list grouped once for ``_isotone_on_pairs``: the pair
    count and, per side, ``(block, pair indices, stacked states)``.  The
    Bloch vectors of 2x2 blocks get ``BlochState``'s check and division."""
    sides = []
    for side in (0, 1):
        by_block: dict[int, tuple[list, list]] = {}
        for k, pair in enumerate(pairs):
            x, state = pair[side]
            rows, states = by_block.setdefault(x, ([], []))
            rows.append(k)
            states.append(state)
        sides.append([(x, np.array(rows), bloch_vectors(states)
                       if L.components[x].dim == 2 else np.array(states))
                      for x, (rows, states) in by_block.items()])
    return len(pairs), sides


def _isotone_on_pairs(L: LexIsocone, blocks, grouped, tol: float) -> bool:
    """The element decreases on none of the grouped pairs."""
    count, sides = grouped
    v1, v2 = np.empty(count), np.empty(count)
    for out, groups in zip((v1, v2), sides):
        for x, rows, states in groups:
            out[rows] = BlockStack(blocks[x].mat).values(states)
    return not np.any(v1 > v2 + tol)


def _targeted_pairs(L: LexIsocone, blocks, rng: np.random.Generator):
    """Stress pairs aimed at the given element's likely violations."""
    pairs = [((x, _extreme_state(blocks[x], -1)), (y, _extreme_state(blocks[y], 0)))
             for x, y in L.poset.strict_pairs()]
    for x, comp in enumerate(L.components):
        if comp.dim != 2 or comp.cone.is_full:
            continue
        _, v = blocks[x].pauli_coeffs()
        if float(np.linalg.norm(v)) <= ZERO_VEC_TOL:
            continue
        dual = CapIsocone(comp.cone.axis, max(comp.cone.dual_half_angle, 1e-12))
        w_star, value = min_cap_dot(dual, v)
        if value < 0.0:
            pair = _dual_displacement_pair(comp.cone, rng, direction=w_star)
            if pair is not None:
                pairs.append(((x, pair[0]), (x, pair[1])))
    return pairs


def _extreme_state(block: HermMat, k: int) -> np.ndarray:
    """Eigenstate of the block's bottom (``k = 0``) or top (``k = -1``)
    eigenvalue.  A 2x2 block ``c*I + v.sigma`` gives the Bloch vector
    ``-v/|v|`` or ``v/|v|`` (+z or -z at ``v = 0``), before ``BlochState``'s
    check and division; larger blocks give the ``eigh`` column."""
    if block.dim == 2:
        _, v = block.pauli_coeffs()
        norm = np.linalg.norm(v)
        sign = 1.0 if k else -1.0
        return sign * v / norm if norm else np.array([0.0, 0.0, -sign])
    return np.linalg.eigh(block.mat)[1][:, k]


def saturation_check(L: LexIsocone, state_samples: int, element_samples: int,
                     rng: np.random.Generator | None = None,
                     tol: float = STATE_TOL) -> SaturationReport:
    """Search for elements isotone on sampled pairs but outside the cone.

    Sampled elements mix known members with free Hermitian draws.
    Elements flagged on the coarse pair sample are re-tested at ten
    times the density plus targeted extreme-state pairs before being
    reported as candidates.
    """
    rng = rng or np.random.default_rng(0)
    coarse = _grouped_pairs(L, _ordered_state_pairs(L, state_samples, rng))
    elements = []
    members_included = 0
    for k in range(element_samples):
        if k % 3 == 0:
            elements.append((L.random_member(rng), True))
            members_included += 1
        else:
            blocks = [random_herm(rng, c.dim, scale=1.0) for c in L.components]
            elements.append((blocks, False))
    report = SaturationReport(elements_checked=len(elements),
                              members_included=members_included,
                              flagged_coarse=0, eliminated_by_densification=0)
    for blocks, is_member_by_construction in elements:
        member = lex_membership(L, blocks)
        isotone = _isotone_on_pairs(L, blocks, coarse, tol)
        if is_member_by_construction and not member:
            raise AssertionError("constructed member failed membership")
        if member:
            # Members are isotone by definition of the induced order.
            if not isotone:
                report.members_flagged += 1
            continue
        if not isotone:
            continue
        report.flagged_coarse += 1
        dense = _ordered_state_pairs(L, 10 * state_samples, rng)
        dense += _targeted_pairs(L, blocks, rng)
        if _isotone_on_pairs(L, blocks, _grouped_pairs(L, dense), tol):
            report.survivors.append([b.to_json() for b in blocks])
        else:
            report.eliminated_by_densification += 1
    return report
