"""Isocones of finite-dimensional matrix algebras and their state orders.

The building blocks are spherical-cap cones in the Hermitian part of
M2(C) (every rotationally symmetric isocone of M2 is of this shape),
the trivial "full" cone on blocks of any dimension, and lexicographic
sums of per-block cones over a finite poset.  The order induced on
pure states by a cap cone has a closed dual-cone form: writing K for
the cap and K deg for its polar dual (the cap of half-angle pi/2 - rho
around the same axis), state n1 precedes n2 iff n2 - n1 lies in K deg.
Tests validate that form against direct geodesic-distance sampling of
the cap.  ``CapIsocone`` and ``BlochState`` live in ``hermitian``.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .hermitian import (ANGLE_TOL, MAX_DIM, SPECTRAL_TOL, STATE_TOL, ZERO_VEC_TOL, BlochState,
                        CapIsocone, HermMat, _Frozen, _herm_entries, _pauli_stack, _Record,
                        _scalar_map, _symmetrized, _unit, bloch_vectors, eigenvalues,
                        pauli_coefficients)
from .poset import FinitePoset, as_index

LEVEL_SPREAD = 3.0
LEVEL_MARGIN = 0.5
WITNESS_EPS = 0.25
MAX_POINTS = 64


def _within_angle(w, axis: np.ndarray, half: float, tol: float) -> np.ndarray:
    """Per row of ``w`` (``(3,)`` or ``(k, 3)``): the row vanishes or lies
    within angle ``half + tol`` of the unit ``axis``."""
    wnorm = np.sqrt(np.vecdot(w, w))
    cosv = np.vecdot(w, axis) / (np.maximum(wnorm, ZERO_VEC_TOL) * np.linalg.norm(axis))
    return (wnorm <= ZERO_VEC_TOL) | (np.arccos(np.clip(cosv, -1.0, 1.0)) <= half + tol)


def cap_membership(cone: CapIsocone, a: HermMat) -> bool:
    """Is ``a`` in the cap cone?

    Decomposes a = c*I + v.sigma; membership holds when the cone is
    full, v vanishes, or v lies within the cap angle of the axis.
    """
    if a.dim != 2:
        raise ValueError("cap cones live in M2(C)")
    return cone.is_full or bool(_within_angle(a.pauli_coeffs()[1], cone.axis, cone.rho, ANGLE_TOL))


def cap_induced_order(cone: CapIsocone, s1: BlochState, s2: BlochState,
                      tol: float = ANGLE_TOL) -> bool:
    """Order induced on Bloch states by a cap cone, via the dual cone.

    s1 precedes s2 iff every cap direction x has geodesic distance to
    s1 at least its distance to s2; equivalently n2 - n1 lies in the
    dual cap of half-angle pi/2 - rho.  The full cone induces equality.
    """
    return bool(_block_order(cone, 2, s1.n, s2.n, tol))


def _block_order(cone: CapIsocone, dim: int, s1: np.ndarray, s2: np.ndarray,
                 tol: float) -> np.ndarray:
    """The order a block's cone induces on its pure states, row by row:
    equality for the full cone, else n2 - n1 within the dual cap."""
    if cone.is_full:
        return states_equal(dim, s1, s2)
    return _within_angle(s2 - s1, cone.axis, cone.dual_half_angle, tol)


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
    theta = np.minimum(cone.rho, math.pi - _scalar_map(math.atan2, pnorm, w_par))
    cos_t, sin_t = _scalar_map(math.cos, theta), _scalar_map(math.sin, theta)
    x, value = cos_t[:, None] * axis - sin_t[:, None] * e, cos_t * w_par - sin_t * pnorm
    return (x[0], float(value[0])) if w.ndim == 1 else (x, value)


class LexComponent(_Frozen):
    """One summand of a lexicographic isocone: block dimension plus cone."""

    __slots__ = ("dim", "cone")

    def __init__(self, dim: int, cone: CapIsocone):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"block dimension must lie in 1..{MAX_DIM}")
        if not cone.is_full and dim != 2:
            raise ValueError("non-trivial cap cones require dimension 2")
        self._set(dim, cone)


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

    def to_json(self) -> dict:
        return {
            "poset": self.poset.to_json(),
            "components": [{"dim": c.dim, "cone": c.cone.to_json()} for c in self.components],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LexIsocone":
        """Parse ``{poset, components}``; sizes are checked before the
        poset's relation matrix or any block is built."""
        size = as_index(obj["poset"]["size"], "poset size")
        if not 1 <= len(obj["components"]) == size <= MAX_POINTS:
            raise ValueError(f"need one component per poset point and 1..{MAX_POINTS} points")
        comps = [LexComponent(as_index(c["dim"], "dim"), CapIsocone.from_json(c["cone"]))
                 for c in obj["components"]]
        return cls(FinitePoset.from_json(obj["poset"]), comps)


def lex_membership(L: LexIsocone, blocks) -> bool:
    """Membership in the lexicographic sum.

    Only blocks in some strict pair have their spectra computed, and
    only their extreme eigenvalues are compared.
    """
    blocks = list(blocks)
    dims = tuple(b.dim for b in blocks)
    if dims != L.block_dims:
        raise ValueError(f"block dimensions {dims} do not match {L.block_dims}")
    return bool(_lex_members(L, [b.mat for b in blocks]))


def _lex_members(L: LexIsocone, mats, ext=None) -> np.ndarray:
    """``lex_membership`` of many elements: ``mats[z]`` is block z's entry
    ``(d, d)``, shared by every element, or a stack ``(k, d, d)``; one bool
    per element.  ``ext``, when given, maps every block to its extreme
    eigenvalues ``(..., 2)``; otherwise the blocks in strict pairs are solved."""
    ok = np.bool_(True)
    for c, m in zip(L.components, mats):
        if not c.cone.is_full:
            ok = ok & _within_angle(pauli_coefficients(m)[1], c.cone.axis, c.cone.rho, ANGLE_TOL)
    if not ok.any():  # no spectrum can restore membership
        return ok
    pairs = L.poset.strict_pairs()
    ext = ext or {i: eigenvalues(mats[i])[..., [0, -1]] for i in {i for p in pairs for i in p}}
    for x, y in pairs:
        ok = ok & ~(ext[x][..., 1] > ext[y][..., 0] + SPECTRAL_TOL)
    return ok


def states_equal(dim: int, s1, s2) -> np.ndarray:
    """Equality of pure states of a dim-n block up to phase, row by row (Bloch or ket)."""
    if dim == 1:
        return np.ones(np.broadcast_shapes(s1.shape[:-1], s2.shape[:-1]), dtype=bool)
    if dim == 2:
        return np.sqrt(np.vecdot(s1 - s2, s1 - s2)) <= STATE_TOL
    return 1.0 - np.abs(np.vecdot(s1, s2)) / (_ket_norm(s1) * _ket_norm(s2)) <= STATE_TOL


def _ket_norm(ket: np.ndarray) -> np.ndarray:
    """The norms of the kets ``(..., d)``, real and imaginary parts summed."""
    return np.sqrt(np.vecdot(ket.real, ket.real) + np.vecdot(ket.imag, ket.imag))


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
        ket = ket / _ket_norm(ket)[..., None]
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
    return bool(_related(L, x, y, _state_array(s1)[None], _state_array(s2)[None])[0])


def _related(L: LexIsocone, x: int, y: int, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """``lex_induced_order`` row by row: states ``s1`` on block x, ``s2`` on y."""
    if x != y:
        return np.full(len(s1), L.poset.leq(x, y))
    comp = L.components[x]
    return _block_order(comp.cone, comp.dim, s1, s2, ANGLE_TOL)


# Samplers draw first: a loop makes a per-sample loop's Generator calls, in its order
# and with its branches, into preallocated arrays or lists; the arithmetic runs on arrays.


def _state_layout(dims) -> tuple[list[int], tuple[int, ...]]:
    """Where the normals of one pure state per block dimension start (a Bloch
    triple, or ``d`` real then ``d`` imaginary parts), their end, and the triples."""
    ends = np.cumsum([0] + [3 if d == 2 else 2 * d for d in dims]).tolist()
    return ends, tuple(at for at, d in zip(ends, dims) if d == 2)


def _draw_states(rng: np.random.Generator, row: np.ndarray, triples) -> None:
    """Fill ``row`` with normals; each Bloch triple, at the offsets in
    ``triples``, whose squared norm in Python floats is below 2e-16 goes to
    ``_redraw``."""
    rng.standard_normal(out=row)
    if triples:
        z = row.tolist()
        for at in triples:
            a, b, c = z[at:at + 3]
            if a * a + b * b + c * c < 2e-16:
                z = _redraw(rng, row, at)


def _redraw(rng: np.random.Generator, row: np.ndarray, at: int) -> list:
    """Redraw the Bloch triple at offset ``at`` of ``row`` while its norm is
    below 1e-8 (decided in Python floats away from the threshold, where they
    and BLAS may differ in the last bit): the later normals move up and three
    more follow.  Returns the row as a list."""
    v = row[at:at + 3]
    while sum(t * t for t in v.tolist()) < 2e-16 and math.sqrt(v.dot(v)) < 1e-8:
        row[at:-3] = row[at + 3:].copy()
        rng.standard_normal(out=row[-3:])
    return row.tolist()


def _pick(rng: np.random.Generator, n: int) -> int:
    """``int(rng.integers(n))``, whose draw for ``n = 1`` is skipped: numpy
    returns 0 then without touching the bit generator."""
    return int(rng.integers(n)) if n > 1 else 0


def _state_rows(dim: int, z: np.ndarray) -> np.ndarray:
    """Pure states from rows of normals: ``v/|v|`` through ``BlochState``, or unit kets."""
    if dim == 2:
        return bloch_vectors(z / np.sqrt(np.vecdot(z, z))[:, None])
    ket = z[:, :dim] + 1j * z[:, dim:]
    return ket / _ket_norm(ket)[:, None]


def _pair_states(dims, z: np.ndarray) -> list[np.ndarray]:
    """The states, on blocks of dimensions ``dims``, of pairs drawn into rows ``z``."""
    ends = _state_layout(dims)[0]
    return [_state_rows(d, z[:, a:b]) for d, a, b in zip(dims, ends, ends[1:])]


def _cap_local(half: float, u: float, r: float) -> list[float]:
    """Unit vector at polar angle ``half sqrt(u)``, azimuth ``2 pi r`` (``math`` trig)."""
    theta, phi = half * math.sqrt(u), 2.0 * math.pi * r
    sin = math.sin(theta)
    return [sin * math.cos(phi), sin * math.sin(phi), math.cos(theta)]


def _rotated(rotation: np.ndarray, local) -> np.ndarray:
    """``rotation @ v`` per ``_cap_local`` vector ``v`` (``local`` or its rows), as ``(k, 3)``."""
    return (rotation @ np.array(local).reshape(-1, 3)[..., None])[..., 0]


def _random_elements(L: LexIsocone, rng: np.random.Generator,
                     member: np.ndarray) -> list[np.ndarray]:
    """Random elements, drawn one after another; per block a stack
    ``(count, d, d)``.  Where ``member`` is set a random member: per block a
    jitter uniform and a cone element of scale 0.3 (a cap direction, a trace
    normal and a length uniform, or Gaussian entries), offset by chain levels
    ``LEVEL_SPREAD`` apart or wider, so that every strict pair keeps a gap.
    Elsewhere ``random_herm`` blocks of scale 1.  Pauli sums, ``_herm_entries``
    and real level shifts keep every stack Hermitian to the bit, unchecked."""
    normal, sizes = [], [2 * c.dim * c.dim for c in L.components]
    for c, size in zip(L.components, sizes):
        normal += [False] + ([True] * size if c.cone.is_full else [False, False, True, False])
    starts = [k for k in range(len(normal)) if k == 0 or normal[k] != normal[k - 1]]
    runs = [(normal[a], a, b) for a, b in zip(starts, starts[1:] + [len(normal)])]
    draws = np.empty((len(member), max(len(normal), sum(sizes))))
    for row, flag in zip(draws, member.tolist()):
        for is_normal, a, b in runs if flag else [(True, 0, sum(sizes))]:
            (rng.standard_normal if is_normal else rng.random)(out=row[a:b])
    drawn, col, jitters, smalls = draws[member], 0, [], []
    for c, size in zip(L.components, sizes):
        jitters.append(-0.4 + 0.8 * drawn[:, col])
        if c.cone.is_full:
            smalls.append(_herm_entries(drawn[:, col + 1:col + 1 + size], c.dim, 0.3))
        else:
            trace, length = drawn[:, col + 3:col + 5].T
            v = _rotated(c.cone.rotation, [_cap_local(c.cone.rho, *ur)
                                           for ur in drawn[:, col + 1:col + 3].tolist()])
            smalls.append(_pauli_stack((0.3 * trace)[:, None, None], (0.3 * length)[:, None] * v))
        col += 1 + (size if c.cone.is_full else 4)
    levels = L.poset.levels()
    ext = [eigenvalues(small)[:, [0, -1]] + jit[:, None] for small, jit in zip(smalls, jitters)]
    need = [(ext[x][:, 1] - ext[y][:, 0]) / (levels[y] - levels[x])
            for x, y in L.poset.strict_pairs()]
    spacing = np.maximum(LEVEL_SPREAD, (np.max(need, axis=0) if need else 0.0) + LEVEL_MARGIN)
    blocks, ends, free = [], np.cumsum([0] + sizes), draws[~member]
    for c, small, lev, jit, a, b in zip(L.components, smalls, levels, jitters, ends, ends[1:]):
        stack = np.empty((len(member), c.dim, c.dim), dtype=complex)
        stack[member] = small + (spacing * float(lev) + jit)[:, None, None] * np.eye(c.dim)
        stack[~member] = _herm_entries(free[:, a:b], c.dim, 1.0)
        blocks.append(stack)
    return blocks


def _scalar_step_member(L: LexIsocone, x: int, lo: float = 0.0, hi: float = 1.0) -> tuple:
    """Scalar member taking value hi on the up-set of x and lo elsewhere: its
    blocks ``level * I`` and a dict of their extremes ``(level, level)``,
    which equal ``eigenvalues`` of those blocks bit for bit."""
    levels = np.where(L.poset.relation[x], hi, lo)
    return ([level * np.eye(d, dtype=complex) for level, d in zip(levels, L.block_dims)],
            {z: np.full(2, level) for z, level in enumerate(levels)})


def _witness_centres(comp: LexComponent, s1: np.ndarray, s2: np.ndarray,
                     eps: float) -> np.ndarray:
    """Block entries ``(k, d, d)`` of the same-block witnesses of the state
    rows ``s1``, ``s2``: ``eps`` times the minimizing cap direction on a cap
    block; the projector gap ``eps (p1 - p2)`` on a full block, whose order
    is equality.  Each entry is traceless with rank at most two, so
    ``_rank_two_extremes`` gives its extreme eigenvalues.  Pauli stacks are
    Hermitian to the bit and are used as built; the ket projectors of a
    block of dimension 1 or at least 3 are symmetrized, since the complex
    products ``k_i conj(k_j)`` and ``k_j conj(k_i)`` may round apart."""
    if not comp.cone.is_full:
        direction, _ = min_cap_dot(comp.cone, s2 - s1)
        return _pauli_stack(0.0, eps * direction)
    if comp.dim == 2:
        return eps * (_pauli_stack(0.5, s1 / 2.0) - _pauli_stack(0.5, s2 / 2.0))
    k1, k2 = (k / _ket_norm(k)[:, None] for k in (s1, s2))
    p1, p2 = k1[:, :, None] * k1.conj()[:, None, :], k2[:, :, None] * k2.conj()[:, None, :]
    return _symmetrized(eps * (p1 - p2))


def _rank_two_extremes(w: np.ndarray) -> np.ndarray:
    """Extreme eigenvalues ``(k, 2)`` of a stack ``(k, d, d)`` of traceless
    Hermitian matrices of rank at most two: their spectra are ``-r, 0, ...,
    0, r`` with ``2 r^2`` the squared Frobenius norm."""
    flat = w.reshape(len(w), -1)
    return np.sqrt(0.5 * np.vecdot(flat, flat).real)[:, None] * [-1.0, 1.0]


class ConsistencyReport(_Record):
    """Outcome of checking the lexicographic order against its cone."""

    __slots__ = ("pairs_checked", "members_checked", "monotonicity_violations",
                 "witness_failures")

    def __init__(self, pairs_checked: int, members_checked: int,
                 monotonicity_violations: list | None = None,
                 witness_failures: list | None = None):
        self._set(pairs_checked, members_checked,
                  [] if monotonicity_violations is None else monotonicity_violations,
                  [] if witness_failures is None else witness_failures)

    @property
    def passed(self) -> bool:
        return not self.monotonicity_violations and not self.witness_failures

    def to_json(self) -> dict:
        return {**self._asdict(), "passed": self.passed}


def lex_order_consistency_check(L: LexIsocone, samples: int,
                                rng: np.random.Generator | None = None) -> ConsistencyReport:
    """Check the induced-order formula against element-wise comparison.

    For random state pairs: whenever the lexicographic order relates
    them, no sampled member may decrease between them; whenever it does
    not, a separating member is constructed (scalar steps across
    blocks, cone directions within a block) and verified.

    Members and samples are drawn first; the checks draw nothing.  Per
    ``(x, y)``, relatedness and bounded row slice, related pairs meet all
    members as one array and same-block witnesses form one stack
    ``(k, d, d)``; each x's cross-block witness is built and tested once.
    No witness block is solved: a scalar block's extremes are its level and
    a same-block entry's come from ``_rank_two_extremes``.  Report entries,
    the only ``HermMat``s built, follow sample order, then member order.
    """
    rng = rng or np.random.default_rng(0)
    members = _random_elements(L, rng, np.ones(max(8, samples // 8), dtype=bool))
    groups = _lex_samples(L, samples, rng)
    stacks = [BlockStack(m) for m in members]
    violations: dict[int, list] = {}
    failures: dict[int, dict] = {}
    cross = {}  # x -> its cross-block witness and whether that is a member
    for (x, y, related), group in groups.items():
        if x != y and not related:
            if x not in cross:
                witness, ext = _scalar_step_member(L, x)
                cross[x] = witness, _lex_members(L, witness, ext)
            witness, member = cross[x]
        elif not related:
            witness, ext = _scalar_step_member(L, x, -2.0 * WITNESS_EPS, 2.0 * WITNESS_EPS)
        dim = max(L.components[x].dim, L.components[y].dim)
        # Row slices bound the (rows, members, d) values and (rows, d, d) witnesses.
        step = max(1, (1 << 12) // (dim * (len(members[0]) if related else dim)))
        for lo in range(0, len(group[0]), step):
            ks, s1, s2 = (a[lo:lo + step] for a in group)
            if related:
                v1, v2 = stacks[x].values(s1[:, None]), stacks[y].values(s2[:, None])
                for j, m in np.argwhere(v1 > v2 + STATE_TOL).tolist():
                    violations.setdefault(ks[j], []).append(
                        {"x": x, "y": y, "value_gap": float(v1[j, m] - v2[j, m]),
                         "blocks": [HermMat(b[m]).to_json() for b in members]})
                continue
            if x != y:
                witness_x, witness_y, ok = witness[x], witness[y], member
            else:
                witness_x = witness_y = _witness_centres(L.components[x], s1, s2, WITNESS_EPS)
                ok = _lex_members(L, [witness_x if z == x else b for z, b in enumerate(witness)],
                                  {**ext, x: _rank_two_extremes(witness_x)})
            ok = np.broadcast_to(ok, len(ks))
            for j in np.nonzero(~ok)[0].tolist():
                failures[ks[j]] = {"x": x, "y": y, "reason": "witness not a member",
                                   "blocks": [HermMat(witness_x[j] if z == x == y else b).to_json()
                                              for z, b in enumerate(witness)]}
            v1, v2 = BlockStack(witness_x).values(s1), BlockStack(witness_y).values(s2)
            for j in np.nonzero(ok & ~(v1 > v2))[0].tolist():
                failures[ks[j]] = {"x": x, "y": y, "reason": "witness does not separate",
                                   "value_gap": float(v1[j] - v2[j])}
    return ConsistencyReport(
        pairs_checked=samples, members_checked=len(members[0]),
        monotonicity_violations=[v for k in sorted(violations) for v in violations[k]],
        witness_failures=[failures[k] for k in sorted(failures)])


def _lex_samples(L: LexIsocone, samples: int, rng: np.random.Generator) -> dict:
    """lex-order's state pairs: per sample a block x, a block y (x itself
    with probability 1/2, else drawn) and a random pure state of each, Bloch
    states on 2x2 blocks.  Grouped by ``(x, y, related)`` in order of first
    appearance; each group holds sample indices and two state stacks."""
    n, dims = L.poset.size, L.block_dims
    layouts = {(a, b): _state_layout((a, b)) for a in set(dims) for b in set(dims)}
    z = np.empty((samples, max(ends[-1] for ends, _ in layouts.values())))
    by_pair: dict[tuple, list] = {}
    for k in range(samples):
        x = _pick(rng, n)
        y = x if rng.random() < 0.5 else _pick(rng, n)
        ends, triples = layouts[dims[x], dims[y]]
        _draw_states(rng, z[k, :ends[-1]], triples)
        by_pair.setdefault((x, y), []).append(k)
    parts = []
    for (x, y), ks in by_pair.items():
        ks = np.array(ks)
        s1, s2 = _pair_states((dims[x], dims[y]), z[ks])
        related = _related(L, x, y, s1, s2)
        parts += [(ks[sel].tolist(), (x, y, rel), s1[sel], s2[sel])
                  for rel, sel in ((True, related), (False, ~related)) if sel.any()]
    return {key: (ks, s1, s2) for ks, key, s1, s2 in sorted(parts, key=lambda p: p[0][0])}


class SaturationReport(_Record):
    """Sampling evidence for saturation of a lexicographic isocone.

    Survivors are sampled elements that look isotone on every sampled
    state pair yet fail membership, after densified re-testing.  An
    empty survivor list means "no counterexample found", never a proof
    of saturation.  ``members_flagged`` counts sampled members that are
    not isotone on the coarse pairs, which the induced order forbids.
    """

    __slots__ = ("elements_checked", "members_included", "flagged_coarse",
                 "eliminated_by_densification", "members_flagged", "survivors")

    def __init__(self, elements_checked: int, members_included: int, flagged_coarse: int,
                 eliminated_by_densification: int, members_flagged: int = 0,
                 survivors: list | None = None):
        self._set(elements_checked, members_included, flagged_coarse,
                  eliminated_by_densification, members_flagged,
                  [] if survivors is None else survivors)

    @property
    def summary(self) -> str:
        if self.survivors:
            return f"{len(self.survivors)} saturation counterexample candidate(s)"
        return "no counterexample found"

    def to_json(self) -> dict:
        return {**self._asdict(), "summary": self.summary}


def _ordered_state_pairs(L: LexIsocone, count: int, rng: np.random.Generator) -> list:
    """Sample state pairs related by the lexicographic order: strict
    cross-block pairs mixed with same-block pairs from a dual-cap
    displacement (two unit vectors whose difference lies in K deg).  One
    part ``(x, y, x states, y states)`` per block pair."""
    strict = L.poset.strict_pairs()
    caps = [(x, c.cone.rotation, c.cone.dual_half_angle, c.cone.rotation.tolist(), array("d"))
            for x, c in enumerate(L.components) if c.dim == 2 and not c.cone.is_full]
    if not (strict or caps):
        return []
    dims = L.block_dims
    layouts = {pair: _state_layout(pair) for pair in {(dims[x], dims[y]) for x, y in strict}}
    z = np.empty((count, max([ends[-1] for ends, _ in layouts.values()], default=0)))
    u, row = np.empty(2), np.empty(3)
    rows: dict[tuple, list] = {}
    for i in range(count):
        if strict and (not caps or rng.random() < 0.5):
            x, y = strict[_pick(rng, len(strict))]
            ends, triples = layouts[dims[x], dims[y]]
            _draw_states(rng, z[i, :ends[-1]], triples)
            rows.setdefault((x, y), []).append(i)
            continue
        x, rotation, half, rotation_rows, accepted = caps[_pick(rng, len(caps))]
        local = l0, l1, l2 = _cap_local(half, *rng.random(out=u).tolist())
        w = [a * l0 + b * l1 + c * l2 for a, b, c in rotation_rows]
        v = _dual_tries(rng, row, w, _rotated, rotation, local)
        if v:  # the accepted normals, then the local direction, as doubles
            rows.setdefault((x, x), accepted).extend(v + local)
    parts = []
    for (x, y), got in rows.items():
        if x == y:
            drawn = np.frombuffer(got).reshape(-1, 6)
            w = _rotated(L.components[x].cone.rotation, drawn[:, 3:])
            n1, _, n2 = _dual_pairs(drawn[:, :3].copy(), w)
            parts.append((x, x, bloch_vectors(n1), bloch_vectors(n2)))
        else:
            parts.append((x, y, *_pair_states((dims[x], dims[y]), z[got])))
    return parts


def _dual_tries(rng: np.random.Generator, row: np.ndarray, w: list, exact_w, *args) -> list | None:
    """Up to 64 Bloch draws into ``row`` until one projects on the unit
    direction ``w`` (Python floats) below -1e-3, as the floats decide away
    from the threshold and ``_dual_pairs`` on the direction row
    ``exact_w(*args)`` within 1e-12.  Returns the accepted draw as a list,
    or None."""
    w0, w1, w2 = w
    for _ in range(64):
        rng.standard_normal(out=row)
        a, b, c = row.tolist()
        n2 = a * a + b * b + c * c
        if n2 < 2e-16:
            a, b, c = _redraw(rng, row, 0)
            n2 = a * a + b * b + c * c
        proj = (a * w0 + b * w1 + c * w2) / math.sqrt(n2)
        if abs(proj + 1e-3) <= 1e-12:
            proj = _dual_pairs(row[None], exact_w(*args))[1][0]
        if proj < -1e-3:
            return [a, b, c]
    return None


def _dual_pairs(v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of normals ``v`` and unit directions ``w`` ``(k, 3)``:
    ``n1 = v/|v|`` (normalised twice), ``n1 . w`` and the unit vector
    ``n2 = n1 - 2 (n1 . w) w``, so that n2 - n1 lies along w."""
    n1 = v / np.sqrt(np.vecdot(v, v))[:, None]
    n1 = n1 / np.sqrt(np.vecdot(n1, n1))[:, None]
    proj = np.vecdot(n1, w)
    n2 = n1 + (-2.0 * proj)[:, None] * w
    return n1, proj, n2 / np.sqrt(np.vecdot(n2, n2))[:, None]


def _isotone_on_pairs(L: LexIsocone, blocks, pairs, tol: float) -> np.ndarray:
    """Per element of the stacks ``blocks[z]`` ``(c, d, d)``: it decreases on
    none of the pairs.  One ``BlockStack`` per block; per part, slices of its
    pairs bound the ``(c, pairs)`` values and their ``(c, pairs, d)`` kets."""
    ok, dims = np.ones(len(blocks[0]), dtype=bool), L.block_dims
    stacks = [BlockStack(b[:, None]) for b in blocks]
    for x, y, s1, s2 in pairs:
        step = max(1, (1 << 16) // (len(ok) * max(dims[x], dims[y])))
        for lo in range(0, len(s1), step):
            v1, v2 = stacks[x].values(s1[lo:lo + step]), stacks[y].values(s2[lo:lo + step])
            ok &= ~np.any(v1 > v2 + tol, axis=1)
    return ok


def _targeted_pairs(L: LexIsocone, mats, rng: np.random.Generator) -> list:
    """Stress pairs aimed at the likely violations of the element ``mats``."""
    pairs = [(x, y, _extreme_state(mats[x], -1), _extreme_state(mats[y], 0))
             for x, y in L.poset.strict_pairs()]
    for x, comp in enumerate(L.components):
        if comp.dim != 2 or comp.cone.is_full:
            continue
        _, v = pauli_coefficients(mats[x])
        if float(np.linalg.norm(v)) <= ZERO_VEC_TOL:
            continue
        dual = CapIsocone(comp.cone.axis, max(comp.cone.dual_half_angle, 1e-12))
        w_star, value = min_cap_dot(dual, v)
        row, w = np.empty(3), _unit(w_star)
        if value < 0.0 and _dual_tries(rng, row, w.tolist(), np.atleast_2d, w):
            n1, _, n2 = _dual_pairs(row[None], w[None])
            pairs.append((x, x, bloch_vectors(n1), bloch_vectors(n2)))
    return pairs


def _extreme_state(mat: np.ndarray, k: int) -> np.ndarray:
    """Eigenstate of the block's bottom (``k = 0``) or top (``k = -1``)
    eigenvalue as a one-row stack: on a 2x2 block ``c*I + v.sigma`` the Bloch
    vector ``-v/|v|`` or ``v/|v|`` (+z or -z at ``v = 0``) after
    ``BlochState``'s check and division, else the ``eigh`` column."""
    if mat.shape[-1] == 2:
        _, v = pauli_coefficients(mat)
        norm = np.linalg.norm(v)
        sign = 1.0 if k else -1.0
        return bloch_vectors([sign * v / norm if norm else np.array([0.0, 0.0, -sign])])
    return np.linalg.eigh(mat)[1][None, :, k]


def saturation_check(L: LexIsocone, state_samples: int, element_samples: int,
                     rng: np.random.Generator | None = None) -> SaturationReport:
    """Search for elements isotone on sampled pairs but outside the cone.

    Sampled elements mix known members with free Hermitian draws.
    Elements flagged on the coarse pair sample are re-tested at ten times
    the density plus targeted extreme-state pairs before being reported as
    candidates.  Elements are tested as stacks, densified one at a time.
    """
    rng = rng or np.random.default_rng(0)
    coarse = _ordered_state_pairs(L, state_samples, rng)
    is_member = np.arange(element_samples) % 3 == 0
    blocks = _random_elements(L, rng, is_member)
    member = _lex_members(L, blocks)
    if np.any(is_member & ~member):
        raise AssertionError("constructed member failed membership")
    isotone = _isotone_on_pairs(L, blocks, coarse, STATE_TOL)
    flagged = np.nonzero(~member & isotone)[0].tolist()
    report = SaturationReport(elements_checked=element_samples,
                              members_included=int(is_member.sum()),
                              flagged_coarse=len(flagged), eliminated_by_densification=0,
                              members_flagged=int(np.sum(member & ~isotone)))
    for e in flagged:
        dense = _ordered_state_pairs(L, 10 * state_samples, rng)
        dense += _targeted_pairs(L, [b[e] for b in blocks], rng)
        if np.all(_isotone_on_pairs(L, [b[e:e + 1] for b in blocks], dense, STATE_TOL)):
            report.survivors.append([HermMat(b[e]).to_json() for b in blocks])
        else:
            report.eliminated_by_densification += 1
    return report
