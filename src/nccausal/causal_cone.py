"""Causal cone of the product geometry: Minkowski plane times M2(C).

A Hermitian-matrix-valued field on the plane belongs to the causal
cone when, at every point, the 4x4 block matrix

    [[ 2 du alpha,  [D_F, alpha] ],
     [ -[D_F, alpha],  2 dv alpha ]]

is positive semidefinite (du, dv are light-cone derivatives and D_F
the finite Dirac matrix), checked node by node on a sampled field; the
eigenvalue clock probe shows how a cone member differs from an isocone
member.  D_F, its spectral distance and the order on product pure
states live in ``spectral``.  Of the experiments only cone-check
imports this module.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from itertools import chain

import numpy as np

from .hermitian import (HERMITICITY_TOL, HermMat, PSD_TOL, _as_number, _not_hermitian, _Record,
                        _symmetrized, as_index, eigenvalues)
from .minkowski import Event
from .spectral import FiniteDirac

NODE_TOL = 1e-9  # distance at which MatrixField.node_index takes an event for a node
CLOCK_TOL = 1e-9  # eigenvalue decrease that eigenvalue_clock_probe ignores
MAX_FIELD_N = 257  # nodes per axis accepted by MatrixField.from_json
# Largest real or imaginary part of a derivative, and of a value times
# 1 / min(1, h) for the smaller node spacing h (README "Limits"): finite
# differences of such values stay below DERIV_MAX, and no sum or difference
# the load, the tolerance or the cone blocks form from them overflows.
VALUE_MAX = sys.float_info.max / 1024.0
DERIV_MAX = sys.float_info.max / 64.0


def cone_block_matrix(alpha_u: np.ndarray, alpha_v: np.ndarray,
                      dirac_comm: np.ndarray) -> np.ndarray:
    """Block matrix whose positivity is the cone condition at a point.

    Takes 2x2 arrays or stacks ``(..., 2, 2)`` of them, all of one shape,
    and fills one complex array with the four blocks.
    """
    blocks = np.empty(np.shape(dirac_comm)[:-2] + (4, 4), complex)
    blocks[..., :2, :2] = 2.0 * alpha_u
    blocks[..., :2, 2:] = dirac_comm
    blocks[..., 2:, :2] = -dirac_comm
    blocks[..., 2:, 2:] = 2.0 * alpha_v
    return blocks


def cone_condition_at(alpha_u: HermMat, alpha_v: HermMat, alpha: HermMat,
                      dirac: FiniteDirac, tol: float = PSD_TOL) -> bool:
    """Pointwise cone condition from light-cone derivatives and the Dirac commutator."""
    return not _outside_cone(alpha_u.mat, alpha_v.mat, alpha.mat, dirac, tol)


def _outside_cone(alpha_u, alpha_v, alpha, dirac: FiniteDirac, tol: float) -> np.ndarray:
    """Flag over stacks ``(..., 2, 2)`` of matrices Hermitian to the bit: the
    block lies outside the cone; one eigen-solve call.  D is real and
    diagonal, so the commutator is ``d_i a_ij - a_ij d_j``, computed entry
    by entry, and ``C_ji == -conj(C_ij)``: the blocks are Hermitian to the bit."""
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    d = np.array([dirac.d1, dirac.d2])
    blocks = cone_block_matrix(alpha_u, alpha_v, d[:, None] * alpha - alpha * d)
    return ~(eigenvalues(blocks)[..., 0] >= -tol)


def scalar_causal_iff(grad_u: float, grad_v: float) -> bool:
    """Causality criterion for scalar fields: both light-cone derivatives >= 0."""
    return grad_u >= 0.0 and grad_v >= 0.0


class MatrixField:
    """M2(C)-valued field sampled on a uniform (u, v) lattice.

    Derivatives are either supplied, both of them, or decided by
    ``derivatives_kind``: ``analytic:time-plus-constant`` (samples
    ``(u + v)/2 * I`` plus a constant, derivatives ``I/2``),
    ``analytic:affine`` (vanishing second differences, on which central
    differences are exact) or ``finite-difference``, second-order central
    differences (one-sided at the edges); without supplied derivatives any
    other label is a ValueError.  The values and supplied derivatives must
    have shape ``(n, n, 2, 2)`` and be Hermitian within ``HERMITICITY_TOL``
    at every node (else a ValueError names the first bad node); they are
    symmetrized here, and nothing downstream checks them again.  The node
    spacing h on each axis must lie in ``[sqrt(min), sqrt(max / 8)]`` of
    the float range: ``np.gradient`` multiplies spacings, h by h on the grid
    and 2h by 4h on the stride-2 subgrid of ``discretization_tolerance``.
    Every real and imaginary part of a value is at most ``VALUE_MAX *
    min(1, h)`` for the smaller spacing h, and of a derivative, supplied or
    computed, at most ``DERIV_MAX``; else a ValueError names the bound.
    """

    _json_values = None  # (values list, its parsed entries): see from_json

    def __init__(self, u_min: float, u_max: float, v_min: float, v_max: float,
                 n: int, values: np.ndarray,
                 deriv_u: np.ndarray | None = None,
                 deriv_v: np.ndarray | None = None,
                 derivatives_kind: str = "finite-difference"):
        if n < 3:
            raise ValueError("grid needs at least 3 nodes per axis")
        if not (0.0 < u_max - u_min < math.inf and 0.0 < v_max - v_min < math.inf):
            raise ValueError("grid rectangle must be finite and non-degenerate")
        lo, hi = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max / 8.0)
        spacings = ((u_max - u_min) / (n - 1), (v_max - v_min) / (n - 1))
        for h in spacings:
            if not lo <= h <= hi:
                raise ValueError(f"node spacing {h!r} lies outside [{lo:.4g}, {hi:.4g}], where "
                                 "its square underflows or 8 times its square overflows")
        if (deriv_u is None) != (deriv_v is None):
            raise ValueError("supply both derivatives or neither")
        supplied = deriv_u is not None
        for name, stack in zip(("values", "deriv_u", "deriv_v")[:3 if supplied else 1],
                               (values, deriv_u, deriv_v)):
            stack = np.asarray(stack, dtype=complex)
            if stack.shape != (n, n, 2, 2):
                raise ValueError(f"{name} must have shape ({n}, {n}, 2, 2)")
            if name == "values":
                _check_parts(name, stack, VALUE_MAX * min(1.0, *spacings),
                             "min(1, h) * max float / 1024 for the smaller node spacing h")
            else:
                _check_parts(name, stack)
            bad = _not_hermitian(stack, HERMITICITY_TOL)
            if bad.any():
                node = tuple(np.argwhere(bad)[0].tolist())
                raise ValueError(f"{name}: the matrix at node {node} is not Hermitian")
            setattr(self, name, _symmetrized(stack))
        self.u = np.linspace(u_min, u_max, n)
        self.v = np.linspace(v_min, v_max, n)
        self.n = n
        if not supplied and derivatives_kind == "analytic:time-plus-constant":
            half = np.broadcast_to(0.5 * np.eye(2, dtype=complex), (n, n, 2, 2))
            self.deriv_u, self.deriv_v = half.copy(), half.copy()
        elif not supplied:
            # Nodes that round to one coordinate divide by zero: refused below.
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                self.deriv_u = np.gradient(self.values, self.u, axis=0, edge_order=2)
                self.deriv_v = np.gradient(self.values, self.v, axis=1, edge_order=2)
            _check_parts("deriv_u", self.deriv_u)
            _check_parts("deriv_v", self.deriv_v)
        for arr in (self.values, self.deriv_u, self.deriv_v):
            arr.setflags(write=False)
        if not supplied:
            derivatives_kind = self._checked_kind(derivatives_kind)
        self.derivatives_kind = derivatives_kind

    def _checked_kind(self, kind) -> str:
        """``kind``, one of the three labels, checked against the samples if analytic."""
        if kind not in ("finite-difference", "analytic:time-plus-constant", "analytic:affine"):
            raise ValueError(f"unknown derivatives label {kind!r}")
        values = self.values
        scale = max(1.0, float(np.abs(values).max()))
        if kind == "analytic:time-plus-constant":
            us = self.u[:, None, None, None]
            vs = self.v[None, :, None, None]
            residue = values - ((us + vs) / 2.0) * np.eye(2, dtype=complex)
            if np.abs(residue - residue[0, 0]).max() > 1e-9 * scale:
                raise ValueError("samples do not follow the time-plus-constant family")
        elif kind == "analytic:affine":
            d2u = np.diff(values, n=2, axis=0)
            d2v = np.diff(values, n=2, axis=1)
            if max(np.abs(d2u).max(), np.abs(d2v).max()) > 1e-9 * scale:
                raise ValueError("samples do not follow the affine family")
        return kind

    def event_at(self, i: int, j: int) -> Event:
        return Event.from_lightcone(float(self.u[i]), float(self.v[j]))

    def node_index(self, x: Event) -> tuple[int, int]:
        i = int(round((x.u - self.u[0]) / (self.u[1] - self.u[0])))
        j = int(round((x.v - self.v[0]) / (self.v[1] - self.v[0])))
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError("event lies outside the grid")
        if abs(self.u[i] - x.u) > NODE_TOL or abs(self.v[j] - x.v) > NODE_TOL:
            raise ValueError("event is not a grid node")
        return i, j

    @classmethod
    def from_json(cls, obj: dict) -> "MatrixField":
        """The field of a config's ``field`` object.  When every entry of
        ``obj["values"]`` is a float, the field keeps that list with the
        array ``_node_entries`` parsed from it, read-only, for
        ``config_dumps``; an int entry, which only ``json.dumps`` renders
        exactly, keeps nothing."""
        grid = obj["grid"]
        n = as_index(grid["n"], "grid.n")
        if not 3 <= n <= MAX_FIELD_N:
            raise ValueError(f"grid.n must lie in 3..{MAX_FIELD_N}")
        flat = obj["values"]
        if len(flat) != n * n:
            raise ValueError("values length does not match the grid")
        entries, floats = _node_entries(flat)
        re, im = entries.reshape(2, n, n, 2, 2)
        box = [_as_number(grid[k], "grid." + k) for k in ("u_min", "u_max", "v_min", "v_max")]
        field = cls(*box, n, re + 1j * im,
                    derivatives_kind=obj.get("derivatives", "finite-difference"))
        if floats:
            entries.setflags(write=False)
            field._json_values = flat, entries
        return field


def _check_parts(name: str, stack: np.ndarray, bound: float = DERIV_MAX,
                 rule: str = "max float / 64") -> None:
    """ValueError unless every real and imaginary part of ``stack`` is finite
    and at most ``bound`` (``rule``, in words) in absolute value."""
    peak = float(max(np.abs(stack.real).max(), np.abs(stack.imag).max()))
    if not peak <= bound:
        raise ValueError(f"{name}: a real or imaginary part reaches {peak!r}; each must be "
                         f"finite and at most {bound:.4g} ({rule})")


def check_dirac(field: MatrixField, dirac: FiniteDirac) -> None:
    """ValueError unless the cone blocks of ``field`` under ``dirac`` can be
    formed and solved without overflow: ``max(|d1|, |d2|)`` times every real
    or imaginary part of a value at most max float, so the commutator's
    products ``d_i alpha_ij`` are finite, and ``|d1 - d2|`` times every
    off-diagonal ``|alpha_01|`` at most max float / 2, so each block, whose
    derivative blocks ``DERIV_MAX`` bounds, has finite eigenvalues."""
    values, top = field.values, sys.float_info.max
    reach = max(abs(dirac.d1), abs(dirac.d2)) * float(np.abs(values.view(float)).max())
    wide = abs(dirac.d1 - dirac.d2) * float(np.abs(values[..., 0, 1]).max())
    if not (reach <= top and wide <= top / 2.0):
        raise ValueError(f"the cone blocks overflow: max(|d1|, |d2|) times the largest value "
                         f"part is {reach:.4g} (at most {top:.4g}) and |d1 - d2| times the "
                         f"largest off-diagonal |value| is {wide:.4g} (at most {top / 2.0:.4g})")


def _node_entries(flat: list) -> tuple[np.ndarray, bool]:
    """Every node's ``re`` list, then every node's ``im`` list, as one flat
    float array, and whether every entry is a ``float``; once each node's
    ``dim`` is the integer 2 and its ``re`` and ``im`` hold exactly 4
    numbers under ``_as_number``'s rule (lists or tuples of finite ints or
    floats); else ValueError naming the first bad node and key.  A field
    of JSON numbers is checked by type scans at C speed; only a field that
    fails them is walked node by node, and its entries never count as
    floats."""
    dims = [node["dim"] for node in flat]
    lists = [node[key] for key in ("re", "im") for node in flat]
    with contextlib.suppress(TypeError, OverflowError):  # unsized lists, ints beyond floats
        entries = [*chain.from_iterable(lists)]
        if (set(map(type, dims)) == {int} and dims.count(2) == len(dims)
                and set(map(len, lists)) == {4} and {list, tuple}.issuperset(map(type, lists))):
            types = set(map(type, entries))
            if {int, float}.issuperset(types):
                entries = np.fromiter(entries, float, len(entries))
                if np.isfinite(entries).all():
                    return entries, types == {float}
    for k, node in enumerate(flat):
        if as_index(node["dim"], f"values[{k}].dim") != 2:
            raise ValueError(f"values[{k}]: every value must be a dim 2 matrix")
        for key in ("re", "im"):
            _as_number(node[key], f"values[{k}].{key}", 4)
    return np.array(lists, dtype=float).ravel(), False  # numbers that are not JSON's: numpy scalars


# A plain node of a sampled field as canonical JSON (sorted keys, compact
# separators), and the string that holds the place of the field's values.
_NODE_JSON = '{"dim":2,"im":[%s,%s,%s,%s],"re":[%s,%s,%s,%s]}'
_VALUES_MARK = "nccausal.field.values"


def config_dumps(raw: dict, field: MatrixField, **options) -> str:
    """``json.dumps(raw, **options)`` for a config whose field is ``field``,
    under the canonical options that ``ExperimentConfig.config_hash`` passes
    (sorted keys, separators ``(",", ":")``).  When ``raw["field"]["values"]``
    is the very list that ``field`` kept at load, ``_values_json`` renders
    those values from the numbers the load parsed, and the text is spliced
    into the dump of the rest, in which a mark holds their place; the mark
    must occur once in that dump.  The kept list and its nodes must not
    change after the load."""
    obj, kept = raw.get("field"), field._json_values
    text = None
    if kept is not None and type(obj) is dict and obj.get("values") is kept[0]:
        text = _values_json(*kept)
    if text is not None:
        head, *tail = json.dumps({**raw, "field": {**obj, "values": _VALUES_MARK}},
                                 **options).split(f'"{_VALUES_MARK}"')
        if len(tail) == 1:
            return head + text + tail[0]
    return json.dumps(raw, **options)


def _values_json(values: list, entries: np.ndarray) -> str | None:
    """Canonical JSON text of ``values`` from ``entries``, the floats that
    ``_node_entries`` parsed from them, when every node has exactly its
    three keys ``dim``, ``re`` and ``im``; else None.  ``repr`` renders each
    distinct float once, as ``json.dumps`` does, with floats told apart by
    their bits, so ``0.0`` and ``-0.0`` stay apart."""
    if set(map(len, values)) != {3}:
        return None
    n = len(values)
    distinct, inverse = np.unique(entries.view(np.uint64), return_inverse=True)
    texts = np.array([*map(repr, distinct.view(np.float64).tolist())], dtype=object)
    # The entries hold every re list, then every im list; a node's text takes im first.
    order = inverse.reshape(2, n, 4)[::-1].transpose(1, 0, 2).ravel()
    return "[" + ",".join([_NODE_JSON] * n) % tuple(texts[order].tolist()) + "]"


def discretization_tolerance(field: MatrixField) -> float:
    """PSD tolerance for finite-difference fields: base + C*h^2.

    C is estimated by Richardson comparison of the gradient at spacing
    h against the gradient of the stride-2 subgrid at spacing 2h; the
    mismatch is 3*C*h^2 to leading order, so C*h^2 is a third of it and
    no spacing enters the sum (dividing by h*h could overflow).  Analytic
    fields keep the base tolerance.
    """
    if field.derivatives_kind != "finite-difference":
        return PSD_TOL
    n = field.n
    if n < 5:
        return PSD_TOL * 100.0
    idx = np.arange(0, n, 2)
    sub_vals = field.values[np.ix_(idx, idx)]
    sub_u = field.u[idx]
    sub_v = field.v[idx]
    coarse_du = np.gradient(sub_vals, sub_u, axis=0, edge_order=2)
    coarse_dv = np.gradient(sub_vals, sub_v, axis=1, edge_order=2)
    fine_du = field.deriv_u[np.ix_(idx, idx)]
    fine_dv = field.deriv_v[np.ix_(idx, idx)]
    mismatch = max(float(np.abs(coarse_du - fine_du).max()),
                   float(np.abs(coarse_dv - fine_dv).max()))
    return PSD_TOL + 2.0 * mismatch / 3.0


def field_in_cone(field: MatrixField, dirac: FiniteDirac,
                  tol: float | None = None) -> tuple[bool, tuple[int, int] | None]:
    """Cone membership over the whole grid, with the first failing node in
    row-major order.  ``MatrixField`` checked and symmetrized the values and
    derivatives when it was built, so no node is checked again here;
    ``dirac`` must pass ``check_dirac`` for ``field``."""
    if tol is None:
        tol = discretization_tolerance(field)
    failures = np.argwhere(_outside_cone(field.deriv_u, field.deriv_v, field.values, dirac, tol))
    if failures.size == 0:
        return True, None
    return False, tuple(failures[0].tolist())


def cone_check_report(field: MatrixField, dirac: FiniteDirac) -> dict:
    """cone-check's report: the field's membership at its discretization
    tolerance, with the first failing node."""
    tol = discretization_tolerance(field)
    ok, loc = field_in_cone(field, dirac, tol)
    return {
        "in_cone": ok,
        "first_failure": list(loc) if loc is not None else None,
        "tolerance": tol,
        "derivatives": field.derivatives_kind,
        "grid_n": field.n,
    }


class ClockProbeReport(_Record):
    """Eigenvalue behaviour of a cone member along the causal order."""

    __slots__ = ("eig_at_x", "eig_at_y", "monotone_along_paths", "inversion")

    def __init__(self, eig_at_x: tuple[float, float], eig_at_y: tuple[float, float],
                 monotone_along_paths: bool, inversion: dict | None):
        self._set(eig_at_x, eig_at_y, monotone_along_paths, inversion)

    @property
    def inversion_found(self) -> bool:
        return self.inversion is not None

    def to_json(self) -> dict:
        return {
            "eig_at_x": list(self.eig_at_x),
            "eig_at_y": list(self.eig_at_y),
            "monotone_along_paths": self.monotone_along_paths,
            "inversion": self.inversion,
        }


def eigenvalue_clock_probe(field: MatrixField, x: Event, y: Event) -> ClockProbeReport:
    """Probe the per-eigenvalue clocks of a cone member.

    Callers must pass a field that satisfies the cone condition and
    grid nodes with x causally below y.  Each sorted eigenvalue is
    checked to be non-decreasing along every monotone grid path, that
    is, on every unit step in u and in v.  The grid is searched for the
    first node, in row-major order, with a causal successor whose lower
    eigenvalue is below its upper eigenvalue (the behaviour separating
    causal cones from isocones).
    """
    ix, jx = field.node_index(x)
    iy, jy = field.node_index(y)
    if not (ix <= iy and jx <= jy):
        raise ValueError("x must causally precede y on the grid")
    eigs = eigenvalues(field.values)
    monotone = bool((np.diff(eigs, axis=0) >= -CLOCK_TOL).all()
                    and (np.diff(eigs, axis=1) >= -CLOCK_TOL).all())
    # Smallest lower eigenvalue over each node's causal future, itself included.
    future_min = np.minimum.accumulate(
        np.minimum.accumulate(eigs[::-1, ::-1, 0], axis=0), axis=1)[::-1, ::-1]
    inversion = None
    starts = np.argwhere(future_min < eigs[..., 1] - CLOCK_TOL)
    if starts.size:
        i, j = starts[0].tolist()
        top_here = eigs[i, j, 1]
        ki, kj = (np.argwhere(eigs[i:, j:, 0] < top_here - CLOCK_TOL)[0] + (i, j)).tolist()
        inversion = {"node_a": [i, j], "node_b": [ki, kj],
                     "upper_at_a": float(top_here),
                     "lower_at_b": float(eigs[ki, kj, 0])}
    return ClockProbeReport(
        eig_at_x=(float(eigs[ix, jx, 0]), float(eigs[ix, jx, 1])),
        eig_at_y=(float(eigs[iy, jy, 0]), float(eigs[iy, jy, 1])),
        monotone_along_paths=monotone,
        inversion=inversion,
    )
