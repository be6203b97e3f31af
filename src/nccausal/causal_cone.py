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
import math
import sys
from itertools import chain

import numpy as np

from .hermitian import (HERMITICITY_TOL, HermMat, PSD_TOL, _not_hermitian, _Record,
                        _symmetrized, eigenvalues)
from .minkowski import Event
from .poset import _as_number, as_index
from .spectral import FiniteDirac

NODE_TOL = 1e-9  # distance at which MatrixField.node_index takes an event for a node
CLOCK_TOL = 1e-9  # eigenvalue decrease that eigenvalue_clock_probe ignores
MAX_FIELD_N = 257  # nodes per axis accepted by MatrixField.from_json


def cone_block_matrix(alpha_u: np.ndarray, alpha_v: np.ndarray,
                      dirac_comm: np.ndarray) -> np.ndarray:
    """Block matrix whose positivity is the cone condition at a point.

    Takes 2x2 arrays or stacks ``(..., 2, 2)`` of them.
    """
    top = np.concatenate([2.0 * alpha_u, dirac_comm], axis=-1)
    bottom = np.concatenate([-dirac_comm, 2.0 * alpha_v], axis=-1)
    return np.concatenate([top, bottom], axis=-2)


def cone_condition_at(alpha_u: HermMat, alpha_v: HermMat, alpha: HermMat,
                      dirac: FiniteDirac, tol: float = PSD_TOL) -> bool:
    """Pointwise cone condition from light-cone derivatives and the Dirac commutator."""
    return not _cone_flags(alpha_u.mat, alpha_v.mat, alpha.mat, dirac, tol)[1]


def _cone_flags(alpha_u, alpha_v, alpha, dirac: FiniteDirac, tol: float):
    """Flags over stacks ``(..., 2, 2)``: derivative not Hermitian (supplied
    derivatives are outside input), block outside the cone; one eigen-solve
    call.  For a Hermitian ``alpha`` the blocks are Hermitian to the bit: the
    diagonal blocks are symmetrized, and D is real and diagonal, so each
    commutator entry is ``d_i a_ij - a_ij d_j`` and ``C_ji == -conj(C_ij)``."""
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    dmat = dirac.matrix.mat
    blocks = cone_block_matrix(_symmetrized(alpha_u), _symmetrized(alpha_v),
                               dmat @ alpha - alpha @ dmat)
    return (_not_hermitian(alpha_u, 1e-9) | _not_hermitian(alpha_v, 1e-9),
            ~(eigenvalues(blocks)[..., 0] >= -tol))


def scalar_causal_iff(grad_u: float, grad_v: float) -> bool:
    """Causality criterion for scalar fields: both light-cone derivatives >= 0."""
    return grad_u >= 0.0 and grad_v >= 0.0


class MatrixField:
    """M2(C)-valued field sampled on a uniform (u, v) lattice.

    Derivatives are either supplied or decided by ``derivatives_kind``:
    ``analytic:time-plus-constant`` (samples ``(u + v)/2 * I`` plus a
    constant, derivatives ``I/2``), ``analytic:affine`` (vanishing second
    differences, on which central differences are exact) or
    ``finite-difference``, second-order central differences (one-sided at
    the edges); without supplied derivatives any other label is a
    ValueError.  The node spacing on each axis must have a square of at
    least ``sys.float_info.min``: ``np.gradient`` multiplies spacings.
    """

    def __init__(self, u_min: float, u_max: float, v_min: float, v_max: float,
                 n: int, values: np.ndarray,
                 deriv_u: np.ndarray | None = None,
                 deriv_v: np.ndarray | None = None,
                 derivatives_kind: str = "finite-difference"):
        if n < 3:
            raise ValueError("grid needs at least 3 nodes per axis")
        if not (0.0 < u_max - u_min < math.inf and 0.0 < v_max - v_min < math.inf):
            raise ValueError("grid rectangle must be finite and non-degenerate")
        for h in ((u_max - u_min) / (n - 1), (v_max - v_min) / (n - 1)):
            if h * h < sys.float_info.min:
                raise ValueError(f"node spacing {h!r} is too fine: its square underflows")
        values = np.asarray(values, dtype=complex)
        if values.shape != (n, n, 2, 2):
            raise ValueError(f"values must have shape ({n}, {n}, 2, 2)")
        bad = _not_hermitian(values, HERMITICITY_TOL)
        if bad.any():
            node = tuple(np.argwhere(bad)[0].tolist())
            raise ValueError(f"value at node {node} is not Hermitian")
        self.u = np.linspace(u_min, u_max, n)
        self.v = np.linspace(v_min, v_max, n)
        self.n = n
        self.values = _symmetrized(values)
        supplied = deriv_u is not None and deriv_v is not None
        if supplied:
            self.deriv_u = np.asarray(deriv_u, dtype=complex)
            self.deriv_v = np.asarray(deriv_v, dtype=complex)
        elif derivatives_kind == "analytic:time-plus-constant":
            half = np.broadcast_to(0.5 * np.eye(2, dtype=complex), values.shape)
            self.deriv_u, self.deriv_v = half.copy(), half.copy()
        else:
            self.deriv_u = np.gradient(self.values, self.u, axis=0, edge_order=2)
            self.deriv_v = np.gradient(self.values, self.v, axis=1, edge_order=2)
        for arr in (self.values, self.deriv_u, self.deriv_v):
            if not np.isfinite(arr).all():
                raise ValueError("field values and derivatives must be finite")
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

    @property
    def hu(self) -> float:
        return float(self.u[1] - self.u[0])

    @property
    def hv(self) -> float:
        return float(self.v[1] - self.v[0])

    def event_at(self, i: int, j: int) -> Event:
        return Event.from_lightcone(float(self.u[i]), float(self.v[j]))

    def node_index(self, x: Event) -> tuple[int, int]:
        i = int(round((x.u - self.u[0]) / self.hu))
        j = int(round((x.v - self.v[0]) / self.hv))
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError("event lies outside the grid")
        if abs(self.u[i] - x.u) > NODE_TOL or abs(self.v[j] - x.v) > NODE_TOL:
            raise ValueError("event is not a grid node")
        return i, j

    @classmethod
    def from_json(cls, obj: dict) -> "MatrixField":
        grid = obj["grid"]
        n = as_index(grid["n"], "grid.n")
        if not 3 <= n <= MAX_FIELD_N:
            raise ValueError(f"grid.n must lie in 3..{MAX_FIELD_N}")
        flat = obj["values"]
        if len(flat) != n * n:
            raise ValueError("values length does not match the grid")
        re, im = _node_entries(flat).reshape(2, n, n, 2, 2)
        box = [_as_number(grid[k], "grid." + k) for k in ("u_min", "u_max", "v_min", "v_max")]
        return cls(*box, n, re + 1j * im,
                   derivatives_kind=obj.get("derivatives", "finite-difference"))


def _node_entries(flat: list) -> np.ndarray:
    """Every node's ``re`` list, then every node's ``im`` list, as one flat
    float array, once each node's ``dim`` is the integer 2 and its lists
    hold exactly 4 numbers under ``_as_number``'s rule; else ValueError
    naming the first bad node and key.  A field of JSON numbers is checked
    by type scans at C speed; only a field that fails them is walked node
    by node."""
    dims = [node["dim"] for node in flat]
    lists = [node[key] for key in ("re", "im") for node in flat]
    with contextlib.suppress(TypeError, OverflowError):  # unsized lists, ints beyond floats
        entries = [*chain.from_iterable(lists)]
        if (set(map(type, dims)) == {int} and dims.count(2) == len(dims)
                and set(map(len, lists)) == {4} and {int, float}.issuperset(map(type, entries))):
            entries = np.fromiter(entries, float, len(entries))
            if np.isfinite(entries).all():
                return entries
    for k, node in enumerate(flat):
        if as_index(node["dim"], f"values[{k}].dim") != 2:
            raise ValueError(f"values[{k}]: every value must be a dim 2 matrix")
        for key in ("re", "im"):
            _as_number(node[key], f"values[{k}].{key}", 4)
    return np.array(lists, dtype=float).ravel()  # numbers that are not JSON's: numpy scalars


def discretization_tolerance(field: MatrixField) -> float:
    """PSD tolerance for finite-difference fields: base + C*h^2.

    C is estimated by Richardson comparison of the gradient at spacing
    h against the gradient of the stride-2 subgrid at spacing 2h; the
    mismatch is 3*C*h^2 to leading order.  Analytic fields keep the
    base tolerance.
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
    h = max(field.hu, field.hv)
    c_est = mismatch / (3.0 * h * h) if h > 0 else 0.0
    return PSD_TOL + 2.0 * c_est * h * h


def field_in_cone(field: MatrixField, dirac: FiniteDirac,
                  tol: float | None = None) -> tuple[bool, tuple[int, int] | None]:
    """Cone membership over the whole grid, with the first failing node.

    Nodes are decided in row-major order: at the first flagged node a
    non-Hermitian derivative raises ValueError, and otherwise the node is
    the failure.
    """
    if tol is None:
        tol = discretization_tolerance(field)
    bad_deriv, outside = _cone_flags(field.deriv_u, field.deriv_v, field.values, dirac, tol)
    failures = np.argwhere(bad_deriv | outside)
    if failures.size == 0:
        return True, None
    node = (int(failures[0][0]), int(failures[0][1]))
    if bad_deriv[node]:
        raise ValueError(f"derivative at node {node} is not Hermitian within tolerance")
    return False, node


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
