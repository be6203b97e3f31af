"""Dense complex Hermitian matrices at desk scale.

Carrier arithmetic for everything else in the package: spectra with
explicit rank-one eigenprojectors, a piecewise-linear non-decreasing
functional calculus, semidefiniteness tests and operator norms, up to
dimension 16.  The one spectral kernel is numpy's LAPACK: ``eigh`` in
``spectrum``, ``eigvalsh`` in ``eigenvalues`` (stacks ``(..., d, d)``, a
closed form in dimension 2, checked against a Jacobi oracle in the
tests).  lex-order's witnesses never reach it: ``isocone`` takes the
extremes of a scalar block ``level * I`` as ``(level, level)`` and those
of a same-block entry (traceless, rank at most two) as -+ its Frobenius
norm over sqrt 2.  The pure states of M2(C) (``BlochState``) and its cap
cones (``CapIsocone``) live here, since every experiment's config holds
one, and so do the bases of the package's small record types.
Tolerances are module constants, recorded in the run manifest.
"""

from __future__ import annotations

import math

import numpy as np

from .poset import _as_number

MAX_DIM = 16
HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-9
# Tolerances of the states and cones of M2(C) and of the isocone orders.
ANGLE_TOL = 1e-10
ZERO_VEC_TOL = 1e-10
SPECTRAL_TOL = 1e-10
STATE_TOL = 1e-9
BLOCH_NORM_TOL = 1e-12

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])  # x, y, z
PAULI.setflags(write=False)


def _not_hermitian(stack: np.ndarray, tol: float) -> np.ndarray:
    """Per-matrix flag: anti-Hermitian part above ``tol * max(1, max |entry|)``."""
    defect = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return defect > tol * np.abs(stack).max(axis=(-2, -1), initial=1.0)


def _symmetrized(stack: np.ndarray) -> np.ndarray:
    return (stack + stack.conj().swapaxes(-1, -2)) / 2.0


def _hermitian_part(stack: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """The symmetrized matrix or stack, after the check ``HermMat`` makes."""
    if _not_hermitian(stack, tol).any():
        raise ValueError("matrix is not Hermitian within tolerance")
    return _symmetrized(stack)


def _scalar_map(f, *arrays) -> np.ndarray:
    """``f`` (a ``math`` function) on the entries of 1-d ``arrays``, one
    scalar call per entry: numpy's SIMD loops may differ from libm in the
    last bit, and every grid, witness and state must equal its scalar form."""
    return np.fromiter(map(f, *(np.asarray(a).tolist() for a in arrays)), float)


def _pauli_stack(c: float, v: np.ndarray) -> np.ndarray:
    """``c*I + v . sigma`` for real ``v`` of shape ``(..., 3)``, summed term by term."""
    m = c * np.eye(2, dtype=complex)
    for i, sigma in enumerate(PAULI):
        m = m + v[..., i, None, None] * sigma
    return m


def pauli_coefficients(mats) -> tuple[np.ndarray, np.ndarray]:
    """``(c, v)`` with ``a = c*I + v . sigma`` for a 2x2 array or a stack ``(..., 2, 2)``.

    Read from the entries: ``c = (a00 + a11)/2`` and
    ``v = (Re a01, -Im a01, (a00 - a11)/2)``; ``v`` has shape ``(..., 3)``.
    """
    a = np.asarray(mats)
    p, q, w = a[..., 0, 0].real, a[..., 1, 1].real, a[..., 0, 1]
    v = np.empty(a.shape[:-2] + (3,))
    v[..., 0] = w.real
    v[..., 1] = -w.imag
    v[..., 2] = (p - q) / 2.0
    return (p + q) / 2.0, v


class _Record:
    """Base of the package's records: the fields are the leaf class's
    ``__slots__``, in order, and ``__init__`` sets them through ``_set``.
    Equal to a record of the same class with equal field values, never to
    a tuple or another class; unhashable, since fields may change;
    ``Class(field=value, ...)`` as repr.  Plain classes, because a
    dataclass runs generated source on every import."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _asdict(self) -> dict:
        return dict(zip(self.__slots__, self._values()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A ``_Record`` whose fields are set once: assignment raises
    AttributeError, and the hash is the fields' hash."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by assigning slots.
        return type(self), self._values()


class HermMat:
    """Hermitian matrix of dimension 1..16.

    Construction rejects inputs whose anti-Hermitian part exceeds the
    tolerance and then symmetrizes exactly, so round-off accumulated by
    callers cannot leak into downstream spectra.  Instances are
    immutable; the backing array is marked read-only.
    """

    __slots__ = ("_mat",)

    def __init__(self, data, tol: float = HERMITICITY_TOL):
        mat = np.array(data, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        dim = mat.shape[0]
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension {dim} outside the supported range 1..{MAX_DIM}")
        mat = _hermitian_part(mat, tol)
        mat.setflags(write=False)
        self._mat = mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    @property
    def mat(self) -> np.ndarray:
        """Read-only view of the underlying complex array."""
        return self._mat

    @classmethod
    def diag(cls, entries) -> "HermMat":
        return cls(np.diag(np.asarray(entries, dtype=float)).astype(complex))

    @classmethod
    def from_pauli(cls, c: float, v) -> "HermMat":
        """Build ``c*I + v . sigma`` from real coefficients (dimension 2)."""
        return cls(_pauli_stack(c, np.asarray(v, dtype=float)))

    def pauli_coeffs(self) -> tuple[float, np.ndarray]:
        """Decompose a 2x2 matrix as ``c*I + v . sigma``; returns (c, v)."""
        if self.dim != 2:
            raise ValueError("Pauli decomposition requires dimension 2")
        c, v = pauli_coefficients(self._mat)
        return float(c), v

    def __add__(self, other: "HermMat") -> "HermMat":
        return HermMat(self._mat + other._mat)

    def __sub__(self, other: "HermMat") -> "HermMat":
        return HermMat(self._mat - other._mat)

    def __mul__(self, scalar: float) -> "HermMat":
        return HermMat(self._mat * float(scalar))

    __rmul__ = __mul__

    def to_json(self) -> dict:
        """Serialize as ``{dim, re, im}`` with row-major real/imag parts."""
        return {
            "dim": self.dim,
            "re": [float(x) for x in self._mat.real.ravel()],
            "im": [float(x) for x in self._mat.imag.ravel()],
        }

    def __repr__(self) -> str:
        return f"HermMat(dim={self.dim})"


class Spectrum:
    """Eigenvalues (ascending, with multiplicity) and rank-one projectors."""

    __slots__ = ("eigenvalues", "projectors")

    def __init__(self, eigenvalues: np.ndarray, projectors: tuple[HermMat, ...]):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.projectors = tuple(projectors)


class MonotoneFn:
    """Piecewise-linear non-decreasing function on the reals.

    Defined by strictly increasing knots and non-decreasing values;
    extended affinely outside the outermost knots with the slope of the
    end segments (constant when there is a single knot).
    """

    __slots__ = ("knots", "values")

    def __init__(self, knots, values):
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or knots.shape != values.shape or knots.size == 0:
            raise ValueError("knots and values must be equal-length 1-d arrays")
        if knots.size > 1 and not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing")
        if np.any(np.diff(values) < 0):
            raise ValueError("values must be non-decreasing")
        knots.setflags(write=False)
        values.setflags(write=False)
        self.knots = knots
        self.values = values

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        k, vals = self.knots, self.values
        if k.size == 1:
            out = np.full_like(t_arr, vals[0], dtype=float)
        else:
            out = np.interp(t_arr, k, vals)
            left = (vals[1] - vals[0]) / (k[1] - k[0])
            right = (vals[-1] - vals[-2]) / (k[-1] - k[-2])
            out = np.where(t_arr < k[0], vals[0] + left * (t_arr - k[0]), out)
            out = np.where(t_arr > k[-1], vals[-1] + right * (t_arr - k[-1]), out)
        if np.isscalar(t) or getattr(t, "ndim", 0) == 0:
            return float(out)
        return out


def eigenvalues(mats) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian array or a stack ``(..., d, d)``.

    Dimension 2 uses the closed form ``mean -/+ radius``; other
    dimensions call ``np.linalg.eigvalsh``, which reads only the lower
    triangle of each matrix.
    """
    a = np.asarray(mats)
    if a.shape[-1] != 2:
        return np.linalg.eigvalsh(a)
    p, q = a[..., 0, 0].real, a[..., 1, 1].real
    mean = 0.5 * (p + q)
    radius = np.hypot(0.5 * (p - q), np.abs(a[..., 0, 1]))
    return np.stack([mean - radius, mean + radius], axis=-1)


def spectrum(a: HermMat) -> Spectrum:
    """Spectral decomposition with real ascending eigenvalues.

    Returns one rank-one projector per eigenvalue entry (repeated
    eigenvalues get an arbitrary orthonormal basis of their eigenspace).
    """
    w, vecs = np.linalg.eigh(a.mat)
    return Spectrum(w, tuple(HermMat(np.outer(v, v.conj())) for v in vecs.T))


def apply_monotone(a: HermMat, f: MonotoneFn) -> HermMat:
    """Functional calculus ``sum f(lam_i) P_i = V f(w) V^H`` for a
    non-decreasing f, from one eigendecomposition ``a = V w V^H``."""
    w, vecs = np.linalg.eigh(a.mat)
    return HermMat((vecs * f(w)) @ vecs.conj().T)


def is_psd(a: HermMat, tol: float = PSD_TOL) -> bool:
    """True iff the smallest eigenvalue is at least ``-tol``."""
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    return float(eigenvalues(a.mat)[0]) >= -tol


def _matrix(a) -> np.ndarray:
    return a.mat if isinstance(a, HermMat) else np.asarray(a, dtype=complex)


def op_norm(a) -> float:
    """Largest singular value; for Hermitian input this is max |eigenvalue|."""
    return float(np.linalg.norm(_matrix(a), 2))


def commutator(a, b) -> np.ndarray:
    """``ab - ba`` of two square matrices of one shape (``HermMat`` or arrays);
    for ``HermMat`` inputs, Hermitian to the bit, it is anti-Hermitian up to
    rounding."""
    am, bm = _matrix(a), _matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return am @ bm - bm @ am


def random_herm(rng: np.random.Generator, dim: int, scale: float = 1.0) -> HermMat:
    """Random Hermitian matrix with independent Gaussian entries."""
    return HermMat(_herm_entries(rng.standard_normal(2 * dim * dim), dim, scale))


def _herm_entries(normals, dim: int, scale: float) -> np.ndarray:
    """The entries of ``random_herm`` from normals ``(..., 2 dim^2)``: ``scale
    (g + g^H) / 2`` with ``g = re + 1j im``, real parts first, row-major; a
    stack ``(..., dim, dim)`` Hermitian to the bit, so ``HermMat`` keeps it."""
    z = np.reshape(normals, np.shape(normals)[:-1] + (2, dim, dim))
    g = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    return scale * (g + g.conj().swapaxes(-1, -2)) / 2.0


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if not 0.0 < norm < math.inf:
        raise ValueError("need a finite non-zero vector")
    return v / norm


class BlochState:
    """Pure state of M2(C) as a unit vector on the Bloch sphere."""

    __slots__ = ("n",)

    def __init__(self, n):
        n = np.asarray(n, dtype=float)
        if n.shape != (3,):
            raise ValueError("Bloch vector must have three components")
        n = bloch_vectors(n[None])[0]
        n.setflags(write=False)
        self.n = n

    def projection(self) -> HermMat:
        """Rank-one projection (I + n.sigma)/2."""
        return HermMat.from_pauli(0.5, self.n / 2.0)

    def __repr__(self) -> str:
        return f"BlochState({self.n.tolist()})"


def bloch_vectors(rows) -> np.ndarray:
    """The unit Bloch vectors of the rows of a ``(k, 3)`` array: each row's
    norm must be 1 within ``BLOCH_NORM_TOL``, and the row is divided by it.
    ``BlochState`` normalises through this function."""
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
        return cls(_as_number(obj["axis"], "axis", 3), _as_number(obj["rho"], "rho"))

    def __repr__(self) -> str:
        if self.is_full:
            return "CapIsocone(full)"
        return f"CapIsocone(axis={self.axis.tolist()}, rho={self.rho})"


def _rotation_to(axis: np.ndarray) -> np.ndarray:
    """Rotation matrix taking +z to the given unit axis."""
    z = np.array([0.0, 0.0, 1.0])
    k = np.cross(z, axis)
    s = float(np.linalg.norm(k))
    if s == 0.0:  # the axis is +z or -z; the Rodrigues form holds for any s > 0
        return np.eye(3) if axis[2] > 0.0 else np.diag([1.0, -1.0, -1.0])
    c = float(np.dot(z, axis))
    k = k / s
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + s * kx + (1.0 - c) * (kx @ kx)
