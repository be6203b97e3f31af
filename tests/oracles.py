"""Independent numerical oracles used to freeze expected test values.

Everything here deliberately avoids the closed forms installed in the
package: brute-force sampling, dynamic programming, constrained
numerical maximization, pivoted elimination and cyclic Jacobi
rotations, so the two routes can disagree when one of them is wrong.
The scalar reference loops at the end evaluate one element, one state
pair and one sample at a time; the array forms in the package must
reproduce them bit for bit.  The scalar samplers draw one state, one
member and one pair at a time; the package's draw-first samplers must
make the same Generator calls in the same order and return the same
arrays.  ``field_from_function`` samples the test fields from callables.
``causal_leq_grid`` and ``lambda_leq_grid`` decide every cell of a
product grid; the row starts of the fig1 grids must give the same
statuses.  ``grid_csv_scalar`` and ``grid_pgm_scalar`` write the fig1
artifacts one cell at a time; the row-start writers must give the same
text.
"""

from __future__ import annotations

import math

import numpy as np

from nccausal import isocone
from nccausal.causal_cone import MatrixField
from nccausal.grids import GREY_ANNOTATIONS, STATUS_BASE, STATUS_GREY, STATUS_WHITE
from nccausal.hermitian import PAULI, HermMat, MonotoneFn, _rotation_to, eigenvalues, random_herm
from nccausal.isocone import (STATE_TOL, ZERO_VEC_TOL, BlochState, CapIsocone, ConsistencyReport,
                              LexIsocone, SaturationReport, lex_membership)
from nccausal.minkowski import Event, PenrosePoint, _check_mass, _hyperbola, lorentz_distance
from nccausal.spectral import ORDER_TOL, FiniteDirac, spectral_distance

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# The Lorentzian road's constants, which no library code reads: the gammas
# of the Minkowski plane and the Krein symmetry j = i gamma0 (x) 1 of its
# spectral triple times M2(C).
GAMMA0 = np.array([[0.0, 1.0j], [1.0j, 0.0]])
GAMMA1 = np.array([[0.0, -1.0j], [1.0j, 0.0]])
J_OPERATOR = np.kron(1.0j * GAMMA0, np.eye(2, dtype=complex))
# The fig1 CSV's cell names, by status code.
STATUS_NAMES = {STATUS_BASE: "BASE", STATUS_GREY: "GREY", STATUS_WHITE: "WHITE"}


def power_iteration_extremes(mat: np.ndarray, iters: int = 500,
                             shift: float = 10.0) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a Hermitian matrix by power
    iteration on shifted copies (independent of any eigensolver)."""
    n = mat.shape[0]
    rng = np.random.default_rng(123)

    def dominant(m):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            w = m @ v
            norm = np.linalg.norm(w)
            if norm == 0.0:
                return 0.0
            v = w / norm
            lam = float((v.conj() @ (m @ v)).real)
        return lam

    eye = np.eye(n)
    hi = dominant(mat + shift * eye) - shift
    lo = -(dominant(-mat + shift * eye) - shift)
    return lo, hi


class EigenSolverError(RuntimeError):
    """Jacobi sweep limit exceeded without reaching the target accuracy."""


def _jacobi(mat: np.ndarray, eps: float = 1e-13, max_sweeps: int = 40):
    """Cyclic complex Jacobi rotations; returns ascending eigenvalues and a unitary.

    Pure Python and numpy matmuls only, independent of the LAPACK
    routines behind the package's spectral kernel.
    """
    a = np.array(mat, dtype=complex)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(a)))
    for _ in range(max_sweeps):
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off <= eps * scale:
            w = np.diag(a).real.copy()
            order = np.argsort(w, kind="stable")
            return w[order], v[:, order]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-2 * eps * scale / (n * n):
                    continue
                phase = apq / abs(apq)
                theta = 0.5 * math.atan2(2.0 * abs(apq), a[q, q].real - a[p, p].real)
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n, dtype=complex)
                rot[p, p] = c
                rot[p, q] = s
                rot[q, p] = -s * np.conj(phase)
                rot[q, q] = c * np.conj(phase)
                a = rot.conj().T @ a @ rot
                v = v @ rot
        a = (a + a.conj().T) / 2.0
    raise EigenSolverError(f"Jacobi did not converge in {max_sweeps} sweeps")


def field_from_function(fn, u_min: float, u_max: float, v_min: float, v_max: float,
                        n: int, du=None, dv=None, family: str | None = None) -> MatrixField:
    """Sample a callable (u, v) -> 2x2 array on the grid, with optional
    analytic derivative callables."""
    us = np.linspace(u_min, u_max, n)
    vs = np.linspace(v_min, v_max, n)
    values = np.array([[fn(uu, vv) for vv in vs] for uu in us], dtype=complex)
    if du is None or dv is None:
        return MatrixField(u_min, u_max, v_min, v_max, n, values)
    d_u = np.array([[du(uu, vv) for vv in vs] for uu in us], dtype=complex)
    d_v = np.array([[dv(uu, vv) for vv in vs] for uu in us], dtype=complex)
    kind = f"analytic:{family}" if family else "analytic:custom"
    return MatrixField(u_min, u_max, v_min, v_max, n, values, d_u, d_v, kind)


def _hyperbola_band(lam: float) -> float:
    """Knife-edge band of the deformed order, restated from its definition."""
    if lam < 0.0:
        raise ValueError("mass scale must be non-negative")
    return 1e-12 * max(1.0, lam * lam)


def lambda_leq_cartesian(x: Event, y: Event, lam: float) -> bool:
    """Deformed order in Cartesian coordinates (equivalent interior form)."""
    band = _hyperbola_band(lam)
    if x == y:
        return True
    d0 = y.x0 - x.x0
    d1 = y.x1 - x.x1
    return d0 >= 0.0 and d0 * d0 - d1 * d1 >= lam * lam - band


def lambda_leq_lightcone(u1: float, v1: float, u2: float, v2: float, lam: float) -> bool:
    """Deformed order in light-cone coordinates (equivalent interior form).

    The explicit dv >= 0 check guards the degenerate du = 0 case at
    lam = 0, where the product condition alone would be vacuous.
    """
    band = _hyperbola_band(lam)
    if u1 == u2 and v1 == v2:
        return True
    du = u2 - u1
    dv = v2 - v1
    return du >= 0.0 and dv >= 0.0 and du * dv >= lam * lam - band


def lattice_path_proper_time(x: Event, y: Event, n: int = 10) -> float:
    """Max total proper time over monotone polygonal paths on an n x n
    light-cone lattice from x to y (dynamic programming)."""
    us = np.linspace(x.u, y.u, n)
    vs = np.linspace(x.v, y.v, n)
    best = np.full((n, n), -np.inf)
    best[0, 0] = 0.0
    for i in range(n):
        for j in range(n):
            if i == 0 and j == 0:
                continue
            for ip in range(i + 1):
                for jp in range(j + 1):
                    if ip == i and jp == j:
                        continue
                    du = us[i] - us[ip]
                    dv = vs[j] - vs[jp]
                    if du < 0 or dv < 0:
                        continue
                    cand = best[ip, jp] + math.sqrt(du * dv)
                    if cand > best[i, j]:
                        best[i, j] = cand
    return float(best[n - 1, n - 1])


def nnls_cone_reachable(v, axis, rho: float, n_dirs: int = 400,
                        rel_tol: float = 1e-6) -> bool:
    """Can v be written as a non-negative combination of cap directions?

    Samples the cap densely (rings including the boundary circle plus
    the in-plane extreme direction) and solves the non-negative least
    squares problem; reachability means a near-zero residual.
    """
    from scipy.optimize import nnls

    v = np.asarray(v, dtype=float)
    vn = float(np.linalg.norm(v))
    if vn == 0.0:
        return True
    rot = _rotation_to(np.asarray(axis, dtype=float) / np.linalg.norm(axis))
    dirs = []
    rings = max(4, int(math.sqrt(n_dirs / 4)))
    per = max(8, n_dirs // rings)
    for theta in np.linspace(0.0, rho, rings):
        for phi in np.linspace(0.0, 2.0 * math.pi, per, endpoint=False):
            local = np.array([math.sin(theta) * math.cos(phi),
                              math.sin(theta) * math.sin(phi),
                              math.cos(theta)])
            dirs.append(rot @ local)
    basis = np.array(dirs).T
    coeff, resid = nnls(basis, v / vn)
    return resid <= rel_tol


def geodesic_order_margin(cone: CapIsocone, n1: np.ndarray, n2: np.ndarray,
                          n_samples: int = 10_000, refine_iters: int = 60) -> float:
    """Margin of the geodesic-distance order test by direct cap sampling.

    The order requires every cap direction x to satisfy
    arccos(x . n1) >= arccos(x . n2), i.e. x . (n2 - n1) >= 0.  Samples
    the cap on rings including its boundary, then refines the worst
    direction inside the plane spanned by axis and n2 - n1 (where the
    minimizer lies, by reflection symmetry of the cap).  Returns the
    minimum of x . (n2 - n1); non-negative means ordered.
    """
    w = np.asarray(n2, dtype=float) - np.asarray(n1, dtype=float)
    if float(np.linalg.norm(w)) == 0.0:
        return 0.0
    axis, rho = cone.axis, cone.rho
    rot = _rotation_to(axis)
    rings = max(8, int(math.sqrt(n_samples / 2)))
    per = max(8, n_samples // rings)
    thetas = np.linspace(0.0, rho, rings)
    phis = np.linspace(0.0, 2.0 * math.pi, per, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    local = np.stack([np.sin(tt) * np.cos(pp),
                      np.sin(tt) * np.sin(pp),
                      np.cos(tt)], axis=-1).reshape(-1, 3)
    xs = local @ rot.T
    # Geodesic comparison: d(x, n1) >= d(x, n2) checked through arccos.
    ang1 = np.arccos(np.clip(xs @ np.asarray(n1, dtype=float), -1.0, 1.0))
    ang2 = np.arccos(np.clip(xs @ np.asarray(n2, dtype=float), -1.0, 1.0))
    margin = float(np.min(xs @ w))
    # The geodesic comparison and its dot form agree away from ties.
    assert np.all(((ang1 >= ang2) == (xs @ w >= 0.0)) | (np.abs(xs @ w) < 1e-9))
    # In-plane refinement of min x . w over polar angle theta in [0, rho].
    w_par = float(np.dot(w, axis))
    perp = w - w_par * axis
    pn = float(np.linalg.norm(perp))
    if pn > 1e-15:
        e = perp / pn

        def value(theta):
            return math.cos(theta) * w_par - math.sin(theta) * pn

        lo, hi = 0.0, rho
        a = hi - INVPHI * (hi - lo)
        b = lo + INVPHI * (hi - lo)
        fa, fb = value(a), value(b)
        for _ in range(refine_iters):
            if fa <= fb:
                hi, b, fb = b, a, fa
                a = hi - INVPHI * (hi - lo)
                fa = value(a)
            else:
                lo, a, fa = a, b, fb
                b = lo + INVPHI * (hi - lo)
                fb = value(b)
        margin = min(margin, value(lo), value(hi), value(0.0), value(rho))
    return margin


def min_cap_dot_scan(cone: CapIsocone, w, polar: int = 401,
                     azimuth: int = 361) -> tuple[np.ndarray, float]:
    """Cap direction minimizing ``x . w`` by a dense scan of the whole cap.

    Polar angles run over [0, rho] including the boundary circle and
    azimuths over a full turn; no reduction to the plane of the axis
    and w is assumed.
    """
    tt, pp = np.meshgrid(np.linspace(0.0, cone.rho, polar),
                         np.linspace(0.0, 2.0 * math.pi, azimuth), indexing="ij")
    local = np.stack([np.sin(tt) * np.cos(pp),
                      np.sin(tt) * np.sin(pp),
                      np.cos(tt)], axis=-1).reshape(-1, 3)
    xs = local @ _rotation_to(cone.axis).T
    dots = xs @ np.asarray(w, dtype=float)
    k = int(np.argmin(dots))
    return xs[k], float(dots[k])


def sup_spectral_distance_batch(gap: float, d_xy: np.ndarray,
                                coarse: int = 512, iters: int = 80) -> np.ndarray:
    """Constrained sup defining the spectral distance, numerically.

    ``d_xy`` holds the equatorial-plane components of n1 - n2 (one row
    per state pair; at equal latitude the z and trace parts drop out of
    the objective).  The Hermitian element's off-diagonal entry runs
    over the disk of radius 1/gap; the objective |v . d| is maximized
    over a polar grid on the disk, then the angle is refined by golden
    section at the best radius.
    """
    d_xy = np.atleast_2d(np.asarray(d_xy, dtype=float))
    radii = np.linspace(0.0, 1.0 / gap, 9)[1:]
    thetas = np.linspace(0.0, 2.0 * math.pi, coarse, endpoint=False)
    proj = (np.cos(thetas)[None, :] * d_xy[:, 0:1]
            + np.sin(thetas)[None, :] * d_xy[:, 1:2])
    best_theta = thetas[np.argmax(np.abs(proj), axis=1)]
    best_r = radii[-1] * np.ones(d_xy.shape[0])
    coarse_best = np.max(np.abs(proj), axis=1) * radii[-1]
    for r in radii[:-1]:
        coarse_best = np.maximum(coarse_best, np.max(np.abs(proj), axis=1) * r)

    lo = best_theta - 2.0 * math.pi / coarse
    hi = best_theta + 2.0 * math.pi / coarse

    def value(theta):
        return np.abs(np.cos(theta) * d_xy[:, 0] + np.sin(theta) * d_xy[:, 1]) * best_r

    a = hi - INVPHI * (hi - lo)
    b = lo + INVPHI * (hi - lo)
    fa, fb = value(a), value(b)
    for _ in range(iters):
        take_left = fa >= fb
        hi = np.where(take_left, b, hi)
        lo = np.where(take_left, lo, a)
        a_new = hi - INVPHI * (hi - lo)
        b_new = lo + INVPHI * (hi - lo)
        fa_new = value(a_new)
        fb_new = value(b_new)
        a, b, fa, fb = a_new, b_new, fa_new, fb_new
    refined = np.maximum(np.maximum(value(lo), value(hi)), coarse_best)
    return refined


def j_bracket(alpha_t: np.ndarray, alpha_x: np.ndarray,
              dirac_comm: np.ndarray) -> np.ndarray:
    """The 4x4 operator j[D, alpha] assembled from the gamma constants.

    Takes the Cartesian derivatives of the field and its commutator
    with the finite Dirac matrix; re-derives the block form of the cone
    condition from first principles.
    """
    g00 = GAMMA0 @ GAMMA0
    g01 = GAMMA0 @ GAMMA1
    return (np.kron(g00, alpha_t)
            + np.kron(g01, alpha_x)
            + np.kron(-1.0j * GAMMA1, dirac_comm))


def pivoted_cholesky_psd(mat: np.ndarray, tol: float) -> bool:
    """Semidefiniteness by outer-product Cholesky with complete pivoting."""
    a = np.array(mat, dtype=complex)
    n = a.shape[0]
    for k in range(n):
        sub = a[k:, k:]
        diag = sub.diagonal().real
        i = int(np.argmax(diag))
        dmax = float(diag[i])
        if dmax < -tol:
            return False
        if dmax <= tol:
            return float(np.abs(sub).max()) <= 2.0 * max(dmax, tol)
        if i != 0:
            piv = k + i
            a[[k, piv], :] = a[[piv, k], :]
            a[:, [k, piv]] = a[:, [piv, k]]
        col = a[k + 1:, k].copy()
        a[k + 1:, k + 1:] -= np.outer(col, col.conj()) / a[k, k].real
    return True


def random_monotone_fn(rng: np.random.Generator, max_knots: int = 5,
                       span: float = 3.0) -> MonotoneFn:
    k = int(rng.integers(1, max_knots + 1))
    knots = np.sort(rng.uniform(-span, span, size=k))
    knots += np.arange(k) * 1e-3  # enforce strict increase
    values = np.cumsum(rng.uniform(0.0, 1.5, size=k)) + rng.normal()
    return MonotoneFn(knots, values)


def monotone_slope_at(f: MonotoneFn, t: float) -> float:
    """Exact slope of a piecewise-linear monotone function off its knots."""
    k, v = f.knots, f.values
    if k.size == 1:
        return 0.0
    if t < k[0]:
        return float((v[1] - v[0]) / (k[1] - k[0]))
    if t > k[-1]:
        return float((v[-1] - v[-2]) / (k[-1] - k[-2]))
    idx = int(np.searchsorted(k, t) - 1)
    idx = max(0, min(idx, k.size - 2))
    return float((v[idx + 1] - v[idx]) / (k[idx + 1] - k[idx]))


def state_value_scalar(a: HermMat, state) -> float:
    """Gelfand transform of one element on one state: ``c + v . n`` from the
    entries for a Bloch state, the entry in dimension 1, ``<k|a|k>`` for a
    ket normalised here."""
    m = a.mat
    if a.dim == 2 and isinstance(state, BlochState):
        c = float((m[0, 0].real + m[1, 1].real) / 2.0)
        v = np.array([m[0, 1].real, -m[0, 1].imag, (m[0, 0].real - m[1, 1].real) / 2.0])
        return c + float(np.dot(v, state.n))
    if a.dim == 1:
        return float(m[0, 0].real)
    ket = np.asarray(state, dtype=complex)
    ket = ket / np.linalg.norm(ket)
    return float((ket.conj() @ (m @ ket)).real)


def order_boundary_case(dirac: FiniteDirac, x: Event, s1: BlochState,
                        y: Event, s2: BlochState, tol: float = ORDER_TOL) -> bool:
    """Knife-edge flag of one product-state pair: the Lorentz and spectral
    distances agree within tol (never at infinite spectral distance)."""
    dist = spectral_distance(dirac, s1, s2)
    if math.isinf(dist):
        return False
    return abs(lorentz_distance(x, y) - dist) < tol


def lex_violations_scalar(L: LexIsocone, samples: int, rng: np.random.Generator,
                          tol: float = STATE_TOL) -> list[dict]:
    """Monotonicity violations of ``lex_order_consistency_check`` when every
    sampled pair counts as related, one member and one pair at a time.
    Draws members and pairs in the checker's order."""
    members = [random_member(L, rng) for _ in range(max(8, samples // 8))]
    n = L.poset.size
    out = []
    for _ in range(samples):
        x = int(rng.integers(n))
        y = x if rng.uniform() < 0.5 else int(rng.integers(n))
        s1 = random_block_state(rng, L.components[x].dim)
        s2 = random_block_state(rng, L.components[y].dim)
        for blocks in members:
            v1 = state_value_scalar(blocks[x], s1)
            v2 = state_value_scalar(blocks[y], s2)
            if v1 > v2 + tol:
                out.append({"x": x, "y": y, "value_gap": v1 - v2,
                            "blocks": [b.to_json() for b in blocks]})
    return out


def min_cap_dot_scalar(cone: CapIsocone, w) -> tuple[np.ndarray, float]:
    """``min_cap_dot`` of one vector in Python floats: the closed form as
    first written, one vector at a time."""
    w = np.asarray(w, dtype=float)
    axis = cone.axis
    w_par = float(np.dot(w, axis))
    perp = w - w_par * axis
    pnorm = float(np.linalg.norm(perp))
    if pnorm <= 1e-15 * max(1.0, float(np.linalg.norm(w))):
        e = np.cross(axis, [1.0, 0.0, 0.0] if abs(axis[0]) < 0.9 else [0.0, 1.0, 0.0])
        e = e / np.linalg.norm(e)
    else:
        e = perp / pnorm
    theta = min(cone.rho, math.pi - math.atan2(pnorm, w_par))
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    return cos_t * axis - sin_t * e, cos_t * w_par - sin_t * pnorm


def pauli_matrix_scalar(c: float, v) -> HermMat:
    """``c*I + v . sigma`` summed one Pauli matrix at a time."""
    m = c * np.eye(2, dtype=complex)
    for vi, sigma in zip(np.asarray(v, dtype=float), PAULI):
        m = m + vi * sigma
    return HermMat(m)


def same_block_witness_scalar(L: LexIsocone, x: int, s1, s2, eps: float = 0.25) -> list:
    """The same-block witness of one state pair, built from ``HermMat``s:
    the projector gap of the two states on a full block, ``eps`` times
    ``isocone.min_cap_dot`` of ``n2 - n1`` on a cap block."""
    comp = L.components[x]
    if comp.cone.is_full:
        if comp.dim == 2:
            p1, p2 = (pauli_matrix_scalar(0.5, s.n / 2.0).mat for s in (s1, s2))
        else:
            k1 = np.asarray(s1, dtype=complex)
            k2 = np.asarray(s2, dtype=complex)
            k1, k2 = k1 / np.linalg.norm(k1), k2 / np.linalg.norm(k2)
            p1 = np.outer(k1, k1.conj())
            p2 = np.outer(k2, k2.conj())
        center = HermMat(eps * (p1 - p2))
    else:
        direction, _ = isocone.min_cap_dot(comp.cone, s2.n - s1.n)
        center = pauli_matrix_scalar(0.0, eps * direction)
    return [center if z == x else HermMat((2.0 * eps if L.poset.leq(x, z) else -2.0 * eps)
                                          * np.eye(c.dim, dtype=complex))
            for z, c in enumerate(L.components)]


def same_block_witness(L: LexIsocone, x: int, s1, s2) -> list[HermMat]:
    """The library's same-block witness of one state pair: block x's entry
    from ``isocone._witness_centres`` on one-row stacks, scalar steps
    ``-2 eps`` and ``2 eps`` (``eps = isocone.WITNESS_EPS``) respecting the
    poset elsewhere; one ``HermMat`` per block."""
    eps = isocone.WITNESS_EPS
    center = isocone._witness_centres(L.components[x], isocone._state_array(s1)[None],
                                      isocone._state_array(s2)[None])[0]
    return [HermMat(center) if z == x else HermMat(
        (2.0 * eps if L.poset.leq(x, z) else -2.0 * eps) * np.eye(c.dim, dtype=complex))
        for z, c in enumerate(L.components)]


def lex_order_report_scalar(L: LexIsocone, samples: int, rng: np.random.Generator,
                            tol: float = STATE_TOL) -> ConsistencyReport:
    """``lex_order_consistency_check`` one sample, one member and one witness
    at a time, with draws interleaved with the checks.  Relatedness, the cap
    minimum and membership go through the ``isocone`` module and the draws
    through this one, looked up at call time, so a test's patch of them
    reaches this route."""
    members = [random_member(L, rng) for _ in range(max(8, samples // 8))]
    report = ConsistencyReport(pairs_checked=samples, members_checked=len(members))
    n = L.poset.size
    for _ in range(samples):
        x = int(rng.integers(n))
        y = x if rng.uniform() < 0.5 else int(rng.integers(n))
        s1 = random_block_state(rng, L.components[x].dim)
        s2 = random_block_state(rng, L.components[y].dim)
        if isocone.lex_induced_order(L, x, s1, y, s2):
            for blocks in members:
                v1 = state_value_scalar(blocks[x], s1)
                v2 = state_value_scalar(blocks[y], s2)
                if v1 > v2 + tol:
                    report.monotonicity_violations.append(
                        {"x": x, "y": y, "value_gap": v1 - v2,
                         "blocks": [b.to_json() for b in blocks]})
            continue
        if x != y:
            witness = [HermMat((1.0 if L.poset.leq(x, z) else 0.0) * np.eye(c.dim, dtype=complex))
                       for z, c in enumerate(L.components)]
        else:
            witness = same_block_witness_scalar(L, x, s1, s2)
        if not isocone.lex_membership(L, witness):
            report.witness_failures.append(
                {"x": x, "y": y, "reason": "witness not a member",
                 "blocks": [b.to_json() for b in witness]})
            continue
        v1 = state_value_scalar(witness[x], s1)
        v2 = state_value_scalar(witness[y], s2)
        if not v1 > v2:
            report.witness_failures.append(
                {"x": x, "y": y, "reason": "witness does not separate", "value_gap": v1 - v2})
    return report


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random pure state as an array: in dimension 2 the drawn unit vector
    before ``BlochState``'s norm check and division."""
    if dim == 2:
        v = rng.standard_normal(3)
        norm = math.sqrt(v.dot(v))
        while norm < 1e-8:
            v = rng.standard_normal(3)
            norm = math.sqrt(v.dot(v))
        return v / norm
    ket = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return ket / np.linalg.norm(ket)


def random_bloch(rng: np.random.Generator) -> BlochState:
    return BlochState(random_state(rng, 2))


def random_block_state(rng: np.random.Generator, dim: int):
    """Random pure state of a dim-n block, in the block's representation."""
    return random_bloch(rng) if dim == 2 else random_state(rng, dim)


def random_cap_direction(rotation: np.ndarray, half: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Random unit vector within angle ``half`` of the axis that ``rotation``
    takes +z to (polar angle drawn first, then azimuth)."""
    theta = half * float(np.sqrt(rng.uniform(0.0, 1.0)))
    phi = float(rng.uniform(0.0, 2.0 * np.pi))
    local = np.array([np.sin(theta) * np.cos(phi),
                      np.sin(theta) * np.sin(phi),
                      np.cos(theta)])
    return rotation @ local


def random_cap_element(cone: CapIsocone, rng: np.random.Generator,
                       scale: float = 1.0) -> HermMat:
    """Random element of a cap cone (random cap direction, random trace part)."""
    if cone.is_full:
        return random_herm(rng, 2, scale=scale)
    v = random_cap_direction(cone.rotation, cone.rho, rng)
    c = float(rng.normal(0.0, 1.0))
    t = float(rng.uniform(0.0, 1.0))
    return HermMat.from_pauli(scale * c, scale * t * v)


def random_member(L: LexIsocone, rng: np.random.Generator, spread: float = 3.0) -> list[HermMat]:
    """Random member: per-block cone elements offset by chain levels ``spread``
    apart, or further apart when the drawn blocks' spectra are wider."""
    jitters, smalls = [], []
    for comp in L.components:
        jitters.append(float(rng.uniform(-0.4, 0.4)))
        if comp.cone.is_full:
            g = rng.standard_normal((comp.dim, comp.dim)) + 1j * rng.standard_normal((comp.dim, comp.dim))
            smalls.append(0.3 * (g + g.conj().T) / 2.0)
        else:
            smalls.append(random_cap_element(comp.cone, rng, scale=0.3).mat)
    levels = L.poset.levels()
    ext = [eigenvalues(small)[[0, -1]] + jit for small, jit in zip(smalls, jitters)]
    need = max(((ext[x][1] - ext[y][0]) / (levels[y] - levels[x])
                for x, y in L.poset.strict_pairs()), default=0.0)
    spacing = max(spread, need + 0.5)
    return [HermMat(small + (spacing * float(lev) + jit) * np.eye(comp.dim))
            for comp, small, lev, jit in zip(L.components, smalls, levels, jitters)]


def dual_displacement_pair(cone: CapIsocone, rng: np.random.Generator,
                           direction: np.ndarray | None = None):
    """Two Bloch vectors with n2 - n1 in K deg (hence order-related), before
    ``BlochState``'s norm check and division, or None after 64 failed tries."""
    if direction is None:
        w = random_cap_direction(cone.rotation, cone.dual_half_angle, rng)
    else:
        w = np.asarray(direction, dtype=float)
        w = w / float(np.linalg.norm(w))
    for _ in range(64):
        n1 = random_state(rng, 2)
        n1 = n1 / math.sqrt(n1.dot(n1))
        proj = float(np.dot(n1, w))
        if proj < -1e-3:
            step = -2.0 * proj
            n2 = n1 + step * w
            return n1, n2 / math.sqrt(n2.dot(n2))
    return None


def ordered_state_pairs(L: LexIsocone, count: int, rng: np.random.Generator) -> list:
    """saturate's pairs ``((x, state), (y, state))`` related by the order, one
    at a time: strict cross-block pairs mixed with dual-displacement pairs."""
    strict = L.poset.strict_pairs()
    cap_blocks = [i for i, c in enumerate(L.components) if c.dim == 2 and not c.cone.is_full]
    pairs = []
    for _ in range(count):
        if strict and (not cap_blocks or rng.uniform() < 0.5):
            x, y = strict[int(rng.integers(len(strict)))]
            pairs.append(((x, random_state(rng, L.components[x].dim)),
                          (y, random_state(rng, L.components[y].dim))))
        elif cap_blocks:
            x = cap_blocks[int(rng.integers(len(cap_blocks)))]
            pair = dual_displacement_pair(L.components[x].cone, rng)
            if pair is not None:
                pairs.append(((x, pair[0]), (x, pair[1])))
    return pairs


def targeted_pairs(L: LexIsocone, blocks, rng: np.random.Generator) -> list:
    """Stress pairs aimed at the element's likely violations: extreme
    eigenstates across each strict pair, and a dual-displacement pair along
    the cap direction the element's Pauli vector falls furthest below."""
    pairs = [((x, extreme_state(blocks[x], -1)), (y, extreme_state(blocks[y], 0)))
             for x, y in L.poset.strict_pairs()]
    for x, comp in enumerate(L.components):
        if comp.dim != 2 or comp.cone.is_full:
            continue
        _, v = blocks[x].pauli_coeffs()
        if float(np.linalg.norm(v)) <= ZERO_VEC_TOL:
            continue
        dual = CapIsocone(comp.cone.axis, max(comp.cone.dual_half_angle, 1e-12))
        w_star, value = isocone.min_cap_dot(dual, v)
        if value < 0.0:
            pair = dual_displacement_pair(comp.cone, rng, direction=w_star)
            if pair is not None:
                pairs.append(((x, pair[0]), (x, pair[1])))
    return pairs


def extreme_state(block: HermMat, k: int) -> np.ndarray:
    """Eigenstate of the block's bottom (``k = 0``) or top (``k = -1``)
    eigenvalue: on a 2x2 block ``c*I + v.sigma`` the Bloch vector ``-v/|v|``
    or ``v/|v|`` (+z or -z at ``v = 0``), else the ``eigh`` column."""
    if block.dim == 2:
        _, v = block.pauli_coeffs()
        norm = np.linalg.norm(v)
        sign = 1.0 if k else -1.0
        return sign * v / norm if norm else np.array([0.0, 0.0, -sign])
    return np.linalg.eigh(block.mat)[1][:, k]


class ScriptedRng:
    """A stand-in for ``np.random.Generator`` with one scripted queue per kind
    of draw: uniforms (``random``, ``uniform``), normals (``standard_normal``,
    ``normal``) and integers.  A queue that runs out continues from its own
    seeded Generator, so a route that merges consecutive calls of one kind
    sees the values of one that does not.  ``taken`` counts draws per kind."""

    def __init__(self, uniforms=(), normals=(), integers=(), seed=0):
        self.queues = {"u": list(uniforms), "n": list(normals), "i": list(integers)}
        self.rest = {kind: np.random.default_rng([seed, k]) for k, kind in enumerate("uni")}
        self.taken = dict.fromkeys("uni", 0)

    def _take(self, kind: str, count: int, fallback) -> list:
        self.taken[kind] += count
        queue = self.queues[kind]
        return [queue.pop(0) if queue else fallback() for _ in range(count)]

    def _fill(self, kind: str, size, out, fallback):
        count = out.size if out is not None else int(np.prod(size if size is not None else 1))
        values = np.array(self._take(kind, count, lambda: float(fallback())), dtype=float)
        if out is not None:
            out[...] = values.reshape(out.shape)
            return out
        return float(values[0]) if size is None else values.reshape(size)

    def random(self, size=None, out=None):
        return self._fill("u", size, out, self.rest["u"].random)

    def uniform(self, low=0.0, high=1.0, size=None):
        return low + (high - low) * self.random(size)

    def standard_normal(self, size=None, out=None):
        return self._fill("n", size, out, self.rest["n"].standard_normal)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return loc + scale * self.standard_normal(size)

    def integers(self, n: int) -> int:
        """A scripted index; ``integers(1)`` is 0 and takes nothing, as numpy's is."""
        if n == 1:
            return 0
        return self._take("i", 1, lambda: int(self.rest["i"].integers(n)))[0]


def isotone_scalar(L: LexIsocone, blocks, pairs, tol: float = STATE_TOL) -> bool:
    """The element decreases on none of the pairs, one pair at a time; 2x2
    states become ``BlochState``s."""
    def state(x, s):
        return BlochState(s) if L.components[x].dim == 2 else s
    return not any(state_value_scalar(blocks[x], state(x, s1))
                   > state_value_scalar(blocks[y], state(y, s2)) + tol
                   for (x, s1), (y, s2) in pairs)


def saturation_elements(L: LexIsocone, count: int, rng: np.random.Generator) -> list:
    """saturate's elements ``(blocks, is_member)``, one at a time: every third
    a random member, the others ``random_herm`` per block."""
    return [(random_member(L, rng), True) if k % 3 == 0
            else ([random_herm(rng, c.dim, scale=1.0) for c in L.components], False)
            for k in range(count)]


def saturation_report_scalar(L: LexIsocone, state_samples: int, element_samples: int,
                             rng: np.random.Generator, tol: float = STATE_TOL) -> SaturationReport:
    """``saturation_check`` one element and one pair at a time, densifying each
    flagged element as it comes."""
    coarse = ordered_state_pairs(L, state_samples, rng)
    elements = saturation_elements(L, element_samples, rng)
    report = SaturationReport(elements_checked=len(elements),
                              members_included=sum(flag for _, flag in elements),
                              flagged_coarse=0, eliminated_by_densification=0)
    for blocks, is_member_by_construction in elements:
        member = lex_membership(L, blocks)
        isotone = isotone_scalar(L, blocks, coarse, tol)
        if is_member_by_construction and not member:
            raise AssertionError("constructed member failed membership")
        if member:
            report.members_flagged += not isotone
            continue
        if not isotone:
            continue
        report.flagged_coarse += 1
        dense = ordered_state_pairs(L, 10 * state_samples, rng)
        dense += targeted_pairs(L, blocks, rng)
        if isotone_scalar(L, blocks, dense, tol):
            report.survivors.append([b.to_json() for b in blocks])
        else:
            report.eliminated_by_densification += 1
    return report


def connes_dist_csv(seed: int, samples: int, d1: float, d2: float) -> str:
    """The connes-dist CSV one sample at a time: per-sample draws, each Bloch
    vector normalised on its own, and the chord over the Dirac gap at
    equal latitude (within 1e-9), infinite otherwise."""
    rng = np.random.default_rng(seed)
    gap = abs(d1 - d2)

    def bloch(z: float, phi: float) -> np.ndarray:
        r = math.sqrt(max(0.0, 1.0 - z * z))
        n = np.array([r * math.cos(phi), r * math.sin(phi), z])
        norm = float(np.linalg.norm(n))
        assert abs(norm - 1.0) <= 1e-12
        return n / norm

    def distance(n1: np.ndarray, n2: np.ndarray) -> float:
        if abs(float(n1[2]) - float(n2[2])) > 1e-9:
            return math.inf
        return float(np.linalg.norm(n1 - n2)) / gap

    lines = ["z1,phi1,z2,phi2,distance"]
    for _ in range(samples):
        z = float(rng.uniform(-0.99, 0.99))
        phi1, phi2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        d = distance(bloch(z, float(phi1)), bloch(z, float(phi2)))
        lines.append(f"{z:.12g},{phi1:.12g},{z:.12g},{phi2:.12g},{d:.12g}")
    for _ in range(max(1, samples // 4)):
        z1 = float(rng.uniform(-0.99, 0.0))
        z2 = float(rng.uniform(0.01, 0.99))
        phi1, phi2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        d = distance(bloch(z1, float(phi1)), bloch(z2, float(phi2)))
        lines.append(f"{z1:.12g},{phi1:.12g},{z2:.12g},{phi2:.12g},{d}")
    return "\n".join(lines) + "\n"


def annotated_cells_scalar(grid, annotate) -> list[tuple[int, int]]:
    """The cells a fig1 grid annotates, found in its full status array: the
    base, every ``stride``-th grey cell in row-major order (at most
    ``GREY_ANNOTATIONS``), then each ``annotate`` cell not yet listed."""
    statuses = grid.statuses
    cells = [tuple(np.argwhere(statuses == STATUS_BASE)[0].tolist())]
    grey = np.argwhere(statuses == STATUS_GREY)
    stride = max(1, len(grey) // GREY_ANNOTATIONS)
    cells += [tuple(cell) for cell in grey[::stride][:GREY_ANNOTATIONS].tolist()]
    for cell in annotate:
        if cell not in cells:
            cells.append(cell)
    return cells


def grid_csv_scalar(grid) -> str:
    """``FutureSetGrid.to_csv`` one cell at a time: a dict lookup per cell
    and one join per row of cells."""
    coords = [f"{c:.12g}" for c in grid.centers.tolist()]
    tails = [{status: f"{nu},{name}" for status, name in STATUS_NAMES.items()}
             for nu in coords]  # column j: status -> "nu_j,NAME"
    lines = ["mu,nu,status"]
    for mu, row in zip(coords, grid.statuses.tolist()):
        head = f"{mu},"
        lines.append(head + f"\n{head}".join(map(dict.__getitem__, tails, row)))
    return "\n".join(lines) + "\n"


def grid_pgm_scalar(grid) -> str:
    """``FutureSetGrid.to_pgm`` one pixel at a time."""
    pixel = {status: str(status) for status in STATUS_NAMES}
    rows = [" ".join(map(pixel.__getitem__, row)) for row in grid.statuses[:, ::-1].T.tolist()]
    return f"P2\n{grid.resolution} {grid.resolution}\n255\n" + "\n".join(rows) + "\n"


def _interior_axes(p: PenrosePoint, mus, nus) -> tuple[np.ndarray, np.ndarray]:
    mus, nus = np.asarray(mus, dtype=float), np.asarray(nus, dtype=float)
    if p.is_boundary or not (np.abs(np.append(mus, nus)) < math.pi).all():
        raise ValueError("grid form needs an interior base point and interior coordinates")
    return mus, nus


def causal_leq_grid(p: PenrosePoint, mus, nus) -> np.ndarray:
    """The causal future of ``penrose_inverse(p)`` over the product grid
    ``mus x nus``, cell by cell: the exact quadrant ``mu >= p.mu, nu >= p.nu``
    (``tan(./2)`` is increasing)."""
    mus, nus = _interior_axes(p, mus, nus)
    return (mus >= p.mu)[:, None] & (nus >= p.nu)[None, :]


def lambda_leq_grid(p: PenrosePoint, mus, nus, lam: float) -> np.ndarray:
    """``lambda_leq(p, PenrosePoint(mu, nu), lam)`` over the product grid
    ``mus x nus`` for an interior ``p``, cell by cell, with ``math.tan``
    per coordinate."""
    lam = _check_mass(lam)
    mus, nus = _interior_axes(p, mus, nus)
    du = np.array([math.tan(mu / 2.0) for mu in mus.tolist()]) - math.tan(p.mu / 2.0)
    dv = np.array([math.tan(nu / 2.0) for nu in nus.tolist()]) - math.tan(p.nu / 2.0)
    return _hyperbola(du[:, None], dv, lam) | ((mus == p.mu)[:, None] & (nus == p.nu))
