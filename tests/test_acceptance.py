"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np

from nccausal import cli, grids
from nccausal.hermitian import (HermMat, apply_monotone, commutator, op_norm,
                                random_herm)
from nccausal.causal_cone import (cone_condition_at, eigenvalue_clock_probe,
                                  field_in_cone, scalar_causal_iff)
from nccausal.isocone import (BlochState, CapIsocone, LexComponent, LexIsocone,
                              cap_induced_order, cap_membership,
                              lex_induced_order, lex_membership,
                              saturation_check)
from nccausal.minkowski import (Event, causal_leq, lambda_leq,
                                lorentz_distance, penrose_inverse, penrose_map)
from nccausal.poset import FinitePoset
from nccausal.spectral import FiniteDirac, product_state_order, spectral_distance
from oracles import (field_from_function, geodesic_order_margin, monotone_slope_at,
                     random_bloch, random_cap_element, random_member, random_monotone_fn,
                     sup_spectral_distance_batch)

Z_CAP = CapIsocone([0.0, 0.0, 1.0], math.pi / 4)
D01 = FiniteDirac(0.0, 1.0)


def _criterion(num: int, description: str, violations: int) -> None:
    status = "PASS" if violations == 0 else "FAIL"
    print(f"[{status}] criterion {num}: {description} ({violations} violations)")
    assert violations == 0, f"criterion {num}: {description}"


def _state_on_latitude(z: float, phi: float) -> BlochState:
    r = math.sqrt(max(0.0, 1.0 - z * z))
    return BlochState([r * math.cos(phi), r * math.sin(phi), z])


def test_criterion_01_spectral_distance_oracle_equivalence():
    rng = np.random.default_rng(1007)
    violations = 0
    for _ in range(10):
        gap = float(rng.uniform(0.2, 3.0))
        dirac = FiniteDirac(float(rng.normal()), 0.0)
        dirac = FiniteDirac(dirac.d2, dirac.d2 + gap)
        pairs = []
        for _ in range(1000):
            z = float(rng.uniform(-0.98, 0.98))
            p1, p2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
            pairs.append((_state_on_latitude(z, float(p1)),
                          _state_on_latitude(z, float(p2))))
        d_xy = np.array([(s1.n - s2.n)[:2] for s1, s2 in pairs])
        oracle = sup_spectral_distance_batch(gap, d_xy)
        closed = np.array([spectral_distance(dirac, s1, s2) for s1, s2 in pairs])
        violations += int(np.sum(np.abs(oracle - closed) > 1e-6))
    for _ in range(1000):
        z1 = float(rng.uniform(-0.98, -0.02))
        z2 = float(rng.uniform(0.02, 0.98))
        s1 = _state_on_latitude(z1, float(rng.uniform(0, 2 * math.pi)))
        s2 = _state_on_latitude(z2, float(rng.uniform(0, 2 * math.pi)))
        if not math.isinf(spectral_distance(D01, s1, s2)):
            violations += 1
    _criterion(1, "closed-form spectral distance matches the constrained-sup "
                  "oracle to 1e-6; unequal latitudes are infinite", violations)


def test_criterion_02_scalar_causality_criterion():
    rng = np.random.default_rng(2007)
    violations = 0
    zeros = HermMat(np.zeros((2, 2)))
    for _ in range(1000):
        a, b = (float(x) for x in rng.normal(0.0, 2.0, size=2))
        gu, gv = (a + b) / 2.0, (a - b) / 2.0
        embedded = cone_condition_at(HermMat(gu * np.eye(2)),
                                     HermMat(gv * np.eye(2)), zeros, D01, tol=0.0)
        if embedded != (a >= abs(b)):
            violations += 1
        if scalar_causal_iff(gu, gv) != (a >= abs(b)):
            violations += 1
    _criterion(2, "affine scalar fields a*t + b*x are in the cone iff a >= |b|",
               violations)


def test_criterion_03_constant_plus_time_fields():
    rng = np.random.default_rng(3007)
    half = 0.5 * np.eye(2, dtype=complex)
    violations = 0
    for _ in range(1000):
        gap = float(rng.uniform(0.2, 3.0))
        dirac = FiniteDirac(0.0, gap)
        raw = random_herm(rng, 2)
        norm = op_norm(commutator(dirac.matrix, raw))
        if norm < 1e-9:
            continue
        target = float(rng.uniform(0.3, 1.7))
        a = (target / norm) * raw
        const = a.mat
        field = field_from_function(
            lambda u, v: ((u + v) / 2.0) * np.eye(2, dtype=complex) + const,
            -1.0, 1.0, -1.0, 1.0, 3,
            du=lambda u, v: half, dv=lambda u, v: half,
            family="time-plus-constant")
        in_cone, _ = field_in_cone(field, dirac, tol=1e-9)
        bound = op_norm(commutator(dirac.matrix, a)) <= 1.0 + 1e-9
        if in_cone != bound:
            violations += 1
    _criterion(3, "t*I + A lies in the cone iff the Dirac commutator has "
                  "norm at most 1", violations)


def test_criterion_04_pure_time_threshold():
    rng = np.random.default_rng(4007)
    violations = 0
    for _ in range(100):
        z = float(rng.uniform(-0.95, 0.95))
        s1 = _state_on_latitude(z, float(rng.uniform(0, 2 * math.pi)))
        s2 = _state_on_latitude(z, float(rng.uniform(0, 2 * math.pi)))
        dist = spectral_distance(D01, s1, s2)
        for s in rng.uniform(0.0, 3.0, size=100):
            related = product_state_order(D01, Event(0, 0), s1,
                                          Event(float(s), 0), s2)
            if related != (float(s) >= dist - 1e-9):
                violations += 1
    _criterion(4, "(0,0) -> (s,0) is related exactly when s reaches the "
                  "spectral distance", violations)


class _OrderAdapter:
    name = ""

    def sample(self, rng):
        raise NotImplementedError

    def successor(self, rng, a):
        raise NotImplementedError

    def related(self, a, b) -> bool:
        raise NotImplementedError

    def equal(self, a, b) -> bool:
        raise NotImplementedError


class _CausalAdapter(_OrderAdapter):
    name = "causal order"

    def sample(self, rng):
        return Event(float(rng.normal(0, 2)), float(rng.normal(0, 2)))

    def successor(self, rng, a):
        return Event.from_lightcone(a.u + float(abs(rng.normal())),
                                    a.v + float(abs(rng.normal())))

    def related(self, a, b):
        return causal_leq(a, b)

    def equal(self, a, b):
        return a == b


class _LambdaAdapter(_OrderAdapter):
    def __init__(self, lam):
        self.lam = lam
        self.name = f"deformed order (mass {lam})"

    def sample(self, rng):
        return penrose_map(Event(float(rng.normal(0, 1.5)), float(rng.normal(0, 1.5))))

    def successor(self, rng, a):
        ev = penrose_inverse(a)
        du = self.lam + float(abs(rng.normal())) + 0.01
        dv = (self.lam ** 2) / du + float(abs(rng.normal())) + 0.01
        return penrose_map(Event.from_lightcone(ev.u + du, ev.v + dv))

    def related(self, a, b):
        return lambda_leq(a, b, self.lam)

    def equal(self, a, b):
        return a == b


class _CapAdapter(_OrderAdapter):
    name = "cap-induced order"

    def sample(self, rng):
        return random_bloch(rng)

    def successor(self, rng, a):
        half = Z_CAP.dual_half_angle
        for _ in range(64):
            theta = half * float(rng.uniform(0.0, 0.98))
            phi = float(rng.uniform(0, 2 * math.pi))
            w = np.array([math.sin(theta) * math.cos(phi),
                          math.sin(theta) * math.sin(phi),
                          math.cos(theta)])
            proj = float(np.dot(a.n, w))
            if proj < -1e-3:
                n2 = a.n - 2.0 * proj * w
                return BlochState(n2 / np.linalg.norm(n2))
        return a

    def related(self, a, b):
        return cap_induced_order(Z_CAP, a, b)

    def equal(self, a, b):
        return bool(np.linalg.norm(a.n - b.n) <= 1e-9)


class _LexAdapter(_OrderAdapter):
    name = "lexicographic order"

    def __init__(self):
        poset = FinitePoset.from_pairs(3, [[0, 2], [1, 2]])
        self.lex = LexIsocone(poset, [LexComponent(2, Z_CAP),
                                      LexComponent(2, CapIsocone.full()),
                                      LexComponent(2, CapIsocone.full())])
        self.cap = _CapAdapter()

    def sample(self, rng):
        x = int(rng.integers(3))
        return (x, random_bloch(rng))

    def successor(self, rng, a):
        x, s = a
        ups = [y for y in range(3) if (x, y) in self.lex.poset.strict_pairs()]
        if ups and rng.uniform() < 0.6:
            y = ups[int(rng.integers(len(ups)))]
            return (y, random_bloch(rng))
        if x == 0:
            return (x, self.cap.successor(rng, s))
        return (x, s)

    def related(self, a, b):
        return lex_induced_order(self.lex, a[0], a[1], b[0], b[1])

    def equal(self, a, b):
        return a[0] == b[0] and bool(np.linalg.norm(a[1].n - b[1].n) <= 1e-9)


class _ProductAdapter(_OrderAdapter):
    name = "product pure-state order"

    def sample(self, rng, z=None):
        if z is None:
            z = float(rng.uniform(-0.9, 0.9))
        ev = Event(float(rng.normal(0, 1.5)), float(rng.normal(0, 1.5)))
        return (ev, _state_on_latitude(z, float(rng.uniform(0, 2 * math.pi))))

    def successor(self, rng, a):
        ev, s = a
        ell = float(abs(rng.normal())) + 0.05
        dx = float(rng.uniform(-0.9, 0.9))
        dt = ell / math.sqrt(max(1e-9, 1.0 - dx * dx))
        ev2 = Event(ev.x0 + dt, ev.x1 + dt * dx)
        ell_true = lorentz_distance(ev, ev2)
        z = float(s.n[2])
        r = math.sqrt(max(0.0, 1.0 - z * z))
        max_chord = min(2.0 * r, D01.gap * ell_true * 0.95)
        phi0 = math.atan2(float(s.n[1]), float(s.n[0]))
        if r < 1e-9 or max_chord <= 0.0:
            return (ev2, s)
        dphi = 2.0 * math.asin(min(1.0, max_chord / (2.0 * r)))
        phi2 = phi0 + float(rng.uniform(-dphi, dphi))
        return (ev2, _state_on_latitude(z, phi2))

    def related(self, a, b):
        return product_state_order(D01, a[0], a[1], b[0], b[1])

    def equal(self, a, b):
        return a[0] == b[0] and bool(np.linalg.norm(a[1].n - b[1].n) <= 1e-7)


def _order_axiom_violations(adapter, rng, count):
    violations = 0
    for _ in range(count):
        a = adapter.sample(rng)
        if not adapter.related(a, a):
            violations += 1
    for _ in range(count):
        a = adapter.sample(rng)
        if rng.uniform() < 0.5:
            b = adapter.successor(rng, a)
        else:
            b = adapter.sample(rng)
        if adapter.related(a, b) and adapter.related(b, a):
            if not adapter.equal(a, b):
                violations += 1
    for _ in range(count):
        a = adapter.sample(rng)
        if rng.uniform() < 0.8:
            b = adapter.successor(rng, a)
            c = adapter.successor(rng, b)
        else:
            b = adapter.sample(rng)
            c = adapter.sample(rng)
        if adapter.related(a, b) and adapter.related(b, c):
            if not adapter.related(a, c):
                violations += 1
    return violations


def test_criterion_05_order_axioms():
    rng = np.random.default_rng(5007)
    adapters = [_CausalAdapter(), _LambdaAdapter(0.0), _LambdaAdapter(0.1),
                _LambdaAdapter(1.0), _CapAdapter(), _LexAdapter(),
                _ProductAdapter()]
    violations = 0
    for adapter in adapters:
        bad = _order_axiom_violations(adapter, rng, 10_000)
        if bad:
            print(f"  {adapter.name}: {bad} axiom violations")
        violations += bad
    _criterion(5, "reflexivity, antisymmetry and transitivity hold for every "
                  "order relation on 10^4 tuples", violations)


def test_criterion_06_isocone_axioms_on_constructions():
    rng = np.random.default_rng(6007)
    violations = 0
    for _ in range(1000):
        a = random_cap_element(Z_CAP, rng)
        b = random_cap_element(Z_CAP, rng)
        if not cap_membership(Z_CAP, a + b):
            violations += 1
        if not cap_membership(Z_CAP, apply_monotone(a, random_monotone_fn(rng))):
            violations += 1
    lex = LexIsocone(FinitePoset.chain(2),
                     [LexComponent(2, Z_CAP), LexComponent(2, CapIsocone.full())])
    for _ in range(1000):
        a = random_member(lex, rng)
        b = random_member(lex, rng)
        if not lex_membership(lex, [x + y for x, y in zip(a, b)]):
            violations += 1
        f = random_monotone_fn(rng)
        if not lex_membership(lex, [apply_monotone(x, f) for x in a]):
            violations += 1
    diffs = []
    for _ in range(50):
        a = random_cap_element(Z_CAP, rng)
        b = random_cap_element(Z_CAP, rng)
        c, v = (a - b).pauli_coeffs()
        diffs.append([c, *v])
    if np.linalg.matrix_rank(np.array(diffs), tol=1e-8) != 4:
        violations += 1
    diffs = []
    for _ in range(80):
        a = random_member(lex, rng)
        b = random_member(lex, rng)
        vec = []
        for x, y in zip(a, b):
            d = (x - y).mat
            vec.extend([d[0, 0].real, d[1, 1].real, d[0, 1].real, d[0, 1].imag])
        diffs.append(vec)
    if np.linalg.matrix_rank(np.array(diffs), tol=1e-8) != 8:
        violations += 1
    _criterion(6, "cap and lexicographic cones are stable under addition and "
                  "monotone calculus; differences span the Hermitian part",
               violations)


def test_criterion_07_dual_cone_formula():
    rng = np.random.default_rng(7007)
    violations = 0
    for k in range(1000):
        if k % 2 == 0:
            cone = Z_CAP
        else:
            cone = CapIsocone(rng.standard_normal(3),
                              float(rng.uniform(0.2, math.pi / 2)))
        s1, s2 = random_bloch(rng), random_bloch(rng)
        dual = cap_induced_order(cone, s1, s2)
        margin = geodesic_order_margin(cone, s1.n, s2.n, n_samples=10_000)
        sampled = margin >= -1e-12
        if dual != sampled:
            w = s2.n - s1.n
            ang = math.acos(np.clip(np.dot(w / np.linalg.norm(w), cone.axis),
                                    -1.0, 1.0))
            if abs(ang - cone.dual_half_angle) > 1e-6:
                violations += 1
    _criterion(7, "dual-cone order test agrees with geodesic-distance cap "
                  "sampling outside a 1e-6 boundary band", violations)


def test_criterion_08_figure_one_data():
    violations = 0
    cfg = cli.load_config(None, "fig1-cone")
    grid = grids.fig1_causal_cone(cfg)
    a = penrose_inverse(cfg.base_penrose)
    base = grid.base_cell()
    for i in range(grid.resolution):
        for j in range(grid.resolution):
            if (i, j) == base:
                continue
            expect = causal_leq(a, penrose_inverse(grid.center_point(i, j)))
            if (grid.statuses[i, j] == grids.STATUS_GREY) != expect:
                violations += 1
    cfg2 = cli.load_config(None, "fig1-isocone")
    grid2 = grids.fig1_isocone(cfg2)
    base2 = grid2.base_cell()
    for i in range(grid2.resolution):
        for j in range(grid2.resolution):
            if (i, j) == base2:
                continue
            expect = lambda_leq(cfg2.base_penrose, grid2.center_point(i, j), cfg2.lam)
            if (grid2.statuses[i, j] == grids.STATUS_GREY) != expect:
                violations += 1
    entry = next(e for e in grid2.annotations if tuple(e["cell"]) == base2)
    if entry["kind"] != "dual-cone-cap":
        violations += 1
    rng = np.random.default_rng(8007)
    axis = np.array(entry["axis"])
    vertex = np.array(entry["vertex"])
    for _ in range(2000):
        q = rng.standard_normal(3)
        q /= np.linalg.norm(q)
        w = q - vertex
        wn = float(np.linalg.norm(w))
        if wn < 1e-12:
            descriptor = True
        else:
            ang = math.acos(np.clip(np.dot(w / wn, axis), -1.0, 1.0))
            if abs(ang - entry["half_angle"]) <= 1e-6:
                continue
            descriptor = bool(ang <= entry["half_angle"])
        if descriptor != cap_induced_order(cfg2.cap, BlochState(vertex),
                                           BlochState(q)):
            violations += 1
    _criterion(8, "comparison-figure grids match independent order sweeps and "
                  "the base-cell annotation is the dual-cone cap", violations)


def test_criterion_09_causal_cone_is_not_an_isocone():
    violations = 0
    half = 0.5 * np.eye(2, dtype=complex)
    split = np.diag([0.0, 10.0]).astype(complex)
    field = field_from_function(
        lambda u, v: ((u + v) / 2.0) * np.eye(2, dtype=complex) + split,
        -1.0, 1.0, -1.0, 1.0, 5,
        du=lambda u, v: half, dv=lambda u, v: half,
        family="time-plus-constant")
    ok, _ = field_in_cone(field, D01)
    if not ok:
        violations += 1
    report = eigenvalue_clock_probe(field, field.event_at(0, 0),
                                    field.event_at(1, 1))
    if not report.inversion_found:
        violations += 1
    if not report.monotone_along_paths:
        violations += 1

    from nccausal.hermitian import spectrum
    rng = np.random.default_rng(9007)
    escapes = 0
    for _ in range(150):
        raw = random_herm(rng, 2)
        norm = op_norm(commutator(D01.matrix, raw))
        if norm < 1e-6:
            continue
        a = (float(rng.uniform(0.85, 0.995)) / norm) * raw
        spec = spectrum(a)
        f = random_monotone_fn(rng, max_knots=4, span=1.5)

        def val(u, v):
            t = (u + v) / 2.0
            return sum(float(f(t + lam)) * p.mat
                       for lam, p in zip(spec.eigenvalues, spec.projectors))

        def deriv(u, v):
            t = (u + v) / 2.0
            return sum(0.5 * monotone_slope_at(f, t + float(lam)) * p.mat
                       for lam, p in zip(spec.eigenvalues, spec.projectors))

        nodes_ok = all(
            min(abs(float(k) - ((u + v) / 2.0 + lam)) for k in f.knots
                for lam in spec.eigenvalues) > 1e-4
            for u in np.linspace(-0.93, 0.87, 5) for v in np.linspace(-0.93, 0.87, 5))
        if not nodes_ok:
            continue
        base = field_from_function(
            lambda u, v: ((u + v) / 2.0) * np.eye(2, dtype=complex) + a.mat,
            -0.93, 0.87, -0.93, 0.87, 5,
            du=lambda u, v: half, dv=lambda u, v: half,
            family="time-plus-constant")
        if not field_in_cone(base, D01)[0]:
            continue
        comp = field_from_function(val, -0.93, 0.87, -0.93, 0.87, 5,
                                   du=deriv, dv=deriv,
                                   family="monotone-composite")
        if not field_in_cone(comp, D01, tol=1e-9)[0]:
            escapes += 1
    if escapes == 0:
        violations += 1
    _criterion(9, "a cone member shows the eigenvalue clock inversion and "
                  "monotone calculus pushes some member out of the cone",
               violations)


def test_criterion_10_saturation_evidence():
    rng = np.random.default_rng(10007)
    violations = 0
    for fixture_json in cli.default_saturate_fixtures():
        fixture = LexIsocone.from_json(fixture_json)
        report = saturation_check(fixture, state_samples=300,
                                  element_samples=90, rng=rng)
        violations += len(report.survivors)
        violations += report.members_flagged
        if "no counterexample found" not in report.summary:
            violations += 1
    _criterion(10, "no saturation counterexample survives tenfold "
                   "densification on the default fixtures", violations)
