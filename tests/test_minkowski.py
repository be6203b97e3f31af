import math

import numpy as np
import pytest

from nccausal import minkowski
from nccausal.minkowski import (Event, PenrosePoint, causal_leq, lambda_closedness_probe,
                                lambda_leq, lorentz_distance, penrose_inverse, penrose_map)
from oracles import (causal_leq_grid, lambda_leq_cartesian, lambda_leq_grid,
                     lambda_leq_lightcone, lattice_path_proper_time)


def random_event(rng, scale=3.0):
    return Event(float(rng.normal(0, scale)), float(rng.normal(0, scale)))


class TestCausalOrder:
    def test_reflexive(self):
        x = Event(0.3, -1.2)
        assert causal_leq(x, x)

    def test_timelike_future(self):
        assert causal_leq(Event(0, 0), Event(1, 0))

    def test_spacelike(self):
        assert not causal_leq(Event(0, 0), Event(0, 1))

    def test_partial_order_random(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            x, y = random_event(rng), random_event(rng)
            z = Event(y.x0 + abs(rng.normal()), y.x1 + rng.normal())
            if causal_leq(x, y) and causal_leq(y, z):
                assert causal_leq(x, z)
            if causal_leq(x, y) and causal_leq(y, x):
                assert x == y


class TestLorentzDistance:
    def test_pure_time_translation(self):
        for s in (0.5, 1.0, 7.25):
            assert abs(lorentz_distance(Event(0, 0), Event(s, 0)) - s) < 1e-12

    def test_zero_outside_future(self):
        assert lorentz_distance(Event(0, 0), Event(-1, 0)) == 0.0
        assert lorentz_distance(Event(0, 0), Event(0, 1)) == 0.0

    def test_against_path_maximization(self):
        # (0,0) -> (5,3) has proper time 4; the lattice DP oracle
        # attains it (uniform subdivision is optimal by Cauchy-Schwarz).
        x, y = Event(0, 0), Event(5, 3)
        assert abs(lorentz_distance(x, y) - 4.0) < 1e-12
        assert abs(lattice_path_proper_time(x, y, n=8) - 4.0) < 1e-9

    def test_reverse_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = random_event(rng)
            y = Event(x.x0 + abs(rng.normal()) + 0.1, x.x1 + rng.normal(0, 0.3))
            z = Event(y.x0 + abs(rng.normal()) + 0.1, y.x1 + rng.normal(0, 0.3))
            if not (causal_leq(x, y) and causal_leq(y, z)):
                continue
            assert lorentz_distance(x, z) >= (lorentz_distance(x, y)
                                              + lorentz_distance(y, z) - 1e-9)


class TestPenrose:
    def test_origin_fixed_point(self):
        p = penrose_map(Event(0, 0))
        assert p.mu == 0.0 and p.nu == 0.0

    def test_half_pi_at_unit_u(self):
        p = penrose_map(Event.from_lightcone(1.0, 0.0))
        assert abs(p.mu - math.pi / 2.0) < 1e-15

    def test_limit_towards_boundary(self):
        p = penrose_map(Event.from_lightcone(1e12, 0.0))
        assert p.mu < math.pi and math.pi - p.mu < 1e-11

    def test_roundtrip_and_order_preservation(self):
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            x, y = random_event(rng), random_event(rng)
            px, py = penrose_map(x), penrose_map(y)
            back = penrose_inverse(px)
            assert abs(back.u - x.u) <= 1e-12 * max(1.0, abs(x.u))
            assert abs(back.v - x.v) <= 1e-12 * max(1.0, abs(x.v))
            assert causal_leq(x, y) == (py.mu >= px.mu and py.nu >= px.nu)

    def test_inverse_rejects_boundary(self):
        with pytest.raises(ValueError):
            penrose_inverse(PenrosePoint(math.pi, 0.0))

    def test_point_validation(self):
        with pytest.raises(ValueError):
            PenrosePoint(4.0, 0.0)


class TestLambdaOrder:
    def test_zero_mass_reduces_to_causal(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            x, y = random_event(rng), random_event(rng)
            assert lambda_leq(penrose_map(x), penrose_map(y), 0.0) == causal_leq(x, y)

    def test_unit_mass_examples(self):
        p = penrose_map(Event(0, 0))
        assert lambda_leq(p, penrose_map(Event(1, 0)), 1.0)
        q = penrose_map(Event(1, 0.8))  # separation^2 = 0.36 < 1
        assert not lambda_leq(p, q, 1.0)
        assert lambda_leq(p, q, 0.0)

    def test_equal_points_related(self):
        p = PenrosePoint(0.3, 0.4)
        assert lambda_leq(p, p, 2.0)

    def test_boundary_uses_product_order(self):
        corner = PenrosePoint(math.pi, math.pi)
        inner = PenrosePoint(0.0, 0.0)
        assert lambda_leq(inner, corner, 5.0)
        assert not lambda_leq(corner, inner, 5.0)
        edge = PenrosePoint(math.pi, -1.0)
        assert lambda_leq(edge, corner, 7.0)  # product order ignores the mass
        assert not lambda_leq(corner, edge, 0.0)

    def test_three_forms_agree_on_interior(self):
        rng = np.random.default_rng(4)
        for lam in (0.0, 0.3, 1.0):
            for _ in range(1000):
                x, y = random_event(rng), random_event(rng)
                if rng.uniform() < 0.2:
                    y = x
                canonical = lambda_leq(penrose_map(x), penrose_map(y), lam)
                assert canonical == lambda_leq_cartesian(x, y, lam)
                assert canonical == lambda_leq_lightcone(x.u, x.v, y.u, y.v, lam)

    def test_negative_mass_rejected(self):
        p = PenrosePoint(0, 0)
        with pytest.raises(ValueError):
            lambda_leq(p, p, -1.0)

    def test_partial_order_properties(self):
        rng = np.random.default_rng(5)
        for lam in (0.0, 0.1, 1.0):
            for _ in range(1000):
                x = random_event(rng, scale=1.0)
                p = penrose_map(x)
                assert lambda_leq(p, p, lam)
                du = lam + abs(rng.normal()) + 0.01
                dv = (lam * lam) / du + abs(rng.normal()) + 0.01
                y = Event.from_lightcone(x.u + du, x.v + dv)
                z = Event.from_lightcone(y.u + du, y.v + dv)
                q, r = penrose_map(y), penrose_map(z)
                assert lambda_leq(p, q, lam) and lambda_leq(q, r, lam)
                assert lambda_leq(p, r, lam)
                if lambda_leq(p, q, lam) and lambda_leq(q, p, lam):
                    assert p == q

    def test_mass_monotonicity(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            p = penrose_map(random_event(rng))
            q = penrose_map(random_event(rng))
            if lambda_leq(p, q, 1.0):
                assert lambda_leq(p, q, 0.3)
                assert lambda_leq(p, q, 0.0)

    def test_small_mass_convergence(self):
        x, y = Event(0, 0), Event(1.5, 0.9)
        ell = lorentz_distance(x, y)
        assert ell > 0
        for lam in np.linspace(0.0, ell * 0.999, 25):
            assert lambda_leq(penrose_map(x), penrose_map(y), float(lam))


class TestClosednessProbe:
    def test_positive_radius_at_origin(self):
        r = lambda_closedness_probe(PenrosePoint(0, 0), 1.0)
        assert r > 0.0

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            lambda_closedness_probe(PenrosePoint(0, 0), 0.0)

    def test_rejects_boundary_point(self):
        with pytest.raises(ValueError):
            lambda_closedness_probe(PenrosePoint(math.pi, 0.0), 1.0)

    def test_radius_monotone_in_mass(self):
        p = PenrosePoint(0.4, -0.7)
        radii = [lambda_closedness_probe(p, lam) for lam in (0.2, 0.5, 1.0, 2.0)]
        assert all(b >= a for a, b in zip(radii, radii[1:]))

    def test_check_fails_when_every_forward_point_is_related(self, monkeypatch):
        # A band of lam^2 relates every non-negative displacement, so the
        # ring holds comparable points and the probe's own check must fire.
        monkeypatch.setattr(minkowski, "_hyperbola_eps", lambda lam: lam * lam)
        with pytest.raises(RuntimeError, match="comparable point"):
            lambda_closedness_probe(PenrosePoint(0.4, -0.7), 1.0)


class TestGridForms:
    MUS = [-2.9, -0.4, 0.0, 0.4, 1.3]
    NUS = [-1.1, 0.0, 0.4, 3.0]

    def test_match_scalar_predicates(self):
        p = PenrosePoint(0.4, 0.0)
        x = penrose_inverse(p)
        causal = causal_leq_grid(p, self.MUS, self.NUS)
        for i, mu in enumerate(self.MUS):
            for j, nu in enumerate(self.NUS):
                assert causal[i, j] == causal_leq(x, penrose_inverse(PenrosePoint(mu, nu)))
        for lam in (0.0, 0.5):  # p itself is on the grid: related at every mass
            deformed = lambda_leq_grid(p, self.MUS, self.NUS, lam)
            for i, mu in enumerate(self.MUS):
                for j, nu in enumerate(self.NUS):
                    assert deformed[i, j] == lambda_leq(p, PenrosePoint(mu, nu), lam)

    def test_reject_boundary_coordinates(self):
        p = PenrosePoint(0.0, 0.0)
        with pytest.raises(ValueError):
            causal_leq_grid(p, [0.0, math.pi], [0.0])
        with pytest.raises(ValueError):
            lambda_leq_grid(p, [0.0], [-math.pi], 0.5)
        with pytest.raises(ValueError):
            lambda_leq_grid(PenrosePoint(math.pi, 0.0), [0.0], [0.0], 0.5)
        with pytest.raises(ValueError):
            lambda_leq_grid(p, [0.0], [0.0], -1.0)

    def test_causal_grid_rejects_boundary_base(self):
        with pytest.raises(ValueError, match="interior base point"):
            causal_leq_grid(PenrosePoint(0.0, -math.pi), [0.0], [0.0])
