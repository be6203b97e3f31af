import math
import warnings

import numpy as np
import pytest

from nccausal import causal_cone
from nccausal.hermitian import (HermMat, MonotoneFn, PAULI,
                                commutator, is_psd, op_norm, random_herm,
                                spectrum)
from nccausal.causal_cone import (MatrixField,
                                  cone_block_matrix, cone_condition_at,
                                  discretization_tolerance,
                                  eigenvalue_clock_probe, field_in_cone,
                                  scalar_causal_iff)
from nccausal.isocone import BlochState
from nccausal.minkowski import Event, causal_leq
from nccausal.spectral import FiniteDirac, product_state_order, spectral_distance
from oracles import (GAMMA0, GAMMA1, J_OPERATOR, _jacobi, field_from_function, j_bracket,
                     monotone_slope_at, order_boundary_case, random_monotone_fn,
                     sup_spectral_distance_batch)

D01 = FiniteDirac(0.0, 1.0)


def time_plus_constant_field(a_const: np.ndarray, n: int = 5,
                             lo: float = -1.0, hi: float = 1.0) -> MatrixField:
    half = 0.5 * np.eye(2, dtype=complex)
    return field_from_function(
        lambda u, v: ((u + v) / 2.0) * np.eye(2, dtype=complex) + a_const,
        lo, hi, lo, hi, n,
        du=lambda u, v: half, dv=lambda u, v: half,
        family="time-plus-constant")


def scalar_field(coeff_u: float, coeff_v: float, n: int = 5) -> MatrixField:
    eye = np.eye(2, dtype=complex)
    return field_from_function(
        lambda u, v: (coeff_u * u + coeff_v * v) * eye,
        -1.0, 1.0, -1.0, 1.0, n,
        du=lambda u, v: coeff_u * eye, dv=lambda u, v: coeff_v * eye,
        family="affine")


def equatorial(phi: float) -> BlochState:
    return BlochState([math.cos(phi), math.sin(phi), 0.0])


def state_on_latitude(z: float, phi: float) -> BlochState:
    r = math.sqrt(max(0.0, 1.0 - z * z))
    return BlochState([r * math.cos(phi), r * math.sin(phi), z])


class TestGammaConstants:
    def test_gamma_algebra(self):
        assert np.allclose(GAMMA0 @ GAMMA0, -np.eye(2))
        assert np.allclose(GAMMA1 @ GAMMA1, np.eye(2))
        assert np.allclose(GAMMA0 @ GAMMA1, np.diag([-1.0, 1.0]))

    def test_j_operator_is_a_fundamental_symmetry(self):
        assert np.allclose(J_OPERATOR @ J_OPERATOR, np.eye(4))
        assert np.allclose(J_OPERATOR, J_OPERATOR.conj().T)
        # j commutes with the inner algebra (it acts on the spinor leg).
        rng = np.random.default_rng(42)
        a = np.kron(np.eye(2), random_herm(rng, 2).mat)
        assert np.abs(J_OPERATOR @ a - a @ J_OPERATOR).max() < 1e-12

    def test_block_reduction_from_first_principles(self):
        # j[D, alpha] assembled from the gamma constants must equal the
        # negated cone block matrix once derivatives are rewritten in
        # light-cone form (du = (dt + dx)/2, dv = (dt - dx)/2).
        rng = np.random.default_rng(0)
        for _ in range(50):
            alpha_t = random_herm(rng, 2).mat
            alpha_x = random_herm(rng, 2).mat
            alpha = random_herm(rng, 2)
            comm = commutator(D01.matrix, alpha)
            bracket = j_bracket(alpha_t, alpha_x, comm)
            alpha_u = (alpha_t + alpha_x) / 2.0
            alpha_v = (alpha_t - alpha_x) / 2.0
            block = cone_block_matrix(alpha_u, alpha_v, comm)
            assert np.abs(bracket + block).max() < 1e-12

    def test_block_matrix_is_hermitian(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            au, av, a = (random_herm(rng, 2) for _ in range(3))
            comm = commutator(D01.matrix, a)
            block = cone_block_matrix(au.mat, av.mat, comm)
            assert np.abs(block - block.conj().T).max() < 1e-12


class TestConeConditionAt:
    def test_scalar_time_function(self):
        half = HermMat(0.5 * np.eye(2))
        t_field = HermMat(np.zeros((2, 2)))
        assert cone_condition_at(half, half, t_field, D01)

    def test_constant_plus_time_iff_commutator_bounded(self):
        rng = np.random.default_rng(2)
        half = HermMat(0.5 * np.eye(2))
        for _ in range(100):
            a = random_herm(rng, 2)
            norm = op_norm(commutator(D01.matrix, a))
            if abs(norm - 1.0) < 1e-6:
                continue
            ok = cone_condition_at(half, half, a, D01)
            assert ok == (norm <= 1.0)

    def test_negative_derivative_fails(self):
        bad = HermMat.diag([0.5, -0.2])
        good = HermMat(0.5 * np.eye(2))
        assert not cone_condition_at(bad, good, HermMat(np.zeros((2, 2))), D01)


class TestFieldInCone:
    def test_constant_scalar_field(self):
        eye = np.eye(2, dtype=complex)
        f = field_from_function(lambda u, v: 3.0 * eye, -1, 1, -1, 1, 5)
        ok, loc = field_in_cone(f, D01)
        assert ok and loc is None

    def test_time_function_field(self):
        ok, _ = field_in_cone(scalar_field(0.5, 0.5), D01)
        assert ok

    def test_decreasing_field_fails_at_first_node(self):
        ok, loc = field_in_cone(scalar_field(-1.0, 0.0), D01)
        assert not ok and loc == (0, 0)

    def test_finite_difference_derivatives_on_smooth_member(self):
        eye = np.eye(2, dtype=complex)
        fn = lambda u, v: (u + v + 0.05 * math.sin(u) + 0.05 * math.sin(v)) * eye
        f = field_from_function(fn, -1, 1, -1, 1, 17)
        assert f.derivatives_kind == "finite-difference"
        ok, _ = field_in_cone(f, D01)
        assert ok

    def test_matches_per_node_jacobi_oracle(self):
        # Each node's block, assembled here and solved by Jacobi, decides
        # it; the first failure in row-major order is the one reported.
        rng = np.random.default_rng(21)
        dmat = D01.matrix.mat
        outcomes = set()
        for _ in range(40):
            a, b = random_herm(rng, 2).mat, random_herm(rng, 2).mat
            lift = float(rng.uniform(0.0, 2.0))
            f = field_from_function(
                lambda u, v: lift * (u + v) * np.eye(2) + u * v * a + 0.5 * u * u * b,
                -1, 1, -1, 1, 7)
            tol = discretization_tolerance(f)
            first = None
            for i in range(f.n):
                for j in range(f.n):
                    comm = dmat @ f.values[i, j] - f.values[i, j] @ dmat
                    block = np.block([[2.0 * f.deriv_u[i, j], comm],
                                      [-comm, 2.0 * f.deriv_v[i, j]]])
                    if first is None and _jacobi(block)[0][0] < -tol:
                        first = (i, j)
            assert field_in_cone(f, D01, tol) == (first is None, first)
            outcomes.add(first is None)
        assert outcomes == {True, False}

    def test_non_hermitian_derivative(self):
        eye = np.eye(2, dtype=complex)
        skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

        def field(coeff):
            return field_from_function(
                lambda u, v: coeff * (u + v) * eye, -1, 1, -1, 1, 5,
                du=lambda u, v: coeff * eye + (skew if u > 0.4 and v > -0.6 else 0.0),
                dv=lambda u, v: coeff * eye, family="custom")

        with pytest.raises(ValueError, match=r"node \(3, 1\)"):
            field_in_cone(field(1.0), D01)
        # An earlier failing node decides before the bad derivative is reached.
        assert field_in_cone(field(-1.0), D01) == (False, (0, 0))

    def test_assembled_blocks_are_hermitian_to_the_bit(self, monkeypatch):
        # The cone checks hand their 4x4 blocks to eigvalsh, which reads one
        # triangle, with no check or symmetrization of their own.
        rng = np.random.default_rng(18)
        solved, solve = [], causal_cone.eigenvalues

        def recording(mats):
            solved.append(mats)
            return solve(mats)

        monkeypatch.setattr(causal_cone, "eigenvalues", recording)

        def herm_stack(shape):
            g = rng.standard_normal(shape + (2, 2)) + 1j * rng.standard_normal(shape + (2, 2))
            noise = rng.standard_normal(shape + (2, 2)) + 1j * rng.standard_normal(shape + (2, 2))
            return g + g.conj().swapaxes(-1, -2) + 1e-14 * noise

        for _ in range(20):
            dirac = FiniteDirac(*(3.0 * rng.standard_normal(2)).tolist())
            a, au, av = (random_herm(rng, 2, float(rng.uniform(0.1, 10.0))) for _ in range(3))
            cone_condition_at(au, av, a, dirac, 0.0)
            for field in (MatrixField(-1, 1, -1, 1, 6, herm_stack((6, 6))),
                          MatrixField(-2, 1, 0, 3, 5, herm_stack((5, 5)), herm_stack((5, 5)),
                                      herm_stack((5, 5)), "analytic:custom")):
                field_in_cone(field, dirac, causal_cone.PSD_TOL)
        assert [blocks.shape for blocks in solved[:3]] == [(4, 4), (6, 6, 4, 4), (5, 5, 4, 4)]
        assert len(solved) == 60
        for blocks in solved:
            assert np.array_equal(blocks, blocks.conj().swapaxes(-1, -2))

    def test_non_finite_values_rejected(self):
        values = np.zeros((5, 5, 2, 2), dtype=complex)
        values[2, 2, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            MatrixField(-1, 1, -1, 1, 5, values)

    def test_discretization_tolerance_scaling(self):
        eye = np.eye(2, dtype=complex)
        fn = lambda u, v: (math.sin(u) + math.sin(v) + 2.0 * u + 2.0 * v) * eye
        fine = field_from_function(fn, -1, 1, -1, 1, 33)
        assert discretization_tolerance(fine) > 1e-9
        affine = scalar_field(0.7, 0.3)
        assert discretization_tolerance(affine) == 1e-9


    @pytest.mark.parametrize("n", [3, 4])
    def test_discretization_tolerance_on_small_grids(self, n):
        # Below 5 nodes per axis there is no stride-2 subgrid to compare with.
        values = np.linspace(0.0, 1.0, n * n)[:, None, None] * np.eye(2)
        field = MatrixField(-1, 1, -1, 1, n, values.reshape(n, n, 2, 2))
        assert field.derivatives_kind == "finite-difference"
        assert discretization_tolerance(field) == 100.0 * causal_cone.PSD_TOL


class TestScalarCriterion:
    def test_time_and_space_gradients(self):
        assert scalar_causal_iff(0.5, 0.5)        # f = t
        assert not scalar_causal_iff(0.5, -0.5)   # f = x^1

    def test_matches_cone_condition_on_scalar_embedding(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a, b = rng.normal(size=2)
            gu, gv = (a + b) / 2.0, (a - b) / 2.0
            direct = scalar_causal_iff(gu, gv)
            assert direct == (a >= abs(b))
            embedded = cone_condition_at(HermMat(gu * np.eye(2)),
                                         HermMat(gv * np.eye(2)),
                                         HermMat(np.zeros((2, 2))), D01, tol=0.0)
            if min(gu, gv) != 0.0:
                assert embedded == direct


class TestSpectralDistance:
    def test_oracle_reveals_chord_over_gap(self):
        # Numerical constrained sup first; the installed closed form
        # (Euclidean chord / gap) must match it.
        rng = np.random.default_rng(4)
        for gap in (0.35, 1.0, 2.4):
            dirac = FiniteDirac(0.0, gap)
            pairs = []
            for _ in range(100):
                z = float(rng.uniform(-0.95, 0.95))
                p1, p2 = rng.uniform(0, 2 * math.pi, size=2)
                s1 = state_on_latitude(z, float(p1))
                s2 = state_on_latitude(z, float(p2))
                pairs.append((s1, s2))
            d_xy = np.array([(s1.n - s2.n)[:2] for s1, s2 in pairs])
            oracle = sup_spectral_distance_batch(gap, d_xy)
            closed = np.array([spectral_distance(dirac, s1, s2) for s1, s2 in pairs])
            assert np.abs(oracle - closed).max() < 1e-6

    def test_equator_antipodal_maximum(self):
        oracle = float(sup_spectral_distance_batch(1.0, np.array([[2.0, 0.0]]))[0])
        assert abs(oracle - 2.0) < 1e-9
        assert abs(spectral_distance(D01, equatorial(0.0), equatorial(math.pi)) - 2.0) < 1e-12

    def test_identical_states(self):
        s = equatorial(0.3)
        assert spectral_distance(D01, s, s) == 0.0

    def test_different_latitudes_infinite(self):
        assert math.isinf(spectral_distance(D01, state_on_latitude(0.2, 0.0),
                                            state_on_latitude(-0.4, 0.0)))

    def test_degenerate_dirac_rejected(self):
        with pytest.raises(ValueError):
            spectral_distance(FiniteDirac(1.0, 1.0), equatorial(0), equatorial(1))

    def test_metric_on_latitude_circle(self):
        rng = np.random.default_rng(5)
        dirac = FiniteDirac(-0.3, 1.1)
        z = 0.4
        for _ in range(300):
            a, b, c = (state_on_latitude(z, float(p))
                       for p in rng.uniform(0, 2 * math.pi, size=3))
            dab = spectral_distance(dirac, a, b)
            assert abs(dab - spectral_distance(dirac, b, a)) < 1e-12
            assert (dab == 0.0) == (np.linalg.norm(a.n - b.n) == 0.0)
            assert dab <= (spectral_distance(dirac, a, c)
                           + spectral_distance(dirac, c, b) + 1e-12)


class TestProductStateOrder:
    def test_equal_states_reduce_to_causal(self):
        s = equatorial(1.0)
        assert product_state_order(D01, Event(0, 0), s, Event(1, 0), s)
        assert not product_state_order(D01, Event(0, 0), s, Event(-1, 0), s)

    def test_pure_time_threshold(self):
        s1 = equatorial(0.0)
        s2 = equatorial(2.0)
        d = spectral_distance(D01, s1, s2)
        assert product_state_order(D01, Event(0, 0), s1, Event(d + 0.01, 0), s2)
        assert not product_state_order(D01, Event(0, 0), s1, Event(d - 0.01, 0), s2)

    def test_different_latitudes_never_related(self):
        s1 = state_on_latitude(0.1, 0.0)
        s2 = state_on_latitude(0.6, 0.0)
        assert not product_state_order(D01, Event(0, 0), s1, Event(100.0, 0), s2)

    def test_boundary_flag(self):
        s1, s2 = equatorial(0.0), equatorial(1.2)
        d = spectral_distance(D01, s1, s2)
        assert order_boundary_case(D01, Event(0, 0), s1, Event(d, 0), s2)
        assert not order_boundary_case(D01, Event(0, 0), s1, Event(d + 1.0, 0), s2)

    def test_partial_order_sampled(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            z = float(rng.uniform(-0.9, 0.9))
            s1 = state_on_latitude(z, float(rng.uniform(0, 2 * math.pi)))
            x = Event(float(rng.normal()), float(rng.normal()))
            assert product_state_order(D01, x, s1, x, s1)
            dt1, dt2 = abs(rng.normal()) + 0.1, abs(rng.normal()) + 0.1
            y = Event(x.x0 + dt1, x.x1 + rng.uniform(-0.9, 0.9) * dt1)
            zed = Event(y.x0 + dt2, y.x1 + rng.uniform(-0.9, 0.9) * dt2)
            s2 = state_on_latitude(z, float(rng.uniform(0, 2 * math.pi)))
            s3 = state_on_latitude(z, float(rng.uniform(0, 2 * math.pi)))
            if (product_state_order(D01, x, s1, y, s2)
                    and product_state_order(D01, y, s2, zed, s3)):
                assert product_state_order(D01, x, s1, zed, s3)


class TestOperatorOrderConsequence:
    def fixtures(self):
        return [time_plus_constant_field(0.6 * PAULI[0]),
                scalar_field(0.5, 0.5),
                field_from_function(
                    lambda u, v: np.diag([u, v]).astype(complex),
                    -1, 1, -1, 1, 5,
                    du=lambda u, v: np.diag([1.0, 0.0]).astype(complex),
                    dv=lambda u, v: np.diag([0.0, 1.0]).astype(complex),
                    family="affine")]

    def test_cone_members_are_operator_monotone_along_causality(self):
        for f in self.fixtures():
            ok, _ = field_in_cone(f, D01)
            assert ok
            rng = np.random.default_rng(8)
            for _ in range(60):
                i1, j1 = rng.integers(0, f.n, size=2)
                i2 = int(rng.integers(i1, f.n))
                j2 = int(rng.integers(j1, f.n))
                diff = HermMat(f.values[i2, j2] - f.values[i1, j1])
                assert is_psd(diff, tol=1e-9)

    def test_causality_recovered_from_fixture_fields(self):
        # diag(u, v) packs two time functions: its operator order alone
        # pins the causal order; the other members never contradict it.
        fields = self.fixtures()
        f0 = fields[0]
        rng = np.random.default_rng(9)
        for _ in range(200):
            i1, j1, i2, j2 = (int(k) for k in rng.integers(0, f0.n, size=4))
            x, y = f0.event_at(i1, j1), f0.event_at(i2, j2)
            all_increase = all(
                is_psd(HermMat(f.values[i2, j2] - f.values[i1, j1]), tol=1e-9)
                for f in fields)
            assert all_increase == causal_leq(x, y)


class TestEigenvalueClockProbe:
    def test_scalar_field_has_no_inversion(self):
        f = scalar_field(0.5, 0.5)
        report = eigenvalue_clock_probe(f, f.event_at(0, 0), f.event_at(2, 2))
        assert report.monotone_along_paths
        assert not report.inversion_found
        assert report.eig_at_x[0] == report.eig_at_x[1]

    def test_split_diagonal_exhibits_inversion(self):
        f = time_plus_constant_field(np.diag([0.0, 10.0]).astype(complex))
        ok, _ = field_in_cone(f, D01)
        assert ok
        report = eigenvalue_clock_probe(f, f.event_at(0, 0), f.event_at(1, 1))
        assert report.monotone_along_paths
        assert report.inversion_found
        a = report.inversion["node_a"]
        b = report.inversion["node_b"]
        assert a[0] <= b[0] and a[1] <= b[1]
        assert report.inversion["upper_at_a"] > report.inversion["lower_at_b"]

    @pytest.mark.parametrize("corner, first", [((16, 0), [1, 0]), ((0, 16), [0, 1])],
                             ids=["u-step", "v-step"])
    def test_one_decreasing_step_breaks_monotonicity(self, corner, first):
        # Only the unit step into the corner node decreases; a monotone
        # path from (0, 0) takes it with probability 2^-16.
        n = 17
        t = np.add.outer(np.linspace(-1.0, 1.0, n), np.linspace(-1.0, 1.0, n)) / 2.0
        values = t[:, :, None, None] * np.eye(2)
        values[corner] = -np.eye(2)
        f = MatrixField(-1.0, 1.0, -1.0, 1.0, n, values)
        report = eigenvalue_clock_probe(f, f.event_at(0, 0), f.event_at(n - 1, n - 1))
        assert not report.monotone_along_paths
        # ``first`` is the first node in row-major order above the corner.
        assert report.inversion == {"node_a": first, "node_b": list(corner),
                                    "upper_at_a": float(t[tuple(first)]), "lower_at_b": -1.0}

    def test_requires_grid_nodes_and_causal_pair(self):
        f = scalar_field(0.5, 0.5)
        with pytest.raises(ValueError):
            eigenvalue_clock_probe(f, Event(0.123, 0.456), f.event_at(2, 2))
        with pytest.raises(ValueError):
            eigenvalue_clock_probe(f, f.event_at(2, 2), f.event_at(0, 0))


class TestMonotoneCalculusEscapesCone:
    @staticmethod
    def composite_field(a: HermMat, f: MonotoneFn, lo: float, hi: float,
                        n: int) -> MatrixField:
        spec = spectrum(a)

        def val(u, v):
            t = (u + v) / 2.0
            return sum(float(f(t + lam)) * p.mat
                       for lam, p in zip(spec.eigenvalues, spec.projectors))

        def deriv(u, v):
            t = (u + v) / 2.0
            return sum(0.5 * monotone_slope_at(f, t + float(lam)) * p.mat
                       for lam, p in zip(spec.eigenvalues, spec.projectors))

        return field_from_function(val, lo, hi, lo, hi, n,
                                   du=deriv, dv=deriv,
                                   family="monotone-composite")

    def _nodes_clear_of_knots(self, f, a, lo, hi, n):
        spec = spectrum(a)
        ts = {(u + v) / 2.0 for u in np.linspace(lo, hi, n)
              for v in np.linspace(lo, hi, n)}
        for t in ts:
            for lam in spec.eigenvalues:
                if np.min(np.abs(f.knots - (t + lam))) < 1e-4:
                    return False
        return True

    def test_explicit_escape_instance(self):
        a = HermMat(0.999 * PAULI[0])
        base = time_plus_constant_field(a.mat, n=5, lo=-0.53, hi=0.47)
        ok, _ = field_in_cone(base, D01)
        assert ok
        f = MonotoneFn([-1.0, 0.0, 1.0], [-1.0, 0.0, 5.0])
        comp = self.composite_field(a, f, -0.53, 0.47, 5)
        assert self._nodes_clear_of_knots(f, a, -0.53, 0.47, 5)
        escaped, loc = field_in_cone(comp, D01, tol=1e-9)
        assert not escaped and loc is not None

    def test_randomized_search_finds_escape(self):
        rng = np.random.default_rng(10)
        found = 0
        for _ in range(120):
            raw = random_herm(rng, 2)
            norm = op_norm(commutator(D01.matrix, raw))
            if norm < 1e-6:
                continue
            a = (float(rng.uniform(0.85, 0.995)) / norm) * raw
            base = time_plus_constant_field(a.mat, n=5, lo=-0.93, hi=0.87)
            in_cone, _ = field_in_cone(base, D01)
            if not in_cone:
                continue
            f = random_monotone_fn(rng, max_knots=4, span=1.5)
            if not self._nodes_clear_of_knots(f, a, -0.93, 0.87, 5):
                continue
            comp = self.composite_field(a, f, -0.93, 0.87, 5)
            escaped, _ = field_in_cone(comp, D01, tol=1e-9)
            if not escaped:
                found += 1
        assert found >= 1


class TestMatrixFieldInterface:
    def test_json_roundtrip_finite_difference(self):
        eye = np.eye(2, dtype=complex)
        f = field_from_function(lambda u, v: (u * u + v) * eye, 0, 1, 0, 1, 5)
        g = MatrixField.from_json(self._json_field(f.values, (0, 1, 0, 1), "finite-difference"))
        assert g.derivatives_kind == "finite-difference"
        assert np.abs(g.values - f.values).max() < 1e-12
        assert np.abs(g.deriv_u - f.deriv_u).max() < 1e-12

    def test_json_analytic_time_plus_constant(self):
        f = time_plus_constant_field(0.4 * PAULI[1])
        g = MatrixField.from_json(
            self._json_field(f.values, (-1, 1, -1, 1), "analytic:time-plus-constant"))
        assert g.derivatives_kind == "analytic:time-plus-constant"
        assert np.abs(g.deriv_u - 0.5 * np.eye(2)).max() < 1e-12

    def test_json_analytic_affine_is_exact(self):
        f = scalar_field(0.7, -0.2)
        g = MatrixField.from_json(self._json_field(f.values, (-1, 1, -1, 1), "analytic:affine"))
        assert np.abs(g.deriv_u - f.deriv_u).max() < 1e-10

    @pytest.mark.parametrize("kind", ["finite-difference", "analytic:time-plus-constant",
                                      "analytic:affine"])
    def test_json_field_is_built_once(self, monkeypatch, kind):
        # One construction checks the samples against the analytic family
        # and builds its derivatives.
        eye = np.eye(2, dtype=complex)
        values = np.array([[(u + v) / 2.0 * eye + 0.3 * PAULI[0] for v in np.linspace(-1, 1, 5)]
                           for u in np.linspace(-1, 1, 5)])
        built = []
        init = MatrixField.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)
        monkeypatch.setattr(MatrixField, "__init__", counting_init)
        field = MatrixField.from_json(self._json_field(values, (-1, 1, -1, 1), kind))
        assert field.derivatives_kind == kind
        assert len(built) == 1

    def test_validation(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            MatrixField(0, 1, 0, 1, 2, np.zeros((2, 2, 2, 2), dtype=complex))
        bad = np.zeros((3, 3, 2, 2), dtype=complex)
        bad[0, 0] = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            MatrixField(0, 1, 0, 1, 3, bad)

    @pytest.mark.parametrize("kind", ["finite-difference", "analytic:time-plus-constant",
                                      "analytic:affine"])
    def test_underflowing_node_spacing_is_rejected(self, kind):
        # A spacing of 2.5e-301 passed the box check, then np.gradient's
        # products of spacings underflowed: divide-by-zero warnings and a
        # "must be finite" error on finite samples.
        eye = np.eye(2, dtype=complex)
        values = np.array([[(u + v) / 2.0 * eye for v in np.linspace(0, 1, 5)]
                           for u in np.linspace(0, 1e-300, 5)])
        obj = self._json_field(values, (0.0, 1e-300, 0.0, 1.0), kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"node spacing 2\.5e-301 .* underflows"):
                MatrixField.from_json(obj)

    def test_constructor_checks_hermiticity_per_node(self):
        # 1e-11 on a unit-scale node is above 1e-12 * max(1, |entry|), the
        # rule from_json applies too.
        values = np.zeros((3, 3, 2, 2), dtype=complex)
        values[1, 2] = np.eye(2)
        values[1, 2, 0, 1] += 1e-11
        with pytest.raises(ValueError, match=r"node \(1, 2\) is not Hermitian"):
            MatrixField(0, 1, 0, 1, 3, values)

    @staticmethod
    def _json_field(values: np.ndarray, box=(0.0, 1.0, 0.0, 1.0),
                    derivatives: str | None = None) -> dict:
        """The JSON form of a field; without ``derivatives`` the key is left out."""
        n = values.shape[0]
        obj = {"grid": {**dict(zip(("u_min", "u_max", "v_min", "v_max"), box)), "n": n},
               "values": [{"dim": 2, "re": m.real.ravel().tolist(),
                           "im": m.imag.ravel().tolist()} for m in values.reshape(-1, 2, 2)]}
        if derivatives is not None:
            obj["derivatives"] = derivatives
        return obj

    def test_json_values_match_per_node_hermmat(self):
        rng = np.random.default_rng(11)
        values = np.array([random_herm(rng, 2).mat for _ in range(16)]).reshape(4, 4, 2, 2)
        values[1, 2, 0, 1] += 3e-13  # within tolerance; symmetrized away
        obj = self._json_field(values)
        nodes = [np.reshape(v["re"], (2, 2)) + 1j * np.reshape(v["im"], (2, 2))
                 for v in obj["values"]]
        want = np.array([HermMat(m).mat for m in nodes])
        assert np.array_equal(MatrixField.from_json(obj).values, want.reshape(4, 4, 2, 2))

    def test_json_hermiticity_is_scaled_per_node(self):
        values = np.zeros((3, 3, 2, 2), dtype=complex)
        values[0, 0] = 1e3 * np.eye(2)
        values[0, 0, 0, 1] += 1e-10  # below 1e-12 * 1e3
        MatrixField.from_json(self._json_field(values))
        values[2, 1, 0, 1] += 1e-10  # above 1e-12 * 1 on a small node
        with pytest.raises(ValueError, match=r"\(2, 1\)"):
            MatrixField.from_json(self._json_field(values))

    def test_json_rejects_other_dimensions(self):
        obj = self._json_field(np.zeros((3, 3, 2, 2), dtype=complex))
        obj["values"][4] = HermMat(np.eye(3)).to_json()
        with pytest.raises(ValueError, match="dim 2"):
            MatrixField.from_json(obj)
        obj["values"][4] = {"dim": 2, "re": [0.0, 0.0, 0.0], "im": [0.0] * 4}
        with pytest.raises(ValueError):
            MatrixField.from_json(obj)

    def test_node_index(self):
        f = scalar_field(0.5, 0.5)
        assert f.node_index(f.event_at(2, 3)) == (2, 3)
        with pytest.raises(ValueError):
            f.node_index(Event(100.0, 0.0))
