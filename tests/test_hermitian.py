import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccausal.hermitian import (HERMITICITY_TOL, PAULI, CapIsocone, HermMat, MonotoneFn,
                                _not_hermitian, _pauli_stack, apply_monotone, commutator,
                                eigenvalues, is_psd, op_norm, random_herm, spectrum)
from oracles import (_jacobi, pivoted_cholesky_psd, power_iteration_extremes,
                     random_monotone_fn)


class TestHermMat:
    def test_symmetrization_on_construction(self):
        noisy = np.array([[1.0, 0.5 + 1e-13j], [0.5 - 2e-13j, 2.0]])
        a = HermMat(noisy)
        assert np.abs(a.mat - a.mat.conj().T).max() == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermMat([[0.0, 1.0], [0.0, 0.0]])
        # At the tolerance edge, construction rejects exactly the
        # matrices that the shared stacked check flags.
        for scale in (1.0, 1e3):
            for factor, flagged in ((1.0 + 1e-6, True), (1.0 - 1e-6, False)):
                m = np.array([[scale, HERMITICITY_TOL * scale * factor], [0.0, scale]])
                assert bool(_not_hermitian(m, HERMITICITY_TOL)) is flagged
                if flagged:
                    with pytest.raises(ValueError):
                        HermMat(m)
                else:
                    HermMat(m)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            HermMat(np.eye(17))

    def test_json_roundtrip(self):
        rng = np.random.default_rng(5)
        a = random_herm(rng, 3)
        obj = a.to_json()
        b = np.reshape(obj["re"], (3, 3)) + 1j * np.reshape(obj["im"], (3, 3))
        assert obj["dim"] == 3 and np.array_equal(HermMat(b).mat, a.mat)

    def test_pauli_roundtrip(self):
        a = HermMat.from_pauli(1.5, [0.2, -0.3, 0.7])
        c, v = a.pauli_coeffs()
        assert abs(c - 1.5) < 1e-14
        assert np.allclose(v, [0.2, -0.3, 0.7])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pauli_stack_is_hermitian_to_the_bit(self, seed):
        # Pauli sums reach the eigensolvers with no check or symmetrization.
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-8.0, 8.0, size=(200, 1))
        c = scale[:, :, None] * rng.standard_normal((200, 1, 1))
        s = _pauli_stack(c, scale * rng.standard_normal((200, 3)))
        assert np.array_equal(s, s.conj().swapaxes(-1, -2))

    def test_pauli_coeffs_match_trace_formula(self):
        # c = tr(a)/2 and v_k = tr(a sigma_k)/2, by matrix products.
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = random_herm(rng, 2)
            c, v = a.pauli_coeffs()
            assert abs(c - np.trace(a.mat).real / 2.0) < 1e-14
            ref = [np.trace(a.mat @ s).real / 2.0 for s in PAULI]
            assert np.abs(v - ref).max() < 1e-14


class TestSpectrum:
    def test_identity_dim2(self):
        assert np.allclose(spectrum(HermMat(np.eye(2))).eigenvalues, [1.0, 1.0])

    def test_finite_dirac_diagonal(self):
        assert np.allclose(spectrum(HermMat.diag([0.0, 1.0])).eigenvalues, [0.0, 1.0])

    def test_pauli_x(self):
        # Characteristic polynomial lam^2 - 1 by hand; cross-checked
        # against power iteration.
        s = spectrum(HermMat(PAULI[0]))
        assert np.allclose(s.eigenvalues, [-1.0, 1.0], atol=1e-12)
        lo, hi = power_iteration_extremes(PAULI[0])
        assert abs(lo + 1.0) < 1e-9 and abs(hi - 1.0) < 1e-9

    def test_reconstruction_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            dim = int(rng.integers(2, 9))
            a = random_herm(rng, dim)
            spec = spectrum(a)
            rebuilt = sum(lam * p.mat for lam, p in zip(spec.eigenvalues, spec.projectors))
            err = np.linalg.norm(rebuilt - a.mat)
            assert err < 1e-9

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            a = random_herm(rng, dim)
            ref, _ = _jacobi(a.mat)
            assert np.abs(spectrum(a).eigenvalues - ref).max() < 1e-10
            assert np.abs(eigenvalues(a.mat) - ref).max() < 1e-10

    def test_stacked_eigenvalues_match_jacobi_oracle(self):
        rng = np.random.default_rng(10)
        for dim in (1, 2, 3, 5):
            stack = np.array([[random_herm(rng, dim).mat for _ in range(4)]
                              for _ in range(3)])
            got = eigenvalues(stack)
            assert got.shape == (3, 4, dim)
            for i in range(3):
                for j in range(4):
                    assert np.abs(got[i, j] - _jacobi(stack[i, j])[0]).max() < 1e-10

    def test_projector_invariants(self):
        rng = np.random.default_rng(11)
        for dim in (2, 4, 7):
            a = random_herm(rng, dim)
            spec = spectrum(a)
            total = sum(p.mat for p in spec.projectors)
            assert np.abs(total - np.eye(dim)).max() < 1e-10
            for p in spec.projectors:
                assert np.abs(p.mat @ p.mat - p.mat).max() < 1e-10
                assert np.abs(p.mat - p.mat.conj().T).max() < 1e-10

    def test_degenerate_spectrum(self):
        s = spectrum(HermMat(3.0 * np.eye(2)))
        assert np.allclose(s.eigenvalues, [3.0, 3.0])
        assert np.abs(sum(p.mat for p in s.projectors) - np.eye(2)).max() < 1e-12


class TestMonotoneCalculus:
    def test_identity_function(self):
        rng = np.random.default_rng(3)
        a = random_herm(rng, 4)
        identity = MonotoneFn([0.0, 1.0], [0.0, 1.0])
        assert np.abs(apply_monotone(a, identity).mat - a.mat).max() <= 1e-10

    def test_constant_function(self):
        a = random_herm(np.random.default_rng(4), 3)
        out = apply_monotone(a, MonotoneFn([0.0], [2.5]))
        assert np.abs(out.mat - 2.5 * np.eye(3)).max() < 1e-10

    def test_diagonal_example(self):
        f = MonotoneFn([0.0, 1.0], [2.0, 5.0])
        out = apply_monotone(HermMat.diag([0.0, 1.0]), f)
        assert np.allclose(out.mat, np.diag([2.0, 5.0]))

    def test_spectral_mapping(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            a = random_herm(rng, dim)
            f = random_monotone_fn(rng)
            mapped = np.sort(f(spectrum(a).eigenvalues))
            direct = spectrum(apply_monotone(a, f)).eigenvalues
            assert np.abs(np.sort(direct) - mapped).max() < 1e-9

    def test_preserves_order_on_commuting_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            base = random_herm(rng, dim)
            spec = spectrum(base)
            bump = rng.uniform(0.0, 2.0, size=dim)
            larger_mat = sum((lam + b) * p.mat
                             for lam, b, p in zip(spec.eigenvalues, bump, spec.projectors))
            larger = HermMat(larger_mat, tol=1e-9)
            f = random_monotone_fn(rng)
            diff = apply_monotone(larger, f) - apply_monotone(base, f)
            assert is_psd(diff, tol=1e-8)

    def test_monotone_validation(self):
        with pytest.raises(ValueError):
            MonotoneFn([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            MonotoneFn([1.0, 0.0], [0.0, 1.0])

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=20, unique=True),
           st.floats(-100, 100), st.floats(-100, 100))
    @settings(max_examples=100, deadline=None)
    def test_evaluation_is_non_decreasing(self, knots, t1, t2):
        knots = sorted(knots)
        values = np.cumsum(np.abs(np.diff([0.0] + knots)))
        f = MonotoneFn(knots, values)
        lo, hi = min(t1, t2), max(t1, t2)
        assert f(lo) <= f(hi) + 1e-9


class TestPsdAndNorms:
    def test_is_psd_examples(self):
        assert is_psd(HermMat(np.eye(2)))
        assert not is_psd(HermMat.diag([1.0, -1.0]))
        assert is_psd(HermMat([[1.0, 1.0], [1.0, 1.0]]))  # eigenvalues 0, 2

    def test_is_psd_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_psd(HermMat(np.eye(2)), tol=-1.0)

    def test_is_psd_vs_pivoted_cholesky(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            dim = int(rng.integers(2, 7))
            a = random_herm(rng, dim)
            if rng.uniform() < 0.4:
                # Shift towards the PSD cone to exercise both outcomes.
                a = HermMat(a.mat + (abs(spectrum(a).eigenvalues[0]) + 0.1) * np.eye(dim))
            assert is_psd(a, tol=1e-9) == pivoted_cholesky_psd(a.mat, tol=1e-9)

    def test_op_norm_examples(self):
        assert op_norm(HermMat(np.zeros((2, 2)))) == 0.0
        assert abs(op_norm(HermMat.diag([3.0, -5.0])) - 5.0) < 1e-12
        anti = np.array([[0.0, 2.0], [-2.0, 0.0]], dtype=complex)
        assert abs(op_norm(anti) - 2.0) < 1e-12

    def test_op_norm_matches_max_abs_eigenvalue(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            a = random_herm(rng, int(rng.integers(2, 8)))
            ref = float(np.abs(spectrum(a).eigenvalues).max())
            assert abs(op_norm(a) - ref) < 1e-9


class TestCommutator:
    def test_self_commutator_vanishes(self):
        a = random_herm(np.random.default_rng(2), 4)
        assert np.abs(commutator(a, a)).max() < 1e-12

    def test_diag_with_pauli_x(self):
        out = commutator(HermMat.diag([0.0, 1.0]), HermMat(PAULI[0]))
        assert np.allclose(out, [[0.0, -1.0], [1.0, 0.0]])

    def test_scalar_commutes(self):
        rng = np.random.default_rng(6)
        b = random_herm(rng, 3)
        out = commutator(HermMat(2.0 * np.eye(3)), b)
        assert np.abs(out).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(HermMat(np.eye(2)), HermMat(np.eye(3)))

    def test_result_anti_hermitian(self):
        rng = np.random.default_rng(13)
        a, b = random_herm(rng, 5), random_herm(rng, 5)
        out = commutator(a, b)
        assert np.abs(out + out.conj().T).max() < 1e-10

    def test_large_commuting_inputs(self):
        # a and b = a^2 / 1e4 commute exactly: the result is rounding of
        # about 1e-16 |a| |b|, anti-Hermitian to that size, and no error.
        rng = np.random.default_rng(23)
        for _ in range(40):
            a = random_herm(rng, int(rng.integers(2, 6)), 1e4)
            b = HermMat(a.mat @ a.mat / 1e4)
            out = commutator(a, b)
            scale = op_norm(a) * op_norm(b)
            assert np.abs(out).max() < 1e-13 * scale
            assert np.abs(out + out.conj().T).max() < 1e-13 * scale


def test_cap_rotation_takes_z_to_near_polar_axes():
    # Within about 1.4e-7 rad of +-z the rotation used to be the identity or
    # diag(1, -1, -1), missing the axis by up to 1e-7, 1,000 x ANGLE_TOL; the
    # samplers rotate cap elements with it.
    e_z = np.array([0.0, 0.0, 1.0])
    axes = [[0.0, 0.0, -1.0]]
    for offset in (1e-8, 1e-7):
        for pole in (1.0, -1.0):
            for phi in (0.0, 1.3, -2.2):
                axes.append([math.sin(offset) * math.cos(phi), math.sin(offset) * math.sin(phi),
                             pole * math.cos(offset)])
    for axis in axes:
        cone = CapIsocone(axis, 0.5)
        rotation = cone.rotation
        assert np.abs(rotation @ e_z - cone.axis).max() <= 1e-15, axis
        assert np.abs(rotation.T @ rotation - np.eye(3)).max() <= 4e-15, axis
        assert abs(np.linalg.det(rotation) - 1.0) <= 4e-15, axis
    # The exact poles keep their matrices.
    assert np.array_equal(CapIsocone([0.0, 0.0, 1.0], 0.5).rotation, np.eye(3))
    assert np.array_equal(CapIsocone([0.0, 0.0, -1.0], 0.5).rotation, np.diag([1.0, -1.0, -1.0]))
