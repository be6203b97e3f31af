import json
import math

import numpy as np
import pytest

from nccausal import isocone
from nccausal.cli import default_saturate_fixtures
from nccausal.hermitian import HermMat, apply_monotone, eigenvalues, random_herm
from nccausal.isocone import (ANGLE_TOL, BlochState, BlockStack, CapIsocone, LexComponent,
                              LexIsocone, bloch_vectors, cap_induced_order, cap_membership,
                              lex_induced_order, lex_membership, lex_order_consistency_check,
                              min_cap_dot, saturation_check, state_value, states_equal)
from nccausal.poset import FinitePoset
import oracles
from oracles import (_jacobi, geodesic_order_margin, lex_order_report_scalar,
                     lex_violations_scalar, min_cap_dot_scalar, min_cap_dot_scan,
                     nnls_cone_reachable, random_block_state, random_bloch, random_cap_element,
                     random_member, random_monotone_fn, random_state, same_block_witness_scalar,
                     state_value_scalar)

Z_CAP = CapIsocone([0.0, 0.0, 1.0], math.pi / 4)
# 16 (full) < 2 (cap) < 8 (full): the random full blocks' spectra are
# wider than the default level spacing of random members.
WIDE_CHAIN = LexIsocone(FinitePoset.chain(3),
                        [LexComponent(16, CapIsocone.full()), LexComponent(2, Z_CAP),
                         LexComponent(8, CapIsocone.full())])


def two_chain_fixture(first=None, second=None):
    comps = [LexComponent(2, first or CapIsocone.full()),
             LexComponent(2, second or CapIsocone.full())]
    return LexIsocone(FinitePoset.chain(2), comps)


class TestBlochState:
    def test_norm_validated(self):
        with pytest.raises(ValueError):
            BlochState([1.0, 1.0, 1.0])

    def test_projection_is_rank_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = random_bloch(rng).projection()
            assert np.abs(p.mat @ p.mat - p.mat).max() < 1e-12
            assert abs(np.trace(p.mat).real - 1.0) < 1e-12


class TestCapMembership:
    def test_scalars_always_members(self):
        a = HermMat(5.0 * np.eye(2))
        assert cap_membership(Z_CAP, a)
        assert cap_membership(CapIsocone([1, 0, 0], 0.3), a)
        assert cap_membership(CapIsocone.full(), a)

    def test_axis_projection_member(self):
        # Bloch part along the cap axis; the conic-hull oracle agrees.
        proj = BlochState([0.0, 0.0, 1.0]).projection()
        assert cap_membership(Z_CAP, proj)
        assert nnls_cone_reachable([0.0, 0.0, 0.5], Z_CAP.axis, Z_CAP.rho)

    def test_orthogonal_direction_not_member(self):
        a = HermMat.from_pauli(0.0, [1.0, 0.0, 0.0])
        assert not cap_membership(Z_CAP, a)
        assert not nnls_cone_reachable([1.0, 0.0, 0.0], Z_CAP.axis, Z_CAP.rho)

    def test_membership_matches_conic_hull_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            v = rng.standard_normal(3)
            a = HermMat.from_pauli(float(rng.normal()), v)
            angle = math.acos(np.clip(np.dot(v / np.linalg.norm(v), Z_CAP.axis), -1, 1))
            if abs(angle - Z_CAP.rho) < 1e-3:
                continue  # skip the knife edge for the sampled oracle
            assert cap_membership(Z_CAP, a) == nnls_cone_reachable(v, Z_CAP.axis, Z_CAP.rho)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            cap_membership(Z_CAP, HermMat(np.eye(3)))

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            CapIsocone([0, 0, 1], 2.0)
        with pytest.raises(ValueError):
            CapIsocone([0, 0, 0], 0.5)


class TestCapInducedOrder:
    def test_reflexive(self):
        s = BlochState([0.0, 1.0, 0.0])
        assert cap_induced_order(Z_CAP, s, s)

    def test_hemisphere_dual_is_axis_ray(self):
        hemi = CapIsocone([0, 0, 1], math.pi / 2)
        n = np.array([0.6, 0.0, -0.8])
        up = BlochState([0.6, 0.0, 0.8])
        down = BlochState(n)
        assert cap_induced_order(hemi, down, up)        # n2 - n1 along +z
        assert not cap_induced_order(hemi, up, down)
        side = BlochState([0.8, 0.0, 0.6])
        assert not cap_induced_order(hemi, down, side)
        # Geodesic sampling oracle agrees.
        assert geodesic_order_margin(hemi, down.n, up.n, 2000) >= -1e-12
        assert geodesic_order_margin(hemi, up.n, down.n, 2000) < 0

    def test_quarter_cap_example(self):
        s1 = BlochState([1.0, 0.0, 0.0])
        s2 = BlochState([0.0, 0.0, 1.0])
        # angle(z - x, z) = pi/4 equals the dual half-angle: boundary case.
        assert cap_induced_order(Z_CAP, s1, s2)

    def test_full_cone_induces_equality(self):
        full = CapIsocone.full()
        s1 = BlochState([1, 0, 0])
        assert cap_induced_order(full, s1, s1)
        assert not cap_induced_order(full, s1, BlochState([0, 1, 0]))

    def test_dual_cone_matches_geodesic_sampling(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            rho = float(rng.uniform(0.15, math.pi / 2))
            cone = CapIsocone(rng.standard_normal(3), rho)
            s1, s2 = random_bloch(rng), random_bloch(rng)
            dual = cap_induced_order(cone, s1, s2)
            margin = geodesic_order_margin(cone, s1.n, s2.n, 4000)
            oracle = margin >= -1e-12
            if dual != oracle:
                w = s2.n - s1.n
                ang = math.acos(np.clip(np.dot(w / np.linalg.norm(w), cone.axis), -1, 1))
                assert abs(ang - cone.dual_half_angle) < 1e-6

    def test_partial_order_on_samples(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            s1 = random_bloch(rng)
            assert cap_induced_order(Z_CAP, s1, s1)
            s2, s3 = random_bloch(rng), random_bloch(rng)
            if cap_induced_order(Z_CAP, s1, s2) and cap_induced_order(Z_CAP, s2, s1):
                assert np.linalg.norm(s1.n - s2.n) < 1e-9
            if cap_induced_order(Z_CAP, s1, s2) and cap_induced_order(Z_CAP, s2, s3):
                assert cap_induced_order(Z_CAP, s1, s3, tol=1e-9)


def _angle_from(axis, tilt, rng):
    """Unit vector at angle ``tilt`` from the unit vector ``axis``."""
    e = rng.standard_normal(3)
    e -= np.dot(e, axis) * axis
    e /= np.linalg.norm(e)
    return math.cos(tilt) * axis + math.sin(tilt) * e


class TestMinCapDot:
    def test_matches_whole_cap_scan(self):
        # Random w, w = +-axis, and w near -axis, where the minimizer
        # lies inside the cap rather than on its boundary circle.
        rng = np.random.default_rng(30)
        interior = 0
        for k in range(45):
            cone = CapIsocone(rng.standard_normal(3), float(rng.uniform(0.05, math.pi / 2)))
            length = 10.0 ** float(rng.uniform(-3.0, 1.0))
            if k % 3 == 0:
                w = length * rng.standard_normal(3)
            elif k % 3 == 1:
                w = (length if k % 2 else -length) * cone.axis
            else:
                tilt = float(rng.uniform(0.05, 0.9)) * cone.rho
                w = -length * _angle_from(cone.axis, tilt, rng)
            x, value = min_cap_dot(cone, w)
            _, ref = min_cap_dot_scan(cone, w)
            assert value <= ref + 1e-12
            assert abs(float(np.dot(x, w)) - value) <= 1e-12 * max(1.0, length)
            assert abs(float(np.linalg.norm(x)) - 1.0) < 1e-12
            polar = math.acos(min(1.0, float(np.dot(x, cone.axis))))
            assert polar <= cone.rho + ANGLE_TOL
            if k % 3 == 2:
                assert polar < cone.rho - 1e-3
                interior += 1
        assert interior == 15

    def test_unrelated_pairs_just_past_the_dual_cap(self):
        # n2 - n1 at 2e-10 beyond the dual half-angle plus ANGLE_TOL: the
        # pair is unrelated, the cap minimum is negative and the witness
        # built from it separates the two states.
        rng = np.random.default_rng(31)
        for _ in range(200):
            cone = CapIsocone(rng.standard_normal(3), float(rng.uniform(0.05, 1.4)))
            w = _angle_from(cone.axis, cone.dual_half_angle + ANGLE_TOL + 2e-10, rng)
            n1 = random_bloch(rng).n
            while float(np.dot(n1, w)) > -1e-3:
                n1 = random_bloch(rng).n
            n2 = n1 - 2.0 * float(np.dot(n1, w)) * w
            s1, s2 = BlochState(n1), BlochState(n2 / np.linalg.norm(n2))
            assert not cap_induced_order(cone, s1, s2)
            assert min_cap_dot(cone, s2.n - s1.n)[1] < 0.0
            L = LexIsocone(FinitePoset.antichain(1), [LexComponent(2, cone)])
            witness = oracles.same_block_witness(L, 0, s1, s2)
            assert lex_membership(L, witness)
            assert state_value(witness[0], s1) > state_value(witness[0], s2)


def test_min_cap_dot_stack_equals_one_vector_calls():
    # Rows with w = 0, w along +-axis and w a rounding error off the axis
    # take the tie branch; each stacked row equals its one-vector call and
    # the scalar closed form bit for bit.
    rng = np.random.default_rng(32)
    for _ in range(20):
        cone = CapIsocone(rng.standard_normal(3), float(rng.uniform(0.05, math.pi / 2)))
        w = rng.standard_normal((12, 3)) * 10.0 ** rng.uniform(-3.0, 1.0, size=(12, 1))
        w[0] = 0.0
        w[1], w[2] = 2.5 * cone.axis, -0.3 * cone.axis
        w[3] = -0.3 * cone.axis + 1e-18 * rng.standard_normal(3)
        xs, values = min_cap_dot(cone, w)
        assert xs.shape == (12, 3) and values.shape == (12,)
        for row, x, value in zip(w, xs, values):
            one_x, one_value = min_cap_dot(cone, row)
            ref_x, ref_value = min_cap_dot_scalar(cone, row)
            assert x.tobytes() == one_x.tobytes() == ref_x.tobytes()
            assert float(value).hex() == one_value.hex() == ref_value.hex()


@pytest.mark.parametrize("dim, cone", [(2, Z_CAP), (2, CapIsocone.full()),
                                       (3, CapIsocone.full()), (16, CapIsocone.full())],
                         ids=["cap", "full-2", "full-3", "full-16"])
def test_witness_centres_equal_one_pair_builds(dim, cone):
    L = LexIsocone(FinitePoset.antichain(1), [LexComponent(dim, cone)])
    rng = np.random.default_rng(33)
    pairs = [(random_block_state(rng, dim), random_block_state(rng, dim)) for _ in range(25)]
    rows = [np.array([isocone._state_array(p[side]) for p in pairs]) for side in (0, 1)]
    centres = isocone._witness_centres(L.components[0], *rows, isocone.WITNESS_EPS)
    for centre, (s1, s2) in zip(centres, pairs):
        assert centre.tobytes() == same_block_witness_scalar(L, 0, s1, s2)[0].mat.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim, cone", [(2, Z_CAP), (1, CapIsocone.full()), (2, CapIsocone.full()),
                                       (3, CapIsocone.full()), (16, CapIsocone.full())],
                         ids=["cap", "full-1", "full-2", "full-3", "full-16"])
def test_built_stacks_are_hermitian_to_the_bit(dim, cone, seed):
    # Random elements and same-block witnesses reach the eigensolvers with no
    # Hermiticity check of their own: member and free stacks alike.
    def hermitian(stack):
        return np.array_equal(stack, stack.conj().swapaxes(-1, -2))

    rng = np.random.default_rng(seed)
    L = LexIsocone(FinitePoset.chain(2), [LexComponent(dim, cone)] * 2)
    member = np.arange(30) % 3 == 0
    for block in isocone._random_elements(L, rng, member):
        assert hermitian(block[member]) and hermitian(block[~member])
    pairs = [(random_block_state(rng, dim), random_block_state(rng, dim)) for _ in range(25)]
    rows = [np.array([isocone._state_array(p[side]) for p in pairs]) for side in (0, 1)]
    assert hermitian(isocone._witness_centres(L.components[0], *rows, isocone.WITNESS_EPS))


def _witness_state_rows(dim: int, rng: np.random.Generator, rows: int = 4):
    """Rows ``s1``, ``s2`` of pure states on a dim-block, ``rows`` of each
    kind: random, orthogonal, nearly parallel (1 - |<k1, k2>| about 1e-8)
    and phase-rotated pairs.  Bloch vectors in dimension 2, where a phase
    leaves the vector as it is and orthogonal states are antipodal."""
    # 1 - cos(t) = 1e-8 for kets; (1 - cos(t)) / 2 = 1e-8 for Bloch vectors.
    t = math.acos(1.0 - (2e-8 if dim == 2 else 1e-8))
    s1, s2 = [], []
    for kind in ("random", "orthogonal", "parallel", "phase"):
        for _ in range(rows):
            a, b = random_state(rng, dim), random_state(rng, dim)
            e = b - np.vdot(a, b) * a  # a unit vector orthogonal to a, after scaling
            e = e / np.linalg.norm(e)
            s1.append(a)
            s2.append({"random": b, "orthogonal": -a if dim == 2 else e,
                       "parallel": math.cos(t) * a + math.sin(t) * e,
                       "phase": a if dim == 2 else np.exp(1j * rng.uniform(0.0, 6.3)) * a}[kind])
    return np.array(s1), np.array(s2)


@pytest.mark.parametrize("dim, cone", [(2, Z_CAP), (2, CapIsocone.full()), (3, CapIsocone.full()),
                                       (8, CapIsocone.full()), (16, CapIsocone.full())],
                         ids=["cap", "full-2", "full-3", "full-8", "full-16"])
def test_rank_two_extremes_match_eigensolvers(dim, cone):
    # Same-block witnesses are traceless with rank at most two, so their
    # extremes are -+ |W|_F / sqrt(2): equal to LAPACK's and to the Jacobi
    # oracle's on random, orthogonal, nearly parallel and phase pairs.
    s1, s2 = _witness_state_rows(dim, np.random.default_rng(34))
    w = isocone._witness_centres(LexComponent(dim, cone), s1, s2, isocone.WITNESS_EPS)
    assert np.abs(np.trace(w, axis1=1, axis2=2)).max() < 1e-14
    got = isocone._rank_two_extremes(w)
    assert np.abs(got - np.linalg.eigvalsh(w)[:, [0, -1]]).max() < 1e-13
    assert np.abs(got - [_jacobi(m)[0][[0, -1]] for m in w]).max() < 1e-13
    assert got[:len(w) // 4, 1].min() > 1e-3  # the random pairs are not degenerate


def test_scalar_step_extremes_equal_the_solver():
    # A scalar block level * I has extremes (level, level): bit-equal to the
    # solver's in every dimension and at every level a witness uses.
    for dim in range(1, 17):
        L = LexIsocone(FinitePoset.chain(2), [LexComponent(dim, CapIsocone.full())] * 2)
        for lo, hi in ((0.0, 1.0), (-2.0 * isocone.WITNESS_EPS, 2.0 * isocone.WITNESS_EPS)):
            blocks, ext = isocone._scalar_step_member(L, 1, lo, hi)
            for z, level in enumerate((lo, hi)):
                solved = eigenvalues(level * np.eye(dim, dtype=complex))[[0, -1]]
                assert blocks[z].tobytes() == (level * np.eye(dim, dtype=complex)).tobytes()
                assert ext[z].tobytes() == solved.tobytes() == np.array([level, level]).tobytes()


def test_chain_lex_order_solves_member_cross_and_neighbour_spectra(monkeypatch):
    # 16 < 16 at 160 samples: only the 20 members of two blocks go to
    # LAPACK.  The same-block witnesses take the rank-two closed form, and
    # the scalar blocks of every witness are their levels.
    L = LexIsocone(FinitePoset.chain(2), [LexComponent(16, CapIsocone.full())] * 2)
    solve, matrices = np.linalg.eigvalsh, []

    def counting(a):
        matrices.append(math.prod(np.shape(a)[:-2]))
        return solve(a)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    got = lex_order_consistency_check(L, 160, np.random.default_rng(1))
    assert sum(matrices) == 40
    monkeypatch.undo()
    want = lex_order_report_scalar(L, 160, np.random.default_rng(1))
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


class TestCapConeAxioms:
    def test_closed_under_addition(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            a = random_cap_element(Z_CAP, rng)
            b = random_cap_element(Z_CAP, rng)
            assert cap_membership(Z_CAP, a + b)

    def test_closed_under_scaling_and_constants(self):
        rng = np.random.default_rng(5)
        a = random_cap_element(Z_CAP, rng)
        assert cap_membership(Z_CAP, 3.7 * a)
        assert cap_membership(Z_CAP, HermMat(np.eye(2)))
        assert cap_membership(Z_CAP, -1.0 * HermMat(np.eye(2)))

    def test_stable_under_monotone_calculus(self):
        # Functional calculus keeps the Bloch direction and rescales it
        # by a non-negative factor, so caps are stable.
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = random_cap_element(Z_CAP, rng)
            f = random_monotone_fn(rng)
            assert cap_membership(Z_CAP, apply_monotone(a, f))

    def test_separation_span_full_rank(self):
        rng = np.random.default_rng(7)
        diffs = []
        for _ in range(40):
            a = random_cap_element(Z_CAP, rng)
            b = random_cap_element(Z_CAP, rng)
            d = a - b
            c, v = d.pauli_coeffs()
            diffs.append([c, *v])
        assert np.linalg.matrix_rank(np.array(diffs), tol=1e-8) == 4


class TestLexMembership:
    def test_chain_scalar_examples(self):
        L = two_chain_fixture()
        zero = HermMat(np.zeros((2, 2)))
        one = HermMat(np.eye(2))
        assert lex_membership(L, [zero, one])
        assert not lex_membership(L, [one, zero])

    def test_antichain_is_direct_sum(self):
        L = LexIsocone(FinitePoset.antichain(2),
                       [LexComponent(2, Z_CAP), LexComponent(2, CapIsocone.full())])
        rng = np.random.default_rng(8)
        for _ in range(100):
            blocks = [random_cap_element(Z_CAP, rng), random_herm(rng, 2)]
            assert lex_membership(L, blocks)

    def test_componentwise_cone_enforced(self):
        L = two_chain_fixture(first=Z_CAP)
        bad = [HermMat.from_pauli(0.0, [1.0, 0.0, 0.0]), HermMat(50.0 * np.eye(2))]
        assert not lex_membership(L, bad)

    def test_dimension_mismatch(self):
        L = two_chain_fixture()
        with pytest.raises(ValueError):
            lex_membership(L, [HermMat(np.eye(3)), HermMat(np.eye(2))])

    def test_scalar_levels_pass(self):
        # Non-decreasing scalars along the poset are always members.
        p = FinitePoset.from_pairs(3, [[0, 1], [1, 2]])
        L = LexIsocone(p, [LexComponent(2, CapIsocone.full())] * 3)
        blocks = [HermMat(c * np.eye(2)) for c in (0.0, 1.0, 1.0)]
        assert lex_membership(L, blocks)

    def test_stable_under_addition_and_calculus(self):
        L = two_chain_fixture(first=Z_CAP)
        rng = np.random.default_rng(9)
        for _ in range(200):
            a = random_member(L, rng)
            b = random_member(L, rng)
            assert lex_membership(L, [x + y for x, y in zip(a, b)])
            f = random_monotone_fn(rng)
            assert lex_membership(L, [apply_monotone(x, f) for x in a])

    def test_isolated_block_never_solved(self, monkeypatch):
        # A 16x16 block beside a 1 < cap chain is in no strict pair, so
        # its spectrum cannot decide membership and is never computed.
        L = LexIsocone(FinitePoset.from_pairs(3, [[0, 1]]),
                       [LexComponent(1, CapIsocone.full()), LexComponent(2, Z_CAP),
                        LexComponent(16, CapIsocone.full())])
        shapes = []
        kernel = isocone.eigenvalues

        def counting(mats):
            shapes.append(np.shape(mats))
            return kernel(mats)

        monkeypatch.setattr(isocone, "eigenvalues", counting)
        wild = random_herm(np.random.default_rng(12), 16, scale=100.0)
        low, cap = HermMat(np.zeros((1, 1))), HermMat.from_pauli(2.0, [0.0, 0.0, 0.5])
        assert lex_membership(L, [low, cap, wild])
        assert not lex_membership(L, [HermMat(np.full((1, 1), 1.6)), cap, wild])
        assert shapes and all(shape[-1] < 16 for shape in shapes)

    def test_extreme_eigenvalues_decide_strict_pairs(self):
        # Chain 4 < 3: membership iff the top of the 4x4 spectrum is at
        # most the bottom of the 3x3 one, with both taken from Jacobi.
        L = LexIsocone(FinitePoset.chain(2),
                       [LexComponent(4, CapIsocone.full()),
                        LexComponent(3, CapIsocone.full())])
        rng = np.random.default_rng(13)
        seen = set()
        for _ in range(100):
            low, high = random_herm(rng, 4), random_herm(rng, 3)
            high = HermMat(high.mat + float(rng.uniform(0.0, 8.0)) * np.eye(3))
            gap = _jacobi(high.mat)[0][0] - _jacobi(low.mat)[0][-1]
            if abs(gap) < 1e-8:
                continue
            seen.add(gap >= 0.0)
            assert lex_membership(L, [low, high]) == (gap >= 0.0)
        assert seen == {True, False}

    def test_random_members_of_wide_blocks(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            assert lex_membership(WIDE_CHAIN, random_member(WIDE_CHAIN, rng))

    def test_separation_span_full_rank(self):
        L = two_chain_fixture(first=Z_CAP)
        rng = np.random.default_rng(10)
        diffs = []
        for _ in range(60):
            a = random_member(L, rng)
            b = random_member(L, rng)
            vec = []
            for x, y in zip(a, b):
                d = (x - y).mat
                vec.extend([d[0, 0].real, d[1, 1].real, d[0, 1].real, d[0, 1].imag])
            diffs.append(vec)
        assert np.linalg.matrix_rank(np.array(diffs), tol=1e-8) == 8


class TestLexInducedOrder:
    def test_strict_cross_block_always_related(self):
        L = two_chain_fixture()
        rng = np.random.default_rng(11)
        for _ in range(50):
            s1, s2 = random_bloch(rng), random_bloch(rng)
            assert lex_induced_order(L, 0, s1, 1, s2)
            assert not lex_induced_order(L, 1, s1, 0, s2)

    def test_same_block_full_is_equality(self):
        L = two_chain_fixture()
        s = BlochState([0, 1, 0])
        assert lex_induced_order(L, 0, s, 0, s)
        assert not lex_induced_order(L, 0, s, 0, BlochState([1, 0, 0]))

    def test_incomparable_blocks_unrelated(self):
        L = LexIsocone(FinitePoset.antichain(2),
                       [LexComponent(2, CapIsocone.full())] * 2)
        rng = np.random.default_rng(12)
        assert not lex_induced_order(L, 0, random_bloch(rng), 1, random_bloch(rng))

    def test_same_block_cap_uses_cap_order(self):
        L = LexIsocone(FinitePoset.antichain(1), [LexComponent(2, Z_CAP)])
        s1 = BlochState([1.0, 0.0, 0.0])
        s2 = BlochState([0.0, 0.0, 1.0])
        assert lex_induced_order(L, 0, s1, 0, s2) == cap_induced_order(Z_CAP, s1, s2)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def _state_rows(states) -> np.ndarray:
    return np.array([s.n if isinstance(s, BlochState) else s for s in states])


class TestBlockStack:
    @pytest.mark.parametrize("dim", [1, 2, 16])
    def test_stacked_values_equal_state_value(self, dim):
        # Many entries on one state (lex-order) and one entry on many
        # states (saturate) give, bit for bit, the one-row values and the
        # scalar reference formula.
        rng = np.random.default_rng(60 + dim)
        mats = [random_herm(rng, dim, scale=2.0) for _ in range(40)]
        states = [random_block_state(rng, dim) for _ in range(30)]
        stack = BlockStack(np.stack([a.mat for a in mats]))
        for s in states:
            one_row = [state_value(a, s) for a in mats]
            assert _bits(one_row) == _bits([state_value_scalar(a, s) for a in mats])
            assert _bits(stack.values(_state_rows([s])[0])) == _bits(one_row)
        rows = _state_rows(states)
        for a in mats:
            values = BlockStack(a.mat).values(rows)
            assert values.shape == (len(states),)
            assert _bits(values) == _bits([state_value(a, s) for s in states])

    def test_kets_on_a_dimension_two_block(self):
        # A ket is evaluated as <k|a|k> even on a 2x2 block.
        rng = np.random.default_rng(64)
        a = random_herm(rng, 2)
        kets = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(10)]
        assert _bits(BlockStack(a.mat).values(np.array(kets))) == _bits(
            [state_value_scalar(a, k) for k in kets])

    def test_bloch_vectors_match_bloch_state(self):
        rng = np.random.default_rng(65)
        rows = rng.standard_normal((200, 3))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        assert _bits(bloch_vectors(rows)) == _bits([BlochState(r).n for r in rows])
        with pytest.raises(ValueError, match="norm"):
            bloch_vectors(np.vstack([rows[:3], [[1.0, 1.0, 0.0]]]))


class TestConsistencyCheck:
    def test_two_chain_full(self):
        rng = np.random.default_rng(13)
        L = two_chain_fixture()
        assert lex_order_consistency_check(L, 500, rng).passed

    def test_single_point_cap(self):
        rng = np.random.default_rng(14)
        L = LexIsocone(FinitePoset.antichain(1), [LexComponent(2, Z_CAP)])
        report = lex_order_consistency_check(L, 500, rng)
        assert report.passed

    def test_two_antichain(self):
        rng = np.random.default_rng(15)
        L = LexIsocone(FinitePoset.antichain(2),
                       [LexComponent(2, Z_CAP), LexComponent(2, CapIsocone.full())])
        assert lex_order_consistency_check(L, 500, rng).passed

    def test_mixed_dims_with_vee_poset(self):
        rng = np.random.default_rng(16)
        p = FinitePoset.from_pairs(3, [[0, 2], [1, 2]])
        L = LexIsocone(p, [LexComponent(1, CapIsocone.full()),
                           LexComponent(2, Z_CAP),
                           LexComponent(3, CapIsocone.full())])
        assert lex_order_consistency_check(L, 300, rng).passed

    def test_report_json(self):
        rng = np.random.default_rng(17)
        rep = lex_order_consistency_check(two_chain_fixture(), 50, rng)
        js = rep.to_json()
        assert js["passed"] and js["pairs_checked"] == 50

    @pytest.mark.parametrize("L", [
        two_chain_fixture(first=Z_CAP),
        LexIsocone(FinitePoset.from_pairs(3, [[0, 2], [1, 2]]),
                   [LexComponent(1, CapIsocone.full()), LexComponent(2, Z_CAP),
                    LexComponent(16, CapIsocone.full())]),
    ], ids=["cap-chain", "vee-1-2-16"])
    def test_forced_violations_match_scalar_loop(self, L, monkeypatch):
        # With every pair related, members decrease on many pairs; the
        # stacked evaluation reports the same violations, in the same
        # order and with the same value_gap bits, as a scalar loop.
        monkeypatch.setattr(isocone, "_related", lambda L, x, y, s1, s2: np.ones(len(s1), bool))
        report = lex_order_consistency_check(L, 120, np.random.default_rng(41))
        expected = lex_violations_scalar(L, 120, np.random.default_rng(41))
        assert len(expected) > 100

        def key(v):
            return v["x"], v["y"], v["value_gap"].hex(), v["blocks"]
        assert [key(v) for v in report.monotonicity_violations] == [key(v) for v in expected]

    @pytest.mark.parametrize("dims, cone", [((16, 16), CapIsocone.full()),
                                            ((2, 2, 2), Z_CAP)], ids=["full-16", "cap"])
    def test_witness_builds_each_block_once(self, dims, cone, monkeypatch):
        L = LexIsocone(FinitePoset.chain(len(dims)),
                       [LexComponent(dims[0], cone)]
                       + [LexComponent(d, CapIsocone.full()) for d in dims[1:]])
        rng = np.random.default_rng(42)
        s1, s2 = random_block_state(rng, dims[0]), random_block_state(rng, dims[0])
        built = []
        init = HermMat.__init__

        def counting_init(self, *args, **kwargs):
            built.append(np.shape(args[0]))
            init(self, *args, **kwargs)
        monkeypatch.setattr(HermMat, "__init__", counting_init)
        witness = oracles.same_block_witness(L, 0, s1, s2)
        assert len(built) == len(dims)
        monkeypatch.undo()
        assert lex_membership(L, witness)

    @pytest.mark.parametrize("L, samples", [
        (two_chain_fixture(first=Z_CAP), 400),
        (LexIsocone(FinitePoset.from_pairs(3, [[0, 2], [1, 2]]),
                    [LexComponent(1, CapIsocone.full()), LexComponent(2, Z_CAP),
                     LexComponent(16, CapIsocone.full())]), 200),
        (LexIsocone(FinitePoset.chain(2), [LexComponent(16, CapIsocone.full())] * 2), 160),
        (LexIsocone(FinitePoset.chain(2), [LexComponent(3, CapIsocone.full())] * 2), 300),
    ], ids=["default", "vee-1-2-16", "chain-16-16", "chain-3-3"])
    def test_report_matches_scalar_loop(self, L, samples):
        for seed in (0, 1):
            got = lex_order_consistency_check(L, samples, np.random.default_rng(seed))
            want = lex_order_report_scalar(L, samples, np.random.default_rng(seed))
            assert json.dumps(got.to_json()) == json.dumps(want.to_json())

    def test_axis_parallel_cap_gaps_match_scalar_loop(self, monkeypatch):
        # Each second state mirrors the first across the equator, so every
        # same-block cap pair has n2 - n1 along the axis: the unrelated ones
        # take min_cap_dot's tie branch.
        L = two_chain_fixture(first=Z_CAP)
        draw, draw_scalar, pending = isocone._draw_states, oracles.random_state, []

        def mirrored(rng, row, triples):
            draw(rng, row[:3], (0,))
            row[3:] = row[:3] * np.array([1.0, 1.0, -1.0])

        def mirrored_scalar(rng, dim):
            if pending:
                return pending.pop() * np.array([1.0, 1.0, -1.0])
            state = draw_scalar(rng, dim)
            pending.append(state)
            return state
        monkeypatch.setattr(isocone, "_draw_states", mirrored)
        monkeypatch.setattr(oracles, "random_state", mirrored_scalar)
        gaps = []
        minimum = isocone.min_cap_dot

        def recording(cone, w):
            gaps.append(np.atleast_2d(w))
            return minimum(cone, w)
        monkeypatch.setattr(isocone, "min_cap_dot", recording)
        got = lex_order_consistency_check(L, 400, np.random.default_rng(3))
        assert len(gaps) == 1 and len(gaps[0]) > 20 and not gaps[0][:, :2].any()
        want = lex_order_report_scalar(L, 400, np.random.default_rng(3))
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())

    def test_failing_cap_minimum_matches_scalar_loop(self, monkeypatch):
        # The failing direction of test_lex_order_reports_a_failing_witness,
        # normalised row by row: its witnesses leave the cap.  The cap axis
        # gives members that do not always separate.
        L = two_chain_fixture(first=Z_CAP)
        for direction, reason, count in (
                (lambda cone, w: w / np.linalg.norm(w, axis=-1, keepdims=True),
                 "witness not a member", 133),
                (lambda cone, w: np.broadcast_to(cone.axis, np.shape(w)),
                 "witness does not separate", 56)):
            monkeypatch.setattr(isocone, "min_cap_dot", lambda cone, w: (direction(cone, w), 0.0))
            got = lex_order_consistency_check(L, 400, np.random.default_rng(4))
            want = lex_order_report_scalar(L, 400, np.random.default_rng(4))
            assert [f["reason"] for f in got.witness_failures] == [reason] * count
            assert json.dumps(got.to_json()) == json.dumps(want.to_json())

    def test_failing_stacked_membership_rows_land_in_sample_order(self, monkeypatch):
        # One row fails in each same-block stack: the last row of the stack
        # tested first and the first row of the one tested second, so the
        # report order differs from the order the stacks are tested in.
        L = two_chain_fixture(first=Z_CAP)
        members, stacks = isocone._lex_members, []

        def recording(L, mats, *tol):
            stacks.extend((z, m) for z, m in enumerate(mats) if np.ndim(m) == 3)
            return members(L, mats, *tol)
        monkeypatch.setattr(isocone, "_lex_members", recording)
        lex_order_consistency_check(L, 400, np.random.default_rng(5))
        targets = [(stacks[0][0], stacks[0][1][-1]), (stacks[1][0], stacks[1][1][0])]

        def failing(L, mats, *tol):
            hit = [np.all(mats[z] == t, axis=(-2, -1)) for z, t in targets]
            return members(L, mats, *tol) & ~(hit[0] | hit[1])
        monkeypatch.setattr(isocone, "_lex_members", failing)
        got = lex_order_consistency_check(L, 400, np.random.default_rng(5))
        want = lex_order_report_scalar(L, 400, np.random.default_rng(5))
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        assert [(f["reason"], f["blocks"][f["x"]]) for f in got.witness_failures] == [
            ("witness not a member", HermMat(t).to_json()) for _, t in reversed(targets)]

    def test_cross_block_witness_built_once_per_block(self, monkeypatch):
        # Default fixture 0 < 1: the unrelated cross-block pairs all have
        # x = 1, so one scalar step member is built for them, and one per
        # block carries the same-block witnesses' scalar entries.  A passing
        # check builds no HermMat, here or on the default saturate vee.
        L = two_chain_fixture(first=Z_CAP)
        built, constructed = [], []
        step, init = isocone._scalar_step_member, HermMat.__init__

        def counting_step(L, x, *args, **kwargs):
            built.append((x, args, tuple(sorted(kwargs.items()))))
            return step(L, x, *args, **kwargs)

        def counting_init(self, *args, **kwargs):
            constructed.append(args)
            init(self, *args, **kwargs)
        monkeypatch.setattr(isocone, "_scalar_step_member", counting_step)
        monkeypatch.setattr(HermMat, "__init__", counting_init)
        assert lex_order_consistency_check(L, 400, np.random.default_rng(0)).passed
        assert sorted(x for x, _, _ in built) == [0, 1, 1] and len(set(built)) == 3
        vee = LexIsocone.from_json(default_saturate_fixtures()[1])
        for fixture, samples in ((L, 400), (vee, 300)):
            assert lex_order_consistency_check(fixture, samples, np.random.default_rng(1)).passed
        assert constructed == []


class TestSaturation:
    def test_members_never_flagged(self):
        rng = np.random.default_rng(24)
        L = two_chain_fixture(first=Z_CAP)
        report = saturation_check(L, state_samples=150, element_samples=60, rng=rng)
        assert report.members_flagged == 0
        assert not report.survivors
        assert report.summary == "no counterexample found"

    def test_non_isotone_members_are_flagged(self, monkeypatch):
        # A member that fails isotonicity contradicts the induced order;
        # the report must count it, not discard it.
        monkeypatch.setattr(isocone, "_isotone_on_pairs", lambda *args: False)
        rng = np.random.default_rng(24)
        L = two_chain_fixture(first=Z_CAP)
        report = saturation_check(L, state_samples=20, element_samples=30, rng=rng)
        assert report.members_flagged >= report.members_included > 0
        assert report.to_json()["members_flagged"] == report.members_flagged

    @pytest.mark.parametrize("seed", [5, 6])
    def test_wide_block_chain(self, seed):
        # At these seeds some constructed member has a 16x16 or 8x8
        # spectrum wider than the default spacing between levels.
        rng = np.random.default_rng(seed)
        report = saturation_check(WIDE_CHAIN, state_samples=100, element_samples=30, rng=rng)
        assert report.members_flagged == 0
        assert report.summary == "no counterexample found"

    def test_coarse_flag_eliminated_by_densification(self):
        # An element barely outside its cap looks isotone on a tiny
        # coarse sample but is caught by the densified targeted pairs.
        rng = np.random.default_rng(25)
        L = LexIsocone(FinitePoset.antichain(1), [LexComponent(2, Z_CAP)])
        report = saturation_check(L, state_samples=2, element_samples=40, rng=rng)
        assert not report.survivors
        assert report.flagged_coarse > 0
        assert report.eliminated_by_densification == report.flagged_coarse

    def test_targeted_pairs_hit_extreme_eigenstates(self):
        # Chain 2 < 2 < 3 with a generic, a degenerate (scalar) and a 3x3
        # block: every strict pair gets the top eigenstate of its lower
        # block and the bottom eigenstate of its upper block.
        rng = np.random.default_rng(28)
        L = LexIsocone(FinitePoset.chain(3), [LexComponent(d, CapIsocone.full())
                                              for d in (2, 2, 3)])
        blocks = [random_herm(rng, 2), HermMat(1.5 * np.eye(2)), random_herm(rng, 3)]
        pairs = [((x, s1[0]), (y, s2[0])) for x, y, s1, s2
                 in isocone._targeted_pairs(L, [b.mat for b in blocks], rng)]
        assert [(x, y) for (x, _), (y, _) in pairs] == list(L.poset.strict_pairs())
        for (x, s_top), (y, s_bot) in pairs:
            top = _jacobi(blocks[x].mat)[0][-1]
            bottom = _jacobi(blocks[y].mat)[0][0]
            assert abs(state_value(blocks[x], s_top) - top) < 1e-12
            assert abs(state_value(blocks[y], s_bot) - bottom) < 1e-12
        # The scalar block keeps the tie rule: bottom +z, top -z.
        assert pairs[0][1][1].tolist() == [0.0, 0.0, 1.0]
        assert pairs[2][0][1].tolist() == [0.0, 0.0, -1.0]

    def test_vee_fixture_no_survivors(self):
        rng = np.random.default_rng(26)
        p = FinitePoset.from_pairs(3, [[0, 2], [1, 2]])
        L = LexIsocone(p, [LexComponent(1, CapIsocone.full()),
                           LexComponent(2, Z_CAP),
                           LexComponent(2, CapIsocone.full())])
        report = saturation_check(L, state_samples=120, element_samples=45, rng=rng)
        assert not report.survivors


    @pytest.mark.parametrize("poset, dims", [(FinitePoset.chain(1), (2,)),
                                             (FinitePoset.antichain(3), (1, 2, 3))],
                             ids=["one-point", "antichain"])
    def test_fixture_without_ordered_pairs(self, poset, dims):
        # No strict pair and no cap block: no state pair is ordered, so
        # every element is isotone, and every element of full blocks is a member.
        L = LexIsocone(poset, [LexComponent(d, CapIsocone.full()) for d in dims])
        rng = np.random.default_rng(31)
        state = rng.bit_generator.state
        assert isocone._ordered_state_pairs(L, 50, rng) == []
        assert rng.bit_generator.state == state
        report = saturation_check(L, state_samples=50, element_samples=30, rng=rng)
        assert (report.flagged_coarse, report.members_flagged, report.survivors) == (0, 0, [])
        assert report.summary == "no counterexample found"


class TestEgalitarianConsequence:
    def test_trivial_cone_induces_equality_dim3(self):
        # Only the trivial isocone exists on M_3 here; its induced
        # order is equality: any two distinct pure states are separated
        # by some Hermitian element (the first state's projector).
        rng = np.random.default_rng(27)
        L = LexIsocone(FinitePoset.antichain(1), [LexComponent(3, CapIsocone.full())])
        for _ in range(100):
            s1 = random_block_state(rng, 3)
            s2 = random_block_state(rng, 3)
            related = lex_induced_order(L, 0, s1, 0, s2)
            assert related == states_equal(3, s1, s2)
            if not related:
                witness = HermMat(np.outer(s1, s1.conj()))
                assert state_value(witness, s1) > state_value(witness, s2) + 1e-12

    def test_phase_invariance_of_state_equality(self):
        k = np.array([1.0, 1.0j, 0.5]) / np.linalg.norm([1.0, 1.0j, 0.5])
        assert states_equal(3, k, np.exp(0.7j) * k)


def test_fixture_json_roundtrip():
    L = LexIsocone(FinitePoset.from_pairs(3, [[0, 2], [1, 2]]),
                   [LexComponent(1, CapIsocone.full()),
                    LexComponent(2, Z_CAP),
                    LexComponent(2, CapIsocone.full())])
    again = LexIsocone.from_json(L.to_json())
    assert again.block_dims == L.block_dims
    assert again.poset == L.poset
    assert again.components[1].cone.rho == math.pi / 4


@pytest.mark.parametrize("poset, dims", [
    ({"size": 2.9, "pairs": [[0, 1]]}, (2, 2)),
    ({"size": True, "pairs": []}, (2,)),
    ({"size": 2, "pairs": [[0.7, 1]]}, (2, 2)),
    ({"size": 2, "pairs": [[0, 1]]}, (2.6, 2)),
    ({"size": 2, "pairs": [[0, 1]]}, ("2", 2)),
])
def test_fixture_integers_not_truncated(poset, dims):
    obj = {"poset": poset, "components": [{"dim": d, "cone": "full"} for d in dims]}
    with pytest.raises(ValueError, match="must be an integer"):
        LexIsocone.from_json(obj)
