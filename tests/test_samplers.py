"""The draw-first samplers against the scalar samplers of ``tests/oracles.py``.

Both routes must make the same Generator calls in the same order and give
the same arrays bit for bit: under real Generators (with equal
``bit_generator.state`` afterwards) and under ``ScriptedRng`` scripts that
force the rare branches: a projection within the guard band around -1e-3,
a Bloch draw redrawn for a norm below 1e-8, 64 failed tries, posets with no
cap block or no strict pair, and blocks of dimension 1 and 16.
"""

import json
import math

import numpy as np
import pytest

import oracles
from nccausal import isocone
from nccausal.isocone import CapIsocone, LexComponent, LexIsocone, saturation_check
from nccausal.poset import FinitePoset
from oracles import ScriptedRng

Z_CAP = CapIsocone([0.0, 0.0, 1.0], math.pi / 4)
FULL = CapIsocone.full()
TILTED = CapIsocone([0.3, -0.5, 0.8], 1.1)


def _lex(poset, *comps):
    return LexIsocone(poset, [LexComponent(d, cone) for d, cone in comps])


FIXTURES = {
    "cap-full": _lex(FinitePoset.chain(2), (2, Z_CAP), (2, FULL)),
    "vee-1-cap-2": _lex(FinitePoset.from_pairs(3, [[0, 2], [1, 2]]), (1, FULL), (2, Z_CAP), (2, FULL)),
    "chain-16-16": _lex(FinitePoset.chain(2), (16, FULL), (16, FULL)),
    "chain-1-16": _lex(FinitePoset.chain(2), (1, FULL), (16, FULL)),
    "wide-16-cap-8": _lex(FinitePoset.chain(3), (16, FULL), (2, Z_CAP), (8, FULL)),
    "antichain-caps": _lex(FinitePoset.antichain(2), (2, TILTED), (2, Z_CAP)),
    "chain-3-tilted": _lex(FinitePoset.chain(2), (3, FULL), (2, TILTED)),
}


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _stacks(members, L):
    return [_bits(np.stack([m[z].mat for m in members])) for z in range(L.poset.size)]


def _scalar_pairs(L, pairs) -> dict:
    """Scalar pairs per ``(x, y)``, in draw order, after ``BlochState``."""
    def state(x, s):
        return isocone.BlochState(s).n if L.components[x].dim == 2 else s
    out: dict = {}
    for (x, s1), (y, s2) in pairs:
        out.setdefault((x, y), []).append((state(x, s1), state(y, s2)))
    return {key: (_bits(np.array([a for a, _ in got])), _bits(np.array([b for _, b in got])))
            for key, got in out.items()}


def _parts(parts) -> dict:
    out: dict = {}
    for x, y, s1, s2 in parts:
        out.setdefault((x, y), []).append((s1, s2))
    return {key: (_bits(np.concatenate([a for a, _ in got])), _bits(np.concatenate([b for _, b in got])))
            for key, got in out.items()}


def _scalar_lex_samples(L, samples, rng) -> dict:
    out: dict = {}
    n = L.poset.size
    for k in range(samples):
        x = int(rng.integers(n))
        y = x if rng.uniform() < 0.5 else int(rng.integers(n))
        s1 = oracles.random_block_state(rng, L.components[x].dim)
        s2 = oracles.random_block_state(rng, L.components[y].dim)
        key = (x, y, isocone.lex_induced_order(L, x, s1, y, s2))
        out.setdefault(key, []).append((k, isocone._state_array(s1), isocone._state_array(s2)))
    return {key: ([k for k, _, _ in got], _bits(np.array([a for _, a, _ in got])),
                  _bits(np.array([b for _, _, b in got]))) for key, got in out.items()}


def _lex_samples(L, samples, rng) -> dict:
    return {key: (ks, _bits(s1), _bits(s2))
            for key, (ks, s1, s2) in isocone._lex_samples(L, samples, rng).items()}


def _rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_stream(a, b):
    if isinstance(a, ScriptedRng):
        return a.taken == b.taken
    return a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("name", sorted(FIXTURES))
class TestSamplersMatchScalar:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_members(self, name, seed):
        L = FIXTURES[name]
        rng, ref = _rngs(seed)
        got = isocone._random_elements(L, rng, np.ones(12, dtype=bool))
        want = [oracles.random_member(L, ref) for _ in range(12)]
        assert [_bits(b) for b in got] == _stacks(want, L)
        assert _same_stream(rng, ref)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_saturation_elements(self, name, seed):
        L = FIXTURES[name]
        rng, ref = _rngs(seed)
        got = isocone._random_elements(L, rng, np.arange(20) % 3 == 0)
        want = oracles.saturation_elements(L, 20, ref)
        assert [_bits(b) for b in got] == _stacks([blocks for blocks, _ in want], L)
        assert _same_stream(rng, ref)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ordered_pairs(self, name, seed):
        L = FIXTURES[name]
        rng, ref = _rngs(seed)
        got = _parts(isocone._ordered_state_pairs(L, 300, rng))
        assert got == _scalar_pairs(L, oracles.ordered_state_pairs(L, 300, ref))
        assert _same_stream(rng, ref)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lex_samples(self, name, seed):
        L = FIXTURES[name]
        rng, ref = _rngs(seed)
        got = _lex_samples(L, 200, rng)
        want = _scalar_lex_samples(L, 200, ref)
        assert list(got) == list(want) and got == want
        assert _same_stream(rng, ref)

    def test_unscripted_stand_in(self, name):
        # The stand-in draws each kind from its own stream, so merged calls of
        # one kind and single calls see the same values.
        L = FIXTURES[name]
        rng, ref = ScriptedRng(seed=3), ScriptedRng(seed=3)
        assert _lex_samples(L, 60, rng) == _scalar_lex_samples(L, 60, ref)
        assert _parts(isocone._ordered_state_pairs(L, 60, rng)) == _scalar_pairs(
            L, oracles.ordered_state_pairs(L, 60, ref))
        assert [_bits(b) for b in isocone._random_elements(L, rng, np.arange(9) % 3 == 0)] \
            == _stacks([b for b, _ in oracles.saturation_elements(L, 9, ref)], L)
        assert _same_stream(rng, ref)


@pytest.mark.parametrize("name, seeds", [
    ("cap-full", (2, 5, 24)), ("vee-1-cap-2", (2, 5)), ("antichain-caps", (0, 1)),
    ("wide-16-cap-8", (5,)), ("chain-3-tilted", (0,)),
])
def test_saturate_report_matches_scalar_loop(name, seeds):
    L = FIXTURES[name]
    flagged = 0
    for seed in seeds:
        rng, ref = _rngs(seed)
        got = saturation_check(L, 40, 30, rng)
        want = oracles.saturation_report_scalar(L, 40, 30, ref)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        assert _same_stream(rng, ref)
        flagged += got.flagged_coarse
    if name in ("cap-full", "vee-1-cap-2"):
        assert flagged > 0  # the densification and targeted pairs ran


def test_saturate_survivors_match_scalar_loop(monkeypatch):
    # With isotonicity forced on both routes, every non-member is flagged,
    # densified and reported, so the survivors' JSON is compared too.
    monkeypatch.setattr(isocone, "_isotone_on_pairs",
                        lambda L, blocks, pairs, tol: np.ones(len(blocks[0]), dtype=bool))
    monkeypatch.setattr(oracles, "isotone_scalar", lambda *args: True)
    L = FIXTURES["vee-1-cap-2"]
    rng, ref = _rngs(9)
    got = saturation_check(L, 20, 12, rng)
    want = oracles.saturation_report_scalar(L, 20, 12, ref)
    assert len(got.survivors) == 8
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    assert _same_stream(rng, ref)


@pytest.mark.parametrize("filled", [False, True], ids=["empty-buffer", "filled-buffer"])
def test_integers_of_one_draws_nothing(filled):
    # The samplers skip integers(1) (isocone._pick) and the stand-in takes
    # nothing for it, because numpy returns 0 without touching the bit
    # generator, also when integers(2) has left a uint32 half in its buffer.
    rng = np.random.default_rng(11)
    if filled:
        rng.integers(2)
    state = rng.bit_generator.state
    assert state["has_uint32"] == filled
    assert rng.integers(1) == 0 and isocone._pick(rng, 1) == 0
    assert rng.bit_generator.state == state
    scripted = ScriptedRng(integers=[1])
    assert scripted.integers(1) == 0 and scripted.taken["i"] == 0
    assert scripted.integers(2) == 1


CAP_ONLY = _lex(FinitePoset.antichain(1), (2, Z_CAP))


def _both_pairs(L, count, **script):
    rng, ref = ScriptedRng(**script), ScriptedRng(**script)
    got = _parts(isocone._ordered_state_pairs(L, count, rng))
    want = _scalar_pairs(L, oracles.ordered_state_pairs(L, count, ref))
    assert got == want and rng.taken == ref.taken
    return got, rng.taken


class TestScriptedBranches:
    @pytest.mark.parametrize("offset", [0.0, 4e-13, -4e-13])
    def test_projection_in_the_guard_band(self, offset, monkeypatch):
        # Direction +z (u = 0); the first try projects within 1e-12 of -1e-3,
        # so the exact row expression decides: accepted below -1e-3, else the
        # second try is.
        t = 1e-3 + offset
        calls = []
        exact = isocone._dual_pairs

        def counting(v, w):
            calls.append(len(v))
            return exact(v, w)
        monkeypatch.setattr(isocone, "_dual_pairs", counting)
        _, taken = _both_pairs(CAP_ONLY, 1, uniforms=[0.0, 0.0], integers=[0],
                               normals=[math.sqrt(1.0 - t * t), 0.0, -t, 0.0, 0.0, -1.0])
        assert calls == [1, 1]  # the guard band, then the finish
        assert taken["n"] == {4e-13: 3, -4e-13: 6}.get(offset, taken["n"])

    def test_guard_band_on_a_targeted_pair(self):
        # Pauli vector -z/2: the dual direction is +z; the first try is just
        # above -1e-3 and rejected by the exact expression.
        mats = [np.diag([0.0, 1.0]).astype(complex)]
        t = 1e-3 - 4e-13
        script = dict(normals=[math.sqrt(1.0 - t * t), 0.0, -t, 0.0, 0.0, -1.0])
        rng, ref = ScriptedRng(**script), ScriptedRng(**script)
        got = _parts(isocone._targeted_pairs(CAP_ONLY, mats, rng))
        want = _scalar_pairs(CAP_ONLY, oracles.targeted_pairs(
            CAP_ONLY, [isocone.HermMat(m) for m in mats], ref))
        assert got == want and list(got) == [(0, 0)]
        assert rng.taken == ref.taken == {"u": 0, "n": 6, "i": 0}

    def test_tiny_norm_redraw_in_a_dual_try(self):
        got, taken = _both_pairs(CAP_ONLY, 1, uniforms=[0.0, 0.0], integers=[0],
                                 normals=[1e-9, 0.0, 0.0, 0.0, 0.0, -1.0])
        assert taken["n"] == 6 and list(got) == [(0, 0)]

    @pytest.mark.parametrize("first, normals", [([1e-9, -1e-9, 0.0], 15), ([2e-8, 0.0, 0.0], 6),
                                                ([1e-8, 0.0, 0.0], None)])
    def test_tiny_norm_redraw_in_a_cross_pair(self, first, normals):
        # A tiny first triple is redrawn, and then the second state twice; a
        # norm of 2e-8 is kept in Python floats, 1e-8 decided exactly.
        tiny = [1e-9, -1e-9, 0.0]
        got, taken = _both_pairs(FIXTURES["cap-full"], 1, uniforms=[0.1], integers=[0],
                                 normals=first + [0.3, -0.2, 0.9] + tiny + tiny + [0.1, 0.5, -0.4])
        assert list(got) == [(0, 1)] and taken["n"] == (normals or taken["n"])

    def test_tiny_norm_redraw_in_lex_samples(self):
        L = FIXTURES["vee-1-cap-2"]
        tiny = [1e-9, -1e-9, 0.0]
        script = dict(integers=[1, 2, 2], uniforms=[0.1, 0.9],
                      normals=tiny + [0.3, -0.2, 0.9] + tiny + tiny + [0.1, 0.5, -0.4])
        rng, ref = ScriptedRng(**script), ScriptedRng(**script)
        assert _lex_samples(L, 2, rng) == _scalar_lex_samples(L, 2, ref)
        assert rng.taken == ref.taken

    def test_64_failed_tries_give_no_pair(self):
        got, taken = _both_pairs(CAP_ONLY, 1, uniforms=[0.0, 0.0], integers=[0],
                                 normals=[0.0, 0.0, 1.0] * 64)
        assert got == {} and taken == {"u": 2, "n": 192, "i": 0}

    def test_no_cap_block_draws_no_uniform(self):
        _, taken = _both_pairs(FIXTURES["chain-1-16"], 25)
        assert taken["u"] == 0 and taken["i"] == 0

    def test_no_strict_pair_draws_no_coin(self):
        got, taken = _both_pairs(FIXTURES["antichain-caps"], 25)
        assert taken["u"] == 50 and set(got) <= {(0, 0), (1, 1)}

    @pytest.mark.parametrize("name", ["chain-1-16", "wide-16-cap-8"])
    def test_dim_1_and_16_blocks(self, name):
        L = FIXTURES[name]
        rng, ref = ScriptedRng(seed=7), ScriptedRng(seed=7)
        assert [_bits(b) for b in isocone._random_elements(L, rng, np.arange(6) % 3 == 0)] \
            == _stacks([b for b, _ in oracles.saturation_elements(L, 6, ref)], L)
        assert _lex_samples(L, 40, rng) == _scalar_lex_samples(L, 40, ref)
        assert _same_stream(rng, ref)
