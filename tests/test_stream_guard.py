"""Frozen digests of what the samplers draw, and of the Generator state.

``tests/test_golden.py`` cannot see a changed random stream: the lex-order
and saturate reports are mostly seed-independent counts (the 5,000-sample
lex-order reports at seeds 3 and 4 are byte-identical).  These digests pin
the sampled arrays themselves and ``rng.bit_generator.state`` after each
sampler, for lex-order on both default saturate fixtures and the 16 < 16
chain and for saturate on both default fixtures, at two seeds each:

* lex-order: the member stacks (the first ``BlockStack`` per block), every
  state stack the check evaluates, and the state once all draws are made
  and after the check;
* saturate: the coarse pairs, the elements, each densification's pairs and
  element, and the state after every pair sampler, after the elements and
  after each targeted-pair draw.

The digests were taken from the scalar samplers that the draw-first
samplers replaced; the spies use only names that both share, so the test
runs against either.  Print the digests of the checked-out code with
``python tests/test_stream_guard.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nccausal import cli, isocone  # noqa: E402

CHAIN16 = {"poset": {"size": 2, "pairs": [[0, 1]]},
           "components": [{"dim": 16, "cone": "full"}] * 2}
FIXTURES = {"default": cli.default_saturate_fixtures()[0],
            "vee": cli.default_saturate_fixtures()[1], "chain16": CHAIN16}
# At seeds 2 and 5 both default fixtures flag at least one element on 40
# coarse pairs, so every case densifies.
CASES = {**{f"lex-order-{name}-{seed}": ("lex-order", name, seed)
            for name in FIXTURES for seed in (0, 1)},
         **{f"saturate-{name}-{seed}": ("saturate", name, seed)
            for name in ("default", "vee") for seed in (2, 5)}}
LEX_SAMPLES = {"default": 400, "vee": 300, "chain16": 60}
SATURATE_SAMPLES, SATURATE_ELEMENTS = 40, 30

GOLDEN = {
    "lex-order-chain16-0": {
        "members": "1e266528867c805ab34ab7ff96c2648365cef194ae446517932c8873d31f9bdd",
        "states": "59cefebafa2d20cf8cb13f3bfec2e2c61a33b28b5eccdd056137b512fd7e5f99",
        "rng": "e46b6df0bc7512a7467bfb08b3dc51100a4a50fe44cf155f34741a02db794e1e",
    },
    "lex-order-chain16-1": {
        "members": "0071b975c523492446980be54c7c94ab3c426d56529e77a6098a7754034f5eff",
        "states": "882b156759025ebad923f50635b0851e4d3b677ed7551f8350b81a9ccd49ec69",
        "rng": "75d8b743ded7780c0c3cb20883a525c3aa1dc80b7a4c27a049f4c2d3bce13f34",
    },
    "lex-order-default-0": {
        "members": "3e89b462a2fb1e40699cb1e90a8314e9e6a7af2ad7c4333913c5c3e9683a9d7c",
        "states": "42ed8fb80029d6911288959e0e3d2c395b14b300637e5d9eb6548ad0dfd155c5",
        "rng": "bbbd533f927ff0a6a9e975688c8479175d0b820c772d61b865d25085d6e275fe",
    },
    "lex-order-default-1": {
        "members": "3ba5ad1c9469d65b24a04f25554b9fbae3dcab1b1137b870fd64ec2de9a87786",
        "states": "d2e8850dc1248f19a66d41fbcf9405a25143c60565248a29d2d7c44734b50eb9",
        "rng": "6915921cab7967813de4d20e72527285ff77750ac5ad2dc6f345aaf1bf7051bd",
    },
    "lex-order-vee-0": {
        "members": "969672246d4c367f6fe6d72eb0538d20df35ad872c61b15b6802c5e46278aba3",
        "states": "b85ac1670e4957c4ffb3d0f54e8e88f25f295ff6a0b41282bb9811103c662bb9",
        "rng": "7296a141d16f887da147e6c1a9206549b0c4dba44339c51df515161ef45fa92f",
    },
    "lex-order-vee-1": {
        "members": "8aeb2bdf456b4d01ddb049ff97101c9743182db27d7e372b9d19976782e87d98",
        "states": "0e23c0c47629b87fc22cb3c8345644ea5957e947dabbc681ab9bce0f8759ee94",
        "rng": "a3f7283c445ce5c45fed308488e954ab9e6cafd2e9d8bfa85a32c727cdb06e1d",
    },
    "saturate-default-2": {
        "coarse": "24b46b3dc443769361e490c7abaa2cce65a21e824b974139bb687f47ccc8651d",
        "elements": "aa033c2fecaacd0610b283290eee6d79b58e4cc3c44aa32be79bf89dd6a6f134",
        "dense": "f632d4d2b75eb3fce81c2f4a361187c379d87c5688872e7d26ff31afc9758d6b",
        "rng": "ad115f62e921bfbda9f794798c3dd4c49c204d73bd1a8b8d26602dc42db911e1",
    },
    "saturate-default-5": {
        "coarse": "d660b5820ec51fd101210d1b020cc7d6b11fa713fc1d730d3c99502e7435b0af",
        "elements": "238a14d92c8e3b298605b82f1cad6b2dfd0ea4ce9fc73052a4318a2496144b26",
        "dense": "3ec8213315bbc00d15f79cfeeb178f1a81ed11a7a6d810cc2823f90f15b19aac",
        "rng": "0052b83f88358f1048120ec937a33074e99021be8709d3537e22a82fb97b9490",
    },
    "saturate-vee-2": {
        "coarse": "7c0e50964ec1c00ecb121c07f795fd02aba1ab735ac35ebbff3cf009a4fc7eb1",
        "elements": "b03a50a967bd1f1a0afacd4959050d1fdbe13ff08f8635768d49c3b9e5dc414e",
        "dense": "b1516cacb00fa85a686d1c2c0da0a67e9bd3410d12c407b04a88139e7ea4a1c5",
        "rng": "ff46cf94dd62c60ea95190f7ea6b778223e53ac963aea9cbf39bb35436288a9d",
    },
    "saturate-vee-5": {
        "coarse": "ebf41ddaeeb76580ad7feb06a6c65a9c0225cfefe188ab190d2df73021419de4",
        "elements": "439c28e14178a9847b1e9dfaf1e3bfef57158787e1e32793a8b1e65e26c4d8ca",
        "dense": "cb98b863ab26ab5e836d7bee90e470f2fe78b0db14115d4def00c3890b387255",
        "rng": "44f4184e7142c97531980a1dffd5f1aadfc13b20bbe83d080d23eb0e328a9727",
    },
}


@contextlib.contextmanager
def _patched(owner, name: str, wrap):
    """``owner.name`` replaced by ``wrap(original)`` inside the block."""
    original = getattr(owner, name)
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def _state(rng: np.random.Generator) -> bytes:
    return json.dumps(rng.bit_generator.state, sort_keys=True).encode()


def _lex_digests(L: isocone.LexIsocone, samples: int, seed: int) -> dict[str, str]:
    rng = np.random.default_rng(seed)
    h = {key: hashlib.sha256() for key in ("members", "states", "rng")}
    built = []

    def spy_init(init):
        def spy(self, mats):
            if len(built) < L.poset.size:
                if not built:
                    h["rng"].update(_state(rng))
                h["members"].update(np.ascontiguousarray(np.asarray(mats)).tobytes())
            built.append(mats)
            init(self, mats)
        return spy

    def spy_values(values):
        def spy(self, states):
            h["states"].update(np.ascontiguousarray(states).tobytes())
            return values(self, states)
        return spy

    with _patched(isocone.BlockStack, "__init__", spy_init), \
            _patched(isocone.BlockStack, "values", spy_values):
        isocone.lex_order_consistency_check(L, samples, rng)
    h["rng"].update(_state(rng))
    return {key: value.hexdigest() for key, value in h.items()}


def _pair_bytes(pairs) -> bytes:
    """Pairs per ``(x, y)`` in draw order, keys sorted.  ``pairs`` is either
    ``(count, sides)``, each side a list of ``(block, pair indices, states)``,
    or a list of parts ``(x, y, x states, y states)``."""
    if isinstance(pairs, tuple):
        count, sides = pairs
        ends = [[None] * count, [None] * count]
        for side, groups in zip(ends, sides):
            for x, rows, states in groups:
                for row, state in zip(rows.tolist(), states):
                    side[row] = (x, state[None])
        pairs = [(a[0], b[0], a[1], b[1]) for a, b in zip(*ends)]
    by_key: dict[tuple, list] = {}
    for x, y, s1, s2 in pairs:
        by_key.setdefault((int(x), int(y)), []).append((s1, s2))
    return b"".join(repr(key).encode() + np.concatenate([a for a, _ in got]).tobytes()
                    + np.concatenate([b for _, b in got]).tobytes()
                    for key, got in sorted(by_key.items()))


def _element_bytes(L: isocone.LexIsocone, blocks) -> list[bytes]:
    """One byte string per element: ``blocks`` holds one ``HermMat`` per
    block, or one ``(c, d, d)`` stack per block."""
    mats = [np.asarray(getattr(b, "mat", b)).reshape(-1, c.dim, c.dim)
            for b, c in zip(blocks, L.components)]
    return [b"".join(np.ascontiguousarray(m[e]).tobytes() for m in mats)
            for e in range(len(mats[0]))]


def _saturate_digests(L: isocone.LexIsocone, seed: int) -> dict[str, str]:
    rng = np.random.default_rng(seed)
    h = {key: hashlib.sha256() for key in ("coarse", "elements", "dense", "rng")}
    coarse = []

    def after_draws(sampler):
        def spy(*args, **kwargs):
            out = sampler(*args, **kwargs)
            h["rng"].update(_state(rng))
            return out
        return spy

    def spy_isotone(isotone):
        def spy(L_, blocks, pairs, tol):
            if not coarse:
                coarse.append(pairs)
                h["rng"].update(_state(rng))
                h["coarse"].update(_pair_bytes(pairs))
            key = "elements" if pairs is coarse[0] else "dense"
            if key == "dense":
                h["dense"].update(_pair_bytes(pairs))
            for element in _element_bytes(L, blocks):
                h[key].update(element)
            return isotone(L_, blocks, pairs, tol)
        return spy

    with _patched(isocone, "_ordered_state_pairs", after_draws), \
            _patched(isocone, "_targeted_pairs", after_draws), \
            _patched(isocone, "_isotone_on_pairs", spy_isotone):
        isocone.saturation_check(L, SATURATE_SAMPLES, SATURATE_ELEMENTS, rng)
    h["rng"].update(_state(rng))
    return {key: value.hexdigest() for key, value in h.items()}


def digests(case: str) -> dict[str, str]:
    experiment, name, seed = CASES[case]
    L = isocone.LexIsocone.from_json(FIXTURES[name])
    if experiment == "lex-order":
        return _lex_digests(L, LEX_SAMPLES[name], seed)
    return _saturate_digests(L, seed)


@pytest.mark.parametrize("case", sorted(CASES))
def test_sampled_arrays_and_stream_unchanged(case):
    assert digests(case) == GOLDEN[case]


if __name__ == "__main__":
    print(json.dumps({case: digests(case) for case in sorted(CASES)}, indent=4))
