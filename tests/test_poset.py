import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccausal.poset import CycleError, FinitePoset, transitive_closure, validate


def test_validate_chain():
    rel = np.array([[True, True], [False, True]])
    assert validate(rel)


def test_validate_rejects_antisymmetry_violation():
    rel = np.array([[True, True], [True, True]])
    assert not validate(rel)


def test_validate_rejects_transitivity_violation():
    rel = np.eye(3, dtype=bool)
    rel[0, 1] = rel[1, 2] = True
    assert not validate(rel)


def test_closure_adds_chain_edge():
    rel = np.eye(3, dtype=bool)
    rel[0, 1] = rel[1, 2] = True
    closed = transitive_closure(rel)
    assert closed[0, 2]
    assert validate(closed)


def test_closure_idempotent_on_transitive_input():
    rel = FinitePoset.chain(4).relation
    assert np.array_equal(transitive_closure(rel), rel)


def test_closure_detects_cycle():
    rel = np.eye(2, dtype=bool)
    rel[0, 1] = rel[1, 0] = True
    with pytest.raises(CycleError):
        transitive_closure(rel)


def test_closure_requires_reflexive():
    with pytest.raises(ValueError):
        transitive_closure(np.zeros((2, 2), dtype=bool))


def test_json_roundtrip_applies_closure():
    p = FinitePoset.from_json({"size": 3, "pairs": [[0, 1], [1, 2]]})
    assert p.leq(0, 2)
    again = FinitePoset.from_json(p.to_json())
    assert p == again


def test_constructor_rejects_invalid():
    rel = np.eye(3, dtype=bool)
    rel[0, 1] = rel[1, 2] = True
    with pytest.raises(ValueError):
        FinitePoset(rel)
    for pairs in ([[0, 5]], [[-2, 1]]):
        with pytest.raises(ValueError, match="outside the points"):
            FinitePoset.from_pairs(3, pairs)


@pytest.mark.parametrize("size, pairs", [(2.9, []), (True, []), ("3", []), (3, [[0.7, 1]]),
                                         (3, [[0, True]]), (3, [["0", 1]])])
def test_integer_fields_not_truncated(size, pairs):
    with pytest.raises(ValueError, match="must be an integer"):
        FinitePoset.from_pairs(size, pairs)
    with pytest.raises(ValueError, match="must be an integer"):
        FinitePoset.from_json({"size": size, "pairs": pairs})


def test_numpy_integers_accepted():
    p = FinitePoset.from_pairs(np.int64(3), [(np.int64(0), np.int32(2))])
    assert (0, 2) in p.strict_pairs() and p.size == 3


def test_levels_and_strict_pairs():
    p = FinitePoset.from_pairs(4, [[0, 1], [1, 3], [2, 3]])
    assert list(p.levels()) == [0, 1, 0, 2]
    assert (0, 3) in p.strict_pairs()


def test_chain_antichain():
    assert (0, 2) in FinitePoset.chain(3).strict_pairs()
    assert FinitePoset.antichain(3).strict_pairs() == ()


@given(st.integers(2, 6), st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                                   max_size=10))
@settings(max_examples=150, deadline=None)
def test_closure_idempotent_and_valid(size, pairs):
    rel = np.eye(size, dtype=bool)
    for x, y in pairs:
        rel[x % size, y % size] = True
    try:
        closed = transitive_closure(rel)
    except CycleError:
        return
    assert validate(closed)
    assert np.array_equal(transitive_closure(closed), closed)
