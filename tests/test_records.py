"""The package's record types: plain ``__slots__`` classes, not dataclasses.

Each record keeps what its dataclass gave it: positional and keyword
construction, the constructor checks, equality (and, when frozen, hash)
by field value with records of its own class only, the repr text, and
the ``to_json`` dicts.  The expected reprs and dicts were taken from the
dataclass versions.
"""

import copy
import math
import pickle

import pytest

from nccausal.causal_cone import ClockProbeReport
from nccausal.hermitian import CapIsocone
from nccausal.isocone import ConsistencyReport, LexComponent, SaturationReport
from nccausal.minkowski import Event, PenrosePoint
from nccausal.spectral import FiniteDirac

Z_CAP = CapIsocone([0.0, 0.0, 1.0], math.pi / 4)
FULL = CapIsocone.full()
VIOLATION = {"x": 0, "y": 1, "value_gap": -0.5}
FAILURE = {"x": 1, "y": 1, "reason": "witness does not separate", "value_gap": 0.0}
SURVIVOR = [{"dim": 1, "re": [1.0], "im": [0.0]}]
INVERSION = {"node_a": [0, 1], "node_b": [2, 3], "upper_at_a": 1.0, "lower_at_b": 0.5}

# (class, {field: value} in field order, the dataclass repr)
CASES = [
    (Event, {"x0": 1.5, "x1": -0.25}, "Event(x0=1.5, x1=-0.25)"),
    (PenrosePoint, {"mu": 0.5, "nu": -1.0}, "PenrosePoint(mu=0.5, nu=-1.0)"),
    (FiniteDirac, {"d1": 0.0, "d2": 1.0}, "FiniteDirac(d1=0.0, d2=1.0)"),
    (LexComponent, {"dim": 2, "cone": Z_CAP},
     "LexComponent(dim=2, cone=CapIsocone(axis=[0.0, 0.0, 1.0], rho=0.7853981633974483))"),
    (LexComponent, {"dim": 16, "cone": FULL}, "LexComponent(dim=16, cone=CapIsocone(full))"),
    (ConsistencyReport, {"pairs_checked": 3, "members_checked": 8,
                         "monotonicity_violations": [VIOLATION],
                         "witness_failures": [FAILURE]},
     "ConsistencyReport(pairs_checked=3, members_checked=8, "
     "monotonicity_violations=[{'x': 0, 'y': 1, 'value_gap': -0.5}], "
     "witness_failures=[{'x': 1, 'y': 1, 'reason': 'witness does not separate', "
     "'value_gap': 0.0}])"),
    (SaturationReport, {"elements_checked": 30, "members_included": 10, "flagged_coarse": 2,
                        "eliminated_by_densification": 1, "members_flagged": 3,
                        "survivors": [SURVIVOR]},
     "SaturationReport(elements_checked=30, members_included=10, flagged_coarse=2, "
     "eliminated_by_densification=1, members_flagged=3, "
     "survivors=[[{'dim': 1, 're': [1.0], 'im': [0.0]}]])"),
    (ClockProbeReport, {"eig_at_x": (0.0, 1.0), "eig_at_y": (0.5, 1.5),
                        "monotone_along_paths": False, "inversion": INVERSION},
     "ClockProbeReport(eig_at_x=(0.0, 1.0), eig_at_y=(0.5, 1.5), "
     "monotone_along_paths=False, inversion={'node_a': [0, 1], 'node_b': [2, 3], "
     "'upper_at_a': 1.0, 'lower_at_b': 0.5})"),
]
FROZEN = (Event, PenrosePoint, FiniteDirac, LexComponent)
IDS = [f"{cls.__name__}-{k}" for k, (cls, _, _) in enumerate(CASES)]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_construction_equality_and_repr(cls, fields, text):
    values = tuple(fields.values())
    record = cls(*values)
    assert cls(**fields) == record
    assert cls(*values[:1], **dict(list(fields.items())[1:])) == record
    assert {name: getattr(record, name) for name in fields} == fields
    assert repr(record) == text
    assert record != values and values != record
    assert record != tuple(fields.items())
    assert not hasattr(record, "__dict__")
    if cls in FROZEN:
        assert hash(record) == hash(cls(*values)) == hash(values)
        assert len({record, cls(*values)}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_unequal_on_any_field(cls, fields, text):
    values = tuple(fields.values())
    record = cls(*values)
    for k, value in enumerate(values):
        other = {bool: not value, int: 7, float: 0.125, list: [], tuple: (2.0, 3.0),
                 dict: {}, CapIsocone: FULL if value is Z_CAP else Z_CAP}[type(value)]
        try:
            changed = cls(*values[:k], other, *values[k + 1:])
        except ValueError:  # a cap cone needs dimension 2
            continue
        assert changed != record and not changed == record


def test_classes_never_equal_each_other():
    # Equal field values do not make records of two classes equal.
    assert Event(0.5, -1.0) != PenrosePoint(0.5, -1.0)
    assert PenrosePoint(0.0, 1.0) != FiniteDirac(0.0, 1.0)
    assert Event(0.0, 1.0) != (0.0, 1.0)


@pytest.mark.parametrize("cls, fields, text", [c for c in CASES if c[0] in FROZEN],
                         ids=[i for i, c in zip(IDS, CASES) if c[0] in FROZEN])
def test_frozen_records(cls, fields, text):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert {name: getattr(record, name) for name in fields} == fields
    assert copy.copy(record) == record
    if cls is not LexComponent:  # a cap cone compares by identity, so a deep copy differs
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


def test_reports_are_mutable_with_fresh_defaults():
    first, second = ConsistencyReport(1, 2), ConsistencyReport(1, 2)
    assert first == second and first.monotonicity_violations == []
    first.witness_failures.append(FAILURE)
    assert second.witness_failures == [] and first != second
    report = SaturationReport(30, 10, 2, 0)
    assert report.members_flagged == 0 and report.survivors == []
    report.eliminated_by_densification += 1
    report.survivors.append(SURVIVOR)
    assert report == SaturationReport(30, 10, 2, 1, 0, [SURVIVOR])
    assert SaturationReport(1, 1, 0, 0).survivors is not SaturationReport(1, 1, 0, 0).survivors
    probe = ClockProbeReport((0.0, 1.0), (0.5, 1.5), True, None)
    probe.inversion = INVERSION
    assert probe.inversion_found


@pytest.mark.parametrize("build, message", [
    (lambda: PenrosePoint(4.0, 0.0), "penrose coordinates must lie in"),
    (lambda: PenrosePoint(0.0, -math.inf), "penrose coordinates must lie in"),
    (lambda: FiniteDirac(math.nan, 1.0), "d1 and d2 must be finite numbers"),
    (lambda: FiniteDirac(d1=0.0, d2=math.inf), "d1 and d2 must be finite numbers"),
    (lambda: FiniteDirac(1e308, -1e308), "with a finite difference"),
    (lambda: LexComponent(3, Z_CAP), "non-trivial cap cones require dimension 2"),
    (lambda: LexComponent(dim=0, cone=FULL), "block dimension must lie in 1..16"),
    (lambda: LexComponent(17, FULL), "block dimension must lie in 1..16"),
])
def test_constructor_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_to_json_matches_the_dataclass_dicts():
    assert ConsistencyReport(400, 50).to_json() == {
        "pairs_checked": 400, "members_checked": 50, "monotonicity_violations": [],
        "witness_failures": [], "passed": True}
    assert ConsistencyReport(3, 8, [VIOLATION], [FAILURE]).to_json() == {
        "pairs_checked": 3, "members_checked": 8,
        "monotonicity_violations": [{"x": 0, "y": 1, "value_gap": -0.5}],
        "witness_failures": [{"x": 1, "y": 1, "reason": "witness does not separate",
                              "value_gap": 0.0}],
        "passed": False}
    assert SaturationReport(30, 10, 2, 1).to_json() == {
        "elements_checked": 30, "members_included": 10, "flagged_coarse": 2,
        "eliminated_by_densification": 1, "members_flagged": 0, "survivors": [],
        "summary": "no counterexample found"}
    assert SaturationReport(30, 10, 2, 1, 3, [SURVIVOR]).to_json() == {
        "elements_checked": 30, "members_included": 10, "flagged_coarse": 2,
        "eliminated_by_densification": 1, "members_flagged": 3,
        "survivors": [[{"dim": 1, "re": [1.0], "im": [0.0]}]],
        "summary": "1 saturation counterexample candidate(s)"}
    assert ClockProbeReport((0.0, 1.0), (0.5, 1.5), True, None).to_json() == {
        "eig_at_x": [0.0, 1.0], "eig_at_y": [0.5, 1.5], "monotone_along_paths": True,
        "inversion": None}
    assert ClockProbeReport((0.0, 1.0), (0.5, 1.5), False, INVERSION).to_json() == {
        "eig_at_x": [0.0, 1.0], "eig_at_y": [0.5, 1.5], "monotone_along_paths": False,
        "inversion": {"node_a": [0, 1], "node_b": [2, 3], "upper_at_a": 1.0,
                      "lower_at_b": 0.5}}
