"""Value semantics of the package's records: the fourteen immutable classes
that spaces, relations, maps and reports are built from.

Each record is frozen, prints as Name(field=value, ...), takes its fields
positionally or by keyword with the same defaults, and either compares and
hashes by its fields or keeps identity.  The abstract bases stay open.
"""

import copy
import pickle

import numpy as np
import pytest

import bjorth as bj

L2 = bj.Lp(2, 2.0)
DJ = bj.DayJames(3.0, 1.5)
ORTH = bj.AngleTag.ORTHOGONAL


def _records():
    """name: (class, positional args, the same by keyword, repr, by value)."""
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    report = (10, 1, 0, 0, 0.0, 0.0, 1.0, 0, True, None)
    report_keys = ("samples", "boundary_excluded", "orth_disagreements", "acute_disagreements",
                   "max_norm_error", "max_homog_error", "continuity_modulus", "seed", "passed",
                   "first_disagreement")
    sums = ("sum(lp:2:2,linf:1)", 10, 9, 0, 1, 0, 2, 0, 3)
    sums_keys = ("space", "samples", "evaluated", "disagreements", "boundary_excluded",
                 "tie_excluded", "tie_samples", "seed", "first_disagreement")
    return {
        "Lp": (bj.Lp, (2, 3.0), dict(dim=2, p=3.0), "Lp(dim=2, p=3.0)", True),
        "LInf": (bj.LInf, (3,), dict(dim=3), "LInf(dim=3)", True),
        "DayJames": (bj.DayJames, (3.0, 1.5), dict(p=3.0, q=1.5), "DayJames(p=3.0, q=1.5)", True),
        "InfSum": (bj.InfSum, ((L2, bj.LInf(1)),), dict(parts=(L2, bj.LInf(1))),
                   "InfSum(parts=(Lp(dim=2, p=2.0), LInf(dim=1)))", True),
        "AngleRelation": (
            bj.AngleRelation, (ORTH, -0.5, 0.5, 1.0, (-1.0, 1.0, 2.0)),
            dict(tag=ORTH, min_bound=-0.5, max_bound=0.5, scale=1.0, _scaled=(-1.0, 1.0, 2.0)),
            "AngleRelation(tag=<AngleTag.ORTHOGONAL: 'orthogonal'>, min_bound=-0.5, "
            "max_bound=0.5, scale=1.0)", True),
        "IdentityMap": (bj.IdentityMap, (L2,), dict(space=L2),
                        "IdentityMap(space=Lp(dim=2, p=2.0))", False),
        "RadonPlaneMap": (bj.RadonPlaneMap, (DJ,), dict(plane=DJ),
                          "RadonPlaneMap(plane=DayJames(p=3.0, q=1.5))", False),
        "SumMap": (bj.SumMap, ((bj.IdentityMap(L2), bj.IdentityMap(bj.LInf(1))),),
                   dict(parts=(bj.IdentityMap(L2), bj.IdentityMap(bj.LInf(1)))),
                   "SumMap(parts=(IdentityMap(space=Lp(dim=2, p=2.0)), "
                   "IdentityMap(space=LInf(dim=1))))", False),
        "VerificationReport": (
            bj.VerificationReport, report, dict(zip(report_keys, report)),
            "VerificationReport(samples=10, boundary_excluded=1, orth_disagreements=0, "
            "acute_disagreements=0, max_norm_error=0.0, max_homog_error=0.0, "
            "continuity_modulus=1.0, seed=0, passed=True, first_disagreement=None)", True),
        "RadonScan": (bj.RadonScan, (0.0, None, [(0.0, 1.0, 0.0, 0.0)]),
                      dict(defect=0.0, witness=None, rows=[(0.0, 1.0, 0.0, 0.0)]),
                      "RadonScan(defect=0.0, witness=None, rows=[(0.0, 1.0, 0.0, 0.0)])", False),
        "SmoothnessProbe": (bj.SmoothnessProbe, (True, 0.5), dict(smooth=True, worst_gap=0.5),
                            "SmoothnessProbe(smooth=True, worst_gap=0.5)", True),
        "SectionCandidate": (bj.SectionCandidate, ([1.0, 0.0], [0.0, 1.0]),
                             dict(u=[1.0, 0.0], v=[0.0, 1.0]),
                             "SectionCandidate(u=array([1., 0.]), v=array([0., 1.]))", False),
        "SumAcuteReport": (
            bj.SumAcuteReport, sums, dict(zip(sums_keys, sums)),
            "SumAcuteReport(space='sum(lp:2:2,linf:1)', samples=10, evaluated=9, "
            "disagreements=0, boundary_excluded=1, tie_excluded=0, tie_samples=2, seed=0, "
            "first_disagreement=3)", True),
        "Orthograph": (bj.Orthograph, ([e1, e2], np.eye(2, dtype=bool)),
                       dict(vectors=[e1, e2], adjacency=np.eye(2, dtype=bool)),
                       "Orthograph(vectors=[array([1., 0.]), array([0., 1.])], "
                       "adjacency=array([[ True, False],\n       [False,  True]]))", False),
    }


RECORDS = _records()


def test_the_table_covers_every_public_record():
    assert len(RECORDS) == 14 and all(getattr(bj, name) is RECORDS[name][0] for name in RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_positional_and_keyword_records_print_alike(name):
    cls, args, kwargs, text, _ = RECORDS[name]
    assert repr(cls(*args)) == repr(cls(**kwargs)) == text


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_by_value_or_by_identity(name):
    cls, args, _, _, by_value = RECORDS[name]
    a, b = cls(*args), cls(*args)
    assert a == a and hash(a) == hash(a)
    assert (a == b) is by_value and (a != b) is not by_value
    assert a.__eq__(object()) is NotImplemented if by_value else a != object()
    if by_value:
        assert hash(a) == hash(b)
    else:
        assert hash(a) == object.__hash__(a)


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen(name):
    cls, args, kwargs, text, _ = RECORDS[name]
    record = cls(*args)
    for field in [*kwargs, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    for field in kwargs:
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == text and not hasattr(record, "extra")


@pytest.mark.parametrize("name", RECORDS)
def test_records_survive_copy_and_pickle(name):
    # Both restore the fields without calling the raising __setattr__.
    cls, args, _, text, _ = RECORDS[name]
    record = cls(*args)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and repr(twin) == text


def test_value_records_differ_in_any_field():
    assert bj.Lp(2, 3.0) != bj.Lp(3, 3.0) and bj.Lp(2, 3.0) != bj.Lp(2, 4.0)
    assert bj.DayJames(3.0, 1.5) != bj.DayJames(1.5, 3.0)
    assert bj.InfSum((L2, bj.LInf(1))) != bj.InfSum((bj.LInf(1), L2))
    assert bj.InfSum([L2, bj.LInf(1)]) == bj.InfSum((L2, bj.LInf(1)))
    assert bj.SmoothnessProbe(True, 0.5) != bj.SmoothnessProbe(False, 0.5)
    assert bj.Lp(2, 2.0) != bj.LInf(2) and len({bj.Lp(2, 3), bj.Lp(2, 3.0), bj.Lp(2.0, 3)}) == 1
    assert hash(bj.Lp(2, 3.0)) == hash((2, 3.0))


def test_relations_hash_their_four_fields_without_the_decided_units():
    plain = bj.AngleRelation(ORTH, -0.5, 0.5, 1.0)
    scaled = bj.AngleRelation(ORTH, -0.5, 0.5, 1.0, _scaled=(-1.0, 1.0, 2.0))
    assert plain._scaled is None and scaled._scaled == (-1.0, 1.0, 2.0)
    assert plain == scaled and hash(plain) == hash(scaled) == hash((ORTH, -0.5, 0.5, 1.0))
    assert plain != bj.AngleRelation(ORTH, -0.5, 0.5, 2.0)
    assert "_scaled" not in repr(scaled)


def test_defaults_are_the_same_by_position_and_by_keyword():
    assert bj.AngleRelation(ORTH, 0.0, 0.0, 1.0)._scaled is None
    report = bj.VerificationReport(10, 1, 0, 0, 0.0, 0.0, 1.0, 0, True)
    assert report.first_disagreement is None
    assert report == bj.VerificationReport(*RECORDS["VerificationReport"][1])
    assert bj.SumAcuteReport(*RECORDS["SumAcuteReport"][1][:-1]).first_disagreement is None
    with pytest.raises(TypeError):
        bj.Lp(2)
    with pytest.raises(TypeError):
        bj.LInf(dim=2, p=2.0)


def test_the_abstract_bases_stay_open():
    class Negation(bj.PreserverMap):
        def __init__(self, space):
            self.space = space
            self.calls = 0

        source = target = property(lambda self: self.space)

        def _forward(self, X):
            self.calls += 1
            return -X

        _backward = _forward

    class Scaled(bj.NormedSpace):
        def __init__(self, dim, c):
            self.dim, self.c = dim, c

        def _norm(self, arr):
            return self.c * L2._norm(arr)

        _support = _norms = _bounds = None

    neg = Negation(L2)
    np.testing.assert_array_equal(neg.apply([1.0, -2.0]), [-1.0, 2.0])
    neg.space = bj.LInf(2)
    assert neg.calls == 1 and neg.source == bj.LInf(2)
    del neg.calls
    space = Scaled(2, 3.0)
    space.c = 2.0
    assert space.norm([3.0, 4.0]) == 10.0


def _held_values():
    """name: (record, {attribute: value}) for what a record holds besides
    its fields: a map's source and target, a space's dim."""
    dj_map = bj.RadonPlaneMap(DJ)
    nested = bj.SumMap((dj_map, bj.SumMap((bj.IdentityMap(L2), bj.IdentityMap(bj.LInf(1))))))
    return {
        "IdentityMap": (bj.IdentityMap(L2), dict(source=L2, target=L2)),
        "RadonPlaneMap": (dj_map, dict(source=bj.EUCLIDEAN_PLANE, target=DJ)),
        "SumMap": (nested, dict(
            source=bj.InfSum((bj.EUCLIDEAN_PLANE, bj.InfSum((L2, bj.LInf(1))))),
            target=bj.InfSum((DJ, bj.InfSum((L2, bj.LInf(1))))))),
        "DayJames": (DJ, dict(dim=2)),
        "InfSum": (bj.InfSum((DJ, bj.InfSum((bj.Lp(3, 2.5), bj.LInf(1))))), dict(dim=6)),
    }


HELD = _held_values()


def test_maps_hold_their_source_and_target_and_spaces_their_dim():
    assert bj.RadonPlaneMap(DJ).source is bj.EUCLIDEAN_PLANE
    assert HELD["SumMap"][0].source.dim == 5 and HELD["SumMap"][0].target.dim == 5
    for record, held in HELD.values():
        for attr, value in held.items():
            assert getattr(record, attr) == value and type(getattr(record, attr)) is type(value)


@pytest.mark.parametrize("name", HELD)
def test_held_values_survive_copy_and_pickle(name):
    record, held = HELD[name]
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and repr(twin) == repr(record)
        assert {attr: getattr(twin, attr) for attr in held} == held


@pytest.mark.parametrize("name", HELD)
def test_held_values_are_frozen(name):
    record, held = HELD[name]
    for attr, value in held.items():
        with pytest.raises(AttributeError):
            setattr(record, attr, value)
        with pytest.raises(AttributeError):
            delattr(record, attr)
        assert getattr(record, attr) == value
