"""The value records behave as the frozen dataclasses they replaced."""

import copy
import pickle
from fractions import Fraction

import pytest

from tripos.algebra import GeqVerdict, QPoly
from tripos.conditions import ClauseResult, ConditionReport, ConditionResult
from tripos.errors import FileFormatError, SequenceRangeError
from tripos.oeis import BFile
from tripos.properties import NumSeq, PolySeq, PropertyReport
from tripos.records import Record, replace
from tripos.transforms import BilinearForm, PreservationReport
from tripos.triangles import CoeffScheme, ConstParams, Preset, Triangle

REPORT = PropertyReport("log-concave", (0, 2), "holds", None, "a note")
CLAUSE = ClauseResult("f >= alpha", False, 3, 1, Fraction(5, 2))
MOTZKIN = ConstParams(1, 1, 0, 1, 1, 1, 0)

# class, the field values of one instance, the defaults of its trailing
# fields, a change for replace, a change that __post_init__ rejects (and
# its error), and the instance's repr as a frozen dataclass printed it
# (QPoly keeps its own __init__ and repr).
CASES = [
    (QPoly, ((1, 2),), ((),), {"coeffs": (3,)}, None, "QPoly([1, 2])"),
    (GeqVerdict, (False, 2, Fraction(-1, 3)), (None, None), {"index": 0}, None,
     "GeqVerdict(holds=False, index=2, value=Fraction(-1, 3))"),
    (Triangle, (((1,), (1, 1)), 1), (), {"rows": [[1]]}, ({"arity": 0}, FileFormatError),
     "Triangle(rows=((1,), (1, 1)), arity=1)"),
    (CoeffScheme, (1, Fraction(1, 2), (3, 4), 2), (0, 0, None, 0), {"start": 5}, None,
     "CoeffScheme(slope=1, intercept=Fraction(1, 2), values=(3, 4), start=2)"),
    (ConstParams, (1, 1, 0, 1, 2, 1, 0), (), {"g": 3}, ({"h": -1}, ValueError),
     "ConstParams(alpha=1, beta=1, gamma=0, e=1, f=2, g=1, h=0)"),
    (Preset, ("motzkin", "motzkin_numbers", MOTZKIN, None, False, True, False, 0),
     (None, None, False, False, False, 0), {"takes_s": True}, None,
     "Preset(name='motzkin', oracle='motzkin_numbers', const_params=ConstParams(alpha=1, "
     "beta=1, gamma=0, e=1, f=1, g=1, h=0), schemes=None, takes_s=False, column0=True, "
     "per_row=False, first=0)"),
    (NumSeq, ((1, 2, 1), 3), (0,), {"values": [4]}, ({"values": ()}, SequenceRangeError),
     "NumSeq(values=(1, 2, 1), offset=3)"),
    (PolySeq, ((QPoly([1, 1]), QPoly([1])), 1), (0,), {"offset": 0},
     ({"polys": []}, SequenceRangeError),
     "PolySeq(polys=(QPoly([1, 1]), QPoly([1])), offset=1)"),
    (PropertyReport, ("log-concave", (0, 2), "fails", None, "a note"), (None, None),
     {"prop": "log-convex"}, None,
     "PropertyReport(prop='log-concave', checked=(0, 2), verdict='fails', witness=None, "
     "note='a note')"),
    (ClauseResult, ("f >= alpha", False, 3, 1, Fraction(5, 2)), (None, None, None),
     {"holds": True}, None,
     "ClauseResult(text='f >= alpha', holds=False, fail_k=3, lhs=1, rhs=Fraction(5, 2))"),
    (ConditionResult, ("1", False, (CLAUSE,)), (), {"cid": "2"}, None,
     "ConditionResult(cid='1', holds=False, clauses=(ClauseResult(text='f >= alpha', "
     "holds=False, fail_k=3, lhs=1, rhs=Fraction(5, 2)),))"),
    (ConditionReport, ("cor22", (ConditionResult("1", True, ()),), (REPORT,), ("a note",)),
     ((), ()), {"notes": ()}, None,
     "ConditionReport(tag='cor22', conditions=(ConditionResult(cid='1', holds=True, "
     "clauses=()),), hypotheses=(PropertyReport(prop='log-concave', checked=(0, 2), "
     "verdict='holds', witness=None, note='a note'),), notes=('a note',))"),
    (BilinearForm, ((((0, 2), 1), ((1, 1), -1)),), (), {"terms": ()}, None,
     "BilinearForm(terms=(((0, 2), 1), ((1, 1), -1)))"),
    (PreservationReport, ("convex", 1, "holds", REPORT, REPORT, PolySeq((QPoly([1]),))),
     (None, None), {"s": 2}, None,
     "PreservationReport(direction='convex', s=1, verdict='holds', "
     "input_report=PropertyReport(prop='log-concave', checked=(0, 2), verdict='holds', "
     "witness=None, note='a note'), output_report=PropertyReport(prop='log-concave', "
     "checked=(0, 2), verdict='holds', witness=None, note='a note'), "
     "transformed=PolySeq(polys=(QPoly([1]),), offset=0))"),
    (BFile, ("A000001", ((0, 1), (1, 1))), (), {"id": "A000002"}, None,
     "BFile(id='A000001', entries=((0, 1), (1, 1)))"),
]


@pytest.mark.parametrize("cls, args, defaults, change, invalid, expected_repr", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_behaves_as_frozen_dataclass(cls, args, defaults, change, invalid,
                                            expected_repr):
    fields = cls._fields
    assert len(fields) == len(args)
    record = cls(*args)
    values = tuple(getattr(record, f) for f in fields)
    assert repr(record) == expected_repr

    # by position and by keyword; trailing fields take their defaults
    assert cls(**dict(zip(fields, args))) == record
    required = len(fields) - len(defaults)
    for least in (cls(*args[:required]), cls(**dict(zip(fields, args[:required])))):
        assert tuple(getattr(least, f) for f in fields[required:]) == defaults

    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, unknown=None)
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})
    if required:
        with pytest.raises(TypeError):
            cls(*args[:required - 1])

    for name in (fields[0], "unknown"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert tuple(getattr(record, f) for f in fields) == values

    # copies and pickles restore the fields without assignment
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record and repr(clone) == expected_repr
        with pytest.raises(AttributeError, match=f"cannot assign to field '{fields[0]}'"):
            setattr(clone, fields[0], None)

    # equal within one class only, and hashed by the tuple of field values
    twin = cls(*args)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(values)
    other = type("Other", (Record,), {"__annotations__": dict.fromkeys(fields)})
    assert other(*args) != record and record != values

    changed = replace(record, **change)
    assert changed == cls(**{**dict(zip(fields, args)), **change}) != record
    assert all(getattr(changed, f) == getattr(record, f) for f in fields if f not in change)
    assert replace(record) == record
    with pytest.raises(TypeError):
        replace(record, unknown=None)
    if invalid is not None:
        bad, error = invalid
        with pytest.raises(error):
            replace(record, **bad)
