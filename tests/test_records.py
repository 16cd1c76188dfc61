"""The result records are immutable, comparable, readable and picklable, and
so are the shared values that are not records."""

import copy
import pickle

import pytest

from primerec.analysis import d_table, linear_fit, neg_log_series
from primerec.characters import (
    CHAR_ZERO,
    DirichletCharacter,
    enumerate_characters,
    keller_one,
    unit_group,
)
from primerec.oracle import G_ONE
from primerec.recursion import estimate


def _series():
    return neg_log_series(2, 10, 13, keller_one())


def _table():
    return d_table([3, 4], 10, [4])


# One real instance of every named-tuple record, built by the library.
RECORDS = {
    "SeriesPoint": lambda: _series().points[0],
    "NegLogSeries": _series,
    "FitResult": lambda: linear_fit(_series().points),
    "DCell": lambda: _table().rows[0].cells[0],
    "DRow": lambda: _table().rows[0],
    "DTable": _table,
    "CharValue": lambda: enumerate_characters(7).by_label(3)(3),
    "CharValue-zero": lambda: CHAR_ZERO,
    "UnitGroupComponent": lambda: unit_group(60).components[2],
    "UnitGroupStructure": lambda: unit_group(60),
    "DirichletCharacter": lambda: enumerate_characters(5).by_label(2),
    "EstimateResult": lambda: estimate(3, 20, enumerate_characters(4).by_label(2)),
}


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS.keys())
def test_record(build):
    rec = build()
    cls = type(rec)
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], rec[0])

    twin = cls._make(copy.deepcopy(list(rec)))
    assert twin is not rec and twin == rec and hash(twin) == hash(rec)

    shown = ("modulus", "label") if cls is DirichletCharacter else rec._fields
    fields = ", ".join(f"{f}={getattr(rec, f)!r}" for f in shown)
    assert repr(rec) == f"{cls.__name__}({fields})"

    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and back == rec


# Values the library hands to more than one caller (a cached character
# group, a residual, an oracle constant), with one of their fields.
SHARED = {
    "CharacterGroup": (lambda: enumerate_characters(5), "characters"),
    "BigComplex": (lambda: estimate(3, 20, enumerate_characters(4).by_label(2)).residual, "re"),
    "GaussianRational": (lambda: G_ONE, "re"),
}


@pytest.mark.parametrize("build, field", SHARED.values(), ids=SHARED.keys())
def test_shared_value(build, field):
    value = build()
    kept = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, kept)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(build(), field) == kept

    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and getattr(back, field) == kept
