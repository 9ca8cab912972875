"""The array records: read-only arrays, also when unpickled, and equality by value.

The records are found by introspection: every frozen dataclass of a package
module with an ndarray field, so a record added later is covered here too.
Each is built from small values of its field types.
"""

import dataclasses
import importlib
import pickle
import pkgutil
import types
import typing

import numpy as np
import pytest

import rabi_esqpt
from rabi_esqpt import DosCurve, Parity, RabiParams

ARRAY_RECORDS = {"ParityChain", "EigenObservables", "ParitySpectrum", "DosCurve",
                 "ObservableCurve", "WindowedDos", "GapMap"}


def _optional(hint):
    """The one non-None member of an X | None hint, or hint itself."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    return hint


def _hints(cls) -> dict:
    return {name: _optional(hint) for name, hint in typing.get_type_hints(cls).items()}


def _records() -> list[type]:
    found = {}
    for info in pkgutil.iter_modules(rabi_esqpt.__path__):
        module = importlib.import_module(f"{rabi_esqpt.__name__}.{info.name}")
        for obj in vars(module).values():
            # frozen: svgplot.Series holds arrays too, but is a mutable plot spec
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__dataclass_params__.frozen
                    and np.ndarray in _hints(obj).values()):
                found[obj.__qualname__] = obj
    return [found[name] for name in sorted(found)]


RECORDS = _records()


def _sample(hint, scale=1.0):
    """A small value of a field's type; every array is a fresh one of length 3."""
    if hint is np.ndarray:
        return scale * np.array([0.5, 1.5, 2.5])
    if hint is bool:
        return True
    if hint in (int, float):
        return hint(3)
    if hint is RabiParams:
        return RabiParams(omega0=1.0, Omega=40.0, g=1.2)
    if hint is Parity:
        return Parity.PLUS
    return build(hint, scale)


def build(cls, scale=1.0):
    return cls(**{name: _sample(hint, scale) for name, hint in _hints(cls).items()})


def _arrays(record):
    """Every array of a record, those of its nested records included."""
    for value in vars(record).values():
        if isinstance(value, np.ndarray):
            yield value
        elif dataclasses.is_dataclass(value):
            yield from _arrays(value)


def test_introspection_finds_every_array_record():
    assert {cls.__name__ for cls in RECORDS} == ARRAY_RECORDS


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestArrayRecord:
    def test_arrays_are_read_only(self, cls):
        arrays = list(_arrays(build(cls)))
        assert arrays and not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, cls, protocol):
        # below protocol 5 numpy unpickles every array writeable
        record = build(cls)
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is cls and copy == record
        assert not any(a.flags.writeable for a in _arrays(copy))

    def test_equal_records_compare_equal(self, cls):
        a, b = build(cls), build(cls)
        assert a == b and not a != b
        assert build(cls, np.nan) == build(cls, np.nan)  # NaN equals NaN in place

    def test_one_changed_element_compares_unequal(self, cls):
        record = build(cls)
        for name, value in vars(record).items():
            if isinstance(value, np.ndarray):
                changed = value.copy()
                changed[1] += 1.0
                assert dataclasses.replace(record, **{name: changed}) != record, name
        assert build(cls, 2.0) != record

    def test_record_of_another_type_compares_unequal(self, cls):
        record = build(cls)
        assert all(record != build(other) for other in RECORDS if other is not cls)
        assert record != object() and record != vars(record)

    def test_stays_unhashable(self, cls):
        with pytest.raises(TypeError, match="unhashable"):
            hash(build(cls))


def test_an_absent_array_is_unequal_to_a_present_one():
    eps, nu = np.array([-0.5, 0.0]), np.array([1.0, 2.0])
    bare, full = DosCurve(eps, nu), DosCurve(eps, nu, np.array([0.0, 1.0]))
    assert bare != full and full != bare and bare == DosCurve(eps, nu)
