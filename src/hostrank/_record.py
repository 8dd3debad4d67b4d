"""The shared base of hostrank's immutable records.

A record lists its fields, in order, in ``_fields``, and those that hold
float arrays in ``_arrays``. From these the base gives what a frozen
dataclass would: repr, equality and hashing over the field tuple, no
assignment or deletion afterwards, and a constructor that stores each
``_arrays`` field as a read-only float64 copy (``frozen_array``). A
record without an ``__init__`` of its own takes its fields by position
or keyword, with the signature to match; one that converts or validates
passes its converted values to ``Record.__init__``, or, with no array
field, sets ``self.__dict__``. Unlike ``@dataclass``, the base generates
no code when a class is defined, which keeps the package's import cheap.

Three records freeze their own arrays: ``FeatureScaler`` keeps their
dtype (``flip`` is boolean), ``TimeSeries`` builds its array from a tuple
on first use, and ``SensitivityReport`` holds the trial arrays that
``factor_substitution`` freezes in place, since a copy would double the
memory of the largest arrays a run makes.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from inspect import Parameter, Signature

import numpy as np


class Record:
    """An immutable value whose identity is the tuple of its ``_fields``."""

    _fields: tuple[str, ...] = ()
    _arrays: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__init__" not in cls.__dict__:  # so inspect.signature and help() show the fields
            kind = Parameter.POSITIONAL_OR_KEYWORD
            cls.__signature__ = Signature([Parameter(name, kind) for name in cls._fields])

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            try:
                args = self.__signature__.bind(*args, **kwargs).args
            except TypeError as exc:
                raise TypeError(f"{type(self).__qualname__}(): {exc}") from None
        values = self.__dict__
        values.update(zip(fields, args))
        for name in self._arrays:
            values[name] = frozen_array(values[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())


def frozen_array(values, dtype=float) -> np.ndarray:
    """A read-only copy of ``values`` as an array: a record's array field."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr
