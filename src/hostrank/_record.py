"""The shared base of hostrank's immutable records.

A record lists its fields, in order, in ``_fields`` and sets them in its
own ``__init__`` through ``self.__dict__``. From that list the base gives
what a frozen dataclass would: repr, equality and hashing over the field
tuple, and no assignment or deletion afterwards. Unlike ``@dataclass``,
it generates no code when a class is defined, which keeps the package's
import cheap.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import numpy as np


class Record:
    """An immutable value whose identity is the tuple of its ``_fields``."""

    _fields: tuple[str, ...] = ()

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
