"""Record classes: a fixed set of fields, compared field by field.

A record class names its fields, in order, in `__slots__`, and its
`__init__` sets them after the type's own checks and coercions; a frozen
one sets them through `set_field`. `==`, `hash`, `repr` and
copying read the fields through `__slots__` when they are called, so
defining a record class costs no more than defining any other class:
nothing is generated when a module loads, which is what a dataclass
costs each process at start-up.
"""

from __future__ import annotations

set_field = object.__setattr__  # how a frozen record's `__init__` sets a field, past its `__setattr__`


class Record:
    """Field-wise `==` and a dataclass-style repr; unhashable, as a mutable value should be."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose fields never change once `__init__` has set them: hashable, and refuses assignment."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # A copy is made through `__init__`, as slots cannot be assigned.
        return self.__class__, self._fields()
