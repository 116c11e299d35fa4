"""Plain record classes: fields in `__slots__`, one constructor, value
equality and a repr.

These methods are written here instead of having the standard library
generate them at import: generating them, and importing the modules that do
it (`inspect` among them), cost about a third of the package's import.  A record
lists its fields in `__slots__`, plus `"__dict__"` where
`functools.cached_property` or a per-instance attribute needs one.
`Record.__init__`, equality, hash, repr and `FrozenRecord.__reduce__` read the
one field list `_fields`: the slots without `__dict__`, unless the class names
fewer.  A record that checks its values or gives them defaults keeps its own
`__init__`, which ends in `super().__init__(...)`.
"""
from __future__ import annotations

from operator import attrgetter


set_field = object.__setattr__  # how `Record.__init__` gets past `FrozenRecord.__setattr__`


class Record:
    """`__init__` sets the fields of `_fields` from its values, in order;
    equality over them between records of the same class, and a repr naming
    them.  A `Record` is mutable and so unhashable; see `FrozenRecord`.
    Every record has at least two fields, so `_values` returns a tuple."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls.__dict__.get("_fields") or tuple(
            name for name in cls.__dict__.get("__slots__", ()) if name != "__dict__"
        )
        if fields:  # FrozenRecord itself has none
            cls._fields, cls._values = fields, attrgetter(*fields)

    def __init__(self, *values) -> None:
        fields = self._fields
        if len(values) != len(fields):  # zip alone would drop values or leave fields unset
            raise TypeError(f"{type(self).__qualname__} takes {len(fields)} values, not {len(values)}")
        for name, value in zip(fields, values):
            set_field(self, name, value)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """A record whose fields are set once, by `Record.__init__` through
    `set_field`; assigning or deleting one later raises `AttributeError`.
    Hashable when its fields are."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """Rebuild through `__init__`, for `copy` and `pickle`, which would
        otherwise set the slots through `__setattr__`."""
        return type(self), self._values(self)
