"""Immutable value records: the shared base of formula, model and term nodes.

A record class names its fields in ``__match_args__``, stores them in
``__slots__`` and sets them in an explicit ``__init__`` through ``setfield``,
since assignment raises once the record exists. Two records are equal when
they have the same type and equal fields, and equal records hash equal, so
``EG(p) != EF(p)``. A class that also slots ``__dict__`` keeps there what
equality ignores, such as ``functools.cached_property`` values.

The methods are written out here once, not generated per class by a class
decorator: generating a frozen class costs about a millisecond at import,
and every start of the command line would pay it for each record class.
"""

from __future__ import annotations

#: Sets a field of a record being built; plain assignment raises.
setfield = object.__setattr__


class Record:
    __slots__ = __match_args__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # The default pickling of slots assigns them, which raises here.
        return type(self), self._fields(), getattr(self, "__dict__", None)
