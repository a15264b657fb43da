"""Immutable value records: the shared base of formula, model and term nodes.

A record class names its fields in ``__match_args__`` and stores them in
``__slots__``. The shared ``__init__`` takes the fields in that order,
positionally and then by name, and raises ``TypeError`` for a missing,
surplus or unknown one. A class writes its own ``__init__`` only to check
its input or fill a default, and sets its fields there through ``setfield``,
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

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__match_args__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            setfield(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            setfield(self, name, kwargs.pop(name))
        if kwargs:
            extra = next(iter(kwargs))
            raise TypeError(f"{type(self).__name__} got unknown or repeated field {extra!r}")

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
