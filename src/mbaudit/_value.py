"""A base for frozen value classes, with no code generated at import.

A subclass lists its fields as class annotations, in order.  A class
with nothing to check inherits the base ``__init__``, which takes the
fields by position or by name; a class that checks its input writes its
own ``__init__`` and stores each field with ``object.__setattr__``.
The base reads the field names once per class and gives every subclass
the ``repr``, ``==`` and ``hash`` of a frozen dataclass: ``Name(f=...)``,
equality only between instances of one class, and the hash of the tuple
of fields.  Fields can be neither assigned nor deleted; attributes that
are not fields, such as memo tables, are set with ``object.__setattr__``.
"""

from operator import attrgetter


def _hash_one_field(self) -> int:
    return hash((self._key(self),))


class Value:
    def __init_subclass__(cls) -> None:
        names = tuple(cls.__annotations__)  # the class's own, in order
        cls.__match_args__ = names
        if names:
            cls._key = attrgetter(*names)
        if len(names) == 1:  # attrgetter gives a bare value for one name
            cls.__hash__ = _hash_one_field

    def __init__(self, *values, **named) -> None:
        names = self.__match_args__
        if len(values) + len(named) != len(names) or named.keys() != set(names[len(values):]):
            raise TypeError(f"{type(self).__qualname__}({', '.join(names)}) takes each field once")
        for name, value in (*zip(names, values), *named.items()):
            object.__setattr__(self, name, value)

    @staticmethod
    def _key(self) -> tuple:  # no fields; a class with fields gets an attrgetter
        return ()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
