"""Base of the library's immutable value classes.

A subclass names its fields in ``__slots__`` and sets each one once in
its own ``__init__`` with ``object.__setattr__``.  Like a frozen
dataclass, an instance then equals only an instance of the same class
with equal fields, hashes like the tuple of its fields, prints as
``Name(field=value, ...)``, refuses assignment and deletion, and pickles
and copies by calling the constructor again.  A class that stores its
fields in another form lists them in ``_field_names`` and reads each back
as a property; printing and pickling then follow those values, while
equality and hashing still read the slots, so the stored form must be
canonical: equal values, equal slots.  The classes do not use
``dataclasses``: importing it takes about 9 ms (Python 3.11, 2 vCPUs),
about as long as everything else a light CLI command imports.
"""


class Frozen:
    __slots__ = ()
    _field_names: tuple[str, ...] = ()

    def _names(self) -> tuple[str, ...]:
        return self._field_names or self.__slots__

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self._names()])

    def _stored(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._stored() == other._stored()

    def __hash__(self):
        return hash(self._stored())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()
