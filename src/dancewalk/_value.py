"""The base of the package's immutable value types.

A value class lists its fields in ``__slots__`` and sets them once, in
its ``__init__``, with ``_set``; after that, assigning or deleting an
attribute raises ``AttributeError``.  Slots named with a leading
underscore hold what is derived from the fields, at construction or on
first use, and take no part in equality, hashing or the default repr.
Equality and hashing are those of the tuple of fields, as for a frozen
dataclass; unlike one, a class costs nothing to define beyond its own
body, since no methods are generated and ``dataclasses`` (with the
``inspect`` it imports) is never loaded.
"""

from operator import attrgetter


class Value:
    """Immutable, slotted, compared and hashed by its public fields."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        cls._key = attrgetter(*cls._fields)

    def _set(self, *values):
        """Set the fields, in slot order."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        # copy and pickle hand back (None, {slot: value}) for a slotted object
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
