"""Immutable value classes with the ``dataclass(frozen=True)`` contract.

A subclass names what it stores in ``__slots__`` and writes its own
constructor, which sets each slot with ``object.__setattr__`` (converting
or validating as it goes).  Its fields are its slot names, in constructor
order.  A subclass that stores its fields in another form, or stores
values it derives from them, names its fields in ``_fields`` itself, and
a subclass with ``__slots__ = ()`` keeps the fields it inherits.
Equality, hash, ``repr`` and pickling all read ``_fields``: instances
compare equal only to instances of the same class with equal fields, hash
as the tuple of their fields (unless ``__hash__ = None``, as with a dict
field), print as a dataclass would, refuse assignment and deletion, and
copy and pickle through the constructor.  A subclass may write its own
``__eq__`` and ``__hash__``, as labels do over the ints they store.
Unlike ``dataclasses``, which imports ``inspect``, this module imports
nothing, so a fresh ``gl11kl`` process pays no start-up time for its value
types.
"""


class Frozen:
    """Base of the value classes; a subclass without fields is abstract."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__ and "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"
