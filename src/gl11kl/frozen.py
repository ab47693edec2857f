"""Immutable value classes with the ``dataclass(frozen=True)`` contract.

A subclass names its fields in ``__slots__``, in constructor order.  Unless
it defines ``__init__`` itself (to convert or validate, setting each field
with ``object.__setattr__``), it gets one that stores its arguments.  A slot
whose name starts with an underscore is not a field: it holds a value that
such an ``__init__`` derives from the fields.  Instances compare equal only
to instances of the same class with equal fields, hash as the tuple of
their fields (unless ``__hash__ = None``, as with a dict field), print as a
dataclass would, refuse assignment and deletion, and copy and pickle
through the constructor.  A subclass that stores its fields in another
form names them in ``_fields`` and writes its own constructor;
``__slots__`` then holds what it stores, and it compares and hashes as the
tuple of the fields it names unless it writes its own ``__eq__`` and
``__hash__``.
Unlike ``dataclasses``, which imports ``inspect``, this module imports
nothing, so a fresh ``gl11kl`` process pays no start-up time for its value
types.
"""


class Frozen:
    """Base of the value classes; a subclass without fields is abstract."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(name for name in cls.__slots__ if name[0] != "_")
        if not names or "_fields" in cls.__dict__:
            return
        cls._fields = names
        # Written out field by field, as dataclasses does: a generic getter
        # adds a call to every hash and comparison, and labels are dict keys.
        mine = "".join(f"self.{name}, " for name in names)
        theirs = mine.replace("self.", "other.")
        stores = "".join(f"    _set(self, {name!r}, {name})\n" for name in names)
        namespace = {"_set": object.__setattr__}
        exec(
            f"def __init__(self, {', '.join(names)}):\n{stores}"
            f"def __hash__(self):\n    return hash(({mine}))\n"
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({mine}) == ({theirs})\n"
            "    return NotImplemented\n",
            namespace,
        )
        for method in ("__init__", "__hash__", "__eq__"):
            if method not in cls.__dict__:
                namespace[method].__qualname__ = f"{cls.__qualname__}.{method}"
                setattr(cls, method, namespace[method])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    # The contract read through _values, for a subclass that names _fields
    # itself; the generated methods are the same, written out.
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
