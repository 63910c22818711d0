"""Immutable value records, without the import cost of `dataclasses`."""


class Record:
    """Base of the package's immutable records: a subclass names its public fields
    in `_fields`, declares them and any memo tables in `__slots__`, and sets them
    in `__init__`.  Records of one class compare, hash and print by their fields
    only; copy and pickle rebuild a record from its fields, running `__init__`."""

    __slots__ = ("_hash",)
    _fields: tuple = ()

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):  # memoised: a record keys the triangle caches on every lookup
        if getattr(self, "_hash", None) is None:
            object.__setattr__(self, "_hash", hash(self._values()))
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
