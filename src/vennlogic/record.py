"""The base of the package's immutable value classes."""


class Record:
    """An immutable value whose instance dict holds its fields in declaration
    order: each subclass's __init__ validates, then stores every field with
    one vars(self).update(...).  Assigning or deleting an attribute raises
    AttributeError.

    == compares the field values of two instances of one class, hash hashes
    them and repr prints Name(field=value, ...), as a frozen dataclass does;
    a field named in _eq_only takes part in == but not in hash or repr.
    """

    _eq_only = frozenset()

    def _listed(self) -> dict:
        return {k: v for k, v in vars(self).items() if k not in self._eq_only}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __hash__(self):
        return hash(tuple(self._listed().values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self._listed().items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
