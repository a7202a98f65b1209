"""The base of the package's immutable value classes."""


class _Known:
    """A nested record whose hash is already computed, standing in for it
    inside its parent's field tuple."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self) -> int:
        return self.value


class Record:
    """An immutable value whose instance dict holds its fields in declaration
    order: each subclass's __init__ validates, then stores every field with
    one vars(self).update(...).  Assigning or deleting an attribute raises
    AttributeError.

    == compares the field values of two instances of one class, hash hashes
    them and repr prints Name(field=value, ...), as a frozen dataclass does;
    a field named in _eq_only takes part in == but not in hash or repr.  A
    nested record prints through its class's own __repr__ if it has one.
    All three walk nested records with explicit stacks instead of recursing,
    so nesting depth (a formula's, say) is bounded by memory, not by the
    interpreter's recursion limit.
    """

    _eq_only = frozenset()

    def _listed(self) -> dict:
        return {k: v for k, v in vars(self).items() if k not in self._eq_only}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            x, y = pairs.pop()
            if x is y:
                continue
            if isinstance(x, Record) and isinstance(y, Record):
                if x.__class__ is not y.__class__:
                    return False
                pairs.extend(zip(vars(x).values(), vars(y).values()))
            elif not x == y:
                return False
        return True

    def __hash__(self):
        # children first: a record hashes its listed fields as a tuple, with
        # each nested record replaced by that record's known hash
        hashes = []
        stack: list = [self]  # records, and the field lists of records to finish
        while stack:
            item = stack.pop()
            if isinstance(item, Record):
                fields = list(item._listed().values())
                stack.append(fields)
                stack.extend([x for x in reversed(fields) if isinstance(x, Record)])
                continue
            for i in reversed(range(len(item))):
                if isinstance(item[i], Record):
                    item[i] = _Known(hashes.pop())
            hashes.append(hash(tuple(item)))
        return hashes[0]

    def __repr__(self):
        pieces = []
        stack: list = [self]  # records to print, and text to emit
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                pieces.append(item)
                continue
            pieces.append(f"{item.__class__.__qualname__}(")
            todo = []
            for name, x in item._listed().items():
                walk = isinstance(x, Record) and type(x).__repr__ is Record.__repr__
                todo += (f"{', ' if todo else ''}{name}=", x if walk else repr(x))
            stack.append(")")
            stack.extend(reversed(todo))
        return "".join(pieces)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
