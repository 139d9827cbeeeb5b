"""`Record`: the base of the package's value types."""


class Record:
    """A value equal to a record of its own type with equal fields, and hashed by them.

    A subclass names its fields in `__match_args__`, which is also their order
    in a `match` class pattern and in the repr, and sets them in its own
    `__init__`; the package changes no field after construction.  This is the
    part of a frozen dataclass the package uses: importing `dataclasses`
    (which imports `inspect`) and generating the methods of each class cost a
    process about 20 ms at start-up.
    """

    __slots__ = ()
    __match_args__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def replace(self, **changes):
        """A copy with the fields named in `changes` set to their values."""
        return type(self)(**{**dict(zip(self.__match_args__, self._fields())), **changes})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"
