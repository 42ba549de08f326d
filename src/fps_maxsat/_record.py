"""Plain value records for the package's parameter and result types.

``dataclasses`` would do the same, but importing it (with ``inspect``,
``ast``, ``dis`` and ``tokenize``) and running its decorators would cost
every start of the command line several milliseconds.
"""

from __future__ import annotations


class Record:
    """A record whose fields are its ``__slots__``, in constructor order.

    It compares by value with records of the same class, has a repr of
    keyword arguments, pickles through its constructor, and copies with
    :meth:`_replace`.  Like a dataclass with ``eq=True``, it is mutable and
    unhashable.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _asdict(self) -> dict:
        return dict(zip(self.__slots__, self._values()))

    def _replace(self, **changes):
        """A copy with the given fields changed, validated anew."""
        return type(self)(**{**self._asdict(), **changes})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in self._asdict().items()
        )
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """A :class:`Record` whose fields cannot be reassigned; it hashes by
    value.  ``__init__`` sets the fields with :meth:`_set`."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
