"""Immutable records, the value types of the package.

`@record` remakes a class whose body names its fields as annotations, with
optional defaults, as a subclass of `Record` with one slot per field and an
`__init__` taking the fields positionally or by keyword. `Record` gives
equality between records of one class with equal field values, a hash of the
values, the repr `Name(field=value, ...)`, pickles and copies of the values
alone, and AttributeError on assignment. A record that keeps computed state
(`program.Program`, `lattice.AtomUniverse`) lists `"__dict__"` in its body's
`__slots__`.

Records replace frozen dataclasses, whose classes take about 0.7 ms each to
create and load `dataclasses` and `inspect` at every start. A decorator
makes them, not a metaclass: `isinstance` against a class whose type is not
`type` takes a slower path on a miss, and the evaluators dispatch on it.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        values = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._field_names)
        return f"{type(self).__qualname__}({values})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._field_names)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of an immutable {type(self).__name__}")


def record(body: type) -> type:
    """The record class of the class `body`, made anew with slots, as
    `dataclass(slots=True)` does."""
    ns = {k: v for k, v in body.__dict__.items() if k not in ("__dict__", "__weakref__")}
    fields = tuple(body.__annotations__)
    defaults = {f: ns.pop(f) for f in fields if f in ns}
    ns["__slots__"] = fields + tuple(ns.get("__slots__", ()))
    cls = type(body.__name__, (Record,), ns)
    cls._field_names = fields
    cls._values = attrgetter(*fields)
    cls.__init__ = _init(cls, fields, defaults)
    return cls


def _init(cls: type, fields: tuple[str, ...], defaults: dict):
    """The `__init__` of a record class, written out as dataclasses and
    namedtuple do: it has the fields' signature and sets each slot through
    the slot's own setter."""
    params = ", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in fields)
    body = "".join(f"    _set{k}(self, {f})\n" for k, f in enumerate(fields))
    ns = {f"_set{k}": cls.__dict__[f].__set__ for k, f in enumerate(fields)}
    ns["_defaults"] = defaults
    exec(f"def __init__(self, {params}):\n{body}", ns)
    init = ns["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def asdict(r: Record) -> dict:
    """The record's fields and values, in field order."""
    return {f: getattr(r, f) for f in r._field_names}
