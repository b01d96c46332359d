"""Frozen records: the shared base of the result and config types.

A subclass lists its fields as annotated class attributes, in order, each
with an optional default; ``field`` gives a field a default factory or
keeps it out of comparison and repr. The base gives the subclass what a
frozen dataclass would: an ``__init__`` taking the fields by position or
keyword (a class may write its own), ``__eq__`` and ``__hash__`` over the
compared fields, a ``Name(field=value, ...)`` repr, and assignment raising
``AttributeError``. A changed copy is built with the constructor.

Here rather than ``dataclasses``, whose import (with ``inspect``) and class
processing cost each CLI process more than a small command's search.
"""

from __future__ import annotations

_MISSING = object()


class field:
    """A field declared with a default factory, or left out of comparison
    (and so of hashing) or of repr."""

    __slots__ = ("default", "default_factory", "compare", "repr")

    def __init__(self, *, default=_MISSING, default_factory=None, compare=True, repr=True):
        self.default, self.default_factory, self.compare, self.repr = default, default_factory, compare, repr


class Record:
    _fields: dict[str, field] = {}
    _compared: tuple[str, ...] = ()
    _shown: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = dict(cls._fields)
        for name in cls.__annotations__:
            value = cls.__dict__.get(name, _MISSING)
            if not isinstance(value, field):
                value = field(default=value)
            elif value.default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, value.default)
            fields[name] = value
        cls._fields = fields
        cls._compared = tuple(name for name, f in fields.items() if f.compare)
        cls._shown = tuple(name for name, f in fields.items() if f.repr)
        if "__init__" not in cls.__dict__:
            cls.__init__ = _init(cls.__qualname__, fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _init(qualname: str, fields: dict[str, field]):
    """An ``__init__`` with the fields' own signature: a fixed signature
    keeps construction as cheap as a dataclass's."""
    params, body = [], []
    for name, f in fields.items():
        if f.default_factory is not None:
            params.append(f"{name}=_MISSING")
            body.append(f" if {name} is _MISSING: {name} = _fields[{name!r}].default_factory()")
        elif f.default is not _MISSING:
            params.append(f"{name}=_fields[{name!r}].default")
        else:
            params.append(name)
        body.append(f" _set(self, {name!r}, {name})")
    namespace: dict = {}
    source = f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body or [" pass"])
    exec(source, {"_set": object.__setattr__, "_MISSING": _MISSING, "_fields": fields}, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{qualname}.__init__"
    return init
