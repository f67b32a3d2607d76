"""Record bases and the verification outcome record shared by every checking
operation."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

#: sets a field from a record's own ``__init__``, past ``FrozenRecord.__setattr__``
set_field = object.__setattr__


class Record:
    """A record with the fields named in ``__slots__``, built from positional
    or keyword arguments, with the defaults in ``_defaults`` for the fields
    left out.  Records are equal when their classes and fields are equal,
    print as ``Name(field=...)`` and pickle by their fields.  A plain record
    is mutable and unhashable."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes at most {len(names)} fields, "
                            f"got {len(args)}")
        rest = names[len(args):]
        for name in kwargs:
            if name not in rest:
                raise TypeError(f"{cls.__name__} got {name!r} twice" if name in names
                                else f"{cls.__name__} has no field {name!r}")
        values = list(args)
        for name in rest:
            if name in kwargs:
                values.append(kwargs[name])
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
        return values

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class FrozenRecord(Record):
    """A record whose fields are set once, in ``__init__``: assignment is
    refused, and equal records hash alike."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return hash(self._fields())


class VerificationReport(Record):
    __slots__ = ("id", "status", "truncation", "first_mismatch", "detail")

    def __init__(self, id: str, status: str, truncation: Optional[int] = None,
                 first_mismatch: Optional[Fraction] = None, detail: str = ""):
        self.id = id
        self.status = status  # "pass" | "fail"
        self.truncation = truncation
        self.first_mismatch = first_mismatch
        self.detail = detail

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "status": self.status,
        }
        if self.truncation is not None:
            out["truncation"] = self.truncation
        if self.first_mismatch is not None:
            out["first_mismatch"] = str(self.first_mismatch)
        if self.detail:
            out["detail"] = self.detail
        return out

    def __str__(self):
        extra = f" first_mismatch={self.first_mismatch}" if self.first_mismatch is not None else ""
        extra += f" ({self.detail})" if self.detail else ""
        return f"[{self.status.upper():4s}] {self.id}{extra}"
