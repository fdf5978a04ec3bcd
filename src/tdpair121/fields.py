"""Exact field arithmetic over the rationals and prime fields GF(p).

Every scalar in this package is a :class:`FieldElement` tied to a
:class:`Field` descriptor.  Arithmetic is exact and results are kept in
canonical form (reduced fraction with positive denominator, or residue in
``[0, p)``), so equality of elements is equality of representations.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# smallest strong pseudoprime to all of _MR_BASES (Sorenson & Webster 2017)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first 13 prime bases.

    Exact for n below _MR_LIMIT; from there on n raises ValueError rather
    than get an answer that could be wrong.
    """
    if n >= _MR_LIMIT:
        raise ValueError(
            f"cannot certify primality of {n}: primes must be below {_MR_LIMIT}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _inv_mod(a: int, p: int) -> int:
    """Inverse of a mod p."""
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"division by zero in GF({p})")
    return pow(a, -1, p)


def _require(x, cls) -> None:
    """The one type check of public arguments: TypeError unless x is a cls (a bool is no int)."""
    if not isinstance(x, cls) or cls is int and isinstance(x, bool):
        name = cls.__name__
        raise TypeError(f"expected {'an' if name[0] in 'AEIOUaeiou' else 'a'} {name}, "
                        f"got {type(x).__name__}")


def _frozen(cls):
    """The record classes' decorator: cls, whose fields are its annotated
    names in order, gets an __init__ that takes them by position or keyword
    and then runs cls.__post_init__ if there is one, the repr
    ``Name(f=..., g=...)``, equality with its own class and a hash, both on
    the tuple of fields, and a __setattr__ and __delattr__ that raise
    AttributeError.  Fields live in the instance __dict__, as do the values
    of a functools.cached_property, which no generated method reads."""
    names = tuple(cls.__annotations__)
    n = len(names)
    fields = attrgetter(*names)
    post = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(cls.__name__, names, args, kwargs)
        self.__dict__.update(zip(names, args))
        if post is not None:
            post(self)

    def __repr__(self):
        shown = ", ".join(f"{k}={v!r}" for k, v in zip(names, fields(self)))
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls


def _bind(name: str, names: tuple, args: tuple, kwargs: dict) -> list:
    """The field values of a call with keywords or a wrong number of
    arguments; TypeError, as for a Python signature, where they do not fit."""
    if len(args) > len(names):
        raise TypeError(f"{name}() takes {len(names)} positional arguments "
                        f"but {len(args)} were given")
    values = dict(zip(names, args))
    for key, value in kwargs.items():
        if key not in names:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in values:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values[key] = value
    missing = [n for n in names if n not in values]
    if missing:
        raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
    return [values[n] for n in names]


# "a" or "a/b": ASCII decimal integers, each with an optional leading "-"
_ELEMENT = re.compile(r"(-?[0-9]+)(?:/(-?[0-9]+))?")

# the one Field per characteristic, so that field checks are identity tests
_FIELDS: dict = {}


class Field:
    """Descriptor for the rationals (``p == 0``) or GF(p) with p prime.

    There is one instance per characteristic: ``Field(p) is Field(p)``, and
    pickling or copying returns that instance.
    """

    __slots__ = ("p",)

    def __new__(cls, p: int = 0):
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError(f"characteristic must be an int, got {p!r}")
        field = _FIELDS.get(p)
        if field is None:
            if p != 0 and not _is_prime(p):
                raise ValueError(f"characteristic must be 0 or a prime, got {p}")
            field = object.__new__(cls)
            object.__setattr__(field, "p", int(p))
            field = _FIELDS.setdefault(field.p, field)
        return field

    def __setattr__(self, name, value):
        raise AttributeError(f"{self!r} is shared by every user of it and cannot change")

    def __reduce__(self):
        return Field, (self.p,)

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def is_prime_field(self) -> bool:
        return self.p != 0

    def __call__(self, value) -> FieldElement:
        """Coerce an int, Fraction, string or element of this field."""
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise ValueError(f"element of {value.field} is not in {self}")
            return value
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(f"cannot coerce {value!r} into {self}: "
                            "expected an int, Fraction, string or element")
        if self.p:
            if isinstance(value, Fraction):
                num = value.numerator % self.p
                return FieldElement._raw(self, num * _inv_mod(value.denominator, self.p) % self.p)
            return FieldElement._raw(self, value % self.p)
        if isinstance(value, Fraction):
            return FieldElement._raw(self, value)
        return FieldElement._raw(self, Fraction(value))

    @property
    def zero(self) -> FieldElement:
        return FieldElement._raw(self, 0 if self.p else Fraction(0))

    @property
    def one(self) -> FieldElement:
        return FieldElement._raw(self, 1 if self.p else Fraction(1))

    def parse(self, text: str) -> FieldElement:
        """Parse "a" or "a/b", where a and b are ASCII decimal integers with
        an optional leading "-" and nothing else around or between them; in
        GF(p) "a/b" means a * b^-1 mod p."""
        if not isinstance(text, str):
            raise ValueError(f"a field element is a string, got {text!r}")
        # int() alone would also take whitespace, "+", digit separators and
        # non-ASCII digits
        match = _ELEMENT.fullmatch(text)
        if match is None:
            raise ValueError(f"malformed field element {text!r}")
        num = int(match[1])
        den = int(match[2]) if match[2] is not None else 1
        if den == 0:
            raise ZeroDivisionError(f"zero denominator in {text!r}")
        if self.p:
            return FieldElement._raw(self, num * _inv_mod(den, self.p) % self.p)
        return FieldElement._raw(self, Fraction(num, den))

    def elements(self):
        """All elements, for prime fields only."""
        if not self.p:
            raise ValueError("cannot enumerate the rationals")
        return [FieldElement._raw(self, r) for r in range(self.p)]

    def to_json(self) -> dict:
        if self.p:
            return {"kind": "Fp", "p": self.p}
        return {"kind": "Q"}

    @classmethod
    def from_json(cls, data: dict) -> Field:
        if not isinstance(data, dict):
            raise ValueError(f"a field descriptor is a JSON object, got {data!r}")
        kind = data.get("kind")
        if kind == "Q":
            return cls(0)
        if kind == "Fp":
            if "p" not in data:
                raise ValueError("an Fp field descriptor needs the key 'p'")
            p = data["p"]
            if not isinstance(p, int) or isinstance(p, bool):
                raise ValueError(f"characteristic must be a JSON integer, got {p!r}")
            return cls(p)
        raise ValueError(f"unknown field descriptor {data!r}")

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"GF({self.p})" if self.p else "QQ"


class FieldElement:
    """Immutable element of a :class:`Field`, in canonical form."""

    __slots__ = ("field", "val")

    def __init__(self, field: Field, value):
        elem = field(value)
        self.field = field
        self.val = elem.val

    @classmethod
    def _raw(cls, field: Field, val) -> FieldElement:
        # val must already be canonical (Fraction, or int residue in [0, p))
        e = object.__new__(cls)
        e.field = field
        e.val = val
        return e

    @property
    def is_zero(self) -> bool:
        return self.val == 0

    def __bool__(self):
        return self.val != 0

    def _check(self, other) -> None:
        if not isinstance(other, FieldElement) or other.field is not self.field:
            raise ValueError(f"cannot mix {self!r} with {other!r}")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        if p:
            return FieldElement._raw(self.field, (self.val + other.val) % p)
        return FieldElement._raw(self.field, self.val + other.val)

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        if p:
            return FieldElement._raw(self.field, (self.val - other.val) % p)
        return FieldElement._raw(self.field, self.val - other.val)

    def __mul__(self, other):
        self._check(other)
        p = self.field.p
        if p:
            return FieldElement._raw(self.field, (self.val * other.val) % p)
        return FieldElement._raw(self.field, self.val * other.val)

    def __truediv__(self, other):
        self._check(other)
        if other.val == 0:
            raise ZeroDivisionError(f"division by zero in {self.field!r}")
        p = self.field.p
        if p:
            return FieldElement._raw(self.field, self.val * _inv_mod(other.val, p) % p)
        return FieldElement._raw(self.field, self.val / other.val)

    def __neg__(self):
        p = self.field.p
        if p:
            return FieldElement._raw(self.field, -self.val % p)
        return FieldElement._raw(self.field, -self.val)

    def inverse(self) -> FieldElement:
        return self.field.one / self

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field is other.field
            and self.val == other.val
        )

    def __lt__(self, other):
        # by raw value within one field, so callers can sort; no library code does
        self._check(other)
        return self.val < other.val

    def __hash__(self):
        return hash((self.field, self.val))

    def __str__(self):
        return str(self.val)

    def __repr__(self):
        if self.field.p:
            return f"F{self.field.p}({self.val})"
        return f"Q({self.val})"


def field_arith(a: FieldElement, b: FieldElement, op: str) -> FieldElement:
    """Named dispatch over the four arithmetic operations."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def parse_element(text: str, field: Field) -> FieldElement:
    _require(field, Field)
    return field.parse(text)


QQ = Field(0)
