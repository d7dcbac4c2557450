"""Exact scalars and vectors.

Every finite quantity in the engine is a ``fractions.Fraction`` (always in
lowest terms with a positive denominator, which is exactly the scalar
contract we need), and vectors are plain tuples of Fractions.  The one
exception is a Polyhedron's stored rows, which are canonical integers.
Infinite values never mix with vector arithmetic; they only occur as
function values and LP optima, wrapped in :class:`ExtendedRational`.

Wire format for scalars is the string ``"p/q"`` with ``/q`` omitted when
the denominator is 1, e.g. ``"3/4"``, ``"-2"``.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    ExtendedArithmeticError,
    InvalidParameterError,
    SchemaError,
)

Q = Fraction
Vec = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the wire format ``p/q``.  Rejects floats, whitespace, exponents."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise SchemaError(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    return str(value)


def format_extended(v: "ExtendedRational") -> str:
    """Wire format of an extended value: ``"+inf"``, ``"-inf"`` or ``p/q``."""
    if v.sign > 0:
        return "+inf"
    if v.sign < 0:
        return "-inf"
    return format_rational(v.value)


def qv(*entries) -> Vec:
    """Build a vector of Fractions from ints/strings/Fractions."""
    return vec(entries)


def rational(value) -> Fraction:
    """A scalar as an exact Fraction; a float is refused, not read at its binary value."""
    if isinstance(value, float):
        raise InvalidParameterError(f"not an exact rational: {value!r}")
    return Fraction(value)


def vec(entries: Iterable) -> Vec:
    """Entries as exact Fractions, each read by :func:`rational`."""
    return tuple(map(rational, entries))


def zeros(n: int) -> Vec:
    return (Fraction(0),) * n


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise DimensionMismatchError(f"dot: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def vadd(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatchError(f"vadd: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise DimensionMismatchError(f"vsub: {len(a)} vs {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def l1norm(a: Vec) -> Fraction:
    return sum((abs(x) for x in a), Fraction(0))


# ============================================================
# Extended rationals
# ============================================================

class ExtendedRational:
    """A rational number extended with +oo and -oo.

    Total order; addition is defined except for (+oo) + (-oo), which raises
    :class:`ExtendedArithmeticError`.
    """

    __slots__ = ("sign", "value")

    def __init__(self, sign: int, value: Fraction):
        # sign: -1 (-oo), 0 (finite), +1 (+oo); value meaningful only when 0
        self.sign = sign
        self.value = value

    # -- constructors ------------------------------------------------

    @staticmethod
    def finite(value) -> "ExtendedRational":
        return ExtendedRational(0, Fraction(value))

    # -- predicates --------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.sign == 0

    def finite_value(self) -> Fraction:
        if self.sign != 0:
            raise ExtendedArithmeticError("infinite value where finite expected")
        return self.value

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "ExtendedRational") -> "ExtendedRational":
        other = _coerce(other)
        if self.sign == 0 and other.sign == 0:
            return ExtendedRational(0, self.value + other.value)
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        if self.sign != other.sign:
            raise ExtendedArithmeticError("(+oo) + (-oo) is undefined")
        return self

    def __neg__(self) -> "ExtendedRational":
        if self.sign == 0:
            return ExtendedRational(0, -self.value)
        return NEG_INF if self.sign > 0 else POS_INF

    def __sub__(self, other: "ExtendedRational") -> "ExtendedRational":
        return self + (-_coerce(other))

    # -- order -------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if self.sign != other.sign:
            return False
        return self.sign != 0 or self.value == other.value

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if self.sign != other.sign:
            return self.sign < other.sign
        return self.sign == 0 and self.value < other.value

    def __le__(self, other) -> bool:
        return self == other or self < other

    def __gt__(self, other) -> bool:
        return _coerce(other) < self

    def __ge__(self, other) -> bool:
        return _coerce(other) <= self

    def __hash__(self):
        return hash((self.sign, self.value if self.sign == 0 else None))

    def __repr__(self) -> str:
        if self.sign > 0:
            return "+oo"
        if self.sign < 0:
            return "-oo"
        return str(self.value)


POS_INF = ExtendedRational(1, Fraction(0))
NEG_INF = ExtendedRational(-1, Fraction(0))


def _coerce(x) -> ExtendedRational:
    if isinstance(x, ExtendedRational):
        return x
    return ExtendedRational(0, Fraction(x))
