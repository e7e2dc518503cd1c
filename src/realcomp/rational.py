"""Exact rational arithmetic, extended accuracies, and closed rational intervals.

Everything in this library is built on arbitrary-precision fractions in
canonical form; no operation here rounds.  Error bounds ("accuracies")
are strictly positive rationals extended with a single infinite value
``INF``, which means "no information".  ``_positive`` is the one check
that an accuracy is positive; each public entry point names its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import total_ordering
from typing import Union

__all__ = [
    "rat",
    "as_fraction",
    "INF",
    "Accuracy",
    "is_finite",
    "Interval",
    "parse_rational",
    "parse_accuracy",
]


def rat(numerator: int, denominator: int = 1) -> Fraction:
    """Exact rational numerator/denominator in canonical form.

    Raises ZeroDivisionError for a zero denominator.
    """
    return Fraction(numerator, denominator)


def as_fraction(value) -> Fraction:
    """Coerce an int or Fraction to Fraction; floats are refused outright."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@total_ordering
class _InfiniteAccuracy:
    """The accuracy "no information": compares greater than every rational.
    A singleton, so == and hash are identity; the order follows from <."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __lt__(self, other):
        if isinstance(other, (_InfiniteAccuracy, Fraction, int)):
            return False
        return NotImplemented


INF = _InfiniteAccuracy()

# A positive rational error bound, or INF.
Accuracy = Union[Fraction, _InfiniteAccuracy]


def is_finite(accuracy: Accuracy) -> bool:
    return accuracy is not INF


def _text(x: Fraction) -> str:
    """str(x), past str(int)'s digit limit: Decimal prints every digit."""
    n, d = str(Decimal(x.numerator)), x.denominator
    return n if d == 1 else f"{n}/{Decimal(d)}"


def _positive(value, what: str) -> Fraction:
    """value as a Fraction; ValueError naming `what` unless it is > 0."""
    value = as_fraction(value)
    if value.numerator <= 0:
        raise ValueError(f"{what} must be positive, got {_text(value)}")
    return value


@dataclass(frozen=True)
class Interval:
    """Closed rational interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={_text(self.lo)} > hi={_text(self.hi)}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        x = as_fraction(x)
        return self.lo <= x <= self.hi

    def __repr__(self):
        return f"[{_text(self.lo)}, {_text(self.hi)}]"


_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")
_DYADIC_RE = re.compile(r"^2\^-(\d+)$")
# Largest k accepted in the "2^-k" shorthand.  Meeting 2^-65536 is slow:
# `eval` of (mul (var 0) (add (var 0) (rat 1 3))) at --x 1/3 took 23 s
# (1.9 s at 2^-16384) with interpreter start, on a shared 2-core x86-64 VM
# with Python 3.11.7, about half of it in the products of the mul step.
_MAX_DYADIC_EXPONENT = 65536


def _int(digits: str, what: str) -> int:
    """int(digits); past sys.get_int_max_str_digits(), a ValueError naming `what`."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"{what} too long: {len(digits.lstrip('+-'))} digits") from None


def parse_rational(text: str) -> Fraction:
    """Parse "n" or "n/d" with decimal integers and positive denominator.

    The grammar is deliberately strict: no whitespace inside, no decimal
    points, no sign on the denominator.  This is the bit-exact text form
    used at the command-line boundary.  An integer longer than the
    interpreter's int-to-string limit is refused in words of our own.
    """
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a rational: {text!r} (expected 'n' or 'n/d')")
    num = _int(m.group(1), "numerator")
    den = _int(m.group(2), "denominator") if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def parse_accuracy(text: str) -> Fraction:
    """Parse a strictly positive rational accuracy, with "2^-k" shorthand."""
    text = text.strip()
    m = _DYADIC_RE.match(text)
    if m:
        k = _int(m.group(1), "exponent of 2^-k")
        if k > _MAX_DYADIC_EXPONENT:
            raise ValueError(f"accuracy 2^-k needs k <= {_MAX_DYADIC_EXPONENT}")
        value = Fraction(1, 1 << k)
    else:
        value = parse_rational(text)
    if value <= 0:
        raise ValueError(f"accuracy must be positive, got {text!r}")
    return value
