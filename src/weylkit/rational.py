"""Exact complex-rational scalars for the symbolic layer, which never floats.

:class:`CRat` stores three ints (a, b, d) meaning (a + b·i)/d, integer
numerators over one shared denominator as in FLINT's ``fmpq_poly``, kept
canonical: d > 0 and gcd(a, b, d) = 1, so zero is (0, 0, 1) and equal values
have equal triples.  A product is a few int products and one three-way
``math.gcd``.  ``.re`` and ``.im`` are read-only ``Fraction`` properties and
the slots are private, so a CRat is immutable as a ``Fraction`` is.  Floats
are converted exactly, on input and in ``==`` (``CRat(0.5) == 0.5``), but
arithmetic with a float is a ``TypeError``.  Hashes agree with
``hash(Fraction)`` for real values and ``hash(complex)`` for complex ones.
"""

import math
import sys
from fractions import Fraction

__all__ = ["CRat", "ZERO", "ONE", "I"]


def _triple(value):
    """(a, b, d) of a CRat, int or Fraction operand; None for other types."""
    if type(value) is CRat:
        return value._a, value._b, value._d
    if isinstance(value, int):
        return value, 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    return None


class CRat:
    """A complex number with exact rational parts; mixes with int and Fraction."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        for v in (re, im):
            if not isinstance(v, (int, float, str, Fraction)):
                raise TypeError(f"cannot build an exact rational from {type(v).__name__}")
        re, im = Fraction(re), Fraction(im)
        d = math.lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @classmethod
    def coerce(cls, value) -> "CRat":
        """Coerce int/float/Fraction/CRat/complex into a CRat, exactly."""
        if isinstance(value, complex):
            return cls(value.real, value.imag)
        return value if isinstance(value, CRat) else cls(value)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def is_real(self) -> bool:
        return not self._b

    def is_imaginary(self) -> bool:
        return not self._a

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        c, e, f = t
        d = self._d
        if d == f:
            return _canon(self._a + c, self._b + e, d)
        return _canon(self._a * f + c * d, self._b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        t = _triple(other)
        return NotImplemented if t is None else self + _make(-t[0], -t[1], t[2])

    def __rsub__(self, other):
        return NotImplemented if _triple(other) is None else -self + other

    def __mul__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        c, e, f = t
        a, b = self._a, self._b
        return _canon(a * c - b * e, a * e + b * c, self._d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = _triple(other)
        return NotImplemented if t is None else _divide(self._a, self._b, self._d, *t)

    def __rtruediv__(self, other):
        t = _triple(other)
        return NotImplemented if t is None else _divide(*t, self._a, self._b, self._d)

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (ONE / self) ** -exponent
        a, b, d, x, y, z = 1, 0, 1, self._a, self._b, self._d
        while exponent:
            if exponent & 1:
                a, b, d = a * x - b * y, a * y + b * x, d * z
            x, y, z = x * x - y * y, 2 * x * y, z * z
            exponent >>= 1
        return _canon(a, b, d)

    def turn(self, k: int) -> "CRat":
        """self · i^k, a unit rotation of the numerators."""
        a, b = self._a, self._b
        return _make(*((a, b), (-b, a), (-a, -b), (b, -a))[k % 4], self._d)

    def conjugate(self) -> "CRat":
        return _make(self._a, -self._b, self._d)

    def __eq__(self, other):
        if isinstance(other, (float, complex)):
            other = complex(other)
            if not (math.isfinite(other.real) and math.isfinite(other.imag)):
                return False
            other = CRat(other.real, other.imag)
        t = _triple(other)
        return NotImplemented if t is None else (self._a, self._b, self._d) == t

    def __hash__(self):
        if not self._b:
            return hash(self.re)
        bits = sys.hash_info.width  # complex hashes wrap to a signed machine word
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) % (1 << bits)
        h -= (h >> (bits - 1)) << bits
        return -2 if h == -1 else h

    def to_complex(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return _fmt_imag(im)
        return f"({re} {'+' if im > 0 else '-'} {_fmt_imag(abs(im))})"

    def __repr__(self) -> str:
        return f"CRat({self.re!r}, {self.im!r})"


def _make(a: int, b: int, d: int) -> CRat:
    """CRat from a triple that is already canonical."""
    out = object.__new__(CRat)
    out._a, out._b, out._d = a, b, d
    return out


def _canon(a: int, b: int, d: int) -> CRat:
    """CRat from a triple with d > 0, divided by gcd(a, b, d)."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _make(a, b, d)


def _divide(a, b, d, c, e, f) -> CRat:
    """(a + bi)/d ÷ (c + ei)/f = (a + bi)(c − ei) f / (d (c² + e²))."""
    norm = c * c + e * e
    if not norm:
        raise ZeroDivisionError("division by zero CRat")
    return _canon((a * c + b * e) * f, (b * c - a * e) * f, d * norm)


def _fmt_imag(r: Fraction) -> str:
    if r == 1 or r == -1:
        return "i" if r == 1 else "-i"
    if r.denominator == 1:
        return f"{r.numerator}i"
    return f"{'-' if r < 0 else ''}({abs(r)})i"


ZERO = CRat(0)
ONE = CRat(1)
I = CRat(0, 1)
