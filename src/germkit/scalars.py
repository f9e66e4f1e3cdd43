"""Gaussian rational scalars.

Every quantity in the engine lives in Q(i).  A value is held as three plain
Python ints, ``(a + b*i) / d`` with ``d > 0`` and ``gcd(a, b, d) = 1``, so
equal values have equal representations and equality is structural.  The
arithmetic works on those ints directly with ``math.gcd``; ``re`` and ``im``
hand out reduced ``fractions.Fraction`` parts at the API edge.  Purely
rational data has ``b = 0`` and never acquires an imaginary part, so
rational inputs stay rational through every pipeline and take the one-part
branch of each operation.  All operations are exact; there is no floating
point anywhere.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd

from .errors import ParseError

_new = object.__new__


class Scalar:
    """An element of Q(i), immutable and hashable.

    ``Scalar(re, im)`` takes ints or ``Fraction``s.  Internally the value is
    ``(_a + _b*i) / _d`` in lowest terms with ``_d > 0``; the integer kernels
    (``kuranishi``'s bracket kernel, ``multipoly.evaluate``) read these three
    ints and return through ``from_ints``, and ``linalg.sparse_rank`` reads them.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: "int | Fraction" = 0, im: "int | Fraction" = 0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"cannot build a Scalar from {type(part).__name__}")
        rn, rd = re.numerator, re.denominator
        jn, jd = im.numerator, im.denominator
        a, b, d = rn * jd, jn * rd, rd * jd
        g = gcd(a, b, d)
        _set_a(self, a // g)
        _set_b(self, b // g)
        _set_d(self, d // g)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Scalar")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Scalar")

    def __reduce__(self):
        return (Scalar, (self.re, self.im))

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates -------------------------------------------------------

    def is_rational(self) -> bool:
        return not self._b

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        # Equal to the hash of the (re, im) pair of Fractions, so sets and
        # dicts of scalars keep the iteration order they have over pairs.
        return hash((self.re, self.im))

    # -- field operations -------------------------------------------------

    def __add__(self, o):
        if o.__class__ is not Scalar:
            o = _coerce(o)
            if o is None:
                return NotImplemented
        return _add(self._a, self._b, self._d, o._a, o._b, o._d)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _make(-self._a, -self._b, self._d)

    def __sub__(self, o):
        if o.__class__ is not Scalar:
            o = _coerce(o)
            if o is None:
                return NotImplemented
        return _add(self._a, self._b, self._d, -o._a, -o._b, o._d)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, o):
        if o.__class__ is not Scalar:
            o = _coerce(o)
            if o is None:
                return NotImplemented
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = o._a, o._b, o._d
        if not (b1 or b2):
            if d1 == 1 and d2 == 1:
                return _make(a1 * a2, 0, 1)
            g1 = gcd(a1, d2)
            g2 = gcd(a2, d1)
            return _make((a1 // g1) * (a2 // g2), 0, (d1 // g2) * (d2 // g1))
        a = a1 * a2 - b1 * b2
        b = a1 * b2 + b1 * a2
        if d1 == 1 and d2 == 1:
            return _make(a, b, 1)
        return from_ints(a, b, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if o.__class__ is not Scalar:
            o = _coerce(o)
            if o is None:
                return NotImplemented
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = o._a, o._b, o._d
        if not (a2 or b2):
            raise ZeroDivisionError("scalar division by zero")
        if not (b1 or b2):
            g1 = gcd(a1, a2)
            g2 = gcd(d1, d2)
            n = (a1 // g1) * (d2 // g2)
            d = (a2 // g1) * (d1 // g2)
            if d < 0:
                return _make(-n, 0, -d)
            return _make(n, 0, d)
        # x / y = (a1 + b1 i) d2 (a2 - b2 i) / (d1 (a2^2 + b2^2))
        return from_ints(
            d2 * (a1 * a2 + b1 * b2),
            d2 * (b1 * a2 - a1 * b2),
            d1 * (a2 * a2 + b2 * b2),
        )

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def conjugate(self) -> "Scalar":
        return _make(self._a, -self._b, self._d)

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"


_set_a = Scalar._a.__set__
_set_b = Scalar._b.__set__
_set_d = Scalar._d.__set__


def _make(a: int, b: int, d: int) -> Scalar:
    """A Scalar from ints already in lowest terms with ``d > 0``."""
    x = _new(Scalar)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def from_ints(a: int, b: int, d: int) -> Scalar:
    """The Scalar ``(a + b*i) / d`` for ints with ``d > 0``, brought to lowest
    terms by one gcd."""
    g = gcd(a, b, d)
    if g == 1:
        return _make(a, b, d)
    return _make(a // g, b // g, d // g)


def _add(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int) -> Scalar:
    """(a1 + b1*i)/d1 + (a2 + b2*i)/d2; the one-part branch is ``Fraction._add``."""
    if d1 == 1 and d2 == 1:
        return _make(a1 + a2, b1 + b2, 1)
    g = gcd(d1, d2)
    s = d1 // g
    if not (b1 or b2):
        t = a1 * (d2 // g) + a2 * s
        g2 = gcd(t, g)
        if g2 == 1:
            return _make(t, 0, s * d2)
        return _make(t // g2, 0, s * (d2 // g2))
    u = d2 // g
    return from_ints(a1 * u + a2 * s, b1 * u + b2 * s, s * d2)


def _coerce(value) -> "Scalar | None":
    """The Scalar for an int or Fraction operand, None for anything else."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Scalar(value)
    return None


ZERO = Scalar()
ONE = Scalar(1)


def scalar(value: "Scalar | Fraction | int | str") -> Scalar:
    """The Scalar of a Scalar, an int, a Fraction or a scalar text."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot build a Scalar from {type(value).__name__}")


def format_scalar(x: Scalar) -> str:
    """Canonical string form: ``a/b``, ``c/d*i`` or ``a/b+c/d*i``.

    Fractions print in lowest terms ("5/6", "-2", "0"); the imaginary part
    carries an explicit sign when a real part is present.
    """
    if not x._b:
        # b = 0 gives gcd(a, d) = 1: the real part is already in lowest terms.
        return str(x._a) if x._d == 1 else f"{x._a}/{x._d}"
    re, im = x.re, x.im
    imag = f"{im}*i"
    if not re:
        return imag
    if im > 0:
        return f"{re}+{imag}"
    return f"{re}-{-im}*i"


# An unsigned decimal fraction, "3" or "3/4".
_UNSIGNED = r"[0-9]+(?:/[0-9]+)?"
# A real part (followed by a sign or the end), then an optional imaginary
# part: a sign, an optional unsigned fraction with "*", and "i".
_SCALAR = _re.compile(
    rf"(?P<re>[+-]?{_UNSIGNED}(?=[+-]|\Z))?(?:(?P<sign>[+-]?)(?:(?P<im>{_UNSIGNED})\*)?i)?"
)


def _int_parts(text: str) -> tuple[int, int]:
    """(numerator, denominator > 0) of a signed decimal ``a`` or ``a/b``;
    a zero denominator raises what ``Fraction`` raises."""
    num, _, den = text.partition("/")
    n, d = int(num), int(den) if den else 1
    if not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    return n, d


def parse_scalar(text: str) -> Scalar:
    """Parse the canonical string form back into a Scalar.

    Accepted: ``a``, ``a/b``, ``c/d*i`` and ``a/b±c/d*i`` with decimal
    digits, an optional sign in front, and ``i``/``-i`` (also after a real
    part) for a unit imaginary part.  Spaces are ignored.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty scalar string")
    m = _SCALAR.fullmatch(s)
    if m is None:
        raise ParseError(f"bad scalar {text!r}: expected a, a/b, c/d*i or a/b+c/d*i")
    re_text, sign, im_text = m.group("re", "sign", "im")
    try:
        rn, rd = _int_parts(re_text) if re_text else (0, 1)
        jn, jd = 0, 1
        if sign is not None:
            jn, jd = _int_parts(im_text) if im_text else (1, 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar {text!r}: {exc}") from None
    # (rn/rd) + (jn/jd)*i over the one denominator rd*jd, reduced by one gcd.
    return from_ints(rn * jd, -jn * rd if sign == "-" else jn * rd, rd * jd)


class ParsedScalars(dict):
    """Scalar texts and their values, each text parsed on its first lookup.

    A file reader makes one for the one file it reads and drops it after,
    so a text that repeats in that file is parsed once and nothing carries
    over to the next read.  A bad text raises ``parse_scalar``'s error.
    """

    def __missing__(self, text: str) -> Scalar:
        value = self[text] = parse_scalar(text)
        return value
