"""Exact dyadic rationals: integers divided by powers of two.

The null-vector constructions introduce denominators that are powers of
two and nothing else, so the coefficient ring of the exact kernel is
closed under +, -, * and equality can be structural.  Instances are
treated as immutable.

A dyadic coefficient is the pair (numerator, exponent), and this module
is the one place that turns coefficients into such pairs and back.
_parse reads the text '3', '-5/8' or '7/2^4' into a pair, _pair unpacks
an int or a DyadicRational, _scale_in writes a constructor's values
over their largest exponent and is the one place that rejects any other
coefficient type, and _text writes a pair back as 'n' or 'n/2^e'.
Both multivector types store plain-int numerators over one shared
exponent instead of instances, and Multivector.parse goes from text to
those numerators without building one.  Their operators that read no
storage (negation, scaling, product dispatch, subtraction, equality)
live once, in _Numerators, and take a scalar through _pair alone.
_shift is the one reduction rule: lower the exponent while every
numerator is even.  A DyadicRational and each rendered term apply it
to one numerator, and the canonical forms of a Multivector and of an
EFBMultivector apply it, through _common_shift, to all their
numerators at once.  Products add
exponents and the inverse Fock-basis transform adds m for its 2^-m, so
instances are built only where a coefficient leaves.
"""

from __future__ import annotations

import re

# ASCII digits only: \d alone matches every Unicode digit, and int()
# reads them
_COEFF_RE = re.compile(r"^([+-]?)0*(\d+)(?:/(?:2\^0*(\d+)|0*(\d+)))?$",
                       re.ASCII)

# A parsed coefficient has at most MAX_BITS bits above and below the
# point, so a product of two operands of up to 4^8 terms each still
# prints in under 2,500 digits.
MAX_BITS = 2048
_MAX_DIGITS = len(str(1 << MAX_BITS))
_TOO_LONG = 1 << (MAX_BITS + 1)


def _int(digits: str) -> int:
    # int() of a long digit string is slow and, past 4300 digits, refused
    # by Python; any string longer than an in-bounds value stands in as
    # 2^(MAX_BITS + 1), which every bound in parse rejects
    return int(digits) if len(digits) <= _MAX_DIGITS else _TOO_LONG


def _shift(low: int, e: int) -> int:
    """The largest s <= e with 2^s dividing low: numerators over 2^e
    whose bitwise OR is low reduce together to n >> s over 2^(e - s).
    For low = 0 s is e, as zero is 0 over 2^0."""
    return min(e, (low & -low).bit_length() - 1) if low else e


def _common_shift(numerators, e: int) -> int:
    """_shift of the bitwise OR of the numerators; stops at the first odd
    one.  The exponent rule of both multivector canonical forms."""
    low = 0
    if e:
        for n in numerators:
            low |= n
            if low & 1:
                return 0
    return _shift(low, e)


def _reduced(numerator: int, exponent: int) -> "DyadicRational":
    # internal fast path: arguments already known to be ints, exponent >= 0
    if exponent and not numerator & 1:
        shift = _shift(numerator, exponent)
        numerator >>= shift
        exponent -= shift
    out = object.__new__(DyadicRational)
    out.numerator = numerator
    out.exponent = exponent
    return out


def _pair(c):
    """(numerator, exponent) of an int or a DyadicRational, else None."""
    if isinstance(c, DyadicRational):
        return c.numerator, c.exponent
    if isinstance(c, int):
        return c, 0
    return None


def _scale_in(values) -> tuple[list[int], int]:
    """(numerators, e) with values[i] == numerators[i] / 2^e, e the
    largest exponent among the values, which must be int or
    DyadicRational."""
    pairs = [_pair(v) for v in values]
    if None in pairs:
        raise TypeError("coefficients must be int or DyadicRational")
    e = max((x for _, x in pairs), default=0)
    return [n << (e - x) for n, x in pairs], e


def _clip(text: str) -> str:
    """text, or its first 40 characters and an ellipsis when longer: an
    error message quotes a bad token of any size in bounded space."""
    return text if len(text) <= 40 else text[:40] + "\u2026"


def _parse(text: str) -> tuple[int, int]:
    """(numerator, exponent) of '3', '-5/8' or '7/2^4', not reduced; the
    denominator must be a power of 2.

    The numerator may have at most MAX_BITS bits and the denominator
    may be at most 2^MAX_BITS.
    """
    m = _COEFF_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a dyadic coefficient: {_clip(text)!r}")
    sign, num_text, exp_text, den_text = m.groups()
    num = _int(num_text)
    if num.bit_length() > MAX_BITS:
        raise ValueError(f"coefficient numerator longer than {MAX_BITS} bits")
    exponent = 0
    if exp_text is not None:
        exponent = _int(exp_text)
    elif den_text is not None:
        den = _int(den_text)
        if den <= 0 or den & (den - 1):
            raise ValueError(
                f"denominator must be a power of 2: {_clip(text)!r}")
        exponent = den.bit_length() - 1
    if exponent > MAX_BITS:
        raise ValueError(f"coefficient denominator above 2^{MAX_BITS}")
    return (-num if sign == "-" else num), exponent


def _text(numerator: int, exponent: int) -> str:
    """numerator / 2^exponent in lowest terms, as 'n' or 'n/2^e' with the
    power of two written out: _text(6, 3) is '3/4'."""
    shift = _shift(numerator, exponent)
    if shift == exponent:
        return str(numerator >> shift)
    return f"{numerator >> shift}/{1 << (exponent - shift)}"


def _sum(n1: int, e1: int, n2: int, e2: int) -> "DyadicRational":
    e = max(e1, e2)
    return _reduced((n1 << (e - e1)) + (n2 << (e - e2)), e)


class DyadicRational:
    """numerator / 2**exponent in reduced form.

    Reduced means the numerator is odd whenever the exponent is
    positive; zero is stored as (0, 0).
    """

    __slots__ = ("numerator", "exponent")

    def __init__(self, numerator: int, exponent: int = 0):
        if not isinstance(numerator, int) or not isinstance(exponent, int):
            raise TypeError("numerator and exponent must be integers")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        reduced = _reduced(numerator, exponent)
        self.numerator = reduced.numerator
        self.exponent = reduced.exponent

    @classmethod
    def parse(cls, text: str) -> "DyadicRational":
        """Parse '3', '-5/8' or '7/2^4'; the denominator must be a power of 2.

        The numerator may have at most MAX_BITS bits and the denominator
        may be at most 2^MAX_BITS.
        """
        return _reduced(*_parse(text))

    def __add__(self, other):
        pair = _pair(other)
        if pair is None:
            return NotImplemented
        return _sum(self.numerator, self.exponent, *pair)

    __radd__ = __add__

    def __sub__(self, other):
        pair = _pair(other)
        if pair is None:
            return NotImplemented
        return _sum(self.numerator, self.exponent, -pair[0], pair[1])

    def __rsub__(self, other):
        pair = _pair(other)
        if pair is None:
            return NotImplemented
        return _sum(-self.numerator, self.exponent, *pair)

    def __mul__(self, other):
        pair = _pair(other)
        if pair is None:
            return NotImplemented
        return _reduced(self.numerator * pair[0], self.exponent + pair[1])

    __rmul__ = __mul__

    def __neg__(self):
        return _reduced(-self.numerator, self.exponent)

    def __abs__(self):
        return _reduced(abs(self.numerator), self.exponent)

    def __bool__(self):
        return self.numerator != 0

    def __eq__(self, other):
        pair = _pair(other)
        if pair is None:
            return NotImplemented
        return (self.numerator, self.exponent) == pair  # both reduced

    def __hash__(self):
        # ints with exponent 0 must hash like plain ints
        if self.exponent == 0:
            return hash(self.numerator)
        return hash((self.numerator, self.exponent))

    def __str__(self):
        return _text(self.numerator, self.exponent)

    def __repr__(self):
        return f"DyadicRational({self.numerator}, {self.exponent})"


class _Numerators:
    """The operators of the multivector types that read no storage.

    A subclass stores plain-int numerators over one 2^e and defines
    _scaled(numerator, exponent), __add__, _product(other) for an
    operand of its own type, _key(), the canonical form that equality
    compares, and _like(other): the operand as the subclass's own type,
    a lifted scalar where the subclass allows one, or None.  A scalar
    enters through _pair, so it is an int or a DyadicRational and
    commutes with every element.
    """

    __slots__ = ()

    def __neg__(self):
        return self._scaled(-1, 0)

    def __rmul__(self, other):
        pair = _pair(other)
        if pair is None:
            return NotImplemented
        return self._scaled(*pair)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._product(other)
        return self.__rmul__(other)

    def __sub__(self, other):
        other = self._like(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __eq__(self, other):
        other = self._like(other)
        if other is None:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # mutable-looking containers; equality only
