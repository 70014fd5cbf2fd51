"""Exact dyadic rationals: integers divided by powers of two.

The null-vector constructions introduce denominators that are powers of
two and nothing else, so the coefficient ring of the exact kernel is
closed under +, -, * and equality can be structural.  Instances are
treated as immutable.

Both multivector types store plain-int numerators over one shared
exponent instead of instances.  _scale_in writes the coefficients a
constructor is given over their largest exponent.  _shift is the one
reduction rule: lower the exponent while every numerator is even.  A
DyadicRational and each rendered term apply it to one numerator, and
the canonical forms of a Multivector and of an EFBMultivector apply it,
through _common_shift, to all their numerators at once.  Products add
exponents and the inverse Fock-basis transform adds m for its 2^-m, so
instances are built only where a coefficient leaves.
"""

from __future__ import annotations

import re

_COEFF_RE = re.compile(r"^([+-]?)0*(\d+)(?:/(?:2\^0*(\d+)|0*(\d+)))?$")

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


def _scale_in(values) -> tuple[list[int], int]:
    """(numerators, e) with values[i] == numerators[i] / 2^e, e the
    largest exponent among the int and DyadicRational values."""
    e = max((v.exponent for v in values if type(v) is DyadicRational),
            default=0)
    return [v.numerator << (e - v.exponent) if type(v) is DyadicRational
            else v << e for v in values], e


def _clip(text: str) -> str:
    """text, or its first 40 characters and an ellipsis when longer: an
    error message quotes a bad token of any size in bounded space."""
    return text if len(text) <= 40 else text[:40] + "\u2026"


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
        m = _COEFF_RE.match(text.strip())
        if not m:
            raise ValueError(f"not a dyadic coefficient: {_clip(text)!r}")
        sign, num_text, exp_text, den_text = m.groups()
        num = _int(num_text)
        if num.bit_length() > MAX_BITS:
            raise ValueError(
                f"coefficient numerator longer than {MAX_BITS} bits")
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
        return cls(-num if sign == "-" else num, exponent)

    def __add__(self, other):
        if isinstance(other, int):
            onum, oexp = other, 0
        elif isinstance(other, DyadicRational):
            onum, oexp = other.numerator, other.exponent
        else:
            return NotImplemented
        e = self.exponent
        if e == oexp:
            return _reduced(self.numerator + onum, e)
        if e < oexp:
            return _reduced((self.numerator << (oexp - e)) + onum, oexp)
        return _reduced(self.numerator + (onum << (e - oexp)), e)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = DyadicRational(other)
        elif not isinstance(other, DyadicRational):
            return NotImplemented
        return self + _reduced(-other.numerator, other.exponent)

    def __rsub__(self, other):
        if isinstance(other, int):
            return DyadicRational(other) + _reduced(-self.numerator, self.exponent)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            onum, oexp = other, 0
        elif isinstance(other, DyadicRational):
            onum, oexp = other.numerator, other.exponent
        else:
            return NotImplemented
        return _reduced(self.numerator * onum, self.exponent + oexp)

    __rmul__ = __mul__

    def __neg__(self):
        return _reduced(-self.numerator, self.exponent)

    def __abs__(self):
        return _reduced(abs(self.numerator), self.exponent)

    def __bool__(self):
        return self.numerator != 0

    def __eq__(self, other):
        if isinstance(other, DyadicRational):
            return (self.numerator == other.numerator
                    and self.exponent == other.exponent)
        if isinstance(other, int):
            return self.exponent == 0 and self.numerator == other
        return NotImplemented

    def __hash__(self):
        # ints with exponent 0 must hash like plain ints
        if self.exponent == 0:
            return hash(self.numerator)
        return hash((self.numerator, self.exponent))

    def __str__(self):
        if self.exponent == 0:
            return str(self.numerator)
        return f"{self.numerator}/{1 << self.exponent}"

    def __repr__(self):
        return f"DyadicRational({self.numerator}, {self.exponent})"
