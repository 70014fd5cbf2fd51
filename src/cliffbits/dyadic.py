"""Exact dyadic rationals: integers divided by powers of two.

The null-vector constructions introduce denominators that are powers of
two and nothing else, so the coefficient ring of the exact kernel is
closed under +, -, * and equality can be structural.  Instances are
treated as immutable.

A dyadic coefficient is the pair (numerator, exponent), and this module
is the one place that turns coefficients into such pairs and back.
_parse reads the text '3', '-5/8' or '7/2^4' into a pair: the ASCII 'n'
and 'n/d' that _text writes without its regex, every other text
through it.  _pair unpacks an int or a DyadicRational, _scale_in writes
a constructor's values over their largest exponent and is the one
place that rejects any other coefficient type (_converted names any
other bad constructor argument), and _text writes a pair back as 'n' or
'n/d', d = 2^e written out.  Both multivector types store plain-int
numerators over one shared exponent instead of instances, and
Multivector.parse goes from text to those numerators without building
one, each coefficient through _parse.  Their operators that read no
storage (negation, scaling, product dispatch, subtraction, equality)
live once, in _Numerators, and take a scalar through _pair alone.
_shift is the one reduction rule: lower the exponent while every
numerator is even.  A DyadicRational and each rendered term apply it
to one numerator, and the canonical forms of a Multivector and of an
EFBMultivector apply it, through _common_shift, to all their
numerators at once, and bits._lower applies it to the OR of the lanes
of packed rows: the columns a Fock-basis matrix keeps and the rows of
the dense read-out.  Both stop at shift 0 on the first odd numerator,
or odd lane of the first row.  Products add
exponents and the inverse Fock-basis transform adds m for its 2^-m, so
instances are built only where a coefficient leaves.

_Numerators also owns the carried bound, _bits: a bound on the bit
length of every numerator, or None.  It plays no part in equality, and
the packed kernels take their lane widths from it.  A producer that
knows a bound without a scan sets it: scaling adds the bit length of
the scalar's numerator (_scaled_bits); mv_mul and efb_product add n or
m to their operands' bounds when both carry one, as a term sums at most
2^n or 2^m products; the gathers and the list stages of blades_to_efb
add m to the blade operand's bound; and the dense read-out of
efb_to_blades sets its own.  The canonical shift lowers it.  Every
other producer, parse included, leaves None.  _bound() scans a
multivector whose _bits is None once, by _magnitude over the rows of
numerators its type supplies (_rows), and keeps the result; only a step
that needs a lane width reads it.  A carried bound never understates,
but it may overstate: bx + by + m of a product can miss a 64-bit word
while its entries fit.  So from m = 5 on, efb._fits_columns, the one
fit test of every column-kernel route, drops a bound that misses a
word, and _bound() scans once.
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
    s = (low & -low).bit_length() - 1  # -1 for low = 0
    return s if 0 <= s < e else e


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


def _magnitude(rows) -> int:
    """The bit length of the largest magnitude in a collection of rows:
    one C-level max and one min per row, an empty row or collection
    counting as 0.  The one bit scan of numerators, read by _bound() and
    by the lane widths of bits (_lane_width)."""
    return max(max(map(max, filter(None, rows)), default=0),
               -min(map(min, filter(None, rows)), default=0)).bit_length()


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


def _converted(kind, value, name: str, what: str):
    """kind(value), or a TypeError that names the argument when value
    does not convert: a constructor's squares, terms or entries."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise TypeError(f"{name} must be {what}, got "
                        f"{type(value).__name__}") from None


def _clip(text: str) -> str:
    """text, or its first 40 characters and an ellipsis when longer: an
    error message quotes a bad token of any size in bounded space."""
    return text if len(text) <= 40 else text[:40] + "\u2026"


def _parse(text: str) -> tuple[int, int]:
    """(numerator, exponent) of '3', '-5/8' or '7/2^4', not reduced; the
    denominator must be a power of 2.

    The numerator may have at most MAX_BITS bits and the denominator
    may be at most 2^MAX_BITS.  ASCII 'n' and 'n/d' shorter than
    _MAX_DIGITS, the text _text writes, with d a power of 2, are read
    without the regex: fewer digits than 2^MAX_BITS has cannot pass
    either bound.  Every other text takes the regex and its checks.
    """
    num_text, slash, den_text = text.partition("/")
    if (len(text) < _MAX_DIGITS and text.isascii() and num_text.isdigit()
            and (den_text.isdigit() or not slash)):
        if not slash:
            return int(num_text), 0
        den = int(den_text)
        if den and not den & (den - 1):
            return int(num_text), den.bit_length() - 1
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
    if not exponent:  # in lowest terms already
        return str(numerator)
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
        if not isinstance(text, str):
            raise TypeError(f"text must be a str, got {type(text).__name__}")
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
    compares, _like(other): the operand as the subclass's own type, a
    lifted scalar where the subclass allows one, or None, and _rows(),
    its numerators as a collection of rows for _magnitude.  A scalar
    enters through _pair, so it is an int or a DyadicRational and
    commutes with every element.  _bits is the carried bound (see the
    module docstring).
    """

    __slots__ = ("_bits",)

    def _bound(self) -> int:
        """_bits, or, when no producer set it, the bit length of the
        largest numerator by one scan, kept in _bits."""
        if self._bits is None:
            self._bits = _magnitude(self._rows())
        return self._bits

    def _scaled_bits(self, numerator: int) -> int | None:
        """The carried bound of self times numerator, or None: a product
        has at most the bit lengths of its factors added."""
        bits = self._bits
        return None if bits is None else bits + abs(numerator).bit_length()

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
