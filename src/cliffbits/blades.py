"""Exact brute-force Clifford algebra over a diagonal metric.

This is the ground-truth layer.  Blades are bitmasks (bit i set means
generator g{i+1} is a factor, factors ordered by increasing index),
multivectors map blades to integer numerators over one shared 2^e, and
every product sign is the GF(2) bilinear form of blade_product.
Multivector.parse has one term reader, _terms.  It reads the text as
str writes it, split once at ' + ' and ' - ', each coefficient by
dyadic's one reader into a numerator and an exponent, and each term's
mask by lookups in a per-n table of bits, a name below a factor read
so far taking blade_product's sign, or, for a text of at least the
list share of terms, by one lookup of its whole run of names in a
table kept with _grade_order(n).  Terms read as canonical (no zero, no
mask twice, some numerator odd over the largest exponent) are adopted
once scaled to that exponent; any others are summed by mask.  Only if
that read raises ParseError is the text split again at every sign, its
words put one space apart, and read by the same reader.  str writes
each term with dyadic's one writer.
str joins the generator names of a mask from per-byte tables of 256
prebuilt strings, one table per byte position, built on first use.

A multivector has one of two storage forms, picked from its value
alone by one rule, _listed: one that holds at least 3/8 of the 2^n
blades keeps its numerators as one list of length 2^n in mask order,
zeros included, and a sparser one keeps a dict of its nonzero
numerators by mask.  Either way it keeps its count of nonzero
numerators, _nnz.  In the paper's terms a dense element is a vector
indexed by the integers 0 .. 2^n - 1, its blades.  Every producer
passes through the one canonical form (_canonical, which counts, picks
the form and lowers the exponent) or adopts numerators already in it,
so equal values have equal storage and equality stays structural.
The fast paths read the list and build no dict: the Gray-code walk
takes both operands' numerators from it (_vector, which builds the
list of a dict form instead) and returns its lanes as the product's
list; efb's dense gather reads it with one itemgetter in lane order,
and efb's dense read-out writes it with one itemgetter into mask
order.  Equality, scaling, sums of two lists, the grade involution,
the canonical shift, the bound's scan (_rows), the pair count and str
read the list as well; str walks it in a per-n grade order of the
masks (_grade_order), built for list forms alone and kept for a few n.
The pair loop reads the nonzeros of either form (_items), and efb's
sparse conversion the dict of a dict form; the dict of a list form is
built from the list on the first read of _nums, by terms and
coefficient, and kept.

mv_mul has two kernels with equal results and pair counts.  The pair
loop runs one interpreted multiply-add per blade pair; it takes sparse
operands, and verify and the tests call it as the oracle of the other.
The Gray-code walk packs y into one int of 2^n signed lanes through
the lane layer of the bits module (Kronecker substitution).  It splits
a blade of x as l | h, l its low j = min(n // 2, 4) bits.  Every
generator of l comes before every generator of h, so e_(l|h) = e_l e_h
with no sign, and x y = sum_l e_l A_l, A_l = sum_h x[l | h] (e_h y).
The walk steps h through a Gray code over the high bits.  R is
GF(2)-linear, so flipping bit k of h swaps 2^k-lane blocks of the
packed int (bits._swap, the block swap the Fock-basis product permutes
lanes with) and negates the lanes c with popcount(c & R(e_k)) odd: a
few mask-and-shift operations on the whole int per step, and one
C-level multiply-add per blade of x into the 2^j accumulators A_l.
Horner's rule folds them with the same step, highest bit first:
A_i += e_k A_(i + 2^k).  The walk pays 2^(n - j) + 2^j - 1 steps over
all 2^n lanes, so it loses on sparse operands; _walk_width weighs
nnz(x) * nnz(y) against that cost by bits._kernel_width.  From n = 6
on its lanes take the fewest whole bytes that hold a term, 6 bytes and
not 8 for a 43-bit one (_walk_lane): the walk multiplies its packed int
once per blade of x and packs and unpacks it once, so there the
narrower lanes save more than the byte codec of bits costs.  The masks
of a step are cached per (n, neg, lane size).
The fast engine is checked against this module, and this module
against the explicit transposition counting of the
blade-sign-vs-normal-order verify suite.

A multivector carries _bits, the bound on the bit length of its
numerators that the dyadic module describes.  _walk_width reads it
through _bound(), and so does efb's blades_to_efb for a list form,
whose gather runs the column kernel when its lanes fit a word; a dict
form goes to the Fock basis without reading it.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Set
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial
from itertools import compress, repeat
from operator import add, lshift, mul, rshift
from types import MappingProxyType

from .bits import (_halves, _keeps, _kernel_width, _lane_pattern, _pack,
                   _swap, _unpack, _width, parity_above)
from .dyadic import (DyadicRational, _Numerators, _clip, _common_shift,
                     _converted, _pair, _parse, _reduced, _scale_in, _text)
from .instrument import counters

# A blade is a bitmask of generator indices.
Blade = int

_SIGN_RE = re.compile(r"([+-])")
# the shape of a generator name, which tells a generator outside the
# algebra from any other stray token; ASCII digits only, as in
# dyadic._COEFF_RE
_GENERATOR_RE = re.compile(r"g([1-9]\d*)", re.ASCII)

# mv_mul's kernel rule, in pair-loop multiply-adds per lane (_walk_width)
_WALK = 6
# the fewest generators at which the walk's lanes take the fewest whole
# bytes, not the next native size (_walk_lane): below it the byte codec
# costs more than the narrower multiply-adds save
_WHOLE_BYTES_N = 6

# most generators block and interleaved build: one tuple entry each, and
# verify --level full builds no more than 32
MAX_N = 4096


def _check_n(n: int) -> None:
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}, got {n}")


class MetricError(ValueError):
    """Operands do not live in the same algebra."""


class ParseError(ValueError):
    """Malformed multivector text."""


@dataclass(frozen=True)
class Metric:
    """Diagonal metric: the square (+1 or -1) of each generator, kept as
    a tuple whatever sequence gives them, so Metric([1, -1]) equals and
    hashes as Metric((1, -1)).  A set or a mapping gives no order of the
    generators and is refused.  block and interleaved return one cached
    instance per signature; == compares any two metrics."""

    squares: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "squares", _converted(
            _ordered, self.squares, "squares", "a sequence of ints"))
        # type(s) is int: 1.0 and True equal 1, but are no squares
        if not set(map(type, self.squares)) <= {int}:
            bad = next(s for s in self.squares if type(s) is not int)
            raise TypeError(f"generator squares must be ints, got {bad!r}")
        if not set(self.squares) <= {1, -1}:
            raise ValueError("generator squares must be +1 or -1")

    @classmethod
    def block(cls, k: int, l: int) -> "Metric":
        """First k generators square to +1, the remaining l to -1."""
        if type(k) is not int or type(l) is not int:
            raise TypeError(f"k and l must be ints, got {k!r}, {l!r}")
        if k < 0 or l < 0:
            raise ValueError("k and l must be non-negative")
        _check_n(k + l)
        return _named(cls, k, l, False)

    @classmethod
    def interleaved(cls, m: int) -> "Metric":
        """Neutral layout: odd positions square to +1, even positions to -1."""
        if type(m) is not int:
            raise TypeError(f"m must be an int, got {m!r}")
        if m < 0:
            raise ValueError("m must be non-negative")
        _check_n(2 * m)
        return _named(cls, m, m, True)

    @property
    def n(self) -> int:
        return len(self.squares)

    @property
    def k(self) -> int:
        return sum(1 for s in self.squares if s > 0)

    @property
    def l(self) -> int:
        return sum(1 for s in self.squares if s < 0)

    @property
    def nu(self) -> int:
        return self.k - self.l

    @cached_property
    def neg(self) -> int:
        """Mask of the generators squaring to -1."""
        return sum(1 << i for i, s in enumerate(self.squares) if s < 0)


def _ordered(squares) -> tuple:
    """tuple(squares), or a TypeError for a set or a mapping, which give
    no order of the generators."""
    if isinstance(squares, (Set, Mapping)):
        raise TypeError("unordered squares")
    return tuple(squares)


# one instance per signature and layout, built and checked once, so that
# the requests of one algebra share its metric and its neg; the bound
# keeps a few signatures of at most MAX_N squares each
@lru_cache(maxsize=16)
def _named(cls, k: int, l: int, interleaved: bool) -> Metric:
    """block(k, l), or interleaved(k) when interleaved is set, its
    arguments already checked."""
    return cls((1, -1) * k if interleaved else (1,) * k + (-1,) * l)


def _check_metric(metric) -> None:
    if not isinstance(metric, Metric):
        raise TypeError(f"metric must be a Metric, got {type(metric).__name__}")


def blade_product(a: Blade, b: Blade, metric: Metric) -> tuple[int, Blade]:
    """Product of two basis blades as (sign, result mask).

    The result mask is a XOR b.  The sign is (-1)^popcount(b & R(a)),
    with R(a) = parity_above(a) ^ (a & metric.neg): bit j of b crosses
    the generators of a above j, and contracts against g_j if a has it.
    """
    n = metric.n
    if a < 0 or b < 0 or a >> n or b >> n:
        raise MetricError(f"blade out of range for n={n}")
    row = parity_above(a) ^ (a & metric.neg)
    return (-1 if (b & row).bit_count() & 1 else 1), a ^ b


class Multivector(_Numerators):
    """Finitely supported map from blades to dyadic coefficients.

    Stored as plain-int numerators over one shared denominator 2^_e:
    _nums[mask] / 2^_e is the coefficient of the blade.  _vec, when the
    value holds at least 3/8 of the 2^n blades (_listed), is the list of
    all 2^n numerators in mask order, zeros included, and _nums is built
    from it on first read and kept in _map; otherwise _vec is None and
    _map is the dict of the nonzero numerators.  _nnz counts them.  The
    form is canonical: no dict numerator is zero, the value picks the
    storage, and _e is 0 or some numerator is odd, so equality compares
    (metric, _e, the list or the dict); _bits, a bound on the bit length
    of every numerator or None, plays no part in it.  terms
    and coefficient() give reduced DyadicRationals.  Coefficients are
    int or DyadicRational, and such a scalar lifts to the grade-0 blade
    in +, - and ==.  The operators that read no storage come from
    dyadic._Numerators.  Treated as immutable; all arithmetic returns
    new instances.
    """

    __slots__ = ("metric", "_e", "_vec", "_map", "_nnz")

    def __init__(self, metric: Metric, terms=None):
        _check_metric(metric)
        terms = _converted(dict, () if terms is None else terms, "terms",
                           "a mapping")
        n = metric.n
        for mask in terms:
            if type(mask) is not int:  # a bool is an int, but no blade
                raise TypeError(f"blade masks must be ints, got {mask!r}")
            if mask < 0 or mask >> n:
                raise MetricError(f"blade {mask:#x} out of range for n={n}")
        nums, e = _scale_in(terms.values())
        nums, nnz, e = _canonical(dict(zip(terms, nums)), e, n)
        self.metric, self._nnz, self._e, self._bits = metric, nnz, e, None
        self._vec, self._map = ((nums, None) if type(nums) is list
                                else (None, nums))

    @classmethod
    def _raw(cls, metric: Metric, nums, e: int,
             bits: int | None = None) -> "Multivector":
        """Adopt integer numerators over 2^e, a dict of masks or a list of
        2^n in mask order, in canonical form and in the form _listed
        picks.  Takes ownership of nums: the caller hands in a dict or a
        list it no longer uses.  bits, when given, bounds the bit length
        of every numerator, and the canonical shift lowers it."""
        nums, nnz, low = _canonical(nums, e, metric.n)
        return cls._adopt(metric, nums, nnz, low,
                          None if bits is None else max(bits - e + low, 0))

    @classmethod
    def _adopt(cls, metric: Metric, nums, nnz: int, e: int,
               bits: int | None = None) -> "Multivector":
        """_raw of numerators already in canonical form and in the form
        _listed picks for their nonzero count nnz, bits already lowered: a
        list is kept as _vec, a dict as _map."""
        mv = object.__new__(cls)
        mv.metric, mv._nnz, mv._e, mv._bits = metric, nnz, e, bits
        mv._vec, mv._map = (nums, None) if type(nums) is list else (None, nums)
        return mv

    @property
    def _nums(self) -> dict:
        """The nonzero numerators by mask: the dict form's dict, or one
        built from the list on first read, in mask order, and kept."""
        nums = self._map
        if nums is None:
            nums = self._map = dict(_items(self))
        return nums

    def _rows(self) -> list:
        vec = self._vec
        return [self._map.values() if vec is None else vec]

    @classmethod
    def zero(cls, metric: Metric) -> "Multivector":
        return cls._raw(metric, {}, 0)

    @classmethod
    def scalar(cls, metric: Metric, value) -> "Multivector":
        return cls(metric, {0: value})

    @classmethod
    def from_blade(cls, metric: Metric, mask: Blade, coeff=1) -> "Multivector":
        return cls(metric, {mask: coeff})

    @classmethod
    def generator(cls, metric: Metric, i: int) -> "Multivector":
        """The generator g_i, 1-indexed."""
        if type(i) is not int:
            raise TypeError(f"generator index must be an int, got {i!r}")
        if not 1 <= i <= metric.n:
            raise ValueError(f"generator index {i} outside 1..{metric.n}")
        return cls._raw(metric, {1 << (i - 1): 1}, 0)

    @property
    def terms(self):
        return MappingProxyType({mask: _reduced(n, self._e)
                                 for mask, n in self._nums.items()})

    def coefficient(self, mask: Blade) -> DyadicRational:
        return _reduced(self._nums.get(mask, 0), self._e)

    def _like(self, other):
        if isinstance(other, Multivector):
            return other
        pair = _pair(other)  # a scalar lifts to the grade-0 blade
        return None if pair is None else Multivector._raw(
            self.metric, {0: pair[0]}, pair[1])

    def _key(self):
        vec = self._vec
        return self.metric, self._e, self._map if vec is None else vec

    def _scaled(self, numerator: int, exponent: int) -> "Multivector":
        vec = self._vec
        return Multivector._raw(
            self.metric,
            {mask: n * numerator for mask, n in self._map.items()}
            if vec is None else list(map(mul, vec, repeat(numerator))),
            self._e + exponent, self._scaled_bits(numerator))

    def _product(self, other):
        return mv_mul(self, other)

    def __add__(self, other):
        other = self._like(other)
        if other is None:
            return NotImplemented
        if other.metric != self.metric:
            raise MetricError("operands over different metrics")
        e = max(self._e, other._e)
        # a list form first, if there is one
        a, b = (self, other) if other._vec is None else (other, self)
        sa, sb = e - a._e, e - b._e
        if a._vec is None:  # two dicts, in the order of self
            acc = {mask: n << sa for mask, n in a._map.items()}
            for mask, n in b._map.items():
                acc[mask] = acc.get(mask, 0) + (n << sb)
            return Multivector._raw(self.metric, acc, e)
        xs = map(lshift, a._vec, repeat(sa)) if sa else a._vec
        if b._vec is not None:
            acc = list(map(add, xs, map(lshift, b._vec, repeat(sb))
                           if sb else b._vec))
        else:
            acc = list(xs)
            for mask, n in b._map.items():
                acc[mask] += n << sb
        return Multivector._raw(self.metric, acc, e)

    __radd__ = __add__

    def __rsub__(self, other):
        other = self._like(other)
        if other is None:
            return NotImplemented
        return other + -self

    def grade_involution(self) -> "Multivector":
        return grade_involution(self)

    def __str__(self):
        vec, top = self._vec, self._e
        if not self._nnz:
            return "0"
        if vec is None:
            nums = self._map
            masks = sorted(sorted(nums), key=int.bit_count)
            terms = zip(map(_generator_names, masks),
                        map(nums.__getitem__, masks))
        else:  # the grade order of all 2^n masks, skipping the zeros
            masks, names, _ = _grade_order(self.metric.n)
            values = list(map(vec.__getitem__, masks))
            terms = zip(compress(names, values), compress(values, values))
        parts = []
        for gens, num in terms:
            mag = _text(abs(num), top)  # each term in lowest terms
            body = (gens if mag == "1" else f"{mag} {gens}") if gens else mag
            parts.append(f"- {body}" if num < 0 else f"+ {body}")
        text = " ".join(parts)  # the first term takes its sign unspaced
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self):
        return f"<Multivector n={self.metric.n}: {self}>"

    @classmethod
    def parse(cls, text: str, metric: Metric) -> "Multivector":
        """Parse text like '1/2 g1 g2 - 3 g4'.

        Terms are separated by + or -; a term is an optional dyadic
        coefficient followed by generator names g1..gn in any order
        (repeated or out-of-order generators are canonicalized with the
        proper sign).  One term reader, _terms, reads the text as str
        writes it, split once at ' + ' and ' - ' with its words one space
        apart.  Only if that read raises ParseError is the text split at
        every sign, the words of each term put one space apart, and read
        again; that second read's error is the one raised.
        """
        if not isinstance(text, str):
            raise TypeError(f"text must be a str, got {type(text).__name__}")
        _check_metric(metric)
        s = text.strip()
        if not s:
            raise ParseError("empty multivector text")
        # a '-' after ' + ' would read as a ' - ', and two spaces run
        # together leave a word empty
        if " + -" not in s and "  " not in s:
            try:
                return cls._adopt(metric, *_terms(
                    s.replace(" - ", " + -").split(" + "), metric))
            except ParseError:
                pass
        if s[0] not in "+-":
            s = "+ " + s
        # s opens with a sign, so the first chunk is empty
        it = iter(_SIGN_RE.split(s)[1:])
        bodies = []
        for sign, body in zip(it, it):
            body = body.strip()
            # the reader takes words one space apart: rejoin them only
            # where two spaces, or a tab or other space, part them
            if "  " in body or not body.isprintable():
                body = " ".join(body.split())
            bodies.append(body if sign == "+" else "-" + body)
        return cls._adopt(metric, *_terms(bodies, metric))


def _names(n: int) -> dict:
    """_name_bits(n), or for a metric built past MAX_N a table of its
    own, so the cache keeps only tables of n <= MAX_N."""
    return (_name_bits if n <= MAX_N else _name_bits.__wrapped__)(n)


def _terms(bodies: list, metric: Metric) -> tuple:
    """(numerators, nonzero count, exponent) of the terms in bodies, in
    canonical form and in the form _listed picks: parse's term reader.

    A body is one term as str writes it: '-' first when it is negative,
    then its words one space apart.  The first word is the coefficient,
    read by dyadic._parse, unless it is a generator name or shaped like
    one, and every later word must be a name of _names(n).  A name above
    every factor read so far joins the mask by OR; any other calls
    blade_product.  Bodies of at least the list share of terms take each
    run of names by one lookup in the table kept with _grade_order(n),
    read name by name only when the table lacks it.  Terms with distinct
    masks and nonzero numerators, some odd over the largest exponent,
    are canonical as read and are adopted; any others are summed by
    mask and put in canonical form.  Any other body raises ParseError:
    an empty one (a sign without a term), a bad coefficient, a word that
    is no name, or a coefficient that dyadic._parse reads only past a
    sign or a space, which the split at ' + ' and ' - ' alone leaves.
    """
    n = metric.n
    names = _names(n)
    listed = _listed(len(bodies), n)
    table = _grade_order(n)[2] if listed else None
    masks, nums, exps = [], [], []
    for body in bodies:
        c, _, run = body.partition(" ")
        negative = c[:1] == "-"
        if negative:
            c = c[1:]
        if c[:1].isdigit():
            try:
                num, e = _parse(c)
            except ValueError as exc:
                raise ParseError(str(exc)) from None
        elif c in names or _GENERATOR_RE.fullmatch(c):
            num, e, run = 1, 0, body[negative:]
        else:
            if not c:
                raise ParseError("sign without a term")
            try:
                _parse(c)
            except ValueError as exc:
                raise ParseError(str(exc)) from None
            # read only past a sign or a space the first split left in it
            raise ParseError(f"unexpected token {_clip(c)!r}")
        mask = None if table is None else table.get(run)
        if mask is None:
            mask = 0
            if run:
                try:
                    for name in run.split(" "):
                        bit = names[name]
                        if bit > mask:  # above every factor so far: no sign
                            mask |= bit
                        else:
                            sign, mask = blade_product(mask, bit, metric)
                            negative ^= sign < 0
                except KeyError:
                    raise ParseError(
                        f"generator {_clip(name)} outside an algebra with "
                        f"n={n}" if _GENERATOR_RE.fullmatch(name) else
                        f"unexpected token {_clip(name)!r}") from None
        masks.append(mask)
        nums.append(-num if negative else num)
        exps.append(e)
    top = max(exps)
    if exps.count(top) < len(exps):
        nums = [v << (top - e) for v, e in zip(nums, exps)]
    count = len(nums)
    # no zero, and some numerator odd over the largest exponent
    if 0 not in nums and not _common_shift(nums, top):
        if listed:
            acc = [0] * (1 << n)
            for mask, v in zip(masks, nums):
                acc[mask] = v
            # a mask written twice leaves one more zero
            if acc.count(0) + count == len(acc):
                return acc, count, top
        else:
            acc = dict(zip(masks, nums))
            if len(acc) == count:
                return acc, count, top
    acc = {}
    for mask, v in zip(masks, nums):
        acc[mask] = acc.get(mask, 0) + v
    return _canonical(acc, top, n)


@lru_cache(maxsize=8)
def _name_bits(n: int) -> dict:
    """{'g1': 1, 'g2': 2, 'g3': 4, ...}: each generator name of an
    algebra with n generators to its bit, kept for a few n <= MAX_N."""
    return {f"g{i + 1}": 1 << i for i in range(n)}


@lru_cache(maxsize=8)
def _grade_order(n: int) -> tuple:
    """The 2^n masks by grade, then by mask, the order str writes terms
    in, their generator names, and the table from each run of names back
    to its mask that parse's term reader reads: read by list forms and by
    texts that parse to them alone, so built only for an n that holds
    one, and kept for a few n."""
    masks = sorted(range(1 << n), key=int.bit_count)
    names = [_generator_names(mask) for mask in masks]
    return masks, names, dict(zip(names, masks))


@cache
def _byte_names(p: int) -> list:
    """_byte_names(p)[b]: the names of the generators whose bits in byte
    p of a mask form b, lowest first, built when p is first used."""
    names = [f"g{8 * p + j + 1}" for j in range(8)]
    return [" ".join(name for j, name in enumerate(names) if b >> j & 1)
            for b in range(256)]


def _generator_names(mask: Blade) -> str:
    """'g1 g3 g9' for the set bits of mask, lowest first, one table
    lookup per nonzero byte."""
    if mask < 256:
        return _byte_names(0)[mask]
    if mask < 65536:  # two bytes, as every metric of mul has
        low, high = _byte_names(0)[mask & 0xFF], _byte_names(1)[mask >> 8]
        return f"{low} {high}" if low else high
    parts = []
    while mask:
        p = ((mask & -mask).bit_length() - 1) >> 3
        b = mask >> 8 * p & 0xFF
        parts.append(_byte_names(p)[b])
        mask ^= b << 8 * p
    return " ".join(parts)


def _listed(nnz: int, n: int) -> bool:
    """The storage rule: whether nnz nonzero numerators of n generators
    take the list form, one list in mask order, which they do when they
    hold at least 3/8 of the 2^n blades, compared in integers, exact for
    every n."""
    return nnz << 3 >= 3 << n


def _canonical(nums, e: int, n: int) -> tuple:
    """(nums, nnz, e) for numerators over 2^e, a dict of masks or a list of
    2^n in mask order: nnz of them nonzero, stored in the form _listed
    picks, the zeros dropped from a dict, and e lowered while every
    numerator is even: the one form equal multivectors share."""
    if type(nums) is list:
        nnz = len(nums) - nums.count(0)
        if not (listed := _listed(nnz, n)):
            nums = dict(zip(compress(range(len(nums)), nums),
                            compress(nums, nums)))
    else:
        if not all(nums.values()):
            nums = {mask: v for mask, v in nums.items() if v}
        if listed := _listed(nnz := len(nums), n):
            nums = list(map(nums.get, range(1 << n), repeat(0)))
    shift = _common_shift(nums if listed else nums.values(), e)
    if shift:
        nums = (list(map(rshift, nums, repeat(shift))) if listed else
                {mask: v >> shift for mask, v in nums.items()})
    return nums, nnz, e - shift


def _items(x: "Multivector"):
    """The (mask, numerator) pairs of the nonzero numerators of x: the
    dict's items, or the list's nonzeros in mask order, no dict built."""
    vec = x._vec
    if vec is None:
        return x._map.items()
    return zip(compress(range(len(vec)), vec), compress(vec, vec))


def _vector(x: "Multivector") -> list:
    """The numerators of x as one list of 2^n in mask order, zeros
    included: a list form's own list, else one built from the dict."""
    vec = x._vec
    return vec if vec is not None else list(
        map(x._map.get, range(1 << x.metric.n), repeat(0)))


def mv_mul(x: Multivector, y: Multivector) -> Multivector:
    """Exact product; the blade-pair count goes to the op counters.

    Both kernels sum integer numerators over 2^(ex + ey) and agree term
    for term; _walk_width picks one from the operands alone.  The pair
    loop, which runs sparse operands, is the oracle of the Gray-code
    walk, which runs dense ones.  The pair count, nnz(x) * nnz(y), is
    16^m on dense operands over Cl(m, m) whichever kernel runs.
    """
    if not isinstance(x, Multivector) or not isinstance(y, Multivector):
        raise TypeError("mv_mul needs two Multivector operands")
    if x.metric is not y.metric and x.metric != y.metric:
        raise MetricError("operands over different metrics")
    width = _walk_width(x, y)
    acc = _gray_walk(x, y, width) if width else _pair_loop(x, y)
    counters.blade_pairs += x._nnz * y._nnz
    # a term sums at most 2^n products of a numerator of x and one of y
    bits = (None if x._bits is None or y._bits is None
            else x._bits + y._bits + x.metric.n)
    return Multivector._raw(x.metric, acc, x._e + y._e, bits)


def _pair_loop(x: Multivector, y: Multivector) -> dict:
    """Product numerators by one interpreted multiply-add per blade pair,
    each signed by blade_product's row."""
    neg = x.metric.neg
    yitems = list(_items(y))
    acc: dict[int, int] = {}
    get = acc.get
    for amask, acoef in _items(x):
        row = parity_above(amask) ^ (amask & neg)  # blade_product's sign row
        for bmask, bcoef in yitems:
            key = amask ^ bmask
            if (bmask & row).bit_count() & 1:
                acc[key] = get(key, 0) - acoef * bcoef
            else:
                acc[key] = get(key, 0) + acoef * bcoef
    return acc


def _walk_width(x: Multivector, y: Multivector) -> int:
    """The Gray-code walk's lane width when it is the faster kernel, else
    0, by bits._kernel_width.

    Costs are counted in the pair loop's multiply-adds, nnz(x) * nnz(y).
    The walk's steps, folds and lane codec cost about _WALK per lane of
    its 2^n-lane int of W-bit lanes, and each blade of x adds one
    multiply-add of that int, worth W / 2048 per lane.  The constants
    were fitted to a timing grid over n = 2..11, balanced and lopsided
    operands and W = 8..616 bits, recorded in ROADMAP.md.  The width
    is _walk_lanes', asked only when the walk may win, so an operand
    whose producer set _bits is not scanned.
    """
    n, xs = x.metric.n, x._nnz
    return _kernel_width(xs * y._nnz, _WALK << n, xs << n,
                         partial(_walk_lanes, x, y))


def _walk_lanes(x: Multivector, y: Multivector) -> int:
    """The walk's lane width for x * y: _walk_lane's for n + 1 + the
    operands' _bound()s, the signed bits every lane of its sums needs."""
    n = x.metric.n
    return _walk_lane(n, n + 1 + x._bound() + y._bound())


def _walk_lane(n: int, need: int) -> int:
    """The walk's lane width for need signed bits over n generators: from
    n = _WHOLE_BYTES_N on the fewest whole bytes, below it bits._width.

    The walk multiplies its 2^n-lane int once per blade of x and packs
    and unpacks it once, so a lane cut to whole bytes saves more than
    the byte codec costs (bits._narrow, bits._widen), once 2^n lanes
    outweigh that codec's fixed cost.  Past a word both are whole bytes.
    """
    return (need + 7) & -8 if n >= _WHOLE_BYTES_N else _width(need)


def _block(n: int) -> int:
    """j, the low generators whose blades the walk holds apart and folds
    by Horner's rule: at most 4, so at most 16 accumulators."""
    return min(n >> 1, 4)


# _walk_masks keeps the masks of a few (n, neg, lane size) keys, and only
# while one mask spans at most this many bytes (n = 11 at 8-byte lanes)
_MASK_SPAN = 1 << 14


@lru_cache(maxsize=8)
def _walk_masks(n: int, neg: int, size: int) -> tuple:
    """The masks of a walk over n generators with size-byte lanes, per
    bit k: the lanes with bit k clear as all-ones lanes (keep), the
    lanes to negate as a 1 in each (low) and as all-ones (flip) and the
    row r_k; and T."""
    width = size << 3
    rows = tuple(parity_above(1 << k) ^ (neg & 1 << k) for k in range(n))
    # the walk caches its masks itself, within _MASK_SPAN
    keep = _keeps.__wrapped__(size, n)
    low = tuple(_lane_pattern(0, 1, r, n, size) for r in rows)
    flip = tuple((b << width) - b for b in low)
    return keep, low, flip, rows, _halves(size, 1 << n)


def _gray_walk(x: Multivector, y: Multivector, width: int) -> list:
    """Product numerators by a Gray-code walk over the high bits of the
    blades of x, the low j = _block(n) bits folded by Horner's rule.

    Split a blade of x as l | h, l its low j bits.  Every generator of
    l comes before every generator of h, so e_(l|h) = e_l e_h with no
    sign, and x * y = sum_l e_l A_l with A_l = sum_h x[l | h] (e_h y).
    y is packed into one int, lane c holding, up to one overall sign,
    the term that blade h sends to c: y[c ^ h] * (-1)^popcount((c ^ h)
    & R(h)), R being blade_product's row.  The walk keeps it as S + T,
    T = bits._halves, so each lane holds its value plus 2^(width - 1)
    and bitwise masks act on the lanes one by one.  Step h
    to h ^ e_k, k >= j, j plus the lowest set bit of the step count:
    the 2^k-lane blocks swap, the lanes c with popcount(c & r_k) odd
    are negated, r_k = R(e_k), and the whole int flips sign when
    popcount(h & r_k) is odd for the new h, a sign tracked as one bit.
    R is GF(2)-linear, so these signs compose to blade_product's.  The
    packed int less T, negated when the sign bit is set, is e_h y, and
    x[l | h] times it joins A_l.

    The same step applied to S + T, less T, is (-1)^neg_k e_k S for a
    signed sum S, so Horner's rule takes sum_l e_l A_l in 2^j - 1
    steps, highest bit first: A_i += e_k A_(i + 2^k), k = j - 1 .. 0.
    Every lane of every partial sum adds at most 2^n distinct terms of
    the product, so _walk_lane's width for n + 1 + the operands' bit
    lengths holds it.
    """
    n, neg = x.metric.n, x.metric.neg
    size, count, j = width >> 3, 1 << n, _block(n)
    masks = _walk_masks if size << n <= _MASK_SPAN else _walk_masks.__wrapped__
    keep, low, flip, rows, halves = masks(n, neg, size)

    def step(v: int, k: int) -> int:  # swap 2^k-lane blocks, negate lanes
        v = _swap(v, size << 3 + k, keep[k])
        # r_0 is 0 when g1 squares to +1
        return (v ^ flip[k]) + low[k] if low[k] else v
    xs = _vector(x)
    signed, = _pack(_vector(y), size, count)
    v, block = signed + halves, 1 << j
    acc = [c * signed for c in xs[:block]]
    h = sign = 0
    for t in range(1, count >> j):
        k = j + (t & -t).bit_length() - 1
        h ^= 1 << k
        sign ^= (h & rows[k]).bit_count() & 1
        v = step(v, k)
        signed = halves - v if sign else v - halves
        for l, c in enumerate(xs[h:h + block]):
            if c:
                acc[l] += c * signed
    for k in reversed(range(j)):
        half = 1 << k
        for i in range(half):
            v = step(acc[i + half] + halves, k)
            acc[i] += halves - v if neg >> k & 1 else v - halves
    return _unpack(acc[:1], size, count)


def grade_involution(x: Multivector) -> Multivector:
    """Flip the sign of every odd-grade coefficient."""
    vec = x._vec
    return Multivector._raw(
        x.metric,
        {m: (-n if m.bit_count() & 1 else n) for m, n in x._map.items()}
        if vec is None else
        [-n if m.bit_count() & 1 else n for m, n in enumerate(vec)],
        x._e)


def volume_element(metric: Metric) -> Blade:
    """The product of all generators in index order, as a mask."""
    return (1 << metric.n) - 1

