"""Exact brute-force Clifford algebra over a diagonal metric.

This is the ground-truth layer.  Blades are bitmasks (bit i set means
generator g{i+1} is a factor, factors ordered by increasing index),
multivectors map blades to integer numerators over one shared 2^e, and
every product sign is the GF(2) bilinear form of blade_product.
Multivector.parse reads the text str writes in one pass (_one_pass):
it splits the terms once, reads each coefficient with dyadic's one
reader into a numerator and an exponent, and takes each term's mask by
strictly ascending lookups in a per-n table of bits or, for a text of
at least the list share of terms, by one lookup of its whole run of
names in a table kept with _grade_order(n).  Such text is canonical as
written, so the pass scales the terms once to the largest exponent and
adopts them.  Any other text goes to the term loop (_term_loop), the
general reader and the pass's oracle: a term's coefficient can only be
its first token, every later token is a name, and a generator above
every factor read so far joins the mask by OR, with no sign; only an
out-of-order one calls blade_product.  It scales the terms once and
sums them into the canonical form.  str writes each term with dyadic's
one writer.
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
numerators that the dyadic module describes, and _walk_width and efb's
conversions read it through _bound().
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
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
    hashes as Metric((1, -1))."""

    squares: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "squares", _converted(
            tuple, self.squares, "squares", "a sequence of ints"))
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
        return cls((1,) * k + (-1,) * l)

    @classmethod
    def interleaved(cls, m: int) -> "Metric":
        """Neutral layout: odd positions square to +1, even positions to -1."""
        if type(m) is not int:
            raise TypeError(f"m must be an int, got {m!r}")
        if m < 0:
            raise ValueError("m must be non-negative")
        _check_n(2 * m)
        return cls((1, -1) * m)

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
        proper sign).  The text str writes is read in one pass
        (_one_pass); any other text by the term loop (_term_loop), which
        alone raises ParseError.
        """
        if not isinstance(text, str):
            raise TypeError(f"text must be a str, got {type(text).__name__}")
        _check_metric(metric)
        read = _one_pass(text, metric.n)
        if read is None:
            return cls._raw(metric, *_term_loop(text, metric))
        return cls._adopt(metric, *read)


def _names(n: int) -> dict:
    """_name_bits(n), or for a metric built past MAX_N a table of its
    own, so the cache keeps only tables of n <= MAX_N."""
    return (_name_bits if n <= MAX_N else _name_bits.__wrapped__)(n)


def _one_pass(text: str, n: int):
    """(numerators, nonzero count, exponent) of text in the form str
    writes, the numerators in canonical form and in the form _listed
    picks, or None for any other text, which the term loop then reads.

    That form is terms joined by ' + ' and ' - ', the first sign
    unspaced and written only when '-'.  A term is a nonzero coefficient,
    a run of names, or both, one space apart; a coefficient starts with
    a digit and is read by dyadic._parse, and a run is strictly
    ascending names one space apart.  No mask is written twice, and as
    str writes each coefficient in lowest terms, some numerator over the
    largest exponent is odd, so the numerators are canonical as they
    are.  A text of at least the list share of terms (_listed) parses to
    a list form, whose str builds _grade_order(n) anyway, so it takes
    each mask by one lookup of the whole run in the table kept there; a
    shorter text takes it by one lookup in _names(n) per name.  Whatever
    the pass accepts, the term loop reads to the same value.
    """
    s = text.strip()
    # a '-' after ' + ' would read as a ' - ', and two spaces run
    # together leave a name or a coefficient empty
    if " + -" in s or "  " in s:
        return None
    bodies = s.replace(" - ", " + -").split(" + ")
    listed = _listed(len(bodies), n)
    names = None if listed else _names(n)
    # per term: its run of names (below the share its mask), its
    # signed numerator and its exponent
    runs, nums, exps = [], [], []
    for body in bodies:
        c, _, run = body.partition(" ")
        negative = c[:1] == "-"
        if negative:
            c = c[1:]
        head = c[:1]
        if head.isdigit():
            try:
                num, e = _parse(c)
            except ValueError:
                return None
        elif head == "g":  # no coefficient
            num, e, run = 1, 0, body[negative:]
        else:
            return None
        if names is not None:
            mask = 0
            if run:
                try:
                    for name in run.split(" "):
                        bit = names[name]
                        if bit <= mask:  # out of order, or repeated
                            return None
                        mask |= bit
                except KeyError:  # no name of this algebra
                    return None
            run = mask
        runs.append(run)
        nums.append(-num if negative else num)
        exps.append(e)
    top = max(exps)
    if exps.count(top) < len(exps):
        nums = [v << (top - e) for v, e in zip(nums, exps)]
    # a zero, or numerators that are all even over the largest exponent
    if 0 in nums or _common_shift(nums, top):
        return None
    if listed:
        acc = [0] * (1 << n)
        for mask, v in zip(map(_grade_order(n)[2].get, runs), nums):
            if mask is None:
                return None
            acc[mask] = v
        # every numerator is nonzero, so a mask written twice leaves one
        # more zero
        if acc.count(0) + len(runs) > len(acc):
            return None
    else:
        acc = dict(zip(runs, nums))
        if len(acc) < len(runs):
            return None
    return acc, len(runs), top


def _term_loop(text: str, metric: Metric) -> tuple:
    """(numerators by mask, exponent) of any text, token by token: the
    general reader, and the oracle of _one_pass.

    Each name is one lookup in _names(n); the first token of a term is
    its coefficient when it is neither a name nor shaped like one, and
    every later token must be a name.  A generator above every factor
    read so far joins the mask by OR; any other calls blade_product.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty multivector text")
    if s[0] not in "+-":
        s = "+ " + s
    # s opens with a sign, so the first chunk is empty
    it = iter(_SIGN_RE.split(s)[1:])
    n = metric.n
    names = _names(n)
    terms = []  # (mask, signed numerator, exponent) per term
    for sgn, body in zip(it, it):
        tokens = body.split()
        if not tokens:
            raise ParseError("sign without a term")
        sign = 1 if sgn == "+" else -1
        num, e, mask = 1, 0, 0
        if tokens[0] not in names and not _GENERATOR_RE.fullmatch(tokens[0]):
            try:
                num, e = _parse(tokens.pop(0))
            except ValueError as exc:
                raise ParseError(str(exc)) from None
        for tok in tokens:
            gen = names.get(tok)
            if gen is None:
                raise ParseError(
                    f"generator {_clip(tok)} outside an algebra with "
                    f"n={n}" if _GENERATOR_RE.fullmatch(tok) else
                    f"unexpected token {_clip(tok)!r}")
            if gen > mask:  # above every factor so far: no sign
                mask |= gen
            else:
                s2, mask = blade_product(mask, gen, metric)
                sign *= s2
        terms.append((mask, num if sign > 0 else -num, e))
    top = max(e for _, _, e in terms)
    acc: dict[int, int] = {}
    for mask, num, e in terms:
        acc[mask] = acc.get(mask, 0) + (num << (top - e))
    return acc, top


@lru_cache(maxsize=8)
def _name_bits(n: int) -> dict:
    """{'g1': 1, 'g2': 2, 'g3': 4, ...}: each generator name of an
    algebra with n generators to its bit, kept for a few n <= MAX_N."""
    return {f"g{i + 1}": 1 << i for i in range(n)}


@lru_cache(maxsize=8)
def _grade_order(n: int) -> tuple:
    """The 2^n masks by grade, then by mask, the order str writes terms
    in, their generator names, and the table from each run of names back
    to its mask that parse's one pass reads: read by list forms and by
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
    if x.metric != y.metric:
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
    is _walk_lane's for n + 1 + the operands' _bound()s, so an operand
    whose producer set _bits is not scanned.
    """
    n, xs = x.metric.n, x._nnz
    return _kernel_width(xs * y._nnz, _WALK << n, xs << n,
                         lambda: _walk_lane(n, n + 1 + x._bound()
                                            + y._bound()))


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


def omega_squared_oracle(metric: Metric) -> int:
    """Square of the volume element, straight from the blade product."""
    w = volume_element(metric)
    sign, rest = blade_product(w, w, metric)
    assert rest == 0
    return sign


def center_check(metric: Metric) -> bool:
    """Whether the volume element spans a nontrivial piece of the center.

    Checks the explicit commutators with every generator.  For n = 0
    the volume element is the scalar 1 and contributes nothing beyond
    the base field, so the answer is False.
    """
    n = metric.n
    if n == 0:
        return False
    w = volume_element(metric)
    for i in range(n):
        g = 1 << i
        if blade_product(w, g, metric) != blade_product(g, w, metric):
            return False
    return True


def tau_blade(k: int, l: int) -> Blade:
    """Mask of the dual-automorphism element in the block metric.

    The negative-square generators when k, l are both even; the
    positive-square generators when both are odd.
    """
    if k < 0 or l < 0:
        raise ValueError("k and l must be non-negative")
    if (k + l) & 1:
        raise ValueError("tau is undefined for odd n = k + l")
    if k & 1:
        return (1 << k) - 1
    return ((1 << l) - 1) << k


def tau_squared_oracle(k: int, l: int) -> int:
    metric = Metric.block(k, l)
    t = tau_blade(k, l)
    return blade_product(t, t, metric)[0]


def omega_tau_squared_oracle(k: int, l: int) -> int:
    metric = Metric.block(k, l)
    t = tau_blade(k, l)
    w = volume_element(metric)
    _, wt = blade_product(w, t, metric)
    # the +-1 prefactor of the combined blade squares away
    return blade_product(wt, wt, metric)[0]


def dual_automorphism_check(k: int, l: int) -> bool:
    """Verify t g_i t^-1 == g_i^-1 and (w t) g_i (w t)^-1 == -g_i^-1 for all i."""
    metric = Metric.block(k, l)
    t = tau_blade(k, l)
    t_sq = tau_squared_oracle(k, l)          # t^-1 = t^2 * t
    w = volume_element(metric)
    _, wt = blade_product(w, t, metric)
    wt_sq = omega_tau_squared_oracle(k, l)   # (w t)^-1 = (w t)^2 * (w t)
    for i in range(k + l):
        g = 1 << i
        g_inv_sign = metric.squares[i]       # g^-1 = (g^2) g
        s1, m1 = blade_product(t, g, metric)
        s2, m2 = blade_product(m1, t, metric)
        if (s1 * s2 * t_sq, m2) != (g_inv_sign, g):
            return False
        s3, m3 = blade_product(wt, g, metric)
        s4, m4 = blade_product(m3, wt, metric)
        if (s3 * s4 * wt_sq, m4) != (-g_inv_sign, g):
            return False
    return True
