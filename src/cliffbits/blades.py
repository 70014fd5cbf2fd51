"""Exact brute-force Clifford algebra over a diagonal metric.

This is the ground-truth layer.  Blades are bitmasks (bit i set means
generator g{i+1} is a factor, factors ordered by increasing index),
multivectors are sparse blade -> numerator maps over one shared 2^e,
and every product sign is the GF(2) bilinear form of blade_product.
Multivector.parse reads each coefficient with dyadic's one reader into
a numerator and an exponent, scales the terms once to the largest
exponent and adopts the sums, and str writes each term with dyadic's
one writer.  A generator above every factor read so far joins the mask
by OR, with no sign; only an out-of-order one calls blade_product, and
str writes generators in increasing order, so parse(str(x)) never does.
str joins the generator names of a mask from per-byte tables of 256
prebuilt strings, one table per byte position, built on first use.

mv_mul has two kernels with equal results and pair counts.  The pair
loop runs one interpreted multiply-add per blade pair; it takes sparse
operands, and verify and the tests call it as the oracle of the other.
The Gray-code walk packs y into one int of 2^n signed lanes (Kronecker
substitution, through the lane codec of the bits module).  It splits
a blade of x as l | h, l its low j = min(n // 2, 4) bits.  Every
generator of l comes before every generator of h, so e_(l|h) = e_l e_h
with no sign, and x y = sum_l e_l A_l, A_l = sum_h x[l | h] (e_h y).
The walk steps h through a Gray code over the high bits.  R is
GF(2)-linear, so flipping bit k of h swaps 2^k-lane blocks of the
packed int and negates the lanes c with popcount(c & R(e_k)) odd: a
few mask-and-shift operations on the whole int per step, and one
C-level multiply-add per blade of x into the 2^j accumulators A_l.
Horner's rule folds them with the same step, highest bit first:
A_i += e_k A_(i + 2^k).  The walk pays 2^(n - j) + 2^j - 1 steps over
all 2^n lanes, so it loses on sparse operands; _walk_width weighs
len(x) * len(y) against that cost, from the operands alone.  The
masks of a step are cached per (n, neg, lane size).
The fast engine is checked against this module, and this module
against the explicit transposition counting of the
blade-sign-vs-normal-order verify suite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import compress, repeat
from types import MappingProxyType

from .bits import (_ORDER, _halves, _lane_size, _lanes_in, _lanes_out,
                   _signed_bytes, parity_above, walsh_pattern)
from .dyadic import (DyadicRational, _Numerators, _clip, _common_shift,
                     _pair, _parse, _reduced, _scale_in, _text)
from .instrument import counters

# A blade is a bitmask of generator indices.
Blade = int

_SIGN_RE = re.compile(r"([+-])")
# ASCII digits only, as in dyadic._COEFF_RE
_GENERATOR_RE = re.compile(r"g([1-9]\d*)", re.ASCII)

# mv_mul's kernel rule, in pair-loop multiply-adds (see _walk_width)
_WALK, _WALK_SHIFT = 6, 11

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
    """Diagonal metric: the square (+1 or -1) of each generator."""

    squares: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.squares):
            raise ValueError("generator squares must be +1 or -1")

    @classmethod
    def block(cls, k: int, l: int) -> "Metric":
        """First k generators square to +1, the remaining l to -1."""
        if k < 0 or l < 0:
            raise ValueError("k and l must be non-negative")
        _check_n(k + l)
        return cls((1,) * k + (-1,) * l)

    @classmethod
    def interleaved(cls, m: int) -> "Metric":
        """Neutral layout: odd positions square to +1, even positions to -1."""
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
    _nums[mask] / 2^_e is the coefficient of the blade.  The form is
    canonical: no numerator is zero, and _e is 0 or some numerator is
    odd, so equality compares (metric, _e, _nums).  terms and
    coefficient() give reduced DyadicRationals.  Coefficients are int or
    DyadicRational, and such a scalar lifts to the grade-0 blade in +, -
    and ==.  The operators that read no storage come from
    dyadic._Numerators.  Treated as immutable; all arithmetic returns
    new instances.
    """

    __slots__ = ("metric", "_e", "_nums")

    def __init__(self, metric: Metric, terms=None):
        terms = dict(terms) if terms else {}
        n = metric.n
        for mask in terms:
            if mask < 0 or mask >> n:
                raise MetricError(f"blade {mask:#x} out of range for n={n}")
        nums, e = _scale_in(terms.values())
        self.metric = metric
        self._nums, self._e = _canonical(dict(zip(terms, nums)), e)

    @classmethod
    def _raw(cls, metric: Metric, nums: dict, e: int) -> "Multivector":
        """Adopt integer numerators over 2^e, in canonical form.  Takes
        ownership of nums: the caller hands in a dict it no longer uses."""
        mv = object.__new__(cls)
        mv.metric = metric
        mv._nums, mv._e = _canonical(nums, e)
        return mv

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
        return self.metric, self._e, self._nums

    def _scaled(self, numerator: int, exponent: int) -> "Multivector":
        return Multivector._raw(
            self.metric,
            {mask: n * numerator for mask, n in self._nums.items()},
            self._e + exponent)

    def _product(self, other):
        return mv_mul(self, other)

    def __add__(self, other):
        other = self._like(other)
        if other is None:
            return NotImplemented
        if other.metric != self.metric:
            raise MetricError("operands over different metrics")
        e = max(self._e, other._e)
        sx, sy = e - self._e, e - other._e
        acc = {mask: n << sx for mask, n in self._nums.items()}
        for mask, n in other._nums.items():
            acc[mask] = acc.get(mask, 0) + (n << sy)
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
        if not self._nums:
            return "0"
        parts = []
        nums, top = self._nums, self._e
        for mask in sorted(nums, key=lambda m: (m.bit_count(), m)):
            num = nums[mask]
            mag = _text(abs(num), top)  # each term in lowest terms
            if mask:
                gens = _generator_names(mask)
                body = gens if mag == "1" else f"{mag} {gens}"
            else:
                body = mag
            if not parts:
                parts.append(f"-{body}" if num < 0 else body)
            else:
                parts.append(f"- {body}" if num < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"<Multivector n={self.metric.n}: {self}>"

    @classmethod
    def parse(cls, text: str, metric: Metric) -> "Multivector":
        """Parse text like '1/2 g1 g2 - 3 g4'.

        Terms are separated by + or -; a term is an optional dyadic
        coefficient followed by generator names g1..gn in any order
        (repeated or out-of-order generators are canonicalized with the
        proper sign).
        """
        s = text.strip()
        if not s:
            raise ParseError("empty multivector text")
        if s[0] not in "+-":
            s = "+ " + s
        # s opens with a sign, so chunks[0] is empty
        chunks = _SIGN_RE.split(s)
        it = iter(chunks[1:])
        n = metric.n
        width = len(str(n))
        terms = []  # (mask, signed numerator, exponent) per term
        for sgn, body in zip(it, it):
            tokens = body.split()
            if not tokens:
                raise ParseError("sign without a term")
            sign = 1 if sgn == "+" else -1
            num, e = 1, 0
            coeff_seen = gens_seen = False
            mask = 0
            for tok in tokens:
                gm = _GENERATOR_RE.fullmatch(tok)
                if gm:
                    # an index with more digits than n is out of range
                    # without int() of it
                    digits = gm.group(1)
                    if len(digits) > width or (index := int(digits)) > n:
                        raise ParseError(f"generator {_clip(tok)} outside an "
                                         f"algebra with n={n}")
                    gen = 1 << (index - 1)
                    if gen > mask:  # above every factor so far: no sign
                        mask |= gen
                    else:
                        s2, mask = blade_product(mask, gen, metric)
                        sign *= s2
                    gens_seen = True
                    continue
                # a coefficient comes first: after a generator, even one
                # that contracted the mask back to 0, it is an error
                if coeff_seen or gens_seen:
                    raise ParseError(f"unexpected token {_clip(tok)!r}")
                try:
                    num, e = _parse(tok)
                except ValueError as exc:
                    raise ParseError(str(exc)) from None
                coeff_seen = True
            terms.append((mask, num if sign > 0 else -num, e))
        top = max(e for _, _, e in terms)
        acc: dict[int, int] = {}
        for mask, num, e in terms:
            acc[mask] = acc.get(mask, 0) + (num << (top - e))
        return cls._raw(metric, acc, top)


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
    parts = []
    while mask:
        p = ((mask & -mask).bit_length() - 1) >> 3
        b = mask >> 8 * p & 0xFF
        parts.append(_byte_names(p)[b])
        mask ^= b << 8 * p
    return " ".join(parts)


def _canonical(nums: dict, e: int) -> tuple[dict, int]:
    """(nums, e) with the zero numerators dropped and e lowered while
    every numerator is even: the one form equal multivectors share."""
    if not all(nums.values()):
        nums = {mask: n for mask, n in nums.items() if n}
    shift = _common_shift(nums.values(), e)
    if shift:
        nums = {mask: n >> shift for mask, n in nums.items()}
    return nums, e - shift


def mv_mul(x: Multivector, y: Multivector) -> Multivector:
    """Exact product; the blade-pair count goes to the op counters.

    Both kernels sum integer numerators over 2^(ex + ey) and agree term
    for term; _walk_width picks one from the operands alone.  The pair
    loop, which runs sparse operands, is the oracle of the Gray-code
    walk, which runs dense ones.  The pair count, len(x) * len(y), is
    16^m on dense operands over Cl(m, m) whichever kernel runs.
    """
    if x.metric != y.metric:
        raise MetricError("operands over different metrics")
    width = _walk_width(x, y)
    acc = _gray_walk(x, y, width) if width else _pair_loop(x, y)
    counters.blade_pairs += len(x._nums) * len(y._nums)
    return Multivector._raw(x.metric, acc, x._e + y._e)


def _pair_loop(x: Multivector, y: Multivector) -> dict:
    """Product numerators by one interpreted multiply-add per blade pair,
    each signed by blade_product's row."""
    neg = x.metric.neg
    yitems = list(y._nums.items())
    acc: dict[int, int] = {}
    get = acc.get
    for amask, acoef in x._nums.items():
        row = parity_above(amask) ^ (amask & neg)  # blade_product's sign row
        for bmask, bcoef in yitems:
            key = amask ^ bmask
            if (bmask & row).bit_count() & 1:
                acc[key] = get(key, 0) - acoef * bcoef
            else:
                acc[key] = get(key, 0) + acoef * bcoef
    return acc


def _walk_width(x: Multivector, y: Multivector) -> int:
    """The Gray-code walk's lane width when it is the faster kernel, else 0.

    Costs are counted in the pair loop's multiply-adds, len(x) * len(y).
    The walk's steps, folds and lane codec cost about _WALK per lane of
    its 2^n-lane int of W-bit lanes, and each blade of x adds one
    multiply-add of that int, worth one per 2^_WALK_SHIFT of its bits.
    The constants were fitted to a timing grid over n = 2..11, balanced
    and lopsided operands and W = 8..616 bits, recorded in ROADMAP.md.
    An operand pair that fails at the narrowest lane, 8 bits, skips the
    width scan.
    """
    xs, lanes = len(x._nums), 1 << x.metric.n
    pairs = xs * len(y._nums)

    def walk(width: int) -> int:
        return lanes * _WALK + (xs * lanes * width >> _WALK_SHIFT)
    if pairs < walk(8):
        return 0
    width = _lane_width(x, y)
    return width if pairs >= walk(width) else 0


def _lane_width(x: Multivector, y: Multivector) -> int:
    """Bits of the lane (bits._lane_size) that holds any term of x * y
    signed, |term| < 2^(bits(x) + bits(y) + n), bits being the bit
    length of the largest numerator magnitude."""
    need = x.metric.n + 1
    for nums in (x._nums.values(), y._nums.values()):
        need += max(max(nums, default=0), -min(nums, default=0)).bit_length()
    return _lane_size(need) << 3


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
    lanes to negate as a 1 in each (low) and as all-ones (flip), the row
    r_k and the block shift; and T."""
    width = size << 3
    zero, ones, one = bytes(size), b"\xff" * size, (1).to_bytes(size, _ORDER)
    rows = tuple(parity_above(1 << k) ^ (neg & 1 << k) for k in range(n))
    keep = tuple(int.from_bytes(walsh_pattern(ones, zero, 1 << k, n), _ORDER)
                 for k in range(n))
    low = tuple(int.from_bytes(walsh_pattern(zero, one, r, n), _ORDER)
                for r in rows)
    flip = tuple((b << width) - b for b in low)
    shifts = tuple(width << k for k in range(n))
    return keep, low, flip, rows, shifts, _halves(size, 1 << n)


def _gray_walk(x: Multivector, y: Multivector, width: int) -> dict:
    """Product numerators by a Gray-code walk over the high bits of the
    blades of x, the low j = _block(n) bits folded by Horner's rule.

    Split a blade of x as l | h, l its low j bits.  Every generator of
    l comes before every generator of h, so e_(l|h) = e_l e_h with no
    sign, and x * y = sum_l e_l A_l with A_l = sum_h x[l | h] (e_h y).
    y is packed into one int, lane c holding, up to one overall sign,
    the term that blade h sends to c: y[c ^ h] * (-1)^popcount((c ^ h)
    & R(h)), R being blade_product's row.  Lanes hold v + 2^(width - 1)
    for a signed v, so bitwise masks act on them lane by lane.  Step h
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
    the product, so the lane width of _lane_width holds it.  The lanes
    leave through bits._signed_bytes.
    """
    n, neg = x.metric.n, x.metric.neg
    size, count, j = width >> 3, 1 << n, _block(n)
    masks = _walk_masks if size << n <= _MASK_SPAN else _walk_masks.__wrapped__
    keep, low, flip, rows, shifts, halves = masks(n, neg, size)

    def step(v: int, k: int) -> int:  # swap 2^k-lane blocks, negate lanes
        s, mask = shifts[k], keep[k]
        v = (v & mask) << s | (v >> s) & mask
        # r_0 is 0 when g1 squares to +1
        return (v ^ flip[k]) + low[k] if low[k] else v
    xs = list(map(x._nums.get, range(count), repeat(0)))
    v = int.from_bytes(_lanes_in(map(y._nums.get, range(count), repeat(0)),
                                 size), _ORDER) ^ halves
    block = 1 << j
    signed = v - halves
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
    lanes = _lanes_out(_signed_bytes(acc[0], halves, size * count), size)
    return dict(zip(compress(range(count), lanes), compress(lanes, lanes)))


def grade_involution(x: Multivector) -> Multivector:
    """Flip the sign of every odd-grade coefficient."""
    return Multivector._raw(
        x.metric,
        {m: (-n if m.bit_count() & 1 else n) for m, n in x._nums.items()},
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
