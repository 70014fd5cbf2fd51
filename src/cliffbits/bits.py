"""Bit extraction and sign-valued bits.

A bit b in {0, 1} and a sign s in {+1, -1} are interchangeable through
s = 1 - 2*b.  The mod-8 periodicity formulas are all statements about
the three least significant bits of an integer, extracted here.  Every
product sign is a GF(2) bilinear form built on parity_above, and every
change-of-basis sign is a Walsh function applied by walsh_batch, one
transform over a whole batch of vectors (walsh_hadamard is one vector).
A vector with one nonzero transforms to one scaled Walsh function, which
walsh_function writes without a transform and walsh_index recognizes.
Every re-indexing of blade masks is XOR-linear, so xor_span tabulates
it from the images of the single bits.

Both packed product kernels, efb's rows and the blade engine's Gray-code
walk, lay signed integers end to end in one int as lanes of a fixed
number of bytes (Kronecker substitution).  One codec here moves them:
_lane_size picks the lane, _lanes_in and _lanes_out write and read the
two's-complement bytes, and with T = _halves(size, count), (U ^ T) - T
reads the int U of those bytes as the signed sum of its lanes and
_signed_bytes(S, T, span) writes such a sum S back.  The lanes of a
whole Walsh pattern, such as the lanes to negate or keep, are laid out
by walsh_pattern, the doubling that walsh_function runs.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import chain
from operator import add, sub

# A sign-valued bit: +1 or -1.
SignBit = int


def bit_to_sign(b: int) -> SignBit:
    """Map a {0, 1} bit to the sign 1 - 2*b."""
    if b not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {b!r}")
    return 1 - 2 * b


def sign_to_bit(s: SignBit) -> int:
    """Inverse of bit_to_sign."""
    if s not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {s!r}")
    return (1 - s) // 2


def bit(n: int, i: int) -> int:
    """The i-th binary digit of a non-negative integer."""
    if n < 0:
        raise ValueError("n must be non-negative; reduce mod 2^k first")
    if i < 0:
        raise ValueError("bit index must be non-negative")
    return (n >> i) & 1


def sign_bit(n: int, i: int) -> SignBit:
    """The i-th bit of n as a sign, equal to (-1) ** (n // 2**i)."""
    return 1 - 2 * bit(n, i)


def parity_above(x: int) -> int:
    """Mask whose bit j is the parity of the set bits of x strictly above j.

    A suffix XOR by doubling shifts: O(log bit_length) word operations.
    """
    if x < 0:
        raise ValueError("x must be non-negative")
    p = x >> 1
    shift = 1
    while p >> shift:
        p ^= p >> shift
        shift <<= 1
    return p


def xor_span(images) -> list:
    """Lookup of the GF(2)-linear map that sends bit k to images[k]:
    entry x is the XOR of images[k] over the set bits k of x.

    Each image doubles the table, so 2^len(images) XORs in all.
    """
    t = [0]
    for img in images:
        t += [v ^ img for v in t]
    return t


def walsh_batch(vectors, k: int) -> list:
    """The Walsh-Hadamard transform of each vector of length 2^k:
    out[c][a] = sum_i vectors[c][i] * (-1)^popcount(a & i).

    The vectors are laid end to end and transformed together in the
    constant-geometry form (Pease, 1968): k whole-list stages, each
    taking the even and odd positions to their sums and then their
    differences.  A stage moves the lowest index bit to the top, so
    after k of them entry a of vector c sits at a * len(vectors) + c.
    """
    flat = list(chain.from_iterable(vectors))
    count = len(flat) >> k
    if not count:
        return []
    for _ in range(k):
        even, odd = flat[0::2], flat[1::2]
        flat = [*map(add, even, odd), *map(sub, even, odd)]
    return [flat[c::count] for c in range(count)]


def walsh_pattern(even, odd, i: int, k: int):
    """2^k copies of even or odd laid end to end, odd at the places a
    with popcount(a & i) odd: lists or bytes alike.

    k doublings of the pattern and of its complement, taking the
    complement into the upper half where i has the bit: concatenation
    only.
    """
    for j in range(k):
        even, odd = (even + odd, odd + even) if i >> j & 1 else (
            even + even, odd + odd)
    return even


def walsh_function(c: int, i: int, k: int) -> list:
    """c times the Walsh function W_i: entry a is c * (-1)^popcount(a & i),
    for 0 <= a < 2^k.  Also the transform of c at index i alone."""
    return walsh_pattern([c], [-c], i, k)


def walsh_index(v: list, k: int) -> int:
    """The i with v == v[0] * W_i (see walsh_function), or -1 when v[0] is
    0 or v is no multiple of a Walsh function; len(v) = 2^k.

    Bit j of i is read from the sign of v[2^j] against v[0], so any
    other v is refused after O(k) entries, most after one or two.
    """
    c = v[0]
    if not c:
        return -1
    i = 0
    for j in range(k):
        x = v[1 << j]
        if x != c:
            if x != -c:
                return -1
            i |= 1 << j
    return i if v == walsh_function(c, i, k) else -1


def walsh_hadamard(v: list) -> None:
    """In place, v[a] <- sum_i v[i] * (-1)^popcount(a & i); len(v) = 2^k."""
    n = len(v)
    if not n or n & (n - 1):
        raise ValueError(f"length must be a power of 2, got {n}")
    v[:] = walsh_batch([v], n.bit_length() - 1)[0]


# signed array typecodes by lane size in bytes, 1, 2, 4 and 8, and the
# byte order arrays use
_ARRAY_TYPES = {array(t).itemsize: t for t in "bhiq"}
_ORDER = sys.byteorder


def _lane_size(bits: int) -> int:
    """Bytes of a signed lane that holds bits bits, sign included: 1, 2,
    4 or 8, the lanes an array holds, or past a word the fewest whole
    bytes."""
    size = (bits + 7) >> 3
    return 1 << (size - 1).bit_length() if size <= 8 else size


def _halves(size: int, count: int) -> int:
    """T, the int with 2^(8 * size - 1) in each of count size-byte lanes."""
    return int.from_bytes((1 << (8 * size - 1)).to_bytes(size, _ORDER)
                          * count, _ORDER)


def _signed_bytes(acc: int, halves: int, span: int) -> bytes:
    """The span bytes of the two's-complement lanes of acc, a signed sum
    of lanes times their place values, each lane of magnitude below
    half its range: the bytes of (acc + T) ^ T."""
    return ((acc + halves) ^ halves).to_bytes(span, _ORDER)


def _lanes_in(values, size: int) -> bytes:
    """values as size-byte two's-complement lanes laid end to end: one
    array call up to a word, one to_bytes per value past it."""
    if size in _ARRAY_TYPES:
        return array(_ARRAY_TYPES[size], values).tobytes()
    return b"".join(v.to_bytes(size, _ORDER, signed=True) for v in values)


def _lanes_out(data: bytes, size: int) -> list:
    """The signed values of the size-byte lanes of data."""
    if size in _ARRAY_TYPES:
        return memoryview(data).cast(_ARRAY_TYPES[size]).tolist()
    return [int.from_bytes(data[i:i + size], _ORDER, signed=True)
            for i in range(0, len(data), size)]


def lucas_sign(n: int, i: int) -> SignBit:
    """(-1) ** C(n, 2^i), with the binomial evaluated exactly.

    Deliberately not a bit lookup: this is the independent cross-check
    that the parity of C(n, 2^i) picks out bit i of n.
    """
    if n < 0 or i < 0:
        raise ValueError("lucas_sign needs n >= 0 and i >= 0")
    return -1 if math.comb(n, 1 << i) & 1 else 1


def half_pochhammer_sign(n: int) -> SignBit:
    """(-1) ** (n*(n-1)/2) for n >= 0; equals sign_bit(n, 1)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return -1 if (n * (n - 1) // 2) & 1 else 1


def neg_mod8(n: int) -> int:
    """(-n) mod 8, in [0, 8)."""
    return (-n) % 8
