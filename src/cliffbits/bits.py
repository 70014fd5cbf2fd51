"""Bit extraction and sign-valued bits.

A bit b in {0, 1} and a sign s in {+1, -1} are interchangeable through
s = 1 - 2*b.  The mod-8 periodicity formulas are all statements about
the three least significant bits of an integer, extracted here.  Every
product sign is a GF(2) bilinear form built on parity_above, and every
change-of-basis sign is a Walsh function applied by walsh_batch, one
transform over a whole batch of vectors laid end to end in one list
(walsh_hadamard is one vector).  walsh_batch runs the list stages
(_stages): the k constant-geometry butterfly stages over all the
entries, one int operation per entry and stage, on any batch.  The
column kernel (_columns) is the other transform, and the list stages
are its oracle.  It takes a full batch, 2^k vectors of length 2^k, as
2^k packed rows: row i holds entry i of every vector, one lane per
vector, and the same stages run over the rows, k * 2^k big-int
operations in place of k * 4^k int ones.  It can divide out the power
of two that every entry of the result shares on the rows (_lower),
which, as dyadic._common_shift stops at the first odd numerator, stops
at shift 0 when a lane of the first row is odd and only otherwise
folds every row.  The kernel neither packs nor unpacks, and nothing
here picks it: only efb's two conversions run it, the gather of a blade
operand in list form and the read-out of a matrix that keeps packed
columns, each when its lanes fit a word.  The dense gather packs
blades already in lane order, negating a lane-sign pattern (its coset
signs) as it packs, and keeps the rows as the columns of its matrix,
which the dense read-out transforms back and unpacks.  A vector with
one nonzero transforms to one scaled Walsh function, which
walsh_function writes without a transform and walsh_index recognizes.
Every re-indexing of blade masks is XOR-linear, so xor_span tabulates
it from the images of the single bits.

The packed kernels, efb's product, the blade engine's Gray-code walk and
the column kernel, lay signed integers end to end in one int as lanes
of W bits (Kronecker substitution): a row of values v_c is the int
sum_c v_c * 2^(W * c).  The lane layer here is all any kernel knows of
that format.  _width sizes a lane for a number of signed bits,
_lane_width sizes the lanes from a scan of the operands by
dyadic._magnitude (the oracle, in verify and the tests, of the bounds
that the multivector types carry), and _kernel_width weighs a packed
product kernel at a width against the loop it replaces, asking for the
width only when the kernel can win.  _pack reads values into rows as
two's-complement bytes at any whole-byte lane size: one struct call
for the native sizes 1, 2, 4 and 8 bytes, one at the next native size
cut down to 3, 5, 6 or 7 bytes per value by strided byte-slice
deletions (_narrow), and one to_bytes per value past a word; _unpack
reads them back the same ways, sign-extending 3- to 7-byte lanes by
strided copies and one bytes.translate of their top bytes (_widen).
Only the blade engine's Gray-code walk takes lanes of 3, 5, 6 or 7
bytes (blades._walk_lane): it multiplies its one packed int 2^n times
and packs and unpacks it once, so its narrower lanes outweigh the
codec's cost from n = 6 on.  efb's product and the column kernel pack
and unpack each value about as often as they multiply it, and keep the
native sizes of _width.
with T = _halves(size, count), (U ^ T) - T turns the unsigned int U of
a row's bytes into its signed sum, since every lane of U ^ T holds its
value plus 2^(W - 1).  _unpack writes the bytes of (S + T) ^ T back as
lanes, so a signed sum S comes out lane by lane as long as every lane
has magnitude below 2^(W - 1).  In that offset form S + T every lane is
unsigned, so bitwise masks act on the lanes one by one: _pack and
_negate negate chosen lanes by the XOR and increment of _negator,
_zero_lanes flags the zero lanes of signed rows with no unpack, and
_swap moves lane c to c ^ 2^j with one swap of 2^j-lane blocks, the
one block-swap formula.  Both engines move lanes with it: the blade
engine's Gray-code walk steps by it, and efb's packed product permutes
a column's lanes by XOR with a label t (_permute), one _swap per set
bit of t, from the plan of t: the (shift, keep) pairs of those bits,
tabulated per lane size and k (_plans), so no bit of t is scanned at
run time.  _lane_pattern lays out the lanes of a whole Walsh pattern,
such as the lanes to negate or keep, by the doubling that
walsh_function runs.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import lru_cache, reduce
from operator import add, or_, sub
from struct import pack

from .dyadic import _magnitude, _shift

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


def walsh_batch(flat: list, k: int) -> list:
    """The Walsh-Hadamard transform of each vector of length 2^k in flat,
    the vectors laid end to end: out[c][a] = sum_i flat[c * 2^k + i] *
    (-1)^popcount(a & i).  len(flat) must be a multiple of 2^k.

    The list stages (_stages) leave entry a of vector c at a * count +
    c, and each vector is read back by one slice.
    """
    count = len(flat) >> k
    if count << k != len(flat):
        raise ValueError(f"length {len(flat)} is not a multiple of 2^{k}")
    flat = _stages(flat, k)
    return [flat[c::count] for c in range(count)]


def _stages(flat: list, k: int) -> list:
    """The constant-geometry transform of the vectors of length 2^k laid
    end to end in flat (Pease, 1968): k whole-list stages, each taking
    the even and odd positions to their sums and then their
    differences.  A stage moves the lowest index bit to the top, so
    after k of them entry a of vector c sits at a * count + c."""
    for _ in range(k):
        even, odd = flat[0::2], flat[1::2]
        flat = [*map(add, even, odd), *map(sub, even, odd)]
    return flat


def _columns(rows: list, k: int, size: int, cap: int = 0) -> tuple[list, int]:
    """(out, s): the transform of a full batch, 2^k vectors of length 2^k,
    run on its 2^k packed rows of size-byte lanes, and every lane of it
    divided by 2^s, s the largest s <= cap with 2^s dividing them all
    (_lower).

    Row i holds entry i of every vector, one lane per vector, so the k
    stages run k * 2^(k - 1) big-int additions and as many subtractions
    in place of k * 4^k int ones, and entry a of vector c comes out of
    lane c of row a.  An entry of the transform sums 2^k entries of its
    vector, so the lanes must hold bits + k + 1 signed bits for entries
    of bits bits.
    """
    return _lower(_stages(rows, k), size, k, cap)


def _lower(rows: list, size: int, k: int, cap: int) -> tuple[list, int]:
    """(rows >> s, s) for 2^k signed rows of 2^k size-byte lanes, s the
    largest s <= cap with 2^s dividing every lane (dyadic._shift).

    s is 0 when a lane of the first row is odd, as dyadic._common_shift
    stops at the first odd numerator.  The low bit of each lane is read
    in offset form r + T, whose lanes differ from the two's-complement
    ones (r + T) ^ T only in their top bits; the signed row itself will
    not do, as a negative lane borrows from the low bit of the next.
    Otherwise the two's-complement lanes of all rows, ORed and folded
    onto the lowest lane, have the trailing zeros that every lane
    shares; that lane is 0 only when every lane is, so the whole folded
    int has them too.  2^s divides every lane, so each signed row shifts
    exactly.
    """
    if not cap:
        return rows, 0
    halves = _halves(size, 1 << k)
    if (rows[0] + halves) & halves >> 8 * size - 1:
        return rows, 0
    low = reduce(or_, [(r + halves) ^ halves for r in rows], 0)
    for fold in range(k):
        low |= low >> (8 * size << fold)
    shift = _shift(low, cap)
    return ([r >> shift for r in rows] if shift else rows), shift


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
    v[:] = walsh_batch(v, n.bit_length() - 1)[0]


# signed native typecodes by size in bytes, 1, 2, 4 and 8, which
# struct.pack writes and memoryview.cast reads alike; per lane size up
# to a word, the native size that holds it and its typecode (3-byte
# lanes go through 4 bytes, 5- to 7-byte ones through 8, see _narrow);
# and the byte order
_ARRAY_TYPES = {array(t).itemsize: t for t in "bhiq"}
_NATIVE = {size: (wide, _ARRAY_TYPES[wide])
           for size, wide in enumerate((1, 2, 4, 4, 8, 8, 8, 8), 1)}
_ORDER = sys.byteorder
_LITTLE = _ORDER == "little"
# the sign-fill byte of a two's-complement value by its top byte, 0x00
# below 0x80 and 0xFF from it on: one bytes.translate of the top bytes
# gives _widen the fill of every value
_SIGN_FILL = bytes(0 if b < 0x80 else 0xFF for b in range(256))


@lru_cache(maxsize=8)
def _halves(size: int, count: int) -> int:
    """T, the int with 2^(8 * size - 1) in each of count size-byte lanes,
    kept for the few (size, count) keys in use: _pack and _unpack read it
    on every call, and it is as long as one packed row."""
    return int.from_bytes((1 << (8 * size - 1)).to_bytes(size, _ORDER)
                          * count, _ORDER)


def _width(need: int) -> int:
    """The lane width for need signed bits: 1, 2, 4 or 8 bytes, the
    native ints struct packs, or past a word the fewest whole bytes."""
    size = (need + 7) >> 3
    return (1 << (size - 1).bit_length() if size <= 8 else size) << 3


def _lane_width(extra: int, *operands) -> int:
    """Bits of a lane that holds, signed, a sum of up to 2^extra products
    of one value from each operand: |sum| < 2^(extra + sum of bits),
    bits being the _magnitude of an operand, a collection of rows."""
    return _width(extra + 1 + sum(map(_magnitude, operands)))


def _kernel_width(loop: int, fixed: int, slope: int, width) -> int:
    """The lane width W of a packed kernel when it is the faster one,
    else 0.  The interpreted loop it replaces costs loop multiply-adds,
    the packed kernel fixed + slope * W / 2048 of them.  width() gives W;
    a kernel that loses even at the narrowest lane, 8 bits, returns 0
    before it is called, so no operand is scanned."""
    if loop < fixed + (slope << 3 >> 11):
        return 0
    lanes = width()
    return lanes if loop >= fixed + (slope * lanes >> 11) else 0


def _pack(values, size: int, count: int, neg: int = 0) -> list:
    """The signed int of each row of count size-byte lanes, the values
    laid end to end: row r is sum_c values[r * count + c] * 2^(8 * size
    * c), every value fitting its lane, and every lane c with bit c of
    neg set negated (see _negator), its values above -2^(8 * size - 1)."""
    if size <= 8:
        values = tuple(values)
        wide, code = _NATIVE[size]
        data = pack(f"{len(values)}{code}", *values)
        if wide != size:
            data = _narrow(data, size, wide)
    else:
        data = b"".join(v.to_bytes(size, _ORDER, signed=True) for v in values)
    span = size * count
    mask, base = (_negator(size, count, neg) if neg
                  else (_halves(size, count),) * 2)
    return [(int.from_bytes(data[i:i + span], _ORDER) ^ mask) - base
            for i in range(0, len(data), span)]


@lru_cache(maxsize=8)
def _negator(size: int, count: int, neg: int) -> tuple[int, int]:
    """(X, D) with (U ^ X) - D the signed row of the unsigned int U of a
    row's bytes, the lanes c with bit c of neg set negated.  U ^ T holds
    each lane's value v plus 2^(W - 1) (see the module docstring); a
    lane's XOR with all ones and one more (L, a 1 in each negated lane)
    turns that into -v plus 2^(W - 1), the negation _gray_walk's step
    makes.  So X = T ^ (2^W - 1) * L and D = T - L."""
    low = int.from_bytes(b"".join((neg >> c & 1).to_bytes(size, _ORDER)
                                  for c in range(count)), _ORDER)
    halves = _halves(size, count)
    return halves ^ low * ((1 << 8 * size) - 1), halves - low


def _unpack(rows, size: int, count: int) -> list:
    """The lane values of signed row ints, laid end to end: the inverse
    of _pack, for rows whose lanes have magnitude below 2^(8 * size - 1)."""
    span, halves = size * count, _halves(size, count)
    data = b"".join([((r + halves) ^ halves).to_bytes(span, _ORDER)
                     for r in rows])
    if size <= 8:
        wide, code = _NATIVE[size]
        if wide != size:
            data = _widen(data, size, wide)
        return memoryview(data).cast(code).tolist()
    return [int.from_bytes(data[i:i + size], _ORDER, signed=True)
            for i in range(0, len(data), size)]


def _narrow(data: bytes, size: int, wide: int) -> bytearray:
    """The wide-byte two's-complement values of data cut to their low size
    bytes, size < wide: a value that fits size bytes keeps its value.
    One strided byte-slice deletion per dropped byte, each taking from
    every value the byte next to the kept ones."""
    out, top = bytearray(data), size if _LITTLE else 0
    for w in range(wide, size, -1):
        del out[top::w]
    return out


def _widen(data: bytes, size: int, wide: int) -> bytearray:
    """The size-byte two's-complement values of data sign-extended to wide
    bytes, the inverse of _narrow: one strided copy per byte of a value,
    and the fill bytes of every value from one bytes.translate of the
    values' top bytes."""
    out = bytearray(len(data) // size * wide)
    skip = 0 if _LITTLE else wide - size
    for b in range(size):
        out[skip + b::wide] = data[b::size]
    fill = data[size - 1 if _LITTLE else 0::size].translate(_SIGN_FILL)
    for b in range(size, wide) if _LITTLE else range(skip):
        out[b::wide] = fill
    return out


def _lane_pattern(even: int, odd: int, i: int, k: int, size: int) -> int:
    """The int of 2^k size-byte lanes, lane a holding odd where
    popcount(a & i) is odd and even elsewhere, both unsigned: walsh_pattern
    on the lanes' bytes."""
    lanes = even.to_bytes(size, _ORDER), odd.to_bytes(size, _ORDER)
    return int.from_bytes(walsh_pattern(*lanes, i, k), _ORDER)


def _negate(rows: list, size: int, count: int, neg: int) -> list:
    """The signed rows with every lane c with bit c of neg set negated, in
    offset form as _pack negates them: r + T is the row's bytes U XOR T,
    so (U ^ X) - D of _negator is ((r + T) ^ T ^ X) - D."""
    mask, base = _negator(size, count, neg)
    halves = _halves(size, count)
    flip = mask ^ halves
    return [((r + halves) ^ flip) - base for r in rows]


def _zero_lanes(rows, size: int, count: int) -> list:
    """Per signed row, the int with the top bit of each of its zero lanes
    set, with no unpack.  For the two's-complement lanes v of a row,
    ((v & M) + M) | v has the top bit of a lane set exactly when the
    lane is not 0, M = T - L holding 2^(W - 1) - 1 in each lane (L a 1
    in each): the sum stays within its lane, so no carry crosses one."""
    halves = _halves(size, count)
    low = halves - (halves >> 8 * size - 1)
    return [((v & low) + low | v) & halves ^ halves
            for v in ((r + halves) ^ halves for r in rows)]


@lru_cache(maxsize=8)
def _keeps(size: int, k: int) -> tuple:
    """Per bit j < k, the int of 2^k size-byte lanes that is all ones in
    the lanes c with bit j of c clear: the masks of _swap, kept for the
    few (size, k) keys in use."""
    return tuple(_lane_pattern((1 << 8 * size) - 1, 0, 1 << j, k, size)
                 for j in range(k))


@lru_cache(maxsize=8)
def _plans(size: int, k: int) -> tuple:
    """Per label t < 2^k, the plan of _permute by t: the (shift, keep)
    pair of _swap for each set bit j of t, lowest first, shift = 8 * size
    * 2^j and keep = _keeps(size, k)[j].  Each bit doubles the table, as
    in xor_span; kept for the few (size, k) keys in use."""
    plans = [()]
    for j, keep in enumerate(_keeps(size, k)):
        pair = size << 3 + j, keep
        plans += [plan + (pair,) for plan in plans]
    return tuple(plans)


def _swap(v: int, shift: int, keep: int) -> int:
    """v with its blocks of shift bits swapped in pairs: at shift = 8 *
    size * 2^j, lane c moved to lane c ^ 2^j.  keep is _keeps(size, k)[j],
    and the lanes of v must be unsigned, as in offset form."""
    return (v & keep) << shift | (v >> shift) & keep


def _permute(v: int, plan: tuple) -> int:
    """v with lane c moved to lane c ^ t, lanes unsigned, plan being
    _plans(size, k)[t]: one _swap per set bit of t."""
    for shift, keep in plan:
        v = _swap(v, shift, keep)
    return v


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
