"""Extended Fock basis engine for the neutral algebras Cl(m, m).

The algebra is a 2^m x 2^m matrix over normalized matrix units: the
basis words of the words module, each scaled by its normalization_sign,
with row h and column h o g.  Their product has no sign at all, so the
Clifford product is a plain matrix product: one factor of 2^m cheaper
than blade-pair convolution on dense operands.

The matrix is stored by column coset: the entries (b ^ g, b) for one
g = row ^ col, the per-slot letter-count parity of the word, indexed by
column b.  Coset g times coset h lands in coset g ^ h, just as blade a
times blade b lands at a ^ b.  A blade lies in one coset, g = b0 ^ b1,
where the masks b0 and b1 (slot 1 on top) hold the presence bits of
g_{2s-1} and of g_{2s}.  Its entries there, normalization included,
form one Walsh function of the column times one sign per coset:
coeff * (-1)^C(popcount(g), 2) * (-1)^popcount(b & i), with
i = b1 ^ parity_above(g).  So each change of basis is one table lookup
per blade and one Walsh-Hadamard transform per operand, run by
walsh_batch over all of its stored cosets at once.  Both blade <-> (i, g)
maps are XOR-linear, tabulated per m by xor_span on first use.

Each conversion has a second path, picked from the data, with the same
result.  blades_to_efb gathers an operand that holds at least 3/8 of
the 4^m blades through one per-m table of the blade at each (g, i), in
C, and transforms all 2^m cosets.  It writes a sparser one blade by
blade, where a coset that holds one blade, found by counting the zeros
of the coset, is c * W_i by walsh_function, with no arithmetic.
efb_to_blades reads a coset that walsh_index finds equal to c * W_i as
the one blade c * 2^m, with no transform; it looks at v[0] and the
v[2^j] first, so a dense coset leaves after one or two entries.  Every
other coset goes through the one walsh_batch call.  Sparse operands, as
mul sees them, are mostly one blade per coset, and so are products of
such operands.

An EFBMultivector holds plain-int numerators over one shared
denominator 2^_e, in canonical form, as a Multivector does.  _canonical,
which every EFBMultivector passes through, drops the all-zero cosets
and stores the rest in ascending g, so no producer keeps an order of
its own.  The conversions and the product hand those ints to each other
unchanged: blades_to_efb keeps the blade exponent, efb_product adds the
two exponents, and efb_to_blades adds m, which is where the 2^-m of the
inverse transform goes.  Reduced DyadicRationals are built only where a
coefficient leaves (entry, nonzero).

efb_product has two kernels with equal results and triple counts.  The
coset sweep runs out[g ^ h][d] += x[g][d ^ h] * y[h][d] over pairs of
stored cosets, one interpreted multiply-add per triple.  The packed
kernel writes each row of y into the binary digits of one int
(Kronecker substitution), so a row of the product is one C-level sum
of big-int multiplies, and it emits all 2^m cosets.  Entry (a, b) sits
at position (a ^ b) * 2^m + b by cosets and a * 2^m + b by rows, so one
itemgetter per m takes both operands to rows and the product back.
Lanes move through the lane codec of the bits module: one array call
per operand for lanes of 8, 16, 32 or 64 bits, one to_bytes per entry
for wider ones.  The packed kernel pays for all 4^m entries and for a
2^m-lane multiply per entry of x, so it loses on sparse or wide
operands; _packed_width weighs the sweep's (stored cosets of x) *
nnz(y) multiply-adds against that cost, from both operands alone.
"""

from __future__ import annotations

from functools import cache, partial, reduce
from itertools import chain, compress, repeat
from operator import itemgetter, mul, neg, or_

from .bits import (_ORDER, _halves, _lane_size, _lanes_in, _lanes_out,
                   _signed_bytes, parity_above, walsh_batch, walsh_function,
                   walsh_index, xor_span)
from .blades import Metric, MetricError, Multivector
from .dyadic import _Numerators, _common_shift, _reduced, _scale_in
from .instrument import counters

# largest m an EFBMultivector is built for: 4^m entries when dense
MAX_M = 8


# type(v) is int: a bool is an int, but no m and no index
def _check_m(m: int) -> None:
    if type(m) is not int:
        raise TypeError(f"m must be an int, got {m!r}")
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m must be between 1 and {MAX_M}, got {m}")


def _check_entry(m: int, a: int, b: int) -> None:
    if type(a) is not int or type(b) is not int:
        raise TypeError(f"entry indices must be ints, got ({a!r}, {b!r})")
    if not (0 <= a < 1 << m and 0 <= b < 1 << m):
        raise ValueError(f"entry ({a}, {b}) out of range for m={m}")


def _canonical(cosets: dict, e: int) -> tuple[dict, int]:
    """(cosets, e) with the cosets in ascending g, the all-zero ones
    dropped, and e lowered while every numerator is even: the one form
    equal matrices share."""
    cosets = {g: cosets[g] for g in sorted(cosets) if any(cosets[g])}
    shift = _common_shift(map(partial(reduce, or_), cosets.values()), e)
    if shift:
        cosets = {g: [n >> shift for n in v] for g, v in cosets.items()}
    return cosets, e - shift


class EFBMultivector(_Numerators):
    """A 2^m x 2^m coefficient matrix over the normalized matrix units,
    stored by column coset as integer numerators over one 2^_e.

    Entry (a, b) is the coefficient of normalization_sign(a, b) *
    word(a, b); only the conversions to and from blades know that sign,
    which is +1 on the diagonal.  _cosets[g][b] is the numerator of
    entry (b ^ g, b): each coset is stored by column, so the image of
    one blade is one Walsh function of the column index times one sign,
    (-1)^C(popcount(g), 2).  The form is canonical: a coset is absent
    exactly when all its entries are zero, the cosets are stored in
    ascending g, and _e is 0 or some numerator is odd, so equality
    compares (m, _e, _cosets).  Coset g times coset h lands in coset
    g ^ h.  entry() and nonzero() give each nonzero entry as a reduced
    DyadicRational; nonzero() yields them by ascending coset, then by
    row.

    Coefficients are int or DyadicRational; scaling by any other scalar
    returns NotImplemented.  No scalar lifts to a matrix: + and - take
    only an EFBMultivector of the same m.  The operators that read no
    storage come from dyadic._Numerators.  Treated as immutable.
    """

    __slots__ = ("m", "_e", "_cosets")

    def __init__(self, m: int, entries=None):
        _check_m(m)
        dim = 1 << m
        cosets: dict[int, list] = {}
        if entries:
            for (a, b), coeff in dict(entries).items():
                _check_entry(m, a, b)
                cosets.setdefault(a ^ b, [0] * dim)[b] = coeff
        flat, e = _scale_in([c for v in cosets.values() for c in v])
        self.m = m
        self._cosets, self._e = _canonical(
            {g: flat[i * dim:(i + 1) * dim] for i, g in enumerate(cosets)}, e)

    @classmethod
    def _from_ints(cls, m: int, cosets: dict, e: int) -> "EFBMultivector":
        """Adopt integer coset lists over 2^e, in canonical form."""
        x = object.__new__(cls)
        x.m = m
        x._cosets, x._e = _canonical(cosets, e)
        return x

    @classmethod
    def zeros(cls, m: int) -> "EFBMultivector":
        return cls(m)

    @classmethod
    def identity(cls, m: int) -> "EFBMultivector":
        """Expansion of the scalar 1: +1 on the whole diagonal."""
        _check_m(m)
        return cls._from_ints(m, {0: [1] * (1 << m)}, 0)

    @classmethod
    def volume(cls, m: int) -> "EFBMultivector":
        """Expansion of the volume element: (-1)^popcount(a) at (a, a)."""
        _check_m(m)
        return cls._from_ints(m, {0: [-1 if a.bit_count() & 1 else 1
                                      for a in range(1 << m)]}, 0)

    @property
    def dim(self) -> int:
        return 1 << self.m

    def entry(self, a: int, b: int):
        _check_entry(self.m, a, b)
        v = self._cosets.get(a ^ b)
        n = v[b] if v else 0
        return _reduced(n, self._e) if n else 0

    def nonzero(self):
        e = self._e
        for g, v in self._cosets.items():
            for a in range(self.dim):
                n = v[a ^ g]
                if n:
                    yield a, a ^ g, _reduced(n, e)

    def _like(self, other):
        # no scalar lifts, and another m is refused here, so that - as
        # well as + returns NotImplemented
        return (other if isinstance(other, EFBMultivector)
                and other.m == self.m else None)

    def _key(self):
        return self.m, self._e, self._cosets

    def _scaled(self, numerator: int, exponent: int) -> "EFBMultivector":
        return EFBMultivector._from_ints(
            self.m, {g: [n * numerator for n in v]
                     for g, v in self._cosets.items()}, self._e + exponent)

    def _product(self, other):
        return efb_product(self, other)

    def __add__(self, other):
        other = self._like(other)
        if other is None:
            return NotImplemented
        e = max(self._e, other._e)
        sa, sb = e - self._e, e - other._e
        zeros = [0] * self.dim
        return EFBMultivector._from_ints(self.m, {
            g: [(na << sa) + (nb << sb)
                for na, nb in zip(self._cosets.get(g, zeros),
                                  other._cosets.get(g, zeros))]
            for g in self._cosets.keys() | other._cosets.keys()}, e)

    def __repr__(self):
        dim = self.dim
        nnz = sum(dim - v.count(0) for v in self._cosets.values())
        return f"<EFBMultivector m={self.m} nnz={nnz}>"


def efb_product(x: EFBMultivector, y: EFBMultivector) -> EFBMultivector:
    """Plain matrix product in the matrix-unit basis.

    Both kernels sum integer numerators over 2^(ex + ey) and agree
    entry for entry; _packed_width picks one from the operands alone.
    The triple count, executed by the sweep and computed by the packed
    kernel, goes to the op counters (8^m on dense operands).
    """
    if not isinstance(x, EFBMultivector) or not isinstance(y, EFBMultivector):
        raise TypeError("efb_product needs two EFBMultivector operands")
    if x.m != y.m:
        raise ValueError("operands have different m")
    width = _packed_width(x, y)
    out, triples = _packed(x, y, width) if width else _sweep(x, y)
    counters.efb_triples += triples
    return EFBMultivector._from_ints(x.m, out, x._e + y._e)


def _packed_width(x: EFBMultivector, y: EFBMultivector) -> int:
    """The packed kernel's lane width when it is the faster kernel, else 0.

    Costs are counted in the sweep's interpreted multiply-adds, of which
    it runs at most (stored cosets of x) * nnz(y).  The packed kernel
    moves all 4^m entries of the operands and the product, about
    m/2 + W/64 each at W-bit lanes; it multiplies a row of 2^m lanes,
    about 2^m * W / 2048, per entry of a stored coset of x; and it costs
    64 more per call.  The constants were fitted to a timing grid over
    m = 2..8, the stored cosets of both operands and W = 16..712 bits,
    recorded in ROADMAP.md.  An operand pair that fails on the moves at
    m/2 alone skips the width scan.
    """
    dim, stored = x.dim, len(x._cosets)
    sweep = stored * sum(dim - v.count(0) for v in y._cosets.values())
    moves = dim * dim * x.m // 2 + 64
    if sweep < moves:
        return 0
    width = _lane_width(x, y)
    packed = moves + dim * dim * width * (32 + stored) // 2048
    return width if sweep >= packed else 0


def _sweep(x: EFBMultivector, y: EFBMultivector) -> tuple[dict, int]:
    """(output cosets, triples) by the XOR-graded coset sweep.

    Entry (d ^ h, d) of y meets column d ^ h of x, so coset g times
    coset h is out[g ^ h][d] += x[g][d ^ h] * y[h][d], with no sign.
    Every executed multiply counts as a triple.
    """
    dim = x.dim
    ys = [(h, [(d, d ^ h, zeta) for d, zeta in enumerate(yv) if zeta])
          for h, yv in y._cosets.items()]
    out: dict[int, list] = {}
    triples = 0
    for g, xv in x._cosets.items():
        for h, ynz in ys:
            ov = out.setdefault(g ^ h, [0] * dim)
            triples += len(ynz)  # a zero of x takes one back below
            for d, b, zeta in ynz:
                xi = xv[b]
                if xi:
                    ov[d] += xi * zeta
                else:
                    triples -= 1
    return out, triples


def _lane_width(x: EFBMultivector, y: EFBMultivector) -> int:
    """Bits of the lane (bits._lane_size) that holds any entry of x * y
    signed, |entry| < 2^(bits(x) + bits(y) + m), bits being the bit
    length of the largest numerator magnitude.  One C-level max and min
    pass per operand reads the bits; each operand stores a coset."""
    need = x.m + 1
    for vs in (x._cosets.values(), y._cosets.values()):
        need += max(max(map(max, vs)), -min(map(min, vs))).bit_length()
    return _lane_size(need) << 3


@cache
def _transposer(m: int) -> itemgetter:
    """The itemgetter that takes a flat coset-major list to row-major
    order and back, built on first use.

    Entry (a, b) sits at a * 2^m + b by rows and at (a ^ b) * 2^m + b by
    cosets; the map between them is its own inverse.
    """
    low = (1 << m) - 1
    return itemgetter(*[(p >> m ^ p & low) << m | p & low
                        for p in range(1 << 2 * m)])


def _packed(x: EFBMultivector, y: EFBMultivector,
            width: int) -> tuple[dict, int]:
    """(output cosets, triples) by Kronecker substitution.

    Row b of y becomes the single int R_b = sum_d y[b][d] * 2^(width*d),
    so row a of the product is the int sum_b x[a][b] * R_b, one C-level
    sum of big-int multiplies per row.  One transpose takes x and y to
    row-major order and the product back.  Lanes move as bytes in
    two's complement: with T holding 2^(width-1) in every lane,
    (U ^ T) - T turns the unsigned int U of a row's bytes into R_b, and
    the bytes of (acc + T) ^ T are the signed lanes of acc, since every
    entry of the product has magnitude below 2^(width - 1).  The triple
    count is computed, not executed: sum over b of nnz(column b of x)
    * nnz(row b of y).
    """
    dim, size = x.dim, width >> 3
    swap = _transposer(x.m)
    zeros = [0] * dim
    xc, yc = (list(chain.from_iterable(map(z._cosets.get, range(dim),
                                           repeat(zeros))))
              for z in (x, y))
    xr, yr = swap(xc), swap(yc)
    span = size * dim  # bytes per row
    halves = _halves(size, dim)  # T
    packed = _lanes_in(yr, size)
    rows = [(int.from_bytes(packed[i:i + span], _ORDER) ^ halves) - halves
            for i in range(0, len(packed), span)]
    data = b"".join(
        _signed_bytes(sum(map(mul, xr[i:i + dim], rows)), halves, span)
        for i in range(0, dim * dim, dim))
    oc = swap(_lanes_out(data, size))
    out = {g: list(oc[g * dim:(g + 1) * dim]) for g in range(dim)}
    triples = sum(map(mul, (dim - xc[b::dim].count(0) for b in range(dim)),
                      (dim - yr[i:i + dim].count(0)
                       for i in range(0, dim * dim, dim))))
    return out, triples


@cache
def _slot_tables(m: int) -> tuple[list, list, list, list]:
    """The blade mask <-> (i, g) maps at one m, as lookups over m bits,
    built on first use: 4 * 2^m ints.

    b0 and b1 hold the presence bits of g_{2s-1} and of g_{2s}, slot 1
    on top; a blade lies in coset g = b0 ^ b1 at Walsh index
    i = b1 ^ parity_above(g).  parity_above is XOR-linear, so both maps
    are, and xor_span tabulates each from the images of the single bits.
    A 2m-bit mask splits as lo[low m bits] ^ hi[high m bits], read as
    the coset-major position g * 2^m + i, and joins back as
    join_i[i] ^ join_g[g].
    """
    def split(j: int) -> int:  # generator g_{j+1} lies in slot j // 2 + 1
        g = 1 << (m - 1 - j // 2)
        return g << m | (j & 1) * g ^ parity_above(g)

    # i sets both generators of its slots; g sets g_{2s-1} of its slots
    # and undoes the parity_above(g) part of i
    join_i = xor_span([3 << 2 * (m - 1 - p) for p in range(m)])
    join_g = xor_span([1 << 2 * (m - 1 - p) ^ join_i[parity_above(1 << p)]
                       for p in range(m)])
    return (xor_span(map(split, range(m))),
            xor_span(map(split, range(m, 2 * m))), join_i, join_g)


# the interleaved metric per m, built and validated on first use
_metric = cache(Metric.interleaved)
# blades_to_efb gathers an operand that holds at least this share of
# the 4^m blades through _blade_at, and loops over a sparser one
_GATHER_SHARE = 3 / 8


@cache
def _blade_at(m: int) -> list:
    """The blade mask at each coset-major position g * 2^m + i, built on
    first use: the map is XOR-linear, so xor_span tabulates it from the
    _slot_tables images of the single bits."""
    _, _, join_i, join_g = _slot_tables(m)
    bits = [1 << k for k in range(m)]
    return xor_span([join_i[b] for b in bits] + [join_g[b] for b in bits])


def blades_to_efb(x: Multivector, m: int) -> EFBMultivector:
    """Change of basis from blades; requires the interleaved Cl(m,m) metric.

    Each blade writes its signed numerator at its Walsh index.  An
    operand with at least _GATHER_SHARE of the 4^m blades is gathered
    whole through _blade_at, and all 2^m cosets go through one
    transform; an untouched one comes out all zero and is dropped.  In
    a sparser one, a coset that holds one blade, c at index i, is
    c * W_i, written by walsh_function with no arithmetic, and the count
    of zeros in each coset picks that path.  One transform spreads every
    other touched coset over the columns.
    """
    _check_m(m)
    metric = _metric(m)
    if x.metric is not metric and x.metric != metric:
        raise MetricError(f"multivector is not over interleaved Cl({m},{m})")
    nums = x._nums
    dim = 1 << m
    if len(nums) >= _GATHER_SHARE * dim * dim:
        flat = list(map(nums.get, _blade_at(m), repeat(0)))
        spans = [flat[g * dim:(g + 1) * dim] for g in range(dim)]
        # (-1)^C(popcount g, 2) on each coset
        return EFBMultivector._from_ints(m, dict(enumerate(walsh_batch(
            [map(neg, v) if g.bit_count() & 2 else v
             for g, v in enumerate(spans)], m))), x._e)
    low = dim - 1
    lo, hi, _, _ = _slot_tables(m)
    cosets: dict[int, list] = {}
    for mask, n in nums.items():
        t = lo[mask & low] ^ hi[mask >> m]
        g = t >> m
        v = cosets.get(g)
        if v is None:
            v = cosets[g] = [0] * dim
        v[t & low] = -n if g.bit_count() & 2 else n  # (-1)^C(popcount g, 2)
    # the transform is invertible, so a touched coset stays nonzero on
    # either path
    batch = []
    for g, v in cosets.items():
        if v.count(0) == low:  # dim - 1 zeros: one blade
            i = next(compress(range(dim), v))
            cosets[g] = walsh_function(v[i], i, m)
        else:
            batch.append(g)
    for g, w in zip(batch, walsh_batch([cosets[g] for g in batch], m)):
        cosets[g] = w
    return EFBMultivector._from_ints(m, cosets, x._e)


def efb_to_blades(x: EFBMultivector) -> Multivector:
    """Inverse change of basis: the transform's 2^-m joins the exponent.

    A coset equal to c * W_i, as walsh_index reads it off, is the one
    blade c * 2^m at i.  One transform takes every other coset back,
    and its nonzero entries are read out.  Terms come by ascending
    coset, then by Walsh index, on both paths.
    """
    m, dim = x.m, x.dim
    _, _, join_i, join_g = _slot_tables(m)
    cosets = x._cosets.items()
    found = [walsh_index(v, m) for _, v in cosets]
    # the transform is its own inverse up to the factor 2^m
    spread = iter(walsh_batch(
        [v for (_, v), i in zip(cosets, found) if i < 0], m))
    terms: dict[int, int] = {}
    for (g, v), i in zip(cosets, found):
        base, flip = join_g[g], g.bit_count() & 2
        if i >= 0:
            n = v[0] << m
            terms[join_i[i] ^ base] = -n if flip else n
            continue
        w = next(spread)
        for i in compress(range(dim), w):
            terms[join_i[i] ^ base] = -w[i] if flip else w[i]
    return Multivector._raw(_metric(m), terms, x._e + m)
