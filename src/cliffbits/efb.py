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
maps are XOR-linear, tabulated per m by xor_span on first use.  Both
conversions take the metric of m from Metric.interleaved, which returns
one cached instance per m: the check of an operand made over it is one
identity test, and an equal metric built otherwise still passes by ==.

Each conversion has one more path, picked from the data, with the same
result, and the two conversions alone run the column kernel
(bits._columns): walsh_batch runs the list stages on whatever batch it
is given.  blades_to_efb gathers a Multivector in list form, which
holds at least 3/8 of the 4^m blades (the blade engine's storage rule),
from its list of numerators in mask order, by one per-m itemgetter in C
(_blade_at), already in the lane order of bits._columns: bits._pack
negates the cosets of sign -1 as it packs them, and the column kernel
transforms all 2^m at once.  Below m = 3 (_KEEP_M) or on
lanes past a word the list stages run instead, the signs on the lists.
It writes a dict form blade by blade, where a coset that holds one
blade, found by counting the zeros of the coset, is c * W_i by
walsh_function, with no arithmetic; every other touched coset goes
through one walsh_batch call, which an operand whose every coset holds
one blade does not make.
efb_to_blades reads a coset that walsh_index finds equal to c * W_i as
the one blade c * 2^m, with no transform; it looks at v[0] and the
v[2^j] first, so a dense coset leaves after one or two entries.  Every
other coset goes through the one walsh_batch call, which a matrix of
Walsh functions alone does not make.  Sparse operands, as mul sees
them, are mostly one blade per coset, and so are products of such
operands.  A matrix that keeps packed columns, as the gather and the
packed product leave it, is read out by the column kernel instead when
its lanes fit a word, which lowers the exponent on its packed rows, and
the terms are read out in C (_dense_to_blades): a product that holds at
least 3/8 of the blades as the list of the blade engine's list form,
one itemgetter taking the unpacked lanes into mask order, and a sparser
one as the dict by coset, through the table of the blade at each
coset-major position.  So the column kernel runs only on data that the
dense pipeline packs anyway, and both of its routes decide whether its
lanes fit a word by _fits_word of the operand's _bound().

An EFBMultivector holds plain-int numerators over one shared
denominator 2^_e, in canonical form, as a Multivector does.  _canonical,
which every list producer passes through, drops the all-zero cosets
and stores the rest in ascending g, so no producer keeps an order of
its own.  The conversions and the product hand those ints to each other
unchanged: blades_to_efb keeps the blade exponent, efb_product adds the
two exponents, and efb_to_blades adds m, which is where the 2^-m of the
inverse transform goes.  Reduced DyadicRationals are built only where a
coefficient leaves (entry, nonzero).

Packed columns travel with the matrix.  Column b, packed by coset, is
U_b = sum_g x_g[b] * 2^(W * g), one signed W-bit lane per coset, the
form in which the column kernel leaves a transform.  The dense gather
keeps the rows the kernel gives it, from m = 3 on, at lanes wide enough
for the product of two such operands, up to a word; the packed product
keeps its own.  Their exponent is lowered on the columns
(bits._lower), as _canonical lowers it, and the canonical coset lists
are built from the columns on the first read of _cosets and kept, so
equality, entry, nonzero, the linear operators, the sweep and repr see
the same lists whichever way the matrix was made.  The packed product
reads the columns of x, and of y its entries in lane order, unpacked
from its columns (_flat); the dense read-out negates the coset lanes
of kept columns in offset form (bits._negate) and unpacks only the
transformed rows.  So the dense pipeline packs each blade operand once
and unpacks once, at the read-out.  A matrix held as lists alone is
packed into the same form where a packed step needs it
(_packed_cols), and kept columns too narrow for a step are packed
again at its width.

Lane widths travel with the matrix as well, as the carried bound
_bits that the dyadic module describes.  _bound() is read by the
packed product kernel (_lanes) and by the two column-kernel routes.
The sparse paths gain no scan: neither a dict form nor the read-out of
a matrix held as lists reads a bound, and a product reads its
operands' bounds only where bits._kernel_width needs a width.

efb_product has two kernels with equal results and triple counts.  The
coset sweep runs out[g ^ h][d] += x[g][d ^ h] * y[h][d] over pairs of
stored cosets, one interpreted multiply-add per triple.  The packed
kernel runs in column form (Kronecker substitution): XOR by a label
permutes the lanes of a packed column, so column b of x packed by row
is P_b = pi_b(U_b), pi_t moving lane c to c ^ t by one block swap of
the lane layer of the bits module per set bit of t (bits._permute, the
swap that the blade engine's Gray-code walk steps with), read from the
plan of t that bits._plans tabulates per lane size and m.  Column d of
the product is then P_d(z) = sum_b y[b][d] * P_b, one C-level sum of
big-int multiplies per column, and U_d(z) = pi_d(P_d(z)) is kept.  It
emits all 2^m cosets, pays for all 4^m entries and for a 2^m-lane
multiply per entry, so it loses on sparse or wide operands;
_packed_width weighs the sweep's (stored cosets of x) * nnz(y)
multiply-adds against that cost by bits._kernel_width.  The zeros of
each operand are counted once: y's on its entries, x's as the zero
lanes of its columns (bits._zero_lanes), which give its stored cosets
and, when x has a zero, the triple count column by column.
"""

from __future__ import annotations

from functools import cache, partial, reduce
from itertools import chain, compress, repeat
from operator import and_, itemgetter, mul, neg, or_

from .bits import (_columns, _halves, _kernel_width, _lower, _negate, _pack,
                   _permute, _plans, _stages, _unpack, _width, _zero_lanes,
                   parity_above, walsh_batch, walsh_function, walsh_index,
                   xor_span)
from .blades import Metric, MetricError, Multivector, _listed
from .dyadic import (_Numerators, _common_shift, _converted, _reduced,
                     _scale_in)
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
    compares (m, _e, _cosets); _bits, a bound on the bit length of every
    numerator or None, plays no part in it, nor does _cols, the packed
    columns (cols, lane size) that a packed producer keeps, or None.  A
    matrix made from columns builds _cosets on its first read.  Coset g
    times coset h lands in coset g ^ h.  entry() and nonzero() give each
    nonzero entry as a reduced DyadicRational; nonzero() yields them by
    ascending coset, then by row.

    Coefficients are int or DyadicRational; scaling by any other scalar
    returns NotImplemented.  No scalar lifts to a matrix: + and - take
    only an EFBMultivector of the same m.  The operators that read no
    storage come from dyadic._Numerators.  Treated as immutable.
    """

    __slots__ = ("m", "_e", "_lists", "_cols")

    def __init__(self, m: int, entries=None):
        _check_m(m)
        dim = 1 << m
        cosets: dict[int, list] = {}
        entries = _converted(dict, () if entries is None else entries,
                             "entries", "a mapping")
        for key, coeff in entries.items():
            if type(key) is not tuple or len(key) != 2:
                raise TypeError(
                    f"entry keys must be (row, column) pairs, got {key!r}")
            a, b = key
            _check_entry(m, a, b)
            cosets.setdefault(a ^ b, [0] * dim)[b] = coeff
        flat, e = _scale_in([c for v in cosets.values() for c in v])
        self.m = m
        self._lists, self._e = _canonical(
            {g: flat[i * dim:(i + 1) * dim] for i, g in enumerate(cosets)}, e)
        self._cols = self._bits = None

    @classmethod
    def _from_ints(cls, m: int, cosets: dict, e: int,
                   bits: int | None = None) -> "EFBMultivector":
        """Adopt integer coset lists over 2^e, in canonical form; bits,
        when given, bounds the bit length of every numerator, and the
        canonical shift lowers it."""
        x = object.__new__(cls)
        x.m = m
        x._lists, x._e = _canonical(cosets, e)
        x._cols = None
        x._bits = None if bits is None else max(bits - e + x._e, 0)
        return x

    @classmethod
    def _from_columns(cls, m: int, cols: list, size: int, e: int,
                      bits: int | None = None) -> "EFBMultivector":
        """Adopt packed columns over 2^e: cols[b] = sum_g x_g[b] *
        2^(8 * size * g), one signed size-byte lane per coset.  The
        exponent is lowered on the columns, as _canonical lowers it
        (bits._lower, which stops at the first column when one of its
        lanes is odd), and bits, when given, with it; the coset lists
        wait for the first read of _cosets."""
        cols, shift = _lower(cols, size, m, e)
        x = object.__new__(cls)
        x.m, x._e, x._lists, x._cols = m, e - shift, None, (cols, size)
        x._bits = None if bits is None else max(bits - shift, 0)
        return x

    @property
    def _cosets(self) -> dict:
        """The canonical coset lists, built from the kept columns on first
        read and kept."""
        lists = self._lists
        if lists is None:
            dim, flat = self.dim, self._flat()
            lists = self._lists = {g: v for g, v in enumerate(
                flat[g::dim] for g in range(dim)) if any(v)}
        return lists

    def _flat(self) -> list:
        """Entry b of coset g at b * 2^m + g for every coset, stored or
        not: the kept columns unpacked, else the lists transposed."""
        if self._cols is not None:
            return _unpack(*self._cols, self.dim)
        zeros = [0] * self.dim
        return list(chain.from_iterable(zip(*map(
            self._cosets.get, range(self.dim), repeat(zeros)))))

    def _packed_cols(self, size: int) -> tuple[list, int]:
        """(cols, s): the packed columns at lanes of s >= size bytes, the
        kept ones when their lanes are that wide, else packed from
        _flat() and kept."""
        if self._cols is None or self._cols[1] < size:
            self._cols = _pack(self._flat(), size, self.dim), size
        return self._cols

    def _rows(self):
        return self._cosets.values()

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
                     for g, v in self._cosets.items()}, self._e + exponent,
            self._scaled_bits(numerator))

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
    entry for entry; _packed_width picks one from the operands alone,
    from the zeros of each counted once.  The triple count, executed by
    the sweep and computed for the packed kernel, goes to the op
    counters (8^m on dense operands).  The packed kernel's product
    keeps its columns.
    """
    if not isinstance(x, EFBMultivector) or not isinstance(y, EFBMultivector):
        raise TypeError("efb_product needs two EFBMultivector operands")
    if x.m != y.m:
        raise ValueError("operands have different m")
    m, dim, e = x.m, x.dim, x._e + y._e
    # the zeros of each operand, counted once: y's on its entries in lane
    # order when it keeps columns, as the packed kernel reads them, else
    # on its lists; x's as the zero lanes of its kept columns, which give
    # its stored cosets too, else on its lists
    yf = y._flat() if y._cols else None
    ynz = (dim * dim - yf.count(0) if yf else
           sum(dim - v.count(0) for v in y._cosets.values()))
    flags = _zero_lanes(*x._cols, dim) if x._cols else None
    stored = (dim - reduce(and_, flags).bit_count() if flags
              else len(x._cosets))
    width = _packed_width(x, y, stored, ynz)
    # an entry sums 2^m products of entries of x and y
    bits = (None if x._bits is None or y._bits is None
            else x._bits + y._bits + m)
    if width:
        yf = yf or y._flat()
        z = EFBMultivector._from_columns(m, *_packed(x, yf, width), e, bits)
        # x keeps columns now
        flags = flags or _zero_lanes(*x._cols, dim)
        counters.efb_triples += _triples(flags, yf) if any(flags) else (
            dim * ynz)
        return z
    out, triples = _sweep(x, y)
    counters.efb_triples += triples
    return EFBMultivector._from_ints(m, out, e, bits)


def _packed_width(x: EFBMultivector, y: EFBMultivector, stored: int,
                  nnz: int) -> int:
    """The packed kernel's lane width when it is the faster kernel, else
    0, by bits._kernel_width; stored is the number of stored cosets of
    x and nnz the number of nonzero entries of y.

    Costs are counted in the sweep's interpreted multiply-adds, of which
    it runs at most stored * nnz.  The packed kernel moves all 4^m
    entries of the operands and the product, about m/2 + W/64 each at
    W-bit lanes; it multiplies a column of 2^m lanes, about 2^m * W /
    2048, per entry; and it costs 64 more per call.  The constants were
    fitted to a timing grid over m = 2..8, the stored cosets of both
    operands and W = 16..712 bits, recorded in ROADMAP.md.
    """
    dim = x.dim
    return _kernel_width(stored * nnz, dim * dim * x.m // 2 + 64,
                         dim * dim * (32 + stored), partial(_lanes, x, y))


def _lanes(x: EFBMultivector, y: EFBMultivector) -> int:
    """The lane width for a sum of 2^m products of an entry of x and one
    of y, from their _bound()s: bits._lane_width with extra = m, without
    its scan where a producer set _bits."""
    return _width(x.m + 1 + x._bound() + y._bound())


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


@cache
def _xor_getters(m: int) -> list:
    """Per d < 2^m, the itemgetter that reads a list of 2^m at g ^ d for
    g = 0 .. 2^m - 1, built on first use."""
    dim = 1 << m
    return [itemgetter(*[g ^ d for g in range(dim)]) for d in range(dim)]


def _packed(x: EFBMultivector, yf: list, width: int) -> tuple[list, int]:
    """(cols, size): the packed columns of x times y, y given by its
    entries in lane order (EFBMultivector._flat), by Kronecker
    substitution.

    Column b of x, packed by coset, is U_b = sum_g x_g[b] * 2^(W * g);
    packed by row it is P_b = sum_a x[a][b] * 2^(W * a), the same lanes
    with lane c moved to c ^ b, since x[a][b] = x_(a ^ b)[b]: a
    bits._permute, one block swap per set bit of b, on the unsigned
    lanes U_b + T.  Column d of the product is then the C-level sum
    P_d(z) = sum_b y[b][d] * P_b = sum_g y_g[d] * P_(g ^ d), and its
    coset form U_d(z) is P_d(z) with lane c moved to c ^ d.  Each
    permute reads the plan of its label, bits._plans(size, m)[b] or
    [d], so no bit of a label is scanned.  The lanes are x's kept ones
    when at least width bits wide, else x is packed at width.  Every
    entry of the product has magnitude below 2^(width - 1), by _lanes,
    so every lane holds its entry.
    """
    m, dim = x.m, x.dim
    cols, size = x._packed_cols(width >> 3)
    halves, plans, xor = _halves(size, dim), _plans(size, m), _xor_getters(m)
    rows = [_permute(c + halves, plan) - halves
            for c, plan in zip(cols, plans)]
    return [_permute(sum(map(mul, yf[d * dim:(d + 1) * dim], get(rows)))
                     + halves, plan) - halves
            for d, (get, plan) in enumerate(zip(xor, plans))], size


def _triples(flags: list, yf: list) -> int:
    """The packed kernel's triple count, computed, not executed: sum over
    b of nnz(column b of x) * nnz(row b of y), x given by the zero-lane
    flags of its columns (bits._zero_lanes) and y by its entries in lane
    order, which is the sum over the nonzero y_g[d] of nnz(column g ^ d
    of x).  efb_product takes 2^m * nnz(y) instead when x has no zero
    entry."""
    dim = len(flags)
    xor = _xor_getters(dim.bit_length() - 1)
    cx = [dim - f.bit_count() for f in flags]
    return sum(sum(compress(xor[d](cx), yf[d * dim:(d + 1) * dim]))
               for d in range(dim))


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


# the smallest m at which the dense gather keeps packed columns: below
# it _packed_width sends every product of two dense operands to the
# sweep, which reads lists (8^m multiply-adds against at least 4^m * m/2
# + 64 for the packed kernel)
_KEEP_M = 3


@cache
def _blade_at(m: int) -> tuple:
    """The blade mask at each coset-major position g * 2^m + i, and three
    itemgetters over lists of 4^m, built on first use: from a list in
    mask order, its entries in coset-major order and in lane order,
    i * 2^m + g, the order of bits._columns; and from a list in lane
    order, its entries in mask order.  The map is XOR-linear, so
    xor_span tabulates it from the _slot_tables images of the single
    bits."""
    _, _, join_i, join_g = _slot_tables(m)
    bits = [1 << k for k in range(m)]
    by_coset = xor_span([join_i[b] for b in bits] + [join_g[b] for b in bits])
    by_lane = xor_span([join_g[b] for b in bits] + [join_i[b] for b in bits])
    to_lane = [0] * len(by_lane)
    for p, mask in enumerate(by_lane):
        to_lane[mask] = p
    return (by_coset, itemgetter(*by_coset), itemgetter(*by_lane),
            itemgetter(*to_lane))


@cache
def _coset_signs(m: int) -> int:
    """The cosets g with (-1)^C(popcount(g), 2) = -1, as the bits of one
    int: the lanes that bits._pack and bits._negate negate."""
    return sum(1 << g for g in range(1 << m) if g.bit_count() & 2)


def _fits_word(bits: int, m: int) -> bool:
    """Whether bits._columns' lanes for a transform of 2^m-entry cosets
    whose entries have at most bits bits fit one 64-bit word.  Past a
    word bits._pack writes one to_bytes per value, and the list stages
    win.  Both column-kernel routes ask it of the operand's _bound()."""
    return bits + m < 64


def blades_to_efb(x: Multivector, m: int) -> EFBMultivector:
    """Change of basis from blades; requires the interleaved Cl(m,m) metric.

    Each blade writes its signed numerator at its Walsh index.  A dict
    form goes blade by blade: a coset that holds one blade, c at index
    i, is c * W_i, written by walsh_function with no arithmetic, and the
    count of zeros in each coset picks that path; one transform spreads
    every other touched coset, if any, over the columns by walsh_batch,
    however many there are.  A list form is gathered whole from its list
    through _blade_at's itemgetters, and all 2^m cosets go through one
    transform: from m = _KEEP_M on, when _fits_word says that the lanes
    for its _bound() fit a word, the column kernel, on the rows that
    bits._pack makes of the numerators in lane order, entry i of coset g
    at i * 2^m + g, negating the cosets of sign -1 (_coset_signs), and
    the result keeps the transformed rows as its columns; else the list
    stages.  An untouched coset comes out all zero and is dropped.
    """
    if not isinstance(x, Multivector):
        raise TypeError("blades_to_efb needs a Multivector operand")
    _check_m(m)
    metric = Metric.interleaved(m)
    if x.metric is not metric and x.metric != metric:
        raise MetricError(f"multivector is not over interleaved Cl({m},{m})")
    dim, vec = 1 << m, x._vec
    if vec is None:
        low = dim - 1
        lo, hi, _, _ = _slot_tables(m)
        cosets: dict[int, list] = {}
        for mask, n in x._map.items():
            t = lo[mask & low] ^ hi[mask >> m]
            g = t >> m
            v = cosets.get(g)
            if v is None:
                v = cosets[g] = [0] * dim
            # (-1)^C(popcount g, 2)
            v[t & low] = -n if g.bit_count() & 2 else n
        # the transform is invertible, so a touched coset stays nonzero on
        # either path
        batch = []
        for g, v in cosets.items():
            if v.count(0) == low:  # dim - 1 zeros: one blade
                i = next(compress(range(dim), v))
                cosets[g] = walsh_function(v[i], i, m)
            else:
                batch.append(g)
        if batch:
            cosets.update(zip(batch, walsh_batch(
                list(chain.from_iterable(map(cosets.get, batch))), m)))
        return EFBMultivector._from_ints(m, cosets, x._e)
    _, in_cosets, in_lanes, _ = _blade_at(m)
    bits = x._bound()
    if m >= _KEEP_M and _fits_word(bits, m):
        # lanes that hold the product of two such operands as well, up to
        # a word; an entry sums 2^m numerators, which bounds it
        size = min(_width(2 * (bits + m) + m + 1), 64) >> 3
        rows = _pack(in_lanes(vec), size, dim, _coset_signs(m))
        return EFBMultivector._from_columns(
            m, _columns(rows, m, size)[0], size, x._e, bits + m)
    out = list(in_cosets(vec))  # the list stages, the signs on the lists
    for g in range(dim):  # (-1)^C(popcount g, 2) on each coset
        if g.bit_count() & 2:
            span = slice(g * dim, (g + 1) * dim)
            out[span] = map(neg, out[span])
    out = _stages(out, m)
    return EFBMultivector._from_ints(
        m, {g: out[g::dim] for g in range(dim)}, x._e, bits + m)


def efb_to_blades(x: EFBMultivector) -> Multivector:
    """Inverse change of basis: the transform's 2^-m joins the exponent.

    A coset equal to c * W_i, as walsh_index reads it off, is the one
    blade c * 2^m at i.  One transform, the list stages of walsh_batch,
    takes every other coset back, if any, and its nonzero entries are
    read out.  A matrix that keeps columns is read out instead by
    _dense_to_blades, through the column kernel, when _fits_word says
    that the lanes for its _bound() fit a word.  Terms come by ascending
    coset, then by Walsh index, on both paths.
    """
    if not isinstance(x, EFBMultivector):
        raise TypeError("efb_to_blades needs an EFBMultivector operand")
    m, dim = x.m, x.dim
    # kept columns go to the read-out whole, with no look at a coset
    if x._cols and _fits_word(x._bound(), m):
        return _dense_to_blades(x)
    cosets = x._cosets.items()
    found = [walsh_index(v, m) for _, v in cosets]
    _, _, join_i, join_g = _slot_tables(m)
    # the transform is its own inverse up to the factor 2^m; a matrix of
    # Walsh functions alone leaves nothing to transform
    if -1 in found:
        spread = iter(walsh_batch(list(chain.from_iterable(
            v for (_, v), i in zip(cosets, found) if i < 0)), m))
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
    return Multivector._raw(Metric.interleaved(m), terms, x._e + m)


def _dense_to_blades(x: EFBMultivector) -> Multivector:
    """efb_to_blades of all 2^m cosets, which efb_to_blades takes for a
    matrix that keeps columns: the column kernel runs on the packed
    columns, sized by _bound(), lowers the exponent on them, and every
    term is read out in C.

    The lanes of the cosets of sign -1 are negated in offset form, by
    bits._negate on kept columns wide enough for the transform, else as
    _flat() is packed at that width; only the transformed rows are
    unpacked.  Entry i of coset g comes out at i * 2^m + g.  When the
    blade engine's storage rule lists the product, one itemgetter of
    _blade_at takes those lanes into mask order, the list the result
    adopts.  Otherwise the terms are the dict, by ascending coset, then
    by Walsh index, of the other path: the blade at coset-major position
    g * 2^m + i is _blade_at(m)[0][g * 2^m + i], and compress keeps the
    nonzero ones.  The shift leaves some numerator odd or the exponent
    0, so the result is in canonical form, and an entry sums 2^m
    numerators, which bounds it.
    """
    m, dim, e = x.m, x.dim, x._e + x.m
    bits, signs = x._bound() + m, _coset_signs(m)
    size = _width(bits + 1) >> 3
    if x._cols and x._cols[1] >= size:
        cols, size = x._cols
        cols = _negate(cols, size, dim, signs)
    else:  # lanes too narrow for the transform, or lists only
        cols = _pack(x._flat(), size, dim, signs)
    out, shift = _columns(cols, m, size, e)
    out = _unpack(out, size, dim)
    nnz = len(out) - out.count(0)
    by_coset, _, _, in_masks = _blade_at(m)
    if _listed(nnz, 2 * m):
        nums = list(in_masks(out))
    else:
        w = list(chain.from_iterable(out[g::dim] for g in range(dim)))
        nums = dict(zip(compress(by_coset, w), compress(w, w)))
    return Multivector._adopt(Metric.interleaved(m), nums, nnz, e - shift,
                              max(bits - shift, 0))
