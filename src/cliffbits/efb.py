"""Extended Fock basis engine for the neutral algebras Cl(m, m).

Basis words over the null vectors p_i = (g_{2i-1} + g_{2i})/2 and
q_i = (g_{2i-1} - g_{2i})/2 take one block per slot i, each block one of
q_i p_i, p_i q_i, p_i, q_i.  Two m-bit signatures classify a word:
h (first letter per slot: q -> +, p -> -) and g (letter-count parity per
slot: even -> +).  Rows are indexed by h, columns by the entrywise
product h o g, with slot 1 in the most significant bit and bit values
0 <-> + and 1 <-> -.  In this indexing word(a,b) * word(b,d) is
sign_s(a,b,d) * word(a,d), a GF(2) bilinear sign.  Scaled by
normalization_sign, the words become honest matrix units whose product
has no sign at all, so the Clifford product is a plain matrix product:
one factor of 2^m cheaper than blade-pair convolution on dense operands.

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
maps are XOR-linear, tabulated per m by xor_span.

An EFBMultivector holds plain-int numerators over one shared
denominator 2^_e, in canonical form, as a Multivector does, so the
conversions and the product hand those ints to each other unchanged:
blades_to_efb keeps the blade exponent, efb_product adds the two
exponents, and efb_to_blades adds m, which is where the 2^-m of the
inverse transform goes.  Reduced DyadicRationals are built only where a
coefficient leaves (entry, nonzero).

efb_product has two kernels with equal results and triple counts.  The
coset sweep runs out[g ^ h][d] += x[g][d ^ h] * y[h][d] over pairs of
stored cosets, one interpreted multiply-add per triple.  The packed
kernel writes each row of y into the binary digits of one int
(Kronecker substitution), so a row of the product is one sum of
big-int multiplies, run in C.  It pays for every lane of a row of y,
stored or not, and for lanes twice as wide as the coefficients, so it
loses on sparse or wide operands; efb_product takes it only when y
stores at least a quarter plus W/1024 of the cosets, W being the lane
width in bits (_packed_width).  The rule reads the operands alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from operator import or_
from typing import NamedTuple

from .bits import parity_above, walsh_batch, xor_span
from .blades import (Metric, MetricError, Multivector, mv_mul,
                     volume_element)
from .dyadic import DyadicRational, _common_shift, _pair, _reduced, _scale_in
from .instrument import counters

# slot content keyed by (h bit, g bit): h bit 0 means the first letter
# is q, g bit 0 means an even letter count
_SLOT_CODE = {(0, 0): "qp", (0, 1): "q", (1, 0): "pq", (1, 1): "p"}

# largest m an EFBMultivector is built for: 4^m entries when dense
MAX_M = 8


def _check_m(m: int) -> None:
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m must be between 1 and {MAX_M}, got {m}")


def sig_label(bits: int, m: int) -> str:
    """Render an index as its sign string, slot 1 first: 2 -> '-+' for m=2."""
    return "".join("-" if (bits >> (m - s)) & 1 else "+" for s in range(1, m + 1))


@dataclass(frozen=True)
class EFBIndex:
    """(row, col) address of a basis word: row = h, col = h o g."""

    row: int
    col: int
    m: int

    def __post_init__(self):
        _check_m(self.m)
        dim = 1 << self.m
        if not (0 <= self.row < dim and 0 <= self.col < dim):
            raise ValueError(f"index out of range for m={self.m}")

    @property
    def row_label(self) -> str:
        return sig_label(self.row, self.m)

    @property
    def col_label(self) -> str:
        return sig_label(self.col, self.m)


@dataclass(frozen=True)
class EFBElement:
    """A basis word: its index and the per-slot letter blocks."""

    index: EFBIndex
    word: tuple[str, ...]

    def word_str(self) -> str:
        return " ".join("".join(f"{ch}{i}" for ch in code)
                        for i, code in enumerate(self.word, 1))


class ChiralityRecord(NamedTuple):
    """Products of the per-slot signs: the two volume-element eigenvalues."""

    h_hat: int
    g_hat: int


def efb_element(row: int, col: int, m: int) -> EFBElement:
    """The basis word sitting at (row, col)."""
    idx = EFBIndex(row, col, m)
    word = []
    for slot in range(1, m + 1):
        pos = m - slot
        hb = (row >> pos) & 1
        gb = hb ^ ((col >> pos) & 1)  # g = h * (h o g)
        word.append(_SLOT_CODE[(hb, gb)])
    return EFBElement(idx, tuple(word))


def signatures(e: EFBElement):
    """Per-slot h and g sign tuples plus their products, read off the
    index: h is row and g is row ^ col, slot 1 in the top bit."""
    m, h = e.index.m, e.index.row
    g = h ^ e.index.col
    slots = range(m - 1, -1, -1)  # bit positions, slot 1 first
    return (tuple(1 - 2 * ((h >> i) & 1) for i in slots),
            tuple(1 - 2 * ((g >> i) & 1) for i in slots),
            ChiralityRecord(1 - 2 * (h.bit_count() & 1),
                            1 - 2 * (g.bit_count() & 1)))


def witt_basis(m: int):
    """The null vectors ([p_1..p_m], [q_1..q_m]) over interleaved Cl(m,m)."""
    _check_m(m)
    metric = Metric.interleaved(m)
    half = DyadicRational(1, 1)
    p, q = [], []
    for i in range(1, m + 1):
        plus, minus = 1 << (2 * i - 2), 1 << (2 * i - 1)
        p.append(Multivector(metric, {plus: half, minus: half}))
        q.append(Multivector(metric, {plus: half, minus: -half}))
    return p, q


def normal_order(letters):
    """Normal-order a word over the null letters.

    letters: sequence of (slot, 'p' or 'q') pairs.  Sorts by slot with a
    sign flip per transposition of distinct-slot letters (they all
    anticommute), then reduces each slot string with pp = qq = 0 and
    pqp = p, qpq = q.  Returns (sign, {slot: string}) or (0, None) when
    the word is annihilated.
    """
    arr = list(letters)
    sign = 1
    for i in range(1, len(arr)):  # stable insertion sort, counting inversions
        j = i
        while j and arr[j - 1][0] > arr[j][0]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    slots: dict[int, str] = {}
    for slot, ch in arr:
        slots[slot] = slots.get(slot, "") + ch
    reduced: dict[int, str] = {}
    for slot, s in slots.items():
        if "pp" in s or "qq" in s:
            return 0, None
        # an alternating string keeps its first letter and length parity
        reduced[slot] = s if len(s) <= 2 else (s[0] if len(s) & 1 else s[:2])
    return sign, reduced


def _word_letters(e: EFBElement):
    return [(slot, ch) for slot, code in enumerate(e.word, 1) for ch in code]


def word_product_oracle(a: int, b: int, c: int, d: int, m: int):
    """Product of two basis words by explicit normal ordering.

    Returns (sign, EFBElement); the element is None and the sign 0 when
    the product vanishes (which happens exactly when b != c).
    """
    letters = _word_letters(efb_element(a, b, m)) + _word_letters(efb_element(c, d, m))
    sign, slots = normal_order(letters)
    if slots is None:
        return 0, None
    row = col = 0
    for slot in range(1, m + 1):
        s = slots[slot]
        hb = 0 if s[0] == "q" else 1
        gb = len(s) & 1
        pos = m - slot
        row |= hb << pos
        col |= (hb ^ gb) << pos
    return sign, efb_element(row, col, m)


def sign_s(a: int, b: int, d: int, m: int) -> int:
    """The sign in word(a,b) * word(b,d) = s * word(a,d).

    Each odd slot of the first word crosses the odd slots of the second
    word that come before it in slot order (higher bits):
    (-1)^popcount((a^b) & parity_above(b^d)).  A word-coordinate oracle:
    efb_product works on matrix units and needs no sign.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if a < 0 or b < 0 or d < 0 or a >> m or b >> m or d >> m:
        raise ValueError(f"index out of range for m={m}")
    return -1 if ((a ^ b) & parity_above(b ^ d)).bit_count() & 1 else 1


def _canonical(cosets: dict, e: int) -> tuple[dict, int]:
    """(cosets, e) with the all-zero cosets dropped and e lowered while
    every numerator is even: the one form equal matrices share."""
    cosets = {g: v for g, v in cosets.items() if any(v)}
    shift = _common_shift(map(partial(reduce, or_), cosets.values()), e)
    if shift:
        cosets = {g: [n >> shift for n in v] for g, v in cosets.items()}
    return cosets, e - shift


class EFBMultivector:
    """A 2^m x 2^m coefficient matrix over the normalized matrix units,
    stored by column coset as integer numerators over one 2^_e.

    Entry (a, b) is the coefficient of normalization_sign(a, b) *
    word(a, b); only the conversions to and from blades know that sign,
    which is +1 on the diagonal.  _cosets[g][b] is the numerator of
    entry (b ^ g, b): each coset is stored by column, so the image of
    one blade is one Walsh function of the column index times one sign,
    (-1)^C(popcount(g), 2).  The form is canonical: a coset is absent
    exactly when all its entries are zero, and _e is 0 or some numerator
    is odd, so equality compares (m, _e, _cosets).  Coset g times coset h
    lands in coset g ^ h.  entry() and nonzero() give each nonzero entry
    as a reduced DyadicRational; nonzero() yields them in coset order,
    then by row.

    Coefficients are int or DyadicRational; scaling by any other scalar
    returns NotImplemented.  Treated as immutable.
    """

    __slots__ = ("m", "_e", "_cosets")

    def __init__(self, m: int, entries=None):
        _check_m(m)
        dim = 1 << m
        cosets: dict[int, list] = {}
        if entries:
            for (a, b), coeff in dict(entries).items():
                if not (0 <= a < dim and 0 <= b < dim):
                    raise ValueError(f"entry ({a}, {b}) out of range for m={m}")
                cosets.setdefault(a ^ b, [0] * dim)[b] = coeff
        # scaled in coset order, the order the kernels read them in
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
        v = self._cosets.get(a ^ b)
        n = v[b] if v else 0
        return _reduced(n, self._e) if n else 0

    def nonzero(self):
        e = self._e
        for g in sorted(self._cosets):
            v = self._cosets[g]
            for a in range(self.dim):
                n = v[a ^ g]
                if n:
                    yield a, a ^ g, _reduced(n, e)

    def __eq__(self, other):
        if not isinstance(other, EFBMultivector):
            return NotImplemented
        return (self.m, self._e, self._cosets) == (
            other.m, other._e, other._cosets)

    __hash__ = None

    def _scaled(self, numerator: int, exponent: int) -> "EFBMultivector":
        return EFBMultivector._from_ints(
            self.m, {g: [n * numerator for n in v]
                     for g, v in self._cosets.items()}, self._e + exponent)

    def __add__(self, other):
        if not isinstance(other, EFBMultivector) or other.m != self.m:
            return NotImplemented
        e = max(self._e, other._e)
        sa, sb = e - self._e, e - other._e
        zeros = [0] * self.dim
        return EFBMultivector._from_ints(self.m, {
            g: [(na << sa) + (nb << sb)
                for na, nb in zip(self._cosets.get(g, zeros),
                                  other._cosets.get(g, zeros))]
            for g in self._cosets.keys() | other._cosets.keys()}, e)

    def __sub__(self, other):
        if not isinstance(other, EFBMultivector) or other.m != self.m:
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self._scaled(-1, 0)

    def __mul__(self, other):
        if isinstance(other, EFBMultivector):
            return efb_product(self, other)
        return self.__rmul__(other)

    def __rmul__(self, other):
        pair = _pair(other)  # scalars commute with the matrix
        if pair is None:
            return NotImplemented
        return self._scaled(*pair)

    def __repr__(self):
        nnz = sum(1 for _ in self.nonzero())
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

    Per nonzero of x, the packed kernel multiplies against a whole row
    of y, 2^m lanes of W bits, stored or not; the sweep runs one
    interpreted multiply-add per coset y stores.  The sweep's
    interpreter overhead weighs less as W grows, so the packed kernel
    runs only when y stores at least 1/4 + W/1024 of the cosets, which
    rules out lanes above 768 bits.  The measured crossovers at m = 5
    and 6 lie below that line.
    """
    stored, dim = len(y._cosets), x.dim
    if 4 * stored < dim:  # implied below; spares a sparse y the width scan
        return 0
    width = _lane_width(x, y)
    return width if 1024 * stored >= dim * (256 + width) else 0


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


def _bits(x: EFBMultivector) -> int:
    """Bit length of the largest numerator magnitude of x."""
    return max((max(max(v), -min(v)).bit_length()
                for v in x._cosets.values()), default=0)


def _lane_width(x: EFBMultivector, y: EFBMultivector) -> int:
    """Bits, a whole number of bytes, that hold any entry of x * y plus
    half the lane: |entry| < 2^(bits(x) + bits(y) + m)."""
    return (_bits(x) + _bits(y) + x.m + 8) >> 3 << 3


def _packed(x: EFBMultivector, y: EFBMultivector,
            width: int) -> tuple[dict, int]:
    """(output cosets, triples) by Kronecker substitution.

    Row b of y becomes the single int R_b = sum_d y[b][d] * 2^(width*d),
    so row a of the product is the int sum_b x[a][b] * R_b: one big-int
    multiply-add per nonzero of x.  Every entry of the product has
    magnitude below 2^(width - 1), so adding half of each lane turns
    that sum into width-bit digits, read back with one to_bytes per row.
    Only the lanes of the cosets g ^ h that x and y can reach are read.
    The triple count is computed, not executed: sum over b of
    nnz(column b of x) * nnz(row b of y).
    """
    dim, size = x.dim, width >> 3
    half = 1 << (width - 1)
    bias = int.from_bytes(half.to_bytes(size, "little") * dim, "little")
    lanes = [[half] * dim for _ in range(dim)]
    row_nnz = [0] * dim
    for h, yv in y._cosets.items():
        for d, n in enumerate(yv):
            if n:
                lanes[d ^ h][d] += n
                row_nnz[d ^ h] += 1
    rows = [int.from_bytes(b"".join(v.to_bytes(size, "little") for v in lane),
                           "little") - bias if k else 0
            for lane, k in zip(lanes, row_nnz)]
    out = {g ^ h: [0] * dim for g in x._cosets for h in y._cosets}
    targets = list(out.items())
    xitems = list(x._cosets.items())
    triples = 0
    for a in range(dim):
        acc = 0
        for g, xv in xitems:
            b = a ^ g  # entry (a, b) of x sits at column b of coset g
            xi = xv[b]
            if xi:
                acc += xi * rows[b]
                triples += row_nnz[b]
        if acc:
            digits = (acc + bias).to_bytes(size * dim, "little")
            for k, ov in targets:
                d = a ^ k
                ov[d] = int.from_bytes(digits[d * size:(d + 1) * size],
                                       "little") - half
    return out, triples


def _slot_tables(m: int) -> tuple[list, list, list, list]:
    """The blade mask <-> (i, g) maps at one m, as lookups over m bits.

    b0 and b1 hold the presence bits of g_{2s-1} and of g_{2s}, slot 1
    on top; a blade lies in coset g = b0 ^ b1 at Walsh index
    i = b1 ^ parity_above(g).  parity_above is XOR-linear, so both maps
    are, and xor_span tabulates each from the images of the single bits.
    A 2m-bit mask splits as lo[low m bits] ^ hi[high m bits], read as
    i | g << 8, and joins back as join_i[i] ^ join_g[g].
    """
    def split(j: int) -> int:  # generator g_{j+1} lies in slot j // 2 + 1
        g = 1 << (m - 1 - j // 2)
        return ((j & 1) * g ^ parity_above(g)) | g << 8

    # i sets both generators of its slots; g sets g_{2s-1} of its slots
    # and undoes the parity_above(g) part of i
    join_i = xor_span([3 << 2 * (m - 1 - p) for p in range(m)])
    join_g = xor_span([1 << 2 * (m - 1 - p) ^ join_i[parity_above(1 << p)]
                       for p in range(m)])
    return (xor_span(map(split, range(m))),
            xor_span(map(split, range(m, 2 * m))), join_i, join_g)


# 4 * 2^m ints per m, 2040 in all
_SLOTS = [None] + [_slot_tables(m) for m in range(1, MAX_M + 1)]


def blades_to_efb(x: Multivector, m: int) -> EFBMultivector:
    """Change of basis from blades; requires the interleaved Cl(m,m) metric.

    Each blade writes its signed numerator at its Walsh index, and one
    transform per operand spreads every touched coset over the columns.
    """
    _check_m(m)
    if x.metric != Metric.interleaved(m):
        raise MetricError(f"multivector is not over interleaved Cl({m},{m})")
    dim, low = 1 << m, (1 << m) - 1
    lo, hi, _, _ = _SLOTS[m]
    cosets: dict[int, list] = {}
    for mask, n in x._nums.items():
        t = lo[mask & low] ^ hi[mask >> m]
        g = t >> 8
        v = cosets.get(g)
        if v is None:
            v = cosets[g] = [0] * dim
        v[t & 0xFF] = -n if g.bit_count() & 2 else n  # (-1)^C(popcount g, 2)
    # invertible, so a touched coset stays nonzero
    cosets = dict(zip(cosets, walsh_batch(cosets.values(), m)))
    return EFBMultivector._from_ints(m, cosets, x._e)


def word_multivector(e: EFBElement) -> Multivector:
    """Blade expansion of a basis word, letter by letter: the oracle."""
    p, q = witt_basis(e.index.m)
    out = Multivector.scalar(p[0].metric, 1)
    for slot, code in enumerate(e.word):
        for ch in code:
            out = mv_mul(out, (q if ch == "q" else p)[slot])
    return out


def efb_to_blades(x: EFBMultivector) -> Multivector:
    """Inverse change of basis: the transform's 2^-m joins the exponent."""
    m = x.m
    _, _, join_i, join_g = _SLOTS[m]
    terms: dict[int, int] = {}
    # the transform is its own inverse up to the factor 2^m
    for g, v in zip(x._cosets, walsh_batch(x._cosets.values(), m)):
        base, flip = join_g[g], g.bit_count() & 2
        for i, n in enumerate(v):
            if n:
                terms[join_i[i] ^ base] = -n if flip else n
    return Multivector._raw(Metric.interleaved(m), terms, x._e + m)


def normalization_sign(a: int, b: int, m: int) -> int:
    """Sign turning the basis word at (a, b) into an honest matrix unit.

    Anchored at row 0, whose words all carry +; the sign for the other
    rows counts the crossings of the h bits against the word's own odd
    slots earlier in slot order: the sign_s form on (a, a^b).
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if a < 0 or b < 0 or a >> m or b >> m:
        raise ValueError(f"index out of range for m={m}")
    return -1 if (a & parity_above(a ^ b)).bit_count() & 1 else 1


def matrix_unit_normalization(m: int) -> dict:
    """All normalization signs, keyed by EFBIndex."""
    _check_m(m)
    dim = 1 << m
    return {EFBIndex(a, b, m): normalization_sign(a, b, m)
            for a in range(dim) for b in range(dim)}


def omega_eigen_check(e: EFBElement) -> tuple[int, int]:
    """Eigenvalues of the volume element acting on a basis word.

    Computed via the blade oracle; returns (right, left) where
    w * word = right * word and word * w = left * word.
    """
    m = e.index.m
    metric = Metric.interleaved(m)
    w = Multivector.from_blade(metric, volume_element(metric))
    psi = word_multivector(e)
    return _eigen(mv_mul(w, psi), psi), _eigen(mv_mul(psi, w), psi)


def _eigen(product: Multivector, psi: Multivector) -> int:
    if product == psi:
        return 1
    if product == -psi:
        return -1
    raise ArithmeticError("word is not an eigenvector")  # cannot happen


def table_entries(m: int):
    """The signed-word table: (row, col, sign, word string) in row order."""
    _check_m(m)
    dim = 1 << m
    out = []
    for a in range(dim):
        for b in range(dim):
            e = efb_element(a, b, m)
            out.append((a, b, normalization_sign(a, b, m), e.word_str()))
    return out
