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

The matrix is stored by column coset: the entries (a, a ^ g) for one
g = row ^ col, the per-slot letter-count parity of the word.  Coset g
times coset h lands in coset g ^ h, just as blade a times blade b lands
at a ^ b, so the product is an XOR-graded sweep over pairs of stored
cosets.  A blade lies in one coset, g = b0 ^ b1, where the masks b0 and
b1 (slot 1 on top) hold the presence bits of g_{2s-1} and of g_{2s}.
Its entries there, normalization included, are the Walsh function
coeff * (-1)^(popcount(b1 & g) + popcount(a & i)) with
i = b1 ^ parity_above(g), so each change of basis is one Walsh-Hadamard
transform per stored coset.

Coefficients are int or DyadicRational.  The product and both
conversions scale each operand on entry to integer numerators over its
largest exponent (dyadic._scale_in), run their loops and transforms on
plain ints, and reduce each output entry once (dyadic._scale_out).  A
product adds the two exponents; efb_to_blades adds m, which is where
the 2^-m of the inverse transform goes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .bits import parity_above, walsh_hadamard
from .blades import (Metric, MetricError, Multivector, mv_mul,
                     volume_element)
from .dyadic import DyadicRational, _scale_in, _scale_out
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
        if self.m < 1:
            raise ValueError("m must be at least 1")
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
    if m < 1:
        raise ValueError("m must be at least 1")
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
    dim = 1 << m
    if not (0 <= a < dim and 0 <= b < dim and 0 <= d < dim):
        raise ValueError(f"index out of range for m={m}")
    return -1 if ((a ^ b) & parity_above(b ^ d)).bit_count() & 1 else 1


class EFBMultivector:
    """A 2^m x 2^m coefficient matrix over the normalized matrix units,
    stored by column coset.

    Entry (a, b) is the coefficient of normalization_sign(a, b) *
    word(a, b); only the conversions to and from blades know that sign,
    which is +1 on the diagonal.  _cosets[g][a] holds entry (a, a ^ g),
    and a coset is absent exactly when all its entries are zero, so
    equality is a dict comparison.  Coset g times coset h lands in coset
    g ^ h.  nonzero() yields entries in coset order, then by row.

    Coefficients are int or DyadicRational; scaling by any other scalar
    returns NotImplemented.  Treated as immutable.
    """

    __slots__ = ("m", "_cosets")

    def __init__(self, m: int, entries=None):
        _check_m(m)
        dim = 1 << m
        cosets: dict[int, list] = {}
        if entries:
            for (a, b), coeff in dict(entries).items():
                if not (0 <= a < dim and 0 <= b < dim):
                    raise ValueError(f"entry ({a}, {b}) out of range for m={m}")
                if not isinstance(coeff, (int, DyadicRational)):
                    raise TypeError(
                        "coefficients must be int or DyadicRational")
                if coeff:
                    cosets.setdefault(a ^ b, [0] * dim)[a] = coeff
        self.m = m
        self._cosets = cosets

    @classmethod
    def _from_cosets(cls, m: int, cosets: dict) -> "EFBMultivector":
        """Adopt the coset lists, dropping the all-zero ones."""
        x = cls(m)
        x._cosets = {g: v for g, v in cosets.items() if any(v)}
        return x

    @classmethod
    def _from_ints(cls, m: int, cosets: dict, e: int) -> "EFBMultivector":
        """Adopt integer coset lists over 2^e, reducing each entry once."""
        x = cls(m)
        x._cosets = {g: _scale_out(v, e) for g, v in cosets.items() if any(v)}
        return x

    def _scaled_cosets(self) -> tuple[list, int]:
        """([(g, integer coset list)], e): the entries over 2^e."""
        keys = list(self._cosets)
        flat, e = _scale_in([c for g in keys for c in self._cosets[g]])
        dim = self.dim
        return [(g, flat[i * dim:(i + 1) * dim])
                for i, g in enumerate(keys)], e

    @classmethod
    def zeros(cls, m: int) -> "EFBMultivector":
        return cls(m)

    @classmethod
    def identity(cls, m: int) -> "EFBMultivector":
        """Expansion of the scalar 1: +1 on the whole diagonal."""
        return cls._from_cosets(m, {0: [1] * (1 << m)})

    @classmethod
    def volume(cls, m: int) -> "EFBMultivector":
        """Expansion of the volume element: (-1)^popcount(a) at (a, a)."""
        return cls._from_cosets(m, {0: [-1 if a.bit_count() & 1 else 1
                                        for a in range(1 << m)]})

    @property
    def dim(self) -> int:
        return 1 << self.m

    def entry(self, a: int, b: int):
        v = self._cosets.get(a ^ b)
        return v[a] if v else 0

    def nonzero(self):
        for g in sorted(self._cosets):
            for a, coeff in enumerate(self._cosets[g]):
                if coeff:
                    yield a, a ^ g, coeff

    def __eq__(self, other):
        if not isinstance(other, EFBMultivector):
            return NotImplemented
        return self.m == other.m and self._cosets == other._cosets

    __hash__ = None

    def _map(self, f):
        return EFBMultivector._from_cosets(
            self.m, {g: [f(v) if v else v for v in vs]
                     for g, vs in self._cosets.items()})

    def __add__(self, other):
        if not isinstance(other, EFBMultivector) or other.m != self.m:
            return NotImplemented
        zeros = [0] * self.dim
        return EFBMultivector._from_cosets(self.m, {
            g: [va + vb for va, vb in zip(self._cosets.get(g, zeros),
                                          other._cosets.get(g, zeros))]
            for g in self._cosets.keys() | other._cosets.keys()})

    def __sub__(self, other):
        if not isinstance(other, EFBMultivector) or other.m != self.m:
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self._map(lambda v: -v)

    def __mul__(self, other):
        if isinstance(other, EFBMultivector):
            return efb_product(self, other)
        if isinstance(other, (int, DyadicRational)):
            return self._map(lambda v: v * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, DyadicRational)):
            return self._map(lambda v: other * v)
        return NotImplemented

    def __repr__(self):
        nnz = sum(1 for _ in self.nonzero())
        return f"<EFBMultivector m={self.m} nnz={nnz}>"


def efb_product(x: EFBMultivector, y: EFBMultivector) -> EFBMultivector:
    """Plain matrix product in the matrix-unit basis, graded by coset.

    Entry (a, a ^ g) of x meets row a ^ g of y, so coset g times coset h
    is out[g ^ h][a] += x[g][a] * y[h][a ^ g], with no sign, summed on
    integer numerators over 2^(ex + ey).  The executed triple count goes
    to the op counters (8^m on dense operands).
    """
    if not isinstance(x, EFBMultivector) or not isinstance(y, EFBMultivector):
        raise TypeError("efb_product needs two EFBMultivector operands")
    if x.m != y.m:
        raise ValueError("operands have different m")
    m = x.m
    dim = 1 << m
    xcosets, ex = x._scaled_cosets()
    ycosets, ey = y._scaled_cosets()
    out: dict[int, list] = {}
    triples = 0
    for g, xv in xcosets:
        xs = [(a, a ^ g, xi) for a, xi in enumerate(xv) if xi]
        for h, yv in ycosets:
            ov = out.setdefault(g ^ h, [0] * dim)
            triples += len(xs)  # a zero of y takes one back below
            for a, b, xi in xs:
                zeta = yv[b]
                if zeta:
                    ov[a] += xi * zeta
                else:
                    triples -= 1
    counters.efb_triples += triples
    return EFBMultivector._from_ints(m, out, ex + ey)


def _slot_masks(mask: int, m: int) -> tuple[int, int]:
    """(b0, b1): the presence bits of g_{2s-1} and of g_{2s}, slot 1 on top."""
    b0 = b1 = 0
    for i in range(0, 2 * m, 2):
        b0 = (b0 << 1) | ((mask >> i) & 1)
        b1 = (b1 << 1) | ((mask >> (i + 1)) & 1)
    return b0, b1


def _blade_mask(b0: int, b1: int, m: int) -> int:
    """Inverse of _slot_masks."""
    mask = 0
    for _ in range(m):
        mask = (mask << 2) | ((b1 & 1) << 1) | (b0 & 1)
        b0, b1 = b0 >> 1, b1 >> 1
    return mask


def blades_to_efb(x: Multivector, m: int) -> EFBMultivector:
    """Change of basis from blades; requires the interleaved Cl(m,m) metric."""
    if x.metric != Metric.interleaved(m):
        raise MetricError(f"multivector is not over interleaved Cl({m},{m})")
    _check_m(m)
    dim = 1 << m
    coeffs, e = _scale_in(list(x._terms.values()))
    cosets: dict[int, list] = {}
    for mask, coeff in zip(x._terms, coeffs):
        b0, b1 = _slot_masks(mask, m)
        g = b0 ^ b1
        v = cosets.setdefault(g, [0] * dim)
        v[b1 ^ parity_above(g)] = -coeff if (b1 & g).bit_count() & 1 else coeff
    for v in cosets.values():
        walsh_hadamard(v)  # invertible, so a touched coset stays nonzero
    return EFBMultivector._from_ints(m, cosets, e)


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
    terms: dict[int, int] = {}
    cosets, e = x._scaled_cosets()
    for g, v in cosets:
        walsh_hadamard(v)  # its own inverse up to the factor 2^m
        above = parity_above(g)
        for i, coeff in enumerate(v):
            if coeff:
                b1 = i ^ above
                terms[_blade_mask(b1 ^ g, b1, m)] = (
                    -coeff if (b1 & g).bit_count() & 1 else coeff)
    return Multivector._raw(Metric.interleaved(m), dict(
        zip(terms, _scale_out(terms.values(), e + m))))


def normalization_sign(a: int, b: int, m: int) -> int:
    """Sign turning the basis word at (a, b) into an honest matrix unit.

    Anchored at row 0, whose words all carry +; the sign for the other
    rows counts the crossings of the h bits against the word's own odd
    slots earlier in slot order: the sign_s form on (a, a^b).
    """
    dim = 1 << m
    if not (0 <= a < dim and 0 <= b < dim):
        raise ValueError(f"index out of range for m={m}")
    return -1 if (a & parity_above(a ^ b)).bit_count() & 1 else 1


def matrix_unit_normalization(m: int) -> dict:
    """All normalization signs, keyed by EFBIndex."""
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
    dim = 1 << m
    out = []
    for a in range(dim):
        for b in range(dim):
            e = efb_element(a, b, m)
            out.append((a, b, normalization_sign(a, b, m), e.word_str()))
    return out
