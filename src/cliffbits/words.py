"""Basis words of the extended Fock basis of Cl(m, m), and their oracles.

Basis words over the null vectors p_i = (g_{2i-1} + g_{2i})/2 and
q_i = (g_{2i-1} - g_{2i})/2 take one block per slot i, each block one of
q_i p_i, p_i q_i, p_i, q_i.  Two m-bit signatures classify a word:
h (first letter per slot: q -> +, p -> -) and g (letter-count parity per
slot: even -> +).  Rows are indexed by h, columns by the entrywise
product h o g, with slot 1 in the most significant bit and bit values
0 <-> + and 1 <-> -.  In this indexing word(a,b) * word(b,d) is
sign_s(a,b,d) * word(a,d), a GF(2) bilinear sign.  Scaled by
normalization_sign, the words become honest matrix units whose product
has no sign at all: the basis the efb engine stores its matrices in.

This module is the word calculus that engine is checked against: word
expansions over blades, explicit normal ordering, the two signs, the
volume-element eigenvalues and the signed-word table.  It shares the
engine's bound on m (efb._check_m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .bits import parity_above
from .blades import Metric, Multivector, mv_mul, volume_element
from .dyadic import DyadicRational
from .efb import _check_m

# slot content keyed by (h bit, g bit): h bit 0 means the first letter
# is q, g bit 0 means an even letter count
_SLOT_CODE = {(0, 0): "qp", (0, 1): "q", (1, 0): "pq", (1, 1): "p"}


def _check_indices(m: int, *indices: int) -> None:
    """Reject an m or index that is no int (a bool included, as in
    efb._check_entry), m < 1 and any index outside 0 .. 2^m - 1,
    building no 2^m."""
    if any(type(i) is not int for i in (m, *indices)):
        raise TypeError(f"m and indices must be ints, got {m!r}, {indices!r}")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if any(i >> m for i in indices):  # -1 or less for a negative i
        raise ValueError(f"index out of range for m={m}")


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
        _check_indices(self.m, self.row, self.col)

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
    _check_indices(m, a, b, d)
    return -1 if ((a ^ b) & parity_above(b ^ d)).bit_count() & 1 else 1


def word_multivector(e: EFBElement) -> Multivector:
    """Blade expansion of a basis word, letter by letter: the oracle."""
    p, q = witt_basis(e.index.m)
    out = Multivector.scalar(p[0].metric, 1)
    for slot, code in enumerate(e.word):
        for ch in code:
            out = mv_mul(out, (q if ch == "q" else p)[slot])
    return out


def normalization_sign(a: int, b: int, m: int) -> int:
    """Sign turning the basis word at (a, b) into an honest matrix unit.

    Anchored at row 0, whose words all carry +; the sign for the other
    rows counts the crossings of the h bits against the word's own odd
    slots earlier in slot order: the sign_s form on (a, a^b).
    """
    _check_indices(m, a, b)
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
