import random
import re
from functools import partial
from itertools import chain

import pytest
from hypothesis import given, strategies as st

from cliffbits import (bit, bit_to_sign, half_pochhammer_sign, lucas_sign,
                       neg_mod8, parity_above, sign_bit, sign_to_bit,
                       walsh_hadamard)
from cliffbits import bits
from cliffbits.bits import walsh_batch, walsh_function, walsh_index, xor_span
from cliffbits.verify import _column_kernel


def test_bit_extraction():
    assert bit(0b1010, 1) == 1
    assert bit(0b1010, 0) == 0
    assert bit(0b1010, 3) == 1
    assert bit(0, 5) == 0


def test_bit_rejects_negatives():
    with pytest.raises(ValueError):
        bit(-1, 0)
    with pytest.raises(ValueError):
        bit(3, -1)


def test_sign_bit_values():
    assert sign_bit(2, 1) == -1
    assert sign_bit(2, 0) == 1
    assert sign_bit(6, 2) == -1
    assert sign_bit(0, 4) == 1


def test_bit_sign_roundtrip():
    for b in (0, 1):
        assert sign_to_bit(bit_to_sign(b)) == b
    for s in (1, -1):
        assert bit_to_sign(sign_to_bit(s)) == s


def test_conversions_validate():
    with pytest.raises(ValueError):
        bit_to_sign(2)
    with pytest.raises(ValueError):
        sign_to_bit(0)


@given(st.integers(min_value=0, max_value=1 << 14),
       st.integers(min_value=0, max_value=13))
def test_binomial_parity_matches_bit(n, i):
    # Lucas: C(n, 2^i) is odd exactly when bit i of n is set
    assert lucas_sign(n, i) == sign_bit(n, i)


def test_half_pochhammer_period_four():
    # n(n-1)/2 is even for n = 0, 1 mod 4 and odd for n = 2, 3 mod 4
    expected = {0: 1, 1: 1, 2: -1, 3: -1}
    for n in range(64):
        assert half_pochhammer_sign(n) == expected[n % 4]


def test_neg_mod8():
    assert neg_mod8(2) == 6
    assert neg_mod8(0) == 0
    assert neg_mod8(-3) == 3
    assert neg_mod8(11) == 5


def test_parity_above_matches_loop():
    for x in range(1 << 12):
        want = 0
        for j in range(12):
            if bin(x >> (j + 1)).count("1") & 1:
                want |= 1 << j
        assert parity_above(x) == want
    assert parity_above(0b1010) == 0b0110


def test_walsh_hadamard_matches_double_sum():
    for k in range(7):
        n = 1 << k
        v = [(7 * i * i - 5 * i + 3) % 23 - 11 for i in range(n)]
        want = [sum(v[i] * (-1) ** bin(a & i).count("1") for i in range(n))
                for a in range(n)]
        got = list(v)
        walsh_hadamard(got)
        assert got == want
        walsh_hadamard(got)
        assert got == [n * x for x in v]


def test_walsh_batch_matches_double_sum():
    # counts 3 and 5 are not powers of two; entries reach +-2^2048
    big = 1 << 2048
    for k in range(9):
        n = 1 << k
        for count in range(6):
            vs = [[(7 * i * i - 5 * i + 3 * c) % 23 - 11 for i in range(n)]
                  for c in range(count)]
            for c, v in enumerate(vs):
                v[c % n] = big if c & 1 else -big
            want = [[sum(v[i] * (-1) ** bin(a & i).count("1")
                         for i in range(n)) for a in range(n)] for v in vs]
            got = walsh_batch(list(chain.from_iterable(vs)), k)
            assert got == want
            assert walsh_batch(list(chain.from_iterable(got)), k) == [
                [n * x for x in v] for v in vs]


def test_walsh_hadamard_needs_power_of_two():
    for n in (0, 3, 6, 12):
        with pytest.raises(ValueError):
            walsh_hadamard([1] * n)


def test_walsh_batch_refuses_a_partial_vector():
    # a length that is no multiple of 2^k would leave a truncated vector
    for flat, k in (([1, 2, 3], 1), ([1] * 33, 5), ([1] * 1025, 5), ([1], 2)):
        with pytest.raises(ValueError, match=f"^length {len(flat)} is not a "
                                             f"multiple of 2\\^{k}$"):
            walsh_batch(flat, k)
    assert walsh_batch([], 3) == []


def test_xor_span_matches_loop():
    # entry x is the XOR of the images of the set bits of x
    rng = random.Random(3)
    for k in range(10):
        images = [rng.randrange(1 << 16) for _ in range(k)]
        table = xor_span(images)
        assert len(table) == 1 << k
        for x in range(1 << k):
            want = 0
            for j in range(k):
                if (x >> j) & 1:
                    want ^= images[j]
            assert table[x] == want
    assert xor_span([5, 5]) == [0, 5, 5, 0]


def test_walsh_function_is_transform_of_one_entry():
    rng = random.Random(67)
    for k in range(0, 7):
        for i in range(1 << k):
            c = rng.choice((1, -1)) * rng.randint(1, 1 << 80)
            delta = [0] * (1 << k)
            delta[i] = c
            assert walsh_function(c, i, k) == walsh_batch(delta, k)[0]


def test_walsh_index_reads_back_walsh_functions():
    rng = random.Random(71)
    for k in range(0, 7):
        for i in range(1 << k):
            c = rng.choice((1, -1)) * rng.randint(1, 1 << 80)
            assert walsh_index(walsh_function(c, i, k), k) == i
        assert walsh_index([0] * (1 << k), k) == -1
    for k in range(2, 7):
        for _ in range(50):
            v = [rng.randint(-3, 3) for _ in range(1 << k)]
            spread = [a for a, n in enumerate(walsh_batch(v, k)[0]) if n]
            assert walsh_index(v, k) == (spread[0] if len(spread) == 1
                                         else -1)


def test_negative_arguments_are_refused():
    for make, message in (
            (lambda: parity_above(-1), "x must be non-negative"),
            (lambda: lucas_sign(-1, 0), "lucas_sign needs n >= 0 and i >= 0"),
            (lambda: half_pochhammer_sign(-1), "n must be non-negative")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()


# -- the lane layer of both packed kernels ------------------------------------

@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16])
def test_pack_and_unpack_round_trip_at_the_lane_edges(size):
    # 1, 2, 4 and 8 bytes go through one struct call, 3, 5, 6 and 7
    # through one at the next native size and the byte codec, 9 and 16
    # through to_bytes
    rng = random.Random(size)
    half = 1 << (8 * size - 1)
    for count in (1, 2, 8):
        for rows in (2, 3):
            values = [rng.choice((-half, half - 1, 0, -1,
                                  rng.randrange(-half, half)))
                      for _ in range(rows * count)]
            values[:2] = -half, half - 1
            packed = bits._pack(values, size, count)
            assert packed == [
                sum(v << (8 * size * c)
                    for c, v in enumerate(values[r * count:(r + 1) * count]))
                for r in range(rows)]
            assert bits._unpack(packed, size, count) == values
            assert bits._unpack(iter(packed), size, count) == values


@given(st.data())
def test_pack_and_unpack_round_trip_at_any_lane_size(data):
    # 1 to 8 lanes of 1 to 9 bytes in 1 to 3 rows, every value drawn from
    # its lane's whole signed range, so the top byte that _narrow keeps
    # carries value bits, not only the sign fill
    size, count, rows = (data.draw(st.integers(1, top)) for top in (9, 8, 3))
    half = 1 << (8 * size - 1)
    values = data.draw(st.lists(st.integers(-half, half - 1),
                                min_size=rows * count, max_size=rows * count))
    packed = bits._pack(values, size, count)
    assert packed == [
        sum(v << (8 * size * c)
            for c, v in enumerate(values[r * count:(r + 1) * count]))
        for r in range(rows)]
    assert bits._unpack(packed, size, count) == values


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16])
def test_pack_negates_the_lanes_of_neg(size):
    # the lanes set in neg come out negated, up to magnitude 2^(W - 1) - 1
    rng = random.Random(size + 16)
    half = 1 << (8 * size - 1)
    for count in (1, 2, 8):
        for neg in {0, (1 << count) - 1, rng.randrange(1 << count)}:
            values = [rng.choice((-half + 1, half - 1, 0, -1,
                                  rng.randrange(-half + 1, half)))
                      for _ in range(3 * count)]
            flipped = [-v if neg >> (i % count) & 1 else v
                       for i, v in enumerate(values)]
            assert bits._pack(values, size, count, neg) == bits._pack(
                flipped, size, count)


@pytest.mark.parametrize("size", [1, 2, 3, 5, 6, 7, 8, 9])
def test_negate_matches_the_negation_at_pack_time(size):
    # bits._negate on packed rows equals _pack's negation of the lanes
    rng = random.Random(size + 32)
    half = 1 << (8 * size - 1)
    for count in (1, 4, 8):
        for neg in {0, (1 << count) - 1, rng.randrange(1 << count)}:
            values = [rng.choice((-half + 1, half - 1, 0, -1,
                                  rng.randrange(-half + 1, half)))
                      for _ in range(2 * count)]
            assert bits._negate(bits._pack(values, size, count), size,
                                count, neg) == bits._pack(values, size,
                                                          count, neg)


@pytest.mark.parametrize("size", [1, 2, 3, 5, 6, 7, 8, 9])
def test_zero_lanes_flags_exactly_the_zero_lanes(size):
    # a 1 above a 0 and the most negative value, where a borrow or the
    # sign bit could leak into a flag, and random lanes
    rng = random.Random(size + 48)
    half = 1 << (8 * size - 1)
    count = 8
    for values in ([0, 1, 0, -1, 1, 0, -half, 0],
                   [1] * count, [0] * count, [-half + 1] + [0] * 7,
                   [rng.choice((0, 1, -1, rng.randrange(-half, half)))
                    for _ in range(count)]):
        flags, = bits._zero_lanes(bits._pack(values, size, count), size,
                                  count)
        assert [flags >> 8 * size * (c + 1) - 1 & 1 for c in range(count)
                ] == [int(v == 0) for v in values]
        assert flags.bit_count() == values.count(0)


def test_permute_moves_lane_c_to_lane_c_xor_t():
    rng = random.Random(59)
    for k, size in ((1, 1), (3, 2), (2, 3), (3, 5), (5, 6), (4, 7), (5, 8),
                    (4, 9)):
        count = 1 << k
        half = 1 << (8 * size - 1)
        values = [rng.randrange(-half, half) for _ in range(count)]
        row, = bits._pack(values, size, count)
        halves, keeps = bits._halves(size, count), bits._keeps(size, k)
        for t in range(count):
            moved = bits._permute(row + halves, t, size, keeps) - halves
            assert bits._unpack([moved], size, count) == [
                values[c ^ t] for c in range(count)]


def test_lane_width_at_the_word_edge():
    # 2^extra products of 31- and 31-bit magnitudes: 31 + 31 + extra + 1
    # lane bits, so extra = 0, 1, 2 need 63, 64 and 65 bits
    top = [[(1 << 31) - 1, -5]], [[-(1 << 31) + 1], [3]]
    assert [bits._lane_width(extra, *top) for extra in (0, 1, 2)] == [
        64, 64, 72]
    # the min is read as well as the max: -64 has bit length 7, 63 has 6
    assert bits._lane_width(0, [[63, 2]], [[1]]) == 8
    assert bits._lane_width(0, [[-64, 2]], [[1]]) == 16
    # empty rows and operands count 0
    assert bits._lane_width(3, [[], {}.values()], []) == 8


def test_kernel_width_returns_0_without_a_scan():
    def refuse():
        raise AssertionError("bit scan")
    # 100 + 2048 * 8 / 2048 = 108 at 8-bit lanes: a loop of 107 wins
    assert bits._kernel_width(107, 100, 2048, refuse) == 0
    narrow = partial(bits._lane_width, 0, [[1]], [[1]])
    assert bits._kernel_width(108, 100, 2048, narrow) == 8
    # 2^20 needs 2 * 21 + 1 = 43 bits, a 64-bit lane: 100 + 64 = 164
    wide = partial(bits._lane_width, 0, [[1 << 20]], [[1 << 20]])
    assert bits._kernel_width(163, 100, 2048, wide) == 0
    assert bits._kernel_width(164, 100, 2048, wide) == 64


# -- the two kernels of walsh_batch ------------------------------------------

def _staged(flat, k):
    count = len(flat) >> k
    out = bits._stages(flat, k)
    return [out[c::count] for c in range(count)]


def test_full_batches_from_k5_take_the_column_kernel(monkeypatch):
    rng = random.Random(83)
    seen = []
    columns = bits._columns
    monkeypatch.setattr(bits, "_columns", lambda rows, k, size: (
        seen.append(k) or columns(rows, k, size)))
    for k in (5, 6):
        flat = [rng.randint(-(1 << 40), 1 << 40) for _ in range(1 << 2 * k)]
        assert walsh_batch(flat, k) == _staged(flat, k)
    assert seen == [5, 6]


def test_other_batches_take_the_list_stages(monkeypatch):
    # fewer or more vectors than 2^k at k >= 5, a full batch at k = 4,
    # and one vector never reach the column kernel
    def refuse(*args):
        raise AssertionError("the column kernel ran")
    monkeypatch.setattr(bits, "_columns", refuse)
    rng = random.Random(89)
    for k, count in ((5, 31), (5, 33), (5, 64), (6, 63), (4, 16), (8, 1),
                     (5, 0)):
        flat = [rng.randint(-99, 99) for _ in range(count << k)]
        assert walsh_batch(flat, k) == _staged(flat, k)
    v = [rng.randint(-99, 99) for _ in range(1 << 5)]
    want = walsh_batch(v, 5)[0]
    walsh_hadamard(v)
    assert v == want


def test_full_batches_past_a_word_take_the_list_stages(monkeypatch):
    # 2^k entries of 63 - k bits fill a 64-bit lane; one bit more takes
    # the list stages, which win there
    def refuse(*args):
        raise AssertionError("the column kernel ran")
    rng = random.Random(91)
    for k in (5, 6):
        top = 1 << 63 - k
        narrow = [rng.randrange(-top + 1, top) for _ in range(1 << 2 * k)]
        wide = narrow[:-1] + [top]
        assert bits._lane_width(k, [narrow]) == 64
        assert bits._lane_width(k, [wide]) == 72
        assert bits._fits_word(63 - k, k) and not bits._fits_word(64 - k, k)
        want = _staged(wide, k)
        with monkeypatch.context() as patch:
            patch.setattr(bits, "_columns", refuse)
            assert walsh_batch(wide, k) == want
            with pytest.raises(AssertionError, match="column kernel ran"):
                walsh_batch(narrow, k)


@pytest.mark.parametrize("k", [5, 6])
def test_column_kernel_lowers_the_exponent_on_its_rows(k):
    # the shift is the trailing zeros every staged entry shares, at most
    # cap, and each entry comes out divided by 2^shift
    rng = random.Random(97 + k)
    n = 1 << 2 * k
    for t, cap in ((0, 5), (4, 2), (4, 40), (7, 9)):
        flat = [rng.randint(-(1 << 30), 1 << 30) << t for _ in range(n)]
        want = bits._stages(flat, k)
        low = 0
        for x in want:
            low |= x
        shift = min(cap, (low & -low).bit_length() - 1)
        assert _column_kernel(flat, k, 0, cap) == (
            [x >> shift for x in want], shift)
    # one vector alone has an odd entry, so its lane alone sets the
    # shift to 0: every lane must reach the fold
    for v in range(1 << k):
        flat = [rng.randint(-99, 99) << 5 for _ in range(n)]
        flat[v << k] |= 1
        assert _column_kernel(flat, k, 0, 9) == (bits._stages(flat, k), 0)
    assert _column_kernel([0] * n, k, 0, 3) == ([0] * n, 3)
    assert _column_kernel([1] * n, k) == (bits._stages([1] * n, k), 0)
