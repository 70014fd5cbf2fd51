import random
import re

import pytest
from hypothesis import given, strategies as st

from cliffbits import (bit, bit_to_sign, half_pochhammer_sign, lucas_sign,
                       neg_mod8, parity_above, sign_bit, sign_to_bit,
                       walsh_hadamard)
from cliffbits.bits import walsh_batch, walsh_function, walsh_index, xor_span


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
            got = walsh_batch(vs, k)
            assert got == want
            assert walsh_batch(got, k) == [[n * x for x in v] for v in vs]


def test_walsh_hadamard_needs_power_of_two():
    for n in (0, 3, 6, 12):
        with pytest.raises(ValueError):
            walsh_hadamard([1] * n)


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
            assert walsh_function(c, i, k) == walsh_batch([delta], k)[0]


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
            spread = [a for a, n in enumerate(walsh_batch([v], k)[0]) if n]
            assert walsh_index(v, k) == (spread[0] if len(spread) == 1
                                         else -1)


def test_negative_arguments_are_refused():
    for make, message in (
            (lambda: parity_above(-1), "x must be non-negative"),
            (lambda: lucas_sign(-1, 0), "lucas_sign needs n >= 0 and i >= 0"),
            (lambda: half_pochhammer_sign(-1), "n must be non-negative")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()
