from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cliffbits import DyadicRational, dyadic

from conftest import dyadics


def as_fraction(d: DyadicRational) -> Fraction:
    return Fraction(d.numerator, 1 << d.exponent)


def test_reduction():
    assert DyadicRational(4, 2) == DyadicRational(1, 0)
    assert DyadicRational(6, 1) == DyadicRational(3, 0)
    assert DyadicRational(0, 7) == DyadicRational(0, 0)
    d = DyadicRational(12, 4)
    assert (d.numerator, d.exponent) == (3, 2)


def test_canonical_invariant():
    # whenever the exponent is positive the numerator is odd
    for num in range(-40, 40):
        for exp in range(6):
            d = DyadicRational(num, exp)
            assert d.exponent == 0 or d.numerator % 2 == 1


def test_parse_forms():
    assert DyadicRational.parse("3/4") == DyadicRational(3, 2)
    assert DyadicRational.parse("-1/2^5") == DyadicRational(-1, 5)
    assert DyadicRational.parse("+7") == DyadicRational(7, 0)
    assert DyadicRational.parse("0") == DyadicRational(0, 0)


def test_parse_rejects_non_dyadic():
    with pytest.raises(ValueError):
        DyadicRational.parse("1/3")
    with pytest.raises(ValueError):
        DyadicRational.parse("1/0")
    with pytest.raises(ValueError):
        DyadicRational.parse("2/4/8")
    for text in ("\u0663", "1/\u0668", "1/2^\u0663"):  # ASCII digits only
        with pytest.raises(ValueError, match="not a dyadic coefficient"):
            DyadicRational.parse(text)


def _regex_parse(text: str) -> tuple[int, int]:
    """dyadic._parse before its fast path: every text through the regex.
    Kept as the oracle of the fast path."""
    m = dyadic._COEFF_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a dyadic coefficient: {dyadic._clip(text)!r}")
    sign, num_text, exp_text, den_text = m.groups()
    num = dyadic._int(num_text)
    if num.bit_length() > dyadic.MAX_BITS:
        raise ValueError(
            f"coefficient numerator longer than {dyadic.MAX_BITS} bits")
    exponent = 0
    if exp_text is not None:
        exponent = dyadic._int(exp_text)
    elif den_text is not None:
        den = dyadic._int(den_text)
        if den <= 0 or den & (den - 1):
            raise ValueError(
                f"denominator must be a power of 2: {dyadic._clip(text)!r}")
        exponent = den.bit_length() - 1
    if exponent > dyadic.MAX_BITS:
        raise ValueError(
            f"coefficient denominator above 2^{dyadic.MAX_BITS}")
    return (-num if sign == "-" else num), exponent


def _read(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return "ValueError", str(exc)


# digit runs around the fast path's length limit: an in-bounds value has
# fewer than _MAX_DIGITS digits, and a text of _MAX_DIGITS characters or
# more takes the regex
_DIGITS = st.one_of(
    st.integers(0, 10 ** 6).map(str),
    st.integers(0, 10 ** 6).map(lambda v: "00" + str(v)),
    st.sampled_from([1 << 2047, 1 << 2048, (1 << 2048) - 1, 10 ** 616,
                     10 ** 615 * 3, 10 ** 616 * 4]).map(str),
    st.integers(dyadic._MAX_DIGITS - 3, dyadic._MAX_DIGITS + 1).map(
        lambda k: "1" + "0" * (k - 1)),
    st.just("7" * 4301),
    st.sampled_from(["", "\u0663", "\uff11", "1_0", " 3", "3 ", "2^4",
                     "2^2048", "2^2049"]))
_DENOMINATORS = st.one_of(
    st.integers(0, 2100).map(lambda e: str(1 << e)),
    st.integers(0, 99).map(str),
    _DIGITS)


@given(st.sampled_from(["", "-", "+", " "]), _DIGITS,
       st.one_of(st.none(), _DENOMINATORS))
def test_parse_fast_path_equals_the_regex(sign, num, den):
    text = sign + num + ("" if den is None else "/" + den)
    assert _read(dyadic._parse, text) == _read(_regex_parse, text)


def test_parse_refuses_a_non_str():
    # a clear TypeError naming the argument, not an AttributeError from
    # inside the parser
    for text in (5, None, b"3/4"):
        with pytest.raises(TypeError, match="text must be a str, got "):
            DyadicRational.parse(text)


def test_str_uses_plain_denominator():
    assert str(DyadicRational(3, 2)) == "3/4"
    assert str(DyadicRational(-5, 0)) == "-5"
    assert str(DyadicRational(1, 1)) == "1/2"


def test_int_interop():
    assert DyadicRational(10, 1) == 5
    assert DyadicRational(1, 1) + 1 == DyadicRational(3, 1)
    assert 2 * DyadicRational(3, 2) == DyadicRational(3, 1)
    assert hash(DyadicRational(5, 0)) == hash(5)


def test_rsub_abs_repr_hash():
    d = DyadicRational(3, 2)
    assert 1 - d == DyadicRational(1, 2)
    assert abs(DyadicRational(-3, 2)) == d
    assert repr(d) == "DyadicRational(3, 2)"
    # equal values hash equal at a positive exponent, however built
    assert hash(DyadicRational(6, 3)) == hash(d) == hash(
        DyadicRational.parse("12/16")) == hash(1 - DyadicRational(1, 2))


def test_constructor_refuses_bad_arguments():
    with pytest.raises(TypeError,
                       match="^numerator and exponent must be integers$"):
        DyadicRational(1.5)
    with pytest.raises(ValueError, match="^exponent must be non-negative$"):
        DyadicRational(1, -1)


@given(dyadics(), dyadics())
def test_add_matches_fraction(a, b):
    assert as_fraction(a + b) == as_fraction(a) + as_fraction(b)


@given(dyadics(), dyadics())
def test_mul_matches_fraction(a, b):
    assert as_fraction(a * b) == as_fraction(a) * as_fraction(b)


@given(dyadics(), dyadics())
def test_sub_neg_consistent(a, b):
    assert a - b == a + (-b)
    assert -(-a) == a


@given(dyadics(), dyadics(), dyadics())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(dyadics())
def test_result_is_reduced(a):
    b = a + a  # doubles always cancel one factor of two
    assert b.exponent == 0 or b.numerator % 2 == 1
    assert not DyadicRational(0, 0)
    assert bool(a) == (a.numerator != 0)
