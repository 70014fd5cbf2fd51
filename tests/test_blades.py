import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffbits import (DyadicRational, Metric, MetricError, Multivector,
                       ParseError, blade_product, center_check,
                       dual_automorphism_check, grade_involution, mv_mul,
                       omega_squared_oracle, op_counters, reset_op_counters,
                       tau_blade, tau_squared_oracle, volume_element)
from cliffbits import blades, dyadic, verify
from cliffbits.efb import (EFBMultivector, blades_to_efb, efb_product,
                          efb_to_blades)
from cliffbits.sampling import dense_blade_multivector, random_multivector
from cliffbits.verify import (_blades, _mate, _rule_width,
                              check_blade_sign_vs_normal_order)

from conftest import OTHER_SCALARS, multivectors

E22 = Metric.block(2, 2)
I2 = Metric.interleaved(2)


def test_metric_constructors():
    assert Metric.block(2, 1).squares == (1, 1, -1)
    assert Metric.interleaved(2).squares == (1, -1, 1, -1)
    assert Metric.block(0, 0).n == 0
    m = Metric.block(3, 1)
    assert (m.k, m.l, m.nu) == (3, 1, 2)


def test_interleaved_counts():
    m = Metric.interleaved(3)
    assert (m.k, m.l) == (3, 3)


def test_generator_squares():
    g1 = Multivector.generator(E22, 1)
    g3 = Multivector.generator(E22, 3)
    one = Multivector.scalar(E22, 1)
    assert mv_mul(g1, g1) == one
    assert mv_mul(g3, g3) == -1 * one


def test_generators_anticommute():
    g1 = Multivector.generator(E22, 1)
    g2 = Multivector.generator(E22, 2)
    assert mv_mul(g2, g1) == -1 * mv_mul(g1, g2)


def test_blade_product_examples():
    # g1 g2 times g2 contracts to g1 with the metric sign
    sign, mask = blade_product(0b0011, 0b0010, E22)
    assert (sign, mask) == (1, 0b0001)
    sign, mask = blade_product(0b0010, 0b0011, E22)
    assert (sign, mask) == (-1, 0b0001)
    # disjoint supports just count transpositions
    sign, mask = blade_product(0b0100, 0b0011, E22)
    assert (sign, mask) == (1, 0b0111)
    sign, mask = blade_product(0b0001, 0b0110, E22)
    assert (sign, mask) == (1, 0b0111)


def test_scalar_blade_is_identity():
    sign, mask = blade_product(0, 0b1011, E22)
    assert (sign, mask) == (1, 0b1011)


def test_null_square_in_neutral_metric():
    # (1 + g1)(1 - g1) = 0 when g1^2 = +1: a rank-one idempotent pair
    one = Multivector.scalar(I2, 1)
    g1 = Multivector.generator(I2, 1)
    assert mv_mul(one + g1, one - g1) == Multivector.zero(I2)


def test_associativity_exhaustive_small():
    m = Metric.block(2, 1)
    dim = 1 << 3
    for a in range(dim):
        for b in range(dim):
            s1, ab = blade_product(a, b, m)
            for c in range(dim):
                s2, abc = blade_product(ab, c, m)
                s3, bc = blade_product(b, c, m)
                s4, abc2 = blade_product(a, bc, m)
                assert (s1 * s2, abc) == (s3 * s4, abc2)


@given(multivectors(E22), multivectors(E22), multivectors(E22))
@settings(max_examples=40)
def test_product_bilinear_associative(x, y, z):
    assert mv_mul(mv_mul(x, y), z) == mv_mul(x, mv_mul(y, z))
    assert mv_mul(x + y, z) == mv_mul(x, z) + mv_mul(y, z)
    assert mv_mul(x, y + z) == mv_mul(x, y) + mv_mul(x, z)


@given(multivectors(E22))
def test_grade_involution_is_automorphism(x):
    y = Multivector.generator(E22, 1) + Multivector.scalar(E22, 2)
    assert grade_involution(mv_mul(x, y)) == mv_mul(grade_involution(x),
                                                    grade_involution(y))
    assert grade_involution(grade_involution(x)) == x


def test_volume_element_square():
    # positive-definite plane: (g1 g2)^2 = -1
    assert omega_squared_oracle(Metric.block(2, 0)) == -1
    assert omega_squared_oracle(Metric.block(1, 1)) == 1
    assert omega_squared_oracle(Metric.block(0, 2)) == -1
    assert omega_squared_oracle(Metric.block(3, 0)) == -1
    assert volume_element(E22) == 0b1111


def test_center_examples():
    assert center_check(Metric.block(0, 1)) is True
    assert center_check(Metric.block(1, 1)) is False
    assert center_check(Metric.block(2, 1)) is True
    assert center_check(Metric.block(0, 0)) is False


def test_tau_blade_selection():
    # even k, l: the last l generators; odd k, l: the first k
    assert tau_blade(2, 2) == 0b1100
    assert tau_blade(1, 1) == 0b0001
    assert tau_blade(0, 2) == 0b0011
    assert tau_blade(3, 1) == 0b0111
    with pytest.raises(ValueError):
        tau_blade(2, 1)


def test_tau_squares():
    assert tau_squared_oracle(2, 2) == -1
    assert tau_squared_oracle(1, 1) == 1
    assert tau_squared_oracle(0, 2) == -1
    assert tau_squared_oracle(0, 4) == 1
    assert tau_squared_oracle(0, 6) == -1
    assert tau_squared_oracle(4, 0) == 1


def test_dual_automorphisms_small():
    for k in range(5):
        for l in range(5):
            if (k + l) % 2 == 0:
                assert dual_automorphism_check(k, l)


def test_parse_basic():
    x = Multivector.parse("1/2 g1 g2 + 3", E22)
    assert x.coefficient(0b0011) == DyadicRational(1, 1)
    assert x.coefficient(0) == 3
    assert x.coefficient(0b0001) == 0


def test_parse_canonicalizes_generator_order():
    # g2 g1 = -g1 g2, and repeated generators contract through the metric
    assert Multivector.parse("g2 g1", E22) == -1 * Multivector.parse("g1 g2", E22)
    assert Multivector.parse("g3 g3", E22) == Multivector.parse("-1", E22)
    assert Multivector.parse("2 g1 g1", E22) == Multivector.parse("2", E22)


def test_parse_rejects_garbage():
    # "g1 g1 2": a coefficient after generators that contract to the
    # scalar blade is still a coefficient after a generator
    # digits are ASCII only: Arabic-Indic digits in a generator index or
    # a coefficient are refused, however int() would read them
    for bad in ("g0", "g5", "1/3 g1", "g1 2", "g1 g1 2", "", "+", "2 2",
                "g1g2", "g1\u0661", "g\u0661", "\u0663/\u0668 g1",
                "\u0661 g1"):
        with pytest.raises(ParseError):
            Multivector.parse(bad, E22)


def _reference_parse(text: str, metric: Metric) -> Multivector:
    """The token loop Multivector.parse ran before its name table: each
    token is matched as a generator, else read as a coefficient while no
    coefficient or generator came before it.  Kept as the oracle of the
    table path."""
    s = text.strip()
    if not s:
        raise ParseError("empty multivector text")
    if s[0] not in "+-":
        s = "+ " + s
    chunks = blades._SIGN_RE.split(s)
    it = iter(chunks[1:])
    n = metric.n
    width = len(str(n))
    terms = []
    for sgn, body in zip(it, it):
        tokens = body.split()
        if not tokens:
            raise ParseError("sign without a term")
        sign = 1 if sgn == "+" else -1
        num, e = 1, 0
        coeff_seen = gens_seen = False
        mask = 0
        for tok in tokens:
            gm = blades._GENERATOR_RE.fullmatch(tok)
            if gm:
                digits = gm.group(1)
                if len(digits) > width or (index := int(digits)) > n:
                    raise ParseError(f"generator {dyadic._clip(tok)} outside "
                                     f"an algebra with n={n}")
                gen = 1 << (index - 1)
                if gen > mask:
                    mask |= gen
                else:
                    s2, mask = blade_product(mask, gen, metric)
                    sign *= s2
                gens_seen = True
                continue
            if coeff_seen or gens_seen:
                raise ParseError(f"unexpected token {dyadic._clip(tok)!r}")
            try:
                num, e = dyadic._parse(tok)
            except ValueError as exc:
                raise ParseError(str(exc)) from None
            coeff_seen = True
        terms.append((mask, num if sign > 0 else -num, e))
    top = max(e for _, _, e in terms)
    acc: dict[int, int] = {}
    for mask, num, e in terms:
        acc[mask] = acc.get(mask, 0) + (num << (top - e))
    return Multivector._raw(metric, acc, top)


def _outcome(parse, text: str, metric: Metric):
    try:
        x = parse(text, metric)
    except ParseError as exc:
        return "ParseError", str(exc)
    return x._e, x._nums


# tokens where the two parsers could part: generator look-alikes (zero,
# leading zero, out of range, 30 digits, run together, non-ASCII
# digits), coefficients (non-dyadic, padded, past MAX_BITS) and bare
# signs; separators include tabs and none at all
_RISKY = ["g1", "g2", "g3", "g4", "g0", "g01", "g5", "g10", "g99",
          "g" + "9" * 30, "g" + "1" * 30, "g", "g1g2", "2g1", "g-1",
          "g\u0661", "\u0663", "g\uff11", "\uff12", "\u0663/\u0668",
          "0", "3", "-5/8", "1/3", "7/2^4", "6/8", "1/2^99999", "1/2^0",
          "2^4", "+", "-", "++", "x", "1.5"]
_SEPARATORS = [" ", "\t", " + ", " - ", "+", "-", "  ", ""]


@given(st.lists(st.tuples(st.sampled_from(_RISKY),
                          st.sampled_from(_SEPARATORS)), max_size=7),
       st.sampled_from([Metric.block(0, 0), Metric.block(1, 0), E22,
                        Metric.interleaved(5)]))
@settings(max_examples=600)
def test_parse_equals_the_reference_loop(tokens, metric):
    text = "".join(tok + sep for tok, sep in tokens)
    assert (_outcome(Multivector.parse, text, metric)
            == _outcome(_reference_parse, text, metric))


def test_name_bits_cached_equal_a_fresh_build_and_stay_bounded():
    names = blades._name_bits
    names.cache_clear()
    for n in (0, 1, 4, 12, 4096):
        assert names(n) == names.__wrapped__(n)
        assert names(n) is names(n)
    assert names(3) == {"g1": 1, "g2": 2, "g3": 4}
    # one table per n, and no more than a few whatever n callers pass
    for n in range(0, 4097, 128):
        names(n)
    assert names.cache_info().maxsize <= 8
    assert names.cache_info().currsize <= 8
    # a metric built directly past MAX_N parses with a table of its own
    # and leaves the cache as it was
    wide = Metric((1,) * (blades.MAX_N + 1))
    before = names.cache_info()
    x = Multivector.parse(f"3 g{blades.MAX_N + 1} g1", wide)
    assert x == Multivector(wide, {1 | 1 << blades.MAX_N: -3})
    assert names.cache_info() == before


# a coefficient as (numerator, exponent, padding, form): "int" writes the
# numerator alone, "over" and "power" write (numerator << padding) over
# 2^(exponent + padding) as a number or as 2^k, so padding > 0 makes an
# unreduced fraction; None is a term without a coefficient
_coeff_parts = st.one_of(st.none(), st.tuples(
    st.integers(0, 40), st.integers(0, 5), st.integers(0, 2),
    st.sampled_from(["int", "over", "power"])))
# (sign, coefficient, generator indices in any order, with repeats)
_text_terms = st.lists(st.tuples(st.sampled_from("+-"), _coeff_parts,
                                 st.lists(st.integers(1, 4), max_size=5)),
                       min_size=1, max_size=6)


def _coeff_text(parts) -> str:
    num, e, pad, form = parts
    if form == "int":
        return str(num)
    if form == "over":
        return f"{num << pad}/{1 << (e + pad)}"
    return f"{num << pad}/2^{e + pad}"


@given(_text_terms)
def test_parse_equals_object_route(terms):
    # the reference reads each term through DyadicRational.parse and
    # blade_product and sums DyadicRationals into the constructor
    text, acc = "", {}
    for i, (sign, parts, gens) in enumerate(terms):
        if parts is None and not gens:
            parts = (1, 0, 0, "int")
        body = " ".join(([_coeff_text(parts)] if parts else [])
                        + [f"g{g}" for g in gens])
        # the first term's sign joins its coefficient, as in "-5/8 g1"
        lead = f" {sign} " if i else ("-" if sign == "-" else "")
        text += lead + body
        c = DyadicRational.parse(_coeff_text(parts)) if parts else 1
        mask, s = 0, 1 if sign == "+" else -1
        for g in gens:
            s2, mask = blade_product(mask, 1 << (g - 1), E22)
            s *= s2
        acc[mask] = acc.get(mask, 0) + s * c
    x = Multivector.parse(text, E22)
    assert x == Multivector(E22, acc)
    assert str(x) == str(Multivector(E22, acc))


def test_parse_builds_no_dyadic_rationals(monkeypatch):
    # parse goes from text to integer numerators: no DyadicRational and
    # no rescaling by the constructor's _scale_in
    text = "-5/8 g2 g1 + 7/2^4 g3 g3 - 6/8 + g4 - 3 g1 g2 + 0 g2"
    want = Multivector.parse(text, E22)

    def refuse(*args):
        raise AssertionError("parse built a DyadicRational")
    for module in (dyadic, blades):
        monkeypatch.setattr(module, "_reduced", refuse)
        monkeypatch.setattr(module, "_scale_in", refuse)
    monkeypatch.setattr(DyadicRational, "__init__", refuse)
    got = Multivector.parse(text, E22)
    monkeypatch.undo()
    assert got == want
    assert str(got) == "-19/16 + g4 - 19/8 g1 g2"


def test_multivector_rejects_other_coefficients():
    x = Multivector.scalar(E22, 1)
    for s in OTHER_SCALARS:
        with pytest.raises(TypeError):
            Multivector(E22, {0: s})
        for op in (x.__mul__, x.__rmul__, x.__add__):
            assert op(s) is NotImplemented
        for op in (lambda: x * s, lambda: s * x, lambda: x + s):
            with pytest.raises(TypeError):
                op()


@given(multivectors(E22))
def test_parse_print_roundtrip(x):
    assert Multivector.parse(str(x), E22) == x


def test_str_ordering_and_signs():
    x = Multivector.parse("g3 - 2 g1 g2 + 1/4", E22)
    assert str(x) == "1/4 + g3 - 2 g1 g2"
    assert str(Multivector.zero(E22)) == "0"


def test_mixed_metric_rejected():
    x = Multivector.scalar(E22, 1)
    y = Multivector.scalar(I2, 1)
    with pytest.raises(MetricError):
        mv_mul(x, y)
    with pytest.raises(MetricError):
        _ = x + y


def test_scalar_coercion():
    x = Multivector.parse("g1", E22)
    assert x + 1 == Multivector.parse("1 + g1", E22)
    assert DyadicRational(1, 1) * x == Multivector.parse("1/2 g1", E22)
    assert x - 1 == Multivector.parse("g1 - 1", E22)


def test_scalars_on_the_left_and_in_equality():
    x = Multivector.parse("1 + 2 g1 g2 - g3", E22)
    assert str(1 - x) == "g3 - 2 g1 g2"
    assert (x == 1) is False and Multivector.scalar(E22, 1) == 1
    half = DyadicRational(1, 1)
    assert (x == half) is False
    assert Multivector.scalar(E22, half) == half
    assert half == Multivector.scalar(E22, half)


def test_other_operands_are_refused():
    x = Multivector.parse("1 + g1", E22)
    with pytest.raises(TypeError, match=re.escape(
            "unsupported operand type(s) for -: 'Multivector' and 'str'")):
        x - "a"
    assert (x == "a") is False and x != "a"


def test_operands_across_metrics():
    x, y = Multivector.scalar(E22, 1), Multivector.scalar(I2, 1)
    assert (x == y) is False and x != y
    with pytest.raises(MetricError, match="^operands over different metrics$"):
        x - y


def test_grade_involution_method():
    x = Multivector.parse("1 + 2 g1 g2 - g3 + g1 g2 g4", E22)
    assert str(x.grade_involution()) == "1 + g3 + 2 g1 g2 - g1 g2 g4"
    assert x.grade_involution() == grade_involution(x)


def test_boundary_checks_name_the_bad_input():
    n = E22.n
    for make, message in (
            (lambda: Metric((2,)), "generator squares must be +1 or -1"),
            (lambda: Metric.block(-1, 2), "k and l must be non-negative"),
            (lambda: Metric.interleaved(-1), "m must be non-negative"),
            (lambda: tau_blade(-1, 0), "k and l must be non-negative"),
            (lambda: Multivector.generator(E22, 0),
             "generator index 0 outside 1..4"),
            (lambda: Multivector.generator(E22, n + 1),
             "generator index 5 outside 1..4")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()
    for a, b in ((1 << n, 1), (1, 1 << n)):
        with pytest.raises(MetricError, match="^blade out of range for n=4$"):
            blade_product(a, b, E22)
    with pytest.raises(MetricError,
                       match="^blade 0x10 out of range for n=4$"):
        Multivector(E22, {1 << n: 1})


def test_constructors_refuse_non_int_masks_and_sizes():
    # a float, str or bool mask, index or size is refused by name, not
    # by the error of the first shift or comparison that meets it
    for make, message in (
            (lambda: Multivector(E22, {1.5: 1}),
             "blade masks must be ints, got 1.5"),
            (lambda: Multivector(E22, {"a": 1}),
             "blade masks must be ints, got 'a'"),
            (lambda: Multivector(E22, {True: 1}),
             "blade masks must be ints, got True"),
            (lambda: Multivector.from_blade(E22, 1.5),
             "blade masks must be ints, got 1.5"),
            (lambda: Multivector.generator(E22, 1.0),
             "generator index must be an int, got 1.0"),
            (lambda: Metric.block(1.5, 2),
             "k and l must be ints, got 1.5, 2"),
            (lambda: Metric.block(2, True),
             "k and l must be ints, got 2, True"),
            (lambda: Metric.interleaved(2.0), "m must be an int, got 2.0")):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            make()


def test_metric_refuses_float_and_bool_squares():
    # 1.0 and True equal 1, so without a type check they built a metric
    # equal to Metric((1, -1)) whose generators still multiplied
    for squares, bad in (((1.0, -1.0), "1.0"), ((True, -1), "True"),
                         ((1, -1.0), "-1.0"), ((1, False), "False")):
        with pytest.raises(TypeError, match=re.escape(
                f"generator squares must be ints, got {bad}")):
            Metric(squares)
    with pytest.raises(ValueError, match="generator squares must be"):
        Metric((2,))
    assert Metric((1, -1)) == Metric.interleaved(1)


def test_metric_from_a_list_equals_and_hashes_as_the_tuple():
    # squares given as a list are kept as a tuple: the metric is hashable,
    # equal to the tuple spelling, and its operands meet the other's
    listed, kept = Metric([1, -1, -1]), Metric((1, -1, -1))
    assert listed == kept and hash(listed) == hash(kept)
    assert listed.squares == (1, -1, -1)
    assert len({listed, kept}) == 1
    x = Multivector.parse("2 g1 + g2 g3", listed)
    y = Multivector.parse("g1 g3 - 3", kept)
    assert mv_mul(x, y) == mv_mul(Multivector.parse("2 g1 + g2 g3", kept), y)
    assert x + y == y + x and x * y == mv_mul(x, y)
    for m in (1, 3):
        z = Multivector.parse("1/2 g1 g2 - g2", Metric([1, -1] * m))
        assert efb_to_blades(blades_to_efb(z, m)) == z


def test_parse_refuses_arguments_of_the_wrong_type():
    # a clear TypeError naming the argument, not an AttributeError from
    # inside the parser
    with pytest.raises(TypeError, match="text must be a str, got int"):
        Multivector.parse(5, E22)
    with pytest.raises(TypeError,
                       match="metric must be a Metric, got str"):
        Multivector.parse("g1", "x")
    with pytest.raises(TypeError, match="text must be a str, got NoneType"):
        Multivector.parse(None, E22)


@pytest.mark.parametrize("build, message", [
    (lambda: Metric(5), "squares must be a sequence of ints, got int"),
    (lambda: Metric(None), "squares must be a sequence of ints, got NoneType"),
    (lambda: Multivector(Metric.interleaved(1), 5),
     "terms must be a mapping, got int"),
    (lambda: Multivector(5, {}), "metric must be a Metric, got int"),
    (lambda: EFBMultivector(2, 5), "entries must be a mapping, got int"),
    (lambda: EFBMultivector(2, {0: 1}),
     re.escape("entry keys must be (row, column) pairs, got 0")),
    # falsy arguments that are no mappings are refused too, not read as
    # no terms
    (lambda: Multivector(Metric.interleaved(1), 0),
     "terms must be a mapping, got int"),
    (lambda: Multivector(Metric.interleaved(1), False),
     "terms must be a mapping, got bool"),
    (lambda: Multivector(Metric.interleaved(1), 0.0),
     "terms must be a mapping, got float"),
    (lambda: EFBMultivector(2, 0), "entries must be a mapping, got int"),
], ids=["metric-int", "metric-none", "multivector-terms",
        "multivector-metric", "efb-entries", "efb-key", "multivector-zero",
        "multivector-false", "multivector-float-zero", "efb-zero"])
def test_constructors_name_a_bad_argument(build, message):
    # a TypeError that names the argument, as parse raises, not one from
    # inside Python about an int that is not iterable or has no n
    with pytest.raises(TypeError, match=message):
        build()


def test_constructors_read_none_and_empty_terms_as_zero():
    metric = Metric.interleaved(1)
    for terms in (None, {}, (), []):
        assert Multivector(metric, terms) == Multivector.zero(metric)
        assert EFBMultivector(1, terms) == EFBMultivector(1)
    assert Multivector(metric) == Multivector.zero(metric)


# -- the stored form: integer numerators over one canonical 2^e -------------

I1 = Metric.interleaved(1)  # four blades, so independent draws often agree
_HALF = DyadicRational(1, 1)
_Z = Multivector(I1, {0b01: DyadicRational(3, 4), 0b11: -5})

# (mask, (numerator, exponent, padding)): the value numerator / 2^exponent
# written over an exponent inflated by the padding
_terms = st.dictionaries(st.integers(0, 3), st.tuples(
    st.integers(-2, 2), st.integers(0, 2), st.integers(0, 3)), max_size=3)


def _build(terms: dict, route: str) -> Multivector:
    """A multivector equal to the terms (zero for "times-zero")."""
    x = Multivector(I1, {mask: DyadicRational(n << pad, e + pad)
                         for mask, (n, e, pad) in terms.items()})
    if route == "parse":
        # unreduced fractions, each term in two halves, and a cancelling pair
        text = " ".join(
            f"{'-' if n < 0 else '+'} {abs(n) << pad}/{2 << (e + pad)} "
            + " ".join(f"g{i + 1}" for i in range(2) if mask >> i & 1)
            for mask, (n, e, pad) in terms.items() for _ in range(2))
        return Multivector.parse(text + " + 3/8 g1 g2 - 3/8 g1 g2", I1)
    return {"init": lambda: x,
            "add-sub": lambda: (x + _Z) - _Z,
            "halves": lambda: x * _HALF + _HALF * x,
            "scale-back": lambda: x * 4 * DyadicRational(1, 2),
            "plus-zero": lambda: x + _Z * 0 + (_Z - _Z),
            "times-zero": lambda: x * 0}[route]()


_ROUTES = ["init", "parse", "add-sub", "halves", "scale-back", "plus-zero",
           "times-zero"]


@given(_terms, _terms, st.sampled_from(_ROUTES), st.sampled_from(_ROUTES),
       st.booleans())
def test_stored_form_is_canonical(t1, t2, r1, r2, same_terms):
    if same_terms:
        t2 = t1
    built = []
    for terms, route in ((t1, r1), (t2, r2)):
        x = _build(terms, route)
        assert all(x._nums.values())
        assert x._e == 0 or any(n & 1 for n in x._nums.values())
        want = {} if route == "times-zero" else {
            mask: Fraction(n, 1 << e) for mask, (n, e, _) in terms.items() if n}
        assert {mask: Fraction(c.numerator, 1 << c.exponent)
                for mask, c in x.terms.items()} == want
        built.append((x, want))
    (x, fx), (y, fy) = built
    assert (x == y) == (fx == fy)


def test_blade_sign_vs_normal_order():
    # every metric for n <= 4, block and interleaved metrics for n = 5, 6
    result = check_blade_sign_vs_normal_order({"assoc_n": 6})
    assert result.passed, result.detail
    assert result.checked == sum(8 ** n for n in range(5)) + 6 * 4 ** 5 + 8 * 4 ** 6


def test_parse_of_str_calls_no_blade_product(monkeypatch):
    # str writes generators in increasing order, so parse ORs each in;
    # sparse and dense operands over Cl(m, m), m = 1..8
    rng = random.Random(73)
    neutral = list(map(Metric.interleaved, range(1, 9)))
    cases = [(metric, random_multivector(metric, rng))
             for metric in (E22, *neutral) for _ in range(40)]
    cases += [(metric, dense_blade_multivector(metric, rng))
              for metric in neutral]

    def refuse(*args):
        raise AssertionError("parse called blade_product")
    monkeypatch.setattr(blades, "blade_product", refuse)
    for metric, x in cases:
        assert Multivector.parse(str(x), metric) == x
    with pytest.raises(AssertionError, match="blade_product"):
        Multivector.parse("g2 g1", E22)  # out of order: one swap


# one change to the text str writes, each a function of the text and a
# Random; a change that finds nothing to act on leaves the text as it was
def _swap_names(text, rng):
    runs = [i for i, term in enumerate(text.split(" + "))
            if term.count(" g") + term.startswith("g") >= 2]
    if not runs:
        return text
    terms = text.split(" + ")
    i = rng.choice(runs)
    words = terms[i].split(" ")
    at = [j for j, w in enumerate(words) if w.startswith("g")]
    a, b = rng.sample(at, 2)
    words[a], words[b] = words[b], words[a]
    terms[i] = " ".join(words)
    return " + ".join(terms)


def _repeat_name(text, rng):
    words = text.split(" ")
    at = [j for j, w in enumerate(words) if w.startswith("g")]
    if not at:
        return text
    j = rng.choice(at)
    return " ".join(words[:j + 1] + [words[j]] + words[j + 1:])


def _at_space(text, rng, new):
    at = [j for j, ch in enumerate(text) if ch == " "]
    if not at:
        return text
    j = rng.choice(at)
    return text[:j] + new + text[j + 1:]


def _at_digit(text, rng, digit):
    at = [j for j, ch in enumerate(text) if ch.isdigit()]
    j = rng.choice(at)
    return text[:j] + digit + text[j + 1:]


def _coefficient(text, rng, write):
    """text with one coefficient token, its sign kept, rewritten."""
    words = text.split(" ")
    at = [j for j, w in enumerate(words) if w.lstrip("-")[:1].isdigit()]
    if not at:
        return text
    j = rng.choice(at)
    sign, word = ("-", words[j][1:]) if words[j][0] == "-" else ("", words[j])
    words[j] = sign + write(word, rng)
    return " ".join(words)


def _power_form(word, rng):
    num, _, den = word.partition("/")
    return f"{num}/2^{int(den or 1).bit_length() - 1}"


_EDITS = {
    "swap-names": _swap_names,
    "repeat-name": _repeat_name,
    "double-space": lambda t, r: _at_space(t, r, "  "),
    "drop-space": lambda t, r: _at_space(t, r, ""),
    "leading-plus": lambda t, r: "+" + t,
    "arabic-digit": lambda t, r: _at_digit(t, r, "\u0663"),
    "fullwidth-digit": lambda t, r: _at_digit(t, r, "\uff11"),
    "power-of-two": lambda t, r: _coefficient(t, r, _power_form),
    "leading-zero": lambda t, r: _coefficient(t, r, lambda w, _: "0" + w),
    "long-numerator": lambda t, r: _coefficient(
        t, r, lambda w, _: "7" * 4301),
    "denominator-3": lambda t, r: _coefficient(
        t, r, lambda w, _: w.partition("/")[0] + "/3"),
}


@given(st.integers(1, 6), st.sampled_from(["sparse", "share", "dense"]),
       st.integers(0, 8), st.sampled_from(sorted(_EDITS)), st.randoms())
@settings(max_examples=300, deadline=None)
def test_one_pass_edits_read_as_the_reference(m, density, top, edit, rng):
    # str(x) at m = 1..6, sparse (dict form), at the list share or dense
    # (list forms), exponents up to 8, then one change: parse gives the
    # reference's value, or its exception type and message
    metric = Metric.interleaved(m)
    dim = 1 << 2 * m
    count = {"sparse": rng.randint(1, 6), "share": (3 * dim + 7) // 8,
             "dense": dim}[density]
    x = Multivector(metric, {
        mask: DyadicRational(rng.choice((-1, 1)) * rng.randint(1, 999),
                             rng.randint(0, top))
        for mask in rng.sample(range(dim), min(count, dim))})
    text = _EDITS[edit](str(x), rng)
    assert (_outcome(Multivector.parse, text, metric)
            == _outcome(_reference_parse, text, metric))


def test_canonical_text_takes_the_one_pass(monkeypatch):
    # dense canonical text at m = 5, integer and n/d coefficients, never
    # enters the term loop; a 6-term text at m = 6 is read by name
    # lookups and builds no run table
    rng = random.Random(83)
    dense = dense_blade_multivector(Metric.interleaved(5), rng)
    sparse = Multivector(Metric.interleaved(6), {
        mask: DyadicRational(rng.randint(-99, 99) | 1, rng.randint(0, 8))
        for mask in rng.sample(range(1 << 12), 6)})

    def refuse(name):
        def call(*args):
            raise AssertionError(f"parse called {name}")
        return call
    monkeypatch.setattr(blades, "_term_loop", refuse("the term loop"))
    for x in (dense, dense * DyadicRational(3, 5)):
        assert x._vec is not None
        assert Multivector.parse(str(x), x.metric) == x
    monkeypatch.setattr(blades, "_grade_order", refuse("_grade_order"))
    assert sparse._nnz == 6
    assert Multivector.parse(str(sparse), sparse.metric) == sparse
    # text outside the form takes the loop
    with pytest.raises(AssertionError, match="the term loop"):
        Multivector.parse("g2 g1", E22)


def _names_by_bits(mask: int) -> str:
    return " ".join(f"g{i + 1}" for i in range(mask.bit_length())
                    if mask >> i & 1)


def test_str_names_across_byte_boundaries():
    big = Metric.block(4096, 0)
    rng = random.Random(79)
    masks = [0b1_1000_0000, 0b11 << 15, 1 << 4095, (1 << 4096) - 1,
             1 << 8 | 1 << 4094, *(rng.getrandbits(4096) for _ in range(5)),
             *(rng.getrandbits(24) for _ in range(50))]
    for mask in masks:
        x = Multivector.from_blade(big, mask, -3)
        assert str(x) == f"-3 {_names_by_bits(mask)}"
    assert str(Multivector.from_blade(big, 0b11 << 7)) == "g8 g9"
    assert str(Multivector.from_blade(big, 0b11 << 15)) == "g16 g17"
    assert str(Multivector.generator(big, 4096)) == "g4096"
    # one table per byte position, the last one that of g4089..g4096
    assert blades._byte_names(blades.MAX_N // 8 - 1)[0x80] == "g4096"
    assert blades._byte_names.cache_info().currsize <= blades.MAX_N // 8


# -- mv_mul's two kernels: the pair loop and the Gray-code walk -------------

def _kernel(monkeypatch, x, y) -> str:
    """Which kernel mv_mul runs on x, y; the product must equal the
    pair loop's either way."""
    ran = []
    for name in ("_pair_loop", "_gray_walk"):
        real = getattr(blades, name)

        def spy(*args, real=real, name=name):
            ran.append(name)
            return real(*args)
        monkeypatch.setattr(blades, name, spy)
    z = mv_mul(x, y)
    monkeypatch.undo()
    assert z == Multivector._raw(x.metric, blades._pair_loop(x, y),
                                 x._e + y._e)
    (kernel,) = ran
    return kernel


def test_dense_operands_take_the_walk(monkeypatch):
    rng = random.Random(83)
    for metric in (Metric.interleaved(4), Metric.block(3, 5),
                   Metric.block(0, 9)):
        dim = 1 << metric.n
        x, y = _blades(metric, rng, dim, 1023), _blades(metric, rng, dim, 9)
        assert _kernel(monkeypatch, x, y) == "_gray_walk"
        # a quarter of the blades each, 4^n / 16 pairs, still walks
        x, y = (_blades(metric, rng, dim // 4, 9) for _ in range(2))
        assert _kernel(monkeypatch, x, y) == "_gray_walk"


def test_sparse_operands_take_the_loop_before_any_bit_scan(monkeypatch):
    # the first test weighs len(x) * len(y) against the walk at its
    # narrowest lane; the bit scan never runs
    def refuse(*args):
        raise AssertionError("bit scan")
    rng = random.Random(89)
    for n in (0, 1, 4, 8, 12, 16):
        metric = Metric.block(n // 2, n - n // 2)
        for count in (0, 1, 6):
            x = _blades(metric, rng, min(count, 1 << n), 9)
            y = _blades(metric, rng, min(6, 1 << n), 9)
            monkeypatch.setattr(dyadic, "_magnitude", refuse)
            assert blades._walk_width(x, y) == 0
            monkeypatch.undo()
            assert _kernel(monkeypatch, x, y) == "_pair_loop"


def test_scaled_operands_walk_without_a_scan(monkeypatch):
    # a scan bounds the first operand once; a scaled copy carries the
    # bound, so the walk takes its width with no scan, and the product's
    # bound covers its numerators
    def refuse(*args):
        raise AssertionError("bit scan")
    rng = random.Random(91)
    metric = Metric.interleaved(4)
    x, y = (_blades(metric, rng, 1 << 8, 1023) for _ in range(2))
    x._bound(), y._bound()
    a, b = 15 * x, y * DyadicRational(-7, 3)
    assert (a._bits, b._bits) == (x._bits + 4, y._bits + 3)
    monkeypatch.setattr(dyadic, "_magnitude", refuse)
    z = mv_mul(a, b)
    monkeypatch.undo()
    assert z == mv_mul(15 * x, y * DyadicRational(-7, 3))
    assert z._bits >= max(abs(n).bit_length() for n in z._nums.values())


def test_wide_lanes_tip_the_rule_to_the_loop(monkeypatch):
    # enough pairs to pass the first test, but 300-bit numerators make
    # the walk's lanes too wide to pay
    rng = random.Random(97)
    metric = Metric.block(4, 4)
    x, y = (_blades(metric, rng, 64, 1 << 300) for _ in range(2))
    assert _rule_width(x, y) == 616
    assert _kernel(monkeypatch, x, y) == "_pair_loop"
    narrow = [_blades(metric, rng, 64, 9) for _ in range(2)]
    assert _kernel(monkeypatch, *narrow) == "_gray_walk"


def test_the_rule_weighs_the_blades_of_x(monkeypatch):
    # the walk pays one multiply-add of its packed int per blade of x, so
    # the same 32 * 1024 pairs walk with x sparse and loop with x dense
    rng = random.Random(99)
    metric = Metric.interleaved(5)
    sparse, dense = (_blades(metric, rng, count, 1 << 40)
                     for count in (32, 1 << 10))
    assert _rule_width(sparse, dense) == 96
    assert _kernel(monkeypatch, sparse, dense) == "_gray_walk"
    assert _kernel(monkeypatch, dense, sparse) == "_pair_loop"


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_dense_pair_counts_exactly_16_to_the_m(m):
    # counted as len(x) * len(y) whichever kernel runs: the loop at
    # m = 1, the walk with j = 2, 3, 4, 4 low generators at m = 2..5
    rng = random.Random(101)
    metric = Metric.interleaved(m)
    x, y = (_blades(metric, rng, 4 ** m, 9) for _ in range(2))
    reset_op_counters()
    mv_mul(x, y)
    assert op_counters().blade_pairs == 16 ** m
    reset_op_counters()


# -- the blocked walk: Gray steps over the high bits, Horner's rule below ---

def _walked(x: Multivector, y: Multivector) -> Multivector:
    return Multivector._raw(x.metric,
                            blades._gray_walk(x, y, _rule_width(x, y)),
                            x._e + y._e)


def _looped(x: Multivector, y: Multivector) -> Multivector:
    return Multivector._raw(x.metric, blades._pair_loop(x, y), x._e + y._e)


def _metrics(n: int, rng) -> list:
    metrics = [Metric.block(n // 2, n - n // 2),
               Metric(tuple(rng.choice((1, -1)) for _ in range(n)))]
    if n % 2 == 0:
        metrics.append(Metric.interleaved(n // 2))
    return metrics


@pytest.mark.parametrize("n", range(11))
def test_blocked_walk_equals_the_pair_loop(n):
    rng = random.Random(103 + n)
    dim = 1 << n
    for metric in _metrics(n, rng):
        # dense against dense up to n = 8, where the pair loop stays quick
        for count in {1, min(dim, 64), dim if n <= 8 else 64}:
            x = _blades(metric, rng, count, 1 << 40)
            y = _blades(metric, rng, dim, 9)
            assert _walked(x, y) == _looped(x, y)
            assert _walked(y, x) == _looped(y, x)


@pytest.mark.parametrize("k", range(2, 8))
def test_walk_at_every_byte_edge(k):
    # lane needs 8k - 1, 8k and 8k + 1 bits (n + 1 + 2b, so n = 6 or 7 by
    # parity), where whole-byte lanes are 8k or 8k + 8 bits wide; x_a =
    # +-c and y_a = +-x_a a^2 put every pair into the scalar, which is
    # +-2^n c^2, the most the lanes hold: verify's lane-bits operands
    rng = random.Random(117 + k)
    for need in (8 * k - 1, 8 * k, 8 * k + 1):
        n = 6 + (need & 1 == 0)
        assert n >= blades._WHOLE_BYTES_N
        metric = Metric(tuple(rng.choice((1, -1)) for _ in range(n)))
        c = (1 << (need - n - 1) // 2) - 1
        x = _blades(metric, rng, 1 << n, c, c)
        for s in (1, -1):
            y = _mate(x, s)
            assert _rule_width(x, y) == -(-need // 8) * 8
            walked = blades._gray_walk(x, y, _rule_width(x, y))
            assert walked[0] == s * c * c << n
            assert _walked(x, y) == _looped(x, y)


def test_walk_lanes_take_whole_bytes_from_the_cut_off():
    # below _WHOLE_BYTES_N the native sizes 1, 2, 4 and 8 bytes, from it
    # the fewest whole bytes; past a word both rules take whole bytes
    cut = blades._WHOLE_BYTES_N
    for need, native, whole in ((8, 8, 8), (9, 16, 16), (17, 32, 24),
                                (33, 64, 40), (43, 64, 48), (57, 64, 64),
                                (65, 72, 72), (611, 616, 616)):
        assert blades._walk_lane(cut - 1, need) == native
        assert blades._walk_lane(cut, need) == whole


def test_block_never_exceeds_four_low_generators():
    assert [blades._block(n) for n in range(12)] == [
        0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 4, 4]
    assert max(map(blades._block, range(blades.MAX_N + 1))) == 4


@pytest.mark.parametrize("n", [2, 5, 8, 10])
def test_one_term_x_at_low_high_and_mixed_bits(n):
    # the blade of x lies in the folded low bits, the walked high bits,
    # or both
    rng = random.Random(107)
    j, dim = blades._block(n), 1 << n
    low, high = (1 << j) - 1, dim - (1 << j)
    for metric in _metrics(n, rng):
        y = _blades(metric, rng, dim, 1 << 20)
        for mask in (low, 1, high, 1 << n - 1, low | high, 1 | 1 << n - 1,
                     rng.randrange(dim)):
            x = Multivector._raw(metric, {mask: -5}, 0)
            assert _walked(x, y) == _looped(x, y)


@pytest.mark.parametrize("n", [4, 7, 9])
def test_x_in_one_low_class(n):
    # every blade of x has the same low bits l, so one accumulator fills
    # and the fold carries it up through the others, all zero
    rng = random.Random(109)
    j, dim = blades._block(n), 1 << n
    for metric in _metrics(n, rng):
        y = _blades(metric, rng, dim, 1 << 30)
        for l in range(1 << j):
            x = Multivector._raw(metric, {
                l | h: rng.choice((-1, 1)) * rng.randint(1, 1 << 30)
                for h in range(0, dim, 1 << j)}, 0)
            assert _walked(x, y) == _looped(x, y)


def test_walk_masks_cached_equal_a_fresh_build_and_stay_bounded():
    masks = blades._walk_masks
    masks.cache_clear()
    for n, neg, size in ((0, 0, 1), (3, 0b101, 8), (8, 0xAA, 8),
                         (6, 0b111111, 9)):
        assert masks(n, neg, size) == masks.__wrapped__(n, neg, size)
        assert masks(n, neg, size) is masks(n, neg, size)
    assert masks.cache_info().maxsize <= 8
    # a walk whose masks span more than _MASK_SPAN bytes builds them
    # afresh and leaves the cache as it was
    metric = Metric.block(6, 6)
    rng = random.Random(113)
    x, y = (_blades(metric, rng, 1 << 12, 1 << 20) for _ in range(2))
    width = _rule_width(x, y)
    assert width << 12 >> 3 > blades._MASK_SPAN
    before = masks.cache_info().currsize
    blades._gray_walk(x, y, width)
    assert masks.cache_info().currsize == before


# -- the two storage forms: a dict of masks, or one list of 2^n -------------

def test_the_share_picks_the_form():
    # a list of 2^n, zeros included, from 3/8 of the blades on, and a
    # dict below; the share is compared exactly at any n
    rng = random.Random(127)
    for n in range(9):
        least = -(-3 * (1 << n) // 8)
        for nnz in {max(least - 1, 0), least, 1 << n}:
            x = _blades(Metric.block(n, 0), rng, nnz, 9)
            assert x._nnz == nnz == len(x._nums)
            if nnz >= least:
                assert type(x._vec) is list and len(x._vec) == 1 << n
            else:
                assert x._vec is None and type(x._map) is dict
    assert not blades._listed(1 << 62, blades.MAX_N)
    assert Multivector.zero(I2)._vec is None
    # one scalar is 1 of 2^n blades: a list at n = 0 and 1 only
    assert [Multivector.scalar(Metric.block(n, 0), 3)._vec
            for n in range(3)] == [[3], [3, 0], None]


def _stored(terms: dict, n: int) -> Multivector:
    metric = (Metric.interleaved(n // 2) if n % 2 == 0
              else Metric.block(n // 2, n - n // 2))
    return Multivector(metric, {mask: DyadicRational(c, e)
                                for mask, (c, e) in terms.items()})


_stored_terms = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.dictionaries(
        st.integers(0, (1 << n) - 1),
        st.tuples(st.integers(-9, 9).filter(bool), st.integers(0, 3)),
        max_size=1 << n)))


@given(_stored_terms, _stored_terms)
@settings(max_examples=40)
def test_one_value_has_one_storage(xt, yt):
    # the value by every producer: the same _key() and storage type; and
    # a first read of _nums changes no ==, str or product
    (n, terms), (_, other) = xt, yt
    x = _stored(terms, n)
    y = _stored({mask & (1 << n) - 1: c for mask, c in other.items()}, n)
    routes = [produce for route, produce in verify._PRODUCERS.items()
              if n % 2 == 0 or "read-out" not in route]
    for produce in routes:
        z, read = produce(x), produce(x)
        read._nums
        assert z._key() == x._key() == read._key()
        assert type(z._vec) is type(x._vec) is type(read._vec)
        assert z == read and str(z) == str(read) == str(x)
        assert verify._terms(mv_mul(z, y)) == verify._terms(mv_mul(read, y))
        assert verify._terms(mv_mul(y, z)) == verify._terms(mv_mul(y, read))
        if n % 2 == 0:
            m = n // 2
            assert verify._terms(efb_to_blades(efb_product(
                blades_to_efb(z, m), blades_to_efb(y, m)))) == verify._terms(
                efb_to_blades(efb_product(blades_to_efb(read, m),
                                          blades_to_efb(y, m))))


def test_list_forms_build_no_dict(monkeypatch):
    # ==, scaling, the bound, the pair count, str, sums, the involution
    # and the dense Fock-basis pipeline read the list; only a reader of
    # _nums builds the dict, once
    rng = random.Random(131)
    metric = Metric.interleaved(4)
    x, y = (_blades(metric, rng, 1 << 8, 1023) for _ in range(2))
    built = []
    real = Multivector._nums
    monkeypatch.setattr(Multivector, "_nums", property(
        lambda self: built.append(self) or real.fget(self)))
    reset_op_counters()
    z = mv_mul(x, y)
    assert op_counters().blade_pairs == 1 << 16
    reset_op_counters()
    scaled = 3 * x * DyadicRational(1, 2)
    assert x == x and x != y and z == mv_mul(x, y)
    assert scaled._bound() and x._bound() and str(x) and str(z)
    assert x + scaled - scaled == x and grade_involution(x) != x
    out = efb_to_blades(efb_product(blades_to_efb(x, 4), blades_to_efb(y, 4)))
    assert out == z and out._vec is not None
    assert built == []
    x._nums
    x._nums
    assert built == [x, x] and x._map is not None and x._map == x._nums


def _text_by_terms(x: Multivector) -> str:
    """str of x from its reduced terms, by grade, then by mask."""
    text = ""
    for mask, c in sorted(x.terms.items(),
                          key=lambda t: (t[0].bit_count(), t[0])):
        mag, gens = str(abs(c)), _names_by_bits(mask)
        body = gens if mag == "1" and mask else " ".join(
            filter(None, (mag, gens)))
        sign = "-" if c.numerator < 0 else "+"
        text += f" {sign} {body}" if text else body if sign == "+" else (
            f"-{body}")
    return text or "0"


def test_grade_order_is_built_for_list_forms_alone():
    # a sparse operand over 4096 generators renders with no 2^n table;
    # the table of a list form is kept for a few n
    order = blades._grade_order
    order.cache_clear()
    big = Metric.block(4096, 0)
    assert str(Multivector.from_blade(big, 1 << 4095, 5)) == "5 g4096"
    assert order.cache_info().currsize == 0
    rng = random.Random(137)
    for n in range(11):
        for count in {1, 1 << n >> 2, 1 << n}:  # dicts and lists
            x = _blades(Metric.block(n, 0), rng, count, 40)
            assert str(x) == _text_by_terms(x)
    assert order.cache_info().currsize <= order.cache_info().maxsize <= 8
    masks, names, runs = order(3)
    assert masks == [0, 1, 2, 4, 3, 5, 6, 7]
    assert names[4:] == ["g1 g2", "g1 g3", "g2 g3", "g1 g2 g3"]
    # parse's table of whole runs of names, kept with the order
    assert runs == dict(zip(names, masks)) and runs["g1 g3"] == 5
