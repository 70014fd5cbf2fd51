import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from operator import add, sub
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cliffbits
from cliffbits import (DyadicRational, EFBMultivector, Metric, MetricError,
                       Multivector, blade_product, blades_to_efb,
                       efb_element, efb_product, efb_to_blades,
                       matrix_unit_normalization, mv_mul, normal_order,
                       normalization_sign, omega_eigen_check, op_counters,
                       reset_op_counters, sig_label, sign_s, signatures,
                       volume_element, witt_basis, word_multivector,
                       word_product_oracle)
from cliffbits import blades, dyadic, efb, verify, words
from cliffbits.bits import (_magnitude, half_pochhammer_sign, parity_above,
                            walsh_batch, walsh_function, walsh_index)
from cliffbits.dyadic import MAX_BITS
from cliffbits.sampling import (dense_blade_multivector,
                                dense_efb_multivector, random_multivector)

from conftest import OTHER_SCALARS, multivectors


def test_sig_label():
    assert sig_label(0, 2) == "++"
    assert sig_label(0b10, 2) == "-+"
    assert sig_label(0b01, 2) == "+-"
    assert sig_label(0b101, 3) == "-+-"


def test_witt_relations_m2():
    p, q = witt_basis(2)
    metric = p[0].metric
    zero = Multivector.zero(metric)
    one = Multivector.scalar(metric, 1)
    for i in range(2):
        for j in range(2):
            assert mv_mul(p[i], p[j]) + mv_mul(p[j], p[i]) == zero
            assert mv_mul(q[i], q[j]) + mv_mul(q[j], q[i]) == zero
            want = one if i == j else zero
            assert mv_mul(p[i], q[j]) + mv_mul(q[j], p[i]) == want


def test_witt_halves():
    # g(2i-1) = p + q and g(2i) = p - q without any 1/2 factor
    p, q = witt_basis(3)
    metric = p[0].metric
    for i in range(3):
        assert p[i] + q[i] == Multivector.generator(metric, 2 * i + 1)
        assert p[i] - q[i] == Multivector.generator(metric, 2 * i + 2)


def test_element_words_frozen():
    e = efb_element(1, 2, 2)
    assert e.word == ("q", "p")
    assert e.word_str() == "q1 p2"
    e = efb_element(0, 0, 2)
    assert e.word == ("qp", "qp")
    assert e.word_str() == "q1p1 q2p2"
    e = efb_element(3, 3, 2)
    assert e.word == ("pq", "pq")
    e = efb_element(2, 3, 2)
    assert e.word == ("pq", "q")


def test_index_validation():
    with pytest.raises(ValueError):
        efb_element(4, 0, 2)
    with pytest.raises(ValueError):
        efb_element(0, -1, 2)
    with pytest.raises(ValueError):
        efb_element(0, 0, 0)


def test_signature_vectors():
    # h reads the first letter of each slot, g the letter-count parity
    e = efb_element(1, 2, 2)  # q1 p2
    h, g, chi = signatures(e)
    assert h == (1, -1)
    assert g == (-1, -1)
    assert chi.h_hat == -1 and chi.g_hat == 1
    e = efb_element(0, 0, 2)  # q1p1 q2p2
    h, g, chi = signatures(e)
    assert h == (1, 1) and g == (1, 1)
    assert chi.h_hat == 1 and chi.g_hat == 1


def test_normal_order_examples():
    sign, slots = normal_order([(1, "q"), (1, "p")])
    assert sign == 1 and slots == {1: "qp"}
    sign, slots = normal_order([(2, "p"), (1, "q")])
    assert sign == -1 and slots == {1: "q", 2: "p"}
    sign, slots = normal_order([(1, "p"), (1, "p")])
    assert sign == 0 and slots is None
    sign, slots = normal_order([(1, "q"), (1, "p"), (1, "q")])
    assert sign == 1 and slots == {1: "q"}
    sign, slots = normal_order([(1, "p"), (1, "q"), (1, "p"), (1, "q")])
    assert sign == 1 and slots == {1: "pq"}


def test_word_product_oracle_matches_sign():
    for m in (1, 2, 3):
        dim = 1 << m
        for a in range(dim):
            for b in range(dim):
                for d in range(dim):
                    sign, elem = word_product_oracle(a, b, b, d, m)
                    assert sign == sign_s(a, b, d, m)
                    assert (elem.index.row, elem.index.col) == (a, d)


def test_word_product_annihilates_on_mismatch():
    assert word_product_oracle(0, 1, 2, 3, 2) == (0, None)
    assert word_product_oracle(1, 0, 3, 2, 2) == (0, None)


def test_sign_hand_checked():
    # m = 2: rows 1 and 2 differ in both slots; the crossing costs a sign
    assert sign_s(1, 2, 0, 2) == -1
    assert sign_s(0, 0, 0, 2) == 1
    assert sign_s(3, 3, 3, 2) == 1


def test_sign_cocycle_m3():
    m, dim = 3, 8
    for a in range(dim):
        for b in range(dim):
            for d in range(dim):
                for e in range(dim):
                    assert (sign_s(a, b, d, m) * sign_s(a, d, e, m)
                            == sign_s(b, d, e, m) * sign_s(a, b, e, m))


def test_sign_validates_range():
    # sign_s, normalization_sign and EFBIndex share one index check;
    # efb_element bounds m first, through the engine's _check_m
    out_of_range = "index out of range for m=2"
    cases = [
        (sign_s, (-1, 0, 0, 2), out_of_range),
        (sign_s, (0, 4, 0, 2), out_of_range),
        (sign_s, (0, 0, 0, 0), "m must be positive, got 0"),
        (normalization_sign, (0, -1, 2), out_of_range),
        (normalization_sign, (4, 0, 2), out_of_range),
        (normalization_sign, (0, 0, 0), "m must be positive, got 0"),
        (efb_element, (-1, 0, 2), out_of_range),
        (efb_element, (0, 4, 2), out_of_range),
        (efb_element, (0, 0, 0), "m must be between 1 and 8, got 0"),
    ]
    for func, args, message in cases:
        with pytest.raises(ValueError) as info:
            func(*args)
        assert str(info.value) == message, (func.__name__, args)


def test_sign_refuses_non_int_indices():
    # a float or bool index or m is refused as efb._check_entry refuses
    # it, not with the error of the first shift that meets it
    cases = [
        (sign_s, (0.5, 0, 0, 2),
         "m and indices must be ints, got 2, (0.5, 0, 0)"),
        (sign_s, (0, 0, 0, 2.0),
         "m and indices must be ints, got 2.0, (0, 0, 0)"),
        (normalization_sign, (0, 1, 2.0),
         "m and indices must be ints, got 2.0, (0, 1)"),
        (normalization_sign, (0, False, 2),
         "m and indices must be ints, got 2, (0, False)"),
        (efb_element, (True, 0, 2),
         "m and indices must be ints, got 2, (True, 0)"),
        (efb_element, (0, 1.0, 2),
         "m and indices must be ints, got 2, (0, 1.0)"),
    ]
    for func, args, message in cases:
        with pytest.raises(TypeError) as info:
            func(*args)
        assert str(info.value) == message, (func.__name__, args)


def test_word_as_blades_m1():
    # the four m = 1 words written out over the blade basis
    metric = Metric.interleaved(1)
    half = DyadicRational(1, 1)
    g1 = Multivector.generator(metric, 1)
    g2 = Multivector.generator(metric, 2)
    one = Multivector.scalar(metric, 1)
    w = mv_mul(g1, g2)
    assert word_multivector(efb_element(0, 0, 1)) == half * (one + w)
    assert word_multivector(efb_element(1, 1, 1)) == half * (one - w)
    assert word_multivector(efb_element(0, 1, 1)) == half * (g1 - g2)
    assert word_multivector(efb_element(1, 0, 1)) == half * (g1 + g2)


def test_eigen_m1_frozen():
    assert omega_eigen_check(efb_element(1, 0, 1)) == (-1, 1)
    assert omega_eigen_check(efb_element(0, 1, 1)) == (1, -1)
    assert omega_eigen_check(efb_element(0, 0, 1)) == (1, 1)
    assert omega_eigen_check(efb_element(1, 1, 1)) == (-1, -1)


def test_eigen_matches_signatures_m3():
    for row in range(8):
        for col in range(8):
            e = efb_element(row, col, 3)
            _, _, chi = signatures(e)
            assert omega_eigen_check(e) == (chi.h_hat, chi.h_hat * chi.g_hat)


def test_identity_and_volume_expansion():
    for m in (1, 2, 3):
        metric = Metric.interleaved(m)
        one = Multivector.scalar(metric, 1)
        w = Multivector.from_blade(metric, volume_element(metric))
        assert blades_to_efb(one, m) == EFBMultivector.identity(m)
        assert blades_to_efb(w, m) == EFBMultivector.volume(m)


def test_zero_operand_converts_to_zero():
    # no stored coset: the transform runs over an empty batch
    for m in range(1, 9):
        zero = Multivector.zero(Metric.interleaved(m))
        assert blades_to_efb(zero, m) == EFBMultivector.zeros(m)
        assert efb_to_blades(EFBMultivector.zeros(m)) == zero


def test_identity_entries():
    x = EFBMultivector.identity(2)
    assert x.entry(0, 0) == 1 and x.entry(3, 3) == 1
    assert x.entry(0, 1) == 0
    y = EFBMultivector.volume(2)
    assert y.entry(0, 0) == 1 and y.entry(1, 1) == -1
    assert y.entry(2, 2) == -1 and y.entry(3, 3) == 1


def test_blades_to_efb_needs_neutral_interleaved_metric():
    x = Multivector.scalar(Metric.block(2, 2), 1)
    with pytest.raises(MetricError):
        blades_to_efb(x, 2)


def test_pipeline_refuses_other_operands():
    # a string met an attribute lookup and raised Python's own message
    x = Multivector.generator(Metric.interleaved(1), 1)
    e = blades_to_efb(x, 1)
    mul = "mv_mul needs two Multivector operands"
    to_efb = "blades_to_efb needs a Multivector operand"
    to_blades = "efb_to_blades needs an EFBMultivector operand"
    for call, message in (
            (lambda: mv_mul("a", "b"), mul), (lambda: mv_mul(x, "b"), mul),
            (lambda: mv_mul(e, x), mul),
            (lambda: blades_to_efb("g1", 1), to_efb),
            (lambda: blades_to_efb(e, 1), to_efb),
            (lambda: efb_to_blades("x"), to_blades),
            (lambda: efb_to_blades(x), to_blades)):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call()


def test_single_blade_coset_support():
    # each blade lands in one diagonal coset: col = row XOR parity mask
    metric = Metric.interleaved(2)
    x = blades_to_efb(Multivector.generator(metric, 1), 2)  # g1: slot 1 odd
    assert all(col == row ^ 0b10 for row, col, _ in x.nonzero())
    y = blades_to_efb(Multivector.generator(metric, 4), 2)  # g4: slot 2 odd
    assert all(col == row ^ 0b01 for row, col, _ in y.nonzero())


@given(multivectors(Metric.interleaved(2)))
def test_roundtrip_m2(x):
    assert efb_to_blades(blades_to_efb(x, 2)) == x


@given(multivectors(Metric.interleaved(3)), multivectors(Metric.interleaved(3)))
@settings(max_examples=30)
def test_products_agree_m3(x, y):
    fast = efb_product(blades_to_efb(x, 3), blades_to_efb(y, 3))
    assert fast == blades_to_efb(mv_mul(x, y), 3)
    assert efb_to_blades(fast) == mv_mul(x, y)


def test_efb_product_shape_mismatch():
    with pytest.raises(ValueError):
        efb_product(EFBMultivector.identity(1), EFBMultivector.identity(2))


def test_efb_linear_ops():
    x = EFBMultivector.identity(2)
    y = EFBMultivector.volume(2)
    z = x + y
    assert z.entry(0, 0) == 2 and z.entry(1, 1) == 0
    assert (x - x) == EFBMultivector.zeros(2)
    assert (-y).entry(1, 1) == 1
    assert (3 * x).entry(2, 2) == 3


def test_efb_rejects_other_coefficients():
    # the loops scale entries to integers, exact only for these two types
    assert EFBMultivector(1, {(0, 1): 2, (1, 0): DyadicRational(1, 3)})
    for s in OTHER_SCALARS:
        with pytest.raises(TypeError):
            EFBMultivector(1, {(0, 0): s})


def test_efb_mul_rejects_other_scalars():
    x = EFBMultivector.identity(1)
    assert (x * DyadicRational(1, 1)).entry(1, 1) == DyadicRational(1, 1)
    for s in OTHER_SCALARS:
        assert x.__mul__(s) is NotImplemented
        with pytest.raises(TypeError):
            x * s


def test_efb_times_efb_is_the_product():
    rng = random.Random(59)
    x, y = _random_efb(3, rng, 0.4, 5), _random_efb(3, rng, 0.4, 5)
    assert x * y == efb_product(x, y)


def test_efb_operators_refuse_other_operands():
    e, f = EFBMultivector.identity(2), EFBMultivector.identity(3)
    assert (e == 1) is False and e != 1
    assert (e == f) is False and e != f
    for op, symbol in ((add, "+"), (sub, "-")):
        for other, name in ((1, "int"), (f, "EFBMultivector")):
            with pytest.raises(TypeError, match=re.escape(
                    f"unsupported operand type(s) for {symbol}: "
                    f"'EFBMultivector' and '{name}'")):
                op(e, other)
    with pytest.raises(TypeError,
                       match="^efb_product needs two EFBMultivector operands$"):
        efb_product(e, 3)


def test_efb_rmul_rejects_other_scalars():
    x = EFBMultivector.identity(1)
    assert (DyadicRational(-3, 2) * x).entry(0, 0) == DyadicRational(-3, 2)
    for s in OTHER_SCALARS:
        assert x.__rmul__(s) is NotImplemented
        with pytest.raises(TypeError):
            s * x


def test_normalization_m2_frozen():
    # row 0 is the anchor; exactly four entries flip for m = 2
    negatives = {(a, b) for a in range(4) for b in range(4)
                 if normalization_sign(a, b, 2) < 0}
    assert negatives == {(1, 2), (1, 3), (3, 0), (3, 1)}
    assert all(normalization_sign(0, b, 2) == 1 for b in range(4))


def test_normalized_units_multiply_like_matrix_units():
    m = 2
    table = matrix_unit_normalization(m)
    for a in range(4):
        for b in range(4):
            for d in range(4):
                na = table[efb_element(a, b, m).index]
                nb = table[efb_element(b, d, m).index]
                nd = table[efb_element(a, d, m).index]
                assert na * nb * sign_s(a, b, d, m) == nd


def test_normalized_units_via_blade_oracle():
    table = matrix_unit_normalization(2)
    units = {}
    for a in range(4):
        for b in range(4):
            e = efb_element(a, b, 2)
            units[a, b] = table[e.index] * word_multivector(e)
    zero = Multivector.zero(Metric.interleaved(2))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    got = mv_mul(units[a, b], units[c, d])
                    want = units[a, d] if b == c else zero
                    assert got == want


def test_conversions_vs_word_oracle():
    result = verify.check_conversion_vs_word_oracle({"m": 5})
    assert result.passed, result.detail
    assert result.checked == 4 + 16 + 64 + 256


def test_m_bound():
    # m = 9 is one past the bound, yet small enough to allocate if unchecked
    with pytest.raises(ValueError):
        EFBMultivector(9)
    with pytest.raises(ValueError):
        EFBMultivector(0)
    with pytest.raises(ValueError):
        blades_to_efb(Multivector.scalar(Metric.interleaved(9), 1), 9)


@pytest.mark.parametrize("m", [0, 9])
def test_oracle_tables_bound_m(m):
    # 4^9 entries would still build in seconds; 4^30 would not finish
    for table in (words.table_entries, matrix_unit_normalization):
        with pytest.raises(ValueError,
                           match=f"m must be between 1 and 8, got {m}"):
            table(m)


@pytest.mark.parametrize("a, b", [(-1, -1), (5, 1), (4, 4), (0, -1)])
def test_entry_out_of_range_is_refused(a, b):
    # a negative index would wrap into the coset list, and one past the
    # matrix would read 0 or raise a bare IndexError
    message = rf"^entry \({a}, {b}\) out of range for m=2$"
    with pytest.raises(ValueError, match=message):
        EFBMultivector.identity(2).entry(a, b)
    with pytest.raises(ValueError, match=message):
        EFBMultivector(2, {(a, b): 1})


@pytest.mark.parametrize("a, b", [(1.0, 1), (1, "1"), (True, 0)])
def test_entry_index_must_be_an_int(a, b):
    # a float index met the coset XOR and raised Python's own ^ error
    message = rf"^entry indices must be ints, got \({a!r}, {b!r}\)$"
    with pytest.raises(TypeError, match=message):
        EFBMultivector.identity(2).entry(a, b)
    with pytest.raises(TypeError, match=message):
        EFBMultivector(2, {(a, b): 1})


@pytest.mark.parametrize("call", [
    lambda: EFBMultivector(True),
    lambda: EFBMultivector.identity(True),
    lambda: blades_to_efb(Multivector.scalar(Metric.interleaved(1), 1), True),
], ids=["constructor", "identity", "blades_to_efb"])
def test_m_must_not_be_a_bool(call):
    # True is an int equal to 1, and built an m=True matrix
    with pytest.raises(TypeError, match=r"^m must be an int, got True$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: blades_to_efb(Multivector.scalar(Metric.interleaved(2), 1), 2.0),
    lambda: EFBMultivector(2.0),
    lambda: EFBMultivector.identity(2.0),
    lambda: efb_element(0, 0, 2.0),
], ids=["blades_to_efb", "constructor", "identity", "efb_element"])
def test_m_must_be_an_int(call):
    with pytest.raises(TypeError, match=r"^m must be an int, got 2\.0$"):
        call()


# the package exports exactly these names
PUBLIC_NAMES = [
    "AlgebraClass", "AutomorphismBits", "CheckResult", "ChiralityRecord",
    "DyadicRational", "EFBElement", "EFBIndex", "EFBMultivector", "Metric",
    "MetricError", "Multivector", "OpCounts", "ParseError", "SignatureKL",
    "algebra_name", "bit", "bit_to_sign", "blade_product", "blades_to_efb",
    "center_check", "classification_record", "classify", "cube_coordinates",
    "cube_record", "division_algebra", "dual_automorphism_check",
    "efb_element", "efb_product", "efb_to_blades", "grade_involution",
    "half_pochhammer_sign", "lucas_sign", "matrix_unit_normalization",
    "mv_mul", "neg_mod8", "normal_order", "normalization_sign",
    "omega_eigen_check", "omega_squared", "omega_squared_oracle",
    "omega_tau_squared", "omega_tau_squared_oracle", "op_counters",
    "parity_above", "recover_n_bits", "recover_signature_partial",
    "render_cube", "reset_op_counters", "run_suite", "sig_label", "sign_bit",
    "sign_s", "sign_to_bit", "signatures", "table_entries", "tau_blade",
    "tau_squared", "tau_squared_oracle", "varlamov_bits", "volume_element",
    "walsh_hadamard", "witt_basis", "word_multivector", "word_product_oracle",
]

# the basis-word calculus: defined in words, absent from the efb engine
WORD_NAMES = [
    "_SLOT_CODE", "sig_label", "EFBIndex", "EFBElement", "ChiralityRecord",
    "efb_element", "signatures", "witt_basis", "normal_order",
    "_word_letters", "word_product_oracle", "sign_s", "word_multivector",
    "normalization_sign", "matrix_unit_normalization", "omega_eigen_check",
    "_eigen", "table_entries",
]


def test_public_namespace():
    assert sorted(cliffbits.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(cliffbits, name), name


def test_word_calculus_lives_in_words():
    for name in WORD_NAMES:
        assert not hasattr(efb, name), name
        obj = getattr(words, name)
        if callable(obj):
            assert obj.__module__ == "cliffbits.words", name


def test_normalization_sign_rejects_nonpositive_m():
    with pytest.raises(ValueError, match="m must be positive, got -1"):
        normalization_sign(0, 0, -1)


@pytest.mark.parametrize("call, want", [
    ("sign_s(1, 2, 0, 10**12)", "-1"),
    ("normalization_sign(1, 3, 10**12)", "-1"),
    ("efb_element(0, 0, 10**12)",
     "ValueError: m must be between 1 and 8, got 1000000000000"),
    ("witt_basis(10**7)", "ValueError: m must be between 1 and 8, got 10000000"),
    ("blades_to_efb(Multivector.scalar(Metric.interleaved(1), 1), 10**9)",
     "ValueError: m must be between 1 and 8, got 1000000000"),
    ("Metric.interleaved(10**9)",
     "ValueError: n must be at most 4096, got 2000000000"),
    ("Metric.block(10**9, 0)",
     "ValueError: n must be at most 4096, got 1000000000"),
], ids=["sign_s", "normalization_sign", "efb_element", "witt_basis",
        "blades_to_efb", "metric_interleaved", "metric_block"])
def test_huge_m_allocates_nothing(call, want):
    # the child caps its address space at 1.5 GB, so a call that builds
    # 2^m or O(m) of anything dies with MemoryError instead of answering
    pytest.importorskip("resource")
    limit = 1_500_000_000
    code = (f"import resource; resource.setrlimit(resource.RLIMIT_AS, "
            f"({limit}, {limit}))\n"
            "from cliffbits import *\n"
            f"try:\n    print({call})\n"
            "except ValueError as exc:\n    print('ValueError:', exc)\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(efb.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout.strip()) == (0, want), proc.stderr


def test_zero_entry_stores_no_coset():
    assert EFBMultivector(2, {(0, 1): 0}) == EFBMultivector.zeros(2)
    assert list(EFBMultivector(2, {(0, 1): 0}).nonzero()) == []


def test_cancelled_coset_is_dropped():
    # (E00 + E01)(E00 + E01 - E10) = E00 + E01 - E00: coset 0 cancels
    x = EFBMultivector(1, {(0, 0): 1, (0, 1): 1})
    y = EFBMultivector(1, {(0, 0): 1, (0, 1): 1, (1, 0): -1})
    z = efb_product(x, y)
    assert z == EFBMultivector(1, {(0, 1): 1})
    assert list(z.nonzero()) == [(0, 1, 1)]
    assert x - x == EFBMultivector.zeros(1)
    assert 0 * x == EFBMultivector.zeros(1)


def test_nonzero_yields_each_entry_once():
    rng = random.Random(3)
    entries = {(rng.randrange(8), rng.randrange(8)): rng.randint(-2, 2)
               for _ in range(40)}
    got = list(EFBMultivector(3, entries).nonzero())
    want = {(a, b): c for (a, b), c in entries.items() if c}
    assert len(got) == len(want)
    assert {(a, b): c for a, b, c in got} == want
    # ascending coset, then by row
    assert got == sorted(got, key=lambda t: (t[0] ^ t[1], t[0]))


def test_single_blades_run_one_coset_pair_m8():
    m = 8
    metric = Metric.interleaved(m)
    x = blades_to_efb(Multivector.generator(metric, 1), m)
    entries = list(x.nonzero())
    assert len(entries) == 1 << m
    assert len({a ^ b for a, b, _ in entries}) == 1
    y = blades_to_efb(Multivector.generator(metric, 16), m)
    reset_op_counters()
    efb_product(x, y)
    assert op_counters().efb_triples == 1 << m
    reset_op_counters()


def test_dense_operands_share_coefficient_type():
    # bench's wall ratio compares algorithms, not int against dyadic
    x = dense_efb_multivector(2, random.Random(1))
    y = dense_blade_multivector(Metric.interleaved(2), random.Random(1))
    assert len(list(x.nonzero())) == 16
    assert all(type(c) is DyadicRational for _, _, c in x.nonzero())
    assert all(type(c) is DyadicRational for c in y.terms.values())


# -- the scaled-integer loops against a Fraction reference ------------------

I2 = Metric.interleaved(2)


def _fraction(c) -> Fraction:
    return Fraction(c.numerator, 1 << c.exponent)


def _fraction_product(x: Multivector, y: Multivector) -> dict:
    """x * y over Fraction, straight from blade_product."""
    acc: dict[int, Fraction] = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            sign, k = blade_product(a, b, x.metric)
            acc[k] = acc.get(k, 0) + sign * _fraction(ca) * _fraction(cb)
    return {k: v for k, v in acc.items() if v}


def _assert_canonical(coeffs):
    for c in coeffs:
        assert type(c) is DyadicRational and c.numerator != 0
        assert c.exponent == 0 or c.numerator & 1


@st.composite
def _scaled_operands(draw):
    """Odd numerators up to MAX_BITS bits; either every exponent is 0, or
    the exponents include both 0 and MAX_BITS."""
    masks = draw(st.lists(st.integers(0, 15), min_size=2, max_size=6,
                          unique=True))
    top = (1 << MAX_BITS) - 1
    int_only = draw(st.booleans())
    terms = {}
    for i, mask in enumerate(masks):
        e = 0 if int_only or i == 0 else (
            MAX_BITS if i == 1 else draw(st.integers(0, MAX_BITS)))
        terms[mask] = DyadicRational(draw(st.integers(-top, top)) | 1, e)
    return Multivector(I2, terms)


def _one_plus_g1(coeff, sign):
    return Multivector(I2, {0: coeff, 0b0001: sign * coeff})


def _dense_dyadic(m: int, seed: int) -> Multivector:
    rng = random.Random(seed)
    return Multivector(Metric.interleaved(m), {
        mask: DyadicRational(rng.randint(-1023, 1023) | 1, rng.randint(0, 4))
        for mask in range(1 << (2 * m))})


@given(_scaled_operands(), _scaled_operands())
@example(_one_plus_g1(DyadicRational(3, MAX_BITS), 1),
         _one_plus_g1(DyadicRational(5), -1))  # (1 + g1)(1 - g1) = 0
@example(_one_plus_g1(DyadicRational(1, MAX_BITS), 1),
         _one_plus_g1(DyadicRational(1), -1)
         + Multivector.generator(I2, 2))  # blades 0 and g1 cancel
@example(_dense_dyadic(3, 1), _dense_dyadic(3, 2))  # the packed kernel
@settings(max_examples=60)
def test_products_match_fraction_reference(x, y):
    want = _fraction_product(x, y)
    m = x.metric.n // 2
    ex, ey = blades_to_efb(x, m), blades_to_efb(y, m)
    ez = efb_product(ex, ey)
    for efb in (ex, ey, ez):
        _assert_canonical(c for _, _, c in efb.nonzero())
    for z in (mv_mul(x, y), efb_to_blades(ez)):
        assert {k: _fraction(c) for k, c in z.terms.items()} == want
        _assert_canonical(z.terms.values())


def test_engines_build_no_dyadic_rationals(monkeypatch):
    # both engines and both conversions stay on integer numerators; only
    # terms, coefficient, entry and nonzero build DyadicRationals
    sparse = Multivector(Metric.interleaved(3), {
        0b000001: DyadicRational(3, 5), 0b101000: DyadicRational(-7, 2)})
    pairs = [(_dense_dyadic(3, 3), _dense_dyadic(3, 4)), (sparse, sparse)]

    def both(x, y):
        return [mv_mul(x, y), efb_to_blades(efb_product(blades_to_efb(x, 3),
                                                        blades_to_efb(y, 3)))]
    want = [both(x, y) for x, y in pairs]

    def refuse(*args):
        raise AssertionError("DyadicRational built inside an engine")
    for module in (dyadic, blades, efb):
        monkeypatch.setattr(module, "_reduced", refuse, raising=False)
    for module in (blades, efb):
        monkeypatch.setattr(module, "_scale_in", refuse)
    monkeypatch.setattr(DyadicRational, "__init__", refuse)
    got = [both(x, y) for x, y in pairs]
    monkeypatch.undo()
    assert got == want
    assert all(a == b for a, b in want)


def test_efb_product_of_int_entries():
    rng = random.Random(5)
    dim = 8
    xe, ye = ({(a, b): rng.randint(-3, 3) for a in range(dim)
               for b in range(dim)} for _ in range(2))
    z = efb_product(EFBMultivector(3, xe), EFBMultivector(3, ye))
    for a in range(dim):
        for d in range(dim):
            assert z.entry(a, d) == sum(xe[a, b] * ye[b, d]
                                        for b in range(dim))


# -- the two product kernels ------------------------------------------------

def _slot_masks_by_bits(mask: int, m: int) -> tuple[int, int]:
    """(b0, b1): bit 2s-2 and bit 2s-1 of the mask at bit m - s."""
    b0 = sum(((mask >> (2 * s - 2)) & 1) << (m - s) for s in range(1, m + 1))
    b1 = sum(((mask >> (2 * s - 1)) & 1) << (m - s) for s in range(1, m + 1))
    return b0, b1


def _walsh_index_by_bits(mask: int, m: int) -> tuple[int, int]:
    """(i, g): the blade's coset g = b0 ^ b1 and its Walsh index
    i = b1 ^ parity_above(g) there."""
    b0, b1 = _slot_masks_by_bits(mask, m)
    g = b0 ^ b1
    return b1 ^ parity_above(g), g


def test_slot_tables_match_per_bit_reference():
    rng = random.Random(17)
    for m in range(1, efb.MAX_M + 1):
        lo, hi, join_i, join_g = efb._slot_tables(m)
        masks = (range(1 << (2 * m)) if m <= 4
                 else [rng.randrange(1 << (2 * m)) for _ in range(500)])
        for mask in masks:
            i, g = _walsh_index_by_bits(mask, m)
            assert lo[mask & ((1 << m) - 1)] ^ hi[mask >> m] == g << m | i
            assert join_i[i] ^ join_g[g] == mask


def test_blade_images_are_walsh_functions():
    # a blade's image fills its coset g: entry (b ^ g, b) is the Walsh
    # function (-1)^popcount(b & i) of the column times (-1)^C(|g|, 2)
    rng = random.Random(19)
    for m in range(1, efb.MAX_M + 1):
        metric, dim = Metric.interleaved(m), 1 << m
        masks = (range(1 << (2 * m)) if m <= 4
                 else [rng.randrange(1 << (2 * m)) for _ in range(20)])
        for mask in masks:
            i, g = _walsh_index_by_bits(mask, m)
            sign = half_pochhammer_sign(g.bit_count())
            x = blades_to_efb(Multivector.from_blade(metric, mask), m)
            assert list(x.nonzero()) == [
                (b ^ g, b, -sign if (b & i).bit_count() & 1 else sign)
                for b in sorted(range(dim), key=lambda b: b ^ g)]


def _kernel_outputs(x, y):
    """(product, triples) from each kernel, sweep first."""
    return [(z, counts.efb_triples) for z, counts in (
        verify._counted(verify._swept, x, y),
        verify._counted(verify._packed_product, x, y))]


def _assert_kernels_agree(x, y):
    swept, packed = _kernel_outputs(x, y)
    assert verify._terms(swept) == verify._terms(packed)
    return swept


def _random_efb(m, rng, fill, bits):
    dim = 1 << m
    return EFBMultivector(m, {
        (a, b): DyadicRational(rng.randint(-(1 << bits), 1 << bits),
                               rng.randint(0, 3))
        for a in range(dim) for b in range(dim) if rng.random() < fill})


def test_kernels_agree_on_random_operands():
    rng = random.Random(41)
    for m in range(1, 7):
        metric = Metric.interleaved(m)
        for fill in (1.0, 0.5, 0.05):
            x = _random_efb(m, rng, fill, rng.choice((1, 12, 40)))
            y = _random_efb(m, rng, fill, rng.choice((1, 12, 40)))
            _assert_kernels_agree(x, y)
        for _ in range(3):  # sparse blade sums: a few cosets each
            x, y = (blades_to_efb(random_multivector(metric, rng), m)
                    for _ in range(2))
            z, _ = _assert_kernels_agree(x, y)
            assert z == blades_to_efb(mv_mul(efb_to_blades(x),
                                             efb_to_blades(y)), m)


@pytest.mark.parametrize("m, k, width", [
    (3, 2, 8), (4, 2, 16),        # 2k + m + 1 = 8 fills a byte, 9 spills
    (3, 6, 16), (2, 7, 32),       # 16 and 17
    (4, 289, 584), (4, 290, 592),  # either side of the dense line at m = 4
    (3, 382, 768), (3, 383, 776),
    (3, 510, 1024), (4, 510, 1032),
])
def test_kernels_agree_at_full_lanes(m, k, width, monkeypatch):
    # every product entry is s_a u_d 2^m c^2, the largest a lane holds
    x, y, want = verify._lane_edge(m, (1 << k) - 1,
                                   random.Random(m * 1000 + k))
    assert verify._rule_width(x, y) == width
    z, triples = _assert_kernels_agree(x, y)
    assert triples == 8 ** m
    assert z == want
    # dense: the sweep's 8^m multiply-adds against the packed kernel's
    # 4^m (m/2 + width (32 + 2^m) / 2048) + 64, which at m = 4 pass each
    # other between 584- and 592-bit lanes
    packed = (m, k) in {(3, 2), (4, 2), (3, 6), (4, 289)}
    monkeypatch.setattr(efb, "_sweep" if packed else "_packed", _refuse)
    assert efb_product(x, y) == z


def _refuse(*args):
    raise AssertionError("efb_product ran the kernel it should not pick")


def test_dense_narrow_operands_take_packed_kernel(monkeypatch):
    rng = random.Random(43)
    x, y = dense_efb_multivector(4, rng), dense_efb_multivector(4, rng)
    want = _kernel_outputs(x, y)[0][0]
    monkeypatch.setattr(efb, "_sweep", _refuse)
    reset_op_counters()
    assert efb_product(x, y) == want
    assert op_counters().efb_triples == 8 ** 4
    reset_op_counters()


def test_single_blades_take_sweep_m8(monkeypatch):
    metric = Metric.interleaved(8)
    x = blades_to_efb(Multivector.generator(metric, 1), 8)
    y = blades_to_efb(Multivector.generator(metric, 16), 8)
    monkeypatch.setattr(efb, "_packed", _refuse)
    assert efb_product(x, y) == blades_to_efb(
        mv_mul(Multivector.generator(metric, 1),
               Multivector.generator(metric, 16)), 8)


@pytest.mark.parametrize("m", [7, 8])
def test_engines_agree_at_top_m(m):
    # sparse random operands: each converts back to itself, and the
    # Fock-basis product equals the blade product
    metric, rng = Metric.interleaved(m), random.Random(m)
    for _ in range(20):
        x, y = (random_multivector(metric, rng) for _ in range(2))
        ex, ey = blades_to_efb(x, m), blades_to_efb(y, m)
        assert efb_to_blades(ex) == x and efb_to_blades(ey) == y
        assert efb_to_blades(efb_product(ex, ey)) == mv_mul(x, y)


def test_wide_dense_operand_takes_sweep(monkeypatch):
    # one 1/2^2048 term scales every numerator past the lane bound
    metric = Metric.interleaved(3)
    x = (dense_blade_multivector(metric, random.Random(47))
         + Multivector.scalar(metric, DyadicRational(1, MAX_BITS)))
    ex = blades_to_efb(x, 3)
    assert len(ex._cosets) == 8
    monkeypatch.setattr(efb, "_packed", _refuse)
    assert efb_to_blades(efb_product(ex, ex)) == mv_mul(x, x)


@pytest.mark.parametrize("stored, refused", [
    (5, "_sweep"), (4, "_packed"),    # 88-bit lanes
    (12, "_sweep"), (11, "_packed"),  # 408-bit lanes
])
def test_stored_cosets_of_y_pick_kernel(stored, refused, monkeypatch):
    # m = 4, x dense: the sweep runs 256 * stored multiply-adds against
    # 576 + 6 * width for the packed kernel, so y must store 4.31 cosets
    # at 88-bit lanes and 11.81 at 408-bit ones
    rng = random.Random(53)
    top = (1 << 38) - 1 if stored < 8 else (1 << 198) - 1
    x = EFBMultivector(4, {(a, b): rng.randint(1, top)
                           for a in range(16) for b in range(16)})
    y = EFBMultivector(4, {(a, a ^ g): rng.randint(1, top)
                           for g in range(stored) for a in range(16)})
    assert verify._rule_width(x, y) == (88 if stored < 8 else 408)
    want = _kernel_outputs(x, y)[0][0]
    monkeypatch.setattr(efb, refused, _refuse)
    assert efb_product(x, y) == want


@pytest.mark.parametrize("m, stored_x, stored_y, refused", [
    (4, 1, 16, "_packed"), (6, 2, 64, "_packed"),  # y alone would pack
    (5, 32, 4, "_sweep"), (6, 64, 4, "_sweep"),    # y alone would sweep
])
def test_both_operands_pick_kernel(m, stored_x, stored_y, refused,
                                   monkeypatch):
    # a sparse x with a coset-rich y takes the sweep, a dense x with a
    # coset-poor y the packed kernel: both sides that a rule reading y
    # alone gets wrong
    rng = random.Random(m + stored_x)
    dim = 1 << m
    x, y = (EFBMultivector._from_ints(
        m, {g: [rng.randint(-9, 9) or 1 for _ in range(dim)]
            for g in rng.sample(range(dim), stored)}, 0)
        for stored in (stored_x, stored_y))
    want = _kernel_outputs(x, y)[0][0]
    monkeypatch.setattr(efb, refused, _refuse)
    assert efb_product(x, y) == want


def test_dense_x_packs_a_sixteenth_of_y_m8(monkeypatch):
    # a dense x times a y that stores 16 of 256 cosets, 10-bit entries:
    # 2^20 multiply-adds for the sweep against 557,120 for the packed
    # kernel, which the old rule on y alone left to the sweep
    rng = random.Random(89)
    m, dim = 8, 256
    x, y = (EFBMultivector._from_ints(
        m, {g: [rng.choice((-1, 1)) * rng.randint(512, 1023)
                for _ in range(dim)] for g in cosets}, 0)
        for cosets in (range(dim), rng.sample(range(dim), 16)))
    assert verify._rule_width(x, y) == 32
    swept, triples = efb._sweep(x, y)
    want = EFBMultivector._from_ints(m, swept, 0)
    monkeypatch.setattr(efb, "_sweep", _refuse)
    reset_op_counters()
    assert efb_product(x, y) == want
    assert op_counters().efb_triples == triples == dim * 16 * dim
    reset_op_counters()


def test_column_permutations_move_coset_lanes_to_row_lanes():
    # lane g of packed column b holds x_g[b] = x[g ^ b][b]; moving lane c
    # to c ^ b packs the same column by row, and _xor_getters(m)[d] reads
    # a list at g ^ d
    rng = random.Random(67)
    for m in range(1, 7):
        dim = 1 << m
        x = dense_efb_multivector(m, rng)
        size = 2
        cols, _ = x._packed_cols(size)
        halves, plans = cliffbits.bits._halves(size, dim), (
            cliffbits.bits._plans(size, m))
        for b, c in enumerate(cols):
            row = cliffbits.bits._permute(c + halves, plans[b]) - halves
            assert cliffbits.bits._unpack([row], size, dim) == [
                x.entry(a, b) for a in range(dim)]
        for d, get in enumerate(efb._xor_getters(m)):
            assert get(list(range(dim))) == tuple(g ^ d for g in range(dim))


@pytest.mark.parametrize("m, k, width", [
    (2, 30, 64), (1, 31, 64), (4, 29, 64),   # 2k + m + 1 = 63, 64, 63
    (2, 31, 72), (3, 31, 72),                # 65, 66: past one word
    (1, 63, 128), (5, 60, 128),
])
@pytest.mark.parametrize("signs", [(1, -1), (-1, 1), (1, 1)])
def test_kernels_agree_at_the_word_edge(m, k, width, signs):
    # every product entry at the most negative (or positive) value that
    # the lane holds, on either side of one 64-bit word
    x, y, want = verify._lane_edge(m, (1 << k) - 1, random.Random(m + k),
                                   signs)
    assert verify._rule_width(x, y) == width
    z, triples = _assert_kernels_agree(x, y)
    assert (z, triples) == (want, 8 ** m)


def test_kernels_agree_on_extreme_words():
    # entries at +-(2^63 - 1) fit an int64 each, but their products
    # need wider lanes
    rng = random.Random(71)
    top = (1 << 63) - 1
    for m in (1, 3, 5):
        dim = 1 << m
        x = EFBMultivector(m, {(a, b): rng.choice((-top, top))
                               for a in range(dim) for b in range(dim)})
        y = dense_efb_multivector(m, rng)
        assert verify._rule_width(x, y) > 64
        _assert_kernels_agree(x, y)
        _assert_kernels_agree(y, x)
        _assert_kernels_agree(x, x)
        assert efb_product(x, y) == EFBMultivector(m, {
            (a, d): sum(x.entry(a, b) * y.entry(b, d) for b in range(dim))
            for a in range(dim) for d in range(dim)})


def test_kernels_give_ascending_cosets():
    # x is given its cosets out of order and y stores few, so the sweep
    # reaches the product's cosets out of order; both kernels' products
    # store them in ascending g
    rng = random.Random(73)
    m, dim = 4, 16
    x = EFBMultivector._from_ints(m, {g: [rng.randint(-9, 9) or 1
                                          for _ in range(dim)]
                                      for g in (13, 6, 9, 2, 0)}, 0)
    y = EFBMultivector._from_ints(m, {h: [rng.randint(-9, 9) or 1
                                          for _ in range(dim)]
                                      for h in (5, 3)}, 1)
    assert list(x._cosets) == [0, 2, 6, 9, 13]
    swept, _ = efb._sweep(x, y)
    assert list(swept) != sorted(swept)
    for z, _ in _kernel_outputs(x, y):
        assert list(z._cosets) == sorted(
            {g ^ h for g in x._cosets for h in y._cosets})
    _assert_kernels_agree(x, y)


def test_every_producer_stores_ascending_cosets():
    # every way to build an EFBMultivector, from entries, cosets and
    # blades given in descending order
    rng = random.Random(89)
    m, dim = 3, 8
    x = EFBMultivector(m, {(a, a ^ g): rng.choice((-3, 1, 5))
                           for g in (7, 5, 2, 1) for a in range(dim)})
    y = EFBMultivector._from_ints(m, {g: [rng.randint(-9, 9) or 1
                                          for _ in range(dim)]
                                      for g in (6, 4, 3, 0)}, 1)
    masks = sorted(range(1 << (2 * m)), reverse=True)[::3]
    blades = Multivector._raw(Metric.interleaved(m),
                              {mask: k + 1 for k, mask in enumerate(masks)}, 0)
    listed = Multivector._raw(Metric.interleaved(m), {
        mask: k + 1 for k, mask in enumerate(
            sorted(range(1 << (2 * m)), reverse=True)[::2])}, 0)
    assert listed._vec is not None and blades._vec is None
    assert not _fills_every_coset(blades, m)
    made = [x, y, x + y, y + x, x - y, -y, 3 * x, y * DyadicRational(1, 2),
            EFBMultivector.identity(m), EFBMultivector.volume(m)]
    # the dense gather of a list form, then the loop on a dict form that
    # fills every coset twice and on a sparser one
    for v in (listed, _covering(m, 2, rng), blades):
        made.append(blades_to_efb(v, m))
    for u, v in ((x, y), (y, x), (made[-1], y)):
        made += [z for z, _ in _kernel_outputs(u, v)]
    for z in made:
        gs = list(z._cosets)
        assert gs and all(g < h for g, h in zip(gs, gs[1:])), gs


def _blade_share(m, count, rng):
    metric = Metric.interleaved(m)
    masks = rng.sample(range(1 << 2 * m), count)
    return Multivector(metric, {
        mask: DyadicRational(rng.choice((-1, 1)) * rng.randint(1, 999),
                             rng.randint(0, 4)) for mask in masks})


def _covering(m, per, rng, single=False):
    """A dict form over interleaved Cl(m, m) with per blades in every
    coset, its blades in descending mask order, or with the last coset
    left at a single blade."""
    dim, by_coset = 1 << m, efb._blade_at(m)[0]
    masks = sorted((by_coset[g * dim + i] for g in range(dim) for i in
                    rng.sample(range(dim), 1 if single and g == dim - 1
                               else per)), reverse=True)
    return Multivector(Metric.interleaved(m), {
        mask: DyadicRational(rng.choice((-1, 1)) * rng.randint(1, 999),
                             rng.randint(0, 4)) for mask in masks})


def _fills_every_coset(x, m):
    """Whether the sparse loop of blades_to_efb would leave every one of
    the 2^m cosets with two or more blades of x."""
    held = Counter(_walsh_index_by_bits(mask, m)[1] for mask in x._nums)
    return len(held) == 1 << m and min(held.values()) >= 2


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_dense_gather_matches_the_loop(m):
    # just below, at and just above the list share, every blade, and from
    # m = 3 on dict forms below it with two blades in every coset or with
    # a coset left at one blade: each conversion, whichever path it
    # takes, equals the batched one
    rng = random.Random(79 + m)
    least = -(-3 * 4 ** m // 8)  # the fewest terms of a list form
    xs = [_blade_share(m, count, rng) for count in sorted(
        {max(1, least - 1), least, min(4 ** m, least + 1), 4 ** m})]
    if m >= 3:
        xs += [_covering(m, 2, rng), _covering(m, 2, rng, single=True)]
        assert [x._vec is None for x in xs[-2:]] == [True, True]
    for x in xs:
        assert verify._terms(blades_to_efb(x, m)) == verify._terms(
            verify.batched_blades_to_efb(x, m))


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_the_column_kernel_runs_on_packed_data_alone(m, monkeypatch):
    # the column kernel runs for a list form's gather and for the read-out
    # of the columns it keeps, and for nothing else: not for a dict form
    # that fills every coset twice, a list form whose carried bound
    # misses a word while its numerators fit, a product whose carried
    # bound misses a word while its entries fit, nor a dense product by
    # one blade, held as lists with no coset one Walsh function.  No fit
    # test rescans a carried bound, and each operand still agrees with
    # the batched conversions
    rng = random.Random(131 + m)
    metric, dim = Metric.interleaved(m), 1 << m
    ran, real = [], efb._columns
    monkeypatch.setattr(efb, "_columns",
                        lambda *args: ran.append(args[1]) or real(*args))

    def kernel_runs(convert, *args):
        ran.clear()
        convert(*args)
        return ran == [m]
    listed = dense_blade_multivector(metric, rng)
    ex = blades_to_efb(listed, m)
    assert listed._vec is not None and ex._cols is not None
    assert kernel_runs(blades_to_efb, listed, m) and kernel_runs(
        efb_to_blades, ex)
    cover = _covering(m, 2, rng)
    assert _fills_every_coset(cover, m) and cover._vec is None
    carried = Multivector._raw(metric, [
        rng.choice((-1, 1)) * rng.randint(1, 1 << 20)
        for _ in range(4 ** m)], 0, 61)
    assert carried._vec is not None and not efb._fits_word(61, m)
    # numerators of 32 - 2m bits: the product carries 64 - m bits
    x, y = (Multivector._raw(metric, {
        mask: rng.choice((-1, 1)) * rng.randrange(1 << 31 - 2 * m,
                                                  1 << 32 - 2 * m)
        for mask in range(dim * dim)}, 0) for _ in range(2))
    wide = efb_product(blades_to_efb(x, m), blades_to_efb(y, m))
    assert not efb._fits_word(wide._bits, m)
    assert efb._fits_word(_magnitude(wide._cosets.values()), m)
    one = blades_to_efb(Multivector._raw(metric, {
        rng.randrange(dim * dim): rng.randint(1, 999)}, 0), m)
    few = efb_product(ex, one)
    assert few._cols is None and len(few._cosets) == dim
    assert all(walsh_index(v, m) < 0 for v in few._cosets.values())
    assert not kernel_runs(blades_to_efb, cover, m)
    assert not kernel_runs(blades_to_efb, carried, m)
    assert carried._bits == 61
    for z in (wide, few):
        bound = z._bits
        assert not kernel_runs(efb_to_blades, z)
        assert z._bits == bound
    monkeypatch.undo()
    assert all(verify._agree("to-efb", v, m) for v in (cover, carried))
    assert all(verify._agree("to-blades", z) for z in (wide, few))


def test_dense_gather_runs_from_the_share(monkeypatch):
    rng = random.Random(83)
    m = 3
    least = 3 * 4 ** m // 8  # 24 of 64 blades
    calls = []
    real = efb._blade_at
    monkeypatch.setattr(efb, "_blade_at",
                        lambda m: calls.append(m) or real(m))
    blades_to_efb(_blade_share(m, least - 1, rng), m)
    assert calls == []
    blades_to_efb(_blade_share(m, least, rng), m)
    assert calls == [m]


def test_per_m_tables_wait_for_first_use():
    # import builds no XOR reindexing, gather, slot or metric table; a sparse
    # product at m = 8 builds the slot table and the metric of m = 8
    # alone, which a second call finds cached; and a dense one at m = 3
    # adds the four tables of m = 3
    code = (
        "import random\n"
        "from cliffbits import blades, efb, Metric, Multivector, "
        "blades_to_efb, efb_product\n"
        "from cliffbits.sampling import dense_blade_multivector\n"
        "tables = (efb._xor_getters, efb._blade_at, efb._slot_tables, "
        "blades._named)\n"
        "sizes = lambda: tuple(t.cache_info().currsize for t in tables)\n"
        "print(sizes())\n"
        "g = Multivector.generator(Metric.interleaved(8), 3)\n"
        "efb_product(blades_to_efb(g, 8), blades_to_efb(g, 8))\n"
        "print(sizes())\n"
        "efb._slot_tables(8), Metric.interleaved(8)\n"
        "print(sizes())\n"
        "d = blades_to_efb(dense_blade_multivector(Metric.interleaved(3), "
        "random.Random(1)), 3)\n"
        "efb_product(d, d)\n"
        "print(sizes(), efb._xor_getters(3) is efb._xor_getters(3))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(efb.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.stdout.split("\n") == [
        "(0, 0, 0, 0)", "(0, 0, 1, 1)", "(0, 0, 1, 1)", "(1, 1, 2, 2) True",
        ""], proc.stderr


# -- conversion fast paths against the batched path -------------------------

def _assert_same_conversions(x: Multivector, m: int):
    """Both conversions of x equal the batched path on values, exponent,
    coset order and terms order; returns x's image."""
    assert verify._agree("to-efb", x, m)
    ex = blades_to_efb(x, m)
    assert verify._agree("to-blades", ex)
    assert efb_to_blades(ex) == x
    return ex


def _assert_same_read_back(z: EFBMultivector):
    assert verify._agree("to-blades", z)
    assert blades_to_efb(efb_to_blades(z), z.m) == z


def test_fast_paths_every_blade_m4():
    rng = random.Random(43)
    for m in range(1, 5):
        metric = Metric.interleaved(m)
        for mask in range(1 << (2 * m)):
            c = DyadicRational(rng.choice((-1, 1)) * rng.randint(1, 999),
                               rng.randint(0, 4))
            _assert_same_conversions(
                Multivector.from_blade(metric, mask, c), m)


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_fast_paths_random_operands(m):
    rng = random.Random(47 + m)
    metric = Metric.interleaved(m)
    for _ in range(12):
        x, y = random_multivector(metric, rng), random_multivector(metric, rng)
        ex, ey = _assert_same_conversions(x, m), _assert_same_conversions(y, m)
        z = efb_product(ex, ey)
        _assert_same_read_back(z)
        assert efb_to_blades(z) == mv_mul(x, y)


def _cosets_of(m: int) -> dict:
    """Coset g -> the blade masks that lie in it."""
    lo, hi, _, _ = efb._slot_tables(m)
    out: dict[int, list] = {}
    for mask in range(1 << (2 * m)):
        out.setdefault((lo[mask & ((1 << m) - 1)] ^ hi[mask >> m]) >> m,
                       []).append(mask)
    return out


def test_fast_paths_mixed_cosets():
    # one-blade and many-blade cosets in one operand, in either order
    rng = random.Random(53)
    for m in (2, 3, 5):
        metric = Metric.interleaved(m)
        cosets = list(_cosets_of(m).values())
        for _ in range(10):
            masks = []
            for blades_here in rng.sample(cosets, min(4, len(cosets))):
                masks += rng.sample(blades_here, rng.choice((1, 1, 2, 3)))
            x = Multivector(metric, {mask: rng.choice((-3, 1, 5))
                                     for mask in masks})
            ex, ey = (_assert_same_conversions(x, m),
                      _assert_same_conversions(x * x, m))
            _assert_same_read_back(efb_product(ex, ey))


def test_fast_paths_cancelling_blades():
    m = 3
    metric = Metric.interleaved(m)
    g1, g2, g3 = (Multivector.generator(metric, i) for i in (1, 2, 3))
    one = Multivector.scalar(metric, 1)
    for x, y in [(one + g1, one - g1),            # g1 g1 = 1: all cancels
                 (g1 + g2, g1 + g2),              # g1 g2 + g2 g1 = 0
                 (one + g1 + g3, one - g1 + g3)]:  # part cancels
        ex, ey = _assert_same_conversions(x, m), _assert_same_conversions(y, m)
        z = efb_product(ex, ey)
        _assert_same_read_back(z)
        assert efb_to_blades(z) == mv_mul(x, y)
    zero = blades_to_efb(g1, m) - blades_to_efb(g1, m)
    assert efb_to_blades(zero) == Multivector.zero(metric)


def test_fast_paths_huge_numerators():
    big = 1 << MAX_BITS
    for m in (1, 4, 6):
        metric = Metric.interleaved(m)
        top = (1 << (2 * m)) - 1
        for nums in ({1: big}, {2: -big}, {0: big - 1, top: -big},
                     {1: big + 1, 2: -(big + 1), top: 3}):
            for e in (0, MAX_BITS):
                x = Multivector._raw(metric, dict(nums), e)
                ex = _assert_same_conversions(x, m)
                _assert_same_read_back(efb_product(ex, ex))


def _near_walsh(m: int):
    """Cosets a walsh_index misreading could take for one Walsh function."""
    rng = random.Random(59 + m)
    dim = 1 << m
    for _ in range(6):
        c = rng.choice((1, -1)) * rng.randint(1, 1 << 70)
        i = rng.randrange(dim)
        w = walsh_function(c, i, m)
        for k in {0, dim - 1, rng.randrange(dim)}:  # one entry off
            v = w[:]
            v[k] += rng.choice((1, -1, c))
            yield v
        for j in range(m):  # one sign flipped at a power of two
            v = w[:]
            v[1 << j] = -v[1 << j]
            yield v
        yield [0] + w[1:]  # v[0] = 0
        if dim > 2:  # v[1] = +-v[0] and a later mismatch
            yield [c, rng.choice((c, -c)), 7 * c] + w[3:]
        i2 = rng.choice([k for k in range(dim) if k != i])
        yield list(map(add, w, walsh_function(c, i2, m)))  # two Walsh
        yield list(map(add, w, walsh_function(-2 * c, i2, m)))


def _walsh_index_by_transform(v, m):
    """The one nonzero of the transform of v, or -1 when there is none
    or more than one."""
    spread = [k for k, n in enumerate(walsh_batch(v, m)[0]) if n]
    return spread[0] if len(spread) == 1 else -1


def test_read_back_refuses_near_walsh_cosets():
    misses = total = 0
    for m in range(1, 7):
        for v in _near_walsh(m):
            total += 1
            # at m = 1 a flipped sign is the other Walsh function
            want = _walsh_index_by_transform(v, m)
            assert walsh_index(v, m) == want, v
            misses += want < 0
            for g in (0, (1 << m) - 1):
                _assert_same_read_back(
                    EFBMultivector._from_ints(m, {g: v, g ^ 1: v[::-1]}, 3))
    assert misses >= 0.9 * total


def test_conversions_give_ascending_cosets():
    # blades given in descending order: the loop of blades_to_efb, on a
    # sparse dict form and on one that fills every coset twice, stores
    # the cosets in ascending g, and efb_to_blades gives the terms by
    # ascending coset, then by Walsh index
    m = 3
    metric = Metric.interleaved(m)
    sparse = sorted(range(1 << (2 * m)), reverse=True)[::7]
    x = Multivector._raw(metric, {mask: k + 1 for k, mask in
                                  enumerate(sparse)}, 0)
    cover = _covering(m, 2, random.Random(7))
    assert list(cover._nums) == sorted(cover._nums, reverse=True)
    images = [_assert_same_conversions(v, m) for v in (x, cover)]
    assert [ex._cols is None for ex in images] == [True, True]
    for masks, ex in zip((sparse, cover._nums), images):
        cosets = sorted({_walsh_index_by_bits(mask, m)[1] for mask in masks})
        assert list(ex._cosets) == cosets
        by_coset = sorted(masks, key=lambda mask: _walsh_index_by_bits(
            mask, m)[::-1])
        assert list(efb_to_blades(ex)._nums) == by_coset


def test_repr_counts_nonzero_entries():
    rng = random.Random(61)
    for x in (EFBMultivector.zeros(2), EFBMultivector.identity(3),
              _random_efb(3, rng, 0.4, 5), dense_efb_multivector(4, rng)):
        assert repr(x) == (f"<EFBMultivector m={x.m} "
                           f"nnz={len(list(x.nonzero()))}>")


def test_conversions_share_one_metric_per_m():
    # both conversions take the one interleaved metric of m, the same
    # object the caller's Metric.interleaved(m) returns; an equal metric
    # built directly is accepted, and only == decides
    for m in (1, 4, 8):
        named = Metric.interleaved(m)
        direct = Metric((1, -1) * m)
        assert direct is not named and direct == named
        for metric in (named, direct):
            x = Multivector.generator(metric, 2)
            assert efb_to_blades(blades_to_efb(x, m)).metric is named
    with pytest.raises(MetricError):
        blades_to_efb(Multivector.scalar(Metric.block(2, 2), 1), 2)


def test_one_blade_cosets_skip_the_transform(monkeypatch):
    # single blades in, one blade out: no coset reaches walsh_batch, and
    # no empty batch is sent to it either, at any m; an operand with
    # cosets of several blades sends exactly those cosets
    batches = []

    def spy(flat, k):
        batches.append((list(flat), k))
        return walsh_batch(flat, k)
    monkeypatch.setattr(efb, "walsh_batch", spy)
    for m in (4, 5, 6):
        metric = Metric.interleaved(m)
        x = Multivector.from_blade(metric, 0b1011, DyadicRational(3, 2))
        y = Multivector.from_blade(metric, 0b11 << 2 * m - 2 | 0b110, -5)
        assert efb_to_blades(efb_product(blades_to_efb(x, m),
                                         blades_to_efb(y, m))) == mv_mul(x, y)
        assert batches == [], f"a one-blade operand called walsh_batch at {m}"
    m = 4
    lo, hi, _, _ = efb._slot_tables(m)
    coset = [(lo[mask & 15] ^ hi[mask >> m]) >> m for mask in range(256)]
    # coset 0 holds the blades 0 and 0b11, another the blade 0b1 alone
    x = Multivector(Metric.interleaved(m), {0: 3, 0b11: 5, 0b1: 7})
    assert coset[0] == coset[0b11] == 0 != coset[0b1]
    ex = blades_to_efb(x, m)
    [(flat, k)] = batches
    assert k == m and walsh_batch(flat, m) == [ex._cosets[0]]
    # back again, the one Walsh function stays out of the batch
    batches.clear()
    assert efb_to_blades(ex) == x
    assert batches == [(ex._cosets[0], m)]


# -- the dense read-out and the triple count ---------------------------------

@pytest.mark.parametrize("m", [5, 6])
def test_dense_read_out_keeps_term_order(m, monkeypatch):
    # all 2^m cosets, none of them one Walsh function: the read-out in C
    # gives the terms, exponent and order of the list stages' read-out
    rng = random.Random(101 + m)
    taken = []
    dense = efb._dense_to_blades
    monkeypatch.setattr(efb, "_dense_to_blades",
                        lambda z: taken.append(z.m) or dense(z))
    x, y = _dense_dyadic(m, 2 * m), _dense_dyadic(m, 2 * m + 1)
    ex, ey = blades_to_efb(x, m), blades_to_efb(y, m)
    for z in (efb_product(ex, ey), ex,
              efb_product(dense_efb_multivector(m, rng),
                          dense_efb_multivector(m, rng))):
        assert verify._agree("to-blades", z)
    assert taken == [m] * 3
    if m == 5:
        assert efb_to_blades(efb_product(ex, ey)) == mv_mul(x, y)


def test_sparse_products_skip_the_dense_read_out(monkeypatch):
    # at m = 2 and 3 sparse products held as lists often store every
    # coset with no single Walsh function among them; they keep the
    # loop, while a product that keeps packed columns goes to the dense
    # read-out with no unpack: the m = 3 products of the packed kernel
    # and a dense m = 4 product
    taken = []
    dense = efb._dense_to_blades

    def spy(z):
        assert z._cols is not None, "lists to the dense read-out"
        taken.append(z.m)
        return dense(z)
    monkeypatch.setattr(efb, "_dense_to_blades", spy)
    rng = random.Random(103)
    full = kept = 0
    for m in (2, 3):
        metric = Metric.interleaved(m)
        for _ in range(150):
            x, y = (random_multivector(metric, rng) for _ in range(2))
            z = efb_product(blades_to_efb(x, m), blades_to_efb(y, m))
            if z._cols is None:
                full += len(z._cosets) == 1 << m and all(
                    walsh_index(v, m) < 0 for v in z._cosets.values())
            else:
                kept += 1
            assert efb_to_blades(z) == mv_mul(x, y)
    assert full >= 30 and kept >= 1 and taken == [3] * kept
    z = efb_product(dense_efb_multivector(4, rng),
                    dense_efb_multivector(4, rng))
    assert z._cols is not None
    assert verify._agree("to-blades", z)
    assert taken[kept:] == [4]


def _with_zero(x, g, b):
    """x with entry b of coset g set to zero."""
    cosets = {h: list(v) for h, v in x._cosets.items()}
    cosets[g][b] = 0
    return EFBMultivector._from_ints(x.m, cosets, x._e)


@pytest.mark.parametrize("m", [2, 4])
def test_packed_triples_equal_the_sweep(m):
    # the count from nnz alone when one operand has no zero entry, the
    # sum over columns otherwise: both equal the sweep's executed count
    rng = random.Random(107 + m)
    dense, other = (dense_efb_multivector(m, rng) for _ in range(2))
    sparse = _random_efb(m, rng, 0.3, 12)
    holed = _with_zero(other, 1, 2)
    for x, y in ((dense, other), (dense, sparse), (sparse, dense),
                 (holed, dense), (dense, holed), (holed, holed),
                 (sparse, holed)):
        (_, ts), (_, tp) = _kernel_outputs(x, y)
        assert ts == tp
    assert _kernel_outputs(dense, other)[1][1] == 8 ** m
    assert _kernel_outputs(holed, dense)[1][1] == 8 ** m - (1 << m)


# -- lane bounds --------------------------------------------------------------

def _exact_bits(z: EFBMultivector) -> int:
    return max((abs(n).bit_length() for v in z._cosets.values() for n in v),
               default=0)


def _sound(z):
    """z, an EFBMultivector or a Multivector, once its bound, if any, is
    at least the exact bit length."""
    exact = (_exact_bits(z) if isinstance(z, EFBMultivector) else max(
        (abs(n).bit_length() for n in z._nums.values()), default=0))
    assert z._bits is None or z._bits >= exact, (z._bits, exact)
    return z


def _sweep_width(x, y, stored, nnz):
    return 0


def _scan_width(x, y, stored, nnz):
    return efb._lanes(x, y)


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=1 << 32),
       st.integers(min_value=1, max_value=MAX_BITS), st.booleans(),
       st.booleans())
@example(4, 1, MAX_BITS, True, True)  # dense, both kernels, past a word
@example(5, 2, 58, True, True)  # 58 + 5 bits: the last narrow lane
@example(6, 3, 96, True, False)
@settings(max_examples=40)
def test_every_bound_is_sound(m, seed, bits, dense_x, dense_y):
    # every producer's _bits is None or at least the exact bit length:
    # dense and sparse conversions both ways, both kernels, a chained
    # product, the linear operators, and the blade engine's scaling and
    # product; dense operands at m = 5, 6 stop at 96 bits
    rng = random.Random(seed)
    metric = Metric.interleaved(m)

    def operand(dense):
        top = (1 << (min(bits, 96) if dense and m >= 5 else bits)) - 1
        terms = rng.randint(1, min(6, 4 ** m))
        masks = (range(1 << 2 * m) if dense else
                 rng.sample(range(1 << 2 * m), terms))
        return Multivector._raw(metric, {mask: rng.randint(-top, top)
                                         for mask in masks}, rng.randint(0, 4))

    x, y = operand(dense_x), operand(dense_y)
    ex, ey = _sound(blades_to_efb(x, m)), _sound(blades_to_efb(y, m))
    assert _sound(efb_to_blades(ex)) == x
    x._bound(), y._bound()
    for z in (3 * x, x * DyadicRational(-5, 2), -y, 0 * x):
        _sound(z)
    if m <= 4 or not dense_x or not dense_y:  # 16^m pairs when both dense
        _sound(mv_mul(x, y))
    # the sweep on two dense operands at m >= 5 is 8^m interpreted triples
    for pick in (None, _scan_width) + (
            (_sweep_width,) if m < 5 or not dense_x or not dense_y else ()):
        with pytest.MonkeyPatch.context() as patch:
            if pick:
                patch.setattr(efb, "_packed_width", pick)
            ez = _sound(efb_product(ex, ey))
            _sound(efb_product(ez, ex))
            _sound(efb_to_blades(ez))
    for z in (3 * ex, ex * DyadicRational(5, 2), ex + ey, ex - ey, -ex,
              EFBMultivector.identity(m), EFBMultivector.volume(m)):
        _sound(z)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.sampled_from(["sparse", "dense", "edge"]),
       st.integers(1, 70), st.integers(0, 1 << 32))
@example(5, "dense", 25, 0)  # a product's carried bound misses a word
@example(4, "edge", 29, 1)  # 2 * 29 + 4 + 1 bits: a product fills a word
@example(3, "sparse", 70, 2)
def test_no_carried_bound_understates(m, kind, bits, seed):
    # a bound below the bit length of a numerator would overflow a lane
    # with no error: every producer that sets _bits is _sound, on sparse,
    # dense and lane-edge operands on both sides of the word edge: blade
    # scaling, both mv_mul kernels, the list-form gather, the dict-form
    # loop, the list stages of blades_to_efb, the packed product, the sweep,
    # chained products, the dense read-out and EFB scaling
    rng = random.Random(seed)
    metric, dim, top = Metric.interleaved(m), 1 << m, (1 << bits) - 1
    low = top if kind == "edge" else 1
    terms = rng.randint(1, min(6, 4 ** m)) if kind == "sparse" else 4 ** m
    x = verify._blades(metric, rng, terms, top, low)
    y = (verify._mate(x, rng.choice((-1, 1))) if kind == "edge" else
         verify._blades(metric, rng, terms, top, low))
    by_coset = efb._blade_at(m)[0]
    cover = Multivector._raw(metric, {  # two blades in every coset
        by_coset[g * dim + i]: rng.choice((-1, 1)) * rng.randint(low, top)
        for g in range(dim) for i in rng.sample(range(dim), 2)}, 0)
    ax, ay, _ = verify._lane_edge(m, top, rng)
    for z in (x, y, cover, ax, ay):
        z._bound()
    made = [3 * x, x * DyadicRational(-5, 2)]
    for walk in (False, True):  # the pair loop runs 16^m pairs when dense
        if walk or m < 5 or kind == "sparse":
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(blades, "_walk_width", verify._rule_width
                              if walk else lambda x, y: 0)
                made.append(mv_mul(x, y))
    ex, ey = blades_to_efb(x, m), blades_to_efb(y, m)
    looped = blades_to_efb(cover, m)
    assert looped._cols is None  # a dict form takes the loop
    made += [ex, ey, looped, blades_to_efb(made[-1], m)]
    with pytest.MonkeyPatch.context() as patch:  # the list stages
        patch.setattr(efb, "_fits_word", lambda bits, m: False)
        made.append(blades_to_efb(x, m))
    for a, b in ((ex, ey), (ax, ay)):
        for pick in (_sweep_width, _scan_width):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(efb, "_packed_width", pick)
                z = efb_product(a, b)
                made += [z, efb_product(z, a)]
    made += [3 * ax, ex * DyadicRational(5, 2), -ey]
    for z in [z for z in made if isinstance(z, EFBMultivector)]:
        read = efb._dense_to_blades(z)
        assert read == efb_to_blades(z)
        made.append(read)
    for z in made:
        _sound(z)


@pytest.mark.parametrize("m", [5, 6])
def test_scaled_matrices_read_out_without_a_scan(m, monkeypatch):
    # EFB scaling carries the bound as blade scaling does, adding the
    # bit length of the scalar's numerator, so the read-out of a scaled
    # matrix whose bound fits a word takes its lanes from that bound
    rng = random.Random(157 + m)
    x = dense_blade_multivector(Metric.interleaved(m), rng)
    z = blades_to_efb(x, m)
    scaled = [3 * z, z * DyadicRational(-5, 2)]
    assert scaled[0]._bits == z._bits + 2 and scaled[1]._bits is not None
    scans = []
    scan = dyadic._magnitude
    monkeypatch.setattr(dyadic, "_magnitude",
                        lambda rows: scans.append(1) or scan(rows))
    out = [efb_to_blades(w) for w in scaled]
    monkeypatch.undo()
    assert scans == []
    assert out == [3 * efb_to_blades(z), efb_to_blades(z) * DyadicRational(
        -5, 2)]
    assert out[0] == 3 * x


def _efb_dense_dyadic(m: int, rng: random.Random) -> Multivector:
    """An operand as perfbench's dense-efb draws it: every blade, with
    +-(1..1023) / 2^(0..4), and no zero entry in its Fock-basis image."""
    while True:
        x = Multivector(Metric.interleaved(m), {
            mask: DyadicRational(rng.choice((-1, 1)) * rng.randint(1, 1023),
                                 rng.randint(0, 4))
            for mask in range(1 << 2 * m)})
        if sum(1 for _ in blades_to_efb(x, m).nonzero()) == 4 ** m:
            return x


@pytest.mark.parametrize("m", [5, 6])
def test_dense_pipeline_takes_its_widths_from_the_bounds(m, monkeypatch):
    # operands scaled by an odd dyadic, as perfbench's dense-efb scales
    # its pool, carry their bound from the scaling: the pipeline scans
    # no blade operand and no matrix, and the lane widths that the
    # product and the read-out take from the bounds are the widths a
    # scan gives: no inflation crosses a lane size
    rng = random.Random(113 + m)
    scan = dyadic._magnitude
    for _ in range(3 if m == 5 else 2):
        x, y = (_efb_dense_dyadic(m, rng) * DyadicRational(
            rng.choice((-15, -3, 7, 13)), rng.randint(0, 3)) for _ in "xy")
        scans = []
        monkeypatch.setattr(dyadic, "_magnitude",
                            lambda rows: scans.append(1) or scan(rows))
        ex, ey = blades_to_efb(x, m), blades_to_efb(y, m)
        ez = efb_product(ex, ey)
        z = efb_to_blades(ez)
        monkeypatch.undo()
        assert scans == []
        assert verify._terms(z) == verify._terms(
            verify.batched_efb_to_blades(ez))
        assert efb._lanes(ex, ey) == cliffbits.bits._lane_width(
            m, ex._cosets.values(), ey._cosets.values())
        assert cliffbits.bits._width(ez._bits + m + 1) == (
            cliffbits.bits._lane_width(m, ez._cosets.values()))


# -- kept columns ------------------------------------------------------------

def _with_lists(z: EFBMultivector) -> EFBMultivector:
    """A matrix held as the coset lists of z alone."""
    return EFBMultivector._from_ints(z.m, dict(z._cosets), z._e)


def test_cancelled_entries_count_their_triples():
    # one zero lane in x, in y or in both: the packed kernel's computed
    # count and its product equal the sweep's on the same lists; a zero
    # entry (a, b) of x meets the 2^m entries of row b of y
    rng = random.Random(131)
    m = 5
    ex, ey = (blades_to_efb(_efb_dense_dyadic(m, rng), m) for _ in "xy")
    hx, hy = verify._held(ex, cancel=(3, 17)), verify._held(ey, cancel=(30, 0))
    assert (hx.entry(3 ^ 17, 17), hy.entry(30, 0)) == (0, 0)
    for x, y, lost in ((ex, ey, 0), (hx, ey, 32), (ex, hy, 32),
                       (hx, hy, 64)):
        assert x._cols and y._cols
        swept, triples = efb._sweep(_with_lists(x), _with_lists(y))
        reset_op_counters()
        z = efb_product(x, y)
        assert op_counters().efb_triples == triples == 8 ** m - lost
        assert z == EFBMultivector._from_ints(m, swept, x._e + y._e)
    reset_op_counters()


@pytest.mark.parametrize("m", [5, 6])
def test_columns_too_narrow_for_the_read_out_are_packed_again(m):
    # every product entry 2^m c^2 with one sign, on 32-bit columns: the
    # read-out's sums need 2k + 2m + 1 bits, past the kept lanes
    k = (32 - m - 1) // 2
    u, v, want = verify._lane_edge(m, (1 << k) - 1, random.Random(m), (1, 1))
    z = efb_product(verify._held(u, 4), verify._held(v, 4))
    assert z._cols[1] == 4 and cliffbits.bits._width(z._bound() + m + 1) > 32
    assert verify._terms(efb_to_blades(z)) == verify._terms(
        verify.batched_efb_to_blades(want))


@given(st.integers(min_value=5, max_value=6),
       st.integers(min_value=0, max_value=1 << 32),
       st.integers(min_value=1, max_value=50), st.booleans())
@settings(max_examples=12, deadline=None)
def test_kept_columns_equal_the_same_entries(m, seed, bits, read_first):
    # a matrix that keeps columns equals the matrix built from its
    # entries on ==, _key and nonzero() order, and its product and
    # read-out are the same whether or not its lists were read first
    rng = random.Random(seed)
    metric = Metric.interleaved(m)
    top = (1 << bits) - 1
    x, y = (Multivector._raw(metric, {mask: rng.randint(-top, top)
                                      for mask in range(1 << 2 * m)},
                             rng.randint(0, 4)) for _ in range(2))
    kept, other = blades_to_efb(x, m), blades_to_efb(x, m)
    ey = blades_to_efb(y, m)
    assert kept._lists is None and other._lists is None
    built = EFBMultivector(m, {(a, b): c for a, b, c in other.nonzero()})
    if read_first:
        kept._cosets
    assert kept._key() == built._key() and kept == built
    assert list(kept.nonzero()) == list(built.nonzero())
    fresh = blades_to_efb(x, m)
    z, want = efb_product(fresh, ey), efb_product(built, ey)
    assert z == want and list(z.nonzero()) == list(want.nonzero())
    assert verify._terms(efb_to_blades(z)) == verify._terms(
        efb_to_blades(want))
    assert verify._terms(efb_to_blades(kept)) == verify._terms(
        efb_to_blades(built))


def test_wide_dense_operands_skip_the_column_kernel(monkeypatch):
    # 100-bit blade numerators at m = 5: lanes past a word go to the
    # list stages on the way in and to the loop on the way out
    def refuse(*args):
        raise AssertionError("the column kernel ran")
    m = 5
    rng = random.Random(127)
    metric = Metric.interleaved(m)
    x, y = (Multivector._raw(metric, {
        mask: rng.choice((-1, 1)) * rng.randrange(1 << 99, 1 << 100)
        for mask in range(1 << 2 * m)}, rng.randint(0, 3)) for _ in range(2))
    monkeypatch.setattr(efb, "_columns", refuse)
    monkeypatch.setattr(cliffbits.bits, "_columns", refuse)
    ex, ey = blades_to_efb(x, m), blades_to_efb(y, m)
    assert verify._agree("to-efb", x, m) and verify._agree("to-efb", y, m)
    ez = efb_product(ex, ey)
    assert len(ez._cosets) == 1 << m
    assert not any(walsh_index(v, m) >= 0 for v in ez._cosets.values())
    assert verify._agree("to-blades", ez)
    assert efb_to_blades(ex) == x
    # a narrow dense operand does reach the kernel
    with pytest.raises(AssertionError, match="the column kernel ran"):
        blades_to_efb(dense_blade_multivector(metric, rng), m)
