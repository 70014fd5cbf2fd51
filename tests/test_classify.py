import json

import pytest

from cliffbits import (AutomorphismBits, SignatureKL, algebra_name,
                       classification_record, classify, cube_coordinates,
                       cube_record, division_algebra, omega_squared,
                       omega_tau_squared, recover_n_bits,
                       recover_signature_partial, render_cube, tau_squared,
                       varlamov_bits)
from cliffbits.classify import _matrix_size_log2


def test_division_algebra_wheel():
    wheel = {0: ("R", False), 1: ("R", True), 2: ("R", False), 3: ("C", False),
             4: ("H", False), 5: ("H", True), 6: ("H", False), 7: ("C", False)}
    for nu in range(8):
        assert division_algebra(nu) == wheel[nu]
    assert division_algebra(-1 % 8) == ("C", False)
    assert division_algebra(-2 % 8) == ("H", False)


def test_cube_coordinates_are_bits():
    for nu in range(8):
        b0, b1, b2 = cube_coordinates(nu)
        assert (b0, b1, b2) == (nu & 1, (nu >> 1) & 1, (nu >> 2) & 1)


def test_classify_examples():
    c = classify(2, 2)
    assert (c.base, c.matrix_size, c.doubled) == ("R", 4, False)
    assert algebra_name(c) == "R(4)"
    c = classify(3, 1)
    assert algebra_name(c) == "R(4)"
    c = classify(0, 2)
    assert algebra_name(c) == "H"
    c = classify(1, 0)
    assert algebra_name(c) == "2R"
    c = classify(5, 0)
    assert algebra_name(c) == "2H(2)"
    c = classify(3, 0)
    assert algebra_name(c) == "C(2)"
    c = classify(0, 3)
    assert algebra_name(c) == "2H"


def test_central_simple_flags():
    assert classify(2, 2).is_central and classify(2, 2).is_simple
    assert not classify(1, 0).is_central
    assert not classify(1, 0).is_simple  # doubled algebras are not simple
    assert not classify(3, 0).is_central  # complex base has a bigger center
    assert classify(3, 0).is_simple


def test_dimension_accounting():
    dims = {"R": 1, "C": 2, "H": 4}
    for k in range(9):
        for l in range(9):
            c = classify(k, l)
            total = c.matrix_size ** 2 * dims[c.base] * (2 if c.doubled else 1)
            assert total == 1 << (k + l)


def test_omega_squared_closed_form():
    assert omega_squared(2, 0) == -1
    assert omega_squared(1, 1) == 1
    assert omega_squared(0, 2) == -1
    assert omega_squared(4, 0) == 1


def test_tau_squared_examples():
    assert tau_squared(2, 2) == -1
    assert tau_squared(1, 1) == 1
    assert tau_squared(0, 2) == -1
    assert tau_squared(4, 0) == 1
    with pytest.raises(ValueError):
        tau_squared(2, 1)
    with pytest.raises(ValueError):
        omega_tau_squared(1, 2)


def test_varlamov_triple():
    bits = varlamov_bits(2, 2)
    assert bits == AutomorphismBits(a=-1, b=-1, c=1)
    assert varlamov_bits(1, 1) == AutomorphismBits(a=-1, b=1, c=1)


def test_recover_n_bits_examples():
    # Cl(2,2): nu = 0, tau^2 = -1, (omega tau)^2 = -1 pins n = 4 mod 8
    assert recover_n_bits(0, -1, -1) == 4
    # Cl(1,1): nu = 0, tau^2 = +1, (omega tau)^2 = -1 pins n = 2 mod 8
    assert recover_n_bits(0, 1, -1) == 2
    for k in range(9):
        for l in range(9):
            if (k + l) % 2:
                continue
            assert recover_n_bits((k - l) % 8, tau_squared(k, l),
                                  omega_tau_squared(k, l)) == (k + l) % 8


def test_recover_n_bits_validation():
    with pytest.raises(ValueError):
        recover_n_bits(3, 1, 1)
    with pytest.raises(ValueError):
        recover_n_bits(0, 2, 1)


def test_recover_signature_partial():
    got = recover_signature_partial(True, "R", varlamov_bits(2, 2))
    assert got == (4, 0, 2, 2)
    got = recover_signature_partial(True, "R", varlamov_bits(1, 1))
    assert got == (2, 0, 1, 1)
    for k in range(9):
        for l in range(9):
            if (k + l) % 2:
                continue
            n8, nu8, k4, l4 = recover_signature_partial(
                True, classify(k, l).base, varlamov_bits(k, l))
            assert (n8, nu8) == ((k + l) % 8, (k - l) % 8)
            assert (k4, l4) == (k % 4, l % 4)


def test_recover_rejects_odd_dimension_inputs():
    with pytest.raises(ValueError):
        recover_signature_partial(False, "R", AutomorphismBits(1, 1, 1))
    with pytest.raises(ValueError):
        recover_signature_partial(True, "C", AutomorphismBits(1, 1, 1))


def test_classification_record_schema():
    rec = classification_record(2, 2)
    assert rec["base"] == "R" and rec["matrix_size"] == 4
    assert rec["matrix_size_log2"] == 2
    assert rec["tau_sq"] == -1 and rec["omega_tau_sq"] == -1
    assert rec["cube"] == [0, 0, 0]
    assert rec["varlamov"] == [-1, -1, 1]
    rec = classification_record(3, 0)
    assert rec["tau_sq"] is None
    assert rec["omega_tau_sq"] is None
    assert rec["varlamov"] is None
    assert rec["base"] == "C"


def test_cube_rendering():
    art = render_cube(ascii_mode=True)
    for label in ("0:R", "1:2R", "3:C", "5:2H", "6:H"):
        assert label in art
    assert "ν" not in art and "⊕" not in art
    pretty = render_cube(ascii_mode=False)
    assert "R⊕R" in pretty and "H⊕H" in pretty


def test_cube_record_vertices():
    rec = cube_record()
    assert len(rec["vertices"]) == 8
    byv = {v["nu_mod8"]: v for v in rec["vertices"]}
    assert byv[0]["label"] == "R" and byv[5]["label"] == "2H"
    assert byv[7]["bits"] == [1, 1, 1]


def test_classify_huge_n_in_closed_form():
    # 2^n is never built: the matrix size follows from the exponent
    c = classify(10**6, 0)
    assert c.base == "R" and not c.doubled
    assert c.matrix_size == 1 << 500_000


def test_record_exponent_at_huge_n():
    # the exponent prints where matrix_size itself would not
    rec = classification_record(10**6, 0)
    assert rec["matrix_size_log2"] == 500_000
    assert rec["matrix_size"] == 1 << rec["matrix_size_log2"]
    rest = {k: v for k, v in rec.items() if k != "matrix_size"}
    assert json.loads(json.dumps(rest))["matrix_size_log2"] == 500_000
    for k in range(9):
        for l in range(9):
            rec = classification_record(k, l)
            assert rec["matrix_size"] == 1 << rec["matrix_size_log2"]


def test_classify_refuses_an_n_past_its_bound():
    # the matrix size of n = 2^40 would take 2^36 bytes: refused, with
    # the bound named, before it is built; n = 2^24 is built, and the
    # exponent alone is still computed past it
    for f in (classify, classification_record):
        for k, l in ((2**40, 0), (0, 2**24 + 1)):
            with pytest.raises(ValueError,
                               match=r"at most MAX_CLASSIFY_N = 2\^24"):
                f(k, l)
    assert classify(2**24, 0).matrix_size == 1 << 2**23
    assert _matrix_size_log2(2**40, 0) == 2**39


def test_signatures_refuse_non_int_and_bool_counts():
    # 2.0 and True equal ints, but a record of them would print as such
    for k, l in ((2.0, 1), ("2", 1), (True, False), (1, 0.0), (None, 2)):
        for f in (classify, classification_record, _matrix_size_log2,
                  SignatureKL):
            with pytest.raises(TypeError, match="k and l must be ints"):
                f(k, l)
