import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cliffbits
from cliffbits import (Metric, Multivector, ParseError, cli, op_counters,
                       sampling, verify)
from cliffbits.cli import bench_results, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "2", "2")
    assert code == 0
    assert "R(4)" in out


def test_classify_json_roundtrip(capsys):
    code, out, _ = run(capsys, "classify", "3", "1", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["base"] == "R" and rec["matrix_size"] == 4
    assert rec["matrix_size_log2"] == 2
    assert set(rec) == {"k", "l", "n", "nu", "n_mod8", "nu_mod8", "base",
                        "matrix_size", "matrix_size_log2", "doubled",
                        "central", "simple", "omega_sq", "tau_sq",
                        "omega_tau_sq", "cube", "varlamov"}


def test_classify_odd_n_nulls(capsys):
    code, out, _ = run(capsys, "classify", "1", "2", "--json")
    rec = json.loads(out)
    assert code == 0
    assert rec["tau_sq"] is None and rec["varlamov"] is None


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "two", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_negative_signature_is_input_error(capsys):
    code, _, err = run(capsys, "classify", "-1", "2")
    assert code == 2
    assert err


@pytest.fixture
def default_digit_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-string digit limit in this interpreter")
def test_classify_too_large_to_print(capsys, default_digit_limit):
    # 2^15000 has 4516 digits, past the default limit of 4300
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, "classify", "30000", "0", *extra)
        assert (code, out) == (2, "")
        assert "2^15000" in err
        assert "set_int_max_str_digits" not in err
    # the boundary: 2^14284 has 4300 digits and prints, 2^14285 has 4301
    code, out, _ = run(capsys, "classify", "28568", "0")
    assert code == 0 and str(1 << 14284) in out
    code, _, err = run(capsys, "classify", "28570", "0")
    assert code == 2 and "2^14285" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-string digit limit in this interpreter")
def test_classify_refuses_huge_n_from_the_exponent(capsys, monkeypatch,
                                                   default_digit_limit):
    # 2^500000000000 takes about 62 GB; the refusal must not build it
    def refuse(k, l):
        raise AssertionError("classify ran on an unprintable size")
    monkeypatch.setattr(cli, "classify", refuse)
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, "classify", "1000000000000", "0", *extra)
        assert (code, out) == (2, "")
        assert "2^500000000000" in err and "too many to print" in err


def test_too_many_digits_equals_the_exact_power():
    # the 3- and 4-bits-a-digit brackets decide without 10^limit
    for limit in range(1, 60):
        for log2 in range(5 * limit):
            assert cli._too_many_digits(log2, limit) == (
                1 << log2 >= 10 ** limit), (log2, limit)


def test_classify_under_a_huge_digit_limit(capsys, monkeypatch):
    # 10^(10^7) takes seconds to build; 2^4 needs none of it
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 10 ** 7,
                        raising=False)
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify", "8", "0")
    assert code == 0 and "R(16)" in out
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("unlimited", ["zero", "absent"])
def test_classify_guard_without_a_digit_limit(capsys, monkeypatch,
                                              unlimited):
    # with no limit (0, or no function to read one) the guard falls back
    # to Python's default of 4300 digits instead of printing 2^15000
    if unlimited == "zero":
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0,
                            raising=False)
    else:
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    for n in ("30000", "1000000000000"):
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, "classify", n, "0", *extra)
            assert (code, out) == (2, "")
            assert "more than 4300 digits, too many to print" in err
    code, out, _ = run(capsys, "classify", "8", "0")
    assert code == 0 and "R(16)" in out


def test_cube_ascii_flag(capsys):
    code, out, _ = run(capsys, "cube", "--ascii")
    assert code == 0
    assert "2R" in out and "⊕" not in out


def test_cube_ascii_env(capsys, monkeypatch):
    monkeypatch.setenv("CLIFFBITS_ASCII", "1")
    code, out, _ = run(capsys, "cube")
    assert code == 0
    assert "⊕" not in out
    monkeypatch.delenv("CLIFFBITS_ASCII")
    code, out, _ = run(capsys, "cube")
    assert "⊕" in out


def test_cube_json(capsys):
    code, out, _ = run(capsys, "cube", "--json")
    rec = json.loads(out)
    assert code == 0 and len(rec["vertices"]) == 8


def test_efb_table_text(capsys):
    code, out, _ = run(capsys, "efb-table", "2")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 5  # header plus four rows
    for label in ("++ (0)", "+- (1)", "-+ (2)", "-- (3)"):
        assert label in lines[0]
        assert any(ln.startswith(label) for ln in lines[1:])
    assert "-q1 p2" in out and "q1p1 q2p2" in out


def test_efb_table_json(capsys):
    code, out, _ = run(capsys, "efb-table", "1", "--json")
    rec = json.loads(out)
    assert code == 0 and rec["m"] == 1
    assert len(rec["entries"]) == 4
    signs = {(e["row"], e["col"]): e["sign"] for e in rec["entries"]}
    assert all(s == 1 for s in signs.values())  # m = 1 has no negatives


def test_efb_table_range(capsys):
    code, _, err = run(capsys, "efb-table", "9")
    assert code == 2 and "between 1 and 4" in err


def test_mul_engines_agree(capsys):
    code, blade_out, _ = run(capsys, "mul", "2", "1/2 g1 g2 + 3", "g2 - 1",
                             "--engine", "blade")
    assert code == 0
    code, efb_out, _ = run(capsys, "mul", "2", "1/2 g1 g2 + 3", "g2 - 1",
                           "--engine", "efb")
    assert code == 0
    code, both_out, _ = run(capsys, "mul", "2", "1/2 g1 g2 + 3", "g2 - 1",
                            "--engine", "both")
    assert code == 0
    assert blade_out == efb_out == both_out


def test_mul_engines_disagree(capsys, monkeypatch):
    # both products are rendered to stderr, and nothing goes to stdout
    real = cli.mv_mul
    monkeypatch.setattr(cli, "mv_mul", lambda x, y: -real(x, y))
    code, out, err = run(capsys, "mul", "2", "1/2 g1 g2 + 3", "g2 - 1",
                         "--engine", "both")
    assert (code, out) == (1, "")
    assert err.split("\n") == [
        "mul: engines disagree",
        "  blade: 3 + 1/2 g1 - 3 g2 + 1/2 g1 g2",
        "  efb:   -3 - 1/2 g1 + 3 g2 - 1/2 g1 g2", ""]


def test_mul_parse_error(capsys):
    code, _, err = run(capsys, "mul", "2", "g9", "g1")
    assert code == 2 and "mul:" in err


@pytest.mark.parametrize("m, engine", [("0", "blade"), ("0", "efb"),
                                       ("0", "both"), ("20", "both")])
def test_mul_m_range(capsys, monkeypatch, m, engine):
    # the bound is checked before parsing, so no operand is ever built
    def refuse(*args):
        raise AssertionError("mul parsed operands for an out-of-range m")
    monkeypatch.setattr(Multivector, "parse", refuse)
    code, out, err = run(capsys, "mul", m, "g1", "g2", "--engine", engine)
    assert code == 2 and not out
    assert err == f"mul: m must be between 1 and 8, got {m}\n"


@pytest.mark.parametrize("coeff", ["1/2^20000", "7" * 5000,
                                   "1/2^" + "9" * 5000],
                         ids=["exponent", "numerator", "exponent-digits"])
def test_mul_huge_coefficient(capsys, coeff):
    code, out, err = run(capsys, "mul", "1", f"{coeff} g1", "g2")
    assert (code, out) == (2, "")
    assert err.startswith("mul: ")
    assert "set_int_max_str_digits" not in err and "Traceback" not in err


@pytest.mark.parametrize("left, message", [
    ("7" * 100000 + "x g1", "not a dyadic coefficient: '" + "7" * 40),
    ("0" * 50000 + "3/6 g1", "denominator must be a power of 2: '0000"),
    ("g1 " + "y" * 50000, "unexpected token '" + "y" * 40),
    ("z" * 50000 + " g1", "not a dyadic coefficient: '" + "z" * 40),
    ("g" + "9" * 50000, "generator g" + "9" * 39),
], ids=["coefficient", "denominator", "after-generator", "leading",
        "generator-index"])
def test_long_bad_token_message_is_bounded(capsys, left, message):
    code, out, err = run(capsys, "mul", "1", left, "g2")
    assert (code, out) == (2, "")
    assert err.startswith("mul: " + message) and "\u2026" in err
    assert len(err.encode()) < 200


@pytest.mark.parametrize("left, err", [
    ("1/3 g1", "mul: denominator must be a power of 2: '1/3'\n"),
    ("2/4/8", "mul: not a dyadic coefficient: '2/4/8'\n"),
    ("g1 2", "mul: unexpected token '2'\n"),
    ("g3", "mul: generator g3 outside an algebra with n=2\n"),
    ("3 " + "7" * 40, "mul: unexpected token '" + "7" * 40 + "'\n"),
])
def test_short_bad_token_message_unchanged(capsys, left, err):
    assert run(capsys, "mul", "1", left, "g2") == (2, "", err)


@pytest.mark.parametrize("m, left", [("8", "g1\u0661"), ("8", "g\u0661"),
                                     ("1", "\u0663/\u0668 g1")],
                         ids=["generator-index", "generator", "coefficient"])
def test_mul_reads_ascii_digits_only(capsys, m, left):
    # g1 followed by an Arabic-Indic one is not g11, nor an
    # Arabic-Indic 3/8 a coefficient
    token = left.split()[0]
    assert run(capsys, "mul", m, left, "1") == (
        2, "", f"mul: not a dyadic coefficient: {token!r}\n")


def test_parse_rejects_huge_exponent():
    # rejected while parsing, before anything prints 2^(10^11)
    with pytest.raises(ParseError):
        Multivector.parse("1/2^100000000000 g1", Metric.interleaved(1))


def test_mul_coefficient_at_bound(capsys):
    top = (1 << 2048) - 1  # 2048 bits, over 2^2048 written both ways
    code, out, err = run(capsys, "mul", "1", f"{top}/2^2048 g1",
                         f"-{top}/{1 << 2048} g2")
    assert (code, err) == (0, "")
    assert out == f"-{top * top}/{1 << 4096} g1 g2\n"


def test_closed_pipe_exits_without_traceback():
    env = dict(os.environ,
               PYTHONPATH=str(Path(cliffbits.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cliffbits", "efb-table", "4", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader goes away before any output
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err, err


def test_mul_json(capsys):
    code, out, _ = run(capsys, "mul", "1", "g1", "g2", "--json")
    rec = json.loads(out)
    assert code == 0
    assert rec["product"] == "g1 g2"


def test_verify_quick(capsys):
    # suite names, order, case counts and marks, byte for byte
    golden = Path(__file__).parent / "data" / "verify_quick.txt"
    code, out, err = run(capsys, "verify", "--level", "quick")
    assert (code, err) == (0, "")
    assert out == golden.read_text(encoding="utf-8")


def test_verify_reports_first_failure(capsys, monkeypatch):
    # a closed form wrong at one (n, i) fails its own suite and no other
    real = verify.lucas_sign

    def planted(n, i):
        return -real(n, i) if (n, i) == (5, 1) else real(n, i)
    monkeypatch.setattr(verify, "lucas_sign", planted)
    code, out, _ = run(capsys, "verify")
    lines = out.splitlines()
    assert code == 1
    assert [ln for ln in lines if "FAIL" in ln] == [lines[0]]
    assert lines[0].startswith("FAIL lucas-vs-sign-bit")
    assert lines[0].endswith("(first failure: (5, 1))")
    assert len(lines) == 32
    assert all(ln.startswith("ok") for ln in lines[1:])


def test_verify_first_failures_of_planted_faults(monkeypatch):
    # wrong at one case each: the suites that call them report the same
    # first failing case as the hand-written loops did, and no other
    # suite fails
    blade, tau = verify.blade_product, verify.tau_squared
    sign, norm = verify.sign_s, verify.normalization_sign

    def planted_blade(a, b, metric):
        s, mask = blade(a, b, metric)
        return (-s if (a, b) == (5, 6) else s), mask

    def planted_tau(k, l):
        return -tau(k, l) if (k, l) == (3, 1) else tau(k, l)

    def planted_sign(a, x, d, m):
        flip = (m, a, x, d) == (2, 1, 0, 3)
        return -sign(a, x, d, m) if flip else sign(a, x, d, m)

    def planted_norm(a, col, m):
        flip = (m, a, col) == (2, 3, 1)
        return -norm(a, col, m) if flip else norm(a, col, m)
    monkeypatch.setattr(verify, "blade_product", planted_blade)
    monkeypatch.setattr(verify, "tau_squared", planted_tau)
    monkeypatch.setattr(verify, "sign_s", planted_sign)
    monkeypatch.setattr(verify, "normalization_sign", planted_norm)
    failed = {r.name: r.detail for r in verify.run_suite("quick")
              if not r.passed}
    assert failed == {
        name: f"first failure: {case}" for name, case in (
            ("blade-sign-vs-normal-order", ((1, 1, 1), 5, 6)),
            ("blade-associativity", (1, 4, 6)),
            ("tau-squares-and-duals", (3, 1)),
            ("n-bit-recovery", (3, 1)),
            ("sign-vs-word-oracle", (2, 1, 0, 3)),
            ("sign-vs-blade-oracle", (2, 1, 0, 3)),
            ("sign-cocycle", (2, 0, 1, 0, 3)),
            ("matrix-units", (2, 0, 3, 3, 1)),
            ("conversion-vs-word-oracle", (2, 3, 1)))}


def test_verify_case_sequences_keep_their_pinned_hashes():
    # SHA-256 of each suite's (case, ok) pairs at the quick bounds: every
    # case, its order and its mark, in suite order; the names are those
    # that test_verify_quick pins
    data = Path(__file__).parent / "data"
    names = [line.split()[1] for line in
             (data / "verify_quick.txt").read_text("utf-8").splitlines()]
    bounds = verify._BOUNDS["quick"]
    got = [name + " " + hashlib.sha256(
        repr(list(check.__wrapped__(bounds))).encode()).hexdigest()
        for name, check in zip(names, verify._CHECKS, strict=True)]
    assert got == (data / "verify_cases_quick.txt").read_text(
        "utf-8").splitlines()


def _top_step_negates_nothing(real):
    """blades._walk_masks with no lane negated by the walk's top step."""
    def planted(n, neg, size):
        keep, low, flip, rows, halves = real.__wrapped__(n, neg, size)
        return keep, low[:-1] + (0,), flip, rows, halves
    planted.__wrapped__ = planted
    return planted


def _misread_index(real):
    """walsh_index with bit 0 of every index from 2 on flipped."""
    def planted(v, k):
        i = real(v, k)
        return i ^ 1 if i > 1 else i
    return planted


# one planted fault per fast-path suite: (suite, module.name, fault), the
# fault built from the real function
_PLANTED = [
    ("conversion-fast-paths", "efb.walsh_index", _misread_index),
    ("dense-fast-paths", "efb._plans",
     lambda real: lambda size, k: tuple(
         real(size, k)[t & ~1] for t in range(1 << k))),
    ("blade-kernels", "blades._walk_masks", _top_step_negates_nothing),
    ("walsh-kernels", "bits._lower",
     lambda real: lambda rows, size, k, cap: real(rows, size, k, cap + 1)),
    ("lane-bounds", "bits._negator",
     lambda real: lambda size, count, neg: (
         real(size, count, neg)[0], cliffbits.bits._halves(size, count))),
    ("packed-columns", "efb._lower",
     lambda real: lambda rows, size, k, cap: (rows, 0)),
    ("packed-columns", "efb._triples",
     lambda real: lambda flags, yf: real(flags, yf) + 1),
    ("storage-rule", "blades._listed",
     lambda real: lambda nnz, n: real(nnz + 1, n)),
    ("parse-one-pass", "blades._grade_order",
     lambda real: lambda n: (*real(n)[:2], {
         run: mask ^ 1 for run, mask in real(n)[2].items()})),
]


@pytest.mark.parametrize("suite, target, fault", _PLANTED,
                         ids=[f"{s}-{t}" for s, t, _ in _PLANTED])
def test_each_fast_path_suite_catches_a_planted_fault(monkeypatch, suite,
                                                      target, fault):
    # a wrong value planted in the fast path's own module, where the
    # library looks it up, fails the suite that checks that path
    module, name = target.split(".")
    module = getattr(cliffbits, module)
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    _fails(suite)


def _fails(suite: str) -> None:
    """Run the suite at the quick level and check that it fails."""
    check, = [c for c in verify._CHECKS
              if c.__wrapped__.__name__ == "check_" + suite.replace("-", "_")]
    result = check(verify._BOUNDS["quick"])
    assert result.name == suite
    assert result.passed is False
    assert result.detail.startswith("first failure: ")


def test_an_early_exit_on_the_signed_row_fails_its_suites(monkeypatch):
    # bits._lower stopping at shift 0 when the signed first row, rather
    # than its two's-complement lanes, has an odd bit at a lane's foot: a
    # negative lane below an even one borrows from it, so both suites that
    # lower packed rows must fail
    real = cliffbits.bits._lower

    def planted(rows, size, k, cap):
        odd = cliffbits.bits._halves(size, 1 << k) >> 8 * size - 1
        if cap and rows[0] & odd:
            return rows, 0
        return real(rows, size, k, cap)
    monkeypatch.setattr(cliffbits.bits, "_lower", planted)
    monkeypatch.setattr(cliffbits.efb, "_lower", planted)
    for suite in ("walsh-kernels", "packed-columns"):
        _fails(suite)


def test_case_iterators_follow_the_nested_loops():
    assert list(verify._signatures(2)) == [
        (k, l) for k in range(3) for l in range(3)]
    assert list(verify._signatures(3, even=True)) == [
        (k, l) for k in range(4) for l in range(4) if (k + l) % 2 == 0]
    assert list(verify._indices(2, 3)) == [
        (m, a, x, d) for m in (1, 2) for a in range(1 << m)
        for x in range(1 << m) for d in range(1 << m)]
    assert list(verify._indices(0, 2)) == []


def test_run_suite_refuses_an_unknown_level():
    with pytest.raises(ValueError, match="^unknown level 'medium'$"):
        cliffbits.run_suite("medium")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--level", "quick", "--json")
    rec = json.loads(out)
    assert code == 0
    assert all(r["passed"] for r in rec["results"])
    assert len(rec["results"]) >= 20
    # one wall time per suite, the runner's, next to the pinned fields
    assert all(type(r["seconds"]) is float and r["seconds"] >= 0
               for r in rec["results"])


def test_bench_counts_exact(capsys):
    rows = bench_results(3)
    for r in rows:
        assert r["blade_pairs"] == 16 ** r["m"]
        assert r["efb_triples"] == 8 ** r["m"]
        assert r["count_ratio"] == 2 ** r["m"]
    code, out, _ = run(capsys, "bench", "2")
    assert code == 0
    assert "ratio" in out


def test_bench_layers(capsys):
    layers = ("parse", "blades_to_efb", "efb_product", "efb_to_blades",
              "render")
    for r in bench_results(2):
        # both products, best of 3, in seconds to 7 decimals
        for key in ("blade_seconds", "efb_seconds"):
            assert type(r[key]) is float and r[key] > 0
            assert r[key] == round(r[key], 7)
        assert set(r["layers"]) == {"dense", "sparse"}
        for pair in r["layers"].values():
            assert tuple(pair) == layers
            assert all(type(s) is float and s >= 0 for s in pair.values())
    code, out, _ = run(capsys, "bench", "1", "--json")
    rec = json.loads(out)
    assert code == 0
    assert (rec["seed"], rec["python"], rec["cpus"]) == (
        cli.BENCH_SEED, platform.python_version(), os.cpu_count())
    assert [r["m"] for r in rec["rows"]] == [1]
    assert rec["rows"][0]["blade_pairs"] == 16
    assert rec["commit"] is None or (
        len(rec["commit"]) == 40
        and set(rec["commit"]) <= set("0123456789abcdef"))
    # dirty is null exactly when commit is, and a bool otherwise
    assert (rec["dirty"] is None if rec["commit"] is None
            else type(rec["dirty"]) is bool)


@pytest.mark.parametrize("failure", [FileNotFoundError("git"),
                                     subprocess.TimeoutExpired("git", 30),
                                     "not a checkout"])
def test_bench_commit_is_null_without_a_checkout(capsys, monkeypatch,
                                                 failure):
    # no git, a hung git, or a package outside any checkout: bench still
    # writes its rows, with "commit" and "dirty" null
    def git(argv, check=False, **kw):
        if isinstance(failure, Exception):
            raise failure
        proc = subprocess.CompletedProcess(argv, 128, "", "fatal: " + failure)
        if check:  # as subprocess.run does
            proc.check_returncode()
        return proc
    monkeypatch.setattr(subprocess, "run", git)
    code, out, _ = run(capsys, "bench", "1", "--json")
    rec = json.loads(out)
    assert (code, rec["commit"], rec["dirty"], len(rec["rows"])) == (
        0, None, None, 1)


def test_bench_commit_names_head_of_the_checkout():
    # inside a git checkout the header carries HEAD and whether tracked
    # files differ from it; elsewhere both are null
    here = Path(cli.__file__).resolve().parent
    try:
        proc, status = (subprocess.run(["git", *argv], cwd=here,
                                       capture_output=True, text=True,
                                       timeout=30)
                        for argv in (["rev-parse", "HEAD"],
                                     ["status", "--porcelain",
                                      "--untracked-files=no"]))
        tracked = subprocess.run(
            ["git", "ls-files", "--error-unmatch", "cli.py"], cwd=here,
            capture_output=True, text=True, timeout=30).returncode == 0
    except OSError:
        pytest.skip("no git")
    if proc.returncode == 0 and tracked:
        want = {"commit": proc.stdout.strip(),
                "dirty": bool(status.stdout.strip())}
    else:
        want = {"commit": None, "dirty": None}
    assert cli._checkout() == want


def test_bench_dirty_sees_a_tracked_change(tmp_path, monkeypatch):
    # a stand-in cli.py in a fresh checkout: clean once committed,
    # dirty once a tracked file changes, and untracked files do not count
    def git(*argv):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *argv], cwd=tmp_path,
                       check=True, capture_output=True, timeout=30)
    try:
        git("init", "-q")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("no git")
    (tmp_path / "cli.py").write_text("x = 1\n")
    git("add", "cli.py")
    git("commit", "-q", "-m", "c")
    monkeypatch.setattr(cli, "__file__", str(tmp_path / "cli.py"))
    (tmp_path / "untracked.txt").write_text("x")
    assert cli._checkout()["dirty"] is False
    (tmp_path / "cli.py").write_text("x = 2\n")
    assert cli._checkout()["dirty"] is True


def test_bench_source_digest_matches_perfbench():
    # the header names the package source by the digest that perfbench's
    # metadata() writes for the same tree, run in its own interpreter
    root = Path(cli.__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'perfbench');"
         " import run; print(run.metadata(0, 'w', 0)['source_sha256'])"],
        cwd=root, capture_output=True, text=True, timeout=60, check=True)
    digest = cli._source_sha256()
    assert re.fullmatch("[0-9a-f]{64}", digest)
    assert proc.stdout.strip() == digest


def test_bench_out_writes_the_json_record(capsys, tmp_path, monkeypatch):
    # --out writes the record --json prints, and stdout stays the table
    # or the record; an unwritable path exits 2 with a message
    monkeypatch.setattr(cli, "_checkout",
                        lambda: {"commit": None, "dirty": None})
    path = tmp_path / "bench.json"
    code, out, _ = run(capsys, "bench", "1", "--out", str(path))
    assert code == 0 and "ratio" in out
    rec = json.loads(path.read_text())
    assert path.read_text().endswith("}\n")
    assert (rec["seed"], rec["commit"], rec["dirty"],
            rec["source_sha256"]) == (cli.BENCH_SEED, None, None,
                                      cli._source_sha256())
    assert [r["m"] for r in rec["rows"]] == [1]
    code, out, _ = run(capsys, "bench", "1", "--json", "--out", str(path))
    assert code == 0
    assert json.loads(out).keys() == json.loads(path.read_text()).keys()
    missing = tmp_path / "no" / "bench.json"
    code, out, err = run(capsys, "bench", "1", "--out", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith(f"bench: cannot write {missing}: ")
    assert not missing.exists()


def test_bench_layers_leave_dense_draws(capsys, monkeypatch):
    # the sparse pair has its own generator: the dense operands are the
    # ones bench drew before it timed layers, and the counters end at 0
    def drawn(layer_seconds):
        seen = []

        def record(metric, rng):
            seen.append(str(draw(metric, rng)))
            return Multivector.parse(seen[-1], metric)
        monkeypatch.setattr(sampling, "dense_blade_multivector", record)
        monkeypatch.setattr(cli, "_layer_seconds", layer_seconds)
        bench_results(3)
        return seen
    draw = sampling.dense_blade_multivector
    with_layers = drawn(cli._layer_seconds)
    assert with_layers == drawn(lambda *args, **kw: {})
    assert len(with_layers) == 6
    assert op_counters() == (0, 0)


def test_a_sparse_mul_loads_no_oracle():
    # import cliffbits.cli and a sparse mul, text and --json, load neither
    # the oracle layer nor the word calculus nor the samplers, and
    # subprocess not at all; the package's lazy names load them on first
    # access, and the verify command loads the oracle
    code = (
        "import sys\n"
        "import cliffbits.cli\n"
        "names = ('cliffbits.verify', 'cliffbits.words', "
        "'cliffbits.sampling', 'subprocess')\n"
        "loaded = lambda: [n for n in names if n in sys.modules]\n"
        "print(loaded())\n"
        "for extra in ([], ['--json']):\n"
        "    cliffbits.cli.main(['mul', '3', 'g1 g2 - 1/2', '3 g5', *extra])\n"
        "print(loaded())\n"
        "from cliffbits import run_suite, witt_basis\n"
        "print(loaded())\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(cliffbits.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.stdout.split("\n") == [
        "[]", "-3/2 g5 + 3 g1 g2 g5",
        '{"m": 3, "left": "g1 g2 - 1/2", "right": "3 g5", "engine": "both", '
        '"product": "-3/2 g5 + 3 g1 g2 g5"}', "[]",
        "['cliffbits.verify', 'cliffbits.words', 'cliffbits.sampling']",
        ""], proc.stderr


def test_lazy_names_resolve_as_before():
    # every name of __all__ resolves, the lazy ones to the objects of
    # their modules, and an unknown name raises AttributeError
    from cliffbits import words
    for name in cliffbits.__all__:
        assert getattr(cliffbits, name) is not None, name
    assert cliffbits.run_suite is verify.run_suite
    assert cliffbits.witt_basis is words.witt_basis
    # the oracles live in verify alone, and the product modules define
    # none of them
    from cliffbits import bits, blades
    for name in ("omega_squared_oracle", "center_check", "tau_blade",
                 "tau_squared_oracle", "omega_tau_squared_oracle",
                 "dual_automorphism_check", "lucas_sign", "_lane_width"):
        oracle = getattr(verify, name)
        assert oracle.__module__ == "cliffbits.verify", name
        assert getattr(cliffbits, name, oracle) is oracle, name
        assert not hasattr(blades, name) and not hasattr(bits, name), name
    assert "_lane_width" not in cliffbits.__all__
    with pytest.raises(AttributeError, match="no attribute 'nowhere'"):
        cliffbits.nowhere


def test_bench_range(capsys):
    code, _, err = run(capsys, "bench", "11")
    assert code == 2
    with pytest.raises(ValueError):
        bench_results(0)


def test_bench_m_max_bound(capsys, monkeypatch):
    # 7 is refused before any operand is drawn: 16^7 blade pairs
    def refuse(*args):
        raise AssertionError("bench drew operands for an out-of-range m-max")
    monkeypatch.setattr(sampling, "dense_blade_multivector", refuse)
    code, out, err = run(capsys, "bench", "7")
    assert (code, out) == (2, "")
    assert err == "bench: m-max must be between 1 and 6, got 7\n"
    with pytest.raises(ValueError):
        bench_results(7)


def test_tables_match_golden_output(capsys, monkeypatch):
    # efb-table m = 1..4, cube and classify k, l = 0..7, text and --json,
    # exit code, stdout and stderr byte for byte
    monkeypatch.delenv("CLIFFBITS_ASCII", raising=False)
    golden = Path(__file__).parent / "data" / "cli_tables.json"
    cases = json.loads(golden.read_text(encoding="utf-8"))
    assert len(cases) == 145
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for case in cases:
        argv = case["argv"]
        # n = 28568..28570 straddle the default limit of 4300 digits
        if argv[0] == "classify" and int(argv[1]) > 7 and limit != 4300:
            continue
        want = case["code"], case["stdout"], case["stderr"]
        assert run(capsys, *argv) == want, argv


def test_mul_matches_golden_output(capsys):
    # mul stdout for m = 1..6, each engine, text and --json, byte for byte
    golden = Path(__file__).parent / "data" / "cli_golden.json"
    cases = json.loads(golden.read_text(encoding="utf-8"))
    assert len(cases) == 72
    for case in cases:
        code, out, err = run(capsys, *case["argv"])
        assert (code, err) == (0, "")
        assert out == case["stdout"], case["argv"]
