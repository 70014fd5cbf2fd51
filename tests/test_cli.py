import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import cliffbits
from cliffbits import (Metric, Multivector, ParseError, cli, op_counters,
                       verify)
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
    assert len(lines) == 27
    assert all(ln.startswith("ok") for ln in lines[1:])


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


@pytest.mark.parametrize("failure", [FileNotFoundError("git"),
                                     subprocess.TimeoutExpired("git", 30),
                                     "not a checkout"])
def test_bench_commit_is_null_without_a_checkout(capsys, monkeypatch,
                                                 failure):
    # no git, a hung git, or a package outside any checkout: bench still
    # writes its rows, with "commit": null
    def git(argv, **kw):
        if isinstance(failure, Exception):
            raise failure
        return subprocess.CompletedProcess(argv, 128, "", "fatal: " + failure)
    monkeypatch.setattr(cli.subprocess, "run", git)
    code, out, _ = run(capsys, "bench", "1", "--json")
    rec = json.loads(out)
    assert (code, rec["commit"], len(rec["rows"])) == (0, None, 1)


def test_bench_commit_names_head_of_the_checkout():
    # inside a git checkout the header carries HEAD; elsewhere it is null
    here = Path(cli.__file__).resolve().parent
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=here,
                              capture_output=True, text=True, timeout=30)
        tracked = subprocess.run(
            ["git", "ls-files", "--error-unmatch", "cli.py"], cwd=here,
            capture_output=True, text=True, timeout=30).returncode == 0
    except OSError:
        pytest.skip("no git")
    want = proc.stdout.strip() if proc.returncode == 0 and tracked else None
    assert cli._commit() == want


def test_bench_layers_leave_dense_draws(capsys, monkeypatch):
    # the sparse pair has its own generator: the dense operands are the
    # ones bench drew before it timed layers, and the counters end at 0
    def drawn(layer_seconds):
        seen = []

        def record(metric, rng):
            seen.append(str(draw(metric, rng)))
            return Multivector.parse(seen[-1], metric)
        monkeypatch.setattr(cli, "dense_blade_multivector", record)
        monkeypatch.setattr(cli, "_layer_seconds", layer_seconds)
        bench_results(3)
        return seen
    draw = cli.dense_blade_multivector
    with_layers = drawn(cli._layer_seconds)
    assert with_layers == drawn(lambda *args, **kw: {})
    assert len(with_layers) == 6
    assert op_counters() == (0, 0)


def test_bench_range(capsys):
    code, _, err = run(capsys, "bench", "11")
    assert code == 2
    with pytest.raises(ValueError):
        bench_results(0)


def test_bench_m_max_bound(capsys, monkeypatch):
    # 7 is refused before any operand is drawn: 16^7 blade pairs
    def refuse(*args):
        raise AssertionError("bench drew operands for an out-of-range m-max")
    monkeypatch.setattr(cli, "dense_blade_multivector", refuse)
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
