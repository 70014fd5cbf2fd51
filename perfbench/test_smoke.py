"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at m <= 3 for a fraction of a second, traced and
untraced, and checks that every metric BENCHMARK.json names is printed
with its unit.  Then it corrupts results itself and checks that the
gate rejects them; the library is never modified.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run  # noqa: E402
import workloads  # noqa: E402
from cliffbits import DyadicRational, OpCounts  # noqa: E402
from tracing import NULL  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def tiny(name: str, seed: int):
    if name == "dense-efb":
        return workloads.DenseEFB(seed, m=2)
    if name == "dense-blade":
        return workloads.DenseBlade(seed, m=2)
    wl = workloads.CliSession(seed, m_values=(2, 3))
    wl.warmup = 11
    return wl


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORKLOADS",
                        {n: functools.partial(tiny, n) for n in NAMES})
    monkeypatch.setattr(workloads, "scaling_table", functools.partial(
        workloads.scaling_table, m_max=2))
    monkeypatch.setattr(run, "fresh_setup",
                        lambda name, seed: (run.set_up(
                            name, seed, run.SpeedLog())[2], 1.0))
    monkeypatch.setattr(run, "MIN_OPS", 30)
    monkeypatch.setattr(run, "OUT", tmp_path)


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert BENCH["command"][1:] == ["perfbench/run.py"]
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_prints_with_its_unit(small, capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "7", "--seconds", "0.05",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= run.MIN_OPS
    assert result["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"# {m['name']} = " in "\n".join(lines)
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert (run.OUT / f"trace-{name}-7.json").is_file()
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    meta = json.loads(next(x for x in lines if x.startswith("# meta "))[7:])
    assert {"python", "seed", "commit", "nproc", "platform"} <= set(meta)


def _one_op(name: str, seed: int = 5, want=None):
    wl = tiny(name, seed)
    wl.prepare_oracle()
    while True:
        inp = wl.next_input()
        if want is None or isinstance(inp, want):
            workloads.reset_op_counters()
            done = wl.run(NULL, inp)
            return wl, inp, done, workloads.op_counters()


@pytest.mark.parametrize("name", ["dense-efb", "dense-blade"])
def test_gate_rejects_corrupted_dense_results(name):
    wl, inp, done, counts = _one_op(name)
    assert wl.check(inp, done, counts)
    good = done.output
    done.output = good + DyadicRational(1, 9)
    assert not wl.check(inp, done, counts)
    done.output = good
    short = OpCounts(counts.blade_pairs - 1, counts.efb_triples - 1)
    assert not wl.check(inp, done, short)


def test_gate_rejects_corrupted_session_results():
    wl, inp, done, counts = _one_op("cli-session", want=workloads.MulRequest)
    assert wl.check(inp, done, counts)
    x, y, slow, fast, same = done.output
    done.output = (x, y, slow, fast + 1, same)
    assert not wl.check(inp, done, counts)
    done.output = (x, y, slow, fast, False)
    assert not wl.check(inp, done, counts)

    text = wl.run(NULL, workloads.ClassifyRequest(3, 1)).output
    assert workloads.classify_record_ok(3, 1, text)
    rec = json.loads(text)
    doubled_size = dict(rec, matrix_size=2 * rec["matrix_size"])
    assert not workloads.classify_record_ok(3, 1, json.dumps(doubled_size))
    # H(2) has the right dimension for n = 4 but is not Cl(3,1) = R(4)
    wrong_name = dict(rec, base="H", matrix_size=2)
    assert not workloads.classify_record_ok(3, 1, json.dumps(wrong_name))


def test_run_counts_corrupted_results_as_wrong(small, monkeypatch):
    wl = tiny("dense-efb", 3)
    wl.prepare_oracle()
    honest = wl.run

    def corrupted(tr, inp):
        done = honest(tr, inp)
        done.output = -done.output
        return done

    monkeypatch.setattr(wl, "run", corrupted)
    tally = run.measure(wl, NULL, 0.0, workloads)
    assert not tally.correct
    assert tally.failed == tally.wrong == tally.attempted


def test_probe_reports_only_the_known_classify_failure(monkeypatch):
    wl = tiny("cli-session", 1)
    assert wl.render_probe() == (len(workloads.RENDER_PROBE_N), True)
    big = workloads.ClassifyRequest(40000, 20000)
    with pytest.raises(ValueError) as info:
        wl.run(NULL, big)
    assert workloads.too_long_to_print(60000, info.value)
    assert not workloads.too_long_to_print(3, info.value)
    assert not workloads.too_long_to_print(60000, RuntimeError("boom"))

    def boom(tr, req):
        raise RuntimeError("boom")

    monkeypatch.setattr(wl, "run", boom)
    assert wl.render_probe() == (len(workloads.RENDER_PROBE_N), False)


def test_setup_only_runs_in_a_fresh_interpreter():
    setup_s, factor = run.fresh_setup("dense-blade", 2)
    assert 0 < setup_s < 60 and factor > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
