import importlib.util
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import cliffbits
from cliffbits import efb
from cliffbits.bits import _magnitude

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _tool("code_lines")
ab = _tool("ab")
pairs = _tool("pairs")

SAMPLE = '''"""Module docstring,
over two lines."""

import re  # a comment after code counts as code

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string that is
        not a docstring"""
        return text
'''


def test_code_lines_skips_blanks_comments_and_docstrings():
    # import, class, def, the two lines of the assignment, return
    assert code_lines.code_lines(SAMPLE) == 6


def test_code_lines_prints_each_module_and_the_total(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][1] == "total"
    assert {name for _, name in rows[:-1]} == {
        path.name for path in code_lines.SRC.glob("*.py")}
    assert sum(int(n) for n, _ in rows[:-1]) == int(rows[-1][0])


def test_code_lines_against_a_parent_prints_each_difference(
        monkeypatch, capsys, tmp_path):
    # two small trees: a module only in the parent, one in both, one only
    # here; each row is parent, here and their difference, then the totals
    def tree(root, modules):
        src = root / "src" / "cliffbits"
        src.mkdir(parents=True)
        for name, source in modules.items():
            (src / name).write_text(source, encoding="utf-8")
        return src
    tree(tmp_path / "parent", {"gone.py": "x = 1\ny = 2\n",
                               "kept.py": SAMPLE})
    here = tree(tmp_path / "here", {"kept.py": SAMPLE + "z = 3\n",
                                    "new.py": '"""Doc."""\nw = 4\n'})
    monkeypatch.setattr(code_lines, "SRC", here)
    assert code_lines.main(["--parent", str(tmp_path / "parent")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# parent {tmp_path / 'parent'}"
    assert [line.split() for line in lines[1:]] == [
        ["parent", "here", "diff", "module"],
        ["2", "0", "-2", "gone.py"],
        ["6", "7", "+1", "kept.py"],
        ["0", "1", "+1", "new.py"],
        ["8", "8", "+0", "total"]]


def test_ab_times_every_layer_of_both_pipelines(capsys):
    # this checkout against itself: one line per m, pair kind and layer,
    # parse, the Fock-basis layers, mv_mul and render, two positive
    # medians and their ratio; no cover pair is drawn below m = 3
    assert ab.LAYERS == ("parse", "blades_to_efb", "efb_product",
                         "efb_to_blades", "pipeline", "mv_mul", "render")
    assert ab.main([str(TOOLS.parent), "--m-min", "2", "--m-max", "3",
                    "--rounds", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# parent ")
    assert lines[1].split() == ["m", "pair", "layer", "parent", "us",
                                "change", "us", "ratio"]
    rows = [line.split() for line in lines[2:]]
    assert [row[:3] for row in rows] == [
        [m, pair, layer] for m, pairs in (
            ("2", ("dense", "sparse", "wide")),
            ("3", ("dense", "sparse", "cover", "wide")))
        for pair in pairs for layer in ab.LAYERS]
    for _, _, _, old, new, ratio in rows:
        assert float(old) > 0 and float(new) > 0
        # the medians are printed to 0.1 us, the ratio to 0.01
        want = float(old) / float(new)
        assert abs(float(ratio) - want) <= 0.05 * want + 0.005


def test_ab_cover_and_wide_pairs_reach_the_rerouted_inputs():
    # cover: a dict form below the list share with two or more blades in
    # every coset; wide: a product whose carried bound misses a word for
    # its read-out while its entries fit
    rng = random.Random(5)
    for m in range(3, 7):
        x = ab.build(cliffbits, m, ab.draw(cliffbits, "cover", m, rng))
        lo, hi, _, _ = efb._slot_tables(m)
        held = Counter((lo[mask & (1 << m) - 1] ^ hi[mask >> m]) >> m
                       for mask in x._nums)
        assert x._vec is None and len(held) == 1 << m
        assert min(held.values()) >= 2
    for m in range(2, 8):
        x, y = (ab.build(cliffbits, m, ab.draw(cliffbits, "wide", m, rng))
                for _ in range(2))
        z = efb.efb_product(efb.blades_to_efb(x, m), efb.blades_to_efb(y, m))
        assert not efb._fits_word(z._bits, m)
        assert efb._fits_word(_magnitude(z._cosets.values()), m)


def _checkout(root: Path, side: str) -> Path:
    """A small tree with what a benchmark run reads, its side named in a
    file, and bytecode that a test run would leave in src/."""
    (root / "src" / "cliffbits" / "__pycache__").mkdir(parents=True)
    (root / "src" / "cliffbits" / "side.txt").write_text(side, "utf-8")
    (root / "src" / "cliffbits" / "__pycache__" / "blades.pyc").write_bytes(
        b"stale")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text("", "utf-8")
    (root / "BENCHMARK.json").write_text(
        (TOOLS.parent / "BENCHMARK.json").read_text("utf-8"), "utf-8")
    return root


def test_pairs_alternates_the_sides_and_counts_the_pairs_won(
        monkeypatch, capsys, tmp_path):
    # a stubbed run: the change is faster in every pair but the second,
    # sets up faster in every pair, and its RSS is always 4 MB higher
    calls, copies = [], []
    ops = {(1, "parent"): 100.0, (1, "change"): 110.0,
           (2, "parent"): 100.0, (2, "change"): 90.0,
           (3, "parent"): 100.0, (3, "change"): 120.0}
    parent = _checkout(tmp_path / "parent", "parent")
    monkeypatch.setattr(pairs, "ROOT", _checkout(tmp_path / "change",
                                                 "change"))

    def fake_run(cmd, cwd, capture_output, text, check):
        assert cmd[:2] == [sys.executable, "perfbench/run.py"]
        assert capture_output and text and check
        args = dict(zip(cmd[2::2], cmd[3::2]))
        assert args["--workload"] == "dense-efb"
        assert (args["--seconds"], args["--trace"]) == ("2.0", "0")
        # each run from a new copy of src/, perfbench/ and BENCHMARK.json
        # with no bytecode, outside both checkouts
        cwd = Path(cwd)
        assert tmp_path not in cwd.parents and cwd not in copies
        assert sorted(p.name for p in cwd.iterdir()) == [
            "BENCHMARK.json", "perfbench", "src"]
        assert (cwd / "perfbench" / "run.py").is_file()
        assert not list(cwd.rglob("__pycache__"))
        copies.append(cwd)
        side = (cwd / "src" / "cliffbits" / "side.txt").read_text("utf-8")
        seed = int(args["--seed"])
        calls.append((seed, side))
        rate = ops[seed - 6, side]
        metrics = {"ops_per_s": rate, "latency_p50_ms": 1e3 / rate,
                   "latency_p90_ms": 2e3 / rate,
                   "setup_s": 0.5 - 0.1 * (side == "change"),
                   "peak_rss_mb": 30.0 + 4 * (side == "change")}
        out = {"correct": True, "attempted": 10, "failed": 0, "metrics": {
            name: {"value": v, "unit": "-"} for name, v in metrics.items()}}
        return subprocess.CompletedProcess(cmd, 0, "# a comment\n"
                                           + json.dumps(out) + "\n", "")
    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    assert pairs.main([str(parent), "--workload", "dense-efb", "--pairs",
                       "3", "--seconds", "2", "--seed", "7"]) == 0
    # one process at a time, the side that runs first alternating; every
    # copy is removed after its run
    assert calls == [(7, "parent"), (7, "change"), (8, "change"),
                     (8, "parent"), (9, "parent"), (9, "change")]
    assert not any(copy.exists() for copy in copies)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"# parent {parent}  change {pairs.ROOT}")
    assert lines[1].split()[:5] == ["1", "7", "parent", "correct=True",
                                    "failed=0"]
    assert "ops_per_s=100" in lines[1] and "ops_per_s=110" in lines[2]
    assert lines[7].split() == ["metric", "parent", "change", "ratio", "iqr",
                                "won", "verdict"]
    table = {row[0]: row[1:] for row in map(str.split, lines[8:])}
    assert list(table) == list(pairs.end_to_end())
    # medians 100 and 110; lower latency is better, higher RSS is worse;
    # the parent's runs are all equal, so its quartiles are too.  Two
    # pairs in three is no gain; three in three by more than the
    # quartile distance is; 34 MB against 30 is past RSS's 10% bound
    assert table["ops_per_s"] == ["100", "110", "1.100", "0", "2/3", "-"]
    assert table["latency_p50_ms"][2:] == ["0.909", "0", "2/3", "-"]
    assert table["setup_s"] == ["0.5", "0.4", "0.800", "0", "3/3", "gain"]
    assert table["peak_rss_mb"] == ["30", "34", "1.133", "0", "0/3", "worse"]


def test_pairs_verdicts_follow_the_pairs_won_and_the_bound():
    # nine pairs in ten is a gain only past the parent's quartile
    # distance; a median worse by the bound itself is not yet worse
    old = [10.0] * 4 + [12.0] + [10.0] * 5
    new = [11.0] * 4 + [13.0] + [11.0] * 4 + [9.0]
    assert pairs.compare(old, new, True, 0.1)[3:] == (9, "gain")
    spread = [9.0, 9.0, 9.0, 10.0, 10.0, 10.0, 10.0, 11.0, 11.0, 11.0]
    ahead = [v + 0.5 for v in spread[:9]] + [10.5]
    assert pairs.compare(spread, ahead, True, 0.1)[2:] == (2.0, 9, "-")
    assert pairs.compare(old, [9.0] * 10, True, 0.1)[4] == "-"
    assert pairs.compare(old, [8.9] * 10, True, 0.1)[4] == "worse"
    assert pairs.compare(old, [8.9] * 10, False, 0.1)[3:] == (10, "gain")
