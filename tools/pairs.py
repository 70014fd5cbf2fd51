"""Run the benchmark in this checkout and in another one, in alternating
pairs, and compare their end-to-end metrics.

    python tools/pairs.py PARENT_DIR --workload W [--pairs 4]
                          [--seconds 20] [--seed 1]

PARENT_DIR is another checkout of this repository, for example the
parent commit unpacked by `git archive`.  Pair i, counted from 0, runs
`perfbench/run.py --workload W --seed SEED + i --seconds SECONDS --trace
0` once in each checkout, one process at a time; the parent runs first
in the even pairs and this checkout in the odd ones.  The metrics and the
direction in which each is better are those that BENCHMARK.json lists
as end to end.  The output has one line per run, with its metrics and
its correct and failed fields, and then one line per metric: the median
of each side, their ratio, change over parent, the distance between the
parent's quartiles, and the number of pairs in which this checkout did
better.  A gain counts when this checkout wins nine pairs in ten and the
medians differ by more than that distance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def end_to_end() -> dict:
    """{metric: True when higher is better} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON object on the last line of one benchmark run's output."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="alternating benchmark pairs against another checkout")
    parser.add_argument("parent", type=Path, help="the other checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("need pairs >= 1 and seconds > 0")
    higher = end_to_end()
    dirs = {"parent": args.parent, "change": ROOT}
    print(f"# parent {args.parent.resolve()}  change {ROOT}  workload "
          f"{args.workload}  seconds {args.seconds:g}  seeds {args.seed}.."
          f"{args.seed + args.pairs - 1}")
    values = {side: {name: [] for name in higher} for side in SIDES}
    for i in range(args.pairs):
        seed = args.seed + i
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            out = run(dirs[side], args.workload, seed, args.seconds)
            got = {name: out["metrics"][name]["value"] for name in higher}
            for name, value in got.items():
                values[side][name].append(value)
            print(f"{i + 1} {seed} {side} correct={out['correct']} "
                  f"failed={out['failed']} " + " ".join(
                      f"{name}={value:.6g}" for name, value in got.items()),
                  flush=True)
    print(f"{'metric':<16}{'parent':>12}{'change':>12}{'ratio':>8}"
          f"{'iqr':>10}{'won':>6}")
    for name, up in higher.items():
        old, new = values["parent"][name], values["change"][name]
        won = sum(n > o if up else n < o for o, n in zip(old, new))
        a, b = statistics.median(old), statistics.median(new)
        ratio = f"{b / a:.3f}" if a else "-"
        q1, _, q3 = (statistics.quantiles(old, n=4) if len(old) > 1
                     else (a, a, a))
        print(f"{name:<16}{a:>12.6g}{b:>12.6g}{ratio:>8}{q3 - q1:>10.3g}"
              f"{f'{won}/{args.pairs}':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
