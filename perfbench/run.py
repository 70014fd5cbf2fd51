#!/usr/bin/env python3
"""Benchmark of the cliffbits product pipeline and classification.

Run from the repository root:

    python3 perfbench/run.py --workload dense-efb --seed 1 --seconds 20 --trace 0

The library is imported from `src/` of the same checkout.  One process
serves one client in a closed loop; every op's output is checked
exactly.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  A traced run
also writes its spans, per-layer metrics and a per-m scaling table to
`perfbench/out/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True   # every set-up compiles the library alike

from speed import NOMINAL_S, SpeedLog  # noqa: E402
from tracing import NULL, Tracer, span_cost  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_TRIALS = 5   # set-ups per run: this process plus fresh interpreters
MIN_OPS = 100      # so that at least 10 samples lie above p90

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "efb.blades_to_efb.ms": "ms",
    "efb.efb_product.ms": "ms",
    "efb.efb_product.triples": "count",
    "efb.efb_to_blades.ms": "ms",
    "efb.efb_to_blades.nnz_in": "count",
    "efb.operand_fill": "ratio",
    "blades.mv_mul.ms": "ms",
    "blades.mv_mul.pairs": "count",
    "blades.parse.ms": "ms",
    "blades.render.ms": "ms",
    "classify.classification_record.ms": "ms",
    "classify.render.ms": "ms",
    "classify.render.failed": "count",
    "dyadic.coeff_mul_adds": "count.computed",
    "efb.share": "ratio",
    "blades.share": "ratio",
    "classify.share": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}
LAYERS = ("efb", "blades", "classify")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this interpreter and exit")
    return p.parse_args(argv)


class Tally:
    """Outcomes of the ops of one phase."""

    def __init__(self):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.attempted = self.failed = self.wrong = 0

    def add(self, wl, inp, outcome):
        done, exc, counts, start, seconds = outcome
        self.attempted += 1
        self.starts.append(start)
        self.latencies.append(seconds)
        if exc is not None:
            self.failed += 1
            print(f"# op raised {type(exc).__name__}: {exc}"[:300],
                  file=sys.stderr)
        elif not wl.check(inp, done, counts):
            self.failed += 1
            self.wrong += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0


def attempt(wl, tr, inp, workloads):
    """Serve one request; the clock covers `run` and nothing else."""
    workloads.reset_op_counters()
    done = exc = None
    t0 = time.perf_counter()
    try:
        done = wl.run(tr, inp)
    except Exception as err:  # a failed op is counted, never fatal
        exc = err
    t1 = time.perf_counter()
    counts = workloads.op_counters()
    if tr.enabled:
        tr.spans.append((tr.op, "op", t0, t1, counts.blade_pairs,
                         counts.efb_triples, exc is not None))
    return done, exc, counts, t0, t1 - t0


def set_up(name: str, seed: int, speed: SpeedLog):
    """Import, operand generation, the first cold op and the warm-up.

    The reference kernel runs between warm-up ops as it does between
    measured ops; its own time is not part of the set-up.  Returns the
    workload, the warm-up ops (checked later, once the oracle exists)
    and the seconds the set-up took.
    """
    kernel = 0.0
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[name](seed)
    warm = []
    for _ in range(1 + wl.warmup):
        kernel += speed.due()
        inp = wl.next_input()
        warm.append((inp, attempt(wl, NULL, inp, workloads)))
    return wl, warm, time.perf_counter() - t0 - kernel


def fresh_setup(name: str, seed: int) -> tuple[float, float]:
    """One set-up in a new interpreter, so imports and caches start cold.

    Returns its raw seconds and its factor to the nominal speed, both
    measured in that interpreter (it may run on another core)."""
    proc = subprocess.run(
        [sys.executable, "-B", str(HERE / "run.py"), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["setup_s"], out["speed_factor"]


def measure(wl, tr, seconds: float, workloads, speed=None, probe=None) -> Tally:
    """Closed loop until `seconds` have passed and MIN_OPS ops are done;
    with a SpeedLog, the reference kernel runs between ops every
    EVERY_S seconds."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while tally.attempted < MIN_OPS or time.perf_counter() < deadline:
        if speed is not None:
            speed.due()
        inp = wl.next_input()
        tr.op = tally.attempted
        outcome = attempt(wl, tr, inp, workloads)
        tally.add(wl, inp, outcome)
        if probe is not None:
            probe(outcome)
    if speed is not None:
        speed.sample()
    return tally


def end_to_end(tally: Tally, setups: list[float], lat: list[float]) -> dict:
    """The end-to-end metrics, from per-op seconds `lat` and set-up times."""
    ok = tally.attempted - tally.failed
    return {
        "ops_per_s": ok / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


class SizeProbe:
    """Operand sizes of each traced op, taken outside the timed region."""

    def __init__(self):
        # 2^m times (blade terms into blades_to_efb + entries into
        # efb_to_blades): each of those terms is 2^m coefficient mul-adds
        self.conv_terms = 0
        self.nnz_in: list[int] = []
        self.fill: list[float] = []

    def __call__(self, outcome):
        done = outcome[0]
        if done is None or not done.efb_in:
            return
        m = done.m
        nnz = sum(1 for _ in done.efb_out.nonzero())
        self.nnz_in.append(nnz)
        for e in done.efb_in:
            self.fill.append(sum(1 for _ in e.nonzero()) / 4 ** m)
        self.conv_terms += (sum(len(x.terms) for x in done.blade_in) + nnz) << m


def per_layer(tr, probe: SizeProbe, tally: Tally, span_seconds: float,
              failed_renders: int) -> dict:
    n_ops = tally.attempted
    op_time = sum(tally.latencies)
    seconds: dict[str, float] = {}
    pairs = triples = n_spans = 0
    for _, name, t0, t1, d_pairs, d_triples, _ in tr.spans:
        if name == "op":
            continue
        n_spans += 1
        seconds[name] = seconds.get(name, 0.0) + (t1 - t0)
        if name == "blades.mv_mul":
            pairs += d_pairs
        elif name == "efb.efb_product":
            triples += d_triples
    layer_time = {layer: 0.0 for layer in LAYERS}
    for name, secs in seconds.items():
        layer_time[name.split(".", 1)[0]] += secs

    metrics = {name: seconds.get(name[:-3], 0.0) / n_ops * 1e3
               for name in PER_LAYER_UNITS if name.endswith(".ms")}
    metrics.update({
        "efb.efb_product.triples": triples / n_ops,
        "efb.efb_to_blades.nnz_in": statistics.fmean(probe.nnz_in) if probe.nnz_in else 0.0,
        "efb.operand_fill": statistics.fmean(probe.fill) if probe.fill else 0.0,
        "blades.mv_mul.pairs": pairs / n_ops,
        "classify.render.failed": failed_renders,
        "dyadic.coeff_mul_adds": (pairs + triples + probe.conv_terms) / n_ops,
        "trace.overhead_ratio": span_seconds * n_spans / op_time,
        "trace.unattributed_share": 1 - sum(layer_time.values()) / op_time,
    })
    for layer in LAYERS:
        metrics[f"{layer}.share"] = layer_time[layer] / op_time
    return metrics


def metadata(seed: int, name: str, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cliffbits").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": (len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count()),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def known_defect(wl) -> tuple[int, bool]:
    """Run the workload's untimed probe of a known defect and print it."""
    from workloads import RENDER_PROBE_N
    failed, ok = wl.render_probe()
    if failed:
        print(f"# known defect: {failed} of {len(RENDER_PROBE_N)} classify "
              "records past the session's n range fail to render (integer-"
              "to-string digit limit); probed untimed, not counted as ops")
    return failed, ok


def report(tally: Tally, metrics: dict, units: dict, correct: bool) -> None:
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]!r} {unit}")
    print(f"# fail_ratio = {tally.failed / tally.attempted!r} "
          f"({tally.failed} of {tally.attempted} ops; latency samples "
          f"{len(tally.latencies)})")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def imported_from_src() -> bool:
    import cliffbits
    if Path(cliffbits.__file__).resolve().parent == SRC / "cliffbits":
        return True
    print(f"run.py: imported cliffbits from {cliffbits.__file__}, "
          f"not from {SRC}", file=sys.stderr)
    return False


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cliffbits" / "__init__.py").is_file():
        print(f"run.py: no library source at {SRC}/cliffbits", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    speed = SpeedLog()
    (wl, warm, setup_raw), factor = speed.around(set_up, args.workload,
                                                 args.seed, speed)
    if not imported_from_src():
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_raw, "speed_factor": factor}))
        return 0
    import workloads
    meta = metadata(args.seed, args.workload, args.trace)
    print("# meta " + json.dumps(meta))
    wl.prepare_oracle()
    warm_tally = Tally()
    for inp, outcome in warm:
        warm_tally.add(wl, inp, outcome)
    del warm
    gc.collect()

    if not args.trace:
        setups = [(setup_raw * factor, setup_raw)]
        for _ in range(SETUP_TRIALS - 1):
            raw, factor = fresh_setup(args.workload, args.seed)
            setups.append((raw * factor, raw))
        gc.collect()
        tally = measure(wl, NULL, args.seconds, workloads, speed)
        raw = end_to_end(tally, [r for _, r in setups], tally.latencies)
        print("# raw, not speed-adjusted: " + ", ".join(
            f"{k} = {raw[k]!r}" for k in END_TO_END_UNITS))
        print(f"# speed: reference kernel median "
              f"{statistics.median(speed.seconds) * 1e3:.3f} ms over "
              f"{len(speed.seconds)} samples (min "
              f"{min(speed.seconds) * 1e3:.3f}, max "
              f"{max(speed.seconds) * 1e3:.3f}; nominal "
              f"{NOMINAL_S * 1e3:g} ms)")
        adjusted = speed.adjust(tally.starts, tally.latencies)
        _, defect_ok = known_defect(wl)
        report(tally, end_to_end(tally, [a for a, _ in setups], adjusted),
               END_TO_END_UNITS,
               tally.correct and warm_tally.correct and defect_ok)
        return 0

    tr = Tracer(workloads.op_counters)
    probe = SizeProbe()
    tally = measure(wl, tr, args.seconds, workloads, probe=probe)
    failed_renders, defect_ok = known_defect(wl)
    metrics = per_layer(tr, probe, tally,
                        span_cost(workloads.op_counters), failed_renders)
    table = workloads.scaling_table(args.seed)
    for row in table:
        print("# scaling " + json.dumps(row))
    correct = tally.correct and warm_tally.correct and defect_ok and all(
        r["engines_equal"] and r["counts_exact"] for r in table)
    OUT.mkdir(exist_ok=True)
    out = OUT / f"trace-{args.workload}-{args.seed}.json"
    with open(out, "w") as fh:
        json.dump({
            "meta": meta,
            "per_layer": metrics,
            "fail_ratio": tally.failed / tally.attempted,
            "scaling": table,
            "spans": {"fields": ["op", "name", "start_s", "end_s",
                                 "blade_pairs", "efb_triples", "raised"],
                      "rows": tr.spans},
        }, fh)
    print(f"# trace written to {os.path.relpath(out, ROOT)}")
    report(tally, metrics, PER_LAYER_UNITS, correct)
    return 0


if __name__ == "__main__":
    sys.exit(main())
