"""Time parse, the Fock-basis pipeline, the blade engine and render of
two checkouts layer by layer, in one interpreter, on the same operands.

    python tools/ab.py PARENT_DIR [--m-min 2] [--m-max 6] [--rounds 60]
                       [--seed 1]

PARENT_DIR is another checkout of this repository, for example the
parent commit unpacked by `git archive`.  Its src/cliffbits is loaded
with importlib under another package name, next to this checkout's, so
both run in one process on one host state.  For each m and each pair
kind the operands are drawn by perfbench's own generators
(perfbench/workloads.py, run on this checkout's package):

* dense: `dense_dyadic`, every blade, as the dense workloads draw
  them (a pool of 2 pairs);
* sparse: `sparse_operand` with 1 to 6 draws, as the cli-session
  workload draws them (a pool of 16 pairs).

Each package parses its copy of each operand and converts it once,
untimed, as perfbench's dense draws are converted.  Each round scales
both operands of a pair by a fresh odd dyadic (perfbench's `_scale`)
and writes them as text, untimed, as perfbench scales its pool; then
each package times parse of both texts, blades_to_efb on both parsed
operands, efb_product and efb_to_blades, mv_mul on the same two
operands, and str of both products: the layers of a `cliffbits mul`.
It also times parse-odd, parse of both texts with their first space
doubled (verify's _respaced, untimed), text outside the form str
writes, which parse reads again split at every sign.  Each package
runs these layers once a round, from fresh parses.  Round r runs pair
r mod P of a pool of P pairs, and the package that runs first changes
after every P rounds, so that in 2P rounds each pair runs once with
each package first.  mv_mul on the dense pair is the call of the
dense-blade workload, on the sparse pair that of cli-session.

The output has one line per (m, pair, layer), the pipeline being the
sum of the three Fock-basis layers of a call.  The ratio is the median
over the rounds of each round's parent seconds over this checkout's
seconds, so above 1 this checkout is faster.  Both packages time the
same operands in a round, so host drift that slows a round mostly
cancels in its ratio.  The two medians of each side's microseconds
over the rounds are printed as context; the ratio is not their
quotient.  In A/A runs, a tree against a copy of itself (m = 2..6, 60
rounds; Python 3.11.7 on 2 CPUs), the rows read 0.96-1.02x on seed 42
and 0.98-1.02x on seed 43, with 1 and 0 of 80 outside 0.97-1.03x; the
quotient of the medians read 0.84-1.04x and 0.91-1.12x.
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from cliffbits import Metric  # noqa: E402
from workloads import _scale, dense_dyadic, sparse_operand  # noqa: E402

LAYERS = ("parse", "parse-odd", "blades_to_efb", "efb_product",
          "efb_to_blades", "pipeline", "mv_mul", "render")
# pair kind: (pairs in the pool, one operand as perfbench draws it)
_POOL = {"dense": (2, dense_dyadic),
         "sparse": (16, lambda m, rng: sparse_operand(
             Metric.interleaved(m), rng, rng.randint(1, 6)))}


def load(checkout: Path, name: str):
    """The cliffbits package of a checkout, imported as name, with its
    verify module, whose _respaced writes the parse-odd texts."""
    src = Path(checkout) / "src" / "cliffbits"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    if spec is None:
        raise FileNotFoundError(f"no package at {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.verify")
    return module


def pipeline(pkg, texts: tuple, m: int) -> tuple:
    """Seconds of each layer of a product of the two operand texts, the
    pipeline being the sum of the three Fock-basis layers, and of
    parse-odd, from fresh parses of the texts."""
    clock = time.perf_counter
    metric = pkg.Metric.interleaved(m)
    odd = [pkg.verify._respaced(text) for text in texts]
    t0 = clock()
    x, y = (pkg.Multivector.parse(text, metric) for text in texts)
    t1 = clock()
    for text in odd:
        pkg.Multivector.parse(text, metric)
    t2 = clock()
    ex, ey = pkg.blades_to_efb(x, m), pkg.blades_to_efb(y, m)
    t3 = clock()
    ez = pkg.efb_product(ex, ey)
    t4 = clock()
    fast = pkg.efb_to_blades(ez)
    t5 = clock()
    slow = pkg.mv_mul(x, y)
    t6 = clock()
    str(slow), str(fast)
    t7 = clock()
    return (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t5 - t2, t6 - t5,
            t7 - t6)


def compare(parent, change, m: int, kind: str, rounds: int,
            rng: random.Random) -> list:
    """(parent seconds, change seconds) per layer, of each timed round."""
    size, operand = _POOL[kind]
    pool = [(operand(m, rng), operand(m, rng)) for _ in range(size)]
    for pkg in (parent, change):  # as perfbench's draws convert once
        metric = pkg.Metric.interleaved(m)
        for x in (x for pair in pool for x in pair):
            pkg.blades_to_efb(pkg.Multivector.parse(str(x), metric), m)
    timed = []
    for r in range(rounds + 1):  # round 0 warms the caches of both
        x, y = pool[r % size]
        texts = str(x * _scale(rng)), str(y * _scale(rng))
        order = (parent, change) if r // size % 2 else (change, parent)
        spent = {pkg: pipeline(pkg, texts, m) for pkg in order}
        if r:
            timed.append((spent[parent], spent[change]))
    return timed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="A/B parse, the Fock-basis pipeline, mv_mul and render "
                    "against another checkout")
    parser.add_argument("parent", type=Path, help="the other checkout")
    parser.add_argument("--m-min", type=int, default=2)
    parser.add_argument("--m-max", type=int, default=6)
    parser.add_argument("--rounds", type=int, default=60)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not 1 <= args.m_min <= args.m_max <= 8 or args.rounds < 1:
        parser.error("need 1 <= m-min <= m-max <= 8 and rounds >= 1")
    parent = load(args.parent, "cliffbits_ab_parent")
    change = load(ROOT, "cliffbits_ab_change")
    rng = random.Random(args.seed)
    print(f"# parent {args.parent.resolve()}  change {ROOT}  "
          f"rounds {args.rounds}  seed {args.seed}")
    print("# ratio: median over the rounds of parent s / change s in a "
          "round, not the quotient of the two medians")
    print(f"{'m':>2} {'pair':<7}{'layer':<15}{'parent us':>11}"
          f"{'change us':>11}{'ratio':>7}")
    for m in range(args.m_min, args.m_max + 1):
        for kind in _POOL:
            timed = compare(parent, change, m, kind, args.rounds, rng)
            for i, layer in enumerate(LAYERS):
                old = [parent_s[i] for parent_s, _ in timed]
                new = [change_s[i] for _, change_s in timed]
                ratio = statistics.median(a / b for a, b in zip(old, new))
                print(f"{m:>2} {kind:<7}{layer:<15}"
                      f"{statistics.median(old) * 1e6:>11.1f}"
                      f"{statistics.median(new) * 1e6:>11.1f}{ratio:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
