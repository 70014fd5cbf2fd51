"""Time parse, the Fock-basis pipeline, the blade engine and render of
two checkouts layer by layer, in one interpreter, on the same operands.

    python tools/ab.py PARENT_DIR [--m-min 2] [--m-max 6] [--rounds 60]
                       [--seed 1]

PARENT_DIR is another checkout of this repository, for example the
parent commit unpacked by `git archive`.  Its src/cliffbits is loaded
with importlib under another package name, next to this checkout's, so
both run in one process on one host state.  For each m and each pair
kind both packages build the same operands from the same numbers:

* dense: every blade, with +-(1..1023) / 2^(0..4), as perfbench's
  dense workloads draw them;
* sparse: 1 to 6 draws of a blade and +-(0..32) / 2^(0..4), as the
  cli-session workload draws them (a pool of 16 pairs).

Each operand is converted once, untimed, as perfbench's dense draws
are.  Each round scales both operands by a fresh odd dyadic and writes
them as text, untimed, as perfbench scales its pool, then times parse of
both texts, blades_to_efb on both parsed operands, efb_product and
efb_to_blades, mv_mul on the same two operands, and str of both
products: the layers of a `cliffbits mul`.  It also times parse-odd,
parse of both texts with their first space doubled (verify's
_respaced, untimed), text outside the form str writes, which parse
reads again split at every sign.  Each package runs these layers once
a round, from fresh parses.  Round r runs pair r mod P of a pool of P
pairs, and the package that runs first changes after every P rounds,
so that in 2P rounds each pair runs once with each package first.
mv_mul on the dense pair is the call of the dense-blade workload, on
the sparse pair that of cli-session.  The output has one line per (m,
pair, layer), the pipeline being the sum of the three Fock-basis
layers of a call: the median microseconds of each side over the
rounds and their ratio, parent over this checkout, so above 1 this
checkout is faster.
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
LAYERS = ("parse", "parse-odd", "blades_to_efb", "efb_product",
          "efb_to_blades", "pipeline", "mv_mul", "render")
_POOL = {"dense": 2, "sparse": 16}


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


def draw(kind: str, m: int, rng: random.Random) -> dict:
    """{mask: (numerator, exponent)} of one operand of the kind."""
    if kind == "dense":
        return {mask: (rng.choice((-1, 1)) * rng.randint(1, 1023),
                       rng.randint(0, 4)) for mask in range(1 << 2 * m)}
    terms: dict = {}
    for _ in range(rng.randint(1, 6)):
        mask = rng.randrange(1 << 2 * m)
        n, e = terms.get(mask, (0, 0))
        c, f = rng.randint(-32, 32), rng.randint(0, 4)
        top = max(e, f)
        terms[mask] = ((n << top - e) + (c << top - f), top)
    return terms


def build(pkg, m: int, terms: dict):
    """The operand as a Multivector of pkg."""
    return pkg.Multivector(pkg.Metric.interleaved(m), {
        mask: pkg.DyadicRational(n, e) for mask, (n, e) in terms.items()})


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
    """Per layer, (parent seconds, change seconds) of each round."""
    pool = [(draw(kind, m, rng), draw(kind, m, rng))
            for _ in range(_POOL[kind])]
    sides = {pkg: [(build(pkg, m, a), build(pkg, m, b)) for a, b in pool]
             for pkg in (parent, change)}
    for pkg, pairs in sides.items():  # as perfbench's draws convert once
        for x in (x for pair in pairs for x in pair):
            pkg.blades_to_efb(x, m)
    times = {parent: [], change: []}
    for r in range(rounds + 1):  # round 0 warms the caches of both
        scales = [(rng.choice((-1, 1)) * (2 * rng.randint(0, 7) + 1),
                   rng.randint(0, 3)) for _ in range(2)]
        order = (parent, change) if r // len(pool) % 2 else (change, parent)
        for pkg in order:
            x, y = sides[pkg][r % len(pool)]
            a, b = (pkg.DyadicRational(*s) for s in scales)
            spent = pipeline(pkg, (str(x * a), str(y * b)), m)
            if r:
                times[pkg].append(spent)
    return [tuple(zip(*times[pkg]))[i] for i in range(len(LAYERS))
            for pkg in (parent, change)]


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
    print(f"{'m':>2} {'pair':<7}{'layer':<15}{'parent us':>11}"
          f"{'change us':>11}{'ratio':>7}")
    for m in range(args.m_min, args.m_max + 1):
        for kind in _POOL:
            runs = compare(parent, change, m, kind, args.rounds, rng)
            for i, layer in enumerate(LAYERS):
                old, new = (statistics.median(t) * 1e6
                            for t in runs[2 * i:2 * i + 2])
                print(f"{m:>2} {kind:<7}{layer:<15}{old:>11.1f}{new:>11.1f}"
                      f"{old / new:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
