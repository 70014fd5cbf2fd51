"""Command-line front end.

Subcommands:
  classify   name the matrix algebra for a signature (k, l)
  cube       print the vertex diagram of the eight signature classes
  efb-table  print the signed basis-word table for Cl(m, m)
  mul        multiply two multivector expressions over Cl(m, m)
  verify     run the internal cross-validation suites
  bench      compare dense product costs of the two engines

Exit status: 0 on success, 1 when a verify suite fails, the engines
disagree or stdout is closed early, 2 on bad input.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import sys
import time
from pathlib import Path

from .blades import Metric, Multivector, mv_mul
from .classify import (_matrix_size_log2, algebra_name,
                       classification_record, classify, cube_record,
                       render_cube)
from .efb import _check_m, blades_to_efb, efb_product, efb_to_blades
from .instrument import op_counters, reset_op_counters

# the oracle layer, the word calculus, the samplers, subprocess and json
# are imported by the commands that use them, so that a `mul` loads none
# of them but json, and json only for --json


def _ascii_default() -> bool:
    return bool(os.environ.get("CLIFFBITS_ASCII"))


def _too_many_digits(log2: int, limit: int) -> bool:
    """Whether 2^log2 has more than limit digits, i.e. 2^log2 >= 10^limit.

    8^limit < 10^limit < 16^limit, so 10^limit is built only when log2
    lies between 3 * limit and 4 * limit, where printing 2^log2 costs
    more than building it.
    """
    return log2 >= 3 * limit and (log2 >= 4 * limit
                                  or log2 >= (10 ** limit - 1).bit_length())


def _cmd_classify(args) -> int:
    log2 = _matrix_size_log2(args.k, args.l)
    # str() of an int refuses more digits than this limit.  Where it is
    # 0 (no limit) or absent (3.10 before 3.10.7), Python's default of
    # 4300 bounds the output instead: str() of 2^log2 takes time
    # quadratic in its digits.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if _too_many_digits(log2, limit):
        print(f"classify: matrix size 2^{log2} "
              f"has more than {limit} digits, too many to print",
              file=sys.stderr)
        return 2
    c = classify(args.k, args.l)
    record = classification_record(args.k, args.l)
    if args.json:
        import json
        print(json.dumps(record, indent=2))
        return 0
    print(f"Cl({args.k},{args.l}) = {algebra_name(c)}")
    print(f"  base ring      {record['base']}"
          + ("  (doubled)" if c.doubled else ""))
    print(f"  matrix size    {c.matrix_size}")
    print(f"  central        {'yes' if c.is_central else 'no'}")
    print(f"  simple         {'yes' if c.is_simple else 'no'}")
    print(f"  volume square  {c.omega_sq:+d}")
    if record["tau_sq"] is not None:
        print(f"  dual square    {record['tau_sq']:+d}")
        print(f"  twisted square {record['omega_tau_sq']:+d}")
    return 0


def _cmd_cube(args) -> int:
    if args.json:
        import json
        print(json.dumps(cube_record(), indent=2))
        return 0
    print(render_cube(ascii_mode=args.ascii or _ascii_default()))
    return 0


def _cmd_efb_table(args) -> int:
    if not 1 <= args.m <= 4:
        print(f"efb-table: m must be between 1 and 4, got {args.m}",
              file=sys.stderr)
        return 2
    from .words import sig_label, table_entries
    entries = table_entries(args.m)
    if args.json:
        import json
        payload = [
            {"row": row, "col": col, "sign": sign, "word": word}
            for row, col, sign, word in entries
        ]
        print(json.dumps({"m": args.m, "entries": payload}, indent=2))
        return 0
    dim = 1 << args.m
    labels = [f"{sig_label(v, args.m)} ({v})" for v in range(dim)]
    cell = {(r, c): ("-" if s < 0 else " ") + w for r, c, s, w in entries}
    width = max(max(len(v) for v in cell.values()), max(map(len, labels))) + 1
    head = " " * (len(labels[0]) + 1) + " | ".join(
        lab.ljust(width) for lab in labels)
    print(head.rstrip())
    for row in range(dim):
        cells = [cell[row, col].ljust(width) for col in range(dim)]
        print(labels[row] + " " + " | ".join(cells).rstrip())
    return 0


def _cmd_mul(args) -> int:
    _check_m(args.m)
    metric = Metric.interleaved(args.m)
    x = Multivector.parse(args.left, metric)
    y = Multivector.parse(args.right, metric)
    results = {}
    if args.engine in ("blade", "both"):
        results["blade"] = mv_mul(x, y)
    if args.engine in ("efb", "both"):
        fast = efb_product(blades_to_efb(x, args.m), blades_to_efb(y, args.m))
        results["efb"] = efb_to_blades(fast)
    # canonical forms: equal values render to equal text
    if args.engine == "both" and results["blade"] != results["efb"]:
        print("mul: engines disagree", file=sys.stderr)
        print(f"  blade: {results['blade']}", file=sys.stderr)
        print(f"  efb:   {results['efb']}", file=sys.stderr)
        return 1
    product = str(results.get("efb", results.get("blade")))
    if args.json:
        import json
        print(json.dumps({"m": args.m, "left": args.left, "right": args.right,
                          "engine": args.engine, "product": product}))
    else:
        print(product)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite
    results = run_suite(args.level)
    if args.json:
        import json
        payload = [
            {"name": r.name, "passed": r.passed, "checked": r.checked,
             "detail": r.detail, "seconds": round(r.seconds, 4)}
            for r in results
        ]
        print(json.dumps({"level": args.level, "results": payload}, indent=2))
    else:
        for r in results:
            mark = "ok  " if r.passed else "FAIL"
            line = f"{mark} {r.name:32s} {r.checked:7d} cases"
            if r.detail:
                line += f"  ({r.detail})"
            print(line)
    return 0 if all(r.passed for r in results) else 1


# largest m bench times: the dense blade product alone is 16^m blade
# pairs, 16.7 M at m = 6 and 16 times that at m = 7
BENCH_M_MAX = 6
# the operands bench draws, so that any two runs time the same products
BENCH_SEED = 20240914
# the layers of one mul through the Fock-basis engine, in call order
BENCH_LAYERS = ("parse", "blades_to_efb", "efb_product", "efb_to_blades",
                "render")


def _layer_seconds(x: Multivector, y: Multivector, m: int,
                   repeats: int = 3) -> dict:
    """Seconds per layer of `mul` on the text of x and y, best of repeats.

    The clock reads around the library calls: parse of both texts, both
    conversions in, the product, the conversion out and the render of
    the product.
    """
    metric = Metric.interleaved(m)
    left, right = str(x), str(y)
    clock = time.perf_counter
    best = [float("inf")] * len(BENCH_LAYERS)
    for _ in range(repeats):
        t0 = clock()
        px = Multivector.parse(left, metric)
        py = Multivector.parse(right, metric)
        t1 = clock()
        ex, ey = blades_to_efb(px, m), blades_to_efb(py, m)
        t2 = clock()
        ez = efb_product(ex, ey)
        t3 = clock()
        z = efb_to_blades(ez)
        t4 = clock()
        str(z)
        t5 = clock()
        best = list(map(min, best, (t1 - t0, t2 - t1, t3 - t2, t4 - t3,
                                    t5 - t4)))
    return {name: round(sec, 7) for name, sec in zip(BENCH_LAYERS, best)}


def _best_seconds(product, x, y, repeats: int = 3) -> float:
    """Seconds of product(x, y), best of repeats, as _layer_seconds times
    a layer; the op counters hold the counts of one call."""
    best = float("inf")
    for _ in range(repeats):
        reset_op_counters()
        t0 = time.perf_counter()
        product(x, y)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_results(m_max: int) -> list[dict]:
    """Time dense products in both engines for m = 1 .. m_max.

    Operation counts are deterministic: a dense blade product touches
    16^m coefficient pairs while the fast engine touches 8^m triples,
    a ratio of exactly 2^m.  Wall times, best of 3, or of 20 at m <= 3,
    ride along for context, and `layers` times each layer of `mul`
    (_layer_seconds) on the dense blade pair, as often, and on one
    sparse random_multivector pair, best of 20, drawn from a second
    generator so the dense draws stay as they were.
    """
    if not 1 <= m_max <= BENCH_M_MAX:
        raise ValueError(
            f"m-max must be between 1 and {BENCH_M_MAX}, got {m_max}")
    import random

    from .sampling import (dense_blade_multivector, dense_efb_multivector,
                           random_multivector)
    rng = random.Random(BENCH_SEED)
    sparse_rng = random.Random(BENCH_SEED + 1)
    rows = []
    for m in range(1, m_max + 1):
        metric = Metric.interleaved(m)
        bx = dense_blade_multivector(metric, rng)
        by = dense_blade_multivector(metric, rng)
        ex = dense_efb_multivector(m, rng)
        ey = dense_efb_multivector(m, rng)

        # a dense product at m <= 3 takes under 0.1 ms, and its best of 3
        # swings with the host's speed from run to run
        repeats = 20 if m <= 3 else 3
        blade_sec = _best_seconds(mv_mul, bx, by, repeats)
        pairs = op_counters().blade_pairs
        efb_sec = _best_seconds(efb_product, ex, ey, repeats)
        triples = op_counters().efb_triples

        assert triples << m == pairs, (m, pairs, triples)
        sx = random_multivector(metric, sparse_rng)
        sy = random_multivector(metric, sparse_rng)
        layers = {"dense": _layer_seconds(bx, by, m, repeats),
                  "sparse": _layer_seconds(sx, sy, m, repeats=20)}
        reset_op_counters()
        rows.append({
            "m": m,
            "blade_pairs": pairs,
            "efb_triples": triples,
            "count_ratio": pairs // triples,
            "blade_seconds": round(blade_sec, 7),
            "efb_seconds": round(efb_sec, 7),
            "wall_ratio": round(blade_sec / efb_sec, 2) if efb_sec else None,
            "layers": layers,
        })
    return rows


def _checkout() -> dict:
    """The "commit" and "dirty" fields of the bench header: `git rev-parse
    HEAD` of the checkout this package is part of, and whether `git
    status --porcelain` lists tracked changes in it.  Both are None when
    there is no git, no checkout, or the package is not tracked in it."""
    import subprocess
    here = Path(__file__).resolve()
    out = []
    for argv in (["ls-files", "--error-unmatch", here.name],
                 ["rev-parse", "HEAD"],
                 ["status", "--porcelain", "--untracked-files=no"]):
        try:  # a git that fails raises CalledProcessError, a SubprocessError
            out.append(subprocess.run(
                ["git", *argv], cwd=here.parent, check=True,
                capture_output=True, text=True, timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            return {"commit": None, "dirty": None}
    return {"commit": out[1], "dirty": bool(out[2])}


def _source_sha256() -> str:
    """The "source_sha256" field of the bench header: SHA-256 over this
    package's modules, sorted by file name, each as its name, a NUL and
    its bytes, the digest perfbench's metadata() writes for the same
    tree.  It names the code measured whether or not the tree was
    committed."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cmd_bench(args) -> int:
    import json
    rows = bench_results(args.m_max)
    if args.json or args.out:
        record = json.dumps({"seed": BENCH_SEED,
                             "python": platform.python_version(),
                             "cpus": os.cpu_count(), **_checkout(),
                             "source_sha256": _source_sha256(),
                             "rows": rows}, indent=2)
    if args.out:
        try:
            Path(args.out).write_text(record + "\n")
        except OSError as exc:
            print(f"bench: cannot write {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    if args.json:
        print(record)
        return 0
    print(f"{'m':>2} {'blade pairs':>14} {'efb triples':>12} {'ratio':>7} "
          f"{'blade s':>9} {'efb s':>9}")
    for r in rows:
        print(f"{r['m']:>2} {r['blade_pairs']:>14} {r['efb_triples']:>12} "
              f"{r['count_ratio']:>7} {r['blade_seconds']:>9.4f} "
              f"{r['efb_seconds']:>9.4f}")
    print("count ratio is exact (2^m); wall times are reported, not asserted")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffbits",
        description="Clifford algebra products, basis tables, and the "
                    "signature classification, over exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="name the algebra for Cl(k, l)")
    p.add_argument("k", type=int, help="generators squaring to +1")
    p.add_argument("l", type=int, help="generators squaring to -1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("cube", help="diagram of the eight signature classes")
    p.add_argument("--ascii", action="store_true",
                   help="force plain ASCII output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cube)

    p = sub.add_parser("efb-table", help="signed basis-word table for Cl(m, m)")
    p.add_argument("m", type=int, help="number of slot pairs (1..4)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_efb_table)

    p = sub.add_parser("mul", help="multiply two expressions over Cl(m, m)")
    p.add_argument("m", type=int, help="number of generator pairs (1..8)")
    p.add_argument("left", help="expression, e.g. '1/2 g1 g2 + 3'")
    p.add_argument("right")
    p.add_argument("--engine", choices=["blade", "efb", "both"],
                   default="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("verify", help="run the cross-validation suites")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="compare dense product costs")
    p.add_argument("m_max", type=int, nargs="?", default=4,
                   metavar="m-max",
                   help=f"largest m to time (1..{BENCH_M_MAX})")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", metavar="PATH",
                   help="also write the --json record to PATH")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone; send the unflushed rest to /dev/null
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
