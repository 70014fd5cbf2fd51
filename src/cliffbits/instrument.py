"""Monomial-operation counters for the two product engines.

The blade engine counts blade-pair multiplies, the Fock-basis engine
counts (row, shared, col) triples with both factors nonzero; on dense
operands over Cl(m,m) the two counts are 16^m and 8^m, so their ratio
is exactly 2^m.  The coset sweep executes each triple it counts.  The
packed kernel runs one big-int multiply per entry of x instead, so it
computes the same count, sum over b of nnz(column b of x) * nnz(row b
of y), without executing the triples.  Likewise the blade engine's pair
loop executes each pair, while its packed Gray-code walk computes the
count, nnz(x) * nnz(y), without executing the pairs.  Counting is
always on: the increments are plain integer adds guarded by the GIL.
"""

from __future__ import annotations

from typing import NamedTuple


class OpCounts(NamedTuple):
    blade_pairs: int
    efb_triples: int


class _Counters:
    __slots__ = ("blade_pairs", "efb_triples")

    def __init__(self):
        self.blade_pairs = 0
        self.efb_triples = 0


counters = _Counters()


def op_counters() -> OpCounts:
    """Snapshot of the counts accumulated since the last reset."""
    return OpCounts(counters.blade_pairs, counters.efb_triples)


def reset_op_counters() -> None:
    counters.blade_pairs = 0
    counters.efb_triples = 0
