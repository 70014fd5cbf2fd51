"""Deterministic random elements for self-checks and benchmarks."""

from __future__ import annotations

import random

from .blades import Metric, Multivector
from .dyadic import DyadicRational
from .efb import EFBMultivector


def random_multivector(metric: Metric, rng: random.Random) -> Multivector:
    """Sparse random element: 1 to 6 draws of a blade and a coefficient
    n/2^e with |n| <= 32 and 0 <= e <= 4."""
    dim = 1 << metric.n
    terms: dict[int, DyadicRational] = {}
    for _ in range(rng.randint(1, 6)):
        mask = rng.randrange(dim)
        c = DyadicRational(rng.randint(-32, 32), rng.randint(0, 4))
        terms[mask] = terms.get(mask, DyadicRational(0)) + c
    return Multivector(metric, terms)


def _nonzero_int(rng: random.Random, hi: int = 9) -> int:
    return rng.randint(1, hi) * rng.choice((-1, 1))


def dense_blade_multivector(metric: Metric, rng: random.Random) -> Multivector:
    """Every blade present with a nonzero integer coefficient."""
    return Multivector(metric, {mask: _nonzero_int(rng)
                                for mask in range(1 << metric.n)})


def dense_efb_multivector(m: int, rng: random.Random) -> EFBMultivector:
    """Every matrix entry a nonzero integer, drawn as the coefficients of
    dense_blade_multivector are."""
    dim = 1 << m
    return EFBMultivector(m, {(a, b): _nonzero_int(rng)
                              for a in range(dim) for b in range(dim)})
