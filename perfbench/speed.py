"""Machine-speed reference for a shared, noisy host.

The host this benchmark was tuned on runs the same pure-Python loop at
speeds that differ by up to 3x from one minute to the next (other
tenants share its cores; the slowdown is not reported as steal time, so
CPU time drifts as much as wall time).  Raw op times therefore drift by
about +-30% between runs of identical code, while the ratio of an op's
time to a fixed reference kernel timed right beside it stays within a
few per cent.

So the benchmark times a reference kernel between ops, once at least
`EVERY_S` seconds have passed since the last sample, and reports each op's time at the nominal speed:

    adjusted = measured * NOMINAL_S / (mean of the reference times
                                       just before and just after the op)

The kernel is independent of `cliffbits`, so a change to the library
moves adjusted times exactly as it moves raw ones; only the host's speed
cancels.  Raw figures are printed beside the adjusted ones.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

NOMINAL_S = 0.003   # about the kernel's time on an uncontended core of the tuning host
EVERY_S = 0.1       # sampling period during a measurement
WINDOW_S = 1.0      # a set-up is adjusted by the samples this close to it


class _Coeff:
    """A dyadic number num / 2^exp kept with num odd or exp 0."""

    __slots__ = ("num", "exp")

    def __init__(self, num, exp):
        if num and not num & 1 and exp:
            shift = min((num & -num).bit_length() - 1, exp)
            num >>= shift
            exp -= shift
        self.num = num
        self.exp = exp

    def __mul__(self, other):
        return _Coeff(self.num * other.num, self.exp + other.exp)

    def __add__(self, other):
        if self.exp < other.exp:
            self, other = other, self
        return _Coeff(self.num + (other.num << (self.exp - other.exp)),
                      self.exp)


# Half of the kernel's coefficients come from a table larger than a
# core's private caches, like the library's cached conversion tables.
# A kernel that stayed in cache was slowed more by a busy host than the
# library's ops were, and one that took every coefficient from the
# table was slowed less; with either, adjusted times moved with the
# host's speed.
_TABLE_SIZE = 1 << 15
_TABLE = {i * 7919: _Coeff(i & 1023, i & 3) for i in range(_TABLE_SIZE)}
_THREE_HALVES = _Coeff(3, 1)


def reference_kernel(n: int = 2400) -> int:
    """Small-int arithmetic, dunder calls on slot objects, dict updates and
    lookups in a table beyond the cache: the instruction and memory mix of
    the library's inner loops, without the library."""
    acc: dict[int, _Coeff] = {}
    x = 1
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        if i & 1:
            c = _TABLE[(x % _TABLE_SIZE) * 7919]
        else:
            c = _Coeff(x >> 20, i & 3)
        prev = acc.get(x & 255)
        acc[x & 255] = c if prev is None else prev + c * _THREE_HALVES
    return len(acc)


class SpeedLog:
    """Reference-kernel timings, as (midpoint, seconds), in time order."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._next = 0.0

    def sample(self) -> float:
        """Time the kernel once; returns the seconds it took."""
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.seconds.append(t1 - t0)
        self._next = t1 + EVERY_S
        return t1 - t0

    def due(self) -> float:
        """Sample if EVERY_S has passed since the last sample ended;
        returns the seconds spent in the kernel (0.0 if none was due)."""
        if perf_counter() < self._next:
            return 0.0
        return self.sample()

    def around(self, fn, *args):
        """fn(*args) between three samples on each side; returns its
        result and the factor to the nominal speed for that interval,
        from every sample within WINDOW_S of it, including those fn
        takes itself."""
        for _ in range(3):
            self.sample()
        t0 = perf_counter()
        out = fn(*args)
        t1 = perf_counter()
        for _ in range(3):
            self.sample()
        return out, self.factor(t0 - WINDOW_S, t1 + WINDOW_S)

    def factor(self, lo: float, hi: float) -> float:
        """NOMINAL_S over the median sample taken within [lo, hi]."""
        i = bisect.bisect_left(self.times, lo)
        j = bisect.bisect_right(self.times, hi)
        return NOMINAL_S / statistics.median(self.seconds[i:j] or self.seconds)

    def adjust(self, starts: list[float], seconds: list[float]) -> list[float]:
        """Each op's seconds at the nominal speed, by the mean of the last
        sample before the op and the first one after it."""
        times, ref = self.times, self.seconds
        out = []
        for t, s in zip(starts, seconds):
            i = bisect.bisect_left(times, t)
            j = bisect.bisect_left(times, t + s)
            near = ref[max(i - 1, 0):i] + ref[j:j + 1]
            out.append(s * NOMINAL_S * len(near) / sum(near))
        return out
