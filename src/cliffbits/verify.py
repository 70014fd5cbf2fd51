"""Cross-validation suites: every closed form against the blade oracle.

A suite is a generator that yields one ``(case, ok)`` pair per case it
checks; ``@_suite(name)`` turns it into a ``check_*(bounds)`` function
that returns a ``CheckResult`` (its name, whether it passed, how many
cases it covered, the first failing case and its wall seconds) and
registers it, in definition order, for ``run_suite``.  The CLI
aggregates the results and sets the exit code; the test suite runs the
same checks.

Most suites walk one of two binary case sets, and one case layer
enumerates both: ``_signatures(bound, even)`` yields the signatures
(k, l), k-major, whose low bits the classification reads, and
``_indices(top, r)`` yields (m, i_1, ..., i_r) for every r-tuple of
Fock-basis indices below 2^m, m = 1..top, the last index fastest.  The
blade associativity checks, exhaustive and random, share one predicate,
``_associates``.

Each level sets nine bounds: ``lucas_n`` (n below it, i up to
``lucas_n.bit_length() - 1``), ``assoc_n`` (the exhaustive blade
checks, and the storage rule up to n generators), ``kl`` and
``center_kl`` (signatures), ``m`` (Fock-basis checks; the costlier ones
stop at ``m - 1``), ``pairs`` (random operands per m), ``fast_m`` (the
fast paths: every blade through the conversions, and dense operands
through the packed kernel and the dense gather, up to it), ``walk_n``
(the blade engine's Gray-code walk, up to n generators) and
``walsh_k`` (the column kernel, which only efb's dense conversions
run, on full batches of 2^k vectors up to it, from k = ``_COLUMNS_K``).

Each fast path is one entry of ``_PATHS``: a fast call and its
oracle, two calls on the same arguments.  ``blades_to_efb`` and
``efb_to_blades`` meet ``batched_blades_to_efb`` and
``batched_efb_to_blades``, the conversions with every coset through the
list stages of the bits module; the packed kernel meets the coset
sweep, the Gray-code walk the blade pair loop, the column kernel the
list stages, and ``efb_product`` on kept packed columns, with its
read-out, the sweep on the lists read off them and the batched
read-out.  Parse meets the value its text was written from: its suite
reads str of a known value, and the same text respaced, back to that
value.  Every producer of a blade multivector (``_PRODUCERS``)
meets ``Multivector._raw`` of the same terms, so that each stores the
value in the form the storage rule picks, a dict's terms compared in
mask order (``_by_mask``).  One comparison, ``_agree(path, *args)``,
runs both calls, each through ``_counted``, which resets the op
counters around it, and compares the results by ``_terms``: value,
exponent, term order and op count at once.  The fast-path suites draw
their operands from one family: ``_blades`` (sparse or dense blade
sums, or every numerator +-c at a lane edge, with ``_mate`` for the
partner whose product fills the scalar), ``_lane_edge`` (dense
matrices whose product fills its lanes) and ``_held`` (a matrix held
as packed columns alone, with or without a cancelled entry); and their
lane-edge cases from one iterator, ``_edges``, with one expected-width
rule, ``_LANES``.  A new fast path costs one entry and one case
iterator.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import time
from dataclasses import dataclass

from .bits import (_columns, _lane_width, _pack, _stages, _unpack, _width,
                   _zero_lanes, lucas_sign, sign_bit, walsh_batch)
from .blades import (Metric, Multivector, _gray_walk, _pair_loop,
                     _walk_lanes, blade_product, center_check,
                     dual_automorphism_check, grade_involution, mv_mul,
                     omega_squared_oracle, omega_tau_squared_oracle,
                     tau_squared_oracle, volume_element)
from .classify import (algebra_name, classify, omega_squared,
                       omega_tau_squared, recover_n_bits, tau_squared,
                       varlamov_bits)
from .dyadic import DyadicRational, _magnitude, _shift
from .efb import (EFBMultivector, _blade_at, _coset_signs, _dense_to_blades,
                  _lanes, _packed, _slot_tables, _sweep, _triples,
                  blades_to_efb, efb_product, efb_to_blades)
from .instrument import counters, op_counters, reset_op_counters
from .sampling import dense_blade_multivector, dense_efb_multivector, \
    random_multivector
from .words import (efb_element, normalization_sign, omega_eigen_check,
                    sign_s, signatures, witt_basis, word_multivector,
                    word_product_oracle)

# the populated cells of the (n, nu) classification table, 0 <= n <= 7
TABLE_N_NU = {
    (0, 0): "R", (1, 1): "2R",
    (2, 0): "R(2)", (2, 2): "R(2)",
    (3, 1): "2R(2)", (3, 3): "C(2)",
    (4, 0): "R(4)", (4, 2): "R(4)", (4, 4): "H(2)",
    (5, 1): "2R(4)", (5, 3): "C(4)", (5, 5): "2H(2)",
    (6, 0): "R(8)", (6, 2): "R(8)", (6, 4): "H(4)", (6, 6): "H(4)",
    (7, 1): "2R(8)", (7, 3): "C(8)", (7, 5): "2H(4)", (7, 7): "C(8)",
}

# the 4x4 signed-word table for Cl(2,2): (row, col) -> rendered entry
CL22_TABLE = {
    (0, 0): "q1p1 q2p2", (0, 1): "q1p1 q2", (0, 2): "q1 q2p2", (0, 3): "q1 q2",
    (1, 0): "q1p1 p2", (1, 1): "q1p1 p2q2", (1, 2): "-q1 p2", (1, 3): "-q1 p2q2",
    (2, 0): "p1 q2p2", (2, 1): "p1 q2", (2, 2): "p1q1 q2p2", (2, 3): "p1q1 q2",
    (3, 0): "-p1 p2", (3, 1): "-p1 p2q2", (3, 2): "p1q1 p2", (3, 3): "p1q1 p2q2",
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    checked: int
    detail: str = ""
    seconds: float = 0.0  # wall time of the suite, cases included


_BOUNDS = {
    "quick": dict(lucas_n=512, assoc_n=4, kl=8, center_kl=6, m=3, pairs=8,
                  fast_m=4, walk_n=8, walsh_k=6),
    "full": dict(lucas_n=4096, assoc_n=6, kl=16, center_kl=12, m=4,
                 pairs=25, fast_m=6, walk_n=10, walsh_k=8),
}
# the first k of the walsh-kernels suite and the first m of the
# packed-columns suite: a bound of these suites alone, which no
# conversion reads
_COLUMNS_K = 5

_CHECKS = []


def _suite(name: str):
    """Turn a generator of (case, ok) pairs into a registered check.

    The check counts every case, reports the first one that is not ok
    and times the whole suite; the suites run in the order they are
    defined.
    """
    def register(cases):
        @functools.wraps(cases)
        def check(b) -> CheckResult:
            checked, detail = 0, ""
            start = time.perf_counter()
            for case, ok in cases(b):
                checked += 1
                if not ok and not detail:
                    detail = f"first failure: {case}"
            return CheckResult(name, not detail, checked, detail,
                               time.perf_counter() - start)
        _CHECKS.append(check)
        return check
    return register


def _signatures(bound: int, even: bool = False):
    """(k, l) for k, l <= bound, k-major; only even n = k + l when even
    is set."""
    for k, l in itertools.product(range(bound + 1), repeat=2):
        if not (even and (k + l) % 2):
            yield k, l


def _indices(top: int, r: int):
    """(m, i_1, ..., i_r) for m = 1..top and every r-tuple of indices
    below 2^m, the last index varying fastest."""
    for m in range(1, top + 1):
        for index in itertools.product(range(1 << m), repeat=r):
            yield (m, *index)


@_suite("lucas-vs-sign-bit")
def check_lucas(b):
    for n in range(b["lucas_n"]):
        for i in range(b["lucas_n"].bit_length()):
            yield (n, i), lucas_sign(n, i) == sign_bit(n, i)


def _blade_product_by_sorting(a: int, b: int, metric: Metric):
    # bubble-sort the two index lists, one sign flip per swap, then
    # contract equal neighbours by their metric square
    word = [i for i in range(metric.n) if (a >> i) & 1]
    word += [i for i in range(metric.n) if (b >> i) & 1]
    sign = 1
    for end in range(len(word) - 1, 0, -1):
        for i in range(end):
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
    mask, i = 0, 0
    while i < len(word):
        if i + 1 < len(word) and word[i] == word[i + 1]:
            sign *= metric.squares[word[i]]
            i += 2
        else:
            mask |= 1 << word[i]
            i += 1
    return sign, mask


@_suite("blade-sign-vs-normal-order")
def check_blade_sign_vs_normal_order(b):
    # every metric up to n = 4, block and interleaved ones beyond
    for n in range(b["assoc_n"] + 1):
        if n <= 4:
            metrics = [Metric(s) for s in itertools.product((1, -1), repeat=n)]
        else:
            metrics = [Metric.block(k, n - k) for k in range(n + 1)]
            if n % 2 == 0:
                metrics.append(Metric.interleaved(n // 2))
        for metric in metrics:
            for x, y in itertools.product(range(1 << n), repeat=2):
                yield ((metric.squares, x, y), blade_product(x, y, metric)
                       == _blade_product_by_sorting(x, y, metric))


def _associates(x: int, y: int, z: int, metric: Metric) -> bool:
    """(xy)z == x(yz) for three blades, sign and mask."""
    s1, xy = blade_product(x, y, metric)
    s2, xyz = blade_product(xy, z, metric)
    s3, yz = blade_product(y, z, metric)
    s4, xyz2 = blade_product(x, yz, metric)
    return (s1 * s2, xyz) == (s3 * s4, xyz2)


@_suite("blade-associativity")
def check_blade_associativity(b):
    n = b["assoc_n"]
    metric = Metric.interleaved(n // 2) if n % 2 == 0 else Metric.block(n, 0)
    for case in itertools.product(range(1 << n), repeat=3):
        yield case, _associates(*case, metric)
    rng = random.Random(7)
    for _ in range(500):  # randomized spot checks at larger n
        nn = rng.randint(1, 12)
        k = rng.randint(0, nn)
        x, y, z = (rng.randrange(1 << nn) for _ in range(3))
        yield (nn, x, y, z), _associates(x, y, z, Metric.block(k, nn - k))


@_suite("witt-relations")
def check_witt_relations(b):
    for m in range(1, b["m"] + 1):
        p, q = witt_basis(m)
        metric = p[0].metric
        zero = Multivector.zero(metric)
        one = Multivector.scalar(metric, 1)
        for i in range(m):
            for j in range(m):
                anti_pp = mv_mul(p[i], p[j]) + mv_mul(p[j], p[i])
                anti_qq = mv_mul(q[i], q[j]) + mv_mul(q[j], q[i])
                anti_pq = mv_mul(p[i], q[j]) + mv_mul(q[j], p[i])
                yield ("pp", m, i, j), anti_pp == zero
                yield ("qq", m, i, j), anti_qq == zero
                yield ("pq", m, i, j), anti_pq == (one if i == j else zero)


@_suite("omega-squared-formula")
def check_omega_squared(b):
    for k, l in _signatures(b["kl"]):
        yield (k, l), (omega_squared_oracle(Metric.block(k, l))
                       == omega_squared(k, l) == sign_bit((k - l) % 8, 1))


@_suite("center-vs-parity")
def check_center(b):
    for k, l in _signatures(b["center_kl"]):
        yield (k, l), center_check(Metric.block(k, l)) == ((k + l) % 2 == 1)


@_suite("tau-squares-and-duals")
def check_tau(b):
    for k, l in _signatures(b["kl"], even=True):
        yield (k, l), (
            tau_squared_oracle(k, l) == tau_squared(k, l)
            and omega_tau_squared_oracle(k, l) == omega_tau_squared(k, l)
            and dual_automorphism_check(k, l))


@_suite("classification-table")
def check_table(b):
    for (n, nu), want in TABLE_N_NU.items():
        k, l = (n + nu) // 2, (n - nu) // 2
        yield (n, nu), algebra_name(classify(k, l)) == want


@_suite("dimension-identity")
def check_dimension_identity(b):
    dim = {"R": 1, "C": 2, "H": 4}
    for k, l in _signatures(16):
        c = classify(k, l)
        total = c.matrix_size ** 2 * dim[c.base] * (2 if c.doubled else 1)
        yield (k, l), total == 1 << (k + l)


@_suite("n-bit-recovery")
def check_n_recovery(b):
    for k, l in _signatures(b["kl"], even=True):
        got = recover_n_bits((k - l) % 8, tau_squared(k, l),
                             omega_tau_squared(k, l))
        yield (k, l), got == (k + l) % 8


@_suite("varlamov-bit-forms")
def check_varlamov(b):
    for k, l in _signatures(b["kl"], even=True):
        a, bb, c = varlamov_bits(k, l)
        n8, nu8 = (k + l) % 8, (k - l) % 8
        yield (k, l), (bb == sign_bit(nu8, 2) * sign_bit(n8, 2)
                       and a == sign_bit(n8, 1) * bb
                       and c == sign_bit(nu8, 1))


@_suite("volume-eigenvectors")
def check_eigenvectors(b):
    # signatures() reads the index bits; the eigenvalues come letter by
    # letter from the blade oracle
    for m, row, col in _indices(b["m"], 2):
        e = efb_element(row, col, m)
        _, _, chi = signatures(e)
        yield (m, row, col), (omega_eigen_check(e)
                              == (chi.h_hat, chi.h_hat * chi.g_hat))


@_suite("slot-commutator-action")
def check_commutators(b):
    # [q_i, p_i] acts as h_i from the left and h_i g_i from the right
    for m in range(1, b["m"] + 1):
        p, q = witt_basis(m)
        comms = [mv_mul(q[i], p[i]) - mv_mul(p[i], q[i]) for i in range(m)]
        for row in range(1 << m):
            for col in range(1 << m):
                e = efb_element(row, col, m)
                h, g, _ = signatures(e)
                psi = word_multivector(e)
                for i in range(m):
                    yield (("left", m, row, col, i),
                           mv_mul(comms[i], psi) == h[i] * psi)
                    yield (("right", m, row, col, i),
                           mv_mul(psi, comms[i]) == h[i] * g[i] * psi)


@_suite("sign-vs-word-oracle")
def check_sign_vs_word_oracle(b):
    for m in range(1, b["m"] + 1):
        dim = 1 << m
        for a, x, d in itertools.product(range(dim), repeat=3):
            sign, elem = word_product_oracle(a, x, x, d, m)
            yield (m, a, x, d), (
                elem is not None and sign == sign_s(a, x, d, m)
                and (elem.index.row, elem.index.col) == (a, d))
        rng = random.Random(11)
        for _ in range(50):  # mismatched middle index annihilates
            a, x, c, d = (rng.randrange(dim) for _ in range(4))
            if x == c:
                continue
            yield ((m, a, x, c, d),
                   word_product_oracle(a, x, c, d, m) == (0, None))


@_suite("sign-vs-blade-oracle")
def check_sign_vs_blade_oracle(b):
    for m, a, x, d in _indices(b["m"] - 1, 3):
        lhs = mv_mul(word_multivector(efb_element(a, x, m)),
                     word_multivector(efb_element(x, d, m)))
        rhs = sign_s(a, x, d, m) * word_multivector(efb_element(a, d, m))
        yield (m, a, x, d), lhs == rhs


@_suite("sign-cocycle")
def check_cocycle(b):
    for m, a, x, d, e in _indices(b["m"] - 1, 4):
        yield (m, a, x, d, e), (sign_s(a, x, d, m) * sign_s(a, d, e, m)
                                == sign_s(x, d, e, m) * sign_s(a, x, e, m))


@_suite("matrix-units")
def check_matrix_units(b):
    # E_ax E_cd is E_ad when x == c and zero otherwise
    for m, a, x, c, d in _indices(b["m"] - 1, 4):
        yield (m, a, x, c, d), x != c or (
            normalization_sign(a, x, m) * normalization_sign(c, d, m)
            * sign_s(a, x, d, m) == normalization_sign(a, d, m))
    for (a, col), want in CL22_TABLE.items():
        e = efb_element(a, col, 2)
        sign = normalization_sign(a, col, 2)
        got = ("-" if sign < 0 else "") + e.word_str()
        yield ("table", a, col), got == want


@_suite("identity-omega-expansion")
def check_identity_omega_expansion(b):
    for m in range(1, b["m"] + 1):
        metric = Metric.interleaved(m)
        one = Multivector.scalar(metric, 1)
        w = Multivector.from_blade(metric, volume_element(metric))
        yield ("one", m), blades_to_efb(one, m) == EFBMultivector.identity(m)
        yield ("volume", m), blades_to_efb(w, m) == EFBMultivector.volume(m)
        # the expansions written as anticommutator / commutator products
        p, q = witt_basis(m)
        prod_anti = Multivector.scalar(metric, 1)
        prod_comm = Multivector.scalar(metric, 1)
        for i in range(m):
            qp, pq = mv_mul(q[i], p[i]), mv_mul(p[i], q[i])
            prod_anti = mv_mul(prod_anti, qp + pq)
            prod_comm = mv_mul(prod_comm, qp - pq)
        yield ("anti", m), prod_anti == one
        yield ("comm", m), prod_comm == w


@_suite("blade-coset-support")
def check_direct_sum_support(b):
    # a blade touches exactly one column coset: col = row XOR parity mask
    for m in range(1, b["m"]):
        metric = Metric.interleaved(m)
        for mask in range(1 << (2 * m)):
            gpar = 0
            for slot in range(1, m + 1):
                ones = (mask >> (2 * slot - 2)) ^ (mask >> (2 * slot - 1))
                gpar |= (ones & 1) << (m - slot)
            x = blades_to_efb(Multivector.from_blade(metric, mask), m)
            yield (m, mask), all(col == row ^ gpar
                                 for row, col, _ in x.nonzero())


@_suite("conversion-vs-word-oracle")
def check_conversion_vs_word_oracle(b):
    # each matrix unit against its letter-by-letter word, both directions
    for m, a, col in _indices(b["m"] - 1, 2):
        unit = EFBMultivector(m, {(a, col): 1})
        word = (normalization_sign(a, col, m)
                * word_multivector(efb_element(a, col, m)))
        yield (m, a, col), (efb_to_blades(unit) == word
                            and blades_to_efb(word, m) == unit)


@_suite("conversion-roundtrip")
def check_roundtrip(b):
    rng = random.Random(23)
    for m in range(1, b["m"] + 1):
        metric = Metric.interleaved(m)
        for _ in range(b["pairs"]):
            x = random_multivector(metric, rng)
            yield (m, str(x)), efb_to_blades(blades_to_efb(x, m)) == x


@_suite("product-oracle-equivalence")
def check_oracle_equivalence(b):
    rng = random.Random(29)
    for m in range(1, b["m"] + 1):
        metric = Metric.interleaved(m)
        for _ in range(b["pairs"]):
            x = random_multivector(metric, rng)
            y = random_multivector(metric, rng)
            fast = efb_product(blades_to_efb(x, m), blades_to_efb(y, m))
            yield ((m, str(x), str(y)),
                   fast == blades_to_efb(mv_mul(x, y), m))


@_suite("involution-vs-parity")
def check_involution_consistency(b):
    # grade involution negates exactly the odd-parity words: the g bits
    # of the index against the letter-by-letter blade expansion
    for m, row, col in _indices(b["m"] - 1, 2):
        e = efb_element(row, col, m)
        _, _, chi = signatures(e)
        psi = word_multivector(e)
        yield (m, row, col), grade_involution(psi) == chi.g_hat * psi


def _staged(vectors, k: int) -> list:
    """walsh_batch of the vectors, the list stages: the transform of the
    batched conversions."""
    return walsh_batch(list(itertools.chain.from_iterable(vectors)), k)


def batched_blades_to_efb(x: Multivector, m: int) -> EFBMultivector:
    """blades_to_efb with every touched coset through the list stages."""
    dim = 1 << m
    lo, hi, _, _ = _slot_tables(m)
    cosets: dict[int, list] = {}
    for mask, n in x._nums.items():
        t = lo[mask & dim - 1] ^ hi[mask >> m]
        g = t >> m
        cosets.setdefault(g, [0] * dim)[t & dim - 1] = (
            -n if g.bit_count() & 2 else n)
    return EFBMultivector._from_ints(
        m, dict(zip(cosets, _staged(cosets.values(), m))), x._e)


def batched_efb_to_blades(x: EFBMultivector) -> Multivector:
    """efb_to_blades with every stored coset through the list stages."""
    m = x.m
    _, _, join_i, join_g = _slot_tables(m)
    terms: dict[int, int] = {}
    for g, w in zip(x._cosets, _staged(x._cosets.values(), m)):
        for i, n in enumerate(w):
            if n:
                terms[join_i[i] ^ join_g[g]] = -n if g.bit_count() & 2 else n
    return Multivector._raw(Metric.interleaved(m), terms, x._e + m)


def _rule_width(x, y) -> int:
    """The lane width of the packed kernel of x * y by its rule, from the
    operands' bounds: the Gray-code walk's for two multivectors, the
    packed product's for two matrices."""
    return (_lanes if isinstance(x, EFBMultivector) else _walk_lanes)(x, y)


def _packed_product(x: EFBMultivector, y: EFBMultivector) -> EFBMultivector:
    """x * y by the packed kernel at its rule's lanes, the triples
    computed column by column and counted as efb_product counts them."""
    yf = y._flat()
    z = EFBMultivector._from_columns(x.m, *_packed(x, yf, _rule_width(x, y)),
                                     x._e + y._e)
    counters.efb_triples += _triples(_zero_lanes(*x._cols, x.dim), yf)
    return z


def _swept(x: EFBMultivector, y: EFBMultivector) -> EFBMultivector:
    """x * y by the coset sweep on the lists, read off kept columns where
    x or y keeps them, its triples counted as efb_product counts them:
    the oracle of the packed kernel."""
    out, triples = _sweep(x, y)
    counters.efb_triples += triples
    return EFBMultivector._from_ints(x.m, out, x._e + y._e)


def _kept_product(x: EFBMultivector, y: EFBMultivector) -> tuple:
    """(x * y, its read-out) by efb_product and efb_to_blades, on the
    columns x and y keep."""
    z = efb_product(x, y)
    return z, efb_to_blades(z)


def _list_product(x: EFBMultivector, y: EFBMultivector) -> tuple:
    """The same by the sweep and the list stages: the oracle of kept
    columns."""
    z = _swept(x, y)
    return z, batched_efb_to_blades(z)


def _walked(x: Multivector, y: Multivector) -> Multivector:
    """x * y by the Gray-code walk at its rule's lanes."""
    return Multivector._raw(x.metric, _gray_walk(x, y, _rule_width(x, y)),
                            x._e + y._e)


def _looped(x: Multivector, y: Multivector) -> Multivector:
    """x * y by the blade pair loop, its terms in mask order, the order
    the walk reads its lanes out in: the oracle of the walk."""
    return Multivector._raw(x.metric, dict(sorted(_pair_loop(x, y).items())),
                            x._e + y._e)


def _column_kernel(flat: list, k: int, neg: int = 0,
                   cap: int = 0) -> tuple[list, int]:
    """(out, shift): bits._columns on a full batch of 2^k vectors laid end
    to end in flat, sized by one scan of it, packed with the vectors c
    with bit c of neg negated, lowered by at most cap and unpacked;
    entry a of vector c comes out at a * 2^k + c."""
    count = 1 << k
    size = _width(_magnitude([flat]) + k + 1) >> 3
    rows = _pack(itertools.chain.from_iterable(
        flat[i::count] for i in range(count)), size, count, neg)
    out, shift = _columns(rows, k, size, cap)
    return _unpack(out, size, count), shift


def _column_stages(flat: list, k: int, neg: int = 0,
                   cap: int = 0) -> tuple[list, int]:
    """The same by the list stages, the signs on the lists, the shift
    dyadic._shift of the OR of the staged entries: the oracle of the
    column kernel."""
    if neg:
        flat = [-n if neg >> (i >> k) & 1 else n for i, n in enumerate(flat)]
    out = _stages(flat, k)
    shift = _shift(functools.reduce(operator.or_, out), cap)
    return [n >> shift for n in out], shift


def _one(x: Multivector) -> Multivector:
    return Multivector.scalar(x.metric, 1)


# every producer of a blade multivector, each rebuilding x: the
# constructor, parse, both mv_mul kernels (x * 1), both read-outs of the
# batched image of x over interleaved Cl(m, m), the dense one adopting
# its terms, the grade involution twice, scaling and sums
_PRODUCERS = {
    "init": lambda x: Multivector(x.metric, x.terms),
    "parse": lambda x: Multivector.parse(str(x), x.metric),
    "walk": lambda x: _walked(x, _one(x)),
    "loop": lambda x: _looped(x, _one(x)),
    "read-out": lambda x: efb_to_blades(
        batched_blades_to_efb(x, x.metric.n // 2)),
    "dense-read-out": lambda x: _dense_to_blades(
        batched_blades_to_efb(x, x.metric.n // 2)),
    "involution": lambda x: grade_involution(grade_involution(x)),
    "scaled": lambda x: x * 2 * DyadicRational(1, 1),
    "sum": lambda x: (x + x) * DyadicRational(1, 1),
    "add-sub": lambda x: x + _one(x) - _one(x),
}


def _by_mask(z: Multivector) -> Multivector:
    """z with a dict form's terms in mask order, the order of a list form,
    and its storage kept: what the storage check compares, as producers
    order their dicts as they go."""
    return z if z._vec is not None else Multivector._adopt(
        z.metric, dict(sorted(z._map.items())), z._nnz, z._e)


def _produced(route: str, x: Multivector) -> Multivector:
    """x rebuilt by the producer of route."""
    return _by_mask(_PRODUCERS[route](x))


def _reraw(route: str, x: Multivector) -> Multivector:
    """x rebuilt by _raw of its terms: the oracle of every producer."""
    return _by_mask(Multivector._raw(x.metric, dict(x._nums), x._e))


def _ruled(z: Multivector) -> bool:
    """Whether z is stored as the share, counted here, says: a list of
    2^n, zeros included, exactly when at least 3/8 of the 2^n numerators
    are nonzero, and its stored count of them."""
    n, vec = z.metric.n, z._vec
    nnz = len(z._map) if vec is None else len(vec) - vec.count(0)
    if nnz << 3 < 3 << n:
        return nnz == z._nnz and vec is None
    return nnz == z._nnz and vec is not None and len(vec) == 1 << n


# each fast path and its oracle, two calls on the same arguments whose
# results _agree compares
_PATHS = {
    "to-efb": (blades_to_efb, batched_blades_to_efb),
    "to-blades": (efb_to_blades, batched_efb_to_blades),
    "packed": (_packed_product, _swept),
    "walk": (_walked, _looped),
    "columns": (_column_kernel, _column_stages),
    "kept": (_kept_product, _list_product),
    "storage": (_produced, _reraw),
}


def _counted(call, *args) -> tuple:
    """(call(*args), the op counts it added), the counters reset before
    and after."""
    reset_op_counters()
    out = call(*args)
    counts = op_counters()
    reset_op_counters()
    return out, counts


def _terms(z):
    """What _agree compares of a result: the exponent and the terms of a
    multivector, or the exponent and the cosets of a matrix, each in
    stored order; a tuple part by part, and anything else as it is.  A
    canonical form is unique, so equal terms are equal values."""
    if isinstance(z, tuple):
        return tuple(map(_terms, z))
    if isinstance(z, Multivector):
        return z._e, (list(z._map.items()) if z._vec is None else z._vec)
    if isinstance(z, EFBMultivector):
        return z._e, list(z._cosets.items())
    return z


def _agree(path: str, *args) -> bool:
    """Whether the fast call of path and its oracle, on the same args,
    give the same values and exponents, the terms in the same order, and
    the same op counts."""
    fast, oracle = _PATHS[path]
    return _terms(_counted(fast, *args)) == _terms(_counted(oracle, *args))


# the lane that holds each lane need of the edge cases: a native size up
# to a word, whole bytes past it
_LANES = {8: 8, 9: 16, 32: 32, 33: 64, 63: 64, 64: 64, 65: 72}


def _edges(extra: int, parts: int = 2, needs=(63, 64, 65)):
    """(need, lane, c) for each lane need that a sum of 2^extra products
    of parts factors of magnitude c = 2^b - 1, b >= 1, fills: need =
    parts * b + extra + 1, the word's edge unless needs says otherwise."""
    for need in needs:
        b, odd = divmod(need - extra - 1, parts)
        if b >= 1 and not odd:
            yield need, _LANES[need], (1 << b) - 1


def _blades(metric: Metric, rng: random.Random, terms: int, top: int,
            low: int = 1) -> Multivector:
    """terms distinct blades, each with a numerator of magnitude low to
    top, over a random 2^(0..3): sparse or dense, and at a lane edge when
    low is top."""
    masks = rng.sample(range(1 << metric.n), terms)
    return Multivector._raw(metric, {mask: rng.choice((-1, 1))
                                     * rng.randint(low, top)
                                     for mask in masks}, rng.randrange(4))


def _mate(x: Multivector, s: int) -> Multivector:
    """The y with y_a = s x_a a^2, a^2 the square of blade a: every blade
    pair of x * y that meets at the scalar adds s x_a^2 to it, so on
    _blades at a lane edge the scalar is s 2^n c^2, the most the lanes
    hold."""
    return Multivector._raw(x.metric, {
        a: s * blade_product(a, a, x.metric)[0] * v
        for a, v in x._nums.items()}, 0)


def _lane_edge(m: int, c: int, rng: random.Random, signs=None) -> tuple:
    """(x, y, x * y) with x[a][b] = s_a t_b c and y[b][d] = t_b u_d c:
    every entry of x * y is s_a u_d 2^m c^2, for c = 2^b - 1 the largest
    that 2b + m + 1 lane bits hold.  signs fixes s and u, and with them
    the sign of every product entry; the t_b are random signs."""
    dim = 1 << m
    s, t, u = ([rng.choice((-1, 1)) for _ in range(dim)] for _ in range(3))
    if signs:
        s, u = [signs[0]] * dim, [signs[1]] * dim
    return (EFBMultivector(m, {(a, b): s[a] * t[b] * c
                               for a in range(dim) for b in range(dim)}),
            EFBMultivector(m, {(b, d): t[b] * u[d] * c
                               for b in range(dim) for d in range(dim)}),
            EFBMultivector(m, {(a, d): s[a] * u[d] * dim * c * c
                               for a in range(dim) for d in range(dim)}))


def _held(z: EFBMultivector, size: int = 0, cancel=()) -> EFBMultivector:
    """z held as packed columns of size-byte lanes alone, by default those
    z keeps, as a dense gather or a packed product keeps them; cancel =
    (g, b) sets entry b of coset g to 0, a zero lane in column b."""
    flat, size = z._flat(), size or z._cols[1]
    if cancel:
        g, b = cancel
        flat[b * z.dim + g] = 0
    return EFBMultivector._from_columns(z.m, _pack(flat, size, z.dim), size,
                                        z._e, z._bound())


@_suite("dense-op-ratio")
def check_op_ratio(b):
    rng = random.Random(31)
    for m in range(1, b["m"] + 1):
        metric = Metric.interleaved(m)
        _, counts = _counted(lambda: (
            mv_mul(dense_blade_multivector(metric, rng),
                   dense_blade_multivector(metric, rng)),
            efb_product(dense_efb_multivector(m, rng),
                        dense_efb_multivector(m, rng))))
        yield (m, counts), counts.blade_pairs == counts.efb_triples << m


@_suite("conversion-fast-paths")
def check_conversion_fast_paths(b):
    # every blade takes both fast paths; one entry off takes the batched
    # path back; random products mix the paths and meet the blade engine
    rng = random.Random(37)
    for m in range(1, b["fast_m"] + 1):
        metric = Metric.interleaved(m)
        for mask in range(1 << (2 * m)):
            x = Multivector._raw(metric, {mask: rng.choice((-1, 1))
                                          * (2 * rng.randrange(512) + 1)},
                                 rng.randrange(5))
            ex = blades_to_efb(x, m)
            yield ("to-efb", m, mask), _agree("to-efb", x, m)
            yield ("to-blades", m, mask), (efb_to_blades(ex) == x
                                           and _agree("to-blades", ex))
            (g, v), = ex._cosets.items()
            near = EFBMultivector._from_ints(m, {g: v[:-1] + [v[-1] + 1]},
                                             ex._e)
            yield ("near-walsh", m, mask), _agree("to-blades", near)
        for _ in range(b["pairs"]):
            x = random_multivector(metric, rng)
            y = random_multivector(metric, rng)
            ez = efb_product(blades_to_efb(x, m), blades_to_efb(y, m))
            yield (m, str(x), str(y)), (
                _agree("to-efb", x, m) and _agree("to-efb", y, m)
                and _agree("to-blades", ez)
                and efb_to_blades(ez) == mv_mul(x, y))


@_suite("dense-fast-paths")
def check_dense_fast_paths(b):
    # the packed kernel against the sweep on dense operands, at the edge
    # of one 64-bit lane and past it; the dense gather against the
    # batched conversion
    rng = random.Random(41)
    for m in range(1, b["fast_m"] + 1):
        small = dense_efb_multivector(m, rng)
        yield ("dense", m), _agree("packed", dense_efb_multivector(m, rng),
                                   small)
        # 200-bit entries take multiword lanes; entries of +-(2^63 - 1)
        # fit an int64, but their products do not
        for top in ((1 << 200) - 1, (1 << 63) - 1):
            big, _, _ = _lane_edge(m, top, rng)
            yield ("wide", m, top.bit_length()), (
                _agree("packed", big, small) and _agree("packed", small, big))
        for need, lane, c in _edges(m):
            x, y, z = _lane_edge(m, c, rng)
            yield ("lane-bits", m, need), (
                _rule_width(x, y) == lane and _agree("packed", x, y)
                and efb_product(x, y) == z)
        yield ("gather", m), _agree(
            "to-efb", dense_blade_multivector(Metric.interleaved(m), rng), m)


@_suite("blade-kernels")
def check_blade_kernels(b):
    # the Gray-code walk against the pair loop: block, interleaved and
    # mixed metrics at every density and block size j = 0..4 (n = 8 has
    # j = 4); lanes at the edge of one word and past it; zero and
    # one-term operands
    rng = random.Random(43)
    for n in range(b["walk_n"] + 1):
        dim = 1 << n
        metrics = {"block": Metric.block(n // 2, n - n // 2),
                   "mixed": Metric(tuple(rng.choice((1, -1))
                                         for _ in range(n)))}
        if n % 2 == 0:
            metrics["interleaved"] = Metric.interleaved(n // 2)
        for kind, metric in metrics.items():
            for terms in (0, 1, dim // 4, dim):
                x = _blades(metric, rng, max(terms, 1), 1 << 40)
                y = _blades(metric, rng, terms, 9)
                # 4^n pairs through the loop once, not twice, when dense
                yield (kind, n, terms), _agree("walk", x, y) and (
                    terms == dim or _agree("walk", y, x))
        if n > 8:  # the lane edges below do not depend on n
            continue
        metric = metrics["mixed"]
        # one blade of 2^2048 against a dense operand: multiword lanes
        wide = _blades(metric, rng, 1, 1 << 2048, 1 << 2048)
        dense = _blades(metric, rng, dim, 9)
        yield ("wide", n), (_agree("walk", wide, dense)
                            and _agree("walk", dense, wide))
        for need, lane, c in _edges(n):
            x = _blades(metric, rng, dim, c, c)
            for s in (1, -1):
                y = _mate(x, s)
                yield ("lane-bits", n, need, s), (
                    _rule_width(x, y) == lane
                    and _gray_walk(x, y, lane)[0] == s * dim * c * c
                    and _agree("walk", x, y))


@_suite("walsh-kernels")
def check_walsh_kernels(b):
    # full batches of 2^k vectors: constant vectors whose transform needs
    # all the bits of an 8-, 32- or 64-bit lane or one more, random
    # entries under the same bounds and far past a word, all-zero and
    # one-nonzero vectors, and the exponent lowered on the packed rows
    rng = random.Random(47)
    for k in range(_COLUMNS_K, b["walsh_k"] + 1):
        n, dim = 1 << 2 * k, 1 << k
        for need, lane, c in _edges(k, 1, (8, 9, 32, 33, 64, 65)):
            for s in (1, -1):  # 2^k c needs `need` signed bits
                flat = [s * c] * n
                yield ("edge", k, need, s), (
                    _lane_width(k, [flat]) == lane
                    and _agree("columns", flat, k))
            yield ("random", k, need), _agree(
                "columns", [rng.randint(-c, c) for _ in range(n)], k)
        flat = [rng.randint(-(1 << 200), 1 << 200) for _ in range(n)]
        yield ("wide", k), _agree("columns", flat, k)
        for v in rng.sample(range(dim), dim // 2):  # half the vectors zero
            flat[v * dim:(v + 1) * dim] = [0] * dim
        yield ("zero-vectors", k), _agree("columns", flat, k)
        yield ("all-zero", k), _agree("columns", [0] * n, k, 0, 3)
        flat = [0] * n
        for v in range(dim):
            flat[v * dim + rng.randrange(dim)] = rng.choice((-1, 1)) << 40
        yield ("one-nonzero", k), _agree("columns", flat, k)
        # entries times 2^t: the shift is t plus what the transform adds,
        # capped
        for t, cap in ((0, 1), (3, 2), (3, 64), (9, 12)):
            flat = [rng.randint(-999, 999) << t for _ in range(n)]
            yield ("shift", k, t, cap), _agree("columns", flat, k, 0, cap)
        # one vector alone holds an odd entry: the first lane, the middle
        # one, or the last that the fold reaches
        for v in (0, dim // 2, dim - 1):
            flat = [rng.randint(-999, 999) << 6 for _ in range(n)]
            flat[v * dim + rng.randrange(dim)] |= 1
            yield ("shift-lane", k, v), _agree("columns", flat, k, 0, 64)


@_suite("lane-bounds")
def check_lane_bounds(b):
    # dense operands of 0 to 63 bits at each m, with a shift of 0 to 3:
    # the column kernel, sized by the bound of one scan and negating the
    # coset lanes, against the list stages with the signs on the lists;
    # every bound the dense pipeline carries against the exact bit
    # length, on both sides of the word edge, and on a product whose
    # bound is exact (every entry c = 2^k - 1, so c^2 2^m over 2^2m);
    # and the round trip
    rng = random.Random(53)
    for m, i in _indices(b["fast_m"], 1):
        dim, top = 1 << m, 1 << (i << 6 >> m)
        c = (2 << i % 8) - 1
        flat = EFBMultivector._from_ints(m, {g: [c] * dim for g in range(dim)},
                                         m, c.bit_length())
        # coset g, Walsh index a at g * 2^m + a
        cosets = [rng.randint(-top, top) << (i & 3) for _ in range(dim * dim)]
        x = Multivector._raw(Metric.interleaved(m),
                             dict(zip(_blade_at(m)[0], cosets)), i & 3)
        ex = blades_to_efb(x, m)
        made = ex, efb_product(ex, ex), efb_product(flat, flat)
        yield (m, i), (
            _agree("columns", cosets, m, _coset_signs(m), 3)
            and all(z._bits >= _magnitude(z._cosets.values()) for z in made)
            and efb_to_blades(ex) == x)


@_suite("packed-columns")
def check_packed_columns(b):
    # dense gathers, whose columns carry the coset signs, in both operand
    # orders; odd blade numerators, whose image is even, so the exponent
    # drops on the columns; a cancelled entry, a zero lane, in either
    # operand; products whose entries fill lanes of 63, 64 and 65 bits,
    # from columns of one word; and a product whose 32-bit columns are
    # too narrow for its read-out: against the same matrices as lists
    rng = random.Random(59)
    for m, in _indices(max(b["fast_m"], _COLUMNS_K), 0):
        if m < _COLUMNS_K:
            continue
        metric, dim = Metric.interleaved(m), 1 << m
        x, y = (dense_blade_multivector(metric, rng) for _ in range(2))
        ex, ey = blades_to_efb(x, m), blades_to_efb(y, m)
        yield ("signs", m), _agree("to-efb", x, m) and _agree("kept", ex, ey)
        yield ("order", m), _agree("kept", ey, ex)
        odd = Multivector._raw(metric, {mask: 2 * n + 1 for mask, n in
                                        x._nums.items()}, 2)
        yield ("shift", m), (_agree("to-efb", odd, m)
                             and _agree("kept", blades_to_efb(odd, m), ey))
        g, c = rng.randrange(dim), rng.randrange(dim)
        yield ("zero-lane", m, g, c), (
            _agree("kept", _held(ex, cancel=(g, c)), ey)
            and _agree("kept", ex, _held(ey, cancel=(c, g))))
        for need, _, top in _edges(m):
            u, v, want = _lane_edge(m, top, rng)
            u, v = _held(u, 8), _held(v, 8)
            yield ("lane-bits", m, need), (
                _agree("kept", u, v) and efb_product(u, v) == want)
        # every entry 2^m c^2 with one sign: the read-out's sums need
        # 2k + 2m + 1 bits
        k = (32 - m - 1) // 2
        u, v, _ = _lane_edge(m, (1 << k) - 1, rng, (1, 1))
        yield ("read-out", m, k), _agree("kept", _held(u, 4), _held(v, 4))


def _shares(top: int):
    """(n, nnz) for n = 1..top, nnz one below the list form's share of the
    2^n blades, at it, and every blade."""
    for n in range(1, top + 1):
        least = (3 << n) + 7 >> 3  # ceil(3/8 * 2^n)
        for nnz in sorted({least - 1, least, 1 << n}):
            yield n, nnz


@_suite("storage-rule")
def check_storage_rule(b):
    # every producer against _raw of the same terms, on both sides of the
    # share and at every blade: the same terms, exponent and storage, and
    # the storage the share picks; the read-outs over interleaved Cl(m, m)
    rng = random.Random(61)
    for n, nnz in _shares(b["assoc_n"]):
        metric = (Metric.interleaved(n // 2) if n % 2 == 0
                  else Metric.block(n // 2, n - n // 2))
        x = _blades(metric, rng, nnz, 9)
        for route, produce in _PRODUCERS.items():
            if n % 2 == 0 or "read-out" not in route:
                yield (route, n, nnz), (_agree("storage", route, x)
                                        and _ruled(produce(x)))


def _respaced(text: str) -> str:
    """text with one space doubled, or a spaced sign put before a lone
    term: the same value, outside the form str writes."""
    if " " in text:
        return text.replace(" ", "  ", 1)
    return "- " + text[1:] if text[0] == "-" else "+ " + text


@_suite("parse-one-pass")
def check_parse_one_pass(b):
    # the text str writes, on both sides of the share and at every blade,
    # over a 2^(0..3) and over 1, read by the split at ' + ' and ' - '
    # (by whole runs of names from the share), and the same text with one
    # space doubled, read by the split at every sign: both parse to the
    # value the text was written from, its exponent, its storage form and
    # its terms in mask order
    rng = random.Random(67)
    for n, nnz in _shares(b["walk_n"]):
        metric = (Metric.interleaved(n // 2) if n % 2 == 0
                  else Metric.block(n // 2, n - n // 2))
        for scaled in (True, False):
            x = _blades(metric, rng, nnz, 1 << 40)
            if not scaled:
                x *= 1 << x._e
            text, want = str(x), _terms(_by_mask(x))
            yield (n, nnz, scaled), all(
                _terms(_by_mask(Multivector.parse(t, metric))) == want
                for t in (text, _respaced(text)))


def run_suite(level: str = "quick") -> list[CheckResult]:
    """Run every check at the requested bounds ('quick' or 'full')."""
    if level not in _BOUNDS:
        raise ValueError(f"unknown level {level!r}")
    bounds = _BOUNDS[level]
    return [chk(bounds) for chk in _CHECKS]
