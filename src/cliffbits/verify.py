"""Cross-validation suites: every closed form against the blade oracle.

A suite is a generator that yields one ``(case, ok)`` pair per case it
checks; ``@_suite(name)`` turns it into a ``check_*(bounds)`` function
that returns a ``CheckResult`` (its name, whether it passed, how many
cases it covered, the first failing case and its wall seconds) and
registers it, in definition order, for ``run_suite``.  The CLI
aggregates the results and sets the exit code; the test suite runs the
same checks.

Each level sets eight bounds: ``lucas_n`` (n below it, i up to
``lucas_n.bit_length() - 1``), ``assoc_n`` (the exhaustive blade
checks), ``kl`` and ``center_kl`` (signatures), ``m`` (Fock-basis
checks; the costlier ones stop at ``m - 1``), ``pairs`` (random
operands per m), ``fast_m`` (the fast paths: every blade through the
conversions, and dense operands through the packed kernel and the
dense gather, up to it) and ``walk_n`` (the blade engine's Gray-code
walk, up to n generators).

batched_blades_to_efb and batched_efb_to_blades are the conversions
with every coset through one walsh_batch call, kept as the oracle of
the one-blade, one-Walsh-function and dense-gather fast paths of the
efb module; the coset sweep is the oracle of the packed kernel, and the
blade pair loop the oracle of the Gray-code walk.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass

from .bits import lucas_sign, sign_bit, walsh_batch
from .blades import (Metric, Multivector, _gray_walk, _pair_loop,
                     blade_product, center_check, dual_automorphism_check,
                     grade_involution, mv_mul, omega_squared_oracle,
                     omega_tau_squared_oracle, tau_squared_oracle,
                     volume_element)
from .blades import _lane_width as _blade_lane_width
from .classify import (algebra_name, classify, omega_squared,
                       omega_tau_squared, recover_n_bits, tau_squared,
                       varlamov_bits)
from .efb import (EFBMultivector, _lane_width, _packed, _slot_tables,
                  _sweep, blades_to_efb, efb_product, efb_to_blades)
from .instrument import op_counters, reset_op_counters
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
                  fast_m=4, walk_n=8),
    "full": dict(lucas_n=4096, assoc_n=6, kl=16, center_kl=12, m=4,
                 pairs=25, fast_m=6, walk_n=10),
}

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
            for x in range(1 << n):
                for y in range(1 << n):
                    yield ((metric.squares, x, y),
                           blade_product(x, y, metric)
                           == _blade_product_by_sorting(x, y, metric))


@_suite("blade-associativity")
def check_blade_associativity(b):
    n = b["assoc_n"]
    metric = Metric.interleaved(n // 2) if n % 2 == 0 else Metric.block(n, 0)
    dim = 1 << n
    for x in range(dim):
        for y in range(dim):
            s1, xy = blade_product(x, y, metric)
            for z in range(dim):
                s2, xyz = blade_product(xy, z, metric)
                s3, yz = blade_product(y, z, metric)
                s4, xyz2 = blade_product(x, yz, metric)
                yield (x, y, z), (s1 * s2, xyz) == (s3 * s4, xyz2)
    rng = random.Random(7)
    for _ in range(500):  # randomized spot checks at larger n
        nn = rng.randint(1, 12)
        k = rng.randint(0, nn)
        metric = Metric.block(k, nn - k)
        x, y, z = (rng.randrange(1 << nn) for _ in range(3))
        s1, xy = blade_product(x, y, metric)
        s2, xyz = blade_product(xy, z, metric)
        s3, yz = blade_product(y, z, metric)
        s4, xyz2 = blade_product(x, yz, metric)
        yield (nn, x, y, z), (s1 * s2, xyz) == (s3 * s4, xyz2)


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
    for k in range(b["kl"] + 1):
        for l in range(b["kl"] + 1):
            oracle = omega_squared_oracle(Metric.block(k, l))
            closed = omega_squared(k, l)
            via_bit = sign_bit((k - l) % 8, 1)
            yield (k, l), oracle == closed == via_bit


@_suite("center-vs-parity")
def check_center(b):
    for k in range(b["center_kl"] + 1):
        for l in range(b["center_kl"] + 1):
            yield ((k, l),
                   center_check(Metric.block(k, l)) == ((k + l) % 2 == 1))


@_suite("tau-squares-and-duals")
def check_tau(b):
    for k in range(b["kl"] + 1):
        for l in range(b["kl"] + 1):
            if (k + l) % 2:
                continue
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
    for k in range(17):
        for l in range(17):
            c = classify(k, l)
            total = c.matrix_size ** 2 * dim[c.base] * (2 if c.doubled else 1)
            yield (k, l), total == 1 << (k + l)


@_suite("n-bit-recovery")
def check_n_recovery(b):
    for k in range(b["kl"] + 1):
        for l in range(b["kl"] + 1):
            if (k + l) % 2:
                continue
            got = recover_n_bits((k - l) % 8, tau_squared(k, l),
                                 omega_tau_squared(k, l))
            yield (k, l), got == (k + l) % 8


@_suite("varlamov-bit-forms")
def check_varlamov(b):
    for k in range(b["kl"] + 1):
        for l in range(b["kl"] + 1):
            if (k + l) % 2:
                continue
            a, bb, c = varlamov_bits(k, l)
            n8, nu8 = (k + l) % 8, (k - l) % 8
            yield (k, l), (bb == sign_bit(nu8, 2) * sign_bit(n8, 2)
                           and a == sign_bit(n8, 1) * bb
                           and c == sign_bit(nu8, 1))


@_suite("volume-eigenvectors")
def check_eigenvectors(b):
    # signatures() reads the index bits; the eigenvalues come letter by
    # letter from the blade oracle
    for m in range(1, b["m"] + 1):
        for row in range(1 << m):
            for col in range(1 << m):
                e = efb_element(row, col, m)
                _, _, chi = signatures(e)
                yield ((m, row, col), omega_eigen_check(e)
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
        for a in range(dim):
            for x in range(dim):
                for d in range(dim):
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
    for m in range(1, b["m"]):
        dim = 1 << m
        for a in range(dim):
            for x in range(dim):
                for d in range(dim):
                    lhs = mv_mul(word_multivector(efb_element(a, x, m)),
                                 word_multivector(efb_element(x, d, m)))
                    rhs = (sign_s(a, x, d, m)
                           * word_multivector(efb_element(a, d, m)))
                    yield (m, a, x, d), lhs == rhs


@_suite("sign-cocycle")
def check_cocycle(b):
    for m in range(1, b["m"]):
        dim = 1 << m
        for a in range(dim):
            for x in range(dim):
                for d in range(dim):
                    for e in range(dim):
                        yield (m, a, x, d, e), (
                            sign_s(a, x, d, m) * sign_s(a, d, e, m)
                            == sign_s(x, d, e, m) * sign_s(a, x, e, m))


@_suite("matrix-units")
def check_matrix_units(b):
    # E_ax E_cd is E_ad when x == c and zero otherwise
    for m in range(1, b["m"]):
        dim = 1 << m
        for a in range(dim):
            for x in range(dim):
                for c in range(dim):
                    for d in range(dim):
                        yield (m, a, x, c, d), x != c or (
                            normalization_sign(a, x, m)
                            * normalization_sign(c, d, m)
                            * sign_s(a, x, d, m)
                            == normalization_sign(a, d, m))
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
    for m in range(1, b["m"]):
        dim = 1 << m
        for a in range(dim):
            for col in range(dim):
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
    for m in range(1, b["m"]):
        for row in range(1 << m):
            for col in range(1 << m):
                e = efb_element(row, col, m)
                _, _, chi = signatures(e)
                psi = word_multivector(e)
                yield (m, row, col), grade_involution(psi) == chi.g_hat * psi


@_suite("dense-op-ratio")
def check_op_ratio(b):
    rng = random.Random(31)
    for m in range(1, b["m"] + 1):
        metric = Metric.interleaved(m)
        reset_op_counters()
        mv_mul(dense_blade_multivector(metric, rng),
               dense_blade_multivector(metric, rng))
        efb_product(dense_efb_multivector(m, rng),
                    dense_efb_multivector(m, rng))
        counts = op_counters()
        yield (m, counts), counts.blade_pairs == counts.efb_triples << m
    reset_op_counters()


def batched_blades_to_efb(x: Multivector, m: int) -> EFBMultivector:
    """blades_to_efb with every touched coset through walsh_batch."""
    dim = 1 << m
    lo, hi, _, _ = _slot_tables(m)
    cosets: dict[int, list] = {}
    for mask, n in x._nums.items():
        t = lo[mask & dim - 1] ^ hi[mask >> m]
        g = t >> m
        cosets.setdefault(g, [0] * dim)[t & dim - 1] = (
            -n if g.bit_count() & 2 else n)
    return EFBMultivector._from_ints(
        m, dict(zip(cosets, walsh_batch(cosets.values(), m))), x._e)


def batched_efb_to_blades(x: EFBMultivector) -> Multivector:
    """efb_to_blades with every stored coset through walsh_batch."""
    m = x.m
    _, _, join_i, join_g = _slot_tables(m)
    terms: dict[int, int] = {}
    for g, w in zip(x._cosets, walsh_batch(x._cosets.values(), m)):
        for i, n in enumerate(w):
            if n:
                terms[join_i[i] ^ join_g[g]] = -n if g.bit_count() & 2 else n
    return Multivector._raw(Metric.interleaved(m), terms, x._e + m)


def _same_blades(x: Multivector, y: Multivector) -> bool:
    """Equal values, exponent and terms order."""
    return x == y and list(x._nums) == list(y._nums)


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
            yield ("to-efb", m, mask), ex == batched_blades_to_efb(x, m)
            back = efb_to_blades(ex)
            yield ("to-blades", m, mask), (
                back == x and _same_blades(back, batched_efb_to_blades(ex)))
            (g, v), = ex._cosets.items()
            near = EFBMultivector._from_ints(m, {g: v[:-1] + [v[-1] + 1]},
                                             ex._e)
            yield ("near-walsh", m, mask), _same_blades(
                efb_to_blades(near), batched_efb_to_blades(near))
        for _ in range(b["pairs"]):
            x = random_multivector(metric, rng)
            y = random_multivector(metric, rng)
            ex, ey = blades_to_efb(x, m), blades_to_efb(y, m)
            ez = efb_product(ex, ey)
            z = efb_to_blades(ez)
            yield (m, str(x), str(y)), (
                ex == batched_blades_to_efb(x, m)
                and ey == batched_blades_to_efb(y, m)
                and _same_blades(z, batched_efb_to_blades(ez))
                and z == mv_mul(x, y))


def _same_kernels(x: EFBMultivector, y: EFBMultivector) -> bool:
    """The packed kernel equals the sweep on values, exponent and triple
    count."""
    (swept, ts), (packed, tp) = _sweep(x, y), _packed(x, y, _lane_width(x, y))
    zs = EFBMultivector._from_ints(x.m, swept, x._e + y._e)
    zp = EFBMultivector._from_ints(x.m, packed, x._e + y._e)
    return ts == tp and zs == zp


def full_lanes(m: int, k: int, rng: random.Random, signs=None):
    """(x, y, x * y) with x[a][b] = s_a t_b c and y[b][d] = t_b u_d c,
    c = 2^k - 1: every entry of x * y is s_a u_d 2^m c^2, the largest
    that 2k + m + 1 lane bits hold.  signs fixes s and u, and with them
    the sign of every product entry; the t_b are random signs."""
    dim, c = 1 << m, (1 << k) - 1
    s, t, u = ([rng.choice((-1, 1)) for _ in range(dim)] for _ in range(3))
    if signs:
        s, u = [signs[0]] * dim, [signs[1]] * dim
    return (EFBMultivector(m, {(a, b): s[a] * t[b] * c
                               for a in range(dim) for b in range(dim)}),
            EFBMultivector(m, {(b, d): t[b] * u[d] * c
                               for b in range(dim) for d in range(dim)}),
            EFBMultivector(m, {(a, d): s[a] * u[d] * dim * c * c
                               for a in range(dim) for d in range(dim)}))


@_suite("dense-fast-paths")
def check_dense_fast_paths(b):
    # the packed kernel against the sweep on dense operands, at the edge
    # of one 64-bit lane and past it; the dense gather against the
    # batched conversion
    rng = random.Random(41)
    for m in range(1, b["fast_m"] + 1):
        dim = 1 << m
        small = dense_efb_multivector(m, rng)
        yield ("dense", m), _same_kernels(dense_efb_multivector(m, rng),
                                          small)
        # 200-bit entries take multiword lanes; entries of +-(2^63 - 1)
        # fit an int64, but their products do not
        for top in ((1 << 200) - 1, (1 << 63) - 1):
            big = EFBMultivector(m, {(a, c): rng.choice((-top, top))
                                     for a in range(dim)
                                     for c in range(dim)})
            yield (("wide", m, top.bit_length()),
                   _same_kernels(big, small) and _same_kernels(small, big))
        for need in (63, 64, 65):  # lane bits 2k + m + 1
            if (need - m - 1) % 2 == 0:
                x, y, z = full_lanes(m, (need - m - 1) // 2, rng)
                yield ("lane-bits", m, need), (
                    _lane_width(x, y) == (64 if need <= 64 else 72)
                    and _same_kernels(x, y) and efb_product(x, y) == z)
        blades = dense_blade_multivector(Metric.interleaved(m), rng)
        yield ("gather", m), (blades_to_efb(blades, m)
                              == batched_blades_to_efb(blades, m))


def _same_walk(x: Multivector, y: Multivector) -> bool:
    """The Gray-code walk equals the pair loop on values and exponent."""
    e = x._e + y._e
    walked = _gray_walk(x, y, _blade_lane_width(x, y))
    return (Multivector._raw(x.metric, walked, e)
            == Multivector._raw(x.metric, _pair_loop(x, y), e))


def _walk_operand(metric: Metric, rng: random.Random, terms: int,
                  top: int) -> Multivector:
    """terms distinct blades, each with a numerator of magnitude at most
    top, over a random 2^(0..3)."""
    masks = rng.sample(range(1 << metric.n), terms)
    return Multivector._raw(metric, {mask: rng.choice((-1, 1))
                                     * rng.randint(1, top)
                                     for mask in masks}, rng.randrange(4))


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
                x = _walk_operand(metric, rng, max(terms, 1), 1 << 40)
                y = _walk_operand(metric, rng, terms, 9)
                # 4^n pairs through the loop once, not twice, when dense
                yield (kind, n, terms), _same_walk(x, y) and (
                    terms == dim or _same_walk(y, x))
        if n > 8:  # the lane edges below do not depend on n
            continue
        metric = metrics["mixed"]
        # one blade of 2^2048 against a dense operand: multiword lanes
        wide = Multivector._raw(metric, {rng.randrange(dim):
                                         rng.choice((-1, 1)) << 2048}, 0)
        dense = _walk_operand(metric, rng, dim, 9)
        yield ("wide", n), _same_walk(wide, dense) and _same_walk(dense, wide)
        for need in (63, 64, 65):  # lane bits n + 1 + 2k
            if (need - n - 1) % 2 == 0:
                # x_a = +-c, y_a = +-x_a a^2: every pair adds to the
                # scalar, which is +-2^n c^2, the most the lanes hold
                c = (1 << (need - n - 1) // 2) - 1
                x = Multivector._raw(metric, {a: rng.choice((-c, c))
                                              for a in range(dim)}, 0)
                for s in (1, -1):
                    y = Multivector._raw(metric, {
                        a: s * blade_product(a, a, metric)[0] * v
                        for a, v in x._nums.items()}, 0)
                    walked = _gray_walk(x, y, _blade_lane_width(x, y))
                    yield ("lane-bits", n, need, s), (
                        _blade_lane_width(x, y) == (64 if need <= 64 else 72)
                        and walked.get(0) == s * dim * c * c
                        and _same_walk(x, y))


def run_suite(level: str = "quick") -> list[CheckResult]:
    """Run every check at the requested bounds ('quick' or 'full')."""
    if level not in _BOUNDS:
        raise ValueError(f"unknown level {level!r}")
    bounds = _BOUNDS[level]
    return [chk(bounds) for chk in _CHECKS]
