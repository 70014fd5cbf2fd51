"""Cross-validation suites: every closed form against the blade oracle.

Each check returns its name, whether it passed, and how many cases it
covered.  The CLI aggregates the results and sets the exit code; the
test suite runs the same checks at the full bounds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .bits import lucas_sign, sign_bit
from .blades import (Metric, Multivector, blade_product, center_check,
                     dual_automorphism_check, grade_involution, mv_mul,
                     omega_squared_oracle, omega_tau_squared_oracle,
                     tau_squared_oracle, volume_element)
from .classify import (algebra_name, classify, omega_squared,
                       omega_tau_squared, recover_n_bits, tau_squared,
                       varlamov_bits)
from .efb import (EFBMultivector, blades_to_efb, efb_element, efb_product,
                  efb_to_blades, normalization_sign, omega_eigen_check,
                  sign_s, signatures, witt_basis, word_multivector,
                  word_product_oracle)
from .instrument import op_counters, reset_op_counters
from .sampling import dense_blade_multivector, dense_efb_multivector, \
    random_multivector

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


def _done(name: str, failures: list, checked: int) -> CheckResult:
    detail = "" if not failures else f"first failure: {failures[0]}"
    return CheckResult(name, not failures, checked, detail)


_BOUNDS = {
    "quick": dict(lucas_n=512, lucas_i=9, assoc_n=4, kl=8, center_kl=6,
                  m=3, m_small=2, pairs=8, dense_m=3, sign_n=4),
    "full": dict(lucas_n=4096, lucas_i=12, assoc_n=6, kl=16, center_kl=12,
                 m=4, m_small=3, pairs=25, dense_m=4, sign_n=6),
}


def check_lucas(b) -> CheckResult:
    failures, checked = [], 0
    for n in range(b["lucas_n"]):
        for i in range(b["lucas_i"] + 1):
            checked += 1
            if lucas_sign(n, i) != sign_bit(n, i):
                failures.append((n, i))
    return _done("lucas-vs-sign-bit", failures, checked)


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


def check_blade_sign_vs_normal_order(b) -> CheckResult:
    # every metric up to n = 4, block and interleaved ones beyond
    failures, checked = [], 0
    for n in range(b["sign_n"] + 1):
        if n <= 4:
            metrics = [Metric(s) for s in itertools.product((1, -1), repeat=n)]
        else:
            metrics = [Metric.block(k, n - k) for k in range(n + 1)]
            if n % 2 == 0:
                metrics.append(Metric.interleaved(n // 2))
        for metric in metrics:
            for x in range(1 << n):
                for y in range(1 << n):
                    checked += 1
                    if (blade_product(x, y, metric)
                            != _blade_product_by_sorting(x, y, metric)):
                        failures.append((metric.squares, x, y))
    return _done("blade-sign-vs-normal-order", failures, checked)


def check_blade_associativity(b) -> CheckResult:
    failures, checked = [], 0
    n = b["assoc_n"]
    metric = Metric.interleaved(n // 2) if n % 2 == 0 else Metric.block(n, 0)
    dim = 1 << n
    for x in range(dim):
        for y in range(dim):
            s1, xy = blade_product(x, y, metric)
            for z in range(dim):
                checked += 1
                s2, xyz = blade_product(xy, z, metric)
                s3, yz = blade_product(y, z, metric)
                s4, xyz2 = blade_product(x, yz, metric)
                if (s1 * s2, xyz) != (s3 * s4, xyz2):
                    failures.append((x, y, z))
    rng = random.Random(7)
    for _ in range(500):  # randomized spot checks at larger n
        nn = rng.randint(1, 12)
        metric = Metric.block(rng.randint(0, nn), 0)
        metric = Metric.block(metric.k, nn - metric.k)
        x, y, z = (rng.randrange(1 << nn) for _ in range(3))
        checked += 1
        s1, xy = blade_product(x, y, metric)
        s2, xyz = blade_product(xy, z, metric)
        s3, yz = blade_product(y, z, metric)
        s4, xyz2 = blade_product(x, yz, metric)
        if (s1 * s2, xyz) != (s3 * s4, xyz2):
            failures.append((nn, x, y, z))
    return _done("blade-associativity", failures, checked)


def check_witt_relations(b) -> CheckResult:
    failures, checked = [], 0
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
                want = one if i == j else zero
                checked += 3
                if anti_pp != zero:
                    failures.append(("pp", m, i, j))
                if anti_qq != zero:
                    failures.append(("qq", m, i, j))
                if anti_pq != want:
                    failures.append(("pq", m, i, j))
    return _done("witt-relations", failures, checked)


def check_omega_squared(b) -> CheckResult:
    failures, checked = [], 0
    for k in range(b["kl"] + 1):
        for l in range(b["kl"] + 1):
            checked += 1
            oracle = omega_squared_oracle(Metric.block(k, l))
            closed = omega_squared(k, l)
            via_bit = sign_bit((k - l) % 8, 1)
            if not (oracle == closed == via_bit):
                failures.append((k, l))
    return _done("omega-squared-formula", failures, checked)


def check_center(b) -> CheckResult:
    failures, checked = [], 0
    for k in range(b["center_kl"] + 1):
        for l in range(b["center_kl"] + 1):
            checked += 1
            if center_check(Metric.block(k, l)) != ((k + l) % 2 == 1):
                failures.append((k, l))
    return _done("center-vs-parity", failures, checked)


def check_tau(b) -> CheckResult:
    failures, checked = [], 0
    for k in range(b["kl"] + 1):
        for l in range(b["kl"] + 1):
            if (k + l) % 2:
                continue
            checked += 1
            ok = (tau_squared_oracle(k, l) == tau_squared(k, l)
                  and omega_tau_squared_oracle(k, l) == omega_tau_squared(k, l)
                  and dual_automorphism_check(k, l))
            if not ok:
                failures.append((k, l))
    return _done("tau-squares-and-duals", failures, checked)


def check_table(b) -> CheckResult:
    failures, checked = [], 0
    for (n, nu), want in TABLE_N_NU.items():
        checked += 1
        k, l = (n + nu) // 2, (n - nu) // 2
        if algebra_name(classify(k, l)) != want:
            failures.append((n, nu))
    return _done("classification-table", failures, checked)


def check_dimension_identity(b) -> CheckResult:
    failures, checked = [], 0
    dim = {"R": 1, "C": 2, "H": 4}
    for k in range(17):
        for l in range(17):
            checked += 1
            c = classify(k, l)
            total = c.matrix_size ** 2 * dim[c.base] * (2 if c.doubled else 1)
            if total != 1 << (k + l):
                failures.append((k, l))
    return _done("dimension-identity", failures, checked)


def check_n_recovery(b) -> CheckResult:
    failures, checked = [], 0
    for k in range(b["kl"] + 1):
        for l in range(b["kl"] + 1):
            if (k + l) % 2:
                continue
            checked += 1
            got = recover_n_bits((k - l) % 8, tau_squared(k, l),
                                 omega_tau_squared(k, l))
            if got != (k + l) % 8:
                failures.append((k, l))
    return _done("n-bit-recovery", failures, checked)


def check_varlamov(b) -> CheckResult:
    failures, checked = [], 0
    for k in range(b["kl"] + 1):
        for l in range(b["kl"] + 1):
            if (k + l) % 2:
                continue
            checked += 1
            a, bb, c = varlamov_bits(k, l)
            n8, nu8 = (k + l) % 8, (k - l) % 8
            ok = (bb == sign_bit(nu8, 2) * sign_bit(n8, 2)
                  and a == sign_bit(n8, 1) * bb
                  and c == sign_bit(nu8, 1))
            if not ok:
                failures.append((k, l))
    return _done("varlamov-bit-forms", failures, checked)


def check_eigenvectors(b) -> CheckResult:
    # signatures() reads the index bits; the eigenvalues come letter by
    # letter from the blade oracle
    failures, checked = [], 0
    for m in range(1, b["m"] + 1):
        for row in range(1 << m):
            for col in range(1 << m):
                e = efb_element(row, col, m)
                _, _, chi = signatures(e)
                checked += 1
                if omega_eigen_check(e) != (chi.h_hat, chi.h_hat * chi.g_hat):
                    failures.append((m, row, col))
    return _done("volume-eigenvectors", failures, checked)


def check_commutators(b) -> CheckResult:
    # [q_i, p_i] acts as h_i from the left and h_i g_i from the right
    failures, checked = [], 0
    for m in range(1, b["m"] + 1):
        p, q = witt_basis(m)
        comms = [mv_mul(q[i], p[i]) - mv_mul(p[i], q[i]) for i in range(m)]
        for row in range(1 << m):
            for col in range(1 << m):
                e = efb_element(row, col, m)
                h, g, _ = signatures(e)
                psi = word_multivector(e)
                for i in range(m):
                    checked += 2
                    if mv_mul(comms[i], psi) != h[i] * psi:
                        failures.append(("left", m, row, col, i))
                    if mv_mul(psi, comms[i]) != h[i] * g[i] * psi:
                        failures.append(("right", m, row, col, i))
    return _done("slot-commutator-action", failures, checked)


def check_sign_vs_word_oracle(b) -> CheckResult:
    failures, checked = [], 0
    for m in range(1, b["m"] + 1):
        dim = 1 << m
        for a in range(dim):
            for x in range(dim):
                for d in range(dim):
                    checked += 1
                    sign, elem = word_product_oracle(a, x, x, d, m)
                    if (elem is None or sign != sign_s(a, x, d, m)
                            or (elem.index.row, elem.index.col) != (a, d)):
                        failures.append((m, a, x, d))
        rng = random.Random(11)
        for _ in range(50):  # mismatched middle index annihilates
            a, x, c, d = (rng.randrange(dim) for _ in range(4))
            if x == c:
                continue
            checked += 1
            if word_product_oracle(a, x, c, d, m) != (0, None):
                failures.append((m, a, x, c, d))
    return _done("sign-vs-word-oracle", failures, checked)


def check_sign_vs_blade_oracle(b) -> CheckResult:
    failures, checked = [], 0
    for m in range(1, b["m_small"] + 1):
        dim = 1 << m
        for a in range(dim):
            for x in range(dim):
                for d in range(dim):
                    checked += 1
                    lhs = mv_mul(word_multivector(efb_element(a, x, m)),
                                 word_multivector(efb_element(x, d, m)))
                    rhs = sign_s(a, x, d, m) * word_multivector(efb_element(a, d, m))
                    if lhs != rhs:
                        failures.append((m, a, x, d))
    return _done("sign-vs-blade-oracle", failures, checked)


def check_cocycle(b) -> CheckResult:
    failures, checked = [], 0
    for m in range(1, b["m_small"] + 1):
        dim = 1 << m
        for a in range(dim):
            for x in range(dim):
                for d in range(dim):
                    for e in range(dim):
                        checked += 1
                        if (sign_s(a, x, d, m) * sign_s(a, d, e, m)
                                != sign_s(x, d, e, m) * sign_s(a, x, e, m)):
                            failures.append((m, a, x, d, e))
    return _done("sign-cocycle", failures, checked)


def check_matrix_units(b) -> CheckResult:
    failures, checked = [], 0
    for m in range(1, b["m_small"] + 1):
        dim = 1 << m
        for a in range(dim):
            for x in range(dim):
                for c in range(dim):
                    for d in range(dim):
                        checked += 1
                        lhs = (normalization_sign(a, x, m)
                               * normalization_sign(c, d, m)
                               * sign_s(a, x, d, m)) if x == c else 0
                        rhs = normalization_sign(a, d, m) if x == c else 0
                        if lhs != rhs:
                            failures.append((m, a, x, c, d))
    for (a, col), want in CL22_TABLE.items():
        checked += 1
        e = efb_element(a, col, 2)
        sign = normalization_sign(a, col, 2)
        got = ("-" if sign < 0 else "") + e.word_str()
        if got != want:
            failures.append(("table", a, col))
    return _done("matrix-units", failures, checked)


def check_identity_omega_expansion(b) -> CheckResult:
    failures, checked = [], 0
    for m in range(1, b["m"] + 1):
        metric = Metric.interleaved(m)
        one = Multivector.scalar(metric, 1)
        w = Multivector.from_blade(metric, volume_element(metric))
        checked += 2
        if blades_to_efb(one, m) != EFBMultivector.identity(m):
            failures.append(("one", m))
        if blades_to_efb(w, m) != EFBMultivector.volume(m):
            failures.append(("volume", m))
        # the expansions written as anticommutator / commutator products
        p, q = witt_basis(m)
        prod_anti = Multivector.scalar(metric, 1)
        prod_comm = Multivector.scalar(metric, 1)
        for i in range(m):
            prod_anti = mv_mul(prod_anti, mv_mul(q[i], p[i]) + mv_mul(p[i], q[i]))
            prod_comm = mv_mul(prod_comm, mv_mul(q[i], p[i]) - mv_mul(p[i], q[i]))
        checked += 2
        if prod_anti != one:
            failures.append(("anti", m))
        if prod_comm != w:
            failures.append(("comm", m))
    return _done("identity-omega-expansion", failures, checked)


def check_direct_sum_support(b) -> CheckResult:
    # a blade touches exactly one column coset: col = row XOR parity mask
    failures, checked = [], 0
    for m in range(1, b["m_small"] + 1):
        metric = Metric.interleaved(m)
        for mask in range(1 << (2 * m)):
            gpar = 0
            for slot in range(1, m + 1):
                ones = ((mask >> (2 * slot - 2)) & 1) ^ ((mask >> (2 * slot - 1)) & 1)
                gpar |= ones << (m - slot)
            x = blades_to_efb(Multivector.from_blade(metric, mask), m)
            checked += 1
            if any(col != row ^ gpar for row, col, _ in x.nonzero()):
                failures.append((m, mask))
    return _done("blade-coset-support", failures, checked)


def check_conversion_vs_word_oracle(b) -> CheckResult:
    # each matrix unit against its letter-by-letter word, both directions
    failures, checked = [], 0
    for m in range(1, b["m_small"] + 1):
        dim = 1 << m
        for a in range(dim):
            for col in range(dim):
                unit = EFBMultivector(m, {(a, col): 1})
                word = (normalization_sign(a, col, m)
                        * word_multivector(efb_element(a, col, m)))
                checked += 1
                if efb_to_blades(unit) != word or blades_to_efb(word, m) != unit:
                    failures.append((m, a, col))
    return _done("conversion-vs-word-oracle", failures, checked)


def check_roundtrip(b) -> CheckResult:
    failures, checked = [], 0
    rng = random.Random(23)
    for m in range(1, b["m"] + 1):
        metric = Metric.interleaved(m)
        for _ in range(b["pairs"]):
            x = random_multivector(metric, rng)
            checked += 1
            if efb_to_blades(blades_to_efb(x, m)) != x:
                failures.append((m, str(x)))
    return _done("conversion-roundtrip", failures, checked)


def check_oracle_equivalence(b) -> CheckResult:
    failures, checked = [], 0
    rng = random.Random(29)
    for m in range(1, b["m"] + 1):
        metric = Metric.interleaved(m)
        for _ in range(b["pairs"]):
            x = random_multivector(metric, rng)
            y = random_multivector(metric, rng)
            checked += 1
            fast = efb_product(blades_to_efb(x, m), blades_to_efb(y, m))
            if fast != blades_to_efb(mv_mul(x, y), m):
                failures.append((m, str(x), str(y)))
    return _done("product-oracle-equivalence", failures, checked)


def check_involution_consistency(b) -> CheckResult:
    # grade involution negates exactly the odd-parity words: the g bits
    # of the index against the letter-by-letter blade expansion
    failures, checked = [], 0
    for m in range(1, b["m_small"] + 1):
        for row in range(1 << m):
            for col in range(1 << m):
                e = efb_element(row, col, m)
                _, _, chi = signatures(e)
                psi = word_multivector(e)
                checked += 1
                if grade_involution(psi) != chi.g_hat * psi:
                    failures.append((m, row, col))
    return _done("involution-vs-parity", failures, checked)


def check_op_ratio(b) -> CheckResult:
    failures, checked = [], 0
    rng = random.Random(31)
    for m in range(1, b["dense_m"] + 1):
        metric = Metric.interleaved(m)
        reset_op_counters()
        mv_mul(dense_blade_multivector(metric, rng),
               dense_blade_multivector(metric, rng))
        efb_product(dense_efb_multivector(m, rng), dense_efb_multivector(m, rng))
        counts = op_counters()
        checked += 1
        if counts.blade_pairs != counts.efb_triples << m:
            failures.append((m, counts))
    reset_op_counters()
    return _done("dense-op-ratio", failures, checked)


_CHECKS = [
    check_lucas,
    check_blade_sign_vs_normal_order,
    check_blade_associativity,
    check_witt_relations,
    check_omega_squared,
    check_center,
    check_tau,
    check_table,
    check_dimension_identity,
    check_n_recovery,
    check_varlamov,
    check_eigenvectors,
    check_commutators,
    check_sign_vs_word_oracle,
    check_sign_vs_blade_oracle,
    check_cocycle,
    check_matrix_units,
    check_identity_omega_expansion,
    check_direct_sum_support,
    check_conversion_vs_word_oracle,
    check_roundtrip,
    check_oracle_equivalence,
    check_involution_consistency,
    check_op_ratio,
]


def run_suite(level: str = "quick") -> list[CheckResult]:
    """Run every check at the requested bounds ('quick' or 'full')."""
    if level not in _BOUNDS:
        raise ValueError(f"unknown level {level!r}")
    bounds = _BOUNDS[level]
    return [chk(bounds) for chk in _CHECKS]
