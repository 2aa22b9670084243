"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the verdict lines.
All comparisons are exact (tolerance zero); the only excluded rows are the
characteristic-2 instances of M12, which are recorded as anomalies.
"""

import time

from fqzeta import analysis as an
from fqzeta.formulas import (VarietyId, gaussian_binomial,
                             extra_variety_identities, variety_count,
                             zeta_formula)
from fqzeta.gf import field_of_order
from fqzeta.liealg import (FAMILIES, catalog, is_nilpotent, is_solvable,
                           valid_params)
from fqzeta.rrdf import (DiagonalType, cell_count, cell_size, diagonal_types,
                         enumerate_cell)

FULL_Q_SET = (2, 3, 4, 5, 7, 8, 9, 11, 13)


def verdict(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_three_way_agreement():
    t0 = time.time()
    report = an.verify_campaign(q_set=FULL_Q_SET, threads=an.threads_from_env())
    elapsed = time.time() - t0
    counts = report.counts()
    fails = report.failures()
    anomalous = [r for r in report.rows if r.status == "ANOMALY"]
    exclusion_ok = all(r.family == "M12" and field_of_order(r.q).p == 2
                       for r in anomalous)
    verdict(1, not fails and exclusion_ok,
            f"enumerate = oracle = formula on {counts['PASS']} rows, "
            f"{counts['FAIL']} failures, {counts['ANOMALY']} recorded "
            f"char-2 M12 anomalies, q in {FULL_Q_SET}, {elapsed:.0f}s")


def test_criterion_2_spot_polynomials():
    checks = []
    for q in (3, 5, 7):
        ctx = field_of_order(q)
        checks.append(zeta_formula("L22", (), "ideal", ctx).coeffs == (1, 1, 1))
        checks.append(zeta_formula("L4", (0,), "ideal", ctx).coeffs
                      == (1, 1 + q, 1, 1))
        checks.append(zeta_formula("M8", (), "ideal", ctx).coeffs
                      == (1, 1 + q, 3, 2, 1))
        for (a,) in valid_params("M9", ctx):
            checks.append(zeta_formula("M9", (a,), "ideal", ctx).coeffs
                          == (1, q + 1, 1, 0, 1))
    verdict(2, all(checks),
            f"spot polynomials for L22, L4(0), M8, all valid M9(a) at q=3,5,7 "
            f"({len(checks)} checks)")


def test_criterion_3_per_cell_counts():
    cell_l3 = DiagonalType((0, 2), (1, 0))
    cell_l2 = DiagonalType((2,), (1,))
    cell_m7 = DiagonalType((0, 2), (2, 0))
    bad = []
    for q in (3, 5, 7):
        ctx = field_of_order(q)
        L2 = catalog("L2", (), ctx)
        if cell_count(L2, cell_l2, "ideal") != 0:
            bad.append(("L2", q))
        for a in range(q):
            L3 = catalog("L3", (a,), ctx)
            if cell_count(L3, cell_l3, "ideal") != \
                    variety_count(VarietyId("V3", (a,)), ctx):
                bad.append(("L3", a, q))
        for a in range(q):
            for b in range(q):
                M7 = catalog("M7", (a, b), ctx)
                if cell_count(M7, cell_m7, "ideal") != \
                        variety_count(VarietyId("V7_2", (a, b)), ctx):
                    bad.append(("M7", a, b, q))
    verdict(3, not bad,
            f"per-cell counts: L3 cell ((0,2),(1,0)) = |V3(a)|, "
            f"L2 cell ((2),(1)) = 0, M7 cell ((0,2),(2,0)) = |V7_2(a,b)| "
            f"on full grids, q in (3,5,7); violations: {bad}")


def test_criterion_4_extra_variety_identities():
    odd_q = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49]
    violations = 0
    pairs = 0
    for q in odd_q:
        ctx = field_of_order(q)
        for a in range(1, q):
            for b in range(1, q):
                pairs += 1
                if not extra_variety_identities(a, b, ctx).all_hold():
                    violations += 1
    verdict(4, violations == 0,
            f"extra-variety identities hold for all {pairs} nonzero (a,b) "
            f"pairs in every odd field of order <= 49; {violations} violations")


def test_criterion_5_porc_witness():
    t0 = time.time()
    primes = an.primes_in(5, 10**4)
    report = an.check_v720_classification(primes)
    elapsed = time.time() - t0
    prof = an.variety_profile("V7_2", (2, 0), primes, n_max=3)
    seen = {c for p, c in prof.samples if p % 3 == 1}
    ok = len(report.rows) == len(primes) and {0, 3} <= seen and elapsed < 30
    wit = report.witnesses_mod3_eq_1()
    verdict(5, ok,
            f"2x^3+1 classification holds for all {len(report.rows)} primes in "
            f"[5, 10^4] ({elapsed:.1f}s); among p=1 mod 3 both counts occur "
            f"(0 at p={wit.get(0)}, 3 at p={wit.get(3)})")


def test_criterion_6_nilpotency_list():
    nilpotent_instances = {("L11", ()), ("L21", ()), ("L1", ()), ("L4", (0,)),
                           ("M1", ()), ("M5", ()), ("M7", (0, 0))}
    bad = []
    for q in (3, 5, 7):
        ctx = field_of_order(q)
        for family in FAMILIES:
            for params in valid_params(family, ctx):
                L = catalog(family, params, ctx)
                expect = (family, params) in nilpotent_instances
                if is_nilpotent(L) != expect or not is_solvable(L):
                    bad.append((family, params, q))
    verdict(6, not bad,
            f"nilpotent exactly L11, L21, L1, L4(0), M1, M5, M7(0,0); all "
            f"catalog instances solvable, q in (3,5,7); violations: {bad}")


def test_criterion_7_period_parity():
    q_set = (3, 5, 7, 9, 11, 13)
    rows = []
    ok = True
    for family in FAMILIES:
        sub, idl, eq = an.period_parity(family, q_set)
        rows.append(f"{family}:{sub.estimate}/{idl.estimate}")
        ok = ok and eq
    verdict(7, ok,
            "realized-branch count sub/ideal per family over q in "
            f"{q_set}: " + " ".join(rows))


def test_criterion_8_combinatorial_identities():
    partition_ok = True
    for n in range(1, 5):
        for q in (2, 3, 4, 5):
            total = sum(cell_size(t, q) for t in diagonal_types(n))
            subspaces = sum(gaussian_binomial(n, i, q) for i in range(n + 1))
            partition_ok = partition_ok and total == subspaces
    mm_ok = True
    checked = 0
    for q in (2, 3, 4):
        ctx = field_of_order(q)
        for n in range(1, 5):
            for t in diagonal_types(n):
                for M in enumerate_cell(t, ctx):
                    mat, sharp, flat = M.matrix(), M.msharp(), M.mflat()
                    prod = [[0] * n for _ in range(n)]
                    for i in range(n):
                        for j in range(n):
                            s = 0
                            for u in range(n):
                                s = ctx.add(s, ctx.mul(mat[i][u], sharp[u][j]))
                            prod[i][j] = s
                    mm_ok = mm_ok and prod == flat
                    checked += 1
    verdict(8, partition_ok and mm_ok,
            f"cell sizes partition the Grassmannian (n<=4, q in 2..5) and "
            f"M M# = Mb on all {checked} matrices (n<=4, q<=4)")
