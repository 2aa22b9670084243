import gc
import time
import tracemalloc

import pytest

from fqzeta import analysis as an
from fqzeta.formulas import closed_form, evaluate, realized_q_polynomial
from fqzeta.gf import NotPrime, count_roots, field_of_order, is_prime, make_field
from fqzeta.liealg import FAMILIES, m9_param_ok, valid_params
from fqzeta.oracle import GuardExceeded


def test_threads_from_env(monkeypatch):
    monkeypatch.setenv("FQZETA_THREADS", "3")
    assert an.threads_from_env() == 3
    monkeypatch.setenv("FQZETA_THREADS", "abc")
    with pytest.raises(ValueError, match="positive integer"):
        an.threads_from_env()


def test_campaign_l22_single():
    rep = an.verify_campaign(["L22"], q_set=(3,), kinds=("ideal",), threads=1)
    assert len(rep.rows) == 1
    row = rep.rows[0]
    assert row.status == "PASS"
    assert row.enum_coeffs == row.oracle_coeffs == row.formula_coeffs == (1, 1, 1)
    assert rep.ok


def test_campaign_rows_time_each_route():
    rep = an.verify_campaign(["L3", "M7"], q_set=(3,),
                             kinds=("ideal", "subalgebra"), threads=1)
    assert len(rep.rows) == 2 * (3 + 9)
    for r in rep.rows:
        routes = (r.enum_s, r.oracle_s, r.formula_s)
        assert all(s >= 0 for s in routes)
        assert sum(routes) <= r.seconds


def test_campaign_m3_branches_at_q5():
    rep = an.verify_campaign(["M3"], q_set=(5,), kinds=("ideal",), threads=1)
    assert rep.ok and len(rep.rows) == 5
    by_param = {r.params: r for r in rep.rows}
    assert by_param[(1,)].formula_coeffs == (1, 1, 6, 6, 1)      # 1+q branch
    for a in (2, 3, 4):
        assert by_param[(a,)].formula_coeffs == (1, 1, 7, 7, 1)  # 2+q branch
    assert by_param[(0,)].formula_coeffs == (1, 6, 7, 7, 1)


def test_campaign_m12_char2_rows_are_anomalies():
    rep = an.verify_campaign(["M12"], q_set=(2,), kinds=("ideal", "subalgebra"),
                             threads=1)
    assert rep.ok  # anomalies never fail the campaign
    assert {r.status for r in rep.rows} == {"ANOMALY"}
    assert rep.counts()["ANOMALY"] == 2
    assert rep.by_characteristic()[2]["ANOMALY"] == 2


def _row_key(r):
    return (r.family, r.params, r.q, r.kind, r.enum_coeffs, r.oracle_coeffs,
            r.formula_coeffs, r.branch_guard, r.status)


def test_campaign_parallel_matches_serial():
    serial = an.verify_campaign(["L3", "M13"], q_set=(3, 5), threads=1)
    parallel = an.verify_campaign(["L3", "M13"], q_set=(3, 5), threads=2)
    assert [_row_key(r) for r in serial.rows] == \
        [_row_key(r) for r in parallel.rows]
    assert serial.ok


def test_campaign_pool_no_larger_than_chunks_or_cores(monkeypatch):
    # the pool starts all its workers at once; 18 items are 2 chunks of 16
    sizes = []

    class FakePool:  # maps in-process, so no worker is started
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(an, "ProcessPoolExecutor", FakePool)
    families, q_set = ["L11", "L21", "L22"], (2, 3, 5)
    monkeypatch.setattr(an.os, "cpu_count", lambda: 64)
    rep = an.verify_campaign(families, q_set, threads=10_000)
    assert len(rep.rows) == 18 and rep.ok
    assert sizes == [2]
    monkeypatch.setattr(an.os, "cpu_count", lambda: 1)
    serial = an.verify_campaign(families, q_set, threads=10_000)
    assert [_row_key(r) for r in serial.rows] == [_row_key(r) for r in rep.rows]
    assert sizes == [2]  # one core: serial, no pool


def test_campaign_refuses_out_of_range_q_before_any_row(monkeypatch):
    # q = 17 is past the oracle guard: the in-range q = 13 rows do not run
    calls = []
    monkeypatch.setattr(an, "_verify_item", lambda item: calls.append(item))
    t0 = time.perf_counter()
    with pytest.raises(GuardExceeded, match="oracle guard"):
        an.verify_campaign(q_set=(13, 17), threads=1)
    assert calls == [] and time.perf_counter() - t0 < 1


def test_cornacchia_examples():
    assert an.cornacchia_27(31) == (2, 1)
    assert an.cornacchia_27(7) is None
    assert an.cornacchia_27(43) == (4, 1)
    with pytest.raises(NotPrime):
        an.cornacchia_27(27)


def test_v720_classification_small():
    rep = an.check_v720_classification(an.primes_in(5, 300))
    assert all(r.count == r.expected for r in rep.rows)
    wit = rep.witnesses_mod3_eq_1()
    assert 0 in wit and 3 in wit
    assert rep.rows[0].p == 5 and rep.rows[0].count == 1  # 5 = 2 mod 3


def test_v720_classification_rejects_small_primes():
    with pytest.raises(ValueError):
        an.check_v720_classification([3])


def test_v720_classification_tests_each_prime_once(monkeypatch):
    # the classification tests primality once per prime, then scans for
    # a^2 + 27 b^2 = p without cornacchia_27's second test; the
    # representations are cornacchia_27's
    primes = an.primes_in(5, 3000)
    real, tested = an.is_prime, []
    monkeypatch.setattr(an, "is_prime", lambda n: tested.append(n) or real(n))
    rep = an.check_v720_classification(primes)
    assert tested == primes
    monkeypatch.setattr(an, "is_prime", real)
    assert [r.representation for r in rep.rows] == [
        None if p % 3 == 2 else an.cornacchia_27(p) for p in primes]
    for bad in (25, 91):  # composites = 1 mod 3 are still refused
        with pytest.raises(ValueError, match="classification needs primes"):
            an.check_v720_classification([bad])


def test_v720_classification_raises_on_a_wrong_count(monkeypatch, no_held_roots):
    # one prime's count off by one: the check names that prime
    real = an.count_roots_over_primes
    monkeypatch.setattr(an, "count_roots_over_primes", lambda int_coeffs, primes: [
        c + (p == 31) for p, c in zip(primes, real(int_coeffs, primes))])
    with pytest.raises(an.ClassificationViolation, match=r"^p=31: counted 4 "):
        an.check_v720_classification(an.primes_in(5, 300))


def reference_roots(int_coeffs, p):
    """The root count of an integer polynomial mod p with nothing kept: the
    loop residue_profile and check_v720_classification ran before
    analysis._roots_mod."""
    return count_roots([c % p for c in int_coeffs], make_field(p, 1))


def reference_roots_mod(int_coeffs, primes):
    """analysis._roots_mod's counts by reference_roots, one prime at a time."""
    return [reference_roots(int_coeffs, p) for p in primes]


V720 = (1, 0, 0, 2)
# negative coefficients; 5x^3 + 1 differs from V720 only in its leading
# coefficient; leading coefficients divided by sampled primes (5,
# -5998 = -2 * 2999, 35 = 5 * 7); 60x^2 - 30 vanishes mod 2, 3 and 5
OTHERS = [(-1, 0, 1), (1, 0, 0, 5), (3, -7, 0, -5998), (6, -5, 1, 0, 0, 35),
          (-30, 0, 60)]


def porc_session(primes):
    """Profiles interleaved as A, B, A, C, ..., each followed by a v720 check
    over all its primes, then a check of one prime at a time."""
    odd = [p for p in primes if p >= 5]
    out = []
    for coeffs in (V720, OTHERS[0], V720, *OTHERS[1:], V720):
        out.append(an.residue_profile(coeffs, odd if coeffs == V720 else primes))
        out.append(an.check_v720_classification(odd))
    out.append([an.check_v720_classification([p]) for p in odd])
    return out


def test_kept_root_counts_match_the_reference_loop(monkeypatch, no_held_roots):
    primes = an.primes_in(2, 3000)
    kept = porc_session(primes)
    for prof in kept[:-1:2]:
        assert prof.samples == [(p, reference_roots(prof.int_coeffs, p))
                                for p, _ in prof.samples]
    with monkeypatch.context() as m:
        m.setattr(an, "_roots_mod", reference_roots_mod)
        assert porc_session(primes) == kept


def test_only_the_last_polynomials_counts_are_held(no_held_roots):
    primes = an.primes_in(2, 3000)
    an.residue_profile(V720, [p for p in primes if p >= 5])
    an.residue_profile(OTHERS[1], primes)
    assert an._held_roots == (OTHERS[1], {p: reference_roots(OTHERS[1], p)
                                          for p in primes})


def test_v720_check_after_its_profile_counts_nothing(monkeypatch, no_held_roots):
    primes = an.primes_in(5, 3000)
    real, counted = an.count_roots_over_primes, []

    def count_roots_over_primes(int_coeffs, primes):
        counted.extend(primes)
        return real(int_coeffs, primes)

    monkeypatch.setattr(an, "count_roots_over_primes", count_roots_over_primes)
    prof = an.residue_profile(V720, primes)
    assert counted == primes
    counted.clear()
    rep = an.check_v720_classification(primes)
    assert counted == []
    assert [(r.p, r.count) for r in rep.rows] == prof.samples


def test_residue_profile_x2_minus_1():
    prof = an.residue_profile([-1, 0, 1], an.primes_in(2, 100), n_max=4,
                              label="x^2-1")
    # constant count 2 for p >= 3; p = 2 is the single exception at N = 1
    assert all(c == 2 for p, c in prof.samples if p >= 3)
    assert prof.profiles[1].consistent is False
    assert prof.profiles[1].exceptions == (2,)
    assert prof.profiles[2].consistent is True
    assert prof.smallest_consistent_n == 2


def test_residue_profile_v3_splits_mod_5():
    prof = an.variety_profile("V3", (1,), an.primes_in(2, 200), n_max=10)
    assert prof.smallest_consistent_n == 5


def test_residue_profile_v720_not_consistent():
    prof = an.variety_profile("V7_2", (2, 0), an.primes_in(5, 2000), n_max=12)
    assert prof.smallest_consistent_n is None
    assert prof.counts_seen() == {0, 1, 3}
    # among p = 1 mod 3 both 0 and 3 occur: the non-PORC witness pattern
    mod3 = {c for p, c in prof.samples if p % 3 == 1}
    assert {0, 3} <= mod3
    w = prof.profiles[3].witness
    assert w is not None and w[0][0] % 3 == w[1][0] % 3


def test_residue_profile_two_primes_of_a_class_decide():
    # 2x^3 + 1 counts 1 root mod 5, none mod 7 and 3 mod 31 = 2^2 + 27: at
    # N = 3 and N = 4 the only class with more than one prime holds exactly
    # 7 and 31, and their counts differ, so neither modulus is consistent
    prof = an.residue_profile(V720, [5, 7, 31], n_max=6)
    assert prof.samples == [(5, 1), (7, 0), (31, 3)]
    for n in (3, 4):
        assert prof.profiles[n].consistent is False
        assert prof.profiles[n].witness == ((7, 0), (31, 3))
        assert prof.profiles[n].exceptions == (31,)
    assert prof.smallest_consistent_n == 5


def test_residue_profile_nmax_guard():
    with pytest.raises(ValueError):
        an.residue_profile([1, 1], [2, 3], n_max=61)


def test_primes_in_sieve_matches_trial_division():
    for lo, hi in [(10, 5), (-7, 30), (0, 1), (-3, -1), (2, 2), (0, 10**4),
                   (9000, 10**4)]:
        assert an.primes_in(lo, hi) == \
            [p for p in range(max(lo, 2), hi + 1) if is_prime(p)], (lo, hi)


def test_porc_caps_are_library_guards():
    # both raise the work guard exception, which the CLI maps to exit 3
    assert an.P_MAX == 10**6
    assert an.primes_in(an.P_MAX - 100, an.P_MAX)[-1] == 999983
    with pytest.raises(GuardExceeded, match="--pmax"):
        an.primes_in(2, an.P_MAX + 1)
    with pytest.raises(GuardExceeded, match="--nmax"):
        an.residue_profile([1, 1], [2, 3], n_max=an.N_MAX + 1)


def test_porc_work_limit_admits_the_benchmark_and_the_defaults(monkeypatch,
                                                               no_held_roots):
    # degree x the sum of the primes: the roots-iso v720 profile over
    # [5, 40000] and `porc` with its defaults are admitted; the same
    # polynomial up to P_MAX is refused before any root is counted
    assert sum(an.primes_in(5, 40000)) == 79_170_661
    an.check_porc_work(3, an.primes_in(5, 40000))
    an.check_porc_work(3, an.primes_in(5, 10**4))
    an.check_porc_work(4, an.primes_in(2, 10**4))
    with pytest.raises(GuardExceeded, match="porc guard"):
        an.check_porc_work(3, an.primes_in(5, an.P_MAX))
    # a generator of primes is read once, for the check and for the counts
    prof = an.residue_profile([-1, 0, 1], (p for p in (3, 5, 7)), n_max=2)
    assert prof.samples == [(3, 2), (5, 2), (7, 2)]
    counted = []
    monkeypatch.setattr(an, "count_roots_over_primes",
                        lambda int_coeffs, primes: counted.append(int_coeffs))
    with pytest.raises(GuardExceeded, match="porc guard"):
        an.residue_profile([-1] + [0] * 19999 + [1], an.primes_in(2, 10**4))
    assert not counted


def test_period_estimate_abelian_is_one():
    for kind in ("subalgebra", "ideal"):
        est = an.period_estimate("L1", kind, (3, 5, 7))
        assert est.estimate == 1


def test_period_estimate_l3_ideal_at_least_two():
    est = an.period_estimate("L3", "ideal", (5, 7, 11, 13))
    assert est.estimate >= 2


def test_period_parity_examples():
    for fam in ("L3", "M6", "M13"):
        sub, idl, eq = an.period_parity(fam, (3, 5, 7, 9, 11, 13))
        assert eq, (fam, sub.estimate, idl.estimate)


def test_period_bad_prime_skipping():
    # integer a=3 reduces to the a=0 branch at q in {3, 9}: those samples drop
    est = an.period_estimate("M3", "ideal", (3, 5, 7, 9), int_tuples=[(3,)])
    t = est.per_tuple[0]
    assert set(t.skipped_q) == {3, 9}
    assert t.realized == 1


def reference_period_tuples(family, kind, q_set):
    """period_estimate's per_tuple as the plain loop over tuples, then fields,
    with one realized_q_polynomial (and its count_roots calls) per sample."""
    per_tuple = []
    for tup in an.DEFAULT_INT_TUPLES[FAMILIES[family][1]]:
        int_branch = closed_form(family, tup, kind, ctx=None)
        realized, kept, skipped = set(), [], []
        for q in sorted(q_set):
            ctx = field_of_order(q)
            params = tuple(ctx.embed(t) for t in tup)
            if family == "M9" and not m9_param_ok(params[0], ctx):
                skipped.append(q)
                continue
            sz = closed_form(family, params, kind, ctx)
            if sz is not int_branch:
                skipped.append(q)
                continue
            realized.add(realized_q_polynomial(sz, params, ctx))
            kept.append(q)
        per_tuple.append(an.TupleEstimate(tuple(tup), len(realized), tuple(kept),
                                          tuple(skipped)))
    return per_tuple


PERIOD_FIELDS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)


def test_period_parity_matches_the_reference_loop():
    for family in FAMILIES:
        sub, idl, eq = an.period_parity(family, PERIOD_FIELDS)
        assert sub.per_tuple == reference_period_tuples(family, "subalgebra",
                                                        PERIOD_FIELDS), family
        assert idl.per_tuple == reference_period_tuples(family, "ideal",
                                                        PERIOD_FIELDS), family
        assert eq == (sub.estimate == idl.estimate)
        assert an.period_estimate(family, "ideal", PERIOD_FIELDS) == idl


def test_period_counts_each_field_once_for_both_kinds(monkeypatch):
    # one count_roots_many call per field, each distinct variety polynomial
    # of both kinds' kept samples in it once: M6 shares V6_1 and V6_2
    # between its kinds
    from fqzeta import formulas
    calls, real = [], formulas.count_roots_many

    def record(polys, ctx):
        calls.append((ctx.q, list(polys)))
        return real(polys, ctx)

    monkeypatch.setattr(formulas, "count_roots_many", record)
    an.period_parity("M6", (5, 7, 9))
    assert [q for q, _ in calls] == [5, 7, 9]
    for q, polys in calls:
        ctx = field_of_order(q)
        want = set()
        for kind in ("subalgebra", "ideal"):
            for tup in an.DEFAULT_INT_TUPLES[2]:
                params = tuple(ctx.embed(t) for t in tup)
                sz = closed_form("M6", params, kind, ctx)
                if sz is closed_form("M6", tup, kind, None):
                    want |= {tuple(formulas.variety_poly(formulas.VarietyId(*v), ctx))
                             for v in formulas._varieties(sz, params, ctx)}
        assert len(polys) == len(set(polys)) and set(polys) == want, q


def test_isospectral_scan_reads_the_branch_table_once(monkeypatch):
    from fqzeta import formulas
    reads, real = [], formulas.branch_table

    def read():
        reads.append(1)
        return real()

    monkeypatch.setattr(formulas, "branch_table", read)
    monkeypatch.setattr(an, "branch_table", read)
    pairs = an.isospectral_scan((4, 5, 7))
    assert len(reads) == 1
    assert list(pairs) == reference_isospectral_pairs((4, 5, 7))


def test_isospectral_scan_examples():
    pairs = an.isospectral_scan((5,))
    keyed = {(p.left, p.right, p.kind) for p in pairs}
    assert (("L21", ()), ("L22", ()), "subalgebra") in keyed
    assert (("L21", ()), ("L22", ()), "ideal") not in keyed
    assert (("L3", (2,)), ("L4", (1,)), "subalgebra") in keyed
    assert (("L3", (2,)), ("L4", (1,)), "ideal") in keyed


def test_isospectral_l3_l4_pair_needs_p_at_least_5():
    # over F_3 the discriminant of 2x^2-x-1 vanishes: |V3(2)| = 1 there,
    # while |V4(1)| = 2, so this odd-p pairing only starts at p = 5
    pairs = an.isospectral_scan((3,), families=["L3", "L4"])
    keyed = {(p.left, p.right, p.kind) for p in pairs}
    assert (("L3", (2,)), ("L4", (1,)), "ideal") not in keyed
    pairs5 = an.isospectral_scan((7,), families=["L3", "L4"])
    keyed5 = {(p.left, p.right, p.kind) for p in pairs5}
    assert (("L3", (2,)), ("L4", (1,)), "ideal") in keyed5


def test_isospectral_pairs_are_normalized():
    pairs = an.isospectral_scan((3,), kinds=("ideal",),
                                families=["L21", "L22", "L1", "L2"])
    fam_order = {f: i for i, f in enumerate(FAMILIES)}
    for p in pairs:
        assert p.left != p.right
        assert (fam_order[p.left[0]], p.left[1]) < \
            (fam_order[p.right[0]], p.right[1])


def test_isospectral_pairs_come_out_sorted():
    # pairs are emitted in (q, kind, left, right) order, with no final sort
    fam_order = {f: i for i, f in enumerate(FAMILIES)}
    pairs = an.isospectral_scan((3, 4, 5), kinds=("subalgebra", "ideal"))
    assert {p.kind for p in pairs} == {"subalgebra", "ideal"}
    assert list(pairs) == sorted(pairs, key=lambda pr: (
        pr.q, pr.kind, fam_order[pr.left[0]], pr.left[1],
        fam_order[pr.right[0]], pr.right[1]))


def test_isospectral_scan_refuses_over_the_work_limit():
    # q = 41 over every family compares 1.3e7 pairs: refused from the grid
    # alone, before any instance is evaluated
    t0 = time.perf_counter()
    with pytest.raises(GuardExceeded, match="^iso guard: "):
        an.isospectral_scan((41,))
    assert time.perf_counter() - t0 < 1


def reference_isospectral_pairs(q_set, kinds=("subalgebra", "ideal"),
                                families=None):
    """The scan as a plain loop that builds every IsoPair into one list."""
    families = list(families) if families else list(FAMILIES)
    fam_order = {f: i for i, f in enumerate(FAMILIES)}
    pairs = []
    for q in sorted(q_set):
        ctx = field_of_order(q)
        for kind in sorted(kinds):
            members = []
            for family in families:
                for params in valid_params(family, ctx):
                    z = evaluate(closed_form(family, params, kind, ctx),
                                 params, ctx)
                    members.append((fam_order[family], tuple(params), family,
                                    z.coeffs))
            members.sort(key=lambda mb: mb[:2])
            groups = {}
            placed = []
            for _, params, family, coeffs in members:
                group = groups.setdefault(coeffs, [])
                placed.append((group, len(group), coeffs))
                group.append((family, params))
            for group, i, coeffs in placed:
                for right in group[i + 1:]:
                    pairs.append(an.IsoPair(group[i], right, kind, q, coeffs))
    return pairs


SMALL_FIELDS = (2, 3, 4, 5, 9)


@pytest.mark.parametrize("kinds", [("subalgebra", "ideal"), ("subalgebra",),
                                   ("ideal",)])
def test_isospectral_scan_matches_the_reference_loop(kinds):
    pairs = an.isospectral_scan(SMALL_FIELDS, kinds)
    ref = reference_isospectral_pairs(SMALL_FIELDS, kinds)
    assert len(ref) > 0 and len(pairs) == len(ref)
    assert list(pairs) == ref


def test_isospectral_scan_matches_the_reference_per_family():
    for family in FAMILIES:
        pairs = an.isospectral_scan(SMALL_FIELDS, families=[family])
        ref = reference_isospectral_pairs(SMALL_FIELDS, families=[family])
        assert len(pairs) == len(ref), family
        assert list(pairs) == ref, family


def test_isospectral_pairs_iterate_again():
    pairs = an.isospectral_scan((5,))
    first = list(pairs)
    assert first and list(pairs) == first and len(pairs) == len(first)
    assert iter(pairs) is not iter(pairs)
    assert bool(pairs)
    # a single instance has no partner
    empty = an.isospectral_scan((2,), families=["L11"])
    assert not empty and len(empty) == 0 and list(empty) == []


def _reachable(root):
    """Every container or fqzeta object reachable from root, root included."""
    seen, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        todo.extend(o for o in gc.get_referents(obj)
                    if isinstance(o, (tuple, list, dict))
                    or type(o).__module__.startswith("fqzeta."))
    return seen.values()


def test_isospectral_scan_counts_each_input_once(monkeypatch):
    # every (polynomial, field) input reaches the gf kernel once: the 7,313
    # distinct variety polynomials of both kinds in one batch, and M9's 37
    # irreducibility tests of x^2 - x - a from valid_params, one call each;
    # the two share only x^2 - x - 1, which is also V3(1)
    from fqzeta import gf
    calls, kernel = [], gf._count_roots

    def record(polys, ctx):
        polys = list(polys)
        calls.append([(tuple(f), ctx.q) for f in polys])
        return kernel(polys, ctx)

    monkeypatch.setattr(gf, "_count_roots", record)
    an.isospectral_scan((37,))
    batches = [c for c in calls if len(c) > 1]
    assert len(batches) == 1 and len(set(batches[0])) == len(batches[0]) == 7313
    singles = sorted(c[0] for c in calls if len(c) == 1)
    assert singles == sorted(((-a % 37, 36, 1), 37) for a in range(37))
    assert set(singles) & set(batches[0]) == {((36, 36, 1), 37)}


def test_isospectral_scan_holds_no_pair():
    # q = 37 has 2.8 M pairs; built all at once they took 268 MB
    pairs = an.isospectral_scan((37,))
    assert len(pairs) == 2_797_591
    assert not any(isinstance(o, an.IsoPair) for o in _reachable(pairs))


def test_isospectral_scan_peak_memory():
    # M6's ideal pairs over F_37 alone are 333,395 IsoPair objects, tens of
    # MB if held; the groups take well under one.  tracemalloc slows the
    # closed forms about sevenfold, hence one family and one kind.
    tracemalloc.start()
    try:
        pairs = an.isospectral_scan((37,), kinds=("ideal",), families=["M6"])
        assert len(pairs) > 300_000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
