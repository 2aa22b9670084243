"""Cross-method verification campaigns and number-theoretic profiling.

verify_campaign runs every requested catalog instance through all three
routes (diagonal cells, brute-force oracle, closed form) and reports exact
coefficientwise comparisons.  Characteristic-2 instances of M12 are outside
the closed forms' derivation (the bracket constant 2 collapses), so
their rows are recorded as anomalies instead of pass/fail, whatever the
comparison says.

The remaining tools study the variety counts behind the formulas: residue
class profiles of root counts across primes, the a^2 + 27 b^2 representation
that classifies the counts of 2x^3 + 1, period lower bounds per family, and
a scan for isospectral catalog pairs.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import compress
from math import comb, isqrt

from .gf import NotPrime, count_roots_over_primes, field_of_order, is_prime
from .liealg import FAMILIES, catalog, m9_param_ok, valid_params
from .oracle import GuardExceeded, check_guard, zeta_oracle
from .rrdf import zeta_enumerate
from .formulas import (closed_form, evaluate, evaluate_many, realized_q_polynomial,
                       variety_poly_int)


class ClassificationViolation(AssertionError):
    pass


def threads_from_env() -> int:
    """Worker count from FQZETA_THREADS; ValueError unless it is a positive integer."""
    raw = os.environ.get("FQZETA_THREADS")
    if raw:
        if not raw.isdecimal() or int(raw) < 1:
            raise ValueError(f"FQZETA_THREADS must be a positive integer, got {raw!r}")
        return int(raw)
    return os.cpu_count() or 1


# -- three-way verification ---------------------------------------------


@dataclass(frozen=True)
class VerifyRow:
    family: str
    params: tuple[int, ...]
    q: int
    kind: str
    enum_coeffs: tuple[int, ...]
    oracle_coeffs: tuple[int, ...]
    formula_coeffs: tuple[int, ...]
    branch_guard: str
    status: str  # PASS / FAIL / ANOMALY
    seconds: float  # the whole row, algebra construction included
    enum_s: float  # cell route
    oracle_s: float
    formula_s: float  # closed_form and evaluate

    @property
    def all_equal(self) -> bool:
        return self.enum_coeffs == self.oracle_coeffs == self.formula_coeffs


@dataclass
class VerifyReport:
    rows: list[VerifyRow] = field(default_factory=list)
    workers: int = 1  # processes that ran the rows; 1 is in-process

    def counts(self) -> dict[str, int]:
        out = {"PASS": 0, "FAIL": 0, "ANOMALY": 0}
        for r in self.rows:
            out[r.status] += 1
        return out

    def by_characteristic(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = {}
        for r in self.rows:
            p = field_of_order(r.q).p
            d = out.setdefault(p, {"PASS": 0, "FAIL": 0, "ANOMALY": 0})
            d[r.status] += 1
        return out

    def failures(self) -> list[VerifyRow]:
        return [r for r in self.rows if r.status == "FAIL"]

    @property
    def ok(self) -> bool:
        return not self.failures()


def _verify_item(item: tuple[str, tuple[int, ...], int, str]) -> VerifyRow:
    family, params, q, kind = item
    ctx = field_of_order(q)
    clock = time.perf_counter
    t0 = clock()
    L = catalog(family, params, ctx)
    t1 = clock()
    sz = closed_form(family, params, kind, ctx)
    zf = evaluate(sz, params, ctx)
    t2 = clock()
    ze = zeta_enumerate(L, kind)
    t3 = clock()
    zo = zeta_oracle(L, kind)
    t4 = clock()
    equal = ze.coeffs == zo.coeffs == zf.coeffs
    if L.warnings:  # M12 in characteristic 2: the formulas do not apply
        status = "ANOMALY"
    else:
        status = "PASS" if equal else "FAIL"
    return VerifyRow(family=family, params=params, q=q, kind=kind,
                     enum_coeffs=ze.coeffs, oracle_coeffs=zo.coeffs,
                     formula_coeffs=zf.coeffs, branch_guard=sz.guard,
                     status=status, seconds=t4 - t0, enum_s=t3 - t2,
                     oracle_s=t4 - t3, formula_s=t2 - t1)


def campaign_items(families, q_set, kinds):
    """Deterministic work list: full parameter grids per family and q, one
    family at a time, so both enumerators' plan caches (keyed by structure-
    constant support, not by field) stay warm across its fields.  Every row
    runs the oracle, so a grid outside its guard raises GuardExceeded."""
    fields = [field_of_order(q) for q in sorted(q_set)]
    items = []
    for family in families:
        if family not in FAMILIES:
            raise KeyError(f"unknown family {family!r}")
        for ctx in fields:
            check_guard(FAMILIES[family][0], ctx.q)
            for params in valid_params(family, ctx):
                for kind in kinds:
                    items.append((family, tuple(params), ctx.q, kind))
    return items


def verify_campaign(families=None, q_set=(2, 3, 5), kinds=("subalgebra", "ideal"),
                    threads: int | None = None) -> VerifyReport:
    """Run the three-way comparison over the full parameter grids."""
    families = list(families) if families else list(FAMILIES)
    kinds = tuple(kinds)
    items = campaign_items(families, q_set, kinds)
    threads = threads if threads is not None else threads_from_env()
    # the pool starts every worker at once: no more than chunks or cores
    workers = max(1, min(threads, -(-len(items) // 16), os.cpu_count() or 1))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_verify_item, items, chunksize=16))
    else:
        rows = [_verify_item(it) for it in items]
    rows.sort(key=lambda r: (r.family, r.params, r.q, r.kind))
    return VerifyReport(rows=rows, workers=workers)


# -- residue-class profiling ----------------------------------------------

N_MAX = 60  # largest modulus residue_profile classifies by
P_MAX = 10**6  # largest bound primes_in sieves to
# Largest porc work (degree times the sum of the sampled primes; the sum is
# the number of zero tests of the root counts, one per prime and element)
# residue_profile runs.  It admits 2x^3 + 1 up to --pmax 10^5 (1.4e9:
# `porc --pmax 100000` takes 0.9-1.6 s on a 2-core host) and a degree of
# up to 348 at the default --pmax 10^4; x^20000 - 1 at 10^4 (1.1e11) and
# 2x^3 + 1 at 10^6 (the same work) are refused.
PORC_WORK_LIMIT = 2 * 10**9


# The root counts of the last integer polynomial _roots_mod counted, as
# (coefficients, {p: count}).  A different polynomial replaces the pair
# whole, so one polynomial's counts are held at a time: at most one per prime
# p <= gf.Q_LIMIT = 2^20 (82,025), and pi(P_MAX) = 78,498 for a porc profile.
_held_roots: tuple[tuple[int, ...], dict[int, int]] = ((), {})


def _roots_mod(int_coeffs: tuple[int, ...], primes) -> list[int]:
    """The number of roots in F_p of the integer polynomial int_coeffs (low
    degree first) for each p of the list primes.  The primes without a kept
    count of this polynomial are counted in one gf.count_roots_over_primes
    call; the kept counts of the last polynomial are reused."""
    global _held_roots
    # read the pair once: a count is only ever stored with its own polynomial
    held, counts = _held_roots
    if held != int_coeffs:
        counts = {}
        _held_roots = (int_coeffs, counts)
    new = [p for p in primes if p not in counts]
    if new:
        counts.update(zip(new, count_roots_over_primes(int_coeffs, new)))
    return [counts[p] for p in primes]


def check_porc_work(degree: int, primes) -> None:
    """Raise GuardExceeded when profiling a polynomial of this degree over
    these primes is above PORC_WORK_LIMIT; nothing is counted."""
    total = sum(primes)
    if degree * total > PORC_WORK_LIMIT:
        raise GuardExceeded(f"porc guard: degree {degree} x prime sum {total} "
                            f"is over the work limit of {PORC_WORK_LIMIT:.0e}")


def primes_in(lo: int, hi: int) -> list[int]:
    """The primes p with lo <= p <= hi, ascending, by a sieve of
    Eratosthenes over [0, hi].  A bound above P_MAX raises GuardExceeded."""
    if hi > P_MAX:
        raise GuardExceeded(f"porc guard: prime bound (--pmax) capped at 10^6, "
                            f"got {hi}")
    lo = max(lo, 2)
    if hi < lo:
        return []
    sieve = bytearray([1]) * (hi + 1)
    for p in range(2, isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, hi + 1, p)))
    return list(compress(range(lo, hi + 1), sieve[lo:]))


@dataclass(frozen=True)
class ModulusProfile:
    modulus: int
    consistent: bool  # strictly constant on every class with >= 2 samples
    exceptions: tuple[int, ...]  # primes off their class's majority count
    witness: tuple[tuple[int, int], tuple[int, int]] | None
    # two (prime, count) samples in one class with different counts


@dataclass
class ResidueProfile:
    poly_label: str
    int_coeffs: tuple[int, ...]
    samples: list[tuple[int, int]]  # (prime, root count)
    profiles: dict[int, ModulusProfile]
    smallest_consistent_n: int | None

    def counts_seen(self) -> set[int]:
        return {c for _, c in self.samples}


def residue_profile(int_coeffs, primes, n_max: int = 12,
                    label: str | None = None) -> ResidueProfile:
    """Root counts of an integer polynomial mod p, classified by p mod N.

    A profile is consistent at N when every residue class holding at least
    two sampled primes shows a single count value.  The exception list at N
    collects the primes that deviate from their class's majority count, so
    "consistent at N=1 except p=2" style statements can be read off directly.
    An n_max above N_MAX, or work above PORC_WORK_LIMIT, raises
    GuardExceeded before any root is counted, and a sampled number that is
    not a prime up to 2^20 raises NotPrime or TooLarge, also before any
    count.  The counts of all the primes are made in one
    gf.count_roots_over_primes call, one exhaustive scan whose integer
    values f(x) every prime small enough for exact int64 shares.  The root
    counts of the last profiled polynomial are kept, and a later count of
    the same polynomial mod a kept prime (a check_v720_classification after
    a profile of 2x^3 + 1) reads them; a different polynomial replaces them,
    so one polynomial's counts are held, at most one per prime p <= 2^20.
    """
    if n_max > N_MAX:
        raise GuardExceeded(f"porc guard: modulus bound n_max (--nmax) capped at "
                            f"{N_MAX}, got {n_max}")
    int_coeffs = tuple(int(c) for c in int_coeffs)
    primes = list(primes)
    check_porc_work(len(int_coeffs) - 1, primes)
    samples = list(zip(primes, _roots_mod(int_coeffs, primes)))
    profiles: dict[int, ModulusProfile] = {}
    smallest = None
    for n in range(1, n_max + 1):
        classes: dict[int, dict[int, list[int]]] = {}
        for p, c in samples:
            classes.setdefault(p % n, {}).setdefault(c, []).append(p)
        consistent = True
        exceptions: list[int] = []
        witness = None
        for _, by_count in sorted(classes.items()):
            if len(by_count) <= 1:
                continue
            consistent = False
            if witness is None:
                (c1, ps1), (c2, ps2) = sorted(by_count.items())[:2]
                witness = ((ps1[0], c1), (ps2[0], c2))
            # majority count stays, everything else is an exception
            keep = max(sorted(by_count.items()), key=lambda kv: len(kv[1]))[0]
            for c, ps in by_count.items():
                if c != keep:
                    exceptions.extend(ps)
        profiles[n] = ModulusProfile(n, consistent, tuple(sorted(exceptions)),
                                     witness)
        if consistent and smallest is None:
            smallest = n
    return ResidueProfile(poly_label=label or str(list(int_coeffs)),
                          int_coeffs=int_coeffs, samples=samples,
                          profiles=profiles, smallest_consistent_n=smallest)


def variety_profile(tag: str, int_params, primes, n_max: int = 12) -> ResidueProfile:
    coeffs = variety_poly_int(tag, tuple(int_params))
    label = f"{tag}{tuple(int_params)}"
    return residue_profile(coeffs, primes, n_max=n_max, label=label)


# -- the non-PORC witness --------------------------------------------------


def cornacchia_27(p: int) -> tuple[int, int] | None:
    """Some (a, b) with a^2 + 27 b^2 = p, else None; scans b upward."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return _a2_plus_27b2(p)


def _a2_plus_27b2(p: int) -> tuple[int, int] | None:
    """cornacchia_27's scan, for a p already known to be prime."""
    b = 0
    while 27 * b * b <= p:
        rest = p - 27 * b * b
        a = isqrt(rest)
        if a * a == rest:
            return (a, b)
        b += 1
    return None


@dataclass(frozen=True)
class V720Row:
    p: int
    residue_mod_3: int
    representation: tuple[int, int] | None
    count: int
    expected: int


@dataclass
class V720Report:
    rows: list[V720Row]

    def witnesses_mod3_eq_1(self) -> dict[int, int]:
        """count value -> one witness prime among p = 1 mod 3."""
        out: dict[int, int] = {}
        for r in self.rows:
            if r.residue_mod_3 == 1 and r.count not in out:
                out[r.count] = r.p
        return out


def check_v720_classification(primes) -> V720Report:
    """Check |{x : 2x^3 + 1 = 0}| over F_p against the three-case law.

    For p >= 5 the count is 1 when p = 2 mod 3, and for p = 1 mod 3 it is
    3 or 0 according to whether p = a^2 + 27 b^2 is solvable.  Any mismatch
    is an implementation bug, not data: the scan raises.  After a
    residue_profile of 2x^3 + 1 (coefficients (1, 0, 0, 2)) the counts of
    its primes are read from that profile's kept counts, not counted again.
    """
    rows = []
    for p in primes:
        if p < 5 or not is_prime(p):
            raise ValueError(f"classification needs primes >= 5, got {p}")
        [cnt] = _roots_mod((1, 0, 0, 2), [p])
        rep = None if p % 3 == 2 else _a2_plus_27b2(p)  # p was tested prime above
        expected = 1 if p % 3 == 2 else 3 if rep else 0
        if cnt != expected:
            raise ClassificationViolation(
                f"p={p}: counted {cnt} roots of 2x^3+1, classification says "
                f"{expected}")
        rows.append(V720Row(p, p % 3, rep, cnt, expected))
    return V720Report(rows)


# -- period estimates -------------------------------------------------------


@dataclass(frozen=True)
class TupleEstimate:
    int_params: tuple[int, ...]
    realized: int  # distinct (q,t)-polynomials among kept samples
    kept_q: tuple[int, ...]
    skipped_q: tuple[int, ...]


@dataclass
class PeriodEstimate:
    """Lower bound for the number of polynomials in (q, t) a family needs.

    Parameters are fixed as integers and reduced into each sampled field;
    samples where the reduced parameters fall into a different formula branch
    than the integers themselves (the finitely many "bad" primes of that
    parameter choice) are skipped, mirroring the almost-all-primes quantifier
    that the true period uses.  Realized formulas are compared as coefficient
    vectors of polynomials in q, with the variety counts substituted.
    """

    family: str
    kind: str
    q_set: tuple[int, ...]
    per_tuple: list[TupleEstimate]

    @property
    def estimate(self) -> int:
        return max((t.realized for t in self.per_tuple), default=0)


DEFAULT_INT_TUPLES = {
    0: [()],
    1: [(t,) for t in range(8)],
    2: [(s, t) for s in range(4) for t in range(4)],
}


def period_estimate(family: str, kind: str, q_set,
                    int_tuples=None) -> PeriodEstimate:
    if family not in FAMILIES:
        raise KeyError(f"unknown family {family!r}")
    arity = FAMILIES[family][1]
    tuples = int_tuples if int_tuples is not None else DEFAULT_INT_TUPLES[arity]
    q_sorted = tuple(sorted(q_set))
    per_tuple = []
    for tup in tuples:
        int_branch = closed_form(family, tup, kind, ctx=None)
        realized = set()
        kept, skipped = [], []
        for q in q_sorted:
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
        per_tuple.append(TupleEstimate(tuple(tup), len(realized),
                                       tuple(kept), tuple(skipped)))
    return PeriodEstimate(family=family, kind=kind, q_set=q_sorted,
                          per_tuple=per_tuple)


def period_parity(family: str, q_set, int_tuples=None):
    """(subalgebra estimate, ideal estimate, equal?) for one family."""
    sub = period_estimate(family, "subalgebra", q_set, int_tuples)
    idl = period_estimate(family, "ideal", q_set, int_tuples)
    return sub, idl, sub.estimate == idl.estimate


# -- isospectral pairs -------------------------------------------------------

# Largest iso_work isospectral_scan runs.  At the limit, all families and both
# kinds admit q <= 37 (8.8e6); q = 41 (1.3e7), and M6 alone past q = 53, are
# refused.
ISO_WORK_LIMIT = 10**7


def iso_work(q_set, kinds, families) -> int:
    """Instance pairs isospectral_scan may compare: C(n_q, 2) per q and kind,
    with n_q = sum over the families of q^arity.  Read off the grid alone,
    without evaluating any instance."""
    return sum(len(kinds) * comb(sum(q ** FAMILIES[f][1] for f in families), 2)
               for q in q_set)


@dataclass(frozen=True, slots=True)
class IsoPair:
    left: tuple[str, tuple[int, ...]]
    right: tuple[str, tuple[int, ...]]
    kind: str
    q: int
    coeffs: tuple[int, ...]


class IsoPairs:
    """The pairs of an isospectral scan, held as groups of instances with
    equal polynomials and built only while they are iterated.

    Each (q, kind) block lists, in instance order, every instance that has
    a later partner, as (group, position, coeffs): group is the list of the
    block's instances with polynomial coeffs, in instance order.  len() is
    the sum of C(s, 2) over the group sizes s; each iter() is a fresh
    generator of the IsoPair objects in (q, kind, left, right) order.
    """

    __slots__ = ("_blocks", "_len")

    def __init__(self, blocks):
        self._blocks = tuple(blocks)
        self._len = sum(len(group) - 1 - i for _, _, placed in self._blocks
                        for group, i, _ in placed)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for q, kind, placed in self._blocks:
            for group, i, coeffs in placed:
                left = group[i]
                for j in range(i + 1, len(group)):
                    yield IsoPair(left, group[j], kind, q, coeffs)


def isospectral_scan(q_set, kinds=("subalgebra", "ideal"),
                     families=None) -> IsoPairs:
    """Unordered pairs of distinct catalog instances with equal polynomials.

    Polynomials come from the closed forms (the campaign separately proves
    those equal to both enumeration routes), so full grids stay cheap: each
    field's instances of every requested kind go through one evaluate_many
    call, which counts each distinct variety polynomial of the field once.
    Returns an IsoPairs: every instance is evaluated here, but a pair is
    built only when the result is iterated, which can be done again and
    again; len() is the exact number of pairs, counted without building
    one.  Pairs come ordered by (q, kind, left, right), an instance
    ordering by (family's catalog position, params).  A grid whose iso_work
    is above ISO_WORK_LIMIT raises GuardExceeded before any instance is
    evaluated.
    """
    families = list(families) if families else list(FAMILIES)
    work = iso_work(q_set, kinds, families)
    if work > ISO_WORK_LIMIT:
        raise GuardExceeded(f"iso guard: {work:.2g} instance pairs to compare, "
                            f"over the limit of {ISO_WORK_LIMIT:.0e}")
    fam_order = {f: i for i, f in enumerate(FAMILIES)}
    blocks = []
    for q in sorted(q_set):
        ctx = field_of_order(q)
        # the instances in instance order, the same for every kind
        grid = sorted((fam_order[family], tuple(params), family)
                      for family in families for params in valid_params(family, ctx))
        zetas = iter(evaluate_many([(closed_form(family, params, kind, ctx), params)
                                    for kind in sorted(kinds) for _, params, family in grid],
                                   ctx))
        for kind in sorted(kinds):
            # each instance is paired with the later members of its group,
            # so the pairs come out in order
            groups: dict[tuple[int, ...], list[tuple[str, tuple[int, ...]]]] = {}
            placed = []
            for (_, params, family), z in zip(grid, zetas):
                group = groups.setdefault(z.coeffs, [])
                placed.append((group, len(group), z.coeffs))
                group.append((family, params))
            blocks.append((q, kind, tuple(pl for pl in placed
                                          if pl[1] < len(pl[0]) - 1)))
    return IsoPairs(blocks)
