import itertools
import pickle
import random
import time
import tracemalloc

import numpy as np
import pytest

from math import isqrt

from fqzeta import gf
from fqzeta.gf import (BLOCK, Q_LIMIT, DegreeZero,
                       DivisionByZero, FieldCtx, NotPrime, TooLarge, UniPoly,
                       count_roots, count_roots_many, count_roots_over_primes,
                       field_of_order, is_prime, make_field)


def brute_poly_eval_fp(coeffs, x, p):
    v = 0
    for c in reversed(coeffs):
        v = (v * x + c) % p
    return v


def brute_is_irreducible_low_degree_fp(coeffs, p):
    # a polynomial of degree 2 or 3 over F_p is reducible iff it has a root
    return all(brute_poly_eval_fp(coeffs, x, p) for x in range(p))


def test_prime_field_basics():
    F5 = make_field(5, 1)
    assert F5.q == 5 and list(F5.elements()) == [0, 1, 2, 3, 4]
    assert F5.mul(2, 3) == 1
    assert F5.add(3, 4) == 2
    assert F5.neg(2) == 3


def test_f4_modulus_is_smallest_irreducible():
    # oracle: scan the 4 monic quadratics over F_2 in low-to-high lex order
    expected = None
    for c0, c1 in itertools.product(range(2), repeat=2):
        if brute_is_irreducible_low_degree_fp([c0, c1, 1], 2):
            expected = (c0, c1, 1)
            break
    assert expected == (1, 1, 1)  # x^2 + x + 1
    assert make_field(2, 2).modulus == expected
    # Rabin's test picks the first monic irreducible of degree 2 and 3 too;
    # the root test is the reference
    for p in (2, 3, 5, 7):
        for k in (2, 3):
            first = next(tail + (1,)
                         for tail in itertools.product(range(p), repeat=k)
                         if brute_is_irreducible_low_degree_fp(tail + (1,), p))
            assert make_field(p, k).modulus == first, (p, k)


def test_f4_multiplication():
    F4 = make_field(2, 2)
    assert F4.mul(2, 2) == 3  # x * x = x + 1
    assert F4.mul(2, 3) == 1  # x (x+1) = x^2 + x = 1


def test_inverse_examples_and_axiom():
    F7 = make_field(7, 1)
    assert F7.inv(3) == 5
    for q, (p, k) in {5: (5, 1), 8: (2, 3), 9: (3, 2), 25: (5, 2)}.items():
        ctx = make_field(p, k)
        for x in range(1, q):
            assert ctx.mul(x, ctx.inv(x)) == 1
    with pytest.raises(DivisionByZero):
        F7.inv(0)


def test_construction_errors():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(NotPrime):
        make_field(1, 1)
    with pytest.raises(DegreeZero):
        make_field(5, 0)
    with pytest.raises(TooLarge):
        make_field(2, 21)


def _reference_field(q):
    """The order-to-field rule as it was split before field_of_order: factor
    q by trial division up to isqrt(q), then make_field(p, k)."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = q
    for d in range(2, isqrt(q) + 1):
        if q % d == 0:
            p = d
            break
    k = 0
    m = q
    while m > 1:
        if m % p:
            raise ValueError(f"{q} is not a prime power")
        m //= p
        k += 1
    return make_field(p, k)


def _outcome(fn, q):
    try:
        return fn(q)
    except ValueError as exc:
        return type(exc), str(exc)


def test_field_of_order_matches_the_reference():
    # every order up to 5000, every proper prime power up to the cap, and the
    # orders next to the cap: the same shared context, or the same error
    powers = {p**k for p in range(2, isqrt(Q_LIMIT) + 1) if is_prime(p)
              for k in range(2, 21) if p**k <= Q_LIMIT}
    orders = sorted(set(range(-2, 5001)) | powers | {Q_LIMIT - 3, Q_LIMIT})
    assert Q_LIMIT in powers and len(powers) == 242
    for q in orders:
        got, want = _outcome(field_of_order, q), _outcome(_reference_field, q)
        assert got is want if isinstance(want, FieldCtx) else got == want, q


def test_field_of_order_factors_prime_powers():
    for q, pk in {7: (7, 1), 8: (2, 3), 9: (3, 2)}.items():
        ctx = field_of_order(q)
        assert (ctx.p, ctx.k) == pk and ctx.q == q
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            field_of_order(bad)


@pytest.mark.parametrize("call", [
    lambda: field_of_order(2**61 - 1),  # prime: trial division would not end
    lambda: field_of_order(2**21 + 1),  # composite, still over the cap
    lambda: make_field(2**61 - 1, 1),
    lambda: make_field(2, 20000),  # q has 6021 digits, too many to print
    lambda: make_field(6, 30),  # the cap is checked before primality
])
def test_orders_over_the_cap_are_refused_at_once(call, monkeypatch):
    def factor(n):
        raise AssertionError(f"{n} was factored")

    monkeypatch.setattr(gf, "_least_factor", factor)  # is_prime's loop too
    t0 = time.perf_counter()
    with pytest.raises(TooLarge, match="exceeds the 1048576 cap"):
        call()
    assert time.perf_counter() - t0 < 0.1


def test_construction_is_deterministic():
    # two independent constructions agree on every product, exhaustively
    for p, k in [(2, 2), (2, 3), (3, 2), (2, 6), (7, 2)]:
        a = make_field(p, k)
        b = make_field.__wrapped__(p, k)  # bypass the cache
        assert a.modulus == b.modulus
        if a.q <= 64:
            for x in range(a.q):
                for y in range(a.q):
                    assert a.mul(x, y) == b.mul(x, y)
                    assert a.add(x, y) == b.add(x, y)


def test_field_axioms_sampled():
    rng = random.Random(20240811)
    for p, k in [(3, 1), (2, 3), (3, 2), (5, 2), (11, 1), (3, 6)]:
        ctx = make_field(p, k)
        for _ in range(200):
            x, y, z = (rng.randrange(ctx.q) for _ in range(3))
            assert ctx.add(x, y) == ctx.add(y, x)
            assert ctx.mul(x, y) == ctx.mul(y, x)
            assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
            assert ctx.add(x, ctx.neg(x)) == 0


def test_table_scalars_match_digit_routines():
    # extension fields read add/mul/neg from their exp/log/zech tables, built
    # once per field; the digit routines are the reference they are checked
    # against, exhaustively up to q = 64 and sampled above, past TABLE_LIMIT
    for p, k in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3),
                 (5, 2), (7, 2)]:
        ctx = make_field(p, k)
        assert ctx.q <= 64
        for x in range(ctx.q):
            assert ctx.neg(x) == ctx._neg_digits(x)
            for y in range(ctx.q):
                assert ctx.add(x, y) == ctx._add_digits(x, y)
                assert ctx.mul(x, y) == ctx._mul_digits(x, y)
    for p, k in [(5, 3), (2, 7), (3, 5), (2, 8), (3, 6), (2, 11), (3, 7)]:
        ctx = make_field(p, k)
        exp, log, zech = ctx._logs  # the tables the scalar ops read
        assert (len(exp), len(log), len(zech)) == (2 * ctx.q - 2, ctx.q, 3 * ctx.q - 4)
        rng = random.Random(ctx.q)
        for x in range(ctx.q):
            assert ctx.neg(x) == ctx._neg_digits(x)
        for _ in range(5000):
            x, y = rng.randrange(ctx.q), rng.randrange(ctx.q)
            assert ctx.add(x, y) == ctx._add_digits(x, y)
            assert ctx.mul(x, y) == ctx._mul_digits(x, y)


def test_log_tables_are_held_for_the_last_few_fields_only():
    # fresh contexts (make_field's cache bypassed) build their tables on the
    # first scalar op; only the last _LOG_FIELDS keep them, and an evicted
    # field builds them again when it next needs them
    fields = [make_field.__wrapped__(p, k) for p, k in
              [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2)]]
    for ctx in fields:
        assert ctx.mul(2, 3) == ctx._mul_digits(2, 3)
    assert len(gf._held) == gf._LOG_FIELDS < len(fields)
    assert [ctx for ctx in fields if "_logs" in vars(ctx)] == fields[-gf._LOG_FIELDS:]
    for ctx in fields:
        assert ctx.add(2, 3) == ctx._add_digits(2, 3)


def test_a_context_pickles_without_its_tables():
    # workers receive fields by pickle; the memoryviews of the log tables do
    # not pickle, and a field rebuilds its tables where it is used
    for p, k in [(3, 2), (7, 1)]:
        ctx = make_field(p, k)
        ctx.tables()
        ctx.mul(2, 3)
        back = pickle.loads(pickle.dumps(ctx))
        assert back == ctx and not {"_logs", "_tables"} & set(vars(back))
        assert back.mul(2, 3) == ctx.mul(2, 3)
        assert back.tables()[1].tolist() == ctx.tables()[1].tolist()


@pytest.mark.parametrize("p,k", [(2, 8), (251, 1), (2, 1), (3, 2), (13, 1)])
def test_tables_exact_at_the_top_of_the_flat_index(p, k):
    # the largest fields with tables, where the flat index x*q + y reaches
    # 65535 (q = 256) or 63000 (q = 251), and a few small ones: every entry
    # equals the scalar op
    t0 = time.perf_counter()
    ctx = make_field(p, k)
    q = ctx.q
    tables = ctx.tables()
    assert ctx.tables() is tables  # built once per field
    add, mul, sub, neg, inv, elements = tables
    for t in tables:
        assert t.dtype == np.uint16 and not t.flags.writeable
    assert elements.tolist() == list(range(q))
    assert neg.tolist() == [ctx.neg(x) for x in range(q)]
    assert inv.tolist() == [0] + [ctx.inv(x) for x in range(1, q)]
    pairs = [(x, y) for x in range(q) for y in range(q)]
    assert add.tolist() == [ctx.add(x, y) for x, y in pairs]
    assert mul.tolist() == [ctx.mul(x, y) for x, y in pairs]
    assert sub.tolist() == [ctx.sub(x, y) for x, y in pairs]
    # the last row and column, against the digit routines
    for x, y in pairs[-q:] + pairs[q - 1::q]:
        assert add[x * q + y] == ctx._add_digits(x, y)
        assert mul[x * q + y] == ctx._mul_digits(x, y)
    assert time.perf_counter() - t0 < 1


def test_fermat_lagrange():
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (13, 1)]:
        ctx = make_field(p, k)
        for x in range(1, ctx.q):
            assert ctx.pow(x, ctx.q - 1) == 1
            assert ctx.pow(x, -1) == ctx.inv(x)


def test_count_roots_examples():
    F5 = make_field(5, 1)
    # x^2 - 1 over F_5: scan all five elements by hand
    expected = sum(1 for x in range(5) if (x * x - 1) % 5 == 0)
    assert expected == 2
    assert count_roots([-1 % 5, 0, 1], F5) == 2
    # degree one always has exactly one root
    for p, k in [(2, 1), (3, 1), (2, 2), (7, 1), (3, 2)]:
        ctx = make_field(p, k)
        assert count_roots([1, 1], ctx) == 1
    # the non-PORC witness value at p = 31 = 2^2 + 27
    assert count_roots([1, 0, 0, 2], make_field(31, 1)) == 3


def test_count_roots_zero_poly_and_degree_bound():
    rng = random.Random(7)
    for p, k in [(3, 1), (2, 2), (5, 1), (3, 6)]:
        ctx = make_field(p, k)
        assert count_roots([], ctx) == ctx.q
        assert count_roots([0, 0], ctx) == ctx.q
        for _ in range(30):
            deg = rng.randrange(1, 5)
            coeffs = [rng.randrange(ctx.q) for _ in range(deg)] + [
                rng.randrange(1, ctx.q)]
            assert count_roots(coeffs, ctx) <= deg


def _poly_mul(f, g, ctx):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return out


def test_count_roots_of_products_is_union():
    rng = random.Random(99)
    for p, k in [(5, 1), (3, 1), (2, 2)]:
        ctx = make_field(p, k)
        for _ in range(40):
            f = [rng.randrange(ctx.q) for _ in range(3)] + [rng.randrange(1, ctx.q)]
            g = [rng.randrange(ctx.q) for _ in range(2)] + [rng.randrange(1, ctx.q)]
            fg = _poly_mul(f, g, ctx)
            roots_f = {x for x in range(ctx.q) if UniPoly.of(f).eval(ctx, x) == 0}
            roots_g = {x for x in range(ctx.q) if UniPoly.of(g).eval(ctx, x) == 0}
            assert count_roots(fg, ctx) == len(roots_f | roots_g)


def test_count_roots_fast_path_matches_scalar():
    # prime fields take the numpy mod-p Horner scan; at p = 101 no length
    # 2..8 reduces mod p inside the loop (101^9 < 2^63), at p = 8209 degrees
    # 4..7 do (8209^5 > 2^63), and p = 8209 scans one full block and a
    # 17-element tail
    rng = random.Random(3)
    for p, per_length in [(101, 20), (8209, 2)]:
        ctx = make_field(p, 1)
        for length in range(2, 9):
            for _ in range(per_length):
                coeffs = [rng.randrange(p) for _ in range(length)]
                slow = sum(1 for x in range(p)
                           if UniPoly.of(coeffs).eval(ctx, x) == 0)
                assert count_roots(coeffs, ctx) == slow, (p, coeffs)


def test_count_roots_exact_at_the_largest_prime():
    # near Q_LIMIT the prime-field scan reduces mod p once every two Horner
    # steps (p^4 > 2^63), which is exact only while p^3 + p < 2^63 for every
    # admissible p
    assert Q_LIMIT**3 + Q_LIMIT < 2**63
    p = 1048573  # the largest prime <= Q_LIMIT
    assert is_prime(p) and not any(is_prime(n) for n in range(p + 1, Q_LIMIT + 1))
    ctx = make_field(p, 1)
    roots = [p - 1, p - 2, p - 3, p - 1, p - 5, p - 8, p - 13, p - 21]
    f = [1]
    for deg, r in enumerate(roots, 1):
        f = _poly_mul(f, [ctx.neg(r), 1], ctx)  # times (x - r)
        assert count_roots(f, ctx) == len(set(roots[:deg])), deg


def _worst_case_polys(p, d, ctx):
    """Degree-d polynomials over F_p, low degree first: every coefficient
    p - 1, whose Horner values at x = p - 1 are the largest the scan can
    meet; the same with c_0 set so that p - 1 is a root; and the product of
    x - r for r = p - 1, p - 2, ... (mod p)."""
    top = [p - 1] * (d + 1)
    rooted = [-brute_poly_eval_fp([0] + top[1:], p - 1, p) % p] + top[1:]
    product = [1]
    for i in range(d):
        product = _poly_mul(product, [(1 + i) % p, 1], ctx)  # times x - (p-1-i)
    return [top, rooted, product]


def _roots_by_gcd(coeffs, p):
    """deg gcd(f, x^p - x) over F_p for f of degree >= 2: the distinct roots
    of f, by powering x mod f, with no evaluation of f."""
    lead = pow(coeffs[-1], p - 2, p)
    f = [c * lead % p for c in coeffs]  # monic
    h = gf._powmod([0, 1] + [0] * (len(f) - 3), p, f, p)
    h[1] = (h[1] - 1) % p
    return len(gf._poly_gcd_fp(f, h, p)) - 1


@pytest.mark.parametrize("p, d", [
    (2, 1), (2, 2), (2, 62), (2, 63), (2, 64), (3, 2), (3, 38), (3, 39), (3, 40),
    (6203, 4), (6211, 4), (6203, 5), (6211, 5),  # 6208.4^5 = 2^63
    (7129, 4), (7151, 4),  # 7131.6^5 = 2^64
    (55103, 3), (55109, 3), (55117, 3),  # 55109.0^4 = 2^63
    (55103, 4), (55109, 4), (55117, 4),
    (65521, 3), (65537, 3),  # 65536^4 = 2^64
    (1048573, 8)])  # the largest prime <= Q_LIMIT, reduced every two steps
def test_count_roots_at_the_reduction_thresholds(p, d):
    # the scan reduces mod p only before a step i < d whose bound p^(i+1)
    # passes 2^63, or before the last step if p^(d+1) passes 2^64, as the
    # zero test reads the last value as uint64: 55109 and 6211 are the first
    # primes it reduces for before an inner step (degree 4 and 5), 65537 and
    # 7151 the first it reduces for before the last step of a cubic and a
    # quartic, and at 65521 and 7129 the last value passes 2^63 unreduced
    # and is read back from the wrapped int64.  With every coefficient p - 1
    # the value at x = p - 1 reaches about p^(i+1) - i p^i after step i, past
    # 2^63 (2^64 at the last step) at 55117, 6211, 65537 and 7151 if a
    # reduction is skipped; the wrapped int64 then gives a wrong residue.
    # The reference shares no code with the numpy kernel: the UniPoly.eval
    # scan below 2^16, deg gcd(f, x^p - x) above
    ctx = make_field(p, 1)
    want_reduced = {(65521, 3): set(), (65537, 3): {3}, (7129, 4): set(), (7151, 4): {4},
                    (55103, 3): set(), (55117, 4): {3}, (6211, 5): {4}, (2, 63): set(),
                    (2, 64): {63}, (3, 39): set(), (3, 40): {39}}
    if (p, d) in want_reduced:
        assert gf._reductions(p, d) == want_reduced[p, d]
    polys = _worst_case_polys(p, d, ctx)
    assert brute_poly_eval_fp(polys[1], p - 1, p) == 0
    for f in polys:
        if p < 1 << 16:
            want = sum(1 for x in range(p) if UniPoly.of(f).eval(ctx, x) == 0)
        else:
            want = _roots_by_gcd(f, p)
        assert count_roots(f, ctx) == want, (p, d, f)


def test_count_roots_refuses_codes_outside_the_field():
    # over an extension field a coefficient is an element code: -1 was read
    # as 3 through log[-1] and 4 raised a bare IndexError on F_4; over a
    # prime field coefficients are integers read mod p
    F4 = make_field(2, 2)
    for bad in ([-1, 1], [4, 1], [1, 0, 4], [0, -3], [7]):
        with pytest.raises(ValueError):
            count_roots(bad, F4)
    assert count_roots([3, 1], F4) == 1  # x + 3 = x - 3
    assert count_roots([-1, 1], make_field(5, 1)) == 1
    assert count_roots([4, 1], make_field(2, 1)) == 1  # x + 4 = x over F_2
    # a constant multiple of p is the zero polynomial mod p, as [5, 10] is
    assert count_roots([5], make_field(5, 1)) == count_roots([5, 10], make_field(5, 1)) == 5


def test_count_roots_table_path_matches_scalar():
    # extension fields take the log-domain scan, and UniPoly.eval's ctx.add
    # and ctx.mul read the same log tables; F_17 takes the numpy mod-p scan
    rng = random.Random(5)
    for p, k in [(7, 2), (5, 2), (3, 3), (2, 5), (17, 1)]:
        ctx = make_field(p, k)
        for _ in range(25):
            coeffs = [rng.randrange(ctx.q) for _ in range(rng.randrange(1, 6))]
            slow = sum(1 for x in range(ctx.q)
                       if UniPoly.of(coeffs).eval(ctx, x) == 0)
            assert count_roots(coeffs, ctx) == slow, (p, k, coeffs)


def _digit_horner_roots(coeffs, ctx):
    """Roots in F_q by Horner's rule on the digit routines alone."""
    roots = 0
    for x in range(ctx.q):
        v = 0
        for c in reversed(coeffs):
            v = ctx._add_digits(ctx._mul_digits(v, x), c)
        roots += v == 0
    return roots


def test_count_roots_matches_the_digit_routines_on_every_extension_field():
    # the log-domain scan against a reference that shares nothing with the
    # log tables: random polynomials with zero coefficients (gaps, c_0 = 0,
    # trailing zeros), a product of linear factors with a repeated root and
    # the root 0, and x^(q-1) - 1, which vanishes on all of F_q^*
    rng = random.Random(21)
    fields = [make_field(p, k) for p in range(2, 32) if is_prime(p)
              for k in range(2, 11) if p**k <= 1024]
    assert len(fields) == 26
    for ctx in fields:
        q = ctx.q
        polys = []
        for _ in range(max(1, 256 // q)):
            deg = rng.randrange(1, 5)
            polys.append([rng.choice((0, rng.randrange(q))) for _ in range(deg)]
                         + [rng.randrange(1, q)] + [0] * rng.randrange(2))
        f, roots = [1], [0] + [rng.randrange(1, q) for _ in range(2)]
        for r in roots + roots[-1:]:  # times (x - r)
            f = [ctx._add_digits(a, ctx._mul_digits(ctx._neg_digits(r), b))
                 for a, b in zip([0] + f, f + [0])]
        assert count_roots(f, ctx) == _digit_horner_roots(f, ctx) == len(set(roots))
        if q <= 16:
            polys.append([ctx._neg_digits(1)] + [0] * (q - 2) + [1])
        for coeffs in polys:
            assert count_roots(coeffs, ctx) == _digit_horner_roots(coeffs, ctx), (q, coeffs)


def test_count_roots_refuses_a_context_beyond_the_exactness_cap():
    # FieldCtx is public, so a prime-field context can bypass make_field's cap;
    # past Q_LIMIT two Horner steps can overflow int64 and miscount silently
    p = 3000017
    assert is_prime(p) and p > Q_LIMIT
    ctx = FieldCtx(p=p, k=1, q=p, modulus=(0, 1))
    f = [p - 1]  # non-monic: (p - 1)(x - (p - 1))(x - (p - 2))(x - (p - 3))
    for r in (p - 1, p - 2, p - 3):
        f = _poly_mul(f, [ctx.neg(r), 1], ctx)
    with pytest.raises(TooLarge):
        count_roots(f, ctx)


@pytest.mark.parametrize("p", [8191, 8209, 16381, 16411, 65537, 1048573])
def test_count_roots_at_the_block_seams(p):
    # the prime-field scan runs in blocks of BLOCK elements; put roots on both
    # sides of the first two seams and at the end of the last, partial block
    # (65537 = 8 * BLOCK + 1 ends in a block of the one element p - 1)
    assert BLOCK == 1 << 13 and is_prime(p)
    ctx = make_field(p, 1)
    seams = [0, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1]
    roots = [r for r in seams if r < p] + [p - 1]
    f = [p - 1]  # a non-monic product, times (x - r) for r = roots, repeated
    for deg in range(1, 9):
        f = _poly_mul(f, [ctx.neg(roots[(deg - 1) % len(roots)]), 1], ctx)
        distinct = len(set(roots[:deg]))
        assert count_roots(f, ctx) == distinct, (p, deg)


def test_count_roots_memory_is_one_block():
    # a scan holds a few BLOCK-sized int64 arrays (64 KiB each), never
    # p-element ones (8 MiB each at p = 1048573)
    ctx = make_field(1048573, 1)
    count_roots([1, 0, 0, 2], ctx)  # numpy's own one-time allocations
    tracemalloc.start()
    try:
        count_roots([1, 0, 0, 2], ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def _mixed_batch(ctx, size, rng):
    """size polynomials over ctx, low degree first: degrees 1..4, 8 and 16
    with zero coefficients inside and at c_0, trailing zeros, the zero
    polynomial, constants, monomials, and one polynomial twice."""
    q = ctx.q
    batch = [[], [0, 0], [1], [q - 1, 0], [0, 1], [0, 0, 0, q - 1], [1, 0, 1]]
    while len(batch) < size - 1:
        deg = rng.choice((1, 2, 3, 4, 8, 16))
        batch.append([rng.choice((0, rng.randrange(q))) for _ in range(deg)]
                     + [rng.randrange(1, q)] + [0] * rng.randrange(2))
    return batch + [batch[-1]]


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (19, 1), (8209, 1),
                                  (2, 2), (2, 3), (3, 2), (2, 4), (3, 6)])
def test_count_roots_many_matches_count_roots(p, k):
    # a batch spans two row chunks of BLOCK // q polynomials (F_8209 and
    # F_729: one polynomial per chunk, over two element blocks at 8209);
    # every count must be count_roots' for the same polynomial alone
    ctx, rng = make_field(p, k), random.Random(p * 100 + k)
    batch = _mixed_batch(ctx, max(BLOCK // ctx.q, 2) + 40, rng)
    got = count_roots_many(batch, ctx)
    assert got == [count_roots(f, ctx) for f in batch]
    assert all(type(c) is int for c in got)
    assert count_roots_many([UniPoly.of(f) for f in batch[:20]], ctx) == got[:20]
    assert count_roots_many(iter(batch[:20]), ctx) == got[:20]
    assert count_roots_many([], ctx) == []


def test_count_roots_many_refuses_codes_outside_the_field():
    F4 = make_field(2, 4)
    for bad in ([-1, 1], [16, 1], [1, 0, 17]):
        with pytest.raises(ValueError):
            count_roots_many([[1, 1], bad], F4)
    assert count_roots_many([[-1, 1], [7, 1]], make_field(5, 1)) == [1, 1]


def test_count_roots_many_memory_is_one_block():
    # a batch holds a few arrays of at most BLOCK (polynomial, element)
    # entries, never one row per polynomial of the batch against the whole
    # field: 16 cubics over F_1048573 would take 128 MiB per array, 400 over
    # F_1021 or F_729 about 3 MiB
    rng = random.Random(11)
    for p, k, size in [(1048573, 1, 16), (1021, 1, 400), (3, 6, 400)]:
        ctx = make_field(p, k)
        batch = [[rng.randrange(ctx.q) for _ in range(3)] + [1] for _ in range(size)]
        count_roots_many(batch[:2], ctx)  # numpy's own one-time allocations
        tracemalloc.start()
        try:
            count_roots_many(batch, ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (ctx.q, peak)


def test_least_factor_matches_a_sieve():
    # 2, 3 and then d = 6k +- 1: every n in 2..2*10^5 against the least prime
    # factor a sieve of Eratosthenes records
    top = 2 * 10**5
    least = list(range(top + 1))
    for d in range(2, isqrt(top) + 1):
        if least[d] == d:
            for m in range(d * d, top + 1, d):
                least[m] = min(least[m], d)
    assert all(gf._least_factor(n) == least[n] for n in range(2, top + 1))


def _per_prime(int_coeffs, primes):
    return [count_roots([c % p for c in int_coeffs], make_field(p, 1)) for p in primes]


def test_count_roots_over_primes_matches_count_roots():
    # seeded integer polynomials of degree 1-5 with negative coefficients,
    # then the cases the shared scan meets without code of its own: leading
    # coefficients divisible by sampled primes (35 = 5 * 7, -5998 = -2 * 2999),
    # every coefficient divisible by 2, 3 and 5, integer roots (f(x) = 0
    # over the integers), constants and the zero polynomial
    rng = random.Random(26)
    primes = [p for p in range(2, 3000) if is_prime(p)]
    polys = [[rng.randint(-10**e, 10**e) for e in rng.choices(range(7), k=d + 1)]
             for d in rng.choices(range(1, 6), k=40)]
    polys += [[1, 0, 0, 35], [3, -7, 0, -5998], [-30, 0, 60], [30, -60, 0, 90],
              [-6, 11, -6, 1], [0, -4, 0, 1], [12, 0, 0, 0, -1], [7], [-30], [0], [],
              [1, 0, 0, 2, 0, 0]]
    assert any(c < 0 for f in polys[:40] for c in f)
    for f in polys:
        got = count_roots_over_primes(f, primes)
        assert got == _per_prime(f, primes), f
        assert all(type(c) is int for c in got), f
    # any order, repeats, p = 2 alone and no prime at all
    mixed = [7, 2, 7, 3]
    assert count_roots_over_primes([1, 1, 1], mixed) == _per_prime([1, 1, 1], mixed)
    assert count_roots_over_primes([1, 1, 1], iter([2])) == [0]
    assert count_roots_over_primes([0, 0, 1], [2]) == [1]
    assert count_roots_over_primes([3, 1], [2]) == [1]
    assert count_roots_over_primes([2, 4, 2], [2]) == [2]
    assert count_roots_over_primes([1, 0, 0, 2], []) == []


def test_count_roots_over_primes_at_the_int64_bound(monkeypatch):
    # a prime shares the scan while B(p) = sum |c_i| (p - 1)^i < 2^63, and
    # count_roots over make_field(p, 1) counts the rest: x^6 + x + 1 splits
    # at p = 1447 | 1451; x + c, x - c and -x - c put B(P) = 2^63 - 1, the
    # largest |f(x)| the scan may meet, at the prime P = 2999, and one more
    # in c puts B(P) at 2^63, which leaves P alone to count_roots; a
    # coefficient of 2^63 leaves every prime to it
    primes = [p for p in range(2, 3000) if is_prime(p)]
    P, big = 2999, (1 << 63) - 1
    cases = [([1, 1, 0, 0, 0, 0, 1], 1447), ([big - (P - 1), 1], P),
             ([-(big - (P - 1)), 1], P), ([-(big - (P - 1)), -1], P),
             ([big - (P - 2), 1], 2971),
             ([1, 1 << 63], None), ([1, 0, 0, 2], P)]
    real_count, real_scan = gf.count_roots, gf._scan_primes
    for f, last in cases:
        shared = [p for p in primes if gf._value_bound(f, p) < 1 << 63]
        assert (shared[-1] if shared else None) == last, f
        counted, scanned = [], []
        monkeypatch.setattr(gf, "count_roots",
                            lambda g, ctx: counted.append(ctx.p) or real_count(g, ctx))
        monkeypatch.setattr(gf, "_scan_primes",
                            lambda cs, ps: scanned.append(ps) or real_scan(cs, ps))
        got = count_roots_over_primes(f, primes)
        monkeypatch.undo()
        assert scanned == [shared] and counted == primes[len(shared):], f
        assert got == _per_prime(f, primes), f


@pytest.mark.parametrize("primes, error", [
    ([5, 7, 9, 11], NotPrime), ([2, 1], NotPrime), ([3, 0], NotPrime),
    ([-7], NotPrime), ([2, 1048583, 4], TooLarge), ([1048573, 1 << 21], TooLarge)])
def test_count_roots_over_primes_checks_every_prime_first(primes, error, monkeypatch):
    # as make_field(p, 1) would: TooLarge above Q_LIMIT (1048583 is the
    # least prime above it), NotPrime below it, before any root is counted
    def refuse(*args):
        raise AssertionError("counted before every prime was checked")

    monkeypatch.setattr(gf, "count_roots", refuse)
    monkeypatch.setattr(gf, "_scan_primes", refuse)
    with pytest.raises(error):
        count_roots_over_primes([1, 0, 0, 2], primes)


def test_count_roots_over_primes_memory_is_one_block():
    # the shared scan runs over every x below the largest prime, 1048573,
    # in blocks: a few BLOCK-sized arrays, never f over [0, p) (8 MiB)
    primes = [2, 3, 1048573]
    count_roots_over_primes([1, 0, 0, 2], primes)  # numpy's one-time allocations
    tracemalloc.start()
    try:
        counts = count_roots_over_primes([1, 0, 0, 2], primes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert counts == _per_prime([1, 0, 0, 2], primes)


def test_unipoly_degree():
    assert UniPoly.of([0, 0]).degree() is None
    assert UniPoly.of([1]).degree() == 0
    assert UniPoly.of([0, 2, 0]).degree() == 1


def test_big_extension_field_modulus_is_irreducible():
    # k = 4 exercises the gcd-based test; verify against a brute factor scan
    ctx = make_field(3, 4)
    p = 3
    mod = ctx.modulus

    # brute force: no monic divisor of degree 1 or 2 divides the modulus
    def poly_mod(num, den):
        num = list(num)
        while len(num) >= len(den) and any(num):
            while num and num[-1] == 0:
                num.pop()
            if len(num) < len(den):
                break
            c = num[-1] * pow(den[-1], p - 2, p) % p
            off = len(num) - len(den)
            for i, d in enumerate(den):
                num[off + i] = (num[off + i] - c * d) % p
        return num

    for deg in (1, 2):
        for tail in itertools.product(range(p), repeat=deg):
            den = list(tail) + [1]
            rem = poly_mod(list(mod), den)
            assert any(rem), f"{mod} divisible by {den}"


def test_embed_reduces_integer_literals():
    F9 = make_field(3, 2)
    assert F9.embed(5) == 2
    assert F9.embed(-1) == 2
    F7 = make_field(7, 1)
    assert F7.embed(10) == 3
