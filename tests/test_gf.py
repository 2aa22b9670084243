import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest

from math import isqrt

from fqzeta import gf
from fqzeta.gf import (BLOCK, Q_LIMIT, TABLE_LIMIT, DegreeZero,
                       DivisionByZero, FieldCtx, NotPrime, TooLarge, UniPoly,
                       count_roots, field_of_order, is_prime, make_field)


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
    # extension fields with q <= 256 read add/mul/neg from tables built once
    # (mul from a generator's log/antilog tables, add and neg from a numpy
    # digit sum); the digit routines are the reference they are checked against
    for p, k in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3),
                 (5, 2), (7, 2)]:
        ctx = make_field(p, k)
        assert ctx.q <= 64
        for x in range(ctx.q):
            assert ctx.neg(x) == ctx._neg_digits(x)
            for y in range(ctx.q):
                assert ctx.add(x, y) == ctx._add_digits(x, y)
                assert ctx.mul(x, y) == ctx._mul_digits(x, y)
    for p, k in [(5, 3), (2, 7), (3, 5), (2, 8)]:
        ctx = make_field(p, k)
        assert ctx._lists is not None and ctx.q <= TABLE_LIMIT
        rng = random.Random(ctx.q)
        for x in range(ctx.q):
            assert ctx.neg(x) == ctx._neg_digits(x)
        for _ in range(5000):
            x, y = rng.randrange(ctx.q), rng.randrange(ctx.q)
            assert ctx.add(x, y) == ctx._add_digits(x, y)
            assert ctx.mul(x, y) == ctx._mul_digits(x, y)


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
    # prime fields take the numpy mod-p Horner scan; lengths 2..8 run both
    # parities of its reduce-every-two-steps schedule, and p = 8209 scans one
    # full block and a 17-element tail
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
    # the prime-field scan reduces mod p once every two Horner steps, which
    # is exact only while p^3 + p < 2^63 for every admissible p
    assert Q_LIMIT**3 + Q_LIMIT < 2**63
    p = 1048573  # the largest prime <= Q_LIMIT
    assert is_prime(p) and not any(is_prime(n) for n in range(p + 1, Q_LIMIT + 1))
    ctx = make_field(p, 1)
    roots = [p - 1, p - 2, p - 3, p - 1, p - 5, p - 8, p - 13, p - 21]
    f = [1]
    for deg, r in enumerate(roots, 1):
        f = _poly_mul(f, [ctx.neg(r), 1], ctx)  # times (x - r)
        assert count_roots(f, ctx) == len(set(roots[:deg])), deg


def test_count_roots_table_path_matches_scalar():
    # extension fields take the scalar Horner scan through ctx.add/ctx.mul
    # (table scalars for these q <= 256); F_17 takes the numpy mod-p scan
    rng = random.Random(5)
    for p, k in [(7, 2), (5, 2), (3, 3), (2, 5), (17, 1)]:
        ctx = make_field(p, k)
        for _ in range(25):
            coeffs = [rng.randrange(ctx.q) for _ in range(rng.randrange(1, 6))]
            slow = sum(1 for x in range(ctx.q)
                       if UniPoly.of(coeffs).eval(ctx, x) == 0)
            assert count_roots(coeffs, ctx) == slow, (p, k, coeffs)


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
