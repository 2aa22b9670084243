"""Exact arithmetic in finite fields F_q for prime powers q.

Elements of F_q (q = p^k) are encoded as plain integers 0..q-1, read as
base-p digit vectors of polynomial coefficients over F_p, low degree first.
0 is the additive identity and 1 the multiplicative identity.  A field is
fully described by a FieldCtx; all operations are pure functions of the
context and the operand encodings, so contexts can be shared freely across
threads and processes.  A code outside 0..q-1 is undefined input to the
scalar ops of FieldCtx, which do not check it, as they are the hot path;
count_roots and count_roots_many reduce integer coefficients mod p over a
prime field and raise ValueError for such a code over an extension field.

Roots are counted by exhaustive scan, never by factorisation.
count_roots(f, ctx) counts one polynomial's roots and count_roots_many
(polys, ctx) those of many over one field; both run the one blocked scan
that count_roots' docstring describes, and a batch shares each numpy call of
the scan among up to BLOCK (polynomial, element) entries.
count_roots_over_primes(int_coeffs, primes) counts one integer polynomial's
roots mod many primes: the primes for which f(x) stays exact in int64 share
one blocked evaluation of f over the integers and run only count_roots'
zero test on it, and the others go through count_roots.  None of them keeps
a count past its call.

An order q names a field when it is a prime power p^k <= Q_LIMIT = 2^20.
field_of_order(q), the one place that turns an order into its field, raises
TooLarge for any q > Q_LIMIT before it looks at q's factors, and ValueError
for a smaller q that is not a prime power.  make_field(p, k) also checks
p^k <= Q_LIMIT before it tests p for primality.

The extension modulus is always the lexicographically smallest monic
irreducible polynomial of the right degree (coefficients compared low to
high), which makes the encoding reproducible without external tables.

Except for a prime field's arithmetic mod p, a field is read through one
triple of int32 tables on the least generator g of F_q^*, n = q - 1, with
Z = 3n - 2 as the log of 0: exp[i] = g^(i mod n) for i < 2n; log[g^i] = i,
log[0] = Z; zech[i] = log(1 + g^(i mod n)) for i < Z (Z where 1 + g^i = 0),
and zech[Z] = log(1 + 0) = 0.  A sum of two logs indexes exp, and a log
difference plus n indexes zech, with no reduction mod n.  A field builds its
triple on first use; the last _LOG_FIELDS fields to do so keep theirs.  The
digit routines are the reference the tests check the triple against.

A field with q <= TABLE_LIMIT = 256 also has dense lookup tables, built once
per field by FieldCtx.tables(), the only place either enumerator gets them:
read-only uint16 numpy arrays add, mul and sub, flat, with the value at
(x, y) at index x*q + y, then neg, inv (inv[0] = 0) and the elements 0..q-1.
uint16 is exact for both uses: every value is an element below 256, and every
flat index x*q + y is at most 255*256 + 255 = 65535, so an index computed in
uint16 from uint16 rows of elements never wraps.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Largest field order; Q_LIMIT**3 < 2**63 lets count_roots reduce mod p at
# most once every two Horner steps.
Q_LIMIT = 1 << 20
# Largest q with dense lookup tables (see the module docstring).
TABLE_LIMIT = 256
# (polynomial, element) entries per block of a root scan: 64 KiB int64 arrays.
BLOCK = 1 << 13
# Most fields that keep their log tables at once (see FieldCtx._logs).
_LOG_FIELDS = 4
_held: list[FieldCtx] = []  # those fields, oldest first


class NotPrime(ValueError):
    pass


class TooLarge(ValueError):
    pass


class DegreeZero(ValueError):
    pass


class DivisionByZero(ZeroDivisionError):
    pass


def _least_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division by 2, 3 and the
    d = 6k +- 1, which include every prime above 3."""
    for d in (2, 3):
        if n % d == 0:
            return d
    d = 5
    while d * d <= n:
        if n % d == 0:
            return d
        if n % (d + 2) == 0:
            return d + 2
        d += 6
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and _least_factor(n) == n


@dataclass(frozen=True)
class FieldCtx:
    """A concrete finite field F_q, q = p^k, with integer-coded elements."""

    p: int
    k: int
    q: int
    modulus: tuple[int, ...]  # monic, degree k, coefficients low to high

    def __reduce__(self):  # pickle the field, not its cached tables
        return FieldCtx, (self.p, self.k, self.q, self.modulus)

    # -- element codec -------------------------------------------------

    def digits(self, x: int) -> list[int]:
        return [x // self.p**i % self.p for i in range(self.k)]

    def undigits(self, ds) -> int:
        return sum(d * self.p**i for i, d in enumerate(ds))

    def embed(self, n: int) -> int:
        """Reduce an integer literal into the prime subfield."""
        return n % self.p

    def elements(self) -> range:
        return range(self.q)

    # -- arithmetic ----------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.k == 1:
            return (x + y) % self.p
        if not (x and y):
            return x or y
        exp, log, zech = self._logs
        lx = log[x]
        s = zech[log[y] - lx + self.q - 1]  # log(1 + y/x)
        return 0 if s == len(zech) - 1 else exp[lx + s]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def neg(self, x: int) -> int:
        if self.k == 1:
            return (-x) % self.p
        if self.p == 2 or not x:
            return x
        exp, log, _ = self._logs
        return exp[log[x] + (self.q - 1) // 2]  # -1 = g^((q-1)/2)

    def mul(self, x: int, y: int) -> int:
        if self.k == 1:
            return (x * y) % self.p
        if not (x and y):
            return 0
        exp, log, _ = self._logs
        return exp[log[x] + log[y]]

    def _add_digits(self, x: int, y: int) -> int:
        return self.undigits((a + b) % self.p for a, b in zip(self.digits(x), self.digits(y)))

    def _neg_digits(self, x: int) -> int:
        return self.undigits((-a) % self.p for a in self.digits(x))

    def _mul_digits(self, x: int, y: int) -> int:
        return self.undigits(_poly_mulmod_fp(self.digits(x), self.digits(y),
                                             self.modulus, self.p))

    def inv(self, x: int) -> int:
        if x == 0:
            raise DivisionByZero(f"0 has no inverse in F_{self.q}")
        if self.k == 1:
            return pow(x, self.p - 2, self.p)
        exp, log, _ = self._logs
        return exp[self.q - 1 - log[x]]

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(x), -e)
        if self.k == 1 or not x:
            return pow(x, e, self.p)
        exp, log, _ = self._logs
        return exp[log[x] * e % (self.q - 1)]

    @cached_property
    def _logs(self):
        """(exp, log, zech) as memoryviews of int32 arrays (an index reads a
        Python int; .obj is the array); evicts the oldest of _held's fields."""
        _held.append(self)
        if len(_held) > _LOG_FIELDS:
            vars(_held.pop(0)).pop("_logs", None)
        return tuple(t.data for t in _log_tables(self))

    # -- dense tables for vectorised consumers -------------------------

    @cached_property
    def _tables(self):
        """tables()'s arrays, built once; None for q > TABLE_LIMIT.  MUL and INV
        come from exp and log, ADD and NEG from base-p digits, SUB from both."""
        q, p = self.q, self.p
        if q > TABLE_LIMIT:
            return None
        place = [p**i for i in range(self.k)]
        digits = np.array([self.digits(a) for a in range(q)])  # row a: digits of a
        add = ((digits[:, None, :] + digits[None, :, :]) % p * place).sum(axis=2)
        neg = ((p - digits) % p * place).sum(axis=1)
        exp, log = self._logs[0].obj, self._logs[1].obj[1:]
        mul = np.zeros((q, q), dtype=np.int64)
        mul[1:, 1:] = exp[log[:, None] + log[None, :]]
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = exp[q - 1 - log]
        out = tuple(t.astype(np.uint16).ravel() for t in (
            add, mul, add[:, neg], neg, inv, np.arange(q)))
        for t in out:
            t.flags.writeable = False
        return out

    def tables(self):
        """(ADD, MUL, SUB, NEG, INV, ELEMENTS), the field's lookup tables in
        the format of the module docstring; TooLarge for q > TABLE_LIMIT."""
        tables = self._tables
        if tables is None:
            raise TooLarge(f"no dense tables for q={self.q} > {TABLE_LIMIT}")
        return tables


# -- field construction -----------------------------------------------


def _poly_rem_fp(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b over F_p, b[-1] != 0, as len(b) - 1 coefficients low to high."""
    a, inv, d = list(a), pow(b[-1], p - 2, p), len(b) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] * inv % p
        if c:
            for j, bj in enumerate(b):
                a[i - d + j] = (a[i - d + j] - c * bj) % p
    return (a + [0] * d)[:d]


def _poly_gcd_fp(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd of a and b != 0 over F_p, low to high, with no leading zeros."""
    while any(b):
        while not b[-1]:
            b = b[:-1]
        a, b = b, _poly_rem_fp(a, b, p)
    return a


def _poly_mulmod_fp(a, b, mod, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_rem_fp(prod, mod, p)


def _powmod(a: list[int], e: int, mod, p: int) -> list[int]:
    """a^e reduced mod the given monic polynomial over F_p, low to high."""
    r = [1] + [0] * (len(mod) - 2)
    while e:
        if e & 1:
            r = _poly_mulmod_fp(r, a, mod, p)
        a = _poly_mulmod_fp(a, a, mod, p)
        e >>= 1
    return r


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """coeffs is monic of degree k >= 2, low-to-high.  Rabin's test:
    x^(p^k) = x mod f, and gcd(x^(p^(k/l)) - x, f) = 1 for each prime l | k."""
    if coeffs[0] == 0:
        return False  # divisible by x
    k = len(coeffs) - 1
    x = [0, 1] + [0] * (k - 2)
    if _powmod(x, p**k, coeffs, p) != x:
        return False
    for ell in [d for d in range(2, k + 1) if k % d == 0 and is_prime(d)]:
        h = _powmod(x, p ** (k // ell), coeffs, p)
        h[1] = (h[1] - 1) % p
        if len(_poly_gcd_fp(h, list(coeffs), p)) > 1:
            return False
    return True


def _log_tables(ctx: FieldCtx):
    """(exp, log, zech) of the module docstring for ctx, as int32 arrays.

    g is the least element with g^(n/r) != 1 for each prime r | n.  On digit
    rows, multiplication by g^B is a k x k matrix over F_p: doubling makes
    g^0 .. g^(B-1), B the least power of two >= min(n, BLOCK), and then each
    block of B powers is the last one times g^B.  1 + a differs from a only
    in its lowest digit, so zech is one vectorised step from exp and log.
    """
    p, k, q = ctx.p, ctx.k, ctx.q
    n = q - 1
    tests, m = [], n  # n // r for each prime r | n
    while m > 1:
        r = _least_factor(m)
        tests.append(n // r)
        while m % r == 0:
            m //= r
    one = [1] + [0] * (k - 1)
    g = next(g for g in range(p if k > 1 else 1, q)  # F_p's orders are < n
             if all(_powmod(ctx.digits(g), e, ctx.modulus, p) != one for e in tests))
    # row j: the digits of g x^j, so digits(a) @ step = digits(g a)
    step = np.array([ctx.digits(ctx._mul_digits(g, p**j)) for j in range(k)])
    rows = np.array([one])  # rows[i]: the digits of g^i
    while len(rows) < min(n, BLOCK):
        rows = np.concatenate([rows, rows @ step % p])
        step = step @ step % p
    place, exp = [p**i for i in range(k)], np.empty(2 * n, dtype=np.int32)
    for lo in range(0, n, len(rows)):
        exp[lo:lo + len(rows)] = rows @ place
        rows = rows @ step % p
    exp[n:] = exp[:n]
    log = np.empty(q, dtype=np.int32)
    log[exp[:n]] = np.arange(n)
    log[0] = zero = 3 * n - 2
    low = exp[:n] % p  # the lowest digits; zech ends in zech[zero] = log(1 + 0) = 0
    zech = np.append(np.resize(log[exp[:n] - low + (low + 1) % p], zero), np.int32(0))
    return exp, log, zech


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FieldCtx:
    """Deterministic context for F_(p^k); repeated calls share one object."""
    if k < 1:
        raise DegreeZero(f"extension degree must be >= 1, got {k}")
    q = p**k
    if q > Q_LIMIT:
        raise TooLarge(f"q = {p}^{k} exceeds the {Q_LIMIT} cap")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k == 1:
        return FieldCtx(p=p, k=1, q=q, modulus=(0, 1))
    for tail in itertools.product(range(p), repeat=k):
        cand = tuple(tail) + (1,)
        if _is_irreducible(cand, p):
            return FieldCtx(p=p, k=k, q=q, modulus=cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def field_of_order(q: int) -> FieldCtx:
    """make_field's context for F_q; the module docstring says which q fail."""
    if q > Q_LIMIT:
        raise TooLarge(f"field order {q} exceeds the {Q_LIMIT} cap")
    if q > 1:
        p, k = _least_factor(q), 1
        while p**k < q:
            k += 1
        if p**k == q:
            return make_field(p, k)
    raise ValueError(f"{q} is not a prime power")


# -- univariate polynomials and exhaustive root counting ----------------


@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial over a FieldCtx; coeffs[i] is the x^i term."""

    coeffs: tuple[int, ...]

    @staticmethod
    def of(coeffs) -> "UniPoly":
        return UniPoly(tuple(coeffs))

    def degree(self) -> int | None:
        """Largest index with nonzero coefficient, None for the zero poly."""
        return max((i for i, c in enumerate(self.coeffs) if c), default=None)

    def eval(self, ctx: FieldCtx, x: int) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = ctx.add(ctx.mul(v, x), c)
        return v


def count_roots(f, ctx: FieldCtx) -> int:
    """Number of x in F_q with f(x) = 0, by exhaustive scan over the field.

    The zero polynomial vanishes everywhere and returns q.  Over F_p the
    coefficients are integers read mod p; over an extension field each must
    be an element code in 0..q-1, or ValueError is raised.  The scan runs in
    blocks of at most BLOCK (polynomial, element) entries, whose 64 KiB
    arrays stay in cache and below malloc's mmap threshold, so a scan reuses
    heap memory.  Over F_p it is a Horner loop on an int64 block updated in
    place, one coefficient column per step, that skips the adds of a column
    that is zero in every row.  Its entries are below p^2 after the first
    step and grow by a factor p per step, so v is reduced mod p only before
    a step that could pass 2^63, or 2^64 for the last step, whose value the
    zero test reads as uint64: never for degree d while p^(d+1) <= 2^64 (a
    cubic up to p = 65521), every two steps near p = Q_LIMIT = 2^20 (a
    larger p raises TooLarge).  Past 2^63 the int64 product wraps mod 2^64,
    which the uint64 view reads back exactly.  A reduction is
    v - p * (v // p), exact for v >= 0 and faster in numpy than the
    remainder.  The zero test needs no division: for odd p, multiplication
    by p^-1 mod 2^64 maps the multiples of p in 0..2^64 - 1 onto
    0..(2^64 - 1) // p, so p | v iff v * p^-1 mod 2^64 is at most
    (2^64 - 1) // p (Granlund and Montgomery 1994, section 9); p = 2 tests
    v & 1.  Over an extension field 0 is a root iff c_0 = 0, and x = g^i
    runs Horner on logs: after the nonzero c_j the value is
    g^(log c_j + u), or 0 where u = Z, and the next nonzero c_j' makes it
    c_j' * (1 + g^(log c_j - log c_j' + u + (j - j') i)), one zech lookup;
    an index past Z clips to zech[Z] = 0.  The scan is the ground truth of
    the package; it is never replaced by factorisation.
    count_roots_over_primes runs the same zero test for many primes on
    integer values of f that it evaluates once for all of them.
    """
    return _count_roots([f], ctx)[0]


def count_roots_many(polys, ctx: FieldCtx) -> list[int]:
    """[count_roots(f, ctx) for f in polys], counted in one blocked scan.

    A block is up to BLOCK // w polynomials against a run of w elements,
    w = min(p, BLOCK) over F_p and min(q - 1, BLOCK) over an extension
    field, so a batch over a small field shares each numpy call of the scan
    among many polynomials.  Over F_p the rows are padded with leading zeros
    to the batch's largest degree, which sets the reduction schedule, and a
    coefficient column is added only where some row has it nonzero.  Over
    an extension field the rows with the same nonzero positions form a group
    with the same exponent steps, and each row has its own log offsets:
    zech.take(offset + u + e, mode="clip").  Each polynomial is counted as
    given; removing repeats is the caller's part.
    """
    return _count_roots(polys, ctx)


def _count_roots(polys, ctx: FieldCtx) -> list[int]:
    """The root scan behind count_roots and count_roots_many."""
    q, prime = ctx.q, ctx.k == 1
    out, rows = [], []  # rows: the polynomials of degree >= 1, trimmed
    for f in polys:
        cs = f.coeffs if isinstance(f, UniPoly) else tuple(f)
        if cs and (min(cs) < 0 or max(cs) >= q):
            if not prime:
                raise ValueError(f"a coefficient of {tuple(cs)} is no element code of F_{q}")
            cs = [c % q for c in cs]
        d = len(cs)
        while d and not cs[d - 1]:
            d -= 1
        if d > 1:
            rows.append(cs[:d])
        out.append(None if d > 1 else 0 if d else q)  # None: scanned below
    if rows:
        if prime and q > Q_LIMIT:
            raise TooLarge(f"root counting over F_{q} needs p <= {Q_LIMIT}")
        counts = iter((_scan_fp if prime else _scan_fq)(rows, ctx))
        out = [next(counts) if c is None else c for c in out]
    return out


def count_roots_over_primes(int_coeffs, primes) -> list[int]:
    """[count_roots([c % p for c in int_coeffs], make_field(p, 1)) for p in
    primes]: the roots in F_p of one integer polynomial (low degree first)
    for every p, counted in one exhaustive scan that all small primes share.

    Every p is checked before anything is counted, as make_field(p, 1)
    checks it: TooLarge above Q_LIMIT, then NotPrime.  A prime p with
    B(p) = sum |c_i| (p - 1)^i < 2^63 shares the scan: B(p) bounds |f(x)|
    and every Horner intermediate for 0 <= x < p, so f(x) is evaluated once
    per block of BLOCK consecutive x, in exact int64 with the coefficients
    unreduced, and each such prime above the block's start runs count_roots'
    zero test (by p^-1 mod 2^64, p = 2 by the low bit) on |f(x)| for its
    x < p.  p | f(x) over the integers iff f(x) = 0 mod p, so a leading
    coefficient divisible by p, a polynomial that vanishes mod p and integer
    roots need nothing of their own.  B increases with p: the primes at or
    above the bound are the tail of the sorted primes past one bisection,
    and each is counted by count_roots over make_field(p, 1).  Memory is a
    few BLOCK-sized arrays, whatever the largest prime.  Every x in F_p is
    tested for every p; nothing is factored.
    """
    primes = list(primes)
    distinct = dict.fromkeys(primes)
    for p in distinct:
        if p > Q_LIMIT:
            raise TooLarge(f"q = {p}^1 exceeds the {Q_LIMIT} cap")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
    cs = [int(c) for c in int_coeffs]
    while cs and not cs[-1]:
        cs.pop()
    if len(cs) < 2:  # a constant c: every x is a root mod the p dividing c
        return [0 if cs and cs[0] % p else p for p in primes]
    ps = sorted(distinct)
    split = bisect_left(ps, 1 << 63, key=lambda p: _value_bound(cs, p))
    counts = dict(zip(ps[:split], _scan_primes(cs, ps[:split])))
    for p in ps[split:]:
        counts[p] = count_roots([c % p for c in cs], make_field(p, 1))
    return [counts[p] for p in primes]


def _value_bound(cs, p: int) -> int:
    """B(p) = sum |c_i| (p - 1)^i, which bounds |f(x)| and every Horner
    intermediate of f = cs for 0 <= x < p."""
    b = 0
    for c in reversed(cs):
        b = b * (p - 1) + abs(c)
    return b


def _scan_primes(cs, primes) -> list[int]:
    """Roots mod each of primes (ascending, each with _value_bound(cs, p) <
    2^63) of the integer polynomial cs (degree >= 1), in the one scan of
    count_roots_over_primes' docstring."""
    if not primes:
        return []
    lead, *rest = cs[::-1]
    # p^-1 mod 2^64 (0 for p = 2) and (2^64 - 1) // p for each prime
    pinvs = np.fromiter((pow(p, -1, 1 << 64) if p > 2 else 0 for p in primes),
                        dtype=np.uint64, count=len(primes))
    tops = np.uint64((1 << 64) - 1) // np.array(primes, dtype=np.uint64)
    zeros = [0] * len(primes)
    v, t = np.empty(BLOCK, dtype=np.int64), np.empty(BLOCK, dtype=np.uint64)
    u, hit = v.view(np.uint64), np.empty(BLOCK, dtype=bool)
    end = primes[-1]
    for lo in range(0, end, BLOCK):
        n = min(BLOCK, end - lo)
        x = np.arange(lo, lo + n, dtype=np.int64)
        f = np.multiply(x, lead, out=v[:n])
        for i, c in enumerate(rest, 1):
            if c:
                f += c
            if i < len(rest):
                f *= x
        np.abs(f, out=f)  # |f(x)| < 2^63, read below as uint64
        for j in range(bisect_right(primes, lo), len(primes)):
            k = min(n, primes[j] - lo)  # the block's x < p
            if primes[j] == 2:
                zeros[j] += k - int(np.count_nonzero(u[:k] & 1))
            else:  # p | v iff v * p^-1 mod 2^64 <= (2^64 - 1) // p
                np.multiply(u[:k], pinvs[j], out=t[:k])
                zeros[j] += int(np.count_nonzero(np.less_equal(t[:k], tops[j], out=hit[:k])))
    return zeros


def _columns(chunk):
    """(columns, live, axis) of equal-length rows: the columns as (rows, 1)
    int64 arrays, or ints for a single row, which numpy broadcasts faster;
    whether each column has a nonzero entry; and the axis along which a
    mask of the block counts per row (None: one row, counted whole)."""
    if len(chunk) == 1:
        return chunk[0], chunk[0], None
    live = [any(col) for col in zip(*chunk)]
    return np.array(chunk, dtype=np.int64).T[:, :, None], live, 1


def _reductions(p: int, d: int) -> set[int]:
    """The Horner steps 2..d of a degree-d scan over F_p before which v is
    reduced mod p: those where v could pass 2^63, or 2^64 at the last step.
    Its entries are below `bound`, p^2 after the first step and p times that
    per step."""
    reduce, bound = set(), p * p
    for i in range(2, d + 1):
        if bound * p > 1 << (64 if i == d else 63):
            reduce.add(i)
            bound = p
        bound *= p
    return reduce


def _scan_fp(rows, ctx: FieldCtx) -> list[int]:
    """Roots in F_p of each of rows (coefficients low to high, reduced mod p,
    degree >= 1), as in count_roots' docstring."""
    p = ctx.p
    d = max(map(len, rows)) - 1
    reduce = _reductions(p, d)
    pinv = pow(p, -1, 1 << 64) if p > 2 else 0
    top, width = ((1 << 64) - 1) // p, min(p, BLOCK)
    height, out = max(1, BLOCK // width), []  # rows x width <= BLOCK
    for r0 in range(0, len(rows), height):
        # leading coefficient first, padded to degree d
        chunk = [[0] * (d + 1 - len(r)) + list(r[::-1]) for r in rows[r0:r0 + height]]
        (c, live, axis), zeros = _columns(chunk), 0
        for lo in range(0, p, width):
            x = np.arange(lo, min(lo + width, p), dtype=np.int64)
            v = x * c[0]
            if live[1]:
                v += c[1]
            t = np.empty_like(v) if reduce else None
            for i in range(2, d + 1):
                if i in reduce:
                    np.floor_divide(v, p, out=t)
                    t *= p
                    v -= t
                v *= x
                if live[i]:
                    v += c[i]
            if p == 2:
                zeros += np.count_nonzero((v & 1) == 0, axis=axis)
            else:  # v < 2^64 as uint64: p | v iff v * p^-1 mod 2^64 <= top
                u = v.view(np.uint64)
                u *= np.uint64(pinv)
                zeros += np.count_nonzero(u <= top, axis=axis)
        out.extend(zeros.tolist() if axis else [int(zeros)])
    return out


def _scan_fq(rows, ctx: FieldCtx) -> list[int]:
    """Roots in F_q, q = p^k with k > 1, of each of rows (element codes low to
    high, degree >= 1), as in count_roots' docstring: one log-domain Horner
    scan per group of rows with the same nonzero positions."""
    _, log, zech = ctx._logs
    zech, n = zech.obj, ctx.q - 1
    groups: dict[tuple[int, ...], list[int]] = {}  # nonzero positions -> rows
    for r, cs in enumerate(rows):
        groups.setdefault(tuple([j for j, c in enumerate(cs) if c]), []).append(r)
    width = min(n, BLOCK)
    height, out = max(1, BLOCK // width), [1] * len(rows)  # c x^j: x = 0 only
    for js, members in groups.items():
        if len(js) == 1:
            continue
        js = js[::-1]  # leading first
        steps = list(zip(js, js[1:]))
        # log c_j - log c_j' for each step from the nonzero c_j to c_j'
        shifts = [[(log[rows[r][j]] - log[rows[r][j2]]) % n for j, j2 in steps]
                  for r in members]
        for r0 in range(0, len(members), height):
            (s, _, axis), zeros = _columns(shifts[r0:r0 + height]), 0
            for lo in range(0, n, width):
                i = np.arange(lo, min(lo + width, n))
                u = 0
                for shift, (j, j2) in zip(s, steps):
                    e = i if j - j2 == 1 else i * (j - j2) % n
                    u = zech.take(shift + u + e, mode="clip")
                zeros += np.count_nonzero(u == len(zech) - 1, axis=axis)
            zeros = zeros.tolist() if axis else [int(zeros)]
            for r, z in zip(members[r0:r0 + height], zeros):
                out[r] = z + (js[-1] > 0)  # 0 is a root iff c_0 = 0
    return out
