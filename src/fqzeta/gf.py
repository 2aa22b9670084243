"""Exact arithmetic in finite fields F_q for prime powers q.

Elements of F_q (q = p^k) are encoded as plain integers 0..q-1, read as
base-p digit vectors of polynomial coefficients over F_p, low degree first.
0 is the additive identity and 1 the multiplicative identity.  A field is
fully described by a FieldCtx; all operations are pure functions of the
context and the operand encodings, so contexts can be shared freely across
threads and processes.

An order q names a field when it is a prime power p^k <= Q_LIMIT = 2^20.
field_of_order(q), the one place that turns an order into its field, raises
TooLarge for any q > Q_LIMIT before it looks at q's factors, and ValueError
for a smaller q that is not a prime power.  make_field(p, k) also checks
p^k <= Q_LIMIT before it tests p for primality.

The extension modulus is always the lexicographically smallest monic
irreducible polynomial of the right degree (coefficients compared low to
high), which makes the encoding reproducible without external tables.

A field with q <= TABLE_LIMIT = 256 also has dense lookup tables, built once
per field by FieldCtx.tables(), the only place either enumerator gets them:
read-only uint16 numpy arrays add, mul and sub, flat, with the value at
(x, y) at index x*q + y, then neg, inv (inv[0] = 0) and the elements 0..q-1.
uint16 is exact for both uses: every value is an element below 256, and every
flat index x*q + y is at most 255*256 + 255 = 65535, so an index computed in
uint16 from uint16 rows of elements never wraps.  The scalar add, neg and mul
of extension fields read nested-list copies of the same tables.

count_roots scans the whole field.  On a prime field it evaluates the
polynomial in blocks of BLOCK consecutive elements, by Horner's rule on int64
numpy vectors updated in place, reducing mod p only once every two steps; since
p <= Q_LIMIT = 2^20, entries stay below p^3 < 2^63 between reductions.  A
reduction is v - p * (v // p), exact for v >= 0, because numpy's floor
division by a scalar is several times faster than its remainder.  Each block's
arrays are 64 KiB: they stay in cache, and they sit below malloc's mmap
threshold, so a scan reuses heap memory instead of mapping (and faulting in)
fresh pages on every call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Largest field order; count_roots relies on Q_LIMIT**3 < 2**63.
Q_LIMIT = 1 << 20
# Largest q with dense lookup tables (see the module docstring).
TABLE_LIMIT = 256
# Field elements per block of the prime-field root scan: 64 KiB int64 arrays.
BLOCK = 1 << 13


class NotPrime(ValueError):
    pass


class TooLarge(ValueError):
    pass


class DegreeZero(ValueError):
    pass


class DivisionByZero(ZeroDivisionError):
    pass


def _least_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
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

    # -- element codec -------------------------------------------------

    def digits(self, x: int) -> list[int]:
        out = []
        for _ in range(self.k):
            x, r = divmod(x, self.p)
            out.append(r)
        return out

    def undigits(self, ds) -> int:
        x = 0
        for d in reversed(ds):
            x = x * self.p + d
        return x

    def embed(self, n: int) -> int:
        """Reduce an integer literal into the prime subfield."""
        return n % self.p

    def elements(self) -> range:
        return range(self.q)

    # -- arithmetic ----------------------------------------------------
    #
    # Extension fields with q <= TABLE_LIMIT read the list copies of the
    # tables in _lists; the digit routines serve larger extension fields and
    # are the reference the tables are tested against.

    def add(self, x: int, y: int) -> int:
        if self.k == 1:
            return (x + y) % self.p
        lists = self._lists
        return lists[0][x][y] if lists else self._add_digits(x, y)

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def neg(self, x: int) -> int:
        if self.k == 1:
            return (-x) % self.p
        lists = self._lists
        return lists[2][x] if lists else self._neg_digits(x)

    def mul(self, x: int, y: int) -> int:
        if self.k == 1:
            return (x * y) % self.p
        lists = self._lists
        return lists[1][x][y] if lists else self._mul_digits(x, y)

    def _add_digits(self, x: int, y: int) -> int:
        p = self.p
        return self.undigits([(a + b) % p for a, b in zip(self.digits(x), self.digits(y))])

    def _neg_digits(self, x: int) -> int:
        p = self.p
        return self.undigits([(-a) % p for a in self.digits(x)])

    def _mul_digits(self, x: int, y: int) -> int:
        return self.undigits(_poly_mulmod_fp(self.digits(x), self.digits(y),
                                             self.modulus, self.p))

    def inv(self, x: int) -> int:
        if x == 0:
            raise DivisionByZero(f"0 has no inverse in F_{self.q}")
        if self.k == 1:
            return pow(x, self.p - 2, self.p)
        return self.pow(x, self.q - 2)

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(x), -e)
        r = 1
        b = x
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    # -- dense tables for vectorised consumers -------------------------

    @cached_property
    def _tables(self):
        """tables()'s arrays, built once; None for q > TABLE_LIMIT.  MUL and
        INV are read off the log/antilog tables of a generator of F_q^*
        (q - 1 digit products); ADD and NEG come from one numpy sum over the
        q x k matrix of base-p digits, and SUB from ADD and NEG."""
        q, p = self.q, self.p
        if q > TABLE_LIMIT:
            return None
        place = [p**i for i in range(self.k)]
        digits = np.array([self.digits(a) for a in range(q)])  # row a: digits of a
        add = ((digits[:, None, :] + digits[None, :, :]) % p * place).sum(axis=2)
        neg = ((p - digits) % p * place).sum(axis=1)
        power = np.array(self._generator_powers())  # power[i] = g^i
        log = np.zeros(q, dtype=np.int64)  # log[g^i] = i; log[0] is unused
        log[power] = np.arange(q - 1)
        mul = np.zeros((q, q), dtype=np.int64)
        mul[1:, 1:] = power[(log[1:, None] + log[None, 1:]) % (q - 1)]
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = power[-log[1:] % (q - 1)]
        out = tuple(t.astype(np.uint16).ravel() for t in (
            add, mul, add[:, neg], neg, inv, np.arange(q)))
        for t in out:
            t.flags.writeable = False
        return out

    def _generator_powers(self) -> list[int]:
        """[g^0, ..., g^(q-2)] for the least generator g of F_q^*, by the
        digit routines."""
        for g in range(1, self.q):
            powers = [1]
            x = g
            while x != 1:
                powers.append(x)
                x = self._mul_digits(x, g)
            if len(powers) == self.q - 1:
                return powers
        raise AssertionError("F_q^* is cyclic")  # unreachable

    @cached_property
    def _lists(self):
        """(ADD, MUL, NEG) of tables() as nested lists, for the scalar ops;
        None for q > TABLE_LIMIT."""
        if self._tables is None:
            return None
        q = self.q
        add, mul, _, neg, _, _ = self._tables
        return add.reshape(q, q).tolist(), mul.reshape(q, q).tolist(), neg.tolist()

    def tables(self):
        """(ADD, MUL, SUB, NEG, INV, ELEMENTS), the field's lookup tables in
        the format of the module docstring; TooLarge for q > TABLE_LIMIT."""
        tables = self._tables
        if tables is None:
            raise TooLarge(f"no dense tables for q={self.q} > {TABLE_LIMIT}")
        return tables


# -- field construction -----------------------------------------------


def _poly_gcd_fp(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = [c % p for c in a], [c % p for c in b]
    while any(b):
        while b and b[-1] == 0:
            b.pop()
        if not b:
            break
        # a mod b
        inv_lead = pow(b[-1], p - 2, p)
        a = a[:]
        while len(a) >= len(b) and any(a):
            while a and a[-1] == 0:
                a.pop()
            if len(a) < len(b):
                break
            c = a[-1] * inv_lead % p
            off = len(a) - len(b)
            for i, bi in enumerate(b):
                a[off + i] = (a[off + i] - c * bi) % p
        a, b = b, a
    return a


def _poly_mulmod_fp(a, b, mod, p):
    k = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i in range(k):
                prod[d - k + i] = (prod[d - k + i] - c * mod[i]) % p
    out = prod[:k]
    out += [0] * (k - len(out))
    return out


def _xq_pow_mod(mod: list[int], p: int, e: int) -> list[int]:
    """x^(p^e) reduced mod the given monic polynomial over F_p."""
    k = len(mod) - 1
    r = [0, 1] if k > 1 else [0]
    r += [0] * (k - len(r))
    for _ in range(e):
        # raise to the p-th power by square-and-multiply
        acc = [1] + [0] * (k - 1)
        base = r
        n = p
        while n:
            if n & 1:
                acc = _poly_mulmod_fp(acc, base, mod, p)
            base = _poly_mulmod_fp(base, base, mod, p)
            n >>= 1
        r = acc
    return r


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """coeffs is monic of degree k >= 2, low-to-high."""
    k = len(coeffs) - 1
    if coeffs[0] == 0:
        return False  # divisible by x
    mod = list(coeffs)
    # Rabin: x^(p^k) == x, and gcd(x^(p^(k/l)) - x, f) = 1 for prime l | k
    xpk = _xq_pow_mod(mod, p, k)
    minus_x = xpk[:]
    minus_x[1] = (minus_x[1] - 1) % p
    if any(minus_x):
        return False
    for ell in [d for d in range(2, k + 1) if k % d == 0 and is_prime(d)]:
        g = _xq_pow_mod(mod, p, k // ell)
        g = g[:]
        g[1] = (g[1] - 1) % p
        if len(_poly_gcd_fp(g, mod, p)) > 1:
            return False
    return True


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
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return None

    def eval(self, ctx: FieldCtx, x: int) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = ctx.add(ctx.mul(v, x), c)
        return v


def count_roots(f, ctx: FieldCtx) -> int:
    """Number of x in F_q with f(x) = 0, by exhaustive scan over the field.

    The zero polynomial vanishes everywhere and returns q.  Prime fields scan
    F_p in blocks of BLOCK consecutive elements, each with a numpy Horner loop
    over an int64 vector updated in place: the coefficients are reduced mod p
    once, and the vector is reduced mod p only once every two Horner steps and
    at the end.  That is exact because p <= Q_LIMIT = 2^20: from a reduced
    vector (entries < p) two steps stay below p^3 < 2^63, so a context with a
    larger p raises TooLarge.  Each reduction is v - p * (v // p), exact since
    v >= 0, and the block's roots are the entries with v == p * (v // p) after
    the last step.  Extension fields run the scalar Horner loop of
    UniPoly.eval through ctx.add and ctx.mul.  The scan is the unconditional
    ground truth used by everything else in the package; it is never replaced
    by factorisation.
    """
    poly = f if isinstance(f, UniPoly) else UniPoly.of(f)
    deg = poly.degree()
    if deg is None:
        return ctx.q
    if deg == 0:
        return 0
    if ctx.k == 1:
        p = ctx.p
        if p > Q_LIMIT:
            raise TooLarge(f"root counting over F_{p} needs p <= {Q_LIMIT}")
        c = [a % p for a in reversed(poly.coeffs[: deg + 1])]  # leading first
        zeros = 0
        for lo in range(0, p, BLOCK):
            x = np.arange(lo, min(lo + BLOCK, p), dtype=np.int64)
            # Horner from the reduced value c[0]; every entry of v is < p after
            # a reduction, so the two steps that follow stay below p^3 < 2^63
            v = x * c[0]
            v += c[1]
            t = np.empty_like(v)
            for i in range(2, deg + 1):
                if i % 2:
                    np.floor_divide(v, p, out=t)
                    t *= p
                    v -= t
                v *= x
                v += c[i]
            np.floor_divide(v, p, out=t)
            t *= p
            zeros += int(np.count_nonzero(v == t))
        return zeros
    return sum(1 for x in range(ctx.q) if poly.eval(ctx, x) == 0)
