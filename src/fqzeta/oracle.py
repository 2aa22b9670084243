"""Brute-force subspace oracle, independent of the diagonal-cell route.

Subspaces are generated as reduced row echelon bases, one Schubert cell per
pivot-column set, and closure is decided by explicit span membership: reduce
each required bracket against the basis rows (the coefficient on row t is the
bracket's coordinate at pivot t, because RREF clears pivot columns) and check
that the residual vanishes.  Nothing here touches the RRDF machinery; the two
routes only share the field arithmetic itself.

The batched count binds the free entries of a cell one at a time, in
row-major order.  After each binding it runs every membership test (one
bracket, one non-pivot column) whose highest free entry is now bound, then
expands only the survivors by q.  A test that reads no free entry is one
field constant, decided with ctx.add before the scan starts.  The scan holds
the bracket coordinates of one basis pair at a time.  Rows are int16 and
field arithmetic is a flat gather, table.take(a*q + b), on tables built once
per field; a*q + b stays below 256 because q <= MAX_Q = 16.

The tests depend on the algebra only through its structure constants.  A
template built once per (pivots, n, kind), on first use, and cached for the
life of the process records which bracket slot [e_u, e_v] feeds which
monomial of which basis pair, and the residual terms each non-pivot column
may need; each algebra fills it in by walking its nonzero structure
constants sc[u][v][d].
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce

import numpy as np

from .liealg import LieAlgebra
from .zetapoly import ZetaPoly

MAX_N = 5
MAX_Q = 16


class GuardExceeded(ValueError):
    pass


def _rref_free_positions(pivots: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """(row, col) slots that vary freely for this pivot set, row-major."""
    pivot_set = set(pivots)
    return [(i, c) for i, p in enumerate(pivots)
            for c in range(p + 1, n) if c not in pivot_set]


def _span_contains(rows, pivots, w, ctx) -> bool:
    resid = list(w)
    for t, p in enumerate(pivots):
        c = resid[p]
        if c:
            row = rows[t]
            resid = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(resid, row)]
    return not any(resid)


def _closed_scalar(L: LieAlgebra, rows, pivots, kind: str) -> bool:
    ctx = L.ctx
    if kind == "subalgebra":
        k = len(rows)
        for i in range(k):
            for j in range(i + 1, k):
                w = L.bracket(rows[i], rows[j])
                if not _span_contains(rows, pivots, w, ctx):
                    return False
        return True
    amb = L.basis()
    for bi in rows:
        for e in amb:
            w = L.bracket(bi, e)
            if not _span_contains(rows, pivots, w, ctx):
                return False
    return True


def _count_cell_scalar(L: LieAlgebra, pivots, kind: str) -> int:
    ctx = L.ctx
    n = L.n
    free = _rref_free_positions(pivots, n)
    count = 0
    for assign in itertools.product(range(ctx.q), repeat=len(free)):
        rows = [[0] * n for _ in pivots]
        for t, p in enumerate(pivots):
            rows[t][p] = 1
        for (i, c), v in zip(free, assign):
            rows[i][c] = v
        if _closed_scalar(L, rows, pivots, kind):
            count += 1
    return count


@lru_cache(maxsize=None)  # keyed by shape only: at most 2 * 2^n entries per n
def _template(pivots: tuple[int, ...], n: int, kind: str):
    """The algebra-free part of a cell's membership tests:
    (free-entry count, pair count, feeds, candidates).

    feeds[u*n + v] lists the (pair, variables) slots that the bracket
    [e_u, e_v] feeds: each pair of bracketed vectors whose entries at u and
    v are 1 or a free variable, with those variables.  candidates lists, for
    each non-pivot column c, the residual terms (pivot column p_t, variable
    of b_t[c]) its tests may need.
    """
    free = _rref_free_positions(pivots, n)
    var_of = {pos: t for t, pos in enumerate(free)}
    # nonzero entries of each basis row: (column, free variable or None for 1)
    rows = [[(p, None)] + [(c, var_of[(i, c)]) for c in range(p + 1, n)
                           if (i, c) in var_of]
            for i, p in enumerate(pivots)]
    if kind == "subalgebra":
        pairs = [(rows[i], rows[j]) for i in range(len(rows))
                 for j in range(i + 1, len(rows))]
    else:
        pairs = [(x, [(j, None)]) for x in rows for j in range(n)]
    feeds: list[list] = [[] for _ in range(n * n)]
    for pair, (x, y) in enumerate(pairs):
        for u, tu in x:
            for v, tv in y:
                feeds[u * n + v].append(
                    (pair, tuple(t for t in (tu, tv) if t is not None)))
    candidates = tuple(
        (c, tuple((p, var_of[(t, c)]) for t, p in enumerate(pivots)
                  if (t, c) in var_of))
        for c in range(n) if c not in pivots)
    return len(free), len(pairs), tuple(tuple(f) for f in feeds), candidates


@lru_cache(maxsize=16)
def _gathers(ctx):
    """(flat add, flat mul, flat sub, digits) of one field, built once per
    field; int16, since a*q + b <= 255 because q <= MAX_Q."""
    add_t, mul_t, neg_t = ctx.tables()
    out = (add_t.ravel(), mul_t.ravel(), add_t[:, neg_t].ravel(),
           np.arange(ctx.q, dtype=np.int16))
    for a in out:
        a.flags.writeable = False
    return out


def _count_cell_vector(L: LieAlgebra, pivots, kind: str) -> int:
    """Same count as _count_cell_scalar, by prefix expansion (see above).

    Free entries no test reads are never bound; each multiplies the count by q.
    """
    q = L.ctx.q
    n = L.n
    m, npairs, feeds, candidates = _template(tuple(pivots), n, kind)
    # w[pair][d]: coordinate d of the pair's bracket as (s, variables)
    # monomials, from the nonzero structure constants
    w: list = [None] * npairs
    for u, plane in enumerate(L.sc):
        for v, line in enumerate(plane):
            slots = feeds[u * n + v]
            if not slots:
                continue
            for d, s in enumerate(line):
                if s:
                    for pair, vars_ in slots:
                        coords = w[pair]
                        if coords is None:
                            coords = w[pair] = [[] for _ in range(n)]
                        coords[d].append((s, vars_))

    # tests[v]: (bracket coordinates, [(column, [(pivot, var)])]) per pair,
    # for the tests whose highest free variable is v.  A test that reads no
    # variable is one constant on every row, decided here.
    add = L.ctx.add
    tests: dict[int, list] = {}
    used: set[int] = set()
    for coords in w:
        if coords is None:
            continue
        checks: dict[int, list] = {}
        for c, cand in candidates:
            # residual w_c - sum_t w_(p_t) * b_t[c], since RREF clears pivot columns
            terms = [(p, v) for p, v in cand if coords[p]]
            if not (coords[c] or terms):
                continue
            read = {t for d in [c] + [p for p, _ in terms]
                    for _, vars_ in coords[d] for t in vars_}
            read.update(v for _, v in terms)
            if not read:
                if reduce(add, (s for s, _ in coords[c]), 0):
                    return 0
                continue
            used |= read
            checks.setdefault(max(read), []).append((c, terms))
        for level, group in checks.items():
            tests.setdefault(level, []).append((coords, group))

    order = sorted(used)
    col_of = {v: i for i, v in enumerate(order)}
    add_f, mul_f, sub_f, digits = _gathers(L.ctx)
    cols: list[np.ndarray] = []  # int16 values of the bound variables
    size = 1

    def coord(monos, cols, size):
        # one bracket coordinate over the current rows, accumulated from its
        # first monomial
        acc = None
        for s, vars_ in monos:
            term = s
            for v in vars_:
                term = mul_f.take(term * q + cols[col_of[v]])
            acc = term if acc is None else add_f.take(acc * q + term)
        if isinstance(acc, np.ndarray):
            return acc
        # a coordinate that reads no variable is one constant on every row
        return np.full(size, acc or 0, np.int16)

    for level in order:
        cols = [np.repeat(col, q) for col in cols]
        cols.append(np.tile(digits, size))
        size *= q
        for coords, checks in tests.get(level, []):
            vals: dict[int, np.ndarray] = {}  # this pair's bracket coordinates
            for c, terms in checks:
                for d in [c] + [p for p, _ in terms]:
                    if d not in vals:
                        vals[d] = coord(coords[d], cols, size)
                resid = vals[c]
                for p, v in terms:
                    prod = mul_f.take(vals[p] * q + cols[col_of[v]])
                    resid = sub_f.take(resid * q + prod)
                keep = np.flatnonzero(resid == 0)
                if len(keep) < size:
                    if not len(keep):
                        return 0
                    cols = [col.take(keep) for col in cols]
                    vals = {d: a.take(keep) for d, a in vals.items()}
                    size = len(keep)
    return size * q ** (m - len(order))


def check_guard(n: int, q: int) -> None:
    """Raise GuardExceeded unless an n-dimensional algebra over F_q is in range."""
    if n > MAX_N or q > MAX_Q:
        raise GuardExceeded(f"oracle guard: need n <= {MAX_N} and q <= {MAX_Q}, "
                            f"got n={n}, q={q}")


def zeta_oracle(L: LieAlgebra, kind: str) -> ZetaPoly:
    """Count subalgebras/ideals of every codimension by full enumeration."""
    if kind not in ("ideal", "subalgebra"):
        raise ValueError(f"kind must be 'ideal' or 'subalgebra', got {kind!r}")
    n, q = L.n, L.ctx.q
    check_guard(n, q)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1  # the zero subspace
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            coeffs[n - k] += _count_cell_vector(L, pivots, kind)
    return ZetaPoly.of(q, coeffs)
