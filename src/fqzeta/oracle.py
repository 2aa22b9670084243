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
expands only the survivors by q.  It holds the bracket coordinates of one
basis pair at a time.  Rows are int16 and field arithmetic is a flat gather,
table.take(a*q + b), which stays below 256 because q <= MAX_Q = 16.
"""

from __future__ import annotations

import itertools

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


def _count_cell_vector(L: LieAlgebra, pivots, kind: str) -> int:
    """Same count as _count_cell_scalar, by prefix expansion (see above).

    Free entries no test reads are never bound; each multiplies the count by q.
    """
    q = L.ctx.q
    n = L.n
    free = _rref_free_positions(pivots, n)
    var_of = {pos: t for t, pos in enumerate(free)}
    add_t, mul_t, neg_t = L.ctx.tables()
    # flat int16 tables: a*q + b <= 255 because q <= MAX_Q
    add_f, mul_f = add_t.ravel(), mul_t.ravel()
    sub_f = add_t[:, neg_t].ravel()

    # nonzero entries of each basis row: (column, free variable or None for 1)
    rows = [[(p, None)] + [(c, var_of[(i, c)]) for c in range(p + 1, n)
                           if (i, c) in var_of]
            for i, p in enumerate(pivots)]
    if kind == "subalgebra":
        pairs = [(rows[i], rows[j]) for i in range(len(rows))
                 for j in range(i + 1, len(rows))]
    else:
        pairs = [(x, [(j, None)]) for x in rows for j in range(n)]

    # tests[v]: (bracket coordinates, [(column, [(pivot, var)])]) per pair,
    # for the tests whose highest free variable is v (-1 when they read none)
    tests: dict[int, list] = {}
    used: set[int] = set()
    for x, y in pairs:
        # coordinate d of [x, y] as monomials (s, var or None, var or None)
        w = [[(s, tu, tv) for u, tu in x for v, tv in y if (s := L.sc[u][v][d])]
             for d in range(n)]
        checks: dict[int, list] = {}
        for c in range(n):
            if c in pivots:
                continue
            # residual w_c - sum_t w_(p_t) * b_t[c], since RREF clears pivot columns
            terms = [(p, var_of[(t, c)]) for t, p in enumerate(pivots)
                     if (t, c) in var_of and w[p]]
            if not (w[c] or terms):
                continue
            read = {v for d in [c] + [p for p, _ in terms]
                    for _, tu, tv in w[d] for v in (tu, tv) if v is not None}
            read.update(v for _, v in terms)
            used |= read
            checks.setdefault(max(read, default=-1), []).append((c, terms))
        for level, group in checks.items():
            tests.setdefault(level, []).append((w, group))

    order = sorted(used)
    col_of = {v: i for i, v in enumerate(order)}
    digits = np.arange(q, dtype=np.int16)
    cols: list[np.ndarray] = []  # int16 values of the bound variables
    size = 1

    def coord(monos, cols, size):
        # one bracket coordinate over the current rows
        acc = np.zeros(size, dtype=np.int16)
        for s, tu, tv in monos:
            term = s
            for v in (tu, tv):
                if v is not None:
                    term = mul_f.take(term * q + cols[col_of[v]])
            acc = add_f.take(acc * q + term)
        return acc

    for level in [-1] + order:
        if level >= 0:
            cols = [np.repeat(col, q) for col in cols]
            cols.append(np.tile(digits, size))
            size *= q
        for w, checks in tests.get(level, []):
            vals: dict[int, np.ndarray] = {}  # this pair's bracket coordinates
            for c, terms in checks:
                for d in [c] + [p for p, _ in terms]:
                    if d not in vals:
                        vals[d] = coord(w[d], cols, size)
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
    return size * q ** (len(free) - len(order))


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
