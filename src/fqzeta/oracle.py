"""Brute-force subspace oracle, independent of the diagonal-cell route.

Subspaces are generated as reduced row echelon bases, one Schubert cell per
pivot-column set, and closure is decided by explicit span membership: reduce
each required bracket against the basis rows (the coefficient on row t is the
bracket's coordinate at pivot t, because RREF clears pivot columns) and check
that the residual vanishes.  Nothing here touches the RRDF machinery; the two
routes only share the field arithmetic itself.
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
    """Same count computed over the whole Schubert cell with table lookups."""
    ctx = L.ctx
    q = ctx.q
    n = L.n
    k = len(pivots)
    free = _rref_free_positions(pivots, n)
    m = len(free)
    N = q**m
    add_t, mul_t, _ = ctx.tables()

    idx = np.arange(N, dtype=np.int64)
    vals = np.empty((N, m), dtype=np.int16)
    for t in range(m - 1, -1, -1):
        vals[:, t] = idx % q
        idx //= q

    def basis_entry(i, c, sel):
        # row i of the basis at column c, as an array over current survivors
        if c == pivots[i]:
            return None  # constant 1
        for t, (fi, fc) in enumerate(free):
            if fi == i and fc == c:
                return sel[:, t]
        return 0  # constant zero

    def bracket_coord(u_entries, v_entries, c, sel):
        # coordinate c of [x, y] for x, y given per-column entry arrays
        acc = np.zeros(len(sel), dtype=np.int16)
        for u in range(n):
            xu = u_entries[u]
            if isinstance(xu, int) and xu == 0:
                continue
            scu = L.sc[u]
            for v in range(n):
                s = scu[v][c]
                if not s:
                    continue
                yv = v_entries[v]
                if isinstance(yv, int) and yv == 0:
                    continue
                term = np.full(len(sel), s, dtype=np.int16)
                if not (isinstance(xu, int) and xu == 1) and xu is not None:
                    term = mul_t[term, xu]
                if not (isinstance(yv, int) and yv == 1) and yv is not None:
                    term = mul_t[term, yv]
                acc = add_t[acc, term]
        return acc

    def entries_for_row(i, sel):
        out = []
        for c in range(n):
            e = basis_entry(i, c, sel)
            if e is None:
                out.append(1)
            else:
                out.append(e)
        return out

    def unit(j):
        return [1 if c == j else 0 for c in range(n)]

    if kind == "subalgebra":
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    else:
        pairs = [(i, j) for i in range(k) for j in range(n)]

    sel = vals
    nonpivot = [c for c in range(n) if c not in pivots]
    for i, j in pairs:
        if len(sel) == 0:
            return 0
        xi = entries_for_row(i, sel)
        yj = entries_for_row(j, sel) if kind == "subalgebra" else unit(j)
        w = [bracket_coord(xi, yj, c, sel) for c in range(n)]
        # reduce against the basis: coefficient on row t is w[pivot_t]
        for c in nonpivot:
            resid = w[c]
            for t, p in enumerate(pivots):
                coef = w[p]
                bt = basis_entry(t, c, sel)
                if isinstance(bt, int) and bt == 0:
                    continue
                term = coef if (isinstance(bt, int) and bt == 1) else mul_t[coef, bt]
                resid = add_t[resid, mul_t[ctx.neg(1), term]]
            keep = resid == 0
            if not keep.all():
                sel = sel[keep]
                w = [arr[keep] if isinstance(arr, np.ndarray) else arr for arr in w]
                if len(sel) == 0:
                    return 0
    return len(sel)


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
