"""Brute-force subspace oracle, independent of the diagonal-cell route.

Subspaces are generated as reduced row echelon bases, one Schubert cell per
pivot-column set, and closure is decided by explicit span membership: reduce
each required bracket against the basis rows (the coefficient on row t is the
bracket's coordinate at pivot t, because RREF clears pivot columns) and check
that the residual vanishes.  Nothing here touches the RRDF machinery; the two
routes only share the field arithmetic itself.

The batched count binds the free entries of a cell one at a time, in
row-major order; each membership test (one bracket, one non-pivot column)
belongs to the level of its highest free entry.  A level with tests
evaluates them all on the candidate grid, the q values of its entry x
crossed with the parent rows (x-major, shape (q, rows)), ANDs them into one
mask and materialises only the survivors.  Each bracket coordinate is split
into A + B*x, where A and B read only earlier entries and so are gathered on
the parent rows.  Every basis entry b_t[c] of a residual is x or an earlier
entry, so the residual w_c - sum_t w_(p_t) * b_t[c] is collected on the
parent rows too, as r0 + r1*x + r2*x^2, and only x*(r1 + r2*x) == -r0 is
evaluated on the grid.  A level without tests expands every row by all q
values.  Every candidate is tested; nothing is solved for x.  A test that
reads no free entry is one field constant, decided with ctx.add before the
scan starts.  Rows are uint16 and field arithmetic is a flat gather,
table.take(a*q + b), on the tables of FieldCtx.tables() in the format the gf
module states, fetched once per _count_cell_vector call.

The tests depend on the algebra only through its structure constants.  A
template built once per (pivots, n, kind), on first use, and cached for the
life of the process records which bracket slot [e_u, e_v] feeds which
monomial of which basis pair, and the residual terms each non-pivot column
may need; each algebra fills it in from its nonzero structure constants
sc[u][v][d], listed once per algebra.
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


@lru_cache(maxsize=1)  # the cells of one algebra are counted in a row
def _nonzero(L: LieAlgebra):
    """(u*n + v, d, s) for each nonzero structure constant s = sc[u][v][d]
    of L; u*n + v indexes the template's feeds."""
    n = L.n
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(L.sc))
    return tuple((slot // n, slot % n, s) for slot, s in enumerate(flat) if s)


def _count_cell_vector(L: LieAlgebra, pivots, kind: str) -> int:
    """Same count as _count_cell_scalar, level by level (see above): a
    level's tests run on its (q, rows) candidate grid and only the survivors
    become rows.

    Free entries no test reads are never bound; each multiplies the count by q.
    """
    q = L.ctx.q
    n = L.n
    m, npairs, feeds, candidates = _template(tuple(pivots), n, kind)
    # w[pair][d]: coordinate d of the pair's bracket as (s, variables)
    # monomials, from the nonzero structure constants
    w: list = [None] * npairs
    for slot, d, s in _nonzero(L):
        for pair, vars_ in feeds[slot]:
            coords = w[pair]
            if coords is None:
                coords = w[pair] = [[] for _ in range(n)]
            coords[d].append((s, vars_))

    # tests[v]: (bracket coordinates, [(column, [(pivot, var)])]) per pair,
    # for the tests whose highest free variable is v.  A test that reads no
    # variable is one constant on every row, decided here.
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
                if reduce(L.ctx.add, (s for s, _ in coords[c]), 0):
                    return 0
                continue
            used |= read
            checks.setdefault(max(read), []).append((c, terms))
        for level, group in checks.items():
            tests.setdefault(level, []).append((coords, group))

    order = sorted(used)
    col_of = {v: i for i, v in enumerate(order)}
    add_f, mul_f, sub_f, _, _, elements = L.ctx.tables()
    grid_x = elements[:, None]  # the new variable on the x-major (q, size) grid
    cols: list[np.ndarray] = []  # values of the bound variables
    size = 1

    # field operations on the parent rows or the grid; None is a sum
    # without monomials
    def add(u, v):
        return v if u is None else add_f.take(u * q + v)

    def sub(u, v):
        return u if v is None else sub_f.take((0 if u is None else u) * q + v)

    def mul(u, v):
        return None if u is None else mul_f.take(u * q + v)

    def on_parents(monos):
        # a sum of monomials over the parent rows, a constant if it reads no
        # variable
        acc = None
        for s, vars_ in monos:
            term = s
            for v in vars_:
                term = mul(term, cols[col_of[v]])
            acc = add(acc, term)
        return acc

    def split(monos, x):
        # one bracket coordinate as (A, B), A + B*x: A and B read only
        # earlier variables, so they are gathered on the parent rows
        a = [mono for mono in monos if x not in mono[1]]
        b = [(s, tuple(v for v in vars_ if v != x))
             for s, vars_ in monos if x in vars_]
        return on_parents(a), on_parents(b)

    for level in order:
        group = tests.get(level)
        if group is None:  # nothing to test: every row takes all q values
            cols = [np.tile(col, q) for col in cols]
            cols.append(np.repeat(elements, size))
            size *= q
            continue
        ok = True  # the level's tests on the (q, size) candidate grid
        for coords, checks in group:
            parts: dict = {}  # this pair's bracket coordinates
            for c, terms in checks:
                for d in [c] + [p for p, _ in terms]:
                    if d not in parts:
                        parts[d] = split(coords[d], level)
                # the residual r0 + r1*x + r2*x^2 on the parent rows: each
                # entry b_t[c] is x or an earlier variable y
                r0, r1 = parts[c]
                r2 = None
                for p, v in terms:
                    a, b = parts[p]
                    if v == level:
                        r1, r2 = sub(r1, a), sub(r2, b)
                    else:
                        y = cols[col_of[v]]
                        r0, r1 = sub(r0, mul(a, y)), sub(r1, mul(b, y))
                # every test reads x, so r1 or r2 is present
                t = r1 if r2 is None else add(r1, mul(r2, grid_x))
                ok = ok & (mul(t, grid_x) == sub(0, r0))
        keep = np.flatnonzero(np.broadcast_to(ok, (q, size)))
        if not len(keep):
            return 0
        xs, parent = np.divmod(keep, size)
        cols = [col.take(parent) for col in cols]
        cols.append(elements.take(xs))
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
