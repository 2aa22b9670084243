"""Brute-force subspace oracle, independent of the diagonal-cell route.

Subspaces are generated as reduced row echelon bases, one Schubert cell per
pivot-column set, and closure is decided by explicit span membership: reduce
each required bracket against the basis rows (the coefficient on row t is the
bracket's coordinate at pivot t, because RREF clears pivot columns) and check
that the residual vanishes.  Nothing here touches the RRDF machinery; the two
routes only share the field arithmetic itself.

The batched count binds the free entries of a cell one at a time, in
row-major order; each membership test (one bracket, one non-pivot column)
belongs to the level of its highest free entry.  Each bracket coordinate is
split into A + B*x, where x is the level's entry and A and B read only
earlier entries, and so are gathered on the parent rows.  Every basis entry
b_t[c] of a residual is x or an earlier entry, so the residual
w_c - sum_t w_(p_t) * b_t[c] is collected on the parent rows too, as
r0 + r1*x + r2*x^2.  The field's zero-mask table (_zeros, built once per
field by evaluating r2*x^2 + r1*x + r0 at all q values of x) holds at
(r2*q + r1)*q + r0 a mask whose bit x is set exactly when x is a zero, so
one gather per test and parent row decides the test for every candidate x,
and the AND of a level's masks names the x that pass all its tests.  The
last level counts those bits by popcount; an earlier one turns them into
the next rows, one per (parent row, x) pair that passes.  A level without
tests expands every row by all q values.  Every candidate is still tested,
through the table's evaluation of the test at that x; nothing is solved for
x.  A test that reads no free entry is one field constant, decided with
ctx.add before the scan starts.  Rows are uint16 and field arithmetic is a
flat gather, table.take(a*q + b), on the tables of FieldCtx.tables() in the
format the gf module states, fetched once per _count_cell_vector call.

The tests depend on the algebra only through its structure constants.  A
template built once per (pivots, n, kind), on first use, and cached for the
life of the process records which bracket slot [e_u, e_v] feeds which
monomial of which basis pair, and the residual terms each non-pivot column
may need.  Monomials are never merged, so the plan made from it (the
constant tests, the order of the levels, and each level's tests with the
A + B*x split of every coordinate they read) depends only on the support,
which sc[u][v][d] are nonzero.  _plan compiles it once per (pivots, n,
kind, support) and keeps the last 256 plans; coefficients in a plan are
indices into the algebra's nonzero constants, listed once per algebra, so
an algebra only binds its values to a cached plan and runs the scan.
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
    """(support, values): the flat index (u*n + v)*n + d of each nonzero
    structure constant sc[u][v][d] of L, and those constants, in one order;
    u*n + v indexes the template's feeds."""
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(L.sc))
    support, values = [], []
    for at, s in enumerate(flat):
        if s:
            support.append(at)
            values.append(s)
    return tuple(support), tuple(values)


# On the acceptance grid at most 120 plans serve one family over one field
# (its supports times 2 kinds times 15 pivot sets), and a campaign runs one
# family at a time (analysis.campaign_items), so the last 256 keep it warm.
@lru_cache(maxsize=256)
def _plan(pivots: tuple[int, ...], n: int, kind: str, support: tuple[int, ...]):
    """The membership tests of one cell for every algebra whose nonzero
    structure constants sit at support: (m, constants, levels).

    A value index i names the i-th nonzero constant, in support order.
    constants lists the tests that read no free entry, as the value indices
    whose sum must vanish.  levels holds one (x, splits, checks) for each
    free entry x some test reads, in row-major order; splits and checks are
    None when no test is x's own.  splits are the bracket coordinates the
    level's tests read, each as (A, B) with A + B*x the coordinate and A, B
    lists of (value index, earlier variables) monomials over the parent
    rows.  checks holds one (split of w_c, terms) per test, a term (split
    of w_(p_t), the variable b_t[c]); the split of w_c is None when w_c has
    no monomial, as a coordinate w_(p_t) of a term never is.
    """
    m, npairs, feeds, candidates = _template(pivots, n, kind)
    # w[pair][d]: coordinate d of the pair's bracket as (value index,
    # variables) monomials
    w: list = [None] * npairs
    for i, at in enumerate(support):
        slot, d = divmod(at, n)
        for pair, vars_ in feeds[slot]:
            coords = w[pair]
            if coords is None:
                coords = w[pair] = [[] for _ in range(n)]
            coords[d].append((i, vars_))

    constants = []
    tests: dict[int, list] = {}  # by the highest free variable a test reads
    used: set[int] = set()
    for pair, coords in enumerate(w):
        if coords is None:
            continue
        for c, cand in candidates:
            # residual w_c - sum_t w_(p_t) * b_t[c], since RREF clears pivot columns
            terms = [(p, v) for p, v in cand if coords[p]]
            if not (coords[c] or terms):
                continue
            read = {t for d in [c] + [p for p, _ in terms]
                    for _, vars_ in coords[d] for t in vars_}
            read.update(v for _, v in terms)
            if not read:
                constants.append(tuple(i for i, _ in coords[c]))
                continue
            used |= read
            tests.setdefault(max(read), []).append((pair, c, terms))

    levels = []
    for x in sorted(used):
        group = tests.get(x)
        if group is None:
            levels.append((x, None, None))
            continue
        splits: list = []
        split_of: dict[int, int] = {}  # pair*n + d -> index in splits

        def split(pair, d):
            # coordinate d of the pair's bracket as (A, B), A + B*x; A and B
            # read only earlier variables; None if it has no monomial
            if not w[pair][d]:
                return None
            at = split_of.get(pair * n + d)
            if at is None:
                at = split_of[pair * n + d] = len(splits)
                a, b = [], []
                for i, vars_ in w[pair][d]:
                    if x not in vars_:
                        a.append((i, vars_))
                    else:  # vars_ holds x and at most one other variable
                        b.append((i, vars_[1:] if vars_[0] == x else vars_[:1]))
                splits.append((tuple(a), tuple(b)))
            return at

        checks = tuple([(split(pair, c), tuple([(split(pair, p), v) for p, v in terms]))
                        for pair, c, terms in group])
        levels.append((x, tuple(splits), checks))
    return m, tuple(constants), tuple(levels)


# Bit x of a zero mask stands for the element x, so a mask holds every
# q <= 16 = MAX_Q; little-endian, so bit x is bit x % 8 of byte x // 8.
_MASK = np.dtype("<u2")
_MASK_BITS = 8 * _MASK.itemsize


@lru_cache(maxsize=None)  # only the 10 fields with q <= 16 enter, 8 KB at most each
def _zeros(ctx):
    """The zero-mask table of F_q: entry (r2*q + r1)*q + r0 is the mask of
    the x in F_q with r2*x^2 + r1*x + r0 = 0, found by evaluating the
    polynomial at every x with ctx.tables().  GuardExceeded, before anything
    is built, for q wider than a mask."""
    q = ctx.q
    if q > _MASK_BITS:
        raise GuardExceeded(f"oracle zero masks: need q <= {_MASK_BITS}, got q={q}")
    add, mul, _, _, _, _ = ctx.tables()
    r2, r1, r0 = np.indices((q, q, q), dtype=np.uint16).reshape(3, -1)
    zeros = np.zeros(q ** 3, _MASK)
    for x in range(q):
        value = add.take(mul.take(r2 * q + int(mul[x * q + x])) * q
                         + mul.take(r1 * q + x))
        value = add.take(value * q + r0)
        zeros |= (value == 0).astype(_MASK) << x
    zeros.flags.writeable = False
    return zeros


def _count_cell_vector(L: LieAlgebra, pivots, kind: str) -> int:
    """Same count as _count_cell_scalar, level by level (see above): each of
    a level's tests reads one zero mask per parent row from _zeros, and the
    AND of the masks names the values of the new entry that pass them all.
    The surviving (row, value) pairs become the next rows; the last level's
    masks are only counted, by popcount.

    Free entries no test reads are never bound; each multiplies the count by q.
    """
    q = L.ctx.q
    support, values = _nonzero(L)
    m, constants, levels = _plan(tuple(pivots), L.n, kind, support)
    for test in constants:  # one field constant each, the same on every row
        if reduce(L.ctx.add, [values[i] for i in test], 0):
            return 0

    add_f, mul_f, sub_f, _, _, elements = L.ctx.tables()
    zeros = _zeros(L.ctx)
    cols: dict[int, np.ndarray] = {}  # values of the bound variables
    size = 1

    # field operations on the parent rows; None is a sum without monomials
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
        for i, vars_ in monos:
            term = values[i]
            for v in vars_:
                term = mul(term, cols[v])
            acc = add(acc, term)
        return acc

    for depth, (x, splits, checks) in enumerate(levels, 1):
        if splits is None:  # nothing to test: every row takes all q values
            cols = {v: np.tile(col, q) for v, col in cols.items()}
            cols[x] = np.repeat(elements, size)
            size *= q
            continue
        parts = [(on_parents(a), on_parents(b)) for a, b in splits]
        ok = None  # the AND of the level's zero masks, one per parent row
        for c, terms in checks:
            # the residual r0 + r1*x + r2*x^2 on the parent rows: each
            # entry b_t[c] is x or an earlier variable y
            r0, r1 = (None, None) if c is None else parts[c]
            r2 = None
            for p, y in terms:
                a, b = parts[p]
                if y == x:
                    r1, r2 = sub(r1, a), sub(r2, b)
                else:
                    y = cols[y]
                    r0, r1 = sub(r0, mul(a, y)), sub(r1, mul(b, y))
            # every index is below q^3 <= 4096, so uint16 rows never wrap
            at = ((0 if r2 is None else r2 * q) + (0 if r1 is None else r1)) * q
            mask = zeros.take(at if r0 is None else at + r0)
            ok = mask if ok is None else ok & mask
        if ok.ndim == 0:  # no test read an earlier variable
            ok = np.full(size, ok)
        bits = np.unpackbits(ok.astype(_MASK, copy=False).view(np.uint8),
                             bitorder="little")
        if depth == len(levels):
            return int(np.count_nonzero(bits)) * q ** (m - depth)
        keep = np.flatnonzero(bits)
        if not len(keep):
            return 0
        parent, xs = np.divmod(keep, _MASK_BITS)
        cols = {v: col.take(parent) for v, col in cols.items()}
        cols[x] = elements.take(xs)
        size = len(keep)
    return size * q ** (m - len(levels))


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
