"""Diagonal-cell enumeration of subalgebras and ideals via RRDF matrices.

Every subspace of F_q^n is represented by a unique n x n upper-triangular
matrix in reduced row diagonal form.  The 0/1 diagonal pattern splits the
Grassmannian into 2^n cells; within a cell the matrix is determined by its
free entries, one per position (r, c) with r < c, diagonal 1 at r and
diagonal 0 at c.  The companion matrices satisfy M M# = Mb with Mb the 0/1
diagonal, which turns the closure conditions into plain zero-tests at the
coordinates where the diagonal vanishes:

  ideal:       rows m_i,  all j:        (m_i C_j M#)_k        = 0
  subalgebra:  row pairs i < j:         (m_i A_j M#)_k        = 0,
               with A_j = sum_l m_(j,l) C_l,

for every k with a zero diagonal entry.  Conditions at k with diagonal 1
are satisfiable for free and skipped.

The conditions are sums of monomials in the free entries whose coefficients
are structure constants.  Which constant feeds which monomial depends only on
the cell and the kind, so a template recording it is built once per
(DiagonalType, kind), on first use, and cached for the life of the process.
The scan plan made from it (which conditions exist, the level of each, how
each level binds its variable) depends on the algebra only through its
support, which structure constants are nonzero, and through which of the
few monomials fed by more than one constant sum to zero.  _plan compiles it
in one walk of the template, once per (cell, kind, support), and lists the
shared sums it reads; only an algebra for which one of them is zero takes a
second plan, compiled once per (cell, kind, support, vanishing sums).  One
cache keeps the last 256 plans of both sorts.  Coefficients in a plan are
indices into a list each algebra binds: its nonzero constants, their
negations, the shared sums, and the -A/B factors of the levels solved
directly.  A cell with no free entry is then a cached lookup.

cell_count scans the cell level by level: it binds one free entry x at a
time, in row-major order, and rather than giving x all q values it solves
for x one of the conditions whose highest entry x is.  Such a condition reads
x with degree at most 2, as C x^2 + B x = A with A, B and C read from the
entries already bound, so each row gets its solutions at once: x = A/B, the
roots of the monic x^2 + (B/C) x = A/C from a table of root counts and roots
built once per field, or every value where A = B = C = 0.  The level's other
conditions then filter the rows.  An entry that is the highest entry of no
condition takes every value; entries no condition reads are never bound, and
each multiplies the count by q.  Every kind of level hands back the same two
things: its solutions as (parent row, value) picks, and the parent rows on
which every value solves.  One loop cuts these into batches of at most CHUNK
rows, slicing the picks and repeating CHUNK // q every-value parents at a
time by all q values; each batch is filtered and scanned depth-first before
the next is made, so no level's expansion is held whole.  Rows are uint16
and field arithmetic is a flat gather, table.take(a*q + b), on the tables of
FieldCtx.tables() in the format the gf module states, fetched once per
cell_count call.
is_ideal / is_subalgebra do the same test by direct matrix arithmetic for a
single matrix.  Both paths are cross-checked in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import itemgetter

import numpy as np

from .gf import FieldCtx
from .liealg import LieAlgebra
from .zetapoly import ZetaPoly

# Rows expanded in one batch of a cell scan; bounds peak memory.
CHUNK = 1 << 16


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class DiagonalType:
    """Normal form (a_1..a_r),(b_1..b_r) of one 0/1 diagonal pattern."""

    a_vec: tuple[int, ...]
    b_vec: tuple[int, ...]

    @property
    def n(self) -> int:
        return sum(self.a_vec) + sum(self.b_vec)

    @property
    def codim(self) -> int:
        return sum(self.a_vec)

    def pattern(self) -> tuple[int, ...]:
        out: list[int] = []
        for a, b in zip(self.a_vec, self.b_vec):
            out.extend([0] * a)
            out.extend([1] * b)
        return tuple(out)

    @staticmethod
    def from_pattern(pattern) -> "DiagonalType":
        pattern = tuple(int(d) for d in pattern)
        if not pattern or any(d not in (0, 1) for d in pattern):
            raise ValueError(f"bad diagonal pattern {pattern!r}")
        a_vec: list[int] = []
        b_vec: list[int] = []
        i, n = 0, len(pattern)
        while i < n:
            a = 0
            while i < n and pattern[i] == 0:
                a += 1
                i += 1
            b = 0
            while i < n and pattern[i] == 1:
                b += 1
                i += 1
            a_vec.append(a)
            b_vec.append(b)
        return DiagonalType(tuple(a_vec), tuple(b_vec))


def diagonal_types(n: int) -> list[DiagonalType]:
    """All 2^n diagonal types of size n, in binary-counter pattern order."""
    if not 1 <= n <= 8:
        raise ValueError(f"n={n} outside 1..8")
    return [DiagonalType.from_pattern(bits)
            for bits in itertools.product((0, 1), repeat=n)]


def free_positions(dt: DiagonalType) -> list[tuple[int, int]]:
    """Row-major free coordinates: r < c, diagonal 1 at r, 0 at c."""
    d = dt.pattern()
    n = len(d)
    return [(r, c) for r in range(n) for c in range(r + 1, n)
            if d[r] == 1 and d[c] == 0]


def cell_exponent(dt: DiagonalType) -> int:
    return len(free_positions(dt))


def cell_size(dt: DiagonalType, q: int) -> int:
    """|cell| = q ** sum over i of sum over j<i of a_i * b_j."""
    return q ** cell_exponent(dt)


@dataclass(frozen=True)
class RrdfMatrix:
    dt: DiagonalType
    ctx: FieldCtx
    free: tuple[int, ...]  # values at free_positions(dt), row-major

    def matrix(self) -> list[list[int]]:
        n = self.dt.n
        d = self.dt.pattern()
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = d[i]
        for (r, c), v in zip(free_positions(self.dt), self.free):
            m[r][c] = v
        return m

    def msharp(self) -> list[list[int]]:
        n = self.dt.n
        s = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for (r, c), v in zip(free_positions(self.dt), self.free):
            s[r][c] = self.ctx.neg(v)
        return s

    def mflat(self) -> list[list[int]]:
        n = self.dt.n
        d = self.dt.pattern()
        return [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]


def enumerate_cell(dt: DiagonalType, ctx: FieldCtx):
    """Yield the cell's matrices, free entries in odometer order."""
    for assign in itertools.product(range(ctx.q), repeat=cell_exponent(dt)):
        yield RrdfMatrix(dt, ctx, assign)


def _vec_mat(v, B, ctx: FieldCtx):
    n = len(v)
    out = [0] * n
    for t in range(n):
        a = v[t]
        if a:
            row = B[t]
            for j in range(n):
                if row[j]:
                    out[j] = ctx.add(out[j], ctx.mul(a, row[j]))
    return out


def _check_shapes(M: RrdfMatrix, L: LieAlgebra):
    if M.dt.n != L.n or M.ctx.q != L.ctx.q:
        raise DimensionMismatch(
            f"matrix is {M.dt.n}x{M.dt.n} over F_{M.ctx.q}, "
            f"algebra is {L.n}-dimensional over F_{L.ctx.q}")


def is_ideal(M: RrdfMatrix, L: LieAlgebra) -> bool:
    _check_shapes(M, L)
    ctx = L.ctx
    d = M.dt.pattern()
    n = L.n
    mat = M.matrix()
    sharp = M.msharp()
    Cs = L.adjoint_matrices()
    zero_ks = [k for k in range(n) if d[k] == 0]
    for i in range(n):
        if d[i] == 0:
            continue
        for j in range(n):
            v = _vec_mat(_vec_mat(mat[i], Cs[j], ctx), sharp, ctx)
            if any(v[k] for k in zero_ks):
                return False
    return True


def is_subalgebra(M: RrdfMatrix, L: LieAlgebra) -> bool:
    _check_shapes(M, L)
    ctx = L.ctx
    d = M.dt.pattern()
    n = L.n
    mat = M.matrix()
    sharp = M.msharp()
    Cs = L.adjoint_matrices()
    zero_ks = [k for k in range(n) if d[k] == 0]
    ones = [i for i in range(n) if d[i] == 1]
    for j in ones:
        Aj = [[0] * n for _ in range(n)]
        for l in range(j, n):
            c = mat[j][l]
            if c:
                Cl = Cs[l]
                for u in range(n):
                    for w in range(n):
                        if Cl[u][w]:
                            Aj[u][w] = ctx.add(Aj[u][w], ctx.mul(c, Cl[u][w]))
        for i in ones:
            if i >= j:
                break
            v = _vec_mat(_vec_mat(mat[i], Aj, ctx), sharp, ctx)
            if any(v[k] for k in zero_ks):
                return False
    return True


# -- vectorised cell counting -------------------------------------------
#
# Every entry of M and M# is 0, 1 or (minus) a single free variable, so each
# condition is a short sum of monomials of degree at most 3 in the free
# entries, with structure constants as coefficients.  Which structure
# constant feeds which monomial of which condition depends only on the cell
# and the kind: _template records it once per (cell, kind), _plan turns it
# into a scan plan once per support, and _conditions binds one algebra's
# constants to that plan.
#
# A condition has degree at most 2 in any one variable: variable (r, c) sits
# only in row r of M and in column c of M#, and a condition multiplies one
# entry of row i, one of a row j != i (or of the constant e_j) and one of
# column k.  So each level can bind its variable by solving one condition.

# How a level binds its variable x; A, B and C read only earlier variables.
FREE = 0       # no condition: x takes every value
DIRECT = 1     # x = A, the solved condition with a constant x coefficient
LINEAR = 2     # B x = A
QUADRATIC = 3  # C x^2 + B x = A


@lru_cache(maxsize=None)  # keyed by shape only: at most 2 * 2^n entries per n
def _template(dt: DiagonalType, kind: str):
    """(m, feeds): the cell's number of free entries, and for each
    structure-constant slot sc[u][j][v], at flat index (u*n + j)*n + v, the
    (condition, negated?, sorted variables) monomials it feeds."""
    n = dt.n
    d = dt.pattern()
    pos = free_positions(dt)
    # entries of row i of M and of column k of M#: (index, var or None);
    # a variable of M# enters with a minus sign
    row = [[(i, None)] for i in range(n)]
    col = [[(k, None)] for k in range(n)]
    for t, (r, c) in enumerate(pos):
        row[r].append((c, t))
        col[c].append((r, t))
    ones = [i for i in range(n) if d[i] == 1]
    zeros = [k for k in range(n) if d[k] == 0]
    if kind == "ideal":
        # (m_i C_j M#)_k with C_j[u][v] = sc[u][j][v]
        conds = [(row[i], [(j, None)], col[k])
                 for i in ones for j in range(n) for k in zeros]
    else:
        # (m_i A_j M#)_k with A_j = sum_l m_(j,l) C_l
        conds = [(row[i], row[j], col[k])
                 for j in ones for i in ones if i < j for k in zeros]
    feeds: list[list] = [[] for _ in range(n**3)]
    for ci, (us, ls, vs) in enumerate(conds):
        for u, tu in us:
            for l, tl in ls:
                for v, tv in vs:
                    key = tuple(sorted(t for t in (tu, tl, tv) if t is not None))
                    feeds[(u * n + l) * n + v].append((ci, tv is not None, key))
    return len(pos), tuple(tuple(f) for f in feeds)


@lru_cache(maxsize=1)  # the cells of one algebra are counted in a row
def _nonzero(L: LieAlgebra):
    """(support, coeffs): the flat slot (u*n + j)*n + v of the template's
    feeds of each nonzero structure constant c = sc[u][j][v] of L, and
    those constants followed by their negations, in one order."""
    neg = L.ctx.neg
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(L.sc))
    support, values = [], []
    for slot, c in enumerate(flat):
        if c:
            support.append(slot)
            values.append(c)
    return tuple(support), tuple(values + [neg(c) for c in values])


# Keyed by support.  On the acceptance grid at most 128 plans serve one
# family over one field, and a campaign runs one family at a time
# (analysis.campaign_items), so the last 256 keep it warm.
@lru_cache(maxsize=256)
def _plan(dt: DiagonalType, kind: str, support: tuple[int, ...],
          vanished: tuple[int, ...] = ()):
    """(m, sums, direct, levels): the cell's scan plan for every algebra
    whose nonzero structure constants sit at support and whose shared
    monomial sums vanish at the positions vanished lists, and no other.

    sums holds, for each monomial that more than one nonzero constant
    feeds, the coefficient indices whose sum is its coefficient: index
    i < k is the i-th of the k nonzero constants, k + i its negation.  The
    sums depend on the support alone, and an algebra binds them before it
    knows which vanish.  A plan that a constant condition kills lists none:
    a condition's constant monomial is fed by one structure constant alone,
    so no sum that vanishes can bring the cell back.

    Coefficients are indices into a list the algebra binds: its k nonzero
    constants, their k negations, each shared sum followed by its negation,
    then, for each (b, a) of direct in turn, -a[i]/b for each index a[i].
    Each condition is a list of (coefficient, sorted variables) monomials
    with nonzero coefficients, and belongs to the level of its highest
    variable.  levels holds one (var, how, A, B, C, filters) per variable
    any condition reads, in row-major order.  At a level with conditions,
    the one of least degree in var is solved for it: one whose x
    coefficient is a nonzero constant first, then the one with fewest
    monomials.  A is the monomial list of minus its part of degree 0 in
    var, B and C those of its parts of degree 1 and 2, all reading only
    earlier variables; how says how they are stored (see FREE..QUADRATIC).
    filters are the level's other conditions, low degree, then short,
    first.  levels is None when a nonzero constant condition kills the
    whole cell.
    """
    m, feeds = _template(dt, kind)
    k = len(support)
    # polys[condition][variables]: the indices summing to that coefficient
    polys: dict[int, dict[tuple[int, ...], list[int]]] = {}
    for i, slot in enumerate(support):
        for ci, minus, key in feeds[slot]:
            polys.setdefault(ci, {}).setdefault(key, []).append(k + i if minus else i)
    sums: list[tuple[int, ...]] = []
    by_top: dict[int, list] = {}
    used: set[int] = set()
    for poly in polys.values():
        monos = []
        for key, ids in poly.items():
            if len(ids) == 1:
                monos.append((ids[0], key))
            else:
                if len(sums) not in vanished:
                    monos.append((2 * (k + len(sums)), key))
                sums.append(tuple(ids))
        if not monos:
            continue
        keys = [key for _, key in monos]
        if keys == [()]:  # a nonzero constant: no matrix of the cell solves it
            return m, (), (), None
        used.update(*keys)
        by_top.setdefault(max([key[-1] for key in keys if key]), []).append(
            (max(map(len, keys)), len(monos), monos))
    shared = 2 * (k + len(sums))  # the index of the first -a[i]/b

    def neg(i):
        # the index of minus coefficient i
        return (i + k) % (2 * k) if i < 2 * k else i ^ 1

    direct = []
    levels = []
    for var in sorted(used):
        conds = by_top.get(var)
        if conds is None:
            levels.append((var, FREE, None, None, None, ()))
            continue
        conds.sort(key=itemgetter(0, 1))  # degree, then monomials
        best = None
        for cond in conds:
            a, b, c = [], [], []
            for coeff, key in cond[2]:
                if not key or key[-1] != var:
                    a.append((coeff, key))
                elif len(key) > 1 and key[-2] == var:
                    c.append((coeff, key[:-2]))
                else:
                    b.append((coeff, key[:-1]))
            rank = (bool(c), not (len(b) == 1 and not b[0][1]), cond[1])
            if best is None or rank < best[0]:
                best = (rank, cond, a, b, c)
        _, chosen, a, b, c = best
        filters = tuple(tuple(cond[2]) for cond in conds if cond is not chosen)
        if c or len(b) > 1 or b[0][1]:
            levels.append((var, QUADRATIC if c else LINEAR,
                           tuple((neg(i), key) for i, key in a), tuple(b),
                           tuple(c) or None, filters))
        else:
            first = shared + sum(len(ids) for _, ids in direct)
            direct.append((b[0][0], tuple(i for i, _ in a)))
            levels.append((var, DIRECT,
                           tuple((first + t, key) for t, (_, key) in enumerate(a)),
                           None, None, filters))
    return m, tuple(sums), tuple(direct), tuple(levels)


def _conditions(L: LieAlgebra, dt: DiagonalType, kind: str):
    """(m, levels, coeffs): the cell's scan plan for L (see _plan) and the
    coefficients its indices name, bound from L's nonzero constants.  Only
    when one of the plan's shared sums is zero for L does it take the plan
    compiled for the sums that vanish instead."""
    ctx = L.ctx
    support, coeffs = _nonzero(L)
    coeffs = list(coeffs)
    m, sums, direct, levels = _plan(dt, kind, support)
    vanished = []
    for j, ids in enumerate(sums):
        total = reduce(ctx.add, [coeffs[i] for i in ids])
        coeffs += [total, ctx.neg(total)]
        if not total:
            vanished.append(j)
    if vanished:
        m, _, direct, levels = _plan(dt, kind, support, tuple(vanished))
    for b, ids in direct:
        s = ctx.neg(ctx.inv(coeffs[b]))
        coeffs += [ctx.mul(s, coeffs[i]) for i in ids]
    return m, levels, coeffs


@lru_cache(maxsize=16)
def _roots(ctx: FieldCtx):
    """(count, r1, r2) of one field, built once per field.

    At index s*q + t, count is the number of roots of x^2 + s x = t in F_q
    and r1 <= r2 are those roots (r1 = r2 for a double root; both 0 when
    there is none).  Every x solves exactly one such equation per s, the one
    with t = x^2 + s x, so one pass over (s, x) fills the tables in every
    characteristic.
    """
    add, mul, _, _, _, x = ctx.tables()
    q = ctx.q
    # at[s*q + x]: the index s*q + t of the equation x solves
    at = (x[:, None] * q + add.take(mul[x * q + x] * q + mul.reshape(q, q))).ravel()
    count = np.zeros(q * q, dtype=np.uint8)
    np.add.at(count, at, 1)
    xs = np.tile(x, q)
    r1 = np.full(q * q, q, dtype=np.uint16)
    r2 = np.zeros(q * q, dtype=np.uint16)
    np.minimum.at(r1, at, xs)
    np.maximum.at(r2, at, xs)
    r1[count == 0] = 0
    for a in (count, r1, r2):
        a.flags.writeable = False
    return count, r1, r2


def cell_count_scalar(L: LieAlgebra, dt: DiagonalType, kind: str) -> int:
    test = is_ideal if kind == "ideal" else is_subalgebra
    return sum(1 for M in enumerate_cell(dt, L.ctx) if test(M, L))


def cell_count(L: LieAlgebra, dt: DiagonalType, kind: str) -> int:
    """Number of matrices in the cell spanning a subalgebra/ideal of L.

    A cell that must be scanned needs the field's dense tables, so fields
    too large for FieldCtx.tables raise TooLarge there.
    """
    if kind not in ("ideal", "subalgebra"):
        raise ValueError(f"kind must be 'ideal' or 'subalgebra', got {kind!r}")
    if dt.n != L.n:
        raise DimensionMismatch(f"cell is for n={dt.n}, algebra has n={L.n}")
    ctx = L.ctx
    q = ctx.q
    m, levels, coeffs = _conditions(L, dt, kind)
    if levels is None:
        return 0
    if not levels:  # no condition reads a free entry
        return q**m
    # bind only the variables some condition reads, in row-major order
    add, mul, _, _, inv, elements = ctx.tables()
    n_roots, root1, root2 = _roots(ctx)
    end = len(levels)
    step = max(1, CHUNK // q)  # rows that take every value, per batch
    nothing = np.zeros(0, dtype=np.intp)

    def value(monos, cols, rows):
        # the values of a monomial list on the rows, its constant monomials
        # summed apart; mul[c*q:c*q + q] is the row of products c*y
        acc = None
        const = 0
        for i, vars_ in monos:
            c = coeffs[i]
            if not vars_:
                const = ctx.add(const, c)
                continue
            term = mul[c * q:c * q + q].take(cols[vars_[0]])
            for t in vars_[1:]:
                term = mul.take(term * q + cols[t])
            acc = term if acc is None else add.take(acc * q + term)
        if acc is None:
            return np.full(rows, const, dtype=np.uint16)
        return add[const * q:const * q + q].take(acc) if const else acc

    def linear(a, b):
        # (src, x, every) of B x = A: one root where B != 0, every value
        # where A = B = 0
        nz = b.nonzero()[0]
        return (nz, mul.take(a.take(nz) * q + inv.take(b.take(nz))),
                ((a | b) == 0).nonzero()[0])

    def solve(how, A, B, C, cols, rows):
        # (src, x, every): the level's solutions on the rows, as parent rows
        # src with their values x of the variable (src None: row i has value
        # x[i]), and the parent rows on which every value solves
        if how == FREE:
            return nothing, nothing, np.arange(rows)
        a = value(A, cols, rows)
        if how == DIRECT:
            return None, a, nothing
        b = value(B, cols, rows)
        if how == LINEAR:
            return linear(a, b)
        c = value(C, cols, rows)
        scale = inv.take(c)
        at = mul.take(b * q + scale) * q + mul.take(a * q + scale)
        count = n_roots.take(at)
        lin = (c == 0).nonzero()[0]  # the rows solved as B x = A
        count[lin] = 0
        one = count.nonzero()[0]
        two = (count == 2).nonzero()[0]
        src, x, every = linear(a.take(lin), b.take(lin))
        return (np.concatenate([one, two, lin.take(src)]),
                np.concatenate([root1.take(at.take(one)), root2.take(at.take(two)), x]),
                lin.take(every))

    def batches(src, x, every):
        # (parent rows, values) in batches of at most CHUNK rows; parent
        # rows are a slice where src is None
        for start in range(0, len(x), CHUNK):
            stop = start + CHUNK
            yield (slice(start, stop) if src is None else src[start:stop],
                   x[start:stop])
        for start in range(0, len(every), step):
            part = every[start:start + step]
            yield np.repeat(part, q), np.tile(elements, len(part))

    def scan(cols, rows, depth):
        # cols[t]: the column of values of variable t, for every variable bound
        # before level depth; count the extensions passing every condition
        if depth == end:
            return rows
        var, how, A, B, C, filters = levels[depth]
        total = 0
        for src, x in batches(*solve(how, A, B, C, cols, rows)):
            child = {t: col[src] for t, col in cols.items()}
            child[var] = x
            size = len(x)
            del src  # not held while the batch is scanned
            for monos in filters:
                passed = (value(monos, child, size) == 0).nonzero()[0]
                if len(passed) < size:
                    size = len(passed)
                    if not size:
                        break
                    child = {t: col.take(passed) for t, col in child.items()}
            if size:
                total += scan(child, size, depth + 1)
        return total

    return scan({}, 1, 0) * q ** (m - end)


@lru_cache(maxsize=32)
def _types_by_codim(n: int) -> tuple[tuple[int, DiagonalType], ...]:
    return tuple((dt.codim, dt) for dt in diagonal_types(n))


def zeta_enumerate(L: LieAlgebra, kind: str) -> ZetaPoly:
    """Assemble the zeta polynomial from the per-cell counts."""
    coeffs = [0] * (L.n + 1)
    for codim, dt in _types_by_codim(L.n):
        coeffs[codim] += cell_count(L, dt, kind)
    return ZetaPoly.of(L.ctx.q, coeffs)
