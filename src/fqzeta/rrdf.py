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
(DiagonalType, kind), on first use, and cached for the life of the process;
each algebra specialises it by walking only its nonzero structure constants,
then merges the monomials, drops zero ones and orders the conditions.

cell_count scans the cell by prefix expansion: it binds one free entry at a
time, in row-major order, applies every condition whose highest entry is now
bound, and expands only the survivors by q, depth-first in batches of at most
CHUNK rows.  Entries no condition reads are never bound; each multiplies the
count by q.  Field arithmetic is a flat gather, table.take(a*q + b), on int32
tables built once per field, since a*q + b reaches 65535 at q = 256.
is_ideal / is_subalgebra do the same test by direct matrix arithmetic for a
single matrix.  Both paths are cross-checked in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

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
# and the kind: _template records it once per (cell, kind), and _conditions
# specialises it to one algebra by walking its nonzero structure constants.


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


def _conditions(L: LieAlgebra, dt: DiagonalType, kind: str):
    """(m, levels): the cell's template specialised to L.  levels[i] holds
    the conditions whose highest variable is the i-th variable any condition
    reads, in row-major order, cheapest first; each condition is a list of
    (coeff, level indices) monomials with nonzero coefficients.  levels is
    None when a nonzero constant condition kills the whole cell."""
    add, neg = L.ctx.add, L.ctx.neg
    m, feeds = _template(dt, kind)
    polys: dict[int, dict[tuple[int, ...], int]] = {}
    slot = -1
    for plane in L.sc:
        for line in plane:
            for c in line:
                slot += 1
                if not c:
                    continue
                minus_c = neg(c)
                for ci, minus, key in feeds[slot]:
                    poly = polys.get(ci)
                    if poly is None:
                        poly = polys[ci] = {}
                    poly[key] = add(poly.get(key, 0), minus_c if minus else c)
    conditions = []
    used: set[int] = set()
    for ci in sorted(polys):
        monos = [(c, key) for key, c in polys[ci].items() if c]
        if not monos:
            continue
        keys = [key for _, key in monos]
        degree = max(map(len, keys))
        if not degree:  # a nonzero constant: no matrix of the cell solves it
            return m, None
        conditions.append((degree, len(monos), max(k[-1] for k in keys if k), monos))
        used.update(t for k in keys for t in k)
    # low-degree, then short, conditions first: they prune the cell fastest
    conditions.sort(key=lambda cond: cond[:2])
    level = {t: i for i, t in enumerate(sorted(used))}
    levels: list[list] = [[] for _ in level]
    for _, _, top, monos in conditions:
        levels[level[top]].append(
            [(c, tuple(level[t] for t in key)) for c, key in monos])
    return m, levels


@lru_cache(maxsize=16)
def _gathers(ctx: FieldCtx):
    """(add rows, mul rows, flat add, flat mul, digits) of one field, built
    once per field; int32, since a*q + b reaches 65535 at q = 256."""
    add_t, mul_t, _ = ctx.tables()
    add_rows = add_t.astype(np.int32)
    mul_rows = mul_t.astype(np.int32)
    out = (add_rows, mul_rows, add_rows.ravel(), mul_rows.ravel(),
           np.arange(ctx.q, dtype=np.int16))
    for a in out:
        a.flags.writeable = False
    return out


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
    q = L.ctx.q
    m, levels = _conditions(L, dt, kind)
    if levels is None:
        return 0
    if not levels:  # no condition reads a free entry
        return q**m
    # bind only the variables some condition reads, in row-major order; each
    # condition runs right after its highest variable is bound
    add_rows, mul_rows, add_f, mul_f, digits = _gathers(L.ctx)
    step = max(1, CHUNK // q)  # survivor rows expanded per batch

    def scan(cols, depth):
        # cols: the int16 columns of variables 0..depth; count the rows that
        # pass every condition, expanding survivors depth-first in batches
        for monos in levels[depth]:
            acc = None
            const = 0
            for c, vars_ in monos:
                if not vars_:
                    const = c
                    continue
                term = mul_rows[c].take(cols[vars_[0]])
                for t in vars_[1:]:
                    term = mul_f.take(term * q + cols[t])
                acc = term if acc is None else add_f.take(acc * q + term)
            if const:
                acc = add_rows[const].take(acc)
            keep = np.flatnonzero(acc == 0)
            if len(keep) < len(acc):
                cols = [col.take(keep) for col in cols]
                if not len(keep):
                    return 0
        rows = len(cols[0])
        if depth + 1 == len(levels):
            return rows
        total = 0
        for start in range(0, rows, step):
            part = [col[start:start + step] for col in cols]
            child = [np.repeat(col, q) for col in part]
            child.append(np.tile(digits, len(part[0])))
            total += scan(child, depth + 1)
        return total

    return scan([digits], 0) * q ** (m - len(levels))


@lru_cache(maxsize=32)
def _types_by_codim(n: int) -> tuple[tuple[int, DiagonalType], ...]:
    return tuple((dt.codim, dt) for dt in diagonal_types(n))


def zeta_enumerate(L: LieAlgebra, kind: str) -> ZetaPoly:
    """Assemble the zeta polynomial from the per-cell counts."""
    coeffs = [0] * (L.n + 1)
    for codim, dt in _types_by_codim(L.n):
        coeffs[codim] += cell_count(L, dt, kind)
    return ZetaPoly.of(L.ctx.q, coeffs)
