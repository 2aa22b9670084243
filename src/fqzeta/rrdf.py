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

cell_count compiles the conditions to monomials in the free entries and
scans the cell by prefix expansion: it binds one free entry at a time, in
row-major order, applies every condition whose highest entry is now bound,
and expands only the survivors by q, depth-first in batches of at most CHUNK
rows.  Entries no condition reads are never bound; each multiplies the count
by q.  Field arithmetic is a flat gather, table.take(a*q + b), on int32
tables, since a*q + b reaches 65535 at q = 256.  is_ideal / is_subalgebra do
the same test by direct matrix arithmetic for a single matrix.  Both paths
are cross-checked in the test suite.
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
# Conditions are compiled once per (algebra, cell, kind) into monomial lists
# over the free entries; every entry of M and M# is 0, 1 or (minus) a single
# free variable, so each condition is a short sum of monomials of degree at
# most 3 with constant coefficients taken from the adjoint matrices.


def _row_support(dt: DiagonalType):
    pos = free_positions(dt)
    n = dt.n
    by_row: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (col, var)
    by_col: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (row, var)
    for t, (r, c) in enumerate(pos):
        by_row[r].append((c, t))
        by_col[c].append((r, t))
    return pos, by_row, by_col


def _compile_conditions(L: LieAlgebra, dt: DiagonalType, kind: str):
    """List of conditions; each is a list of (coeff, vars) monomials."""
    ctx = L.ctx
    n = L.n
    d = dt.pattern()
    _, by_row, by_col = _row_support(dt)
    Cs = L.adjoint_matrices()
    ones = [i for i in range(n) if d[i] == 1]
    zeros = [k for k in range(n) if d[k] == 0]

    def row_terms(i):
        # (u, coeff-is-one?, var or None) entries of m_i
        return [(i, None)] + [(c, t) for c, t in by_row[i]]

    def sharp_col_terms(k):
        # (v, var or None); a var contributes with a minus sign
        return [(k, None)] + [(r, t) for r, t in by_col[k]]

    def cond_ideal(i, j, k):
        monos = []
        Cj = Cs[j]
        for u, tu in row_terms(i):
            for v, tv in sharp_col_terms(k):
                c = Cj[u][v]
                if not c:
                    continue
                if tv is not None:
                    c = ctx.neg(c)
                vars_ = tuple(t for t in (tu, tv) if t is not None)
                monos.append((c, vars_))
        return monos

    conditions = []
    if kind == "ideal":
        for i in ones:
            for j in range(n):
                for k in zeros:
                    monos = cond_ideal(i, j, k)
                    if monos:
                        conditions.append(monos)
    else:
        for j in ones:
            for i in ones:
                if i >= j:
                    break
                for k in zeros:
                    monos = []
                    for l, tl in row_terms(j):
                        for u, tu in row_terms(i):
                            for v, tv in sharp_col_terms(k):
                                c = Cs[l][u][v]
                                if not c:
                                    continue
                                if tv is not None:
                                    c = ctx.neg(c)
                                vars_ = tuple(t for t in (tl, tu, tv)
                                              if t is not None)
                                monos.append((c, vars_))
                    if monos:
                        conditions.append(monos)
    # merge duplicate monomials within each condition
    merged = []
    for monos in conditions:
        acc: dict[tuple[int, ...], int] = {}
        for c, vars_ in monos:
            key = tuple(sorted(vars_))
            acc[key] = ctx.add(acc.get(key, 0), c)
        monos = [(c, vars_) for vars_, c in acc.items() if c]
        if monos:
            merged.append(monos)
    # constant, then cheap, conditions first: they prune the cell fastest
    merged.sort(key=lambda ms: (max(len(v) for _, v in ms), len(ms)))
    return merged


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
    m = cell_exponent(dt)
    conditions = _compile_conditions(L, dt, kind)
    # contradictions that involve no free entry kill the whole cell
    for monos in conditions:
        if all(not vars_ for _, vars_ in monos):
            s = 0
            for c, _ in monos:
                s = ctx.add(s, c)
            if s != 0:
                return 0
    # bind only the variables some condition reads, in row-major order; each
    # condition runs right after its highest variable is bound
    used = sorted({t for monos in conditions for _, vars_ in monos for t in vars_})
    if not used:
        return q**m
    level = {t: i for i, t in enumerate(used)}
    by_level: list[list] = [[] for _ in used]
    for monos in conditions:
        top = max(t for _, vars_ in monos for t in vars_)
        by_level[level[top]].append(
            [(c, tuple(level[t] for t in vars_)) for c, vars_ in monos])
    # flat int32 tables: a*q + b reaches 65535 at q = 256
    add_t, mul_t, _ = ctx.tables()
    add_rows = add_t.astype(np.int32)
    mul_rows = mul_t.astype(np.int32)
    add_f, mul_f = add_rows.ravel(), mul_rows.ravel()
    digits = np.arange(q, dtype=np.int16)
    step = max(1, CHUNK // q)  # survivor rows expanded per batch

    def scan(cols, depth):
        # cols: the int16 columns of variables 0..depth; count the rows that
        # pass every condition, expanding survivors depth-first in batches
        for monos in by_level[depth]:
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
        if depth + 1 == len(used):
            return rows
        total = 0
        for start in range(0, rows, step):
            part = [col[start:start + step] for col in cols]
            child = [np.repeat(col, q) for col in part]
            child.append(np.tile(digits, len(part[0])))
            total += scan(child, depth + 1)
        return total

    return scan([digits], 0) * q ** (m - len(used))


@lru_cache(maxsize=32)
def _types_by_codim(n: int) -> tuple[tuple[int, DiagonalType], ...]:
    return tuple((dt.codim, dt) for dt in diagonal_types(n))


def zeta_enumerate(L: LieAlgebra, kind: str) -> ZetaPoly:
    """Assemble the zeta polynomial from the per-cell counts."""
    coeffs = [0] * (L.n + 1)
    for codim, dt in _types_by_codim(L.n):
        coeffs[codim] += cell_count(L, dt, kind)
    return ZetaPoly.of(L.ctx.q, coeffs)
