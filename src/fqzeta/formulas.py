"""Closed-form zeta templates, named variety counters and q-binomials.

The symbolic formulas live in tables/zeta_branches.txt as data rather than
code so they can be audited line by line.  A record's guard picks the branch
from the parameters, compared inside the field; the coefficient expressions
are integer polynomials in q plus weighted counts of F_q-roots of the fixed
defining polynomials below.  evaluate() turns a template into the exact
coefficient vector for one concrete field, with one root count per variety
term; evaluate_many() does the same for many (template, parameters) pairs
over one field, counting each distinct variety polynomial once.

Each table line is parsed and checked (family, kind, guard atoms, parameter
names, variety arity) once, when the table loads, into one SymbolicZeta with
its guard split into atoms; closed_form() then only compares values.  The
loaded table is also checked whole: it must hold a block for every catalog
family and both kinds, and in each block exactly one guard must hold at every
parameter tuple over F_4 and over F_5.  Guards are conjunctions of the atoms
a=0, a=1, b=0, a=b and a=-b, and these two fields meet every consistent
combination of them (F_4 the eight of characteristic 2, where a=b is a=-b;
F_5 the ten of odd characteristic), so every parameter tuple of every field
then has exactly one branch.

A coefficient expression is read by Python's own parser (ast, mode "eval"),
with ^ replaced by **.  The table grammar is the subset of nodes the walker
accepts: +, - and *; ** with a literal int exponent; unary minus; int
constants (not bool); the name q; and calls of a VARIETY_TAGS name with
positional arguments, each a family parameter or its negation.  Any other
node is refused with a BranchTableError that names it, and so is an exponent,
or a product or power of degree in q, above n*n for a family of dimension n.
"""

from __future__ import annotations

import ast
import itertools
import os
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .gf import FieldCtx, count_roots, count_roots_many, make_field
from .liealg import FAMILIES
from .zetapoly import ZetaPoly, _display


class UnknownBranch(LookupError):
    pass


class BranchTableError(ValueError):
    pass


def gaussian_binomial(n: int, i: int, q: int) -> int:
    """Number of i-dimensional subspaces of an n-dimensional F_q space."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if i < 0 or i > n:
        return 0
    num = den = 1
    for t in range(i):
        num *= q ** (n - t) - 1
        den *= q ** (t + 1) - 1
    assert num % den == 0
    return num // den


# -- named varieties ------------------------------------------------------
#
# Coefficient builders are written against abstract ring ops so the same
# definitions serve both field reductions and the literal integer
# polynomials used by the residue-class scans.


def _variety_coeffs(tag: str, params, add, mul, neg, one):
    def lift(n):
        # small nonnegative integer constant, built from 1 by addition
        v = add(one, neg(one))
        for _ in range(n):
            v = add(v, one)
        return v

    if tag == "V3":
        (a,) = params
        return [neg(one), neg(one), a]  # a x^2 - x - 1
    if tag == "V4":
        (a,) = params
        return [neg(one), lift(0), a]  # a x^2 - 1
    if tag == "V13":
        (a,) = params
        return [neg(a), one, one]  # x^2 + x - a
    if tag == "V14":
        (a,) = params
        return [neg(a), lift(0), one]  # x^2 - a
    a, b = params
    two_ab = mul(lift(2), mul(a, b))
    if tag == "V6_1":
        return [one, b, a, neg(mul(a, a))]  # -a^2 x^3 + a x^2 + b x + 1
    if tag == "V6_2":
        return [one, one, neg(b), a]  # a x^3 - b x^2 + x + 1
    if tag == "V6_3":
        return [mul(a, a), two_ab, add(a, mul(b, b)), add(a, b)]
    if tag == "V6_4":
        return [mul(a, a), two_ab, add(a, mul(b, b))]
    if tag == "V7_1":
        return [neg(one), neg(b), lift(0), mul(a, a)]  # a^2 x^3 - b x - 1
    if tag == "V7_2":
        return [one, lift(0), neg(b), a]  # a x^3 - b x^2 + 1
    if tag == "V7_3":
        return [mul(a, a), two_ab, mul(b, b), a]
    raise UnknownBranch(f"unknown variety tag {tag!r}")


# tag -> number of parameters
VARIETY_TAGS = {"V3": 1, "V4": 1, "V13": 1, "V14": 1,
                "V6_1": 2, "V6_2": 2, "V6_3": 2, "V6_4": 2,
                "V7_1": 2, "V7_2": 2, "V7_3": 2}


@dataclass(frozen=True)
class VarietyId:
    tag: str
    params: tuple[int, ...]


def variety_poly(vid: VarietyId, ctx: FieldCtx) -> list[int]:
    """Defining polynomial of the variety over ctx, coefficients low to high."""
    return _variety_coeffs(vid.tag, vid.params, ctx.add, ctx.mul, ctx.neg, 1)


def variety_poly_int(tag: str, params) -> list[int]:
    """The same polynomial with literal integer coefficients."""
    return _variety_coeffs(tag, tuple(params),
                           lambda x, y: x + y, lambda x, y: x * y,
                           lambda x: -x, 1)


def variety_count(vid: VarietyId, ctx: FieldCtx) -> int:
    return count_roots(variety_poly(vid, ctx), ctx)


# -- integer polynomials in q ---------------------------------------------


@dataclass(frozen=True)
class QPoly:
    coeffs: tuple[int, ...]

    @staticmethod
    def of(coeffs) -> "QPoly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return QPoly(tuple(cs))

    @staticmethod
    def const(c: int) -> "QPoly":
        return QPoly.of([c])

    def __add__(self, other: "QPoly") -> "QPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return QPoly.of([x + y for x, y in zip(a, b)])

    def __neg__(self) -> "QPoly":
        return QPoly.of([-c for c in self.coeffs])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        if not self.coeffs or not other.coeffs:
            return QPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly.of(out)

    def eval(self, q: int) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = v * q + c
        return v

    def is_zero(self) -> bool:
        return not self.coeffs

    def display(self) -> str:
        return _display(self.coeffs, "q")


# -- symbolic templates ----------------------------------------------------


@dataclass(frozen=True)
class ZetaTerm:
    base: QPoly
    varieties: tuple[tuple[QPoly, str, tuple[str, ...]], ...]
    # each entry: (integer-poly weight, variety tag, parameter names)

    def display(self) -> str:
        parts = []
        if not self.base.is_zero() or not self.varieties:
            parts.append(self.base.display())
        for w, tag, names in self.varieties:
            v = f"|{tag}({','.join(names)})|"
            wd = w.display()
            if wd == "1":
                parts.append(v)
            elif " " in wd:
                parts.append(f"({wd})*{v}")
            else:
                parts.append(f"{wd}*{v}")
        return " + ".join(parts)


@dataclass(frozen=True)
class SymbolicZeta:
    """One branch of the table: its guard, and a template per power of t."""

    family: str
    kind: str
    guard: str
    terms: tuple[ZetaTerm, ...]
    atoms: tuple[tuple[int, int | str, bool], ...]  # the guard, parsed

    def holds(self, params, ctx: FieldCtx | None) -> bool:
        """Whether the guard admits params; ctx=None compares integers."""
        for i, rhs, want in self.atoms:
            x = params[i]
            if rhs == "-b":
                hit = (x + params[1] if ctx is None else ctx.add(x, params[1])) == 0
            elif rhs == "b":
                hit = x == params[1]
            else:  # 0 and 1 are their own encodings in every field
                hit = x == rhs
            if hit != want:
                return False
        return True

    def display(self) -> str:
        chunks = []
        for i, term in enumerate(self.terms):
            td = term.display()
            if td == "0":
                continue
            if i == 0:
                chunks.append(td)
            else:
                t = "t" if i == 1 else f"t^{i}"
                if td == "1":
                    chunks.append(t)
                elif " " in td or "*" in td:
                    chunks.append(f"({td}){t}")
                else:
                    chunks.append(f"{td}{t}")
        return " + ".join(chunks) if chunks else "0"


# -- expression parser -------------------------------------------------------


class _Sym:
    """base + sum of weight * variety, weights and base in Z[q]."""

    __slots__ = ("base", "vs")

    def __init__(self, base=None, vs=None):
        self.base = base if base is not None else QPoly(())
        self.vs: dict[tuple[str, tuple[str, ...]], QPoly] = dict(vs or {})

    def __add__(self, other):
        vs = dict(self.vs)
        for k, w in other.vs.items():
            vs[k] = vs.get(k, QPoly(())) + w
        return _Sym(self.base + other.base, vs)

    def __neg__(self):
        return _Sym(-self.base, {k: -w for k, w in self.vs.items()})

    def __mul__(self, other):
        if self.vs and other.vs:
            raise BranchTableError("product of two variety counts is not allowed")
        if other.vs:
            self, other = other, self
        # other is now a pure q-polynomial
        vs = {k: w * other.base for k, w in self.vs.items()}
        return _Sym(self.base * other.base, vs)


def _capped(sym: _Sym, dim: int) -> _Sym:
    """sym, unless its degree in q is above dim * dim."""
    deg = max(len(w.coeffs) for w in (sym.base, *sym.vs.values())) - 1
    if deg > dim * dim:
        raise BranchTableError(f"degree {deg} in q is above n*n = {dim * dim}")
    return sym


def _parse_expr(node: ast.expr, names: tuple[str, ...], dim: int) -> _Sym:
    """The value of one parsed coefficient expression; any node outside the
    table grammar is refused.  names: the family's parameters, which
    variety arguments may use; dim: its dimension n.  Products and powers
    are expanded, so every exponent and every product's degree in q must be
    at most n*n."""
    match node:
        case ast.BinOp(left, ast.Add() | ast.Sub() as op, right):
            x, y = _parse_expr(left, names, dim), _parse_expr(right, names, dim)
            return x + (-y if isinstance(op, ast.Sub) else y)
        case ast.BinOp(left, ast.Mult(), right):
            return _capped(_parse_expr(left, names, dim) * _parse_expr(right, names, dim),
                           dim)
        case ast.BinOp(left, ast.Pow(), ast.Constant(n)) if type(n) is int:
            if n > dim * dim:
                raise BranchTableError(f"exponent {n} is above n*n = {dim * dim}")
            x = _parse_expr(left, names, dim)
            out = _Sym(QPoly.const(1))
            for _ in range(n):
                out = out * x
            return _capped(out, dim)
        case ast.UnaryOp(ast.USub(), operand):
            return -_parse_expr(operand, names, dim)
        case ast.Constant(c) if type(c) is int:
            return _Sym(QPoly.const(c))
        case ast.Name("q"):
            return _Sym(QPoly.of([0, 1]))
        case ast.Call(ast.Name(tag), args, []) if tag in VARIETY_TAGS:
            args = tuple(ast.unparse(arg) for arg in args)
            for s in args:  # a parameter name, or "-" and one
                if s.removeprefix("-") not in names:
                    raise BranchTableError(f"bad variety parameter {s!r}")
            if len(args) != VARIETY_TAGS[tag]:
                raise BranchTableError(
                    f"{tag} takes {VARIETY_TAGS[tag]} parameters, got {len(args)}")
            return _Sym(QPoly(()), {(tag, args): QPoly.const(1)})
    raise BranchTableError(f"{ast.unparse(node)!r} is not in the table grammar")


# -- branch table -----------------------------------------------------------

# The one branch-table format this parser reads, from the table's
# "version N" line; every loaded table carries it.
TABLE_VERSION = "1"

_KINDS = {"sub": "subalgebra", "ideal": "ideal"}

# atom -> (index of its left parameter, right-hand side, whether it is "=")
_GUARD_ATOMS = {f"{lhs}{op}{rhs}": ("ab".index(lhs),
                                    int(rhs) if rhs.isdigit() else rhs, op == "=")
                for lhs, rhs in (("a", "0"), ("a", "1"), ("b", "0"),
                                 ("a", "-b"), ("a", "b"))
                for op in ("=", "!=")}


def _parse_guard(guard: str, names: tuple[str, ...]):
    if guard == "any":
        return ()
    atoms = []
    for s in guard.split(","):
        s = s.strip()
        if s not in _GUARD_ATOMS:
            raise BranchTableError(f"unknown guard atom {s!r}")
        if set(s) & {"a", "b"} - set(names):
            raise BranchTableError(f"guard {s!r} names a parameter the family lacks")
        atoms.append(_GUARD_ATOMS[s])
    return tuple(atoms)


def _parse_table(text: str) -> dict[tuple[str, str], list[SymbolicZeta]]:
    table: dict[tuple[str, str], list[SymbolicZeta]] = {}
    saw_version = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("version"):
            if line.split() != ["version", TABLE_VERSION]:
                raise BranchTableError(f"unsupported table version: {line!r}")
            saw_version = True
            continue
        try:
            head, body = line.split(":", 1)
            family, kind, guard = head.split()
            if family not in FAMILIES:
                raise BranchTableError(f"unknown family {family!r}")
            if kind not in _KINDS:
                raise BranchTableError(f"unknown kind {kind!r}")
            dim, arity = FAMILIES[family]
            names = ("a", "b")[:arity]
            terms = []
            for e in body.split("|"):
                tree = ast.parse(e.strip().replace("^", "**"), mode="eval")
                sym = _parse_expr(tree.body, names, dim)
                vs = tuple((w, tag, args) for (tag, args), w in sorted(sym.vs.items()))
                terms.append(ZetaTerm(sym.base, vs))
            branch = SymbolicZeta(family, _KINDS[kind], guard, tuple(terms),
                                  _parse_guard(guard, names))
        except BranchTableError as exc:
            raise BranchTableError(f"line {lineno}: {exc}") from None
        except Exception as exc:
            raise BranchTableError(f"line {lineno}: cannot parse {raw!r}") from exc
        table.setdefault((family, branch.kind), []).append(branch)
    if not saw_version:
        raise BranchTableError("branch table has no version line")
    return table


# (p, k) of fields whose parameter tuples meet every consistent combination
# of guard atoms, in both characteristics (see the module docstring).
_COVER_FIELDS = ((2, 2), (5, 1))


@lru_cache(maxsize=4)
def _load_table(path: str | None) -> dict[tuple[str, str], list[SymbolicZeta]]:
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = (resources.files("fqzeta") / "tables" / "zeta_branches.txt").read_text()
    table = _parse_table(text)
    for family, kind in itertools.product(FAMILIES, _KINDS.values()):
        if (family, kind) not in table:
            raise BranchTableError(f"no closed form for {family} / {kind}")
    for p, k in _COVER_FIELDS:  # each block's guards partition the parameters
        ctx = make_field(p, k)
        for (family, kind), branches in table.items():
            arity = FAMILIES[family][1]
            for params in itertools.product(range(ctx.q), repeat=arity):
                hits = sum(br.holds(params, ctx) for br in branches)
                if hits != 1:
                    raise BranchTableError(
                        f"{hits or 'no'} branch{'es' if hits else ''} of "
                        f"{family} / {kind} match{'' if hits else 'es'} params "
                        f"{tuple(params)} over F_{ctx.q}")
    return table


def branch_table() -> dict[tuple[str, str], list[SymbolicZeta]]:
    """Active table; FQZETA_BRANCH_TABLE overrides the packaged file."""
    return _load_table(os.environ.get("FQZETA_BRANCH_TABLE") or None)


def closed_form(family: str, params, kind: str, ctx: FieldCtx | None) -> SymbolicZeta:
    """The branch whose guard admits params; ctx=None compares integers."""
    branches = branch_table().get((family, kind))
    if not branches:
        raise UnknownBranch(f"no closed form for {family} / {kind}")
    for br in branches:
        if br.holds(params, ctx):
            return br
    raise UnknownBranch(f"no branch of {family} / {kind} matches params {tuple(params)}")


def _varieties(sz: SymbolicZeta, params, ctx: FieldCtx) -> list[tuple]:
    """(tag, parameter values) of each variety term of sz at params over ctx,
    in term order; an argument "-a" stands for -a."""
    return [(tag, tuple([ctx.neg(params["ab".index(s[1])]) if s[0] == "-"
                         else params["ab".index(s)] for s in args]))
            for term in sz.terms for _, tag, args in term.varieties]


def _substitute(sz: SymbolicZeta, q: int, counts) -> ZetaPoly:
    """The ZetaPoly of sz at q, with counts[i] the root count of its i-th
    variety term; exact integers."""
    counts, coeffs = iter(counts), []
    for term in sz.terms:
        v = term.base.eval(q)
        for w, _, _ in term.varieties:
            v += w.eval(q) * next(counts)
        coeffs.append(v)
    return ZetaPoly.of(q, coeffs)


def evaluate(sz: SymbolicZeta, params, ctx: FieldCtx) -> ZetaPoly:
    """Substitute q and the concrete variety counts; exact integers.  Each
    variety term is one gf.count_roots call."""
    return _substitute(sz, ctx.q, [variety_count(VarietyId(tag, vals), ctx)
                                   for tag, vals in _varieties(sz, params, ctx)])


def evaluate_many(items, ctx: FieldCtx) -> list[ZetaPoly]:
    """[evaluate(sz, params, ctx) for sz, params in items], with each distinct
    variety polynomial of the batch counted once, all in one
    gf.count_roots_many call over ctx.  No count outlives the call."""
    items = list(items)
    found, polys = _positions(items, ctx)
    counts = count_roots_many(polys, ctx)
    return [_substitute(sz, ctx.q, [counts[i] for i in pos])
            for (sz, _), pos in zip(items, found)]


def _positions(items, ctx: FieldCtx) -> tuple[list[tuple[int, ...]], list[tuple]]:
    """(found, polys): polys holds each distinct variety polynomial of the
    (sz, params) items over ctx once, and found[i] the position in polys of
    each variety term of items[i], in term order.  Its (tag, values) keys
    are freed on return, before the scan."""
    polys: dict[tuple[int, ...], int] = {}  # distinct polynomial -> position
    slot: dict[tuple, int] = {}  # (tag, values) -> its polynomial's position
    found = []
    for sz, params in items:
        pos = []
        for v in _varieties(sz, params, ctx):
            if v not in slot:
                poly = tuple(variety_poly(VarietyId(*v), ctx))
                slot[v] = polys.setdefault(poly, len(polys))
            pos.append(slot[v])
        found.append(tuple(pos))
    return found, list(polys)


def zeta_formula(family: str, params, kind: str, ctx: FieldCtx) -> ZetaPoly:
    return evaluate(closed_form(family, params, kind, ctx), params, ctx)


def realized_q_polynomial(sz: SymbolicZeta, params, ctx: FieldCtx) -> tuple:
    """Coefficient vector as polynomials in q after fixing the variety counts.

    Two instances realize the same member of the family's formula list
    exactly when these vectors agree, which is what the period estimates
    compare.
    """
    counts = iter([variety_count(VarietyId(tag, vals), ctx)
                   for tag, vals in _varieties(sz, params, ctx)])
    out = []
    for term in sz.terms:
        poly = term.base
        for w, _, _ in term.varieties:
            poly = poly + w * QPoly.const(next(counts))
        out.append(poly.coeffs)
    return tuple(out)


# -- the extra-variety identities ------------------------------------------
#
# The subalgebra formulas of M6/M7 carry extra root counts (V6_3, V6_4,
# V7_3) that the ideal formulas do not.  These identities tie each extra
# count back to one already present, which is what keeps the subalgebra
# and ideal formula lists the same size per family.


@dataclass(frozen=True)
class ExtraVarietyReport:
    """clause -> None when its hypothesis fails, else whether it held."""

    clause1: bool | None  # a,b != 0, a != -b:  |V6_2| = |V6_3|
    clause2: bool | None  # a = -b != 0:        |V6_2| - 1 = |V6_4|
    clause3: bool | None  # a,b != 0:           |V7_2| = |V7_3|

    def all_hold(self) -> bool:
        return all(c is not False for c in (self.clause1, self.clause2, self.clause3))


def extra_variety_identities(a: int, b: int, ctx: FieldCtx) -> ExtraVarietyReport:
    def cnt(tag):
        return variety_count(VarietyId(tag, (a, b)), ctx)

    nonzero = a != 0 and b != 0
    a_is_minus_b = ctx.add(a, b) == 0
    clause1 = clause2 = clause3 = None
    if nonzero and not a_is_minus_b:
        clause1 = cnt("V6_2") == cnt("V6_3")
    if a != 0 and a_is_minus_b:
        clause2 = cnt("V6_2") - 1 == cnt("V6_4")
    if nonzero:
        clause3 = cnt("V7_2") == cnt("V7_3")
    return ExtraVarietyReport(clause1, clause2, clause3)
