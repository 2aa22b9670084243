"""F_q-Lie algebras given by structure constants, plus the small solvable catalog.

A LieAlgebra stores the full tensor sc[i][j][k] with [e_i, e_j] = sum_k
sc[i][j][k] e_k over a FieldCtx.  Construction always checks antisymmetry and
the Jacobi identity exhaustively, so an accepted object really is a Lie
algebra.  The catalog covers every solvable family of dimension <= 4 used by
the closed-form zeta tables: the abelian algebras, the two 2-dimensional
algebras, the L-families in dimension 3 and the M-families in dimension 4.

The catalog is one table, CATALOG: family -> (dimension, arity, brackets),
where each structure constant of a presentation is an affine form
c0 + ca*a + cb*b with integer c0, ca, cb in the parameters a, b.  catalog()
evaluates the forms inside the target field, so the constants are reduced
there (M12's 2 vanishes in characteristic 2, and the instance is flagged).
FAMILIES, family -> (dimension, arity), is derived from it.

Catalog parameters are field elements of the target context (encodings
0..q-1), not integers.  Use FieldCtx.embed to reduce integer literals.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .gf import FieldCtx, count_roots

MAX_DIM = 8


class AntisymmetryViolation(ValueError):
    pass


class JacobiViolation(ValueError):
    pass


class BadArity(ValueError):
    pass


class M9ParamReducible(ValueError):
    """x^2 - x - a has a root, so M9(a) does not define a new algebra."""


class BadCatalogId(ValueError):
    pass


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class LieAlgebra:
    ctx: FieldCtx
    n: int
    sc: tuple  # sc[i][j][k], all indices 0-based
    name: str = ""
    params: tuple[int, ...] = ()
    warnings: tuple[str, ...] = ()

    def bracket(self, x, y) -> list[int]:
        """Bilinear extension of the structure constants to coefficient vectors."""
        ctx = self.ctx
        out = [0] * self.n
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.sc[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = ctx.mul(xi, yj)
                for k, s in enumerate(row[j]):
                    if s:
                        out[k] = ctx.add(out[k], ctx.mul(c, s))
        return out

    def adjoint_matrices(self) -> list[list[list[int]]]:
        """C_j for j = 1..n; row i of C_j is the coefficient vector of [e_i, e_j]."""
        return [[list(self.sc[i][j]) for i in range(self.n)] for j in range(self.n)]

    def basis(self) -> list[list[int]]:
        return [[1 if i == j else 0 for j in range(self.n)] for i in range(self.n)]

    def describe(self) -> str:
        return describe_instance(self.name, self.params)


def describe_instance(family: str, params) -> str:
    """Catalog spec text of an instance: "M8", "L3(a=1)", "M6(a=2,b=0)"."""
    if not params:
        return family
    inner = ",".join(f"{key}={v}" for key, v in zip("ab", params))
    return f"{family}({inner})"


def from_structure_constants(ctx: FieldCtx, n: int, sc, name: str = "",
                             params=(), warnings=()) -> LieAlgebra:
    """Validate and freeze an n x n x n structure-constant tensor."""
    if not (1 <= n <= MAX_DIM):
        raise ValueError(f"dimension {n} outside 1..{MAX_DIM}")
    tens = tuple(tuple(tuple(int(c) for c in row) for row in plane) for plane in sc)
    if len(tens) != n or any(len(p) != n or any(len(r) != n for r in p) for p in tens):
        raise ValueError("structure tensor is not n x n x n")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = tens[i][j][k]
                if not 0 <= c < ctx.q:
                    raise ValueError(f"entry ({i},{j},{k}) not a field element")
                if tens[j][i][k] != ctx.neg(c) or (i == j and c != 0):
                    raise AntisymmetryViolation(f"at (i,j,k)=({i + 1},{j + 1},{k + 1})")
    # With the bracket antisymmetric and [e_i, e_i] = 0, the Jacobiator is
    # alternating trilinear, so it vanishes everywhere iff it vanishes on
    # every basis triple i < j < k.
    for i, j, k in itertools.combinations(range(n), 3):
        for t in range(n):
            acc = 0
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for s, x in enumerate(tens[a][b]):
                    if x:
                        acc = ctx.add(acc, ctx.mul(x, tens[s][c][t]))
            if acc:
                raise JacobiViolation(f"at (i,j,k)=({i + 1},{j + 1},{k + 1})")
    return LieAlgebra(ctx=ctx, n=n, sc=tens, name=name, params=tuple(params),
                      warnings=tuple(warnings))


# -- catalog ------------------------------------------------------------
#
# CATALOG maps each family to (dimension, arity, brackets).  brackets is
# {(i, j): {k: (c0, ca, cb)}}: [e_i, e_j] has e_k-coefficient c0 + ca*a + cb*b,
# with the presentations' 1-based generator indices; "all other unlisted
# commutators are trivial" up to antisymmetry.  The integers c0, ca, cb are
# reduced into the target field, so M12's constant 2 vanishes in
# characteristic 2.

_ONE, _A, _B, _NEG_A = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0)

CATALOG: dict[str, tuple[int, int, dict]] = {
    "L11": (1, 0, {}),
    "L21": (2, 0, {}),
    "L22": (2, 0, {(1, 2): {2: _ONE}}),
    "L1": (3, 0, {}),
    "L2": (3, 0, {(3, 1): {1: _ONE}, (3, 2): {2: _ONE}}),
    "L3": (3, 1, {(3, 1): {2: _ONE}, (3, 2): {1: _A, 2: _ONE}}),
    "L4": (3, 1, {(3, 1): {2: _ONE}, (3, 2): {1: _A}}),
    "M1": (4, 0, {}),
    "M2": (4, 0, {(4, 1): {1: _ONE}, (4, 2): {2: _ONE}, (4, 3): {3: _ONE}}),
    "M3": (4, 1, {(4, 1): {1: _ONE}, (4, 2): {3: _ONE},
                  (4, 3): {2: _NEG_A, 3: (1, 1, 0)}}),
    "M4": (4, 0, {(4, 2): {3: _ONE}, (4, 3): {3: _ONE}}),
    "M5": (4, 0, {(4, 2): {3: _ONE}}),
    "M6": (4, 2, {(4, 1): {2: _ONE}, (4, 2): {3: _ONE},
                  (4, 3): {1: _NEG_A, 2: _B, 3: _ONE}}),
    "M7": (4, 2, {(4, 1): {2: _ONE}, (4, 2): {3: _ONE},
                  (4, 3): {1: _NEG_A, 2: _B}}),
    "M8": (4, 0, {(1, 2): {2: _ONE}, (3, 4): {4: _ONE}}),
    "M9": (4, 1, {(4, 1): {1: _ONE, 2: _A}, (4, 2): {1: _ONE},
                  (3, 1): {1: _ONE}, (3, 2): {2: _ONE}}),
    "M12": (4, 0, {(4, 1): {1: _ONE}, (4, 2): {2: (2, 0, 0)},
                   (4, 3): {3: _ONE}, (3, 1): {2: _ONE}}),
    "M13": (4, 1, {(4, 1): {1: _ONE, 3: _A}, (4, 2): {2: _ONE},
                   (4, 3): {1: _ONE}, (3, 1): {2: _ONE}}),
    "M14": (4, 1, {(4, 1): {3: _A}, (4, 3): {1: _ONE}, (3, 1): {2: _ONE}}),
}

# family -> (dimension, arity), in catalog order
FAMILIES: dict[str, tuple[int, int]] = {
    family: (n, arity) for family, (n, arity, _) in CATALOG.items()}


def m9_param_ok(a: int, ctx: FieldCtx) -> bool:
    """True when x^2 - x - a has no root in the field."""
    return count_roots([ctx.neg(a), ctx.neg(1), 1], ctx) == 0


def catalog(family: str, params, ctx: FieldCtx) -> LieAlgebra:
    """Construct a catalog algebra with exactly the recorded catalog brackets."""
    if family not in CATALOG:
        raise BadCatalogId(f"unknown family {family!r}")
    n, arity, brackets = CATALOG[family]
    params = tuple(int(v) for v in params)
    if len(params) != arity:
        raise BadArity(f"{family} takes {arity} parameter(s), got {len(params)}")
    for v in params:
        if not 0 <= v < ctx.q:
            raise ValueError(f"parameter {v} is not an element of F_{ctx.q}")
    if family == "M9" and not m9_param_ok(params[0], ctx):
        raise M9ParamReducible(
            f"x^2 - x - {params[0]} has a root in F_{ctx.q}; "
            "M9 requires it to be irreducible")
    a, b = (*params, 0, 0)[:2]
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    degenerate = False
    for (i, j), comps in brackets.items():
        for k, form in comps.items():
            c0, ca, cb = map(ctx.embed, form)
            degenerate = degenerate or not (c0 or ca or cb)
            c = ctx.add(c0, ctx.add(ctx.mul(ca, a), ctx.mul(cb, b)))
            sc[i - 1][j - 1][k - 1] = c
            sc[j - 1][i - 1][k - 1] = ctx.neg(c)
    # a nonzero presentation constant vanished in the field: M12's 2 in
    # characteristic 2, where the recorded formulas do not apply
    warnings = ("char2-degenerate-constant",) if degenerate else ()
    return from_structure_constants(ctx, n, sc, name=family, params=params,
                                    warnings=warnings)


def valid_params(family: str, ctx: FieldCtx):
    """All parameter tuples the verification sweeps run for this family.

    M9 keeps only the irreducible side condition; M14 is swept over nonzero a
    (the presentations define it for a in F_q^x, and a = 0 reproduces the
    maximal-class nilpotent algebra already covered by M7 at a = b = 0).
    """
    arity = FAMILIES[family][1]
    if arity == 0:
        return [()]
    if family == "M9":
        return [(a,) for a in range(ctx.q) if m9_param_ok(a, ctx)]
    if family == "M14":
        return [(a,) for a in range(1, ctx.q)]
    if arity == 1:
        return [(a,) for a in range(ctx.q)]
    return [(a, b) for a in range(ctx.q) for b in range(ctx.q)]


_SPEC_RE = re.compile(r"^\s*([A-Za-z0-9]+)\s*(?:\(\s*(.*?)\s*\))?\s*$")
_KV_RE = re.compile(r"^([A-Za-z]\w*)\s*=\s*(-?\d+)$")


def parse_algebra_spec(text: str) -> tuple[str, dict[str, int]]:
    """Parse "M6(a=2,b=0)"-style catalog references into (family, kwargs)."""
    m = _SPEC_RE.match(text)
    if not m:
        raise BadCatalogId(f"cannot parse algebra spec {text!r}")
    family, inner = m.group(1), m.group(2)
    if family not in FAMILIES:
        raise BadCatalogId(f"unknown family {family!r}")
    kwargs: dict[str, int] = {}
    if inner:
        for part in inner.split(","):
            kv = _KV_RE.match(part.strip())
            if not kv or kv.group(1) in kwargs:
                raise BadCatalogId(f"bad parameter {part.strip()!r} in {text!r}")
            kwargs[kv.group(1)] = int(kv.group(2))
    arity = FAMILIES[family][1]
    expected = ["a", "b"][:arity]
    if sorted(kwargs) != sorted(expected):
        raise BadArity(f"{family} takes parameters {expected}, got {sorted(kwargs)}")
    return family, kwargs


def catalog_from_spec(text: str, ctx: FieldCtx) -> LieAlgebra:
    family, kwargs = parse_algebra_spec(text)
    arity = FAMILIES[family][1]
    params = [ctx.embed(kwargs[k]) for k in ["a", "b"][:arity]]
    return catalog(family, params, ctx)


# -- structural predicates ----------------------------------------------


def _reduce_rows(rows, ctx: FieldCtx) -> list[list[int]]:
    """Row-reduce over F_q; returns a reduced basis of the row span."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for vec in rows:
        v = list(vec)
        for b, pc in zip(basis, pivots):
            if v[pc]:
                c = v[pc]
                v = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(v, b)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            continue
        inv = ctx.inv(v[piv])
        v = [ctx.mul(inv, x) for x in v]
        basis.append(v)
        pivots.append(piv)
    return basis


def _bracket_span(L: LieAlgebra, left_basis, right_basis) -> list[list[int]]:
    prods = [L.bracket(x, y) for x in left_basis for y in right_basis]
    return _reduce_rows(prods, L.ctx)


def derived_series(L: LieAlgebra) -> list[int]:
    """Dimensions of L, [L,L], [[L,L],[L,L]], ...; stops at 0 or a repeat."""
    dims = [L.n]
    basis = L.basis()
    while True:
        basis = _bracket_span(L, basis, basis)
        d = len(basis)
        dims.append(d)
        if d == 0 or d == dims[-2]:
            return dims


def lower_central_series(L: LieAlgebra) -> list[int]:
    """Dimensions of L, [L,L], [L,[L,L]], ...; stops at 0 or a repeat."""
    dims = [L.n]
    full = L.basis()
    basis = full
    while True:
        basis = _bracket_span(L, full, basis)
        d = len(basis)
        dims.append(d)
        if d == 0 or d == dims[-2]:
            return dims


def is_solvable(L: LieAlgebra) -> bool:
    return derived_series(L)[-1] == 0


def is_nilpotent(L: LieAlgebra) -> bool:
    return lower_central_series(L)[-1] == 0
