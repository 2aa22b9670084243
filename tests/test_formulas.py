import itertools
import re
import time
from importlib import resources

import pytest

from fqzeta import formulas
from fqzeta.formulas import (_COVER_FIELDS, BranchTableError, QPoly,
                             UnknownBranch, VarietyId, _parse_table,
                             branch_table, closed_form, evaluate, evaluate_many,
                             gaussian_binomial, realized_q_polynomial,
                             extra_variety_identities,
                             variety_count, variety_poly, variety_poly_int,
                             zeta_formula)
from fqzeta.gf import TABLE_LIMIT, field_of_order, make_field
from fqzeta.liealg import FAMILIES, catalog, valid_params
from fqzeta.oracle import zeta_oracle

ODD_PRIME_POWERS_LE_49 = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31,
                          37, 41, 43, 47, 49]


def test_gaussian_binomial_against_subspace_oracle():
    # 35 two-dimensional subspaces of F_2^4, counted independently
    z = zeta_oracle(catalog("M1", (), make_field(2, 1)), "ideal")
    assert z.coeffs[2] == 35
    assert gaussian_binomial(4, 2, 2) == 35


def test_gaussian_binomial_edges_and_factorization():
    for n, q in [(1, 2), (4, 3), (6, 5)]:
        assert gaussian_binomial(n, 0, q) == 1
        assert gaussian_binomial(n, n, q) == 1
        assert gaussian_binomial(n, n + 1, q) == 0
        assert gaussian_binomial(n, -1, q) == 0
    for q in (2, 3, 5, 7):
        assert gaussian_binomial(4, 2, q) == (1 + q + q * q) * (1 + q * q)


def test_gaussian_binomial_symmetry():
    for n in range(7):
        for i in range(n + 1):
            for q in (2, 3, 4):
                assert gaussian_binomial(n, i, q) == gaussian_binomial(n, n - i, q)


def test_variety_counts_examples():
    for q in (2, 3, 4, 5, 7, 9):
        ctx = field_of_order(q)
        assert variety_count(VarietyId("V3", (0,)), ctx) == 1
    assert variety_count(VarietyId("V4", (1,)), make_field(5, 1)) == 2
    # |V13(0)| = 2 in every characteristic: x^2+x = x(x+1)
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        ctx = field_of_order(q)
        assert variety_count(VarietyId("V13", (0,)), ctx) == 2


def test_variety_degree_bounds():
    for q in (3, 5, 7):
        ctx = make_field(q, 1)
        for a in range(q):
            for b in range(q):
                for tag in ("V6_1", "V7_1"):
                    assert variety_count(VarietyId(tag, (a, b)), ctx) <= 3
            for tag in ("V3", "V4", "V13", "V14"):
                assert variety_count(VarietyId(tag, (a,)), ctx) <= 2


def test_variety_poly_int_matches_field_reduction():
    for tag, params in [("V3", (2,)), ("V6_3", (1, 2)), ("V7_3", (3, 1)),
                        ("V13", (4,))]:
        ints = variety_poly_int(tag, params)
        for q in (5, 7, 11):
            ctx = make_field(q, 1)
            fparams = tuple(ctx.embed(t) for t in params)
            assert [c % q for c in ints] == variety_poly(
                VarietyId(tag, fparams), ctx)


def test_closed_form_examples():
    ctx = make_field(7, 1)
    m8 = closed_form("M8", (), "ideal", ctx)
    assert [t.base.coeffs for t in m8.terms] == [(1,), (1, 1), (3,), (2,), (1,)]
    assert all(not t.varieties for t in m8.terms)

    l3 = closed_form("L3", (2,), "ideal", ctx)
    assert l3.guard == "a!=0"
    assert l3.terms[2].base.coeffs == ()
    assert l3.terms[2].varieties[0][1] == "V3"

    m9 = closed_form("M9", (1,), "ideal", ctx)
    assert [t.base.eval(7) for t in m9.terms] == [1, 8, 1, 0, 1]


def test_evaluate_examples():
    assert zeta_formula("M8", (), "ideal", make_field(7, 1)).coeffs == (1, 8, 3, 2, 1)
    assert zeta_formula("L1", (), "ideal", make_field(2, 1)).coeffs == (1, 7, 7, 1)
    # M7(2,0) ideal at p=31: both cubic counts are 3 since 31 = 2^2 + 27
    z = zeta_formula("M7", (2, 0), "ideal", make_field(31, 1))
    assert z.coeffs == (1, 1, 3, 3, 1)


@pytest.mark.parametrize("q", [2, 4, 7, 9, 16, 17, 37, 257, 1024])
def test_evaluate_many_matches_evaluate(q, monkeypatch):
    # every instance of both kinds over F_q in one batch gives evaluate's
    # polynomials, in item order, with each distinct variety polynomial of
    # the batch passed to one count_roots_many call once, and each distinct
    # (branch, count vector) substituted once, its ZetaPoly shared; above
    # TABLE_LIMIT (no dense tables) the one-parameter families only
    ctx = field_of_order(q)
    families = FAMILIES if q <= TABLE_LIMIT else ("L3", "L4", "M13", "M14")
    items = [(closed_form(family, params, kind, ctx), params)
             for kind in ("ideal", "subalgebra") for family in families
             for params in valid_params(family, ctx)]
    want = [evaluate(sz, params, ctx) for sz, params in items]
    # each instance's count vector, one variety_count per term
    pairs = {(id(sz), tuple(variety_count(VarietyId(*v), ctx)
                            for v in formulas._varieties(sz, params, ctx)))
             for sz, params in items}
    calls, subs = [], []
    real_many, real_substitute = formulas.count_roots_many, formulas._substitute

    def record(polys, ctx):
        calls.append(list(polys))
        return real_many(calls[-1], ctx)

    def substitute(sz, q, counts):
        subs.append((id(sz), tuple(counts)))
        return real_substitute(sz, q, counts)

    monkeypatch.setattr(formulas, "count_roots_many", record)
    monkeypatch.setattr(formulas, "_substitute", substitute)
    got = evaluate_many(iter(items), ctx)
    assert got == want
    assert len(calls) == 1 and len(set(calls[0])) == len(calls[0])
    assert set(calls[0]) == {tuple(variety_poly(VarietyId(*v), ctx))
                             for sz, params in items
                             for v in formulas._varieties(sz, params, ctx)}
    assert len(subs) == len(set(subs)) == len(pairs) <= len(items)
    assert set(subs) == pairs
    assert len({id(z) for z in got}) == len(pairs)
    assert evaluate_many([], ctx) == []


@pytest.mark.parametrize("q", [4, 7, 25])
def test_realized_many_matches_realized_q_polynomial(q, monkeypatch):
    # the batched vectors of period equal the per-instance ones, with one
    # count_roots_many call for the whole list
    ctx = field_of_order(q)
    items = [(closed_form(family, params, kind, ctx), params)
             for kind in ("ideal", "subalgebra") for family in FAMILIES
             for params in valid_params(family, ctx)]
    want = [realized_q_polynomial(sz, params, ctx) for sz, params in items]
    calls, real = [], formulas.count_roots_many
    monkeypatch.setattr(formulas, "count_roots_many",
                        lambda polys, ctx: calls.append(polys) or real(polys, ctx))
    assert formulas._realized_many(iter(items), ctx) == want
    assert len(calls) == 1


def test_branch_guards_partition_every_family():
    table = branch_table()
    assert set(table) == {(f, k) for f in FAMILIES
                          for k in ("subalgebra", "ideal")}
    # F_4 meets every char-2 combination of a=0, a=1, b=0 and a=b (= a=-b)
    for q in (2, 3, 4, 5):
        ctx = field_of_order(q)
        for (family, kind), branches in table.items():
            for params in valid_params(family, ctx):
                hits = [br for br in branches if br.holds(params, ctx)]
                assert len(hits) == 1, (family, kind, params, q)


def test_templates_have_unit_endpoints():
    for (family, kind), branches in branch_table().items():
        for br in branches:
            for term in (br.terms[0], br.terms[-1]):
                assert term.base.coeffs == (1,) and not term.varieties, \
                    (family, kind, br.guard)


def test_closed_form_unknown():
    with pytest.raises(UnknownBranch):
        closed_form("XXX", (), "ideal", None)
    with pytest.raises(UnknownBranch):
        closed_form("M8", (), "sub", None)  # kinds are spelled out


def test_integer_guard_semantics():
    # ctx=None compares the parameters as integers, as period estimates do:
    # a=-b means a + b = 0 over Z, but only a + b = 0 mod p in the field
    table = _parse_table("version 1\n"
                         "M6 ideal a=-b  : 1 | 1 | 1 | 1 | 1\n"
                         "M6 ideal a!=-b : 1 | 1 | 2 | 1 | 1\n")
    hit, miss = table[("M6", "ideal")]
    assert hit.holds((2, -2), None) and not miss.holds((2, -2), None)
    assert miss.holds((2, 5), None) and not hit.holds((2, 5), None)
    F7 = make_field(7, 1)
    assert hit.holds((2, 5), F7) and not miss.holds((2, 5), F7)
    assert closed_form("M6", (1, 0), "ideal", None).guard == "a!=0,b=0"


def test_leading_unary_minus():
    table = _parse_table("version 1\n"
                         "L3 ideal any : 1 | -1+2*q | -(q-V3(a)) | 1\n")
    (br,) = table[("L3", "ideal")]
    assert br.terms[1].base.coeffs == (-1, 2)
    assert br.terms[2].base.coeffs == (0, -1)
    assert br.terms[2].varieties == ((QPoly.const(1), "V3", ("a",)),)
    # Python's grammar: a minus after an operator, and ** for ^
    table = _parse_table("version 1\n"
                         "L3 ideal any : 1 | 2*-q^2 | q**2-V3(-a) | 1\n")
    (br,) = table[("L3", "ideal")]
    assert br.terms[1].base.coeffs == (0, 0, -2)
    assert br.terms[2].base.coeffs == (0, 0, 1)
    assert br.terms[2].varieties == ((QPoly.const(-1), "V3", ("-a",)),)


def test_extra_variety_identity_examples():
    F5 = make_field(5, 1)
    rep = extra_variety_identities(1, 1, F5)
    assert rep.clause1 is True and rep.clause3 is True and rep.clause2 is None
    F7 = make_field(7, 1)
    rep2 = extra_variety_identities(3, 4, F7)  # 3 = -4 in F_7
    assert rep2.clause2 is True and rep2.clause1 is None
    rep3 = extra_variety_identities(0, 2, F7)
    assert (rep3.clause1, rep3.clause2, rep3.clause3) == (None, None, None)


def test_extra_variety_identities_small_fields():
    for q in (3, 5, 9):
        ctx = field_of_order(q)
        for a in range(1, q):
            for b in range(1, q):
                assert extra_variety_identities(a, b, ctx).all_hold(), (q, a, b)


def test_intro_and_body_groupings_agree():
    # |V6_2(0,b)| = |V3(b)| and |V7_2(0,b)| = |V4(b)|: the two ways of
    # writing the a=0 rows count the same roots
    for q in (2, 3, 4, 5, 7, 9, 11, 13, 16, 25):
        ctx = field_of_order(q)
        for b in range(1, ctx.q):
            assert variety_count(VarietyId("V6_2", (0, b)), ctx) == \
                variety_count(VarietyId("V3", (b,)), ctx)
            assert variety_count(VarietyId("V7_2", (0, b)), ctx) == \
                variety_count(VarietyId("V4", (b,)), ctx)


def test_qpoly_arithmetic():
    p = QPoly.of([1, 2]) * QPoly.of([0, 1]) + QPoly.const(3)
    assert p.coeffs == (3, 1, 2)
    assert p.eval(5) == 58
    assert (QPoly.of([1, 1]) - QPoly.of([1, 1])).is_zero()
    assert QPoly.of([1, 0, 2]).display() == "1 + 2q^2"
    assert QPoly.of([0, -1]).display() == "-q"


def test_realized_q_polynomial_separates_branch_instances():
    ctx = make_field(7, 1)
    sz1 = closed_form("L3", (1,), "ideal", ctx)   # disc 5 non-square: 0 roots
    sz2 = closed_form("L3", (2,), "ideal", ctx)   # disc 9 square: 2 roots
    r1 = realized_q_polynomial(sz1, (1,), ctx)
    r2 = realized_q_polynomial(sz2, (2,), ctx)
    assert r1 != r2
    assert r1[2] == () and r2[2] == (2,)


def test_table_loader_rejects_garbage():
    with pytest.raises(BranchTableError):
        _parse_table("L22 ideal any : 1 | 1 | 1\n")  # missing version line
    with pytest.raises(BranchTableError, match="product"):
        _parse_table("version 1\nL3 ideal any : 1 | 1 | V3(a)*V4(a) | 1\n")
    with pytest.raises(BranchTableError):
        _parse_table("version 2\n")
    with pytest.raises(BranchTableError, match="line 2: unknown guard atom"):
        _parse_table("version 1\nL22 ideal a<b : 1 | 1 | 1\n")


@pytest.mark.parametrize("line, message", [
    ("X9 ideal any : 1 | 1", "unknown family"),
    ("L22 subalg any : 1 | 1 | 1", "unknown kind"),
    ("L22 ideal a=0 : 1 | 1 | 1", "names a parameter"),
    ("L3 ideal b!=0 : 1 | 1 | 1 | 1", "names a parameter"),
    ("L3 ideal a=-b : 1 | 1 | 1 | 1", "names a parameter"),
    ("L22 ideal any : 1 | V3(a,b) | 1", "bad variety parameter"),
    ("L3 ideal any : 1 | 1 | V3(-b) | 1", "bad variety parameter"),
    ("M6 ideal any : 1 | 1 | V3(a,b) | 1 | 1", "V3 takes 1 parameters"),
    ("M6 ideal any : 1 | 1 | V6_1(a) | 1 | 1", "V6_1 takes 2 parameters"),
    ("L22 ideal any : 1 | | 1", "cannot parse"),
] + [(f"L3 ideal any : 1 | 1 | {expr} | 1", f"{node!r} is not in the table grammar")
     for expr, node in [
         ("1/q", "1 / q"), ("q%2", "q % 2"), ("1.5", "1.5"), ("True", "True"),
         ("q^q", "q ** q"), ("q^-1", "q ** (-1)"), ("q^2^3", "q ** 2 ** 3"),
         ("V9(a)", "V9(a)"), ("V3(a=a)", "V3(a=a)"), ("q.real", "q.real"),
         ("[q]", "[q]"), ("x", "x"), ('__import__("os")', "__import__('os')"),
         ("q if q else 1", "q if q else 1"), ("+q", "+q")]])
def test_table_loader_checks_each_line_once(line, message):
    # every line is checked when the table loads, naming the line, even a
    # branch that an earlier guard of its block would shadow at lookup time;
    # Python's parser reads any expression, so the grammar refuses the rest
    text = "version 1\nL22 ideal any : 1 | 1 | 1\n" + line + "\n"
    with pytest.raises(BranchTableError, match=f"line 3: .*{re.escape(message)}"):
        _parse_table(text)


def test_exponent_bounded_by_the_dimension_squared():
    # a power is expanded by repeated products: a huge exponent is refused
    # before any product, naming the line
    t0 = time.perf_counter()
    with pytest.raises(BranchTableError,
                       match=r"line 2: exponent 400000 is above n\*n = 16"):
        _parse_table("version 1\nM6 sub any : 1 | q^400000 | 1 | 1 | 1\n")
    assert time.perf_counter() - t0 < 0.01
    table = _parse_table("version 1\nM6 sub any : 1 | q^16 | 1 | 1 | 1\n")
    assert table["M6", "subalgebra"][0].terms[1].base.coeffs == (0,) * 16 + (1,)
    with pytest.raises(BranchTableError, match="line 2: exponent 5 is above n"):
        _parse_table("version 1\nL22 ideal any : 1 | (1+q)^5 | 1\n")
    # each exponent passes, but the expanded degrees would reach 4096
    t0 = time.perf_counter()
    for expr in ["(((1+q)^16)^16)^16", "*".join(["(1+q)^16"] * 500)]:
        with pytest.raises(BranchTableError,
                           match=r"line 2: degree \d+ in q is above n\*n = 16"):
            _parse_table(f"version 1\nM6 sub any : 1 | {expr} | 1 | 1 | 1\n")
    assert time.perf_counter() - t0 < 0.1


def _packaged_with(tmp_path, old, new):
    packaged = (resources.files("fqzeta") / "tables" /
                "zeta_branches.txt").read_text()
    assert old in packaged
    alt = tmp_path / "alt.txt"
    alt.write_text(packaged.replace(old, new))
    return str(alt)


@pytest.mark.parametrize("old, new, message", [
    ("L3 ideal a=0  : 1 | 1+q | 2 | 1\n", "",
     "no branch of L3 / ideal matches params (0,) over F_4"),
    ("L3 ideal a=0  : 1 | 1+q | 2 | 1", "L3 ideal any  : 1 | 1+q | 2 | 1",
     "2 branches of L3 / ideal match params (1,) over F_4"),
    ("M14 ideal a=0  : 1 | 1+q | 1 | 1 | 1\n", "",
     "no branch of M14 / ideal matches params (0,) over F_4"),
])
def test_table_load_checks_guard_coverage(old, new, message, tmp_path,
                                          monkeypatch):
    # each line parses, but the block's guards do not partition the
    # parameters: refused when the table loads, not when a row reaches it
    path = _packaged_with(tmp_path, old, new)
    with open(path, encoding="utf-8") as fh:
        _parse_table(fh.read())
    monkeypatch.setenv("FQZETA_BRANCH_TABLE", path)
    with pytest.raises(BranchTableError, match=re.escape(message)):
        branch_table()


def test_table_load_refuses_a_missing_block(tmp_path, monkeypatch):
    # the table records every family and kind, whatever a caller asks for
    monkeypatch.setenv("FQZETA_BRANCH_TABLE", _packaged_with(
        tmp_path, "L22 ideal any : 1 | 1 | 1\nL22 sub   any : 1 | 1+q | 1\n", ""))
    with pytest.raises(BranchTableError, match="^no closed form for L22 / "):
        branch_table()


def _atom_patterns(arity, ctx):
    # which of a=0, a=1, b=0, a=b, a=-b each parameter tuple meets
    out = set()
    for params in itertools.product(range(ctx.q), repeat=arity):
        a, b = params + (None,) * (2 - arity)
        atoms = () if a is None else (a == 0, a == 1)
        if b is not None:
            atoms += (b == 0, a == b, ctx.add(a, b) == 0)
        out.add(atoms)
    return out


@pytest.mark.parametrize("arity, sizes", [(0, (1, 1)), (1, (3, 3)), (2, (8, 10))])
def test_cover_fields_meet_every_atom_pattern(arity, sizes):
    # the load-time coverage check runs over _COVER_FIELDS only: no other
    # field of either characteristic meets a combination of guard atoms that
    # they miss.  There are 8 combinations of two parameters in
    # characteristic 2, where a=b is a=-b, and 10 in odd characteristic
    seen = {0: set(), 1: set()}  # characteristic 2, odd
    for p, k in _COVER_FIELDS:
        seen[p % 2] |= _atom_patterns(arity, make_field(p, k))
    assert (len(seen[0]), len(seen[1])) == sizes
    for q in (2, 3, 7, 8, 9, 11, 13, 16, 25, 27, 32):
        ctx = field_of_order(q)
        assert _atom_patterns(arity, ctx) <= seen[ctx.p % 2], q


def test_env_override_table(tmp_path, monkeypatch):
    monkeypatch.setenv("FQZETA_BRANCH_TABLE", _packaged_with(
        tmp_path, "L22 ideal any : 1 | 1 | 1", "L22 ideal any : 1 | 5 | 1"))
    ctx = make_field(3, 1)
    assert zeta_formula("L22", (), "ideal", ctx).coeffs == (1, 5, 1)
    monkeypatch.delenv("FQZETA_BRANCH_TABLE")
    assert zeta_formula("L22", (), "ideal", ctx).coeffs == (1, 1, 1)


def test_formula_matches_oracle_spot_sample():
    # full equivalence is the acceptance gate; keep a small cross-check here
    for q, (p, k) in {3: (3, 1), 4: (2, 2)}.items():
        ctx = make_field(p, k)
        for fam in ("L22", "L3", "M3", "M6", "M13"):
            for params in valid_params(fam, ctx)[:4]:
                for kind in ("ideal", "subalgebra"):
                    assert zeta_formula(fam, params, kind, ctx).coeffs == \
                        zeta_oracle(catalog(fam, params, ctx), kind).coeffs
