import random

import pytest

from fqzeta.gf import make_field
from fqzeta.liealg import (FAMILIES, AntisymmetryViolation, BadArity,
                           BadCatalogId, JacobiViolation, M9ParamReducible,
                           catalog, catalog_from_spec, derived_series,
                           from_structure_constants, is_nilpotent,
                           is_solvable, lower_central_series,
                           parse_algebra_spec, valid_params)

NILPOTENT_INSTANCES = {("L11", ()), ("L21", ()), ("L1", ()), ("L4", (0,)),
                       ("M1", ()), ("M5", ()), ("M7", (0, 0))}


def heisenberg(ctx):
    n = 3
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    sc[0][1][2] = 1
    sc[1][0][2] = ctx.neg(1)
    return from_structure_constants(ctx, n, sc, name="H")


def test_heisenberg_accepted():
    H = heisenberg(make_field(5, 1))
    assert H.bracket([1, 0, 0], [0, 1, 0]) == [0, 0, 1]


def test_antisymmetry_violation():
    ctx = make_field(5, 1)
    sc = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]  # sc[0][1][0] = sc[1][0][0] = 1
    with pytest.raises(AntisymmetryViolation):
        from_structure_constants(ctx, 2, sc)


def test_diagonal_entries_must_vanish():
    ctx = make_field(2, 1)  # char 2: c = -c, so only the i=j check can fire
    sc = [[[1]]]
    with pytest.raises(AntisymmetryViolation):
        from_structure_constants(ctx, 1, sc)


def test_jacobi_violation():
    # [e1,e2]=e3, [e2,e3]=e2 is antisymmetric but fails Jacobi on (1,2,3)
    ctx = make_field(5, 1)
    n = 3
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    sc[0][1][2] = 1
    sc[1][0][2] = ctx.neg(1)
    sc[1][2][1] = 1
    sc[2][1][1] = ctx.neg(1)
    with pytest.raises(JacobiViolation):
        from_structure_constants(ctx, n, sc)
    # the same brackets on e2, e3, e4 with e1 central: over F_2 and F_4 the
    # only failing triple is (2,3,4), the last one the check reaches
    for p, k in [(2, 1), (2, 2)]:
        ctx = make_field(p, k)
        n = 4
        sc = [[[0] * n for _ in range(n)] for _ in range(n)]
        sc[1][2][3] = 1
        sc[2][1][3] = ctx.neg(1)
        sc[2][3][2] = 1
        sc[3][2][2] = ctx.neg(1)
        with pytest.raises(JacobiViolation, match=r"\(2,3,4\)"):
            from_structure_constants(ctx, n, sc)


def test_abelian_accepted():
    ctx = make_field(3, 1)
    sc = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    L = from_structure_constants(ctx, 3, sc)
    assert all(L.bracket(x, y) == [0, 0, 0]
               for x in L.basis() for y in L.basis())


def test_catalog_l22():
    ctx = make_field(3, 1)
    L = catalog("L22", (), ctx)
    e1, e2 = L.basis()
    assert L.bracket(e1, e2) == [0, 1]
    assert L.bracket(e2, e1) == [0, ctx.neg(1)]


def test_catalog_m9_side_condition():
    # x^2 - x - 1 = (x - 3)^2 in F_5
    with pytest.raises(M9ParamReducible):
        catalog("M9", (1,), make_field(5, 1))
    # over F_7 the polynomial x^2 - x - 1 has no root
    L = catalog("M9", (1,), make_field(7, 1))
    assert L.name == "M9"


def test_catalog_m7_00_is_maximal_class_nilpotent():
    L = catalog("M7", (0, 0), make_field(2, 1))
    assert is_nilpotent(L)
    assert lower_central_series(L) == [4, 2, 1, 0]


def test_catalog_bad_arity():
    ctx = make_field(3, 1)
    with pytest.raises(BadArity):
        catalog("M6", (1,), ctx)
    with pytest.raises(BadArity):
        catalog("M8", (1,), ctx)
    with pytest.raises(BadCatalogId):
        catalog("M10", (), ctx)


def test_bracket_alternating_random():
    rng = random.Random(11)
    ctx = make_field(7, 1)
    L = catalog("M6", (2, 3), ctx)
    for _ in range(50):
        x = [rng.randrange(7) for _ in range(4)]
        assert L.bracket(x, x) == [0, 0, 0, 0]


def test_bracket_bilinear_random():
    rng = random.Random(13)
    for fam, params, q in [("M7", (1, 2), 5), ("L3", (2,), 7), ("M13", (3,), 5)]:
        ctx = make_field(q, 1)
        L = catalog(fam, params, ctx)
        n = L.n
        for _ in range(40):
            alpha = rng.randrange(q)
            x = [rng.randrange(q) for _ in range(n)]
            y = [rng.randrange(q) for _ in range(n)]
            z = [rng.randrange(q) for _ in range(n)]
            left = L.bracket([ctx.add(ctx.mul(alpha, xi), yi)
                              for xi, yi in zip(x, y)], z)
            bx = L.bracket(x, z)
            by = L.bracket(y, z)
            right = [ctx.add(ctx.mul(alpha, a), b) for a, b in zip(bx, by)]
            assert left == right


def test_adjoint_matrices_examples():
    ctx = make_field(5, 1)
    m1 = ctx.neg(1)
    L22 = catalog("L22", (), ctx)
    assert L22.adjoint_matrices() == [[[0, 0], [0, m1]], [[0, 1], [0, 0]]]
    L2 = catalog("L2", (), ctx)
    C3 = L2.adjoint_matrices()[2]
    assert C3 == [[m1, 0, 0], [0, m1, 0], [0, 0, 0]]
    M1 = catalog("M1", (), ctx)
    assert all(all(all(c == 0 for c in row) for row in Cj)
               for Cj in M1.adjoint_matrices())


def test_series_and_predicates_examples():
    ctx = make_field(3, 1)
    assert is_nilpotent(catalog("M1", (), ctx))
    M8 = catalog("M8", (), ctx)
    assert is_solvable(M8) and not is_nilpotent(M8)
    assert derived_series(M8)[-1] == 0
    assert is_nilpotent(catalog("M7", (0, 0), ctx))


def test_every_catalog_entry_constructs_and_passes_jacobi():
    # construction itself validates antisymmetry + Jacobi exhaustively
    for q, (p, k) in {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1),
                      7: (7, 1), 8: (2, 3), 9: (3, 2)}.items():
        ctx = make_field(p, k)
        for family in FAMILIES:
            for params in valid_params(family, ctx):
                L = catalog(family, params, ctx)
                assert L.n == FAMILIES[family][0]


def test_nilpotency_matches_recorded_list():
    for q, (p, k) in {3: (3, 1), 5: (5, 1), 7: (7, 1)}.items():
        ctx = make_field(p, k)
        for family in FAMILIES:
            for params in valid_params(family, ctx):
                L = catalog(family, params, ctx)
                expect = (family, params) in NILPOTENT_INSTANCES
                assert is_nilpotent(L) == expect, (family, params, q)
                assert is_solvable(L), (family, params, q)


def test_m12_char2_flagged():
    L = catalog("M12", (), make_field(2, 1))
    assert L.warnings == ("char2-degenerate-constant",)
    assert catalog("M12", (), make_field(3, 1)).warnings == ()


def test_catalog_brackets_match_presentations():
    # campaign and iso-pair order follow the catalog order
    assert list(FAMILIES.items()) == [
        ("L11", (1, 0)), ("L21", (2, 0)), ("L22", (2, 0)), ("L1", (3, 0)),
        ("L2", (3, 0)), ("L3", (3, 1)), ("L4", (3, 1)), ("M1", (4, 0)),
        ("M2", (4, 0)), ("M3", (4, 1)), ("M4", (4, 0)), ("M5", (4, 0)),
        ("M6", (4, 2)), ("M7", (4, 2)), ("M8", (4, 0)), ("M9", (4, 1)),
        ("M12", (4, 0)), ("M13", (4, 1)), ("M14", (4, 1))]
    for ctx, a, b in [(make_field(2, 2), 2, 3), (make_field(5, 1), 2, 3)]:
        neg, add = ctx.neg, ctx.add

        def br(family, params, i, j):
            L = catalog(family, params, ctx)
            return L.bracket(L.basis()[i - 1], L.basis()[j - 1])

        assert br("L3", (a,), 3, 2) == [a, 1, 0]
        assert br("L4", (a,), 3, 2) == [a, 0, 0]
        assert br("M3", (a,), 4, 3) == [0, neg(a), add(a, 1), 0]
        assert br("M6", (a, b), 4, 3) == [neg(a), b, 1, 0]
        assert br("M6", (a, b), 3, 4) == [a, neg(b), neg(1), 0]
        assert br("M7", (a, b), 4, 3) == [neg(a), b, 0, 0]
        m9 = valid_params("M9", ctx)[-1][0]
        assert br("M9", (m9,), 4, 1) == [1, m9, 0, 0]
        assert br("M13", (a,), 4, 1) == [1, 0, a, 0]
        assert br("M14", (a,), 4, 1) == [0, 0, a, 0]
        # [e4, e2] = 2 e2, which vanishes in characteristic 2
        assert br("M12", (), 4, 2) == ([0, 0, 0, 0] if ctx.p == 2
                                       else [0, 2, 0, 0])


def test_m14_sweep_excludes_zero():
    ctx = make_field(5, 1)
    assert (0,) not in valid_params("M14", ctx)
    assert len(valid_params("M14", ctx)) == 4
    # a = 0 is still constructible on demand
    assert catalog("M14", (0,), ctx).params == (0,)


def test_m9_valid_param_counts():
    # x^2 - x - a is irreducible for (q-1)/2 values at odd prime q
    for q in (3, 5, 7, 11, 13):
        ctx = make_field(q, 1)
        assert len(valid_params("M9", ctx)) == (q - 1) // 2
    # over F_9 every prime-subfield quadratic splits, but 4 field values work
    assert len(valid_params("M9", make_field(3, 2))) == 4


def test_parse_algebra_spec():
    assert parse_algebra_spec("M8") == ("M8", {})
    assert parse_algebra_spec("M6(a=2,b=0)") == ("M6", {"a": 2, "b": 0})
    assert parse_algebra_spec(" L3( a = -1 ) ") == ("L3", {"a": -1})
    with pytest.raises(BadCatalogId):
        parse_algebra_spec("XX(a=1)")
    with pytest.raises(BadArity):
        parse_algebra_spec("M6(a=2)")
    with pytest.raises(BadArity):
        parse_algebra_spec("M8(a=1)")


def test_parse_algebra_spec_refuses_a_repeated_name():
    # not read as its last value, M6(a=3,b=1)
    with pytest.raises(BadCatalogId, match="'a=3'"):
        parse_algebra_spec("M6(a=2,a=3,b=1)")


def test_catalog_from_spec_embeds_literals():
    ctx = make_field(5, 1)
    L = catalog_from_spec("L3(a=7)", ctx)
    assert L.params == (2,)
