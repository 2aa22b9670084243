import ast
import random
from functools import reduce
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_basis_invariance import _rank, conjugate

from fqzeta import rrdf
from fqzeta.formulas import (VarietyId, closed_form, evaluate,
                             gaussian_binomial, variety_count)
from fqzeta.gf import field_of_order, make_field
from fqzeta.liealg import FAMILIES, catalog, from_structure_constants, valid_params
from fqzeta.rrdf import (CHUNK, DiagonalType, DimensionMismatch, cell_count,
                         cell_count_scalar, cell_size, diagonal_types,
                         enumerate_cell, is_ideal, is_subalgebra,
                         zeta_enumerate)


def dt(a_vec, b_vec):
    return DiagonalType(tuple(a_vec), tuple(b_vec))


def test_diagonal_types_n2():
    types = diagonal_types(2)
    assert len(types) == 4
    assert set(types) == {dt((0,), (2,)), dt((1,), (1,)),
                          dt((0, 1), (1, 0)), dt((2,), (0,))}
    assert types == diagonal_types(2)  # deterministic order


def test_diagonal_types_n3_codim1():
    got = {t for t in diagonal_types(3) if t.codim == 1}
    assert got == {dt((1,), (2,)), dt((0, 1), (1, 1)), dt((0, 1), (2, 0))}


def test_diagonal_types_n1_and_count():
    assert set(diagonal_types(1)) == {dt((0,), (1,)), dt((1,), (0,))}
    for n in range(1, 7):
        assert len(diagonal_types(n)) == 2**n


def test_normal_form_unique():
    # diagonal (0,0,1,1) is r=1 with a1=b1=2, never split further
    t = DiagonalType.from_pattern((0, 0, 1, 1))
    assert t == dt((2,), (2,))
    assert t.pattern() == (0, 0, 1, 1)
    # every type round-trips through its pattern
    for n in (1, 2, 3, 4, 5):
        for t in diagonal_types(n):
            assert DiagonalType.from_pattern(t.pattern()) == t


def test_cell_size_examples():
    assert cell_size(dt((0, 1), (2, 0)), 5) == 25
    assert cell_size(dt((3,), (0,)), 7) == 1
    assert cell_size(dt((0, 2), (1, 0)), 3) == 9
    # confirm by generating the cell
    ctx = make_field(5, 1)
    assert sum(1 for _ in enumerate_cell(dt((0, 1), (2, 0)), ctx)) == 25


def test_enumerate_cell_examples():
    F3 = make_field(3, 1)
    assert sum(1 for _ in enumerate_cell(dt((1,), (1,)), F3)) == 1
    mats = [M.matrix() for M in enumerate_cell(dt((0, 1), (1, 0)), F3)]
    assert mats == [[[1, m], [0, 0]] for m in range(3)]
    F2 = make_field(2, 1)
    big = list(enumerate_cell(dt((0, 1), (3, 0)), F2))
    assert len(big) == 8
    # free entries are m14, m24, m34
    seen = {tuple(M.matrix()[r][3] for r in range(3)) for M in big}
    assert len(seen) == 8


def _matmul(A, B, ctx):
    n = len(A)
    return [[_dot(A[i], [B[t][j] for t in range(n)], ctx) for j in range(n)]
            for i in range(n)]


def _dot(u, v, ctx):
    s = 0
    for a, b in zip(u, v):
        s = ctx.add(s, ctx.mul(a, b))
    return s


def test_mm_sharp_equals_m_flat_exhaustive():
    for q, (p, k) in {2: (2, 1), 3: (3, 1), 4: (2, 2)}.items():
        ctx = make_field(p, k)
        for n in range(1, 5):
            for t in diagonal_types(n):
                for M in enumerate_cell(t, ctx):
                    assert _matmul(M.matrix(), M.msharp(), ctx) == M.mflat()


def test_cells_partition_the_grassmannian():
    for n in range(1, 5):
        for q in (2, 3, 4, 5):
            total = sum(cell_size(t, q) for t in diagonal_types(n))
            assert total == sum(gaussian_binomial(n, i, q) for i in range(n + 1))


def test_is_ideal_l22_cell():
    ctx = make_field(5, 1)
    L = catalog("L22", (), ctx)
    # the condition -1 = 0 is unsolvable: no member of the cell is an ideal
    for M in enumerate_cell(dt((0, 1), (1, 0)), ctx):
        assert not is_ideal(M, L)


def test_is_ideal_abelian_everything():
    ctx = make_field(3, 1)
    L = catalog("L1", (), ctx)
    for t in diagonal_types(3):
        for M in enumerate_cell(t, ctx):
            assert is_ideal(M, L)


def test_is_ideal_l3_cell_solution_set():
    # in cell ((0,2),(1,0)) the conditions are m13 = 0, 1 + m12 - a m12^2 = 0
    for a in (0, 2, 3):
        ctx = make_field(5, 1)
        L = catalog("L3", (a,), ctx)
        for M in enumerate_cell(dt((0, 2), (1, 0)), ctx):
            m12, m13 = M.matrix()[0][1], M.matrix()[0][2]
            lhs = ctx.add(ctx.add(1, m12), ctx.neg(ctx.mul(a, ctx.mul(m12, m12))))
            assert is_ideal(M, L) == (m13 == 0 and lhs == 0)


def test_codim_n_minus_1_cells_are_subalgebras():
    # one-dimensional subspaces are automatically subalgebras
    for fam, params in [("L22", ()), ("L3", (2,)), ("M6", (1, 2)), ("M8", ())]:
        ctx = make_field(3, 1)
        L = catalog(fam, params, ctx)
        count = 0
        for t in diagonal_types(L.n):
            if t.codim != L.n - 1:
                continue
            for M in enumerate_cell(t, ctx):
                assert is_subalgebra(M, L)
                count += 1
        assert count == gaussian_binomial(L.n, 1, 3)


def test_ideal_implies_subalgebra():
    ctx = make_field(3, 1)
    for fam, params in [("L2", ()), ("M7", (1, 1)), ("M13", (2,))]:
        L = catalog(fam, params, ctx)
        for t in diagonal_types(L.n):
            for M in enumerate_cell(t, ctx):
                if is_ideal(M, L):
                    assert is_subalgebra(M, L)


def test_every_subspace_subalgebra_family():
    # [e1, ei] = ei for i >= 2 makes every subspace a subalgebra, so the
    # subalgebra zeta polynomial collapses to the abelian one
    for n in (2, 3, 4, 5):
        for q in (2, 3, 4, 5):
            ctx = field_of_order(q)
            sc = [[[0] * n for _ in range(n)] for _ in range(n)]
            for i in range(1, n):
                sc[0][i][i] = 1
                sc[i][0][i] = ctx.neg(1)
            L = from_structure_constants(ctx, n, sc)
            z = zeta_enumerate(L, "subalgebra")
            assert z.coeffs == tuple(gaussian_binomial(n, i, q)
                                     for i in range(n + 1)), (n, q)


def test_cell_count_examples():
    # c_ideal of L_a^3 in cell ((0,2),(1,0)) equals |V3(a)|, full grids
    for q in (3, 5, 7):
        ctx = make_field(q, 1)
        for a in range(q):
            L = catalog("L3", (a,), ctx)
            assert cell_count(L, dt((0, 2), (1, 0)), "ideal") == \
                variety_count(VarietyId("V3", (a,)), ctx)
    # no member of ((2),(1)) is an ideal of L^2
    for q in (3, 5, 7):
        ctx = make_field(q, 1)
        L2 = catalog("L2", (), ctx)
        assert cell_count(L2, dt((2,), (1,)), "ideal") == 0
    # abelian: every cell member is an ideal, so counts equal cell sizes;
    # the q^2-sized codimension-1 cell is ((0,1),(2,0)), while ((1),(2))
    # holds the single matrix with pivots in the last two columns
    for q in (3, 5):
        ctx = make_field(q, 1)
        L1 = catalog("L1", (), ctx)
        assert cell_count(L1, dt((0, 1), (2, 0)), "ideal") == q * q
        assert cell_size(dt((0, 1), (2, 0)), q) == q * q
        assert cell_count(L1, dt((1,), (2,)), "ideal") == 1
        assert cell_size(dt((1,), (2,)), q) == 1


def test_cell_count_m7_criterion_cell():
    # c_ideal in ((0,2),(2,0)) equals |V7_2(a,b)| on the full grid
    for q in (3, 5, 7):
        ctx = make_field(q, 1)
        for a in range(q):
            for b in range(q):
                L = catalog("M7", (a, b), ctx)
                assert cell_count(L, dt((0, 2), (2, 0)), "ideal") == \
                    variety_count(VarietyId("V7_2", (a, b)), ctx)


def test_vector_and_scalar_cell_counts_agree():
    for fam, params, q in [("L22", (), 2), ("L3", (1,), 3), ("M7", (1, 1), 2),
                           ("M12", (), 3), ("M9", (1,), 3)]:
        ctx = make_field(q, 1)
        L = catalog(fam, params, ctx)
        for t in diagonal_types(L.n):
            for kind in ("ideal", "subalgebra"):
                assert cell_count(L, t, kind) == cell_count_scalar(L, t, kind), \
                    (fam, params, q, t, kind)


def test_vector_path_chunks_large_cells():
    # M1's cells have no condition, so this one is counted without a scan
    ctx = make_field(13, 1)
    L = catalog("M1", (), ctx)
    big = dt((0, 2), (2, 0))
    assert cell_size(big, 13) == 13**4
    assert 13**4 > CHUNK / 4
    assert cell_count(L, big, "ideal") == 13**4
    # M4's subalgebra scans split into several batches at the real CHUNK:
    # over F_64 the cell (1,1,0,0) gives 4096 rows every value, CHUNK // 64
    # at a time, and over F_256 the cell (1,0,1,0) has 130560 solved rows
    for p, k in [(2, 6), (2, 8)]:
        ctx = make_field(p, k)
        L = catalog("M4", (), ctx)
        for kind in ("ideal", "subalgebra"):
            want = evaluate(closed_form("M4", (), kind, ctx), (), ctx)
            assert zeta_enumerate(L, kind).coeffs == want.coeffs, (ctx.q, kind)


def test_batched_expansion_matches_scalar(monkeypatch):
    # a tiny CHUNK expands two survivor rows per batch, so non-abelian cells
    # run through many batches at every depth; in the subalgebra cell
    # ((0,1,1),(1,1,0)) of M4 and M5, x_0 x_2^2 + ... = 0 is solved for x_2
    # with x_0 = 0 on some rows, and over F_4 M4's solutions there span two
    # batches
    monkeypatch.setattr(rrdf, "CHUNK", 8)
    batched = 0
    for fam, params, (p, k) in [("L3", (1,), (3, 1)), ("M7", (1, 1), (3, 1)),
                                ("M12", (), (3, 1)), ("M8", (), (2, 2)),
                                ("M4", (), (2, 2)), ("M5", (), (3, 1))]:
        ctx = make_field(p, k)
        L = catalog(fam, params, ctx)
        for t in diagonal_types(L.n):
            batched += cell_size(t, ctx.q) > 8
            for kind in ("ideal", "subalgebra"):
                assert cell_count(L, t, kind) == cell_count_scalar(L, t, kind), \
                    (fam, params, ctx.q, t, kind)
    assert batched


def _brute_roots(ctx, s, t):
    # every x in F_q with x^2 + s x = t, ascending
    add, mul, _, _, _, x = ctx.tables()
    q = ctx.q
    return np.flatnonzero(add[add[mul[x * q + x] * q + mul[s * q + x]] * q
                              + ctx.neg(t)] == 0).tolist()


def _check_root_table(ctx, pairs):
    count, r1, r2 = rrdf._roots(ctx)
    q = ctx.q
    for s, t in pairs:
        roots = _brute_roots(ctx, s, t)
        at = s * q + t
        assert count[at] == len(roots), (q, s, t)
        if roots:  # r1 <= r2, equal for a double root
            assert (r1[at], r2[at]) == (roots[0], roots[-1]), (q, s, t)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_root_table_matches_brute_force(q):
    ctx = field_of_order(q)
    _check_root_table(ctx, [(b, c) for b in range(q) for c in range(q)])


@pytest.mark.parametrize("p,k", [(251, 1), (2, 8)])
def test_root_table_wide_fields_sampled(p, k):
    ctx = make_field(p, k)
    rng = random.Random(20261018)
    q = ctx.q
    _check_root_table(ctx, [(rng.randrange(q), rng.randrange(q))
                            for _ in range(2000)])


@st.composite
def dense_conjugates(draw):
    # (source, conjugate): a catalog algebra and the same algebra written in
    # a random basis over F_4, F_8 or F_9, whose structure constants are
    # dense, unlike the catalog's; n <= 3 over F_8 and F_9 keeps the scalar
    # reference fast
    q = draw(st.sampled_from((4, 8, 9)))
    ctx = field_of_order(q)
    families = [f for f, (n, _) in FAMILIES.items()
                if n <= (4 if q == 4 else 3) and valid_params(f, ctx)]
    family = draw(st.sampled_from(families))
    params = draw(st.sampled_from(valid_params(family, ctx)))
    n = FAMILIES[family][0]
    entry = st.integers(0, q - 1)
    g = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    assume(_rank(g, ctx) == n)
    source = catalog(family, params, ctx)
    return source, conjugate(source, g)


def _merged(levels, coeffs):
    # whether every monomial of the plan has a nonzero coefficient and no
    # two monomials of one part read the same variables: monomials that
    # several constants feed are merged, and dropped where their sum
    # vanishes, so an entry read only by terms that cancel binds no level
    for _, _, A, B, C, filters in levels or ():
        for part in (A or (), B or (), C or ()) + filters:
            if len({vars_ for _, vars_ in part}) < len(part):
                return False
            if not all(coeffs[i] for i, _ in part):
                return False
    return True


def test_dense_conjugates_match_scalar():
    # the solved scan against the scalar reference, on every cell; the
    # inputs must reach every way a level can bind its variable
    seen = set()

    @settings(derandomize=True, max_examples=40, deadline=None,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(dense_conjugates())
    def check(pair):
        source, L = pair
        for t in diagonal_types(L.n):
            for kind in ("ideal", "subalgebra"):
                _, levels, coeffs = rrdf._conditions(L, t, kind)
                seen.update(level[1] for level in levels or ())
                assert _merged(levels, coeffs), (L.name, L.sc, L.ctx.q, t, kind)
                assert cell_count(L, t, kind) == cell_count_scalar(L, t, kind), \
                    (L.name, L.sc, L.ctx.q, t, kind)
        # a change of basis leaves the counts unchanged
        for kind in ("ideal", "subalgebra"):
            assert zeta_enumerate(L, kind).coeffs == \
                zeta_enumerate(source, kind).coeffs, (source.name, L.sc, kind)

    check()
    assert seen == {rrdf.FREE, rrdf.DIRECT, rrdf.LINEAR, rrdf.QUADRATIC}


def test_cancelling_sums_bind_no_entry_on_wide_fields():
    # equal eigenvalues of one ad e_j feed some monomials c x - c x.  Were
    # those bound as levels, each entry they alone read would multiply the
    # rows by q instead of the count, which over F_256 turns M2's subalgebra
    # zeta from milliseconds into minutes
    ctx = make_field(2, 8)
    vanished = 0
    for fam, params in [("L2", ()), ("M2", ()), ("M3", (0,)), ("M12", ()),
                        ("M13", (0,))]:
        L = catalog(fam, params, ctx)
        support, values = rrdf._nonzero(L)
        for t in diagonal_types(L.n):
            for kind in ("ideal", "subalgebra"):
                _, levels, coeffs = rrdf._conditions(L, t, kind)
                assert _merged(levels, coeffs), (fam, t, kind)
                vanished += sum(not reduce(ctx.add, [values[i] for i in ids])
                                for ids in rrdf._sums(t, kind, support))
        for kind in ("ideal", "subalgebra"):
            want = evaluate(closed_form(fam, params, kind, ctx), params, ctx)
            assert zeta_enumerate(L, kind).coeffs == want.coeffs, (fam, kind)
    assert vanished  # the inputs reach sums that vanish


@pytest.mark.parametrize("p,k", [(251, 1), (2, 8)])
def test_wide_fields_match_closed_forms(p, k):
    # flat indices a*q + b reach 62999 at q = 251 and 65535 at q = 256
    ctx = make_field(p, k)
    rows = 0
    for fam, (n, _) in FAMILIES.items():
        if n > 3:
            continue
        grid = valid_params(fam, ctx)
        for params in dict.fromkeys(grid[:3] + grid[-2:]):
            L = catalog(fam, params, ctx)
            for kind in ("ideal", "subalgebra"):
                want = evaluate(closed_form(fam, params, kind, ctx), params, ctx)
                assert zeta_enumerate(L, kind).coeffs == want.coeffs, \
                    (fam, params, ctx.q, kind)
                rows += 1
    assert rows == 30


def test_zeta_enumerate_examples():
    F3 = make_field(3, 1)
    assert zeta_enumerate(catalog("L22", (), F3), "ideal").coeffs == (1, 1, 1)
    for q in (2, 3, 5):
        ctx = make_field(q, 1)
        heis = catalog("L4", (0,), ctx)
        assert zeta_enumerate(heis, "ideal").coeffs == (1, 1 + q, 1, 1)
        m8 = catalog("M8", (), ctx)
        assert zeta_enumerate(m8, "ideal").coeffs == (1, 1 + q, 3, 2, 1)


def test_zeta_endpoints_and_subalgebra_layer():
    for fam, params in [("L3", (2,)), ("M6", (2, 1)), ("M9", (1,)), ("M4", ())]:
        ctx = make_field(3, 1)
        L = catalog(fam, params, ctx)
        for kind in ("ideal", "subalgebra"):
            z = zeta_enumerate(L, kind)
            assert z.coeffs[0] == 1 and z.coeffs[-1] == 1
            # no codimension layer can beat the subspace count
            assert all(c <= gaussian_binomial(L.n, i, 3)
                       for i, c in enumerate(z.coeffs))
        zs = zeta_enumerate(L, "subalgebra")
        assert zs.coeffs[L.n - 1] == gaussian_binomial(L.n, 1, 3)


def test_dimension_mismatch():
    ctx = make_field(3, 1)
    L = catalog("L22", (), ctx)
    with pytest.raises(DimensionMismatch):
        cell_count(L, dt((1,), (2,)), "ideal")
    M3 = next(enumerate_cell(dt((1,), (2,)), ctx))
    with pytest.raises(DimensionMismatch):
        is_ideal(M3, L)


def test_bad_kind_rejected():
    ctx = make_field(3, 1)
    L = catalog("L22", (), ctx)
    with pytest.raises(ValueError):
        cell_count(L, dt((1,), (1,)), "subgroup")


def imported_names(module: str) -> list[str]:
    """Every module and name that fqzeta/<module>.py imports, with relative
    imports resolved to the package."""
    source = (resources.files("fqzeta") / f"{module}.py").read_text(encoding="utf-8")
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            source = ".".join(part for part in
                              ("fqzeta" if node.level else "", node.module) if part)
            imported += [source] + [f"{source}.{alias.name}" for alias in node.names]
    return imported


def test_cell_route_imports_nothing_from_the_oracle():
    # the mirror of test_oracle_imports_nothing_from_the_cell_route
    imported = imported_names("rrdf")
    assert "fqzeta.liealg" in imported  # relative imports resolve to the package
    bad = [name for name in imported
           if name == "fqzeta.oracle" or name.startswith("fqzeta.oracle.")]
    assert not bad
