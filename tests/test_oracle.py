import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from test_rrdf import dense_conjugates, imported_names

from fqzeta import oracle
from fqzeta.formulas import closed_form, evaluate, gaussian_binomial
from fqzeta.gf import FieldCtx, field_of_order, make_field
from fqzeta.liealg import (FAMILIES, JacobiViolation, catalog,
                           from_structure_constants, is_solvable, valid_params)
from fqzeta.oracle import (MAX_Q, GuardExceeded, _count_cell_scalar,
                           _count_cell_vector, zeta_oracle)
from fqzeta.rrdf import zeta_enumerate


def test_abelian_counts_are_gaussian_binomials():
    for q, (p, k) in {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}.items():
        ctx = make_field(p, k)
        for fam, n in [("L21", 2), ("L1", 3), ("M1", 4)]:
            z = zeta_oracle(catalog(fam, (), ctx), "ideal")
            assert z.coeffs == tuple(gaussian_binomial(n, i, q)
                                     for i in range(n + 1))


def test_spec_examples():
    F2 = make_field(2, 1)
    assert zeta_oracle(catalog("L1", (), F2), "ideal").coeffs == (1, 7, 7, 1)
    F3 = make_field(3, 1)
    assert zeta_oracle(catalog("L22", (), F3), "ideal").coeffs == (1, 1, 1)
    heis = catalog("L4", (0,), F2)
    assert zeta_oracle(heis, "subalgebra").coeffs == (1, 3, 7, 1)


def test_guards():
    ctx = make_field(2, 1)
    n = 6
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    L6 = from_structure_constants(ctx, n, sc)
    with pytest.raises(GuardExceeded):
        zeta_oracle(L6, "ideal")
    with pytest.raises(GuardExceeded):
        zeta_oracle(catalog("L22", (), make_field(17, 1)), "ideal")


def test_bad_kind():
    with pytest.raises(ValueError):
        zeta_oracle(catalog("L22", (), make_field(3, 1)), "normal")


def test_vector_and_scalar_oracle_agree():
    for fam, params, q in [("L22", (), 3), ("L3", (2,), 3), ("M7", (1, 1), 2),
                           ("M8", (), 3)]:
        ctx = make_field(q, 1)
        L = catalog(fam, params, ctx)
        for kind in ("ideal", "subalgebra"):
            fast = zeta_oracle(L, kind)
            # scalar reference: every pivot set, plus 1 for the zero subspace
            slow = [0] * L.n + [1]
            for k in range(1, L.n + 1):
                for pivots in itertools.combinations(range(L.n), k):
                    slow[L.n - k] += _count_cell_scalar(L, pivots, kind)
            assert fast.coeffs == tuple(slow), (fam, params, q, kind)


def _dense_cells_match_scalar(orders, examples):
    # every pivot set and both kinds of conjugates over F_q, q in orders;
    # returns the (q, n) drawn
    seen = set()

    @settings(derandomize=True, max_examples=examples, deadline=None,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(dense_conjugates(orders))
    def check(pair):
        _, L = pair
        seen.add((L.ctx.q, L.n))
        for k in range(1, L.n + 1):
            for pivots in itertools.combinations(range(L.n), k):
                for kind in ("ideal", "subalgebra"):
                    assert _count_cell_vector(L, pivots, kind) == \
                        _count_cell_scalar(L, pivots, kind), \
                        (L.name, L.sc, L.ctx.q, pivots, kind)

    check()
    return seen


def test_dense_conjugates_match_scalar():
    # dense structure constants make most bracket coordinates read both
    # earlier entries and the new one, on extension fields as well
    _dense_cells_match_scalar((4, 8, 9), 40)


def test_dense_conjugates_match_scalar_at_the_top_mask_bits():
    # F_13 and F_16 reach mask bits 12 and 15, the top of a 16-bit mask;
    # one field per draw, so that each gets three-dimensional algebras
    for q in (13, 16):
        assert (q, 3) in _dense_cells_match_scalar((q,), 20)


def test_zero_masks_match_a_scalar_loop():
    orders = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)  # every field the oracle admits
    assert orders[-1] == MAX_Q
    for q in orders:
        ctx = field_of_order(q)
        want = []
        for r2 in range(q):
            for r1 in range(q):
                # r2*x^2 + r1*x at every x, then + r0
                head = [ctx.add(ctx.mul(r2, ctx.mul(x, x)), ctx.mul(r1, x))
                        for x in range(q)]
                for r0 in range(q):
                    want.append(sum(1 << x for x in range(q)
                                    if ctx.add(head[x], r0) == 0))
        assert oracle._zeros(ctx).tolist() == want, q


def test_zero_masks_refuse_a_field_wider_than_a_mask(monkeypatch):
    def build(self):
        raise AssertionError("tables read for a field wider than a mask")

    monkeypatch.setattr(FieldCtx, "tables", build)
    for q in (17, 32, 257):
        with pytest.raises(GuardExceeded):
            oracle._zeros(field_of_order(q))


def test_three_routes_agree_at_the_largest_field():
    # F_16 is the oracle's largest field: flat indices a*q + b reach 255
    ctx = make_field(2, 4)
    assert ctx.q == MAX_Q
    rows = 0
    for fam in FAMILIES:
        grid = valid_params(fam, ctx)
        for params in dict.fromkeys(grid[:2] + grid[-2:]):
            L = catalog(fam, params, ctx)
            for kind in ("ideal", "subalgebra"):
                z = zeta_oracle(L, kind)
                assert z.coeffs == zeta_enumerate(L, kind).coeffs, \
                    (fam, params, kind)
                want = evaluate(closed_form(fam, params, kind, ctx), params, ctx)
                if fam == "M12":  # the bracket constant 2 vanishes in char 2
                    assert L.warnings
                else:
                    assert z.coeffs == want.coeffs, (fam, params, kind)
                rows += 1
    assert rows == 86


def test_oracle_matches_enumeration_on_a_sample():
    # the full equivalence sweep lives in the acceptance suite
    for q, (p, k) in {3: (3, 1), 4: (2, 2)}.items():
        ctx = make_field(p, k)
        for fam in ("L2", "L3", "M5", "M7", "M13"):
            for params in valid_params(fam, ctx)[:3]:
                L = catalog(fam, params, ctx)
                for kind in ("ideal", "subalgebra"):
                    assert zeta_oracle(L, kind).coeffs == \
                        zeta_enumerate(L, kind).coeffs



def _direct_sum(A, B):
    n = A.n + B.n
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    for off, part in ((0, A), (A.n, B)):
        for i, j, k in itertools.product(range(part.n), repeat=3):
            sc[off + i][off + j][off + k] = part.sc[i][j][k]
    return from_structure_constants(A.ctx, n, sc)


def test_five_dimensional_direct_sums():
    # n = 5 lies outside the catalog and the campaign; the routes must agree
    for p, k in [(2, 1), (3, 1), (2, 2)]:
        ctx = make_field(p, k)
        q = ctx.q
        for left, right in [(("L22", ()), ("L2", ())),
                            (("L21", ()), ("L4", (0,))),
                            (("L21", ()), ("L4", (q - 1,)))]:
            L = _direct_sum(catalog(*left, ctx), catalog(*right, ctx))
            zs = {}
            for kind in ("ideal", "subalgebra"):
                z = zeta_oracle(L, kind)
                assert zeta_enumerate(L, kind).coeffs == z.coeffs, (left, right, q, kind)
                assert z.coeffs[0] == z.coeffs[5] == 1
                zs[kind] = z
            assert zs["ideal"] <= zs["subalgebra"]
            # every line is a subalgebra
            assert zs["subalgebra"].coeffs[4] == gaussian_binomial(5, 1, q)


def test_random_three_dimensional_algebras_solvable_or_not():
    # seeded random brackets on F_q^3; those that satisfy Jacobi include
    # non-solvable algebras, which the catalog lacks
    rng = random.Random(14)
    solvable = set()
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        ctx = make_field(p, k)
        q = ctx.q
        for _ in range(350):
            sc = [[[0] * 3 for _ in range(3)] for _ in range(3)]
            for i, j in itertools.combinations(range(3), 2):
                for t in range(3):
                    c = rng.randrange(q)
                    sc[i][j][t], sc[j][i][t] = c, ctx.neg(c)
            try:
                L = from_structure_constants(ctx, 3, sc)
            except JacobiViolation:
                continue
            solvable.add(is_solvable(L))
            zs = {}
            for kind in ("ideal", "subalgebra"):
                z = zeta_oracle(L, kind)
                assert zeta_enumerate(L, kind).coeffs == z.coeffs, (sc, q, kind)
                assert z.coeffs[0] == z.coeffs[3] == 1
                assert all(c <= gaussian_binomial(3, i, q)
                           for i, c in enumerate(z.coeffs))
                zs[kind] = z
            assert zs["ideal"] <= zs["subalgebra"]
            # every line is a subalgebra, in both routes
            for route in (zeta_oracle, zeta_enumerate):
                assert route(L, "subalgebra").coeffs[2] == (q**3 - 1) // (q - 1), \
                    (sc, q, route.__name__)
    assert solvable == {False, True}


def test_ideal_counts_never_exceed_subalgebra_counts():
    ctx = make_field(3, 1)
    for fam, params in [("L22", ()), ("M6", (1, 1)), ("M12", ()), ("M8", ())]:
        L = catalog(fam, params, ctx)
        zi = zeta_oracle(L, "ideal")
        zs = zeta_oracle(L, "subalgebra")
        assert zi <= zs


def test_oracle_imports_nothing_from_the_cell_route():
    # the cross-check is only as strong as the independence of the routes
    imported = imported_names("oracle")
    assert "fqzeta.liealg" in imported  # relative imports resolve to the package
    bad = [name for name in imported
           if name == "fqzeta.rrdf" or name.startswith("fqzeta.rrdf.")]
    assert not bad
