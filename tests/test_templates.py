"""Both enumerators build their closure tests from templates cached per cell
shape and kind, compile them into scan plans cached per support (which
structure constants are nonzero), and bind each algebra's values to a plan.
Nothing specific to an algebra or a field may survive in a cached template
or plan: interleaving fields and families must give the scalar counts on
every cell."""

import itertools
from collections import Counter

from fqzeta import oracle, rrdf
from fqzeta.gf import make_field
from fqzeta.liealg import catalog, from_structure_constants
from fqzeta.oracle import _count_cell_scalar, zeta_oracle
from fqzeta.rrdf import cell_count, cell_count_scalar, diagonal_types

KINDS = ("ideal", "subalgebra")


def test_templates_hold_nothing_of_an_algebra_or_field():
    # a template is read only when a plan is compiled, so clear both
    for cache in (rrdf._template, rrdf._plan, oracle._template, oracle._plan):
        cache.cache_clear()
    # F_5, F_4, then F_5 again; parameters are field elements in each
    rows = 0
    for p, k in [(5, 1), (2, 2), (5, 1)]:
        ctx = make_field(p, k)
        for fam, params in [("M7", (1, 2)), ("M6", (3, 1)), ("M12", ()),
                            ("M8", ())]:
            L = catalog(fam, params, ctx)
            for kind in KINDS:
                for dt in diagonal_types(L.n):
                    assert cell_count(L, dt, kind) == \
                        cell_count_scalar(L, dt, kind), (fam, ctx.q, dt, kind)
                slow = [0] * L.n + [1]  # every pivot set, plus the zero subspace
                for size in range(1, L.n + 1):
                    for pivots in itertools.combinations(range(L.n), size):
                        slow[L.n - size] += _count_cell_scalar(L, pivots, kind)
                assert zeta_oracle(L, kind).coeffs == tuple(slow), \
                    (fam, ctx.q, kind)
                rows += 1
    assert rows == 24
    # one template per (cell, kind): 16 diagonal types and 15 nonempty pivot
    # sets of a 4-dimensional space, whatever the algebras and fields were
    assert rrdf._template.cache_info().currsize == 16 * len(KINDS)
    assert oracle._template.cache_info().currsize == 15 * len(KINDS)


def _plan_misses():
    return (oracle._plan.cache_info().misses, rrdf._plan.cache_info().misses)


def _counts_match_scalar(L):
    for kind in KINDS:
        for dt in diagonal_types(L.n):
            assert cell_count(L, dt, kind) == cell_count_scalar(L, dt, kind), \
                (L.name, L.ctx.q, dt, kind)
        for size in range(1, L.n + 1):
            for pivots in itertools.combinations(range(L.n), size):
                assert oracle._count_cell_vector(L, pivots, kind) == \
                    _count_cell_scalar(L, pivots, kind), (L.name, L.ctx.q, pivots, kind)


def _diagonal_action(ctx, alpha, beta):
    # [e_0, e_1] = alpha e_1 and [e_0, e_2] = beta e_2.  In the ideal cell
    # (1, 1, 0), the condition (m_1 C_0 M#)_2 gets its x_(1,2) coefficient
    # from sc[2][0][2] = -beta and from the M# entry times sc[1][0][1] =
    # -alpha: alpha - beta, which vanishes when alpha = beta
    sc = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    sc[0][1][1], sc[1][0][1] = alpha, ctx.neg(alpha)
    sc[0][2][2], sc[2][0][2] = beta, ctx.neg(beta)
    return from_structure_constants(ctx, 3, sc, name=f"D({alpha},{beta})")


def test_plans_are_compiled_per_support_and_bound_per_algebra():
    for cache in (oracle._plan, rrdf._plan):
        cache.cache_clear()
        assert cache.cache_info().maxsize is not None  # bounded
    ctx = make_field(7, 1)
    # same support, different values: the second algebra reuses every plan
    first, second = catalog("M6", (2, 3), ctx), catalog("M6", (3, 5), ctx)
    for route in (oracle, rrdf):
        assert route._nonzero(first)[0] == route._nonzero(second)[0]
    _counts_match_scalar(first)
    misses = _plan_misses()
    _counts_match_scalar(second)
    assert _plan_misses() == misses
    # a third support: alpha = beta makes a shared cell-route sum vanish,
    # which needs plans of its own there, but not in the oracle, which
    # never merges monomials.  Counting the pair again must not reuse them.
    pair = [_diagonal_action(ctx, 2, 3), _diagonal_action(ctx, 3, 5)]
    equal = _diagonal_action(ctx, 4, 4)
    assert len({rrdf._nonzero(L)[0] for L in pair + [equal]}) == 1
    for L in pair:
        _counts_match_scalar(L)
    misses = _plan_misses()
    _counts_match_scalar(equal)
    assert _plan_misses()[0] == misses[0]
    assert _plan_misses()[1] > misses[1]
    misses = _plan_misses()
    for L in pair:
        _counts_match_scalar(L)
    assert _plan_misses() == misses


def test_one_template_walk_per_cell_route_plan_miss(monkeypatch):
    # a plan miss walks the template once, and that walk also lists the
    # support's shared sums; a plan for the sums that vanish is a miss of
    # its own, with a walk of its own
    rrdf._plan.cache_clear()
    template, plan = rrdf._template, rrdf._plan
    walks, keys = [], []
    monkeypatch.setattr(rrdf, "_template",
                        lambda *key: walks.append(key) or template(*key))
    monkeypatch.setattr(rrdf, "_plan", lambda *key: keys.append(key) or plan(*key))
    ctx = make_field(7, 1)
    _counts_match_scalar(catalog("M6", (2, 3), ctx))
    assert {len(key) for key in keys} == {3}  # no sum vanishes
    _counts_match_scalar(_diagonal_action(ctx, 4, 4))
    assert any(len(key) == 4 for key in keys)  # some sums vanish
    misses = set(keys)
    assert len(misses) > 0 and plan.cache_info().misses == len(misses)
    assert Counter(walks) == Counter(key[:2] for key in misses)


def test_cell_route_constant_monomials_have_one_feed():
    # a condition's constant monomial (m_i C_j M#)_k reads sc[i][j][k] alone,
    # so a plan that a nonzero constant kills lists no shared sum: none can
    # bring the cell back when it vanishes
    for n in range(1, 5):
        for dt in diagonal_types(n):
            for kind in KINDS:
                _, feeds = rrdf._template(dt, kind)
                constants = [ci for feed in feeds for ci, _, key in feed if not key]
                assert len(constants) == len(set(constants)), (dt, kind)
