"""Both enumerators build their closure tests from templates cached per cell
shape and kind, and specialise them to each algebra.  Nothing specific to an
algebra or a field may survive in a cached template: interleaving fields and
families must give the scalar counts on every cell."""

import itertools

from fqzeta import oracle, rrdf
from fqzeta.gf import make_field
from fqzeta.liealg import catalog
from fqzeta.oracle import _count_cell_scalar, zeta_oracle
from fqzeta.rrdf import cell_count, cell_count_scalar, diagonal_types

KINDS = ("ideal", "subalgebra")


def test_templates_hold_nothing_of_an_algebra_or_field():
    rrdf._template.cache_clear()
    oracle._template.cache_clear()
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
