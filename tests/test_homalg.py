"""Chain complexes, right modules, morphism spaces, homology ranks.

The morphism-space solver receives arbitrary strict modules, so besides
the projectives it is fed direct sums assembled by hand; dimensions and
homology ranks must be additive there.
"""

from __future__ import annotations

import pytest

from conftest import build_table
from strandfloer.gf2 import BooleanMatrix
from strandfloer.homalg import (
    ChainComplex,
    RightDGModule,
    hom_complex,
    mor_complex,
    projective_module,
    verify_module_axioms,
    yoneda_check,
    yoneda_ranks,
)


def _direct_sum(m1: RightDGModule, m2: RightDGModule) -> RightDGModule:
    assert m1.table is m2.table
    n1, n2 = m1.dim, m2.dim
    labels = tuple(m1.complex.labels) + tuple(m2.complex.labels)
    rows = list(m1.complex.d.rows) + [r << n1 for r in m2.complex.d.rows]
    cx = ChainComplex(labels, BooleanMatrix(n1 + n2, n1 + n2, rows))
    actions = {}
    for a in set(m1.actions) | set(m2.actions):
        top = m1.actions[a].rows if a in m1.actions else (0,) * n1
        bot = m2.actions[a].rows if a in m2.actions else (0,) * n2
        actions[a] = BooleanMatrix(
            n1 + n2, n1 + n2, list(top) + [r << n1 for r in bot]
        )
    return RightDGModule(m1.table, cx, m1.blocks + m2.blocks, actions)


# -- chain complexes ----------------------------------------------------------


def test_chain_complex_rejects_bad_differentials():
    with pytest.raises(ValueError):
        ChainComplex(("a", "b"), BooleanMatrix(2, 2, [0b10, 0b01]))  # d.d != 0
    with pytest.raises(ValueError):
        ChainComplex(("a",), BooleanMatrix(2, 2, [0, 0]))  # shape mismatch


def test_homology_rank_small_cases():
    zero = ChainComplex(("a", "b", "c"), BooleanMatrix.zero(3, 3))
    assert zero.homology_rank() == 3
    pair = ChainComplex(("a", "b"), BooleanMatrix(2, 2, [0b10, 0]))
    assert pair.homology_rank() == 0


def test_hom_complex_dimensions_and_ranks():
    tab = build_table(1, 1, "full")
    assert hom_complex(tab, (1,), (2,)).dim == 3
    assert hom_complex(tab, (1,), (2,)).homology_rank() == 3  # d = 0 at k = 1
    tab2 = build_table(1, 2, "full")
    cx = hom_complex(tab2, (1, 2), (1, 2))
    assert cx.dim == 7
    assert cx.homology_rank() == 7 - 2 * cx.d.rank()
    assert cx.d.rank() > 0  # the k = 2 differential is nontrivial


# -- modules ------------------------------------------------------------------


def test_projective_module_passes_axioms():
    for g, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        tab = build_table(g, k, "full")
        for s in tab.idem_list[:3]:
            mod = projective_module(tab, s)
            assert verify_module_axioms(mod) == []


def test_projective_module_shape():
    tab = build_table(1, 1, "full")
    mod = projective_module(tab, (1,))
    assert mod.dim == 5  # hom({1},{1}) + hom({1},{2})
    assert set(mod.blocks) == {tab.idem_id[(1,)], tab.idem_id[(2,)]}
    idem_index = tab.idem_gen[tab.idem_id[(1,)]]
    assert mod.actions[idem_index].rows[0] in (1, 2, 4, 8, 16)


def test_axiom_checker_catches_corruption():
    tab = build_table(1, 1, "full")
    mod = projective_module(tab, (1,))
    broken = RightDGModule(
        table=mod.table,
        complex=mod.complex,
        blocks=mod.blocks,
        actions={
            a: m
            for a, m in mod.actions.items()
            if a not in tab.idem_gen
        },
    )
    assert verify_module_axioms(broken)


# -- morphism complexes -------------------------------------------------------


def test_mor_complex_requires_shared_algebra():
    m1 = projective_module(build_table(1, 1, "full"), (1,))
    m2 = projective_module(build_table(1, 1, "half"), (1,))
    with pytest.raises(ValueError):
        mor_complex(m1, m2)


def test_mor_solutions_are_module_maps():
    tab = build_table(1, 2, "full")
    M = projective_module(tab, (1, 2))
    N = projective_module(tab, (1, 2))
    mc = mor_complex(M, N)
    assert mc.dim == tab.hom_dim((1, 2), (1, 2)) == 7
    for f_rows in mc.maps:
        for a in range(len(tab.gens)):
            for x in range(M.dim):
                image = 0
                for x2 in range(M.dim):
                    if (M.action_row(x, a) >> x2) & 1:
                        image ^= f_rows[x2]
                pushed = 0
                for y in range(N.dim):
                    if (f_rows[x] >> y) & 1:
                        pushed ^= N.action_row(y, a)
                assert image == pushed


def test_mor_dimension_matches_opposite_hom():
    for g, k in ((1, 1), (2, 1)):
        tab = build_table(g, k, "full")
        for s in tab.idem_list:
            for t in tab.idem_list:
                mc = mor_complex(projective_module(tab, s), projective_module(tab, t))
                assert mc.dim == tab.hom_dim(t, s)


def test_direct_sum_doubles_morphisms():
    tab = build_table(1, 2, "full")
    P = projective_module(tab, (1, 2))
    assert verify_module_axioms(_direct_sum(P, P)) == []
    single = mor_complex(P, P)
    left = mor_complex(_direct_sum(P, P), P)
    right = mor_complex(P, _direct_sum(P, P))
    assert left.dim == right.dim == 2 * single.dim
    assert left.homology_rank() == right.homology_rank() == 2 * single.homology_rank()


def test_yoneda_ranks_pinned_genus_one():
    tab = build_table(1, 1, "full")
    expected = {
        ((1,), (1,)): 2,
        ((1,), (2,)): 1,
        ((2,), (1,)): 3,
        ((2,), (2,)): 2,
    }
    for (s, t), rank in expected.items():
        mor_rank, hom_rank = yoneda_ranks(tab, s, t)
        assert mor_rank == hom_rank == rank
        assert yoneda_check(tab, s, t)


def test_yoneda_holds_with_nontrivial_differential():
    tab = build_table(1, 2, "full")
    for s in tab.idem_list:
        for t in tab.idem_list:
            assert yoneda_check(tab, s, t)
