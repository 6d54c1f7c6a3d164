"""Chain complexes, right modules, morphism spaces, homology ranks.

The morphism-space solver receives arbitrary strict modules, so besides
the projectives it is fed direct sums assembled by hand; dimensions and
homology ranks must be additive there.
"""

from __future__ import annotations

import copy
from collections import Counter

import pytest

from conftest import (
    action_row,
    block_rows,
    build_table,
    every_generator,
    product_pairs,
    set_products,
    verify_module_axioms,
)
from strandfloer.circle import matching_from_pairs
from strandfloer.gf2 import BooleanMatrix
from strandfloer.homalg import (
    ChainComplex,
    RightDGModule,
    _factorizations,
    _linearity_blocks,
    _solve,
    _unknown_layout,
    hom_complex,
    mor_complex,
    projective_module,
    yoneda_ranks,
)
from strandfloer.strands import AlgebraTable


def _direct_sum(m1: RightDGModule, m2: RightDGModule) -> RightDGModule:
    assert m1.table is m2.table
    n1, n2 = m1.dim, m2.dim
    rows = list(m1.complex.d.rows) + [r << n1 for r in m2.complex.d.rows]
    cx = ChainComplex(BooleanMatrix(n1 + n2, n1 + n2, rows))
    actions = {}
    for a in m1.actions.keys() | m2.actions.keys():
        rows = dict(m1.actions.get(a, {}))
        for x, row in m2.actions.get(a, {}).items():
            rows[x + n1] = row << n1
        actions[a] = rows
    return RightDGModule(m1.table, cx, m1.blocks + m2.blocks, actions)


# -- chain complexes ----------------------------------------------------------


def test_chain_complex_rejects_bad_differentials():
    with pytest.raises(ValueError):
        ChainComplex(BooleanMatrix(2, 2, [0b10, 0b01]))  # d.d != 0
    with pytest.raises(ValueError):
        ChainComplex(BooleanMatrix(1, 2, [0]))  # not square


def test_homology_rank_small_cases():
    zero = ChainComplex(BooleanMatrix(3, 3, [0, 0, 0]))
    assert zero.homology_rank() == 3
    pair = ChainComplex(BooleanMatrix(2, 2, [0b10, 0]))
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
    assert mod.actions[idem_index][0] in (1, 2, 4, 8, 16)


def test_projective_module_ignores_a_non_composable_product_key():
    clean = build_table(2, 2, "full")
    tab = copy.copy(clean)
    n = len(tab.gens)
    a, b = next((a, b) for a in range(n) for b in range(n) if tab.tgt[a] != tab.src[b])
    # The value a lies in e_s A for s the source of a, so a module that
    # read this key would gain an action entry rather than fail.
    set_products(tab, {**product_pairs(tab), (a, b): a})
    for s in tab.idem_list:
        got = projective_module(tab, s).actions
        want = projective_module(clean, s).actions
        # Insertion order too: the linearity rows are emitted in it.
        assert [(g, list(x.items())) for g, x in got.items()] == [
            (g, list(x.items())) for g, x in want.items()
        ]


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
    assert mc.dim == len(tab.hom_indices((1, 2), (1, 2))) == 7
    for f_rows in mc.maps:
        for a in range(len(tab.gens)):
            for x in range(M.dim):
                image = 0
                for x2 in range(M.dim):
                    if (action_row(M, x, a) >> x2) & 1:
                        image ^= f_rows[x2]
                pushed = 0
                for y in range(N.dim):
                    if (f_rows[x] >> y) & 1:
                        pushed ^= action_row(N, y, a)
                assert image == pushed


def test_mor_dimension_matches_opposite_hom():
    for g, k in ((1, 1), (2, 1)):
        tab = build_table(g, k, "full")
        for s in tab.idem_list:
            for t in tab.idem_list:
                mc = mor_complex(projective_module(tab, s), projective_module(tab, t))
                assert mc.dim == len(tab.hom_indices(t, s))


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


def test_yoneda_holds_with_nontrivial_differential():
    tab = build_table(1, 2, "full")
    for s in tab.idem_list:
        for t in tab.idem_list:
            mor_rank, hom_rank = yoneda_ranks(tab, s, t)
            assert mor_rank == hom_rank


def test_an_idempotent_is_read_in_any_order():
    # projective_module and hom_indices both sort the idempotent they are
    # given, so an unsorted one names the same summand.
    tab = build_table(2, 2, "full")
    assert tab.hom_indices((2, 1), (3, 1)) == tab.hom_indices((1, 2), (1, 3))
    assert yoneda_ranks(tab, (2, 1), (3, 1)) == yoneda_ranks(tab, (1, 2), (1, 3))


# -- the linearity rows against the dict-of-sets construction -----------------


def _bits(mask: int) -> list[int]:
    return [j for j, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def _oracle_rows(M: RightDGModule, N: RightDGModule) -> list[frozenset[int]]:
    """One symmetric-difference set per (generator, x, y') key, with the
    unknowns numbered by a dict over the in-block entries (x, y)."""
    uid = {}
    for x in range(M.dim):
        for y in range(N.dim):
            if M.blocks[x] == N.blocks[y]:
                uid[(x, y)] = len(uid)
    m_blocks: dict[int, list[int]] = {}
    for x in range(M.dim):
        m_blocks.setdefault(M.blocks[x], []).append(x)
    n_blocks: dict[int, list[int]] = {}
    for y in range(N.dim):
        n_blocks.setdefault(N.blocks[y], []).append(y)
    out = []
    for a in sorted((set(M.actions) | set(N.actions)) - set(M.table.idem_gen)):
        rows: dict[tuple[int, int], set[int]] = {}
        for x, row in M.actions.get(a, {}).items():
            for x2 in _bits(row):
                for yp in n_blocks.get(M.blocks[x2], ()):
                    rows.setdefault((x, yp), set()).symmetric_difference_update((uid[(x2, yp)],))
        for y, row in N.actions.get(a, {}).items():
            for yp in _bits(row):
                for x in m_blocks.get(N.blocks[y], ()):
                    rows.setdefault((x, yp), set()).symmetric_difference_update((uid[(x, y)],))
        out += [frozenset(r) for r in rows.values()]
    return out


def _assert_rows_match_oracle(M: RightDGModule, N: RightDGModule) -> None:
    """The blocks, read row by row, are the oracle's rows, and the block
    feed solves to what the oracle's rows give one at a time."""
    want = _oracle_rows(M, N)
    M, N = every_generator(M), every_generator(N)
    layout = _unknown_layout(M, N)
    got = []
    for row in block_rows(_linearity_blocks(M, N, layout)):
        ids = frozenset(row)
        if len(ids) < len(row):
            ids = frozenset(u for u in row if row.count(u) % 2)
        got.append(ids)
    assert Counter(r for r in got if r) == Counter(r for r in want if r)
    n = sum(1 for x in range(M.dim) for y in range(N.dim) if M.blocks[x] == N.blocks[y])
    expected = _solve(n, [((), (), (), (), [list(r) for r in want])])
    assert _solve(n, [((), (), (), (), [list(r) for r in got])]) == expected
    assert _solve(n, _linearity_blocks(M, N, layout)) == expected


def _mor_outcome(M: RightDGModule, N: RightDGModule):
    """mor_complex's (dimension, homology rank), or its ValueError text."""
    try:
        mc = mor_complex(M, N)
    except ValueError as err:
        return str(err)
    return mc.dim, mc.homology_rank()


def _assert_mor_matches_oracle(M: RightDGModule, N: RightDGModule):
    """The reduced row set solves to what every generator's rows give."""
    want = _mor_outcome(every_generator(M), every_generator(N))
    assert _mor_outcome(M, N) == want
    return want


def _rebased(mod: RightDGModule, x0: int, x1: int) -> RightDGModule:
    """The same module in the basis with x0 replaced by x0 + x1, two basis
    elements of one block: action rows then carry several bits."""
    assert mod.blocks[x0] == mod.blocks[x1] and x0 != x1

    def coords(v: int) -> int:  # its own inverse
        return v ^ (1 << x1) if (v >> x0) & 1 else v

    def rebase(row_of) -> dict[int, int]:
        rows = {}
        for x in range(mod.dim):
            image = row_of(x) ^ (row_of(x1) if x == x0 else 0)
            if coords(image):
                rows[x] = coords(image)
        return rows

    d = rebase(lambda x: mod.complex.d.rows[x])
    cx = ChainComplex(BooleanMatrix(mod.dim, mod.dim, [d.get(x, 0) for x in range(mod.dim)]))
    actions = {a: rebase(lambda x, a=a: action_row(mod, x, a)) for a in mod.actions}
    return RightDGModule(mod.table, cx, mod.blocks, actions)


def _restricted(mod: RightDGModule, gens: set[int]) -> RightDGModule:
    """mod with the actions of generators outside gens dropped: exactly
    the linearity rows of gens remain."""
    actions = {a: rows for a, rows in mod.actions.items() if a in gens}
    return RightDGModule(mod.table, mod.complex, mod.blocks, actions)


@pytest.mark.parametrize("variant", ["full", "half"])
def test_linearity_rows_match_oracle_on_projectives(variant):
    tables = [build_table(g, k, variant) for g in (1, 2) for k in range(0, 2 * g + 1)]
    custom = matching_from_pairs(2, ((1, 7), (2, 8), (3, 5), (4, 6)))
    tables += [AlgebraTable.build(custom, k, variant) for k in range(0, 5)]
    custom3 = matching_from_pairs(3, ((1, 11), (2, 9), (3, 10), (4, 7), (5, 12), (6, 8)))
    tables += [AlgebraTable.build(custom3, k, variant) for k in range(0, 3)]
    for tab in tables:
        clean = [projective_module(tab, s) for s in tab.idem_list]
        # At k >= 3 a g=2 table (and at k=2 a g=3 one) has 1.2M-6.6M rows
        # over all pairs, minutes for the oracle's set arithmetic; every
        # 16th generator is seconds.
        keep = set(range(0, len(tab.gens), 1 if tab.k <= 2 and tab.pmc.g <= 2 else 16))
        mods = [_restricted(P, keep) for P in clean]
        for M in mods:
            for N in mods:
                _assert_rows_match_oracle(M, N)
        for M in clean:
            for N in clean:
                _assert_mor_matches_oracle(M, N)


def test_linearity_rows_match_oracle_on_sums_and_hand_built_modules():
    tab = build_table(2, 2, "full")
    P = projective_module(tab, (1, 2))
    Q = projective_module(tab, (2, 3))
    S = _direct_sum(P, Q)
    _assert_rows_match_oracle(S, P)
    _assert_rows_match_oracle(Q, S)
    _assert_rows_match_oracle(S, S)

    block = max(set(P.blocks), key=P.blocks.count)
    x0, x1 = [x for x in range(P.dim) if P.blocks[x] == block][:2]
    R = _rebased(P, x0, x1)
    assert verify_module_axioms(R) == []
    assert any(row & (row - 1) for rows in R.actions.values() for row in rows.values())
    for M, N in ((R, P), (P, R), (R, R), (R, Q), (Q, R)):
        _assert_rows_match_oracle(M, N)
    single = mor_complex(P, P)
    for M, N in ((R, P), (P, R), (R, R)):
        mc = mor_complex(M, N)
        assert (mc.dim, mc.homology_rank()) == (single.dim, single.homology_rank())

    # One action row given a bit outside its target block: no longer a
    # module (a corrupt table builds such projectives), and the rows must
    # still agree.
    a, rows = next((a, rows) for a, rows in P.actions.items() if a not in tab.idem_gen)
    x = next(iter(rows))
    other = next(y for y in range(P.dim) if P.blocks[y] != tab.tgt[a])
    W = RightDGModule(tab, P.complex, P.blocks, {**P.actions, a: {**rows, x: rows[x] | 1 << other}})
    assert verify_module_axioms(W)
    for M, N in ((P, W), (W, P), (W, W)):
        _assert_rows_match_oracle(M, N)

    # Without most actions the factorization identities fail, so many
    # decomposable generators join the explicit sets.
    thin = _restricted(P, set(range(0, len(tab.gens), 3)))
    assert len(thin.explicit) > len(P.explicit)
    pairs = ((S, P), (Q, S), (S, S), (R, P), (P, R), (W, P), (P, W))
    for M, N in pairs + ((thin, Q), (Q, thin), (thin, thin)):
        _assert_mor_matches_oracle(M, N)


def _echelon(vectors) -> list[int]:
    """The reduced echelon rows of the span of vectors, sorted: equal
    lists, equal spans."""
    rows: list[int] = []
    for v in vectors:
        for r in rows:
            v = min(v, v ^ r)
        if v:
            rows = [min(r, r ^ v) for r in rows] + [v]
    return sorted(rows)


def _assert_solve_spans_oracle_kernel(M: RightDGModule, N: RightDGModule) -> int:
    """_solve on the blocks of the modules' own explicit sets, expanded
    over the unknowns, spans the kernel of every generator's oracle rows.
    Returns how many listed rows of weight three or more it was fed."""
    n = sum(1 for x in range(M.dim) for y in range(N.dim) if M.blocks[x] == N.blocks[y])
    blocks = list(_linearity_blocks(M, N, _unknown_layout(M, N)))
    members, _, basis = _solve(n, blocks)
    got = []
    for vec in basis:
        got.append(sum(1 << u for col in _bits(vec) for u in members[col]))
    masks = [sum(1 << u for u in row) for row in _oracle_rows(M, N)]
    want = BooleanMatrix(len(masks), n, masks).nullspace()
    assert _echelon(got) == _echelon(want)
    return sum(len(row) >= 3 for *_, rows in blocks for row in rows)


def test_solve_spans_the_oracle_kernel():
    for k in (1, 2):
        tab = build_table(1, k, "full")
        mods = [projective_module(tab, s) for s in tab.idem_list]
        for M in mods:
            for N in mods:
                _assert_solve_spans_oracle_kernel(M, N)
    tab = build_table(2, 2, "full")
    P = projective_module(tab, (1, 2))
    block = max(set(P.blocks), key=P.blocks.count)
    x0, x1 = [x for x in range(P.dim) if P.blocks[x] == block][:2]
    R = _rebased(P, x0, x1)
    # The rebased pairs send heavy rows, so the elimination runs.
    assert sum(_assert_solve_spans_oracle_kernel(M, N) for M, N in ((R, P), (P, R), (R, R)))


def test_block_feed_counts_at_g3_k2_full():
    """The rows of the 225 projective pairs, read from the blocks one by
    one and counted before any is found redundant: every row has weight
    one or two, so nothing is left for elimination, and no block lists a
    row."""
    tab = build_table(3, 2, "full")
    mods = [projective_module(tab, s) for s in tab.idem_list]
    unknowns = dims = listed = 0
    weights: Counter = Counter()
    for M in mods:
        for N in mods:
            layout = _unknown_layout(M, N)
            unknowns += sum(len(layout[1].get(b, ())) for b in M.blocks)
            blocks = list(_linearity_blocks(M, N, layout))
            listed += sum(len(rows) for *_, rows in blocks)
            weights.update(min(len(row), 3) for row in block_rows(blocks))
            dims += mor_complex(M, N).dim
    assert unknowns == 232_047
    assert (weights[1], weights[2], weights[3]) == (309_820, 220_108, 0)
    assert listed == 0
    assert dims == 1_745


# -- the generating set --------------------------------------------------------


@pytest.mark.parametrize(
    "g, k, variant, size", [(2, 2, "full", 20), (3, 2, "full", 54), (3, 3, "half", 90)]
)
def test_explicit_set_of_a_clean_projective_is_the_indecomposables(g, k, variant, size):
    tab = build_table(g, k, variant)
    idem = set(tab.idem_gen)
    length = [sum(end - start for start, end in gen.chords) for gen in tab.gens]
    factor = _factorizations(tab)
    for c, (a, b) in factor.items():
        assert tab.prod[a][b] == c and not idem & {a, b}
        assert max(length[a], length[b]) < length[c]
    # Chord lengths add, so on a clean table every product of two
    # non-idempotents is a usable factorization.
    assert factor.keys() == {c for ab, c in product_pairs(tab).items() if not idem & set(ab)}
    indecomposable = set(range(len(tab.gens))) - idem - factor.keys()
    assert len(indecomposable) == size
    for s in tab.idem_list:
        assert projective_module(tab, s).explicit == indecomposable


def test_factorizations_skip_a_factor_no_shorter_than_its_product():
    tab = copy.copy(build_table(2, 2, "full"))
    idem = set(tab.idem_gen)
    pairs = product_pairs(tab)
    ways = Counter(c for ab, c in pairs.items() if not idem & set(ab))
    c = min(c for c, n in ways.items() if n > 1)
    first = _factorizations(tab)[c]
    # Replacing prod gives a fresh pass.  The corrupt entry c.c = c, read
    # first (row c comes before the rows of the other factorizations),
    # would make c its own justification; the dropped one was the chosen
    # factorization.
    rest = [ab for ab, m in pairs.items() if m == c and ab != first and not idem & set(ab)]
    assert c < min(a for a, _ in rest)
    set_products(tab, {(c, c): c, **{ab: m for ab, m in pairs.items() if ab != first}})
    a, b = _factorizations(tab)[c]
    assert tab.prod[a][b] == c and c not in (a, b)


def test_reduced_rows_match_oracle_when_a_sole_factorization_is_dropped():
    tab = copy.copy(build_table(2, 2, "full"))
    idem = set(tab.idem_gen)
    pairs = product_pairs(tab)
    ways = Counter(c for ab, c in pairs.items() if not idem & set(ab))
    c = min(c for c, n in ways.items() if n == 1)
    set_products(tab, {ab: m for ab, m in pairs.items() if m != c or idem & set(ab)})
    assert c not in _factorizations(tab)
    mods = [projective_module(tab, s) for s in tab.idem_list]
    assert all(c in M.explicit for M in mods)
    clean = [projective_module(build_table(2, 2, "full"), s) for s in tab.idem_list]
    changed = 0
    for M, M0 in zip(mods, clean):
        for N, N0 in zip(mods, clean):
            changed += _assert_mor_matches_oracle(M, N) != _mor_outcome(M0, N0)
    assert changed  # the dropped product is visible to the solver


def test_reduced_rows_match_oracle_when_a_module_breaks_one_factorization():
    tab = build_table(2, 2, "full")
    factor = _factorizations(tab)
    mods = [projective_module(tab, s) for s in tab.idem_list]
    P = mods[0]
    # Drop one row x.c of a decomposable c that is no chosen factor:
    # x.c = (x.a).b fails at x, on this module only, and no other
    # identity reads c's action.
    factors = {f for ab in factor.values() for f in ab}
    c = min(c for c in factor if c in P.actions and c not in factors)
    x = min(P.actions[c])
    rows = {y: row for y, row in P.actions[c].items() if y != x}
    M = RightDGModule(tab, P.complex, P.blocks, {**P.actions, c: rows})
    assert c not in P.explicit and M.explicit == P.explicit | {c}
    changed = 0
    for N in mods:
        for pair, clean in (((M, N), (P, N)), ((N, M), (N, P))):
            got = _assert_mor_matches_oracle(*pair)
            changed += got != _mor_outcome(*clean)
    # The broken identity is visible to the solver: without c's rows, M
    # would solve like P.
    assert changed
