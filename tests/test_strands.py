"""Strand diagrams, section expansion, differential, product, tables.

Generator counts are cross-checked against an independent oracle: the
number of generators from s to t equals the permanent of the pattern
matrix P[i, j] = (points available for a strand from label i to label
j), with the closed-form 3/2/1 (full) or 2/1/0 (half) entries written
out here rather than taken from the library.
"""

from __future__ import annotations

import copy
import gc
import itertools

import pytest

from conftest import (
    ADMISSIBLE_G2,
    assoc_walk,
    build_table,
    dims_table,
    opposite_map,
    opposite_mismatches,
    product_pairs,
    reflected,
    set_products,
)
from strandfloer import _kernels, strands
from strandfloer.circle import (
    idempotents,
    matching_from_pairs,
    standard_matching,
    validate_surface,
)
from strandfloer.strands import (
    VARIANTS,
    AlgebraTable,
    ClosureError,
    MatchedGenerator,
    compose,
    differential,
    enumerate_generators,
    idempotent,
    inversions,
    product,
    recognize,
    section_expand,
    sections,
    source_idempotent,
    target_idempotent,
)
from strandfloer.verify import suite_assoc


def check_generator(pmc, gen: MatchedGenerator) -> None:
    """Raise ValueError unless gen is a well-formed generator for pmc."""
    labels = pmc.labels
    n = pmc.n_points
    src = list(gen.dotted)
    tgt = list(gen.dotted)
    for a, b in gen.chords:
        if not 1 <= a < b <= n:
            raise ValueError(f"chord {(a, b)} out of range")
        src.append(labels[a - 1])
        tgt.append(labels[b - 1])
    for p in gen.dotted:
        if not 1 <= p <= 2 * pmc.g:
            raise ValueError(f"dotted label {p} out of range")
    if len(set(src)) != len(src):
        raise ValueError("source labels repeat")
    if len(set(tgt)) != len(tgt):
        raise ValueError("target labels repeat")
    if tuple(sorted(gen.chords)) != gen.chords or tuple(sorted(gen.dotted)) != gen.dotted:
        raise ValueError("generator not canonically sorted")


def _pattern(i: int, j: int, variant: str) -> int:
    if variant == "half":
        return 2 if i < j else (1 if i == j else 0)
    return 3 if i < j else (2 if i == j else 1)


def _permanent_count(s, t, variant: str) -> int:
    total = 0
    for perm in itertools.permutations(t):
        prod = 1
        for i, j in zip(s, perm):
            prod *= _pattern(i, j, variant)
        total += prod
    return total


# -- generators and idempotents ---------------------------------------------


def test_generator_counts_match_permanent_oracle():
    for g in (1, 2):
        pmc = standard_matching(g)
        for variant in ("full", "half"):
            for k in range(0, 2 * g + 1):
                gens = enumerate_generators(pmc, k, variant)
                assert len(gens) == len(set(gens))
                by_pair: dict[tuple, int] = {}
                for gen in gens:
                    key = (source_idempotent(pmc, gen), target_idempotent(pmc, gen))
                    by_pair[key] = by_pair.get(key, 0) + 1
                for s in idempotents(pmc, k):
                    for t in idempotents(pmc, k):
                        assert by_pair.get((s, t), 0) == _permanent_count(s, t, variant)


def test_frozen_generator_counts():
    assert len(build_table(1, 1, "full").gens) == 8
    assert len(build_table(1, 2, "full").gens) == 7
    assert len(build_table(2, 2, "full").gens) == 274
    assert len(build_table(2, 3, "full").gens) == 656
    assert len(build_table(2, 4, "full").gens) == 277
    assert len(build_table(1, 1, "half").gens) == 4
    assert len(build_table(2, 2, "half").gens) == 58


def test_genus_one_dimension_table():
    dims = dims_table(build_table(1, 1, "full"))
    assert dims == {
        ((1,), (1,)): 2,
        ((1,), (2,)): 3,
        ((2,), (1,)): 1,
        ((2,), (2,)): 2,
    }


def test_idempotent_generator_roundtrip():
    pmc = standard_matching(2)
    e = idempotent((1, 3))
    assert e.chords == ()
    assert e.dotted == (1, 3)
    assert source_idempotent(pmc, e) == target_idempotent(pmc, e) == (1, 3)


def test_check_generator_rejects_malformed():
    pmc = standard_matching(1)
    with pytest.raises(ValueError):
        check_generator(pmc, MatchedGenerator(chords=((3, 1),), dotted=()))
    with pytest.raises(ValueError):
        # chord start shares label 1 with the dotted pair
        check_generator(pmc, MatchedGenerator(chords=((1, 2),), dotted=(1,)))
    with pytest.raises(ValueError):
        # chord end lands on a position of the dotted pair's label
        check_generator(pmc, MatchedGenerator(chords=((1, 2),), dotted=(2,)))
    check_generator(pmc, MatchedGenerator(chords=((1, 3),), dotted=(2,)))


def test_half_variant_excludes_split_crossers():
    pmc = standard_matching(1)
    crossing = MatchedGenerator(chords=((1, 3),), dotted=())
    assert pmc.crosses_split(1, 3)
    gens = enumerate_generators(pmc, 1, "half")
    assert crossing not in gens
    assert not any(pmc.crosses_split(a, b) for gen in gens for a, b in gen.chords)


def test_unit_algebra_when_k_is_zero():
    tab = build_table(1, 0, "full")
    assert tab.gens == [MatchedGenerator(chords=(), dotted=())]
    assert tab.diff == ((),)
    assert tab.prod == [{0: 0}]


# -- section expansion -------------------------------------------------------


def test_section_expansion_counts():
    pmc = standard_matching(2)
    gen = MatchedGenerator(chords=((5, 8),), dotted=(2, 3))
    sections = section_expand(pmc, gen)
    # each dotted pair doubles: two horizontals at p or p + 2g
    assert len(sections) == 4
    assert all(len(s) == 3 for s in sections)
    assert len(set(sections)) == 4
    chord_only = MatchedGenerator(chords=((1, 2),), dotted=())
    assert section_expand(pmc, chord_only) == [((1, 2),)]


def test_recognize_roundtrip_and_closure_error():
    pmc = standard_matching(2)
    gen = MatchedGenerator(chords=((5, 8),), dotted=(2, 3))
    total = recognize(pmc, section_expand(pmc, gen))
    assert set(total) == {gen}
    # dropping one section leaves an orphan family
    with pytest.raises(ClosureError):
        recognize(pmc, section_expand(pmc, gen)[1:])


def test_inversions():
    assert inversions(((1, 4), (2, 3))) == 1
    assert inversions(((1, 3), (2, 4))) == 0
    assert inversions(((1, 1), (2, 2))) == 0


# -- differential and product ------------------------------------------------


def test_differential_pinned_example():
    pmc = standard_matching(2)
    gen = MatchedGenerator(chords=((5, 8),), dotted=(2,))
    want = MatchedGenerator(chords=((5, 6), (6, 8)), dotted=())
    assert set(differential(pmc, gen)) == {want}


def test_differential_drops_double_crossings():
    # resolving ((1,4),(2,3)) at its single crossing gives ((1,3),(2,4)),
    # no crossings, allowed; resolving ((1,3),(2,4)) gives nothing.
    pmc = standard_matching(1)
    crossed = MatchedGenerator(chords=((1, 4), (2, 3)), dotted=())
    flat = MatchedGenerator(chords=((1, 3), (2, 4)), dotted=())
    assert set(differential(pmc, crossed)) == {flat}
    assert set(differential(pmc, flat)) == set()


def test_product_concatenates_or_vanishes():
    pmc = standard_matching(1)
    a = MatchedGenerator(chords=((1, 2),), dotted=())
    b = MatchedGenerator(chords=((2, 3),), dotted=())
    assert set(product(pmc, a, b)) == {MatchedGenerator(chords=((1, 3),), dotted=())}
    # idempotent mismatch: target of b is {1}, source of b is {2}
    assert set(product(pmc, b, b)) == set()


def test_product_double_crossing_vanishes():
    # One order concatenates cleanly, the other forces a strand to cross
    # the horizontal twice and dies by the inversion drop.
    pmc = standard_matching(1)
    a = MatchedGenerator(chords=((1, 3),), dotted=(2,))
    b = MatchedGenerator(chords=((2, 4),), dotted=(1,))
    crossed = MatchedGenerator(chords=((1, 3), (2, 4)), dotted=())
    assert set(product(pmc, b, a)) == {crossed}
    # positionally this composes (horizontal at 3 feeds (1,3), etc.)
    # but the inversion count falls from 2 to 0, so the term is killed
    assert set(product(pmc, a, b)) == set()


def test_unit_idempotents_act_as_identity():
    tab = build_table(2, 2, "full")
    for i, gen in enumerate(tab.gens):
        e_src = tab.idem_gen[tab.src[i]]
        e_tgt = tab.idem_gen[tab.tgt[i]]
        assert tab.prod[e_src].get(i) == i
        assert tab.prod[i].get(e_tgt) == i


# -- tables -------------------------------------------------------------------


def test_table_frozen_entry_counts():
    tab = build_table(2, 2, "full")
    assert sum(map(len, tab.prod)) == 2438
    assert sum(len(row) for row in tab.diff) == 106
    half = build_table(2, 2, "half")
    assert sum(map(len, half.prod)) == 192
    assert sum(len(row) for row in half.diff) == 10


def test_table_rows_agree_with_direct_operations():
    tab = build_table(2, 2, "full")
    pmc = tab.pmc
    for i in range(0, len(tab.gens), 17):
        want = {tab.index[t] for t in differential(pmc, tab.gens[i])}
        assert set(tab.diff[i]) == want
    pairs = sorted(product_pairs(tab))[::97]
    for i, j in pairs:
        (term,) = list(product(pmc, tab.gens[i], tab.gens[j]))
        assert tab.index[term] == tab.prod[i][j]


def test_table_product_respects_idempotent_grading():
    tab = build_table(2, 2, "full")
    for (i, j), m in product_pairs(tab).items():
        assert tab.tgt[i] == tab.src[j]
        assert tab.src[m] == tab.src[i]
        assert tab.tgt[m] == tab.tgt[j]


def test_table_index_and_hom_lookups():
    tab = build_table(1, 1, "full")
    assert len(tab.hom_indices((1,), (2,))) == 3
    assert [tab.gens[i] for i in tab.hom_indices((2,), (1,))] == [
        MatchedGenerator(chords=((2, 3),), dotted=())
    ]
    assert tab.prod[0].get(0) == 0
    assert tab.prod[1].get(1) is None


ASSOC_CASES = [
    (standard_matching(g), k, variant)
    for g in (1, 2)
    for k in (1, 2)
    for variant in ("full", "half")
] + [(matching_from_pairs(2, ((1, 7), (2, 8), (3, 5), (4, 6))), 2, "full")]


def _assoc_mutants(table):
    """The clean product, a flipped entry on either side of an
    idempotent, and one deleted product, each as {(i, j): m}."""
    pairs = product_pairs(table)
    yield "clean", pairs
    a = next((i for i in range(len(table.gens)) if table.src[i] != table.tgt[i]), None)
    if a is not None:
        # e_s a = a becomes e_s: then (e_s a) e_t = e_s e_t = 0 while
        # e_s (a e_t) = e_s.  Its source stays s, its target does not.
        e = table.idem_gen[table.src[a]]
        yield "flipped-left", {**pairs, (e, a): e}
        # a e_t = a becomes e_t, which moves the source instead.
        e = table.idem_gen[table.tgt[a]]
        yield "flipped-right", {**pairs, (a, e): e}
    idem = set(table.idem_gen)
    plain = [ij for ij in pairs if not idem & set(ij)]
    if plain:
        pairs = dict(pairs)
        del pairs[min(plain)]
        yield "deleted", pairs


def test_assoc_scan_matches_python_walk():
    failing = {}
    for pmc, k, variant in ASSOC_CASES:
        table = copy.copy(AlgebraTable.build(pmc, k, variant))
        for name, pairs in _assoc_mutants(table):
            set_products(table, pairs)
            checked, bad, sides = assoc_walk(table)
            prod, cols = table.as_csr()
            assert prod is table.prod
            visits, got = _kernels.assoc_scan(prod, cols, table.src, table.tgt)
            assert got == bad, (pmc.g, k, variant, name)
            if name == "clean":
                # Each nonzero side is reached once, by the row or the column pass.
                assert visits == sides
            report = suite_assoc(table)
            assert report["checked"] == checked
            assert report.get("failed", 0) == len(bad)
            failing[name] = failing.get(name, 0) + len(bad)
    assert failing.pop("clean") == 0
    assert all(failing.values()), failing


# -- the matched product builder against the section route --------------------

ORACLE_CASES = {
    "standard-g1": (standard_matching(1), range(0, 3)),
    "standard-g2": (standard_matching(2), range(0, 5)),
    "custom-g2": (matching_from_pairs(2, ((1, 7), (2, 8), (3, 5), (4, 6))), range(0, 5)),
    "custom-g3": (
        matching_from_pairs(3, ((1, 11), (2, 9), (3, 10), (4, 7), (5, 12), (6, 8))),
        range(0, 3),
    ),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_product_table_matches_section_oracle_on_every_pair(case):
    pmc, ks = ORACLE_CASES[case]
    assert validate_surface(pmc).valid
    for k in ks:
        for variant in ("full", "half"):
            tab = AlgebraTable.build(pmc, k, variant)
            records = [sections(pmc, gen) for gen in tab.gens]
            for u in range(len(tab.idem_list)):
                for i in tab.by_target[u]:
                    for j in tab.by_source[u]:
                        got = [tab.index[t] for t in compose(pmc, records[i], records[j])]
                        want = tab.prod[i].get(j)
                        assert got == ([] if want is None else [want]), (k, variant, i, j)


def test_product_builder_raises_instead_of_dropping():
    pmc = standard_matching(1)
    # A composite missing from the generator list: (1,2)*(2,3) = (1,3).
    gens = [g for g in enumerate_generators(pmc, 1) if g.chords != ((1, 3),)]
    tab = AlgebraTable(pmc, 1, "full", gens, idempotents(pmc, 1))
    with pytest.raises(ClosureError, match="not in the table"):
        list(tab.product_rows())


def _packed_crossings_oracle(pmc, u, middle, outer):
    """The crossing masks over all 2^k middle choices, skipping the ones
    that a chord rules out."""
    k = len(u)
    width = k * (k - 1) // 2
    packed = consistent = 0
    for c, ys in enumerate(itertools.product(*(pmc.positions_of(p) for p in u))):
        if any(m and m != y for m, y in zip(middle, ys)):
            continue
        consistent |= 1 << c
        ends = [o or y for o, y in zip(outer, ys)]
        bit = c * width
        for t1 in range(k):
            for t2 in range(t1 + 1, k):
                if (ends[t1] - ends[t2]) * (ys[t1] - ys[t2]) < 0:
                    packed |= 1 << bit
                bit += 1
    return packed, consistent


FACTOR_CASES = [
    *((standard_matching(1), k, variant) for k in range(3) for variant in VARIANTS),
    *(
        (pmc, k, variant)
        for pmc in (ORACLE_CASES["standard-g2"][0], ORACLE_CASES["custom-g2"][0])
        for k in range(5)
        for variant in VARIANTS
    ),
    *((standard_matching(3), k, "full") for k in range(3)),
]


def _factors(pmc, k, variant):
    """(u, left, record) for every generator as a left factor over its
    target and as a right factor over its source."""
    for gen in enumerate_generators(pmc, k, variant):
        for u, left in ((target_idempotent(pmc, gen), True), (source_idempotent(pmc, gen), False)):
            yield u, left, strands._factor(pmc, gen, u, left)


def test_packed_crossings_match_the_all_choices_oracle():
    for pmc, k, variant in FACTOR_CASES:
        for u, left, (middle, packed, _, outer) in _factors(pmc, k, variant):
            want, _ = _packed_crossings_oracle(pmc, u, middle, outer)
            assert packed == want, (pmc.pairs, k, variant, u, left, middle)


def test_a_meeting_pair_crosses_twice_at_every_middle_choice_or_at_none():
    """The builder's one AND decides a pair: for every left and right
    factor over the same u with a consistent middle choice in common,
    the AND of their packed masks is nonzero in the block of every
    common choice or of none (the argument is in the strands docstring).
    The common choices come from the oracle, the masks from the builder."""
    pairs = mixed = 0
    for pmc, k, variant in FACTOR_CASES:
        width = k * (k - 1) // 2
        block = (1 << width) - 1
        lefts: dict[tuple, list] = {}
        rights: dict[tuple, list] = {}
        for u, left, (middle, packed, _, outer) in _factors(pmc, k, variant):
            _, consistent = _packed_crossings_oracle(pmc, u, middle, outer)
            (lefts if left else rights).setdefault(u, []).append((packed, consistent))
        for u, group in lefts.items():
            for m1, c1 in group:
                for m2, c2 in rights.get(u, ()):
                    common = c1 & c2
                    if not common:
                        continue
                    pairs += 1
                    crossed = {
                        bool((m1 & m2) >> (c * width) & block)
                        for c in range(common.bit_length())
                        if common >> c & 1
                    }
                    mixed += len(crossed) > 1
    assert (pairs, mixed) == (73966, 0)


def test_factor_records_are_ints_the_collector_drops():
    """The builder holds a record per factor for a whole middle idempotent;
    records of ints and int tuples leave the cyclic collector's lists at
    its first pass, so they do not make it walk the product table."""
    records = [rec for _, _, rec in _factors(standard_matching(2), 3, "full")]
    gc.collect()
    for rec in records:
        for field in rec:
            if isinstance(field, tuple):
                assert all(type(x) is int for x in field), rec
            else:
                assert type(field) is int, rec
        assert not any(gc.is_tracked(field) for field in rec), rec


def test_table_fields_share_the_index_ints():
    """Past the small-int cache, every generator index a table holds is
    the index dict's own int object, not one more copy per field.  The
    product is one plain dict per left factor, keyed and valued by those
    ints, so the table holds no key object per product."""
    table = AlgebraTable.build(standard_matching(2), 3, "full")
    own = {id(i) for i in table.index.values()}
    held = [i for row in (*table.by_source, *table.by_target, *table.diff) for i in row]
    assert len(table.prod) == len(table.gens)
    assert all(type(row) is dict for row in table.prod)
    held += [i for row in table.prod for entry in row.items() for i in entry]
    assert len(table.gens) > 256 and max(held) > 256
    assert all(id(i) in own for i in held)
    # Products are the entries of the rows, not the rows.
    assert sum(map(len, build_table(2, 2, "full").prod)) == 2438
    assert sum(map(len, build_table(2, 2, "half").prod)) == 192


# -- symmetries that need no second implementation ---------------------------

SYMMETRY_CASES = [
    (standard_matching(1), range(3), VARIANTS),
    *((pmc, range(5), VARIANTS) for pmc in ADMISSIBLE_G2),
    (standard_matching(3), (2,), ("full",)),
]


def test_reflection_gives_the_opposite_algebra_and_half_is_a_subalgebra():
    """A(-Z) = A(Z)^op under the reflection phi, and the half table is the
    full table restricted to the half generators.  Each table is built
    once: the reflection of an admissible g=2 matching is another one."""
    tables = {}

    def table(pmc, k, variant):
        if (pmc, k, variant) not in tables:
            tables[pmc, k, variant] = AlgebraTable.build(pmc, k, variant)
        return tables[pmc, k, variant]

    for pmc, ks, variants in SYMMETRY_CASES:
        for k, variant in itertools.product(ks, variants):
            tab, op = table(pmc, k, variant), table(reflected(pmc), k, variant)
            phi = opposite_map(tab, op)
            assert sorted(phi) == list(range(len(op.gens))), (pmc, k, variant)
            for i, row in enumerate(tab.diff):
                assert op.diff[phi[i]] == tuple(sorted(phi[x] for x in row)), (pmc, k, i)
            assert opposite_mismatches(tab, op) == 0, (pmc, k, variant)
        if "half" not in variants:
            continue
        for k in ks:
            full, half = table(pmc, k, "full"), table(pmc, k, "half")
            emb = [full.index[gen] for gen in half.gens]
            # Equal rows and product maps also show that d and the product
            # of half generators stay among them: every image is in emb.
            for i, row in enumerate(half.diff):
                assert full.diff[emb[i]] == tuple(emb[x] for x in row), (pmc, k, i)
            inside = set(emb)
            restricted = {ij: m for ij, m in product_pairs(full).items() if inside.issuperset(ij)}
            assert restricted == {
                (emb[i], emb[j]): emb[m] for (i, j), m in product_pairs(half).items()
            }, (pmc, k)
