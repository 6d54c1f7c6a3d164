"""Strand diagrams, section expansion, differential, product, tables.

Generator counts are cross-checked against an independent oracle: the
number of generators from s to t equals the permanent of the pattern
matrix P[i, j] = (points available for a strand from label i to label
j), with the closed-form 3/2/1 (full) or 2/1/0 (half) entries written
out here rather than taken from the library.
"""

from __future__ import annotations

import copy
import itertools

import pytest

from conftest import assoc_walk, build_table
from strandfloer import _kernels, strands
from strandfloer.circle import (
    idempotents,
    matching_from_pairs,
    standard_matching,
    validate_surface,
)
from strandfloer.strands import (
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
    assert len(build_table(1, 1, "full")) == 8
    assert len(build_table(1, 2, "full")) == 7
    assert len(build_table(2, 2, "full")) == 274
    assert len(build_table(2, 3, "full")) == 656
    assert len(build_table(2, 4, "full")) == 277
    assert len(build_table(1, 1, "half")) == 4
    assert len(build_table(2, 2, "half")) == 58


def test_genus_one_dimension_table():
    dims = build_table(1, 1, "full").dims_table()
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
    assert tab.prod == {(0, 0): 0}


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
        assert tab.prod.get((e_src, i)) == i
        assert tab.prod.get((i, e_tgt)) == i


# -- tables -------------------------------------------------------------------


def test_table_frozen_entry_counts():
    tab = build_table(2, 2, "full")
    assert len(tab.prod) == 2438
    assert sum(len(row) for row in tab.diff) == 106
    half = build_table(2, 2, "half")
    assert len(half.prod) == 192
    assert sum(len(row) for row in half.diff) == 10


def test_table_rows_agree_with_direct_operations():
    tab = build_table(2, 2, "full")
    pmc = tab.pmc
    for i in range(0, len(tab), 17):
        want = {tab.index[t] for t in differential(pmc, tab.gens[i])}
        assert set(tab.diff[i]) == want
    pairs = sorted(tab.prod)[::97]
    for i, j in pairs:
        (term,) = list(product(pmc, tab.gens[i], tab.gens[j]))
        assert tab.index[term] == tab.prod[(i, j)]


def test_table_product_respects_idempotent_grading():
    tab = build_table(2, 2, "full")
    for (i, j), m in tab.prod.items():
        assert tab.tgt[i] == tab.src[j]
        assert tab.src[m] == tab.src[i]
        assert tab.tgt[m] == tab.tgt[j]


def test_table_index_and_hom_lookups():
    tab = build_table(1, 1, "full")
    assert len(tab.hom_indices((1,), (2,))) == 3
    assert [tab.gens[i] for i in tab.hom_indices((2,), (1,))] == [
        MatchedGenerator(chords=((2, 3),), dotted=())
    ]
    assert tab.prod.get((0, 0)) == 0
    assert tab.prod.get((1, 1)) is None


ASSOC_CASES = [
    (standard_matching(g), k, variant)
    for g in (1, 2)
    for k in (1, 2)
    for variant in ("full", "half")
] + [(matching_from_pairs(2, ((1, 7), (2, 8), (3, 5), (4, 6))), 2, "full")]


def _assoc_mutants(table):
    """The clean product, a flipped entry on either side of an
    idempotent, and one deleted product."""
    yield "clean", table.prod
    a = next((i for i in range(len(table.gens)) if table.src[i] != table.tgt[i]), None)
    if a is not None:
        # e_s a = a becomes e_s: then (e_s a) e_t = e_s e_t = 0 while
        # e_s (a e_t) = e_s.  Its source stays s, its target does not.
        e = table.idem_gen[table.src[a]]
        yield "flipped-left", {**table.prod, (e, a): e}
        # a e_t = a becomes e_t, which moves the source instead.
        e = table.idem_gen[table.tgt[a]]
        yield "flipped-right", {**table.prod, (a, e): e}
    idem = set(table.idem_gen)
    plain = [ij for ij in table.prod if not idem & set(ij)]
    if plain:
        prod = dict(table.prod)
        del prod[min(plain)]
        yield "deleted", prod


def test_assoc_scan_matches_python_walk():
    failing = {}
    for pmc, k, variant in ASSOC_CASES:
        table = copy.copy(AlgebraTable.build(pmc, k, variant))
        for name, prod in _assoc_mutants(table):
            table.prod = prod
            checked, bad, sides = assoc_walk(table)
            rows, cols = table.as_csr()
            visits, got = _kernels.assoc_scan(prod, rows, cols, table.src, table.tgt)
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
                        want = tab.prod.get((i, j))
                        assert got == ([] if want is None else [want]), (k, variant, i, j)


def test_product_builder_raises_instead_of_dropping(monkeypatch):
    pmc = standard_matching(1)
    # A composite missing from the generator list: (1,2)*(2,3) = (1,3).
    gens = [g for g in enumerate_generators(pmc, 1) if g.chords != ((1, 3),)]
    tab = AlgebraTable(pmc, 1, "full", gens, idempotents(pmc, 1))
    with pytest.raises(ClosureError, match="not in the table"):
        tab._build_products()

    # One section of every factor reports a crossing that is not there, so
    # the product of an idempotent with itself keeps only three of its four
    # sections: a partial family.
    real = strands._packed_crossings

    def one_section_crossed(pmc, u, middle, outer):
        packed, consistent = real(pmc, u, middle, outer)
        width = len(u) * (len(u) - 1) // 2
        return packed | (consistent & 1) * ((1 << width) - 1), consistent

    monkeypatch.setattr(strands, "_packed_crossings", one_section_crossed)
    with pytest.raises(ClosureError, match="some sections"):
        AlgebraTable.build(pmc, 2, "full")
