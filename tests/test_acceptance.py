"""Acceptance gate: ten criteria, one test each, a printed line per
criterion (see conftest).  Time budgets are asserted where the criterion
carries one.

The dictionary criteria (2 and 3) are checked inline rather than through
the verify module: the two differential matrices are built as explicit
GF(2) matrices over the same ordered basis and compared for equality,
and the two products are compared on every composable pair.
"""

from __future__ import annotations

import math
import time

from conftest import (
    build_table,
    check_directed,
    check_exceptional,
    criterion,
    intersection_pattern,
    thimble_index_sets,
)
from strandfloer.circle import (
    idempotents,
    matching_from_pairs,
    standard_matching,
    validate_surface,
)
from strandfloer.gf2 import BooleanMatrix
from strandfloer.grid import (
    all_floer_generators,
    floer_differential,
    floer_product,
    from_algebra,
    make_spec,
    to_algebra,
)
from strandfloer.homalg import yoneda_ranks
from strandfloer.index import (
    _Edges,
    counted_product_domains,
    counted_rectangle_domains,
    verify_rigidity,
)
from strandfloer.strands import MatchedGenerator, differential
from strandfloer.verify import (
    suite_assoc,
    suite_closure,
    suite_d2,
    suite_leibniz,
)


def _grid_matches_algebra(g: int, k: int, variant: str) -> None:
    """Differential matrices equal, products equal on composable pairs."""
    table = build_table(g, k, variant)
    spec = make_spec(standard_matching(g), "half" if variant == "half" else "wrapped")
    mapped = [from_algebra(spec, gen) for gen in table.gens]
    # the dictionary is a bijection onto the grid generators
    assert sorted(mapped) == all_floer_generators(spec, k)

    n = len(table.gens)
    algebra_rows = [sum(1 << j for j in row) for row in table.diff]
    grid_rows = []
    for x in mapped:
        mask = 0
        for y in floer_differential(spec, x):
            mask |= 1 << table.index[to_algebra(spec, y)]
        grid_rows.append(mask)
    assert BooleanMatrix(n, n, grid_rows) == BooleanMatrix(n, n, algebra_rows)

    for u in range(len(table.idem_list)):
        for i in table.by_target[u]:
            for j in table.by_source[u]:
                out = list(floer_product(spec, mapped[i], mapped[j]))
                want = table.prod[i].get(j)
                if want is None:
                    assert out == []
                else:
                    (y,) = out
                    assert table.index[to_algebra(spec, y)] == want


def test_criterion_01_pinned_differential():
    with criterion(1, "pinned differential identity at g=2, k=2, under 1 ms"):
        pmc = standard_matching(2)
        gen = MatchedGenerator(chords=((5, 8),), dotted=(2,))
        want = {MatchedGenerator(chords=((5, 6), (6, 8)), dotted=())}
        assert set(differential(pmc, gen)) == want  # warm caches, check once
        best = min(
            _timed(lambda: set(differential(pmc, gen))) for _ in range(3)
        )
        assert best < 1e-3, f"slowest acceptable 1 ms, best run took {best:.2e} s"


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_half_dictionary():
    with criterion(2, "half grid model = half algebra, g<=3 k<=3, under 60 s"):
        t0 = time.perf_counter()
        for g in (1, 2, 3):
            for k in range(1, min(3, 2 * g) + 1):
                _grid_matches_algebra(g, k, "half")
        assert time.perf_counter() - t0 < 60


def test_criterion_03_full_dictionary():
    with criterion(3, "full grid model = full algebra, g<=2 all k and g=3 k<=2, under 5 min"):
        t0 = time.perf_counter()
        for g in (1, 2):
            for k in range(1, 2 * g + 1):  # the grid model starts at k=1
                _grid_matches_algebra(g, k, "full")
        for k in (1, 2):
            _grid_matches_algebra(3, k, "full")
        assert time.perf_counter() - t0 < 300


def test_criterion_04_intersection_patterns():
    with criterion(4, "curve intersection counts 3/2/1 wrapped, 2/1/0 half, g<=6"):
        for g in range(1, 7):
            wrapped = make_spec(standard_matching(g), "wrapped")
            half = make_spec(standard_matching(g), "half")
            for i in range(1, 2 * g + 1):
                for j in range(1, 2 * g + 1):
                    expect = 3 if i < j else (2 if i == j else 1)
                    assert intersection_pattern(wrapped, i, j) == expect
                    assert intersection_pattern(half, i, j) == expect - 1


def test_criterion_05_dga_laws():
    text = "d2, Leibniz, associativity, closure: g<=2 exhaustive, g=3 sampled seed 0"
    with criterion(5, text):
        for g in (1, 2):
            for variant in ("full", "half"):
                for k in range(0, 2 * g + 1):
                    table = build_table(g, k, variant)
                    for suite in (suite_d2, suite_leibniz, suite_assoc, suite_closure):
                        report = suite(table)
                        assert report["failures"] == [], (g, k, variant, report)
        sampled_triples = 0
        for variant in ("full", "half"):
            for k in (1, 2, 3):
                table = build_table(3, k, variant)
                assert suite_d2(table)["failures"] == []
                for suite, size in ((suite_leibniz, 20000), (suite_assoc, 20000),
                                    (suite_closure, 2000)):
                    report = suite(table, sample=size, seed=0)
                    assert report["failures"] == [], (k, variant, report)
                    if report["name"] == "assoc":
                        sampled_triples += report["checked"]
        assert sampled_triples >= 100_000


def test_criterion_06_half_algebra_is_exceptional_and_directed():
    with criterion(6, "half algebra: hom(s,s) = 1 and no 2-cycles, g<=3"):
        for g in (1, 2, 3):
            for k in range(0, 2 * g + 1):
                table = build_table(g, k, "half")
                assert check_exceptional(table)["failures"] == []
                assert check_directed(table)["failures"] == []


def test_criterion_07_index_suite():
    with criterion(7, "counted domains: products i=0 e=k/4, length-3 chains e=k/2 mu>=0, g<=2"):
        saw_chains = 0
        saw_crossings = 0
        for g in (1, 2):
            for mode in ("wrapped", "half"):
                spec = make_spec(standard_matching(g), mode)
                for k in range(1, 2 * g + 1):
                    for dom in counted_rectangle_domains(spec, k):
                        assert dom.euler_quarters == 0
                        assert dom.diag_intersections == 0
                    edges = _Edges(spec, k)
                    for dom in counted_product_domains(edges):
                        assert dom.diag_intersections == 0
                        assert dom.euler_quarters == k
                        assert dom.maslov() == 0
                    report = verify_rigidity(edges)
                    assert report["violations"] == []
                    saw_chains += report["checked"]
                    saw_crossings = max(saw_crossings, report["max_intersection"])
        assert saw_chains > 0
        assert saw_crossings > 0  # mu > 0 chains exist, the check is not vacuous


def test_criterion_08_matched_circle_validation():
    with criterion(8, "surface validation by boundary walk, g<=6; one valid g=1 pairing"):
        for g in range(1, 7):
            inv = validate_surface(standard_matching(g))
            assert inv.valid and inv.genus == g and inv.boundary_components == 1
        # hand-traced boundary cycle counts for the three pairings of 4 points
        walks = {
            ((1, 2), (3, 4)): 3,
            ((1, 3), (2, 4)): 1,
            ((1, 4), (2, 3)): 3,
        }
        valid = []
        for pairs, cycles in walks.items():
            inv = validate_surface(matching_from_pairs(1, pairs))
            assert inv.boundary_components == cycles
            if inv.valid:
                valid.append(pairs)
        assert valid == [((1, 3), (2, 4))]


def test_criterion_09_yoneda_ranks():
    with criterion(9, "H*Mor(e_s A, e_t A) = H*(e_t A e_s) for g<=2, all k, under 60 s"):
        t0 = time.perf_counter()
        for g in (1, 2):
            for k in range(0, 2 * g + 1):
                table = build_table(g, k, "full")
                for s in table.idem_list:
                    for t in table.idem_list:
                        mor_rank, hom_rank = yoneda_ranks(table, s, t)
                        assert mor_rank == hom_rank, (g, k, s, t)
        assert time.perf_counter() - t0 < 60


def test_criterion_10_subset_counts():
    with criterion(10, "idempotent count C(2g,k), thimble count C(2g+1,k), g<=6"):
        for g in range(1, 7):
            pmc = standard_matching(g)
            for k in range(0, 2 * g + 1):
                assert len(idempotents(pmc, k)) == math.comb(2 * g, k)
            for k in range(0, 2 * g + 2):
                assert len(thimble_index_sets(g, k)) == math.comb(2 * g + 1, k)
