"""Seeded defects in the section route, the product table, the grid and
the morphism-complex solver: each mutant is a copy of one function with
one check taken out or one rule changed, monkeypatched where its callers
look it up, and the suites that should see it must fail by a pinned
count.

The section-route counts are at g=2, k=3, full, the other counts at
g=2, k=2, full, all on the standard matching.  The mutants from the
deleted product on run every suite, and their pins name the suites that
cannot see them with 0; the dropped factorization is an equivalent
mutant, pinned as such.  ``rigidity`` fails 0 checks on every grid
mutant: its chain test holds for any count of crossings (ROADMAP item
2).
"""

from __future__ import annotations

import itertools

from conftest import block_rows
from strandfloer import grid, homalg, index, strands, verify
from strandfloer.circle import standard_matching

_overlap_class = grid.overlap_class
_build = strands.AlgebraTable.build.__func__
_linearity_blocks = homalg._linearity_blocks
_factorizations = homalg._factorizations
PASSING = dict.fromkeys(verify.SUITE_NAMES, 0)


def _resolve_every_crossing(diagram):
    """``differential_unmatched`` without the ``== base - 1`` filter: a
    resolution that also undoes a third strand's crossings is kept."""
    terms = set()
    for i, j in itertools.combinations(range(len(diagram)), 2):
        (a1, b1), (a2, b2) = diagram[i], diagram[j]
        if (a1 - a2) * (b1 - b2) < 0:
            resolved = list(diagram)
            resolved[i] = (a1, b2)
            resolved[j] = (a2, b1)
            terms ^= {tuple(sorted(resolved))}
    return frozenset(terms)


def _compose_every_concatenation(pmc, left, right):
    """``compose`` without the inversions-add test: every section pair
    whose ends meet starts survives, double crossings included."""
    if left.target != right.source:
        return frozenset()
    acc = set()
    for strands1, ends, _, _, _ in left.sections:
        for _, _, starts, _, follow in right.sections:
            if ends == starts:
                acc ^= {tuple(sorted((a, follow[b]) for a, b in strands1))}
    return strands.recognize(pmc, acc) if acc else frozenset()


def _count_every_triangle_tuple(spec, tris):
    """``count_triangles`` without the forbidden-overlap filter: a tuple
    with a forbidden pair still counts."""
    if tris is None:
        return None
    return tuple(sorted(grid.canonical_point(spec, t.c, t.r) for t in tris))


def _overlap_class_swapped(spec, t1, t2):
    """``overlap_class`` with the forbidden and head_to_tail classes
    exchanged."""
    cls = _overlap_class(spec, t1, t2)
    return {"forbidden": "head_to_tail", "head_to_tail": "forbidden"}.get(cls, cls)


def _build_dropping_a_product(cls, pmc, k, variant="full"):
    """``AlgebraTable.build``, then one ``prod`` entry deleted: the first
    pair, in index order, of two non-idempotent generators."""
    table = _build(cls, pmc, k, variant)
    idem = set(table.idem_gen)
    del table.prod[min(p for p in table.prod if not idem.intersection(p))]
    return table


def _points_for_labels_off_by_one(spec, i, j):
    """``points_for_labels`` testing the cell one row up, (a, b - 1), in
    place of (a, b): in the wrapped grid no branch point (a, a) is left."""
    out = set()
    for a in spec.pmc.positions_of(i):
        for b in spec.pmc.positions_of(j):
            if spec.allowed(a, b - 1):
                out.add(grid.canonical_point(spec, a, b))
    return sorted(out)


def _linearity_blocks_dropping_every_97th(M, N, layout, every_generator=False):
    """``_linearity_blocks`` without its 97th, 194th, ... row, counted in
    the order ``block_rows`` reads them; the rest go on as listed rows."""
    rows = block_rows(_linearity_blocks(M, N, layout, every_generator))
    yield (), (), (), (), [row for n, row in enumerate(rows) if n % 97 != 96]


def _indecomposables_only(self):
    """``RightDGModule.explicit`` without its x.c = (x.a).b check: the
    indecomposable generators alone."""
    table = self.table
    factor = _factorizations(table)
    return frozenset(set(range(len(table.gens))) - set(table.idem_gen) - factor.keys())


def _factorizations_dropping_one(table):
    """``_factorizations`` without the factorization of its smallest c."""
    factor = dict(_factorizations(table))
    del factor[min(factor)]
    return factor


def _failed(report) -> dict[str, int]:
    return {r["name"]: r.get("failed", 0) for r in report["suites"]}


def test_differential_without_double_crossing_filter_is_caught(monkeypatch):
    monkeypatch.setattr(strands, "differential_unmatched", _resolve_every_crossing)
    pmc = standard_matching(2)
    report = verify.run_suites(pmc, 3, "full", suites=["leibniz", "dictionary-diff", "yoneda"])
    assert _failed(report) == {"leibniz": 1066, "dictionary-diff": 50, "yoneda": 16}
    # At k = 2 the mutant is equivalent: a double crossing needs a third
    # strand, so no section has a resolution the filter would drop and
    # nothing can fail.
    mutant = strands.AlgebraTable.build(pmc, 2, "full").diff
    monkeypatch.undo()
    assert mutant == strands.AlgebraTable.build(pmc, 2, "full").diff


def test_compose_without_inversions_add_test_is_caught(monkeypatch):
    monkeypatch.setattr(verify, "compose", _compose_every_concatenation)
    report = verify.run_suites(standard_matching(2), 3, "full", suites=["closure"])
    assert _failed(report) == {"closure": 2080}


def test_triangle_count_without_forbidden_filter_is_caught(monkeypatch):
    monkeypatch.setattr(index, "count_triangles", _count_every_triangle_tuple)
    report = verify.run_suites(standard_matching(2), 2, "full", suites=["dictionary-prod", "euler"])
    # euler fails on the same edges: a counted Domain recounts i from its
    # triangles and finds the forbidden pair the mutant let through.
    assert _failed(report) == {"dictionary-prod": 192, "euler": 192}


def test_overlap_class_with_swapped_classes_is_caught(monkeypatch):
    monkeypatch.setattr(grid, "overlap_class", _overlap_class_swapped)
    monkeypatch.setattr(index, "overlap_class", _overlap_class_swapped)
    report = verify.run_suites(standard_matching(2), 2, "full", suites=["dictionary-prod"])
    assert _failed(report) == {"dictionary-prod": 1226}


def test_deleted_product_entry_is_caught(monkeypatch):
    monkeypatch.setattr(strands.AlgebraTable, "build", classmethod(_build_dropping_a_product))
    report = verify.run_suites(standard_matching(2), 2, "full")
    assert _failed(report) == {
        **PASSING, "leibniz": 2, "assoc": 16, "closure": 1, "dictionary-prod": 1, "yoneda": 5
    }


def test_points_for_labels_off_by_one_is_caught(monkeypatch):
    monkeypatch.setattr(grid, "points_for_labels", _points_for_labels_off_by_one)
    report = verify.run_suites(standard_matching(2), 2, "full")
    # Only dictionary-prod compares the grid's generator list with the
    # table.  dictionary-diff translates each algebra generator with
    # from_algebra and never lists the grid's; euler and rigidity check
    # the domains of whatever generators they are given.
    assert _failed(report) == {**PASSING, "dictionary-prod": 1874}


def test_mor_complex_missing_linearity_rows_is_caught(monkeypatch):
    monkeypatch.setattr(homalg, "_linearity_blocks", _linearity_blocks_dropping_every_97th)
    report = verify.run_suites(standard_matching(2), 2, "full")
    # Which rows go, and so the count, follows the order block_rows reads.
    assert _failed(report) == {**PASSING, "yoneda": 15}


def test_explicit_set_without_its_identity_check_blinds_yoneda(monkeypatch):
    monkeypatch.setattr(strands.AlgebraTable, "build", classmethod(_build_dropping_a_product))
    monkeypatch.setattr(homalg.RightDGModule, "explicit", property(_indecomposables_only))
    report = verify.run_suites(standard_matching(2), 2, "full")
    # With the check, e_{1,2}A adds the 13 generators c whose identity
    # x.c = (x.a).b the deleted product breaks, and yoneda fails 5 pairs
    # (the deleted-product mutant above).  Without it their rows are
    # never written, and yoneda fails none.
    assert _failed(report) == {
        **PASSING, "leibniz": 2, "assoc": 16, "closure": 1, "dictionary-prod": 1, "yoneda": 0
    }


def test_dropped_factorization_is_equivalent(monkeypatch):
    monkeypatch.setattr(homalg, "_factorizations", _factorizations_dropping_one)
    pmc = standard_matching(2)
    table = strands.AlgebraTable.build(pmc, 2, "full")
    c = min(_factorizations(table))
    assert all(c in homalg.projective_module(table, s).explicit for s in table.idem_list)
    report = verify.run_suites(pmc, 2, "full")
    # Equivalent: c has no factorization left, so it counts as
    # indecomposable and every module writes its rows anyway.
    assert _failed(report) == PASSING
