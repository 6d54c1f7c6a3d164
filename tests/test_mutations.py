"""Seeded defects in the section route and the grid: each mutant is a
copy of one function with one check taken out or one rule changed,
monkeypatched where its callers look it up, and the suites that should
see it must fail by a pinned count.

The section-route counts are at g=2, k=3, full, the grid counts at g=2,
k=2, full, all on the standard matching.  ``rigidity`` fails 0 checks
on both grid mutants: its chain test holds for any count of crossings
(ROADMAP item 3).
"""

from __future__ import annotations

import itertools

from strandfloer import grid, index, strands, verify
from strandfloer.circle import standard_matching

_overlap_class = grid.overlap_class


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
