"""Verification suites: every invariant the package promises, phrased as
a checked count plus a list of serializable counterexamples.

Each suite_* function takes prebuilt objects so callers can share one
algebra table across suites; run_suites is the driver the command line
uses.  A suite result is a dict {name, checked, failures} and passes
when failures is empty.  A suite checks everything even after it has
failed; a failing result also carries failed, the total number of
failures, of which failures keeps at most MAX_EXAMPLES.  The grid
suites read the grid model of the table's own matching, so they run on
every admissible matching and at every k, k = 0 included, where the
grid model has the empty tuple as its one generator.

leibniz, closure and assoc check every composable pair or triple, or
with a sample size a seeded draw of that many composable chains, all
drawn by one sampler: the first generator uniform, each next one uniform
among those that start where the previous one ends.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from . import _kernels, homalg, index
from .circle import PointedMatchedCircle, standard_matching
from .grid import (
    FloerGenerator,
    GridSpec,
    floer_differential,
    floer_product,  # unused here; perfbench/traced.py wraps verify.floer_product by name
    from_algebra,
    make_spec,
    to_algebra,
)
from .strands import (
    AlgebraTable,
    ClosureError,
    MatchedGenerator,
    compose,
    differential,
    product,  # unused here; perfbench/traced.py wraps verify.product by name
    sections,
)

SUITE_NAMES = (
    "regression",
    "d2",
    "leibniz",
    "assoc",
    "closure",
    "dictionary-diff",
    "dictionary-prod",
    "euler",
    "rigidity",
    "yoneda",
)

# The grid suites that read the gluing graph.
_GRAPH_SUITES = {"dictionary-prod", "euler", "rigidity"}


MAX_EXAMPLES = 5


class _Failures:
    """Counts every failure of a suite and keeps the first MAX_EXAMPLES."""

    def __init__(self):
        self.examples: list = []
        self.total = 0

    def add(self, example: dict) -> None:
        self.total += 1
        if len(self.examples) < MAX_EXAMPLES:
            self.examples.append(example)

    def result(self, name: str, checked: int) -> dict:
        result = {"name": name, "checked": checked, "failures": self.examples}
        if self.total:
            result["failed"] = self.total
        return result


def _gen_json(gen: MatchedGenerator) -> dict:
    return {"chords": [list(c) for c in gen.chords], "dotted": list(gen.dotted)}


def suite_regression() -> dict:
    """The pinned differential identity on the g=2, k=2 half diagram:
    d{chord (5,8), dotted 2} = {chords (5,6) and (6,8)}."""
    pmc = standard_matching(2)
    gen = MatchedGenerator(chords=((5, 8),), dotted=(2,))
    got = sorted(differential(pmc, gen))
    want = [MatchedGenerator(chords=((5, 6), (6, 8)), dotted=())]
    failures = _Failures()
    if got != want:
        failures.add({"got": [_gen_json(g) for g in got]})
    return failures.result("regression", 1)


def suite_d2(table: AlgebraTable) -> dict:
    failures = _Failures()
    for i in range(len(table.gens)):
        acc: set[int] = set()
        for j in table.diff[i]:
            acc.symmetric_difference_update(table.diff[j])
        if acc:
            failures.add({"generator": _gen_json(table.gens[i])})
    return failures.result("d2", len(table.gens))


def suite_leibniz(table: AlgebraTable, sample: int | None = None, seed: int = 0) -> dict:
    """d(ab) = (da)b + a(db) over composable pairs, exhaustively or on a
    seeded sample."""
    pairs = _composable_pairs(table, sample, seed)
    prod = table.prod
    failures = _Failures()
    checked = 0
    for i, j in pairs:
        checked += 1
        acc: set[int] = set()
        row = prod[i]
        m = row.get(j)
        if m is not None:
            acc.symmetric_difference_update(table.diff[m])
        for x in table.diff[i]:
            p = prod[x].get(j)
            if p is not None:
                acc.symmetric_difference_update((p,))
        for y in table.diff[j]:
            p = row.get(y)
            if p is not None:
                acc.symmetric_difference_update((p,))
        if acc:
            failures.add(_pair_json(table, i, j))
    return failures.result("leibniz", checked)


def _sampled_chains(table: AlgebraTable, length: int, sample: int, seed: int):
    """``sample`` seeded composable chains of ``length`` generators: the
    first uniform over all generators, each next one uniform among those
    that start where the previous one ends."""
    rng = random.Random(seed)
    n = len(table.gens)
    for _ in range(sample):
        chain = [rng.randrange(n)]
        while len(chain) < length:
            pool = table.by_source[table.tgt[chain[-1]]]
            chain.append(pool[rng.randrange(len(pool))])
        yield chain


def _composable_pairs(table: AlgebraTable, sample: int | None, seed: int):
    """Every composable pair (i, j), or ``sample`` seeded ones."""
    if sample is not None:
        return _sampled_chains(table, 2, sample, seed)
    return ((i, j) for t, s in zip(table.by_target, table.by_source) for i in t for j in s)


def _pair_json(table: AlgebraTable, i: int, j: int) -> dict:
    return {"left": _gen_json(table.gens[i]), "right": _gen_json(table.gens[j])}


def _triple_json(table: AlgebraTable, i: int, j: int, l: int) -> dict:
    return {
        "a": _gen_json(table.gens[i]),
        "b": _gen_json(table.gens[j]),
        "c": _gen_json(table.gens[l]),
    }


def suite_assoc(table: AlgebraTable, sample: int | None = None, seed: int = 0) -> dict:
    """(ab)c = a(bc).  Exhaustive runs check every composable triple, but
    visit only those with a nonzero side (``_kernels.assoc_scan``); the
    rest hold trivially and are counted.  The sampled path draws
    composable triples as leibniz and closure draw pairs."""
    failures = _Failures()
    if sample is None:
        prod, cols = table.as_csr()
        _, bad = _kernels.assoc_scan(prod, cols, table.src, table.tgt)
        for i, j, l in bad:
            failures.add(_triple_json(table, i, j, l))
        checked = sum(
            len(table.by_target[table.src[j]]) * len(table.by_source[table.tgt[j]])
            for j in range(len(table.gens))
        )
        return failures.result("assoc", checked)
    prod = table.prod
    for i, j, l in _sampled_chains(table, 3, sample, seed):
        ij = prod[i].get(j)
        jl = prod[j].get(l)
        left = None if ij is None else prod[ij].get(l)
        right = None if jl is None else prod[i].get(jl)
        if left != right:
            failures.add(_triple_json(table, i, j, l))
    return failures.result("assoc", sample)


def suite_closure(table: AlgebraTable, sample: int | None = None, seed: int = 0) -> dict:
    """Recompute every table row through the section route: each call
    must reassemble whole matched generators (no ClosureError) and agree
    with the stored row.  Products are checked on the composable pairs,
    all of them or a seeded sample, zero products included.  Each
    generator's sections are expanded once, when a pair first meets it,
    and the table is read only to compare."""
    pmc = table.pmc
    failures = _Failures()
    checked = 0
    for i, gen in enumerate(table.gens):
        checked += 1
        try:
            got = sorted(table.index[t] for t in differential(pmc, gen))
        except ClosureError as err:
            failures.add({"generator": _gen_json(gen), "error": str(err)})
            continue
        if got != sorted(table.diff[i]):
            failures.add({"generator": _gen_json(gen)})

    @functools.cache
    def sections_of(i: int):
        return sections(pmc, table.gens[i])

    for i, j in _composable_pairs(table, sample, seed):
        checked += 1
        try:
            got = [table.index[t] for t in compose(pmc, sections_of(i), sections_of(j))]
        except ClosureError as err:
            failures.add({**_pair_json(table, i, j), "error": str(err)})
            continue
        want = table.prod[i].get(j)
        if got != ([] if want is None else [want]):
            failures.add(_pair_json(table, i, j))
    return failures.result("closure", checked)


def grid_spec(pmc: PointedMatchedCircle, variant: str) -> GridSpec:
    """The grid diagram that models the algebra of a matching and variant."""
    return make_spec(pmc, "half" if variant == "half" else "wrapped")


def _placed(table: AlgebraTable, spec: GridSpec, x: FloerGenerator) -> int | None:
    """The table index of grid generator x under the dictionary, or None
    when the dictionary cannot place it in the table."""
    try:
        return table.index.get(to_algebra(spec, x))
    except ValueError:
        return None


def _points_json(x: FloerGenerator) -> list:
    return [list(p) for p in x]


def suite_dictionary_diff(table: AlgebraTable) -> dict:
    """Empty-rectangle counts match the strands differential generator by
    generator under the dictionary, both directions of the translation.
    A generator or differential term the dictionary cannot place back in
    the table is a failure."""
    spec = grid_spec(table.pmc, table.variant)
    failures = _Failures()
    for i, gen in enumerate(table.gens):
        x = from_algebra(spec, gen)
        got = [_placed(table, spec, y) for y in floer_differential(spec, x)]
        if _placed(table, spec, x) != i or None in got or sorted(got) != sorted(table.diff[i]):
            failures.add({"generator": _gen_json(gen)})
    return failures.result("dictionary-diff", len(table.gens))


def suite_dictionary_prod(table: AlgebraTable, edges: index._Edges) -> dict:
    """Triangle counts match the concatenation product pair by pair.

    The grid products are the edges of the gluing graph, each grid
    generator translated to the algebra once.  They are compared with
    table.prod as two sparse maps: a composable pair is wrong only if one
    side has an entry for it, so the zero pairs are counted, not visited.
    A grid generator the dictionary cannot place, and an edge that no
    composable pair reaches, are failures too.
    """
    spec = edges.spec
    failures = _Failures()
    alg = [_placed(table, spec, x) for x in edges.gens]
    for x, i in zip(edges.gens, alg):
        if i is None:
            failures.add({"grid": _points_json(x)})
    grid_of = {i: x for x, i in enumerate(alg) if i is not None}
    src, tgt = table.src, table.tgt
    n = len(table.gens)
    # The grid product of each composable pair (i, j), keyed i * n + j.
    grid_prod: dict[int, int | None] = {}
    for x, y, z in zip(edges.left, edges.right, edges.prod):
        i, j = alg[x], alg[y]
        if grid_of.get(i) == x and grid_of.get(j) == y and tgt[i] == src[j]:
            grid_prod[i * n + j] = alg[z]
        else:
            left, right = edges.gens[x], edges.gens[y]
            failures.add({"grid_left": _points_json(left), "grid_right": _points_json(right)})
    # -1 is no edge; an edge whose product cannot be placed holds None.
    for i, row in enumerate(table.prod):
        for j, m in row.items():
            if tgt[i] == src[j] and grid_prod.pop(i * n + j, -1) != m:
                failures.add(_pair_json(table, i, j))
    for key in grid_prod:  # edges on pairs the table leaves zero
        failures.add(_pair_json(table, *divmod(key, n)))
    return failures.result("dictionary-prod", table.composable_pairs)


def suite_euler(spec: GridSpec, k: int, edges: index._Edges) -> dict:
    """Counted rectangles carry e = 0, i = 0; counted product tuples
    (the edges of the gluing graph) carry i = 0, e = k/4 and index zero."""
    failures = _Failures()
    checked = 0
    for dom in index.counted_rectangle_domains(spec, k):
        checked += 1
        if dom.euler_quarters != 0 or dom.diag_intersections != 0:
            failures.add({"kind": "rectangle", "e": str(Fraction(dom.euler_quarters, 4))})
    for dom in index.counted_product_domains(edges):
        checked += 1
        if dom.euler_quarters != k or dom.diag_intersections != 0 or dom.maslov() != 0:
            failures.add(
                {
                    "kind": "product",
                    "e": str(Fraction(dom.euler_quarters, 4)),
                    "i": dom.diag_intersections,
                    "mu": str(dom.maslov()),
                }
            )
    return failures.result("euler", checked)


def suite_rigidity(edges: index._Edges) -> dict:
    report = index.verify_rigidity(edges)
    failures = _Failures()
    for violation in report["violations"]:
        failures.add(violation)
    result = failures.result("rigidity", report["checked"])
    result["max_intersection"] = report["max_intersection"]
    return result


def suite_yoneda(table: AlgebraTable) -> dict:
    """H*Mor(e_s A, e_t A) = H*(e_t A e_s) for every ordered pair of
    idempotents, with one projective module built per idempotent.  A pair
    whose source module, target module or either complex cannot be formed
    (a differential that does not square to zero, say) counts as one
    failure.

    Each Mor is solved from the linearity rows of a generating set: the
    indecomposable generators, plus every decomposable c = a.b whose
    identity x.c = (x.a).b fails on some basis x of either module.  That
    identity is checked per module, so on a corrupt table a projective
    that is not associative writes the rows it needs and the solution is
    the one every generator's rows give.  The table-level associativity
    check is still `assoc`."""
    def projective(s):
        """e_s A, or the text of the error that stops it being formed."""
        try:
            return homalg.projective_module(table, s)
        except ValueError as err:
            return str(err)

    modules = [projective(s) for s in table.idem_list]
    failures = _Failures()
    checked = 0
    for s, M in zip(table.idem_list, modules):
        for t, N in zip(table.idem_list, modules):
            checked += 1
            error = next((m for m in (M, N) if isinstance(m, str)), None)
            if error is None:
                try:
                    mor_rank = homalg.mor_complex(M, N).homology_rank()
                    hom_rank = homalg.hom_complex(table, t, s).homology_rank()
                except ValueError as err:
                    error = str(err)
            if error is not None:
                failures.add({"s": list(s), "t": list(t), "error": error})
            elif mor_rank != hom_rank:
                failures.add({"s": list(s), "t": list(t), "mor": mor_rank, "hom": hom_rank})
    return failures.result("yoneda", checked)


# ---------------------------------------------------------------------------
# Driver.


def run_suites(
    pmc: PointedMatchedCircle,
    k: int,
    variant: str,
    suites=None,
    sample: int | None = None,
    seed: int = 0,
) -> dict:
    """Build once, run the requested suites, report one dict per suite.
    The algebra table is built once for all suites, and the grid's gluing
    graph once, just before the first of dictionary-prod, euler and
    rigidity runs; it is dropped after the last of them.

    The overall report is {"suites": [...], "skipped": [], "ok": bool}.
    Every suite runs at every k, so "skipped" is always empty; the key
    stays until the report schema is next bumped.
    """
    chosen = list(SUITE_NAMES) if suites is None else list(suites)
    unknown = [s for s in chosen if s not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    table = AlgebraTable.build(pmc, k, variant)
    spec = grid_spec(pmc, variant)

    results = []
    edges = None  # the gluing graph, built once for dictionary-prod, euler and rigidity
    for n, name in enumerate(chosen):
        if name in _GRAPH_SUITES and edges is None:
            edges = index._Edges(spec, k)
        if name == "regression":
            results.append(suite_regression())
        elif name == "d2":
            results.append(suite_d2(table))
        elif name == "leibniz":
            results.append(suite_leibniz(table, sample=sample, seed=seed))
        elif name == "assoc":
            results.append(suite_assoc(table, sample=sample, seed=seed))
        elif name == "closure":
            results.append(suite_closure(table, sample=sample, seed=seed))
        elif name == "dictionary-diff":
            results.append(suite_dictionary_diff(table))
        elif name == "dictionary-prod":
            results.append(suite_dictionary_prod(table, edges))
        elif name == "euler":
            results.append(suite_euler(spec, k, edges))
        elif name == "rigidity":
            results.append(suite_rigidity(edges))
        elif name == "yoneda":
            results.append(suite_yoneda(table))
        if not _GRAPH_SUITES.intersection(chosen[n + 1 :]):
            edges = None
    ok = all(not r["failures"] for r in results)
    return {"suites": results, "skipped": [], "ok": ok}
