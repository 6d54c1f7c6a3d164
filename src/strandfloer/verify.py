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
among those that start where the previous one ends.  An exhaustive run
visits only the pairs or triples where the suite's own data can make a
term nonzero, and counts the rest, which hold trivially, in checked;
rigidity likewise crosses only the glued chains with a crossing pair.
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
    seeded sample.  Exhaustive runs visit only the pairs with a term that
    can be nonzero (``_leibniz_pairs``) and count the rest, which hold
    trivially."""
    if sample is None:
        pairs, checked = _leibniz_pairs(table), table.composable_pairs
    else:
        pairs, checked = _sampled_chains(table, 2, sample, seed), sample
    prod = table.prod
    failures = _Failures()
    for i, j in pairs:
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


def _pairs_among(table: AlgebraTable, partners):
    """The composable pairs (i, j) with j among ``partners(i)``, in the
    order of a walk over every composable pair: by the middle idempotent,
    then i in ``by_target``, then j ascending."""
    src = table.src
    for u, left in enumerate(table.by_target):
        for i in left:
            for j in sorted({j for j in partners(i) if src[j] == u}):
                yield i, j


def _leibniz_pairs(table: AlgebraTable):
    """The composable pairs (i, j) where a Leibniz term can be nonzero:
    d(ij) needs j in the row of i, (di)j j in the row of a term of d(i),
    and i(dj) a term of d(j) in the row of i, found through the inverted
    differential."""
    prod, diff = table.prod, table.diff
    # inverse[y]: the j with y a term of d(j).
    inverse: list[list[int]] = [[] for _ in table.gens]
    for j, terms in enumerate(diff):
        for y in terms:
            inverse[y].append(j)

    def partners(i):
        yield from prod[i]
        for x in diff[i]:
            yield from prod[x]
        for y in prod[i]:
            yield from inverse[y]

    return _pairs_among(table, partners)


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
    generator's sections are expanded once, and the table is read only
    to compare and to add its own entries to the pairs visited.

    ``compose`` is zero on a pair none of whose section ends meet a
    section start, so exhaustive runs visit only the pairs that meet,
    found by ``_section_index``, and the pairs in the table's rows; the
    rest are counted."""
    pmc = table.pmc
    failures = _Failures()
    checked = 0
    for i, gen in enumerate(table.gens):
        checked += 1
        try:
            got = tuple(sorted(table.index[t] for t in differential(pmc, gen)))
        except ClosureError as err:
            failures.add({"generator": _gen_json(gen), "error": str(err)})
            continue
        if got != table.diff[i]:
            failures.add({"generator": _gen_json(gen)})

    @functools.cache
    def sections_of(i: int):
        return sections(pmc, table.gens[i])

    prod = table.prod
    if sample is None:
        meeting = _section_index(table, sections_of)

        def partners(i):
            yield from prod[i]
            for _, ends, _, _, _ in sections_of(i).sections:
                yield from meeting.get(ends, ())

        pairs = _pairs_among(table, partners)
        checked += table.composable_pairs
    else:
        pairs = _sampled_chains(table, 2, sample, seed)
        checked += sample
    for i, j in pairs:
        try:
            got = [table.index[t] for t in compose(pmc, sections_of(i), sections_of(j))]
        except ClosureError as err:
            failures.add({**_pair_json(table, i, j), "error": str(err)})
            continue
        want = prod[i].get(j)
        if got != ([] if want is None else [want]):
            failures.add(_pair_json(table, i, j))
    return failures.result("closure", checked)


def _section_index(table: AlgebraTable, sections_of) -> dict[tuple[int, ...], list[int]]:
    """Each start tuple of a section, to the generators, ascending, with
    a section that starts there: the right factors whose sections a left
    section ending there meets in ``compose``."""
    meeting: dict[tuple[int, ...], list[int]] = {}
    for j in range(len(table.gens)):
        for starts in {starts for _, _, starts, _, _ in sections_of(j).sections}:
            meeting.setdefault(starts, []).append(j)
    return meeting


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
        if _placed(table, spec, x) != i or None in got or tuple(sorted(got)) != table.diff[i]:
            failures.add({"generator": _gen_json(gen)})
    return failures.result("dictionary-diff", len(table.gens))


def suite_dictionary_prod(table: AlgebraTable, edges: index._Edges) -> dict:
    """Triangle counts match the concatenation product pair by pair.

    The grid products are the edges of the gluing graph, each grid
    generator translated to the algebra once.  They are compared with
    table.prod row by row: the graph's row of a table row's placed grid
    generator against the table row's composable entries.  A composable
    pair is wrong only if one side has an entry for it, so the zero
    pairs are counted, not visited.  A grid generator the dictionary
    cannot place, and an edge that no composable pair reaches, are
    failures too.  The examples come in that order: grid generators,
    then such edges in edge order, then wrong or missing products by
    (i, j), then edges on pairs that the table leaves zero, in edge
    order.  One pass over the edges finds both kinds of edge; the rows
    ascend, so the pass over them meets its pairs by (i, j).
    """
    spec = edges.spec
    failures = _Failures()
    alg = [_placed(table, spec, x) for x in edges.gens]
    for x, i in zip(edges.gens, alg):
        if i is None:
            failures.add({"grid": _points_json(x)})
    grid_of = {i: x for x, i in enumerate(alg) if i is not None}
    # Whether grid generator x is the one its algebra generator's row reads.
    placed = [grid_of.get(i) == x for x, i in enumerate(alg)]
    src, tgt = table.src, table.tgt
    start, right, prod = edges.start, edges.right, edges.prod
    table_prod = table.prod
    zero_pairs = []  # the (i, j) of each edge on a pair the table leaves zero
    for x in range(len(edges.gens)):
        for y in right[start[x] : start[x + 1]]:
            if not (placed[x] and placed[y] and tgt[alg[x]] == src[alg[y]]):
                left_pts, right_pts = _points_json(edges.gens[x]), _points_json(edges.gens[y])
                failures.add({"grid_left": left_pts, "grid_right": right_pts})
            elif alg[y] not in table_prod[alg[x]]:
                zero_pairs.append((alg[x], alg[y]))
    for i, row in enumerate(table_prod):
        # The grid row of i: each right factor's algebra index to its edge.
        grid_row: dict[int, int] = {}
        x = grid_of.get(i)
        if x is not None:
            t = tgt[i]
            for e in range(start[x], start[x + 1]):
                y = right[e]
                if placed[y] and src[alg[y]] == t:
                    grid_row[alg[y]] = e
        for j, m in row.items():
            if tgt[i] == src[j]:
                e = grid_row.get(j)
                if e is None or alg[prod[e]] != m:
                    failures.add(_pair_json(table, i, j))
    for i, j in zero_pairs:
        failures.add(_pair_json(table, i, j))
    return failures.result("dictionary-prod", table.composable_pairs)


def suite_euler(edges: index._Edges) -> dict:
    """Counted rectangles carry e = 0, i = 0; counted product tuples
    (the edges of the gluing graph) carry i = 0, e = k/4 and index zero.
    The diagram and k are the graph's own."""
    spec, k = edges.spec, edges.k
    failures = _Failures()
    checked = 0
    for dom in index.counted_rectangle_domains(spec, k):
        checked += 1
        if dom.euler_quarters != 0 or dom.diag_intersections != 0:
            failures.add({"kind": "rectangle", "e": str(Fraction(dom.euler_quarters, 4))})
    for dom in index.counted_product_domains(edges):
        checked += 1
        if dom.euler_quarters != k or dom.diag_intersections != 0 or dom.maslov_quarters != 0:
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


def _yoneda_modules(table: AlgebraTable) -> list:
    """e_s A for every idempotent s, or the text of the error that stops
    it being formed, each built once and holding only the actions that
    ``mor_complex`` reads: those of the generators in the union of the
    modules' explicit sets.

    Each explicit set is computed from its module's full actions, which
    are then cut to that set, so one full module is held at a time.  On a
    table that breaks a factorization, a module can lack the actions of a
    generator in another module's explicit set; they are read back from
    its basis rows."""
    modules: list = []
    for s in table.idem_list:
        try:
            M = homalg.projective_module(table, s)
        except ValueError as err:
            modules.append(str(err))
            continue
        keep = M.explicit  # computed from the full actions
        M.actions = {a: rows for a, rows in M.actions.items() if a in keep}
        modules.append(M)
    built = [(s, M) for s, M in zip(table.idem_list, modules) if not isinstance(M, str)]
    union = frozenset().union(*(M.explicit for _, M in built))
    for s, M in built:
        missing = union - M.explicit
        if missing:
            M.actions.update(homalg.projective_actions(table, s, missing))
    return modules


def suite_yoneda(table: AlgebraTable) -> dict:
    """H*Mor(e_s A, e_t A) = H*(e_t A e_s) for every ordered pair of
    idempotents, with one projective module built per idempotent
    (``_yoneda_modules``).  A pair whose source module, target module or
    either complex cannot be formed (a differential that does not square
    to zero, say) counts as one failure.

    Each Mor is solved from the linearity rows of a generating set: the
    indecomposable generators, plus every decomposable c = a.b whose
    identity x.c = (x.a).b fails on some basis x of either module.  That
    identity is checked per module, so on a corrupt table a projective
    that is not associative writes the rows it needs and the solution is
    the one every generator's rows give.  The table-level associativity
    check is still `assoc`.

    The pairs are solved target by target, and a target's cached side of
    the rows is dropped after its last pair; failures are reported by
    source, then target."""
    modules = _yoneda_modules(table)
    idems = table.idem_list
    bad: dict[tuple[int, int], dict] = {}
    for t, N in enumerate(modules):
        for s, M in enumerate(modules):
            error = next((m for m in (M, N) if isinstance(m, str)), None)
            if error is None:
                try:
                    mor_rank = homalg.mor_complex(M, N).homology_rank()
                    hom_rank = homalg.hom_complex(table, idems[t], idems[s]).homology_rank()
                except ValueError as err:
                    error = str(err)
            pair = {"s": list(idems[s]), "t": list(idems[t])}
            if error is not None:
                bad[s, t] = {**pair, "error": error}
            elif mor_rank != hom_rank:
                bad[s, t] = {**pair, "mor": mor_rank, "hom": hom_rank}
        if not isinstance(N, str):
            N._targets.clear()
    failures = _Failures()
    for key in sorted(bad):
        failures.add(bad[key])
    return failures.result("yoneda", len(modules) ** 2)


# ---------------------------------------------------------------------------
# Driver.

# Each suite as a call on the shared objects of a run: the table, the
# gluing graph (None unless the suite is in _GRAPH_SUITES), the sample
# size and the seed.  Each lambda looks its suite_* up when it is called,
# so that a wrapper set on the module name is the one called.
_SUITES = {
    "regression": lambda table, edges, sample, seed: suite_regression(),
    "d2": lambda table, edges, sample, seed: suite_d2(table),
    "leibniz": lambda table, edges, sample, seed: suite_leibniz(table, sample, seed),
    "assoc": lambda table, edges, sample, seed: suite_assoc(table, sample, seed),
    "closure": lambda table, edges, sample, seed: suite_closure(table, sample, seed),
    "dictionary-diff": lambda table, edges, sample, seed: suite_dictionary_diff(table),
    "dictionary-prod": lambda table, edges, sample, seed: suite_dictionary_prod(table, edges),
    "euler": lambda table, edges, sample, seed: suite_euler(edges),
    "rigidity": lambda table, edges, sample, seed: suite_rigidity(edges),
    "yoneda": lambda table, edges, sample, seed: suite_yoneda(table),
}
SUITE_NAMES = tuple(_SUITES)

# The suites that read the gluing graph.
_GRAPH_SUITES = {"dictionary-prod", "euler", "rigidity"}


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

    results = []
    edges = None  # the gluing graph, built once for dictionary-prod, euler and rigidity
    for n, name in enumerate(chosen):
        if name in _GRAPH_SUITES and edges is None:
            edges = index._Edges(grid_spec(pmc, variant), k)
        results.append(_SUITES[name](table, edges, sample, seed))
        if not _GRAPH_SUITES.intersection(chosen[n + 1 :]):
            edges = None
    ok = all(not r["failures"] for r in results)
    return {"suites": results, "skipped": [], "ok": ok}
