"""Command-line front end: build tables, run verification suites,
export the quiver.

All outputs are deterministic for a fixed (config, seed).  Only the
verify command, and a config that names suites, import ``verify`` and
with it ``homalg``, ``index``, ``gf2`` and ``_kernels``, so build and
export start without them.

Exit codes: 0 success, 1 verification failure, 2 invalid input, an
unwritable output, a table too large to build or a run out of memory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import Counter
from itertools import islice
from typing import Iterable, Iterator

from .circle import (
    PointedMatchedCircle,
    matching_from_pairs,
    standard_matching,
    validate_surface,
)
from .grid import grid_spec
from .strands import VARIANTS, AlgebraTable, SizeError

SCHEMA = 1


class ConfigError(Exception):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_matching(text: str, g: int) -> PointedMatchedCircle:
    if not text.lstrip().startswith("{"):
        try:
            with open(text, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise ConfigError(f"cannot read matching file: {err}") from err
    try:
        data = json.loads(text)
        pairs = [tuple(p) for p in data["pairs"]]
    except (json.JSONDecodeError, KeyError, TypeError) as err:
        raise ConfigError(f"bad matching JSON: {err}") from err
    if data.get("mode", "single") != "single":
        raise ConfigError(f"bad matching: mode {data['mode']!r} is not supported, only 'single'")
    g = data.get("g", g)
    if not all(_is_int(v) for v in (g, *(x for p in pairs for x in p))):
        raise ConfigError("bad matching: g and the pair entries must be integers")
    try:
        return matching_from_pairs(g, pairs)
    except ValueError as err:
        raise ConfigError(f"bad matching: {err}") from err


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed arguments and make them the run's config: args
    gains pmc, and a verify's suites become a list of names."""
    g, k = args.genus, args.k
    if g < 1:
        raise ConfigError("genus must be at least 1")
    if not 0 <= k <= 2 * g:
        raise ConfigError(f"k must lie in 0..{2 * g}")
    if getattr(args, "sample", None) is not None and args.sample < 1:
        raise ConfigError("sample must be at least 1")
    if args.matching:
        pmc = _parse_matching(args.matching, g)
        if pmc.g != g:
            raise ConfigError(f"matching has genus {pmc.g}, config says {g}")
    else:
        pmc = standard_matching(g)
    inv = validate_surface(pmc)
    if not inv.valid:
        raise ConfigError(
            f"matching does not close up to a genus-{g} one-boundary surface "
            f"(components={inv.boundary_components}, genus={inv.genus})"
        )
    if getattr(args, "suites", None) is not None:
        from .verify import SUITE_NAMES

        args.suites = [s for s in args.suites.split(",") if s]
        unknown = [s for s in args.suites if s not in SUITE_NAMES]
        if unknown:
            raise ConfigError(
                f"unknown suites: {','.join(unknown)}; the suites are {','.join(SUITE_NAMES)}"
            )
    args.pmc = pmc
    return args


def _meta(cfg: argparse.Namespace) -> dict:
    return {
        "g": cfg.genus,
        "k": cfg.k,
        "variant": cfg.variant,
        "mode": grid_spec(cfg.pmc, cfg.variant).mode,
        "matching": {
            "g": cfg.pmc.g,
            # Matched circles have no mode; the constant keeps the build
            # bytes that perfbench/census.json pins.
            "mode": "single",
            "pairs": [list(p) for p in cfg.pmc.pairs],
        },
        "standard": cfg.pmc == standard_matching(cfg.genus),
    }


def _emit(cfg: argparse.Namespace, chunks: Iterable[str]):
    """Write the chunks one by one, so that a large output is never held
    as one string.  A regular or new file is written under a temporary
    name and renamed onto cfg.out at the end, so that a run that fails
    leaves no file; stdout, a pipe or a device is written in place.  The
    rename lands on the file a symlink names, and an existing file keeps
    its mode."""
    path = cfg.out
    if path and (not os.path.exists(path) or os.path.isfile(path)):
        path = os.path.realpath(path)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                with contextlib.suppress(FileNotFoundError):
                    os.chmod(tmp, os.stat(path).st_mode & 0o7777)
                fh.writelines(chunks)
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
    else:
        with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as fh:
            fh.writelines(chunks)


# Items per chunk of a streamed list: at most about 0.5 MB of text.
_BATCH = 1 << 11


def _items(key: str, texts: Iterator[str]) -> Iterator[str]:
    """The member '  "key": [...]' of the top-level object, laid out as
    json.dumps(..., indent=2) lays it out, from the text of each item;
    the items are joined a batch at a time."""
    sep = f'  "{key}": [\n'
    while batch := list(islice(texts, _BATCH)):
        yield sep + ",\n".join(batch)
        sep = ",\n"
    yield "\n  ]" if sep == ",\n" else f'  "{key}": []'


def _json_list(values, indent: str) -> str:
    """The indent=2 layout of a list whose items are already text: ints,
    or inner lists laid out for the next depth.  Items sit at the given
    indent, the closing bracket two spaces left of it."""
    if not values:
        return "[]"
    return "[\n" + ",\n".join(f"{indent}{v}" for v in values) + f"\n{indent[:-2]}]"


def _build_text(cfg: argparse.Namespace, table: AlgebraTable) -> Iterator[str]:
    """The text of json.dumps(payload, indent=2) + "\n" for the build
    payload, a section at a time, straight from the table."""
    head = {
        "schema": SCHEMA,
        "meta": _meta(cfg),
        "idempotents": [list(s) for s in table.idem_list],
    }
    yield json.dumps(head, indent=2)[:-2] + ",\n"

    def generator(i: int) -> str:
        gen = table.gens[i]
        chords = [_json_list(c, "          ") for c in gen.chords]
        return (
            f'    {{\n      "chords": {_json_list(chords, "        ")},\n'
            f'      "dotted": {_json_list(gen.dotted, "        ")},\n'
            f'      "source": {table.src[i]},\n      "target": {table.tgt[i]}\n    }}'
        )

    yield from _items("generators", map(generator, range(len(table.gens))))
    yield ",\n"
    # A generator index as an item of an entry: formatted once, not per
    # entry.  Entries [i, j] and [i, j, m] come in (i, j) order: rows in
    # index order, each as stored (ascending), product rows written as
    # made, each left factor's text made once.
    num = [f"      {i}" for i in range(len(table.gens))]
    diff = (f"    [\n{num[i]},\n{num[j]}\n    ]" for i, row in enumerate(table.diff) for j in row)
    yield from _items("differential", diff)
    yield ",\n"
    prod = (
        f"{left}{num[j]},\n{num[m]}\n    ]"
        for i, row in enumerate(table.product_rows())
        for left in [f"    [\n{num[i]},\n"]
        for j, m in row.items()
    )
    yield from _items("product", prod)
    yield ",\n"
    # Hom-space dimensions: generators counted by (source, target) id.
    dims = sorted((s, t, d) for (s, t), d in Counter(zip(table.src, table.tgt)).items())
    yield from _items("dims", ("    " + _json_list(e, "      ") for e in dims))
    yield "\n}\n"


def cmd_build(cfg: argparse.Namespace) -> int:
    """Serialize the full algebra table.  Field order is fixed: meta,
    idempotents, generators, differential, product, dims; indices are
    the lexicographic generator ranks.  The text is byte for byte that
    of json.dumps(payload, indent=2) + "\n", streamed section by section
    and the products row by row, holding neither payload nor products."""
    table = AlgebraTable.build(cfg.pmc, cfg.k, cfg.variant)
    _emit(cfg, _build_text(cfg, table))
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    from . import verify

    report = verify.run_suites(cfg.pmc, cfg.k, cfg.variant, cfg.suites, cfg.sample, cfg.seed)
    payload = {"schema": SCHEMA, "meta": _meta(cfg)}
    payload.update(report)
    _emit(cfg, [json.dumps(payload, indent=2) + "\n"])
    return 0 if report["ok"] else 1


def cmd_export(cfg: argparse.Namespace) -> int:
    """DOT quiver: one node per idempotent, one edge per generator from
    its source to its target; generators hit by the differential of some
    other generator are drawn dotted."""
    table = AlgebraTable.build(cfg.pmc, cfg.k, cfg.variant)
    in_image = set().union(*table.diff)
    lines = ["digraph strands {", "  rankdir=LR;", "  node [shape=ellipse];"]
    for sid, s in enumerate(table.idem_list):
        label = "{" + ",".join(str(p) for p in s) + "}"
        lines.append(f'  s{sid} [label="{label}"];')
    for i, gen in enumerate(table.gens):
        bits = [f"({a},{b})" for a, b in gen.chords]
        bits += [f".{p}" for p in gen.dotted]
        label = " ".join(bits) if bits else "1"
        style = ' style=dotted' if i in in_image else ""
        lines.append(
            f'  s{table.src[i]} -> s{table.tgt[i]} [label="{label}"{style}];'
        )
    lines.append("}")
    _emit(cfg, ["\n".join(lines) + "\n"])
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strandfloer",
        description="strands algebras and their grid models: build, verify, export",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("build", cmd_build),
        ("verify", cmd_verify),
        ("export", cmd_export),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--genus", "-g", type=int, default=1)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--variant", choices=VARIANTS, default="full")
        p.add_argument("--matching", help="inline JSON or a path to a JSON file")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=0)
        if name == "verify":
            p.add_argument("--suites", help="comma-separated subset of the suites (default every suite)")
            p.add_argument("--sample", type=int, default=None,
                           help="sample size for the randomized suites (default exhaustive)")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(build_config(args))
    except (ConfigError, OSError, SizeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        pass
    # Out of memory: reported once the handler has dropped the traceback,
    # and with it the partly built table, so that printing has memory.
    print(f"error: out of memory at g={args.genus} k={args.k} {args.variant}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
