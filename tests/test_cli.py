"""End-to-end command tests through main(argv)."""

from __future__ import annotations

import hashlib
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import dims_table
from strandfloer import cli, strands, verify
from strandfloer.circle import idempotents, standard_matching
from strandfloer.cli import ConfigError, _meta, build_config, main, make_parser
from strandfloer.strands import AlgebraTable
from strandfloer.grid import (
    all_floer_generators,
    make_spec,
    product_triangles,
    source_labels,
    target_labels,
)

REPO = Path(__file__).resolve().parents[1]
NONSTANDARD_G2 = '{"g": 2, "pairs": [[1, 3], [2, 4], [5, 7], [6, 8]]}'


def _run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


def test_build_json_payload(tmp_path):
    code, text = _run(tmp_path, "build", "-g", "1", "--k", "1")
    assert code == 0
    doc = json.loads(text)
    assert list(doc) == [
        "schema", "meta", "idempotents", "generators",
        "differential", "product", "dims",
    ]
    assert doc["schema"] == 1
    assert doc["meta"]["g"] == 1 and doc["meta"]["k"] == 1
    assert doc["meta"]["variant"] == "full" and doc["meta"]["mode"] == "wrapped"
    assert doc["meta"]["standard"] is True
    assert doc["idempotents"] == [[1], [2]]
    assert len(doc["generators"]) == 8
    assert doc["differential"] == []
    assert len(doc["product"]) == 18
    assert doc["product"] == sorted(doc["product"])
    assert sorted(d[2] for d in doc["dims"]) == [1, 2, 2, 3]
    for gen in doc["generators"]:
        assert set(gen) == {"chords", "dotted", "source", "target"}


def test_build_output_is_byte_deterministic(tmp_path):
    _, first = _run(tmp_path, "build", "-g", "2", "--k", "2")
    _, second = _run(tmp_path, "build", "-g", "2", "--k", "2")
    assert first == second


def test_build_streams_the_same_bytes_to_file_and_stdout(tmp_path, capsys):
    # g=2 k=3 is written in many chunks.
    out = tmp_path / "out.json"
    assert main(["build", "-g", "2", "--k", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["build", "-g", "2", "--k", "3"]) == 0
    streamed = capsys.readouterr().out.encode("utf-8")
    written = out.read_bytes()
    assert streamed == written
    text = written.decode("utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def _payload(argv):
    """The build payload as dicts and sorted lists, for json.dumps."""
    cfg = build_config(make_parser().parse_args(["build", *argv]))
    table = AlgebraTable.build(cfg.pmc, cfg.k, cfg.variant)
    ids = table.idem_id
    return {
        "schema": 1,
        "meta": _meta(cfg),
        "idempotents": [list(s) for s in table.idem_list],
        "generators": [
            {
                "chords": [list(c) for c in gen.chords],
                "dotted": list(gen.dotted),
                "source": table.src[i],
                "target": table.tgt[i],
            }
            for i, gen in enumerate(table.gens)
        ],
        "differential": sorted([i, j] for i, row in enumerate(table.diff) for j in row),
        "product": sorted(
            [i, j, m] for i, row in enumerate(table.prod) for j, m in row.items()
        ),
        "dims": sorted([ids[s], ids[t], d] for (s, t), d in dims_table(table).items()),
    }


@pytest.mark.parametrize("argv", [
    ["-g", "1", "--k", "0"],  # no chords, no dotted labels, no differential
    ["-g", "1", "--k", "1", "--variant", "half"],
    ["-g", "2", "--k", "2"],
    ["-g", "2", "--k", "3", "--variant", "half"],
    ["-g", "2", "--k", "2", "--matching", NONSTANDARD_G2],
])
def test_build_writes_the_bytes_of_json_dumps(capsys, argv):
    assert main(["build", *argv]) == 0
    out, err = capsys.readouterr()
    assert out == json.dumps(_payload(argv), indent=2) + "\n"
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["-g", "2", "--k", "2"],
    ["-g", "1", "--k", "0"],
    ["-g", "2", "--k", "3", "--variant", "half"],
])
def test_build_bytes_hold_across_batch_boundaries(monkeypatch, capsys, argv):
    # Batches of 7 items join chunks inside every list longer than 7.
    monkeypatch.setattr(cli, "_BATCH", 7)
    assert main(["build", *argv]) == 0
    assert capsys.readouterr().out == json.dumps(_payload(argv), indent=2) + "\n"


def test_oversized_build_exits_two_before_building(monkeypatch, capsys):
    table = AlgebraTable.build(standard_matching(2), 2)
    pairs = sum(len(t) * len(s) for t, s in zip(table.by_target, table.by_source))

    def unreachable(self):
        raise AssertionError("the size check comes first")

    monkeypatch.setattr(strands, "memory_budget", lambda: 1000)
    monkeypatch.setattr(AlgebraTable, "_build_differential", unreachable)
    assert main(["build", "-g", "2", "--k", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: g=2 k=2 full: ")
    assert f"{len(table.gens):,} generators" in err
    assert f"{pairs:,} composable pairs" in err


def test_build_out_of_memory_exits_two(monkeypatch, capsys, tmp_path):
    def exhausted(self):
        raise MemoryError
        yield  # a generator, as product_rows is

    monkeypatch.setattr(AlgebraTable, "product_rows", exhausted)
    # Products are written as they are made, so stdout would already hold
    # the sections before them; a file is written whole or not at all.
    assert main(["build", "-g", "2", "--k", "2", "--out", str(tmp_path / "out.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: out of memory at g=2 k=2 full\n"
    assert list(tmp_path.iterdir()) == []


def test_build_failing_after_its_first_product_row_leaves_no_file(monkeypatch, capsys, tmp_path):
    rows = AlgebraTable.product_rows

    def exhausted_after_one_row(self):
        it = rows(self)
        yield next(it)
        raise MemoryError

    monkeypatch.setattr(AlgebraTable, "product_rows", exhausted_after_one_row)
    out = tmp_path / "out.json"
    assert main(["build", "-g", "2", "--k", "3", "--out", str(out)]) == 2
    _, err = capsys.readouterr()
    assert err == "error: out of memory at g=2 k=3 full\n"
    # Neither the output nor its temporary file is left.
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_while_reading_the_config_exits_two(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "build_config", exhausted)
    assert main(["verify", "-g", "2", "--k", "3", "--variant", "half"]) == 2
    assert capsys.readouterr().err == "error: out of memory at g=2 k=3 half\n"


def test_build_through_a_symlink_rewrites_its_target(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("stale\n", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["build", "-g", "1", "--k", "1", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    _, text = _run(tmp_path, "build", "-g", "1", "--k", "1")
    assert target.read_text(encoding="utf-8") == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "out.txt", "target.json"]


def test_build_keeps_the_mode_of_the_file_it_replaces(tmp_path):
    out = tmp_path / "out.json"
    out.write_text("stale\n", encoding="utf-8")
    out.chmod(0o600)
    assert main(["build", "-g", "1", "--k", "1", "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    assert json.loads(out.read_text(encoding="utf-8"))["meta"]["g"] == 1


def test_build_writes_a_pipe_in_place(tmp_path):
    # A pipe cannot be renamed onto, so it is written as it stands.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["build", "-g", "1", "--k", "1", "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    code, text = _run(tmp_path, "build", "-g", "1", "--k", "1")
    assert code == 0 and got == [text.encode("utf-8")]


def test_build_writes_the_products_without_the_product_table(monkeypatch, tmp_path):
    def unread(self):
        raise AssertionError("build streams product_rows and keeps no table")

    monkeypatch.setattr(AlgebraTable, "prod", property(unread))
    census = json.loads((REPO / "perfbench" / "census.json").read_text(encoding="utf-8"))
    (want,) = [
        e["sha256"] for e in census["builds"] if (e["g"], e["k"], e["variant"]) == (2, 3, "full")
    ]
    out = tmp_path / "out.json"
    assert main(["build", "-g", "2", "--k", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_build_half_variant(tmp_path):
    code, text = _run(tmp_path, "build", "-g", "1", "--k", "1", "--variant", "half")
    assert code == 0
    doc = json.loads(text)
    assert doc["meta"]["mode"] == "half"
    assert len(doc["generators"]) == 4


def test_verify_selected_suites(tmp_path):
    code, text = _run(
        tmp_path, "verify", "-g", "1", "--k", "1", "--suites", "regression,d2"
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["ok"] is True
    assert [s["name"] for s in doc["suites"]] == ["regression", "d2"]


def test_verify_full_run_small(tmp_path):
    code, text = _run(tmp_path, "verify", "-g", "1", "--k", "1")
    assert code == 0
    doc = json.loads(text)
    assert doc["ok"] is True
    assert len(doc["suites"]) == 10


def test_verify_nonstandard_matching_runs_grid(tmp_path):
    code, text = _run(
        tmp_path, "verify", "-g", "2", "--k", "1", "--matching", NONSTANDARD_G2,
        "--suites", "d2,assoc,euler,dictionary-prod",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["meta"]["standard"] is False
    assert doc["meta"]["matching"]["mode"] == "single"
    assert doc["skipped"] == []
    assert [s["name"] for s in doc["suites"]] == ["d2", "assoc", "euler", "dictionary-prod"]
    assert all(s["checked"] > 0 and s["failures"] == [] for s in doc["suites"])


def test_matching_file_and_inline_agree(tmp_path):
    path = tmp_path / "matching.json"
    path.write_text(NONSTANDARD_G2, encoding="utf-8")
    code1, text1 = _run(tmp_path, "build", "-g", "2", "--k", "1", "--matching", NONSTANDARD_G2)
    code2, text2 = _run(tmp_path, "build", "-g", "2", "--k", "1", "--matching", str(path))
    assert code1 == code2 == 0
    assert text1 == text2


def test_export_genus_one_quiver(tmp_path):
    code, text = _run(tmp_path, "export", "-g", "1", "--k", "1")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "digraph strands {"
    assert lines[-1] == "}"
    nodes = [l for l in lines if "[label=" in l and "->" not in l]
    edges = [l for l in lines if "->" in l]
    assert len(nodes) == 2
    assert len(edges) == 8
    assert not any("style=dotted" in l for l in edges)  # k=1 differential is zero
    assert '  s0 [label="{1}"];' in lines


def test_export_marks_differential_images(tmp_path):
    code, text = _run(tmp_path, "export", "-g", "1", "--k", "2")
    assert code == 0
    dotted = [l for l in text.splitlines() if "style=dotted" in l]
    assert len(dotted) == 3  # three generators are hit by the differential


def test_export_unit_algebra(tmp_path):
    code, text = _run(tmp_path, "export", "-g", "1", "--k", "0")
    assert code == 0
    edges = [l for l in text.splitlines() if "->" in l]
    assert edges == ['  s0 -> s0 [label="1"];']


def test_invalid_inputs_exit_two(tmp_path, capsys):
    assert main(["build", "-g", "0"]) == 2
    assert main(["build", "-g", "1", "--k", "3"]) == 2
    assert main(["build", "-g", "1", "--matching", '{"pairs": [[1, 2], [3, 4]]}']) == 2
    assert main(["build", "-g", "2", "--matching", '{"g": 1, "pairs": [[1, 3], [2, 4]]}']) == 2
    assert main(["build", "-g", "1", "--matching", "not json at all"]) == 2
    assert main(["build", "-g", "2", "--matching", '{"g": 2, "mode": "double", "pairs": [[1, 5], [2, 6], [3, 7], [4, 8]]}']) == 2
    assert main(["build", "-g", "2", "--matching", '{"g": "2", "pairs": [[1, 5], [2, 6], [3, 7], [4, 8]]}']) == 2
    assert main(["build", "-g", "2", "--matching", '{"g": 2, "pairs": [["1", 5], [2, 6], [3, 7], [4, 8]]}']) == 2
    assert main(["verify", "-g", "1", "--suites", "regression,nope"]) == 2
    assert main(["verify", "-g", "1", "--k", "1", "--suites", "assoc", "--sample", "-5"]) == 2
    assert main(["verify", "-g", "1", "--k", "1", "--suites", "assoc", "--sample", "0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("wrong", [(1, 3), (2, 1)])
def test_verify_counts_translation_faults(tmp_path, monkeypatch, wrong):
    # One grid point translated wrongly: onto a cell that takes its
    # generator outside the table, or onto a cell the dictionary rejects.
    real = verify.to_algebra

    def faulty(spec, x):
        return real(spec, tuple(sorted(wrong if p == (1, 2) else p for p in x)))

    monkeypatch.setattr(verify, "to_algebra", faulty)
    code, text = _run(
        tmp_path, "verify", "-g", "1", "--k", "2", "--suites", "dictionary-diff,dictionary-prod"
    )
    assert code == 1
    suites = json.loads(text)["suites"]
    assert [s["name"] for s in suites] == ["dictionary-diff", "dictionary-prod"]
    assert all(s["failed"] >= 1 for s in suites)


def test_unwritable_output_exits_two(tmp_path):
    target = tmp_path / "missing" / "out.json"
    assert main(["build", "-g", "1", "--out", str(target)]) == 2


def test_empty_suites_is_vacuous_success(tmp_path):
    code, text = _run(tmp_path, "verify", "-g", "1", "--suites", "")
    assert code == 0
    assert json.loads(text)["suites"] == []


def test_build_config_rejects_directly():
    args = make_parser().parse_args(["build", "-g", "1", "--k", "9"])
    with pytest.raises(ConfigError):
        build_config(args)


def test_trace_harness_reaches_the_wrapped_kernels(tmp_path):
    # perfbench/traced.py replaces names where their callers look them up;
    # a renamed or bypassed name would silently drop out of the trace.
    repo = Path(__file__).resolve().parents[1]
    trace_path = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    proc = subprocess.run(
        [sys.executable, "perfbench/traced.py", str(trace_path), "--", "verify", "-g", "1", "--k", "1"],
        cwd=repo, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(trace_path.read_text(encoding="utf-8"))["calls"]
    for name in ("kernels.gf2_eliminate", "kernels.rigidity_scan",
                 "kernels.assoc_scan", "strands.as_csr", "grid.product_triangles",
                 "index.counted_product_domains", "index.counted_rectangle_domains"):
        assert calls.get(name, 0) > 0, name
    # euler compares each domain's Maslov index as an int of quarter
    # units; a passing run makes no Fraction.
    assert calls.get("index.maslov", 0) == 0
    # The gluing graph is the one place verify pairs triangles: once per
    # label-composable grid pair that has a triangle tuple.
    spec = make_spec(standard_matching(1), "wrapped")
    gens = all_floer_generators(spec, 1)
    matched = sum(
        target_labels(spec, x) == source_labels(spec, y)
        and product_triangles(spec, x, y) is not None
        for x in gens
        for y in gens
    )
    assert calls["grid.product_triangles"] == matched
    # yoneda builds one projective module per idempotent and reuses it
    # for every ordered pair.
    n_idem = len(idempotents(standard_matching(1), 1))
    assert calls["homalg.projective_module"] == n_idem
    assert calls["homalg.mor_complex"] == n_idem**2


def test_cli_import_leaves_numpy_unloaded():
    # The package has no runtime dependencies; a stray numpy import would
    # add its load time to every command.
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    code = "import sys, strandfloer.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_build_leaves_the_verify_stack_unloaded(tmp_path):
    # build and its config never need a suite, so they load none of the
    # modules that only verify uses.
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    code = (
        "import json, sys, strandfloer.cli as cli\n"
        f"assert cli.main(['build', '-g', '2', '--k', '2', '--out', {str(tmp_path / 'b.json')!r}]) == 0\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('strandfloer.')]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    verify_only = {f"strandfloer.{m}" for m in ("verify", "homalg", "index", "gf2", "_kernels")}
    assert loaded and not loaded & verify_only, loaded


def test_unknown_suites_exit_two_naming_them_and_every_suite(capsys):
    # --help names no suite (listing them would load verify), so the
    # error for an unknown name lists them all.
    assert main(["verify", "-g", "1", "--suites", "regression,nope,d3"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: unknown suites: nope,d3;"), err
    assert err.rstrip().endswith(",".join(verify.SUITE_NAMES)), err
