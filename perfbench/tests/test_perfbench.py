"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/tests      # from the repository root
"""

import hashlib
import json
import random
import re
import subprocess
import sys

import pytest

import corpus
import corrupt
import run
import spans
import workloads
from conftest import BENCH

SMALL = 20_000  # bytes; larger stored files take seconds each to verify


def span(layer, start, end, parent=None, note=None):
    return (layer, start, end, parent, "case", note)


def test_self_times_on_nested_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]; c holds a
    # second "b" span [6, 8]; e [20, 21] is a separate root
    tree = [span("a", 0, 10), span("b", 1, 4, 0), span("d", 2, 3, 1),
            span("c", 5, 9, 0), span("b", 6, 8, 3), span("e", 20, 21)]
    assert spans.self_times(tree) == pytest.approx(
        {"a": 10 - 3 - 4, "b": (3 - 1) + 2, "c": 4 - 2, "d": 1, "e": 1})


def test_realizations_from_spans():
    tree = [span("base_extension.base_eppa", 0, 10, note="search"),
            span("structures.part", 1, 2, 0),
            span("base_extension.scaffold", 3, 9, 1),
            span("base_extension.base_eppa", 11, 12, note="self"),
            span("base_extension.base_eppa", 13, 14, note="search"),
            span("base_extension.base_eppa", 15, 16, note="error")]
    assert spans.realizations(tree) == {"scaffold": 1, "self": 1, "search": 1}


def test_graph_corpus_counts():
    assert [len(corpus.graphs_on(n)) for n in range(1, 5)] == [1, 2, 4, 11]
    assert sum(map(corpus.triangle_free, corpus.graphs_up_to(4))) == 13
    assert len(corpus.graphs_up_to(3)) == 7
    assert len(corpus.load_special_bases()) == 11  # labelled graphs on 1-3 vertices


def test_graph_corpus_is_canonical_and_distinct():
    graphs = corpus.graphs_up_to(4)
    assert all(corpus.canonical_edges(n, edges) == edges for n, edges in graphs)
    assert len({corpus.graph_name(g) for g in graphs}) == len(graphs)


def test_special_instances_follow_the_seed():
    bases = corpus.load_special_bases()
    draw = lambda seed: corpus.special_instances(random.Random(seed), bases, 10)
    assert draw(3) == draw(3)
    assert draw(3) != draw(4)


def _changed(valid: list[str], bad: list[str]):
    """(index, valid line, bad line) for lines that differ, or the inserted
    line when `bad` is one line longer."""
    if len(bad) == len(valid) + 1:
        i = next(i for i, (a, b) in enumerate(zip(valid, bad)) if a != b)
        assert bad[:i] + bad[i + 1:] == valid, "more than one line inserted"
        return [(i, None, bad[i])]
    assert len(bad) == len(valid)
    return [(i, a, b) for i, (a, b) in enumerate(zip(valid, bad)) if a != b]


@pytest.mark.parametrize("name", workloads.verify_manifest())
def test_corruption_changes_only_the_intended_entry_and_digest(name):
    text = (workloads.VERIFY_DIR / name).read_text(encoding="utf-8")
    valid = text.rstrip("\n").split("\n")
    for seed in (1, 2, 3):
        bad_text, condition = corrupt.corrupt(text, random.Random(f"corrupt:{seed}:{name}"))
        bad = bad_text.rstrip("\n").split("\n")
        body = "\n".join(bad[:-1]) + "\n"
        assert bad[-1] == "digest " + hashlib.sha256(body.encode()).hexdigest()
        (i, old, new), = _changed(valid[:-1], bad[:-1])
        if condition == "extension":
            assert old.startswith("phi ") and new.split(" : ")[0] == old.split(" : ")[0]
        elif condition == "lift":
            assert old.startswith("lift ") and new.split(" : ")[0] == old.split(" : ")[0]
        else:
            assert condition in ("embedding", "iota-embedding") and old is None
            assert len(set(new.split()[1:])) == 1  # a loop
        assert new != old


@pytest.mark.parametrize("name", [n for n in workloads.verify_manifest()
                                  if (workloads.VERIFY_DIR / n).stat().st_size < SMALL])
def test_corrupted_copy_fails_with_the_expected_condition(name):
    from eppa.textio import parse_certificate, verify_certificate
    text = (workloads.VERIFY_DIR / name).read_text(encoding="utf-8")
    assert verify_certificate(parse_certificate(text))
    bad, condition = corrupt.corrupt(text, random.Random(f"corrupt:7:{name}"))
    assert verify_certificate(parse_certificate(bad)).condition == condition


def test_metric_names_and_benchmark_file():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = [m["name"] for m in bench["per_layer"]]
    assert list(e2e) == list(run.E2E)
    assert all(e2e[n]["unit"] == u for n, u in run.E2E.items())
    assert layer == spans.metric_names()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    for name in list(e2e) + layer:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(set(e2e) | set(layer)) == len(e2e) + len(layer)


def test_recorder_wraps_every_binding_and_restores():
    from eppa import base_extension, coherence, structures
    original = structures.enumerate_partial_automorphisms
    methods = (structures.Structure.__dict__["tuple_set"],
               coherence.PermutationGroup.__dict__["from_generators"])
    assert base_extension.enumerate_partial_automorphisms is original
    k2 = structures.graph(2, [(0, 1)])
    with spans.Recorder() as recorder:
        assert base_extension.enumerate_partial_automorphisms is not original
        base_extension.base_eppa(k2)
    assert base_extension.enumerate_partial_automorphisms is original
    assert methods == (structures.Structure.__dict__["tuple_set"],
                       coherence.PermutationGroup.__dict__["from_generators"])
    metrics = recorder.metrics()
    assert metrics["base_extension.base_eppa.calls"] == 1
    assert metrics["structures.part.distinct"] == 1
    assert metrics["structures.part.calls"] >= 1
    assert metrics["base_extension.realized.self"] == 1
    assert set(spans.metric_names()) - {"trace.pass_s", "trace.untraced_pass_s",
                                        "trace.overhead_s"} == set(metrics)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "base4",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
