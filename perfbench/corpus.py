"""Inputs of the benchmark, generated by the benchmark's own code.

The graph corpora are enumerated here rather than through
``eppa.amalgamation.enumerate_structures``, so a change to the library's
enumeration or canonical form cannot change what is measured.  Graphs are
kept in the library's canonical labelling (the lexicographically least sorted
edge list over all relabellings), which makes them the same labelled graphs
the acceptance corpus uses.  Everything here is plain data (sizes and edge
lists); ``workloads`` turns it into library objects.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def arcs(edges):
    """Both orientations of each edge, sorted: the library's relation order."""
    return tuple(sorted({(a, b) for a, b in edges} | {(b, a) for a, b in edges}))


def canonical_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    """Least sorted arc list over all relabellings, as undirected edges i < j."""
    best = min(tuple(sorted((perm[a], perm[b]) for a, b in arcs(edges)))
               for perm in itertools.permutations(range(n)))
    return tuple((a, b) for a, b in best if a < b)


def labelled_graphs(n: int):
    """Every graph on vertices 0..n-1, as (n, edges) with edges i < j."""
    pairs = list(itertools.combinations(range(n), 2))
    for k in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            yield n, edges


def graphs_on(n: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """One canonical labelled graph per isomorphism class on n vertices,
    ordered by edge count, then edge list."""
    classes = {canonical_edges(n, edges) for _, edges in labelled_graphs(n)}
    return [(n, edges) for edges in sorted(classes, key=lambda e: (len(e), e))]


def graphs_up_to(n: int):
    return [g for size in range(1, n + 1) for g in graphs_on(size)]


def triangle_free(graph) -> bool:
    n, edges = graph
    adjacent = set(edges)
    return not any({(a, b), (a, c), (b, c)} <= adjacent
                   for a, b, c in itertools.combinations(range(n), 3))


def graph_name(graph) -> str:
    """Stable file-name fragment: vertex count and edge list."""
    n, edges = graph
    return f"n{n}-" + ("_".join(f"{a}{b}" for a, b in edges) or "empty")


def part_order_key(key: str):
    """Order of encoded partial automorphisms in which the library enumerates
    Part(A): by domain size, then domain, then image."""
    if key == "-":
        return (0, (), ())
    pairs = [tuple(map(int, item.split(">"))) for item in key.split(",")]
    return (len(pairs), tuple(x for x, _ in pairs), tuple(y for _, y in pairs))


def load_special_bases() -> dict:
    """Stored base certificates of every labelled graph on at most 3
    vertices, keyed by graph name; see make_data.py."""
    return json.loads((DATA / "special_bases.json").read_text(encoding="utf-8"))


def special_instances(rng: random.Random, bases: dict, count: int):
    """Random special-extension instances in the manner of acceptance
    criterion 04: a random labelled graph on 1-3 vertices, each edge with
    probability 1/2, and each of its partial automorphisms chosen with
    probability 0.6; psi restricts the stored base certificate's table to the
    chosen maps.  Returns (graph, base entry, chosen keys) triples."""
    out = []
    for _ in range(count):
        size = rng.randint(1, 3)
        edges = tuple((i, j) for i in range(size) for j in range(i + 1, size)
                      if rng.random() < 0.5)
        base = bases[graph_name((size, edges))]
        keys = sorted(base["phi"], key=part_order_key)
        chosen = tuple(k for k in keys if rng.random() < 0.6)
        out.append(((size, edges), base, chosen))
    return out
