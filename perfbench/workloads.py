"""Operations of each workload, with the check made on each output.

Workloads (one process, one thread, closed loop; the seed shuffles the case
order, picks the corrupted entries and draws the random special instances):

* ``base4``: ``base_eppa`` plus ``emit_certificate`` on the 18 graphs with at
  most 4 vertices.  It exercises both realizations: the candidate search and
  the parity scaffold (P3+K1 and the paw, |B| = 256).
* ``verify_ok`` / ``verify_reject``: ``eppa verify`` run in-process on stored
  certificate files from this corpus, respectively on one seeded corrupted
  copy of each.  Nothing is built: parsing and the verifiers carry the load.
  Accepted and rejected files are separate workloads, so that a change that
  speeds one path at the cost of the other shows on both.
* ``free``: the free-amalgamation-class pipeline (K3-free extensions,
  clique-faithful extensions, chains, special extensions, the clique
  characterization and the ``minforb``, ``cliques`` and ``amalgam`` verbs).
  The P3+K1 input is refused on the Aut(B) degree bound; it stays.

Library functions are looked up on their modules at call time, so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpus
import corrupt
from eppa import amalgamation, chains, cli, coherence, faithful, quotient, structures, textio
from eppa import base_extension

WORKLOADS = ("base4", "verify_ok", "verify_reject", "free")
VERIFY_DIR = corpus.DATA / "verify"
SPECIAL_COUNT = 10


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` is timed and returns (output, certificate
    bytes emitted or read); ``check`` is untimed and returns a problem
    description, or None when the output is correct."""

    case: str
    run: Callable[[], tuple[object, int]]
    check: Callable[[object], str | None]


class Refused(Exception):
    """The CLI ended with its resource-bound exit code."""


def graph(g):
    return structures.graph(*g)


def structure_text(name: str, g) -> str:
    """Structure file of graph g, in the format ``eppa`` reads and writes."""
    n, edges = g
    lines = [f"structure {name}", "rel E 2", f"size {n}"]
    lines += [f"E {a} {b}" for a, b in corpus.arcs(edges)] + ["end"]
    return "\n".join(lines) + "\n"


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == cli.EXIT_RESOURCE:
        raise Refused(err.getvalue().strip())
    return code, out.getvalue()


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Reverifier:
    """Re-parses and re-verifies emitted certificate text.

    A verdict is a function of the library source and the text alone, so
    accepted texts are remembered on disk under a key made of both; later runs
    of the same checkout skip texts this exact code already accepted.
    """

    def __init__(self, cache: Path, src_digest: str):
        self.cache = cache
        self.src_digest = src_digest

    def problem(self, text) -> str | None:
        if not isinstance(text, str):
            return f"expected certificate text, got {text!r}"
        key = hashlib.sha256((self.src_digest + text).encode("utf-8")).hexdigest()
        marker = self.cache / key
        if marker.exists():
            return None
        try:
            verdict = textio.verify_certificate(textio.parse_certificate(text))
        except Exception as exc:  # any parse or verify error is a wrong output
            return f"emitted certificate does not re-verify: {exc!r}"
        if not verdict:
            return f"emitted certificate fails re-verification: {verdict.message()}"
        self.cache.mkdir(parents=True, exist_ok=True)
        marker.write_text("ok\n", encoding="utf-8")
        return None


def _emit(make: Callable) -> Callable[[], tuple[str, int]]:
    def run():
        text = textio.emit_certificate(make())
        return text, len(text.encode("utf-8"))
    return run


def _expect(expected) -> Callable[[object], str | None]:
    return lambda out: None if out == expected else f"expected {expected!r}, got {out!r}"


# ---------------------------------------------------------------------------
# base4

def base4_ops(reverifier: Reverifier) -> list[Op]:
    return [Op(corpus.graph_name(g),
               _emit(lambda s=graph(g): base_extension.base_eppa(s)),
               reverifier.problem)
            for g in corpus.graphs_up_to(4)]


# ---------------------------------------------------------------------------
# verify_ok / verify_reject

def verify_manifest() -> list[str]:
    """Stored certificate files, each accepted by ``eppa verify``."""
    return json.loads((VERIFY_DIR / "manifest.json").read_text(encoding="utf-8"))


def _verify_op(case: str, path: Path, expected: tuple[int, str]) -> Op:
    size = path.stat().st_size

    def run():
        code, out = run_cli(["verify", str(path)])
        lines = out.strip().splitlines()
        return (code, lines[-1] if lines else ""), size
    return Op(case, run, _expect(expected))


def verify_ok_ops() -> list[Op]:
    return [_verify_op(name, VERIFY_DIR / name, (cli.EXIT_OK, "ok"))
            for name in verify_manifest()]


def verify_reject_ops(seed: int, workdir: Path) -> list[Op]:
    """One corrupted copy of each stored file; the seed picks the entry."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for name in verify_manifest():
        text = (VERIFY_DIR / name).read_text(encoding="utf-8")
        bad, condition = corrupt.corrupt(text, random.Random(f"corrupt:{seed}:{name}"))
        path = workdir / name
        path.write_text(bad, encoding="utf-8")
        ops.append(_verify_op(name, path, (cli.EXIT_VERIFICATION, f"fail {condition}")))
    return ops


# ---------------------------------------------------------------------------
# free

K1, K2 = (1, ()), (2, ((0, 1),))
K3 = (3, ((0, 1), (0, 2), (1, 2)))
K4 = (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
P3 = (3, ((0, 1), (1, 2)))
C4 = (4, ((0, 1), (0, 3), (1, 2), (2, 3)))
VERB_INPUTS = {"k1": K1, "k2": K2, "k3": K3, "k4": K4, "c4": C4}


def _cliques(g) -> set[str]:
    n, edges = g
    adjacent = set(edges)
    return {",".join(map(str, c)) for k in range(1, n + 1)
            for c in itertools.combinations(range(n), k)
            if all((a, b) in adjacent for a, b in itertools.combinations(c, 2))}


def _first_embedding(pattern, target) -> tuple[int, ...]:
    """Lexicographically first induced embedding of graph pattern into target."""
    (pn, pe), (tn, te) = pattern, target
    p_adj, t_adj = set(pe), set(te)
    for image in itertools.permutations(range(tn), pn):
        if all(((a, b) in p_adj) == ((min(image[a], image[b]), max(image[a], image[b])) in t_adj)
               for a, b in itertools.combinations(range(pn), 2)):
            return image
    raise ValueError("no embedding")


def _amalgam(left, right, shared):
    """Free amalgam of two graphs over a shared one, glued along the first
    embeddings, numbered as ``eppa amalgam`` numbers it."""
    into_left, into_right = _first_embedding(shared, left), _first_embedding(shared, right)
    glue = {into_right[a]: into_left[a] for a in range(shared[0])}
    fresh, right_map = left[0], []
    for b in range(right[0]):
        if b in glue:
            right_map.append(glue[b])
        else:
            right_map.append(fresh)
            fresh += 1
    edges = set(left[1]) | {tuple(sorted((right_map[a], right_map[b]))) for a, b in right[1]}
    return fresh, tuple(sorted(edges))


# the special-extension fixture of acceptance criteria 04 and 10: K2 over
# itself, with the empty map and the swap
K2_FIXTURE = {"size": 2, "arcs": [[0, 1], [1, 0]], "embedding": [0, 1],
              "phi": {"-": [0, 1], "0>1": [1, 0]}}


def special_op(case: str, g, base: dict, keys, check) -> Op:
    """special_extension plus verify_special of graph g over a stored base
    certificate, with psi the base table restricted to `keys`."""
    codomain = structures.Structure.make(structures.GRAPH_SIGNATURE, base["size"],
                                         {"E": [tuple(t) for t in base["arcs"]]})
    maps = tuple(structures.PartialAutomorphism.decode(k) for k in keys)
    psi = coherence.ExtensionMap(g[0], base["size"], tuple(base["embedding"]),
                                 {k: structures.Permutation(tuple(base["phi"][k])) for k in keys})
    structure = graph(g)

    def run():
        cert = quotient.special_extension(structure, maps, codomain, psi)
        accepted = bool(quotient.verify_special(cert, max_word_len=6))
        text = textio.emit_certificate(cert)
        return (accepted, text), len(text.encode("utf-8"))
    return Op(case, run, check)


def special_cases(rng: random.Random):
    """(case, graph, base, keys) of the K2 fixture and the random instances."""
    cases = [("special-K2", K2, K2_FIXTURE, ("-", "0>1"))]
    instances = corpus.special_instances(rng, corpus.load_special_bases(), SPECIAL_COUNT)
    cases += [(f"special-{i}-{corpus.graph_name(g)}", g, base, keys)
              for i, (g, base, keys) in enumerate(instances)]
    return cases


def free_ops(seed: int, workdir: Path, reverifier: Reverifier) -> list[Op]:
    k3 = graph(K3)
    ops = [Op(f"forb_e-{corpus.graph_name(g)}",
              _emit(lambda s=graph(g): faithful.forb_e_eppa(s, [k3])), reverifier.problem)
           for g in corpus.graphs_up_to(4) if corpus.triangle_free(g)]
    ops += [Op(f"faithful-{corpus.graph_name(g)}",
               _emit(lambda s=graph(g): faithful.clique_faithful_extension(s)), reverifier.problem)
            for g in corpus.graphs_up_to(3)]
    ops += [Op("chain-K2-2", _emit(lambda: chains.build_dlf_chain([k3], 2, graph(K2))),
               reverifier.problem),
            Op("chain-P3-3", _emit(lambda: chains.build_dlf_chain([k3], 3, graph(P3))),
               reverifier.problem)]

    def special_check(out):
        accepted, text = out
        return reverifier.problem(text) if accepted else "verify_special rejected its own output"

    rng = random.Random(f"special:{seed}")
    ops += [special_op(*case, special_check) for case in special_cases(rng)]

    def characterization():
        report = amalgamation.check_clique_characterization(
            lambda s: s.is_graphlike() and amalgamation.exists_embedding(k3, s) is None,
            4, structures.GRAPH_SIGNATURE, amalgamation.is_graph_universe)
        return (report.cliques_side, report.closure_side), 0
    ops.append(Op("characterization-K3-free-4", characterization, _expect((True, True))))

    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, g in VERB_INPUTS.items():
        files[name] = str(workdir / f"{name}.struct")
        Path(files[name]).write_text(structure_text(name, g), encoding="utf-8")

    def verb(argv, parse=lambda out: out):
        def run():
            code, out = run_cli(argv)
            return (code, parse(out)), 0
        return run

    ops.append(Op("minforb-K3-4", verb(["minforb", "--class-forbid", files["k3"], "--max", "4"]),
                  _expect((0, structure_text("minforb0", K3)))))
    for name in ("k4", "c4"):
        ops.append(Op(f"cliques-{name}", verb(["cliques", files[name]],
                                              lambda out: set(out.split())),
                      _expect((0, _cliques(VERB_INPUTS[name])))))
    for left, right, over in (("k2", "k2", "k1"), ("k3", "k3", "k2")):
        glued = _amalgam(VERB_INPUTS[left], VERB_INPUTS[right], VERB_INPUTS[over])
        ops.append(Op(f"amalgam-{left}-{right}-over-{over}",
                      verb(["amalgam", files[left], files[right], "--over", files[over]]),
                      _expect((0, structure_text("amalgam", glued)))))
    return ops


def setup(workload: str, seed: int, workdir: Path, src: Path) -> list[Op]:
    """The workload's operations, in the order the seed shuffles them into."""
    reverifier = Reverifier(workdir / "verified", source_digest(src))
    if workload == "base4":
        ops = base4_ops(reverifier)
    elif workload == "verify_ok":
        ops = verify_ok_ops()
    elif workload == "verify_reject":
        ops = verify_reject_ops(seed, workdir / "reject")
    elif workload == "free":
        ops = free_ops(seed, workdir / "free", reverifier)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"order:{workload}:{seed}").shuffle(ops)
    return ops
