import dataclasses
import functools
import itertools
import random
import re
from collections import Counter

import pytest

from eppa import base_extension, coherence, config
from eppa.base_extension import (BaseEppaCertificate, PartGroupoid, _extension_candidates,
                                 _cayley, _first_homomorphism,
                                 _search_certificate, base_eppa, coherent_assignment,
                                 scaffold_certificate, verify_base_certificate)
from eppa.coherence import (ExtensionMap, check_forced_values, verify_coherence,
                            verify_coherent_extension, verify_extension)
from eppa.errors import BoundExceededError, VerificationError
from eppa.faithful import clique_faithful_extension
from eppa.structures import (GRAPH_SIGNATURE, PartialAutomorphism, Permutation,
                             Signature, Structure, automorphism_group,
                             enumerate_partial_automorphisms, graph)
from eppa.textio import emit_certificate

part = PartGroupoid


class TestBaseEppa:
    def test_single_vertex_trivial(self):
        cert = base_eppa(graph(1, []))
        assert cert.extension == cert.base
        ident = Permutation.identity(1)
        assert cert.phi.table == {"-": ident, "0>0": ident}

    def test_two_isolated_points(self):
        cert = base_eppa(graph(2, []))
        maps = enumerate_partial_automorphisms(cert.base)
        assert len(maps) == 7
        assert verify_coherence(cert.phi, maps)
        assert verify_extension(cert.phi, maps)

    def test_k2_group_embedding(self, k2):
        cert = base_eppa(k2)
        assert verify_base_certificate(cert)
        # Aut(K2) has order two; its image in Aut(B) keeps that order
        total = [p for p in enumerate_partial_automorphisms(k2) if len(p) == 2]
        images = {cert.phi.lookup(p) for p in total}
        assert len(images) == 2

    def test_restriction_to_automorphisms_is_group_embedding(self, graphs_up_to_3):
        for structure in graphs_up_to_3:
            cert = base_eppa(structure)
            total = [p for p in enumerate_partial_automorphisms(structure)
                     if len(p) == structure.size]
            images = {}
            for p in total:
                images[p] = cert.phi.lookup(p)
            assert len(set(images.values())) == len(total)  # injective
            for p in total:
                for q in total:
                    assert images[p].compose(images[q]) == cert.phi.lookup(p.compose(q))

    def test_forced_values(self, path3):
        cert = base_eppa(path3)
        assert check_forced_values(cert.phi, enumerate_partial_automorphisms(path3))

    def test_small_graphs_get_small_extensions(self, graphs_up_to_3):
        for structure in graphs_up_to_3:
            cert = base_eppa(structure)
            assert cert.extension.size <= 6

    def test_determinism_bytes(self, path3):
        first = emit_certificate(base_eppa(path3))
        second = emit_certificate(base_eppa(path3))
        assert first == second

    def test_part_listed_once_per_call(self, graphs_up_to_4, monkeypatch):
        """base_eppa lists Part(A) and builds its forest once, for the
        search and the verifier, and hands both on in the certificate; a
        certificate that carries no groupoid lists its own."""
        listed, forests = [], []

        def counted(structure):
            listed.append(structure)
            return enumerate_partial_automorphisms(structure)

        def counted_forest(groupoid):
            forests.append(groupoid.structure)
            return forest(groupoid)
        forest = PartGroupoid.__dict__["forest"].func
        cached = functools.cached_property(counted_forest)
        cached.__set_name__(PartGroupoid, "forest")
        monkeypatch.setattr(base_extension, "enumerate_partial_automorphisms", counted)
        monkeypatch.setattr(PartGroupoid, "forest", cached)
        assert len(graphs_up_to_4) == 18
        for structure in graphs_up_to_4:
            cert = base_eppa(structure)
            assert verify_base_certificate(cert)
            held = [cert.part, cert.part.maps, cert.part.forest]
            assert not any(v is h for v in vars(structure).values() for h in held)
        assert (len(listed), len(forests)) == (18, 18)
        assert listed == forests == graphs_up_to_4
        listed.clear()
        assert verify_base_certificate(dataclasses.replace(cert))
        assert listed == [cert.base]
        with pytest.raises(TypeError):
            verify_base_certificate(cert, cert.part.maps)

    def test_size_bound(self, monkeypatch):
        monkeypatch.setenv("EPPA_MAX_POINTS", "2")
        with pytest.raises(BoundExceededError):
            base_eppa(graph(3, []))

    def test_verifier_applies_the_point_bound(self):
        # 13 points, each alone in its own unary relation: Part(A) is just
        # the 2^13 identity maps, so an unbounded verifier would accept it
        n = 13
        a = Structure.make(Signature.make(*((f"U{i}", 1) for i in range(n))), n,
                           {f"U{i}": [(i,)] for i in range(n)})
        ident = Permutation.identity(n)
        table = {PartialAutomorphism.identity_on(
                     x for x in range(n) if mask >> x & 1).encode(): ident
                 for mask in range(1 << n)}
        cert = BaseEppaCertificate(base=a, extension=a,
                                   phi=ExtensionMap(n, n, ident.images, table))
        with pytest.raises(BoundExceededError,
                           match="^structure a needs 13 points, over the bound 12$"):
            verify_base_certificate(cert)

    def test_a_table_that_fails_verification_raises(self, k2, monkeypatch):
        """base_eppa verifies the search's first table itself; a table that
        fails is a realization bug, not a cue to fall back to the scaffold."""
        def swapped(maps, candidate, embedding):
            table = coherent_assignment(maps, candidate, embedding)
            if table is not None:
                a = next(iter(table))
                b = next(key for key in table if table[key] != table[a])
                table[a], table[b] = table[b], table[a]
            return table
        monkeypatch.setattr(base_extension, "coherent_assignment", swapped)
        with pytest.raises(VerificationError):
            base_eppa(k2)


UNARY_BINARY = Signature.make(("U", 1), ("E", 2))

# sha256 digests of base_eppa certificates the candidate search finds for
# inputs that are not graphs, pinned with |B|, so that a change to the search
# that alters one byte of them fails here
SEARCHED_DIGESTS = [
    ("arc", Structure.make(GRAPH_SIGNATURE, 2, {"E": [(0, 1)]}), 3,
     "bf0f002904a626edfcf51fd631554afddee7cda91bf8ebd6461ddaeb527c2345"),
    ("directed P3", Structure.make(GRAPH_SIGNATURE, 3, {"E": [(0, 1), (1, 2)]}), 4,
     "d6d3ece22a81bab178c1ea26601b7c8181bddf0a67b53c17cdd7cfbc79d33ded"),
    ("directed C3", Structure.make(GRAPH_SIGNATURE, 3, {"E": [(0, 1), (1, 2), (2, 0)]}), 3,
     "48ca2e66ea418bcb0f0ffbcfbe336bee1bb5c0d8c0d879b27cabfcfcce1a141b"),
    ("E {00, 01}", Structure.make(GRAPH_SIGNATURE, 2, {"E": [(0, 0), (0, 1)]}), 2,
     "c22ef7469b782b2332a2df36db1aa9b7afc3e51d6d4ac9c3e0252bbd6dff8a51"),
    ("mixed loop", Structure.make(GRAPH_SIGNATURE, 3,
                                  {"E": [(0, 0), (0, 1), (1, 2), (2, 1)]}), 4,
     "e840edd2f0bfd2ec8f22d083de702e3317aba6a3a03be5b76c3c7787b88bf78c"),
    ("U+E", Structure.make(UNARY_BINARY, 3, {"U": [(0,)], "E": [(0, 1), (1, 0)]}), 4,
     "098d430c22b02c2f510383deee5daf4d752e7109075959cfb5cdc2b26f0b31fc"),
    ("H (0,0,1)", Structure.make(Signature.make(("H", 3)), 2, {"H": [(0, 0, 1)]}), 4,
     "272f63dffed6af3fc386fe8b66358f0c57a3cdaa46761426d54913442da2fda6"),
    ("U {0, 1}", Structure.make(Signature.make(("U", 1)), 3, {"U": [(0,), (1,)]}), 3,
     "c89428f32651117206401fca1fe6f1a7c7a90351c3830bb712836ba66621a5f7"),
]


@pytest.mark.parametrize("name, structure, size, digest", SEARCHED_DIGESTS,
                         ids=[row[0] for row in SEARCHED_DIGESTS])
def test_searched_certificate_digest(name, structure, size, digest):
    cert = base_eppa(structure)
    assert cert.extension.size == size
    assert emit_certificate(cert).rstrip("\n").rsplit(" ", 1)[1] == digest


def gauged(phi, maps, rng):
    """phi(p: s -> t) replaced by c_t phi(p) c_s^-1, with c_t a random value
    phi(q) of a map q that fixes t pointwise: c_t fixes the embedded copy of
    t, so the table is again an extending automorphism table, and coherent
    when phi is."""
    fixing = {p.domain(): [] for p in maps}
    for q in maps:
        m = q.as_dict()
        for t, values in fixing.items():
            if all(m.get(x) == x for x in t):
                values.append(phi.lookup(q))
    c = {t: rng.choice(values) for t, values in fixing.items()}
    return {p.encode(): c[p.image()].compose(phi.lookup(p)).compose(c[p.domain()].inverse())
            for p in maps}


def test_spanning_and_full_coherence_agree_on_swapped_tables(graphs_up_to_4):
    """verify_coherent_extension decides coherence over Part(A) on its
    spanning triples; on tables with 1-3 entries swapped for other extenders
    its condition is that of the check over every coherent triple, and its
    verdict that of the check over the spanning triples.  A gauged table is
    swapped to another gauge's value or, where Aut(B) is cheap to list, to
    any extender in it."""
    cases = [(s, base_eppa(s)) for s in graphs_up_to_4 + [row[1] for row in SEARCHED_DIGESTS
                                                            if row[0] in ("U+E", "H (0,0,1)")]]
    cases = [(s, cert.extension, cert.phi) for s, cert in cases]
    faithful = clique_faithful_extension(graph(3, [(0, 1), (1, 2)]))
    cases.append((faithful.base, faithful.structure, faithful.phi))
    rng = random.Random(16)
    verdicts = Counter()
    for structure, extension, phi in cases:
        groupoid = part(structure)
        maps = groupoid.maps
        aut = automorphism_group(extension, 12).elements if extension.size <= 12 else ()
        for _ in range(8):
            table, other = gauged(phi, maps, rng), gauged(phi, maps, rng)
            for p in rng.sample(maps, min(len(maps), rng.randint(1, 3))):
                table[p.encode()] = rng.choice(
                    [g for g in aut if all(g(phi.embed(x)) == phi.embed(y) for x, y in p.pairs)]
                    + [other[p.encode()]])
            mutant = dataclasses.replace(phi, table=table)
            full = verify_coherence(mutant, maps)
            verdict = verify_coherent_extension(mutant, groupoid, extension)
            assert verdict.condition == full.condition
            assert verdict == verify_coherence(mutant, maps, triples=groupoid.spanning_triples())
            verdicts[full.ok] += 1
    assert verdicts[True] > 20 and verdicts[False] > 20


class TestBruteForce:
    """The candidate search on its own: iterative deepening over
    point-extensions, returning the first certificate that verifies."""

    def test_single_vertex_immediate(self):
        cert = _search_certificate(part(graph(1, [])), max_extra=0)
        assert cert is not None and cert.extension.size == 1

    def test_two_points_no_extra_needed(self):
        cert = _search_certificate(part(graph(2, [])), max_extra=0)
        assert cert is not None
        assert cert.extension == cert.base

    def test_not_found_within_budget(self):
        # the leaf-to-centre map of a path cannot extend inside the path itself
        path = graph(3, [(0, 1), (1, 2)])
        cert = _search_certificate(part(path), max_extra=0)
        assert cert is None

    def test_cross_check_with_base_eppa(self, k2):
        for structure in (k2, graph(3, [(0, 1)])):
            searched = _search_certificate(part(structure), max_extra=1)
            built = base_eppa(structure)
            assert searched is not None
            for cert in (searched, built):
                assert verify_base_certificate(cert)

    def test_oracle_certificates_verified(self, path3):
        cert = _search_certificate(part(path3), max_extra=1)
        assert cert is not None and cert.extension.size == 4
        assert verify_base_certificate(cert)


# the inputs TestScaffold certifies besides k2, P3 and the graphs on 1 and 2 points
SCAFFOLD_INPUTS = {
    "arc": Structure.make(GRAPH_SIGNATURE, 2, {"E": [(0, 1)]}),
    "directed P3": Structure.make(GRAPH_SIGNATURE, 3, {"E": [(0, 1), (1, 2)]}),
    "directed C3": Structure.make(GRAPH_SIGNATURE, 3, {"E": [(0, 1), (1, 2), (2, 0)]}),
    "loop": Structure.make(GRAPH_SIGNATURE, 2, {"E": [(0, 0), (0, 1)]}),
    "mixed loop": Structure.make(GRAPH_SIGNATURE, 3, {"E": [(0, 0), (0, 1), (1, 2), (2, 1)]}),
    "U+E": Structure.make(UNARY_BINARY, 3, {"U": [(0,)], "E": [(0, 1), (1, 0)]}),
    "H (0,0,1)": Structure.make(Signature.make(("H", 3)), 2, {"H": [(0, 0, 1)]}),
}
FOUR_VERTEX_FALLBACKS = {
    "P3+K1": [(0, 1), (1, 2)],
    "paw": [(0, 1), (0, 2), (1, 2), (2, 3)],
}
FIVE_VERTEX_GRAPHS = {
    "P5": [(0, 1), (1, 2), (2, 3), (3, 4)],
    "K2+3K1": [(0, 1)],
    "K1,4": [(0, 1), (0, 2), (0, 3), (0, 4)],
    "bull": [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)],
}
# the paw as the base4 corpus lists it: 75 maps, 26 of them spanning, whose
# 9 order completions and 12 actions the scaffold builds; its table has 29
# distinct values
PAW = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])


class TestScaffold:
    """Hrushovski's valuation scaffold: one bit per slot (symbol, tuple up to
    the symbol's symmetry in A) through a point."""

    def scaffold(self, structure):
        cert = scaffold_certificate(part(structure))
        assert verify_base_certificate(cert)
        return cert

    def test_graphs_verify(self, k2, path3):
        for structure in (k2, path3):
            self.scaffold(structure)

    def test_graph_bound(self, path3):
        # one bit per other vertex: at most n * 2^(n-1) points
        assert self.scaffold(path3).extension.size <= 3 * 2 ** 2

    def test_digraph(self):
        self.scaffold(SCAFFOLD_INPUTS["arc"])

    def test_directed_path_and_cycle(self):
        for name in ("directed P3", "directed C3"):
            self.scaffold(SCAFFOLD_INPUTS[name])

    def test_loop(self):
        self.scaffold(SCAFFOLD_INPUTS["loop"])

    def test_mixed_loop(self):
        self.scaffold(SCAFFOLD_INPUTS["mixed loop"])

    def test_unary_and_binary_symbols(self):
        self.scaffold(SCAFFOLD_INPUTS["U+E"])

    def test_ternary(self):
        self.scaffold(SCAFFOLD_INPUTS["H (0,0,1)"])

    def test_ternary_on_three_points_exceeds_cost_bound(self):
        # its orbit grows towards 96 points, and is refused on reaching 89:
        # 29 maps x 89^3 cells is over the verification-cost bound
        sig = Signature.make(("H", 3))
        hyper = Structure.make(sig, 3, {"H": [(0, 1, 2)]})
        assert 29 * 89 ** 3 == 20444101
        with pytest.raises(BoundExceededError, match="^scaffold verification needs 20444101 "
                                                     "tuple checks, over the bound 20000000$"):
            scaffold_certificate(part(hyper))

    def test_agrees_with_search_on_trivial_inputs(self):
        # dual route: both realizations must produce verifiable certificates
        for structure in (graph(1, []), graph(2, [])):
            self.scaffold(structure)
            assert verify_base_certificate(
                _search_certificate(part(structure), 0))

    @pytest.mark.parametrize("edges", FOUR_VERTEX_FALLBACKS.values())
    def test_four_vertex_fallbacks(self, edges):
        cert = base_eppa(graph(4, edges))
        assert cert.extension.size <= 32
        assert verify_base_certificate(cert)

    @pytest.mark.parametrize("edges", FIVE_VERTEX_GRAPHS.values())
    def test_five_vertex_graphs(self, edges):
        cert = base_eppa(graph(5, edges))
        assert cert.extension.size <= 80
        assert verify_base_certificate(cert)

    def test_every_five_vertex_graph(self, graphs_5):
        """All 34 graphs with 5 vertices: 3 are their own extension, 3 get
        40 points and 28 get 80.  base_eppa verifies each certificate before
        returning it."""
        assert len(graphs_5) == 34
        sizes = Counter(base_eppa(structure).extension.size for structure in graphs_5)
        assert sizes == {5: 3, 40: 3, 80: 28}

    def test_tables_per_completion_and_permutations_per_action(self, monkeypatch):
        """One call builds, for the spanning maps only, each order
        completion's tables once and each distinct action's Permutation
        once; every other value is a product of those."""
        built, perms = [], []
        completion = base_extension._Scaffold.completion

        def counted_completion(scaffold, pi):
            built.append(pi)
            return completion(scaffold, pi)

        def counted_permutation(images):
            perms.append(images)
            return Permutation(images)
        monkeypatch.setattr(base_extension._Scaffold, "completion", counted_completion)
        monkeypatch.setattr(base_extension, "Permutation", counted_permutation)
        p5 = graph(5, FIVE_VERTEX_GRAPHS["P5"])
        for structure, n_maps, completions, actions, values in ((PAW, 75, 9, 12, 29),
                                                                (p5, 252, 32, 33, 142)):
            built.clear()
            perms.clear()
            groupoid = part(structure)
            cert = scaffold_certificate(groupoid)
            assert len(groupoid.maps) == n_maps
            assert len(built) == len(set(built)) == completions
            assert len(perms) == actions
            assert len(set(cert.phi.table.values())) == values

    def test_table_bound_counts_entries_per_completion_and_point(self, monkeypatch):
        # the paw: 9 completions x 4 points x (2^1 + 2^2) entries, 3 slots per point
        monkeypatch.setattr(config, "SCAFFOLD_MAX_ENTRIES", 216)
        assert verify_base_certificate(scaffold_certificate(part(PAW)))
        monkeypatch.setattr(config, "SCAFFOLD_MAX_ENTRIES", 215)
        with pytest.raises(BoundExceededError,
                           match="^scaffold lookup table needs 216 entries, over the bound 215$"):
            scaffold_certificate(part(PAW))

    def test_chain_stage_over_the_table_bound_is_refused_before_any_table(self, monkeypatch):
        # the second stage of `eppa dlf` from this 3-point seed has 6 points
        # of 91 slots each, so each of the spanning maps' 31 completions
        # would need 2^45 entries per point
        seed = Structure.make(Signature.make(("H", 3)), 3,
                              {"H": [(0, 1, 0), (2, 1, 1), (2, 2, 0), (2, 2, 2)]})
        stage = base_eppa(seed).extension
        assert stage.size == 6

        def completion(scaffold, pi):
            raise AssertionError("a completion's tables were built")
        monkeypatch.setattr(base_extension._Scaffold, "completion", completion)
        with pytest.raises(BoundExceededError,
                           match="^scaffold lookup table needs 19632879625568256 entries, "
                                 "over the bound 4000000$"):
            base_eppa(stage)


def reference_scaffold(base, maps, spanning):
    """Reference for scaffold_certificate, sharing no code with it: each
    map's slot moves are rebuilt from its order completion, each point is
    moved bit by bit, the orbit is swept under the actions of the maps in
    `spanning`, each map gets its own Permutation from its own action on
    that orbit, not a product of spanning values, and every product of
    fibres is tested for odd parity."""
    n = base.size
    kinds, keys = [], []

    def key(si, t):
        symmetric, loopy = kinds[si]
        if len(set(t)) < len(t) and not loopy:
            return None
        return (si, tuple(sorted(t)) if symmetric else tuple(t))

    for si, ((_, arity), tuples) in enumerate(zip(base.signature.symbols, base.relations)):
        symmetric = arity > 1 and all(tuple(t[i] for i in order) in tuples for t in tuples
                                      for order in itertools.permutations(range(arity)))
        kinds.append((symmetric, any(len(set(t)) < arity for t in tuples)))
        keys += sorted({key(si, t) for t in itertools.product(range(n), repeat=arity)} - {None})
    slots_of = [[s for s in keys if v in s[1]] for v in range(n)]
    slot_index = [{s: j for j, s in enumerate(sl)} for sl in slots_of]
    theta = [sum(1 << j for j, (si, k) in enumerate(slots_of[v])
                 if k[0] == v and k in base.relations[si]) for v in range(n)]

    def action(p):
        pi = p.order_completion(n)
        moves = tuple(tuple(slot_index[pi(v)][key(si, tuple(pi(z) for z in k))]
                            for si, k in slots_of[v]) for v in range(n))
        pmap = p.as_dict()
        flips = [0] * n
        for x, px in pmap.items():
            flips[x] = theta[x] ^ sum((theta[px] >> b & 1) << j for j, b in enumerate(moves[x]))
        for s in keys:
            free = set(s[1]) - pmap.keys()
            if free and sum(flips[d] >> slot_index[d][s] & 1 for d in set(s[1]) - free) % 2:
                flips[min(free)] |= 1 << slot_index[min(free)][s]
        return pi, tuple(flips), moves

    def act(a, point):
        pi, flips, moves = a
        v, chi = point
        chi ^= flips[v]
        return pi(v), sum(1 << b for j, b in enumerate(moves[v]) if chi >> j & 1)

    actions = [action(p) for p in maps]
    swept = sorted({action(p) for p in spanning}, key=lambda a: (a[0].images, a[1]))
    points = list(enumerate(theta))
    index = {pt: i for i, pt in enumerate(points)}
    for pt in points:
        for a in swept:
            if act(a, pt) not in index:
                index[act(a, pt)] = len(points)
                points.append(act(a, pt))
    over = [[i for i, (v, _) in enumerate(points) if v == u] for u in range(n)]
    rels = {}
    for si, (name, arity) in enumerate(base.signature.symbols):
        rels[name] = []
        for t in itertools.product(range(n), repeat=arity):
            s = key(si, t)
            if s is None:
                continue
            vs = sorted(set(t))
            for choice in itertools.product(*(over[v] for v in vs)):
                if sum(points[i][1] >> slot_index[v][s] & 1 for v, i in zip(vs, choice)) % 2:
                    at = dict(zip(vs, choice))
                    rels[name].append(tuple(at[x] for x in t))
    extension = Structure.make(base.signature, len(points), rels)
    table = {p.encode(): Permutation(tuple(index[act(a, pt)] for pt in points))
             for p, a in zip(maps, actions)}
    phi = ExtensionMap(domain_universe=n, codomain_universe=len(points),
                       embedding=tuple(range(n)), table=table)
    return BaseEppaCertificate(base=base, extension=extension, phi=phi)


REFERENCE_INPUTS = {
    "K1": graph(1, []), "2K1": graph(2, []), "K2": graph(2, [(0, 1)]),
    "P3": graph(3, [(0, 1), (1, 2)]), **SCAFFOLD_INPUTS, "canonical paw": PAW,
    **{name: graph(4, edges) for name, edges in FOUR_VERTEX_FALLBACKS.items()},
    **{name: graph(5, edges) for name, edges in FIVE_VERTEX_GRAPHS.items()},
}


@pytest.mark.parametrize("name", REFERENCE_INPUTS)
def test_scaffold_emits_the_reference_certificate(name):
    structure = REFERENCE_INPUTS[name]
    groupoid = part(structure)
    assert (emit_certificate(scaffold_certificate(groupoid))
            == emit_certificate(reference_scaffold(structure, groupoid.maps,
                                                   groupoid.spanning_maps())))


class TestExtensionCandidates:
    """Candidate k adds the slots at the set bits of k.  The golden digests
    do not fix this order: ordering the graph slots by their larger point
    first leaves every one of them unchanged."""

    def test_graph_slots_are_edges_in_lexicographic_order(self):
        slots = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        candidates = list(_extension_candidates(graph(2, [(0, 1)]), 2, ()))
        assert len(candidates) == 1 << len(slots)
        for state, candidate in enumerate(candidates):
            edges = [(0, 1)] + [e for k, e in enumerate(slots) if state >> k & 1]
            assert candidate == graph(4, edges)

    def test_other_slots_are_tuples_in_signature_and_product_order(self):
        sig = Signature.make(("U", 1), ("E", 2))
        slots = [("U", (1,)), ("E", (0, 1)), ("E", (1, 0)), ("E", (1, 1))]
        candidates = list(_extension_candidates(Structure.make(sig, 1, {"U": [(0,)]}), 1, ()))
        assert len(candidates) == 1 << len(slots)
        for state, candidate in enumerate(candidates):
            rels = {"U": [(0,)], "E": []}
            for k, (name, t) in enumerate(slots):
                if state >> k & 1:
                    rels[name].append(t)
            assert candidate == Structure.make(sig, 2, rels)

    @pytest.mark.parametrize("relations, size, extension_size", [
        ({"E": [(0, 1)], "F": [(1, 2)]}, 3, 4),
        ({"E": [], "F": [(0, 1)]}, 3, 4),
        # F empty gets no slots: 9 edge slots at 6 points, inside the gate of
        # 16 (slots on F too would make 18, and B a 16-point scaffold)
        ({"E": [(0, 1)], "F": []}, 4, 6),
    ], ids=["E01-F12", "F01", "K2+2K1-F-empty"])
    def test_every_symbol_holding_an_edge_gets_edge_slots(self, relations, size,
                                                          extension_size):
        sig = Signature.make(("E", 2), ("F", 2))
        base = Structure.make(sig, size, {name: [t for a, b in pairs for t in ((a, b), (b, a))]
                                          for name, pairs in relations.items()})
        cert = base_eppa(base)
        assert cert.extension.size == extension_size
        for name, pairs in relations.items():  # an empty symbol stays empty
            assert bool(cert.extension.tuples(name)) == bool(pairs)


def bitmask_runs(graphs_up_to_4):
    """(A, extra) for every graph with at most 4 vertices at up to 2 extra
    points, and for two loop digraphs, a U1+E2 structure and two ternary
    tuples at every extra up to 1 that the slot caps allow."""
    h3 = Signature.make(("H", 3))
    others = [
        (Structure.make(GRAPH_SIGNATURE, 2, {"E": [(0, 0), (0, 1)]}), 1),
        (Structure.make(GRAPH_SIGNATURE, 3, {"E": [(0, 0), (0, 1), (1, 2), (2, 1)]}), 1),
        (Structure.make(UNARY_BINARY, 3, {"U": [(0,)], "E": [(0, 1), (1, 0)]}), 1),
        (Structure.make(h3, 3, {"H": [(0, 1, 2)]}), 0),
        (Structure.make(h3, 2, {"H": [(0, 0, 1)]}), 0),
    ]
    runs = [(g, extra) for g in graphs_up_to_4 for extra in range(3)]
    return runs + [(s, extra) for s, most in others for extra in range(most + 1)]


class TestBitmaskRejection:
    """The search's sweep skips, on the bitmask, the states whose candidates
    hold the two points of a moved pair in different numbers of tuples at
    some (symbol, position); the unfiltered sweep is the same generator with
    no maps."""

    def test_accepts_what_the_unfiltered_sweep_accepts(self, graphs_up_to_4):
        hits = 0
        for base, extra in bitmask_runs(graphs_up_to_4):
            groupoid = part(base)
            emb = tuple(range(base.size))

            def accepted(swept):
                return [c for c in _extension_candidates(base, extra, swept)
                        if coherent_assignment(groupoid, c, emb) is not None]
            found = accepted(groupoid.moved)
            assert found == accepted(()), (base, extra)
            hits += len(found)
        assert hits > 0

    def test_skips_exactly_the_first_round_rejections(self, graphs_up_to_4):
        skipped = 0
        for base, extra in bitmask_runs(graphs_up_to_4):
            pairs = part(base).moved

            def counts_agree(candidate):
                counts = [[sum(t[i] == x for t in tuples)
                           for (_, arity), tuples in zip(candidate.signature.symbols,
                                                         candidate.relations)
                           for i in range(arity)] for x in range(candidate.size)]
                return all(counts[x] == counts[y] for x, y in pairs)
            every = list(_extension_candidates(base, extra, ()))
            kept = list(_extension_candidates(base, extra, pairs))
            assert kept == [c for c in every if counts_agree(c)], (base, extra)
            skipped += len(every) - len(kept)
        assert skipped > 0

    def test_skips_only_candidates_without_an_assignment(self, graphs_up_to_3):
        # the filter is the search's only pruning, so nothing it skips may
        # carry a coherent assignment
        skipped = 0
        for base, extra in [(g, extra) for g in graphs_up_to_3 for extra in range(3)] + [(MIXED, 1)]:
            groupoid = part(base)
            kept = list(_extension_candidates(base, extra, groupoid.moved))
            for candidate in _extension_candidates(base, extra, ()):
                if candidate not in kept:
                    emb = tuple(range(base.size))
                    assert coherent_assignment(groupoid, candidate, emb) is None, candidate
                    skipped += 1
        assert skipped > 0


class TestCoherentAssignment:
    def test_rejects_candidate_without_extensions(self):
        lopsided = graph(3, [(0, 1)])
        assert coherent_assignment(part(lopsided), lopsided, (0, 1, 2)) is None

    def test_finds_assignment_into_cycle(self, path3):
        c4 = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        table = coherent_assignment(part(path3), c4, (0, 1, 2))
        assert table is not None

    def test_first_homomorphism_backtracks(self):
        # the swap's first extender has order 6, so h(swap)^2 != h(id) and
        # the search must undo it and take the transposition
        ident = PartialAutomorphism.decode("0>0,1>1")
        swap = PartialAutomorphism.decode("0>1,1>0")
        first, second = Permutation((1, 0, 3, 4, 2)), Permutation((1, 0, 2, 3, 4))
        extenders = {ident: [Permutation.identity(5)], swap: [first, second]}
        hom = listed_homomorphism([ident, swap], extenders)
        assert hom == {ident: Permutation.identity(5), swap: second}
        assert listed_homomorphism([ident, swap], {**extenders, swap: [first]}) is None


def listed_homomorphism(group, extenders):
    """_first_homomorphism with each element's extenders given as a list,
    membership in it deciding whether a derived value extends the element."""
    return _first_homomorphism(group, _cayley(group), extenders.__getitem__,
                               lambda a, h: h in extenders[a])


def all_pairs_homomorphism(group, extenders):
    """Reference for _first_homomorphism: the same backtracking over each
    element's extenders in order, with the product table built by compose
    and every product of the chosen values re-checked at every level."""
    index = {g: i for i, g in enumerate(group)}
    product = [[index[a.compose(b)] for b in group] for a in group]
    values = []

    def search(i):
        if i == len(group):
            return True
        for h in extenders[group[i]]:
            values.append(h)
            if all(values[a].compose(values[b]) == values[c]
                   for a in range(i + 1) for b in range(i + 1)
                   if (c := product[a][b]) <= i) and search(i + 1):
                return True
            values.pop()
        return False

    return dict(zip(group, values)) if search(0) else None


def aut_first_assignment(maps, candidate, embedding):
    """Reference for coherent_assignment: Aut(candidate) built for every
    candidate, each g(p) built by compose, and the all-pairs homomorphism
    search."""
    aut = automorphism_group(candidate, degree_bound=max(candidate.size, 1))
    emb = tuple(embedding)
    extenders = {}
    for p in maps:
        cands = [g for g in aut.elements
                 if all(g(emb[x]) == emb[y] for x, y in p.pairs)]
        if not cands:
            return None
        extenders[p] = cands
    arrows = {}
    for key, p in sorted((p.encode(), p) for p in maps):
        arrows.setdefault(p.domain(), []).append((key, p))
    phi = {}
    tree = {}
    for root in sorted(arrows, key=lambda s: (len(s), sorted(s))):
        if root in tree:
            continue
        tree[root] = PartialAutomorphism.identity_on(root)
        order = [root]
        for s in order:
            for _, p in arrows[s]:
                if p.image() not in tree:
                    tree[p.image()] = p.compose(tree[s])
                    order.append(p.image())
        hom = all_pairs_homomorphism([p for _, p in arrows[root] if p.image() == root],
                                     extenders)
        if hom is None:
            return None
        lift = {t: extenders[tree[t]][0] for t in order}
        for s in order:
            for key, p in arrows[s]:
                t = p.image()
                g = tree[t].inverse().compose(p).compose(tree[s])
                phi[key] = lift[t].compose(hom[g]).compose(lift[s].inverse())
    return phi


MIXED = Structure.make(UNARY_BINARY, 2, {"U": [(0,)], "E": [(0, 1)]})


def searched_candidates(graphs_up_to_3):
    """(A, its groupoid, candidate) for every candidate the search proposes for the
    graphs with at most 3 vertices at up to 2 extra points, and for U {0},
    E {01} on 2 points at 1 extra point."""
    runs = [(g, extra) for g in graphs_up_to_3 for extra in range(3)] + [(MIXED, 1)]
    for base, extra in runs:
        groupoid = part(base)
        for candidate in _extension_candidates(base, extra, ()):
            yield base, groupoid, candidate


class TestColourRejection:
    """coherent_assignment's answers on the search's candidates are those of
    the Aut-first search, and the search builds Aut(candidate) only for the
    candidates that pass the bitmask filter."""

    def test_same_answers_as_aut_first_search(self, graphs_up_to_3):
        total = hits = 0
        for base, groupoid, candidate in searched_candidates(graphs_up_to_3):
            emb = tuple(range(base.size))
            got = coherent_assignment(groupoid, candidate, emb)
            assert got == aut_first_assignment(groupoid.maps, candidate, emb), candidate
            total += 1
            hits += got is not None
        # per graph on 1, 2 and 3 vertices with an edge: 1 + 4 + 32 and 1 + 8 +
        # 128; an edgeless graph gets no edge slots, so one candidate per size
        assert total == 3 * 3 + 37 + 3 * 137 + 64
        assert 0 < hits < total

    def test_search_builds_few_automorphism_groups(self, graphs_up_to_4, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].size)
            return automorphism_group(*args, **kwargs)
        monkeypatch.setattr(base_extension, "automorphism_group", counted)
        assert len(graphs_up_to_4) == 18
        for structure in graphs_up_to_4:
            base_eppa(structure)
        # 2,465 with Aut(candidate) built for every candidate state; the
        # bitmask filter leaves 49
        assert len(calls) == 49


U1 = Signature.make(("U", 1))


def marked(size, marks):
    """U/1 on `size` points, U holding on the first `marks`: Aut(A) is S_marks
    x S_rest, and A is its own base extension."""
    return Structure.make(U1, size, {"U": [(x,) for x in range(marks)]})


class TestGeneratorSpanning:
    """The verifier's first spanning family pairs each vertex-group element
    with each generator of the group only, not with every element."""

    def test_non_generator_value_swapped_for_another_extender_fails_coherence(self):
        # each swapped value is still an automorphism that extends its map,
        # so only coherence can reject it
        cert = base_eppa(marked(6, 3))
        phi = cert.phi
        aut = automorphism_group(cert.extension, 12).elements
        swapped = 0
        for (group, _), (_, gens, _) in zip(cert.part.forest, cert.part.cayley):
            if len(group) < 6:
                continue
            for a in [a for i, a in enumerate(group) if i not in gens]:
                other = next((g for g in aut if g != phi.lookup(a) and all(
                    g(phi.embed(x)) == phi.embed(y) for x, y in a.pairs)), None)
                if other is not None:
                    table = {**phi.table, a.encode(): other}
                    mutant = cert.part.carried_by(dataclasses.replace(
                        cert, phi=dataclasses.replace(phi, table=table)))
                    assert verify_base_certificate(mutant).condition == "coherence", a
                    swapped += 1
        # the 4 non-generators of each S3 at {0, 1, 2}, {3, 4, 5}, {0, 1, 2, 3}
        # and {0, 3, 4, 5}; at 5 and 6 points each map has one extender
        assert swapped == 16

    def test_rejected_swap_is_named_at_a_spanning_triple(self, monkeypatch, run_verify):
        # U on 3 of 7 points (7,106 maps): a non-generator vertex-group value
        # swapped for another extending automorphism fails coherence at a
        # spanning triple, and no coherent triple of Part(A) is listed
        cert = base_eppa(marked(7, 3))
        phi, groupoid = cert.phi, cert.part
        aut = automorphism_group(cert.extension, 12).elements
        a, other = next(
            (a, g) for (group, _), (_, gens, _) in zip(groupoid.forest, groupoid.cayley)
            if len(group) >= 6 for a in [a for i, a in enumerate(group) if i not in gens]
            for g in aut if g != phi.lookup(a)
            and all(g(phi.embed(x)) == phi.embed(y) for x, y in a.pairs))
        text = emit_certificate(dataclasses.replace(
            cert, phi=dataclasses.replace(phi, table={**phi.table, a.encode(): other})))

        def unlisted(maps):
            raise AssertionError("coherent_triples called")
        monkeypatch.setattr(coherence, "coherent_triples", unlisted)
        code, out, err = run_verify(text)
        assert (code, out) == (2, "fail coherence")
        named = re.fullmatch(r"coherence: triple \((\S+), (\S+), (\S+)\): "
                             r"phi\(q\) != phi\(p1\) o phi\(p2\)\n", err)
        assert named and named.groups() in {
            tuple(p.encode() for p in triple) for triple in groupoid.spanning_triples()}

    def test_two_symmetric_groups_of_four_build_and_verify(self):
        cert = base_eppa(marked(8, 4))
        groupoid = cert.part
        assert len(groupoid.maps) == 43681 and cert.extension == cert.base
        assert max(len(group) for group, _ in groupoid.forest) == 576  # S4 x S4
        assert verify_base_certificate(cert)
        # 424,449 with every product of each vertex group listed
        assert len(groupoid.spanning_triples()) == 48377


class TestHomomorphismSchedule:
    """_first_homomorphism searches on the generators' values, closed over
    the right-multiplication table; coherent_assignment finds each g(p) by
    lookup."""

    @staticmethod
    def vertex_groups(bases):
        """(maps, arrows, tree, vertex group) per groupoid component of Part(A)."""
        for base in bases:
            groupoid = part(base)
            for group, tree in groupoid.forest:
                yield groupoid.maps, groupoid.arrows, tree, group

    def test_same_homomorphism_as_all_pairs_search(self, graphs_up_to_3, graphs_up_to_4,
                                                   monkeypatch):
        met = []

        def recorded(group, cayley, extenders, extends):
            met.append((group, {g: list(extenders(g)) for g in group}))
            return _first_homomorphism(group, cayley, extenders, extends)
        monkeypatch.setattr(base_extension, "_first_homomorphism", recorded)
        for base, groupoid, candidate in searched_candidates(graphs_up_to_3):
            coherent_assignment(groupoid, candidate, tuple(range(base.size)))
        for structure in graphs_up_to_4:
            base_eppa(structure)
        assert max(len(group) for group, _ in met) == 24  # Aut(K4), Aut(4K1)
        # each met list, also shuffled and without its first extender, so that
        # searches that backtrack and searches that find none are compared too;
        # the last variant keeps the identity's list whole (its first extender
        # is the identity), so that a search reaches products that are unlisted
        rng = random.Random(11)
        answers = Counter()
        for group, extenders in met:
            for variant in (extenders, {g: rng.sample(hs, len(hs)) for g, hs in extenders.items()},
                            {g: hs[1:] for g, hs in extenders.items()},
                            {g: hs if all(x == y for x, y in g.pairs) else hs[1:]
                             for g, hs in extenders.items()}):
                got = listed_homomorphism(group, variant)
                assert got == all_pairs_homomorphism(group, variant), group
                answers[got is None] += 1
        assert answers[False] >= len(met) and answers[True] > 0

    def test_generators_and_right_table(self, graphs_up_to_4):
        sizes = set()
        for _, _, _, group in self.vertex_groups([*graphs_up_to_4, MIXED]):
            e, gens, right = _cayley(group)
            assert group[e] == PartialAutomorphism.identity_on(group[0].domain())
            index = {g: i for i, g in enumerate(group)}

            def generated(indices):
                reached, order = {e}, [e]
                for a in order:
                    for s in indices:
                        c = index[group[a].compose(group[s])]
                        if c not in reached:
                            reached.add(c)
                            order.append(c)
                return reached
            # greedy in group order: each generator is the first element
            # outside the subgroup the earlier ones generate
            for k, s in enumerate(gens):
                below = generated(gens[:k])
                assert s not in below
                assert all(a in below for a in range(s))
            assert generated(gens) == set(range(len(group)))
            assert len(right) == len(gens)
            for s, col in zip(gens, right):
                assert col == [index[a.compose(group[s])] for a in group]
            sizes.add((len(group), len(gens)))
        assert {(1, 0), (2, 1), (6, 2), (24, 3)} <= sizes

    def test_functor_of_order_completions_is_their_table(self, graphs_up_to_4):
        """Order completion is a coherent lift of Part(A) on the points, so
        the functor with the spanning maps' completions gives every map its
        own completion, in forest, then arrow order."""
        for structure in [*graphs_up_to_4, MIXED, *SCAFFOLD_INPUTS.values()]:
            groupoid, n = part(structure), structure.size
            table = groupoid.functor({p: p.order_completion(n) for p in groupoid.spanning_maps()})
            assert table == {p.encode(): p.order_completion(n) for p in groupoid.maps}
            assert list(table) == [p.encode() for _, tree in groupoid.forest
                                   for s in tree for p in groupoid.arrows[s]]
