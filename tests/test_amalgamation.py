import itertools
import weakref

import pytest

from eppa import amalgamation
from eppa.amalgamation import (AmalgamInstance, canonical_form,
                               check_clique_characterization, enumerate_structures,
                               exists_embedding, forb_e_member, free_amalgam,
                               is_graph_universe, minimal_forbidden)
from eppa.errors import BoundExceededError, EppaError
from eppa.structures import (GRAPH_SIGNATURE, Signature, Structure,
                             automorphism_group, embeddings, graph, induced_substructure,
                             is_embedding, is_gaifman_clique)


def max_degree_at_most_one(structure: Structure) -> bool:
    if not structure.is_graphlike():
        return False
    degree = [0] * structure.size
    for a, b in structure.tuples("E"):
        if a < b:
            degree[a] += 1
            degree[b] += 1
    return all(d <= 1 for d in degree)


def triangle_free_graph(structure: Structure) -> bool:
    k3 = graph(3, [(0, 1), (1, 2), (0, 2)])
    return structure.is_graphlike() and exists_embedding(k3, structure) is None


def symmetric_hypergraph(structure: Structure) -> bool:
    tuples = structure.tuple_set("H")
    for t in tuples:
        if len(set(t)) != 3:
            return False
        if any(tuple(p) not in tuples for p in itertools.permutations(t)):
            return False
    return True


def hypergraph(n, edges):
    sig = Signature.make(("H", 3))
    tuples = [p for e in edges for p in itertools.permutations(e)]
    return Structure.make(sig, n, {"H": tuples})


def enumerate_hypergraphs(signature, size, universe=None):
    """Symmetry-aware enumerator over unordered 3-sets (the raw slot grid is
    far too large for this arity)."""
    supports = list(itertools.combinations(range(size), 3))
    out, seen = [], set()
    for state in range(1 << len(supports)):
        edges = [supports[k] for k in range(len(supports)) if state >> k & 1]
        s = hypergraph(size, edges)
        if universe is not None and not universe(s):
            continue
        canon = canonical_form(s)
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


def sweep_all_labelled(signature, size, universe=None):
    """Brute-force oracle: every labelled relation state in turn, kept at
    its first member in the universe, by its `canonical_form`."""
    slots = [(name, t) for name, arity in signature.symbols
             for t in itertools.product(range(size), repeat=arity)]
    out, seen = [], set()
    for state in range(1 << len(slots)):
        rels = {name: set() for name, _ in signature.symbols}
        for k, (name, t) in enumerate(slots):
            if state >> k & 1:
                rels[name].add(t)
        s = Structure.make(signature, size, rels)
        if universe is not None and not universe(s):
            continue
        canon = canonical_form(s)
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


UNARY_BINARY = Signature.make(("U", 1), ("E", 2))
TERNARY = Signature.make(("H", 3))
# symbols whose slots start mid-byte: U at bit 9 on 3 points, H at bit 2 on 2
BINARY_UNARY = Signature.make(("E", 2), ("U", 1))
UNARY_TERNARY = Signature.make(("U", 1), ("H", 3))


def loopless(structure: Structure) -> bool:
    return all(a != b for a, b in structure.tuples("E"))


def symmetric(structure: Structure) -> bool:
    edges = structure.tuple_set("E")
    return all((b, a) in edges for a, b in edges)


def no_unary(structure: Structure) -> bool:
    return not structure.tuples("U")


def distinct_points(structure: Structure) -> bool:
    return all(len(set(t)) == len(t) for t in structure.tuples("H"))


def counting(universe):
    """`universe`, with the list of structures it was called on."""
    calls = []

    def counted(structure):
        calls.append(structure)
        return universe(structure)
    return counted, calls


class TestEnumerateStructures:
    @pytest.mark.parametrize("signature, size, universe", [
        *(pytest.param(GRAPH_SIGNATURE, n, None, id=f"E2-{n}") for n in range(4)),
        pytest.param(GRAPH_SIGNATURE, 4, is_graph_universe, id="graphs-4"),
        *(pytest.param(GRAPH_SIGNATURE, n, u, id=f"E2-{u.__name__}-{n}")
          for u in (loopless, symmetric) for n in range(4)),
        *(pytest.param(UNARY_BINARY, n, None, id=f"U1E2-{n}") for n in range(4)),
        *(pytest.param(UNARY_BINARY, n, no_unary, id=f"U1E2-no_unary-{n}") for n in range(4)),
        *(pytest.param(TERNARY, n, None, id=f"H3-{n}") for n in range(3)),
        *(pytest.param(TERNARY, n, distinct_points, id=f"H3-distinct_points-{n}")
          for n in range(3)),
        *(pytest.param(BINARY_UNARY, n, u, id=f"E2U1-{u and u.__name__}-{n}")
          for u in (None, no_unary) for n in range(4)),
        *(pytest.param(UNARY_TERNARY, n, u, id=f"U1H3-{u and u.__name__}-{n}")
          for u in (None, no_unary) for n in range(3)),
    ])
    def test_matches_the_labelled_sweep_in_order(self, signature, size, universe):
        assert (enumerate_structures(signature, size, universe)
                == sweep_all_labelled(signature, size, universe))

    def test_universe_prunes_the_sweep(self):
        # the members on 3 points are extended, so only a few hundred of the
        # 3,044 classes of binary relations on 4 points are reached
        universe, calls = counting(is_graph_universe)
        assert len(enumerate_structures(GRAPH_SIGNATURE, 4, universe)) == 11
        assert len(calls) < 300

    def test_slot_bound_refuses_before_any_universe_call(self):
        universe, calls = counting(is_graph_universe)
        with pytest.raises(BoundExceededError, match="25 relation slots"):
            minimal_forbidden(triangle_free_graph, 5, GRAPH_SIGNATURE, universe)
        assert calls == []

    @pytest.mark.parametrize("search", [minimal_forbidden, check_clique_characterization],
                             ids=["minimal_forbidden", "characterization"])
    def test_each_universe_call_is_on_a_distinct_structure(self, search):
        # every size is swept once, and the characterization's amalgams
        # share the sweep's universe verdicts
        universe, calls = counting(is_graph_universe)
        search(triangle_free_graph, 4, GRAPH_SIGNATURE, universe)
        assert calls and len(set(calls)) == len(calls)

    def test_binary_relations_on_four_points(self):
        # OEIS A000595: 3,044 binary relations on 4 unlabelled points
        found = enumerate_structures(GRAPH_SIGNATURE, 4)
        assert len(found) == 3044
        assert all(canonical_form(s) == s for s in found)
        assert len(set(found)) == len(found)

    @pytest.mark.parametrize("signature", [GRAPH_SIGNATURE, Signature.make(("U", 1))],
                             ids=["E2", "U1"])
    def test_negative_size_is_refused(self, signature):
        with pytest.raises(EppaError, match="size must be >= 0"):
            enumerate_structures(signature, -1)


class TestFreeAmalgam:
    def test_two_edges_over_a_vertex(self):
        edge = graph(2, [(0, 1)])
        point = graph(1, [])
        inst = AmalgamInstance(shared=point, left=edge, right=edge,
                               into_left=(0,), into_right=(0,))
        glued, left_map, right_map = free_amalgam(inst)
        assert glued == graph(3, [(0, 1), (0, 2)])
        assert left_map == (0, 1) and right_map == (0, 2)

    def test_degenerate_glue(self, k3):
        ident = tuple(range(3))
        inst = AmalgamInstance(shared=k3, left=k3, right=k3,
                               into_left=ident, into_right=ident)
        glued, _, _ = free_amalgam(inst)
        assert glued == k3

    def test_two_triangles_over_an_edge(self, k2, k3):
        inst = AmalgamInstance(shared=k2, left=k3, right=k3,
                               into_left=(0, 1), into_right=(0, 1))
        glued, _, right_map = free_amalgam(inst)
        assert glued.size == 4
        edges = {tuple(sorted(t)) for t in glued.tuples("E")}
        assert len(edges) == 5
        apexes = (2, right_map[2])
        assert tuple(sorted(apexes)) not in edges

    def test_no_tuple_meets_both_outer_sides(self, k2, k3):
        inst = AmalgamInstance(shared=k2, left=k3, right=k3,
                               into_left=(0, 1), into_right=(0, 1))
        glued, left_map, right_map = free_amalgam(inst)
        shared_pts = set(left_map[x] for x in (0, 1))
        left_only = set(left_map) - shared_pts
        right_only = set(right_map) - shared_pts
        for t in glued.tuples("E"):
            pts = set(t)
            assert not (pts & left_only and pts & right_only)

    def test_invalid_inclusion_rejected(self, k2, k3):
        with pytest.raises(EppaError):
            AmalgamInstance(shared=k2, left=k3, right=k3,
                            into_left=(0, 0), into_right=(0, 1))

    def test_union_of_compatible_automorphisms(self, k2, k3):
        # automorphisms of both sides agreeing on the shared part unite to an
        # automorphism of the free amalgam
        instances = [
            AmalgamInstance(shared=graph(1, []), left=graph(2, [(0, 1)]),
                            right=graph(2, [(0, 1)]), into_left=(0,), into_right=(0,)),
            AmalgamInstance(shared=k2, left=k3, right=k3,
                            into_left=(0, 1), into_right=(0, 1)),
            AmalgamInstance(shared=graph(2, []), left=graph(3, [(0, 1)]),
                            right=graph(3, [(1, 2)]), into_left=(0, 2), into_right=(0, 2)),
        ]
        for inst in instances:
            glued, left_map, right_map = free_amalgam(inst)
            shared_left = [inst.into_left[a] for a in range(inst.shared.size)]
            for alpha in automorphism_group(inst.left).elements:
                if {alpha(x) for x in shared_left} != set(shared_left):
                    continue
                for beta in automorphism_group(inst.right).elements:
                    agree = all(
                        alpha(inst.into_left[a]) == inst.into_left[
                            _pull(inst, beta, a)]
                        for a in range(inst.shared.size)
                        if _pull(inst, beta, a) is not None)
                    compatible = all(_pull(inst, beta, a) is not None
                                     for a in range(inst.shared.size))
                    if not compatible or not agree:
                        continue
                    union = [None] * glued.size
                    for x in range(inst.left.size):
                        union[left_map[x]] = left_map[alpha(x)]
                    for x in range(inst.right.size):
                        union[right_map[x]] = right_map[beta(x)]
                    assert is_embedding(union, glued, glued)


def _pull(inst, beta, a):
    """Index of the shared point that beta sends the a-th shared point to,
    or None when beta moves it outside the shared part."""
    image = beta(inst.into_right[a])
    for b in range(inst.shared.size):
        if inst.into_right[b] == image:
            return b
    return None


class TestEmbeddingSearch:
    def test_edge_into_triangle(self, k2, k3):
        assert exists_embedding(k2, k3) is not None

    def test_triangle_into_path(self, k3, path3):
        assert exists_embedding(k3, path3) is None

    def test_tetrahedron_avoids_three_face_hypergraph(self):
        # embeddings are induced, so neither hypergraph embeds into the other;
        # a mere homomorphism of the three-face pattern into the tetrahedron
        # does exist
        tetra = hypergraph(4, itertools.combinations(range(4), 3))
        three_faces = hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        assert exists_embedding(tetra, three_faces) is None
        assert exists_embedding(three_faces, tetra) is None
        from eppa.structures import is_homomorphism
        assert is_homomorphism([0, 1, 2, 3], three_faces, tetra)

    def test_first_witness_is_deterministic(self, k2, k4):
        assert exists_embedding(k2, k4) == (0, 1)


class TestForbMembership:
    def test_small_clique_cases(self, k3, k4):
        assert forb_e_member(k3, [k4])
        assert not forb_e_member(k4, [k3])

    def test_tetrahedron_in_forb_of_three_faces(self):
        tetra = hypergraph(4, itertools.combinations(range(4), 3))
        q = hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        assert forb_e_member(tetra, [q])

    def test_membership_is_hereditary(self, k3):
        structure = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert forb_e_member(structure, [k3])
        for pts in itertools.combinations(range(4), 3):
            sub, _ = induced_substructure(structure, pts)
            assert forb_e_member(sub, [k3])


def is_minimal_non_member(member, structure):
    return not member(structure) and all(
        member(induced_substructure(structure, [x for x in range(structure.size) if x != v])[0])
        for v in range(structure.size))


class TestMinimalForbidden:
    @pytest.mark.parametrize("universe", [None, is_graph_universe],
                             ids=["no-universe", "graphs"])
    def test_order_across_sizes_matches_the_labelled_sweep(self, universe):
        expected = [s for n in range(4) for s in sweep_all_labelled(GRAPH_SIGNATURE, n, universe)
                    if is_minimal_non_member(max_degree_at_most_one, s)]
        assert minimal_forbidden(max_degree_at_most_one, 3, GRAPH_SIGNATURE, universe) == expected
        report = check_clique_characterization(max_degree_at_most_one, 3, GRAPH_SIGNATURE,
                                               universe)
        assert list(report.minimal) == expected

    def test_tested_classes_are_not_held(self):
        # each class is tested as it is enumerated and then let go: while
        # member runs on a structure on 4 points, none of the 50 before it lives
        refs, alive = [], []

        def member(structure):
            if structure.size == 4:
                refs.append(weakref.ref(structure))
                alive.append(sum(ref() is not None for ref in refs[-51:-1]))
            return triangle_free_graph(structure)
        assert len(minimal_forbidden(member, 4, GRAPH_SIGNATURE)) == 3
        assert len(alive) == 3044 and max(alive) == 0

    def test_triangle_free_graphs_give_k3(self, k3):
        found = minimal_forbidden(triangle_free_graph, 4, GRAPH_SIGNATURE,
                                  is_graph_universe)
        assert [canonical_form(s) for s in found] == [canonical_form(k3)]

    def test_max_degree_one_gives_path_and_triangle(self, k3, path3):
        # the three-point star and the triangle are both minimal: deleting
        # any vertex of either lands back in the class
        found = minimal_forbidden(max_degree_at_most_one, 3, GRAPH_SIGNATURE,
                                  is_graph_universe)
        expected = {canonical_form(path3), canonical_form(k3)}
        assert {canonical_form(s) for s in found} == expected
        for witness in found:
            assert not max_degree_at_most_one(witness)
            for v in range(witness.size):
                rest, _ = induced_substructure(
                    witness, [x for x in range(witness.size) if x != v])
                assert max_degree_at_most_one(rest)

    def test_everything_allowed_gives_nothing(self):
        found = minimal_forbidden(lambda s: True, 3, GRAPH_SIGNATURE,
                                  is_graph_universe)
        assert found == []

    def test_forb_class_reproduces_its_forbidder(self, k3):
        member = lambda s: forb_e_member(s, [k3])
        found = minimal_forbidden(member, 3, GRAPH_SIGNATURE, is_graph_universe)
        assert [canonical_form(s) for s in found] == [canonical_form(k3)]


class TestCharacterization:
    def test_triangle_free_both_sides_hold(self):
        report = check_clique_characterization(
            triangle_free_graph, 4, GRAPH_SIGNATURE, is_graph_universe)
        assert report.cliques_side and report.closure_side and report.agree()

    def test_member_decides_each_structure_once(self):
        member, calls = counting(triangle_free_graph)
        check_clique_characterization(member, 4, GRAPH_SIGNATURE, is_graph_universe)
        assert len(set(calls)) == len(calls)

    def test_max_degree_one_both_sides_fail(self, path3):
        report = check_clique_characterization(
            max_degree_at_most_one, 3, GRAPH_SIGNATURE, is_graph_universe)
        assert not report.cliques_side and not report.closure_side
        assert report.agree()
        assert canonical_form(report.non_clique_witness) == canonical_form(path3)
        left, right, shared, glued = report.closure_witness
        assert not max_degree_at_most_one(glued)

    def test_three_face_hypergraph_class(self):
        q = hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        assert is_gaifman_clique(q)
        member = lambda s: forb_e_member(s, [q])
        sig = q.signature
        # enumeration over the raw ternary slot grid is infeasible; use the
        # symmetry-aware hypergraph enumerator instead
        found = []
        for size in range(5):
            for s in enumerate_hypergraphs(sig, size, symmetric_hypergraph):
                if member(s):
                    continue
                if all(member(induced_substructure(
                        s, [x for x in range(s.size) if x != v])[0])
                       for v in range(s.size)):
                    found.append(s)
        assert [canonical_form(s) for s in found] == [canonical_form(q)]
        assert all(is_gaifman_clique(s) for s in found)

    def test_free_amalgams_preserve_clique_forb_classes(self, k3):
        # gluing two triangle-free graphs over a shared part stays
        # triangle-free
        members = [s for n in range(1, 4)
                   for s in enumerate_structures(GRAPH_SIGNATURE, n, is_graph_universe)
                   if triangle_free_graph(s)]
        for left in members:
            for right in members:
                shared, _ = induced_substructure(left, range(min(1, left.size)))
                into_left = tuple(range(shared.size))
                into_right = tuple(range(shared.size))
                if not is_embedding(into_right, shared, right):
                    continue
                inst = AmalgamInstance(shared=shared, left=left, right=right,
                                       into_left=into_left, into_right=into_right)
                glued, _, _ = free_amalgam(inst)
                assert triangle_free_graph(glued)


def reference_free_amalgams(members, max_size):
    """Reference for the closure side of `check_clique_characterization`,
    sharing no code with it: the free amalgams of two members with at most
    `max_size` points over shared parts of every size."""
    for left in members:
        for right in members:
            for k in range(min(left.size, right.size) + 1):
                if left.size + right.size - k > max_size:
                    continue
                for pts_left in itertools.combinations(range(left.size), k):
                    shared, _ = induced_substructure(left, pts_left)
                    for into_right in sorted(embeddings(shared, right), key=sorted):
                        inst = AmalgamInstance(shared, left, right, pts_left, into_right)
                        yield left, right, shared, amalgamation.free_amalgam(inst)[0]


def forb(*family):
    return lambda structure: forb_e_member(structure, family)


def max_degree_at_most(bound):
    def member(structure):
        degree = [0] * structure.size
        for a, _ in structure.tuples("E"):
            degree[a] += 1
        return max(degree, default=0) <= bound
    return member


K2, K3, P3, THREE_K1 = (graph(2, [(0, 1)]), graph(3, [(0, 1), (1, 2), (0, 2)]),
                        graph(3, [(0, 1), (1, 2)]), graph(3, []))
# hereditary classes closed under isomorphism, as the characterization assumes
GRAPH_CLASSES = {
    "K2-free": forb(K2),
    "K3-free": forb(K3),
    "K4-free": forb(graph(4, itertools.combinations(range(4), 2))),
    "P3-free": forb(P3),
    "C4-free": forb(graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])),
    "3K1-free": forb(THREE_K1),
    "K3-and-3K1-free": forb(K3, THREE_K1),
    "max-degree-1": max_degree_at_most(1),
    "max-degree-2": max_degree_at_most(2),
    "all": lambda structure: True,
}
DIGRAPH_CLASSES = {
    "loop-free": lambda structure: all(a != b for a, b in structure.tuples("E")),
    "arc-free": lambda structure: all(a == b for a, b in structure.tuples("E")),
    "all": lambda structure: True,
}


def no_tuple_within_u(structure: Structure) -> bool:
    marked = {x for x, in structure.tuples("U")}
    return not any(a in marked and b in marked for a, b in structure.tuples("E"))


# U/1 + E/2 classes, hereditary and closed under isomorphism; "no-two-U" is
# not closed under free amalgams (two U points glued over nothing)
UE_CLASSES = {
    "no-UU-edge": no_tuple_within_u,
    "no-two-U": lambda structure: len(structure.tuples("U")) <= 1,
    **DIGRAPH_CLASSES,
}


def reference_characterization(member, size, signature, universe):
    """(cliques_side, closure_side, minimal) with closure decided on every
    free amalgam of members.  A member on `size` points is left out of the
    gluing: within the bound it glues with a second member only over the
    whole of that member, which gives a copy of itself."""
    classes = [s for n in range(size + 1) for s in enumerate_structures(signature, n, universe)]
    minimal = [s for s in classes if is_minimal_non_member(member, s)]
    smaller = [s for s in classes if s.size < size and member(s)]
    closed = all(member(glued) for *_, glued in reference_free_amalgams(smaller, size)
                 if universe is None or universe(glued))
    return all(map(is_gaifman_clique, minimal)), closed, minimal


class TestOnePointAmalgams:
    """Closure is read off the enumerated non-members, a one-point amalgam
    at a time; the reference glues members over shared parts of every size."""

    @pytest.mark.parametrize("signature, universe, member, size", [
        *(pytest.param(GRAPH_SIGNATURE, is_graph_universe, member, size,
                       id=f"graphs-{name}-{size}")
          for name, member in GRAPH_CLASSES.items() for size in (2, 3, 4)),
        *(pytest.param(GRAPH_SIGNATURE, None, member, size, id=f"E2-{name}-{size}")
          for name, member in DIGRAPH_CLASSES.items() for size in (2, 3)),
        *(pytest.param(UNARY_BINARY, None, member, size, id=f"U1E2-{name}-{size}")
          for name, member in UE_CLASSES.items() for size in (2, 3)),
    ])
    def test_decides_as_every_amalgam(self, signature, universe, member, size):
        report = check_clique_characterization(member, size, signature, universe)
        cliques, closed, minimal = reference_characterization(member, size, signature, universe)
        assert (report.cliques_side, report.closure_side) == (cliques, closed)
        assert list(report.minimal) == minimal
        assert report.closure_side == report.cliques_side
        if report.closure_witness is not None:
            left, right, shared, glued = report.closure_witness
            assert right.size == shared.size + 1 and glued.size == left.size + 1 <= size
            assert (universe is None or universe(glued)) and not member(glued)
            assert member(left) and member(right)

    def test_three_independent_points_first_witness(self):
        # 3K1 is the first non-member; deleting point 0 leaves 2K1, and its
        # closed neighbourhood is K1 over the empty neighbourhood
        report = check_clique_characterization(GRAPH_CLASSES["3K1-free"], 3, GRAPH_SIGNATURE,
                                               is_graph_universe)
        assert report.closure_witness == (graph(2, []), graph(1, []), graph(0, []), THREE_K1)

    def test_triangle_free_closure_builds_no_amalgam(self, monkeypatch):
        def refused(instance):
            raise AssertionError("an amalgam was built")
        monkeypatch.setattr(amalgamation, "free_amalgam", refused)
        report = check_clique_characterization(GRAPH_CLASSES["K3-free"], 4, GRAPH_SIGNATURE,
                                               is_graph_universe)
        assert report.cliques_side and report.closure_side
