import itertools

import pytest

from eppa.amalgamation import exists_embedding
from eppa.errors import EppaError
from eppa.structures import (GRAPH_SIGNATURE, PartialAutomorphism, Permutation,
                             Signature, Structure, automorphism_group,
                             enumerate_partial_automorphisms, gaifman_graph,
                             colour_refinement, graph, induced_substructure, is_automorphism,
                             is_embedding, is_homomorphism, is_partial_automorphism)


def brute_partial_automorphisms(structure):
    """Independent oracle: all pairs of equal-size point sets with a bijection
    that matches induced relation sets under the relabelling."""
    found = []
    pts = range(structure.size)
    for k in range(structure.size + 1):
        for dom in itertools.combinations(pts, k):
            sub_d, idx_d = induced_substructure(structure, dom)
            for img in itertools.permutations(pts, k):
                if len(set(img)) != k:
                    continue
                sub_r, idx_r = induced_substructure(structure, img)
                relabel = [idx_r[img[list(dom).index(x)]] for x in sorted(dom)]
                if is_embedding(relabel, sub_d, sub_r) and len(relabel) == sub_r.size:
                    found.append(tuple(zip(dom, img)))
    return found


class TestInducedSubstructure:
    def test_k3_edge_restriction(self, k3):
        sub, index = induced_substructure(k3, {0, 1})
        assert sub == graph(2, [(0, 1)])
        assert index == {0: 0, 1: 1}

    def test_empty_restriction(self, k3):
        sub, index = induced_substructure(k3, set())
        assert sub.size == 0 and index == {}

    def test_path_endpoints_have_no_edge(self, path3):
        sub, _ = induced_substructure(path3, {0, 2})
        assert sub.size == 2
        assert sub.tuples("E") == ()

    def test_out_of_range_point(self, k3):
        with pytest.raises(EppaError):
            induced_substructure(k3, {0, 5})


class TestMorphisms:
    def test_identity_is_both(self, k3):
        ident = list(range(3))
        assert is_homomorphism(ident, k3, k3)
        assert is_embedding(ident, k3, k3)

    def test_collapsing_map_is_no_homomorphism(self, k2):
        # both edge tuples would need the missing loop (0, 0)
        assert not is_homomorphism([0, 0], k2, k2)

    def test_inclusion_k2_into_k3(self, k2, k3):
        assert is_embedding([0, 1], k2, k3)

    def test_non_induced_map_is_not_embedding(self, k2):
        two = graph(2, [])
        assert is_homomorphism([0, 1], two, k2)
        assert not is_embedding([0, 1], two, k2)

    def test_signature_mismatch(self, k2):
        other = Structure.make(Signature.make(("R", 2)), 2)
        with pytest.raises(EppaError):
            is_homomorphism([0, 1], other, k2)


class TestPartialAutomorphisms:
    def test_single_vertex(self):
        single = graph(1, [])
        maps = enumerate_partial_automorphisms(single)
        assert [p.encode() for p in maps] == ["-", "0>0"]

    def test_k2_has_seven(self, k2):
        maps = enumerate_partial_automorphisms(k2)
        assert len(maps) == 7
        keys = {p.encode() for p in maps}
        assert keys == {"-", "0>0", "0>1", "1>0", "1>1", "0>0,1>1", "0>1,1>0"}

    def test_k3_matches_brute_force(self, k3):
        maps = enumerate_partial_automorphisms(k3)
        oracle = brute_partial_automorphisms(k3)
        assert sorted(p.pairs for p in maps) == sorted(oracle)

    def test_closed_under_inverse_and_restriction(self, path3):
        maps = enumerate_partial_automorphisms(path3)
        keys = {p.encode() for p in maps}
        for p in maps:
            assert p.inverse().encode() in keys
            for sub in itertools.combinations(sorted(p.domain()), max(len(p) - 1, 0)):
                restricted = PartialAutomorphism.from_map(
                    {x: p(x) for x in sub})
                assert restricted.encode() in keys

    def test_decode_inverts_encode(self, path3):
        for p in enumerate_partial_automorphisms(path3):
            assert PartialAutomorphism.decode(p.encode()) == p

    @pytest.mark.parametrize("key", ["", "-1", "0", "0>", "0>x", "0>-1", "0>1>2",
                                     "+0>1", "1_0>1", "\u0661>1", "0>1,", "0>1,0>2"])
    def test_decode_refuses_malformed_keys(self, key):
        with pytest.raises(EppaError):
            PartialAutomorphism.decode(key)

    def test_order_completions_compose_along_coherent_triples(self, graphs_up_to_4):
        from eppa.coherence import coherent_triples
        checked = 0
        for structure in graphs_up_to_4:
            n = structure.size
            maps = enumerate_partial_automorphisms(structure)
            for p in maps:
                completion = p.order_completion(n)
                assert all(completion(x) == y for x, y in p.pairs)
            for p1, p2, q in coherent_triples(maps):
                assert q.order_completion(n) == \
                    p1.order_completion(n).compose(p2.order_completion(n))
                checked += 1
        assert checked == 13411

    def test_membership_matches_embedding_criterion(self, graphs_up_to_4):
        """The embedding search behind Part(A), Aut(A) and exists_embedding
        against the reference checkers, order included."""
        with_loop = Structure.make(GRAPH_SIGNATURE, 3,
                                   {"E": [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1)]})
        ternary = Structure.make(Signature.make(("H", 3)), 3, {"H": [(0, 1, 2)]})
        samples = graphs_up_to_4 + [with_loop, ternary]
        for structure in samples:
            pts = range(structure.size)
            sweep = []
            for k in range(structure.size + 1):
                for dom in itertools.combinations(pts, k):
                    for img in itertools.permutations(pts, k):
                        p = PartialAutomorphism(tuple(zip(dom, img)))
                        if is_partial_automorphism(structure, p):
                            sweep.append(p)
            assert enumerate_partial_automorphisms(structure) == sweep

            perms = list(itertools.permutations(pts))
            assert [g.images for g in automorphism_group(structure).elements] == \
                [g for g in perms if is_embedding(g, structure, structure)]
            for g in perms:
                assert is_automorphism(g, structure) == is_embedding(g, structure, structure)
            assert is_automorphism([0] * structure.size, structure) == (structure.size <= 1)

            patterns = [induced_substructure(structure, dom)[0]
                        for k in range(structure.size + 1)
                        for dom in itertools.combinations(pts, k)]
            patterns += [s for s in samples if s.signature == structure.signature]
            for pattern in patterns:
                first = next((h for h in itertools.permutations(pts, pattern.size)
                              if is_embedding(h, pattern, structure)), None)
                assert exists_embedding(pattern, structure) == first


class TestAutomorphismGroup:
    def test_path_symmetry(self, path3):
        group = automorphism_group(path3)
        assert len(group) == 2
        assert Permutation((2, 1, 0)) in group.elements

    def test_k3_full_symmetric(self, k3):
        assert len(automorphism_group(k3)) == 6

    def test_c4_order_eight_vs_filter_oracle(self):
        c4 = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        group = automorphism_group(c4)
        oracle = [perm for perm in itertools.permutations(range(4))
                  if is_embedding(list(perm), c4, c4)]
        assert len(group) == 8
        assert sorted(g.images for g in group.elements) == sorted(oracle)

    def test_group_equals_surjective_embeddings_small(self, graphs_up_to_3):
        for structure in graphs_up_to_3:
            group = {g.images for g in automorphism_group(structure).elements}
            oracle = {perm for perm in itertools.permutations(range(structure.size))
                      if is_embedding(list(perm), structure, structure)}
            assert group == oracle

    def test_group_equals_surjective_embeddings_size_five(self):
        samples = [graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
                   graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
                   graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])]
        for structure in samples:
            group = {g.images for g in automorphism_group(structure).elements}
            oracle = {perm for perm in itertools.permutations(range(5))
                      if is_embedding(list(perm), structure, structure)}
            assert group == oracle

    def test_size_bound_enforced(self):
        from eppa.errors import BoundExceededError
        with pytest.raises(BoundExceededError):
            automorphism_group(graph(11, []))


def tuple_loop_is_automorphism(g, structure):
    """Reference check: a bijection that maps every tuple to a tuple."""
    if len(set(g)) != structure.size:
        return False
    for name, _ in structure.signature.symbols:
        tuples = structure.tuple_set(name)
        for t in tuples:
            if tuple(g[x] for x in t) not in tuples:
                return False
    return True


MIXED = Signature.make(("U", 1), ("E", 2), ("H", 3), ("Z", 2))


class TestIsAutomorphism:
    """is_automorphism reads the per-point tails index; the tuple loop above
    is its oracle, on every map of small universes into themselves."""

    samples = [
        Structure.make(MIXED, 0),
        Structure.make(MIXED, 1, {"E": [(0, 0)], "H": [(0, 0, 0)]}),
        Structure.make(MIXED, 3, {"U": [(0,), (1,), (2,)],
                                  "E": list(itertools.product(range(3), repeat=2)),
                                  "H": list(itertools.permutations(range(3)))}),
        Structure.make(MIXED, 4, {"E": [(v, v) for v in range(4)]
                                  + [(v, (v + 1) % 4) for v in range(4)],
                                  "H": [(v, v, (v + 1) % 4) for v in range(4)]}),
        Structure.make(MIXED, 4, {"U": [(0,), (1,)],
                                  "E": [(0, 0), (0, 1), (1, 0), (1, 1), (2, 3), (3, 2)],
                                  "H": [(0, 1, 2), (1, 0, 3)]}),
        Structure.make(MIXED, 4, {"U": [(2,)], "E": [(0, 1), (1, 0), (3, 3)],
                                  "H": [(0, 1, 2), (1, 0, 2), (3, 3, 2)]}),
        Structure.make(MIXED, 4, {"U": [(1,), (2,)], "H": [(0, 1, 3)]}),
    ]

    def test_agrees_with_tuple_loop_on_every_map(self):
        accepted = 0
        for structure in self.samples:
            n = structure.size
            for g in itertools.product(range(n), repeat=n):
                expected = tuple_loop_is_automorphism(g, structure)
                assert is_automorphism(g, structure) == expected, (structure, g)
                assert is_automorphism(list(g), structure) == expected
                if len(set(g)) != n:
                    assert not expected
                accepted += expected
        # 1 + 1 + 6 (all of S_3) + 4 (rotations) + 2 + 2 + 1
        assert accepted == 17

    def test_wrong_length_or_range_raises(self):
        for structure in self.samples[1:]:
            n = structure.size
            for bad in ((0,) * (n - 1), (0,) * (n + 1), (n,) * n):
                with pytest.raises(EppaError):
                    is_automorphism(bad, structure)


class TestColourRefinement:
    def test_path_colours_leaves_apart_from_centre(self, path3):
        *_, stable = colour_refinement(path3)
        assert stable[0] == stable[2] != stable[1]

    def test_each_colouring_refines_the_last(self):
        for structure in TestIsAutomorphism.samples:
            colourings = list(colour_refinement(structure))
            assert colourings[0] == [0] * structure.size
            for coarse, fine in zip(colourings, colourings[1:]):
                assert len(set(fine)) > len(set(coarse))
                assert all(coarse[x] == coarse[y]
                           for x in range(structure.size) for y in range(structure.size)
                           if fine[x] == fine[y])

    def test_automorphisms_preserve_the_stable_colouring(self):
        for structure in TestIsAutomorphism.samples:
            *_, stable = colour_refinement(structure)
            for g in automorphism_group(structure).elements:
                assert [stable[g(v)] for v in range(structure.size)] == stable


class TestGaifman:
    def test_hyperedge_gives_triangle(self):
        sig = Signature.make(("H", 3))
        hyper = Structure.make(sig, 3, {"H": [(0, 1, 2)]})
        assert gaifman_graph(hyper) == graph(3, [(0, 1), (0, 2), (1, 2)])

    def test_graph_is_its_own_gaifman_graph(self, path3):
        assert gaifman_graph(path3) == path3

    def test_digraph_single_arc(self):
        arc = Structure.make(GRAPH_SIGNATURE, 2, {"E": [(0, 1)]})
        assert gaifman_graph(arc) == graph(2, [(0, 1)])

    def test_clique_checks(self, path3):
        from eppa.structures import is_gaifman_clique
        assert is_gaifman_clique(path3, {1})
        assert not is_gaifman_clique(path3, {0, 2})
        sig = Signature.make(("H", 3))
        faces = itertools.permutations(range(4), 3)
        tetra = Structure.make(sig, 4, {"H": list(faces)})
        assert is_gaifman_clique(tetra)
