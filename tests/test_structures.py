import itertools
import random
from pathlib import Path

import pytest

from eppa import structures
from eppa.amalgamation import exists_embedding
from eppa.base_extension import PartGroupoid, base_eppa
from eppa.errors import EppaError
from eppa.structures import (GRAPH_SIGNATURE, PartialAutomorphism, Permutation,
                             Signature, Structure, automorphism_group,
                             embeddings, enumerate_partial_automorphisms, gaifman_graph,
                             graph, induced_substructure, is_automorphism,
                             is_embedding, is_homomorphism, is_partial_automorphism)
from eppa.textio import parse_certificate

PAW = (Path(__file__).resolve().parents[1] / "perfbench" / "data" / "verify"
       / "base4-n4-01_02_03_12.cert")


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


def reference_part(structure):
    """Part(A) by one embedding search into A per domain, of the
    substructure induced on it, domains in combination order and each
    search's images in lexicographic order: the listing that
    `enumerate_partial_automorphisms` must give, order included."""
    out = []
    for k in range(structure.size + 1):
        for dom in itertools.combinations(range(structure.size), k):
            sub, _ = induced_substructure(structure, dom)
            out.extend(PartialAutomorphism(tuple(zip(dom, img)))
                       for img in embeddings(sub, structure))
    return out


MIXED = Signature.make(("U", 1), ("E", 2), ("H", 3), ("Z", 2))
MIXED3 = Signature.make(("U", 1), ("E", 2), ("H", 3))


def reference_structure_error(signature, size, relations):
    """The first complaint of the tuple-at-a-time structure check, or None."""
    for (name, arity), tuples in zip(signature.symbols, relations):
        if list(tuples) != sorted(set(tuples)):
            return f"relation {name} is not canonically sorted"
        for t in tuples:
            if len(t) != arity:
                return f"tuple {t} has wrong arity for {name}"
            for x in t:
                if not 0 <= x < size:
                    return f"point {x} out of range in {name}{t}"
    return None


class TestStructureChecks:
    """Structure validates each relation in bulk passes and names the same
    first bad tuple as a check of one tuple at a time."""

    @pytest.mark.parametrize("size, relations", [
        (3, ((), ((0, 1), (1, 2)), ())),
        (3, (((0,), (2,)), ((0, 0), (2, 2)), ((0, 1, 2),))),
        (3, ((), ((1, 2), (0, 1)), ())),
        (3, ((), ((0, 1), (0, 1)), ())),
        (3, ((), ((0, 1), (0, 1, 2)), ())),
        (3, ((), ((0,), (0, 1)), ())),
        (3, ((), ((0, 1), (1, 3)), ())),
        (3, ((), ((-1, 0), (0, 1)), ())),
        (3, ((), ((0, 3), (1, 2, 0)), ())),
        (3, ((), ((0, 1), (2, 1)), ((0, 1, 2), (0, 1, 5)))),
        (3, (((-1,),), ((0, 1), (1, 0)), ((0, 1, 2), (1, 2)))),
        (3, (((0,), (1,)), (), ((0, 0, 0), (0, 0, 1, 2)))),
        (0, ((), ((0, 0),), ())),
    ])
    def test_same_first_complaint(self, size, relations):
        expected = reference_structure_error(MIXED3, size, relations)
        if expected is None:
            assert Structure(MIXED3, size, relations).relations == relations
        else:
            with pytest.raises(EppaError) as err:
                Structure(MIXED3, size, relations)
            assert str(err.value) == expected


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

    def test_key_is_built_once_and_leaves_equality_alone(self, path3):
        for p in enumerate_partial_automorphisms(path3):
            fresh = PartialAutomorphism(p.pairs)
            assert p.encode() is p.encode()
            assert (fresh, hash(fresh)) == (p, hash(p))
            assert {p: 1}[fresh] == 1 and fresh.encode() == p.encode()

    def test_hash_is_cached_and_matches_a_fresh_map(self, path3):
        for p in enumerate_partial_automorphisms(path3):
            {p: 1}
            assert "_hash" in vars(p)  # the lookup above cached it
            fresh = PartialAutomorphism(p.pairs)
            assert "_hash" not in vars(fresh)
            assert (fresh, hash(fresh)) == (p, hash(p)) == (fresh, hash((p.pairs,)))

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


UNARY_BINARY = Signature.make(("U", 1), ("E", 2))
TWO_BINARY = Signature.make(("E", 2), ("F", 2))
TERNARY = Signature.make(("H", 3))
BINARY_TERNARY = Signature.make(("E", 2), ("H", 3))


def seeded_structures():
    """Seeded random structures on 0 to 5 points: a unary and a binary
    symbol, directed E/2 with loops, two binary symbols, H/3 and E/2 + H/3,
    five of each size and signature at mixed densities."""
    rng = random.Random("part-by-extension")
    return [random_structure(rng, signature, size, rng.choice((0.15, 0.3, 0.5, 0.8)))
            for signature in (UNARY_BINARY, GRAPH_SIGNATURE, TWO_BINARY, TERNARY,
                              BINARY_TERNARY)
            for size in range(6) for _ in range(5)]


class TestPartByExtension:
    """`enumerate_partial_automorphisms` extends each map by one point and
    lists the same maps, in the same order, as one embedding search per
    domain (`reference_part`)."""

    def test_graphs_up_to_4(self, graphs_up_to_4):
        assert len(graphs_up_to_4) == 18
        for structure in graphs_up_to_4:
            assert enumerate_partial_automorphisms(structure) == reference_part(structure)

    def test_graphs_with_5_vertices(self, graphs_5):
        assert len(graphs_5) == 34
        for structure in graphs_5:
            assert enumerate_partial_automorphisms(structure) == reference_part(structure)

    def test_seeded_structures(self):
        samples = seeded_structures()
        # the samples reach one-way arcs, loops and non-empty ternary relations
        assert any(not s.is_graphlike() and s.signature == GRAPH_SIGNATURE
                   and any(a == b for a, b in s.tuples("E")) for s in samples)
        assert sum(bool(s.tuples("H")) for s in samples if "H" in s.signature.names()) > 20
        for structure in samples:
            expected = reference_part(structure)
            assert enumerate_partial_automorphisms(structure) == expected, structure

    def test_lists_without_substructures_or_searches(self, monkeypatch, graphs_up_to_4):
        """The pass reads the structure's own masks: no induced substructure
        is built and no embedding search is run."""
        samples = graphs_up_to_4 + seeded_structures()[::7]
        expected = [reference_part(s) for s in samples]
        calls = []

        def counted(name):
            original = getattr(structures, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper
        for name in ("induced_substructure", "embeddings"):
            monkeypatch.setattr(structures, name, counted(name))
        assert [enumerate_partial_automorphisms(s) for s in samples] == expected
        assert calls == []

    def test_unchecked_maps_equal_checked_ones(self, graphs_up_to_4):
        """The listed maps, the forest's tree maps (composites) and their
        inverses are built without the constructor's checks; each equals
        the checked map of its pairs, with the same hash and key."""
        checked = 0
        for structure in graphs_up_to_4 + seeded_structures()[::3]:
            groupoid = PartGroupoid(structure)
            trees = [p for _, tree in groupoid.forest for p in tree.values()]
            for p in (*groupoid.maps, *trees):
                for q in (p, p.inverse()):
                    fresh = PartialAutomorphism(q.pairs)
                    assert (q, hash(q), q.encode()) == (fresh, hash(fresh), fresh.encode())
                    checked += 1
        assert checked > 5000

    def test_compose_outside_the_domain_names_the_point(self):
        with pytest.raises(EppaError, match="point 1 is in the image of 0>1 but not "
                                            "in the domain of 0>1"):
            PartialAutomorphism(((0, 1),)).compose(PartialAutomorphism(((0, 1),)))
        with pytest.raises(EppaError, match="point 1 "):
            PartialAutomorphism(((0, 1),)).compose(PartialAutomorphism(((1, 1),)))
        assert PartialAutomorphism(((1, 0),)).compose(PartialAutomorphism(((0, 1),))) == \
            PartialAutomorphism(((0, 0),))


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

    binary = [
        Structure.make(GRAPH_SIGNATURE, 5, {"E": [(0, 1), (1, 2), (2, 0), (3, 3)]}),
        Structure.make(GRAPH_SIGNATURE, 5, {"E": [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]}),
        Structure.make(GRAPH_SIGNATURE, 4, {"E": [(0, 0), (1, 1), (0, 2), (1, 3)]}),
        Structure.make(GRAPH_SIGNATURE, 4, {"E": [(0, 1), (1, 0), (2, 3)]}),
        Structure.make(Signature.make(("E", 2), ("H", 3)), 4,
                       {"E": [(0, 1), (1, 0), (2, 2), (3, 3)],
                        "H": [(0, 2, 3), (1, 3, 2)]}),
        Structure.make(Signature.make(("E", 2), ("F", 2)), 4,
                       {"E": [(0, 1), (1, 2), (2, 3), (3, 0)],
                        "F": [(0, 2), (2, 0), (1, 3), (3, 1)]}),
    ]

    def test_points_with_no_or_one_tail_loops_and_arcs(self):
        """Directed arcs, loops, points with 0 or 1 tails and a mixed E/2 +
        H/3 signature, on every map: the same verdict as the tuple loop."""
        accepted = 0
        for structure in self.binary:
            n = structure.size
            for g in itertools.product(range(n), repeat=n):
                expected = tuple_loop_is_automorphism(g, structure)
                assert is_automorphism(g, structure) == expected, (structure, g)
                assert is_automorphism(list(g), structure) == expected
                accepted += expected
        # the rotations of the directed triangle; the identity of the
        # directed 4-cycle with a pendant arc; the identity and the swap of
        # the two loops with their arcs; the identity and the swap of the
        # 2-cycle's points; the identity and 0<->1, 2<->3; the rotations of
        # the directed 4-cycle with its two symmetric diagonals
        assert accepted == 3 + 1 + 2 + 2 + 2 + 4

    def test_stored_paw_certificate(self):
        """The 33 distinct permutations of the paw's stored 256-point
        certificate are automorphisms of its B.  B is 96-regular, so the
        tails' sizes never tell a swap apart: a swap of two adjacent points
        is not an automorphism, and neither is a certified map with two
        images exchanged."""
        cert = parse_certificate(PAW.read_text(encoding="utf-8"))
        b = cert.extension
        perms = sorted({g.images for g in cert.phi.table.values()})
        assert (b.size, len(perms)) == (256, 33)
        for g in perms:
            assert is_automorphism(g, b)
            assert tuple_loop_is_automorphism(g, b)
        u = b.relations[0][0][1]
        swap = list(range(b.size))
        swap[0], swap[u] = u, 0
        bent = list(perms[-1])
        bent[0], bent[1] = bent[1], bent[0]
        for g in (swap, bent):
            assert not is_automorphism(g, b)
            assert not tuple_loop_is_automorphism(g, b)


def tuple_set_is_embedding(h, a, b):
    """Reference check: an injective homomorphism whose image pulls every
    tuple of b back to a tuple of a, read from the full tuple sets."""
    if len(set(h)) != a.size:
        return False
    for name, _ in a.signature.symbols:
        target = b.tuple_set(name)
        if any(tuple(h[x] for x in t) not in target for t in a.tuples(name)):
            return False
    image = set(h)
    back = {v: i for i, v in enumerate(h)}
    for name, _ in a.signature.symbols:
        source = a.tuple_set(name)
        for t in b.tuples(name):
            if all(x in image for x in t) and tuple(back[x] for x in t) not in source:
                return False
    return True


class TestIsEmbeddingOracle:
    """is_embedding reads the tails index at the image points only; the
    tuple-set check above is its oracle."""

    def test_graphs_into_fallback_of_p3_k1(self, graphs_up_to_4):
        """Every map of each graph with at most 4 vertices into a 6-point
        window of the 32-point B of P3+K1, and a seeded sample of injective
        maps into all of B."""
        b = base_eppa(graph(4, [(0, 1), (1, 2)])).extension
        assert b.size == 32
        rng = random.Random(14)
        accepted = checked = 0
        for a in graphs_up_to_4:
            maps = list(itertools.product(range(6), repeat=a.size))
            maps += [tuple(rng.sample(range(b.size), a.size)) for _ in range(300)]
            for h in maps:
                expected = tuple_set_is_embedding(h, a, b)
                assert is_embedding(h, a, b) == expected, (a, h)
                accepted += expected
                checked += 1
        assert 0 < accepted < checked

    def test_mixed_signatures(self):
        """Every map between the unary, binary and ternary samples of
        TestIsAutomorphism, loops and repeated points included."""
        samples = TestIsAutomorphism.samples + TestIsAutomorphism.binary
        accepted = 0
        for a, b in itertools.product(samples, repeat=2):
            if a.signature != b.signature or a.size > 3:
                continue
            for h in itertools.product(range(b.size), repeat=a.size):
                expected = tuple_set_is_embedding(h, a, b)
                assert is_embedding(h, a, b) == expected, (a, b, h)
                accepted += expected
        assert accepted > 0


def reference_embeddings(pattern, target):
    """Oracle for `embeddings`: the tuple-at-a-time backtracker it replaced.
    Assigning pattern point k to v checks the pattern tuples whose largest
    point is k and the target tuples through v whose points are all
    assigned, in recursive generators."""
    if pattern.signature != target.signature:
        raise EppaError("signature mismatch")
    m, n = pattern.size, target.size
    if m > n:
        return
    closing = [[] for _ in range(m)]
    through = [[] for _ in range(n)]
    for pattern_tuples, target_tuples in zip(pattern.relations, target.relations):
        target_set = frozenset(target_tuples)
        pattern_set = frozenset(pattern_tuples)
        for t in pattern_tuples:
            closing[max(t)].append((t, target_set))
        for u in target_tuples:
            for v in set(u):
                through[v].append((u, pattern_set))
    image = [-1] * m
    back = [-1] * n

    def feasible(k, v):
        for t, target_set in closing[k]:
            if tuple(image[x] for x in t) not in target_set:
                return False
        for u, pattern_set in through[v]:
            pulled = tuple(back[x] for x in u)
            if -1 not in pulled and pulled not in pattern_set:
                return False
        return True

    def extend(k):
        if k == m:
            yield tuple(image)
            return
        for v in range(n):
            if back[v] >= 0:
                continue
            image[k] = v
            back[v] = k
            if feasible(k, v):
                yield from extend(k + 1)
            back[v] = -1

    yield from extend(0)


def random_structure(rng, signature, size, density):
    """Each slot (symbol, tuple) held with probability `density`."""
    return Structure.make(signature, size, {
        name: [t for t in itertools.product(range(size), repeat=arity)
               if rng.random() < density]
        for name, arity in signature.symbols})


def with_induced(structures):
    """The structures and all their induced substructures, each labelled
    structure once, in first-seen order."""
    out = {}
    for s in structures:
        for k in range(s.size + 1):
            for pts in itertools.combinations(range(s.size), k):
                sub, _ = induced_substructure(s, pts)
                out.setdefault((sub.size, sub.relations), sub)
    return list(out.values())


class TestEmbeddingsOracle:
    """`embeddings` gives the reference backtracker's full stream, in
    order, on every pair drawn from each family: graphs, digraphs with
    loops and one-way arcs, and signatures that mix unary or ternary
    symbols with a binary one."""

    @staticmethod
    def check_all_pairs(structures):
        searches = hits = 0
        for pattern, target in itertools.product(structures, repeat=2):
            expected = list(reference_embeddings(pattern, target))
            assert list(embeddings(pattern, target)) == expected, (pattern, target)
            searches += 1
            hits += bool(expected)
        assert 0 < hits < searches
        return searches

    def test_graphs_up_to_4_and_induced(self, graphs_up_to_4):
        assert self.check_all_pairs(with_induced(graphs_up_to_4)) == 23 ** 2

    def test_digraphs_with_loops_and_one_way_arcs(self):
        rng = random.Random(17)
        e2 = Signature.make(("E", 2))
        small = [Structure.make(e2, n, {"E": arcs})
                 for n in range(3)
                 for k in range(n * n + 1)
                 for arcs in itertools.combinations(itertools.product(range(n), repeat=2), k)]
        assert len(small) == 1 + 2 + 16
        three = [random_structure(rng, e2, 3, rng.choice((0.2, 0.4, 0.6))) for _ in range(40)]
        assert any((a, b) in s.tuple_set("E") and (b, a) not in s.tuple_set("E")
                   for s in three for a, b in itertools.permutations(range(3), 2))
        self.check_all_pairs(small + three)

    @pytest.mark.parametrize("signature", [Signature.make(("U", 1), ("E", 2)),
                                           Signature.make(("E", 2), ("H", 3))],
                             ids=["U1-E2", "E2-H3"])
    def test_mask_and_tuple_symbols_in_one_search(self, signature):
        rng = random.Random(",".join(signature.names()))
        sampled = [random_structure(rng, signature, n, density)
                   for n in (2, 3) for density in (0.15, 0.3, 0.5) for _ in range(3)]
        self.check_all_pairs(with_induced(sampled))

    def test_empty_pattern_larger_pattern_and_empty_target(self, k3):
        empty = Structure.make(GRAPH_SIGNATURE, 0)
        for pattern, target, expected in [(empty, k3, [()]), (empty, empty, [()]),
                                          (k3, empty, []), (k3, graph(2, [(0, 1)]), []),
                                          (graph(1, []), empty, [])]:
            assert list(embeddings(pattern, target)) == expected
            assert list(reference_embeddings(pattern, target)) == expected

    def test_signature_mismatch(self, k2):
        other = Structure.make(Signature.make(("R", 2)), 2)
        with pytest.raises(EppaError):
            list(embeddings(k2, other))

    def test_pattern_index_holds_nothing_from_a_target(self):
        """One pattern object, its `Structure.pattern_index` built on its
        first search, gives the reference stream against each target of a
        sequence taken forward and then in reverse; a structure searched as
        a target and then as a pattern does too, and the reverse; and the
        index leaves the pattern's equality and hash as they were."""
        def fresh(s):
            return Structure(s.signature, s.size, s.relations)

        def check(pattern, target):
            expected = list(reference_embeddings(pattern, target))
            assert list(embeddings(pattern, target)) == expected, (pattern, target)
            return bool(expected)

        e2 = Signature.make(("E", 2))
        arcs = [Structure.make(e2, n, {"E": e}) for n, e in [
            (3, [(0, 1), (1, 0), (1, 2), (2, 1)]),  # a symmetric path
            (3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]),  # K3
            (4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)]),  # C4
            (3, [(0, 1), (1, 2)]),  # one-way arcs
            (4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)]),  # one-way and two-way
            (3, [(0, 0), (0, 1), (1, 0), (2, 2)]),  # loops
            (2, [(1, 1), (0, 1)])]]
        rng = random.Random("pattern index")
        families = [arcs] + [[random_structure(rng, signature, n, density)
                              for n in (2, 3) for density in (0.3, 0.5) for _ in range(3)]
                             for signature in (Signature.make(("U", 1), ("E", 2)),
                                               Signature.make(("E", 2), ("H", 3)))]
        searches = hits = 0
        for family in families:
            for pattern in map(fresh, family):
                before = hash(pattern)
                for target in family + family[::-1]:
                    hits += check(pattern, target)
                    searches += 1
                assert "pattern_index" in pattern.__dict__
                assert pattern == fresh(pattern) and hash(pattern) == before == hash(fresh(pattern))
            for a, b in itertools.product(family, repeat=2):
                as_target_first, as_pattern_first = fresh(a), fresh(a)
                for pattern, target in [(b, as_target_first), (as_target_first, b),
                                        (as_pattern_first, b), (b, as_pattern_first)]:
                    hits += check(pattern, target)
                    searches += 1
        assert 0 < hits < searches


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
