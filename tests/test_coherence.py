import dataclasses
import random
from collections import Counter
from pathlib import Path
from typing import Sequence

import pytest

from eppa import coherence
from eppa.base_extension import BaseEppaCertificate, PartGroupoid, base_eppa
from eppa.coherence import (ExtensionMap, PermutationGroup, SetPartialMap, Verdict,
                            check_forced_values, closure, coherent_lift, coherent_triples,
                            mask_atoms, set_map_coherent_triples, verify_coherence,
                            verify_coherent_extension, verify_extension)
from eppa.errors import EppaError
from eppa.faithful import FaithfulCertificate, clique_faithful_extension
from eppa.structures import (PartialAutomorphism, Permutation,
                             enumerate_partial_automorphisms, graph, is_automorphism)
from eppa.textio import parse_certificate, verify_certificate

STORED = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "verify"
PAW = "base4-n4-01_02_03_12.cert"


def brute_triples(maps):
    """Oracle straight from the definition: scan all ordered triples."""
    out = []
    for p1 in maps:
        for p2 in maps:
            for q in maps:
                if p2.domain() != q.domain():
                    continue
                if p1.image() != q.image():
                    continue
                if p2.image() != p1.domain():
                    continue
                if all(q(x) == p1(p2(x)) for x in p2.domain()):
                    out.append((p1, p2, q))
    return out


class TestCoherentTriples:
    def test_single_vertex_two_triples(self):
        maps = [PartialAutomorphism.empty(), PartialAutomorphism.from_map({0: 0})]
        triples = coherent_triples(maps)
        assert len(triples) == 2
        for p1, p2, q in triples:
            assert p1 == p2 == q

    def test_inverse_pair_triple_present(self, k2):
        p = PartialAutomorphism.from_map({0: 1})
        maps = [p, p.inverse(), PartialAutomorphism.from_map({1: 1})]
        triples = coherent_triples(maps)
        assert (p, p.inverse(), PartialAutomorphism.from_map({1: 1})) in triples

    def test_part_k2_matches_brute_force(self, k2):
        maps = enumerate_partial_automorphisms(k2)
        got = coherent_triples(maps)
        assert sorted((a.encode(), b.encode(), c.encode()) for a, b, c in got) \
            == sorted((a.encode(), b.encode(), c.encode()) for a, b, c in brute_triples(maps))


def encoded(triples):
    return [tuple(p.encode() for p in triple) for triple in triples]


class TestSpanningTriples:
    """PartGroupoid.spanning_triples lists, per component of Part(A), each
    vertex group element's products with the group's generators, the tree
    maps after each vertex group element and each map after its domain's
    tree map."""

    def test_every_spanning_triple_is_a_coherent_triple(self, graphs_up_to_4):
        for structure in graphs_up_to_4:
            groupoid = PartGroupoid(structure)
            spanning = encoded(groupoid.spanning_triples())
            assert len(set(spanning)) == len(spanning)
            assert set(spanning) <= set(encoded(coherent_triples(groupoid.maps)))

    def test_count_on_the_empty_graph_on_4_vertices(self):
        groupoid = PartGroupoid(graph(4, []))
        assert (len(groupoid.spanning_triples()),
                len(coherent_triples(groupoid.maps))) == (263, 3809)

    def test_k2(self):
        groupoid = PartGroupoid(graph(2, [(0, 1)]))
        assert encoded(groupoid.spanning_triples()) == [
            ("-", "-", "-"), ("0>0", "0>0", "0>0"), ("0>1", "0>0", "0>1"),
            ("1>0", "0>1", "0>0"), ("1>1", "0>1", "0>1"),
            ("0>0,1>1", "0>1,1>0", "0>1,1>0"), ("0>1,1>0", "0>1,1>0", "0>0,1>1")]


class TestVerifiers:
    def test_identity_table_is_coherent(self):
        maps = [PartialAutomorphism.empty(), PartialAutomorphism.from_map({0: 0})]
        ident = Permutation.identity(1)
        phi = ExtensionMap(1, 1, (0,), {p.encode(): ident for p in maps})
        assert verify_coherence(phi, maps)
        assert verify_extension(phi, maps)

    def test_idempotence_forces_identity(self):
        # a non-identity involution assigned to a sub-identity violates
        # coherence at the triple (id, id, id)
        sub_id = PartialAutomorphism.from_map({0: 0})
        swap = Permutation((1, 0))
        phi = ExtensionMap(2, 2, (0, 1), {sub_id.encode(): swap})
        verdict = verify_coherence(phi, [sub_id])
        assert not verdict
        assert verdict.condition == "coherence"

    def test_extension_violation_names_point(self):
        p = PartialAutomorphism.from_map({0: 1})
        phi = ExtensionMap(2, 2, (0, 1), {p.encode(): Permutation.identity(2)})
        verdict = verify_extension(phi, [p])
        assert not verdict
        assert verdict.condition == "extension"

    def test_missing_entry_is_an_error(self):
        p = PartialAutomorphism.from_map({0: 1})
        phi = ExtensionMap(2, 2, (0, 1), {})
        with pytest.raises(EppaError):
            verify_extension(phi, [p])


class TestTableChecksNameTheMap:
    """Each table check names the map it fails at by its encoding.  The
    table extends Part(K2) into 2K2."""

    K2 = [PartialAutomorphism.decode(k) for k in
          ("-", "0>0", "0>0,1>1", "0>1", "0>1,1>0", "1>0", "1>1")]
    B = graph(4, [(0, 1), (2, 3)])

    def part(self):
        """Part(K2) as a groupoid, with its maps listed in the order of K2,
        which the expected messages follow."""
        groupoid = PartGroupoid(graph(2, [(0, 1)]))
        assert sorted(groupoid.maps, key=PartialAutomorphism.encode) == self.K2
        groupoid.maps = self.K2
        return groupoid

    def table(self, **changes):
        swap, ident = Permutation((1, 0, 2, 3)), Permutation.identity(4)
        table = {p.encode(): ident if all(x == y for x, y in p.pairs) else swap
                 for p in self.K2}
        return ExtensionMap(2, 4, (0, 1), {**table, **changes})

    def test_valid_table_passes_every_check(self):
        assert verify_coherent_extension(self.table(), self.part(), self.B)
        assert check_forced_values(self.table(), self.K2)

    @pytest.mark.parametrize("changes, condition, detail", [
        ({"1>1": Permutation((0, 1, 3, 2))}, "forced-identity",
         "phi(1>1) is not the identity"),
        ({"1>0": Permutation.identity(4)}, "forced-inverse", "phi(1>0) != phi(0>1)^-1"),
    ])
    def test_forced_values_name_the_map(self, changes, condition, detail):
        verdict = check_forced_values(self.table(**changes), self.K2)
        assert (verdict.condition, verdict.detail) == (condition, detail)

    @pytest.mark.parametrize("changes, condition, detail", [
        ({"2>2": Permutation.identity(4)}, "table", "table entry for 2>2 is not a listed map"),
        ({"0>1": Permutation((1, 2, 0, 3))}, "automorphism",
         "phi(0>1) is not an automorphism"),
        ({"0>1": Permutation.identity(4)}, "extension",
         "phi(0>1) moves embedded point 0 to 0, expected image of 1"),
        ({"0>0": Permutation((0, 1, 3, 2))}, "coherence",
         "triple (0>0, 0>0, 0>0): phi(q) != phi(p1) o phi(p2)"),
    ])
    def test_table_checks_name_the_map(self, changes, condition, detail):
        verdict = verify_coherent_extension(self.table(**changes), self.part(), self.B)
        assert (verdict.condition, verdict.detail) == (condition, detail)

    def test_coherence_failure_is_named_at_its_first_spanning_triple(self):
        # the spanning set meets (1>0, 0>1, 0>0) first, while the first
        # failing triple of coherent_triples is the identity's idempotence
        phi = self.table(**{"0>0,1>1": Permutation((0, 1, 3, 2)),
                            "0>1": Permutation((1, 0, 3, 2))})
        full = verify_coherence(phi, self.K2)
        assert full.detail == (
            "triple (0>0,1>1, 0>0,1>1, 0>0,1>1): phi(q) != phi(p1) o phi(p2)")
        verdict = verify_coherent_extension(phi, self.part(), self.B)
        assert verdict.condition == full.condition
        assert verdict == verify_coherence(phi, self.K2, triples=self.part().spanning_triples())
        assert (verdict.condition, verdict.detail) == (
            "coherence", "triple (1>0, 0>1, 0>0): phi(q) != phi(p1) o phi(p2)")

    def test_missing_entry(self):
        phi = self.table()
        del phi.table["0>1"]
        verdict = verify_coherent_extension(phi, self.part(), self.B)
        assert (verdict.condition, verdict.detail) == ("table", "missing table entry for 0>1")
        for check in (verify_extension, check_forced_values):
            with pytest.raises(EppaError, match="missing table entry for 0>1"):
                check(phi, self.K2)


def reference_verify(phi, maps, structure, triples, automorphic=is_automorphism,
                     checked=None):
    """verify_coherent_extension with no code of its own shared.  Without
    `checked`, in the order it had before one sequence decided accept and
    reject: the key set, every distinct phi(p) at its first key, extension
    at every map, then coherence on every triple of `triples` in their
    order (coherent_triples or spanning_triples of `maps`, listed by the
    caller once per table family).  With `checked`, in the order of that
    sequence: the key set, extension at every map, the distinct phi(p) for
    p in `checked` at their first key, then coherence on `triples`.
    `automorphic` is is_automorphism or a memo of it."""
    keys = {p.encode() for p in maps}
    missing = sorted(keys - phi.table.keys())
    if missing:
        return Verdict.failed("table", f"missing table entry for {missing[0]}")
    extra = sorted(phi.table.keys() - keys)
    if extra:
        return Verdict.failed("table", f"table entry for {extra[0]} is not a listed map")

    def automorphisms(ps):
        seen = set()
        for p in ps:
            g = phi.table[p.encode()]
            if g not in seen:
                if not automorphic(g.images, structure):
                    return Verdict.failed("automorphism",
                                          f"phi({p.encode()}) is not an automorphism")
                seen.add(g)
        return Verdict.passed()

    def extension():
        emb = phi.embedding
        for p in maps:
            g = phi.table[p.encode()]
            for x, y in p.pairs:
                if g(emb[x]) != emb[y]:
                    return Verdict.failed(
                        "extension", f"phi({p.encode()}) moves embedded point {x} to "
                                     f"{g(emb[x])}, expected image of {y}")
        return Verdict.passed()

    def coherence():
        for p1, p2, q in triples:
            if phi.table[p1.encode()].compose(phi.table[p2.encode()]) != phi.table[q.encode()]:
                return Verdict.failed("coherence", f"triple ({p1.encode()}, {p2.encode()}, "
                                                   f"{q.encode()}): phi(q) != phi(p1) o phi(p2)")
        return Verdict.passed()

    steps = ([lambda: automorphisms(maps), extension] if checked is None
             else [extension, lambda: automorphisms(checked)])
    for step in steps + [coherence]:
        verdict = step()
        if not verdict:
            return verdict
    return Verdict.passed()


def really_fails(verdict, phi, structure):
    """Does the map or triple that a failed `verdict` names fail its
    condition in `phi`, read from the message alone?"""
    if verdict.condition == "coherence":
        p1, p2, q = verdict.detail[len("triple ("):verdict.detail.index(")")].split(", ")
        return phi.table[p1].compose(phi.table[p2]) != phi.table[q]
    key = verdict.detail[len("phi("):verdict.detail.index(")")]
    g = phi.table[key]
    if verdict.condition == "automorphism":
        return not is_automorphism(g.images, structure)
    assert verdict.condition == "extension"
    emb = phi.embedding
    return any(g(emb[x]) != emb[y] for x, y in PartialAutomorphism.decode(key).pairs)


def stored_tables():
    """(name, phi, Part(A) as a groupoid, the structure phi acts on) of every stored base
    and faithful certificate, each table and structure once: 17 of the 36
    files repeat one of the others (a faithful extension of a triangle-free
    graph on up to 4 points is often its base extension)."""
    out, seen = [], set()
    for path in sorted(STORED.glob("*.cert")):
        cert = parse_certificate(path.read_text(encoding="utf-8"))
        if isinstance(cert, BaseEppaCertificate):
            base, structure = cert.base, cert.extension
        elif isinstance(cert, FaithfulCertificate):
            base, structure = cert.base, cert.structure
        else:
            continue
        key = (structure, cert.phi.embedding, frozenset(cert.phi.table.items()))
        if key not in seen:
            seen.add(key)
            out.append((path.name, cert.phi, PartGroupoid(base), structure))
    return out


# The spanning forest and triples as free functions of a list of maps, as
# coherence had them before PartGroupoid: the reference its forest, vertex
# groups, spanning maps and spanning triples are compared with.

def spanning_trees(maps: Sequence[PartialAutomorphism]
                   ) -> tuple[dict[frozenset[int], list[PartialAutomorphism]],
                              list[dict[frozenset[int], PartialAutomorphism]]]:
    """BFS spanning trees of the groupoid whose objects are the domains of
    `maps` and whose arrows are the maps, for `maps` closed under inverses,
    like Part(A): a BFS from a root then reaches exactly its connected
    component.  Returns the arrows out of each domain, in encoding order,
    and one tree per component, rooted at its least domain by (size, sorted
    points) and taken in that order of roots.  A tree maps each domain t
    of its component, in BFS order and the root first, to tree(t): root ->
    t, a composite of the arrows walked and the identity at the root."""
    arrows: dict[frozenset[int], list[PartialAutomorphism]] = {}
    for p in sorted(maps, key=PartialAutomorphism.encode):
        arrows.setdefault(p.domain(), []).append(p)
    trees: list[dict[frozenset[int], PartialAutomorphism]] = []
    reached: set[frozenset[int]] = set()
    for root in sorted(arrows, key=lambda s: (len(s), sorted(s))):
        if root in reached:
            continue
        tree = {root: PartialAutomorphism.identity_on(root)}
        order = [root]
        for s in order:  # also visits the domains appended below
            for p in arrows[s]:
                if p.image() not in tree:
                    tree[p.image()] = p.compose(tree[s])
                    order.append(p.image())
        reached.update(order)
        trees.append(tree)
    return arrows, trees


def spanning_triples(maps: Sequence[PartialAutomorphism]
                     ) -> list[tuple[PartialAutomorphism, PartialAutomorphism, PartialAutomorphism]]:
    """Coherent triples within `maps` on which coherence implies coherence on
    all of coherent_triples(maps), for `maps` closed under composition and
    inverses, like Part(A).  Per component of spanning_trees(maps), with
    root r, vertex group G(r) (the maps r -> r), its greedy generators S(r)
    (in encoding order, each the first map outside the subgroup the earlier
    ones generate) and tree T_t: r -> t:

      (a, s, a o s)        for a in G(r) and s in S(r), or (id_r, id_r, id_r)
                           when S(r) is empty;
      (T_t, h, T_t o h)    for every domain t != r of the component and h in G(r);
      (p, T_s, p o T_s)    for every map p: s -> t of the component with s != r.

    No triple is listed twice.  Proof.  The first family makes phi a
    homomorphism on G(r), as every element of a finite group is a positive
    word in S(r), so phi(id_r) = id, and the triples the other two
    families leave out, at T_r = id_r, hold as well.  For p: s -> t
    let g(p) = T_t^-1 o p o T_s, in G(r).  Since T_t o g(p) = p o T_s, the
    second family at h = g(p) and the third at p give phi(p) phi(T_s) =
    phi(T_t) phi(g(p)), so phi(p) = phi(T_t) phi(g(p)) phi(T_s)^-1.  For
    p: s -> t and p': t -> u, g(p') o g(p) = g(p' o p), so phi(p') phi(p) =
    phi(T_u) phi(g(p')) phi(g(p)) phi(T_s)^-1 = phi(p' o p): phi is a
    functor on the groupoid, which is coherence (a functor on a connected
    groupoid is fixed by a vertex group homomorphism and its values on a
    spanning tree; R. Brown, Topology and Groupoids).  The composites are
    taken from `maps`, so each triple is one of coherent_triples(maps)."""
    by_pairs = {p.pairs: p for p in maps}

    def after(p1: PartialAutomorphism, p2: PartialAutomorphism) -> PartialAutomorphism:
        m = p1.as_dict()
        return by_pairs[tuple([(x, m[y]) for x, y in p2.pairs])]

    arrows, trees = spanning_trees(maps)
    out = []
    for tree in trees:
        root = next(iter(tree))
        group = [p for p in arrows[root] if p.image() == root]
        gens, generated = [], {PartialAutomorphism.identity_on(root)}
        for g in group:
            if g not in generated:
                gens.append(g)
                generated = closure(generated, lambda a: [after(a, s) for s in gens])
        out += [(a, s, after(a, s)) for a in group for s in gens] or [(group[0],) * 3]
        branches = list(tree.items())[1:]  # every domain but the root
        out += [(tree_t, h, after(tree_t, h)) for _, tree_t in branches for h in group]
        out += [(p, tree_s, after(p, tree_s)) for s, tree_s in branches for p in arrows[s]]
    return out


class TestGroupoidMatchesTheReference:
    """PartGroupoid's roots, vertex groups, trees (in BFS order), spanning
    maps and spanning triples (in order) are those of the reference, on
    every graph with at most 4 vertices and each stored certificate's A."""

    def test_forest_and_spanning_sets(self, graphs_up_to_4):
        stored = [groupoid.structure for _, _, groupoid, _ in stored_tables()]
        assert len(graphs_up_to_4) == 18 and len(stored) == 19
        for structure in graphs_up_to_4 + stored:
            groupoid = PartGroupoid(structure)
            arrows, trees = spanning_trees(groupoid.maps)
            roots = [next(iter(tree)) for tree in trees]
            groups = [[p for p in arrows[root] if p.image() == root] for root in roots]
            assert groupoid.arrows == arrows
            assert [next(iter(tree)) for _, tree in groupoid.forest] == roots
            assert [group for group, _ in groupoid.forest] == groups
            assert [list(tree.items()) for _, tree in groupoid.forest] == [
                list(tree.items()) for tree in trees]
            assert groupoid.spanning_maps() == [  # the root's identity once, in its group
                p for group, tree in zip(groups, trees) for p in group + list(tree.values())[1:]]
            assert groupoid.spanning_triples() == spanning_triples(groupoid.maps)

    def test_functor_of_the_spanning_values_is_the_table(self, graphs_up_to_3, graphs_up_to_4):
        """A coherent table is the functor of its values on the spanning
        maps: the base certificates of the graphs with at most 4 vertices,
        the faithful ones of those with at most 3, and every stored base and
        faithful file."""
        certs = [base_eppa(s) for s in graphs_up_to_4]
        certs += [clique_faithful_extension(s) for s in graphs_up_to_3]
        stored = [parse_certificate(path.read_text(encoding="utf-8"))
                  for path in sorted(STORED.glob("*.cert"))]
        certs += [c for c in stored if isinstance(c, (BaseEppaCertificate, FaithfulCertificate))]
        assert len(certs) == 18 + 7 + 36
        for cert in certs:
            groupoid = PartGroupoid(cert.base)
            values = {p: cert.phi.lookup(p) for p in groupoid.spanning_maps()}
            assert groupoid.functor(values) == cert.phi.table


def spanning_maps(maps):
    """The maps whose values the verifier checks to be automorphisms, in its
    order: per tree, the root's vertex group, then each tree map but the
    root's identity."""
    arrows, trees = spanning_trees(maps)
    out = []
    for tree in trees:
        root = next(iter(tree))
        out += [p for p in arrows[root] if p.image() == root] + list(tree.values())[1:]
    return out


def spanning_keys(maps):
    return {p.encode() for p in spanning_maps(maps)}


def mutants(phi, key, rng):
    """phi with the entry at `key` changed: two images swapped, another
    value of the table, and its composite with another value."""
    g = phi.table[key]
    values = sorted(set(phi.table.values()) - {g}, key=lambda h: h.images)
    images = list(g.images)
    if len(images) > 1:
        i, j = rng.sample(range(len(images)), 2)
        images[i], images[j] = images[j], images[i]
        yield Permutation(tuple(images))
    if values:
        yield rng.choice(values)
        yield g.compose(rng.choice(values))


def regauged(phi, maps, rng):
    """phi(p: s -> t) replaced by k_t phi(p) k_s^-1, where k_t, for a random
    half of the domains t, swaps two points outside the embedded copy, and
    is the identity elsewhere.  The table still extends and is still
    coherent.  Where k_r is the identity at a root r, it keeps every vertex
    group value and may send tree maps to non-automorphisms, which no
    one-entry change can do: a changed tree map value breaks coherence
    first.  None when B has no two such points."""
    free = sorted(set(range(phi.codomain_universe)) - set(phi.embedding))
    if len(free) < 2:
        return None
    k = {}
    for t in sorted({p.domain() for p in maps}, key=sorted):
        images = list(range(phi.codomain_universe))
        if rng.random() < 0.5:
            i, j = rng.sample(free, 2)
            images[i], images[j] = j, i
        k[t] = Permutation(tuple(images))
    return dataclasses.replace(phi, table={
        p.encode(): k[p.image()].compose(phi.lookup(p)).compose(k[p.domain()].inverse())
        for p in maps})


class TestSpanningAutomorphismCheck:
    """Over Part(A), verify_coherent_extension checks automorphisms only on
    the spanning maps and lets coherence cover the rest; it accepts the
    tables that checking every distinct value and every coherent triple
    accepts, and its verdict is the first failure of its one sequence
    (reference_verify with `checked`)."""

    def test_verdicts_equal_the_reference_on_mutated_stored_tables(self, monkeypatch):
        # both sides read one memo of is_automorphism, which keeps the test short
        known = {}

        def automorphic(g, structure):
            key = (id(structure), tuple(g))
            if key not in known:
                known[key] = is_automorphism(g, structure)
            return known[key]

        monkeypatch.setattr(coherence, "is_automorphism", automorphic)
        rng = random.Random(27)
        conditions = Counter()
        for name, phi, groupoid, structure in stored_tables():
            maps = groupoid.maps
            triples, spanning_order = coherent_triples(maps), spanning_triples(maps)
            keys = sorted(phi.table)
            if structure.size > 12:  # the paw: 5 spanning and 5 other entries
                spanning = spanning_keys(maps)
                keys = (rng.sample(sorted(spanning), 5)
                        + rng.sample(sorted(set(keys) - spanning), 5))
            tables = [regauged(phi, maps, rng) for _ in range(3)]
            tables += [dataclasses.replace(phi, table={**phi.table, key: value})
                       for key in keys for value in mutants(phi, key, rng)]
            checked = spanning_maps(maps)
            for table in tables:
                if table is None:
                    continue
                full = reference_verify(table, maps, structure, triples, automorphic)
                verdict = verify_coherent_extension(table, groupoid, structure)
                assert verdict.ok == full.ok, name
                assert verdict == reference_verify(table, maps, structure, spanning_order,
                                                   automorphic, checked), name
                assert verdict or really_fails(verdict, table, structure), name
                conditions[verdict.condition or "ok"] += 1
        assert {c: n > 20 for c, n in conditions.items()} == {
            "ok": True, "automorphism": True, "extension": True, "coherence": True}

    def test_paw_checks_its_spanning_permutations_only(self, monkeypatch):
        checked = []

        def counted(g, structure):
            checked.append(tuple(g))
            return is_automorphism(g, structure)

        monkeypatch.setattr(coherence, "is_automorphism", counted)
        cert = parse_certificate((STORED / PAW).read_text(encoding="utf-8"))
        assert verify_certificate(cert)
        assert (len(checked), len(set(checked)), len(set(cert.phi.table.values()))) == (12, 12, 33)

    def test_paw_reject_checks_no_more_than_its_accept(self, monkeypatch):
        # phi(1>0), not a spanning value, replaced by phi(0>0), which does
        # not send 1 to 0: extension, checked first, fails
        checked = []

        def counted(g, structure):
            checked.append(tuple(g))
            return is_automorphism(g, structure)

        monkeypatch.setattr(coherence, "is_automorphism", counted)
        cert = parse_certificate((STORED / PAW).read_text(encoding="utf-8"))
        spanning = spanning_keys(cert.part.maps)
        assert "1>0" not in spanning and "0>0" in spanning
        table = {**cert.phi.table, "1>0": cert.phi.table["0>0"]}
        verdict = verify_certificate(dataclasses.replace(cert, phi=dataclasses.replace(
            cert.phi, table=table)))
        assert verdict.message() == ("extension: phi(1>0) moves embedded point 1 to 1, "
                                     "expected image of 0")
        assert checked == []

    @pytest.mark.parametrize("key, i, j, verdict", [
        # the embedded images 0 and 1 swapped: phi(1>0) no longer extends 1>0
        ("1>0", 0, 1, Verdict.failed(
            "extension", "phi(1>0) moves embedded point 1 to 4, expected image of 0")),
        # two images outside the embedded copy swapped: still extending, no
        # automorphism, and off the spanning maps, so coherence fails at
        # the first spanning triple through it
        ("1>0", 4, 5, Verdict.failed(
            "coherence", "triple (1>0, 0>1, 0>0): phi(q) != phi(p1) o phi(p2)")),
        # the same swap in a spanning value is checked
        ("0>1", 4, 5, Verdict.failed("automorphism", "phi(0>1) is not an automorphism")),
    ], ids=["extension", "coherence", "automorphism"])
    def test_paw_non_automorphism_off_the_spanning_maps_is_named(self, key, i, j, verdict):
        cert = parse_certificate((STORED / PAW).read_text(encoding="utf-8"))
        assert ("1>0" in spanning_keys(cert.part.maps), "0>1" in spanning_keys(cert.part.maps)) \
            == (False, True)
        assert cert.phi.embedding == (0, 1, 2, 3)
        images = list(cert.phi.table[key].images)
        images[i], images[j] = images[j], images[i]
        table = {**cert.phi.table, key: Permutation(tuple(images))}
        assert verify_certificate(dataclasses.replace(cert, phi=dataclasses.replace(
            cert.phi, table=table))) == verdict

    def test_extension_is_checked_once_on_a_table_that_fails_it(self, monkeypatch):
        calls = []

        def counted(phi, maps):
            calls.append(len(maps))
            return verify_extension(phi, maps)

        monkeypatch.setattr(coherence, "verify_extension", counted)
        cert = parse_certificate((STORED / PAW).read_text(encoding="utf-8"))
        table = dict(cert.phi.table)
        table["0>1"] = table["0>0"]
        verdict = verify_certificate(dataclasses.replace(cert, phi=dataclasses.replace(
            cert.phi, table=table)))
        assert (verdict.condition, len(calls)) == ("extension", 1)


def random_induced_families(seed, count, max_universe=6):
    """Families of set-level maps whose witnesses compose, so coherent
    triples actually occur: chains q = p1 o p2 built from random witnesses."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_universe)
        full = (1 << n) - 1
        sigma2 = Permutation(tuple(rng.sample(range(n), n)))
        sigma1 = Permutation(tuple(rng.sample(range(n), n)))
        k = rng.randint(0, 3)
        doms = sorted({rng.randint(0, full) for _ in range(k)})

        def image(sigma, mask):
            out = 0
            for b in range(n):
                if mask >> b & 1:
                    out |= 1 << sigma(b)
            return out

        p2 = SetPartialMap(n, tuple((d, image(sigma2, d)) for d in doms), sigma2)
        mid = [image(sigma2, d) for d in doms]
        p1 = SetPartialMap(n, tuple((m, image(sigma1, m)) for m in mid), sigma1)
        q = SetPartialMap(n, tuple((d, image(sigma1.compose(sigma2), d)) for d in doms),
                          sigma1.compose(sigma2))
        yield n, [p2, p1, q]


class TestCoherentLift:
    def test_hand_example(self):
        # dom {0} -> {1}, {1,2} -> {0,2}; witness (0 1); the lift is forced to
        # be 0->1, 1->0, 2->2 by the order-preserving atom rule
        witness = Permutation((1, 0, 2))
        m = SetPartialMap(3, ((0b001, 0b010), (0b110, 0b101)), witness)
        lifted = coherent_lift(3, [m])[0]
        assert lifted == Permutation((1, 0, 2))

    def test_identity_on_full_algebra(self):
        ident = Permutation.identity(3)
        pairs = tuple((m, m) for m in range(1, 8))
        m = SetPartialMap(3, pairs, ident)
        assert coherent_lift(3, [m])[0] == ident

    def test_witness_failure_rejected(self):
        with pytest.raises(EppaError):
            SetPartialMap(2, ((0b01, 0b01),), Permutation((1, 0)))

    def test_random_families_lift_coherently(self):
        for n, maps in random_induced_families(seed=7, count=60):
            lifted = coherent_lift(n, maps)
            for m, perm in zip(maps, lifted):
                for a, b in m.pairs:
                    img = 0
                    for bit in range(n):
                        if a >> bit & 1:
                            img |= 1 << perm(bit)
                    assert img == b
            for i1, i2, iq in set_map_coherent_triples(maps):
                assert lifted[i1].compose(lifted[i2]) == lifted[iq]

    def test_atoms_map_to_atoms(self):
        for n, maps in random_induced_families(seed=11, count=40):
            lifted = coherent_lift(n, maps)
            for m, perm in zip(maps, lifted):
                dom_atoms = set(mask_atoms(n, m.domain_sets()))
                range_atoms = set(mask_atoms(n, [b for _, b in m.pairs]))
                for atom in dom_atoms:
                    img = 0
                    for bit in range(n):
                        if atom >> bit & 1:
                            img |= 1 << perm(bit)
                    assert img in range_atoms


class TestPermutationGroup:
    def test_closure_from_generators(self):
        swap = Permutation((1, 0, 2))
        cycle = Permutation((1, 2, 0))
        group = PermutationGroup.from_generators(3, [swap, cycle])
        assert len(group) == 6


class TestPermutationProducts:
    """compose and inverse skip the sorting check; their results equal the
    checked Permutation of the same images, and only a degree mismatch is
    refused."""

    def test_products_equal_checked_permutations(self):
        rng = random.Random(14)
        for n in range(6):
            for _ in range(20):
                a = Permutation(tuple(rng.sample(range(n), n)))
                b = Permutation(tuple(rng.sample(range(n), n)))
                ab = a.compose(b)
                assert ab == Permutation(tuple(a(b(x)) for x in range(n)))
                assert hash(ab) == hash(Permutation(ab.images))
                assert a.inverse() == Permutation(tuple(sorted(range(n), key=a)))
                assert a.compose(a.inverse()) == Permutation.identity(n)

    def test_degree_mismatch_refused(self):
        with pytest.raises(EppaError):
            Permutation((1, 0)).compose(Permutation((0, 2, 1)))
        with pytest.raises(EppaError):
            Permutation((0, 2, 1)).compose(Permutation((1, 0)))
