import dataclasses
import random
from pathlib import Path

import pytest

from eppa.base_extension import base_eppa
from eppa.coherence import ExtensionMap, PermutationGroup, Verdict, closure
from eppa.errors import EppaError, VerificationError
from eppa.quotient import (SpecialCertificate, special_extension, verify_special,
                           verify_structural)
from eppa.structures import (PartialAutomorphism, Permutation, Structure, graph,
                             enumerate_partial_automorphisms)
from eppa.textio import emit_certificate, parse_certificate

STORED = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "verify"


def k2_instance():
    k2 = graph(2, [(0, 1)])
    p = PartialAutomorphism.from_map({0: 1})
    maps = (PartialAutomorphism.empty(), p)
    psi = ExtensionMap(2, 2, (0, 1), {"-": Permutation.identity(2),
                                      "0>1": Permutation((1, 0))})
    return k2, maps, psi


class TestConstruction:
    def test_k2_fixture_by_hand(self):
        k2, maps, psi = k2_instance()
        cert = special_extension(k2, maps, k2, psi)
        # A x G has four pairs collapsing into two classes, so B is again an edge
        assert cert.extension.size == 2
        assert len(cert.group) == 2
        members = {frozenset(m) for m in cert.class_members}
        assert members == {frozenset({(0, 0), (1, 1)}), frozenset({(0, 1), (1, 0)})}
        assert sorted(cert.extension.tuples("E")) == [(0, 1), (1, 0)]
        # iota is injective and phi(p) swaps the two classes
        assert len(set(cert.phi.embedding)) == 2
        p = maps[1]
        assert cert.phi.lookup(p).images == (1, 0)

    def test_empty_p_keeps_structure(self, path3):
        cert = special_extension(path3, (), path3,
                                 ExtensionMap(3, 3, (0, 1, 2), {}))
        assert cert.extension.size == 3
        assert verify_special(cert)

    def test_two_isolated_points_exhaustive(self):
        two = graph(2, [])
        p = PartialAutomorphism.from_map({0: 1})
        psi = ExtensionMap(2, 2, (0, 1), {"-": Permutation.identity(2),
                                          "0>1": Permutation((1, 0))})
        cert = special_extension(two, (PartialAutomorphism.empty(), p), two, psi)
        assert verify_special(cert)

    def test_rejects_incoherent_psi(self):
        two = graph(2, [])
        sub_id = PartialAutomorphism.from_map({0: 0})
        psi = ExtensionMap(2, 2, (0, 1), {sub_id.encode(): Permutation((1, 0))})
        with pytest.raises(VerificationError):
            special_extension(two, (sub_id,), two, psi)

    def test_rejects_a_map_listed_twice(self):
        k2, maps, psi = k2_instance()
        with pytest.raises(EppaError, match="twice"):
            special_extension(k2, maps + maps[1:], k2, psi)

    def test_pipeline_psi_from_base_eppa(self, path3):
        base_cert = base_eppa(path3)
        maps = tuple(enumerate_partial_automorphisms(path3))[:6]
        psi = ExtensionMap(path3.size, base_cert.extension.size,
                           base_cert.embedding,
                           {p.encode(): base_cert.phi.lookup(p) for p in maps})
        cert = special_extension(path3, maps, base_cert.extension, psi)
        assert verify_special(cert)


class TestVerifier:
    def test_injected_tuple_is_rejected(self):
        # on this two-point quotient every point is embedded, so an injected
        # loop already breaks the (logically prior) embedding exactness; the
        # verdict names that condition
        k2, maps, psi = k2_instance()
        cert = special_extension(k2, maps, k2, psi)
        tampered_structure = Structure.make(
            cert.extension.signature, cert.extension.size,
            {"E": list(cert.extension.tuples("E")) + [(0, 0)]})
        tampered = dataclasses.replace(cert, extension=tampered_structure)
        verdict = verify_special(tampered)
        assert not verdict
        assert verdict.condition in ("tuple-realization", "automorphism",
                                     "iota-embedding")

    def test_stray_tuple_on_fresh_points_fails_realization(self, path3):
        # a certificate with unreachable extra structure: two fresh points
        # carrying an edge that no word image realizes
        k2, maps, psi = k2_instance()
        cert = special_extension(k2, maps, k2, psi)
        bigger = Structure.make(
            cert.extension.signature, cert.extension.size + 2,
            {"E": list(cert.extension.tuples("E")) + [(2, 3), (3, 2)]})
        table = {key: __import__("eppa").Permutation(perm.images + (2, 3))
                 for key, perm in cert.phi.table.items()}
        phi = ExtensionMap(cert.base.size, bigger.size, cert.phi.embedding, table)
        hom = cert.hom + (0, 1)
        tampered = dataclasses.replace(cert, extension=bigger, phi=phi, hom=hom)
        verdict = verify_special(tampered)
        assert not verdict
        assert verdict.condition in ("reachability", "tuple-realization",
                                     "equivariance")

    def test_corrupted_hom_breaks_equivariance(self):
        k2, maps, psi = k2_instance()
        cert = special_extension(k2, maps, k2, psi)
        bad = list(cert.hom)
        bad[0] = 1 - bad[0]
        tampered = dataclasses.replace(cert, hom=tuple(bad))
        verdict = verify_special(tampered)
        assert not verdict
        assert verdict.condition in ("equivariance", "homomorphism")

    def test_unreachable_point_is_rejected(self):
        # a fresh isolated point breaks no structural check and carries no
        # tuple, so only reachability can catch it
        point = graph(1, [])
        empty = PartialAutomorphism.empty()
        cert = SpecialCertificate(
            base=point, extension=graph(2, []), codomain=point, maps=(empty,),
            psi=ExtensionMap(1, 1, (0,), {"-": Permutation.identity(1)}),
            phi=ExtensionMap(1, 2, (0,), {"-": Permutation.identity(2)}), hom=(0, 0))
        verdict = verify_special(cert)
        assert verdict.condition == "reachability"
        assert "point 1" in verdict.detail

    def test_unrealized_transition_is_rejected(self):
        # phi(0>1) is a 3-cycle: its square sends iota(0) to iota(2), but the
        # words defined on 0 only reach (phi(0>1), 1) and (id, 0)
        three = graph(3, [])
        table = ExtensionMap(3, 3, (0, 1, 2), {"0>1": Permutation((1, 2, 0))})
        cert = SpecialCertificate(base=three, extension=three, codomain=three,
                                  maps=(PartialAutomorphism.decode("0>1"),),
                                  psi=table, phi=table, hom=(0, 1, 2))
        verdict = verify_special(cert)
        assert verdict.condition == "transition-realization"
        assert "sends 0 to 2" in verdict.detail

    def test_f_after_iota_must_be_the_base_embedding(self):
        # reversing f on the edge keeps it a homomorphism onto K2
        k2, maps, psi = k2_instance()
        cert = special_extension(k2, maps, k2, psi)
        verdict = verify_special(dataclasses.replace(cert, hom=tuple(reversed(cert.hom))))
        assert verdict.message() == ("homomorphism: f o iota differs from the base "
                                     "embedding at 0")

    def test_unrealized_tuple_orbit_is_rejected(self, c20_over_p3):
        # the diameters of the 20-cycle, added to B and to the base extension,
        # keep every letter an automorphism and f a homomorphism, but no
        # embedded edge of the path is moved onto one
        cert = c20_over_p3
        chords = [t for i in range(10) for t in ((i, i + 10), (i + 10, i))]
        chorded = [Structure.make(s.signature, s.size, {"E": list(s.tuples("E")) + chords})
                   for s in (cert.extension, cert.codomain)]
        verdict = verify_special(dataclasses.replace(cert, extension=chorded[0],
                                                     codomain=chorded[1]))
        assert verdict.message() == ("tuple-realization: E tuple (0, 10) is not a word "
                                     "image of an embedded tuple")

    def test_long_words_are_realized(self, c20_over_p3):
        # some edges of the 20-cycle quotient are word images of an embedded
        # edge only under words longer than 6 letters; no bound is applied
        assert c20_over_p3.extension.size == 20
        assert verify_special(c20_over_p3)


class TestWordRelation:
    def test_path3_partition_is_pinned(self, path3):
        k2, maps, psi = k2_instance()
        cert = special_extension(k2, maps, k2, psi)
        # under the letter 1>0 each class's least member, (0, g), is reached
        # from (1, h) only by the inverse move
        back = PartialAutomorphism.from_map({1: 0})
        cert_back = special_extension(k2, (maps[0], back), k2, ExtensionMap(
            2, 2, (0, 1), {"-": Permutation.identity(2), "1>0": Permutation((1, 0))}))
        assert cert.class_members == cert_back.class_members == (
            ((0, 0), (1, 1)), ((0, 1), (1, 0)))
        # P is the first four maps of Part(P3) and G has 8 elements: the 24
        # pairs of A x G fall into 8 classes, each with one pair per vertex
        base_cert = base_eppa(path3)
        sub = tuple(enumerate_partial_automorphisms(path3))[:4]
        assert [p.encode() for p in sub] == ["-", "0>0", "0>1", "0>2"]
        psi2 = ExtensionMap(path3.size, base_cert.extension.size,
                            base_cert.embedding,
                            {p.encode(): base_cert.phi.lookup(p) for p in sub})
        cert2 = special_extension(path3, sub, base_cert.extension, psi2)
        assert len(cert2.group) == 8
        assert cert2.class_members == (
            ((0, 0), (1, 2), (2, 4)), ((0, 1), (1, 3), (2, 5)),
            ((0, 2), (1, 0), (2, 3)), ((0, 3), (1, 1), (2, 2)),
            ((0, 4), (1, 6), (2, 0)), ((0, 5), (1, 7), (2, 1)),
            ((0, 6), (1, 4), (2, 7)), ((0, 7), (1, 5), (2, 6)))
        # the group and classes are derived from the file's contents, so a
        # parsed certificate has the same classes
        for built in (cert, cert_back, cert2):
            assert parse_certificate(emit_certificate(built)).class_members == built.class_members

    def test_equivariance_holds_pointwise(self):
        k2, maps, psi = k2_instance()
        cert = special_extension(k2, maps, k2, psi)
        for p in cert.maps:
            g = cert.phi.lookup(p)
            gp = cert.psi.lookup(p)
            for b in range(cert.extension.size):
                assert cert.hom[g(b)] == gp(cert.hom[b])
        assert verify_structural(cert)


def reference_verify_special(cert):
    """Reference for verify_special: each condition decided by closing under
    the letters, each p in P and its inverse as (partial map, phi image);
    transition-realization closes the states (word image, point) reached
    from (identity, x1), once per x1."""
    structural = verify_structural(cert)
    if not structural:
        return structural
    size = cert.extension.size
    letters = []
    for p in cert.maps:
        g = cert.phi.lookup(p)
        letters += [(dict(p.pairs), g), (dict(p.inverse().pairs), g.inverse())]
    iota = cert.phi.embedding

    reachable = closure(iota, lambda b: (g(b) for _, g in letters))
    if len(reachable) != size:
        missing = sorted(set(range(size)) - reachable)[0]
        return Verdict.failed("reachability",
                              f"point {missing} is not a word image of the inner copy")

    group = PermutationGroup.from_generators(size, [cert.phi.lookup(p) for p in cert.maps])
    for name, _ in cert.base.signature.symbols:
        covered = {tuple(g(iota[x]) for x in t)
                   for g in group.elements for t in cert.base.tuples(name)}
        stray = set(cert.extension.tuples(name)) - covered
        if stray:
            return Verdict.failed(
                "tuple-realization",
                f"{name} tuple {sorted(stray)[0]} is not a word image of an embedded tuple")

    identity = Permutation.identity(size)
    inner = {b: x for x, b in enumerate(iota)}
    for x1 in range(cert.base.size):
        realized = closure([(identity, x1)], lambda state: (
            (letter.compose(state[0]), pairs[state[1]])
            for pairs, letter in letters if state[1] in pairs))
        for g in group.elements:
            x2 = inner.get(g(iota[x1]))
            if x2 is not None and (g, x2) not in realized:
                return Verdict.failed(
                    "transition-realization",
                    f"no word with the same group image sends {x1} to {x2} "
                    f"while defined on {x1}")
    return Verdict.passed()


def changed_hom(cert, rng):
    """f with one value replaced by a random point of the base extension."""
    hom = list(cert.hom)
    hom[rng.randrange(len(hom))] = rng.randrange(cert.codomain.size)
    return dataclasses.replace(cert, hom=tuple(hom))


def added_tuple_orbit(cert, rng):
    """B with the phi-group orbit of a random tuple added, and the base
    extension with the psi-group orbit of its f-image, so that the letters
    stay automorphisms and f a homomorphism."""
    name, arity = rng.choice(cert.base.signature.symbols)
    t = tuple(rng.randrange(cert.extension.size) for _ in range(arity))

    def grown(structure, table, u):
        group = PermutationGroup.from_generators(structure.size,
                                                 [table.lookup(p) for p in cert.maps])
        rels = {n: set(structure.tuples(n)) for n, _ in structure.signature.symbols}
        rels[name] |= {tuple(g(x) for x in u) for g in group.elements}
        return Structure.make(structure.signature, structure.size, rels)
    return dataclasses.replace(cert, extension=grown(cert.extension, cert.phi, t),
                               codomain=grown(cert.codomain, cert.psi,
                                              tuple(cert.hom[x] for x in t)))


def kept_p_entries(cert, rng):
    """P cut to one to three of its maps, with their phi and psi entries."""
    keep = set(rng.sample(cert.maps, rng.randint(1, min(3, len(cert.maps)))))
    maps = tuple(p for p in cert.maps if p in keep)
    keys = {p.encode() for p in maps}

    def kept(table):
        return dataclasses.replace(table, table={k: g for k, g in table.table.items()
                                                 if k in keys})
    return dataclasses.replace(cert, maps=maps, phi=kept(cert.phi), psi=kept(cert.psi))


class TestAgainstTheReference:
    """verify_special, which reads the group and _word_classes, gives the
    verdict and message of the letter-closing reference."""

    @pytest.fixture(scope="class")
    def stored(self):
        return [parse_certificate(path.read_text(encoding="utf-8"))
                for path in sorted(STORED.glob("special-*.cert"))]

    def test_stored_files(self, stored):
        assert len(stored) == 11
        for cert in stored:
            assert verify_special(cert) == reference_verify_special(cert) == Verdict.passed()

    def test_seeded_mutants(self, stored):
        conditions = set()
        for i, cert in enumerate(stored):
            for mutate in (changed_hom, added_tuple_orbit, kept_p_entries):
                for seed in range(20):
                    mutant = mutate(cert, random.Random(f"{mutate.__name__}:{seed}:{i}"))
                    verdict = verify_special(mutant)
                    assert verdict == reference_verify_special(mutant), (i, mutate, seed)
                    conditions.add(verdict.condition)
        assert {"reachability", "tuple-realization",
                "transition-realization"} <= conditions
