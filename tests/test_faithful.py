import dataclasses
import itertools
import math
import sys

import pytest

from eppa import config, faithful
from eppa.base_extension import (BaseEppaCertificate, base_eppa,
                                  verify_base_certificate)
from eppa.coherence import ExtensionMap, coherent_triples
from eppa.errors import BoundExceededError, EppaError
from eppa.faithful import (FaithfulCertificate, ValuedPoint, _cliques,
                           build_valued_extension, clique_faithful_extension, enumerate_cliques,
                           forb_e_eppa, generic_subsets, hat_extend, is_generic,
                           large_sets, projection_is_small,
                           value_permutation, verify_faithful_view)
from eppa.structures import (PartialAutomorphism, Permutation, Signature, Structure,
                             graph, enumerate_partial_automorphisms, is_embedding,
                             is_gaifman_clique)
from eppa.textio import emit_certificate, parse_certificate, verify_certificate


def single_in_k2_cert():
    """Hand fixture: one vertex embedded in an edge, identity assignments."""
    k2 = graph(2, [(0, 1)])
    single = graph(1, [])
    ident = Permutation.identity(2)
    phi = ExtensionMap(1, 2, (0,), {"-": ident, "0>0": ident})
    return BaseEppaCertificate(base=single, extension=k2, phi=phi)


def two_points_in_four_cert(base, extension):
    """Hand fixture: A on {0, 1} embedded as (0, 1) in a 4-point B; the maps
    that swap 0 and 1 extend to the transposition of 0 and 1, the others to
    the identity."""
    ident = Permutation.identity(4)
    swap = Permutation((1, 0, 2, 3))
    table = {key: ident for key in ("-", "0>0", "1>1", "0>0,1>1")}
    table.update({key: swap for key in ("0>1", "1>0", "0>1,1>0")})
    phi = ExtensionMap(2, 4, (0, 1), table)
    cert = BaseEppaCertificate(base=base, extension=extension, phi=phi)
    assert verify_base_certificate(cert)
    return cert


# certificates whose large-set family has several sets, not all containing
# every point: (A, B, size cap, |family|, |C|, |E of C|, digest)
MULTI_SET_CERTIFICATES = [
    ("2K1-in-4K1", graph(2, []), graph(4, []), None, 5, 96, 0,
     "d543cbec4afec80fc221d4a0386072ddce05811378a7679bf831f4c467e09a6f"),
    ("2K1-in-4K1-cap3", graph(2, []), graph(4, []), 3, 4, 32, 0,
     "5b03848c088c47c0123efbd2fa36d854b8305f399650ab5904056321eba05bba"),
    ("K2-in-2K2", graph(2, [(0, 1)]), graph(4, [(0, 1), (2, 3)]), None, 9, 96, 384,
     "dfffdfbf6bc28ab2d841d17d54d880509bf160a522f581567d7b1482b1f462ad"),
    ("K2-in-2K2-cap3", graph(2, [(0, 1)]), graph(4, [(0, 1), (2, 3)]), 3, 8, 32, 64,
     "91eed5b31a4383afadb34122ce995a31e79e32905dfbebc3dca1c1dac9a7b32c"),
]


@pytest.fixture(scope="module", params=MULTI_SET_CERTIFICATES,
                ids=[row[0] for row in MULTI_SET_CERTIFICATES])
def multi_set(request):
    """(row, certificate) for each multi-set fixture."""
    _, base, extension, cap = request.param[:4]
    base_cert = two_points_in_four_cert(base, extension)
    return request.param, clique_faithful_extension(base, size_cap=cap, base_cert=base_cert)


def test_multi_set_certificate_digest(multi_set):
    (_, _, _, _, sets, points, arcs, digest), cert = multi_set
    assert len(cert.extension.family.sets) == sets
    assert cert.structure.size == points
    assert len(cert.structure.tuples("E")) == arcs
    text = emit_certificate(cert)
    assert text.rstrip("\n").rsplit(" ", 1)[1] == digest
    assert verify_certificate(parse_certificate(text))


def test_values_are_total_valuations(multi_set):
    # one value per listed set, 0 exactly on the sets the owner lies outside
    _, cert = multi_set
    family = cert.extension.family
    for pt in cert.extension.points:
        assert len(pt.values) == len(family.sets)
        for u, value in zip(family.sets, pt.values):
            assert (value == 0) == (not u >> pt.owner & 1)


class TestLargeSets:
    def test_k2_over_one_point(self):
        cert = single_in_k2_cert()
        family = large_sets(cert.extension, cert.embedding)
        assert family.sets == (0b11,)

    def test_everything_large_over_empty_inner(self, k2):
        family = large_sets(k2, ())
        assert sorted(family.sets) == [0b01, 0b10, 0b11]

    def test_nothing_large_when_inner_is_everything(self, k2):
        family = large_sets(k2, (0, 1))
        assert family.sets == ()

    def test_family_closed_under_automorphisms(self, path3):
        cert = base_eppa(path3)
        family = large_sets(cert.extension, cert.embedding)
        for g in family.aut.elements:
            for idx in range(len(family.sets)):
                family.image_index(g, idx)  # raises if the image is missing


class TestGenericity:
    def test_singletons_generic(self):
        cert = single_in_k2_cert()
        family = large_sets(cert.extension, cert.embedding)
        pt = ValuedPoint(owner=0, values=(1,))
        assert is_generic([pt], family)

    def test_fixture_pair_not_generic(self):
        cert = single_in_k2_cert()
        family = large_sets(cert.extension, cert.embedding)
        a = ValuedPoint(owner=0, values=(1,))
        b = ValuedPoint(owner=1, values=(1,))
        assert not is_generic([a, b], family)

    def test_subsets_of_generic_sets_are_generic(self, path3):
        fc = clique_faithful_extension(path3)
        ext = fc.extension
        nu_pts = [ext.points[i] for i in ext.nu]
        assert is_generic(nu_pts, ext.family)
        for k in range(len(nu_pts) + 1):
            for combo in itertools.combinations(nu_pts, k):
                assert is_generic(list(combo), ext.family)


class TestBuildValuedExtension:
    def test_fixture_two_points_no_edge(self):
        cert = single_in_k2_cert()
        family = large_sets(cert.extension, cert.embedding)
        ext = build_valued_extension(cert.extension, cert.embedding, family)
        assert ext.structure.size == 2
        assert ext.structure.tuples("E") == ()
        assert ext.points[ext.nu[0]] == ValuedPoint(owner=0, values=(1,))

    def test_degenerate_family_copies_extension(self, k3):
        cert = base_eppa(k3)
        assert cert.extension == k3
        family = large_sets(cert.extension, cert.embedding)
        assert family.sets == ()
        ext = build_valued_extension(cert.extension, cert.embedding, family)
        assert ext.structure.size == k3.size
        assert sorted(ext.structure.tuples("E")) == sorted(k3.tuples("E"))

    def test_counting_oracle_empty_inner(self):
        # two isolated points over an empty inner copy: the closed-form
        # size sum over owners of products of (|u| - 1) is zero, since the
        # singleton large sets contribute empty value ranges
        two = graph(2, [])
        phi = ExtensionMap(0, 2, (), {"-": Permutation.identity(2)})
        cert = BaseEppaCertificate(base=graph(0, []), extension=two, phi=phi)
        family = large_sets(two, ())
        expected = 0
        for b in range(2):
            prod = 1
            for u in family.sets:
                if u >> b & 1:
                    prod *= bin(u).count("1") - 1
            expected += prod
        ext = build_valued_extension(cert.extension, cert.embedding, family)
        assert expected == 0
        assert ext.structure.size == expected

    def test_relation_budget_is_charged_before_any_tuple(self, path3, monkeypatch):
        # the budget counts, over every tuple of B, the combinations of the
        # points over its entries, and the whole sum is charged first
        cert = base_eppa(path3)
        family = large_sets(cert.extension, cert.embedding)
        owners = [pt.owner for pt in
                  build_valued_extension(cert.extension, cert.embedding, family).points]
        total = sum(math.prod(map(owners.count, t)) for t in cert.extension.tuples("E"))
        monkeypatch.setattr(config, "VALUED_MAX_COMBINATIONS", total)
        build_valued_extension(cert.extension, cert.embedding, family)

        def built(points, family):
            raise AssertionError("a tuple of C was built")
        monkeypatch.setattr(config, "VALUED_MAX_COMBINATIONS", total - 1)
        monkeypatch.setattr(faithful, "is_generic", built)
        with pytest.raises(BoundExceededError) as refused:
            build_valued_extension(cert.extension, cert.embedding, family)
        assert str(refused.value) == (f"relation materialization of C needs {total} "
                                      f"tuple combinations, over the bound {total - 1}")

    def test_nu_is_generic_embedding(self, path3):
        fc = clique_faithful_extension(path3)
        ext = fc.extension
        assert is_embedding(ext.nu, path3, ext.structure)
        assert is_generic([ext.points[i] for i in ext.nu], ext.family)


def theta(p, g, idx, extension):
    """Value permutation of the set at `idx` induced by a partial automorphism
    of A (through the canonical embedding) and an extension g of it on B."""
    pairs = [(extension.points[extension.nu[x]], extension.points[extension.nu[y]])
             for x, y in p.pairs]
    return value_permutation(pairs, g, extension.family, idx)


class TestTheta:
    def setup_method(self):
        path3 = graph(3, [(0, 1), (1, 2)])
        self.base_cert = base_eppa(path3)
        self.fc = clique_faithful_extension(path3, base_cert=self.base_cert)
        self.ext = self.fc.extension
        assert len(self.ext.family.sets) >= 1

    def test_fixes_zero(self):
        for p in enumerate_partial_automorphisms(self.base_cert.base):
            g = self.base_cert.phi.lookup(p)
            for idx in range(len(self.ext.family.sets)):
                assert theta(p, g, idx, self.ext)(0) == 0

    def test_identity_inputs_give_identity(self):
        ident_p = PartialAutomorphism.identity_on(range(3))
        g = self.base_cert.phi.lookup(ident_p)
        for idx in range(len(self.ext.family.sets)):
            perm = theta(ident_p, g, idx, self.ext)
            assert perm == Permutation.identity(perm.degree)

    def test_empty_map_gives_identity(self):
        empty = PartialAutomorphism.empty()
        ident = Permutation.identity(self.base_cert.extension.size)
        for idx in range(len(self.ext.family.sets)):
            perm = theta(empty, ident, idx, self.ext)
            assert perm == Permutation.identity(perm.degree)

    def test_composition_identity_on_values(self):
        # the per-set value permutations compose along coherent triples, in
        # both the realized-value and the completed-value regime
        maps = enumerate_partial_automorphisms(self.base_cert.base)
        family = self.ext.family
        for p1, p2, q in coherent_triples(maps):
            g1 = self.base_cert.phi.lookup(p1)
            g2 = self.base_cert.phi.lookup(p2)
            gq = self.base_cert.phi.lookup(q)
            assert gq == g1.compose(g2)
            for idx in range(len(family.sets)):
                mid = family.image_index(g2, idx)
                lhs = theta(q, gq, idx, self.ext)
                rhs = theta(p1, g1, mid, self.ext).compose(theta(p2, g2, idx, self.ext))
                assert lhs == rhs

    def test_realized_and_unrealized_values(self):
        p = PartialAutomorphism.from_map({0: 2})
        g = self.base_cert.phi.lookup(p)
        idx = 0
        perm = theta(p, g, idx, self.ext)
        src = self.ext.points[self.ext.nu[0]]
        dst = self.ext.points[self.ext.nu[2]]
        realized = src.values[idx]
        target = dst.values[self.ext.family.image_index(g, idx)]
        if realized:
            assert perm(realized) == target
        rest_src = [v for v in range(1, perm.degree) if v != realized]
        rest_dst = [v for v in range(1, perm.degree) if v != target]
        assert [perm(v) for v in rest_src] == rest_dst  # order preserving


class TestHatExtend:
    def test_identity(self, path3):
        base_cert = base_eppa(path3)
        fc = clique_faithful_extension(path3, base_cert=base_cert)
        ident_p = PartialAutomorphism.identity_on(range(3))
        pairs = [(fc.extension.points[fc.extension.nu[x]],
                  fc.extension.points[fc.extension.nu[x]]) for x in range(3)]
        g = base_cert.phi.lookup(ident_p)
        perm = hat_extend(pairs, g, fc.extension)
        assert perm == Permutation.identity(fc.structure.size)

    def test_fixture_swap(self):
        cert = single_in_k2_cert()
        family = large_sets(cert.extension, cert.embedding)
        ext = build_valued_extension(cert.extension, cert.embedding, family)
        swap = Permutation((1, 0))
        perm = hat_extend([], swap, ext)
        assert perm.images == (1, 0)
        assert is_embedding(perm.images, ext.structure, ext.structure)

    def test_extends_through_nu(self, path3):
        fc = clique_faithful_extension(path3)
        ext = fc.extension
        for p in enumerate_partial_automorphisms(path3):
            perm = fc.phi.lookup(p)
            for x, y in p.pairs:
                assert perm(ext.nu[x]) == ext.nu[y]
            assert is_embedding(perm.images, ext.structure, ext.structure)


class TestPipeline:
    def test_single_vertex_trivial(self):
        fc = clique_faithful_extension(graph(1, []))
        assert fc.structure.size == 1
        assert verify_faithful_view(fc)

    def test_fixture_via_base_override(self):
        fc = clique_faithful_extension(graph(1, []), base_cert=single_in_k2_cert())
        assert fc.structure.size == 2
        assert fc.structure.tuples("E") == ()
        assert verify_faithful_view(fc)
        # every clique is a single point and lands inside nu(A)
        for clique, witness in fc.clique_witnesses.items():
            assert len(clique) == 1
            assert witness(clique[0]) in set(fc.extension.nu)

    def test_base_override_for_another_structure_is_refused(self):
        with pytest.raises(EppaError, match="different structure"):
            clique_faithful_extension(graph(2, []), base_cert=single_in_k2_cert())

    def test_small_graphs_verified(self, graphs_up_to_3):
        for structure in graphs_up_to_3:
            fc = clique_faithful_extension(structure)
            assert verify_faithful_view(fc)

    def test_cliques_of_c_are_generic(self, path3):
        fc = clique_faithful_extension(path3)
        for clique in enumerate_cliques(fc.structure):
            assert is_generic([fc.extension.points[i] for i in clique],
                              fc.extension.family)

    def test_mixed_signature_pipeline(self):
        from eppa.structures import Signature, Structure
        sig = Signature.make(("U", 1), ("E", 2))
        mixed = Structure.make(sig, 2, {"U": [(0,)], "E": [(0, 1), (1, 0)]})
        fc = clique_faithful_extension(mixed)
        assert verify_faithful_view(fc)

    def test_digraph_pipeline(self):
        from eppa.structures import GRAPH_SIGNATURE, Structure
        arc = Structure.make(GRAPH_SIGNATURE, 2, {"E": [(0, 1)]})
        fc = clique_faithful_extension(arc)
        assert verify_faithful_view(fc)


class TestForbE:
    def test_path_stays_triangle_free(self, path3, k3):
        from eppa.amalgamation import exists_embedding
        fc = forb_e_eppa(path3, [k3])
        assert exists_embedding(k3, fc.structure) is None
        assert verify_faithful_view(fc)

    def test_rejects_non_free_input(self, k3):
        with pytest.raises(EppaError):
            forb_e_eppa(k3, [k3])

    def test_rejects_non_clique_forbidder(self, path3):
        with pytest.raises(EppaError):
            forb_e_eppa(graph(2, []), [path3])

    def test_negative_size_cap_is_refused(self, k2, k3):
        # at -1 the certificate would carry a size cap its own file format refuses
        for build in (lambda: clique_faithful_extension(k2, size_cap=-1),
                      lambda: forb_e_eppa(k2, [k3], size_cap=-1)):
            with pytest.raises(EppaError, match="size cap"):
                build()

    def test_part_listed_once_per_call(self, graphs_up_to_3, graphs_up_to_4, k2, k3,
                                       path3, monkeypatch):
        """The pipeline lists Part(A) once, for the base extension, its own
        table and the verifier, all reading the base certificate's groupoid,
        which the faithful certificate carries on; a certificate that carries
        none lists its own.  A chain stage lists it once, and reads its
        target map from its certificate: the free workload's constructions
        make 25 listings."""
        from eppa import base_extension
        from eppa.amalgamation import forb_e_member
        from eppa.chains import build_dlf_chain
        calls = []

        def counted(structure):
            calls.append(structure)
            return enumerate_partial_automorphisms(structure)
        monkeypatch.setattr(base_extension, "enumerate_partial_automorphisms", counted)
        free = [g for g in graphs_up_to_4 if forb_e_member(g, [k3])]
        assert len(free) == 13
        refused = listed = 0
        for structure in free:
            calls.clear()
            try:
                fc = forb_e_eppa(structure, [k3])
            except BoundExceededError:  # P3+K1: Aut(B) is over the degree bound
                refused += 1
                assert calls == [structure]
                listed += 1
                continue
            assert calls == [structure]
            listed += 1
            assert verify_faithful_view(fc)
            assert calls == [structure]
            assert verify_faithful_view(dataclasses.replace(fc))
            assert calls == [structure, structure]
        assert refused == 1
        with pytest.raises(TypeError):
            verify_faithful_view(fc, calls[0])
        calls.clear()
        for structure in graphs_up_to_3:
            clique_faithful_extension(structure)
        assert calls == graphs_up_to_3
        listed += len(calls)
        for seed, stages in ((k2, 2), (path3, 3)):
            calls.clear()
            cert = build_dlf_chain([k3], stages, seed)
            assert calls == [stage.structure for stage in cert.stages[:-1]]
            listed += len(calls)
        assert listed == 25

    def test_verifier_applies_the_point_bound(self):
        # 13 points, each alone in its own unary relation: Part(A) is the
        # 2^13 identity maps, which the verifier refuses to list
        n = 13
        a = Structure.make(Signature.make(*((f"U{i}", 1) for i in range(n))), n,
                           {f"U{i}": [(i,)] for i in range(n)})
        ident = Permutation.identity(n)
        cert = FaithfulCertificate(
            base=a, base_extension=a, structure=a, base_embedding=ident.images,
            phi=ExtensionMap(n, n, ident.images, {"-": ident}), clique_witnesses={})
        with pytest.raises(BoundExceededError,
                           match="^structure a needs 13 points, over the bound 12$"):
            verify_faithful_view(cert)

    def test_forbidden_edge_gives_edgeless_extension(self, k2):
        fc = forb_e_eppa(graph(1, []), [k2])
        assert fc.structure.tuples("E") == ()


class TestVerifierConditions:
    """verify_faithful_view on a path certificate with one field edited:
    each edit breaks exactly one condition, and the verdict names it."""

    @pytest.mark.parametrize("edit, message", [
        (lambda fc: dict(base_embedding=(0, 0, 1)),
         "embedding: A is not induced in the base extension"),
        (lambda fc: dict(phi=ExtensionMap(3, fc.structure.size, (0, 0, 8), fc.phi.table)),
         "embedding: nu is not an embedding of A into C"),
        (lambda fc: dict(clique_witnesses={**fc.clique_witnesses,
                                           (1, 0): fc.clique_witnesses[(0,)]}),
         "clique: (1, 0) is not a Gaifman clique of C"),
        (lambda fc: dict(clique_witnesses={
            **fc.clique_witnesses, (1,): Permutation.identity(fc.structure.size)}),
         "clique-witness: witness for (1,) does not map into nu(A)"),
        (lambda fc: dict(clique_witnesses={k: v for k, v in fc.clique_witnesses.items()
                                           if k != (0,)}),
         "clique-cover: no witness recorded for clique (0,)"),
        (lambda fc: dict(forbidden=(graph(2, [(0, 1)]),)),
         "freeness: forbidden structure embeds at "),
    ])
    def test_edit_fails_its_condition(self, path3, edit, message):
        fc = clique_faithful_extension(path3)
        assert fc.phi.embedding == (0, 4, 8)
        verdict = verify_faithful_view(dataclasses.replace(fc, **edit(fc)))
        assert verdict.message().startswith(message), verdict.message()


class TestGenericProjections:
    def test_generic_sets_project_small(self, graphs_up_to_3):
        for structure in graphs_up_to_3:
            fc = clique_faithful_extension(structure)
            for subset in generic_subsets(fc.extension, fc.size_cap):
                assert projection_is_small(fc.extension, subset)

    def test_value_permutation_requires_compatible_map(self):
        cert = single_in_k2_cert()
        family = large_sets(cert.extension, cert.embedding)
        ext = build_valued_extension(cert.extension, cert.embedding, family)
        a = ext.points[0]
        with pytest.raises(EppaError):
            value_permutation([(a, a)], Permutation((1, 0)), family, 0)


def brute_force_sets(n, accepts, cap):
    """Every nonempty subset of range(n) of at most `cap` points that
    `accepts` takes, sorted."""
    top = n if cap is None else min(cap, n)
    return sorted(c for k in range(1, top + 1)
                  for c in itertools.combinations(range(n), k) if accepts(c))


@pytest.fixture(scope="module")
def small_faithful():
    """Faithful certificates of P3, K2 and 3K1."""
    return [clique_faithful_extension(g)
            for g in (graph(3, [(0, 1), (1, 2)]), graph(2, [(0, 1)]), graph(3, []))]


class TestCliqueSearch:
    """`enumerate_cliques` and `generic_subsets` against brute force over all
    subsets, order included."""

    HU = Structure.make(Signature.make(("H", 3), ("U", 1)), 5,
                        {"H": [(0, 1, 2), (1, 3, 4)], "U": [(4,)]})

    @pytest.mark.parametrize("cap", [None, 0, 1, 2, 3])
    def test_cliques_match_brute_force(self, cap, graphs_up_to_4, small_faithful):
        faithful = [fc.structure for fc in small_faithful]
        for structure in [graph(0, [])] + graphs_up_to_4 + [self.HU] + faithful:
            expected = brute_force_sets(
                structure.size, lambda c: is_gaifman_clique(structure, c), cap)
            assert enumerate_cliques(structure, cap) == expected

    @pytest.mark.parametrize("cap", [None, 0, 1, 2, 3])
    def test_generic_subsets_match_brute_force(self, cap, small_faithful):
        for ext in (fc.extension for fc in small_faithful):
            expected = brute_force_sets(
                len(ext.points),
                lambda c: is_generic([ext.points[i] for i in c], ext.family), cap)
            assert generic_subsets(ext, cap) == expected

    def test_deep_listing_is_refused_by_its_bound_not_the_stack(self):
        # every point adjacent to every other: a recursive search would go
        # one frame deeper per clique point and end in RecursionError
        n = sys.getrecursionlimit() + 100
        with pytest.raises(BoundExceededError, match="^clique listing needs [0-9]+ listed points, "
                                                     f"over the bound {config.CLIQUE_MAX_POINTS}$"):
            _cliques(n, lambda u, v: True, None)

    def test_listing_within_the_bound_is_complete(self, monkeypatch):
        # K5 has 31 cliques holding 80 points in all; the 31st passes 79
        k5 = graph(5, list(itertools.combinations(range(5), 2)))
        monkeypatch.setattr(config, "CLIQUE_MAX_POINTS", 80)
        assert len(enumerate_cliques(k5)) == 31
        monkeypatch.setattr(config, "CLIQUE_MAX_POINTS", 79)
        with pytest.raises(BoundExceededError,
                           match="^clique listing needs 80 listed points, over the bound 79$"):
            enumerate_cliques(k5)
