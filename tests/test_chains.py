import dataclasses

import pytest

from eppa.chains import build_dlf_chain, eppa_from_group, verify_chain
from eppa.coherence import PermutationGroup
from eppa.errors import EppaError
from eppa.structures import (Permutation, graph, automorphism_group,
                             enumerate_partial_automorphisms)


class TestBuildChain:
    def test_zero_stages(self, k2):
        cert = build_dlf_chain([], 0, k2)
        assert len(cert.stages) == 1
        assert cert.stages[0].structure == k2
        assert len(cert.stages[0].group) == 2
        assert cert.handled == ()

    def test_single_vertex_one_stage(self):
        seed = graph(1, [])
        cert = build_dlf_chain([], 1, seed)
        assert verify_chain(cert)
        assert len(cert.handled) == 1
        stage, p = cert.handled[0]
        assert stage == 0 and p.encode() == "-"

    def test_k2_triangle_free_two_stages(self, k2, k3):
        cert = build_dlf_chain([k3], 2, k2)
        assert verify_chain(cert)
        assert len(cert.stages) == 3
        from eppa.amalgamation import forb_e_member
        for stage in cert.stages:
            assert forb_e_member(stage.structure, [k3])

    def test_interleaved_enumeration_advances(self, k2):
        cert = build_dlf_chain([], 3, k2)
        keys = [p.encode() for _, p in cert.handled]
        assert keys == sorted(set(keys), key=keys.index)
        assert len(set(keys)) == 3

    def test_rejects_seed_outside_class(self, k3):
        with pytest.raises(EppaError):
            build_dlf_chain([k3], 1, k3)


class TestVerifyChain:
    def test_corrupted_lift_detected(self, k2, k3):
        cert = build_dlf_chain([k3], 1, k2)
        stage0 = cert.stages[0]
        bad = list(stage0.lifted)
        group1 = cert.stages[1].group
        candidates = [g for g in group1.elements if g != bad[0]]
        bad[0] = candidates[0]
        stages = (dataclasses.replace(stage0, lifted=tuple(bad)),) + cert.stages[1:]
        verdict = verify_chain(dataclasses.replace(cert, stages=stages))
        assert not verdict
        assert verdict.condition == "lift"

    def test_non_closed_group_detected(self, path3):
        cert = build_dlf_chain([], 1, path3)
        first = cert.stages[0]
        rotation = Permutation((1, 2, 0))  # not an automorphism of a path
        broken = PermutationGroup(3, first.group.elements + (rotation,),
                                  first.group.generators)
        stages = (dataclasses.replace(first, group=broken),) + cert.stages[1:]
        verdict = verify_chain(dataclasses.replace(cert, stages=stages))
        assert not verdict
        assert verdict.condition == "subgroup"

    def test_density_failure_detected(self, k2):
        cert = build_dlf_chain([], 1, k2)
        handled = cert.handled + ((0, enumerate_partial_automorphisms(k2)[-1]),)
        stage1 = cert.stages[1]
        ident_only = PermutationGroup.from_generators(stage1.group.degree, [])
        stages = (cert.stages[0],) + (dataclasses.replace(stage1, group=ident_only),)
        tampered = dataclasses.replace(cert, stages=stages, handled=handled)
        verdict = verify_chain(tampered)
        assert not verdict
        assert verdict.condition in ("density", "lift")


class TestEppaFromGroup:
    def test_k2_over_one_point(self, k2):
        group = automorphism_group(k2)
        result = eppa_from_group(k2, [0], group)
        assert result.extension == k2
        maps = enumerate_partial_automorphisms(result.inner)
        assert {p.encode() for p in maps} == {"-", "0>0"}
        for p in maps:
            g = result.phi.lookup(p)
            for x, y in p.pairs:
                assert g(result.phi.embed(x)) == result.phi.embed(y)

    def test_trivial_group_requires_identity_compatible_maps(self, k2):
        trivial = PermutationGroup.from_generators(2, [])
        with pytest.raises(EppaError):
            eppa_from_group(k2, [0, 1], trivial)

    def test_four_cycle_from_one_vertex(self):
        c4 = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        group = automorphism_group(c4)
        result = eppa_from_group(c4, [0], group)
        assert result.extension.size == 4
        assert len(result.phi.table) == 2

    def test_extension_is_group_invariant(self):
        c4 = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        group = automorphism_group(c4)
        result = eppa_from_group(c4, [0, 1], group)
        pts = set(result.extension_points)
        for g in group.elements:
            assert {g(x) for x in pts} == pts

    def test_coherence_status_is_reported(self, k2):
        group = automorphism_group(k2)
        result = eppa_from_group(k2, [0], group)
        assert result.coherent is not None
