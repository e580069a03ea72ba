import dataclasses

import pytest

from eppa.chains import ChainCertificate, ChainStage, build_dlf_chain, verify_chain
from eppa.coherence import PermutationGroup
from eppa.errors import BoundExceededError, EppaError
from eppa.structures import (PartialAutomorphism, Permutation,
                             enumerate_partial_automorphisms, graph)
from eppa.textio import emit_certificate

K2 = graph(2, [(0, 1)])
P3 = graph(3, [(0, 1), (1, 2)])
K2_K1 = graph(3, [(0, 1)])
K3 = graph(3, [(0, 1), (1, 2), (0, 2)])
PAW = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])

# sha256 digests of chains that take the base path (no forbidden family) and
# the faithful path (Forb(K3)) over seeds with a nontrivial partial map order
CHAIN_DIGESTS = (
    ((), 6, P3, "8800472108397b19aba0d648862c21c4f6a543072e3d10e9a825f4494fe4c1ee"),
    ((), 4, K2_K1, "1a979ab930817ebdbb4d5cfc2aa40c7f9191c27079ec185abfb1758d629ef3bc"),
    ((K3,), 4, P3, "caa53b7735d6359761c17868a210893c4ef21417ae97cd3e263d2bdce9f2f3e5"),
    ((K3,), 3, K2_K1, "e0d8f06e3b22d56e5d49a531f18d70084bb322102c98723a520ccc552eefee10"),
)


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

    def test_stage_over_the_point_bound_is_refused(self):
        # the paw's first stage is its 32-point scaffold, which the second
        # stage takes as an input over the default bound of 12 points
        with pytest.raises(BoundExceededError) as refused:
            build_dlf_chain([], 2, PAW)
        assert str(refused.value) == "structure a needs 32 points, over the bound 12"

    @pytest.mark.parametrize("forbidden,stages,seed,digest", CHAIN_DIGESTS)
    def test_pinned_digest(self, forbidden, stages, seed, digest):
        text = emit_certificate(build_dlf_chain(forbidden, stages, seed))
        assert text.rstrip("\n").rsplit("\n", 1)[1] == f"digest {digest}"


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
        broken = PermutationGroup(3, first.group.elements + (rotation,))
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


    def test_canonical_non_automorphism_group_detected(self, path3):
        # the rotations form a group, listed in canonical order, but are not
        # automorphisms of the path
        cert = build_dlf_chain([], 1, path3)
        rotations = PermutationGroup.from_generators(3, [Permutation((1, 2, 0))])
        stages = (dataclasses.replace(cert.stages[0], group=rotations),) + cert.stages[1:]
        verdict = verify_chain(dataclasses.replace(cert, stages=stages))
        assert verdict.message() == "subgroup: stage 0: element is not an automorphism"

    @pytest.mark.parametrize("edit, message", [
        (dict(inclusion=None), "inclusion: stage 0: missing inclusion data"),
        (dict(lifted=None), "inclusion: stage 0: missing inclusion data"),
        (dict(inclusion=(0, 0)), "inclusion: stage 0: inclusion is not an embedding"),
    ])
    def test_inclusion_failures_detected(self, k2, edit, message):
        cert = build_dlf_chain([], 1, k2)
        stages = (dataclasses.replace(cert.stages[0], **edit),) + cert.stages[1:]
        assert verify_chain(dataclasses.replace(cert, stages=stages)).message() == message

    def test_short_lift_table_detected(self, k2):
        cert = build_dlf_chain([], 1, k2)
        stage0 = dataclasses.replace(cert.stages[0], lifted=cert.stages[0].lifted[:-1])
        verdict = verify_chain(dataclasses.replace(cert, stages=(stage0,) + cert.stages[1:]))
        assert verdict.message() == "lift: stage 0: lift table size mismatch"

    def test_lift_that_is_not_a_homomorphism_detected(self):
        # K1 inside three isolated points: the transposition (1 2) fixes the
        # included point, so as the lift of the identity it extends it and
        # lies in the next group, yet its square is not itself
        swap = Permutation((0, 2, 1))
        cert = ChainCertificate(stages=(
            ChainStage(graph(1, []), PermutationGroup.from_generators(1, []),
                       inclusion=(0,), lifted=(swap,)),
            ChainStage(graph(3, []), PermutationGroup.from_generators(3, [swap]))),
            handled=())
        verdict = verify_chain(cert)
        assert verdict.message() == "lift: stage 0: lift is not a group homomorphism"

    def test_handled_map_without_later_extension_detected(self):
        # the next group holds only the lifts of Aut(P3) = {id, (0 2)}, so no
        # element sends the image of 0 to the image of 1
        cert = build_dlf_chain([], 1, P3)
        handled = cert.handled + ((0, PartialAutomorphism.decode("0>1")),)
        verdict = verify_chain(dataclasses.replace(cert, handled=handled))
        assert verdict.message() == ("density: map handled at stage 0 has no "
                                     "extension in stage 1")

    def test_forbidden_structure_in_a_stage_detected(self, k2):
        cert = build_dlf_chain([], 1, k2)
        verdict = verify_chain(dataclasses.replace(cert, forbidden=(k2,)))
        assert verdict.message() == "freeness: stage 0 embeds a forbidden structure"


def chain_body(seed) -> str:
    """The body (all lines but the digest) of the 1-stage chain over seed."""
    return emit_certificate(build_dlf_chain([], 1, seed)).rsplit("\ndigest ", 1)[0]


class TestHostileChainFile:
    """Canonical, correctly stamped chain files whose data do not fit
    together: each is rejected with a named condition, never a traceback."""

    @pytest.mark.parametrize("seed, edits, condition", [
        # an element of the wrong degree, before any composition
        (K2, [("gelem 0 : 1 0\n", "gelem 0 : 1 0\ngelem 0 : 1 0 2\n")], "subgroup"),
        # a handled map with points outside its stage
        (K2, [("handled 0 : -", "handled 0 : -\nhandled 0 : 5>5")], "density"),
        # a lift of the wrong degree that the next group lists
        (P3, [("lift 0 1 : 2 1 0 3", "lift 0 1 : 2 1 0"),
              ("gelem 1 : 2 1 0 3", "gelem 1 : 2 1 0\ngelem 1 : 2 1 0 3")], "lift"),
        # a handled map at the last stage, which has no successor
        (K2, [("handled 0 : -", "handled 3 : -")], "density"),
        (K2, [("handled 0 : -", "handled 1 : -")], "density"),
        # a handled map that is not a partial automorphism of its stage
        (P3, [("handled 0 : -", "handled 0 : 0>0,2>1")], "density"),
        # the last stage's elements out of canonical order, or one repeated
        (K2, [("gelem 1 : 0 1\ngelem 1 : 1 0", "gelem 1 : 1 0\ngelem 1 : 0 1")], "subgroup"),
        (K2, [("gelem 1 : 1 0", "gelem 1 : 1 0\ngelem 1 : 1 0")], "subgroup"),
    ])
    def test_rejected_by_name(self, seed, edits, condition, stamp, run_verify):
        body = chain_body(seed)
        for old, new in edits:
            assert old in body
            body = body.replace(old, new, 1)
        code, out, err = run_verify(stamp(body.split("\n")))
        assert (code, out.split()[:2]) == (2, ["fail", condition]), (out, err)

