"""Stagewise construction of a locally finite group chain, dense in a prefix
sense.  Stage i + 1 is a coherent EPPA extension of stage i (the faithful one
when a forbidden family of Gaifman cliques is given, so every stage stays in
its class).  Its group is generated by the lifts of stage i's group, a
homomorphism by coherence, and the extension of the first partial
automorphism that no earlier stage handled.  `ChainStage` and
`ChainCertificate` hold exactly the fields of the chain file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .amalgamation import forb_e_member
from .base_extension import base_eppa
from .coherence import PermutationGroup, Verdict
from .errors import EppaError, VerificationError
from .faithful import forb_e_eppa
from .structures import (PartialAutomorphism, Permutation, Structure,
                         automorphism_group, is_automorphism, is_embedding,
                         is_partial_automorphism)


@dataclass(frozen=True)
class ChainStage:
    structure: Structure
    group: PermutationGroup = field(hash=False)
    inclusion: tuple[int, ...] | None = None
    lifted: tuple[Permutation, ...] | None = None  # images of group.elements downstream


@dataclass(frozen=True)
class ChainCertificate:
    stages: tuple[ChainStage, ...]
    handled: tuple[tuple[int, PartialAutomorphism], ...]
    forbidden: tuple[Structure, ...] = ()


def _push_forward(p: PartialAutomorphism, inclusion: Sequence[int]) -> PartialAutomorphism:
    return PartialAutomorphism.from_map(
        {inclusion[x]: inclusion[y] for x, y in p.pairs})


def build_dlf_chain(forbidden: Sequence[Structure], stage_count: int,
                    seed: Structure) -> ChainCertificate:
    """Run `stage_count` extension stages from the seed, starting from its
    full automorphism group.  Each stage extends the first partial
    automorphism of the current structure, in canonical order, that is not
    the image of an earlier stage's target, and generates the next group
    from the lifted previous one plus that extension.  Each stage is
    extended as an input, so a stage over the point bound raises
    BoundExceededError."""
    if stage_count < 0:
        raise EppaError(f"stage count must be >= 0, got {stage_count}")
    forbidden = tuple(forbidden)
    if not forb_e_member(seed, forbidden):
        raise EppaError("seed is not free of the forbidden family")

    stages = [ChainStage(structure=seed, group=automorphism_group(seed))]
    handled: list[tuple[int, PartialAutomorphism]] = []
    taken: set[PartialAutomorphism] = set()  # the handled maps, pushed to this stage

    for stage in range(stage_count):
        current = stages[-1].structure
        if forbidden:
            cert = forb_e_eppa(current, forbidden)
            nxt, inclusion, phi = cert.structure, cert.phi.embedding, cert.phi
        else:
            cert = base_eppa(current)
            nxt, inclusion, phi = cert.extension, cert.embedding, cert.phi
        target = next((p for p in cert.part.maps if p not in taken),
                      PartialAutomorphism.empty())

        lifted = tuple(phi.lookup(PartialAutomorphism.from_map(
            {x: g(x) for x in range(current.size)}))
            for g in stages[-1].group.elements)
        next_group = PermutationGroup.from_generators(
            nxt.size, lifted + (phi.lookup(target),))

        stages[-1] = replace(stages[-1], inclusion=tuple(inclusion), lifted=lifted)
        stages.append(ChainStage(structure=nxt, group=next_group))
        handled.append((stage, target))
        taken = {_push_forward(p, inclusion) for p in taken | {target}}

    cert = ChainCertificate(stages=tuple(stages), handled=tuple(handled),
                            forbidden=forbidden)
    verdict = verify_chain(cert)
    if not verdict:
        raise VerificationError(f"chain construction failed verification: {verdict.message()}")
    return cert


def verify_chain(cert: ChainCertificate) -> Verdict:
    """Exhaustive checks, in order: subgroups, inclusions, lift
    homomorphisms (a lift is in the next group only if it has its degree;
    that group is checked one stage on), prefix density (a handled map is a
    partial automorphism of a stage with a successor, and extends into every
    later group), and freeness.  A stage group's elements are automorphisms
    listed as PermutationGroup.from_generators lists the group they
    generate, so a repeated or reordered list fails.  Distinct elements
    differ at some x, and lifts extending them through an embedding differ
    at its image of x: the lift needs no injectivity check."""
    stages = cert.stages
    for i, stage in enumerate(stages):
        group, size = stage.group, stage.structure.size
        if any(g.degree != size for g in group.elements):
            return Verdict.failed("subgroup", f"stage {i}: element degree mismatch")
        if group != PermutationGroup.from_generators(size, group.elements):
            return Verdict.failed("subgroup", f"stage {i}: elements are not the group "
                                  "they generate, in canonical order")
        for g in group.elements:
            if not is_automorphism(g.images, stage.structure):
                return Verdict.failed("subgroup",
                                      f"stage {i}: element is not an automorphism")
        if i == len(stages) - 1:
            continue
        nxt = stages[i + 1]
        if stage.inclusion is None or stage.lifted is None:
            return Verdict.failed("inclusion", f"stage {i}: missing inclusion data")
        if not is_embedding(stage.inclusion, stage.structure, nxt.structure):
            return Verdict.failed("inclusion", f"stage {i}: inclusion is not an embedding")
        if len(stage.lifted) != len(group.elements):
            return Verdict.failed("lift", f"stage {i}: lift table size mismatch")
        next_elements = set(nxt.group.elements)
        for h, img in zip(group.elements, stage.lifted):
            if img.degree != nxt.structure.size or img not in next_elements:
                return Verdict.failed("lift",
                                      f"stage {i}: lifted element leaves the next group")
            for x in range(size):
                if img(stage.inclusion[x]) != stage.inclusion[h(x)]:
                    return Verdict.failed(
                        "lift", f"stage {i}: lift of an element does not extend it")
        lookup = {g: img for g, img in zip(group.elements, stage.lifted)}
        for a in group.elements:
            for b in group.elements:
                if lookup[a].compose(lookup[b]) != lookup[a.compose(b)]:
                    return Verdict.failed(
                        "lift", f"stage {i}: lift is not a group homomorphism")
    for j, p in cert.handled:
        if not 0 <= j < len(stages) - 1:
            return Verdict.failed("density", f"map handled at stage {j}, "
                                  "which has no successor")
        if not is_partial_automorphism(stages[j].structure, p):
            return Verdict.failed("density", f"map handled at stage {j} is not "
                                  "a partial automorphism of it")
        moved = p
        for s in range(j, len(stages) - 1):
            moved = _push_forward(moved, stages[s].inclusion)
            group = stages[s + 1].group
            if not any(all(g(x) == y for x, y in moved.pairs) for g in group.elements):
                return Verdict.failed(
                    "density",
                    f"map handled at stage {j} has no extension in stage {s + 1}")
    if cert.forbidden:
        for i, stage in enumerate(stages):
            if not forb_e_member(stage.structure, cert.forbidden):
                return Verdict.failed("freeness",
                                      f"stage {i} embeds a forbidden structure")
    return Verdict.passed()
