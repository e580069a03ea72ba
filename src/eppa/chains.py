"""Stagewise construction of a locally finite group chain that is dense in a
prefix sense: every enumerated partial automorphism is eventually extended by
a member of the current stage group, and the extension homomorphisms lift
each group into the next stage.

With a nonempty forbidden family of Gaifman cliques each stage stays inside
the corresponding embedding-free class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .base_extension import base_eppa
from .coherence import ExtensionMap, PermutationGroup, Verdict
from .errors import BoundExceededError, EppaError
from .faithful import forb_e_eppa
from .structures import (PartialAutomorphism, Permutation, Structure,
                         automorphism_group, enumerate_partial_automorphisms,
                         induced_substructure, is_automorphism, is_embedding)

MAX_STAGE_SIZE = 64  # a stage structure larger than this is not extended further


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
    full automorphism group.  Each stage extends the first unhandled partial
    automorphism of the current structure (in canonical order, interleaving
    newly available maps) and generates the next group from the lifted
    previous one plus that extension."""
    if stage_count < 0:
        raise EppaError(f"stage count must be >= 0, got {stage_count}")
    forbidden = tuple(forbidden)
    from .amalgamation import forb_e_member
    if not forb_e_member(seed, forbidden):
        raise EppaError("seed is not free of the forbidden family")

    stages: list[dict] = [{"structure": seed, "group": automorphism_group(seed)}]
    handled: list[tuple[int, PartialAutomorphism]] = []

    for stage in range(stage_count):
        current: Structure = stages[-1]["structure"]
        if current.size > MAX_STAGE_SIZE:
            raise BoundExceededError(
                f"stage structure grew to {current.size} points (bound {MAX_STAGE_SIZE})")
        taken = set()
        for j, p in handled:
            moved = p
            for k in range(j, stage):
                moved = _push_forward(moved, stages[k]["inclusion"])
            taken.add(moved.encode())
        target = None
        for p in enumerate_partial_automorphisms(current):
            if p.encode() not in taken:
                target = p
                break
        if target is None:
            target = PartialAutomorphism.empty()

        if forbidden:
            cert = forb_e_eppa(current, forbidden)
            nxt, inclusion, phi = cert.structure, cert.phi.embedding, cert.phi
        else:
            cert = base_eppa(current)
            nxt, inclusion, phi = cert.extension, cert.embedding, cert.phi

        lifted = tuple(phi.lookup(PartialAutomorphism.from_map(
            {x: g(x) for x in range(current.size)}))
            for g in stages[-1]["group"].elements)
        generators = list(lifted) + [phi.lookup(target)]
        next_group = PermutationGroup.from_generators(nxt.size, generators)

        stages[-1]["inclusion"] = tuple(inclusion)
        stages[-1]["lifted"] = lifted
        handled.append((stage, target))
        stages.append({"structure": nxt, "group": next_group})

    built = tuple(
        ChainStage(structure=s["structure"], group=s["group"],
                   inclusion=s.get("inclusion"), lifted=s.get("lifted"))
        for s in stages)
    cert = ChainCertificate(stages=built, handled=tuple(handled),
                            forbidden=forbidden)
    verdict = verify_chain(cert)
    if not verdict:
        raise EppaError(f"chain construction failed verification: {verdict.message()}")
    return cert


def verify_chain(cert: ChainCertificate) -> Verdict:
    """Exhaustive stage checks: subgroup property, injective extension
    homomorphisms, prefix density of handled maps, and freeness."""
    from .amalgamation import forb_e_member
    stages = cert.stages
    for i, stage in enumerate(stages):
        group = stage.group
        if group.degree != stage.structure.size:
            return Verdict.failed("subgroup", f"stage {i}: group degree mismatch")
        if not group.is_closed():
            return Verdict.failed("subgroup", f"stage {i}: element list is not a group")
        for g in group.elements:
            if not is_automorphism(g.images, stage.structure):
                return Verdict.failed("subgroup",
                                      f"stage {i}: element is not an automorphism")
        last = i == len(stages) - 1
        if last:
            continue
        nxt = stages[i + 1]
        if stage.inclusion is None or stage.lifted is None:
            return Verdict.failed("inclusion", f"stage {i}: missing inclusion data")
        if not is_embedding(stage.inclusion, stage.structure, nxt.structure):
            return Verdict.failed("inclusion", f"stage {i}: inclusion is not an embedding")
        if len(stage.lifted) != len(group.elements):
            return Verdict.failed("lift", f"stage {i}: lift table size mismatch")
        images = {}
        next_elements = set(nxt.group.elements)
        for h, img in zip(group.elements, stage.lifted):
            if img not in next_elements:
                return Verdict.failed("lift",
                                      f"stage {i}: lifted element leaves the next group")
            for x in range(stage.structure.size):
                if img(stage.inclusion[x]) != stage.inclusion[h(x)]:
                    return Verdict.failed(
                        "lift", f"stage {i}: lift of an element does not extend it")
            if img in images:
                return Verdict.failed("lift", f"stage {i}: lift is not injective")
            images[img] = h
        lookup = {g: img for g, img in zip(group.elements, stage.lifted)}
        for a in group.elements:
            for b in group.elements:
                if lookup[a].compose(lookup[b]) != lookup[a.compose(b)]:
                    return Verdict.failed(
                        "lift", f"stage {i}: lift is not a group homomorphism")
    for j, p in cert.handled:
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


@dataclass(frozen=True)
class GroupEppaResult:
    """EPPA extension carved out of an ambient structure by a finite group of
    its automorphisms; the extensions need not be coherent, so the coherence
    status is informational."""

    ambient: Structure
    inner_points: tuple[int, ...]
    inner: Structure
    extension: Structure
    extension_points: tuple[int, ...]
    phi: ExtensionMap = field(hash=False)
    coherent: Verdict = field(hash=False, default=None)


def eppa_from_group(ambient: Structure, inner_points: Sequence[int],
                    group: PermutationGroup) -> GroupEppaResult:
    """Union of the group images of the inner set, as an induced substructure;
    every partial automorphism of the inner structure must extend to a group
    element (error otherwise)."""
    from .coherence import verify_coherence
    if group.degree != ambient.size:
        raise EppaError("group degree does not match the ambient structure")
    for g in group.elements:
        if not is_automorphism(g.images, ambient):
            raise EppaError("group contains a non-automorphism of the ambient structure")
    inner_pts = tuple(sorted(set(inner_points)))
    inner, inner_index = induced_substructure(ambient, inner_pts)

    points = sorted({g(x) for g in group.elements for x in inner_pts})
    extension, ext_index = induced_substructure(ambient, points)
    point_set = set(points)
    for g in group.elements:
        if {g(x) for x in points} != point_set:
            raise EppaError("extension set is not invariant under the group")

    embedding = tuple(ext_index[x] for x in inner_pts)
    table: dict[str, Permutation] = {}
    for p in enumerate_partial_automorphisms(inner):
        chosen = None
        for g in group.elements:
            if all(g(inner_pts[x]) == inner_pts[y] for x, y in p.pairs):
                chosen = g
                break
        if chosen is None:
            raise EppaError(f"partial automorphism {p.encode()} has no extension "
                            "in the supplied group")
        restricted = Permutation(tuple(ext_index[chosen(x)] for x in points))
        table[p.encode()] = restricted
    phi = ExtensionMap(domain_universe=inner.size, codomain_universe=extension.size,
                       embedding=embedding, table=table)
    maps = enumerate_partial_automorphisms(inner)
    coherent = verify_coherence(phi, maps)
    return GroupEppaResult(ambient=ambient, inner_points=inner_pts, inner=inner,
                           extension=extension, extension_points=tuple(points),
                           phi=phi, coherent=coherent)
