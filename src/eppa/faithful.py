"""Gaifman-clique-faithful coherent extensions.

Starting from a verified coherent base extension A <= B, the extension C
consists of valued points (b, chi) where chi assigns to every listed large
subset u of B a value in [1, |u|) when b lies in u and 0 otherwise (Siniora
and Solecki, arXiv 1705.01888, after Hodkinson and Otto).  Tuples of C are
the B-satisfied tuples whose point set is generic (distinct owners, distinct
values on every shared large set); this destroys every clique that cannot be
moved into A.  A map g of B lifts to C through one value permutation per
set: it fixes 0, sends each realized value to its image's value on g(u), and
is otherwise the order completion, so the lifts of a coherent extension are
coherent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

from . import config
from .amalgamation import exists_embedding, forb_e_member
from .base_extension import (BaseEppaCertificate, PartGroupoid, base_eppa,
                             verify_base_certificate)
from .coherence import (ExtensionMap, PermutationGroup, Verdict, mask_points,
                        verify_coherent_extension)
from .errors import EppaError, VerificationError
from .structures import (PartialAutomorphism, Permutation, Structure,
                         automorphism_group, gaifman_masks, is_automorphism,
                         is_embedding, is_gaifman_clique)


@dataclass(frozen=True)
class LargeSetFamily:
    """The large subsets of B up to the size cap: those that no automorphism
    in `aut` = Aut(B) maps into the inner copy of A.  They are bitmasks in
    (size, lexicographic) order, and a set's index in `sets` is its position
    in every valuation."""

    inner: frozenset[int]
    sets: tuple[int, ...]
    aut: PermutationGroup = field(hash=False)

    def image_index(self, g: Permutation, idx: int) -> int:
        return self.sets.index(sum(1 << g(x) for x in mask_points(self.sets[idx])))

    def set_size(self, idx: int) -> int:
        return bin(self.sets[idx]).count("1")


def _mover_into(points: Iterable[int], inner: frozenset[int],
                aut: PermutationGroup) -> Permutation | None:
    """The first automorphism, in group order, that maps every point into the
    inner copy; None when the points are large."""
    pts = list(points)
    return next((g for g in aut.elements if all(g(x) in inner for x in pts)), None)


def large_sets(extension: Structure, inner: Iterable[int],
               size_cap: int | None = None) -> LargeSetFamily:
    """All large subsets of the extension within the cap; smallness is decided
    by scanning the materialized automorphism group."""
    inner_set = frozenset(inner)
    aut = automorphism_group(extension)
    n = extension.size
    cap = n if size_cap is None else min(size_cap, n)
    sets = tuple(sum(1 << x for x in combo)
                 for size in range(1, cap + 1)
                 for combo in itertools.combinations(range(n), size)
                 if _mover_into(combo, inner_set, aut) is None)
    return LargeSetFamily(inner=inner_set, sets=sets, aut=aut)


@dataclass(frozen=True)
class ValuedPoint:
    """C-point (b, chi): an owner b of B and its total valuation, where
    values[i] is chi(family.sets[i]), in [1, |u|) when b lies in u and 0
    otherwise."""

    owner: int
    values: tuple[int, ...]


def is_generic(points: Sequence[ValuedPoint], family: LargeSetFamily) -> bool:
    """Distinct owners, and on every listed set containing two owners their
    values differ."""
    for a, b in itertools.combinations(points, 2):
        if a == b:
            continue
        if a.owner == b.owner:
            return False
        for idx, u in enumerate(family.sets):
            if u >> a.owner & 1 and u >> b.owner & 1 and a.values[idx] == b.values[idx]:
                return False
    return True


@dataclass(frozen=True)
class ValuedExtension:
    """Materialized C: its structure, its points (each knows its owner in B)
    and the embedding of A."""

    structure: Structure
    points: tuple[ValuedPoint, ...]
    family: LargeSetFamily
    nu: tuple[int, ...]

    @cached_property
    def index(self) -> dict[ValuedPoint, int]:
        """Each point's position in `points`."""
        return {pt: i for i, pt in enumerate(self.points)}


def _value_ranges(family: LargeSetFamily, b: int) -> list[range]:
    """The values a point over b takes on each set: [1, |u|) on the sets
    that contain b, only 0 on the others.  A set {b} has no value for b, so
    no point lies over b."""
    return [range(1, family.set_size(idx)) if u >> b & 1 else range(1)
            for idx, u in enumerate(family.sets)]


def valuation_count(extension: Structure, family: LargeSetFamily) -> int:
    return sum(math.prod(map(len, _value_ranges(family, b)))
               for b in range(extension.size))


def build_valued_extension(extension: Structure, embedding: Sequence[int],
                           family: LargeSetFamily) -> ValuedExtension:
    """Materialize C over the base extension B with the generic-tuple relation
    rule and the canonical embedding nu of A along `embedding`: nu(a) gives
    each set u containing b = embedding[a] the 1-based position of b in the
    ascending enumeration of u intersected with A, and every other set 0.
    For `embedding` into B and a family from `large_sets` over it, nu(a) is
    always a point of C: Aut(B) holds the identity, so no large set lies
    inside the inner copy, and nu(a)'s value on u, at most the number of
    inner points in u, stays below |u|."""
    config.charge("valued extension C", valuation_count(extension, family), "points",
                  config.max_valued_points())

    points = [ValuedPoint(owner=b, values=values)
              for b in range(extension.size)
              for values in itertools.product(*_value_ranges(family, b))]
    index = {pt: i for i, pt in enumerate(points)}
    over: list[list[int]] = [[] for _ in range(extension.size)]
    for i, pt in enumerate(points):
        over[pt.owner].append(i)

    # each B-tuple's combinations of points over it, all counted before any is built
    combinations = sum(math.prod(len(over[b]) for b in t)
                       for t in itertools.chain.from_iterable(extension.relations))
    config.charge("relation materialization of C", combinations, "tuple combinations",
                  config.VALUED_MAX_COMBINATIONS)
    inner = set(embedding)
    nu_points = [index[ValuedPoint(owner=b, values=tuple(
        [x for x in mask_points(u) if x in inner].index(b) + 1 if u >> b & 1 else 0
        for u in family.sets))] for b in embedding]

    rels: dict[str, list[tuple[int, ...]]] = {}
    for name, arity in extension.signature.symbols:
        tuples = set()
        for t in extension.tuples(name):
            for combo in itertools.product(*(over[b] for b in t)):
                chosen = sorted(set(combo))
                if is_generic([points[i] for i in chosen], family):
                    tuples.add(combo)
        rels[name] = sorted(tuples)
    structure = Structure.make(extension.signature, len(points), rels)
    return ValuedExtension(structure=structure, points=tuple(points),
                           family=family, nu=tuple(nu_points))


def value_permutation(valued_pairs: Sequence[tuple[ValuedPoint, ValuedPoint]],
                      g: Permutation, family: LargeSetFamily,
                      idx: int) -> Permutation:
    """The value permutation of the set u at `idx` onto g(u): the order
    completion on {0, ..., |u| - 1} of the map that fixes 0 and sends each
    realized source value on u to its image point's value on g(u)."""
    gidx = family.image_index(g, idx)
    forward, backward = {0: 0}, {0: 0}
    for src, dst in valued_pairs:
        if g(src.owner) != dst.owner:
            raise EppaError("permutation does not extend the valued map")
        if family.sets[idx] >> src.owner & 1:
            s, t = src.values[idx], dst.values[gidx]
            if forward.setdefault(s, t) != t or backward.setdefault(t, s) != s:
                raise EppaError("valued map is not generic on the family")
    return PartialAutomorphism.from_map(forward).order_completion(family.set_size(idx))


def hat_extend(valued_pairs: Sequence[tuple[ValuedPoint, ValuedPoint]],
               g: Permutation, extension: ValuedExtension) -> Permutation:
    """Total extension on C of a compatible valued partial map: owners move
    by g, values by the per-set value permutations."""
    family = extension.family
    indices = range(len(family.sets))
    thetas = [value_permutation(valued_pairs, g, family, idx) for idx in indices]
    gset = [family.image_index(g, idx) for idx in indices]
    images = []
    for pt in extension.points:
        values = [0] * len(gset)
        for idx in indices:  # theta fixes 0, so sets outside the owner stay 0
            values[gset[idx]] = thetas[idx](pt.values[idx])
        image = ValuedPoint(owner=g(pt.owner), values=tuple(values))
        images.append(extension.index[image])
    return Permutation(tuple(images))


def _cliques(n: int, adjacent: Callable[[int, int], bool],
             max_size: int | None) -> list[tuple[int, ...]]:
    """Nonempty sets of pairwise adjacent points of range(n), at most
    `max_size` of them (no bound for None), in lexicographic order: a
    depth-first search on an explicit stack that extends a set only by
    later points adjacent to all of its members.  Refused once the listed
    sets hold more than config.CLIQUE_MAX_POINTS points in all."""
    cap = n if max_size is None else max_size
    out: list[tuple[int, ...]] = []
    listed = 0
    stack = [((), list(range(n)), 0)]  # (set, its candidates, the next one's index)
    while stack:
        current, candidates, i = stack.pop()
        if len(current) >= cap or i == len(candidates):
            continue
        v = candidates[i]
        clique = current + (v,)
        out.append(clique)
        listed += len(clique)
        config.charge("clique listing", listed, "listed points", config.CLIQUE_MAX_POINTS)
        stack += [(current, candidates, i + 1),
                  (clique, [w for w in candidates[i + 1:] if adjacent(v, w)], 0)]
    return out


def enumerate_cliques(structure: Structure, max_size: int | None = None) -> list[tuple[int, ...]]:
    """All nonempty Gaifman cliques up to the size bound, lexicographically."""
    if max_size is not None and max_size < 0:
        raise EppaError(f"clique size bound must be >= 0, got {max_size}")
    masks = gaifman_masks(structure)
    return _cliques(structure.size, lambda u, v: masks[u] >> v & 1, max_size)


@dataclass(frozen=True)
class FaithfulCertificate:
    """Clique-faithful coherent extension C of A, built over a base extension
    A <= B: exactly the contents of its certificate file.  phi is defined on
    Part(A) and extends through its embedding nu of A into C."""

    base: Structure
    base_extension: Structure
    structure: Structure
    base_embedding: tuple[int, ...]
    phi: ExtensionMap = field(hash=False)
    clique_witnesses: dict[tuple[int, ...], Permutation] = field(hash=False)
    size_cap: int | None = None
    forbidden: tuple[Structure, ...] = ()

    @cached_property
    def extension(self) -> ValuedExtension:
        """The valued extension that C is the structure of, recomputed from B,
        the embedding of A into B and the size cap."""
        family = large_sets(self.base_extension, self.base_embedding, self.size_cap)
        return build_valued_extension(self.base_extension, self.base_embedding, family)

    @cached_property
    def part(self) -> PartGroupoid:
        """Part(A), the groupoid phi is built over, listed here if not carried."""
        return PartGroupoid(self.base)


def clique_faithful_extension(base: Structure,
                              size_cap: int | None = None,
                              base_cert: BaseEppaCertificate | None = None,
                              forbidden: Sequence[Structure] = ()) -> FaithfulCertificate:
    """Full pipeline: coherent base extension, valued extension, coherent lift
    of Part(A) (hat_extend on the spanning maps, the rest by part.functor, as
    the lifts are coherent), and constructed witnesses moving each
    enumerated clique into the embedded copy of A.  Genericity is pairwise,
    and Gaifman neighbours share a generic tuple, so cliques are generic;
    hat_extend sends clique points to their nu points (both re-verified).
    Every clique S has a mover into A: S is within the cap and generic with
    distinct owners, so a large projection would be a listed set on which
    |S| points take distinct values in [1, |S|).  Part(A) is the base
    certificate's groupoid, which the returned certificate carries on."""
    if size_cap is not None and size_cap < 0:
        raise EppaError(f"size cap must be >= 0, got {size_cap}")
    if base_cert is None:
        base_cert = base_eppa(base)
    else:
        if base_cert.base != base:
            raise EppaError("base certificate is for a different structure")
        verdict = verify_base_certificate(base_cert)
        if not verdict:
            raise VerificationError(f"supplied base certificate invalid: {verdict.message()}")
    part = base_cert.part
    family = large_sets(base_cert.extension, base_cert.embedding, size_cap)
    extension = build_valued_extension(base_cert.extension, base_cert.embedding, family)

    nu = [extension.points[i] for i in extension.nu]
    lifts = {p: hat_extend([(nu[x], nu[y]) for x, y in p.pairs], base_cert.phi.lookup(p),
                           extension) for p in part.spanning_maps()}
    phi = ExtensionMap(domain_universe=base.size,
                       codomain_universe=extension.structure.size,
                       embedding=extension.nu, table=part.functor(lifts))

    back = {b: a for a, b in enumerate(base_cert.embedding)}
    witnesses: dict[tuple[int, ...], Permutation] = {}
    for clique in enumerate_cliques(extension.structure, size_cap):
        pts = [extension.points[i] for i in clique]
        witness_g = _mover_into([pt.owner for pt in pts], family.inner, family.aut)
        pairs = [(pt, extension.points[extension.nu[back[witness_g(pt.owner)]]])
                 for pt in pts]
        witnesses[clique] = hat_extend(pairs, witness_g, extension)

    cert = part.carried_by(FaithfulCertificate(
        base=base, base_extension=base_cert.extension, structure=extension.structure,
        base_embedding=base_cert.embedding, phi=phi, clique_witnesses=witnesses,
        size_cap=size_cap, forbidden=tuple(forbidden)))
    verdict = verify_faithful_view(cert)
    if not verdict:
        raise VerificationError(f"pipeline produced invalid certificate: {verdict.message()}")
    return cert


def verify_faithful_view(cert: FaithfulCertificate) -> Verdict:
    """Verify a faithful certificate from its contents alone: both
    embeddings, the table over Part(A) in the one sequence of
    verify_coherent_extension (which forces phi(id_D) = id and phi(p^-1) =
    phi(p)^-1), a witness for every clique, and freeness from the forbidden
    family.  Each distinct witness permutation is checked to be an
    automorphism once, at its first clique.  Part(A) is the certificate's
    `part`, read after the embedding checks."""
    base, c_structure, phi = cert.base, cert.structure, cert.phi
    if not is_embedding(cert.base_embedding, base, cert.base_extension):
        return Verdict.failed("embedding", "A is not induced in the base extension")
    if not is_embedding(phi.embedding, base, c_structure):
        return Verdict.failed("embedding", "nu is not an embedding of A into C")
    v = verify_coherent_extension(phi, cert.part, c_structure)
    if not v:
        return v
    nu_set = frozenset(phi.embedding)
    cliques = set(enumerate_cliques(c_structure, cert.size_cap))
    checked: set[Permutation] = set()
    for clique, witness in cert.clique_witnesses.items():
        if clique not in cliques:
            return Verdict.failed("clique", f"{clique} is not a Gaifman clique of C")
        if witness not in checked and not is_automorphism(witness.images, c_structure):
            return Verdict.failed("clique-witness",
                                  f"witness for {clique} is not an automorphism")
        checked.add(witness)
        if any(witness(i) not in nu_set for i in clique):
            return Verdict.failed("clique-witness",
                                  f"witness for {clique} does not map into nu(A)")
    missing = cliques - set(cert.clique_witnesses)
    if missing:
        return Verdict.failed("clique-cover",
                              f"no witness recorded for clique {sorted(missing)[0]}")
    for q in cert.forbidden:
        hit = exists_embedding(q, c_structure)
        if hit is not None:
            return Verdict.failed("freeness", f"forbidden structure embeds at {hit}")
    return Verdict.passed()


def forb_e_eppa(base: Structure, forbidden: Sequence[Structure],
                size_cap: int | None = None) -> FaithfulCertificate:
    """Coherent EPPA inside the class of structures embedding no member of a
    family of Gaifman cliques; the certificate records the family, so its
    verification shows the output stays in the class."""
    forbidden = tuple(forbidden)
    for q in forbidden:
        if not is_gaifman_clique(q):
            raise EppaError("forbidden family contains a structure that is not a Gaifman clique")
    if not forb_e_member(base, forbidden):
        raise EppaError("input structure embeds a forbidden structure")
    if size_cap is None and forbidden:
        size_cap = max(q.size for q in forbidden)
    return clique_faithful_extension(base, size_cap=size_cap, forbidden=forbidden)


def generic_subsets(extension: ValuedExtension, max_size: int | None = None
                    ) -> list[tuple[int, ...]]:
    """All nonempty generic subsets of C up to the size bound, as index
    tuples into its points (lexicographic).  Genericity is a condition on
    each pair of points, so these are the cliques of the pairwise relation."""
    points, family = extension.points, extension.family
    return _cliques(len(points), lambda i, j: is_generic((points[i], points[j]), family),
                    max_size)


def projection_is_small(extension: ValuedExtension, subset: Sequence[int]) -> bool:
    """Witnessed smallness of the projection of a subset of C."""
    family = extension.family
    owners = {extension.points[i].owner for i in subset}
    return _mover_into(owners, family.inner, family.aut) is not None
