"""Coherent EPPA base extensions: every partial automorphism of a finite
structure extends to an automorphism of a finite superstructure, and the
assignment respects composition.

Two realizations sit behind one verified certificate contract:

* a functor search that tries the structure itself and then minimal
  point-extensions, assigning automorphisms per connected component of the
  partial-automorphism groupoid;
* Hrushovski's valuation scaffold: points of the extension are (vertex,
  valuation) pairs with one bit per slot (symbol, tuple up to the symbol's
  symmetry in A) through the vertex, permuted by order-preserving
  completions of the partial maps combined with forced bit flips; for
  graphs it has at most n * 2^(n-1) points.  It refuses only inputs whose
  orbit or verification cost leaves desk scale.

Every certificate is verified before it is returned; realization bugs
surface as hard errors, never as wrong certificates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from . import config
from .coherence import (ExtensionMap, Verdict, check_forced_values,
                        verify_coherent_extension)
from .errors import BoundExceededError, VerificationError
from .structures import (PartialAutomorphism, Permutation, Structure,
                         automorphism_group, enumerate_partial_automorphisms,
                         is_embedding)


@dataclass(frozen=True)
class BaseEppaCertificate:
    """Extension B of A with a coherent, extending map over all of Part(A)."""

    base: Structure
    extension: Structure
    embedding: tuple[int, ...]
    phi: ExtensionMap = field(hash=False)

    def part(self) -> list[PartialAutomorphism]:
        return enumerate_partial_automorphisms(self.base)


def verify_base_certificate(cert: BaseEppaCertificate) -> Verdict:
    """Full re-check: embedding, the table over Part(A) (automorphisms,
    extension, coherence over the complete coherent-triple set), forced
    values, and the group embedding of Aut(A)."""
    maps = cert.part()
    if not is_embedding(cert.embedding, cert.base, cert.extension):
        return Verdict.failed("embedding", "A is not induced in B along the embedding")
    v = verify_coherent_extension(cert.phi, maps, cert.extension)
    if not v:
        return v
    v = check_forced_values(cert.phi, maps)
    if not v:
        return v
    # coherence makes phi restricted to Aut(A) a homomorphism; injectivity is
    # immediate since the extensions differ on the embedded copy of A, but we
    # check it anyway.
    total = [p for p in maps if len(p) == cert.base.size]
    seen = {}
    for p in total:
        g = cert.phi.lookup(p)
        if g in seen and seen[g] != p:
            return Verdict.failed("group-embedding",
                                  f"phi collapses {seen[g].encode()} and {p.encode()}")
        seen[g] = p
    return Verdict.passed()


# ---------------------------------------------------------------------------
# Realization 1: coherent assignment into a candidate extension (functor
# search over the partial-automorphism groupoid).

def coherent_assignment(maps: Sequence[PartialAutomorphism], candidate: Structure,
                        embedding: Sequence[int]) -> dict[str, Permutation] | None:
    """Search a coherent, extending assignment Part(A) -> Aut(candidate),
    where `maps` is Part(A) as enumerate_partial_automorphisms lists it.

    Coherence makes the assignment a functor from the groupoid of partial
    automorphisms (objects: domains; morphisms: the maps) to Aut(candidate),
    so it is determined by images of a spanning tree and of one vertex group
    per connected component; the search backtracks over those.
    """
    try:
        aut = automorphism_group(candidate, degree_bound=max(candidate.size, 1))
    except BoundExceededError:
        return None
    emb = tuple(embedding)

    extenders: dict[str, list[Permutation]] = {}
    for p in maps:
        cands = [g for g in aut.elements
                 if all(g(emb[x]) == emb[y] for x, y in p.pairs)]
        if not cands:
            return None
        extenders[p.encode()] = cands

    by_src: dict[frozenset[int], list[PartialAutomorphism]] = {}
    for p in maps:
        by_src.setdefault(p.domain(), []).append(p)
    for key in by_src:
        by_src[key].sort(key=lambda p: p.encode())

    objects = sorted({p.domain() for p in maps} | {p.image() for p in maps},
                     key=lambda s: (len(s), sorted(s)))
    component: dict[frozenset[int], frozenset[int]] = {}
    for obj in objects:
        if obj in component:
            continue
        stack = [obj]
        component[obj] = obj
        while stack:
            s = stack.pop()
            for p in by_src.get(s, []):
                t = p.image()
                if t not in component:
                    component[t] = obj
                    stack.append(t)

    roots = sorted({component[o] for o in objects}, key=lambda s: (len(s), sorted(s)))
    phi: dict[str, Permutation] = {}
    identity = Permutation.identity(candidate.size)

    for root in roots:
        tree: dict[frozenset[int], PartialAutomorphism] = {
            root: PartialAutomorphism.identity_on(root)}
        order = [root]
        qi = 0
        while qi < len(order):
            s = order[qi]
            qi += 1
            for p in by_src.get(s, []):
                t = p.image()
                if t not in tree:
                    tree[t] = p.compose(tree[s])
                    order.append(t)

        vertex_group = [p for p in by_src.get(root, []) if p.image() == root]
        morphisms = []
        for s in order:
            for p in by_src.get(s, []):
                t = p.image()
                g = tree[t].inverse().compose(p).compose(tree[s])
                morphisms.append((p, s, t, g.encode()))

        gkeys = [g.encode() for g in vertex_group]
        gindex = {k: i for i, k in enumerate(gkeys)}
        gmaps = {g.encode(): g for g in vertex_group}
        table = [[gindex[gmaps[a].compose(gmaps[b]).encode()] for b in gkeys]
                 for a in gkeys]

        hvals: list[Permutation | None] = [None] * len(gkeys)
        solution: list[Permutation] | None = None

        def hom_consistent(upto: int) -> bool:
            for i in range(upto + 1):
                for j in range(upto + 1):
                    k = table[i][j]
                    if k <= upto and hvals[i] is not None and hvals[j] is not None \
                            and hvals[k] is not None:
                        if hvals[i].compose(hvals[j]) != hvals[k]:
                            return False
            return True

        def hsearch(i: int):
            nonlocal solution
            if solution is not None:
                return
            if i == len(gkeys):
                solution = list(hvals)  # type: ignore[arg-type]
                return
            for cand in extenders[gkeys[i]]:
                hvals[i] = cand
                if hom_consistent(i):
                    hsearch(i + 1)
                if solution is not None:
                    return
            hvals[i] = None

        hsearch(0)
        if solution is None:
            return None
        hom = {gkeys[i]: solution[i] for i in range(len(gkeys))}

        nonroot = [t for t in order if t != root]
        tphi: dict[frozenset[int], Permutation] = {root: identity}

        def value(p, s, t, gkey) -> Permutation:
            return tphi[t].compose(hom[gkey]).compose(tphi[s].inverse())

        def consistent(done: set[frozenset[int]]) -> bool:
            for (p, s, t, gkey) in morphisms:
                if s in done and t in done:
                    g = value(p, s, t, gkey)
                    if any(g(emb[x]) != emb[y] for x, y in p.pairs):
                        return False
            return True

        def tsearch(i: int, done: list[frozenset[int]]) -> bool:
            if i == len(nonroot):
                return True
            t = nonroot[i]
            for cand in extenders[tree[t].encode()]:
                tphi[t] = cand
                if consistent(set(done) | {t}) and tsearch(i + 1, done + [t]):
                    return True
            tphi.pop(t, None)
            return False

        if not consistent({root}) or not tsearch(0, [root]):
            return None
        for (p, s, t, gkey) in morphisms:
            phi[p.encode()] = value(p, s, t, gkey)

    return phi


def _extension_candidates(base: Structure, extra: int):
    """Extensions of `base` by `extra` fresh points, in canonical bitmask
    order over the new tuple slots.  Graph inputs stay graphs."""
    m = base.size + extra
    if base.is_graphlike():
        slots = [(i, j) for i in range(m) for j in range(i + 1, m)
                 if j >= base.size]
        if len(slots) > 16:
            return
        for state in range(1 << len(slots)):
            rels = {name: set(base.tuples(name)) for name, _ in base.signature.symbols}
            name0 = base.signature.symbols[0][0]
            for k, (i, j) in enumerate(slots):
                if state >> k & 1:
                    rels[name0].add((i, j))
                    rels[name0].add((j, i))
            yield Structure.make(base.signature, m, rels)
        return
    slots = []
    for name, arity in base.signature.symbols:
        for t in itertools.product(range(m), repeat=arity):
            if any(x >= base.size for x in t):
                slots.append((name, t))
    if len(slots) > 14:
        return
    for state in range(1 << len(slots)):
        rels = {name: set(base.tuples(name)) for name, _ in base.signature.symbols}
        for k, (name, t) in enumerate(slots):
            if state >> k & 1:
                rels[name].add(t)
        yield Structure.make(base.signature, m, rels)


def _search_certificate(base: Structure, maps: Sequence[PartialAutomorphism],
                        max_extra: int) -> BaseEppaCertificate | None:
    """Iterative deepening over point-extensions and coherent assignments,
    with `maps` = Part(A): the first certificate that verifies, or None when
    the budget is exhausted."""
    emb = tuple(range(base.size))
    for extra in range(max_extra + 1):
        for candidate in _extension_candidates(base, extra):
            table = coherent_assignment(maps, candidate, emb)
            if table is None:
                continue
            phi = ExtensionMap(domain_universe=base.size,
                               codomain_universe=candidate.size,
                               embedding=emb, table=table)
            cert = BaseEppaCertificate(base=base, extension=candidate,
                                       embedding=emb, phi=phi)
            if verify_base_certificate(cert):
                return cert
    return None


# ---------------------------------------------------------------------------
# Realization 2: Hrushovski's valuation scaffold (Hrushovski 1992; in the
# valuation form of Hubicka, Konecny and Nesetril, arXiv 1902.03855).
#
# A slot is (symbol, key).  The key of a tuple is the tuple itself, or its
# sorted form when the symbol is symmetric in A; a tuple that repeats a point
# has no slot unless some tuple of the symbol does so in A.  A point of the
# carrier is (v, chi), with one bit of chi per slot whose key contains v.  A
# symbol holds on a tuple of points iff its base tuple has a slot, points over
# the same base point are equal, and the bits of that slot XOR to 1 over the
# distinct points.  A embeds as (v, theta_v), where theta_v marks the tuples
# of A that v owns as their first point.  For graphs this is Hrushovski's B:
# one bit per other vertex, so at most n * 2^(n-1) points.

class _Scaffold:
    def __init__(self, base: Structure):
        n = base.size
        self.n = n
        self.kinds: list[tuple[bool, bool]] = []  # (symmetric, loopy) per symbol
        self.keys: list[tuple[int, tuple[int, ...]]] = []
        for si, ((_, arity), tuples) in enumerate(zip(base.signature.symbols,
                                                       base.relations)):
            tset = set(tuples)
            symmetric = arity > 1 and all(
                tuple(t[i] for i in order) in tset
                for t in tuples for order in itertools.permutations(range(arity)))
            self.kinds.append((symmetric, any(len(set(t)) < arity for t in tuples)))
            self.keys += sorted({self.key(si, t)
                                 for t in itertools.product(range(n), repeat=arity)}
                                - {None})
        self.slots_of = [[s for s in self.keys if v in s[1]] for v in range(n)]
        self.slot_index = [{s: j for j, s in enumerate(sl)} for sl in self.slots_of]
        self.theta = [sum(1 << j for j, (si, k) in enumerate(self.slots_of[v])
                          if k[0] == v and k in base.relations[si])
                      for v in range(n)]

    def key(self, si: int, t: Sequence[int]):
        symmetric, loopy = self.kinds[si]
        if len(set(t)) < len(t) and not loopy:
            return None
        return (si, tuple(sorted(t)) if symmetric else tuple(t))

    def action(self, p: PartialAutomorphism):
        """(pi, flips, moves) for p: pi is the order completion of p,
        flips[v] is XORed into the valuation of a point over v, and
        moves[v][j] is the bit of pi(v) that slot j of v goes to.  The flips
        send theta_x to theta_p(x) on dom(p); at every slot with a point
        outside dom(p) the least such point evens out the flips, so the XOR
        of each slot's bits is invariant."""
        pi = _order_completion(p, self.n)
        moves = tuple(tuple(self.slot_index[pi(v)][self.key(si, tuple(pi(z) for z in k))]
                            for si, k in self.slots_of[v])
                      for v in range(self.n))
        pmap = p.as_dict()
        flips = [0] * self.n
        for x, px in pmap.items():
            flips[x] = self.theta[x] ^ sum((self.theta[px] >> b & 1) << j
                                           for j, b in enumerate(moves[x]))
        for s in self.keys:
            points = set(s[1])
            free = points - pmap.keys()
            if free and sum(flips[d] >> self.slot_index[d][s] & 1
                            for d in points - free) % 2:
                u = min(free)
                flips[u] |= 1 << self.slot_index[u][s]
        return pi, tuple(flips), moves


def _act(action, point: tuple[int, int]) -> tuple[int, int]:
    pi, flips, moves = action
    v, chi = point
    chi ^= flips[v]
    return pi(v), sum(1 << b for j, b in enumerate(moves[v]) if chi >> j & 1)


def _order_completion(p: PartialAutomorphism, n: int) -> Permutation:
    """p, completed by the order-preserving bijection from the points
    outside dom(p) onto those outside its image.  This is the coherent lift
    of p on singletons, so the completions compose along coherent triples."""
    images = [-1] * n
    for x, y in p.pairs:
        images[x] = y
    used = set(p.image())
    rest_src = [x for x in range(n) if images[x] < 0]
    rest_dst = [y for y in range(n) if y not in used]
    for x, y in zip(rest_src, rest_dst):
        images[x] = y
    return Permutation(tuple(images))


def scaffold_certificate(base: Structure, maps: Sequence[PartialAutomorphism],
                         max_carrier: int = 200000) -> BaseEppaCertificate:
    """Generic realization over `maps` = Part(A): the extension is the orbit
    of the embedded copy under the actions assigned to Part(A) (a set closed
    under inverses), each restricted to the orbit."""
    sc = _Scaffold(base)
    actions = [sc.action(p) for p in maps]
    points = list(enumerate(sc.theta))
    index = {pt: i for i, pt in enumerate(points)}
    distinct = sorted(set(actions), key=lambda a: (a[0].images, a[1]))
    for pt in points:
        for action in distinct:
            image = _act(action, pt)
            if image not in index:
                if len(index) >= max_carrier:
                    raise BoundExceededError(
                        f"scaffold orbit exceeded {max_carrier} points")
                index[image] = len(points)
                points.append(image)

    size = len(points)
    # the certificate is verified in full before returning, which scans every
    # relation tuple once per partial automorphism; refuse cases where that
    # product leaves desk scale
    cell_count = sum(size ** arity for _, arity in base.signature.symbols)
    if len(maps) * cell_count > 20_000_000:
        raise BoundExceededError(
            f"scaffold verification cost {len(maps)} x {cell_count} tuple "
            "checks is beyond desk scale; the input is too large for the "
            "generic realization")
    over = [[] for _ in range(base.size)]
    for i, (v, _) in enumerate(points):
        over[v].append(i)
    rels: dict[str, list[tuple[int, ...]]] = {}
    for si, (name, arity) in enumerate(base.signature.symbols):
        rels[name] = []
        for t in itertools.product(range(base.size), repeat=arity):
            s = sc.key(si, t)
            if s is None:
                continue
            vs = sorted(set(t))
            for choice in itertools.product(*(over[v] for v in vs)):
                if sum(points[i][1] >> sc.slot_index[v][s] & 1
                       for v, i in zip(vs, choice)) % 2:
                    at = dict(zip(vs, choice))
                    rels[name].append(tuple(at[x] for x in t))
    extension = Structure.make(base.signature, size, rels)

    table = {p.encode(): Permutation(tuple(index[_act(a, pt)] for pt in points))
             for p, a in zip(maps, actions)}
    emb = tuple(range(base.size))
    phi = ExtensionMap(domain_universe=base.size, codomain_universe=size,
                       embedding=emb, table=table)
    return BaseEppaCertificate(base=base, extension=extension, embedding=emb, phi=phi)


# ---------------------------------------------------------------------------

def base_eppa(base: Structure,
              max_points: int | None = None,
              search: bool = True) -> BaseEppaCertificate:
    """Coherent EPPA extension of an arbitrary finite structure.

    Tries the minimal realizations first (the structure itself, then small
    point-extensions) and falls back to the generic scaffold; the returned
    certificate has been verified in full, once (the search verifies what it
    finds).
    """
    bound = config.max_points() if max_points is None else max_points
    if base.size > bound:
        raise BoundExceededError(
            f"input has {base.size} points, bound is {bound}")
    maps = enumerate_partial_automorphisms(base)
    cert = None
    if search and base.size <= config.SEARCH_MAX_SIZE \
            and len(maps) <= config.SEARCH_MAX_PART:
        budget = max(0, config.SEARCH_TARGET_SIZE - base.size)
        cert = _search_certificate(base, maps, budget)
    if cert is None:
        cert = scaffold_certificate(base, maps)
        verdict = verify_base_certificate(cert)
        if not verdict:
            raise VerificationError(f"internal realization failure: {verdict.message()}")
    return cert
