"""Coherent EPPA base extensions: every partial automorphism of a finite
structure extends to an automorphism of a finite superstructure, and the
assignment respects composition.

Two realizations sit behind one verified certificate contract:

* a functor search that tries the structure itself and then minimal
  point-extensions, assigning automorphisms per connected component of the
  partial-automorphism groupoid;
* a parity-valuation scaffold that always succeeds: points of the extension
  are (vertex, slot-set) pairs over a powerset-style carrier, permuted by
  order-preserving completions (from the coherent lift) combined with forced
  parity corrections.

Every certificate is verified before it is returned; realization bugs
surface as hard errors, never as wrong certificates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from . import config
from .coherence import (ExtensionMap, SetPartialMap, Verdict, check_forced_values,
                        coherent_lift, verify_coherent_extension)
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


def _search_certificate(base: Structure, max_extra: int) -> BaseEppaCertificate | None:
    """Iterative deepening over point-extensions and coherent assignments:
    the first certificate that verifies, or None when the budget is
    exhausted."""
    emb = tuple(range(base.size))
    maps = enumerate_partial_automorphisms(base)
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
# Realization 2: the parity-valuation scaffold (always succeeds).
#
# Carrier: pairs (v, S) with S a set of "slots" (symbol, position, tuple),
# t[position] = v.  A point of the original structure embeds as
# (v, {(R, 0, t) : t satisfied, t[0] = v}); the relation rule on the carrier
# asks for odd parity of slot memberships along a tuple, which is invariant
# under relabelling points and under the forced flip corrections below, and
# exact on the embedded copy.

class _Scaffold:
    def __init__(self, base: Structure):
        self.base = base
        n = base.size
        self.n = n
        self.slots_of: list[list[tuple[int, int, tuple[int, ...]]]] = [[] for _ in range(n)]
        for si, (name, arity) in enumerate(base.signature.symbols):
            for t in itertools.product(range(n), repeat=arity):
                for i in range(arity):
                    self.slots_of[t[i]].append((si, i, t))
        for v in range(n):
            self.slots_of[v] = sorted(set(self.slots_of[v]))
        self.slot_index = [{s: k for k, s in enumerate(sl)} for sl in self.slots_of]

    def theta_mask(self, v: int) -> int:
        mask = 0
        for si, (name, _) in enumerate(self.base.signature.symbols):
            for t in self.base.tuples(name):
                if t[0] == v:
                    mask |= 1 << self.slot_index[v][(si, 0, t)]
        return mask

    def completion(self, p: PartialAutomorphism) -> Permutation:
        """Order-preserving completion of p, computed by the coherent lift on
        singleton set-maps (atoms: the singletons of dom(p) plus the rest)."""
        n = self.n
        witness = _order_completion(p, n)
        pairs = tuple((1 << x, 1 << y) for x, y in p.pairs)
        lifted = coherent_lift(n, [SetPartialMap(universe=n, pairs=pairs,
                                                 witness=witness)])
        return lifted[0]

    def flips(self, p: PartialAutomorphism, pi: Permutation) -> list[int]:
        """Per-vertex slot flips: forced on dom(p) so the embedded copy maps
        correctly, corrected at the first free position of every tuple so the
        parity rule stays invariant."""
        n = self.n
        inv = pi.inverse()
        dom = p.domain()
        flips = [0] * n
        pmap = p.as_dict()
        for x in sorted(dom):
            mask = self.theta_mask(x)
            px = pmap[x]
            for si, (name, _) in enumerate(self.base.signature.symbols):
                for t in self.base.tuples(name):
                    if t[0] == px:
                        back = tuple(inv(z) for z in t)
                        mask ^= 1 << self.slot_index[x][(si, 0, back)]
            flips[x] = mask
        for si, (name, arity) in enumerate(self.base.signature.symbols):
            for t in itertools.product(range(n), repeat=arity):
                free = [j for j in range(arity) if t[j] not in dom]
                if not free:
                    continue
                if t[0] in dom and flips[t[0]] >> self.slot_index[t[0]][(si, 0, t)] & 1:
                    j = free[0]
                    flips[t[j]] |= 1 << self.slot_index[t[j]][(si, j, t)]
        return flips

    def action(self, pi: Permutation, flips: Sequence[int], point):
        v, mask = point
        mask ^= flips[v]
        w = pi(v)
        out = 0
        m = mask
        while m:
            b = m & -m
            m ^= b
            si, i, t = self.slots_of[v][b.bit_length() - 1]
            tt = tuple(pi(z) for z in t)
            out |= 1 << self.slot_index[w][(si, i, tt)]
        return (w, out)

    def inverse_action(self, pi: Permutation, flips: Sequence[int], point):
        v, mask = point
        inv = pi.inverse()
        u = inv(v)
        out = 0
        m = mask
        while m:
            b = m & -m
            m ^= b
            si, i, t = self.slots_of[v][b.bit_length() - 1]
            tt = tuple(inv(z) for z in t)
            out |= 1 << self.slot_index[u][(si, i, tt)]
        return (u, out ^ flips[u])

    def tuple_holds(self, si: int, points) -> bool:
        vbar = tuple(v for v, _ in points)
        parity = 0
        for i, (v, mask) in enumerate(points):
            parity ^= mask >> self.slot_index[v][(si, i, vbar)] & 1
        return parity == 1


def _order_completion(p: PartialAutomorphism, n: int) -> Permutation:
    images = [-1] * n
    for x, y in p.pairs:
        images[x] = y
    used = set(p.image())
    rest_src = [x for x in range(n) if images[x] < 0]
    rest_dst = [y for y in range(n) if y not in used]
    for x, y in zip(rest_src, rest_dst):
        images[x] = y
    return Permutation(tuple(images))


def scaffold_certificate(base: Structure,
                         max_carrier: int = 200000) -> BaseEppaCertificate:
    """Generic realization: always produces a verified certificate; the
    extension is the orbit closure of the embedded copy under all assigned
    automorphisms of the parity-valuation carrier."""
    sc = _Scaffold(base)
    maps = enumerate_partial_automorphisms(base)
    actions = []
    for p in maps:
        pi = sc.completion(p)
        flips = tuple(sc.flips(p, pi))
        actions.append((pi, flips))

    start = [(v, sc.theta_mask(v)) for v in range(base.size)]
    index: dict[tuple[int, int], int] = {}
    queue: list[tuple[int, int]] = []
    for pt in start:
        if pt not in index:
            index[pt] = len(index)
            queue.append(pt)
    distinct = sorted(set(actions), key=lambda a: (a[0].images, a[1]))
    qi = 0
    while qi < len(queue):
        pt = queue[qi]
        qi += 1
        for pi, flips in distinct:
            for image in (sc.action(pi, flips, pt), sc.inverse_action(pi, flips, pt)):
                if image not in index:
                    if len(index) >= max_carrier:
                        raise BoundExceededError(
                            f"scaffold orbit exceeded {max_carrier} points")
                    index[image] = len(index)
                    queue.append(image)

    points = queue
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
    rels: dict[str, list[tuple[int, ...]]] = {}
    for si, (name, arity) in enumerate(base.signature.symbols):
        if size ** arity > 4_000_000:
            raise BoundExceededError(
                f"relation materialization {size}^{arity} too large")
        tuples = []
        for combo in itertools.product(range(size), repeat=arity):
            if sc.tuple_holds(si, [points[k] for k in combo]):
                tuples.append(combo)
        rels[name] = tuples
    extension = Structure.make(base.signature, size, rels)

    table: dict[str, Permutation] = {}
    for p, (pi, flips) in zip(maps, actions):
        table[p.encode()] = Permutation(
            tuple(index[sc.action(pi, flips, pt)] for pt in points))
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
    cert = None
    if search and base.size <= config.SEARCH_MAX_SIZE:
        maps = enumerate_partial_automorphisms(base)
        if len(maps) <= config.SEARCH_MAX_PART:
            budget = max(0, config.SEARCH_TARGET_SIZE - base.size)
            cert = _search_certificate(base, budget)
    if cert is None:
        cert = scaffold_certificate(base)
        verdict = verify_base_certificate(cert)
        if not verdict:
            raise VerificationError(f"internal realization failure: {verdict.message()}")
    return cert
