"""Coherent EPPA base extensions: every partial automorphism of a finite
structure extends to an automorphism of a finite superstructure, and the
assignment respects composition.

Two realizations sit behind one verified certificate contract:

* a functor search that tries the structure itself and then minimal
  point-extensions; per connected component of the partial-automorphism
  groupoid it searches only a homomorphism of one vertex group, and spanning
  tree lifts carry it to the rest of the component.  A labelled state is
  rejected on its bitmask, before a Structure is built, when a map of
  Part(A) sends a point to one with a different count of tuples at some
  (symbol, position): no automorphism does that, so such a map has no
  extender, and the search's answers are exactly those of building
  Aut(candidate) for every state;
* Hrushovski's valuation scaffold: points of the extension are (vertex,
  valuation) pairs with one bit per slot (symbol, tuple up to the symbol's
  symmetry in A) through the vertex, permuted by order-preserving
  completions of the partial maps combined with forced bit flips; for
  graphs it has at most n * 2^(n-1) points.  It refuses only inputs whose
  lookup tables, orbit or verification cost pass their bounds in config.

Every certificate is verified before it is returned; realization bugs
surface as hard errors, never as wrong certificates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import config
from .coherence import ExtensionMap, Verdict, closure, verify_coherent_extension
from .errors import VerificationError
from .structures import (PartialAutomorphism, Permutation, Structure, automorphism_group,
                         enumerate_partial_automorphisms, is_embedding, subset_sums)


class PartGroupoid:
    """Part(A) as a groupoid, whose objects are the domains and whose arrows
    are the maps: `maps` lists Part(A) once, within the point bound, and the
    arrows, the spanning forest, its vertex groups' generators (cayley) and the
    moved pairs are built on first read.

    One groupoid serves one call: base_eppa builds it, and the certificate
    built over it carries it (`part`) to the verifier, the faithful pipeline
    and the chain stage.  It is not cached on Structure, as the benchmark
    keeps its structures for every pass: cached there, it raised base4's
    peak_rss_mb from 33.9 MB to 37.1-37.5 MB (+9.4% to +10.6%, against a 10%
    bound), and to 39.4-39.8 MB with its forest (seeds 41-43, 2-core host)."""

    def __init__(self, structure: Structure):
        self.structure = PartGroupoid.bounded(structure)
        self.maps = enumerate_partial_automorphisms(structure)

    @staticmethod
    def bounded(structure: Structure) -> Structure:
        """`structure`, refused over the point bound, past which no Part(A) is listed."""
        config.charge("structure a", structure.size, "points", config.max_points())
        return structure

    def carried_by(self, cert):
        """`cert`, built over this groupoid, with it as its cached `part`."""
        vars(cert)["part"] = self
        return cert

    @cached_property
    def arrows(self) -> dict[frozenset[int], list[PartialAutomorphism]]:
        """The arrows out of each domain, in encoding order."""
        arrows: dict[frozenset[int], list[PartialAutomorphism]] = {}
        for p in sorted(self.maps, key=PartialAutomorphism.encode):
            arrows.setdefault(p.domain(), []).append(p)
        return arrows

    @cached_property
    def forest(self) -> list[tuple[list[PartialAutomorphism], dict]]:
        """Per component, in the order of its root r, the least domain by
        (size, sorted points): (the vertex group of r, the arrows r -> r; its
        tree, mapping each domain t, r first, to tree(t): r -> t, the
        identity at r and else the first arrow r -> t in encoding order).
        That is the tree a BFS through every arrow builds, read from r's
        arrows alone: Part(A) is closed under composition, so each domain
        the component reaches is the image of an arrow out of r, and under
        inverses, so no arrow out of r leaves the component."""
        components: list = []
        reached: set[frozenset[int]] = set()
        for root in sorted(self.arrows, key=lambda s: (len(s), sorted(s))):
            if root in reached:
                continue
            tree = {root: PartialAutomorphism.identity_on(root)}
            for p in self.arrows[root]:
                tree.setdefault(p.image(), p)
            reached.update(tree)
            components.append(([p for p in self.arrows[root] if p.image() == root], tree))
        return components

    @cached_property
    def cayley(self) -> list[tuple[int, list[int], list[list[int]]]]:
        """Per component, in the order of forest, the vertex group's
        generators and their right-multiplication table (_cayley)."""
        return [_cayley(group) for group, _ in self.forest]

    @cached_property
    def moved(self) -> set[tuple[int, int]]:
        """The pairs (x, y), x != y, such that some map sends x to y."""
        return {(x, y) for p in self.maps for x, y in p.pairs if x != y}

    def spanning_maps(self) -> list[PartialAutomorphism]:
        """Per component, its vertex group and then its tree maps but the root's
        identity, each map once: those verify_coherent_extension checks."""
        return [p for group, tree in self.forest for p in group + list(tree.values())[1:]]

    def functor(self, values: Mapping[PartialAutomorphism, Permutation]) -> dict[str, Permutation]:
        """The table, by encoding, of the functor on Part(A) with `values` on
        spanning_maps(), the identity at each root: phi(p: s -> t) = value(T_t)
        value(g(p)) value(T_s)^-1, g(p) = T_t^-1 o p o T_s looked up by its
        pairs in the root's group.  A functor is fixed by these (spanning_triples)."""
        table: dict[str, Permutation] = {}
        for group, tree in self.forest:
            at = {g.pairs: values[g] for g in group}
            lift = {t: values[tree_t] for t, tree_t in tree.items()}
            inverse = {t: v.inverse() for t, v in lift.items()}
            back = {t: {y: x for x, y in tree_t.pairs} for t, tree_t in tree.items()}
            for s, tree_s in tree.items():
                for p in self.arrows[s]:
                    t, m = p.image(), p.as_dict()
                    g = tuple([(x, back[t][m[y]]) for x, y in tree_s.pairs])
                    table[p.encode()] = lift[t].compose(at[g]).compose(inverse[s])
        return table

    def spanning_triples(self) -> list[tuple[PartialAutomorphism, ...]]:
        """Coherent triples of Part(A) on which coherence implies coherence on
        all of coherent_triples(maps).  Per component, with root r, vertex
        group G(r), its generators S(r) (cayley) and tree T_t: r -> t:

          (a, s, a o s)        for a in G(r) and s in S(r), or (e, e, e) when
                               G(r) = {e} and S(r) is empty;
          (T_t, h, T_t o h)    for every domain t != r of the component and h in G(r);
          (p, T_s, p o T_s)    for every map p: s -> t of the component with s != r.

        No triple is listed twice.  Proof.  The first family makes phi a
        homomorphism on G(r).  The triple (e, s, s) forces phi(e) = id (as
        (e, e, e) does when G(r) is trivial).  Every element of a finite group
        is a positive word in S(r), so phi(a w) = phi(a) phi(w) follows by
        induction on the length of w: phi(a w s) = phi(a w) phi(s) = phi(a)
        phi(w) phi(s) = phi(a) phi(w s).  As phi(id_r) = id, the triples the
        other two families leave out, at T_r = id_r, hold as well.  For
        p: s -> t let g(p) = T_t^-1 o p o T_s, in G(r).  Since T_t o g(p) =
        p o T_s, the second family at h = g(p) and the third at p give phi(p)
        phi(T_s) = phi(T_t) phi(g(p)), so phi(p) = phi(T_t) phi(g(p))
        phi(T_s)^-1.  For p: s -> t and p': t -> u, g(p') o g(p) = g(p' o
        p), so phi(p') phi(p) = phi(T_u) phi(g(p')) phi(g(p)) phi(T_s)^-1 =
        phi(p' o p): phi is a functor on the groupoid, which is coherence (a
        functor on a connected groupoid is fixed by a vertex group
        homomorphism and its values on a spanning tree; R. Brown, Topology
        and Groupoids).  The composites are taken from `maps` or the
        vertex group, so each triple is one of coherent_triples(maps)."""
        by_pairs = {p.pairs: p for p in self.maps}

        def after(p1: PartialAutomorphism, p2: PartialAutomorphism) -> PartialAutomorphism:
            m = p1.as_dict()
            return by_pairs[tuple([(x, m[y]) for x, y in p2.pairs])]

        out = []
        for (group, tree), (e, gens, right) in zip(self.forest, self.cayley):
            out += [(a, group[s], group[col[i]]) for i, a in enumerate(group)
                    for s, col in zip(gens, right)] or [(group[e],) * 3]
            branches = list(tree.items())[1:]  # every domain but the root
            out += [(tree_t, h, after(tree_t, h)) for _, tree_t in branches for h in group]
            out += [(p, tree_s, after(p, tree_s)) for s, tree_s in branches
                    for p in self.arrows[s]]
        return out


def _cayley(group: list[PartialAutomorphism]) -> tuple[int, list[int], list[list[int]]]:
    """(e, gens, right) for a vertex group listed as `group`: e indexes the
    identity; gens, taken greedily in list order, are each the first element
    outside the subgroup the earlier ones generate, so there are at most
    log2 |G|; right[k][a] indexes group[a] o group[gens[k]], found by its
    images, not built as a map."""
    images = [tuple([y for _, y in g.pairs]) for g in group]
    index = {im: i for i, im in enumerate(images)}
    rank = {x: i for i, (x, _) in enumerate(group[0].pairs)}
    e = index[tuple(rank)]
    gens: list[int] = []
    right: list[list[int]] = []
    reached = {e}
    for s, s_images in enumerate(images):
        if s not in reached:
            at = [rank[y] for y in s_images]  # (a o s)(x_i) = a(s(x_i))
            gens.append(s)
            right.append([index[tuple(map(a.__getitem__, at))] for a in images])
            reached = closure([e], lambda a: [col[a] for col in right])
    return e, gens, right


@dataclass(frozen=True)
class BaseEppaCertificate:
    """Extension B of A with a coherent, extending map over all of Part(A)."""

    base: Structure
    extension: Structure
    phi: ExtensionMap = field(hash=False)

    @property
    def embedding(self) -> tuple[int, ...]:
        """The embedding of A into B that phi extends through."""
        return self.phi.embedding

    @cached_property
    def part(self) -> PartGroupoid:
        """Part(A), the groupoid phi is built over, listed here if not carried."""
        return PartGroupoid(self.base)


def verify_base_certificate(cert: BaseEppaCertificate) -> Verdict:
    """Full re-check: embedding, then the table over Part(A) in the one
    sequence of verify_coherent_extension.  Coherence over Part(A) forces
    phi(id_D) = id and phi(p^-1) = phi(p)^-1, so they need no check of
    their own.  phi then embeds Aut(A) as a group: coherence makes it a
    homomorphism there, and two distinct automorphisms of A differ at some
    x, so their extensions differ at the embedded image of x.  Part(A) is
    the certificate's `part`, read before any check, so A over the point
    bound, or a Part(A) over the map bound, raises BoundExceededError."""
    part = cert.part
    if not is_embedding(cert.embedding, cert.base, cert.extension):
        return Verdict.failed("embedding", "A is not induced in B along the embedding")
    return verify_coherent_extension(cert.phi, part, cert.extension)


# ---------------------------------------------------------------------------
# Realization 1: coherent assignment into a candidate extension (functor
# search over the partial-automorphism groupoid).

def coherent_assignment(part: PartGroupoid, candidate: Structure,
                        embedding: Sequence[int]) -> dict[str, Permutation] | None:
    """The first coherent, extending assignment Part(A) -> Aut(candidate),
    for the groupoid `part` of A; None when there is none.

    Coherence makes the assignment a functor on the groupoid.  Per
    component of part.forest, with root r and tree maps tree(t): r -> t,
    the one choice searched is a homomorphism `hom` of r's vertex group, on
    the generators of part.cayley only (_first_homomorphism proves that
    this finds a homomorphism, and the first in group order).  With
    lift(t) the first extender of tree(t) (the identity at r), the table is
    part.functor of hom and the lifts: phi(p) = lift(t) hom(g(p))
    lift(s)^-1 extends p because each factor extends its own map.  So
    extenders are listed only for the generators, and only the first for
    each tree map: any other vertex-group value is a product of
    automorphisms, so it is an extender of its element exactly when it
    extends it.  The search's candidates have passed its only filter, on
    tuple counts, already (_extension_candidates)."""
    emb = tuple(embedding)
    aut = automorphism_group(candidate, degree_bound=config.SEARCH_TARGET_SIZE)

    def extends(p: PartialAutomorphism, g: Permutation) -> bool:
        return all(g.images[emb[x]] == emb[y] for x, y in p.pairs)

    def extenders(p: PartialAutomorphism) -> Iterator[Permutation]:
        return (g for g in aut.elements if extends(p, g))

    values: dict[PartialAutomorphism, Permutation] = {}
    for (group, tree), cayley in zip(part.forest, part.cayley):
        hom = _first_homomorphism(group, cayley, extenders, extends)
        lift = {tree_t: next(extenders(tree_t), None) for tree_t in tree.values()}
        if hom is None or None in lift.values():
            return None
        values |= hom | lift
    return part.functor(values)


def _first_homomorphism(group: list[PartialAutomorphism], cayley: tuple,
                        extenders: Callable[[PartialAutomorphism], Iterable[Permutation]],
                        extends: Callable[[PartialAutomorphism, Permutation], bool]
                        ) -> dict[PartialAutomorphism, Permutation] | None:
    """The first homomorphism h on the vertex group `group` with each h(a)
    among extenders(a), in the order of backtracking over each element's
    extenders in list order; None when there is none.  `extends(a, v)`
    tells whether v is one of extenders(a).

    The search backtracks over the generators' values only, in the order
    of cayley = (e, gens, right) (_cayley), with h(e) = id, the identity
    being the only idempotent.  At each node the chosen values are closed
    over the table from e: with H the subgroup of the chosen generators,
    every product a o s with a in H and s a chosen generator is given h(a)
    h(s), or compared with the value it has.  A conflict, or a derived
    value v with not extends(a o s, v), rejects the node (with the lists of
    coherent_assignment that never happens, as a product of extenders
    extends the product, but other lists need not be closed so).  Proof of
    soundness.  A homomorphism is fixed on H by its generator values, so a
    rejected node extends to none.  Once every generator is chosen, h(a s)
    = h(a) h(s) for every a and s, and every element is a positive word in
    the generators, so h(a w) = h(a) h(w) by induction on the length of w:
    h is a homomorphism.  The first answer is that of the search over
    every element in list order: each element before gens[j] lies in the
    subgroup of gens[:j], so two homomorphisms that first differ at gens[j]
    first differ at gens[j]'s place in the list, too."""
    e, gens, right = cayley
    options = [list(extenders(group[s])) for s in gens]
    identity = next((h for h in extenders(group[e]) if h.compose(h) == h), None)
    if identity is None or not all(options):
        return None

    def closed(chosen: list[Permutation]) -> dict[int, Permutation] | None:
        """The values that `chosen`, the values of gens[:len(chosen)], give
        the subgroup they generate; None on a conflict or on a value that
        does not extend its element."""
        values, order = {e: identity}, [e]
        for a in order:  # also visits the elements appended below
            for col, h in zip(right, chosen):
                c, v = col[a], values[a].compose(h)
                if c not in values:
                    if not extends(group[c], v):
                        return None
                    values[c] = v
                    order.append(c)
                elif values[c] != v:
                    return None
        return values

    def search(chosen: list[Permutation]) -> dict[int, Permutation] | None:
        values = closed(chosen)
        if values is None or len(chosen) == len(gens):
            return values
        for h in options[len(chosen)]:
            if (found := search([*chosen, h])) is not None:
                return found
        return None

    values = search([])
    return None if values is None else {g: values[i] for i, g in enumerate(group)}


def _extension_candidates(base: Structure, extra: int, moved: Iterable[tuple[int, int]]):
    """Extensions of `base` by `extra` fresh points, in canonical bitmask
    order over the new slots.  A slot is (symbol, the tuples it adds): on a
    graph one edge, added as both arcs, so that graph inputs stay graphs, on
    each symbol that holds a tuple of A; otherwise one tuple through a fresh
    point.  A symbol empty in A stays empty, which loses no extension:
    emptying a relation that A does not hold keeps A induced and each
    automorphism an automorphism.  No
    Structure is built for a state in which a moved pair (x, y) of Part(A)
    joins base points with different counts of tuples at some (symbol,
    position): x's count in `base` plus the set slots that add one, at most
    one per slot.  The filter is exact: an automorphism keeps each point's
    counts, so a map that moves x to y has no extender, and
    coherent_assignment would return None.  With no pairs in `moved`,
    every state is built.  Tuple slots past the search's gate are counted,
    not listed, and with no fresh point none is listed: listing walks all
    m^arity tuples of each symbol."""
    n, m = base.size, base.size + extra
    if base.is_graphlike():
        slots = [(name, ((i, j), (j, i)))
                 for (name, _), tuples in zip(base.signature.symbols, base.relations) if tuples
                 for i in range(m) for j in range(i + 1, m) if j >= n]
        if len(slots) > config.SEARCH_MAX_GRAPH_SLOTS:
            return
    elif sum(m ** a - n ** a for _, a in base.signature.symbols) > config.SEARCH_MAX_SLOTS:
        return
    else:
        slots = [(name, (t,)) for name, arity in base.signature.symbols
                 for t in itertools.product(range(m), repeat=arity)
                 if any(x >= n for x in t)] if extra else []
    # per point and (symbol, position): (count in base, mask of slots adding one)
    counts = [[(sum(t[i] == x for t in tuples),
                sum(1 << k for k, (slot_name, added) in enumerate(slots)
                    if slot_name == name and any(t[i] == x for t in added)))
               for (name, arity), tuples in zip(base.signature.symbols, base.relations)
               for i in range(arity)] for x in range(base.size)]
    checks = {(cy - cx, mx, my) for x, y in moved
             for (cx, mx), (cy, my) in zip(counts[x], counts[y]) if (cx, mx) != (cy, my)}
    for state in range(1 << len(slots)):
        if any((state & mx).bit_count() - (state & my).bit_count() != d for d, mx, my in checks):
            continue
        rels = {name: set(base.tuples(name)) for name, _ in base.signature.symbols}
        for k, (name, added) in enumerate(slots):
            if state >> k & 1:
                rels[name].update(added)
        yield Structure.make(base.signature, m, rels)


def _search_certificate(part: PartGroupoid, max_extra: int) -> BaseEppaCertificate | None:
    """Iterative deepening over point-extensions of A and coherent
    assignments over its groupoid `part`: the certificate of the first
    assignment found, or None when the budget is exhausted."""
    base = part.structure
    emb = tuple(range(base.size))
    for extra in range(max_extra + 1):
        for candidate in _extension_candidates(base, extra, part.moved):
            table = coherent_assignment(part, candidate, emb)
            if table is not None:
                phi = ExtensionMap(domain_universe=base.size,
                                   codomain_universe=candidate.size,
                                   embedding=emb, table=table)
                return part.carried_by(
                    BaseEppaCertificate(base=base, extension=candidate, phi=phi))
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
        # valuations are looked up in two halves, split at this bit: a table
        # over all of a point's slots would take 2^18 entries per point and
        # completion for one ternary symbol on 4 points
        self.half = min(map(len, self.slots_of), default=0) // 2

    def key(self, si: int, t: Sequence[int]):
        symmetric, loopy = self.kinds[si]
        if len(set(t)) < len(t) and not loopy:
            return None
        return (si, tuple(sorted(t)) if symmetric else tuple(t))

    def completion(self, pi: Permutation):
        """(moves, tables) for an order completion pi: moves[v][j] is the
        bit of pi(v) that slot j of v goes to, and tables[v] = (low, high)
        are the subset sums of those bits below and from self.half, so that
        pi sends a valuation c at v to low[c & mask] | high[c >> half]."""
        moves = tuple(tuple(self.slot_index[pi(v)][self.key(si, tuple(pi(z) for z in k))]
                            for si, k in self.slots_of[v])
                      for v in range(self.n))
        tables = tuple((subset_sums([1 << b for b in m[:self.half]]),
                        subset_sums([1 << b for b in m[self.half:]])) for m in moves)
        return moves, tables

    def action(self, p: PartialAutomorphism, moves) -> tuple[int, ...]:
        """The flips of p, whose order completion moves slots as `moves`
        (completion): flips[v] is XORed into the valuation of a point over v
        before the completion moves its bits.  The flips send theta_x to
        theta_p(x) on dom(p); at every slot with a point outside dom(p) the
        least such point evens out the flips, so the XOR of each slot's bits
        is invariant."""
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
        return tuple(flips)


def scaffold_certificate(part: PartGroupoid) -> BaseEppaCertificate:
    """Generic realization over the groupoid `part` of A: the extension is
    the orbit of the embedded copy under the spanning maps' actions, and
    the table their functor (part.functor).  The actions compose as the
    maps do, so each is a product of spanning ones and their inverses: the
    orbit is that under every action, and each map's action on it is its
    functor value.  The action of p is (pi, flips): pi its order
    completion, whose slot moves and image tables are built once per call
    (_Scaffold.completion), and flips its bit flips (_Scaffold.action).  It
    sends a point (v, chi) to (pi(v), the table image of chi ^ flips[v]).
    The orbit sweep applies each distinct action to each point once, and
    the images it finds are that action's Permutation.  A symbol holds on
    the products of fibre halves, split by their bit at the slot, whose
    bits XOR to 1."""
    base, maps = part.structure, part.maps
    arities = [arity for _, arity in base.signature.symbols]

    def verification(size: int) -> None:
        config.charge("scaffold verification", len(maps) * sum(size ** a for a in arities),
                      "tuple checks", config.SCAFFOLD_MAX_COST)

    verification(base.size)  # the first round's, before _Scaffold lists n^arity tuples
    sc = _Scaffold(base)
    pis = {p: p.order_completion(sc.n) for p in part.spanning_maps()}
    distinct = dict.fromkeys(pis.values())
    # each completion's tables hold 2^half + 2^(slots - half) entries per point
    entries = len(distinct) * sum(2 ** sc.half + 2 ** (len(s) - sc.half) for s in sc.slots_of)
    config.charge("scaffold lookup table", entries, "entries", config.SCAFFOLD_MAX_ENTRIES)
    completions = {pi: sc.completion(pi) for pi in distinct}
    actions = {p: (pi, sc.action(p, completions[pi][0])) for p, pi in pis.items()}
    points = list(enumerate(sc.theta))
    index = {pt: i for i, pt in enumerate(points)}
    half, mask = sc.half, (1 << sc.half) - 1
    # per distinct action and vertex v: pi(v), flips[v] and v's tables
    steps = {(pi, flips): [(pi(v), flips[v], *completions[pi][1][v]) for v in range(sc.n)]
             for pi, flips in sorted(set(actions.values()), key=lambda a: (a[0].images, a[1]))}

    def images(step: list) -> Iterator[tuple[int, int]]:
        for v, chi in points:
            w, flip, low, high = step[v]
            c = chi ^ flip
            yield w, low[c & mask] | high[c >> half]

    # each sweep reads the growing list of points, one point per round.  A
    # round is refused when len(Part(A)) x cells of the orbit so far passes
    # the cost bound, charged for the first round above and for each next
    # one at the end of its predecessor; the verifier scans the tuples once
    # per distinct spanning value, not per map, but the bound keeps that unit
    sweeps = [images(step) for step in steps.values()]
    for _ in points:
        for image in map(next, sweeps):
            if image not in index:
                config.charge("scaffold orbit", len(index) + 1, "points",
                              config.SCAFFOLD_MAX_POINTS)
                index[image] = len(points)
                points.append(image)
        verification(len(points))

    size = len(points)
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
            # halves[k][b]: the points over vs[k] whose bit at slot s is b
            halves = [([], []) for _ in vs]
            for k, v in enumerate(vs):
                j = sc.slot_index[v][s]
                for i in over[v]:
                    halves[k][points[i][1] >> j & 1].append(i)
            pos = [vs.index(x) for x in t]
            for bits in itertools.product((0, 1), repeat=len(vs)):
                if sum(bits) % 2:
                    rels[name] += (tuple([choice[k] for k in pos]) for choice in
                                   itertools.product(*(h[b] for h, b in zip(halves, bits))))
    extension = Structure.make(base.signature, size, rels)

    perms = {a: Permutation(tuple(map(index.__getitem__, images(step))))
             for a, step in steps.items()}
    table = part.functor({p: perms[a] for p, a in actions.items()})
    emb = tuple(range(base.size))
    phi = ExtensionMap(domain_universe=base.size, codomain_universe=size,
                       embedding=emb, table=table)
    return part.carried_by(BaseEppaCertificate(base=base, extension=extension, phi=phi))


# ---------------------------------------------------------------------------

def base_eppa(base: Structure) -> BaseEppaCertificate:
    """Coherent EPPA extension of an arbitrary finite structure.

    Lists Part(A) once (PartGroupoid), tries the minimal realizations first
    (the structure itself, then small point-extensions) and falls back to
    the generic scaffold; whichever realization answers is verified in
    full, once, over the same groupoid, which the certificate carries, and
    a failure raises VerificationError.
    """
    part = PartGroupoid(base)
    cert = None
    if base.size <= config.SEARCH_MAX_SIZE and len(part.maps) <= config.SEARCH_MAX_PART:
        budget = max(0, config.SEARCH_TARGET_SIZE - base.size)
        cert = _search_certificate(part, budget)
    if cert is None:
        cert = scaffold_certificate(part)
    verdict = verify_base_certificate(cert)
    if not verdict:
        raise VerificationError(f"internal realization failure: {verdict.message()}")
    return cert
