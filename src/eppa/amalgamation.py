"""Free amalgams, embedding search, forbidden-family membership, minimal
forbidden structures and the desk-scale clique characterization of free
amalgamation classes."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from . import config
from .errors import EppaError
from .structures import (Signature, Structure, embeddings, gaifman_masks,
                         induced_substructure, is_embedding, is_gaifman_clique,
                         subset_sums)


@dataclass(frozen=True)
class AmalgamInstance:
    """Two extensions of a common substructure, glued freely."""

    shared: Structure
    left: Structure
    right: Structure
    into_left: tuple[int, ...]
    into_right: tuple[int, ...]

    def __post_init__(self):
        if not is_embedding(self.into_left, self.shared, self.left):
            raise EppaError("left inclusion is not an embedding")
        if not is_embedding(self.into_right, self.shared, self.right):
            raise EppaError("right inclusion is not an embedding")


def free_amalgam(instance: AmalgamInstance) -> tuple[Structure, tuple[int, ...], tuple[int, ...]]:
    """Disjoint union of the two sides glued along the shared part; relations
    are exactly the union, so no tuple meets both outer sides."""
    left, right = instance.left, instance.right
    left_map = tuple(range(left.size))
    shared_image = dict(zip(instance.into_right, instance.into_left))
    fresh = itertools.count(left.size)
    right_map = tuple(shared_image[b] if b in shared_image else next(fresh)
                      for b in range(right.size))
    rels = {name: {*left.tuples(name), *(tuple(right_map[x] for x in t)
                                         for t in right.tuples(name))}
            for name, _ in left.signature.symbols}
    glued = Structure.make(left.signature, next(fresh), rels)  # size: the next fresh point
    return glued, left_map, right_map


def exists_embedding(pattern: Structure, target: Structure) -> tuple[int, ...] | None:
    """First embedding of `pattern` into `target` in lexicographic order of
    assignments, or None."""
    return next(embeddings(pattern, target), None)


def forb_e_member(structure: Structure, forbidden: Sequence[Structure]) -> bool:
    """No member of the family embeds."""
    return all(exists_embedding(q, structure) is None for q in forbidden)


def canonical_form(structure: Structure) -> Structure:
    """Minimum relation encoding over all permutations of the universe;
    brute force, intended for sizes <= 5."""
    n = structure.size
    best = min(tuple(tuple(sorted(tuple(perm[x] for x in t) for t in tuples))
                     for tuples in structure.relations)
               for perm in itertools.permutations(range(n)))
    return Structure(structure.signature, n, best)


def enumerate_structures(signature: Signature, size: int,
                         universe: Callable[[Structure], bool] | None = None
                         ) -> list[Structure]:
    """The canonical structures on `size` points (in `universe`), ordered as in `_classes`."""
    return [s for s in _classes(signature, size, universe) if s.size == size]


def _classes(signature: Signature, max_size: int,
             universe: Callable[[Structure], bool] | None) -> Iterator[Structure]:
    """Canonical representatives (`canonical_form`) of all structures on at
    most `max_size` points, optionally in `universe`, by size and then by
    their class's least labelled state, a bitmask over the slots (symbol,
    tuple).  Each size is swept once.  The states swept on n points are the
    states of the classes kept on n - 1 points, each with every set of the
    new point's slots; without a universe that is every state, swept as a
    range.  Each S_n-orbit reached is closed once, and until it is yielded a
    class is two ints: its least state and its state of least encoding (two
    members hold equally many slots of each symbol, so the one holding their
    lowest differing slot has the lesser encoding).
    `universe` is called once per class reached, on its representative.
    That reaches every class when `universe` is hereditary and closed under
    isomorphism, as it must be: a member's restriction to its first n - 1
    points is then a member.  Other universes can lose classes."""
    if max_size < 0:
        raise EppaError(f"size must be >= 0, got size bound {max_size}")
    count = sum(max_size ** arity for _, arity in signature.symbols)
    config.charge("structure enumeration", count, "relation slots", config.ENUMERATION_MAX_SLOTS)
    parents = [0]  # the one state with no slots
    for size in range(max_size + 1):
        slots = [(i, t) for i, (_, arity) in enumerate(signature.symbols)
                 for t in itertools.product(range(size), repeat=arity)]
        index = {slot: k for k, slot in enumerate(slots)}
        # S_n is generated by (0 1) and x -> x + 1; g(m) is low[m & 255] | high[m >> 8]
        gens = [(1, 0, *range(2, size)), (*range(1, size), 0)] if size > 1 else []
        moves = [(subset_sums(images[:8]), subset_sums(images[8:])) for images in
                 ([1 << index[i, tuple(g[x] for x in t)] for i, t in slots] for g in gens)]
        seen = bytearray(1 << len(slots))
        if universe is None:
            candidates = range(len(seen))
        else:  # the slots without the new point are the slots on size - 1 points, in order
            lift = subset_sums([1 << k for k, (_, t) in enumerate(slots) if size - 1 not in t])
            news = subset_sums([1 << k for k, (_, t) in enumerate(slots) if size - 1 in t])
            candidates = (lift[p] | new for p in parents for new in news)

        # per symbol, (shift, table) for each byte holding its slots: table[b]
        # lists in order the symbol's tuples whose slots are set in byte value b
        decoders = [[(c, subset_sums([(t,) if j == i else () for j, t in slots[c:c + 8]], ()))
                     for c in range(0, len(slots), 8) if any(j == i for j, _ in slots[c:c + 8])]
                    for i in range(len(signature.symbols))]

        def encode(state: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
            return tuple(tuple(itertools.chain.from_iterable(
                table[state >> c & 255] for c, table in tables)) for tables in decoders)

        found, kept = [], []
        for state in candidates:
            if seen[state]:
                continue
            seen[state] = 1
            orbit, least = [state], state
            for member in orbit:  # close the orbit under the generators
                if (diff := member ^ least) & -diff & member:
                    least = member
                for low, high in moves:
                    image = low[member & 255] | high[member >> 8]
                    if not seen[image]:
                        seen[image] = 1
                        orbit.append(image)
            if universe is None or universe(Structure(signature, size, encode(least))):
                found.append((min(orbit), least))
                if size < max_size:  # the parents of the next size
                    kept += orbit
        parents = kept
        for _, least in sorted(found):
            yield Structure(signature, size, encode(least))


def _deletions(s: Structure) -> Iterator[Structure]:
    """The one-point deletions s - v, by v, each built when it is reached."""
    return (induced_substructure(s, [x for x in range(s.size) if x != v])[0]
            for v in range(s.size))


def minimal_forbidden(member: Callable[[Structure], bool], max_size: int,
                      signature: Signature,
                      universe: Callable[[Structure], bool] | None = None
                      ) -> list[Structure]:
    """Non-members all of whose one-point deletions are members, up to
    isomorphism, for sizes <= max_size, each tested as it is enumerated."""
    return [s for s in _classes(signature, max_size, universe)
            if not member(s) and all(map(member, _deletions(s)))]


@dataclass(frozen=True)
class CharacterizationReport:
    """Outcome of the desk-scale biconditional: minimal forbidden structures
    are all Gaifman cliques iff the class is closed under free amalgams."""

    cliques_side: bool
    closure_side: bool
    non_clique_witness: Structure | None
    closure_witness: tuple[Structure, Structure, Structure, Structure] | None
    minimal: tuple[Structure, ...]

    def agree(self) -> bool:
        return self.cliques_side == self.closure_side


def check_clique_characterization(member: Callable[[Structure], bool],
                                  max_size: int, signature: Signature,
                                  universe: Callable[[Structure], bool] | None = None
                                  ) -> CharacterizationReport:
    """Check both sides of the characterization on structures of bounded size
    and report a witness for whichever side fails, testing each structure as
    it is enumerated.  `member` is called once per distinct structure, on the
    enumerated structures, their one-point deletions and their closed
    neighbourhoods; `universe` only by the sweep, once per class reached.

    Closure is decided on one-point amalgams, which is exact when `member`
    and `universe` are hereditary and closed under isomorphism.  Glue L and
    R over S, R with points r1..rm outside S, as D_m: D_0 = L, and D_i glues
    D_(i-1) and R_i = R on S + r1..ri over R_(i-1).  Each D_i is induced in
    D_m, so in the universe and the bound, and each R_i is a member; so if
    no one-point amalgam of members fails, by induction no D_i does.  A
    one-point amalgam D of L and R = S + r over S has every tuple through
    v = r in S + v, so D - v = L and D[N[v]] (induced in R) are members and
    D's class is enumerated; conversely, D is the free amalgam of D - v and
    D[N[v]] over D[N(v)], N(v) the Gaifman neighbours of v.  So the witness
    is (D - v, D[N[v]], D[N(v)], D) for the first non-member D and point v
    whose two parts are members, and no amalgam is built."""
    member = functools.cache(member)
    minimal, closure_witness = [], None
    for s in _classes(signature, max_size, universe):
        if member(s):
            continue
        deletions = list(_deletions(s))
        if all(map(member, deletions)):
            minimal.append(s)
        for v, mask in enumerate(gaifman_masks(s) if closure_witness is None else ()):
            near = [x for x in range(s.size) if mask >> x & 1]
            closed, shared = (induced_substructure(s, pts)[0] for pts in ([v, *near], near))
            if member(deletions[v]) and member(closed):
                closure_witness = (deletions[v], closed, shared, s)
                break
    non_clique = next((f for f in minimal if not is_gaifman_clique(f)), None)
    return CharacterizationReport(
        cliques_side=non_clique is None,
        closure_side=closure_witness is None,
        non_clique_witness=non_clique,
        closure_witness=closure_witness,
        minimal=tuple(minimal))


def is_graph_universe(structure: Structure) -> bool:
    """Universe predicate for simple graphs over a single binary symbol."""
    return structure.is_graphlike()
