"""Free amalgams, embedding search, forbidden-family membership, minimal
forbidden structures and the desk-scale clique characterization of free
amalgamation classes."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import BoundExceededError, EppaError
from .structures import (Signature, Structure, embeddings, induced_substructure,
                         is_embedding, is_gaifman_clique, subset_sums)


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
    shared_image = {instance.into_right[a]: instance.into_left[a]
                    for a in range(instance.shared.size)}
    fresh = itertools.count(left.size)
    right_map = tuple(shared_image[b] if b in shared_image else next(fresh)
                      for b in range(right.size))
    rels: dict[str, set[tuple[int, ...]]] = {}
    for name, _ in left.signature.symbols:
        rels[name] = {tuple(left_map[x] for x in t) for t in left.tuples(name)}
        rels[name] |= {tuple(right_map[x] for x in t) for t in right.tuples(name)}
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
    if (count := sum(max_size ** arity for _, arity in signature.symbols)) > 20:
        raise BoundExceededError(f"{count} relation slots; enumeration refused")
    parents = [0]  # the one state with no slots
    for size in range(max_size + 1):
        slots = [(i, t) for i, (_, arity) in enumerate(signature.symbols)
                 for t in itertools.product(range(size), repeat=arity)]
        index = {slot: k for k, slot in enumerate(slots)}
        # S_n is generated by (0 1) and x -> x + 1; moves[g][c][v] is g(v << 8c)
        gens = [(1, 0, *range(2, size)), (*range(1, size), 0)] if size > 1 else []
        moves = [[subset_sums(images[c:c + 8]) for c in (0, 8, 16)] for images in
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
                for low, mid, high in moves:
                    image = low[member & 255] | mid[member >> 8 & 255] | high[member >> 16]
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


def _is_minimal_forbidden(s: Structure, member: Callable[[Structure], bool]) -> bool:
    """s is a non-member all of whose one-point deletions are members."""
    return not member(s) and all(
        member(induced_substructure(s, [x for x in range(s.size) if x != v])[0])
        for v in range(s.size))


def minimal_forbidden(member: Callable[[Structure], bool], max_size: int,
                      signature: Signature,
                      universe: Callable[[Structure], bool] | None = None
                      ) -> list[Structure]:
    """Non-members all of whose one-point deletions are members, up to
    isomorphism, for sizes <= max_size, each tested as it is enumerated."""
    return [s for s in _classes(signature, max_size, universe)
            if _is_minimal_forbidden(s, member)]


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
    it is enumerated.  `member` and `universe`, on the enumerated structures
    and the amalgams alike, are each called once per distinct structure."""
    member = functools.cache(member)
    if universe is not None:
        universe = functools.cache(universe)
    minimal, members = [], []
    for s in _classes(signature, max_size, universe):
        if member(s):
            members.append(s)
        elif _is_minimal_forbidden(s, member):
            minimal.append(s)
    non_clique = next((f for f in minimal if not is_gaifman_clique(f)), None)
    closure_witness = next(
        ((left, right, shared, glued)
         for left, right, shared, glued in _free_amalgams(members, max_size)
         if (universe is None or universe(glued)) and not member(glued)), None)

    return CharacterizationReport(
        cliques_side=non_clique is None,
        closure_side=closure_witness is None,
        non_clique_witness=non_clique,
        closure_witness=closure_witness,
        minimal=tuple(minimal))


def _free_amalgams(members: Sequence[Structure], max_size: int):
    """Free amalgams of two members with at most `max_size` points, as
    (left, right, shared, glued): the shared part is induced on a point set
    of left, and its embeddings into right come by image set, then in
    lexicographic order."""
    for left in members:
        for right in members:
            for k in range(min(left.size, right.size) + 1):
                if left.size + right.size - k > max_size:
                    continue
                for pts_left in itertools.combinations(range(left.size), k):
                    shared, _ = induced_substructure(left, pts_left)
                    for into_right in sorted(embeddings(shared, right), key=sorted):
                        inst = AmalgamInstance(shared, left, right, pts_left, into_right)
                        yield left, right, shared, free_amalgam(inst)[0]


def is_graph_universe(structure: Structure) -> bool:
    """Universe predicate for simple graphs over a single binary symbol."""
    return structure.is_graphlike()
