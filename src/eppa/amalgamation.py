"""Free amalgams, embedding search, forbidden-family membership, minimal
forbidden structures and the desk-scale clique characterization of free
amalgamation classes."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import BoundExceededError, EppaError
from .structures import (Signature, Structure, embeddings, induced_substructure,
                         is_embedding, is_gaifman_clique)


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
    right_map = []
    fresh = left.size
    for b in range(right.size):
        if b in shared_image:
            right_map.append(shared_image[b])
        else:
            right_map.append(fresh)
            fresh += 1
    rels: dict[str, set[tuple[int, ...]]] = {}
    for name, _ in left.signature.symbols:
        rels[name] = {tuple(left_map[x] for x in t) for t in left.tuples(name)}
        rels[name] |= {tuple(right_map[x] for x in t) for t in right.tuples(name)}
    glued = Structure.make(left.signature, fresh, rels)
    return glued, left_map, tuple(right_map)


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
    best = None
    for perm in itertools.permutations(range(n)):
        rels = tuple(
            tuple(sorted(tuple(perm[x] for x in t) for t in tuples))
            for tuples in structure.relations)
        if best is None or rels < best:
            best = rels
    return Structure(structure.signature, n, best if best is not None else structure.relations)


def enumerate_structures(signature: Signature, size: int,
                         universe: Callable[[Structure], bool] | None = None
                         ) -> list[Structure]:
    """Canonical representatives (`canonical_form`) of all structures on
    `size` points, optionally in `universe`, which must be hereditary and closed
    under isomorphism: it is evaluated once per class, on the representative.
    The labelled states, bitmasks over the slots (symbol, tuple), are swept
    once per S_n-orbit, and only the orbit's least encoding is built.  Two
    members of an orbit hold equally many slots of each symbol, so the one
    that holds their lowest differing slot has the lesser encoding."""
    if (count := sum(size ** arity for _, arity in signature.symbols)) > 20:
        raise BoundExceededError(f"{count} relation slots; enumeration refused")
    slots = [(i, t) for i, (_, arity) in enumerate(signature.symbols)
             for t in itertools.product(range(size), repeat=arity)]
    index = {slot: k for k, slot in enumerate(slots)}
    # S_n is generated by (0 1) and x -> x + 1; moves[g][c][v] is g(v << 8c)
    gens = [(1, 0, *range(2, size)), (*range(1, size), 0)] if size > 1 else []
    moves = [[[sum(1 << index[i, tuple(g[x] for x in t)]
                   for j, (i, t) in enumerate(slots[8 * c:8 * c + 8]) if v >> j & 1)
               for v in range(256)] for c in range(3)] for g in gens]

    def encode(state: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return tuple(tuple(t for k, (j, t) in enumerate(slots) if j == i and state >> k & 1)
                     for i in range(len(signature.symbols)))

    seen = bytearray(1 << len(slots))
    out: list[Structure] = []
    for state in (m for m in range(len(seen)) if not seen[m]):
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
        structure = Structure(signature, size, encode(least))
        if universe is None or universe(structure):
            out.append(structure)
    return out


def _structures_up_to(signature: Signature, max_size: int,
                      universe: Callable[[Structure], bool] | None) -> list[Structure]:
    """enumerate_structures for every size from 0 to max_size, in order."""
    if max_size < 0:
        raise EppaError(f"size bound must be >= 0, got {max_size}")
    # largest first, so that an oversized bound is refused before any work
    batches = [enumerate_structures(signature, n, universe) for n in range(max_size, -1, -1)]
    return [s for batch in batches[::-1] for s in batch]


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
    isomorphism, for sizes <= max_size."""
    return [s for s in _structures_up_to(signature, max_size, universe)
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
    and report a witness for whichever side fails."""
    structures = _structures_up_to(signature, max_size, universe)
    minimal = tuple(s for s in structures if _is_minimal_forbidden(s, member))
    non_clique = next((f for f in minimal if not is_gaifman_clique(f)), None)
    members = [s for s in structures if member(s)]
    closure_witness = next(
        ((left, right, shared, glued)
         for left, right, shared, glued in _free_amalgams(members, max_size)
         if (universe is None or universe(glued)) and not member(glued)), None)

    return CharacterizationReport(
        cliques_side=non_clique is None,
        closure_side=closure_witness is None,
        non_clique_witness=non_clique,
        closure_witness=closure_witness,
        minimal=minimal)


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
