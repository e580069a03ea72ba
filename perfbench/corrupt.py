"""Seeded corruption of certificate files, re-stamped with the documented
sha256 digest so that the damage reaches the verifier instead of the parser.

Each corruption breaks one condition that the verifier checks, and every
check that the verifier runs before that condition still passes, so the
verdict is known by construction:

* ``extension``: the ``phi`` entry of a non-empty map p is replaced by the
  entry of another map q that sends an embedded domain point of p off its
  required image.  The new entry is still an automorphism (it is phi(q)), the
  table is still complete and the embedding is untouched, so the first failed
  check is the extension check (base, faithful and special certificates).
* ``lift`` (chain certificates): the lift of a stage element h is replaced by
  another element of the next stage group that does not extend h.
* ``embedding`` / ``iota-embedding``: when no phi entry can be swapped (the
  extension has only the identity automorphism), a loop is added at the
  image of point 0 in the extension, which A lacks.
"""

from __future__ import annotations

import hashlib
import random


class CorruptionError(ValueError):
    """No corruption with a known verdict exists for this file."""


def stamp(body: list[str]) -> str:
    """Certificate text for `body`, with the library's digest line."""
    digest = hashlib.sha256(("\n".join(body) + "\n").encode("utf-8")).hexdigest()
    return "\n".join(body + [f"digest {digest}"]) + "\n"


def _body(text: str) -> list[str]:
    lines = text.rstrip("\n").split("\n")
    if not lines[-1].startswith("digest "):
        raise CorruptionError("no digest line")
    return lines[:-1]


def _ints(body: str) -> list[int]:
    return [int(x) for x in body.split()]


def _pairs(key: str) -> list[tuple[int, int]]:
    if key == "-":
        return []
    return [tuple(map(int, item.split(">"))) for item in key.split(",")]


def _swap_phi(body: list[str], rng: random.Random) -> list[str] | None:
    embed = next(_ints(line[len("embed"):]) for line in body
                 if line.split()[0] == "embed")
    entries = {}
    for i, line in enumerate(body):
        if line.startswith("phi "):
            key, _, images = line[len("phi "):].partition(" : ")
            entries[key] = (i, _ints(images))
    sources = sorted(k for k in entries if k != "-")
    rng.shuffle(sources)
    for p in sources:
        pairs = _pairs(p)
        targets = sorted(q for q, (_, images) in entries.items()
                         if any(images[embed[x]] != embed[y] for x, y in pairs))
        if targets:
            q = rng.choice(targets)
            i = entries[p][0]
            out = list(body)
            out[i] = f"phi {p} : " + " ".join(map(str, entries[q][1]))
            return out
    return None


def _add_loop(body: list[str], block: str) -> list[str]:
    """Add the loop (k, ..., k) of the first symbol, k the image of point 0,
    to structure block `block`."""
    embed = next(_ints(line[len("embed"):]) for line in body
                 if line.split()[0] == "embed")
    start = body.index(f"structure {block}")
    rel = body[start + 1].split()
    symbol, arity = rel[1], int(rel[2])
    end = body.index("end", start)
    loop = " ".join([symbol] + [str(embed[0])] * arity)
    if loop in body[start:end]:
        raise CorruptionError(f"block {block} already holds {loop}")
    return body[:end] + [loop] + body[end:]


def _swap_lift(body: list[str], rng: random.Random) -> list[str]:
    inclusions, elements, lifts = {}, {}, []
    for i, line in enumerate(body):
        head, _, rest = line.partition(" : ")
        words = head.split()
        if words[0] == "include":
            inclusions[int(words[1])] = _ints(rest)
        elif words[0] == "gelem":
            elements.setdefault(int(words[1]), []).append(_ints(rest))
        elif words[0] == "lift":
            lifts.append((i, int(words[1]), int(words[2])))
    rng.shuffle(lifts)
    for i, stage, j in lifts:
        h, incl = elements[stage][j], inclusions[stage]
        wrong = [g for g in elements[stage + 1]
                 if any(g[incl[x]] != incl[h[x]] for x in range(len(h)))]
        if wrong:
            out = list(body)
            out[i] = f"lift {stage} {j} : " + " ".join(map(str, rng.choice(wrong)))
            return out
    raise CorruptionError("no lift can be replaced by a non-extending element")


def corrupt(text: str, rng: random.Random) -> tuple[str, str]:
    """A corrupted copy of certificate `text` and the condition that
    ``eppa verify`` must report for it."""
    body = _body(text)
    kind = body[0].split()[1]
    if kind == "chain":
        return stamp(_swap_lift(body, rng)), "lift"
    swapped = _swap_phi(body, rng)
    if swapped is not None:
        return stamp(swapped), "extension"
    if kind == "base-eppa":
        return stamp(_add_loop(body, "b")), "embedding"
    if kind == "faithful":
        return stamp(_add_loop(body, "c")), "embedding"
    if kind == "special":
        return stamp(_add_loop(body, "b")), "iota-embedding"
    raise CorruptionError(f"no corruption for certificate kind {kind!r}")
