"""Text formats: structure files and self-contained certificate files.

Certificates are canonical text (fixed section order, sorted keys, newline
terminated) stamped with a sha256 content digest, so identical constructions
produce byte-identical files and the verifier works from file contents alone.
The emitters are the only definition of the certificate format: the parser
reads a file's lines in any order, builds the certificate from them, and
accepts the file only if emitting that certificate gives back its bytes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from itertools import chain, islice
from typing import Hashable, Sequence

from .base_extension import BaseEppaCertificate, PartGroupoid, verify_base_certificate
from .chains import ChainCertificate, ChainStage, verify_chain
from .coherence import ExtensionMap, PermutationGroup, Verdict
from .errors import EppaError, StructureSyntaxError
from .faithful import FaithfulCertificate, verify_faithful_view
from .quotient import SpecialCertificate, verify_special
from .structures import (PartialAutomorphism, Permutation, Signature, Structure)


# ---------------------------------------------------------------------------
# the two conversions of both formats


def _int(word: str, line: int, least: int = 0) -> int:
    """A plain decimal integer: ASCII digits, optionally after one '-'."""
    digits = word[1:] if word.startswith("-") else word
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        value = int(word)
    except ValueError:
        raise StructureSyntaxError(f"expected an integer, got {word!r}", line) from None
    if value < least:
        raise StructureSyntaxError(f"expected an integer >= {least}, got {value}", line)
    return value


def _ints(words: Sequence[str], line: int) -> tuple[int, ...]:
    """Plain decimal integers >= 0: in one step when every word is ASCII
    digits, else word by word, which names the first bad word."""
    digits = "".join(words)
    if digits.isascii() and digits.isdigit():
        return tuple(map(int, words))
    return tuple(_int(w, line) for w in words)


def _pmap(word: str, line: int) -> PartialAutomorphism:
    try:
        return PartialAutomorphism.decode(word)
    except EppaError as exc:
        raise StructureSyntaxError(f"bad partial map {word!r}: {exc}", line) from None


# ---------------------------------------------------------------------------
# structure files

def emit_structure(structure: Structure, name: str = "s") -> str:
    """The structure block, newline terminated.  Each relation is written by
    one %-format over its flattened tuples (see _structure_text)."""
    return _structure_text(structure, name) + "\n"


def _structure_text(structure: Structure, name: str) -> str:
    lines = [f"structure {name}"]
    for sym, arity in structure.signature.symbols:
        lines.append(f"rel {sym} {arity}")
    lines.append(f"size {structure.size}")
    for (sym, arity), ts in zip(structure.signature.symbols, structure.relations):
        if ts:  # a symbol name may hold '%', which the format must write as is
            line = sym.replace("%", "%%") + " %d" * arity
            lines.append("\n".join([line] * len(ts)) % tuple(chain.from_iterable(ts)))
    lines.append("end")
    return "\n".join(lines)


def parse_structure_named(text: str) -> tuple[str, Structure]:
    lines = text.splitlines()
    name, structure, consumed = _parse_structure_block(lines, 0)
    for extra in range(consumed, len(lines)):
        if _clean(lines[extra]):
            raise StructureSyntaxError("trailing content after 'end'", extra + 1)
    return name, structure


def parse_structure(text: str) -> Structure:
    return parse_structure_named(text)[1]


def _clean(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _parse_structure_block(lines: Sequence[str], start: int) -> tuple[str, Structure, int]:
    """Parse one structure block beginning at or after `start` in `lines`
    (as str.splitlines gives them); returns (name, structure, index just
    past 'end').

    A block as emit_structure writes it, or one whose tuples are only out
    of order, is read a whole relation at a time (see _canonical_relations).
    Any other block, with comments, blank lines or an error, is read line by
    line (see _read_tuple_lines), so errors name the first bad line in the
    file, a repeated tuple at its second copy."""
    i = start
    while i < len(lines) and not _clean(lines[i]):
        i += 1
    if i >= len(lines):
        raise StructureSyntaxError("expected 'structure <name>'", start + 1)
    head = _clean(lines[i]).split()
    if len(head) != 2 or head[0] != "structure":
        raise StructureSyntaxError(f"expected 'structure <name>', got {lines[i]!r}", i + 1)
    name = head[1]
    i += 1
    symbols: list[tuple[str, int]] = []
    while i < len(lines):
        parts = _clean(lines[i]).split()
        if not parts:
            i += 1
            continue
        if parts[0] != "rel":
            break
        if len(parts) != 3:
            raise StructureSyntaxError("rel line needs a name and an arity", i + 1)
        symbols.append((parts[1], _int(parts[2], i + 1, least=1)))
        i += 1
    while i < len(lines) and not _clean(lines[i]):
        i += 1
    if i >= len(lines):
        raise StructureSyntaxError("expected 'size <n>'", i)
    parts = _clean(lines[i]).split()
    if len(parts) != 2 or parts[0] != "size":
        raise StructureSyntaxError(f"expected 'size <n>', got {lines[i]!r}", i + 1)
    size = _int(parts[1], i + 1)
    signature = Signature(tuple(symbols))
    canonical = _canonical_relations(lines, i + 1, symbols)
    if canonical is not None:
        relations, stop = canonical
        for _ in range(2):  # as read, then sorted: a repeated tuple still fails
            try:  # Structure checks in bulk that each relation is sorted and in range
                return name, Structure(signature, size, relations), stop
            except EppaError:
                relations = tuple(tuple(sorted(r)) for r in relations)
    relations, i = _read_tuple_lines(lines, i + 1, symbols, size)
    return name, Structure(signature, size, relations), i


def _canonical_relations(lines: Sequence[str], start: int,
                         symbols: list[tuple[str, int]]) -> tuple[tuple, int] | None:
    """The relations of the tuple lines from `start` to the first 'end'
    line, with the index past it, if emit_structure could have written
    them; else None.  Per symbol, in signature order, one regular-expression
    search finds where its run of lines `<sym> <x1> ... <xk>` ends (k the
    arity, single spaces, ASCII digits), and json reads the run's points.
    Order and range are left to the bulk checks of Structure."""
    try:
        stop = lines.index("end", start)
    except ValueError:
        return None
    text = "\n".join(["", *islice(lines, start, stop), ""])  # its last newline ends each run
    pos, relations = 0, []
    for sym, arity in symbols:
        if arity > len(text):  # no line holds that many points
            return None
        prefix = "\n" + sym + " "
        other = re.compile(f"\\n(?!{re.escape(sym)}(?: [0-9]+){{{arity}}}(?![^\\n]))")
        end = other.search(text, pos).start()
        run, pos = text[pos:end], end
        if run and sym == "end":  # read line by line as a malformed 'end'
            return None
        try:  # json refuses a leading zero, which the line reader accepts
            points = json.loads(f"[{run.replace(prefix, ',')[1:].replace(' ', ',')}]")
        except ValueError:
            return None
        relations.append(tuple(zip(*[iter(points)] * arity)))
    return (tuple(relations), stop + 1) if pos == len(text) - 1 else None


def _read_tuple_lines(lines: Sequence[str], start: int, symbols: list[tuple[str, int]],
                      size: int) -> tuple[tuple, int]:
    """The relations of the tuple lines from `start`, read one line at a
    time, with the index past 'end'.  A line of plain decimals is read in one
    step (see _ints) and range-checked by its greatest point."""
    # per symbol: its arity, and the line index of each tuple read so far
    rels = {sym: (arity, {}) for sym, arity in symbols}
    i = start
    while True:
        if i >= len(lines):
            raise StructureSyntaxError("missing 'end'", i)
        parts = lines[i].split("#", 1)[0].split()  # as _clean(...).split()
        if not parts:
            i += 1
            continue
        sym, words = parts[0], parts[1:]
        if sym == "end":
            if words:
                raise StructureSyntaxError("malformed 'end'", i + 1)
            return tuple(tuple(sorted(rels[name][1])) for name, _ in symbols), i + 1
        if sym not in rels:
            raise StructureSyntaxError(f"unknown symbol {sym!r}", i + 1)
        arity, seen = rels[sym]
        if len(words) != arity:
            raise StructureSyntaxError(f"{sym} expects {arity} points, got {len(words)}", i + 1)
        t = _ints(words, i + 1)
        if max(t) >= size:
            x = next(x for x in t if x >= size)
            raise StructureSyntaxError(f"point {x} out of range for size {size}", i + 1)
        if seen.setdefault(t, i) != i:
            raise StructureSyntaxError(f"duplicate tuple {sym} {t}", i + 1)
        i += 1


# ---------------------------------------------------------------------------
# certificate files

def _digest(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _finish(lines: list[str]) -> str:
    """The certificate text: its lines, some of them whole structure blocks,
    joined once, then the digest of that body."""
    body = "\n".join(lines) + "\n"
    return f"{body}digest {_digest(body)}\n"


def _perm_text(perm: Permutation) -> str:
    """The images, space-separated, by one %-format per degree."""
    return _perm_format(len(perm.images)) % perm.images


@functools.lru_cache(maxsize=8)  # a certificate holds permutations of few degrees
def _perm_format(degree: int) -> str:
    return " ".join(["%d"] * degree)


def _map_line(prefix: str, key: str, perm: Permutation) -> str:
    return f"{prefix} {key} : {_perm_text(perm)}"


def _embed_line(tag: str, images: Sequence[int]) -> str:
    return (tag + " " + " ".join(map(str, images))).rstrip()


def emit_base_certificate(cert: BaseEppaCertificate) -> str:
    lines = ["certificate base-eppa", "format 1"]
    lines.append(_structure_text(cert.base, "a"))
    lines.append(_structure_text(cert.extension, "b"))
    lines.append(_embed_line("embed", cert.embedding))
    for key in sorted(cert.phi.table):
        lines.append(_map_line("phi", key, cert.phi.table[key]))
    return _finish(lines)


def emit_faithful_certificate(cert: FaithfulCertificate) -> str:
    lines = ["certificate faithful", "format 1"]
    cap = "none" if cert.size_cap is None else str(cert.size_cap)
    lines.append(f"param size-cap {cap}")
    lines.append(f"forbid {len(cert.forbidden)}")
    for i, q in enumerate(cert.forbidden):
        lines.append(_structure_text(q, f"f{i}"))
    lines.append(_structure_text(cert.base, "a"))
    lines.append(_structure_text(cert.base_extension, "b"))
    lines.append(_structure_text(cert.structure, "c"))
    lines.append(_embed_line("embed-base", cert.base_embedding))
    lines.append(_embed_line("embed", cert.phi.embedding))
    for key in sorted(cert.phi.table):
        lines.append(_map_line("phi", key, cert.phi.table[key]))
    for clique in sorted(cert.clique_witnesses):
        key = ",".join(str(x) for x in clique)
        lines.append(_map_line("witness", key, cert.clique_witnesses[clique]))
    return _finish(lines)


def emit_special_certificate(cert: SpecialCertificate) -> str:
    lines = ["certificate special", "format 1"]
    lines.append(_structure_text(cert.base, "a"))
    lines.append(_structure_text(cert.extension, "b"))
    lines.append(_structure_text(cert.codomain, "base"))
    lines.append(_embed_line("embed", cert.phi.embedding))
    lines.append(_embed_line("embed-base", cert.psi.embedding))
    for p in sorted(cert.maps, key=lambda p: p.encode()):
        lines.append(f"pmap {p.encode()}")
    for key in sorted(cert.phi.table):
        lines.append(_map_line("phi", key, cert.phi.table[key]))
    for key in sorted(cert.psi.table):
        lines.append(_map_line("psi", key, cert.psi.table[key]))
    lines.append(_embed_line("hom", cert.hom))
    return _finish(lines)


def emit_chain_certificate(cert: ChainCertificate) -> str:
    lines = ["certificate chain", "format 1"]
    lines.append(f"param stages {len(cert.stages) - 1}")
    lines.append(f"forbid {len(cert.forbidden)}")
    for i, q in enumerate(cert.forbidden):
        lines.append(_structure_text(q, f"f{i}"))
    for i, stage in enumerate(cert.stages):
        lines.append(_structure_text(stage.structure, f"s{i}"))
    for i, stage in enumerate(cert.stages):
        if stage.inclusion is not None:
            lines.append(_embed_line(f"include {i} :", stage.inclusion))
    for i, stage in enumerate(cert.stages):
        for g in stage.group.elements:
            lines.append(f"gelem {i} : {_perm_text(g)}")
    for i, stage in enumerate(cert.stages):
        if stage.lifted is not None:
            for j, img in enumerate(stage.lifted):
                lines.append(f"lift {i} {j} : {_perm_text(img)}")
    for stage_idx, p in cert.handled:
        lines.append(f"handled {stage_idx} : {p.encode()}")
    return _finish(lines)


class _Lines:
    """A certificate body read without regard to line order: its structure
    blocks by name, and every other line as its words, grouped by the first
    word and numbered as in the file."""

    def __init__(self, lines: Sequence[str]):
        self.blocks: dict[str, Structure] = {}
        self.tagged: dict[str, list[tuple[int, list[str]]]] = {}
        i = 0
        while i < len(lines):
            words = lines[i].split()
            if words[:1] == ["structure"]:
                name, structure, i = _parse_structure_block(lines, i)
                self.blocks.setdefault(name, structure)
                continue
            if words:
                self.tagged.setdefault(words[0], []).append((i + 1, words))
            i += 1

    def structure(self, name: str) -> Structure:
        if name not in self.blocks:
            raise StructureSyntaxError(f"missing structure {name!r}")
        return self.blocks[name]

    def lines(self, tag: str) -> list[tuple[int, list[str]]]:
        return self.tagged.get(tag, [])

    def value(self, *head: str) -> tuple[int, str]:
        """(line number, last word) of the first line `<head...> <value>`."""
        for line, words in self.lines(head[0]):
            if words[:-1] == list(head):
                return line, words[-1]
        raise StructureSyntaxError(f"missing '{' '.join(head)} <value>' line")

    def ints(self, tag: str) -> tuple[int, ...]:
        found = self.lines(tag)
        if not found:
            raise StructureSyntaxError(f"missing {tag!r} line")
        line, words = found[0]
        return _ints(words[1:], line)

    def keyed(self, tag: str, width: int = 1) -> list[tuple[int, list[str], list[str]]]:
        """(line number, key words, body words) of each `<tag> <key...> :
        <body...>` line, in file order."""
        out = []
        for line, words in self.lines(tag):
            if len(words) < width + 2 or words[width + 1] != ":":
                raise StructureSyntaxError(f"expected '{tag} <key> : ...'", line)
            out.append((line, words[1:width + 1], words[width + 2:]))
        return out

    def table(self, tag: str) -> dict[str, Permutation]:
        return {key: Permutation(_ints(body, line)) for line, (key,), body in self.keyed(tag)}


def _once(tag: str, items: Sequence[tuple[int, Hashable]]) -> tuple:
    """The values of (line, value) pairs in order; a repeat is an error at its line."""
    seen: dict[Hashable, int] = {}
    for line, value in items:
        if seen.setdefault(value, line) != line:
            raise StructureSyntaxError(f"repeated {tag!r} line", line)
    return tuple(seen)


def _forbidden(r: _Lines) -> tuple[Structure, ...]:
    line, count = r.value("forbid")
    return tuple(r.structure(f"f{i}") for i in range(_int(count, line)))


def _build_base(r: _Lines) -> BaseEppaCertificate:
    base, extension = PartGroupoid.bounded(r.structure("a")), r.structure("b")
    phi = ExtensionMap(base.size, extension.size, r.ints("embed"), r.table("phi"))
    return BaseEppaCertificate(base=base, extension=extension, phi=phi)


def _build_faithful(r: _Lines) -> FaithfulCertificate:
    cap_line, cap = r.value("param", "size-cap")
    base, structure = PartGroupoid.bounded(r.structure("a")), r.structure("c")
    witnesses = {_ints(key.split(","), line): Permutation(_ints(body, line))
                 for line, (key,), body in r.keyed("witness")}
    return FaithfulCertificate(
        base=base, base_extension=r.structure("b"), structure=structure,
        base_embedding=r.ints("embed-base"),
        phi=ExtensionMap(base.size, structure.size, r.ints("embed"), r.table("phi")),
        clique_witnesses=witnesses, size_cap=None if cap == "none" else _int(cap, cap_line),
        forbidden=_forbidden(r))


def _build_special(r: _Lines) -> SpecialCertificate:
    base, extension, codomain = r.structure("a"), r.structure("b"), r.structure("base")
    return SpecialCertificate(
        base=base, extension=extension, codomain=codomain,
        maps=_once("pmap", [(line, _pmap(" ".join(words[1:]), line))
                           for line, words in r.lines("pmap")]),
        phi=ExtensionMap(base.size, extension.size, r.ints("embed"), r.table("phi")),
        psi=ExtensionMap(base.size, codomain.size, r.ints("embed-base"), r.table("psi")),
        hom=r.ints("hom"))


def _build_chain(r: _Lines) -> ChainCertificate:
    line, word = r.value("param", "stages")
    count = _int(word, line) + 1  # stages s0 .. s<count - 1>
    inclusions = {_int(i, line): _ints(body, line) for line, (i,), body in r.keyed("include")}
    elements: dict[int, list[Permutation]] = {}
    lifts: dict[int, list[Permutation]] = {}
    for perms, tag, width in ((elements, "gelem", 1), (lifts, "lift", 2)):
        for line, key, body in r.keyed(tag, width):
            perms.setdefault(_int(key[0], line), []).append(Permutation(_ints(body, line)))
    stages = []
    for i in range(count):
        structure, elems = r.structure(f"s{i}"), tuple(elements.get(i, ()))
        group = PermutationGroup(degree=structure.size, elements=elems)
        stages.append(ChainStage(structure=structure, group=group,
                                 inclusion=inclusions.get(i),
                                 lifted=tuple(lifts[i]) if i in lifts else None))
    handled = _once("handled", [(line, (_int(i, line), _pmap(" ".join(body), line)))
                               for line, (i,), body in r.keyed("handled")])
    return ChainCertificate(stages=tuple(stages), handled=handled, forbidden=_forbidden(r))


# kind name -> (class, emitter, builder from a _Lines reading, verifier called by name)
_KINDS = {
    "base-eppa": (BaseEppaCertificate, emit_base_certificate, _build_base,
                  lambda cert: verify_base_certificate(cert)),
    "faithful": (FaithfulCertificate, emit_faithful_certificate, _build_faithful,
                 lambda cert: verify_faithful_view(cert)),
    "special": (SpecialCertificate, emit_special_certificate, _build_special,
                lambda cert: verify_special(cert)),
    "chain": (ChainCertificate, emit_chain_certificate, _build_chain,
              lambda cert: verify_chain(cert)),
}


def emit_certificate(cert) -> str:
    for cls, emit, _, _ in _KINDS.values():
        if isinstance(cert, cls):
            return emit(cert)
    raise TypeError(f"cannot serialize {type(cert)!r}")


def parse_certificate(text: str):
    """Parse a certificate file into the certificate type its builder
    returns.  The digest is checked first, and the file is accepted only if
    its kind's emitter gives back exactly its bytes."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines or len(lines[-1].split()) != 2 or lines[-1].split()[0] != "digest":
        raise StructureSyntaxError("missing digest line")
    if _digest("\n".join(lines[:-1]) + "\n") != lines[-1].split()[1]:
        raise StructureSyntaxError("digest mismatch: file was modified or truncated")
    reader = _Lines(lines[:-1])
    line, kind = reader.value("certificate")
    if kind not in _KINDS:
        raise StructureSyntaxError(f"unknown certificate kind {kind!r}", line)
    _, emit, build, _ = _KINDS[kind]
    cert = build(reader)
    canonical = emit(cert)
    if canonical != text:
        got, want = text.split("\n"), canonical.split("\n")
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        expected = repr(want[i]) if i < len(want) else "end of file"
        raise StructureSyntaxError(f"not canonical: expected {expected}", i + 1)
    return cert


def verify_certificate(cert) -> Verdict:
    """Dispatch the appropriate verifier for a parsed certificate."""
    for cls, _, _, verify in _KINDS.values():
        if isinstance(cert, cls):
            return verify(cert)
    raise TypeError(f"cannot verify {type(cert)!r}")
