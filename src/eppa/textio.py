"""Text formats: structure files and self-contained certificate files.

Certificates are canonical text (fixed section order, sorted keys, newline
terminated) stamped with a sha256 content digest, so identical constructions
produce byte-identical files and the verifier works from file contents alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from .base_extension import BaseEppaCertificate, verify_base_certificate
from .chains import ChainCertificate, ChainStage, verify_chain
from .coherence import ExtensionMap, PermutationGroup, Verdict
from .errors import StructureSyntaxError
from .faithful import FaithfulCertificate, verify_faithful_view
from .quotient import SpecialCertificate, verify_special
from .structures import (PartialAutomorphism, Permutation, Signature, Structure)


# ---------------------------------------------------------------------------
# structure files

def emit_structure(structure: Structure, name: str = "s") -> str:
    lines = [f"structure {name}"]
    for sym, arity in structure.signature.symbols:
        lines.append(f"rel {sym} {arity}")
    lines.append(f"size {structure.size}")
    for sym, _ in structure.signature.symbols:
        for t in structure.tuples(sym):
            lines.append(" ".join([sym] + [str(x) for x in t]))
    lines.append("end")
    return "\n".join(lines) + "\n"


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
    """Parse one structure block beginning at or after `start`; returns
    (name, structure, index just past 'end')."""
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
        try:
            arity = int(parts[2])
        except ValueError:
            raise StructureSyntaxError(f"bad arity {parts[2]!r}", i + 1)
        symbols.append((parts[1], arity))
        i += 1
    while i < len(lines) and not _clean(lines[i]):
        i += 1
    if i >= len(lines):
        raise StructureSyntaxError("expected 'size <n>'", i)
    parts = _clean(lines[i]).split()
    if len(parts) != 2 or parts[0] != "size":
        raise StructureSyntaxError(f"expected 'size <n>', got {lines[i]!r}", i + 1)
    try:
        size = int(parts[1])
    except ValueError:
        raise StructureSyntaxError(f"bad size {parts[1]!r}", i + 1)
    i += 1
    signature = Signature(tuple(symbols))
    arities = dict(symbols)
    rels: dict[str, list[tuple[int, ...]]] = {sym: [] for sym, _ in symbols}
    seen: dict[str, set[tuple[int, ...]]] = {sym: set() for sym, _ in symbols}
    while True:
        if i >= len(lines):
            raise StructureSyntaxError("missing 'end'", i)
        parts = _clean(lines[i]).split()
        if not parts:
            i += 1
            continue
        if parts[0] == "end":
            if len(parts) != 1:
                raise StructureSyntaxError("malformed 'end'", i + 1)
            i += 1
            break
        sym = parts[0]
        if sym not in arities:
            raise StructureSyntaxError(f"unknown symbol {sym!r}", i + 1)
        if len(parts) - 1 != arities[sym]:
            raise StructureSyntaxError(
                f"{sym} expects {arities[sym]} points, got {len(parts) - 1}", i + 1)
        try:
            t = tuple(int(x) for x in parts[1:])
        except ValueError:
            raise StructureSyntaxError("points must be integers", i + 1)
        for x in t:
            if not 0 <= x < size:
                raise StructureSyntaxError(
                    f"point {x} out of range for size {size}", i + 1)
        if t in seen[sym]:
            raise StructureSyntaxError(f"duplicate tuple {sym} {t}", i + 1)
        seen[sym].add(t)
        rels[sym].append(t)
        i += 1
    del seen  # freed before Structure.make builds its own set
    return name, Structure.make(signature, size, rels), i


# ---------------------------------------------------------------------------
# certificate files

def _digest(lines: list[str]) -> str:
    return hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()


def _finish(lines: list[str]) -> str:
    return "\n".join(lines + [f"digest {_digest(lines)}"]) + "\n"


def _perm_text(perm: Permutation) -> str:
    return " ".join(str(x) for x in perm.images)


def _map_line(prefix: str, key: str, perm: Permutation) -> str:
    return f"{prefix} {key} : {_perm_text(perm)}"


def _embed_line(tag: str, images: Sequence[int]) -> str:
    return (tag + " " + " ".join(str(x) for x in images)).rstrip()


def _structure_lines(structure: Structure, name: str) -> list[str]:
    return emit_structure(structure, name).rstrip("\n").split("\n")


def emit_base_certificate(cert: BaseEppaCertificate) -> str:
    lines = ["certificate base-eppa", "format 1"]
    lines += _structure_lines(cert.base, "a")
    lines += _structure_lines(cert.extension, "b")
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
        lines += _structure_lines(q, f"f{i}")
    lines += _structure_lines(cert.base, "a")
    lines += _structure_lines(cert.base_extension, "b")
    lines += _structure_lines(cert.structure, "c")
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
    lines += _structure_lines(cert.base, "a")
    lines += _structure_lines(cert.extension, "b")
    lines += _structure_lines(cert.codomain, "base")
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
        lines += _structure_lines(q, f"f{i}")
    for i, stage in enumerate(cert.stages):
        lines += _structure_lines(stage.structure, f"s{i}")
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


def emit_certificate(cert) -> str:
    if isinstance(cert, BaseEppaCertificate):
        return emit_base_certificate(cert)
    if isinstance(cert, FaithfulCertificate):
        return emit_faithful_certificate(cert)
    if isinstance(cert, SpecialCertificate):
        return emit_special_certificate(cert)
    if isinstance(cert, ChainCertificate):
        return emit_chain_certificate(cert)
    raise TypeError(f"cannot serialize {type(cert)!r}")


@dataclass
class _Reader:
    lines: list[str]
    pos: int = 0

    def peek(self) -> str | None:
        while self.pos < len(self.lines):
            stripped = _clean(self.lines[self.pos])
            if stripped:
                return stripped
            self.pos += 1
        return None

    def take(self) -> str:
        line = self.peek()
        if line is None:
            raise StructureSyntaxError("unexpected end of certificate", self.pos)
        self.pos += 1
        return line

    def structure(self) -> tuple[str, Structure]:
        name, structure, nxt = _parse_structure_block(self.lines, self.pos)
        self.pos = nxt
        return name, structure


def _parse_int_list(body: str) -> tuple[int, ...]:
    body = body.strip()
    if not body:
        return ()
    return tuple(int(x) for x in body.split())


def _parse_map_line(line: str, prefix: str) -> tuple[str, Permutation]:
    rest = line[len(prefix):].strip()
    key, sep, body = rest.partition(":")
    if not sep:
        raise StructureSyntaxError(f"malformed {prefix.strip()} line: {line!r}")
    return key.strip(), Permutation(_parse_int_list(body))


def parse_certificate(text: str):
    """Parse a certificate file into the certificate type its builder
    returns; the digest is checked first."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines or len(lines[-1].split()) != 2 or lines[-1].split()[0] != "digest":
        raise StructureSyntaxError("missing digest line")
    recorded = lines[-1].split()[1]
    body = lines[:-1]
    if _digest(body) != recorded:
        raise StructureSyntaxError("digest mismatch: file was modified or truncated")
    reader = _Reader(body)
    head = reader.take().split()
    if len(head) != 2 or head[0] != "certificate":
        raise StructureSyntaxError("expected 'certificate <kind>'")
    kind = head[1]
    fmt = reader.take().split()
    if fmt != ["format", "1"]:
        raise StructureSyntaxError("unsupported format")
    if kind == "base-eppa":
        return _parse_base(reader)
    if kind == "faithful":
        return _parse_faithful(reader)
    if kind == "special":
        return _parse_special(reader)
    if kind == "chain":
        return _parse_chain(reader)
    raise StructureSyntaxError(f"unknown certificate kind {kind!r}")


def _parse_base(reader: _Reader) -> BaseEppaCertificate:
    _, base = reader.structure()
    _, extension = reader.structure()
    embed_line = reader.take()
    if not embed_line.startswith("embed"):
        raise StructureSyntaxError("expected embed line")
    embedding = _parse_int_list(embed_line[len("embed"):])
    table: dict[str, Permutation] = {}
    while reader.peek() is not None:
        line = reader.take()
        if not line.startswith("phi "):
            raise StructureSyntaxError(f"unexpected line {line!r}")
        key, perm = _parse_map_line(line, "phi ")
        table[key] = perm
    phi = ExtensionMap(domain_universe=base.size, codomain_universe=extension.size,
                       embedding=embedding, table=table)
    return BaseEppaCertificate(base=base, extension=extension,
                               embedding=embedding, phi=phi)


def _parse_faithful(reader: _Reader) -> FaithfulCertificate:
    cap_line = reader.take().split()
    if cap_line[:2] != ["param", "size-cap"] or len(cap_line) != 3:
        raise StructureSyntaxError("expected 'param size-cap'")
    size_cap = None if cap_line[2] == "none" else int(cap_line[2])
    forbid_line = reader.take().split()
    if forbid_line[0] != "forbid" or len(forbid_line) != 2:
        raise StructureSyntaxError("expected 'forbid <count>'")
    forbidden = tuple(reader.structure()[1] for _ in range(int(forbid_line[1])))
    _, base = reader.structure()
    _, base_extension = reader.structure()
    _, structure = reader.structure()
    base_embed = reader.take()
    if not base_embed.startswith("embed-base"):
        raise StructureSyntaxError("expected embed-base line")
    base_embedding = _parse_int_list(base_embed[len("embed-base"):])
    embed_line = reader.take()
    if not embed_line.startswith("embed"):
        raise StructureSyntaxError("expected embed line")
    nu = _parse_int_list(embed_line[len("embed"):])
    table: dict[str, Permutation] = {}
    witnesses: dict[tuple[int, ...], Permutation] = {}
    while reader.peek() is not None:
        line = reader.take()
        if line.startswith("phi "):
            key, perm = _parse_map_line(line, "phi ")
            table[key] = perm
        elif line.startswith("witness "):
            key, perm = _parse_map_line(line, "witness ")
            clique = tuple(int(x) for x in key.split(","))
            witnesses[clique] = perm
        else:
            raise StructureSyntaxError(f"unexpected line {line!r}")
    phi = ExtensionMap(domain_universe=base.size, codomain_universe=structure.size,
                       embedding=nu, table=table)
    return FaithfulCertificate(base=base, base_extension=base_extension,
                               structure=structure, base_embedding=base_embedding,
                               phi=phi, clique_witnesses=witnesses,
                               size_cap=size_cap, forbidden=forbidden)


def _parse_special(reader: _Reader) -> SpecialCertificate:
    _, base = reader.structure()
    _, extension = reader.structure()
    _, codomain = reader.structure()
    embed_line = reader.take()
    if not embed_line.startswith("embed"):
        raise StructureSyntaxError("expected embed line")
    iota = _parse_int_list(embed_line[len("embed"):])
    base_embed = reader.take()
    if not base_embed.startswith("embed-base"):
        raise StructureSyntaxError("expected embed-base line")
    psi_embedding = _parse_int_list(base_embed[len("embed-base"):])
    keys: list[str] = []
    phi_table: dict[str, Permutation] = {}
    psi_table: dict[str, Permutation] = {}
    hom: tuple[int, ...] = ()
    while reader.peek() is not None:
        line = reader.take()
        if line.startswith("pmap "):
            keys.append(line[len("pmap "):].strip())
        elif line.startswith("phi "):
            key, perm = _parse_map_line(line, "phi ")
            phi_table[key] = perm
        elif line.startswith("psi "):
            key, perm = _parse_map_line(line, "psi ")
            psi_table[key] = perm
        elif line.startswith("hom"):
            hom = _parse_int_list(line[len("hom"):])
        else:
            raise StructureSyntaxError(f"unexpected line {line!r}")
    maps = tuple(PartialAutomorphism.decode(k) for k in keys)
    phi = ExtensionMap(domain_universe=base.size, codomain_universe=extension.size,
                       embedding=iota, table=phi_table)
    psi = ExtensionMap(domain_universe=base.size, codomain_universe=codomain.size,
                       embedding=psi_embedding, table=psi_table)
    return SpecialCertificate(base=base, extension=extension, codomain=codomain,
                              maps=maps, psi=psi, phi=phi, hom=hom)


def _parse_chain(reader: _Reader) -> ChainCertificate:
    stages_line = reader.take().split()
    if stages_line[:2] != ["param", "stages"]:
        raise StructureSyntaxError("expected 'param stages'")
    stage_count = int(stages_line[2])
    forbid_line = reader.take().split()
    if forbid_line[0] != "forbid":
        raise StructureSyntaxError("expected 'forbid <count>'")
    forbidden = tuple(reader.structure()[1] for _ in range(int(forbid_line[1])))
    structures = [reader.structure()[1] for _ in range(stage_count + 1)]
    inclusions: dict[int, tuple[int, ...]] = {}
    elements: dict[int, list[Permutation]] = {}
    lifts: dict[int, list[Permutation]] = {}
    handled: list[tuple[int, PartialAutomorphism]] = []
    while reader.peek() is not None:
        line = reader.take()
        head, sep, body = line.partition(":")
        if not sep:
            raise StructureSyntaxError(f"unexpected line {line!r}")
        if line.startswith("include "):
            inclusions[int(head.split()[1])] = _parse_int_list(body)
        elif line.startswith("gelem "):
            idx = int(head.split()[1])
            elements.setdefault(idx, []).append(Permutation(_parse_int_list(body)))
        elif line.startswith("lift "):
            idx = int(head.split()[1])
            lifts.setdefault(idx, []).append(Permutation(_parse_int_list(body)))
        elif line.startswith("handled "):
            handled.append((int(head.split()[1]),
                            PartialAutomorphism.decode(body.strip())))
        else:
            raise StructureSyntaxError(f"unexpected line {line!r}")
    stages = []
    for i, structure in enumerate(structures):
        elems = tuple(elements.get(i, []))
        group = PermutationGroup(degree=structure.size, elements=elems, generators=elems)
        stages.append(ChainStage(structure=structure, group=group,
                                 inclusion=inclusions.get(i),
                                 lifted=tuple(lifts[i]) if i in lifts else None))
    return ChainCertificate(stages=tuple(stages), handled=tuple(handled),
                            forbidden=forbidden)


def verify_certificate(cert, word_bound: int = 6) -> Verdict:
    """Dispatch the appropriate verifier for a parsed certificate."""
    if isinstance(cert, BaseEppaCertificate):
        return verify_base_certificate(cert)
    if isinstance(cert, FaithfulCertificate):
        return verify_faithful_view(cert)
    if isinstance(cert, SpecialCertificate):
        return verify_special(cert, max_word_len=word_bound)
    if isinstance(cert, ChainCertificate):
        return verify_chain(cert)
    raise TypeError(f"cannot verify {type(cert)!r}")
