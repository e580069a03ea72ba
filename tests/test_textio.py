import random
from pathlib import Path

import pytest

from eppa import textio
from eppa.base_extension import base_eppa
from eppa.chains import build_dlf_chain
from eppa.coherence import ExtensionMap
from eppa.errors import EppaError, StructureSyntaxError
from eppa.faithful import clique_faithful_extension, forb_e_eppa
from eppa.quotient import special_extension
from eppa.structures import PartialAutomorphism, Permutation, Signature, Structure, graph
from eppa.textio import (_parse_structure_block, emit_certificate, emit_structure,
                         parse_certificate, parse_structure, parse_structure_named,
                         verify_certificate)

K2_TEXT = """structure k2
rel E 2
size 2
E 0 1
E 1 0
end
"""


class TestStructureFiles:
    def test_parse_k2(self, k2):
        assert parse_structure(K2_TEXT) == k2

    def test_round_trip_is_canonical(self, k2):
        name, structure = parse_structure_named(K2_TEXT)
        assert emit_structure(structure, name) == K2_TEXT

    def test_round_trip_corpus(self, graphs_up_to_3):
        for i, structure in enumerate(graphs_up_to_3):
            text = emit_structure(structure, f"g{i}")
            name, back = parse_structure_named(text)
            assert back == structure
            assert emit_structure(back, name) == text

    def test_comments_and_blank_lines(self):
        text = "# a comment\nstructure k2\nrel E 2\n\nsize 2\nE 0 1 # edge\nE 1 0\nend\n"
        assert parse_structure(text) == graph(2, [(0, 1)])

    def test_point_out_of_range(self):
        bad = "structure s\nrel E 2\nsize 2\nE 0 2\nend\n"
        with pytest.raises(StructureSyntaxError) as err:
            parse_structure(bad)
        assert "line 4" in str(err.value)

    def test_arity_mismatch(self):
        bad = "structure s\nrel E 2\nsize 2\nE 0\nend\n"
        with pytest.raises(StructureSyntaxError):
            parse_structure(bad)

    def test_duplicate_tuple_rejected(self):
        bad = "structure s\nrel E 2\nsize 2\nE 0 1\nE 0 1\nend\n"
        with pytest.raises(StructureSyntaxError):
            parse_structure(bad)

    def test_missing_end(self):
        with pytest.raises(StructureSyntaxError):
            parse_structure("structure s\nrel E 2\nsize 2\nE 0 1\n")

    def test_unknown_symbol(self):
        with pytest.raises(StructureSyntaxError):
            parse_structure("structure s\nrel E 2\nsize 2\nF 0 1\nend\n")

    @pytest.mark.parametrize("word", ["1_0", "+1", "\u0661", "1.0", "--1"])
    def test_only_plain_integers(self, word):
        with pytest.raises(StructureSyntaxError) as err:
            parse_structure(f"structure s\nrel E 2\nsize 11\nE 0 {word}\nend\n")
        assert "line 4" in str(err.value)

    def test_trailing_content_rejected(self):
        with pytest.raises(StructureSyntaxError):
            parse_structure(K2_TEXT + "structure extra\nsize 0\nend\n")


def special_fixture():
    k2 = graph(2, [(0, 1)])
    p = PartialAutomorphism.from_map({0: 1})
    psi = ExtensionMap(2, 2, (0, 1), {"-": Permutation.identity(2),
                                      "0>1": Permutation((1, 0))})
    return special_extension(k2, (PartialAutomorphism.empty(), p), k2, psi)


class TestCertificateFiles:
    def test_base_round_trip(self, path3):
        cert = base_eppa(path3)
        text = emit_certificate(cert)
        back = parse_certificate(text)
        assert emit_certificate(back) == text
        assert verify_certificate(back)

    def test_faithful_round_trip(self, path3, k3):
        cert = forb_e_eppa(path3, [k3])
        text = emit_certificate(cert)
        back = parse_certificate(text)
        assert emit_certificate(back) == text
        assert verify_certificate(back)
        assert back.forbidden[0] == k3
        assert back.size_cap == 3

    def test_faithful_without_cap(self, path3):
        cert = clique_faithful_extension(path3)
        text = emit_certificate(cert)
        assert "param size-cap none" in text
        assert verify_certificate(parse_certificate(text))

    def test_special_round_trip(self):
        cert = special_fixture()
        text = emit_certificate(cert)
        back = parse_certificate(text)
        assert emit_certificate(back) == text
        assert verify_certificate(back)

    def test_chain_round_trip(self, k2, k3):
        cert = build_dlf_chain([k3], 1, k2)
        text = emit_certificate(cert)
        back = parse_certificate(text)
        assert emit_certificate(back) == text
        assert verify_certificate(back)

    def test_digest_tamper_detected(self, path3):
        text = emit_certificate(base_eppa(path3))
        tampered = text.replace("phi - :", "phi - : ", 1)
        with pytest.raises(StructureSyntaxError):
            parse_certificate(tampered)

    def test_digest_is_stable(self, path3):
        first = emit_certificate(base_eppa(path3))
        second = emit_certificate(base_eppa(path3))
        assert first == second
        assert first.strip().splitlines()[-1].startswith("digest ")


STORED = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "verify"


def body_of(text: str) -> list[str]:
    return text.rstrip("\n").split("\n")[:-1]


EDITED = {
    "base": lambda: emit_certificate(base_eppa(graph(3, [(0, 1), (1, 2)]))),
    "special": lambda: emit_certificate(special_fixture()),
    "chain": lambda: emit_certificate(build_dlf_chain([graph(3, [(0, 1), (1, 2), (0, 2)])],
                                                      1, graph(2, [(0, 1)]))),
}


class TestCanonicalOnly:
    """A file is accepted only as the exact bytes its emitter writes."""

    @pytest.mark.parametrize("kind, old, new", [
        ("chain", "lift 0 1 :", "lift 0 0 :"),
        ("base", "format 1", "format 1\n# comment"),
        ("base", "phi - : ", "phi -  :  "),
        ("special", "pmap -", "pmap -1"),
        ("base", "structure b", "structure x"),
    ])
    def test_edit_is_a_parse_error(self, kind, old, new, stamp, run_verify):
        body = "\n".join(body_of(EDITED[kind]()))
        assert old in body
        code, _, err = run_verify(stamp(body.replace(old, new, 1).split("\n")))
        assert code == 1, err

    @pytest.mark.parametrize("name, line, tag", [
        ("special-0-n3-02.cert", "pmap 0>1", "pmap"),
        ("chain-K2-2.cert", "handled 1 : 0>0", "handled"),
    ])
    def test_repeated_line_is_a_parse_error(self, name, line, tag, stamp, run_verify):
        # a repeated pmap or handled line is written back unchanged, so the
        # parser refuses its second copy itself
        body = body_of((STORED / name).read_text(encoding="utf-8"))
        at = body.index(line)
        code, out, err = run_verify(stamp(body[:at + 1] + body[at:]))
        assert (code, out) == (1, "")
        assert f"line {at + 2}: repeated '{tag}' line" in err

    def test_bad_image_names_its_file_line(self, stamp, run_verify):
        body = body_of(EDITED["base"]())
        at = next(i for i, line in enumerate(body) if line.startswith("phi - : "))
        body[at] = "phi - : x" + body[at][len("phi - : 0"):]
        code, _, err = run_verify(stamp(body))
        assert code == 1
        assert f"line {at + 1}:" in err and "'x'" in err

    def test_seeded_mutation_fuzz(self, stamp, run_verify):
        """One-token mutations of the stored certificates, re-stamped: no
        exception escapes the CLI, and only canonical files verify ok."""
        pool = ("x", "-1", "0", "1", "2", "3", "", "-", ":", "#", "0>1", "1>0",
                "0>0", "a", "b", "s", "end", "01", "+1")
        bodies = [body_of(p.read_text(encoding="utf-8"))
                  for p in sorted(STORED.glob("*.cert")) if p.stat().st_size < 20000]
        assert bodies, f"no stored certificates under {STORED}"
        rng = random.Random(1)
        for _ in range(800):
            body = list(rng.choice(bodies))
            at = rng.randrange(len(body))
            words = body[at].split(" ")
            words[rng.randrange(len(words))] = rng.choice(pool)
            body[at] = " ".join(words)
            text = stamp(body)
            code, _, err = run_verify(text)
            assert code in (0, 1, 2, 3), err
            if code == 0:
                assert emit_certificate(parse_certificate(text)) == text


# ---------------------------------------------------------------------------
# The structure-block reader as it was written first: one tuple line at a
# time, each point range-checked, duplicates caught by a set of seen tuples,
# and the structure built through Structure.make.  It is the oracle of the
# bulk reader in eppa.textio.

def _reference_clean(line):
    return line.split("#", 1)[0].strip()


def _reference_int(word, line, least=0):
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


def reference_parse_block(lines, start):
    i = start
    while i < len(lines) and not _reference_clean(lines[i]):
        i += 1
    if i >= len(lines):
        raise StructureSyntaxError("expected 'structure <name>'", start + 1)
    head = _reference_clean(lines[i]).split()
    if len(head) != 2 or head[0] != "structure":
        raise StructureSyntaxError(f"expected 'structure <name>', got {lines[i]!r}", i + 1)
    name = head[1]
    i += 1
    symbols = []
    while i < len(lines):
        parts = _reference_clean(lines[i]).split()
        if not parts:
            i += 1
            continue
        if parts[0] != "rel":
            break
        if len(parts) != 3:
            raise StructureSyntaxError("rel line needs a name and an arity", i + 1)
        symbols.append((parts[1], _reference_int(parts[2], i + 1, least=1)))
        i += 1
    while i < len(lines) and not _reference_clean(lines[i]):
        i += 1
    if i >= len(lines):
        raise StructureSyntaxError("expected 'size <n>'", i)
    parts = _reference_clean(lines[i]).split()
    if len(parts) != 2 or parts[0] != "size":
        raise StructureSyntaxError(f"expected 'size <n>', got {lines[i]!r}", i + 1)
    size = _reference_int(parts[1], i + 1)
    i += 1
    signature = Signature(tuple(symbols))
    arities = dict(symbols)
    rels = {sym: [] for sym, _ in symbols}
    seen = {sym: set() for sym, _ in symbols}
    while True:
        if i >= len(lines):
            raise StructureSyntaxError("missing 'end'", i)
        parts = _reference_clean(lines[i]).split()
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
        t = tuple(_reference_int(w, i + 1) for w in parts[1:])
        for x in t:
            if not 0 <= x < size:
                raise StructureSyntaxError(
                    f"point {x} out of range for size {size}", i + 1)
        if t in seen[sym]:
            raise StructureSyntaxError(f"duplicate tuple {sym} {t}", i + 1)
        seen[sym].add(t)
        rels[sym].append(t)
        i += 1
    return name, Structure.make(signature, size, rels), i


def block_outcome(parse, lines, start=0):
    """What a block reader makes of `lines`: its result, or the type,
    message and line of the error it raises."""
    try:
        return parse(lines, start)
    except EppaError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


HEAD = ["structure s", "rel U 1", "rel E 2", "rel H 3", "size 4"]

PAW = STORED / "base4-n4-01_02_03_12.cert"


def paw_block_b() -> list[str]:
    lines = PAW.read_text(encoding="utf-8").split("\n")
    start = lines.index("structure b")
    return lines[start:lines.index("end", start) + 1]


class TestBlockReaderOracle:
    """The structure-block reader against the line-at-a-time reference:
    the same structure, or the same error type, message and line."""

    @pytest.mark.parametrize("body", [
        ["E 0 -1", "end"],
        ["E 0 +1", "end"],
        ["E 0 1_0", "end"],
        ["E 0 \u0661", "end"],
        ["E -0 1", "end"],
        ["E 0 1.0", "end"],
        ["E 0 01", "end"],
        ["E 0 4", "end"],
        ["H 3 3 9", "end"],
        ["E 0 1", "E 1 2", "E 0 1", "end"],
        ["E 1 0", "H 0 1 2", "", "# c", "E 1 0", "E 0 4", "end"],
        ["E 0 4", "E 1 0", "E 1 0", "end"],
        ["E 1 0", "E 1 0", "E 0 x", "end"],
        ["E 1 0", "E 1 0"],
        ["E 1 0", "U 1", "U 1 # again", "end"],
        ["E 0 1 2", "end"],
        ["E 0", "end"],
        ["U", "end"],
        ["F 0 1", "end"],
        ["E 0 1"],
        [],
        ["end x"],
        ["E 0 1", "end", "E 1 0"],
        ["# lead", "", "E 3 2 # arc", "  H 2 1 0  ", "E 0 1", "U 3", "U 0", "",
         "E 2 3", "H 0 1 2", "end", "# tail"],
        ["end"],
        # the bulk reader's boundaries: canonical runs of mixed arities, an
        # empty relation between two others, and near misses of each kind
        ["U 0", "U 3", "E 0 1", "E 1 0", "E 3 3", "H 0 1 2", "H 3 2 1", "end"],
        ["U 1", "H 0 1 2", "end"],
        ["E 0 1", "U 1", "end"],
        ["U 1", "E 0 1 ", "end"],
        ["U 1", "E 0  1", "end"],
        ["U 1", "E 0\t1", "end"],
        ["U 1", "E 0 01", "E 1 0", "end"],
        ["E 0 1", "E 1 1", "E 1 2", "end"],
        ["E 0 1", "E 0 1", "end"],
        ["U 0", "E 0 1", "H 0 1 4", "end"],
        ["U 1", "E 0 1", "end # c"],
        ["U 0", "E 0 1", "H 0 1 2"],
    ])
    def test_small_blocks(self, body):
        lines = HEAD + body
        assert (block_outcome(_parse_structure_block, lines)
                == block_outcome(reference_parse_block, lines))

    @pytest.mark.parametrize("lines", [
        ["", "# only", "structure t", "", "rel E 2", "size 0", "end"],
        ["structure t", "size 0", "end"],
        ["structure t", "rel E 2", "rel E 2", "size 2", "end"],
        ["structure t", "rel E 0", "size 2", "end"],
        ["structure t", "rel E 2", "size -2", "end"],
        ["structure t", "rel E 2", "end"],
        ["structure", "rel E 2", "size 2", "end"],
        [""],
        # symbol names and arities that the bulk reader must not misread
        ["structure t", "rel 1 2", "size 2", "1 1", "1 1 1 1", "end"],
        ["structure t", "rel 1 2", "size 2", "1 0 1", "1 1 0", "end"],
        ["structure t", "rel end 2", "size 2", "end 0 1", "end"],
        ["structure t", "rel R 3000000", "size 2", "R 0", "end"],
        ["structure t", "rel R 10000000000000", "size 2", "R 0", "end"],
        ["structure t", "rel R 10000000000000", "size 2", "end"],
    ])
    def test_headers(self, lines):
        assert (block_outcome(_parse_structure_block, lines)
                == block_outcome(reference_parse_block, lines))

    def test_reads_past_the_start(self):
        lines = ["junk", "structure t", "rel E 2", "size 2", "E 1 0", "E 0 1", "end", "x"]
        assert (block_outcome(_parse_structure_block, lines, 1)
                == block_outcome(reference_parse_block, lines, 1))

    def test_paw_block_b(self):
        block = paw_block_b()
        name, structure, consumed = _parse_structure_block(block, 0)
        assert (name, consumed, structure.size) == ("b", len(block), 256)
        assert sum(map(len, structure.relations)) == 24576
        assert (name, structure, consumed) == reference_parse_block(block, 0)

    def test_seeded_mutants_of_paw_block_b(self):
        """One-token edits, copied, moved and deleted lines of the paw's
        256-point block: the same outcome on every mutant."""
        block = paw_block_b()
        pool = ("x", "-1", "+1", "1_0", "\u0661", "0", "1", "255", "256", "E", "F",
                "end", "", "#", "01", "size", "rel")
        rng = random.Random(14)
        errors = 0
        for trial in range(16):
            lines = list(block)
            at = rng.randrange(len(lines))
            kind = trial % 4
            if kind == 0:
                words = lines[at].split(" ")
                words[rng.randrange(len(words) > 1, len(words))] = rng.choice(pool)
                lines[at] = " ".join(words)
            elif kind == 1:
                lines.insert(rng.randrange(4, len(lines)), lines[max(at, 3)])
            elif kind == 2:
                lines.insert(rng.randrange(4, len(lines)), lines.pop(max(at, 3)))
            else:
                del lines[at]
            expected = block_outcome(reference_parse_block, lines)
            assert block_outcome(_parse_structure_block, lines) == expected, (trial, at)
            errors += isinstance(expected[0], type)
        assert 0 < errors < 16


def word_join_emit(structure, name):
    """emit_structure as it was written first: one word join per tuple."""
    lines = [f"structure {name}"]
    lines += [f"rel {sym} {arity}" for sym, arity in structure.signature.symbols]
    lines.append(f"size {structure.size}")
    for sym, _ in structure.signature.symbols:
        lines += [f"{sym} {' '.join(map(str, t))}" for t in structure.tuples(sym)]
    lines.append("end")
    return "\n".join(lines) + "\n"


class TestBulkPaths:
    def test_paw_certificate_is_read_in_bulk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a canonical block was read line by line")
        monkeypatch.setattr(textio, "_read_tuple_lines", refuse)
        text = PAW.read_text(encoding="utf-8")
        cert = parse_certificate(text)
        assert cert.extension.size == 256 and emit_certificate(cert) == text

    def test_a_block_only_out_of_order_is_read_in_bulk(self, monkeypatch):
        # the paw's 256-point block with its last tuple moved first
        lines = PAW.read_text(encoding="utf-8").splitlines()
        start = lines.index("structure b")
        block = lines[start:lines.index("end", start) + 1]
        moved = [*block[:3], block[-2], *block[3:-2], block[-1]]
        assert block[2] == "size 256" and moved != block
        canonical = parse_structure_named("\n".join(block))

        def refuse(*args):
            raise AssertionError("a block only out of order was read line by line")
        monkeypatch.setattr(textio, "_read_tuple_lines", refuse)
        assert parse_structure_named("\n".join(moved)) == canonical

    def test_a_repeated_tuple_out_of_order_is_named_at_its_second_copy(self):
        text = "structure s\nrel U 1\nrel E 2\nsize 3\nU 2\nU 0\nE 1 2\nE 0 1\nE 1 2\nend\n"
        with pytest.raises(StructureSyntaxError, match="duplicate tuple E") as caught:
            parse_structure(text)
        assert caught.value.line == 9

    def test_emitter_matches_word_join(self):
        # '%d' as a symbol name: the one-format emitter must write it as is
        sig = Signature.make(("U", 1), ("E", 2), ("H", 3), ("%d", 2))
        rng = random.Random(23)
        for size in (0, 1, 2, 5, 9):
            for empty in ((), ("E",), ("U", "H"), sig.names()):
                rels = {sym: {tuple(rng.randrange(size) for _ in range(arity))
                              for _ in range(rng.randrange(12))}
                        for sym, arity in sig.symbols if size and sym not in empty}
                structure = Structure.make(sig, size, rels)
                assert emit_structure(structure, "w") == word_join_emit(structure, "w")
                assert parse_structure_named(emit_structure(structure, "w")) == ("w", structure)
