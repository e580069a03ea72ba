import random
from pathlib import Path

import pytest

from eppa.base_extension import base_eppa
from eppa.chains import build_dlf_chain
from eppa.coherence import ExtensionMap
from eppa.errors import StructureSyntaxError
from eppa.faithful import clique_faithful_extension, forb_e_eppa
from eppa.quotient import special_extension
from eppa.structures import PartialAutomorphism, Permutation, graph
from eppa.textio import (emit_certificate, emit_structure, parse_certificate,
                         parse_structure, parse_structure_named,
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
