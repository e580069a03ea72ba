import dataclasses
import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import eppa
from eppa import chains, cli
from eppa.amalgamation import canonical_form, forb_e_member, minimal_forbidden
from eppa.base_extension import BaseEppaCertificate, base_eppa
from eppa.cli import build_parser, main
from eppa.coherence import ExtensionMap, Verdict
from eppa.faithful import clique_faithful_extension
from eppa.quotient import special_extension
from eppa.structures import (GRAPH_SIGNATURE, PartialAutomorphism, Permutation, Signature,
                             Structure, graph)
from eppa.textio import emit_certificate, emit_structure

K2 = graph(2, [(0, 1)])
K3 = graph(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = graph(3, [(0, 1), (1, 2)])
K4 = graph(4, itertools.combinations(range(4), 2))
C4 = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
MINFORB_FAMILIES = {
    "K3": [K3],
    "K3,K4": [K3, K4],
    "C4": [C4],
    "P3": [PATH3],
    "K3,C4,P3": [K3, C4, PATH3],
    "loop,arc": [Structure.make(GRAPH_SIGNATURE, 1, {"E": {(0, 0)}}),
                 Structure.make(GRAPH_SIGNATURE, 2, {"E": {(0, 1)}})],
    "K4": [K4],
    "2K1": [graph(2, [])],
    "K5": [graph(5, itertools.combinations(range(5), 2))],
    "empty": [graph(0, [])],
}
STORED = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "verify"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, structure in [("k2", K2), ("k3", K3), ("path3", PATH3),
                            ("point", graph(1, []))]:
        p = tmp_path / f"{name}.struct"
        p.write_text(emit_structure(structure, name), encoding="utf-8")
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


class TestExtendVerify:
    def test_base_extend_then_verify(self, files, capsys):
        out = str(files["tmp"] / "cert.txt")
        assert main(["extend", "--in", files["path3"], "--mode", "base",
                     "--out", out]) == 0
        assert main(["verify", out]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_faithful_with_forbidden(self, files, capsys):
        out = str(files["tmp"] / "cert.txt")
        assert main(["extend", "--in", files["path3"], "--mode", "faithful",
                     "--forbid", files["k3"], "--out", out]) == 0
        assert main(["verify", out]) == 0

    def test_faithful_mode_plain(self, files):
        out = str(files["tmp"] / "cert.txt")
        assert main(["extend", "--in", files["k2"], "--mode", "faithful",
                     "--out", out]) == 0
        assert main(["verify", out]) == 0

    def test_forbid_needs_faithful_mode(self, files):
        out = str(files["tmp"] / "cert.txt")
        assert main(["extend", "--in", files["k2"], "--mode", "base",
                     "--forbid", files["k3"], "--out", out]) == 1

    def test_resource_bound_exit_code(self, files, monkeypatch):
        monkeypatch.setenv("EPPA_MAX_POINTS", "2")
        out = str(files["tmp"] / "cert.txt")
        assert main(["extend", "--in", files["path3"], "--mode", "base",
                     "--out", out]) == 3

    def test_dlf_stage_over_the_point_bound_exit_code(self, tmp_path, monkeypatch, capsys):
        # the paw's second stage extends its 32-point scaffold as an input
        monkeypatch.delenv("EPPA_MAX_POINTS", raising=False)
        seed = tmp_path / "paw.struct"
        seed.write_text(emit_structure(graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]), "paw"),
                        encoding="utf-8")
        out = tmp_path / "chain.cert"
        assert main(["dlf", "--stages", "2", "--seed", str(seed), "--out", str(out)]) == 3
        assert "over the bound 12" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("signature, relations", [
        (Signature.make(("H", 3)), {"H": [(0, 1, 0), (2, 1, 1), (2, 2, 0), (2, 2, 2)]}),
        (Signature.make(("E", 2), ("F", 2)),
         {"E": [(1, 2), (2, 0)], "F": [(0, 2), (1, 0), (2, 2)]}),
    ], ids=["H3", "E2F2"])
    def test_dlf_stage_over_the_table_bound_exit_code(self, tmp_path, capsys, signature,
                                                      relations):
        # the second stages (6 and 8 points) would need scaffold lookup tables
        # of about 4e16 and 1.1e8 entries; they are refused before any is built
        seed = tmp_path / "seed.struct"
        seed.write_text(emit_structure(Structure.make(signature, 3, relations), "seed"),
                        encoding="utf-8")
        out = tmp_path / "chain.cert"
        start = time.perf_counter()
        assert main(["dlf", "--stages", "2", "--seed", str(seed), "--out", str(out)]) == 3
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert err.startswith("resource bound: scaffold lookup table needs ")
        assert "entries, over the bound 4000000" in err
        assert not out.exists()

    def test_scaffold_is_refused_on_cost_as_its_orbit_grows(self, tmp_path, capsys):
        # the directed path on 7 points has 2,237 partial automorphisms, so
        # verifying an extension of 95 or more points costs over 20M tuple
        # checks; the refusal comes at about that size (the round that starts
        # with 104 points), not after the orbit of several thousand points is
        # complete (11 s)
        sig = Signature.make(("E", 2))
        path = tmp_path / "dp7.struct"
        path.write_text(emit_structure(
            Structure.make(sig, 7, {"E": [(i, i + 1) for i in range(6)]}), "dp7"),
            encoding="utf-8")
        start = time.perf_counter()
        assert main(["extend", "--in", str(path), "--mode", "base",
                     "--out", str(tmp_path / "cert.txt")]) == 3
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert err == ("resource bound: scaffold verification needs 24195392 tuple checks, "
                       "over the bound 20000000\n")
        assert 2237 * 104 ** 2 == 24195392
        assert elapsed < 3.0

    def test_empty_high_arity_symbol_is_certified_at_once(self, tmp_path, capsys):
        # A is its own extension.  The search counts the 3^30 - 2^30 slots
        # that one more point would add before listing any, and lists no
        # tuple for A itself, so it walks none of the 2^30 tuples of H
        path = tmp_path / "h30.struct"
        path.write_text("structure h\nrel H 30\nsize 2\nend\n", encoding="utf-8")
        out = tmp_path / "cert.txt"
        start = time.perf_counter()
        assert main(["extend", "--in", str(path), "--mode", "base", "--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out.strip() == "ok"
        assert "structure b\nrel H 30\nsize 2\nend\n" in out.read_text(encoding="utf-8")

    def test_empty_high_arity_symbol_is_refused_before_the_scaffold(self, tmp_path, capsys):
        # 6 isolated points have 13,327 partial automorphisms, so the orbit
        # sweep's first round, over A's 6^12 tuples, is over the cost bound;
        # it is charged before the scaffold lists those tuples
        path = tmp_path / "h12.struct"
        path.write_text("structure h\nrel H 12\nsize 6\nend\n", encoding="utf-8")
        start = time.perf_counter()
        assert main(["extend", "--in", str(path), "--mode", "base",
                     "--out", str(tmp_path / "cert.txt")]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"resource bound: scaffold verification needs {13327 * 6 ** 12} tuple checks, "
            "over the bound 20000000\n")

    def test_extend_over_the_map_bound_is_refused(self, tmp_path):
        # the empty graph on 9 points has 17,572,114 partial automorphisms;
        # the listing stops once it passes 500,000 (in a fresh process, which
        # keeps the 0.25 GB that the listing reaches out of this one)
        path = tmp_path / "empty9.struct"
        path.write_text(emit_structure(graph(9, []), "empty9"), encoding="utf-8")
        start = time.perf_counter()
        result = run_fresh(["extend", "--in", str(path), "--mode", "base",
                            "--out", str(tmp_path / "cert.txt")])
        assert time.perf_counter() - start < 5.0
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr.startswith("resource bound: Part(A) needs ")
        assert result.stderr.endswith(" maps, over the bound 500000\n")
        assert not (tmp_path / "cert.txt").exists()

    @pytest.mark.parametrize("variable, mode", [("EPPA_MAX_POINTS", "base"),
                                                ("EPPA_MAX_VALUED_POINTS", "faithful")])
    def test_non_integer_bound_is_usage_error(self, files, monkeypatch, capsys,
                                              variable, mode):
        monkeypatch.setenv(variable, "abc")
        out = str(files["tmp"] / "cert.txt")
        assert main(["extend", "--in", files["k2"], "--mode", mode,
                     "--out", out]) == 1
        assert variable in capsys.readouterr().err

    def test_parse_error_exit_code(self, files, tmp_path):
        bad = tmp_path / "bad.struct"
        bad.write_text("structure s\nrel E 2\nsize 2\nE 0 5\nend\n", encoding="utf-8")
        out = str(files["tmp"] / "cert.txt")
        assert main(["extend", "--in", str(bad), "--mode", "base",
                     "--out", out]) == 1

    def test_determinism_byte_identical(self, files):
        out1 = str(files["tmp"] / "c1.txt")
        out2 = str(files["tmp"] / "c2.txt")
        assert main(["extend", "--in", files["path3"], "--mode", "faithful",
                     "--forbid", files["k3"], "--out", out1]) == 0
        assert main(["extend", "--in", files["path3"], "--mode", "faithful",
                     "--forbid", files["k3"], "--out", out2]) == 0
        first = open(out1, "rb").read()
        second = open(out2, "rb").read()
        assert first == second
        assert main(["verify", out1]) == 0

    def test_corrupted_certificate_fails_with_condition(self, files, tmp_path, capsys):
        cert = base_eppa(PATH3)
        key = sorted(k for k in cert.phi.table if k not in ("-",))[0]
        perm = cert.phi.table[key]
        images = list(perm.images)
        images[0], images[1] = images[1], images[0]
        tampered_table = dict(cert.phi.table)
        tampered_table[key] = Permutation(tuple(images))
        phi = dataclasses.replace(cert.phi, table=tampered_table)
        tampered = dataclasses.replace(cert, phi=phi)
        path = tmp_path / "bad_cert.txt"
        path.write_text(emit_certificate(tampered), encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("fail ")
        assert out.split()[1] in ("coherence", "extension", "automorphism",
                                  "forced-identity", "forced-inverse")

    def test_special_certificate_needing_long_words_verifies(self, c20_over_p3,
                                                             tmp_path, capsys):
        path = tmp_path / "c20.cert"
        path.write_text(emit_certificate(c20_over_p3), encoding="utf-8")
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_stored_parity_scaffold_certificate_verifies(self, capsys):
        # the paw's 256-point certificate from the parity scaffold that the
        # valuation scaffold replaced; the verifier still accepts it
        assert main(["verify", str(STORED / "base4-n4-01_02_03_12.cert")]) == 0
        assert capsys.readouterr().out.strip() == "ok"


class TestUsageErrors:
    """A command line the parser refuses, or a bound out of range, exits 1:
    exit 2 is reserved for a certificate that fails verification."""

    @pytest.mark.parametrize("argv", [
        ["verify"],
        ["verify", str(STORED / "special-0-n3-02.cert"), "--word-bound", "x"],
        ["extend", "--in", "a.struct", "--mode", "bogus", "--out", "b.cert"],
        ["no-such-verb"],
        ["verify", str(STORED / "special-0-n3-02.cert"), "--word-bound", "6"],
    ], ids=["missing-file", "word-bound-not-int", "unknown-mode", "unknown-verb",
            "word-bound-removed"])
    def test_refused_command_line_exits_1(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().out == ""

    def test_file_that_is_not_utf8_is_named(self, tmp_path):
        bad = tmp_path / "bad.struct"
        bad.write_bytes(b"structure s\xff\n")
        for argv in (["verify", str(bad)],
                     ["extend", "--in", str(bad), "--out", str(tmp_path / "out.cert")]):
            result = run_fresh(argv)
            assert (result.returncode, result.stdout) == (1, "")
            assert result.stderr.splitlines() == [
                f"error: {bad} is not UTF-8 text: byte 11 is 0xff"]

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, named", [
        (["dlf", "--stages", "-1", "--seed", "{k2}", "--out", "{out}"], "stage count"),
        (["cliques", "{k3}", "--max", "-1"], "clique size bound"),
        (["minforb", "--class-forbid", "{k3}", "--max", "-1"], "size bound"),
        (["extend", "--in", "{k2}", "--mode", "base", "--size-cap", "-1", "--out", "{out}"],
         "--size-cap"),
    ], ids=["dlf-stages", "cliques-max", "minforb-max", "base-size-cap"])
    def test_negative_count_is_refused(self, files, capsys, argv, named):
        out = files["tmp"] / "out.cert"
        assert main([a.format(out=out, **files) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err
        assert not out.exists()

    def test_negative_size_cap_is_refused(self, files, capsys):
        out = files["tmp"] / "cert.txt"
        assert main(["extend", "--in", files["k2"], "--mode", "faithful",
                     "--size-cap", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "size cap" in err and "line" not in err
        assert not out.exists()


class TestOtherVerbs:
    def test_cliques_listing(self, files, capsys):
        assert main(["cliques", files["k3"], "--max", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "0" in lines and "0,1" in lines
        assert all(len(line.split(",")) <= 2 for line in lines)

    def test_amalgam_two_edges_over_a_vertex(self, files, capsys):
        assert main(["amalgam", files["k2"], files["k2"],
                     "--over", files["point"]]) == 0
        text = capsys.readouterr().out
        from eppa.textio import parse_structure
        glued = parse_structure(text)
        assert glued == graph(3, [(0, 1), (0, 2)])

    def test_amalgam_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        # the embedding search assigns one pattern point per level of its
        # stack, so a pattern with more points than Python's recursion limit
        # is searched like any other
        n = sys.getrecursionlimit() + 100
        big = tmp_path / "big.struct"
        big.write_text(emit_structure(graph(n, []), "big"), encoding="utf-8")
        start = time.perf_counter()
        assert main(["amalgam", str(big), str(big), "--over", str(big)]) == 0
        elapsed = time.perf_counter() - start
        assert capsys.readouterr().out == emit_structure(graph(n, []), "amalgam")
        assert elapsed < 3.0

    def test_dlf_build_and_verify(self, files):
        out = str(files["tmp"] / "chain.txt")
        assert main(["dlf", "--class", files["k3"], "--stages", "1",
                     "--seed", files["k2"], "--out", out]) == 0
        assert main(["verify", out]) == 0

    def test_dlf_chain_failing_its_own_verification_exit_code(self, files, monkeypatch,
                                                               capsys):
        # a built chain that fails verify_chain is a failed check, as for
        # the other constructions, not a usage error
        monkeypatch.setattr(chains, "verify_chain",
                            lambda cert: Verdict.failed("handled", "patched to fail"))
        out = files["tmp"] / "chain.txt"
        assert main(["dlf", "--class", files["k3"], "--stages", "1",
                     "--seed", files["k2"], "--out", str(out)]) == 2
        assert "handled: patched to fail" in capsys.readouterr().err
        assert not out.exists()

    def test_minforb_reproduces_forbidder(self, files, capsys):
        assert main(["minforb", "--class-forbid", files["k3"], "--max", "3"]) == 0
        text = capsys.readouterr().out
        from eppa.textio import parse_structure
        blocks = text.strip().split("end")
        structures = [parse_structure(b + "end\n") for b in blocks if b.strip()]
        assert [canonical_form(s) for s in structures] == [canonical_form(K3)]

    def test_minforb_refuses_oversized_bound_at_once(self, files, capsys):
        # graphs on 5 points have 25 relation slots; the refusal comes before
        # any smaller size is enumerated
        start = time.perf_counter()
        assert main(["minforb", "--class-forbid", files["k3"], "--max", "5"]) == 3
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "25 relation slots" in captured.err
        assert elapsed < 1.0

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("family", list(MINFORB_FAMILIES))
    def test_minforb_prints_the_unrestricted_sweep(self, tmp_path, capsys, family, n):
        """The verb sweeps only structures that embed in a member of F; it
        prints what the sweep over every structure finds."""
        forbidden = MINFORB_FAMILIES[family]
        paths = []
        for i, q in enumerate(forbidden):
            paths.append(tmp_path / f"q{i}.struct")
            paths[-1].write_text(emit_structure(q, f"q{i}"), encoding="utf-8")
        expected = "".join(emit_structure(s, f"minforb{i}") for i, s in enumerate(
            minimal_forbidden(lambda s: forb_e_member(s, forbidden), n, GRAPH_SIGNATURE)))
        assert main(["minforb", "--class-forbid", ",".join(map(str, paths)),
                     "--max", str(n)]) == 0
        assert capsys.readouterr().out == expected
        # nothing is found exactly when every member of F is over the bound, as K5 is
        assert bool(expected) == any(q.size <= n for q in forbidden)

    def test_minforb_tests_only_the_forbidders_substructures(self, files, capsys,
                                                            monkeypatch):
        # K3 at --max 4: the classes of the empty graph, K1, K2 and K3, each
        # tested once and K3's three deletions once more (the sweep over
        # every structure on at most 4 points tests 3,250)
        calls = []

        def counted(structure, forbidden):
            calls.append(structure)
            return forb_e_member(structure, forbidden)
        monkeypatch.setattr(cli, "forb_e_member", counted)
        assert main(["minforb", "--class-forbid", files["k3"], "--max", "4"]) == 0
        assert capsys.readouterr().out == emit_structure(canonical_form(K3), "minforb0")
        assert len(calls) <= 10

    def test_console_entry_point(self, files, tmp_path):
        out = tmp_path / "cert.txt"
        result = run_fresh(["extend", "--in", files["k2"], "--mode", "base",
                            "--out", str(out)])
        assert result.returncode == 0
        assert out.exists()

    def test_parser_built_once_answers_as_a_fresh_process(self, files, monkeypatch, capsys):
        """main builds its parser once per process; runs after the first,
        including a refused command line and --help, answer exactly as the
        same run does first in a fresh process."""
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
        runs = [["verify", str(STORED / "base4-n2-01.cert")], ["verify"], ["--help"],
                ["minforb", "--class-forbid", files["k3"], "--max", "3"]]
        codes = []
        for argv in runs:
            fresh = run_fresh(argv)
            codes.append(main(argv))
            captured = capsys.readouterr()
            assert (codes[-1], captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr)
        assert codes == [0, 1, 0, 0]
        assert build_parser() is build_parser()

    def test_verb_handler_is_looked_up_on_each_call(self, monkeypatch, capsys):
        """A handler rebound after the parser was built is the one that runs,
        as when a tracer wraps the module's functions."""
        cert = str(STORED / "base4-n2-01.cert")
        assert main(["verify", cert]) == 0
        seen = []
        monkeypatch.setattr(eppa.cli, "_cmd_verify", lambda args: seen.append(args) or 0)
        assert main(["verify", cert]) == 0
        assert [args.certificate for args in seen] == [cert]
        assert capsys.readouterr().out == "ok\n"


def run_fresh(argv):
    """`python -m eppa.cli` on `argv` in a fresh process that imports the
    same eppa package as this test, installed or not."""
    src = str(Path(eppa.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "eppa.cli", *argv],
                          capture_output=True, text=True, env=env)


def k2_special():
    p = PartialAutomorphism.from_map({0: 1})
    psi = ExtensionMap(2, 2, (0, 1), {"-": Permutation.identity(2),
                                      "0>1": Permutation((1, 0))})
    return special_extension(K2, (PartialAutomorphism.empty(), p), K2, psi)


CERTIFICATES = {
    "base": lambda: base_eppa(PATH3),
    "faithful": lambda: clique_faithful_extension(K2),
    "special": k2_special,
}


class TestTableKeySet:
    """The phi table of a file must be keyed by exactly the maps it covers:
    Part(A), or P for special certificates."""

    @pytest.mark.parametrize("kind", sorted(CERTIFICATES))
    def test_extra_key_fails_table(self, kind, stamp, run_verify):
        body = emit_certificate(CERTIFICATES[kind]()).rstrip("\n").split("\n")[:-1]
        last = max(i for i, line in enumerate(body) if line.startswith("phi "))
        degree = len(body[last].partition(" : ")[2].split())
        extra = "phi 9>9 : " + " ".join(str(x) for x in range(degree))
        body.insert(last + 1, extra)
        assert run_verify(stamp(body))[:2] == (2, "fail table")

    def test_missing_special_key_fails_table(self, stamp, run_verify):
        body = emit_certificate(k2_special()).rstrip("\n").split("\n")[:-1]
        body.remove(next(line for line in body if line.startswith("phi 0>1 ")))
        assert run_verify(stamp(body))[:2] == (2, "fail table")

    def test_missing_psi_key_fails_table(self, stamp, run_verify):
        body = emit_certificate(k2_special()).rstrip("\n").split("\n")[:-1]
        body.remove(next(line for line in body if line.startswith("psi 0>1 ")))
        assert run_verify(stamp(body))[:2] == (2, "fail table")

    def test_extra_psi_key_fails_table(self, stamp, run_verify):
        body = emit_certificate(k2_special()).rstrip("\n").split("\n")[:-1]
        last = max(i for i, line in enumerate(body) if line.startswith("psi "))
        body.insert(last + 1, "psi 9>9 : 0 1")
        assert run_verify(stamp(body))[:2] == (2, "fail table")


class TestReaderBounds:
    @pytest.mark.parametrize("name, block, points, tuples, drop, verdict", [
        ("faithful-n1-empty.cert", "b", 4_000_000, True, (), (0, "ok")),
        ("base4-n1-empty.cert", "b", 2_000_000, True, ("phi ",), (2, "fail table")),
        ("special-K2.cert", "b", 2_000_000, False, ("phi ",), (2, "fail iota-embedding")),
        ("faithful-n1-empty.cert", "c", 2_000_000, True, ("phi ", "witness "),
         (2, "fail table")),
    ])
    def test_large_sparse_block_is_read_at_the_image(self, name, block, points, tuples, drop,
                                                     verdict, stamp, run_verify):
        """A block of millions of points and a few tuples, checked only as
        the codomain of an embedding: its size costs nothing."""
        body = (STORED / name).read_text(encoding="utf-8").rstrip("\n").split("\n")[:-1]
        head = body.index(f"structure {block}")
        at = next(i for i in range(head, len(body)) if body[i].startswith("size "))
        body[at] = f"size {points}"
        if not tuples:
            del body[at + 1:body.index("end", at)]
        text = stamp([line for line in body if not line.startswith(drop)])
        assert len(text) < 1000
        began = time.perf_counter()
        assert run_verify(text)[:2] == verdict
        assert time.perf_counter() - began < 1

    def test_empty_chain_is_refused(self, stamp, run_verify):
        code, _, err = run_verify(stamp(["certificate chain", "format 1", "param stages -1",
                                         "forbid 0"]))
        assert code == 1
        assert "line 3:" in err

    @pytest.mark.parametrize("n", [8, 9])
    def test_base_over_the_map_bound_is_refused(self, tmp_path, stamp, n):
        # n isolated points: 1,441,729 partial automorphisms on 8 points and
        # 17,572,114 on 9, refused once the listing passes 500,000 (in a
        # fresh process, as for `eppa extend` above)
        points = " ".join(map(str, range(n)))
        path = tmp_path / "isolated.cert"
        path.write_text(stamp(["certificate base-eppa", "format 1",
                               "structure a", "rel E 2", f"size {n}", "end",
                               "structure b", "rel E 2", f"size {n}", "end",
                               f"embed {points}", f"phi - : {points}"]), encoding="utf-8")
        start = time.perf_counter()
        result = run_fresh(["verify", str(path)])
        assert time.perf_counter() - start < 5.0
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr.startswith("resource bound: Part(A) needs ")
        assert result.stderr.endswith(" maps, over the bound 500000\n")

    def test_base_over_the_point_bound_is_refused(self, run_verify):
        # 13 points, each alone in its own unary relation: Part(A) is just
        # the 2^13 identity maps, so an unbounded verifier would accept it
        n = 13
        sig = Signature.make(*((f"U{i}", 1) for i in range(n)))
        a = Structure.make(sig, n, {f"U{i}": [(i,)] for i in range(n)})
        ident = Permutation.identity(n)
        table = {PartialAutomorphism.identity_on(
                     x for x in range(n) if mask >> x & 1).encode(): ident
                 for mask in range(1 << n)}
        cert = BaseEppaCertificate(base=a, extension=a,
                                   phi=ExtensionMap(n, n, ident.images, table))
        code, _, err = run_verify(emit_certificate(cert))
        assert code == 3
        assert "bound" in err
