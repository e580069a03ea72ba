"""Command-line interface.

Exit codes: 0 success, 1 usage/parse errors, 2 verification failure,
3 resource bound exceeded.  Diagnostics go to stderr; machine-readable
output to stdout or to files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .amalgamation import AmalgamInstance, exists_embedding, forb_e_member, free_amalgam, minimal_forbidden
from .base_extension import base_eppa
from .chains import build_dlf_chain
from .errors import BoundExceededError, EppaError, StructureSyntaxError, VerificationError
from .faithful import clique_faithful_extension, enumerate_cliques, forb_e_eppa
from .textio import (emit_certificate, emit_structure, parse_certificate,
                     parse_structure, verify_certificate)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFICATION = 2
EXIT_RESOURCE = 3


def _read(path: str) -> str:
    """The text of file `path`; a file that is not UTF-8 is a syntax error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise StructureSyntaxError(
            f"{path} is not UTF-8 text: byte {exc.start} is {exc.object[exc.start]:#04x}") from None


def _load_structure(path: str):
    return parse_structure(_read(path))


def _load_forbidden(arg: str | None):
    if not arg:
        return []
    return [_load_structure(part) for part in arg.split(",") if part]


def _write_verified(cert, out: str) -> int:
    """Emit the certificate, verify what its file parses back to, and write
    the file only if that verifies."""
    text = emit_certificate(cert)
    verdict = verify_certificate(parse_certificate(text))
    if not verdict:
        print(f"verification failed: {verdict.message()}", file=sys.stderr)
        return EXIT_VERIFICATION
    Path(out).write_text(text, encoding="utf-8")
    return EXIT_OK


def _cmd_extend(args) -> int:
    base = _load_structure(args.input)
    forbidden = _load_forbidden(args.forbid)
    cap = args.size_cap
    if args.mode == "base":
        if forbidden or cap is not None:
            flag = "--forbid" if forbidden else "--size-cap"
            print(f"{flag} requires --mode faithful", file=sys.stderr)
            return EXIT_ERROR
        cert = base_eppa(base)
    elif forbidden:
        cert = forb_e_eppa(base, forbidden, size_cap=cap)
    else:
        cert = clique_faithful_extension(base, size_cap=cap)
    return _write_verified(cert, args.out)


def _cmd_verify(args) -> int:
    cert = parse_certificate(_read(args.certificate))
    verdict = verify_certificate(cert)
    if verdict:
        print("ok")
        return EXIT_OK
    print(f"fail {verdict.condition}")
    print(verdict.message(), file=sys.stderr)
    return EXIT_VERIFICATION


def _cmd_cliques(args) -> int:
    structure = _load_structure(args.input)
    for clique in enumerate_cliques(structure, args.max):
        print(",".join(str(x) for x in clique))
    return EXIT_OK


def _cmd_amalgam(args) -> int:
    left = _load_structure(args.left)
    right = _load_structure(args.right)
    shared = _load_structure(args.over)
    into_left = exists_embedding(shared, left)
    into_right = exists_embedding(shared, right)
    if into_left is None or into_right is None:
        print("shared structure does not embed into both sides", file=sys.stderr)
        return EXIT_ERROR
    instance = AmalgamInstance(shared=shared, left=left, right=right,
                               into_left=into_left, into_right=into_right)
    glued, _, _ = free_amalgam(instance)
    text = emit_structure(glued, "amalgam")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_dlf(args) -> int:
    seed = _load_structure(args.seed)
    forbidden = _load_forbidden(args.forbid)
    return _write_verified(build_dlf_chain(forbidden, args.stages, seed), args.out)


def _cmd_minforb(args) -> int:
    """The minimal forbidden structures of Forb_e(F) on at most --max points,
    swept only over U: the structures that embed in a member q of F with
    |q| <= --max.  That loses none.  Let s be minimal forbidden: some q in F
    embeds in s, and if the embedding missed a point v, q would embed in
    s - v, a member; so the embedding is onto, s is isomorphic to q, and s
    is in U.  U is hereditary and closed under isomorphism, so `_classes`
    reaches every class in U, in the order and with the representatives it
    gives without a universe: the output is the unrestricted sweep's."""
    forbidden = _load_forbidden(args.forbid)
    if not forbidden:
        print("--class-forbid requires at least one structure", file=sys.stderr)
        return EXIT_ERROR
    signature = forbidden[0].signature
    for q in forbidden:
        if q.signature != signature:
            print("forbidden structures must share a signature", file=sys.stderr)
            return EXIT_ERROR
    small = [q for q in forbidden if q.size <= args.max]
    found = minimal_forbidden(lambda s: forb_e_member(s, forbidden), args.max, signature,
                              lambda s: any(exists_embedding(s, q) is not None for q in small))
    for i, structure in enumerate(found):
        sys.stdout.write(emit_structure(structure, f"minforb{i}"))
    return EXIT_OK


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eppa",
        description="Coherent extensions of partial automorphisms of finite "
                    "relational structures, with verifiable certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extend", help="build and verify an extension certificate")
    p.add_argument("--in", dest="input", required=True, help="input structure file")
    p.add_argument("--mode", choices=["base", "faithful"], default="base")
    p.add_argument("--forbid", help="comma-separated forbidden structure files")
    p.add_argument("--size-cap", type=int, default=None)
    p.add_argument("--out", required=True, help="certificate output path")

    p = sub.add_parser("verify", help="re-run all verifiers on a certificate file")
    p.add_argument("certificate")

    p = sub.add_parser("cliques", help="list Gaifman cliques of a structure")
    p.add_argument("input")
    p.add_argument("--max", type=int, default=None)

    p = sub.add_parser("amalgam", help="free amalgam of two structures over a shared one")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--over", required=True)
    p.add_argument("--out")

    p = sub.add_parser("dlf", help="build a dense-locally-finite chain certificate")
    p.add_argument("--class", dest="forbid", help="comma-separated forbidden structures")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("minforb", help="minimal forbidden structures of a class")
    p.add_argument("--class-forbid", dest="forbid", required=True)
    p.add_argument("--max", type=int, required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 is a failed check here
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:  # looked up on each call, so a rebound handler is the one that runs
        return globals()[f"_cmd_{args.command}"](args)
    except BoundExceededError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (StructureSyntaxError, EppaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
