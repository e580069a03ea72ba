"""Regenerate the benchmark's stored inputs from the library in ``src``.

    python3 perfbench/make_data.py      # from the repository root

Writes ``data/special_bases.json`` (base certificates of the eleven labelled
graphs on at most 3 vertices, from which the ``free`` workload draws its
random special-extension instances) and ``data/verify/`` (the certificate
files of the ``verify_ok`` and ``verify_reject`` workloads, with
``manifest.json`` listing them).  The stored files are inputs: regenerate
them only when the benchmark's corpus is meant to change.

The verify corpus holds the certificates of the ``base4`` graphs except
P3+K1, the K3-free certificates of the triangle-free graphs with at most 4
vertices (P3+K1 is refused), the faithful certificates of the graphs with at
most 3 vertices, the criterion-07 chain, the K2 special fixture and ten
special instances drawn with a fixed seed.  P3+K1's base certificate (|B| =
256, 294 kB) is left out to keep a run within the time budget; the paw's
certificate, of the same size and kind, stays.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import workloads  # noqa: E402
from eppa import (base_eppa, build_dlf_chain, clique_faithful_extension,  # noqa: E402
                  emit_certificate, forb_e_eppa, parse_certificate,
                  verify_certificate)
from eppa.errors import BoundExceededError  # noqa: E402

P3_K1 = (4, ((0, 1), (0, 2)))
SPECIAL_FIXTURE_SEED = 20250810


def special_bases() -> dict:
    out = {}
    for n in (1, 2, 3):
        for g in corpus.labelled_graphs(n):
            cert = base_eppa(workloads.graph(g))
            out[corpus.graph_name(g)] = {
                "size": cert.extension.size,
                "arcs": [list(t) for t in cert.extension.tuples("E")],
                "embedding": list(cert.embedding),
                "phi": {k: list(p.images) for k, p in sorted(cert.phi.table.items())},
            }
    return out


def verify_corpus() -> dict[str, str]:
    k3 = workloads.graph(workloads.K3)
    files = {}
    for g in corpus.graphs_up_to(4):
        if g != P3_K1:
            files[f"base4-{corpus.graph_name(g)}.cert"] = emit_certificate(
                base_eppa(workloads.graph(g)))
    for g in corpus.graphs_up_to(4):
        if corpus.triangle_free(g):
            try:
                cert = forb_e_eppa(workloads.graph(g), [k3])
            except BoundExceededError:
                continue
            files[f"forb_e-{corpus.graph_name(g)}.cert"] = emit_certificate(cert)
    for g in corpus.graphs_up_to(3):
        files[f"faithful-{corpus.graph_name(g)}.cert"] = emit_certificate(
            clique_faithful_extension(workloads.graph(g)))
    files["chain-K2-2.cert"] = emit_certificate(
        build_dlf_chain([k3], 2, workloads.graph(workloads.K2)))
    # the special fixtures, drawn as the free workload draws them
    for case, g, base, keys in workloads.special_cases(random.Random(SPECIAL_FIXTURE_SEED)):
        (accepted, text), _ = workloads.special_op(case, g, base, keys, None).run()
        if not accepted:
            raise SystemExit(f"{case}: verify_special rejected the fixture")
        files[f"{case}.cert"] = text
    return files


def main() -> int:
    data = corpus.DATA
    bases = special_bases()
    (data / "special_bases.json").write_text(json.dumps(bases, indent=1) + "\n",
                                             encoding="utf-8")
    files = verify_corpus()
    out = data / "verify"
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        if not verify_certificate(parse_certificate(text)):
            raise SystemExit(f"{name}: generated certificate does not verify")
        (out / name).write_text(text, encoding="utf-8")
    (out / "manifest.json").write_text(json.dumps(sorted(files), indent=1) + "\n",
                                       encoding="utf-8")
    print(f"wrote {len(bases)} special bases and {len(files)} certificates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
