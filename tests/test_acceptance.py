"""Acceptance gate: one test per criterion, each printing a PASS line once
all of its checks have gone through.  Everything is exact (discrete); the
random instances are drawn from fixed seeds."""

import dataclasses
import random

import pytest

from eppa.amalgamation import (canonical_form, check_clique_characterization,
                               enumerate_structures, exists_embedding,
                               forb_e_member, is_graph_universe)
from eppa.base_extension import base_eppa
from eppa.chains import build_dlf_chain, verify_chain
from eppa.cli import main as cli_main
from eppa.coherence import (ExtensionMap, SetPartialMap, check_forced_values,
                            coherent_lift, mask_atoms, set_map_coherent_triples,
                            verify_coherence, verify_extension)
from eppa.faithful import (clique_faithful_extension, forb_e_eppa,
                           generic_subsets, projection_is_small,
                           verify_faithful_view)
from eppa.quotient import special_extension, verify_special
from eppa.structures import (GRAPH_SIGNATURE, PartialAutomorphism, Permutation,
                             graph, enumerate_partial_automorphisms, is_embedding)
from eppa.textio import emit_certificate, emit_structure

K2 = graph(2, [(0, 1)])
K3 = graph(3, [(0, 1), (1, 2), (0, 2)])

# sha256 digests of the certificates each criterion builds, pinned so that a
# refactor that changes a single byte of any of them fails here
CRITERION_01_DIGESTS = (
    "6dfa1c453242ff55ce399248207d02787c5032876834bbc74cfcd604f19897e5",
    "7b4546f24b709e5a7253646f33ecf6050b36666ba53f1dc2cbbb2998ee7e5a35",
    "be0be6bb093665e1d2289e1cd47eb534c6440369228cb3b95aa3ee08f7018d58",
    "2c57e612e9ff99dfcebbe3745358770fdb8374aee42fee9ffa8ae783ca401c49",
    "b3ca73c842656355dda9d38c6e13997aad5f5530ef67eb8e5f5440d121ea4ef8",
    "a5d48de0cec58ffa45a29b6e166b9e7c066bd84a09aeba779210851f14cdf787",
    "49b4d687e712743c07342e3e0dea7ac8dcd40b10004eb778ad3ce5033463437f",
    "8e72da90881f30ed8ea316ab3326a92a51c1540ccf9a77de3f6e232e0addd542",
    "be03606483b969e5fb73ba7d40c1f96c84596d72becf5f77ec2160f86c0694d7",
    "34e542a7f0ada775e53717b9caf356aa66d644b2b95fa48336094709a9b624ea",
    "5c216aba64473d4bc55558d0b76d6c7d28cebb3fe5fae849bad8599a0ae301cf",
    "ce370f55d1317291b5edc6288359cbf6360bb80d6b803f0f3373c1bbc8465a6b",
    "e0177140677ee24e4cefe3ac55e39d63c416ef9283edb1f421649e5cfba57125",
    "9a493fd456261f770c3edd8a184bf2ca135fbc54f11028518669d56fa7c9d5ad",
    "7994b54314ba0c26757e495772f89fd675923a9d843b3d7727af3e9e6cf4ee1d",
    "e6771ddf1538183ce86d46942e27467b0e9713ef598cc8c148c92588760fb449",
    "2ed3486e5e805ee39333db0e99cd8cb84af7b85f5f887b4889c2da1e5837f3c8",
    "35a4055237723c61f767de010cc1582b3a5dad378f3387679ccd0a7c9a056db3",
)
CRITERION_02_DIGESTS = (
    "a7742fbfaf5eaf7ff8a4e4770edabd26cb75e529637886bc274f6bbb643695ca",
    "f0ffdeabe300e19901992100d149030f8b77859eac4beb8b774fd547a7a20a18",
    "b7e8e07e194538e82bd9056d472db6a0337d665bfc7edc70271deaebf975d629",
    "b2cf9f7eb9209159e655023b446d73befc3a4f80f484e85aafae3dcc28664109",
    "febe59f07b6d1cbccc7594cf3621feaa76af7090a734b2a17dce6eb416ac02ff",
    "d024822a130f06004883993ad8c54a2aced00218eb03407b34725592a49c600b",
    "849a365c3f89d127f522bb4b16e1c36e41d3b01339753462921c83548f2dc9ca",
)
CRITERION_03_DIGESTS = (
    "98045d177dc5f904ae79a0bf1b727e1e76f33c385d7b59f804071481d746f69e",
    "d9880b6ac57ec0e3c26452c3c202bbf3f8d33baa8df4bd93728d79ff93bc8309",
    "58eed6ce51bc312e98475403096c1e76e4b63e9d78e7eb61b5483247b2ee4796",
    "dfa689f115d614e5a337a94b870e29fe1da8b34c3fc2582d839e6b388eadd06f",
    "8e2a10e9b96c587ee8461304ef0640418d83bd6ebe77ae5cbf8ee5104a101be1",
    "1a3e795b6928ff9480447cca6246cbe9d0952b90221f4ed135430708e3b9458a",
)
CRITERION_04_DIGESTS = (
    "619dd700c7e03950ab80a92522f11c84e989dc46787e576b70bbf540f5d49318",
    "d977f97001906d3e13e19238ecd18cb865e3b909dd7437ffffef7f42ec3e9230",
    "1bb7377a77f5ea00d66be366e704586e204e6e2d4edc27d80f099e16fb824985",
    "04e25efc99c1bfe2665a02656f9cbb69902fee84f263aefd1f98255f5be01ef0",
    "d99ff3535fa8e9a5e807d24e9ed81b5069b0bf525ae0647d8aa697792a377fde",
    "22b3eba7279a71b8f57cb6c3fd7bd1163b9e521f2bad2bf12afb700336fe5f61",
    "8fdd3479d63156a1232e6bba206967f458f2c9de2b7ff31f02fb16e555788abe",
    "dd899743984d1e4a2cb9381c80c486c43020dab6380b56a927344f2c346db10f",
    "170d68118ec6c2cb2a3cc90718c093e201be00838a7f9879ffc1212bd471cf7e",
    "540e882f9dde64c77c85540e5453eb8c6acaca444d58a9b88ecf6f790d15e970",
    "dcddf6679e552fd4185c457ea361a938cdf7188b80cf55ba00daac1664b9f984",
)
CRITERION_07_DIGEST = "90762aa49c7ceb3af85d9561eb6084653c66f6e0e7d3f3528f9e4da2034b9466"


def digest_of(cert) -> str:
    """The digest field of the certificate's canonical file."""
    return emit_certificate(cert).rstrip("\n").rsplit("\n", 1)[1].split()[1]


def all_graphs_up_to(n):
    out = []
    for size in range(1, n + 1):
        out.extend(enumerate_structures(GRAPH_SIGNATURE, size, is_graph_universe))
    return out


@pytest.fixture(scope="module")
def pipeline_certificates():
    """Clique-faithful pipeline run on every graph with at most 3 vertices."""
    return [(structure, clique_faithful_extension(structure))
            for structure in all_graphs_up_to(3)]


def test_criterion_01_base_extension_all_graphs_up_to_four():
    graphs = all_graphs_up_to(4)
    assert len(graphs) == 18
    for structure, digest in zip(graphs, CRITERION_01_DIGESTS, strict=True):
        cert = base_eppa(structure)
        assert digest_of(cert) == digest
        maps = cert.part.maps
        assert verify_extension(cert.phi, maps)
        assert verify_coherence(cert.phi, maps)
        assert check_forced_values(cert.phi, maps)
    print("\n[ 1] coherent base extension on all 18 graphs <= 4 vertices: PASS")


def test_criterion_02_clique_faithful_pipeline(pipeline_certificates):
    assert len(pipeline_certificates) == 7
    for (structure, cert), digest in zip(pipeline_certificates, CRITERION_02_DIGESTS,
                                         strict=True):
        assert digest_of(cert) == digest
        c_structure = cert.structure
        nu_set = set(cert.phi.embedding)
        for clique, witness in cert.clique_witnesses.items():
            assert is_embedding(witness.images, c_structure, c_structure)
            assert all(witness(i) in nu_set for i in clique)
        maps = enumerate_partial_automorphisms(structure)
        assert verify_coherence(cert.phi, maps)
        assert verify_faithful_view(cert)
    # hand-derived fixture: a single vertex inside an edge collapses to two
    # valued points with the edge destroyed
    from eppa.base_extension import BaseEppaCertificate
    single = graph(1, [])
    ident = Permutation.identity(2)
    base_cert = BaseEppaCertificate(
        base=single, extension=K2,
        phi=ExtensionMap(1, 2, (0,), {"-": ident, "0>0": ident}))
    fixture = clique_faithful_extension(single, base_cert=base_cert)
    assert fixture.structure.size == 2
    assert fixture.structure.tuples("E") == ()
    print("[ 2] clique-faithful pipeline on all graphs <= 3 vertices + fixture: PASS")


def test_criterion_03_forbidden_triangle_preserved():
    triangle_free = [s for s in all_graphs_up_to(3)
                     if exists_embedding(K3, s) is None]
    assert len(triangle_free) == 6
    for structure, digest in zip(triangle_free, CRITERION_03_DIGESTS, strict=True):
        cert = forb_e_eppa(structure, [K3])
        assert digest_of(cert) == digest
        assert exists_embedding(K3, cert.structure) is None
        assert verify_faithful_view(cert)
    print("[ 3] forb_e extensions of triangle-free graphs stay K3-free: PASS")


def _random_special_instance(rng):
    size = rng.randint(1, 3)
    edges = [(i, j) for i in range(size) for j in range(i + 1, size)
             if rng.random() < 0.5]
    structure = graph(size, edges)
    base_cert = base_eppa(structure)
    maps = enumerate_partial_automorphisms(structure)
    chosen = tuple(p for p in maps if rng.random() < 0.6)
    psi = ExtensionMap(structure.size, base_cert.extension.size,
                       base_cert.embedding,
                       {p.encode(): base_cert.phi.lookup(p) for p in chosen})
    return structure, chosen, base_cert.extension, psi


def test_criterion_04_special_extension():
    p = PartialAutomorphism.from_map({0: 1})
    psi = ExtensionMap(2, 2, (0, 1), {"-": Permutation.identity(2),
                                      "0>1": Permutation((1, 0))})
    cert = special_extension(K2, (PartialAutomorphism.empty(), p), K2, psi)
    assert verify_special(cert, max_word_len=6)
    assert digest_of(cert) == CRITERION_04_DIGESTS[0]
    rng = random.Random(20250810)
    for digest in CRITERION_04_DIGESTS[1:]:
        structure, maps, codomain, psi = _random_special_instance(rng)
        cert = special_extension(structure, maps, codomain, psi)
        assert digest_of(cert) == digest
        assert verify_special(cert, max_word_len=6)
        assert is_embedding(cert.phi.embedding, structure, cert.extension)
        for q in cert.maps:
            g = cert.phi.lookup(q)
            gp = cert.psi.lookup(q)
            for b in range(cert.extension.size):
                assert cert.hom[g(b)] == gp(cert.hom[b])
    print("[ 4] special extensions verified at word bound 6 on K2 + 10 random: PASS")


def test_criterion_05_coherent_lift():
    rng = random.Random(5150)
    checked = 0
    for _ in range(100):
        n = rng.randint(1, 6)
        full = (1 << n) - 1
        sigma2 = Permutation(tuple(rng.sample(range(n), n)))
        sigma1 = Permutation(tuple(rng.sample(range(n), n)))
        doms = sorted({rng.randint(0, full) for _ in range(rng.randint(0, 3))})

        def image(sigma, mask):
            out = 0
            for b in range(n):
                if mask >> b & 1:
                    out |= 1 << sigma(b)
            return out

        p2 = SetPartialMap(n, tuple((d, image(sigma2, d)) for d in doms), sigma2)
        mid = [image(sigma2, d) for d in doms]
        p1 = SetPartialMap(n, tuple((m, image(sigma1, m)) for m in mid), sigma1)
        q = SetPartialMap(n, tuple((d, image(sigma1.compose(sigma2), d)) for d in doms),
                          sigma1.compose(sigma2))
        family = [p2, p1, q]
        lifted = coherent_lift(n, family)
        for m, perm in zip(family, lifted):
            for a, b in m.pairs:
                assert image(perm, a) == b
            dom_atoms = set(mask_atoms(n, m.domain_sets()))
            range_atoms = set(mask_atoms(n, [b for _, b in m.pairs]))
            for atom in dom_atoms:
                assert image(perm, atom) in range_atoms
        triples = set_map_coherent_triples(family)
        assert triples  # composable witnesses guarantee at least one triple
        for i1, i2, iq in triples:
            assert lifted[i1].compose(lifted[i2]) == lifted[iq]
        checked += 1
    assert checked == 100
    print("[ 5] coherent lift on 100 randomized families over |X| <= 6: PASS")


def test_criterion_06_clique_characterization():
    k3 = K3

    def triangle_free(s):
        return s.is_graphlike() and exists_embedding(k3, s) is None

    def max_degree_one(s):
        if not s.is_graphlike():
            return False
        deg = [0] * s.size
        for a, b in s.tuples("E"):
            if a < b:
                deg[a] += 1
                deg[b] += 1
        return all(d <= 1 for d in deg)

    good = check_clique_characterization(triangle_free, 4, GRAPH_SIGNATURE,
                                         is_graph_universe)
    assert good.cliques_side and good.closure_side
    bad = check_clique_characterization(max_degree_one, 3, GRAPH_SIGNATURE,
                                        is_graph_universe)
    assert not bad.cliques_side and not bad.closure_side
    path3 = graph(3, [(0, 1), (1, 2)])
    assert canonical_form(bad.non_clique_witness) == canonical_form(path3)
    left, right, shared, glued = bad.closure_witness
    assert not max_degree_one(glued)
    print("[ 6] clique characterization of free amalgamation classes: PASS")


def test_criterion_07_dlf_chain():
    cert = build_dlf_chain([K3], 2, K2)
    assert verify_chain(cert)
    assert digest_of(cert) == CRITERION_07_DIGEST
    assert len(cert.stages) == 3
    assert len(cert.handled) == 2
    for stage in cert.stages:
        assert forb_e_member(stage.structure, [K3])
    print("[ 7] dense-locally-finite chain over triangle-free graphs: PASS")


def test_criterion_08_generic_projection(pipeline_certificates):
    total = 0
    for structure, cert in pipeline_certificates:
        for subset in generic_subsets(cert.extension, cert.size_cap):
            assert projection_is_small(cert.extension, subset)
            total += 1
    assert total > 0
    print(f"[ 8] projections of {total} generic subsets are all small: PASS")


def test_criterion_09_determinism(tmp_path):
    src = tmp_path / "path3.struct"
    forb = tmp_path / "k3.struct"
    src.write_text(emit_structure(graph(3, [(0, 1), (1, 2)]), "path3"),
                   encoding="utf-8")
    forb.write_text(emit_structure(K3, "k3"), encoding="utf-8")
    for mode_args in (["--mode", "base"],
                      ["--mode", "faithful", "--forbid", str(forb)]):
        out1 = tmp_path / "cert1.txt"
        out2 = tmp_path / "cert2.txt"
        assert cli_main(["extend", "--in", str(src), *mode_args,
                         "--out", str(out1)]) == 0
        assert cli_main(["extend", "--in", str(src), *mode_args,
                         "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert cli_main(["verify", str(out1)]) == 0
    print("[ 9] byte-identical certificates across repeated runs: PASS")


def test_criterion_10_negative_fixtures(tmp_path, capsys):
    path3 = graph(3, [(0, 1), (1, 2)])
    fixtures = []

    base_cert = base_eppa(path3)
    key = sorted(k for k in base_cert.phi.table if k != "-")[0]
    bad_table = dict(base_cert.phi.table)
    images = list(bad_table[key].images)
    images[0], images[1] = images[1], images[0]
    bad_table[key] = Permutation(tuple(images))
    fixtures.append(("base", dataclasses.replace(
        base_cert, phi=dataclasses.replace(base_cert.phi, table=bad_table)),
        {"coherence", "extension", "automorphism", "forced-identity",
         "forced-inverse"}))

    faithful_cert = clique_faithful_extension(path3)
    clique = sorted(faithful_cert.clique_witnesses)[0]
    witnesses = dict(faithful_cert.clique_witnesses)
    size = faithful_cert.structure.size
    shifted = Permutation(tuple((x + 1) % size for x in range(size)))
    witnesses[clique] = shifted
    fixtures.append(("faithful", dataclasses.replace(
        faithful_cert, clique_witnesses=witnesses),
        {"clique-witness"}))

    p = PartialAutomorphism.from_map({0: 1})
    psi = ExtensionMap(2, 2, (0, 1), {"-": Permutation.identity(2),
                                      "0>1": Permutation((1, 0))})
    special_cert = special_extension(K2, (PartialAutomorphism.empty(), p), K2, psi)
    bad_hom = list(special_cert.hom)
    bad_hom[0] = 1 - bad_hom[0]
    fixtures.append(("special", dataclasses.replace(special_cert, hom=tuple(bad_hom)),
                     {"homomorphism", "equivariance"}))

    chain_cert = build_dlf_chain([K3], 1, K2)
    stage0 = chain_cert.stages[0]
    group1 = chain_cert.stages[1].group
    replacement = [g for g in group1.elements if g != stage0.lifted[0]][0]
    bad_lift = (replacement,) + stage0.lifted[1:]
    stages = (dataclasses.replace(stage0, lifted=bad_lift),) + chain_cert.stages[1:]
    fixtures.append(("chain", dataclasses.replace(chain_cert, stages=stages),
                     {"lift"}))

    for label, cert, conditions in fixtures:
        path = tmp_path / f"bad_{label}.txt"
        path.write_text(emit_certificate(cert), encoding="utf-8")
        code = cli_main(["verify", str(path)])
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 2, f"{label}: expected exit 2, got {code}"
        assert out.startswith("fail "), f"{label}: {out}"
        assert out.split()[1] in conditions, f"{label}: {out}"
    print("[10] corrupted certificates rejected with named conditions: PASS")
