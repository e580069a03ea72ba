import contextlib
import hashlib
import io

import pytest

from eppa.amalgamation import canonical_form, enumerate_structures, is_graph_universe
from eppa.cli import main
from eppa.coherence import ExtensionMap
from eppa.quotient import SpecialCertificate, special_extension
from eppa.structures import GRAPH_SIGNATURE, PartialAutomorphism, Permutation, Structure, graph


def _stamp(body: list[str]) -> str:
    digest = hashlib.sha256(("\n".join(body) + "\n").encode("utf-8")).hexdigest()
    return "\n".join(body + [f"digest {digest}"]) + "\n"


@pytest.fixture
def stamp():
    """Certificate text for a body, with the library's digest line."""
    return _stamp


@pytest.fixture
def run_verify(tmp_path):
    """`eppa verify` on a certificate text: exit code, stripped stdout, stderr."""
    def run(text: str) -> tuple[int, str, str]:
        path = tmp_path / "edited.cert"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(path)])
        return code, out.getvalue().strip(), err.getvalue()
    return run


def all_graphs(size: int) -> list[Structure]:
    """Simple graphs on exactly `size` vertices, up to isomorphism."""
    return enumerate_structures(GRAPH_SIGNATURE, size, is_graph_universe)


@pytest.fixture(scope="session")
def graphs_up_to_4() -> list[Structure]:
    out = []
    for n in range(1, 5):
        out.extend(all_graphs(n))
    return out


@pytest.fixture(scope="session")
def graphs_5(graphs_up_to_4) -> list[Structure]:
    """The graphs with 5 vertices up to isomorphism, in canonical form and
    sorted: each is a graph on 4 vertices with a fifth vertex joined to a
    set of its vertices."""
    fives = {canonical_form(graph(5, [*g.tuples("E"), *((x, 4) for x in range(4)
                                                        if mask >> x & 1)]))
             for g in graphs_up_to_4 if g.size == 4 for mask in range(16)}
    return sorted(fives, key=lambda s: s.relations)


@pytest.fixture(scope="session")
def graphs_up_to_3() -> list[Structure]:
    out = []
    for n in range(1, 4):
        out.extend(all_graphs(n))
    return out


@pytest.fixture
def k2() -> Structure:
    return graph(2, [(0, 1)])


@pytest.fixture
def k3() -> Structure:
    return graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def k4() -> Structure:
    return graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def path3() -> Structure:
    return graph(3, [(0, 1), (1, 2)])


@pytest.fixture(scope="session")
def c20_over_p3() -> SpecialCertificate:
    """Special extension of the path P3 over the 20-cycle, with P = {0>1, 1>2}
    and psi(p) the rotation by one for both maps: the 20-point quotient has
    edges that are images of an embedded edge only under words of 9 letters."""
    rotation = Permutation(tuple((i + 1) % 20 for i in range(20)))
    maps = (PartialAutomorphism.decode("0>1"), PartialAutomorphism.decode("1>2"))
    psi = ExtensionMap(3, 20, (0, 1, 2), {p.encode(): rotation for p in maps})
    c20 = graph(20, [(i, (i + 1) % 20) for i in range(20)])
    return special_extension(graph(3, [(0, 1), (1, 2)]), maps, c20, psi)
