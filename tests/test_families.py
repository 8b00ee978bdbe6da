"""Family generator tests.

Labelings are frozen, so expectations here are literal edge sets.  The
structural invariants cross two construction routes: the blowup
families against the definition of a blow-up (`tests/_naive.py`), and
the clique union against the multipartite complement.  Oversize specs
must fail before anything of their size is built.
"""

import time

import pytest

from wellcov import (
    FamilySpec,
    Graph,
    complement,
    generate,
)
from wellcov.bitset import members
from tests import _naive


class TestParse:
    def test_bare_name(self):
        spec = FamilySpec.parse("petersen")
        assert spec.name == "petersen" and spec.params == ()

    def test_single_param(self):
        spec = FamilySpec.parse("cycle:n=7")
        assert spec.param("n") == 7

    def test_dash_alias(self):
        assert FamilySpec.parse("petersen-complement").name == "petersen_complement"
        assert FamilySpec.parse("c7-blowup:q=2").name == "c7_blowup"

    def test_list_param(self):
        spec = FamilySpec.parse("complete_multipartite:parts=3,3,2")
        assert spec.param("parts") == (3, 3, 2)

    def test_two_params(self):
        spec = FamilySpec.parse("disjoint_cliques:r=3,p=2")
        assert spec.param("r") == 3 and spec.param("p") == 2

    @pytest.mark.parametrize("bad", [
        "nosuch", "cycle", "cycle:m=7", "cycle:n=x", "cycle:n=7,n=8",
        "petersen:n=1", "cycle:n=2", "c7_blowup:q=0", "path:n=0",
        "complete_multipartite:parts=", "disjoint_cliques:r=3",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            generate(bad)


class TestFrozenLabelings:
    def test_cycle(self):
        g = generate("cycle:n=4").graph
        assert set(g.edges()) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_path(self):
        g = generate("path:n=3").graph
        assert set(g.edges()) == {(0, 1), (1, 2)}
        assert generate("path:n=1").graph.n == 1

    def test_complete(self):
        g = generate("complete:n=4").graph
        assert _naive.is_complete(g) and g.edge_count == 6

    def test_complete_multipartite(self):
        fam = generate("complete_multipartite:parts=2,2")
        assert [members(c) for c in fam.classes] == [(0, 1), (2, 3)]
        assert set(fam.graph.edges()) == {
            (0, 2), (0, 3), (1, 2), (1, 3)}

    def test_petersen(self):
        g = generate("petersen").graph
        outer = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
        spokes = {(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)}
        inner = {(5, 7), (7, 9), (6, 9), (6, 8), (5, 8)}
        assert set(g.edges()) == outer | spokes | inner

    def test_disjoint_cliques(self):
        fam = generate("disjoint_cliques:r=2,p=3")
        assert [members(c) for c in fam.classes] == [(0, 1, 2), (3, 4, 5)]
        assert set(fam.graph.edges()) == {
            (0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}


class TestInvariants:
    def test_petersen_is_3_regular_girth5(self):
        g = generate("petersen").graph
        assert g.n == 10 and g.edge_count == 15
        assert all(g.degree(v) == 3 for v in range(10))
        # nonadjacent vertices share exactly one neighbor, adjacent none
        for u in range(10):
            for v in range(u + 1, 10):
                common = (g.adj[u] & g.adj[v]).bit_count()
                assert common == (0 if g.has_edge(u, v) else 1)

    def test_petersen_complement_matches(self):
        g = generate("petersen_complement").graph
        assert g.adj == complement(generate("petersen").graph).adj

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_c7_blowup_matches_definition(self, q):
        fam = generate(f"c7_blowup:q={q}")
        ref, classes = _naive.blowup(generate("cycle:n=7").graph, q)
        assert fam.graph.adj == ref.adj
        assert [members(c) for c in fam.classes] == classes

    @pytest.mark.parametrize("r,p", [
        (r, p) for r in range(1, 13) for p in range(1, 13) if r * p <= 12])
    def test_disjoint_cliques_match_definition(self, r, p):
        fam = generate(f"disjoint_cliques:r={r},p={p}")
        ref, classes = _naive.blowup(Graph.from_edges(r, []), p)
        assert fam.graph.adj == ref.adj
        assert [members(c) for c in fam.classes] == classes

    @pytest.mark.parametrize("spec", ["c7_blowup:q=0", "disjoint_cliques:r=2,p=0"])
    def test_blowup_class_size_below_one_rejected(self, spec):
        with pytest.raises(ValueError, match="clique size must be at least 1"):
            generate(spec)

    @pytest.mark.parametrize("r,p", [(2, 2), (3, 2), (2, 3)])
    def test_clique_union_is_multipartite_complement(self, r, p):
        union = generate(f"disjoint_cliques:r={r},p={p}").graph
        parts = ",".join([str(p)] * r)
        multi = generate(f"complete_multipartite:parts={parts}").graph
        assert complement(union).adj == multi.adj

    def test_multipartite_independence(self):
        fam = generate("complete_multipartite:parts=3,2")
        assert _naive.maximal_independent_sets(fam.graph) == [(0, 1, 2), (3, 4)]


@pytest.mark.parametrize("spec", [
    "cycle:n=1000000000", "path:n=1000000000", "complete:n=1000000",
    "c7_blowup:q=1000000", "disjoint_cliques:r=1000000000,p=1",
    "disjoint_cliques:r=2,p=1000000000",
    "complete_multipartite:parts=100000000", "complete_multipartite:parts=300,300",
])
def test_oversize_spec_fails_before_building(spec):
    # building first would allocate up to 10**9 entries before the cap
    start = time.perf_counter()
    with pytest.raises(ValueError, match="512"):
        generate(spec)
    assert time.perf_counter() - start < 0.1
