"""Vertex set and graph primitive tests.

Structural operations are checked against hand-built expectations and,
where a second route exists (masks vs tuples), against each other.
"""

import itertools
import random

import pytest

from wellcov import (
    EmptySubgraphError,
    Graph,
    complement,
    delete_edge,
    edge_localization,
    induced_subgraph,
    lexicographic_product,
)
from wellcov.bitset import VertexSet, members
from wellcov.catalog import labeled_graphs
from wellcov.graphs import component_masks, induced_rows
from tests import _naive


class TestVertexSet:
    def test_construction_and_membership(self):
        s = VertexSet.of(6, [0, 3, 5])
        assert list(s) == [0, 3, 5]
        assert len(s) == 3
        assert 3 in s and 1 not in s
        assert s.to_tuple() == (0, 3, 5)

    def test_empty_and_full(self):
        assert not VertexSet(4, 0)
        assert list(VertexSet(4, 0b1111)) == [0, 1, 2, 3]
        assert VertexSet.of(5, [0, 1, 2]).complement().to_tuple() == (3, 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            VertexSet.of(3, [3])
        with pytest.raises(ValueError):
            VertexSet(3, 1 << 3)


class TestEdge:
    def test_normalized(self, c4):
        assert delete_edge(c4, (3, 0)) == delete_edge(c4, (0, 3))
        assert delete_edge(c4, (2, 1)).adj == delete_edge(c4, (1, 2)).adj

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loops"):
            Graph.from_edges(3, [(2, 2)])
        with pytest.raises(ValueError, match="outside vertex range"):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError, match="outside vertex range"):
            Graph.from_edges(3, [(-1, 1)])


class TestGraph:
    def test_from_edges_roundtrip(self, c4):
        assert c4.n == 4
        assert c4.edge_count == 4
        assert set(c4.edges()) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_edges_in_colex_order(self, c4):
        pairs = list(c4.edges())
        assert pairs == sorted(pairs, key=lambda uv: (uv[1], uv[0]))

    def test_edges_match_pairs_over_catalog(self):
        for n in range(1, 6):
            for g in labeled_graphs(n):
                pairs = [(u, v) for u, v in itertools.combinations(range(n), 2)
                         if g.has_edge(u, v)]
                assert list(g.edges()) == sorted(pairs, key=lambda uv: (uv[1], uv[0]))
                assert Graph.from_edges(g.n, g.edges()).adj == g.adj

    def test_has_edge_and_degree(self, c5):
        assert c5.has_edge(0, 1) and c5.has_edge(0, 4)
        assert not c5.has_edge(0, 2)
        assert all(c5.degree(v) == 2 for v in range(5))
        assert members(c5.adj[0]) == (1, 4)

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_asymmetry_names_the_first_pair_of_a_row_scan(self):
        # every irreflexive bit matrix on up to four vertices: accepted
        # exactly when symmetric, and otherwise the error names the
        # first (v, u), v ascending and then u, with u ~ v but not v ~ u
        for n in range(1, 5):
            cells = [(v, u) for v in range(n) for u in range(n) if u != v]
            for bits in range(1 << len(cells)):
                rows = [0] * n
                for k, (v, u) in enumerate(cells):
                    if bits >> k & 1:
                        rows[v] |= 1 << u
                first = next(((v, u) for v, u in cells
                              if rows[v] >> u & 1 and not rows[u] >> v & 1), None)
                if first is None:
                    assert Graph(n, tuple(rows)).adj == tuple(rows)
                    continue
                v, u = first
                with pytest.raises(ValueError, match=rf"not symmetric at \({v}, {u}\)$"):
                    Graph(n, tuple(rows))

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(1, (0b1,))

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            Graph(0, ())
        with pytest.raises(ValueError, match="out of range 1..512"):
            Graph.from_edges(513, [])
        with pytest.raises(ValueError, match="out of range 1..512"):
            Graph.from_edges(0, [])

    def test_complement_involution(self, c5):
        assert complement(complement(c5)).adj == c5.adj
        # C_5 is self-complementary
        assert sorted(complement(c5).degree(v) for v in range(5)) == [2] * 5

    def test_delete_edge(self, c4):
        g = delete_edge(c4, (0, 1))
        assert g.edge_count == 3 and not g.has_edge(0, 1)
        with pytest.raises(ValueError):
            delete_edge(c4, (0, 2))


class TestInducedAndLocalization:
    def test_relabeling_preserves_order(self, c5):
        # new vertices 0, 1, 2 are 1, 2, 4: edge 1-2 survives, 4 is
        # isolated after relabeling (3 was cut)
        sub = induced_subgraph(c5, 1 << 1 | 1 << 2 | 1 << 4)
        assert sub.n == 3
        assert set(sub.edges()) == {(0, 1)}

    def test_relabeling_matches_definition(self):
        # every keep set of every labeled graph on up to five vertices:
        # new i ~ new j exactly when kept[i] ~ kept[j] in the parent
        for n in range(1, 6):
            for g in labeled_graphs(n):
                for bits in range(1, 1 << n):
                    sub = induced_subgraph(g, bits)
                    kept = members(bits)
                    assert sub.n == len(kept)
                    assert set(sub.edges()) == {
                        (i, j) for i, j in itertools.combinations(range(len(kept)), 2)
                        if g.has_edge(kept[i], kept[j])}

    def test_empty_keep_rejected(self, c5):
        with pytest.raises(EmptySubgraphError):
            induced_subgraph(c5, 0)

    @pytest.mark.parametrize("keep", [1 << 5 | 1, -1])
    def test_mask_outside_the_graph_rejected(self, c5, keep):
        with pytest.raises(ValueError, match="outside 0..4") as info:
            induced_subgraph(c5, keep)
        # a bad mask is not mistaken for an empty keep
        assert info.type is ValueError

    def test_edge_localization(self, c7):
        assert edge_localization(c7, (0, 1)) == 1 << 3 | 1 << 4 | 1 << 5
        with pytest.raises(ValueError):
            edge_localization(c7, (0, 2))

    def test_edge_localization_empty(self, c4):
        assert edge_localization(c4, (0, 1)) == 0


class TestRunRelabel:
    """`induced_rows` relabels by runs of consecutive kept vertices; it
    must equal the relabel written from the definition on every keep
    mask of the small catalog, on the blow-ups' localizations, whose
    masks are few long runs, and on scattered random masks."""

    def test_every_mask_n5(self):
        for n in range(1, 6):
            for g in labeled_graphs(n):
                for keep in range(1 << n):
                    assert induced_rows(g.adj, keep) == _naive.relabeled_rows(g, keep)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_c7_blowup_localizations(self, q):
        g = lexicographic_product(Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)]),
                                  q).graph
        full = (1 << g.n) - 1
        keeps = {full & ~(row | 1 << v) for v, row in enumerate(g.adj)}
        keeps |= {edge_localization(g, e) for e in g.edges()}
        for keep in keeps:
            assert induced_rows(g.adj, keep) == _naive.relabeled_rows(g, keep)

    def test_random_masks_up_to_30_vertices(self):
        rng = random.Random(28)
        for n in range(1, 31):
            density = rng.random()
            g = Graph.from_edges(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                     if rng.random() < density])
            for _ in range(20):
                keep = rng.getrandbits(n)
                assert induced_rows(g.adj, keep) == _naive.relabeled_rows(g, keep)


class TestProducts:
    def test_lexicographic_product_shape(self, c4):
        blow = lexicographic_product(c4, 2)
        g = blow.graph
        assert g.n == 8
        # each class is a clique and joins both neighbor classes fully
        assert g.has_edge(0, 1) and g.has_edge(0, 2) and g.has_edge(1, 3)
        assert not g.has_edge(0, 4)
        assert blow.classes == (0b11, 0b11 << 2, 0b11 << 4, 0b11 << 6)
        assert g.edge_count == 4 * 1 + 4 * 4

    def test_product_q1_is_identity(self, c5):
        assert lexicographic_product(c5, 1).graph.adj == c5.adj

    def test_product_rejects_bad_q(self, c5):
        with pytest.raises(ValueError):
            lexicographic_product(c5, 0)

    def test_component_masks(self):
        k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        # K_2 on 0, 1 beside K_3 on 2, 3, 4
        un = Graph.from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
        assert [members(c) for c in component_masks(un.adj)] == [(0, 1), (2, 3, 4)]
        assert component_masks(k3.adj) == (0b111,)

    def test_component_masks_match_reachability(self):
        # the components are the reachability classes, ordered by least
        # member, and a graph's co-components are its complement's
        # components
        for n in range(1, 6):
            for g in labeled_graphs(n):
                reach = [1 << v for v in range(n)]
                for _ in range(n):
                    for u, v in g.edges():
                        reach[u] = reach[v] = reach[u] | reach[v]
                want = sorted(set(reach), key=lambda m: m & -m)
                assert component_masks(g.adj) == tuple(want)
                full = (1 << n) - 1
                assert component_masks(complement(g).adj, full) == tuple(want)


class TestCatalogBounds:
    @pytest.mark.parametrize("allow_large", [False, True])
    @pytest.mark.parametrize("n", [0, -1])
    def test_order_below_one_names_the_lower_bound(self, n, allow_large):
        with pytest.raises(ValueError, match=rf"at least 1 \(got {n}\)") as info:
            next(labeled_graphs(n, allow_large=allow_large))
        assert "allow_large" not in str(info.value)

    def test_order_above_cap_names_the_cap(self):
        with pytest.raises(ValueError, match="capped at 6 vertices.*allow_large"):
            next(labeled_graphs(7))
        with pytest.raises(ValueError, match="capped at 7 vertices"):
            next(labeled_graphs(8, allow_large=True))
