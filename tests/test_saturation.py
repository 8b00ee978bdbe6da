"""Complement-side clique machinery: saturation, codegrees, bounds.

The saturation predicates are cross-checked against naive subset
enumeration; the bound reports against hand-computed instances.
"""

import pytest

from wellcov import (
    HOLDS,
    HYPOTHESIS_UNMET,
    VIOLATION,
    Graph,
    VertexSet,
    alpha2_check,
    alpha3_check,
    bound_report,
    clique_codegree,
    clique_union_shape,
    complement,
    dense_rigidity_check,
    generate,
    independence_number,
    is_kt_free,
    is_kt_saturated,
    main_theorem_report,
    maximal_clique_sizes_uniform,
    min_clique_codegree,
)
from wellcov.catalog import labeled_graphs
from wellcov.independence import clique_masks_of_size
from tests import _naive


def small_catalog(max_n: int):
    for n in range(1, max_n + 1):
        yield from labeled_graphs(n)


def naive_saturated(g: Graph, t: int) -> bool:
    if _naive.has_clique(g, t):
        return False
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
             if not g.has_edge(u, v)]
    edges = list(g.edges())
    return all(
        _naive.has_clique(Graph.from_edges(g.n, edges + [(u, v)]), t)
        for u, v in pairs)


class TestSaturationAgainstNaive:
    def test_kt_free(self):
        for g in small_catalog(5):
            for t in (2, 3, 4):
                assert is_kt_free(g, t) == (not _naive.has_clique(g, t))

    def test_kt_saturated(self):
        for g in small_catalog(5):
            for t in (2, 3, 4):
                assert is_kt_saturated(g, t) == naive_saturated(g, t)

    def test_uniformity(self):
        for g in small_catalog(5):
            sizes = {len(c) for c in _naive.maximal_cliques(g)}
            uniform, largest = maximal_clique_sizes_uniform(g)
            assert uniform == (len(sizes) <= 1)
            assert largest == _naive.max_clique_size(g)


class TestCodegree:
    def test_empty_clique_convention(self, c5):
        assert clique_codegree(c5, VertexSet(5, 0)) == 5
        assert min_clique_codegree(c5, 1) == 5

    def test_single_vertex(self, petersen):
        # codegree of a vertex counts its neighbors
        for v in range(10):
            assert clique_codegree(petersen, VertexSet.of(10, [v])) == 3
        assert min_clique_codegree(petersen, 2) == 3

    def test_complete_graph(self):
        k5 = generate("complete:n=5").graph
        assert min_clique_codegree(k5, 5) == 1
        assert min_clique_codegree(k5, 3) == 3

    def test_rejects_non_clique(self, c5):
        with pytest.raises(ValueError):
            clique_codegree(c5, VertexSet.of(5, [0, 2]))

    def test_rejects_when_no_cliques_exist(self):
        e3 = Graph.from_edges(3, [])
        with pytest.raises(ValueError):
            min_clique_codegree(e3, 3)

    def test_clique_union_complement(self):
        # each 7-clique of the complement of 8K3 picks one vertex from 7
        # of the 8 triangles and extends by any vertex of the eighth
        h = complement(generate("disjoint_cliques:r=8,p=3").graph)
        assert min_clique_codegree(h, 8) == 3

    def test_min_matches_validating_codegree_on_catalog(self):
        for g in small_catalog(6):
            h = complement(g)
            for r in range(1, independence_number(g) + 1):
                want = min(clique_codegree(h, VertexSet(h.n, m))
                           for m in clique_masks_of_size(h.adj, h.n, r - 1))
                assert min_clique_codegree(h, r) == want


class TestSpecializations:
    def test_petersen_is_the_alpha2_witness(self, petersen):
        assert alpha2_check(petersen, 3)
        assert not alpha2_check(petersen, 4)

    def test_alpha2_matches_theorem_on_catalog(self):
        for h in small_catalog(4):
            g = complement(h)
            r = independence_number(g)
            for p in (1, 2):
                rep = main_theorem_report(g, p)
                assert alpha2_check(h, p) == (rep.all_true and r == 2)

    def test_doubled_c7_complement_is_the_alpha3_witness(self):
        h = complement(generate("c7_blowup:q=2").graph)
        assert alpha3_check(h, 2)
        assert not alpha3_check(h, 3)


class TestCliqueUnionShape:
    def test_recognizes_unions(self):
        assert clique_union_shape(generate("disjoint_cliques:r=2,p=3").graph) == (3, 3)
        assert clique_union_shape(generate("complete:n=4").graph) == (4,)
        assert clique_union_shape(Graph.from_edges(3, [])) == (1, 1, 1)

    def test_rejects_others(self, c4, p4):
        assert clique_union_shape(c4) is None
        assert clique_union_shape(p4) is None


class TestRigidity:
    def test_holds(self):
        k33 = generate("complete_multipartite:parts=3,3").graph
        rep = dense_rigidity_check(k33, 2, 3)
        assert rep.verdict == HOLDS
        assert rep.complement_clique_sizes == (3, 3)

    def test_hypothesis_unmet(self, petersen):
        rep = dense_rigidity_check(petersen, 2, 3)
        assert rep.verdict == HYPOTHESIS_UNMET

    def test_violation_when_applied_blindly(self):
        # K_4 meets the density hypothesis for r=2, p=1 but its
        # complement is four isolated vertices, not two cliques
        k4 = generate("complete:n=4").graph
        rep = dense_rigidity_check(k4, 2, 1)
        assert rep.verdict == VIOLATION
        assert rep.complement_clique_sizes == (1, 1, 1, 1)


class TestBoundReport:
    def test_c4_instance(self, c4):
        br = bound_report(c4, 2, 2)
        assert br.saturation_edge_bound == 3
        assert br.codegree_edge_bound == 4
        assert br.edge_count == 4
        assert br.edge_bounds_ok
        assert br.codegree_edge_bound_tight
        assert not br.saturation_edge_bound_tight
        assert br.min_degree == 2 and br.min_degree_bound == 2 and br.min_degree_ok
        assert br.universal_vertex is None and br.universal_vertex_ok
        assert br.rigidity_verdict == HOLDS
        assert br.n_equals_rp
        assert br.complement_is_p_clique_union
        assert br.complement_clique_sizes == (2, 2)

    def test_petersen_instance(self, petersen):
        br = bound_report(petersen, 2, 3)
        assert br.saturation_edge_bound == 9
        assert br.codegree_edge_bound == 15
        assert br.edge_count == 15
        assert br.edge_bounds_ok and br.codegree_edge_bound_tight
        assert br.min_degree == 3 and br.min_degree_ok
        assert br.universal_vertex_ok
        assert br.rigidity_verdict == HYPOTHESIS_UNMET
        assert not br.n_equals_rp

    def test_universal_vertex_flag(self):
        k3 = generate("complete:n=3").graph
        assert bound_report(k3, 1, 2).universal_vertex == 0
        assert not bound_report(k3, 1, 2).universal_vertex_ok
        assert bound_report(k3, 1, 1).universal_vertex_ok


class TestDisjointWitnessSets:
    def test_clique_replacement_sets_partition_neighborhoods(self):
        """For qualifying instances, the candidate replacements of each
        clique vertex are disjoint neighbor sets of size at least p, so
        their total is bounded by the degree."""
        for g in small_catalog(5):
            r = independence_number(g)
            h = complement(g)
            for p in (1, 2):
                if not main_theorem_report(g, p).cond_a:
                    continue
                for clique in _naive.cliques_of_size(h, r):
                    for v in clique:
                        xs = []
                        for u in clique:
                            if u == v:
                                continue
                            rest = [w for w in clique if w != u]
                            x_u = {
                                x for x in range(h.n)
                                if x not in rest
                                and _naive.is_clique(h, rest + [x])}
                            xs.append(x_u)
                            assert len(x_u) >= p
                            assert all(h.has_edge(x, v) for x in x_u)
                        for i, a in enumerate(xs):
                            for b in xs[i + 1:]:
                                assert not (a & b)
                        assert sum(len(x) for x in xs) <= h.degree(v)
