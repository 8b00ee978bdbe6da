"""Complement-side clique machinery: saturation, codegrees, bounds.

The saturation predicates are cross-checked against naive subset
enumeration; the bound reports against hand-computed instances.
"""

from fractions import Fraction

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
    generate,
    independence_number,
    is_kt_free,
    is_kt_saturated,
    main_theorem_report,
    maximal_clique_sizes_uniform,
    min_clique_codegree,
)
from wellcov.catalog import labeled_graphs
from tests import _naive
from tests._specs import ANALYZE_SPECS, STRUCTURED_SPECS
from tests.test_independence import alpha_by_facets


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


def naive_min_codegree(h: Graph, r: int) -> int:
    """The validating codegree, minimized over the naive (r-1)-cliques."""
    return min(clique_codegree(h, VertexSet.of(h.n, q)) for q in _naive.cliques_of_size(h, r - 1))


class TestSaturationAgainstNaive:
    """One memo keyed on (vertex mask, clique size) serves a whole
    saturation test, so every size a graph admits is checked."""

    def test_kt_free(self):
        for g in small_catalog(6):
            for t in range(1, g.n + 2):
                assert is_kt_free(g, t) == (not _naive.has_clique(g, t))

    def test_kt_saturated(self):
        for g in small_catalog(6):
            for t in range(2, g.n + 2):
                assert is_kt_saturated(g, t) == naive_saturated(g, t)

    @pytest.mark.parametrize("spec", STRUCTURED_SPECS)
    def test_clique_number_of_complement(self, spec):
        # the clique number of the complement is alpha
        g = generate(spec).graph
        h = complement(g)
        alpha = alpha_by_facets(g)
        assert is_kt_free(h, alpha + 1)
        assert not is_kt_free(h, alpha)

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
                assert min_clique_codegree(h, r) == naive_min_codegree(h, r)

    @pytest.mark.parametrize("spec", ANALYZE_SPECS)
    def test_min_matches_validating_codegree_on_families(self, spec):
        g = generate(spec).graph
        r = independence_number(g)
        assert min_clique_codegree(complement(g), r) == naive_min_codegree(complement(g), r)


class TestSpecializations:
    def test_petersen_is_the_alpha2_witness(self, petersen):
        # level 3 holds at p = 3 and fails at p = 4
        assert alpha2_check(petersen) == 3

    def test_alpha2_matches_theorem_on_catalog(self):
        for h in small_catalog(4):
            g = complement(h)
            r = independence_number(g)
            level = alpha2_check(h)
            for p in (1, 2):
                rep = main_theorem_report(g, p)
                assert (level >= p) == (rep.all_true and r == 2)

    def test_doubled_c7_complement_is_the_alpha3_witness(self):
        # level 2 holds at p = 2 and fails at p = 3
        h = complement(generate("c7_blowup:q=2").graph)
        assert alpha3_check(h) == 2


def naive_degree(g: Graph, u: int) -> int:
    return sum(g.has_edge(u, v) for v in range(g.n) if v != u)


def naive_clique_union_sizes(g: Graph) -> list[int] | None:
    """Component sizes of g when every component is a clique, else None."""
    seen: set[int] = set()
    sizes = []
    for s in range(g.n):
        if s in seen:
            continue
        comp, frontier = {s}, [s]
        while frontier:
            u = frontier.pop()
            for v in range(g.n):
                if v not in comp and g.has_edge(u, v):
                    comp.add(v)
                    frontier.append(v)
        seen |= comp
        if not _naive.is_clique(g, sorted(comp)):
            return None
        sizes.append(len(comp))
    return sizes


def naive_rigidity(delta: int, n: int, sizes: list[int] | None, r: int, p: int) -> str:
    """Dense rigidity for h = complement(g) on n vertices, by the
    definition: when delta(h) > (3r-4)/(3r-1) * n, g is r cliques of
    size at least p.  sizes are g's clique components, if it has them."""
    if delta <= Fraction(3 * r - 4, 3 * r - 1) * n:
        return HYPOTHESIS_UNMET
    if sizes is not None and len(sizes) == r and min(sizes) >= p:
        return HOLDS
    return VIOLATION


class TestLevelsAgainstNaive:
    """The per-graph levels and the derived rigidity verdict against
    their definitions, on h = complement(g) for every labeled g with
    n <= 6."""

    def test_alpha2_level(self):
        for g in small_catalog(6):
            h = complement(g)
            level = alpha2_check(h)
            # K_3-free and every non-edge closes a triangle
            saturated = naive_saturated(h, 3)
            delta = min(naive_degree(h, u) for u in range(h.n))
            for p in range(1, h.n + 2):
                assert (level >= p) == (saturated and delta >= p)

    def test_alpha3_level(self):
        for g in small_catalog(6):
            h = complement(g)
            level = alpha3_check(h)
            # K_4-free, every non-edge closes a K_4, every maximal
            # clique is a triangle
            if not (naive_saturated(h, 4)
                    and all(len(c) == 3 for c in _naive.maximal_cliques(h))):
                assert level == 0
                continue
            on_edge = [sum(_naive.is_clique(h, (u, v, w)) for w in range(h.n) if w not in (u, v))
                       for u, v in h.edges()]
            for p in range(1, h.n + 2):
                assert (level >= p) == all(t >= p for t in on_edge)

    def test_rigidity_verdict(self):
        for g in small_catalog(6):
            h = complement(g)
            delta = min(naive_degree(h, u) for u in range(h.n))
            sizes = naive_clique_union_sizes(g)
            shape = clique_union_shape(g)
            for r in range(1, independence_number(g) + 1):
                for p in (1, 2, 3):
                    want = naive_rigidity(delta, h.n, sizes, r, p)
                    assert bound_report(h, r, p, shape).rigidity_verdict == want


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
        br = bound_report(k33, 2, 3, clique_union_shape(complement(k33)))
        assert br.rigidity_verdict == HOLDS
        assert br.complement_clique_sizes == (3, 3)

    def test_hypothesis_unmet(self, petersen):
        br = bound_report(petersen, 2, 3, clique_union_shape(complement(petersen)))
        assert br.rigidity_verdict == HYPOTHESIS_UNMET

    def test_violation_when_applied_blindly(self):
        # K_4 meets the density hypothesis for r=2, p=1 but its
        # complement is four isolated vertices, not two cliques
        k4 = generate("complete:n=4").graph
        br = bound_report(k4, 2, 1, clique_union_shape(complement(k4)))
        assert br.rigidity_verdict == VIOLATION
        assert br.complement_clique_sizes == (1, 1, 1, 1)


class TestBoundReport:
    def test_c4_instance(self, c4):
        br = bound_report(c4, 2, 2, clique_union_shape(complement(c4)))
        assert br.saturation_edge_bound == 3
        assert br.codegree_edge_bound == 4
        assert br.edge_count == 4
        assert br.edge_bounds_ok
        assert br.codegree_edge_bound_tight
        assert br.min_degree == 2 and br.min_degree_bound == 2 and br.min_degree_ok
        assert br.universal_vertex is None and br.universal_vertex_ok
        assert br.rigidity_verdict == HOLDS
        assert br.n_equals_rp
        assert br.complement_is_p_clique_union
        assert br.complement_clique_sizes == (2, 2)

    def test_petersen_instance(self, petersen):
        br = bound_report(petersen, 2, 3, clique_union_shape(complement(petersen)))
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
        shape = clique_union_shape(complement(k3))
        assert bound_report(k3, 1, 2, shape).universal_vertex == 0
        assert not bound_report(k3, 1, 2, shape).universal_vertex_ok
        assert bound_report(k3, 1, 1, shape).universal_vertex_ok


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
