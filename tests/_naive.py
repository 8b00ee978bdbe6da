"""Slow reference implementations used only by tests.

Everything here enumerates subsets with itertools, or grows them one
vertex at a time, and touches graphs only through has_edge, sharing no
logic with the package internals.  A bug would have to appear in both
routes to slip through a cross-check.  The itertools references are
usable up to a dozen vertices or so; the grown ones reach the family
graphs of a few dozen vertices whose independent sets are few.
"""

from itertools import combinations, combinations_with_replacement, product

from wellcov import Graph


def is_independent(g: Graph, vs) -> bool:
    return all(not g.has_edge(u, v) for u, v in combinations(vs, 2))


def independent_sets(g: Graph) -> list[tuple[int, ...]]:
    out = []
    for k in range(g.n + 1):
        out.extend(vs for vs in combinations(range(g.n), k) if is_independent(g, vs))
    return out


def maximal_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    sets = [frozenset(vs) for vs in independent_sets(g)]
    pool = set(sets)
    out = [s for s in sets if not any(s < t for t in pool)]
    return sorted(tuple(sorted(s)) for s in out)


def alpha(g: Graph) -> int:
    return max(len(vs) for vs in independent_sets(g))


def is_well_covered(g: Graph) -> bool:
    a = alpha(g)
    return all(len(s) == a for s in maximal_independent_sets(g))


def independent_sets_by_size(g: Graph) -> list[list[tuple[int, ...]]]:
    """levels[k]: the independent sets of k vertices, in lexicographic
    order, for k = 0..alpha.  Each level extends the one before by a
    vertex above the set's largest, since dropping the largest vertex of
    an independent set leaves an independent set."""
    levels = [[()]]
    while True:
        grown = [vs + (x,) for vs in levels[-1] for x in range(vs[-1] + 1 if vs else 0, g.n)
                 if all(not g.has_edge(x, v) for v in vs)]
        if not grown:
            return levels
        levels.append(grown)


def ridge_table(g: Graph) -> tuple[bool, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """(well-covered, every ridge with its fiber), the ridges in mask
    order: the table of independent sets of alpha - 1 vertices, then a
    loop over the closed neighbourhood of each.  A ridge is one vertex
    short of alpha, so each vertex outside its closed neighbourhood
    completes it to a maximum set.  g is well-covered when every
    independent set below alpha lies in one of a vertex more, so that
    no maximal set is smaller than alpha."""
    levels = independent_sets_by_size(g)
    well_covered = all(
        set(level) <= {w[:i] + w[i + 1:] for w in above for i in range(len(w))}
        for level, above in zip(levels, levels[1:]))
    ridges = sorted(levels[-2], key=lambda vs: sum(1 << v for v in vs))
    return well_covered, [(vs, outside_closed_neighbourhood(g, vs)) for vs in ridges]


def outside_closed_neighbourhood(g: Graph, vs) -> tuple[int, ...]:
    """The vertices neither in vs nor adjacent to a member of vs."""
    return tuple(x for x in range(g.n)
                 if x not in vs and all(not g.has_edge(x, v) for v in vs))


def localization(g: Graph, vs) -> Graph | None:
    """g less the closed neighbourhood of vs, the kept vertices
    relabeled 0, 1, ... in ascending order; None when none is kept."""
    keep = outside_closed_neighbourhood(g, vs)
    if not keep:
        return None
    return Graph.from_edges(len(keep), [
        (i, j) for i, j in combinations(range(len(keep)), 2) if g.has_edge(keep[i], keep[j])])


def is_clique(g: Graph, vs) -> bool:
    return all(g.has_edge(u, v) for u, v in combinations(vs, 2))


def is_complete(g: Graph) -> bool:
    return is_clique(g, range(g.n))


def cliques_of_size(g: Graph, k: int) -> list[tuple[int, ...]]:
    return [vs for vs in combinations(range(g.n), k) if is_clique(g, vs)]


def has_clique(g: Graph, k: int) -> bool:
    return bool(cliques_of_size(g, k))


def max_clique_size(g: Graph) -> int:
    return max(k for k in range(g.n + 1) if k == 0 or has_clique(g, k))


def blowup(g: Graph, q: int) -> tuple[Graph, list[tuple[int, ...]]]:
    """g with each vertex replaced by a q-clique, by the definition:
    u ~ w iff u != w and u // q, w // q are equal or adjacent in g.
    Returns the graph and its classes, the q-blocks in order."""
    n = g.n * q
    edges = [(u, w) for u, w in combinations(range(n), 2)
             if u // q == w // q or g.has_edge(u // q, w // q)]
    return Graph.from_edges(n, edges), [tuple(range(i * q, i * q + q)) for i in range(g.n)]


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    cliques = [frozenset(vs) for k in range(g.n + 1)
               for vs in combinations(range(g.n), k) if is_clique(g, vs)]
    pool = set(cliques)
    out = [c for c in cliques if c and not any(c < d for d in pool)]
    return sorted(tuple(sorted(c)) for c in out)


def pairwise_disjoint(sets) -> bool:
    return all(not set(a) & set(b) for a, b in combinations(sets, 2))


def maximum_independent_sets(g: Graph) -> list[set[int]]:
    a = alpha(g)
    return [set(vs) for vs in independent_sets(g) if len(vs) == a]


def extends(family, maximum) -> bool:
    """Do the sets of this family lie, slot by slot, inside pairwise
    disjoint sets taken from maximum?"""
    return any(
        pairwise_disjoint(tops) and all(set(s) <= t for s, t in zip(family, tops))
        for tops in product(maximum, repeat=len(family)))


def is_in_wp(g: Graph, p: int) -> bool:
    """W_p by its definition over ordered p-tuples: at least p vertices,
    and every pairwise disjoint tuple of independent sets extends to
    pairwise disjoint maximum independent sets."""
    maximum = maximum_independent_sets(g)
    return g.n >= p and all(
        extends(family, maximum)
        for family in product(independent_sets(g), repeat=p)
        if pairwise_disjoint(family))


def first_unextendable(g: Graph, p: int):
    """The family the oracle must return, found by brute force: with at
    least p vertices, the first independent set in mask order that lies
    in no maximum independent set, padded with p - 1 empty sets;
    otherwise the first pairwise disjoint family, in
    combinations_with_replacement order over the mask-sorted independent
    sets, that does not extend.  None when every family extends."""
    maximum = maximum_independent_sets(g)
    ind = sorted(independent_sets(g), key=lambda vs: sum(1 << v for v in vs))
    if g.n >= p:
        for vs in ind:
            if not any(set(vs) <= t for t in maximum):
                return (vs,) + ((),) * (p - 1)
    for family in combinations_with_replacement(ind, p):
        if pairwise_disjoint(family) and not extends(family, maximum):
            return family
    return None
