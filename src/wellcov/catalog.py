"""Exhaustive catalogs of labeled graphs on few vertices.

Each graph on n vertices is one mask over the n*(n-1)/2 vertex pairs in
colexicographic order, the same pair order the graph6 body uses.  The
default cap is 6 (32768 graphs); 7 (about 2 million) needs an explicit
opt-in, and anything beyond that is out of reach by design.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph

DEFAULT_MAX_N = 6
HARD_MAX_N = 7


def pair_count(n: int) -> int:
    return n * (n - 1) // 2

def catalog_size(n: int) -> int:
    return 1 << pair_count(n)


def graph_from_pair_mask(n: int, mask: int) -> Graph:
    """The labeled graph whose colex pair mask is `mask`."""
    if not 0 <= mask < catalog_size(n):
        raise ValueError("pair mask out of range")
    rows = [0] * n
    k = 0
    for v in range(1, n):
        for u in range(v):
            if mask >> k & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            k += 1
    return Graph(n, tuple(rows))


def check_order(n: int, *, allow_large: bool = False) -> None:
    """Raise ValueError unless the catalog of order n is within the cap."""
    if n < 1:
        raise ValueError(f"catalog order must be at least 1 (got {n})")
    limit = HARD_MAX_N if allow_large else DEFAULT_MAX_N
    if n > limit:
        raise ValueError(
            f"exhaustive catalog capped at {limit} vertices (got {n})"
            + ("" if allow_large else f"; {HARD_MAX_N} needs allow_large=True"
               " (--allow-large on the command line)")
        )


def labeled_graphs(n: int, *, allow_large: bool = False) -> Iterator[Graph]:
    """Every labeled graph on n vertices, in pair-mask order."""
    check_order(n, allow_large=allow_large)
    for mask in range(catalog_size(n)):
        yield graph_from_pair_mask(n, mask)
