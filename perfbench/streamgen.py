"""Seeded stream of graph6 lines for the stream-n8 workload.

The generator shares no code with the package: it builds adjacency
rows itself and writes graph6 itself, so the program under test
receives nothing but text lines.  Equal shares, interleaved in this
order, of G(8, 0.3), G(8, 0.5), G(8, 0.7) and randomly relabeled
coronas H o K1 of a random 4-vertex H.  A corona hangs one pendant
vertex on every vertex of H, so it is well-covered by construction and
the deciders take their full paths instead of the early
"not well-covered" exit.

Graphs of W-index 3 or more are redrawn.  The oracle has to exhaust
every disjoint triple of independent sets on them (2K4 alone costs
seconds), so a single draw would own the tail of a run.  On 8 vertices
W_3 needs three disjoint maximum independent sets, hence
independence number at most 2, and then every vertex needs at least
three non-neighbours (its ridge's fiber).  The complete graph K8 also
has a high W-index but its oracle search is trivial, so it stays.
"""

from __future__ import annotations

import random

N = 8
EDGE_PROBABILITIES = (0.3, 0.5, 0.7)
KINDS = tuple(f"gnp{p}" for p in EDGE_PROBABILITIES) + ("corona",)
BASE_SEED = 2026


def _gnp(rng: random.Random, n: int, p: float) -> list[int]:
    rows = [0] * n
    for v in range(1, n):
        for u in range(v):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def _corona(rng: random.Random, n: int) -> list[int]:
    half = n // 2
    rows = _gnp(rng, half, 0.5) + [0] * half
    for v in range(half):
        rows[v] |= 1 << v + half
        rows[v + half] = 1 << v
    return rows


def _relabel(rng: random.Random, rows: list[int]) -> list[int]:
    n = len(rows)
    label = list(range(n))
    rng.shuffle(label)
    out = [0] * n
    for v, row in enumerate(rows):
        bits = 0
        while row:
            low = row & -row
            bits |= 1 << label[low.bit_length() - 1]
            row ^= low
        out[label[v]] = bits
    return out


def high_w_index(rows: list[int]) -> bool:
    """W-index at least 3 on 8 vertices: alpha <= 2 and every vertex has
    at least three non-neighbours (see the module docstring)."""
    n = len(rows)
    full = (1 << n) - 1
    non = [full & ~row & ~(1 << v) for v, row in enumerate(rows)]
    if any(m.bit_count() < 3 for m in non):
        return False
    # alpha <= 2 iff no two non-adjacent vertices share a non-neighbour
    return all(non[u] & non[v] == 0
               for u in range(n) for v in range(u + 1, n) if non[u] >> v & 1)


def graph6_line(rows: list[int]) -> str:
    n = len(rows)
    out = [chr(63 + n)]
    acc = k = 0
    for v in range(1, n):
        row = rows[v]
        for u in range(v):
            acc = acc << 1 | row >> u & 1
            k += 1
            if k == 6:
                out.append(chr(63 + acc))
                acc = k = 0
    if k:
        out.append(chr(63 + (acc << 6 - k)))
    return "".join(out)


def _base(count: int) -> list[list[list[int]]]:
    """Per kind, the graphs drawn from BASE_SEED."""
    rng = random.Random(BASE_SEED)
    pools: list[list[list[int]]] = [[] for _ in KINDS]
    for i in range(count):
        k = i % len(KINDS)
        while True:
            rows = _corona(rng, N) if KINDS[k] == "corona" else _gnp(rng, N, EDGE_PROBABILITIES[k])
            if not high_w_index(rows):
                break
        pools[k].append(rows)
    return pools


def stream(seed: int, count: int) -> list[tuple[str, str]]:
    """(kind, graph6 line) pairs, kinds interleaved in KINDS order.

    The graphs, up to isomorphism, are drawn once from BASE_SEED; the
    seed shuffles them within each kind and relabels the vertices of each.
    The same seed gives the same lines.
    """
    pools = _base(count)
    rng = random.Random(seed)
    for pool in pools:
        rng.shuffle(pool)
    return [(KINDS[i % len(KINDS)],
             graph6_line(_relabel(rng, pools[i % len(KINDS)][i // len(KINDS)])))
            for i in range(count)]
