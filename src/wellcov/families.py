"""Named graph families with fixed, documented labelings.

Text form: a family name, optionally followed by ':' and comma
separated key=value parameters, e.g. "cycle:n=7", "c7_blowup:q=3",
"disjoint_cliques:r=3,p=2", "complete_multipartite:parts=3,3".  Bare
values after a list-valued key extend that list.  Dashes in names are
accepted for underscores.

Labelings:
  cycle/path      vertices 0..n-1 in order around/along
  complete        all pairs
  complete_multipartite   parts occupy consecutive blocks
  petersen        outer 5-cycle 0..4, inner vertices 5..9 joined at
                  step 2 (5+j ~ 5+((j+2) mod 5)), spokes i ~ i+5
  petersen_complement     complement of the above, same labels
  c7_blowup       copy k of cycle vertex i is i*q+k, so class i is
                  the block {i*q, ..., i*q+q-1}
  disjoint_cliques        r consecutive blocks of p vertices

c7_blowup:q and disjoint_cliques:r,p are the lexicographic products of
the 7-cycle with K_q and of the edgeless graph on r vertices with K_p,
so they carry the product's labels and classes.  The classes of those
and of complete_multipartite are vertex masks, one per block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import MAX_VERTICES, Graph, complement, lexicographic_product

_PETERSEN_N = 10


@dataclass(frozen=True, slots=True)
class FamilySpec:
    name: str
    params: tuple[tuple[str, int | tuple[int, ...]], ...] = ()

    def param(self, key: str) -> int | tuple[int, ...]:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    @classmethod
    def parse(cls, text: str) -> FamilySpec:
        head, _, rest = text.strip().partition(":")
        name = head.strip().replace("-", "_").lower()
        if name not in _FAMILIES:
            raise ValueError(f"unknown family {head.strip()!r}")
        values: dict[str, list[int]] = {}
        current: str | None = None
        if rest.strip():
            for token in rest.split(","):
                token = token.strip()
                key, eq, raw = token.partition("=")
                if eq:
                    current = key.strip()
                    if current in values:
                        raise ValueError(f"duplicate parameter {current!r}")
                    values[current] = []
                elif current is None:
                    raise ValueError(f"parameter value {token!r} without a key")
                else:
                    raw = token
                try:
                    values[current].append(int(raw))
                except ValueError:
                    raise ValueError(f"parameter {current!r} needs integer values, got {raw!r}") from None
        required, listy = _FAMILIES[name][1], _FAMILIES[name][2]
        if set(values) != set(required):
            raise ValueError(f"family {name!r} takes parameters {required}, got {tuple(values)}")
        params = []
        for key in required:
            got = values[key]
            if key in listy:
                params.append((key, tuple(got)))
            elif len(got) == 1:
                params.append((key, got[0]))
            else:
                raise ValueError(f"parameter {key!r} takes one value, got {len(got)}")
        return cls(name, tuple(params))


@dataclass(frozen=True, slots=True)
class FamilyGraph:
    spec: FamilySpec
    graph: Graph
    classes: tuple[int, ...] | None


def _cycle(spec: FamilySpec) -> FamilyGraph:
    n = spec.param("n")
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    g = Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))
    return FamilyGraph(spec, g, None)


def _path(spec: FamilySpec) -> FamilyGraph:
    n = spec.param("n")
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    g = Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))
    return FamilyGraph(spec, g, None)


def _complete(spec: FamilySpec) -> FamilyGraph:
    n = spec.param("n")
    if n < 1:
        raise ValueError("a complete graph needs at least 1 vertex")
    g = Graph.from_edges(n, ((u, v) for v in range(n) for u in range(v)))
    return FamilyGraph(spec, g, None)


def _complete_multipartite(spec: FamilySpec) -> FamilyGraph:
    parts = spec.param("parts")
    if not parts or any(s < 1 for s in parts):
        raise ValueError("part sizes must be positive")
    n = sum(parts)
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} out of range 1..{MAX_VERTICES}")
    classes = []
    offset = 0
    for size in parts:
        classes.append(((1 << size) - 1) << offset)
        offset += size
    rows = tuple(((1 << n) - 1) & ~c for c in classes for _ in range(c.bit_count()))
    return FamilyGraph(spec, Graph(n, rows), tuple(classes))


def _petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + j, 5 + (j + 2) % 5) for j in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(_PETERSEN_N, edges)


def _petersen(spec: FamilySpec) -> FamilyGraph:
    return FamilyGraph(spec, _petersen_graph(), None)


def _petersen_complement(spec: FamilySpec) -> FamilyGraph:
    return FamilyGraph(spec, complement(_petersen_graph()), None)


def _c7_blowup(spec: FamilySpec) -> FamilyGraph:
    c7 = Graph.from_edges(7, ((i, (i + 1) % 7) for i in range(7)))
    blow = lexicographic_product(c7, spec.param("q"))
    return FamilyGraph(spec, blow.graph, blow.classes)


def _disjoint_cliques(spec: FamilySpec) -> FamilyGraph:
    edgeless = Graph.from_edges(spec.param("r"), ())
    blow = lexicographic_product(edgeless, spec.param("p"))
    return FamilyGraph(spec, blow.graph, blow.classes)


_FAMILIES = {
    "cycle": (_cycle, ("n",), ()),
    "path": (_path, ("n",), ()),
    "complete": (_complete, ("n",), ()),
    "complete_multipartite": (_complete_multipartite, ("parts",), ("parts",)),
    "petersen": (_petersen, (), ()),
    "petersen_complement": (_petersen_complement, (), ()),
    "c7_blowup": (_c7_blowup, ("q",), ()),
    "disjoint_cliques": (_disjoint_cliques, ("r", "p"), ()),
}

FAMILY_NAMES = tuple(sorted(_FAMILIES))


def generate(spec: FamilySpec | str) -> FamilyGraph:
    if isinstance(spec, str):
        spec = FamilySpec.parse(spec)
    if spec.name not in _FAMILIES:
        raise ValueError(f"unknown family {spec.name!r}")
    return _FAMILIES[spec.name][0](spec)
