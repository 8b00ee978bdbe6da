"""Vertex sets as integer bitmasks: bit v is vertex v.

Every function of the package takes and returns vertex sets as plain
int masks, and `members` is the one mask-to-vertices conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

# Practical cap, far beyond what the exhaustive pipelines can touch.
MAX_UNIVERSE = 512


def members(mask: int) -> tuple[int, ...]:
    """The vertices of a mask, ascending.  Nothing is validated."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True, slots=True)
class VertexSet:
    """An immutable subset of {0, ..., universe - 1} over the mask bits.

    No route or public function builds one; the class is kept because
    the benchmark tracer counts its construction by name."""

    universe: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.universe <= MAX_UNIVERSE:
            raise ValueError(f"universe size {self.universe} out of range 0..{MAX_UNIVERSE}")
        if not 0 <= self.bits < (1 << self.universe):
            raise ValueError("bits outside the universe")

    @classmethod
    def of(cls, universe: int, vertices: Iterable[int]) -> VertexSet:
        bits = 0
        for v in vertices:
            if not 0 <= v < universe:
                raise ValueError(f"vertex {v} outside universe 0..{universe - 1}")
            bits |= 1 << v
        return cls(universe, bits)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.universe and (self.bits >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(members(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def complement(self) -> VertexSet:
        return VertexSet(self.universe, self.bits ^ (1 << self.universe) - 1)

    def to_tuple(self) -> tuple[int, ...]:
        return members(self.bits)

    def __repr__(self) -> str:
        return f"VertexSet({self.universe}, {{{', '.join(map(str, self))}}})"
