"""graph6 codec for the Graph type, and the colex pair mask it rests on.

One graph per text line.  A line is the vertex count (one byte for
n <= 62, a '~' prefixed three-byte form above that) followed by the
upper triangle of the adjacency matrix in colexicographic pair order,
packed six bits per printable byte (offset 63).  The optional
'>>graph6<<' header is tolerated and stripped.  Encoding is canonical:
shortest count form, zero padding bits, no header.

The body is the graph's pair mask: bit k of the mask is pair k of the
colex order (0,1), (0,2), (1,2), (0,3), ...  `pair_mask` and
`from_pair_mask` are the only code that knows that order.  The codec
packs and unpacks the mask through its binary string, in time linear in
the body, and the catalog builds its graphs from masks.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graphs import MAX_VERTICES, Graph

HEADER = ">>graph6<<"

# Error codes, one per distinguishable malformation.
BAD_BYTE = "bad_byte"
BAD_LENGTH = "bad_length"
TRAILING = "trailing_data"
TOO_LARGE = "too_large"
ZERO_VERTICES = "zero_vertices"


class Graph6Error(ValueError):
    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


# the six bits of a body byte's value, highest first, and back to the byte
_BITS_OF = tuple(f"{v:06b}" for v in range(64))
_BYTE_OF = {bits: chr(v + 63) for v, bits in enumerate(_BITS_OF)}


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _body_len(n: int) -> int:
    return (pair_count(n) + 5) // 6


def pair_mask(g: Graph) -> int:
    """g's edges as a mask over the vertex pairs in colex order."""
    mask = 0
    for v in range(1, g.n):
        # column v: the pairs (u, v), u < v
        mask |= (g.adj[v] & (1 << v) - 1) << v * (v - 1) // 2
    return mask


def from_pair_mask(n: int, mask: int) -> Graph:
    """The graph on n vertices whose colex pair mask is mask; bits past
    the last pair are ignored."""
    rows = [0] * n
    for v in range(1, n):
        col = mask & (1 << v) - 1
        mask >>= v
        rows[v] |= col
        bit = 1 << v
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= bit
            col ^= low
    return Graph(n, tuple(rows))


def decode(line: str) -> Graph:
    text = line.strip()
    if text.startswith(HEADER):
        text = text[len(HEADER):]
    if not text:
        raise Graph6Error(BAD_LENGTH, "empty graph6 line")
    data = []
    for ch in text:
        value = ord(ch) - 63
        if not 0 <= value <= 63:
            raise Graph6Error(BAD_BYTE, f"byte {ord(ch)} outside the printable graph6 range")
        data.append(value)

    if data[0] == 63:
        if len(data) >= 2 and data[1] == 63:
            # The eight-byte count form only starts at n = 258048.
            raise Graph6Error(TOO_LARGE, f"vertex count beyond the cap {MAX_VERTICES}")
        if len(data) < 4:
            raise Graph6Error(BAD_LENGTH, "truncated vertex count")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]

    if n == 0:
        raise Graph6Error(ZERO_VERTICES, "zero-vertex graphs are not representable")
    if n > MAX_VERTICES:
        raise Graph6Error(TOO_LARGE, f"vertex count {n} beyond the cap {MAX_VERTICES}")
    need = _body_len(n)
    if len(body) < need:
        raise Graph6Error(BAD_LENGTH, f"adjacency data truncated: {len(body)} of {need} bytes")
    if len(body) > need:
        raise Graph6Error(TRAILING, f"{len(body) - need} trailing bytes after adjacency data")

    # bits[k] is pair k; the padding bits past the last pair are dropped
    bits = "".join([_BITS_OF[value] for value in body])[:pair_count(n)]
    return from_pair_mask(n, int(bits[::-1] or "0", 2))


def encode(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)
    # bits[k] is pair k, then zero padding up to whole bytes
    width = 6 * _body_len(n)
    bits = f"{pair_mask(g):0{width}b}"[::-1]
    return head + "".join([_BYTE_OF[bits[i:i + 6]] for i in range(0, width, 6)])


def iter_stream(lines: Iterable[str]) -> Iterator[tuple[int, Graph | Graph6Error]]:
    """Decode a stream, yielding (line number, Graph or the parse error).

    Blank lines are skipped; malformed lines surface as Graph6Error
    values so callers can report and continue.
    """
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            yield lineno, decode(line)
        except Graph6Error as err:
            yield lineno, err
