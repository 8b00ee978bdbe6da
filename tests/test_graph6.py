"""Codec tests: hand-derived vectors, error codes, and round trips."""

import pytest

from wellcov import Graph, Graph6Error, decode, encode, generate, iter_stream
from wellcov.catalog import labeled_graphs
from wellcov.graph6 import (
    BAD_BYTE,
    BAD_LENGTH,
    TOO_LARGE,
    TRAILING,
    ZERO_VERTICES,
)


def k(n: int) -> Graph:
    return generate(f"complete:n={n}").graph


class TestHandVectors:
    # derived by hand from the colex bit layout
    def test_k1(self):
        assert encode(k(1)) == "@"
        assert decode("@").adj == k(1).adj

    def test_k2_and_empty2(self):
        assert encode(k(2)) == "A_"
        assert decode("A?").edge_count == 0

    def test_k3(self):
        assert encode(k(3)) == "Bw"

    def test_k5(self):
        assert encode(k(5)) == "D~{"
        assert decode("D~{").adj == k(5).adj

    def test_header_stripped(self):
        assert decode(">>graph6<<D~{").adj == k(5).adj

    def test_whitespace_stripped(self):
        assert decode("D~{\n").adj == k(5).adj


class TestErrors:
    def expect(self, line: str, code: str):
        with pytest.raises(Graph6Error) as info:
            decode(line)
        assert info.value.code == code

    def test_bad_byte(self):
        self.expect("A:", BAD_BYTE)
        self.expect("A!", BAD_BYTE)
        self.expect("A\x7f", BAD_BYTE)

    def test_truncated_body(self):
        self.expect("A", BAD_LENGTH)

    def test_trailing_data(self):
        self.expect("A_?", TRAILING)

    def test_zero_vertices(self):
        self.expect("?", ZERO_VERTICES)

    def test_over_cap(self):
        # 513 in the three-byte count form
        self.expect("~?G@", TOO_LARGE)

    def test_huge_count_form(self):
        self.expect("~~?????", TOO_LARGE)

    def test_empty_line(self):
        self.expect("", BAD_LENGTH)


class TestCountForms:
    def test_boundary_62_is_short(self):
        g = Graph.from_edges(62, [(0, 61)])
        line = encode(g)
        assert line[0] == "}"
        assert decode(line).adj == g.adj

    def test_boundary_63_is_long(self):
        g = Graph.from_edges(63, [(0, 62)])
        line = encode(g)
        assert line.startswith("~??~")
        assert decode(line).adj == g.adj

    def test_cap_512(self):
        g = Graph.from_edges(512, [(0, 511)])
        assert decode(encode(g)).adj == g.adj


class TestRoundTrip:
    def test_full_catalog_n4(self):
        for g in labeled_graphs(4):
            assert decode(encode(g)).adj == g.adj

    @pytest.mark.parametrize("spec", [
        "petersen", "petersen_complement", "cycle:n=7",
        "c7_blowup:q=4", "disjoint_cliques:r=3,p=2",
    ])
    def test_families(self, spec):
        g = generate(spec).graph
        assert decode(encode(g)).adj == g.adj


class TestStream:
    def test_iter_stream_mixes_errors_and_graphs(self):
        lines = ["D~{", "", "A:", "@"]
        out = list(iter_stream(lines))
        assert [lineno for lineno, _ in out] == [1, 3, 4]
        assert isinstance(out[0][1], Graph)
        assert isinstance(out[1][1], Graph6Error)
        assert out[1][1].code == BAD_BYTE
        assert isinstance(out[2][1], Graph)
