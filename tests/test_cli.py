"""CLI behavior: exit codes, JSON shape and stability, stream policy."""

import json

import pytest

from wellcov.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATIONS, _progress, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_k1(self, capsys):
        code, out, _ = run(capsys, "analyze", "@")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["alpha"] == 1
        assert report["well_covered"] is True
        assert report["w_index"] == 1
        assert report["input"] == {"graph6": "@", "n": 1, "edges": 0, "source": "graph6"}

    def test_family_alias(self, capsys):
        code, out, _ = run(capsys, "analyze", "petersen-complement")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["alpha"] == 2
        assert report["w_index"] == 3
        assert report["alpha_critical"]["by_edge_deletion"] is True
        assert report["alpha_critical"]["agree"] is True
        assert report["input"]["source"] == "family:petersen_complement"

    def test_key_order_is_fixed(self, capsys):
        _, out, _ = run(capsys, "analyze", "c7_blowup:q=2", "--edge-scan")
        report = json.loads(out)
        assert list(report) == [
            "input", "alpha", "well_covered", "w_index", "alpha_critical",
            "membership", "complement", "bounds", "edge_localization"]

    def test_output_is_byte_stable(self, capsys):
        _, first, _ = run(capsys, "analyze", "c7_blowup:q=2", "--p", "1,2", "--edge-scan")
        _, second, _ = run(capsys, "analyze", "c7_blowup:q=2", "--p", "1,2", "--edge-scan")
        assert first == second

    def test_edge_scan_shows_failures(self, capsys):
        _, out, _ = run(capsys, "analyze", "c7_blowup:q=2", "--p", "2", "--edge-scan")
        report = json.loads(out)
        scan = report["edge_localization"][0]
        assert scan["p"] == 2
        assert scan["edges_scanned"] == 35
        assert len(scan["not_in_lower_class"]) == 28
        assert scan["all_pass"] is False

    def test_path_edge_scan_golden(self, capsys):
        code, out, _ = run(capsys, "analyze", "path:n=4", "--p", "2", "--edge-scan")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["alpha_critical"]["uncovered_edge"] == [1, 2]
        scan = report["edge_localization"][0]
        assert scan["edges_scanned"] == 3
        assert scan["empty_localizations"] == [[1, 2]]
        assert scan["not_in_lower_class"] == []
        assert scan["all_pass"] is False

    def test_oracle_skipped_past_guard(self, capsys):
        _, out, _ = run(capsys, "analyze", "c7_blowup:q=2")
        report = json.loads(out)
        assert all(m["oracle"] is None for m in report["membership"])
        assert all(m["agree"] for m in report["membership"])

    def test_family_name_ignores_case(self, capsys):
        code, out, _ = run(capsys, "analyze", "PETERSEN")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["input"]["source"] == "family:petersen"
        assert report["input"]["n"] == 10

    def test_bad_input_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "nosuch:n=1")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_bad_p_exits_2(self, capsys):
        code, _, _ = run(capsys, "analyze", "@", "--p", "0")
        assert code == EXIT_USAGE

    def test_stdin_fallback(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("D~{\n"))
        code, out, _ = run(capsys, "analyze")
        assert code == EXIT_OK
        assert json.loads(out)["alpha"] == 1


class TestScan:
    def test_exhaustive_equivalence_clean(self, capsys):
        code, out, err = run(capsys, "scan", "--exhaustive", "4",
                             "--mode", "equivalence", "--p", "1,2")
        assert code == EXIT_OK
        assert out == ""
        assert "0 discrepancies" in err

    def test_find_two_disjoint_edges(self, capsys):
        code, out, _ = run(capsys, "scan", "--exhaustive", "4",
                           "--mode", "find", "--p", "2", "--r", "2")
        assert code == EXIT_OK
        assert sorted(out.split()) == ["CK", "CQ", "C`"]

    def test_find_json(self, capsys):
        code, out, _ = run(capsys, "scan", "--exhaustive", "4", "--mode", "find",
                           "--p", "2", "--r", "2", "--json")
        assert code == EXIT_OK
        body = json.loads(out)
        assert body["mode"] == "find"
        assert [h["graph6"] for h in body["hits"]] == ["CK", "CQ", "C`"]
        assert all(h["n"] == 4 and h["r"] == 2 and h["p"] == 2 for h in body["hits"])

    def test_parse_errors_reported_and_continue(self, capsys, tmp_path):
        stream = tmp_path / "graphs.g6"
        stream.write_text("D~{\n:bad\n@\n")
        code, _, err = run(capsys, "scan", "--input", str(stream), "--p", "1", "--json")
        assert code == EXIT_OK
        assert "line 2" in err

    def test_strict_parse_errors_fail(self, capsys, tmp_path):
        stream = tmp_path / "graphs.g6"
        stream.write_text(":bad\n")
        code, _, _ = run(capsys, "scan", "--input", str(stream), "--strict")
        assert code == EXIT_VIOLATIONS

    def test_summary_counts(self, capsys, tmp_path):
        stream = tmp_path / "graphs.g6"
        stream.write_text("D~{\n:bad\n@\n")
        code, out, _ = run(capsys, "scan", "--input", str(stream), "--p", "1,2", "--json")
        assert code == EXIT_OK
        body = json.loads(out)
        assert body["graphs_checked"] == 2
        assert len(body["parse_errors"]) == 1
        assert body["parse_errors"][0]["code"] == "bad_byte"
        assert body["discrepancies"] == []

    def test_oversize_stream_graphs_skipped(self, capsys, tmp_path):
        from wellcov import encode, generate
        stream = tmp_path / "graphs.g6"
        stream.write_text(encode(generate("cycle:n=12").graph) + "\n")
        code, out, _ = run(capsys, "scan", "--input", str(stream), "--p", "1", "--json")
        assert code == EXIT_OK
        body = json.loads(out)
        assert len(body["skipped"]) == 1
        assert body["graphs_checked"] == 1

    def test_catalog_cap_is_usage_error(self, capsys):
        code, _, err = run(capsys, "scan", "--exhaustive", "8")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_catalog_order_seven_needs_allow_large(self, capsys):
        code, _, err = run(capsys, "scan", "--exhaustive", "7")
        assert code == EXIT_USAGE
        assert "capped at 6 vertices" in err

    def test_catalog_order_below_one_is_usage_error(self, capsys):
        code, _, err = run(capsys, "scan", "--exhaustive", "0")
        assert code == EXIT_USAGE
        assert "at least 1 (got 0)" in err
        assert "allow_large" not in err

    def test_json_counts_table_cache(self, capsys):
        # each graph's tables are built once, whatever asks for them
        code, out, _ = run(capsys, "scan", "--exhaustive", "4", "--json")
        assert code == EXIT_OK
        body = json.loads(out)
        assert body["graphs_checked"] == 64
        assert set(body["table_cache"]) == {
            "maximal_independent_set_masks", "independent_set_masks",
            "clique_masks_of_size", "profile"}
        for counts in body["table_cache"].values():
            assert counts["misses"] == body["graphs_checked"]
            assert counts["hits"] > 0

    def test_missing_file_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "scan", "--input", "/nonexistent.g6")
        assert code == EXIT_USAGE


class TestFamily:
    def test_emits_graph6(self, capsys):
        from wellcov import decode, generate
        code, out, _ = run(capsys, "family", "cycle:n=7")
        assert code == EXIT_OK
        assert decode(out.strip()).adj == generate("cycle:n=7").graph.adj

    def test_multiple_specs(self, capsys):
        code, out, _ = run(capsys, "family", "path:n=2", "complete:n=5")
        assert code == EXIT_OK
        assert out.split() == ["A_", "D~{"]

    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "family", "c7_blowup:q=3", "--json")
        assert code == EXIT_OK
        body = json.loads(out)
        assert body[0]["name"] == "c7_blowup"
        assert body[0]["n"] == 21
        assert body[0]["params"] == {"q": 3}

    def test_unknown_family_exits_2(self, capsys):
        assert run(capsys, "family", "nosuch")[0] == EXIT_USAGE


class TestVerify:
    def test_codec_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "codec")
        assert code == EXIT_OK
        assert "[PASS] codec/codec-vectors" in out

    def test_json_table(self, capsys):
        code, out, _ = run(capsys, "verify", "codec", "--json")
        assert code == EXIT_OK
        body = json.loads(out)
        assert body[0]["suite"] == "codec"
        assert body[0]["passed"] is True

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "nosuch"])
        assert info.value.code == EXIT_USAGE

    def test_progress_rate_and_eta(self, capsys):
        ticks = iter([10.0, 14.0, 18.0, 20.0])
        report = _progress(lambda: next(ticks))
        report(6, 0, 32768)
        report(6, 4096, 32768)
        # a new order starts its own clock
        report(7, 0, 2097152)
        report(7, 4096, 2097152)
        assert capsys.readouterr().err.splitlines() == [
            "catalog n=6: 0/32768",
            "catalog n=6: 4096/32768, 1024 graphs/s, ETA 28 s",
            "catalog n=7: 0/2097152",
            "catalog n=7: 4096/2097152, 2048 graphs/s, ETA 1022 s",
        ]
