"""CLI behavior: exit codes, JSON shape and stability, stream policy."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wellcov
from wellcov import cli, wp
from wellcov.cli import (
    EXIT_BROKEN_PIPE, EXIT_OK, EXIT_USAGE, EXIT_VIOLATIONS, _progress, main)

CYCLE12_REASON = ("oracle capped at 10 vertices; got 12 "
                  "(pass allow_large=True, --allow-large on the command line, to override)")


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

    def test_one_superset_table_per_request(self, capsys, monkeypatch):
        # analyze asks the oracle's one front for all its p values
        built = []
        original = wp._superset_table

        def counting(g):
            built.append(g)
            return original(g)
        monkeypatch.setattr(wp, "_superset_table", counting)
        code, out, _ = run(capsys, "analyze", "petersen_complement")
        assert code == EXIT_OK
        assert [m["oracle"] for m in json.loads(out)["membership"]] == [True, True, True]
        assert len(built) == 1

    @pytest.mark.parametrize("route, flip", [
        ("is_in_wp_localization", lambda f: lambda g, p, memo=None: not f(g, p, memo)),
        ("is_alpha_critical_fibers", lambda f: lambda g: (not f(g)[0], f(g)[1])),
    ], ids=["localization", "fibers"])
    def test_disagreement_exits_1(self, capsys, monkeypatch, route, flip):
        # the same report, with the flipped route's agree flag false
        _, clean, _ = run(capsys, "analyze", "petersen_complement", "--edge-scan")
        monkeypatch.setattr(f"wellcov.cli.{route}", flip(getattr(wp, route)))
        code, out, _ = run(capsys, "analyze", "petersen_complement", "--edge-scan")
        assert code == EXIT_VIOLATIONS
        report, expected = json.loads(out), json.loads(clean)
        assert list(report) == list(expected)
        agree = [m["agree"] for m in report["membership"]] + [report["alpha_critical"]["agree"]]
        assert agree.count(False) == (3 if route == "is_in_wp_localization" else 1)

    def test_failing_edge_scan_exits_0(self, capsys):
        # a localization outside the lower class is a fact about g
        code, out, _ = run(capsys, "analyze", "c7_blowup:q=2", "--p", "2", "--edge-scan")
        assert json.loads(out)["edge_localization"][0]["all_pass"] is False
        assert code == EXIT_OK

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
        # the default mode runs the sweep's whole job, equivalence included
        code, out, err = run(capsys, "scan", "--exhaustive", "4", "--p", "1,2")
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
        # the reason names the flag that lifts the guard here
        assert "--allow-large" in body["skipped"][0]["reason"]

    @pytest.mark.parametrize("mode, p, expected", [
        ("check", "1,3", [
            "line 2 IUX|}vh|G p=1 deciders: oracle=True ridge=True localization=False",
            "line 2 IUX|}vh|G p=3 deciders: oracle=True ridge=True localization=False",
            "line 3: parse error (bad_byte): byte 58 outside the printable graph6 range",
            "line 4: skipped: " + CYCLE12_REASON,
            "line 5 IUX|}vh|G p=1 deciders: oracle=True ridge=True localization=False",
            "line 5 IUX|}vh|G p=3 deciders: oracle=True ridge=True localization=False",
            "checked 3 graphs, 1 parse errors, 1 skipped, 4 discrepancies",
        ]),
        ("find", "3", [
            "IUX|}vh|G",
            "line 3: parse error (bad_byte): byte 58 outside the printable graph6 range",
            "line 4: skipped: " + CYCLE12_REASON,
            "IUX|}vh|G",
            "checked 3 graphs, 1 parse errors, 1 skipped, 2 hits",
        ]),
    ])
    def test_stream_output_keeps_line_order(self, mode, p, expected, monkeypatch, tmp_path):
        # stdout and stderr into one buffer: each line's output, on
        # either stream, comes before the next line's.  The
        # localization decider is flipped so that check mode prints
        # records too
        from wellcov import encode, generate, is_in_wp_localization
        monkeypatch.setattr(
            "wellcov.verify.is_in_wp_localization",
            lambda g, p, memo=None: not is_in_wp_localization(g, p, memo))
        member = encode(generate("petersen_complement").graph)
        oversize = encode(generate("cycle:n=12").graph)
        stream = tmp_path / "graphs.g6"
        stream.write_text(f"\n{member}\n:bad\n{oversize}\n{member}\n")
        both = io.StringIO()
        monkeypatch.setattr(sys, "stdout", both)
        monkeypatch.setattr(sys, "stderr", both)
        code = main(["scan", "--input", str(stream), "--mode", mode, "--p", p])
        assert code == (EXIT_VIOLATIONS if mode == "check" else EXIT_OK)
        assert both.getvalue().splitlines() == expected

    def test_route_value_error_is_not_a_usage_error(self, monkeypatch):
        # a ValueError from a route is a fault of the program, so it
        # reaches the caller instead of exiting 2 as bad input
        def broken(h):
            raise ValueError("planted")
        monkeypatch.setattr("wellcov.verify.alpha2_check", broken)
        with pytest.raises(ValueError, match="planted"):
            main(["scan", "--exhaustive", "3"])

    def test_catalog_cap_is_usage_error(self, capsys):
        code, _, err = run(capsys, "scan", "--exhaustive", "8")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_catalog_order_seven_needs_allow_large(self, capsys):
        code, _, err = run(capsys, "scan", "--exhaustive", "7")
        assert code == EXIT_USAGE
        assert "capped at 6 vertices" in err
        assert "--allow-large" in err

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
            "maximal_clique_masks", "maximal_clique_size_range", "profile"}
        for counts in body["table_cache"].values():
            assert counts["misses"] == body["graphs_checked"]
            assert counts["hits"] > 0

    def test_missing_file_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "scan", "--input", "/nonexistent.g6")
        assert code == EXIT_USAGE

    def test_input_and_exhaustive_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["scan", "--exhaustive", "3", "--input", "/nonexistent.g6"])
        assert info.value.code == EXIT_USAGE
        assert "not allowed with argument" in capsys.readouterr().err

    def test_r_outside_find_mode_is_usage_error(self, capsys):
        code, out, err = run(capsys, "scan", "--exhaustive", "3", "--r", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--r applies only to --mode find" in err

    def test_half_modes_are_gone(self, capsys):
        for mode in ("equivalence", "corollaries"):
            with pytest.raises(SystemExit) as info:
                main(["scan", "--exhaustive", "3", "--mode", mode])
            assert info.value.code == EXIT_USAGE
            assert "invalid choice" in capsys.readouterr().err


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


class TestClosedPipe:
    """A reader that leaves early, as `head` does, ends the run quietly:
    one exit code and nothing on stderr, whether stdout is buffered or
    not and whichever subcommand writes."""

    SRC = Path(wellcov.__file__).resolve().parent.parent
    FIND_2K3 = ["scan", "--exhaustive", "6", "--mode", "find", "--p", "3", "--r", "2"]

    def child(self, argv, unbuffered, **kwargs):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(self.SRC)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.Popen([sys.executable, "-m", "wellcov.cli", *argv],
                                stderr=subprocess.PIPE, env=env, **kwargs)

    @pytest.mark.parametrize("argv,unbuffered", [
        (["family", "petersen"], False),
        (["family", "petersen"], True),
        # the write fails while the pool's workers are running
        (FIND_2K3, True),
    ], ids=["family-buffered", "family-unbuffered", "scan-pool-unbuffered"])
    def test_quiet_exit(self, argv, unbuffered):
        read, write = os.pipe()
        # the read end is closed before the command starts, so its
        # first write to stdout fails
        os.close(read)
        try:
            proc = self.child(argv, unbuffered, stdout=write)
            _, err = proc.communicate(timeout=120)
        finally:
            os.close(write)
        assert err == b""
        assert proc.returncode == EXIT_BROKEN_PIPE

    def test_buffered_scan_stops_when_its_reader_leaves(self):
        # as `| head -1` does: read the first hit, then close.  Each
        # job's output is flushed, so a later hit meets the closed pipe
        # and the sweep stops before its summary line
        proc = self.child(self.FIND_2K3, False, stdout=subprocess.PIPE)
        try:
            assert proc.stdout.readline().strip()
            proc.stdout.close()
            proc.wait(timeout=120)
        finally:
            proc.kill()
        assert proc.stderr.read() == b""
        proc.stderr.close()
        assert proc.returncode == EXIT_BROKEN_PIPE


class TestSharedParser:
    """`main` builds its parser on its first call and keeps it for the
    calls after it.  Each call of an in-process row with different flags
    prints byte for byte what the same command prints as a fresh
    process's first call, and a bad argument in the row exits 2 and
    changes nothing for the call after it."""

    ROW = [
        ["analyze", "c7_blowup:q=2", "--p", "1,2", "--edge-scan"],
        ["analyze", "c7_blowup:q=2"],
        ["scan", "--exhaustive", "4", "--json"],
        ["scan", "--exhaustive", "4"],
        ["scan", "--exhaustive", "4", "--mode", "bogus"],
        ["analyze", "c7_blowup:q=2", "--p", "1,2", "--edge-scan"],
        ["analyze", "c7_blowup:q=2", "--p"],
        ["scan", "--exhaustive", "4", "--json"],
    ]

    def first_call(self, argv):
        env = dict(os.environ, PYTHONPATH=str(TestClosedPipe.SRC))
        proc = subprocess.run([sys.executable, "-m", "wellcov.cli", *argv],
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              env=env, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def test_calls_in_a_row_print_what_first_calls_print(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        codes = []
        for argv in self.ROW:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out, err) == self.first_call(argv), argv
            codes.append(code)
        assert codes == [EXIT_OK] * 4 + [EXIT_USAGE, EXIT_OK, EXIT_USAGE, EXIT_OK]
        assert built == [1]
