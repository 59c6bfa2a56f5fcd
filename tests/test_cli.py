import csv
import io
import json
import re

import networkx as nx
import pytest

from clawlab.cli import build_parser, main
from clawlab.families import FamilySpec, InflationSpec, build_family, build_inflation
from clawlab.graphs import parse_graph6, to_graph6
from clawlab.patterns import pattern_graph
from clawlab.structure import TheoremViolation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFamily:
    def test_emit_graph6(self, capsys):
        code, out, _ = run(capsys, "family", "F0", "--s", "1")
        assert code == 0
        g = parse_graph6(out.strip())
        want, _ = build_family(FamilySpec("F0", 1))
        assert g == want

    def test_verify_flag(self, capsys):
        code, out, _ = run(capsys, "family", "F1", "--s", "3", "--verify")
        assert code == 0
        payload = json.loads(out)
        assert payload["omega"] == 3 and payload["chi"] == 4
        assert all(c["ok"] for c in payload["checks"])

    def test_bad_parameter_exits_2(self, capsys):
        code, _, err = run(capsys, "family", "F4", "--s", "4")
        assert code == 2 and "odd" in err

    def test_oversized_member_exits_2(self, capsys):
        code, out, err = run(capsys, "family", "F3", "--s", "1000000000")
        assert code == 2 and out == ""
        assert err == "error: F3 with s = 1000000000 has 9000000001 vertices, beyond capacity 64\n"


class TestInflate:
    def test_emits_inflation(self, capsys):
        code, out, _ = run(capsys, "inflate", "--sizes", "2,1,1,1,1,1,1")
        assert code == 0
        g = parse_graph6(out.strip())
        want, _ = build_inflation(InflationSpec((2, 1, 1, 1, 1, 1, 1)))
        assert g == want

    def test_bad_sizes(self, capsys):
        code, _, _ = run(capsys, "inflate", "--sizes", "1,1,1")
        assert code == 2


class TestClassify:
    def test_inflation_json(self, capsys):
        g, _ = build_inflation(InflationSpec((2, 1, 1, 1, 1, 1, 1)))
        code, out, _ = run(capsys, "classify", to_graph6(g))
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "ODD_CYCLE_INFLATION" and payload["k"] == 7

    def test_perfect_json(self, capsys):
        code, out, _ = run(capsys, "classify", to_graph6(pattern_graph("P6")))
        assert json.loads(out)["kind"] == "PERFECT"

    def test_stdin_stream(self, capsys, monkeypatch):
        lines = to_graph6(pattern_graph("P6")) + "\n" + to_graph6(pattern_graph("B")) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, _ = run(capsys, "classify", "-")
        assert code == 0
        payloads = [json.loads(line) for line in out.strip().splitlines()]
        assert payloads[0]["kind"] == "PERFECT"
        assert payloads[1]["kind"] == "OUT_OF_CLASS" and payloads[1]["violation"] == "bull"

    def test_stdin_with_networkx_header(self, capsys, monkeypatch):
        lines = "".join(nx.to_graph6_bytes(g).decode() for g in (nx.path_graph(6), nx.cycle_graph(7)))
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, _ = run(capsys, "classify", "-")
        assert code == 0
        kinds = [json.loads(line)["kind"] for line in out.strip().splitlines()]
        assert kinds == ["PERFECT", "ODD_CYCLE_INFLATION"]

    def test_theorem_violation_exits_1(self, capsys, monkeypatch):
        def violated(g):
            raise TheoremViolation("stand-in violation")

        monkeypatch.setattr("clawlab.cli.classify_claw_bull_free", violated)
        code, out, err = run(capsys, "classify", to_graph6(pattern_graph("P6")))
        assert code == 1 and out == ""
        assert err.startswith("theorem violated: stand-in violation")

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text(to_graph6(pattern_graph("C7")) + "\n")
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert json.loads(out)["kind"] == "ODD_CYCLE_INFLATION"


class TestEnumerate:
    def test_count_output(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-n", "4", "--connected")
        assert code == 0 and out.strip() == "10"

    def test_emit_graph6(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "--max-n", "5", "--connected", "--free", "K1_3", "--emit", "graph6"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert err.strip() == str(len(lines)) == "23"  # 1+1+2+5+14
        parsed = [parse_graph6(line) for line in lines]
        assert all(g.is_connected() for g in parsed)

    def test_filters(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--max-n", "6", "--connected", "--free", "K1_3,B",
            "--min-alpha", "3", "--exclude-odd-cycles",
        )
        assert code == 0 and out.strip().isdigit()

    def test_blank_pattern_tokens_dropped(self, capsys):
        # an empty or blank token between commas names no pattern
        want = run(capsys, "enumerate", "--max-n", "5", "--free", "K1_3")
        assert want[0] == 0
        for free in ("K1_3,", "K1_3, ", " ,K1_3,\t"):
            assert run(capsys, "enumerate", "--max-n", "5", "--free", free) == want

    def test_bad_pattern(self, capsys):
        code, _, err = run(capsys, "enumerate", "--max-n", "4", "--free", "Q9")
        assert code == 2

    def test_negative_min_alpha_exits_2(self, capsys):
        code, out, err = run(capsys, "enumerate", "--max-n", "4", "--min-alpha", "-3")
        assert code == 2 and out == "" and "min_alpha" in err


class TestVerify:
    def test_verified_exit_0(self, capsys):
        code, out, err = run(
            capsys, "verify", "--theorem", "T5_ALPHA3", "--y", "P5", "--max-n", "6", "--format", "json"
        )
        assert code == 0 and out.strip() == "[]"
        assert "0 counterexample" in err

    def test_counterexample_exit_1(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--theorem", "T4_NOALPHA", "--y", "C4", "--max-n", "6", "--format", "csv"
        )
        assert code == 1
        assert out.splitlines()[0] == "theorem,y,max_n,class_size,elapsed,graph6,reason"
        assert len(out.strip().splitlines()) > 1

    @pytest.mark.parametrize(("theorem", "y", "want_code"), [("T4_NOALPHA", "C4", 1), ("T5_ALPHA3", "P5", 0)])
    def test_csv_has_no_empty_record(self, capsys, theorem, y, want_code):
        code, out, _ = run(capsys, "verify", "--theorem", theorem, "--y", y, "--max-n", "6", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == want_code and rows[0][0] == "theorem"
        assert (len(rows) > 1) == (code == 1)
        assert all(rows)  # no empty record, the trailing one included

    def test_y_case_and_spaces_normalised(self, capsys):
        reports = []
        for y in ("c4", " C4 "):
            code, out, _ = run(capsys, "verify", "--theorem", "T4_NOALPHA", "--y", y, "--max-n", "6")
            assert code == 1
            reports.append([{k: v for k, v in row.items() if k != "elapsed"} for row in json.loads(out)])
        assert reports[0] and reports[0] == reports[1]
        assert {row["y"] for row in reports[0]} == {"C4"}

    def test_usage_error_exit_2(self, capsys):
        assert run(capsys, "verify", "--theorem", "NOPE", "--max-n", "5")[0] == 2
        assert run(capsys, "verify", "--theorem", "T5_ALPHA3", "--max-n", "5")[0] == 2

    def test_y_for_theorem_without_y_exits_2(self, capsys):
        code, out, err = run(
            capsys, "verify", "--theorem", "OBS2_NEIGHBORHOOD", "--y", "P5", "--max-n", "5"
        )
        assert code == 2 and out == "" and "takes no forbidden pattern" in err


class TestCheck:
    def test_report_fields(self, capsys):
        g, _ = build_family(FamilySpec("F0", 1))
        code, out, _ = run(capsys, "check", to_graph6(g))
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 6
        assert payload["omega"] == 3 and payload["alpha"] == 2 and payload["chi"] == 4
        assert payload["max_degree"] == 5
        assert payload["perfect"] is False
        assert payload["certificate"]["kind"] == "odd_hole"
        assert len(payload["certificate"]["vertices"]) == 5

    def test_perfect_graph_certificate_null(self, capsys):
        code, out, _ = run(capsys, "check", to_graph6(pattern_graph("P4")))
        payload = json.loads(out)
        assert payload["perfect"] is True and payload["certificate"] is None

    def test_stdin_stream(self, capsys, monkeypatch):
        lines = "\n".join(to_graph6(pattern_graph(t)) for t in ("C5", "P4", "K4")) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, _ = run(capsys, "check", "-")
        payloads = [json.loads(line) for line in out.strip().splitlines()]
        assert [p["perfect"] for p in payloads] == [False, True, True]

    def test_networkx_file_with_header(self, capsys, tmp_path):
        path = tmp_path / "c5.g6"
        nx.write_graph6(nx.cycle_graph(5), str(path))
        assert path.read_text().startswith(">>graph6<<")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["perfect"] is False and payload["certificate"]["kind"] == "odd_hole"

    def test_bad_graph6_exit_2(self, capsys):
        assert run(capsys, "check", "not a graph6 \x01")[0] == 2

    def test_directory_argument_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestParserReuse:
    # a clean verify, an argparse usage error, a usage error from the
    # campaign, check, and a verify that finds counterexamples
    CALLS = [
        ("verify", "--theorem", "T5_ALPHA3", "--y", "P5", "--max-n", "6"),
        ("verify", "--theorem", "T5_ALPHA3", "--max-n", "6", "--format", "xml"),
        ("verify", "--theorem", "NOPE", "--max-n", "5"),
        ("check", to_graph6(pattern_graph("C5"))),
        ("verify", "--theorem", "T4_NOALPHA", "--y", "C4", "--max-n", "6"),
    ]

    @staticmethod
    def outcome(capsys, argv):
        """Exit code, stdout and stderr, with the wall-clock times dropped."""
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        out = re.sub(r'"elapsed": [0-9.e-]+', '"elapsed"', captured.out)
        return code, out, re.sub(r", [0-9.]+s$", "", captured.err, flags=re.M)

    def test_each_call_matches_a_fresh_parser(self, capsys):
        build_parser.cache_clear()
        warm = [self.outcome(capsys, argv) for argv in self.CALLS]
        assert build_parser.cache_info().misses == 1
        fresh = []
        for argv in self.CALLS:
            build_parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        assert warm == fresh
        assert [code for code, _, _ in warm] == [0, 2, 2, 0, 1]
        assert "invalid choice" in warm[1][2] and warm[4][1].count('"graph6"') > 1
