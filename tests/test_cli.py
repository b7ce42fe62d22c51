import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from coxlab import catalog_matrix, reduce_word, reduced_graph
from coxlab.serialize import (
    MatrixFileError,
    graph_to_dot,
    matrix_to_text,
    parse_matrix_text,
    parse_surface_word,
)


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "coxlab", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestMatrixFiles:
    def test_round_trip_token_identical(self):
        text = "rank 3\n1  3 2\n3 1   3\n2 3 1\n"
        matrix = parse_matrix_text(text)
        emitted = matrix_to_text(matrix)
        assert emitted.split() == text.split()
        assert parse_matrix_text(emitted) == matrix

    def test_infinite_entries(self):
        text = "rank 2\n1 inf\ninf 1\n"
        matrix = parse_matrix_text(text)
        assert matrix.m(0, 1) == float("inf")
        assert matrix_to_text(matrix).split() == text.split()

    def test_rank_zero(self):
        assert parse_matrix_text("rank 0\n").rank == 0

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "rank x\n",
            "rank 2\n1 3\n",
            "rank 2\n1 3 2\n3 1 2\n",
            "rank 2\n1 q\n3 1\n",
        ],
    )
    def test_malformed_files(self, text):
        with pytest.raises(MatrixFileError):
            parse_matrix_text(text)

    def test_surface_words_are_one_indexed(self):
        matrix = catalog_matrix("A3")
        assert parse_surface_word("2 1 3", matrix) == (1, 0, 2)
        with pytest.raises(ValueError):
            parse_surface_word("0", matrix)
        with pytest.raises(ValueError):
            parse_surface_word("4", matrix)
        assert parse_surface_word("", matrix) == ()


class TestDotExport:
    def test_dot_is_wellformed(self):
        g = reduced_graph(reduce_word((1, 0, 1, 3), catalog_matrix("A4")))
        dot = graph_to_dot(g)
        assert dot.startswith("digraph ") and dot.rstrip().endswith("}")
        assert dot.count("{") == dot.count("}") == 1
        node_lines = re.findall(r'^\s*v\d+ \[label="[^"]*"\];$', dot, re.M)
        edge_lines = re.findall(r'^\s*v\d+ -> v\d+ \[.*\];$', dot, re.M)
        assert len(node_lines) == 8
        assert len(edge_lines) == 16


class TestCliCommands:
    def test_verify_a3_all_elements(self):
        result = run_cli("verify", "--type", "A3", "--all-elements")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["verdict"] == "pass"
        assert len(payload["elements"]) == 24

    def test_verify_single_word(self):
        result = run_cli("verify", "--type", "A4", "--word", "2 1 2 4")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        element = payload["elements"][0]
        assert element["vertices"] == 8 and element["arcs"] == 16
        assert element["arc_checks"]["checked"] == 16
        assert element["arc_checks"]["failures"] == []

    def test_verify_inconclusive_exit_code(self):
        result = run_cli("verify", "--type", "A4", "--word", "2 1 2 4", "--radius", "0")
        assert result.returncode == 2
        payload = json.loads(result.stdout)
        assert payload["verdict"] == "inconclusive"

    def test_graph_command(self, tmp_path):
        dot_file = tmp_path / "g.dot"
        json_file = tmp_path / "g.json"
        result = run_cli(
            "graph", "--type", "A4", "--word", "2 1 2 4",
            "--dot", str(dot_file), "--json", str(json_file),
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert len(payload["vertices"]) == 8
        assert len(payload["arcs"]) == 16
        assert payload["element"]["word"] == [2, 1, 2, 4]
        assert json.loads(json_file.read_text()) == payload
        assert dot_file.read_text().startswith("digraph")
        arc = payload["arcs"][0]
        assert set(arc) == {"from", "to", "pair", "position", "class"}

    def test_classes_i2_4(self):
        result = run_cli("classes", "--type", "I2_4")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert [cls["pairs"] for cls in payload["classes"]] == [[[1, 2]], [[2, 1]]]
        assert all(cls["status"] == "exact" for cls in payload["classes"])

    def test_classes_radius_marks_provisional(self):
        result = run_cli("classes", "--type", "A3", "--radius", "1")
        payload = json.loads(result.stdout)
        assert all("provisional" in cls["status"] for cls in payload["classes"])

    def test_invs_command(self):
        result = run_cli("invs", "--type", "A3", "--word", "2 1 3")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["inversion_word"] == [[2], [1, 2, 1], [2, 3, 2]]
        assert payload["support"] == [
            {"u": [1, 2, 1], "v": [2, 3, 2], "value": 1}
        ]

    def test_expr_graph_completes_and_reports(self):
        result = run_cli("expr-graph", "--type", "A2", "--word", "1", "--length", "5")
        assert result.returncode in (0, 1, 2)
        payload = json.loads(result.stdout)
        assert payload["report"]["exploratory"] is True
        assert payload["mode"] == "expressions"

    def test_expr_graph_parity_mismatch_is_usage_error(self):
        result = run_cli("expr-graph", "--type", "A2", "--word", "1", "--length", "4")
        assert result.returncode == 3

    def test_props_command(self):
        result = run_cli("props", "--type", "A3", "--samples", "40", "--seed", "42")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["verdict"] == "pass"
        assert payload["failures"] == []
        assert payload["checks"]["inversion_entries_distinct"] == 40

    def test_matrix_file_input(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("rank 2\n1 5\n5 1\n")
        result = run_cli("verify", "--matrix", str(path), "--all-elements")
        assert result.returncode == 0
        assert len(json.loads(result.stdout)["elements"]) == 10

    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "--type", "Z9", "--all-elements"),
            ("verify", "--type", "A3"),
            ("verify", "--type", "A3", "--word", "1", "--all-elements"),
            ("graph", "--type", "A3", "--word", "7"),
            ("graph", "--type", "A3", "--word", "x"),
            ("classes",),
            ("classes", "--type", "A3", "--matrix", "nope.txt"),
            ("verify", "--matrix", "/nonexistent/file", "--all-elements"),
        ],
    )
    def test_usage_errors_exit_three(self, args):
        result = run_cli(*args)
        assert result.returncode == 3

    def test_all_elements_on_infinite_group_needs_max_length(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("rank 2\n1 inf\ninf 1\n")
        result = run_cli("verify", "--matrix", str(path), "--all-elements")
        assert result.returncode == 3
        bounded = run_cli(
            "verify", "--matrix", str(path), "--all-elements",
            "--max-length", "4", "--radius", "1",
        )
        assert bounded.returncode == 0

    def test_deterministic_output(self):
        a = run_cli("graph", "--type", "A4", "--word", "2 1 2 4")
        b = run_cli("graph", "--type", "A4", "--word", "2 1 2 4")
        assert a.stdout == b.stdout

    def test_threads_env_does_not_change_output(self):
        a = run_cli("verify", "--type", "A3", "--all-elements")
        b = run_cli(
            "verify", "--type", "A3", "--all-elements",
            env_extra={"COXLAB_THREADS": "4"},
        )
        assert a.stdout == b.stdout
        assert b.returncode == 0

    @pytest.mark.parametrize(
        "args",
        [
            ("classes", "--type", "A3", "--radius", "-2"),
            ("verify", "--type", "A3", "--all-elements", "--max-length", "-1"),
            ("verify", "--type", "A3", "--word", "1", "--radius", "-1"),
            ("props", "--type", "A3", "--samples", "-5"),
        ],
    )
    def test_negative_counts_are_usage_errors(self, args):
        result = run_cli(*args)
        assert result.returncode == 3
        assert result.stdout == ""

    # sha256 of stdout for small runs: any change to an output byte or an
    # exit code fails here; the exit-2 cases carry non-pass cycle verdicts
    @pytest.mark.parametrize(
        "args, code, digest",
        [
            (("verify", "--type", "A3", "--all-elements"), 0,
             "7ce2bf98e7ec26f0cbaea853409d0467e6697663267dea54aa7183cb492da7ad"),
            (("verify", "--type", "B3", "--all-elements"), 0,
             "9d9167964bd44e96b053c7644715932a2fd43451bf0a70a324088c197b4a237b"),
            (("verify", "--type", "A4", "--word", "2 1 2 4", "--radius", "0"), 2,
             "f05256f2250fb4e5f03be4dc2f98b4d094364b59a7bfad446715cf069d653a42"),
            (("verify", "--type", "A4", "--all-elements", "--max-length", "4",
              "--radius", "1"), 2,
             "fbf52719b6e5659b279f7b261cc7ad36de8db7df83bea36f215ba2335a9c4624"),
            (("classes", "--type", "B3", "--radius", "1"), 0,
             "479ef47d2e0fb22072da30d165dd8e47f667f16538871fead7e89aff986e0763"),
            (("classes", "--type", "H3"), 0,
             "09b5929e0aaf0688a383cc163f6926c41f3f1015fcfd1c09959ae1db6512b360"),
            (("expr-graph", "--type", "A3", "--word", "1 2", "--length", "4"), 0,
             "94ab9271952e2d940d2fd1d3d44638b8330685469af90b9a07ec04227fff12fe"),
            (("props", "--type", "A3", "--samples", "40", "--seed", "42"), 0,
             "58c6b43625e96daf84b76ee6faa28fa68b7585f1192d25b26cd3aaf4d2349706"),
            (("invs", "--type", "H3", "--word", "1 2 1 2 1 3 2"), 0,
             "651a06fced9567c9850fc7f685ad377900c031fcce71cd42ecfe21f5744e9b66"),
            (("invs", "--type", "B3", "--word", "1 2 1 2 3 2"), 0,
             "76189dc3495da90dc9d8d7f74222d5ea0d4999f3c63ea6dc589f5df9c2d4679e"),
            (("invs", "--type", "I2_7", "--word", "1 2 1 2 1 2 1"), 0,
             "d080671dd3c7399ed2d8f5dbe0d33b834f6ecc15648aa4f4203c7402c202ec94"),
        ],
    )
    def test_output_bytes_are_pinned(self, args, code, digest):
        result = run_cli(*args)
        assert result.returncode == code
        assert hashlib.sha256(result.stdout.encode("utf-8")).hexdigest() == digest

    def test_bond_above_the_order_cap(self):
        # I2(65): the sweep has 65 entries, more than the default order cap
        word = " ".join("1" if i % 2 == 0 else "2" for i in range(65))
        result = run_cli("verify", "--type", "I2_65", "--word", word)
        assert result.returncode == 0
        element = json.loads(result.stdout)["elements"][0]
        assert element["arc_checks"] == {"checked": 2, "failures": []}
        invs = run_cli("invs", "--type", "I2_65", "--word", word)
        assert invs.returncode == 0
        assert json.loads(invs.stdout)["support"] is not None

    def test_verdict_exit_mapping(self):
        from coxlab.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, _verdict_exit
        from coxlab import Verdict

        assert _verdict_exit(Verdict.PASS) == EXIT_PASS == 0
        assert _verdict_exit(Verdict.FAIL) == EXIT_FAIL == 1
        assert _verdict_exit(Verdict.INCONCLUSIVE) == EXIT_INCONCLUSIVE == 2
