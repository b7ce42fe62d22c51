import hashlib
import json
import os
import re
import signal
import subprocess
import sys

import pytest

from coxlab import (
    catalog_matrix,
    enumerate_elements,
    identity_element,
    pair_classes,
    reduce_word,
    reduced_graph,
)
from coxlab.serialize import (
    MatrixFileError,
    dump_json,
    element_chunks,
    graph_to_dot,
    matrix_to_json,
    matrix_to_text,
    parity_report_to_json,
    parse_matrix_text,
    parse_surface_word,
    write_verify_json,
)
from coxlab.verify import worst


# the longest element of I2(65), 1 2 1 2 ... 1
I2_65_WORD = " ".join("1" if i % 2 == 0 else "2" for i in range(65))

# infinite groups: a rank-3 matrix with an inf bond, and the affine A~2
MATRIX_FILES = {
    "inf.txt": "rank 3\n1 3 inf\n3 1 3\ninf 3 1\n",
    "affine_a2.txt": "rank 3\n1 3 3\n3 1 3\n3 3 1\n",
}


def run_cli(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "coxlab", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
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


def _reference_document(matrix, outcomes):
    """The verify document as one payload, each report via parity_report_to_json."""
    return dump_json(
        {
            "matrix": matrix_to_json(matrix),
            "elements": [dict(head, report=parity_report_to_json(r)) for _, head, r in outcomes],
            "verdict": worst(v for v, _, _ in outcomes).value,
        }
    )


def _streamed_document(matrix, outcomes):
    # one memo of signature texts for the whole document, as the CLI keeps
    chunks = []
    texts = {}
    pieces = ((v, map(str.encode, element_chunks(head, r, texts))) for v, head, r in outcomes)
    # a writer's argument may be a view that the next write reuses: keep a copy
    verdict = write_verify_json(lambda chunk: chunks.append(bytes(chunk)), matrix, pieces)
    return b"".join(chunks).decode(), verdict, chunks


def _all_elements(name):
    matrix = catalog_matrix(name)
    return matrix, pair_classes(matrix), enumerate_elements(matrix)


def _wrong_vector(inv, matrix, *rest):
    """occurrence_ids of the reversed word: the wrong_vectors negative control."""
    from coxlab.inversions import inversion_ids, occurrence_ids

    return occurrence_ids(inversion_ids(inv.source[::-1], matrix), matrix, *rest)


def _writer_case(case, monkeypatch):
    """(matrix, outcomes) for one case of the writer-against-reference test."""
    import coxlab.cli
    import coxlab.verify

    if case in ("A3", "B3", "H3", "I2_7"):
        matrix, partition, elements = _all_elements(case)
        return matrix, [coxlab.cli._verify_one(partition, e) for e in elements]
    matrix = catalog_matrix("A4")
    if case == "hand_built":
        # an empty cycle, cycles without checks, a signature shared by two
        # cycles, and a details string that needs escaping: shapes the CLI
        # never makes, same bytes all the same
        from coxlab.verify import CycleParityReport, Verdict

        report = CycleParityReport(
            graph_mode="expressions",
            exact_partition=False,
            cycles=((), (0, 1), (2, 3), (1, 0), (3, 2)),
            signatures=(
                (),
                ((1, 0, 1, 1, Verdict.PASS), (0, 1, 1, 0, Verdict.INCONCLUSIVE)),
                ((0, 0, 1, 1, Verdict.FAIL),),
            ),
            cycle_signatures=(0, 0, 1, 2, 1),
            verdict=Verdict.FAIL,
        )
        head = {
            "element": {"canonical": [], "length": 0},
            "vertices": 2,
            "arcs": 4,
            "arc_checks": {"checked": 4, "failures": [
                {"arc": 3, "verdict": "fail", "details": 'line\n"quoted"\tand \u00e9'},
            ]},
        }
        return matrix, [(Verdict.FAIL, head, report)]
    word = (1, 0, 1, 3)
    partition = pair_classes(matrix, radius=0 if case == "radius" else None)
    if case == "shared":
        # two elements whose reports share signature tables, so the second
        # is written from the first one's memoized text
        elements = [reduce_word(w, matrix) for w in (word, (2, 3, 2, 0))]
        return matrix, [coxlab.cli._verify_one(partition, e) for e in elements]
    element = reduce_word(word, matrix)
    if case == "identity":
        element = identity_element(matrix)
    elif case == "recoloured":
        def recoloured(element, partition):
            graph = reduced_graph(element, partition)
            return graph.with_arc_color(0, (graph.arcs[0].color + 1) % len(partition.classes))

        monkeypatch.setattr(coxlab.cli, "reduced_graph", recoloured)
    elif case == "wrong_vectors":
        monkeypatch.setattr(coxlab.verify, "occurrence_ids", _wrong_vector)
    source = word if case == "word" else None
    return matrix, [coxlab.cli._verify_one(partition, element, source)]


class TestVerifyWriter:
    @pytest.mark.parametrize(
        "case, verdict",
        [
            ("A3", "pass"),
            ("B3", "pass"),
            ("H3", "pass"),
            ("I2_7", "pass"),
            ("identity", "pass"),
            ("word", "pass"),
            ("radius", "inconclusive"),
            ("recoloured", "fail"),
            ("wrong_vectors", "fail"),
            ("hand_built", "fail"),
            ("shared", "pass"),
        ],
    )
    def test_streamed_document_matches_the_reference(self, monkeypatch, case, verdict):
        matrix, outcomes = _writer_case(case, monkeypatch)
        text, got, _ = _streamed_document(matrix, outcomes)
        assert got.value == verdict
        assert text == _reference_document(matrix, outcomes)
        if case == "shared":
            first, second = (set(report.signatures) for _, _, report in outcomes)
            assert len(first & second) >= 2
        element = json.loads(text)["elements"][0]
        if case == "identity":
            assert element["arcs"] == 0 and element["report"]["cycles"] == []
        if case == "word":
            assert element["element"]["word"] == [2, 1, 2, 4]
        if case == "radius":
            assert {c["verdict"] for c in element["report"]["cycles"]} == {"pass", "inconclusive"}
        if case == "recoloured":
            assert element["report"]["verdict"] == "fail"
            assert element["arc_checks"]["failures"] == []
        if case == "wrong_vectors":
            assert element["report"]["verdict"] == "pass"
            assert all(f["details"] for f in element["arc_checks"]["failures"])

    def test_no_elements(self):
        matrix = catalog_matrix("A2")
        text, verdict, _ = _streamed_document(matrix, [])
        assert verdict.value == "pass"
        assert text == _reference_document(matrix, [])

    def test_the_first_element_is_not_held(self):
        # its first chunk is written before its second is made
        from coxlab.verify import Verdict

        writes, seen = [], []

        def chunks():
            yield b"first"
            seen.append(b"".join(writes))
            yield b"second"

        matrix = catalog_matrix("A2")
        write_verify_json(lambda b: writes.append(bytes(b)), matrix, [(Verdict.PASS, chunks())])
        assert seen[0].startswith(b'{\n  "matrix": ') and seen[0].endswith(b"[\nfirst")

    def test_the_block_writer_writes_whole_blocks(self):
        # odd pieces of 10 MB + 1 byte in all go out as 4 MB, 4 MB and the
        # rest, through a block that the first write allocates
        import random
        import tracemalloc

        from coxlab.cli import _BlockWriter

        block = 4 << 20
        data = random.Random(0).randbytes(10 * (1 << 20) + 1)
        writes = []
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = _BlockWriter(lambda b: writes.append(bytes(b)), block)
            assert tracemalloc.get_traced_memory()[0] - start < 1 << 16
            sizes = [1, 999_983, 7, block + 3, 65_537]
            offset = k = 0
            while offset < len(data):
                out.write(data[offset : offset + sizes[k % len(sizes)]])
                offset += sizes[k % len(sizes)]
                k += 1
        finally:
            tracemalloc.stop()
        out.flush()
        assert [len(w) for w in writes] == [block, block, len(data) - 2 * block]
        assert b"".join(writes) == data

    def test_a_long_element_is_written_in_chunks(self):
        # H3's longest element has 995 basis cycles: more than one chunk
        import coxlab.cli

        matrix, partition, elements = _all_elements("H3")
        outcomes = [coxlab.cli._verify_one(partition, elements[-1])]
        assert len(outcomes[0][2].cycles) == 995
        text, _, chunks = _streamed_document(matrix, outcomes)
        assert text == _reference_document(matrix, outcomes)
        cycle_chunks = [c for c in chunks if c.lstrip(b",\n").startswith(b"          {")]
        assert len(cycle_chunks) == 2


def _set_cpus(monkeypatch, cpus):
    """Make ``verify`` see ``cpus`` CPUs in its affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _main(monkeypatch, capsys, args, cpus):
    """(exit code, stdout, stderr) of the CLI run in this process on ``cpus`` CPUs."""
    import coxlab.cli

    _set_cpus(monkeypatch, cpus)
    code = coxlab.cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reduced_word_counts(name, max_length=None):
    from coxlab.core import reduced_word_counts

    matrix = catalog_matrix(name)
    return reduced_word_counts(matrix, enumerate_elements(matrix, max_length=max_length))


def _check_failing_element(monkeypatch, capsys, how, index):
    """Element ``index`` of A3 raises, or kills its worker: exit 4 with the
    stdout of the run in this process, and no child left behind."""
    import coxlab.cli

    args = ["verify", "--type", "A3", "--all-elements"]
    target = enumerate_elements(catalog_matrix("A3"))[index]
    real = coxlab.cli._verify_one
    kill = []

    def failing(partition, element, source=None):
        if element == target:
            if kill:
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError("graph is not connected")
        return real(partition, element, source)

    monkeypatch.setattr(coxlab.cli, "_verify_one", failing)
    code, prefix, err = _main(monkeypatch, capsys, args, cpus=1)
    assert code == 4 and "ValueError: graph is not connected" in err
    assert 0 < len(prefix)
    if how == "sigkill":
        kill.append(True)
    code, out, err = _main(monkeypatch, capsys, args, cpus=2)
    assert code == 4
    assert out == prefix
    if how == "sigkill":
        assert f"ended before element {index} was complete: killed by signal 9" in err
    else:
        assert "ValueError: graph is not connected" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestVerifyWorkers:
    @pytest.mark.parametrize(
        "name, max_length",
        [("A3", None), ("B3", None), ("H3", None), ("I2_7", None), ("D4", None), ("B4", 8)],
    )
    def test_worker_counts_give_the_same_document(self, name, max_length):
        # through blocks of 4 096 bytes, so that many chunks read from the
        # workers straddle two blocks
        from coxlab.cli import _BlockWriter, _verify_outcomes

        matrix = catalog_matrix(name)
        partition = pair_classes(matrix)
        elements = [(e, None) for e in enumerate_elements(matrix, max_length=max_length)]
        runs = []
        for workers in (1, 2, 3, 4):
            digest, verdicts = hashlib.sha256(), []
            out = _BlockWriter(digest.update, 4096)

            def recorded():
                for verdict, chunks in _verify_outcomes(partition, elements, workers):
                    verdicts.append(verdict)
                    yield verdict, chunks

            verdict = write_verify_json(out.write, matrix, recorded())
            out.flush()
            runs.append((digest.hexdigest(), verdict, verdicts))
        assert len(runs[0][2]) == len(elements)
        assert all(run == runs[0] for run in runs[1:])

    def test_a_failing_document_through_workers(self, monkeypatch, capsys):
        # the wrong_vectors negative control over every element of A3
        import coxlab.verify

        monkeypatch.setattr(coxlab.verify, "occurrence_ids", _wrong_vector)
        args = ["verify", "--type", "A3", "--all-elements"]
        serial = _main(monkeypatch, capsys, args, cpus=1)
        assert serial[0] == 1 and json.loads(serial[1])["verdict"] == "fail"
        assert _main(monkeypatch, capsys, args, cpus=2) == serial

    def test_the_capped_document_through_workers(self, monkeypatch, capsys, tmp_path):
        # the capped arc law of test_capped_arc_law_bytes_are_pinned
        path = tmp_path / "inf.txt"
        path.write_text(MATRIX_FILES["inf.txt"])
        args = [
            "verify", "--matrix", str(path), "--all-elements",
            "--max-length", "5", "--radius", "2",
        ]
        code, out, err = _main(monkeypatch, capsys, args, cpus=2)
        assert (code, err) == (2, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "456b2429bd7e61c176ca79c26653da6d0a71270f7835db8fc7ccbaef2ec1859b"
        )

    @pytest.mark.parametrize("how", ["raise", "sigkill"])
    def test_a_failing_worker_leaves_the_serial_prefix(self, monkeypatch, capsys, how):
        # element 5 raises, or kills its worker: exit 4 with the stdout of
        # the run in this process, and no child left behind
        _check_failing_element(monkeypatch, capsys, how, 5)

    @pytest.mark.parametrize("how", ["raise", "sigkill"])
    def test_a_failing_w0_leaves_the_serial_prefix(self, monkeypatch, capsys, how):
        # A3's w0, element 23, is dealt before elements 20-22
        _check_failing_element(monkeypatch, capsys, how, 23)

    @pytest.mark.parametrize("cpus, how", [(1, "raise"), (2, "raise"), (2, "sigkill")])
    def test_a_failure_inside_the_first_element_leaves_its_text(
        self, monkeypatch, capsys, cpus, how
    ):
        # the first element is not held: once its first chunk is written, an
        # error or a dead worker leaves the document's opening and that chunk
        import coxlab.cli

        args = ["verify", "--type", "A3", "--all-elements"]
        document = _main(monkeypatch, capsys, args, cpus=1)[1]
        real = coxlab.cli.element_chunks

        def failing(head, report, texts):
            chunks = real(head, report, texts)
            yield next(chunks)
            if head["element"]["length"] == 0:
                if how == "sigkill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ValueError("cannot write the report")
            yield from chunks

        monkeypatch.setattr(coxlab.cli, "element_chunks", failing)
        code, out, err = _main(monkeypatch, capsys, args, cpus)
        assert code == 4
        assert document.startswith(out) and out.endswith('"cycles": [')
        assert out.count('"element": {') == 1
        if how == "sigkill":
            assert "ended before element 0 was complete: killed by signal 9" in err
        else:  # the traceback, in a worker too
            assert "Traceback" in err
            assert err.rstrip("\n").endswith("ValueError: cannot write the report")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_held_element_waits_for_its_turn(self, monkeypatch, capsys):
        # with w0 verified first, its worker holds it, or its traceback,
        # until the elements before it are sent
        import coxlab.cli

        real = coxlab.cli._plan

        def w0_first(counts, workers):
            plans = real(counts, workers)
            for plan in plans:
                if plan[-1] == len(counts) - 1:
                    plan.insert(0, plan.pop())
            return plans

        args = ["verify", "--type", "A3", "--all-elements"]
        document = _main(monkeypatch, capsys, args, cpus=1)
        monkeypatch.setattr(coxlab.cli, "_plan", w0_first)
        assert _main(monkeypatch, capsys, args, cpus=2) == document
        _check_failing_element(monkeypatch, capsys, "raise", 23)

    @pytest.mark.parametrize(
        "name, max_length",
        [("A3", None), ("B3", None), ("H3", None), ("I2_7", None), ("D4", None), ("B4", 10)],
    )
    def test_the_plan_deals_every_element_once(self, name, max_length):
        from coxlab.cli import _plan

        counts = _reduced_word_counts(name, max_length)
        largest = counts.index(max(counts))
        for workers in (2, 3, 4):
            plans = _plan(counts, workers)
            assert sorted(i for plan in plans for i in plan) == list(range(len(counts)))
            for plan in plans:
                rest = [i for i in plan if i != largest]
                assert rest == sorted(rest)

    def test_the_largest_element_is_dealt_before_the_end(self):
        from coxlab.cli import _plan

        # D4's w0 has 2 316 of its 9 719 reduced words; dealt last, it would
        # go on top of an even split of the rest
        counts = _reduced_word_counts("D4")
        loads = sorted(sum(counts[i] for i in plan) for plan in _plan(counts, 2))
        assert counts[-1] == 2316 and loads[1] - loads[0] < 100
        # with no more than workers * largest in all, it is dealt at once
        assert _plan([1, 1, 1, 10], 2) == [[3], [0, 1, 2]]

    @pytest.mark.parametrize("cpus", ["all", "one"])
    def test_a_closed_stdout_exits_four(self, cpus):
        # the reader leaves after one byte: one line on stderr, exit 4, and
        # stderr reaches EOF, so no worker is left holding it
        preexec = None
        if cpus == "one":
            if not hasattr(os, "sched_setaffinity"):
                pytest.skip("no CPU affinity on this platform")
            cpu = min(os.sched_getaffinity(0))
            preexec = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
        proc = subprocess.Popen(
            [sys.executable, "-m", "coxlab", "verify", "--type", "D4", "--all-elements"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=preexec,
        )
        try:
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 4
        assert b"Traceback" not in err and b"Exception ignored" not in err
        assert err == b"error: stdout was closed before the output was complete\n"

    def test_killing_the_parent_leaves_no_worker_holding_its_output(self):
        # the workers stop once their pipe has no reader, so stdout and
        # stderr reach EOF soon after the parent is gone
        proc = subprocess.Popen(
            [sys.executable, "-m", "coxlab", "verify", "--type", "D4", "--all-elements"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.read(1) == b"{"
            proc.kill()
            proc.communicate(timeout=5)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signal.SIGKILL


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

    @pytest.mark.parametrize(
        "rows", ["1 3 3\n3 1 3\n3 3 1", "1 3 inf\n3 1 3\ninf 3 1"], ids=["affine_A2", "inf_bond"]
    )
    def test_props_finishes_on_infinite_groups(self, tmp_path, rows):
        # subword pairs of an infinite group may generate an infinite
        # dihedral group; their sweep must not be walked to the order cap
        path = tmp_path / "m.txt"
        path.write_text(f"rank 3\n{rows}\n")
        result = run_cli("props", "--matrix", str(path), "--samples", "10", timeout=30)
        assert result.returncode == 0
        assert json.loads(result.stdout)["verdict"] == "pass"

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
            ("expr-graph", "--type", "A0", "--word", "", "--length", "2"),
            ("verify", "--type", "A3", "--word", "1 2", "--max-length", "0"),
        ],
    )
    def test_usage_errors_exit_three(self, args):
        result = run_cli(*args)
        assert result.returncode == 3
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args, flag, name",
        [
            (("graph", "--type", "A3", "--word", "1 2"), "--json", "x.json"),
            (("expr-graph", "--type", "A3", "--word", "1 2", "--length", "4"),
             "--dot", "x.dot"),
        ],
    )
    def test_bad_output_path_is_a_usage_error(self, tmp_path, args, flag, name):
        # the output file is opened before anything goes to stdout
        result = run_cli(*args, flag, str(tmp_path / "missing" / name))
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")

    def test_output_path_given_twice_keeps_the_dot(self, tmp_path):
        # the DOT is written after the JSON, so it wins a shared path
        path = tmp_path / "g.txt"
        result = run_cli(
            "graph", "--type", "A3", "--word", "1 2", "--json", str(path), "--dot", str(path)
        )
        assert result.returncode == 0
        assert path.read_text().startswith("digraph")
        assert json.loads(result.stdout)["element"]["word"] == [1, 2]

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

    def test_closure_past_the_length_guard_asks_for_a_radius(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("rank 3\n1 3 inf\n3 1 3\ninf 3 1\n")
        result = run_cli("classes", "--matrix", str(path))
        assert result.returncode == 3
        assert result.stdout == ""
        assert "conjugates exceed length 24; orbit looks infinite" in result.stderr
        assert "rerun with --radius R" in result.stderr

    def test_radius_partition_past_the_search_budget(self):
        # A8 has no Cayley table; at radius 2 the witnesses' Tits searches
        # pass the search budget, which stops the partition in seconds
        result = run_cli("classes", "--type", "A8", "--radius", "2", timeout=60)
        assert result.returncode == 3
        assert result.stdout == ""
        assert (
            "conjugation closure exceeded its search budget of 200000 braid-orbit words; "
            "the radius-2 partition did not finish, rerun with a smaller --radius"
        ) in result.stderr

    @pytest.mark.slow
    def test_closure_past_the_search_budget(self):
        # A8 has no Cayley table and its exact closure runs on Tits' method
        # until the search budget stops it: a usage error with the radius
        # hint, and an inconclusive arc law under a radius partition
        message = "conjugation closure exceeded its search budget of 200000 braid-orbit words"
        result = run_cli("classes", "--type", "A8")
        assert result.returncode == 3
        assert result.stdout == ""
        assert f"{message}; the exact closure did not finish, rerun with --radius R" in result.stderr
        result = run_cli("verify", "--type", "A8", "--word", "1 2 1", "--radius", "1")
        assert result.returncode == 2
        checks = json.loads(result.stdout)["elements"][0]["arc_checks"]
        assert checks["checked"] == 2
        assert [f["details"] for f in checks["failures"]] == [f"cap exceeded: {message}"] * 2

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
            (("classes", "--type", "H4"), 0,
             "af9c4c9d72935e15eda954f22532d3636216a58c9f06dc48c4ca759ceaf3acc9"),
            (("classes", "--type", "F4"), 0,
             "e53fe7490f766dc5cfffd9cc47d55f9758140059bbec5c047ba2fe8ebf5f34e3"),
            (("classes", "--type", "B4", "--radius", "2"), 0,
             "0452f141f83bdfa6ff814d956b704aac573e0c490cd385bddd8a97a1f2277473"),
            (("classes", "--matrix", "inf.txt", "--radius", "2"), 0,
             "426961398a991a6a03f84aebbb364c698a2b6bbbaf7ab348c7f7430ba4340d63"),
            (("classes", "--matrix", "affine_a2.txt", "--radius", "2"), 0,
             "7b59b37cf1eba50bd62adeb764d29ffc26856724274755193dc233b628e0ed97"),
            # the fundamental-cycle basis: 33 958 034 and 4 032 370 bytes, and
            # an expression graph with cycles of lengths 4, 6, 8 and 12
            (("verify", "--type", "D4", "--all-elements"), 0,
             "a12d104d2107aac844f68b0fe638f07c48fd2cc09bd670e422fcec71193e9509"),
            (("verify", "--type", "H3", "--all-elements"), 0,
             "50f5bc9702035b1b2e62af36a686fede0c2344838271be3f613d09bb3d5d2aae"),
            (("expr-graph", "--type", "A4", "--word", "2 1 2 4", "--length", "6"), 0,
             "3035f6043c8bb8cf67c5f4b01f98e7aec360a1adb0e904f0a84f74b9fb3ed72d"),
            # a bond above the order cap (2 674 bytes), F4's bond 4, and arc
            # positions, pairs and colours
            (("verify", "--type", "I2_65", "--word", I2_65_WORD), 0,
             "51711d2b3569693729695253cfa93deeafa1db6f3abd754897f51b6706955cab"),
            (("verify", "--type", "F4", "--word", "1 2 3 2 1 4 3 2"), 0,
             "dd87c6ab67eff6619cb22d09ee55177a1bb363a6ae8bc85cf4d55c2fa3f296f8"),
            (("graph", "--type", "B3", "--word", "1 2 1 2 3 2"), 0,
             "3ead7b4f4e4c685184bf7153dd8878cec4a0e1a28ce88a1d7e3b7c1bd966bcc5"),
            (("invs", "--type", "I2_65", "--word", I2_65_WORD), 0,
             "0bbcf9245013639e6183968573615d1908f8c1aed4db877eaff15c9830e753f0"),
            # the A4 expression graph above under a radius-0 partition: 97 911
            # bytes with 16 inconclusive checks, so the report's non-pass rows
            # are pinned
            (("expr-graph", "--type", "A4", "--word", "2 1 2 4", "--length", "6",
              "--radius", "0"), 2,
             "8604d9bfa1f7b1d4203da3144d73ed790da47b103e6ce3e39a476a31af9d6cba"),
        ],
    )
    def test_output_bytes_are_pinned(self, tmp_path, args, code, digest):
        # a --matrix argument names one of MATRIX_FILES, written to tmp_path
        args = list(args)
        if "--matrix" in args:
            i = args.index("--matrix") + 1
            path = tmp_path / args[i]
            path.write_text(MATRIX_FILES[args[i]])
            args[i] = str(path)
        result = run_cli(*args)
        assert result.returncode == code
        assert hashlib.sha256(result.stdout.encode("utf-8")).hexdigest() == digest

    def test_bond_above_the_order_cap(self):
        # I2(65): the sweep has 65 entries, more than the default order cap
        result = run_cli("verify", "--type", "I2_65", "--word", I2_65_WORD)
        assert result.returncode == 0
        element = json.loads(result.stdout)["elements"][0]
        assert element["arc_checks"] == {"checked": 2, "failures": []}
        invs = run_cli("invs", "--type", "I2_65", "--word", I2_65_WORD)
        assert invs.returncode == 0
        assert json.loads(invs.stdout)["support"] is not None

    def test_capped_arc_law_bytes_are_pinned(self, tmp_path):
        # the closure of this infinite group hits its cap, so every arc
        # check is inconclusive
        path = tmp_path / "m.txt"
        path.write_text("rank 3\n1 3 inf\n3 1 3\ninf 3 1\n")
        result = run_cli(
            "verify", "--matrix", str(path), "--all-elements",
            "--max-length", "5", "--radius", "2",
        )
        assert result.returncode == 2
        assert hashlib.sha256(result.stdout.encode("utf-8")).hexdigest() == (
            "456b2429bd7e61c176ca79c26653da6d0a71270f7835db8fc7ccbaef2ec1859b"
        )

    def test_internal_error_exits_four(self, monkeypatch, capsys):
        import coxlab.cli

        def broken(graph, partition):
            raise ValueError("graph is not connected")

        monkeypatch.setattr(coxlab.cli, "verify_parity", broken)
        assert coxlab.cli.main(["verify", "--type", "A3", "--word", "1 2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ValueError: graph is not connected" in captured.err

    def test_internal_error_after_the_first_element(self, monkeypatch, capsys):
        # the first element is already written: stdout is a strict prefix of
        # the document, the traceback goes to stderr and the exit code is 4
        import coxlab.cli

        args = ["verify", "--type", "A3", "--all-elements"]
        assert coxlab.cli.main(args) == 0
        document = capsys.readouterr().out
        real = coxlab.cli.verify_parity
        calls = []

        def broken_second(graph, partition):
            calls.append(graph)
            if len(calls) == 2:
                raise ValueError("graph is not connected")
            return real(graph, partition)

        monkeypatch.setattr(coxlab.cli, "verify_parity", broken_second)
        assert coxlab.cli.main(args) == 4
        captured = capsys.readouterr()
        assert "ValueError: graph is not connected" in captured.err
        assert 0 < len(captured.out) < len(document)
        assert document.startswith(captured.out)

    def test_verify_writes_whole_blocks(self, monkeypatch, capsys):
        # every write but the last is one whole block; the bytes are those of
        # a single block, from this process and from two workers.  A write's
        # argument is a view of the block the next write reuses: keep a copy
        import coxlab.cli

        args = ["verify", "--type", "A3", "--all-elements"]
        assert coxlab.cli.main(args) == 0
        document = capsys.readouterr().out
        writes = []
        monkeypatch.setattr(coxlab.cli, "_VERIFY_BLOCK", 4096)
        monkeypatch.setattr(sys.stdout.buffer, "write", lambda b: writes.append(bytes(b)))
        for cpus in (1, 2):
            writes.clear()
            _set_cpus(monkeypatch, cpus)
            assert coxlab.cli.main(args) == 0
            assert b"".join(writes) == document.encode()
            assert len(writes) > 2
            assert all(len(w) == 4096 for w in writes[:-1])
            assert 0 < len(writes[-1])

    @pytest.mark.slow
    def test_b4_all_elements_streams_under_one_gigabyte(self, tmp_path):
        # 744 148 343 bytes: memory follows the largest element's graph,
        # not the document; ru_maxrss is in kilobytes on Linux
        with open(tmp_path / "stderr.txt", "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "coxlab", "verify", "--type", "B4", "--all-elements"],
                stdout=subprocess.PIPE, stderr=stderr,
            )
            digest = hashlib.sha256()
            size = 0
            for block in iter(lambda: proc.stdout.read(1 << 20), b""):
                digest.update(block)
                size += len(block)
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0, (tmp_path / "stderr.txt").read_text()
        assert size == 744148343
        assert digest.hexdigest() == (
            "970fb157ad72044f06c11ce29b78e1f720f47c2154d4391733a3baf50891793d"
        )
        assert usage.ru_maxrss < 1024 * 1024

    @pytest.mark.slow
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc")
    def test_b4_longest_element_streams_in_process(self, tmp_path):
        # one element of 216 127 909 bytes, verified and written in process:
        # it is streamed, not held.  The wrapper reports its own VmHWM, as
        # ru_maxrss of a child may carry the high-water mark of its spawner
        wrapper = (
            "import sys\n"
            "from coxlab.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "sys.stdout.flush()\n"
            "with open('/proc/self/status') as status:\n"
            "    sys.stderr.write(next(l for l in status if l.startswith('VmHWM:')))\n"
            "sys.exit(code)\n"
        )
        word = "1 2 1 2 3 2 1 2 3 4 3 2 1 2 3 4"
        with open(tmp_path / "stderr.txt", "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-c", wrapper, "verify", "--type", "B4", "--word", word],
                stdout=subprocess.PIPE, stderr=stderr,
            )
            digest = hashlib.sha256()
            size = 0
            for block in iter(lambda: proc.stdout.read(1 << 20), b""):
                digest.update(block)
                size += len(block)
            proc.stdout.close()
            proc.wait()
        err = (tmp_path / "stderr.txt").read_text()
        assert proc.returncode == 0, err
        assert size == 216127909
        assert digest.hexdigest() == (
            "ec21c3aeb8bab7d0794b0c6069220e46e10993bbee17b7e73d2fe7661da35f64"
        )
        hwm_kb = int(re.search(r"^VmHWM:\s+(\d+) kB$", err, re.M).group(1))
        assert hwm_kb * 1024 < 160e6

    def test_verdict_exit_mapping(self):
        from coxlab.cli import (
            EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_INTERNAL, EXIT_PASS, EXIT_USAGE, _verdict_exit,
        )
        from coxlab import Verdict

        assert _verdict_exit(Verdict.PASS) == EXIT_PASS == 0
        assert _verdict_exit(Verdict.FAIL) == EXIT_FAIL == 1
        assert _verdict_exit(Verdict.INCONCLUSIVE) == EXIT_INCONCLUSIVE == 2
        assert (EXIT_USAGE, EXIT_INTERNAL) == (3, 4)
