"""Command-line front end.

Exit codes: 0 when everything passes, 1 on any failed check, 2 when the
worst outcome is inconclusive, 3 on usage or input errors, 4 on internal
errors.  Output is deterministic JSON on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from contextlib import ExitStack

from .braid_graph import (
    ElementCapExceeded,
    expression_graph,
    pair_classes,
    reduced_graph,
)
from .catalog import catalog_matrix
from .core import CapExceededError, CoxeterMatrix, enumerate_elements, reduce_word
from .inversions import inversion_word, occurrence_vector
from .serialize import (
    MatrixFileError,
    dump_json,
    element_to_json,
    graph_to_dot,
    graph_to_json,
    matrix_to_json,
    parity_report_to_json,
    parse_matrix_text,
    parse_surface_word,
    partition_to_json,
    step_results_to_json,
    surface_word,
    write_verify_json,
)
from .verify import (
    Verdict,
    property_harness,
    verify_arc_steps,
    verify_parity,
    worst,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


def _verdict_exit(verdict: Verdict) -> int:
    if verdict is Verdict.PASS:
        return EXIT_PASS
    if verdict is Verdict.FAIL:
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


def _load_matrix(args) -> CoxeterMatrix:
    if args.type and args.matrix:
        raise UsageError("choose one of --type or --matrix")
    if args.type:
        try:
            return catalog_matrix(args.type)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if args.matrix:
        try:
            with open(args.matrix, "r", encoding="utf-8") as handle:
                return parse_matrix_text(handle.read())
        except (OSError, MatrixFileError, ValueError) as exc:
            raise UsageError(f"cannot read matrix file: {exc}") from exc
    raise UsageError("one of --type or --matrix is required")


def _parse_word(text: str, matrix: CoxeterMatrix):
    try:
        return parse_surface_word(text, matrix)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _partition(matrix: CoxeterMatrix, radius: int | None):
    try:
        return pair_classes(matrix, radius=radius)
    except ElementCapExceeded as exc:
        raise UsageError(
            f"{exc}; the exact closure did not finish, rerun with --radius R"
        ) from exc


def _count(text: str) -> int:
    """argparse type for counts: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_matrix_args(parser):
    parser.add_argument("--type", help="catalog type, e.g. A3, B4, I2_7, H3")
    parser.add_argument("--matrix", help="path to a matrix file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxlab",
        description="Coxeter-group braid-move graphs and their parity laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", help="conjugacy classes of generator pairs")
    _add_matrix_args(p)
    p.add_argument("--radius", type=_count, default=None,
                   help="bounded conjugation radius (provisional classes)")

    p = sub.add_parser("graph", help="graph of the reduced expressions of a word")
    _add_matrix_args(p)
    p.add_argument("--word", required=True, help="1-indexed letters, e.g. '2 1 2 4'")
    p.add_argument("--dot", help="write DOT to this file")
    p.add_argument("--json", help="write JSON to this file")
    p.add_argument("--radius", type=_count, default=None)

    p = sub.add_parser("verify", help="run the arc and cycle checks")
    _add_matrix_args(p)
    p.add_argument("--word", help="verify the element of this word")
    p.add_argument("--all-elements", action="store_true",
                   help="verify every element (finite groups, or with --max-length)")
    p.add_argument("--max-length", type=_count, default=None)
    p.add_argument("--radius", type=_count, default=None)

    p = sub.add_parser("invs", help="inversion word and occurrence-vector support")
    _add_matrix_args(p)
    p.add_argument("--word", required=True)

    p = sub.add_parser("expr-graph", help="bounded non-reduced expression explorer")
    _add_matrix_args(p)
    p.add_argument("--word", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--dot", help="write DOT to this file")
    p.add_argument("--json", help="write JSON to this file")
    p.add_argument("--radius", type=_count, default=None)

    p = sub.add_parser("props", help="randomized property suites")
    _add_matrix_args(p)
    p.add_argument("--samples", type=_count, default=1000)
    p.add_argument("--seed", type=int, default=0)

    return parser


def cmd_classes(args) -> int:
    matrix = _load_matrix(args)
    partition = _partition(matrix, args.radius)
    payload = {"matrix": matrix_to_json(matrix)}
    payload.update(partition_to_json(partition))
    sys.stdout.write(dump_json(payload))
    return EXIT_PASS


def _write_graph(args, graph, partition, word, report) -> None:
    """A graph document to stdout and --json, the graph as DOT to --dot.

    The output files are opened before stdout is written, so a bad path is
    a usage error that leaves stdout empty.
    """
    payload = graph_to_json(graph, partition)
    payload["element"] = element_to_json(graph.element, source=word)
    payload["report"] = None if report is None else parity_report_to_json(report)
    text = dump_json(payload)
    outputs = {}
    if args.json:
        outputs[args.json] = text
    if args.dot:
        outputs[args.dot] = graph_to_dot(graph)  # DOT wins a path given twice
    with ExitStack() as stack:
        try:
            handles = [
                (stack.enter_context(open(path, "w", encoding="utf-8")), content)
                for path, content in outputs.items()
            ]
        except OSError as exc:
            raise UsageError(f"cannot write output file: {exc}") from exc
        sys.stdout.write(text)
        for handle, content in handles:
            handle.write(content)


def cmd_graph(args) -> int:
    matrix = _load_matrix(args)
    word = _parse_word(args.word, matrix)
    partition = _partition(matrix, args.radius)
    element = reduce_word(word, matrix)
    graph = reduced_graph(element, partition)
    _write_graph(args, graph, partition, word, None)
    return EXIT_PASS


def _verify_one(partition, element, source=None):
    """(verdict, the element's keys before "report", its parity report)."""
    graph = reduced_graph(element, partition)
    arc_verdict, results = verify_arc_steps(graph)
    report = verify_parity(graph, partition)
    head = {
        "element": element_to_json(element, source=source),
        "vertices": len(graph.vertices),
        "arcs": len(graph.arcs),
        "arc_checks": step_results_to_json(results),
    }
    return worst((arc_verdict, report.verdict)), head, report


# The verify document goes out in blocks of about this many characters: a
# reader on a pipe is woken once per block, not once per 8 KB of stdout's
# buffer, so the verifier does not wait on it between elements.
_VERIFY_BLOCK = 1 << 22


class _BlockWriter:
    """``write`` called with blocks of at least ``size`` characters."""

    def __init__(self, write, size: int):
        self._write = write
        self._size = size
        self._pending: list[str] = []
        self._length = 0

    def write(self, text: str) -> None:
        self._pending.append(text)
        self._length += len(text)
        if self._length >= self._size:
            self.flush()

    def flush(self) -> None:
        if self._pending:
            # the pieces go before the write, which may wait on the reader
            block = "".join(self._pending)
            self._pending.clear()
            self._length = 0
            self._write(block)


def cmd_verify(args) -> int:
    matrix = _load_matrix(args)
    if bool(args.word is not None) == bool(args.all_elements):
        raise UsageError("choose exactly one of --word or --all-elements")
    if args.max_length is not None and not args.all_elements:
        raise UsageError("--max-length bounds --all-elements; pass it with --all-elements")
    partition = _partition(matrix, args.radius)
    if args.word is not None:
        word = _parse_word(args.word, matrix)
        elements = [(reduce_word(word, matrix), word)]
    else:
        try:
            listed = enumerate_elements(matrix, max_length=args.max_length)
        except CapExceededError as exc:
            raise UsageError(
                f"{exc}; pass --max-length L to bound the enumeration"
            ) from exc
        elements = [(e, None) for e in listed]
    # one element's graph and report are alive at a time
    outcomes = (_verify_one(partition, e, w) for e, w in elements)
    out = _BlockWriter(sys.stdout.write, _VERIFY_BLOCK)
    try:
        verdict = write_verify_json(out.write, matrix, outcomes)
    finally:
        out.flush()  # after an error, what was written before it
    return _verdict_exit(verdict)


def cmd_invs(args) -> int:
    matrix = _load_matrix(args)
    word = _parse_word(args.word, matrix)
    inv = inversion_word(word, matrix)
    payload = {
        "matrix": matrix_to_json(matrix),
        "word": surface_word(word),
        "inversion_word": [surface_word(r.element.word) for r in inv.entries],
    }
    element = reduce_word(word, matrix)
    if element.length == len(word):
        try:
            vec = occurrence_vector(word, matrix)
            payload["support"] = [
                {"u": surface_word(u), "v": surface_word(v), "value": 1}
                for u, v in sorted(vec)
            ]
        except CapExceededError as exc:
            payload["support"] = None
            payload["support_error"] = str(exc)
    else:
        payload["support"] = None
        payload["support_error"] = "word is not reduced"
    sys.stdout.write(dump_json(payload))
    return EXIT_PASS


def cmd_expr_graph(args) -> int:
    matrix = _load_matrix(args)
    word = _parse_word(args.word, matrix)
    partition = _partition(matrix, args.radius)
    element = reduce_word(word, matrix)
    try:
        graph = expression_graph(element, args.length, partition)
    except ValueError as exc:  # wrong parity, or padding in rank 0
        raise UsageError(str(exc)) from exc
    report = verify_parity(graph, partition)
    _write_graph(args, graph, partition, word, report)
    return _verdict_exit(report.verdict)


def cmd_props(args) -> int:
    matrix = _load_matrix(args)
    report = property_harness(matrix, samples=args.samples, seed=args.seed)
    payload = {
        "matrix": matrix_to_json(matrix),
        "samples": report.samples,
        "seed": report.seed,
        "checks": {name: count for name, count in sorted(report.checks.items())},
        "failures": [
            {"property": f.name, "witness": f.witness} for f in report.failures
        ],
        "verdict": "pass" if report.passed else "fail",
    }
    sys.stdout.write(dump_json(payload))
    return EXIT_PASS if report.passed else EXIT_FAIL


_COMMANDS = {
    "classes": cmd_classes,
    "graph": cmd_graph,
    "verify": cmd_verify,
    "invs": cmd_invs,
    "expr-graph": cmd_expr_graph,
    "props": cmd_props,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
