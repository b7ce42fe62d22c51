"""Command-line front end.

Exit codes: 0 when everything passes, 1 on any failed check, 2 when the
worst outcome is inconclusive, 3 on usage or input errors, 4 on internal
errors and when stdout is closed before the output is complete.  Output
is deterministic JSON on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import heapq
import os
import struct
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
from .core import (
    CapExceededError,
    CoxeterMatrix,
    enumerate_elements,
    reduce_word,
    reduced_word_counts,
)
from .inversions import inversion_word, occurrence_vector
from .serialize import (
    MatrixFileError,
    dump_json,
    element_chunks,
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


class WorkerError(Exception):
    """A verify worker failed; the message is what stderr shows."""


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
        if radius is None:
            hint = "the exact closure did not finish, rerun with --radius R"
        else:
            hint = f"the radius-{radius} partition did not finish, rerun with a smaller --radius"
        raise UsageError(f"{exc}; {hint}") from exc


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
    """(verdict, the element's keys before "report", its parity report).

    Holds the graph, then the arc results or the cycle basis, never both.
    """
    graph = reduced_graph(element, partition)
    arc_verdict, results = verify_arc_steps(graph)
    head = {
        "element": element_to_json(element, source=source),
        "vertices": len(graph.vertices),
        "arcs": len(graph.arcs),
        "arc_checks": step_results_to_json(results),
    }
    del results
    report = verify_parity(graph, partition)
    return worst((arc_verdict, report.verdict)), head, report


# After its first element, the verify document goes out in blocks of up to
# this many bytes: one write call per 4 MB, and a verifying process that
# does not stop for the reader between elements.  The first block has only
# _FIRST_BLOCK bytes and each next one twice the last, so the elements after
# the first also reach the reader early.
_VERIFY_BLOCK = 1 << 22
_FIRST_BLOCK = 1 << 16


class _BlockWriter:
    """Bytes passed on to ``write`` in whole blocks, the last one (from
    ``flush``) possibly shorter.  The first block has ``_FIRST_BLOCK``
    bytes, or ``size`` if that is less; each next one twice the last, up
    to ``size`` bytes, the size of every block after that.

    Every write is copied into one block of ``size`` bytes, allocated at
    the first write, and ``write`` is given views of it, each valid until
    the next block; so this holds ``size`` bytes, whatever it is given.
    ``bytearray`` fills the block with zeros, so a block allocated before a
    fork is resident in every forked process: verify writes to this only
    after its workers are forked.
    """

    def __init__(self, write, size: int):
        self._write = write
        self._size = size
        self._limit = min(_FIRST_BLOCK, size)
        self._block: memoryview | None = None
        self._fill = 0

    def write(self, data) -> None:
        if self._block is None:
            self._block = memoryview(bytearray(self._size))
        data = memoryview(data)
        while data:
            count = min(len(data), self._limit - self._fill)
            self._block[self._fill : self._fill + count] = data[:count]
            data = data[count:]
            self._fill += count
            if self._fill == self._limit:
                self._fill = 0
                self._write(self._block[: self._limit])
                self._limit = min(2 * self._limit, self._size)

    def flush(self) -> None:
        if self._fill:
            block, self._fill = self._block[: self._fill], 0
            self._write(block)


# A verify worker sends framed messages: a kind byte, the payload's length,
# the payload.  Per element: b"V" and the verdict, b"C" and each chunk of
# its text, b"E" at its end; b"X" and a traceback when the worker fails.
_FRAME = struct.Struct("<cQ")
# Each worker's pipe holds this much: with the default 64 KiB the parent
# and the workers take turns on every 64 KiB, and nothing overlaps.
_PIPE_SIZE = 1 << 20
# The parent reads the workers' chunks through a buffer of this many bytes,
# then copies them into the output block.
_RELAY_BUFFER = 1 << 16


def _outcomes(partition, elements, order):
    """``(verdict, chunks)`` per element of ``order``, in element order.

    The elements are verified in ``order``.  One verified before an element
    with a smaller index is held until its turn as ``(verdict, head,
    report)``, or as the exception it raised, with that exception's frames
    cleared so that no graph stays alive; the exception is raised at its
    turn.  The chunks are those of ``element_chunks``, encoded, with one
    memo of signature texts for all the elements, and each is to be written
    before the next is asked for.
    """
    due = iter(sorted(order))
    turn = next(due, None)
    held = {}
    texts = {}
    for index in order:
        try:
            held[index] = _verify_one(partition, *elements[index])
        except Exception as exc:
            traceback.clear_frames(exc.__traceback__)
            held[index] = exc
        while turn in held:
            outcome = held.pop(turn)
            turn = next(due, None)
            if isinstance(outcome, Exception):
                raise outcome
            verdict, head, report = outcome
            del outcome
            yield verdict, map(str.encode, element_chunks(head, report, texts))
            del head, report  # so the next element is computed without this one


def _verify_outcomes(partition, elements, workers: int, start: int):
    """``(verdict, chunks)`` per element from ``start`` on, in element order.

    With more than one worker and element to verify, and ``os.fork``, they
    are verified in n = min(workers, elements) processes
    (``_forked_outcomes``); otherwise here, as ``_outcomes`` in index order.
    ``cmd_verify`` writes element 0 before this forks, and starts this at 1.
    """
    workers = min(workers, len(elements) - start)
    if workers > 1 and hasattr(os, "fork"):
        return _forked_outcomes(partition, elements, workers, start)
    return _outcomes(partition, elements, range(start, len(elements)))


def _plan(counts: list[int], workers: int) -> list[list[int]]:
    """Each worker's element indices, in the order it verifies them.

    ``counts`` holds each element's |R(w)|, its graph's vertex count.  The
    elements are dealt out in index order, each to the worker with the
    fewest reduced words planned so far (Graham's list scheduling), except
    the largest, w0 in a finite group: it is dealt once the elements before
    it hold total - workers * largest reduced words (at once when that is
    not positive, and never after its own index), so that the rest fill the
    other workers while one verifies it.  Dealt any earlier, it would leave
    one worker alone on the first elements; any later, alone at the end.
    """
    count = len(counts)
    largest = max(range(count), key=counts.__getitem__)
    threshold = sum(counts) - workers * counts[largest]
    start, before = 0, 0
    while start < largest and before < threshold:
        before += counts[start]
        start += 1
    order = [*range(start), largest, *range(start, largest), *range(largest + 1, count)]
    loads = [(0, k) for k in range(workers)]  # a heap: the least load, then k
    plans: list[list[int]] = [[] for _ in range(workers)]
    for index in order:
        load, k = loads[0]
        plans[k].append(index)
        heapq.heapreplace(loads, (load + counts[index], k))
    return plans


def _send(pipe: int, kind: bytes, payload: bytes = b"") -> None:
    """One frame on ``pipe``, its header and payload in one ``os.writev``."""
    header = _FRAME.pack(kind, len(payload))
    sent = os.writev(pipe, (header, payload))
    if sent < len(header) + len(payload):  # a signal cut the write short
        rest = memoryview(header + payload)[sent:]
        while rest:
            rest = rest[os.write(pipe, rest) :]


def _worker(partition, elements, plan: list[int], pipe: int, inherited: list[int]):
    """Send ``_outcomes`` of ``plan`` as frames on ``pipe``; never returns.

    Each frame goes to the pipe as it is made, with no buffer in between,
    so a worker holds one chunk of text at a time.  An exception, from
    verifying an element or from writing its text, is sent as a b"X" frame
    with its traceback and ends the worker.  The worker first closes the
    ``inherited`` read ends, so that each pipe reaches EOF when its own
    worker ends and a write fails once the parent is gone, and points
    stdout at /dev/null: the parent's stdout is not its to write.
    """
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.close(null)
        try:
            for verdict, chunks in _outcomes(partition, elements, plan):
                _send(pipe, b"V", verdict.value.encode())
                for chunk in chunks:
                    _send(pipe, b"C", chunk)
                _send(pipe, b"E")
        except Exception:  # the parent reports it at this element's turn
            _send(pipe, b"X", traceback.format_exc().rstrip("\n").encode())
        else:
            status = 0
    finally:
        os._exit(status)  # no atexit handler, finalizer or stdio flush here


def _forked_outcomes(partition, elements, workers: int, start: int):
    """``_verify_outcomes`` from ``workers`` forked processes.

    The plan is ``_plan`` of the reduced-word counts of the elements from
    ``start`` on, and the pipes are read in element order.  Each chunk is
    read through one buffer of ``_RELAY_BUFFER`` bytes, allocated after the
    workers are forked, and yielded as views of it, each valid until the
    next is asked for.  A worker's exception is raised here as a
    ``WorkerError`` at that element's turn, as is a worker that ended
    without finishing its element, after what it sent of it; after any
    error or interrupt the workers left are killed.  Every worker is reaped.
    """
    import fcntl  # POSIX, as os.fork is
    import signal

    matrix = elements[0][0].matrix
    # reduced_word_counts needs the whole list, closed under removing a
    # right descent; only the elements from start on are dealt out
    counts = reduced_word_counts(matrix, [e for e, _ in elements])[start:]
    plans = [[start + i for i in plan] for plan in _plan(counts, workers)]
    owner = [0] * len(elements)
    for k, plan in enumerate(plans):
        for index in plan:
            owner[index] = k
    pids: list[int | None] = []
    readers = []
    finished = False

    def ended(k: int, index: int):
        pid, pids[k] = pids[k], None
        _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise WorkerError(
            f"verify worker {k} (pid {pid}) ended before element {index} was complete: {how}"
        )

    def read(k: int, index: int, size: int) -> bytes:
        data = readers[k].read(size)
        if len(data) < size:
            ended(k, index)
        return data

    def frame(k: int, index: int) -> tuple[bytes, int]:
        """The next frame's kind and payload size; a b"X" frame is raised."""
        kind, size = _FRAME.unpack(read(k, index, _FRAME.size))
        if kind == b"X":
            raise WorkerError(read(k, index, size).decode())
        return kind, size

    def chunks(k: int, index: int):
        while True:
            kind, size = frame(k, index)
            if kind == b"E":
                return
            while size:
                count = readers[k].readinto(buffer[:size])
                if not count:
                    ended(k, index)
                yield buffer[:count]
                size -= count

    try:
        for k, plan in enumerate(plans):
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            try:
                fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, _PIPE_SIZE)
            except (AttributeError, OSError):
                pass  # the default size works, only with less overlap
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(
                        partition, elements, plan, write_end,
                        [reader.fileno() for reader in readers],
                    )
            finally:
                os.close(write_end)
            pids.append(pid)
        buffer = memoryview(bytearray(_RELAY_BUFFER))
        for index, k in enumerate(owner[start:], start):
            _, size = frame(k, index)
            yield Verdict(read(k, index, size).decode()), chunks(k, index)
        finished = True
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            if pid is not None:
                if not finished:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


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
    # one worker per CPU this process may run on, so `taskset` bounds them
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    sys.stdout.flush()  # the document goes to the bytes under it
    stdout = sys.stdout.buffer
    out = _BlockWriter(stdout.write, _VERIFY_BLOCK)
    write = stdout.write

    def outcomes():
        # the opening and element 0 reach the reader before any fork; the
        # rest go through the block, allocated at its first write, after
        # the fork, so that no worker holds its pages
        nonlocal write
        yield from _outcomes(partition, elements, range(1))
        stdout.flush()
        write = out.write
        yield from _verify_outcomes(partition, elements, cpus, 1)

    verified = outcomes()
    try:
        verdict = write_verify_json(lambda data: write(data), matrix, verified)
    finally:
        verified.close()  # after an error, stops and reaps the workers
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
    from .props import property_harness  # imported by this command alone

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
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so that a reader gone before the end is caught here
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # what stdout still buffers goes nowhere, so the interpreter's last
        # flush raises nothing
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.close(null)
        print("error: stdout was closed before the output was complete", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
