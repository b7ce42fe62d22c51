"""Matrix files, JSON reports and DOT export.

Matrix file format: a first line ``rank n`` followed by n lines of n
whitespace-separated tokens, each a positive integer or ``inf``.
Generators are 1-indexed on every textual surface (words, pairs, DOT
labels) and 0-indexed internally.  All emitters are deterministic:
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator, Sequence

from .braid_graph import BraidGraph, PairClassPartition
from .core import CoxeterMatrix, Element, INFINITY, Word, validate_matrix
from .verify import CheckRow, CycleParityReport, StepResult, Verdict, worst


class MatrixFileError(ValueError):
    pass


def parse_matrix_text(text: str) -> CoxeterMatrix:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MatrixFileError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "rank":
        raise MatrixFileError(f"expected 'rank n' header, got {lines[0]!r}")
    try:
        rank = int(header[1])
    except ValueError as exc:
        raise MatrixFileError(f"bad rank {header[1]!r}") from exc
    if rank < 0:
        raise MatrixFileError("rank must be >= 0")
    if len(lines) != rank + 1:
        raise MatrixFileError(f"expected {rank} matrix rows, got {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != rank:
            raise MatrixFileError(f"expected {rank} entries in row {line!r}")
        row: list[int | float] = []
        for token in tokens:
            if token == "inf":
                row.append(INFINITY)
            else:
                try:
                    row.append(int(token))
                except ValueError as exc:
                    raise MatrixFileError(f"bad entry {token!r}") from exc
        rows.append(row)
    return validate_matrix(rows)


def matrix_to_text(matrix: CoxeterMatrix) -> str:
    lines = [f"rank {matrix.rank}"]
    for row in matrix.entries:
        lines.append(" ".join("inf" if v == INFINITY else str(v) for v in row))
    return "\n".join(lines) + "\n"


def matrix_to_json(matrix: CoxeterMatrix) -> dict:
    return {
        "rank": matrix.rank,
        "entries": [
            ["inf" if v == INFINITY else int(v) for v in row] for row in matrix.entries
        ],
    }


def surface_word(word: Word) -> list[int]:
    """0-indexed internal word -> 1-indexed surface word."""
    return [letter + 1 for letter in word]


def parse_surface_word(text: str, matrix: CoxeterMatrix) -> Word:
    """Parse a 1-indexed word like '2 1 2 4' (empty string = identity)."""
    tokens = text.split()
    word = []
    for token in tokens:
        try:
            letter = int(token)
        except ValueError as exc:
            raise ValueError(f"bad word letter {token!r}") from exc
        if not 1 <= letter <= matrix.rank:
            raise ValueError(f"letter {letter} out of range 1..{matrix.rank}")
        word.append(letter - 1)
    return tuple(word)


def element_to_json(element: Element, source: Word | None = None) -> dict:
    out = {}
    if source is not None:
        out["word"] = surface_word(source)
    out["canonical"] = surface_word(element.word)
    out["length"] = element.length
    return out


def partition_to_json(partition: PairClassPartition) -> dict:
    classes = []
    for cls in partition.classes:
        classes.append(
            {
                "id": cls.index,
                "pairs": [[s + 1, t + 1] for (s, t) in cls.pairs],
                "status": "exact" if cls.exact else f"provisional_radius_{cls.radius}",
                "witnesses": {
                    f"{s + 1},{t + 1}": surface_word(q.word)
                    for (s, t), q in sorted(cls.witnesses.items())
                },
            }
        )
    return {"classes": classes, "exact": partition.exact}


def graph_to_json(graph: BraidGraph, partition: PairClassPartition) -> dict:
    return {
        "matrix": matrix_to_json(graph.matrix),
        "element": element_to_json(graph.element),
        "mode": graph.mode,
        "expression_length": graph.expression_length,
        "vertices": [surface_word(w) for w in graph.vertices],
        "arcs": [
            {
                "from": arc.source,
                "to": arc.target,
                "pair": [arc.pair[0] + 1, arc.pair[1] + 1],
                "position": arc.position,
                "class": arc.color,
            }
            for arc in graph.arcs
        ],
        "classes": partition_to_json(partition)["classes"],
    }


def parity_report_to_json(report: CycleParityReport) -> dict:
    """The report as a dict; the cycles of a signature share its checks."""
    checks = [
        [
            {
                "class": class_id,
                "op_class": op_id,
                "count": count,
                "op_count": op_count,
                "verdict": verdict.value,
            }
            for class_id, op_id, count, op_count, verdict in rows
        ]
        for rows in report.signatures
    ]
    verdicts = [worst(row[-1] for row in rows).value for rows in report.signatures]
    cycles = [
        {
            "index": index,
            "arcs": list(cycle),
            "length": len(cycle),
            "checks": checks[k],
            "verdict": verdicts[k],
        }
        for index, (cycle, k) in enumerate(zip(report.cycles, report.cycle_signatures))
    ]
    return {
        "mode": report.graph_mode,
        "exploratory": report.exploratory,
        "exact_partition": report.exact_partition,
        "cycles": cycles,
        "verdict": report.verdict.value,
    }


def step_results_to_json(results: Sequence[tuple[int, StepResult]]) -> dict:
    failures = [
        {"arc": i, "verdict": res.verdict.value, "details": res.details}
        for i, res in results
        if res.verdict is not Verdict.PASS
    ]
    return {"checked": len(results), "failures": failures}


_DOT_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def graph_to_dot(graph: BraidGraph, name: str = "braid_graph") -> str:
    """DOT digraph; arc labels carry the fine pair, colors the class id."""
    lines = [f"digraph {name} {{"]
    lines.append("  rankdir=LR;")
    for i, word in enumerate(graph.vertices):
        label = " ".join(str(letter) for letter in surface_word(word)) or "e"
        lines.append(f'  v{i} [label="{label}"];')
    for arc in graph.arcs:
        color = _DOT_PALETTE[arc.color % len(_DOT_PALETTE)]
        label = f"({arc.pair[0] + 1},{arc.pair[1] + 1})"
        lines.append(
            f'  v{arc.source} -> v{arc.target} '
            f'[label="{label}" color="{color}" fontcolor="{color}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _nested(obj, depth: int) -> str:
    """``json.dumps(obj, indent=2)`` as it reads ``depth`` levels deep.

    Re-indenting by newline is exact: an encoded JSON string never holds a
    raw newline.
    """
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth)


def _members(obj: dict, depth: int) -> str:
    """The ``"key": value,`` lines of a dict nested ``depth`` levels deep."""
    pad = "  " * depth
    return "".join(f"{pad}{json.dumps(k)}: {_nested(v, depth)},\n" for k, v in obj.items())


# Cycles are written this many at a time: the longest B4 element alone is
# 216 MB of text, so an element is never one string.
_CYCLES_PER_CHUNK = 512
_ARC_SEPARATOR = ",\n" + " " * 14


def _signature_text(rows: tuple[CheckRow, ...]) -> str:
    """A cycle's ``checks`` and ``verdict`` members for one signature."""
    checks_text = "[]"
    if rows:
        checks_text = "[\n" + ",\n".join(
            "              {\n"
            f'                "class": {class_id},\n'
            f'                "op_class": {op_id},\n'
            f'                "count": {count},\n'
            f'                "op_count": {op_count},\n'
            f'                "verdict": "{verdict.value}"\n'
            "              }"
            for class_id, op_id, count, op_count, verdict in rows
        ) + "\n            ]"
    return (
        f'            "checks": {checks_text},\n'
        f'            "verdict": "{worst(row[-1] for row in rows).value}"\n'
    )


def _cycle_text(index: int, arcs: tuple[int, ...], signature_text: str) -> str:
    """One entry of a verify document's ``cycles`` list, indented in place."""
    arcs_text = "[]"
    if arcs:
        arcs_text = "[\n              " + _ARC_SEPARATOR.join(map(str, arcs)) + "\n            ]"
    return (
        "          {\n"
        f'            "index": {index},\n'
        f'            "arcs": {arcs_text},\n'
        f'            "length": {len(arcs)},\n'
        + signature_text
        + "          }"
    )


def element_chunks(
    head: dict, report: CycleParityReport, texts: dict[tuple[CheckRow, ...], str]
) -> Iterator[str]:
    """One entry of a verify document's ``elements`` list, in chunks.

    ``head`` holds the entry's keys before ``"report"``; the report is
    written as ``parity_report_to_json`` gives it, without building it.
    Each signature's checks are formatted once and shared by its cycles:
    ``texts`` maps a signature's rows to that text and keeps it across
    calls, so that a verify run, which passes one dict to all its elements,
    formats each distinct table once.
    """
    summary = {
        "mode": report.graph_mode,
        "exploratory": report.exploratory,
        "exact_partition": report.exact_partition,
    }
    yield (
        "    {\n" + _members(head, 3)
        + '      "report": {\n' + _members(summary, 4)
        + '        "cycles": ['
    )
    signature_texts = []
    for rows in report.signatures:
        text = texts.get(rows)
        if text is None:
            text = texts[rows] = _signature_text(rows)
        signature_texts.append(text)
    cycles, cycle_signatures = report.cycles, report.cycle_signatures
    count = len(cycles)
    for start in range(0, count, _CYCLES_PER_CHUNK):
        yield ("\n" if start == 0 else ",\n") + ",\n".join(
            _cycle_text(index, cycles[index], signature_texts[cycle_signatures[index]])
            for index in range(start, min(start + _CYCLES_PER_CHUNK, count))
        )
    yield (
        ("\n        ]" if count else "]")
        + f',\n        "verdict": "{report.verdict.value}"\n      }}\n    }}'
    )


def write_verify_json(
    write: Callable[[bytes], object],
    matrix: CoxeterMatrix,
    outcomes: Iterable[tuple[Verdict, Iterable[bytes]]],
) -> Verdict:
    """Write the verify document, one element at a time; return its verdict.

    ``outcomes`` yields ``(verdict, chunks)`` per element, where ``chunks``
    is the element's entry as ``element_chunks`` gives it, encoded.  The
    bytes are ``dump_json`` of ``{"matrix", "elements", "verdict"}`` with
    each report as ``parity_report_to_json`` gives it, encoded (it is
    ASCII).  Each chunk is written as it comes, so no element is held here:
    the document's opening is written once the first element's verdict is
    known, and an error before then leaves the output empty, one after it
    the part written so far.
    """
    matrix_text = _nested(matrix_to_json(matrix), 1)
    separator = ('{\n  "matrix": ' + matrix_text + ',\n  "elements": [\n').encode()
    closing = separator[:-1] + b"]"  # no elements
    verdict = Verdict.PASS
    for element_verdict, chunks in outcomes:
        verdict = worst((verdict, element_verdict))
        write(separator)
        separator, closing = b",\n", b"\n  ]"
        for chunk in chunks:
            write(chunk)
    write(closing + f',\n  "verdict": "{verdict.value}"\n}}\n'.encode())
    return verdict
