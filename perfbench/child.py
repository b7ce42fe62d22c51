"""Programs the benchmark runs in a fresh interpreter, one per repetition.

    python3 perfbench/child.py enumerate --group A5 [--spans FILE]
    python3 perfbench/child.py verify --group D4 [--max-length L] --spans FILE
    python3 perfbench/child.py inversions --group D4 [--max-length L] --spans FILE

``enumerate`` prints the element count and the sha256 of the canonical
words, one 1-indexed word per line.  ``verify`` rebuilds the bytes of
``coxlab verify --type G --all-elements [--max-length L]`` by calling the
package's public functions in the order ``cli._verify_one`` and
``cli.cmd_verify`` call them, and writes them to stdout just as the CLI
does.  ``inversions`` computes the inversion word and the occurrence vector
of every vertex that has an arc, each vertex once and in a cold process, so
the time does not depend on the package's cache policy; it prints the
number of vectors.  With ``--spans`` a span is recorded around every call
and the spans are written to FILE when the child is done.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import coxlab
from coxlab import braid_graph, catalog, core, inversions, serialize, verify

from tracing import NullTracer, Tracer


def run_enumerate(args, t) -> None:
    matrix = t.call("catalog.catalog_matrix", catalog.catalog_matrix, args.group)
    elements = t.call("core.enumerate_elements", core.enumerate_elements, matrix)
    t.count("core.elements", len(elements))
    with t.span("bench.digest"):
        words = "".join(
            " ".join(str(letter) for letter in serialize.surface_word(e.word)) + "\n"
            for e in elements
        )
        digest = hashlib.sha256(words.encode("ascii")).hexdigest()
    sys.stdout.write(f"{len(elements)} {digest}\n")


def run_verify(args, t) -> None:
    with t.span("cli.verify"):
        matrix = t.call("catalog.catalog_matrix", catalog.catalog_matrix, args.group)
        partition = t.call("braid_graph.pair_classes", braid_graph.pair_classes, matrix, radius=None)
        t.count("braid_graph.classes", len(partition.classes))
        elements = t.call(
            "core.enumerate_elements", core.enumerate_elements, matrix, max_length=args.max_length
        )
        t.count("core.elements", len(elements))
        outcomes = []
        for index, element in enumerate(elements):
            with t.span("cli.element", element=index):
                graph = t.call("braid_graph.reduced_graph", braid_graph.reduced_graph, element, partition)
                arc_verdict, results = t.call("verify.verify_arc_steps", verify.verify_arc_steps, graph)
                report = t.call("verify.verify_parity", verify.verify_parity, graph, partition)
                payload = {
                    "element": t.call(
                        "serialize.element_to_json", serialize.element_to_json, element, source=None
                    ),
                    "vertices": len(graph.vertices),
                    "arcs": len(graph.arcs),
                    "arc_checks": t.call(
                        "serialize.step_results_to_json", serialize.step_results_to_json, results
                    ),
                    "report": t.call(
                        "serialize.parity_report_to_json", serialize.parity_report_to_json, report
                    ),
                }
                outcomes.append((verify.worst((arc_verdict, report.verdict)), payload))
            t.count("braid_graph.vertices", len(graph.vertices))
            t.count("braid_graph.arcs", len(graph.arcs))
            t.count("verify.arc_checks", len(results))
            t.count("verify.cycles", len(report.cycles))
            t.count("verify.cycles_2", sum(1 for c in report.cycles if len(c) == 2))
            t.count("verify.class_checks", len(report.checks))
        verdict = verify.worst(v for v, _ in outcomes)
        payload = {
            "matrix": t.call("serialize.matrix_to_json", serialize.matrix_to_json, matrix),
            "elements": [p for _, p in outcomes],
            "verdict": verdict.value,
        }
        text = t.call("serialize.dump_json", serialize.dump_json, payload)
        t.count("serialize.bytes", len(text))
        t.call("cli.write", sys.stdout.write, text)


def run_inversions(args, t) -> None:
    matrix = t.call("catalog.catalog_matrix", catalog.catalog_matrix, args.group)
    partition = t.call("braid_graph.pair_classes", braid_graph.pair_classes, matrix, radius=None)
    elements = t.call(
        "core.enumerate_elements", core.enumerate_elements, matrix, max_length=args.max_length
    )
    vectors = 0
    for index, element in enumerate(elements):
        with t.span("bench.element", element=index):
            graph = t.call("braid_graph.reduced_graph", braid_graph.reduced_graph, element, partition)
            with_arc = sorted({a.source for a in graph.arcs} | {a.target for a in graph.arcs})
            for v in with_arc:
                word = graph.vertices[v]
                t.call("inversions.inversion_word", inversions.inversion_word, word, matrix)
                t.call("inversions.occurrence_vector", inversions.occurrence_vector, word, matrix)
        vectors += len(with_arc)
    t.count("inversions.vectors", vectors)
    sys.stdout.write(f"{vectors}\n")


PROGRAMS = {"enumerate": run_enumerate, "verify": run_verify, "inversions": run_inversions}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("program", choices=sorted(PROGRAMS))
    parser.add_argument("--group", required=True)
    parser.add_argument("--max-length", type=int, default=None)
    parser.add_argument("--spans", help="write the recorded spans to this file")
    args = parser.parse_args()
    tracer = Tracer() if args.spans else NullTracer()
    PROGRAMS[args.program](args, tracer)
    sys.stdout.flush()
    if args.spans:
        tracer.dump(args.spans, coxlab_file=coxlab.__file__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
