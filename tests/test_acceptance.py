"""Acceptance suite: one criterion per test, one pass/fail line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

from coxlab import (
    NotABraidStep,
    Verdict,
    catalog_matrix,
    conjugate,
    enumerate_elements,
    fundamental_cycles,
    generator_element,
    pair_classes,
    property_harness,
    reduce_word,
    reduced_expressions,
    reduced_graph,
    verify_arc_steps,
    verify_has_step,
    verify_parity,
)

from oracles import signed_oracle, symmetric_oracle


def announce(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} [{name}] failed: {detail}"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "coxlab", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ),
    )


def test_criterion_1_motivating_example():
    """A4, w = s2 s1 s2 s4 (one-line 3,2,1,5,4): the 8-cycle with its
    exact fine and coarse braid-move counts."""
    t0 = time.perf_counter()
    matrix = catalog_matrix("A4")
    element = reduce_word((1, 0, 1, 3), matrix)
    partition = pair_classes(matrix)
    graph = reduced_graph(element, partition)

    ok = len(graph.vertices) == 8 and len(graph.arcs) == 16
    undirected = {(min(a.source, a.target), max(a.source, a.target)) for a in graph.arcs}
    degree = Counter()
    for u, v in undirected:
        degree[u] += 1
        degree[v] += 1
    ok = ok and len(undirected) == 8 and all(degree[i] == 2 for i in range(8))

    cycles = fundamental_cycles(graph)
    long_cycles = [c for c in cycles if len(c) == 8]
    ok = ok and len(long_cycles) == 1 and sorted(len(c) for c in cycles) == [2] * 8 + [8]

    stated = {
        (1, 2): 1, (2, 1): 1, (1, 4): 2, (4, 1): 1, (2, 4): 1, (4, 2): 2,
    }
    forward = Counter(
        (graph.arcs[i].pair[0] + 1, graph.arcs[i].pair[1] + 1) for i in long_cycles[0]
    )
    backward = Counter({(t, s): n for (s, t), n in forward.items()})
    fine_ok = dict(forward) == stated or dict(backward) == stated
    ok = ok and fine_ok

    coarse = Counter(graph.arcs[i].color for i in long_cycles[0])
    adjacent = partition.class_of((0, 1))
    commuting = partition.class_of((0, 3))
    ok = ok and coarse[adjacent] == 2 and coarse[commuting] == 6

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    announce(1, "motivating 8-cycle", ok, f"{elapsed:.3f}s")


VERIFY_TARGETS = ["A3", "B3", "I2_3", "I2_4", "I2_5", "I2_6", "I2_7"]


def test_criterion_2_exhaustive_cycle_parity():
    """CLI verify --all-elements exits 0 for A3, B3 and I2(3..7)."""
    t0 = time.perf_counter()
    ok = True
    details = []
    for name in VERIFY_TARGETS:
        result = run_cli("verify", "--type", name, "--all-elements")
        payload = json.loads(result.stdout) if result.stdout else {}
        good = result.returncode == 0 and payload.get("verdict") == "pass"
        cycle_checks = [
            check
            for element in payload.get("elements", [])
            for cycle in element["report"]["cycles"]
            for check in cycle["checks"]
        ]
        good = good and all(c["verdict"] == "pass" for c in cycle_checks)
        details.append(f"{name}:exit{result.returncode}")
        ok = ok and good
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    announce(2, "exhaustive cycle parity", ok, f"{elapsed:.1f}s " + " ".join(details))


def test_criterion_3_arc_level_vector_law():
    """Every arc of every graph in criterion 2 satisfies the exact
    occurrence-vector update."""
    checked = 0
    ok = True
    for name in VERIFY_TARGETS:
        matrix = catalog_matrix(name)
        partition = pair_classes(matrix)
        for element in enumerate_elements(matrix):
            graph = reduced_graph(element, partition)
            verdict, results = verify_arc_steps(graph)
            checked += len(results)
            ok = ok and verdict is Verdict.PASS
    announce(3, "arc-level vector law", ok, f"{checked} arcs")


def test_criterion_4_oracle_equivalence():
    """Reduced-expression counts match the independent concrete models."""
    matrix = catalog_matrix("A3")
    w0 = reduce_word((0, 1, 0, 2, 1, 0), matrix)
    ours = len(reduced_expressions(w0))
    oracle = symmetric_oracle(3)
    brute = oracle.reduced_word_count(oracle.word_to_element(w0.word))
    ok = ours == brute == 16  # 16 pinned by the oracle run before the build

    rng = random.Random(2024)
    for name, oracle, rank in (
        ("A4", symmetric_oracle(4), 4),
        ("B3", signed_oracle(3), 3),
    ):
        m = catalog_matrix(name)
        for _ in range(20):
            word = tuple(rng.randrange(rank) for _ in range(rng.randint(0, 9)))
            element = reduce_word(word, m)
            graph = reduced_graph(element)
            expected = oracle.reduced_word_count(oracle.word_to_element(word))
            ok = ok and len(graph.vertices) == expected
    announce(4, "oracle equivalence", ok, f"A3 longest: {ours} expressions")


def test_criterion_5_class_partitions():
    """Exactly 2 classes for A(n) with n >= 4 generators; dihedral splits
    pinned by brute force; all exact witnesses verify."""
    ok = True
    for name in ("A4", "A5"):
        ok = ok and len(pair_classes(catalog_matrix(name)).classes) == 2
    i2_4 = pair_classes(catalog_matrix("I2_4"))
    ok = ok and [cls.pairs for cls in i2_4.classes] == [((0, 1),), ((1, 0),)]
    i2_3 = pair_classes(catalog_matrix("I2_3"))
    ok = ok and len(i2_3.classes) == 1

    for name in ("A4", "A5", "I2_3", "I2_4", "B3"):
        matrix = catalog_matrix(name)
        partition = pair_classes(matrix)
        for cls in partition.classes:
            ok = ok and cls.exact
            rep = cls.representative
            rs, rt = (generator_element(matrix, i) for i in rep)
            for member, q in cls.witnesses.items():
                ok = ok and conjugate(q, rs) == generator_element(matrix, member[0])
                ok = ok and conjugate(q, rt) == generator_element(matrix, member[1])
    announce(5, "class partitions", ok)


HARNESS_TYPES = ["A3", "A4", "B3", "D4", "I2_5", "I2_7", "H3", "F4", "H4"]


def test_criterion_6_property_suites():
    """1000 seeded samples per catalog type, zero failures, under 30 s."""
    t0 = time.perf_counter()
    ok = True
    total_checks = 0
    for name in HARNESS_TYPES:
        report = property_harness(catalog_matrix(name), samples=1000, seed=42)
        total_checks += sum(report.checks.values())
        ok = ok and report.passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    announce(6, "property suites", ok, f"{total_checks} checks in {elapsed:.1f}s")


def test_criterion_7_negative_controls():
    """50 seeded arc-color corruptions and 50 word-letter corruptions all
    flip their verdicts."""
    rng = random.Random(99)
    color_fixtures = [
        ("A4", (1, 0, 1, 3)),
        ("A3", (0, 1, 0, 2, 1, 0)),
        ("I2_4", (0, 1, 0, 1)),
        ("B3", (0, 1, 0, 1, 2, 1, 0, 1, 2)),
    ]
    color_flips = 0
    for trial in range(50):
        name, word = color_fixtures[trial % len(color_fixtures)]
        matrix = catalog_matrix(name)
        partition = pair_classes(matrix)
        graph = reduced_graph(reduce_word(word, matrix), partition)
        n_classes = len(partition.classes)
        arc_id = rng.randrange(len(graph.arcs))
        shift = 1 + rng.randrange(n_classes - 1)
        mutated = graph.with_arc_color(
            arc_id, (graph.arcs[arc_id].color + shift) % n_classes
        )
        if verify_parity(mutated, partition).verdict is Verdict.FAIL:
            color_flips += 1

    step_fixtures = []
    for name, word in (("A3", (0, 1, 0, 2, 1, 0)), ("B3", (0, 1, 0, 1, 2, 1, 0, 1, 2))):
        matrix = catalog_matrix(name)
        graph = reduced_graph(reduce_word(word, matrix))
        for arc in graph.arcs[:10]:
            step_fixtures.append(
                (matrix, graph.vertices[arc.source], graph.vertices[arc.target], arc.pair)
            )
    word_flips = 0
    for trial in range(50):
        matrix, a, b, pair = step_fixtures[trial % len(step_fixtures)]
        pos = rng.randrange(len(b))
        new_letter = (b[pos] + 1 + rng.randrange(matrix.rank - 1)) % matrix.rank
        corrupted = b[:pos] + (new_letter,) + b[pos + 1 :]
        try:
            if verify_has_step(a, corrupted, pair, matrix).verdict is Verdict.FAIL:
                word_flips += 1
        except NotABraidStep:
            word_flips += 1

    ok = color_flips == 50 and word_flips == 50
    announce(7, "negative controls", ok, f"{color_flips}/50 color, {word_flips}/50 word")


def test_criterion_8_expression_graph_explorer():
    """The non-reduced explorer completes and emits a parity report; its
    verdict content is exploratory and not asserted."""
    result = run_cli("expr-graph", "--type", "A2", "--word", "1", "--length", "5")
    ok = result.returncode in (0, 1, 2)
    payload = json.loads(result.stdout) if result.stdout else {}
    report = payload.get("report", {})
    ok = ok and report.get("exploratory") is True
    ok = ok and "cycles" in report and "verdict" in report
    announce(8, "expression-graph explorer", ok, f"exit {result.returncode}")
