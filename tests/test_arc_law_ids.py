"""The arc law on element ids against a rebuild from Element arithmetic.

For every vertex of every reduced graph of a group, the id inversion word
(mapped back to words) must equal the one rebuilt with multiply and
conjugate, and the id support must equal a scan of every key of the
conjugation closure for a sweep, built by Element products, that occurs as
a subsequence of that inversion word.  Every arc's StepResult must equal
the verdict those rebuilt vectors give, with s' and t' conjugated by the
prefix before the graph's own move position.
"""

import pytest

from coxlab import (
    StepResult,
    Verdict,
    catalog_matrix,
    conjugate,
    enumerate_elements,
    generator_element,
    identity_element,
    multiply,
    pair_classes,
    reduce_word,
    reduced_graph,
    verify_arc_steps,
)
from coxlab.core import CoxeterMatrix, Element, element_ids
from coxlab.inversions import fixed_ids, inversion_ids, occurrence_ids

from oracles import closure_words


def rebuilt_inversion_word(word, matrix):
    prefix = identity_element(matrix)
    entries = []
    for letter in word:
        gen = generator_element(matrix, letter)
        entries.append(conjugate(prefix, gen).word)
        prefix = multiply(prefix, gen)
    return entries


def is_subsequence(pattern, sequence):
    rest = iter(sequence)
    return all(any(x == y for y in rest) for x in pattern)


class Oracle:
    """Supports and arc verdicts from Element products alone."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.sweeps = {}
        for (u, v), m in closure_words(matrix).items():
            ue, ve = Element(matrix, u), Element(matrix, v)
            step = multiply(ue, ve)
            entries = [ue]
            for _ in range(m - 1):
                entries.append(multiply(step, entries[-1]))
            self.sweeps[(u, v)] = [e.word for e in entries]

    def support(self, inversion):
        present = set(inversion)
        return frozenset(
            key
            for key, sweep in self.sweeps.items()
            if key[0] in present and key[1] in present and is_subsequence(sweep, inversion)
        )

    def arc_result(self, graph, arc, supports):
        q = reduce_word(graph.vertices[arc.source][: arc.position], self.matrix)
        s, t = (generator_element(self.matrix, x) for x in arc.pair)
        st = (conjugate(q, s).word, conjugate(q, t).word)
        ts = st[::-1]
        va, vb = supports[arc.source], supports[arc.target]
        if st in va and ts not in va and vb == (va - {st}) | {ts}:
            return StepResult(Verdict.PASS)
        mismatched = sum(
            (k in vb) != (k in va) - (k == st) + (k == ts) for k in va | vb | {st, ts}
        )
        return StepResult(Verdict.FAIL, f"vector mismatch on {mismatched} pair(s)")


def check_group(matrix):
    oracle = Oracle(matrix)
    ids = fixed_ids(matrix)
    vertices = arcs = 0
    for element in enumerate_elements(matrix):
        graph = reduced_graph(element)
        supports = []
        for word in graph.vertices:
            rebuilt = rebuilt_inversion_word(word, matrix)
            inv = inversion_ids(word, matrix)
            assert [ids.words[x] for x in inv.entries] == rebuilt, word
            support = oracle.support(rebuilt)
            got = occurrence_ids(inv, matrix)
            assert {(ids.words[u], ids.words[v]) for u, v in got} == support, word
            supports.append(support)
        _, results = verify_arc_steps(graph)
        for i, result in results:
            assert result == oracle.arc_result(graph, graph.arcs[i], supports), (
                graph.vertices[graph.arcs[i].source], i
            )
        vertices += len(graph.vertices)
        arcs += len(results)
    return vertices, arcs


@pytest.mark.parametrize(
    "name,vertices,arcs",
    [("A3", 66, 92), ("B3", 209, 406), ("A4", 3061, 11132), ("H3", 1635, 5562)],
)
def test_ids_agree_with_element_arithmetic(name, vertices, arcs):
    assert check_group(catalog_matrix(name)) == (vertices, arcs)


@pytest.mark.slow
def test_ids_agree_with_element_arithmetic_on_d4():
    assert check_group(catalog_matrix("D4")) == (9719, 42576)


@pytest.mark.parametrize("name", ["A3", "B3", "I2_5"])
def test_interned_ids_give_the_table_results(name):
    # a matrix whose table is switched off interns canonical words from
    # Tits' method; its verdicts must be the table's, arc for arc
    table = catalog_matrix(name)
    interned = CoxeterMatrix(table.entries)
    interned._table = False
    for element in enumerate_elements(table):
        expected = verify_arc_steps(reduced_graph(element))
        graph = reduced_graph(reduce_word(element.word, interned))
        assert verify_arc_steps(graph) == expected
    assert element_ids(table).words is table._table.words
    assert len(element_ids(interned).words) == len(table._table.words)


def test_ids_switch_to_the_table_once_it_is_built():
    # ids interned before the closure builds the table are replaced with
    # their memos, and the arc law after that runs on the table's ids
    matrix = catalog_matrix("A4")
    word = (1, 0, 2, 1)
    before = inversion_ids(word, matrix)
    assert matrix._table is None
    ids = fixed_ids(matrix)
    assert ids.words is matrix._table.words
    after = inversion_ids(word, matrix)
    assert [ids.words[x] for x in after.entries] == rebuilt_inversion_word(word, matrix)
    assert len(before.entries) == len(after.entries)


def test_classes_and_enumeration_make_no_ids():
    # element ids belong to the arc law: `classes` and a bare enumeration
    # (the benchmark's set-up and control runs) must not pay for them
    matrix = catalog_matrix("B3")
    pair_classes(matrix)
    enumerate_elements(matrix)
    assert matrix._ids is None
    # the table is the matrix's element store; it keeps the closure that
    # `classes` built, and no sweep has been walked: every partner entry is
    # still m, and the arc-law memos stay empty
    table = element_ids(matrix)
    assert table is matrix._table
    assert all(m.__class__ is int for mine in table.closure.values() for m in mine.values())
    assert not table.steps and not table.sweeps and not table.sweep_words
