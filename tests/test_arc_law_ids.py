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
from coxlab.inversions import (
    fixed_ids,
    inversion_ids,
    occurrence_ids,
    occurrence_pairs,
    occurrence_vector,
)

from oracles import closure_words, reference_occurrence_ids


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
            got = occurrence_pairs(occurrence_ids(inv, matrix), ids)
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
    # `classes` built, its pairs numbered 0, 1, ... in closure order, and no
    # sweep has been walked: the arc-law memos stay empty
    table = element_ids(matrix)
    assert table is matrix._table
    bits = [bit for mine in table.closure.values() for bit in mine.values()]
    assert sorted(bits) == list(range(len(table.pairs)))
    assert all(table.closure[u][v] == bit for bit, (u, v, _) in enumerate(table.pairs))
    assert not table.steps and not table.sweeps and not table.sweep_words


@pytest.mark.parametrize(
    "name",
    ["A3", "B3", "H3", "A4", "I2_7", "D4", pytest.param("B4", marks=pytest.mark.slow)],
)
def test_bitset_vectors_match_the_reference(name):
    # the decoded bitset equals the former frozenset vector on every
    # vertex, with the candidates memoized per graph as the arc law does
    matrix = catalog_matrix(name)
    ids = fixed_ids(matrix)
    partition = pair_classes(matrix)
    for element in enumerate_elements(matrix):
        memo = {}
        for word in reduced_graph(element, partition).vertices:
            inv = inversion_ids(word, matrix)
            got = occurrence_pairs(occurrence_ids(inv, matrix, memo), ids)
            assert got == reference_occurrence_ids(inv, matrix), word


@pytest.mark.parametrize(
    "name, max_length, word",
    [
        ("B4", 10, None),
        ("F4", None, (1, 2, 1, 2, 3, 2, 1, 2, 0, 1, 2, 3)),
        ("I2_65", None, tuple(i % 2 for i in range(65))),
    ],
)
def test_long_sweeps_match_the_reference(name, max_length, word):
    # sweeps of four entries and more (bonds 4 and 65) are read from their
    # neighbouring positions: every vertex of B4 up to length 10, of an F4
    # element and of I2(65)'s longest element; B3 and H3 are every vertex
    # of test_bitset_vectors_match_the_reference
    matrix = catalog_matrix(name)
    ids = fixed_ids(matrix)
    partition = pair_classes(matrix)
    if word is None:
        elements = enumerate_elements(matrix, max_length=max_length)
    else:
        elements = [reduce_word(word, matrix)]
    long_sweeps = 0
    for element in elements:
        memo = {}
        for vertex in reduced_graph(element, partition).vertices:
            inv = inversion_ids(vertex, matrix)
            got = occurrence_pairs(occurrence_ids(inv, matrix, memo), ids)
            assert got == reference_occurrence_ids(inv, matrix), vertex
        long_sweeps += sum(len(more) for _, _, more in memo.values())
    assert long_sweeps > 0


def test_bitset_vector_past_the_order_cap():
    # I2(65): one sweep of 65 entries, more than the default order cap
    matrix = catalog_matrix("I2_65")
    word = tuple(i % 2 for i in range(65))
    ids = fixed_ids(matrix)
    inv = inversion_ids(word, matrix)
    got = occurrence_pairs(occurrence_ids(inv, matrix), ids)
    assert got == reference_occurrence_ids(inv, matrix)
    assert got == {(inv.entries[0], inv.entries[-1])}


def test_sweeps_stay_lazy():
    # a sweep is walked only when both of its ends are entries of the word:
    # at most l(l - 1) of them for l = 5, not one per closure pair (400)
    matrix = catalog_matrix("I2_200")
    occurrence_vector((0, 1, 0, 1, 0), matrix)
    assert len(element_ids(matrix).sweeps) <= 20


def test_standalone_vectors_share_the_last_entry_sets_candidates(monkeypatch):
    # without a memo, occurrence_vector keeps the candidates of the last
    # entry set on the element store: over the words of one element they
    # are collected once, and another element's words replace them
    import coxlab.inversions

    collected = []
    real = coxlab.inversions._candidates

    def counted(ids, entries):
        collected.append(frozenset(entries))
        return real(ids, entries)

    monkeypatch.setattr(coxlab.inversions, "_candidates", counted)
    matrix = catalog_matrix("B3")
    ids = fixed_ids(matrix)
    elements = enumerate_elements(matrix)
    for element, runs in ((elements[-1], 1), (elements[-2], 2), (elements[-1], 3)):
        vertices = reduced_graph(element).vertices
        assert len(vertices) > 1
        for word in vertices:
            expected = reference_occurrence_ids(inversion_ids(word, matrix), matrix)
            got = occurrence_vector(word, matrix)
            assert got == {(ids.words[u], ids.words[v]) for u, v in expected}, word
        assert len(collected) == runs
    assert len(ids.candidates) == 1
