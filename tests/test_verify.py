import dataclasses
import random
from collections import Counter

import pytest

from coxlab import (
    NotABraidStep,
    Verdict,
    catalog_matrix,
    enumerate_elements,
    expression_graph,
    find_braid_factor,
    fundamental_cycles,
    occurrence_vector,
    pair_classes,
    property_harness,
    reduce_word,
    reduced_graph,
    validate_matrix,
    verify_arc_steps,
    verify_has_step,
    verify_parity,
)
from coxlab.braid_graph import Arc, BraidGraph, PairClassPartition, op_class
from coxlab.core import alternating_word, identity_element
from coxlab.verify import CycleClassCheck, _class_results, worst
from oracles import random_closed_walk, reference_cycles, walk_parity_verdict

A2 = catalog_matrix("A2")
A3 = catalog_matrix("A3")
A4 = catalog_matrix("A4")
B3 = catalog_matrix("B3")
I2_4 = catalog_matrix("I2_4")
INF2 = validate_matrix([[1, float("inf")], [float("inf"), 1]])


class TestFindBraidFactor:
    def test_trivial_prefix(self):
        cert = find_braid_factor((0, 1, 0), (1, 0, 1), (0, 1), A2)
        assert cert.position == 0
        assert cert.q.is_identity()
        assert cert.s_prime.element.word == (0,)
        assert cert.t_prime.element.word == (1,)

    def test_paper_example_in_a3(self):
        # pinned by the S4 oracle: q = s2 conjugates (s1, s3) to
        # ((1 3), (2 4)) with canonical words s1s2s1 and s2s3s2
        cert = find_braid_factor((1, 0, 2), (1, 2, 0), (0, 2), A3)
        assert cert.position == 1
        assert cert.q.word == (1,)
        assert cert.s_prime.element.word == (0, 1, 0)
        assert cert.t_prime.element.word == (1, 2, 1)
        assert [r.element.word for r in cert.factor] == [(0, 1, 0), (1, 2, 1)]

    def test_equal_words_rejected(self):
        with pytest.raises(NotABraidStep):
            find_braid_factor((0, 1, 0), (0, 1, 0), (0, 1), A2)

    def test_wrong_pair_rejected(self):
        with pytest.raises(NotABraidStep):
            find_braid_factor((0, 1, 0), (1, 0, 1), (1, 0), A2)

    def test_unrelated_words_rejected(self):
        with pytest.raises(NotABraidStep):
            find_braid_factor((0, 1, 0), (1, 1, 1), (0, 1), A2)

    def test_infinite_bond_rejected(self):
        m = validate_matrix([[1, float("inf")], [float("inf"), 1]])
        with pytest.raises(NotABraidStep):
            find_braid_factor((0, 1), (1, 0), (0, 1), m)

    # the exact messages, in the order the checks run: the pair first
    # (invalid, then infinite), then the lengths, then the window
    @pytest.mark.parametrize(
        "a, b, pair, matrix, message",
        [
            ((0, 1, 0), (1, 0, 1), (0, 0), A2, "invalid generator pair (0, 0)"),
            ((0, 1, 0), (1, 0, 1), (0, 5), A2, "invalid generator pair (0, 5)"),
            ((0, 1, 0), (1, 0, 1), (-1, 0), A2, "invalid generator pair (-1, 0)"),
            ((0, 1), (1,), (1, 1), A2, "invalid generator pair (1, 1)"),
            ((0, 1), (1, 0), (0, 1), INF2,
             "pair (0, 1) has infinite order; no braid move exists"),
            ((0, 1), (1,), (1, 0), INF2,
             "pair (1, 0) has infinite order; no braid move exists"),
            ((0, 1, 0), (1, 0), (0, 1), A2, "words have different lengths"),
            ((0, 1, 0), (0, 1, 0), (0, 1), A2, "no (0, 1) braid window between the words"),
            ((0, 1, 0), (1, 0, 1), (1, 0), A2, "no (1, 0) braid window between the words"),
            ((0, 1, 0), (1, 1, 1), (0, 1), A2, "no (0, 1) braid window between the words"),
            ((0, 1, 0, 2), (1, 0, 1, 0), (0, 1), A3,
             "no (0, 1) braid window between the words"),
            ((2, 0, 1), (2, 1, 0), (0, 1), A3, "no (0, 1) braid window between the words"),
        ],
    )
    def test_rejection_messages(self, a, b, pair, matrix, message):
        with pytest.raises(NotABraidStep) as info:
            find_braid_factor(a, b, pair, matrix)
        assert str(info.value) == message

    def test_factor_matches_inversion_window(self):
        rng = random.Random(3)
        from coxlab import braid_moves, inversion_word

        for _ in range(40):
            w = reduce_word(
                tuple(rng.randrange(3) for _ in range(rng.randint(2, 9))), B3
            ).word
            moves = braid_moves(w, B3)
            if not moves:
                continue
            position, pair, target = moves[rng.randrange(len(moves))]
            cert = find_braid_factor(w, target, pair, B3)
            assert cert.position == position
            m = int(B3.m(*pair))
            window = inversion_word(w, B3).entries[position : position + m]
            assert window == cert.factor


class TestVerifyHasStep:
    # 65 is a bond above the default order cap
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 65])
    def test_half_braid_flip(self, m):
        matrix = catalog_matrix(f"I2_{m}")
        a = alternating_word(0, 1, m)
        b = alternating_word(1, 0, m)
        result = verify_has_step(a, b, (0, 1), matrix)
        assert result.verdict is Verdict.PASS
        # support flips from {(s, t)} to {(t, s)}
        assert occurrence_vector(a, matrix) == {((0,), (1,))}
        assert occurrence_vector(b, matrix) == {((1,), (0,))}

    def test_every_arc_in_s4(self):
        for element in enumerate_elements(A3):
            graph = reduced_graph(element)
            verdict, results = verify_arc_steps(graph)
            assert verdict is Verdict.PASS
            assert len(results) == len(graph.arcs)

    def test_corrupted_word_detected(self):
        a = (1, 0, 2)
        b = (1, 2, 0)
        bad = (1, 2, 2)
        with pytest.raises(NotABraidStep):
            verify_has_step(a, bad, (0, 2), A3)
        assert verify_has_step(a, b, (0, 2), A3).verdict is Verdict.PASS

    def test_inconclusive_on_cap(self):
        # sweep orders come from the conjugation closure, so the cap that
        # still governs the arc law is the closure's: an infinite group
        # cuts it off
        m = validate_matrix([[1, 3, float("inf")], [3, 1, 3], [float("inf"), 3, 1]])
        result = verify_has_step((0, 1, 0), (1, 0, 1), (0, 1), m)
        assert result.verdict is Verdict.INCONCLUSIVE
        assert result.details.startswith("cap exceeded:")

    def test_a_graph_without_arcs_needs_no_closure(self, monkeypatch):
        # a single reduced word has no vector to compare, so the arc law
        # must not pay for the exact closure (costly without a table)
        import coxlab.inversions

        def refuse(matrix):
            raise AssertionError("the exact closure was tried")

        monkeypatch.setattr(coxlab.inversions, "conjugate_pair_closure", refuse)
        matrix = catalog_matrix("A3")
        graph = reduced_graph(reduce_word((0, 1), matrix), pair_classes(matrix, radius=1))
        assert verify_arc_steps(graph) == (Verdict.PASS, [])

    def test_certificate_failure_is_a_fail_verdict(self, monkeypatch):
        # b's inversion word comes back with the move window unreversed,
        # so the certificate's last cross-check must fail
        import coxlab.verify
        from coxlab.inversions import inversion_ids

        a = (1, 0, 2)
        b = (1, 2, 0)

        def unreversed(word, matrix):
            return inversion_ids(a if tuple(word) == b else word, matrix)

        monkeypatch.setattr(coxlab.verify, "inversion_ids", unreversed)
        result = verify_has_step(a, b, (0, 2), A3)
        assert result.verdict is Verdict.FAIL
        assert result.details == (
            "certificate: braid move did not reverse the inversion-word factor"
        )

    def test_graph_certificate_failure_is_a_fail_verdict(self, monkeypatch):
        # the per-graph path must still check b against b's own inversion
        # word: here b's comes back as a's, which breaks both arcs
        import coxlab.verify
        from coxlab.inversions import inversion_ids

        a = (1, 0, 2)
        b = (1, 2, 0)

        def unreversed(word, matrix):
            return inversion_ids(a if tuple(word) == b else word, matrix)

        monkeypatch.setattr(coxlab.verify, "inversion_ids", unreversed)
        graph = reduced_graph(reduce_word(a, A3))
        assert graph.vertices == (a, b)
        verdict, results = verify_arc_steps(graph)
        assert verdict is Verdict.FAIL
        assert [(i, r.verdict, r.details) for i, r in results] == [
            (0, Verdict.FAIL,
             "certificate: braid move did not reverse the inversion-word factor"),
            (1, Verdict.FAIL,
             "certificate: factor endpoints disagree with conjugated generators"),
        ]

    @pytest.mark.parametrize("position", [1, -1, 4], ids=["next", "negative", "past_the_end"])
    def test_a_wrong_arc_position_is_not_a_braid_step(self, position):
        # the arc law reads the move position off the arc: an arc whose
        # words hold no window there is refused, not matched elsewhere
        graph = reduced_graph(reduce_word((1, 0, 1, 3), A4))
        assert graph.arcs[0].position == 0 and graph.arcs[0].pair == (0, 1)
        arcs = list(graph.arcs)
        arcs[0] = arcs[0]._replace(position=position)
        moved = BraidGraph(
            graph.matrix, graph.element, graph.mode, None, graph.vertices, tuple(arcs)
        )
        with pytest.raises(NotABraidStep, match=r"no \(0, 1\) braid window"):
            verify_arc_steps(moved)
        assert verify_arc_steps(graph)[0] is Verdict.PASS

    def test_each_vertex_is_built_once_from_its_own_word(self, monkeypatch):
        import coxlab.verify
        from coxlab.inversions import inversion_ids, occurrence_ids

        built: list[tuple] = []
        vectors: list[tuple] = []

        def counted_inversion_ids(word, matrix):
            built.append(tuple(word))
            return inversion_ids(word, matrix)

        def counted_vector(inv, matrix, *rest):
            vectors.append(inv.source)
            return occurrence_ids(inv, matrix, *rest)

        monkeypatch.setattr(coxlab.verify, "inversion_ids", counted_inversion_ids)
        monkeypatch.setattr(coxlab.verify, "occurrence_ids", counted_vector)
        graph = reduced_graph(reduce_word((1, 0, 1, 3), A4))
        verdict, results = verify_arc_steps(graph)
        assert verdict is Verdict.PASS and len(results) == len(graph.arcs) == 16
        assert sorted(built) == sorted(vectors) == sorted(graph.vertices)

    @pytest.mark.parametrize(
        "matrix,a,b",
        [(catalog_matrix("I2_3"), (0, 1, 0), (1, 0, 1)),
         (I2_4, (0, 1, 0, 1), (1, 0, 1, 0))],
        ids=["I2_3", "I2_4"],
    )
    @pytest.mark.parametrize(
        "vector_of,mismatches",
        [(lambda a, b: {a: b, b: a}, 2), (lambda a, b: {a: a, b: a}, 2),
         (lambda a, b: {a: a, b: ()}, 1)],
        ids=["swapped", "b_gets_a", "b_gets_empty"],
    )
    def test_vector_mismatch_details(self, monkeypatch, matrix, a, b, vector_of, mismatches):
        # each word gets the vector of another word, so the law must fail
        # and count the pairs where vector(b) differs from the expected one
        import coxlab.verify
        from coxlab.inversions import inversion_ids, occurrence_ids

        other = vector_of(a, b)

        def wrong_vector(inv, matrix, *rest):
            return occurrence_ids(inversion_ids(other[inv.source], matrix), matrix, *rest)

        monkeypatch.setattr(coxlab.verify, "occurrence_ids", wrong_vector)
        result = verify_has_step(a, b, (0, 1), matrix)
        assert result.verdict is Verdict.FAIL
        assert result.details == f"vector mismatch on {mismatches} pair(s)"

    def test_graph_vector_mismatch_details(self, monkeypatch):
        # vertex i gets the vector of vertex i+1 mod n: every arc fails
        import coxlab.verify
        from coxlab.inversions import inversion_ids, occurrence_ids

        graph = reduced_graph(reduce_word((0, 1, 0, 2, 1, 0), A3))
        n = len(graph.vertices)
        shifted = {w: graph.vertices[(i + 1) % n] for i, w in enumerate(graph.vertices)}

        def wrong_vector(inv, matrix, *rest):
            return occurrence_ids(inversion_ids(shifted[inv.source], matrix), matrix, *rest)

        monkeypatch.setattr(coxlab.verify, "occurrence_ids", wrong_vector)
        verdict, results = verify_arc_steps(graph)
        assert verdict is Verdict.FAIL
        assert len(results) == 36
        assert all(r.verdict is Verdict.FAIL for _, r in results)
        assert Counter(r.details for _, r in results) == {
            "vector mismatch on 4 pair(s)": 24,
            "vector mismatch on 12 pair(s)": 8,
            "vector mismatch on 10 pair(s)": 2,
            "vector mismatch on 14 pair(s)": 2,
        }

    @pytest.mark.slow
    def test_every_arc_of_the_b4_longest_element(self):
        # 24 024 reduced words: the standard Young tableaux of the 4x4 square
        longest = enumerate_elements(catalog_matrix("B4"))[-1]
        graph = reduced_graph(longest)
        assert len(graph.vertices) == 24024
        assert len(graph.arcs) == 168636
        verdict, results = verify_arc_steps(graph)
        assert verdict is Verdict.PASS
        assert len(results) == 168636

    @pytest.mark.slow
    def test_every_arc_of_b4(self):
        # all 384 elements, 618 526 arcs, on the Cayley table's ids
        matrix = catalog_matrix("B4")
        partition = pair_classes(matrix)
        arcs = 0
        for element in enumerate_elements(matrix):
            verdict, results = verify_arc_steps(reduced_graph(element, partition))
            assert verdict is Verdict.PASS, element
            arcs += len(results)
        assert arcs == 618526


class TestFundamentalCycles:
    def test_single_vertex(self):
        g = reduced_graph(identity_element(A3))
        assert fundamental_cycles(g) == []

    def test_two_vertex_tree(self):
        g = reduced_graph(reduce_word((1, 0, 2), A3))
        cycles = fundamental_cycles(g)
        assert len(cycles) == 1
        assert len(cycles[0]) == 2
        a, b = cycles[0]
        assert g.arcs[a].source == g.arcs[b].target
        assert g.arcs[a].target == g.arcs[b].source

    def test_eight_cycle_graph(self):
        g = reduced_graph(reduce_word((1, 0, 1, 3), A4))
        cycles = fundamental_cycles(g)
        lengths = sorted(len(c) for c in cycles)
        assert lengths == [2] * 8 + [8]

    def test_cycles_close_up(self):
        for word in ((1, 0, 1, 3), (0, 1, 0, 2, 1, 0)):
            matrix = A4 if len(word) == 4 else A3
            g = reduced_graph(reduce_word(word, matrix))
            for cycle in fundamental_cycles(g):
                for i, arc_id in enumerate(cycle):
                    nxt = cycle[(i + 1) % len(cycle)]
                    assert g.arcs[arc_id].target == g.arcs[nxt].source

    def test_dimension_of_cycle_space(self):
        # 2E - V + 1 for a connected bidirected graph
        for element in enumerate_elements(B3):
            g = reduced_graph(element)
            edges = len(g.arcs) // 2
            expected = 2 * edges - len(g.vertices) + 1 if g.vertices else 0
            assert len(fundamental_cycles(g)) == max(expected, 0)

    @pytest.mark.parametrize("name", ["A3", "B3", "H3", "A4", "I2_7", "D4"])
    def test_at_most_one_arc_per_ordered_pair(self, name):
        # a move's result first differs from its source at the move's
        # position, and at most one move starts at a position, so no two
        # arcs share (source, target): the cycle basis keys arcs by it
        matrix = catalog_matrix(name)
        partition = pair_classes(matrix)
        graphs = [reduced_graph(e, partition) for e in enumerate_elements(matrix)]
        if name == "A4":
            padded = expression_graph(reduce_word((1, 0, 1, 3), matrix), 6, partition)
            assert padded.arcs
            graphs.append(padded)
        for g in graphs:
            ends = [(arc.source, arc.target) for arc in g.arcs]
            assert len(set(ends)) == len(ends), g.element


class TestCyclesMatchTheReference:
    """The basis read off the discovery tree equals the second-BFS basis."""

    @pytest.mark.parametrize(
        "name",
        ["A3", "B3", "H3", "A4", "I2_7", "D4", pytest.param("B4", marks=pytest.mark.slow)],
    )
    def test_every_element(self, name):
        matrix = catalog_matrix(name)
        partition = pair_classes(matrix)
        for element in enumerate_elements(matrix):
            g = reduced_graph(element, partition)
            assert fundamental_cycles(g) == reference_cycles(g), element

    @pytest.mark.parametrize("matrix", [A3, B3], ids=["A3", "B3"])
    def test_expression_graphs(self, matrix):
        partition = pair_classes(matrix)
        for element in enumerate_elements(matrix):
            if element.length > 4:
                continue
            g = expression_graph(element, element.length + 2, partition)
            assert fundamental_cycles(g) == reference_cycles(g), element

    def test_recoloured_copy(self):
        g = reduced_graph(reduce_word((1, 0, 1, 3), A4))
        recoloured = g.with_arc_color(3, g.arcs[3].color + 1)
        assert fundamental_cycles(recoloured) == reference_cycles(recoloured)
        assert fundamental_cycles(recoloured) == fundamental_cycles(g)

    def test_unreachable_vertex_is_rejected(self):
        # vertex 2 has arcs only to and from vertex 3: no arc from 0 or 1
        g = reduced_graph(reduce_word((1, 0, 2), A3))
        arcs = g.arcs + (
            Arc(2, 3, (0, 2), 0, 0),
            Arc(3, 2, (2, 0), 0, 0),
        )
        words = g.vertices + ((0, 2, 1), (2, 0, 1))
        broken = BraidGraph(g.matrix, g.element, g.mode, None, words, arcs)
        for cycles_of in (fundamental_cycles, reference_cycles):
            with pytest.raises(ValueError, match="graph is not connected"):
                cycles_of(broken)


class TestTelescoping:
    def test_occurrence_vector_shifts_telescope_around_cycles(self):
        """Composing the per-arc updates around any cycle returns the
        starting vector (the potential-function mechanism)."""
        for word, matrix in (((1, 0, 1, 3), A4), ((0, 1, 0, 2, 1, 0), A3)):
            g = reduced_graph(reduce_word(word, matrix))
            for cycle in fundamental_cycles(g):
                start = occurrence_vector(g.vertices[g.arcs[cycle[0]].source], matrix)
                vec = start
                for arc_id in cycle:
                    arc = g.arcs[arc_id]
                    cert = find_braid_factor(
                        g.vertices[arc.source], g.vertices[arc.target], arc.pair, matrix
                    )
                    st = (cert.s_prime.element.word, cert.t_prime.element.word)
                    ts = st[::-1]
                    assert st in vec and ts not in vec
                    vec = (vec - {st}) | {ts}
                assert vec == start


class TestVerifyParity:
    def test_eight_cycle_counts(self):
        partition = pair_classes(A4)
        g = reduced_graph(reduce_word((1, 0, 1, 3), A4), partition)
        report = verify_parity(g, partition)
        assert report.verdict is Verdict.PASS
        long_cycle = [c for c in report.cycles if len(c) == 8][0]
        coarse = Counter(g.arcs[i].color for i in long_cycle)
        adjacent = partition.class_of((0, 1))
        commuting = partition.class_of((0, 2))
        assert coarse[adjacent] == 2 and coarse[commuting] == 6

    def test_i2_4_longest_element(self):
        partition = pair_classes(I2_4)
        g = reduced_graph(reduce_word((0, 1, 0, 1), I2_4), partition)
        report = verify_parity(g, partition)
        assert report.verdict is Verdict.PASS
        assert len(report.cycles) == 1 and len(report.cycles[0]) == 2
        counts = Counter(g.arcs[i].color for i in report.cycles[0])
        assert sorted(counts.values()) == [1, 1]

    def test_exhaustive_over_catalogs(self):
        for name in ("A3", "B3", "I2_3", "I2_4", "I2_5", "I2_6", "I2_7"):
            matrix = catalog_matrix(name)
            partition = pair_classes(matrix)
            for element in enumerate_elements(matrix):
                g = reduced_graph(element, partition)
                assert verify_parity(g, partition).verdict is Verdict.PASS

    def test_provisional_failure_is_inconclusive(self):
        # radius-0 singleton classes break law (a) on the long cycle:
        # (s1, s4) appears twice but (s4, s1) once
        partition = pair_classes(A4, radius=0)
        g = reduced_graph(reduce_word((1, 0, 1, 3), A4), partition)
        report = verify_parity(g, partition)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert not any(c.verdict is Verdict.FAIL for c in report.checks)

    def test_exploratory_flag_on_expression_graphs(self):
        g = expression_graph(reduce_word((0,), A2), 3)
        report = verify_parity(g, pair_classes(A2))
        assert report.exploratory
        assert report.verdict is Verdict.PASS  # single vertex, no cycles

    def test_random_closed_walks_pass(self):
        rng = random.Random(17)
        for word, matrix in (((1, 0, 1, 3), A4), ((0, 1, 0, 2, 1, 0), A3)):
            partition = pair_classes(matrix)
            g = reduced_graph(reduce_word(word, matrix), partition)
            for _ in range(50):
                walk = random_closed_walk(g, rng)
                assert walk_parity_verdict(g, walk, partition) is Verdict.PASS


def _per_cycle_parity(graph, partition):
    """The cycle law rebuilt per cycle: one Counter per fundamental cycle.

    (checks, each cycle's worst verdict, the report's verdict), as
    verify_parity gave them before it grouped cycles by signature.
    """
    op_ids = [op_class(cls.index, partition) for cls in partition.classes]
    checks, cycle_verdicts = [], []
    for ci, cycle in enumerate(fundamental_cycles(graph)):
        counts = Counter(graph.arcs[i].color for i in cycle)
        results = _class_results(counts, op_ids, partition.exact)
        checks.extend(CycleClassCheck(ci, *r) for r in results)
        cycle_verdicts.append(worst(r[-1] for r in results))
    return tuple(checks), cycle_verdicts, worst(c.verdict for c in checks)


def _assert_signatures_match(graph, partition):
    report = verify_parity(graph, partition)
    checks, cycle_verdicts, verdict = _per_cycle_parity(graph, partition)
    assert report.checks == checks
    assert [
        worst(row[-1] for row in report.signatures[k]) for k in report.cycle_signatures
    ] == cycle_verdicts
    assert report.verdict is verdict
    return verdict


def _provisional(partition):
    """The same classes, every one marked provisional."""
    return PairClassPartition(
        partition.matrix,
        tuple(dataclasses.replace(cls, exact=False) for cls in partition.classes),
    )


def _check_signatures_on(name, seed):
    """Every reduced graph of a group, plain and with one arc recoloured,
    under the exact partition, a provisional copy of it and the radius-0
    partition; then a few expression graphs."""
    matrix = catalog_matrix(name)
    rng = random.Random(seed)
    exact = pair_classes(matrix)
    radius0 = pair_classes(matrix, radius=0)
    checked_under = ((exact, (exact, _provisional(exact))), (radius0, (radius0,)))
    seen = Counter()
    elements = enumerate_elements(matrix)
    for element in elements:
        for colouring, partitions in checked_under:
            graph = reduced_graph(element, colouring)
            graphs = [graph]
            n_classes = len(colouring.classes)
            if graph.arcs and n_classes > 1:
                arc = rng.randrange(len(graph.arcs))
                color = (graph.arcs[arc].color + rng.randrange(1, n_classes)) % n_classes
                graphs.append(graph.with_arc_color(arc, color))
            for g in graphs:
                for partition in partitions:
                    seen[_assert_signatures_match(g, partition)] += 1
    for element in elements[: 2 * matrix.rank]:
        graph = expression_graph(element, element.length + 2, exact)
        seen[_assert_signatures_match(graph, exact)] += 1
    return seen


def test_signature_rows_stay_with_their_partition(monkeypatch):
    # the rows of a colour multiset are kept per partition: a provisional
    # copy of the exact partition must rebuild them, and reading a graph
    # twice under one partition must not
    import coxlab.verify

    built = []

    def counted(counts, op_ids, exact):
        built.append(exact)
        return _class_results(counts, op_ids, exact)

    monkeypatch.setattr(coxlab.verify, "_class_results", counted)
    exact = pair_classes(A4)
    graph = reduced_graph(reduce_word((1, 0, 1, 3), A4), exact)
    recoloured = graph.with_arc_color(0, (graph.arcs[0].color + 1) % len(exact.classes))
    provisional = _provisional(exact)
    for partition, verdict in ((exact, Verdict.FAIL), (provisional, Verdict.INCONCLUSIVE)) * 2:
        assert verify_parity(recoloured, partition).verdict is verdict
    distinct = len(verify_parity(recoloured, exact).signatures)
    assert built == [True] * distinct + [False] * distinct
    assert verify_parity(graph, _provisional(exact)).verdict is Verdict.PASS


class TestParitySignatures:
    """verify_parity keeps one table of checks per colour multiset; every
    check and verdict must be the per-cycle rebuild's."""

    @pytest.mark.parametrize(
        "name, seed",
        [("A3", 1), ("B3", 2), ("A4", 3), ("H3", 4), ("I2_7", 5),
         pytest.param("D4", 6, marks=pytest.mark.slow)],
    )
    def test_signatures_match_the_per_cycle_rebuild(self, name, seed):
        seen = _check_signatures_on(name, seed)
        # I2(7) has one exact class, so no recolouring and no FAIL
        assert set(seen) == set(Verdict) - ({Verdict.FAIL} if name == "I2_7" else set())


class TestNegativeControls:
    def test_arc_color_mutations_flip_verdict(self):
        rng = random.Random(23)
        fixtures = [
            (A4, (1, 0, 1, 3)),
            (A3, (0, 1, 0, 2, 1, 0)),
            (I2_4, (0, 1, 0, 1)),
            (B3, (0, 1, 0, 1, 2, 1, 0, 1, 2)),
        ]
        flips = 0
        trials = 0
        while trials < 50:
            matrix, word = fixtures[trials % len(fixtures)]
            partition = pair_classes(matrix)
            g = reduced_graph(reduce_word(word, matrix), partition)
            n_classes = len(partition.classes)
            arc_id = rng.randrange(len(g.arcs))
            new_color = (g.arcs[arc_id].color + 1 + rng.randrange(n_classes - 1)) % n_classes
            mutated = g.with_arc_color(arc_id, new_color)
            report = verify_parity(mutated, partition)
            trials += 1
            if report.verdict is Verdict.FAIL:
                flips += 1
        assert flips == trials == 50

    def test_word_letter_mutations_flip_verdict(self):
        rng = random.Random(29)
        from coxlab import braid_moves

        fixtures = []
        for matrix, word in ((A3, (0, 1, 0, 2, 1, 0)), (B3, (0, 1, 0, 1, 2, 1, 0, 1, 2)), (A4, (1, 0, 1, 3))):
            g = reduced_graph(reduce_word(word, matrix))
            for arc in g.arcs[:6]:
                fixtures.append(
                    (matrix, g.vertices[arc.source], g.vertices[arc.target], arc.pair)
                )
        flips = 0
        for trial in range(50):
            matrix, a, b, pair = fixtures[trial % len(fixtures)]
            pos = rng.randrange(len(b))
            new_letter = (b[pos] + 1 + rng.randrange(matrix.rank - 1)) % matrix.rank
            corrupted = b[:pos] + (new_letter,) + b[pos:][1:]
            assert corrupted != b
            try:
                result = verify_has_step(a, corrupted, pair, matrix)
                if result.verdict is Verdict.FAIL:
                    flips += 1
            except NotABraidStep:
                flips += 1
        assert flips == 50


class TestPropertyHarness:
    def test_a3_samples_pass(self):
        report = property_harness(A3, samples=200, seed=42)
        assert report.passed
        assert report.checks["inversion_entries_distinct"] == 200
        assert report.checks["sweep_reversal"] == 200

    def test_i2_7_samples_pass(self):
        report = property_harness(catalog_matrix("I2_7"), samples=100, seed=7)
        assert report.passed

    def test_rank_zero_vacuous(self):
        report = property_harness(validate_matrix([]), samples=50, seed=0)
        assert report.passed
        assert sum(report.checks.values()) == 0

    def test_deterministic(self):
        a = property_harness(A3, samples=50, seed=5)
        b = property_harness(A3, samples=50, seed=5)
        assert a.checks == b.checks and a.failures == b.failures

    def test_bond_above_the_order_cap_runs_every_sweep_property(self):
        # (u, v) = q (s, t) q^-1 has order m(s, t) = 65, above order_cap
        report = property_harness(catalog_matrix("I2_65"), samples=30, seed=0)
        assert report.passed
        for name in (
            "sweep_entries_distinct_cover",
            "sweep_reversal",
            "sweep_conjugated_reversal",
            "conjugate_pair_order",
            "two_generated_subgroup_membership",
        ):
            assert report.checks[name] == 30, name

    def test_membership_property_catches_a_rotated_sweep(self, monkeypatch):
        import coxlab.props
        from coxlab.core import DihedralReflectionWord, dihedral_reflection_word

        def rotated(u, v, cap=None):
            sweep = dihedral_reflection_word(u, v)
            entries = sweep.entries[1:] + sweep.entries[:1]
            return DihedralReflectionWord(pair=sweep.pair, entries=entries)

        monkeypatch.setattr(coxlab.props, "dihedral_reflection_word", rotated)
        report = property_harness(A3, samples=20, seed=3)
        failed = {f.name for f in report.failures}
        assert "two_generated_subgroup_membership" in failed
