import random
from collections import Counter

import pytest

from coxlab import (
    NotABraidStep,
    ReflectionPair,
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
from coxlab.braid_graph import default_partition
from coxlab.core import alternating_word, identity_element
from coxlab.verify import random_closed_walk, walk_parity_verdict

A2 = catalog_matrix("A2")
A3 = catalog_matrix("A3")
A4 = catalog_matrix("A4")
B3 = catalog_matrix("B3")
I2_4 = catalog_matrix("I2_4")


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
        from coxlab import generator_reflection

        u, v = generator_reflection(matrix, 0), generator_reflection(matrix, 1)
        assert occurrence_vector(a, matrix).coords == {ReflectionPair(u, v): 1}
        assert occurrence_vector(b, matrix).coords == {ReflectionPair(v, u): 1}

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

    def test_certificate_failure_is_a_fail_verdict(self, monkeypatch):
        # b's inversion word comes back with the move window unreversed,
        # so the certificate's last cross-check must fail
        import coxlab.verify
        from coxlab import inversion_word

        a = (1, 0, 2)
        b = (1, 2, 0)

        def unreversed(word, matrix):
            return inversion_word(a if tuple(word) == b else word, matrix)

        monkeypatch.setattr(coxlab.verify, "inversion_word", unreversed)
        result = verify_has_step(a, b, (0, 2), A3)
        assert result.verdict is Verdict.FAIL
        assert result.details == (
            "certificate: braid move did not reverse the inversion-word factor"
        )

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
                    vec = vec.shifted(
                        minus=ReflectionPair(cert.s_prime, cert.t_prime),
                        plus=ReflectionPair(cert.t_prime, cert.s_prime),
                    )
                assert vec == start


class TestVerifyParity:
    def test_eight_cycle_counts(self):
        partition = default_partition(A4)
        g = reduced_graph(reduce_word((1, 0, 1, 3), A4), partition)
        report = verify_parity(g, partition)
        assert report.verdict is Verdict.PASS
        long_cycle = [c for c in report.cycles if len(c) == 8][0]
        coarse = Counter(g.arcs[i].color for i in long_cycle)
        adjacent = partition.class_of((0, 1))
        commuting = partition.class_of((0, 2))
        assert coarse[adjacent] == 2 and coarse[commuting] == 6

    def test_i2_4_longest_element(self):
        partition = default_partition(I2_4)
        g = reduced_graph(reduce_word((0, 1, 0, 1), I2_4), partition)
        report = verify_parity(g, partition)
        assert report.verdict is Verdict.PASS
        assert len(report.cycles) == 1 and len(report.cycles[0]) == 2
        counts = Counter(g.arcs[i].color for i in report.cycles[0])
        assert sorted(counts.values()) == [1, 1]

    def test_exhaustive_over_catalogs(self):
        for name in ("A3", "B3", "I2_3", "I2_4", "I2_5", "I2_6", "I2_7"):
            matrix = catalog_matrix(name)
            partition = default_partition(matrix)
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
        report = verify_parity(g, default_partition(A2))
        assert report.exploratory
        assert report.verdict is Verdict.PASS  # single vertex, no cycles

    def test_random_closed_walks_pass(self):
        rng = random.Random(17)
        for word, matrix in (((1, 0, 1, 3), A4), ((0, 1, 0, 2, 1, 0), A3)):
            partition = default_partition(matrix)
            g = reduced_graph(reduce_word(word, matrix), partition)
            for _ in range(50):
                walk = random_closed_walk(g, rng)
                assert walk_parity_verdict(g, walk, partition) is Verdict.PASS


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
            partition = default_partition(matrix)
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

    def test_membership_property_catches_a_rotated_sweep(self, monkeypatch):
        import coxlab.verify
        from coxlab.core import DihedralReflectionWord, dihedral_reflection_word

        def rotated(u, v, cap=None):
            sweep = dihedral_reflection_word(u, v)
            entries = sweep.entries[1:] + sweep.entries[:1]
            return DihedralReflectionWord(pair=sweep.pair, entries=entries)

        monkeypatch.setattr(coxlab.verify, "dihedral_reflection_word", rotated)
        report = property_harness(A3, samples=20, seed=3)
        failed = {f.name for f in report.failures}
        assert "two_generated_subgroup_membership" in failed
