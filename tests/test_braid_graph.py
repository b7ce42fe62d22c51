import random

import pytest

import coxlab.braid_graph as bg
from coxlab import (
    ElementCapExceeded,
    INFINITY,
    LengthParityMismatch,
    braid_moves,
    catalog_matrix,
    conjugate,
    enumerate_elements,
    expression_graph,
    finite_pairs,
    generator_element,
    identity_element,
    op_class,
    pair_classes,
    reduce_word,
    reduced_graph,
    validate_matrix,
)

from coxlab.core import CoxeterMatrix, cayley_table, element_ids
from oracles import (
    closure_words,
    dihedral_oracle,
    reference_closure,
    reference_orbit,
    signed_oracle,
    symmetric_oracle,
)

A2 = catalog_matrix("A2")
A3 = catalog_matrix("A3")
A4 = catalog_matrix("A4")
B3 = catalog_matrix("B3")
B4 = catalog_matrix("B4")


class TestBraidMoves:
    def test_a2_braid(self):
        moves = braid_moves((0, 1, 0), A2)
        assert moves == [(0, (0, 1), (1, 0, 1))]

    def test_paper_move_in_a3(self):
        # (s2, s1, s3): one move at position 1 with pair (s1, s3)
        moves = braid_moves((1, 0, 2), A3)
        assert moves == [(1, (0, 2), (1, 2, 0))]

    def test_empty_word(self):
        assert braid_moves((), A3) == []

    def test_no_move_through_infinite_bond(self):
        m = validate_matrix([[1, INFINITY], [INFINITY, 1]])
        assert braid_moves((0, 1, 0, 1), m) == []

    def test_moves_preserve_element_and_length(self):
        rng = random.Random(1)
        for _ in range(30):
            w = reduce_word(
                tuple(rng.randrange(3) for _ in range(rng.randint(0, 8))), B3
            ).word
            for _, _, target in braid_moves(w, B3):
                assert len(target) == len(w)
                assert reduce_word(target, B3).word == w or reduce_word(target, B3) == reduce_word(w, B3)


class TestReducedGraph:
    def test_identity(self):
        g = reduced_graph(identity_element(A3))
        assert len(g.vertices) == 1 and len(g.arcs) == 0

    def test_paper_pi(self):
        g = reduced_graph(reduce_word((1, 0, 2), A3))
        assert len(g.vertices) == 2 and len(g.arcs) == 2

    def test_paper_eight_cycle(self):
        g = reduced_graph(reduce_word((1, 0, 1, 3), A4))
        assert len(g.vertices) == 8 and len(g.arcs) == 16
        degree = {i: 0 for i in range(8)}
        edges = set()
        for arc in g.arcs:
            edges.add((min(arc.source, arc.target), max(arc.source, arc.target)))
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        assert len(edges) == 8
        assert all(d == 2 for d in degree.values())

    def test_arcs_come_in_reverse_pairs(self):
        for element in enumerate_elements(B3):
            g = reduced_graph(element)
            arcs = {(a.source, a.target, a.pair, a.position) for a in g.arcs}
            for source, target, (s, t), position in arcs:
                assert (target, source, (t, s), position) in arcs

    def test_strongly_connected(self):
        g = reduced_graph(reduce_word((0, 1, 0, 2, 1, 0), A3))
        out = {i: [] for i in range(len(g.vertices))}
        for arc in g.arcs:
            out[arc.source].append(arc.target)
        seen = {0}
        frontier = [0]
        while frontier:
            frontier = [
                y for x in frontier for y in out[x] if y not in seen and not seen.add(y)
            ]
        assert seen == set(range(len(g.vertices)))

    def test_vertices_are_reduced_expressions(self):
        element = reduce_word((0, 1, 0, 2), B3)
        g = reduced_graph(element)
        for word in g.vertices:
            e = reduce_word(word, B3)
            assert e == element and e.length == len(word)

    def test_deterministic_construction(self):
        a = reduced_graph(reduce_word((1, 0, 1, 3), A4))
        b = reduced_graph(reduce_word((1, 0, 1, 3), A4))
        assert a.vertices == b.vertices and a.arcs == b.arcs

    def test_vertex_counts_match_oracle_everywhere_in_a3(self):
        oracle = symmetric_oracle(3)
        for element in enumerate_elements(A3):
            g = reduced_graph(element)
            concrete = oracle.word_to_element(element.word)
            assert len(g.vertices) == oracle.reduced_word_count(concrete)

    @pytest.mark.parametrize(
        "matrix,oracle,rank",
        [(A4, symmetric_oracle(4), 4), (B3, signed_oracle(3), 3)],
        ids=["A4", "B3"],
    )
    def test_vertex_counts_match_oracle_random(self, matrix, oracle, rank):
        rng = random.Random(20)
        for _ in range(20):
            w = tuple(rng.randrange(rank) for _ in range(rng.randint(0, 9)))
            element = reduce_word(w, matrix)
            g = reduced_graph(element)
            concrete = oracle.word_to_element(w)
            assert len(g.vertices) == oracle.reduced_word_count(concrete)


class TestExpressionGraph:
    def test_reduced_length_equals_reduced_graph(self):
        element = reduce_word((0, 1, 0, 2), A3)
        e_graph = expression_graph(element, element.length)
        r_graph = reduced_graph(element)
        assert set(e_graph.vertices) == set(r_graph.vertices)

    def test_a2_generator_at_length_three(self):
        # pinned by the S3 oracle: the braid component of (s1, s1, s1) is
        # just itself, although (s1, s2, s2) and (s2, s2, s1) also equal s1
        element = reduce_word((0,), A2)
        g = expression_graph(element, 3)
        assert g.vertices == ((0, 0, 0),)
        assert g.arcs == ()
        assert g.mode == "expressions"
        # oracle cross-check: enumerate every length-3 word equal to s1 and
        # close the seed under braid moves inside that set
        from itertools import product

        oracle = symmetric_oracle(2)
        words = {
            w for w in product(range(2), repeat=3)
            if oracle.word_to_element(w) == oracle.gens[0]
        }
        assert words == {(0, 0, 0), (0, 1, 1), (1, 1, 0)}
        component = {(0, 0, 0)}
        frontier = [(0, 0, 0)]
        while frontier:
            frontier = [
                y
                for w in frontier
                for _, _, y in braid_moves(w, A2)
                if y not in component and not component.add(y)
            ]
        assert set(g.vertices) == component

    def test_identity_in_a1_at_length_two(self):
        a1 = catalog_matrix("A1")
        g = expression_graph(identity_element(a1), 2)
        assert g.vertices == ((0, 0),)
        assert len(g.arcs) == 0

    def test_parity_mismatch(self):
        with pytest.raises(LengthParityMismatch):
            expression_graph(reduce_word((0,), A2), 4)

    def test_too_short(self):
        with pytest.raises(LengthParityMismatch):
            expression_graph(reduce_word((0, 1), A2), 0)

    def test_vertices_all_represent_element(self):
        element = reduce_word((0, 1), A2)
        g = expression_graph(element, 6)
        assert all(reduce_word(w, A2) == element for w in g.vertices)
        assert all(len(w) == 6 for w in g.vertices)


class TestPairClasses:
    def test_a3_two_classes(self):
        partition = pair_classes(A3)
        by_pairs = sorted(cls.pairs for cls in partition.classes)
        assert by_pairs == [
            ((0, 1), (1, 0), (1, 2), (2, 1)),
            ((0, 2), (2, 0)),
        ]
        assert partition.exact

    @pytest.mark.parametrize("name,expected", [("A4", [6, 6]), ("A5", [8, 12])])
    def test_larger_a_two_classes(self, name, expected):
        partition = pair_classes(catalog_matrix(name))
        assert sorted(len(c.pairs) for c in partition.classes) == expected

    def test_i2_3_single_class(self):
        partition = pair_classes(catalog_matrix("I2_3"))
        assert len(partition.classes) == 1
        assert partition.classes[0].pairs == ((0, 1), (1, 0))

    def test_i2_4_singletons(self):
        partition = pair_classes(catalog_matrix("I2_4"))
        assert [cls.pairs for cls in partition.classes] == [((0, 1),), ((1, 0),)]

    @pytest.mark.parametrize("m,count", [(3, 1), (4, 2), (5, 1), (6, 2), (7, 1)])
    def test_dihedral_class_counts_match_oracle(self, m, count):
        partition = pair_classes(catalog_matrix(f"I2_{m}"))
        assert len(partition.classes) == count
        # brute force in the concrete dihedral group
        oracle = dihedral_oracle(m)
        s, t = oracle.gens
        swapped = any(
            oracle.conjugate(q, s) == t and oracle.conjugate(q, t) == s
            for q in oracle.elements_and_lengths()
        )
        assert swapped == (count == 1)

    def test_b3_classes_match_oracle(self):
        partition = pair_classes(B3)
        assert sorted(cls.pairs for cls in partition.classes) == [
            ((0, 1),), ((0, 2),), ((1, 0),), ((1, 2), (2, 1)), ((2, 0),),
        ]

    def test_exact_witnesses_verify(self):
        for name in ("A3", "A4", "B3", "I2_3", "I2_4", "H3", "F4", "H4"):
            matrix = catalog_matrix(name)
            partition = pair_classes(matrix)
            for cls in partition.classes:
                rep = cls.representative
                rs = generator_element(matrix, rep[0])
                rt = generator_element(matrix, rep[1])
                for member, q in cls.witnesses.items():
                    assert conjugate(q, rs) == generator_element(matrix, member[0])
                    assert conjugate(q, rt) == generator_element(matrix, member[1])

    def test_h4_closes_exactly(self):
        # H4's reflections reach length 45, past the length guard of groups
        # without a Cayley table
        h4 = catalog_matrix("H4")
        exact = pair_classes(h4)
        assert exact.exact and len(exact.classes) == 3
        assert len(closure_words(h4)) == 2820
        exact_index = {p: c.index for c in exact.classes for p in c.pairs}
        for radius in range(7):
            provisional = pair_classes(h4, radius=radius)
            for cls in provisional.classes:
                assert len({exact_index[p] for p in cls.pairs}) == 1
        # the radius partition has stopped merging by radius 6
        assert sorted(c.pairs for c in provisional.classes) == sorted(
            c.pairs for c in exact.classes
        )

    @pytest.mark.slow
    def test_length_guard_of_a_finite_group_without_a_table(self, monkeypatch):
        # H4 on Tits' method alone: its reflections reach length 45, so the
        # closure stops at the guard, and the message must not call the
        # finite group infinite.  The guard is reached after about 735 000
        # braid-orbit words, so the search budget is lifted here.
        import coxlab.core

        monkeypatch.setattr(coxlab.core, "_CLOSURE_SEARCH_BUDGET", None)
        h4 = CoxeterMatrix(catalog_matrix("H4").entries)
        h4._table = False
        with pytest.raises(ElementCapExceeded) as info:
            pair_classes(h4)
        assert info.value.cap == 24
        assert str(info.value) == "conjugates exceed length 24; orbit passed the length guard"

    def test_search_budget_stops_the_closure(self, monkeypatch):
        # B4 on Tits' method alone visits about 3 400 braid-orbit words; with
        # a budget of 1 000 the closure stops, and the outcome is memoized
        import coxlab.core

        monkeypatch.setattr(coxlab.core, "_CLOSURE_SEARCH_BUDGET", 1000)
        b4 = CoxeterMatrix(B4.entries)
        b4._table = False
        for _ in range(2):
            with pytest.raises(ElementCapExceeded) as info:
                pair_classes(b4)
            assert info.value.cap == 1000
            assert str(info.value) == (
                "conjugation closure exceeded its search budget of 1000 braid-orbit words"
            )
        # the budget binds only while the closure runs, and the canonical
        # forms found before it ran out are still right
        assert b4._budget is None
        for element in enumerate_elements(B4, max_length=6):
            assert reduce_word(element.word[::-1], b4).word == (~element).word
        assert not pair_classes(b4, radius=1).exact

    def test_search_budget_leaves_finishing_closures_alone(self, monkeypatch):
        # the same B4 closure on Tits' method finishes within the default
        # budget and gives the table's closure; the two stores number the
        # elements differently, so the closures are compared as words
        b4 = CoxeterMatrix(B4.entries)
        b4._table = False
        assert closure_words(b4).keys() == closure_words(B4).keys()

    def test_finite_pairs_excludes_infinite_bonds(self):
        m = validate_matrix([[1, 3, INFINITY], [3, 1, 3], [INFINITY, 3, 1]])
        assert finite_pairs(m) == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_exact_mode_caps_out_on_infinite_group(self):
        # affine-flavored infinite group: conjugation orbits do not close
        m = validate_matrix([[1, 3, INFINITY], [3, 1, 3], [INFINITY, 3, 1]])
        with pytest.raises(ElementCapExceeded):
            pair_classes(m)

    def test_closure_outcome_is_memoized_on_the_matrix(self, monkeypatch):
        import coxlab.braid_graph as bg

        calls = []
        real = bg._conjugation_closure

        def counted(matrix):
            calls.append(matrix)
            return real(matrix)

        monkeypatch.setattr(bg, "_conjugation_closure", counted)
        finite = catalog_matrix("B3")
        assert bg.conjugate_pair_closure(finite) is bg.conjugate_pair_closure(finite)
        infinite = validate_matrix([[1, 3, INFINITY], [3, 1, 3], [INFINITY, 3, 1]])
        errors = []
        for _ in range(2):
            with pytest.raises(ElementCapExceeded) as info:
                bg.conjugate_pair_closure(infinite)
            errors.append((info.value.cap, str(info.value)))
        assert errors[0] == errors[1]
        assert calls == [finite, infinite]

    def test_radius_mode_is_provisional(self):
        m = validate_matrix([[1, 3, INFINITY], [3, 1, 3], [INFINITY, 3, 1]])
        partition = pair_classes(m, radius=2)
        assert not partition.exact
        assert all(cls.radius == 2 for cls in partition.classes)
        # witnesses still verify
        for cls in partition.classes:
            rep = cls.representative
            rs = generator_element(m, rep[0])
            rt = generator_element(m, rep[1])
            for member, q in cls.witnesses.items():
                assert conjugate(q, rs) == generator_element(m, member[0])
                assert conjugate(q, rt) == generator_element(m, member[1])

    def test_radius_zero_gives_singletons(self):
        partition = pair_classes(A3, radius=0)
        assert all(len(cls.pairs) == 1 for cls in partition.classes)
        assert not partition.exact

    def test_radius_mode_refines_exact(self):
        exact = pair_classes(A3)
        provisional = pair_classes(A3, radius=1)
        exact_index = {p: c.index for c in exact.classes for p in c.pairs}
        for cls in provisional.classes:
            assert len({exact_index[p] for p in cls.pairs}) == 1


class TestOpClass:
    def test_a3_adjacent_is_self_opposite(self):
        partition = pair_classes(A3)
        cid = partition.class_of((0, 1))
        assert op_class(cid, partition) == cid

    def test_i2_4_swaps(self):
        partition = pair_classes(catalog_matrix("I2_4"))
        a = partition.class_of((0, 1))
        b = partition.class_of((1, 0))
        assert op_class(a, partition) == b and op_class(b, partition) == a

    def test_involution(self):
        for name in ("A3", "B3", "I2_4", "H3"):
            partition = pair_classes(catalog_matrix(name))
            for cls in partition.classes:
                assert op_class(op_class(cls.index, partition), partition) == cls.index


INFINITE_ROWS = {
    "inf_bond": [[1, 3, INFINITY], [3, 1, 3], [INFINITY, 3, 1]],
    "affine_A2": [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
}


class TestClosureOnIds:
    """The conjugation closure on element ids against the Element reference.

    The reference (oracles.reference_closure) is the closure's former
    construction, on Element products keyed by pairs of canonical words.
    Each side runs on its own copy of the matrix, with the Cayley table
    decided first, and the id side is read back as words.
    """

    @staticmethod
    def fresh(entries, table):
        matrix = CoxeterMatrix(entries)
        if not table:
            matrix._table = False
        cayley_table(matrix)
        return matrix

    @pytest.mark.parametrize(
        "name, table",
        [(name, True) for name in ("A3", "B3", "H3", "A4", "D4", "B4", "F4", "I2_7", "I2_128")]
        + [("B3", False), ("B4", False)],
    )
    def test_closure_matches_the_reference(self, name, table):
        entries = catalog_matrix(name).entries
        expected = [
            (state, (seed, q.word, m))
            for state, (seed, q, m) in reference_closure(self.fresh(entries, table)).items()
        ]
        matrix = self.fresh(entries, table)
        closure = bg._conjugation_closure(matrix)
        words = element_ids(matrix).words
        got = [
            ((words[u], words[v]), (seed, words[q], m))
            for (u, v), (seed, q, m) in closure.items()
        ]
        # keys in insertion order, seeds, witnesses and m
        assert got == expected
        # the memo on the store keeps every pair with its m
        assert closure_words(matrix) == {state: m for state, (_, _, m) in expected}
        # and the exact classes keep the reference's seeds and witnesses
        generators = {((s,), (t,)): (s, t) for s, t in finite_pairs(matrix)}
        by_seed = {}
        for state, (seed, q, _) in expected:
            if state in generators:
                by_seed.setdefault(seed, {})[generators[state]] = q
        partition = pair_classes(matrix)
        assert [
            {pair: q.word for pair, q in cls.witnesses.items()} for cls in partition.classes
        ] == [by_seed[seed] for seed in sorted(by_seed)]

    @pytest.mark.parametrize("rows", list(INFINITE_ROWS.values()), ids=list(INFINITE_ROWS))
    def test_cap_error_matches_the_reference(self, rows):
        entries = validate_matrix(rows).entries
        with pytest.raises(ElementCapExceeded) as expected:
            reference_closure(self.fresh(entries, True))
        with pytest.raises(ElementCapExceeded) as got:
            bg.conjugate_pair_closure(self.fresh(entries, True))
        assert (got.value.cap, str(got.value)) == (expected.value.cap, str(expected.value))

    @pytest.mark.parametrize(
        "matrix",
        [A4, catalog_matrix("H3"), validate_matrix(INFINITE_ROWS["affine_A2"])],
        ids=["A4", "H3", "affine_A2"],
    )
    def test_radius_orbits_match_the_reference(self, matrix):
        for pair in finite_pairs(matrix):
            for radius in range(4):
                expected = [
                    (state, q.word) for state, q in reference_orbit(matrix, pair, radius).items()
                ]
                orbit = bg._conjugation_orbit(matrix, pair, radius)
                words = element_ids(matrix).words
                got = [((words[u], words[v]), words[q]) for (u, v), q in orbit.items()]
                assert got == expected, (pair, radius)
