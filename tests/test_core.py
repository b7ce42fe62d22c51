import random

import pytest
from hypothesis import given, settings, strategies as st

from coxlab import (
    Asymmetric,
    CapExceededError,
    DiagonalNotOne,
    INFINITY,
    MatrixError,
    NonSquare,
    OffDiagonalBelowTwo,
    Reflection,
    catalog_matrix,
    conjugate,
    dihedral_reflection_word,
    enumerate_elements,
    generator_element,
    generator_reflection,
    inverse,
    multiply,
    order_of_product,
    pair_classes,
    reduce_word,
    reduced_expressions,
    validate_matrix,
)
from coxlab.catalog import _from_bonds
from coxlab.core import (
    CoxeterMatrix,
    _canonical,
    _canonical_search,
    cayley_table,
    element_ids,
    reduced_word_counts,
)
from coxlab.props import dihedral_subgroup

from oracles import dihedral_oracle, signed_oracle, symmetric_oracle

A2 = catalog_matrix("A2")
A3 = catalog_matrix("A3")
B3 = catalog_matrix("B3")


class TestValidateMatrix:
    def test_a2_ok(self):
        m = validate_matrix([[1, 3], [3, 1]])
        assert m.rank == 2 and m.m(0, 1) == 3

    def test_a1xa1_ok(self):
        m = validate_matrix([[1, 2], [2, 1]])
        assert m.m(0, 1) == 2

    def test_off_diagonal_below_two(self):
        with pytest.raises(OffDiagonalBelowTwo):
            validate_matrix([[1, 1], [1, 1]])

    def test_diagonal_not_one(self):
        with pytest.raises(DiagonalNotOne):
            validate_matrix([[2, 3], [3, 1]])

    def test_asymmetric(self):
        with pytest.raises(Asymmetric):
            validate_matrix([[1, 3], [4, 1]])

    def test_non_square(self):
        with pytest.raises(NonSquare):
            validate_matrix([[1, 3]])

    def test_bad_entry(self):
        with pytest.raises(MatrixError):
            validate_matrix([[1, 2.5], [2.5, 1]])

    def test_rank_zero_is_legal(self):
        m = validate_matrix([])
        assert m.rank == 0
        assert reduce_word((), m).is_identity()

    def test_infinite_entry_ok(self):
        m = validate_matrix([[1, INFINITY], [INFINITY, 1]])
        assert m.m(0, 1) == INFINITY

    def test_equality_and_hash(self):
        a = validate_matrix([[1, 3], [3, 1]])
        b = validate_matrix([[1, 3], [3, 1]])
        assert a == b and hash(a) == hash(b)


class TestReduce:
    def test_square_is_identity(self):
        assert reduce_word((0, 0), A2).is_identity()

    def test_paper_pi_canonical(self):
        # (s2, s3, s1) and (s2, s1, s3) are the same element; ShortLex
        # picks (s2, s1, s3)
        assert reduce_word((1, 2, 0), A3).word == (1, 0, 2)

    def test_a2_four_letter_word(self):
        # pinned by the S3 permutation oracle
        e = reduce_word((0, 1, 0, 1), A2)
        assert e.word == (1, 0) and e.length == 2

    def test_idempotent(self):
        e = reduce_word((0, 1, 0, 1, 2, 1), A3)
        assert reduce_word(e.word, A3) == e

    def test_length_drop_is_even(self):
        rng = random.Random(7)
        for _ in range(50):
            w = tuple(rng.randrange(3) for _ in range(rng.randint(0, 9)))
            e = reduce_word(w, A3)
            assert (len(w) - e.length) % 2 == 0

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            reduce_word((5,), A2)


class TestGroupOps:
    def test_generator_involution(self):
        s = generator_element(A2, 0)
        assert multiply(s, s).is_identity()

    def test_inverse_of_two_letter_word(self):
        e = reduce_word((0, 1), A2)
        assert inverse(e).word == (1, 0)

    def test_conjugate_by_longest_element_of_a2(self):
        # pinned by the S3 permutation oracle: w0 swaps the generators
        q = reduce_word((0, 1, 0), A2)
        assert conjugate(q, generator_element(A2, 0)).word == (1,)

    def test_cross_matrix_multiplication_rejected(self):
        with pytest.raises(ValueError):
            multiply(generator_element(A2, 0), generator_element(A3, 0))

    def test_operators(self):
        a = reduce_word((0, 1), A3)
        assert (a * ~a).is_identity()


class TestOrderOfProduct:
    def test_adjacent_generators(self):
        assert order_of_product(generator_element(A2, 0), generator_element(A2, 1)) == 3

    def test_commuting_generators(self):
        m = validate_matrix([[1, 2], [2, 1]])
        assert order_of_product(generator_element(m, 0), generator_element(m, 1)) == 2

    def test_reflection_times_generator_in_a2(self):
        # pinned by the S3 permutation oracle: (1 3) * (2 3) is a 3-cycle,
        # and indeed every pair of distinct reflections of S3 has product
        # order 3
        u = reduce_word((0, 1, 0), A2)
        v = generator_element(A2, 1)
        assert order_of_product(u, v, cap=10) == 3

    def test_equal_elements_rejected(self):
        s = generator_element(A2, 0)
        with pytest.raises(ValueError):
            order_of_product(s, s)

    def test_cap_exceeded_on_infinite_order(self):
        m = validate_matrix([[1, INFINITY], [INFINITY, 1]])
        with pytest.raises(CapExceededError) as info:
            order_of_product(generator_element(m, 0), generator_element(m, 1), cap=20)
        assert info.value.cap == 20


class TestReflection:
    def test_generator_reflection(self):
        r = generator_reflection(A3, 1)
        assert r.element.word == (1,)

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            Reflection(reduce_word((0, 1), A3))

    def test_non_involution_rejected(self):
        with pytest.raises(ValueError):
            Reflection(reduce_word((0, 1, 2), A3))


class TestDihedralReflectionWord:
    def test_order_two(self):
        m = validate_matrix([[1, 2], [2, 1]])
        u, v = generator_reflection(m, 0), generator_reflection(m, 1)
        sweep = dihedral_reflection_word(u, v)
        assert sweep.entries == (u, v)

    def test_order_three(self):
        u, v = generator_reflection(A2, 0), generator_reflection(A2, 1)
        sweep = dihedral_reflection_word(u, v)
        assert [r.element.word for r in sweep.entries] == [(0,), (0, 1, 0), (1,)]

    def test_b2_order_four(self):
        # pinned by the signed-permutation oracle
        b2 = catalog_matrix("I2_4")
        u, v = generator_reflection(b2, 0), generator_reflection(b2, 1)
        sweep = dihedral_reflection_word(u, v)
        assert [r.element.word for r in sweep.entries] == [
            (0,), (0, 1, 0), (1, 0, 1), (1,),
        ]

    def test_reversal_is_swapped_sweep(self):
        u, v = generator_reflection(A2, 0), generator_reflection(A2, 1)
        sweep = dihedral_reflection_word(u, v)
        rev = sweep.reversal()
        assert rev.entries == dihedral_reflection_word(v, u).entries
        assert rev.pair == (v, u)

    def test_double_reversal(self):
        u, v = generator_reflection(A2, 0), generator_reflection(A2, 1)
        sweep = dihedral_reflection_word(u, v)
        assert sweep.reversal().reversal() == sweep

    def test_conjugated_reversal_against_oracle(self):
        # prop: q . sweep(t, s) . q^-1 reverses q . sweep(s, t) . q^-1,
        # cross-checked in the S4 permutation model
        oracle = symmetric_oracle(3)
        rng = random.Random(3)
        for _ in range(20):
            qw = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4)))
            q = reduce_word(qw, A3)
            s, t = rng.sample(range(3), 2)
            u, v = generator_reflection(A3, s), generator_reflection(A3, t)
            left = dihedral_reflection_word(v, u).conjugated_by(q)
            right = dihedral_reflection_word(u, v).conjugated_by(q)[::-1]
            assert left == right
            perm_q = oracle.word_to_element(qw)
            for ours, entry in zip(left, dihedral_reflection_word(v, u).entries):
                expected = oracle.conjugate(perm_q, oracle.word_to_element(entry.element.word))
                assert oracle.word_to_element(ours.word) == expected

    def test_memoized_sweep_still_honours_the_cap(self):
        m = catalog_matrix("I2_7")
        u, v = generator_reflection(m, 0), generator_reflection(m, 1)
        with pytest.raises(CapExceededError):
            dihedral_reflection_word(u, v, cap=6)
        sweep = dihedral_reflection_word(u, v, cap=7)
        assert sweep.order == 7
        assert dihedral_reflection_word(u, v) is sweep
        with pytest.raises(CapExceededError) as info:
            dihedral_reflection_word(u, v, cap=6)
        assert info.value.cap == 6

    def test_entries_cover_dihedral_reflections(self):
        u = Reflection(reduce_word((0, 1, 0), A3))
        v = generator_reflection(A3, 2)
        sweep = dihedral_reflection_word(u, v)
        subgroup = dihedral_subgroup(u.element, v.element)
        odd = {x for x in subgroup if x.length % 2 == 1}
        assert {r.element for r in sweep.entries} == odd


class TestEnumerateElements:
    def test_a3_order(self):
        elements = enumerate_elements(A3)
        assert len(elements) == 24
        lengths = [e.length for e in elements]
        assert lengths == sorted(lengths) and lengths[-1] == 6

    def test_b3_order(self):
        assert len(enumerate_elements(B3)) == 48

    def test_max_length(self):
        short = enumerate_elements(A3, max_length=2)
        assert all(e.length <= 2 for e in short)
        assert len(short) == 1 + 3 + 5

    def test_cap_on_infinite_group(self):
        m = validate_matrix([[1, INFINITY], [INFINITY, 1]])
        with pytest.raises(CapExceededError):
            enumerate_elements(m, cap=50)

    @pytest.mark.parametrize(
        "name,count,longest",
        [("F4", 1152, 24), ("H4", 14400, 60), ("I2_128", 256, 128), ("I2_200", 400, 200)],
    )
    def test_pinned_group_orders(self, name, count, longest):
        # I2(128) and I2(200) are finite although their words pass the
        # Tits path's length guard of 128
        elements = enumerate_elements(catalog_matrix(name))
        assert len(elements) == count
        assert elements[-1].length == longest

    @pytest.mark.parametrize("max_length", [None, 2, 4])
    def test_table_cap_and_truncation_match_tits(self, max_length):
        assert cayley_table(A3) is not None
        tits = _without_table(A3)
        full = len(enumerate_elements(A3, max_length=max_length))
        assert enumerate_elements(A3, max_length=max_length, cap=full) == enumerate_elements(
            tits, max_length=max_length, cap=full
        )
        for matrix in (A3, tits):
            with pytest.raises(CapExceededError):
                enumerate_elements(matrix, max_length=max_length, cap=full - 1)

    @pytest.mark.parametrize(
        "rows,max_length",
        [
            ([[1, 3, INFINITY], [3, 1, 3], [INFINITY, 3, 1]], 11),
            ([[1, 3, 3], [3, 1, 3], [3, 3, 1]], 10),
            (B3.entries, 4),
        ],
        ids=["inf", "affine_a2", "B3_tits"],
    )
    def test_bounded_tits_enumeration_reduces_no_longer_word(self, rows, max_length):
        # Tits' method interns every element whose word it reduces, so the
        # store holds exactly the listed elements only if the enumeration
        # never expands a word of length max_length
        matrix = _without_table(validate_matrix(rows))
        elements = enumerate_elements(matrix, max_length=max_length)
        words = element_ids(matrix).words
        assert max(map(len, words)) <= max_length
        assert sorted(words) == sorted(e.word for e in elements)

    def test_negative_max_length_is_rejected_on_both_paths(self):
        assert cayley_table(A3) is not None
        for matrix in (A3, _without_table(A3)):
            with pytest.raises(ValueError):
                enumerate_elements(matrix, max_length=-1)

    @pytest.mark.parametrize(
        "matrix,claim",
        [
            (validate_matrix([[1, INFINITY], [INFINITY, 1]]), "group looks infinite"),
            (validate_matrix([[1, 3, INFINITY], [3, 1, 3], [INFINITY, 3, 1]]),
             "group looks infinite"),
            (catalog_matrix("I2_2000"), "enumeration passed the length guard"),
        ],
        ids=["I2_inf", "rank3_inf", "I2_2000"],
    )
    def test_length_guard_calls_only_infinite_groups_infinite(self, matrix, claim):
        # I2(2000) is finite but past the table's work limit, so it is
        # enumerated on Tits' method and stops at the guard
        with pytest.raises(CapExceededError) as info:
            enumerate_elements(matrix, length_guard=16)
        assert info.value.cap == 16
        assert str(info.value) == f"element lengths exceed 16; {claim}"


def _without_table(matrix):
    """A copy of the matrix whose word problem runs on Tits' method only."""
    copy = CoxeterMatrix(matrix.entries)
    copy._table = False
    return copy


class TestReducedWordCounts:
    """|R(w)| from the descent recurrence, against the braid orbits."""

    @pytest.mark.parametrize("name", ["A3", "B3", "H3", "A4", "I2_7"])
    def test_counts_are_the_orbit_sizes(self, name):
        matrix = catalog_matrix(name)
        elements = enumerate_elements(matrix)
        assert reduced_word_counts(matrix, elements) == [
            len(reduced_expressions(e)) for e in elements
        ]

    def test_counts_on_tits_method(self):
        # the affine A~2 ball has no table: the ascents are read from the
        # interned store's index, with no new search
        matrix = validate_matrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
        elements = enumerate_elements(matrix, max_length=7)
        ids = element_ids(matrix)
        assert not matrix._table
        interned = len(ids.words)
        counts = reduced_word_counts(matrix, elements)
        assert len(ids.words) == interned
        assert counts == [len(reduced_expressions(e)) for e in elements]

    @pytest.mark.parametrize(
        "name, longest",
        [("A4", 768), ("A5", 292_864), ("A6", 1_100_742_656), ("B4", 24_024),
         ("B5", 701_149_020)],
    )
    def test_longest_elements(self, name, longest):
        # the hook-length counts for A4-A6 (Stanley 1984), and B4, B5
        matrix = catalog_matrix(name)
        counts = reduced_word_counts(matrix, enumerate_elements(matrix))
        assert counts[-1] == max(counts) == longest

    @pytest.mark.parametrize(
        "name, total",
        [("D4", 9_719), ("B4", 103_484), ("A5", 1_095_266), ("F4", 9_593_133)],
    )
    def test_group_sums(self, name, total):
        # the vertex counts of verify --all-elements
        matrix = catalog_matrix(name)
        assert sum(reduced_word_counts(matrix, enumerate_elements(matrix))) == total

    def test_elements_must_be_closed_under_descents(self):
        elements = enumerate_elements(A3)
        with pytest.raises(ValueError, match="no right descent"):
            reduced_word_counts(A3, elements[:2] + elements[5:])


class TestCayleyTable:
    """The Todd-Coxeter table against Tits' method and the concrete models."""

    @pytest.mark.parametrize("name", ["A4", "B3", "H3", "D4", "B4"])
    def test_every_element_and_random_words_match_tits(self, name):
        matrix = catalog_matrix(name)
        tits = _without_table(matrix)
        words = cayley_table(matrix).words
        assert words == sorted(words, key=lambda w: (len(w), w))
        for word in words:
            assert _canonical_search(tits, word) == word
        rng = random.Random(17)
        for _ in range(300):
            # up to twice the longest length, so most words are not reduced
            w = tuple(
                rng.randrange(matrix.rank) for _ in range(rng.randint(0, 2 * len(words[-1])))
            )
            assert reduce_word(w, matrix).word == reduce_word(w, tits).word

    @pytest.mark.parametrize(
        "name,oracle",
        [("A4", symmetric_oracle(4)), ("B4", signed_oracle(4)), ("I2_7", dihedral_oracle(7))],
    )
    def test_multiply_and_inverse_match_oracle(self, name, oracle):
        matrix = catalog_matrix(name)
        assert cayley_table(matrix) is not None
        rng = random.Random(23)
        for _ in range(300):
            w1, w2 = (
                tuple(rng.randrange(matrix.rank) for _ in range(rng.randint(0, 20)))
                for _ in range(2)
            )
            a, b = reduce_word(w1, matrix), reduce_word(w2, matrix)
            x1, x2 = oracle.word_to_element(w1), oracle.word_to_element(w2)
            product = multiply(a, b)
            assert oracle.word_to_element(product.word) == oracle.compose(x1, x2)
            assert product.word == oracle.canonical_word(oracle.compose(x1, x2))
            assert oracle.word_to_element(inverse(a).word) == oracle.inverse(x1)

    @pytest.mark.parametrize(
        "matrix,order",
        [
            (validate_matrix([]), 1),
            (catalog_matrix("A1"), 2),
            (catalog_matrix("A5"), 720),
            (catalog_matrix("A8"), 362880),
            (catalog_matrix("B5"), 3840),
            (catalog_matrix("D5"), 1920),
            (catalog_matrix("F4"), 1152),
            (catalog_matrix("H3"), 120),
            (catalog_matrix("H4"), 14400),
            (catalog_matrix("I2_9"), 18),
            (_from_bonds(6, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (2, 5): 3}), 51840),  # E6
            (_from_bonds(7, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (2, 6): 3}),
             2903040),  # E7
            (_from_bonds(4, {(2, 3): 5}), 40),  # A1 x A1 x I2(5)
            (_from_bonds(3, {(0, 1): 3, (1, 2): 3, (0, 2): 3}), None),  # affine A2
            (_from_bonds(3, {(0, 1): 4, (1, 2): 4}), None),  # affine C2
            (_from_bonds(3, {(0, 1): 6, (1, 2): 3}), None),  # affine G2
            (_from_bonds(4, {(0, 1): 3, (1, 2): 5, (2, 3): 3}), None),  # hyperbolic
            (_from_bonds(5, {(0, 1): 3, (1, 2): 4, (2, 3): 3, (3, 4): 3}), None),  # affine F4
            (_from_bonds(5, {(0, 4): 3, (1, 4): 3, (2, 4): 3, (3, 4): 3}), None),  # affine D4
            (validate_matrix([[1, INFINITY], [INFINITY, 1]]), None),
        ],
    )
    def test_group_order_by_classification(self, matrix, order):
        from coxlab.core import group_order

        assert group_order(matrix) == order

    def test_no_coset_enumeration_without_a_table(self, monkeypatch):
        import coxlab.core as core

        calls = []
        real = core._enumerate_cosets

        def spy(rank, relators):
            calls.append(rank)
            return real(rank, relators)

        monkeypatch.setattr(core, "_enumerate_cosets", spy)
        for matrix in (
            validate_matrix([[1, 3, INFINITY], [3, 1, 3], [INFINITY, 3, 1]]),
            validate_matrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]]),
            validate_matrix([[1, INFINITY], [INFINITY, 1]]),
            catalog_matrix("A8"),
            catalog_matrix("I2_2000"),  # finite, but past the work limit
        ):
            assert reduce_word((1, 0, 0, 1, 0), matrix).word == (0,)
            assert cayley_table(matrix) is None
        assert calls == []
        assert cayley_table(catalog_matrix("B3")) is not None
        assert calls == [3]

    def test_only_whole_group_operations_build_the_table(self, monkeypatch):
        import coxlab.core as core

        calls = []
        real = core._enumerate_cosets

        def spy(rank, relators):
            calls.append(rank)
            return real(rank, relators)

        monkeypatch.setattr(core, "_enumerate_cosets", spy)
        b3 = catalog_matrix("B3")
        a = reduce_word((0, 1, 0, 2), b3)
        assert multiply(a, inverse(a)).is_identity
        pair_classes(b3, radius=1)
        assert len(enumerate_elements(b3, max_length=2)) == 1 + 3 + 5
        assert calls == [] and b3._table is None
        assert len(enumerate_elements(b3)) == 48
        assert calls == [3]
        pair_classes(catalog_matrix("B3"))  # the exact closure builds it too
        assert calls == [3, 3]

        def no_search(matrix, word):
            raise AssertionError("Tits search on a matrix with a table")

        # once built, the table answers every word over the matrix
        monkeypatch.setattr(core, "_canonical_search", no_search)
        assert reduce_word((2, 1, 0, 0, 1, 2, 1), b3).word == (1,)
        assert multiply(a, a).word == reduce_word(a.word * 2, b3).word

    def test_the_table_replaces_the_interned_store(self):
        # words reduced by Tits' method before the table is built are
        # interned in a store that the table then replaces: one store per
        # matrix, and its answers still agree with Tits' method
        b3 = catalog_matrix("B3")
        word = (2, 1, 0, 0, 1, 2, 1, 0)
        before = reduce_word(word, b3).word
        assert b3._ids is not None and b3._table is None
        assert len(enumerate_elements(b3)) == 48
        assert b3._ids is None
        assert element_ids(b3) is cayley_table(b3)
        tits = _without_table(b3)
        assert _canonical(b3, word) == before == _canonical_search(tits, word)
        for element in enumerate_elements(b3):
            reversed_word = element.word[::-1]
            assert _canonical(b3, reversed_word) == _canonical_search(tits, reversed_word)

    def test_interned_store_aliases_every_reduced_expression(self):
        # an exhausted braid orbit is interned once: every reduced
        # expression of the element is indexed to the id of the least one
        tits = _without_table(B3)
        ids = element_ids(tits)
        element = reduce_word((2, 1, 0, 1, 2), tits)
        x = ids.index[element.word]
        assert ids.words[x] == element.word
        for word in reduced_expressions(element):
            assert ids.index[word] == x
        assert element_ids(tits) is ids and tits._ids is ids

    @pytest.mark.slow
    def test_a5_matches_tits_on_every_element(self):
        matrix = catalog_matrix("A5")
        tits = _without_table(matrix)
        words = cayley_table(matrix).words
        assert len(words) == 720
        assert words == sorted(words, key=lambda w: (len(w), w))
        for word in words:
            assert _canonical_search(tits, word) == word


class TestOracleEquivalence:
    """Every core operation agrees with the concrete models."""

    def test_reduced_expression_count_of_longest_a3(self):
        # pinned oracle value: the longest element of S4 has 16 reduced words
        w0 = reduce_word((0, 1, 0, 2, 1, 0), A3)
        assert w0.length == 6
        assert len(reduced_expressions(w0)) == 16

    @pytest.mark.parametrize(
        "matrix,oracle,rank",
        [(A3, symmetric_oracle(3), 3), (B3, signed_oracle(3), 3),
         (catalog_matrix("I2_5"), dihedral_oracle(5), 2)],
        ids=["A3", "B3", "I2_5"],
    )
    def test_random_words_match_oracle(self, matrix, oracle, rank):
        rng = random.Random(11)
        for _ in range(60):
            w = tuple(rng.randrange(rank) for _ in range(rng.randint(0, 8)))
            e = reduce_word(w, matrix)
            concrete = oracle.word_to_element(w)
            assert e.length == oracle.length(concrete)
            assert e.word == oracle.canonical_word(concrete)
            # inverse and conjugation agree too
            assert oracle.word_to_element(inverse(e).word) == oracle.inverse(concrete)
            qw = tuple(rng.randrange(rank) for _ in range(rng.randint(0, 4)))
            q = reduce_word(qw, matrix)
            ours = conjugate(q, e)
            theirs = oracle.conjugate(oracle.word_to_element(qw), concrete)
            assert oracle.word_to_element(ours.word) == theirs

    def test_multiply_associativity_and_antihomomorphism(self):
        rng = random.Random(5)
        for matrix, rank in ((A3, 3), (B3, 3)):
            for _ in range(25):
                a, b, c = (
                    reduce_word(
                        tuple(rng.randrange(rank) for _ in range(rng.randint(0, 6))),
                        matrix,
                    )
                    for _ in range(3)
                )
                assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
                assert inverse(multiply(a, b)) == multiply(inverse(b), inverse(a))

    def test_product_orders_match_oracle(self):
        oracle = signed_oracle(3)
        rng = random.Random(13)
        for _ in range(30):
            w1 = tuple(rng.randrange(3) for _ in range(rng.randint(0, 5)))
            w2 = tuple(rng.randrange(3) for _ in range(rng.randint(0, 5)))
            a, b = reduce_word(w1, B3), reduce_word(w2, B3)
            if a == b:
                continue
            ours = order_of_product(a, b, cap=64)
            theirs = oracle.product_order(
                oracle.word_to_element(w1), oracle.word_to_element(w2)
            )
            assert ours == theirs


word_strategy = st.lists(st.integers(min_value=0, max_value=2), max_size=8).map(tuple)


@settings(max_examples=60, deadline=None)
@given(word_strategy)
def test_reduce_is_idempotent_property(word):
    e = reduce_word(word, A3)
    assert reduce_word(e.word, A3) == e
    assert len(e.word) <= len(word)


@settings(max_examples=60, deadline=None)
@given(word_strategy)
def test_reduce_matches_permutation_oracle_property(word):
    oracle = symmetric_oracle(3)
    e = reduce_word(word, A3)
    assert e.word == oracle.canonical_word(oracle.word_to_element(word))
