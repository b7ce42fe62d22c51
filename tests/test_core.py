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
    reduce_word,
    reduced_expressions,
    validate_matrix,
)
from coxlab.core import dihedral_subgroup

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
