import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from coxlab import (
    CapExceededError,
    Reflection,
    catalog_matrix,
    dihedral_reflection_word,
    enumerate_elements,
    generator_reflection,
    inversion_word,
    occurrence_bit,
    occurrence_vector,
    reduce_word,
    reduced_expressions,
    subword_embedding_count,
)
from coxlab.braid_graph import conjugate_pair_closure
from coxlab.core import alternating_word

from oracles import dihedral_oracle, signed_oracle, symmetric_oracle

A2 = catalog_matrix("A2")
A3 = catalog_matrix("A3")
I2_4 = catalog_matrix("I2_4")


class TestInversionWord:
    def test_single_letter(self):
        inv = inversion_word((0,), A2)
        assert [r.element.word for r in inv.entries] == [(0,)]

    def test_two_letters(self):
        inv = inversion_word((0, 1), A2)
        assert [r.element.word for r in inv.entries] == [(0,), (0, 1, 0)]

    def test_paper_example_in_a3(self):
        # pinned by the S4 oracle: entries are (2 3), (1 3), (2 4)
        inv = inversion_word((1, 0, 2), A3)
        assert [r.element.word for r in inv.entries] == [(1,), (0, 1, 0), (1, 2, 1)]
        oracle = symmetric_oracle(3)
        perms = [oracle.word_to_element(r.element.word) for r in inv.entries]
        assert perms == [(1, 3, 2, 4), (3, 2, 1, 4), (1, 4, 3, 2)]

    def test_length_preserving(self):
        rng = random.Random(2)
        for _ in range(20):
            w = tuple(rng.randrange(3) for _ in range(rng.randint(0, 7)))
            assert len(inversion_word(w, A3)) == len(w)

    def test_non_reduced_word_allowed(self):
        inv = inversion_word((0, 0), A2)
        assert inv.entries[0] == inv.entries[1]

    def test_definition_against_oracle(self):
        oracle = symmetric_oracle(3)
        rng = random.Random(9)
        for _ in range(25):
            w = tuple(rng.randrange(3) for _ in range(rng.randint(0, 8)))
            inv = inversion_word(w, A3)
            prefix = oracle.identity
            for letter, entry in zip(w, inv.entries):
                expected = oracle.conjugate(prefix, oracle.gens[letter])
                assert oracle.word_to_element(entry.element.word) == expected
                prefix = oracle.compose(prefix, oracle.gens[letter])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), max_size=8).map(tuple))
def test_reduced_words_have_distinct_inversions(word):
    reduced = reduce_word(word, A3).word
    entries = inversion_word(reduced, A3).entries
    assert len(set(entries)) == len(entries)


def brute_pair_closure(oracle, gen_pairs):
    """All simultaneous conjugates of the generator pairs, concretely."""
    elements = list(oracle.elements_and_lengths())
    closure = set()
    for (i, j) in gen_pairs:
        s, t = oracle.gens[i], oracle.gens[j]
        for x in elements:
            closure.add((oracle.conjugate(x, s), oracle.conjugate(x, t)))
    return closure


def brute_subword(pattern, entries):
    if not pattern:
        return True
    for positions in combinations(range(len(entries)), len(pattern)):
        if all(entries[p] == pattern[k] for k, p in enumerate(positions)):
            return True
    return False


class TestOccurrenceBit:
    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_half_braid_word(self, m):
        matrix = catalog_matrix(f"I2_{m}")
        word = alternating_word(0, 1, m)
        inv = inversion_word(word, matrix)
        u, v = generator_reflection(matrix, 0), generator_reflection(matrix, 1)
        assert occurrence_bit(u, v, inv) == 1
        assert occurrence_bit(v, u, inv) == 0
        # the inversion word of the alternating half-braid IS the sweep
        sweep = dihedral_reflection_word(u, v)
        assert inv.entries == sweep.entries

    def test_empty_word(self):
        inv = inversion_word((), A3)
        for s in range(2):
            u, v = generator_reflection(A3, s), generator_reflection(A3, s + 1)
            assert occurrence_bit(u, v, inv) == 0

    def test_partial_sweep_in_a3(self):
        # pinned: pair (s2, (1 3)) has a 3-entry sweep but only 2 entries
        # appear in Invs(s2 s1 s3)
        inv = inversion_word((1, 0, 2), A3)
        u = generator_reflection(A3, 1)
        v = Reflection(reduce_word((0, 1, 0), A3))
        assert occurrence_bit(u, v, inv) == 0


class TestOccurrenceVector:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_half_braid_support(self, m):
        matrix = catalog_matrix(f"I2_{m}")
        vec = occurrence_vector(alternating_word(0, 1, m), matrix)
        assert vec == {((0,), (1,))}

    def test_empty_word(self):
        assert len(occurrence_vector((), A3)) == 0

    def test_non_reduced_rejected(self):
        with pytest.raises(ValueError):
            occurrence_vector((0, 0), A2)

    @pytest.mark.parametrize(
        "matrix,oracle,rank",
        [(A3, symmetric_oracle(3), 3), (I2_4, dihedral_oracle(4), 2),
         (catalog_matrix("I2_5"), dihedral_oracle(5), 2),
         (catalog_matrix("B3"), signed_oracle(3), 3)],
        ids=["A3", "I2_4", "I2_5", "B3"],
    )
    def test_support_against_full_brute_force(self, matrix, oracle, rank):
        """Slow scan over every pair drawn from the full reflection set.

        Confirms both that entry pairs suffice and that pairs outside the
        conjugation closure of the generator pairs stay excluded (in
        I2(4) there are sweeps of non-closure pairs that do occur as
        subwords and must not be counted).
        """
        gen_pairs = [
            (i, j) for i in range(rank) for j in range(rank) if i != j
        ]
        closure = brute_pair_closure(oracle, gen_pairs)
        lengths = oracle.elements_and_lengths()
        reflections = sorted(
            {
                oracle.conjugate(q, g)
                for q in lengths
                for g in oracle.gens
            }
        )
        for element in enumerate_elements(matrix):
            for word in sorted(reduced_expressions(element))[:2]:
                vec = occurrence_vector(word, matrix)
                got = {
                    (
                        oracle.word_to_element(u),
                        oracle.word_to_element(v),
                    )
                    for u, v in vec
                }
                inv_concrete = [
                    oracle.word_to_element(r.element.word)
                    for r in inversion_word(word, matrix).entries
                ]
                expected = set()
                for u in reflections:
                    for v in reflections:
                        if u == v or (u, v) not in closure:
                            continue
                        m = oracle.product_order(u, v)
                        uv = oracle.compose(u, v)
                        power = oracle.identity
                        pattern = []
                        for _ in range(m):
                            pattern.append(oracle.compose(power, u))
                            power = oracle.compose(power, uv)
                        if brute_subword(pattern, inv_concrete):
                            expected.add((u, v))
                assert got == expected, f"word {word}"

    def test_i2_4_non_closure_pair_is_excluded(self):
        # Invs(stst) = (s, sts, tst, t) contains the sweep of (s, tst) as a
        # subword, but (s, tst) is not a conjugate of a generator pair, so
        # it must not enter the vector.
        word = (0, 1, 0, 1)
        inv = inversion_word(word, I2_4)
        u = generator_reflection(I2_4, 0)
        v = Reflection(reduce_word((1, 0, 1), I2_4))
        assert occurrence_bit(u, v, inv) == 1
        vec = occurrence_vector(word, I2_4)
        assert (u.element.word, v.element.word) not in vec
        assert len(vec) == 1

    def test_values_are_zero_one(self):
        # the vector is its support: closure keys whose two words are
        # entries of the inversion word, u first
        closure = conjugate_pair_closure(A3)
        rng = random.Random(4)
        for _ in range(20):
            w = reduce_word(
                tuple(rng.randrange(3) for _ in range(rng.randint(0, 8))), A3
            ).word
            vec = occurrence_vector(w, A3)
            assert isinstance(vec, frozenset)
            position = {r.element.word: i for i, r in enumerate(inversion_word(w, A3))}
            for u, v in vec:
                assert (u, v) in closure
                assert u in position and v in position
                assert position[u] < position[v]


class TestEmbeddingCount:
    def test_at_most_one_on_reduced_words(self):
        rng = random.Random(6)
        for _ in range(40):
            w = reduce_word(
                tuple(rng.randrange(3) for _ in range(rng.randint(2, 9))), A3
            ).word
            inv = inversion_word(w, A3)
            entries = inv.entries
            for i, j in combinations(range(len(entries)), 2):
                try:
                    sweep = dihedral_reflection_word(entries[i], entries[j], cap=16)
                except CapExceededError:
                    continue
                assert subword_embedding_count(sweep, inv) <= 1

    def test_count_matches_brute_enumeration(self):
        word = (0, 1, 0, 1)
        inv = inversion_word(word, I2_4)
        u = generator_reflection(I2_4, 0)
        v = Reflection(reduce_word((1, 0, 1), I2_4))
        sweep = dihedral_reflection_word(u, v)
        count = subword_embedding_count(sweep, inv)
        brute = 0
        for positions in combinations(range(len(inv.entries)), len(sweep.entries)):
            if all(inv.entries[p] == sweep.entries[k] for k, p in enumerate(positions)):
                brute += 1
        assert count == brute == 1

    def test_opposite_sweeps_exclusive(self):
        rng = random.Random(8)
        for _ in range(40):
            w = reduce_word(
                tuple(rng.randrange(3) for _ in range(rng.randint(2, 9))), A3
            ).word
            inv = inversion_word(w, A3)
            entries = inv.entries
            for i, j in combinations(range(len(entries)), 2):
                try:
                    fwd = occurrence_bit(entries[i], entries[j], inv, cap=16)
                    bwd = occurrence_bit(entries[j], entries[i], inv, cap=16)
                except CapExceededError:
                    continue
                assert not (fwd == 1 and bwd == 1)


class TestOccurrenceVectorArithmetic:
    def test_pair_requires_distinct(self):
        u = generator_reflection(A3, 0)
        inv = inversion_word((0, 1), A3)
        with pytest.raises(ValueError):
            occurrence_bit(u, u, inv)
