"""Inversion words and subword-occurrence vectors.

The inversion word of (a_1, ..., a_k) is the tuple of reflections
t_i = (a_1 ... a_{i-1}) a_i (a_1 ... a_{i-1})^-1; for a reduced word its
entries are pairwise distinct.  The occurrence vector of a reduced word
records, for every conjugate (u, v) of a generator pair, whether the
dihedral sweep of (u, v) occurs as a subword (subsequence, not factor) of
the inversion word.  Restricting to conjugates of generator pairs matters:
in I2(4), the sweep of the non-conjugate pair (s, tst) does occur inside
inversion words, but its occurrence bit is not preserved in the way braid
moves preserve the rest of the vector.

The vector is 0/1-valued, so it is kept as its support: a frozenset of
the conjugation closure's keys, the (u, v) pairs of canonical words
(braid_graph.PairState).  Candidate support pairs are drawn from the
entries of the inversion word only; this loses nothing because a sweep
starts with u and ends with v.

Nothing is memoized per word; closure and sweeps live on the CoxeterMatrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .braid_graph import PairState, conjugate_pair_closure
from .core import (
    CoxeterMatrix,
    DEFAULT_ORDER_CAP,
    DihedralReflectionWord,
    Reflection,
    Word,
    check_word,
    dihedral_reflection_word,
    generator_element,
    identity_element,
    multiply,
    reduce_word,
)


@dataclass(frozen=True, slots=True)
class InversionWord:
    source: Word
    entries: tuple[Reflection, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Reflection]:
        return iter(self.entries)


def inversion_word(word: Sequence[int], matrix: CoxeterMatrix) -> InversionWord:
    """Prefix-conjugate reflections of a word (reducedness not required)."""
    w = check_word(word, matrix)
    prefix = identity_element(matrix)
    prefix_inv = prefix
    entries = []
    for letter in w:
        gen = generator_element(matrix, letter)
        step = multiply(prefix, gen)
        entries.append(Reflection(multiply(step, prefix_inv)))
        prefix = step
        prefix_inv = multiply(gen, prefix_inv)
    return InversionWord(source=w, entries=tuple(entries))


def occurrence_bit(
    u: Reflection,
    v: Reflection,
    inv_word: InversionWord,
    cap: int = DEFAULT_ORDER_CAP,
) -> int:
    """1 iff the dihedral sweep of (u, v) is a subword of the inversion word.

    (u, v) need not be a conjugate of a generator pair.  Raises ValueError
    when u == v and CapExceededError when the order of uv exceeds cap.
    """
    sweep = dihedral_reflection_word(u, v, cap=cap)
    return 1 if _is_subword(sweep, inv_word.entries) else 0


def _is_subword(sweep: DihedralReflectionWord, entries: tuple[Reflection, ...]) -> bool:
    want = iter(sweep.entries)
    target = next(want)
    for entry in entries:
        if entry == target:
            target = next(want, None)
            if target is None:
                return True
    return False


def subword_embedding_count(
    sweep: DihedralReflectionWord, inv_word: InversionWord
) -> int:
    """Number of ways the sweep embeds as a subword (dynamic program)."""
    pattern = sweep.entries
    ways = [0] * (len(pattern) + 1)
    ways[0] = 1
    for entry in inv_word.entries:
        for j in range(len(pattern) - 1, -1, -1):
            if pattern[j] == entry:
                ways[j + 1] += ways[j]
    return ways[len(pattern)]


def occurrence_vector(word: Sequence[int], matrix: CoxeterMatrix) -> frozenset[PairState]:
    """Occurrence vector of a reduced word: occurrence_vector_of its inversion word."""
    return occurrence_vector_of(inversion_word(word, matrix), matrix)


def occurrence_vector_of(inv: InversionWord, matrix: CoxeterMatrix) -> frozenset[PairState]:
    """Occurrence vector of the reduced word inv.source, read off inv.

    Returns the support: the (u, v) canonical-word pairs, u before v in
    inv, that are conjugates of generator pairs (keys of the conjugation
    closure) and whose sweep is a subword of inv.  A candidate's sweep has
    the order m of its generator pair, read from the closure, so no order
    search or order cap is involved.  Raises ValueError when the word is
    not reduced, and ElementCapExceeded when the conjugation closure
    cannot be completed.
    """
    if reduce_word(inv.source, matrix).length != len(inv.source):
        raise ValueError("occurrence_vector requires a reduced word")
    closure = conjugate_pair_closure(matrix)
    entries = inv.entries
    position = {r.element.word: i for i, r in enumerate(entries)}
    support = []
    for i, u in enumerate(entries):
        for v in entries[i + 1:]:
            key = (u.element.word, v.element.word)
            state = closure.get(key)
            if state is None:
                continue
            sweep = dihedral_reflection_word(u, v, cap=state[2])
            positions = [position.get(r.element.word) for r in sweep.entries]
            if None not in positions and positions == sorted(positions):
                support.append(key)
    return frozenset(support)
