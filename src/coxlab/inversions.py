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

The vector is 0/1-valued, so it is kept as its support.  Candidate support
pairs are drawn from the entries of the inversion word only; this loses
nothing because a sweep starts with u and ends with v.

The work runs on the matrix's element ids (core.ElementIds):
inversion_ids and occurrence_ids are what the arc law calls, and their
entries, pairs and sweeps are ints.  Each inversion-word entry is memoized
per (prefix id, letter), a pure function of the word's own prefix, so a
word's vector is still computed from that word alone.  The candidate
pairs are the keys of the conjugation closure, which is kept on the same
ids (braid_graph.conjugate_pair_closure).  The public functions below
(inversion_word, occurrence_vector) wrap them and return reflections and
pairs of canonical words.  Nothing is memoized per word; the closure, the
entry memo and the sweeps live on the matrix's element store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .braid_graph import ElementCapExceeded, conjugate_pair_closure
from .core import (
    CoxeterMatrix,
    DEFAULT_ORDER_CAP,
    DihedralReflectionWord,
    ElementIds,
    Reflection,
    Word,
    check_word,
    dihedral_reflection_word,
    element_ids,
    sweep_ids,
)


def fixed_ids(matrix: CoxeterMatrix) -> ElementIds:
    """element_ids once the exact conjugation closure has been tried.

    The closure is the one step of the arc law that may build the Cayley
    table, which replaces interned ids by the table's; ids taken after it
    stay valid.  A closure that fails is reported again, from its memo, by
    occurrence_ids.
    """
    try:
        conjugate_pair_closure(matrix)
    except ElementCapExceeded:
        pass
    return element_ids(matrix)


class InversionIds(NamedTuple):
    """The inversion word of `source` as reflection ids; `end` is the word's element."""

    source: Word
    entries: tuple[int, ...]
    end: int


def inversion_ids(word: Word, matrix: CoxeterMatrix) -> InversionIds:
    """Inversion word of a letter-checked word, on the matrix's element ids."""
    ids = element_ids(matrix)
    steps = ids.steps
    rank = matrix.rank
    prefix = 0
    entries = []
    for letter in word:
        key = prefix * rank + letter
        hit = steps.get(key)
        if hit is None:
            after = ids.walk(prefix, (letter,))
            hit = steps[key] = (after, ids.walk(after, ids.words[prefix][::-1]))
        prefix, entry = hit
        entries.append(entry)
    return InversionIds(word, tuple(entries), prefix)


def occurrence_ids(inv: InversionIds, matrix: CoxeterMatrix) -> frozenset[tuple[int, int]]:
    """Occurrence vector of the reduced word inv.source, as pairs of ids.

    The support: the closure pairs (u, v), u before v in inv, whose sweep is
    a subword of inv.  A candidate's sweep has the order m of its generator
    pair, read from the closure, so no order search or order cap is
    involved.  inv must use ids taken after fixed_ids.  Raises ValueError
    when the word is not reduced, and ElementCapExceeded when the
    conjugation closure cannot be completed.
    """
    ids = element_ids(matrix)
    if len(ids.words[inv.end]) != len(inv.source):
        raise ValueError("occurrence_vector requires a reduced word")
    partners = conjugate_pair_closure(matrix)
    entries = inv.entries
    position = {x: i for i, x in enumerate(entries)}
    support = []
    for i, u in enumerate(entries):
        mine = partners.get(u)
        if mine is None:
            continue
        for j in range(i + 1, len(entries)):
            v = entries[j]
            middle = mine.get(v)
            if middle is None:
                continue
            if middle.__class__ is int:
                middle = mine[v] = sweep_ids(ids, u, v, middle)[1:-1]
            # the middle must sit between positions i and j, in sweep order
            last = i
            for x in middle:
                k = position.get(x)
                if k is None or k < last:
                    break
                last = k
            else:
                if last < j:
                    support.append((u, v))
    return frozenset(support)


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
    ids = element_ids(matrix)
    entries = inversion_ids(w, matrix).entries
    return InversionWord(source=w, entries=tuple(Reflection(ids.element(x)) for x in entries))


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


def _pair_words(ids: ElementIds, support: frozenset[tuple[int, int]]) -> frozenset[tuple[Word, Word]]:
    words = ids.words
    return frozenset((words[u], words[v]) for u, v in support)


def occurrence_vector(word: Sequence[int], matrix: CoxeterMatrix) -> frozenset[tuple[Word, Word]]:
    """Occurrence vector of a reduced word, as pairs of canonical words.

    occurrence_ids of the word's inversion_ids, mapped back to words.
    Raises ValueError when the word is not reduced, and ElementCapExceeded
    when the conjugation closure cannot be completed.
    """
    w = check_word(word, matrix)
    ids = fixed_ids(matrix)
    return _pair_words(ids, occurrence_ids(inversion_ids(w, matrix), matrix))

