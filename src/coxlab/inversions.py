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

The vector is 0/1-valued, so it is kept as its support: an int bitset
over the closure pairs, numbered once per element store
(braid_graph.conjugate_pair_closure).  A pair (u, v) can be in the support
only if its whole sweep lies among the word's inversion entries, since a
sweep starts with u and ends with v and a reduced word's entries are
distinct.  Those candidates depend on the entry set alone, which all
reduced words of one element share, so one slot on the element store
keeps the last entry set's candidates for every caller: a run over the
words of one element, the arc law's or another, collects them once.  A
sweep is walked only when both of its endpoints are entries of the word,
so a large dihedral group walks only the sweeps of its few entries.  As
the entries are distinct, the sweep of (u, v) is a subword iff its
entries sit at increasing positions, and the sweep of (v, u), its
reversal, iff they sit at decreasing ones: one look at the positions
decides both bits.

The work runs on the matrix's element ids (core.ElementIds):
inversion_ids and occurrence_ids are what the arc law calls, and their
entries, pairs and sweeps are ints.  Each inversion-word entry is memoized
per (prefix id, letter), a pure function of the word's own prefix, so a
word's vector is still computed from that word alone.  The public
functions below (inversion_word, occurrence_vector) wrap them and return
reflections and a frozenset of pairs of canonical words.  Nothing is
memoized per word; the closure, its numbering, the entry memo, the
sweeps and the last entry set's candidates live on the matrix's element
store.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt, itemgetter, lt
from typing import Callable, Iterator, NamedTuple, Sequence

from .braid_graph import ElementCapExceeded, conjugate_pair_closure
from .core import (
    CoxeterMatrix,
    ElementIds,
    Reflection,
    Word,
    check_word,
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


# The candidates of one entry set, by sweep length m: (u, v, mask uv,
# mask vu) for m = 2, (u, x, v, mask uv, mask vu) for m = 3 and (getter of
# the sweep's positions, mask uv, mask vu) for m > 3.
Candidates = tuple[
    list[tuple[int, int, int, int]],
    list[tuple[int, int, int, int, int]],
    list[tuple[Callable, int, int]],
]


def _candidates(ids: ElementIds, entries: Sequence[int]) -> Candidates:
    """The closure pairs {u, v} of entries whose sweeps lie inside entries.

    Each unordered pair appears once, with the masks of both orders.  The
    sweep of (u, v) is walked only when u and v are entries, and the sweep
    of (v, u) only when the pair is a candidate; it must be the sweep of
    (u, v) reversed.
    """
    partners, pairs = ids.closure, ids.pairs
    present = set(entries)
    two, three, more = [], [], []
    for i, u in enumerate(entries):
        mine = partners.get(u)
        if mine is None:
            continue
        for v in entries[i + 1 :]:
            bit = mine.get(v)
            if bit is None:
                continue
            m = pairs[bit][2]
            sweep = sweep_ids(ids, u, v, m)
            if not present.issuperset(sweep):
                continue
            if sweep_ids(ids, v, u, m) != sweep[::-1]:
                raise AssertionError("the sweep of (v, u) is not the sweep of (u, v) reversed")
            uv, vu = 1 << bit, 1 << partners[v][u]
            if m == 2:
                two.append((u, v, uv, vu))
            elif m == 3:
                three.append((*sweep, uv, vu))
            else:
                more.append((itemgetter(*sweep), uv, vu))
    return two, three, more


def occurrence_ids(inv: InversionIds, matrix: CoxeterMatrix) -> int:
    """Occurrence vector of the reduced word inv.source, as an int bitset.

    Bit b is set iff the closure pair (u, v) numbered b has its sweep as a
    subword of inv; occurrence_pairs reads the bits back.  A candidate's
    sweep has the order m of its generator pair, read from the closure, so
    no order search or order cap is involved.  The element store keeps
    the candidates of the last entry set asked for (ElementIds.candidates),
    so calls over the words of one element collect them once.  The vector
    itself is read off this word's own entry positions on every call.  inv
    must use ids taken after fixed_ids.  Raises ValueError when the word is
    not reduced, and ElementCapExceeded when the conjugation closure cannot
    be completed.
    """
    ids = element_ids(matrix)
    if len(ids.words[inv.end]) != len(inv.source):
        raise ValueError("occurrence_vector requires a reduced word")
    entries = inv.entries
    key = frozenset(entries)
    memo = ids.candidates
    found = memo.get(key)
    if found is None:
        conjugate_pair_closure(matrix)  # or its memoized ElementCapExceeded
        memo.clear()  # one entry set at a time
        found = memo[key] = _candidates(ids, entries)
    two, three, more = found
    position = {x: i for i, x in enumerate(entries)}
    vector = 0
    for u, v, uv, vu in two:
        vector |= uv if position[u] < position[v] else vu
    for u, x, v, uv, vu in three:
        i, j, k = position[u], position[x], position[v]
        if i < j < k:
            vector |= uv
        elif i > j > k:
            vector |= vu
    for positions, uv, vu in more:
        p = positions(position)
        if p[0] < p[1]:
            if all(map(lt, p, p[1:])):
                vector |= uv
        elif all(map(gt, p, p[1:])):
            vector |= vu
    return vector


def occurrence_pairs(vector: int, ids: ElementIds) -> frozenset[tuple[int, int]]:
    """The closure pairs (u, v) whose bits are set in an occurrence vector."""
    pairs = ids.pairs
    support = []
    while vector:
        low = vector & -vector
        support.append(pairs[low.bit_length() - 1][:2])
        vector ^= low
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


def occurrence_vector(word: Sequence[int], matrix: CoxeterMatrix) -> frozenset[tuple[Word, Word]]:
    """Occurrence vector of a reduced word, as pairs of canonical words.

    occurrence_ids of the word's inversion_ids, its bits read back as
    pairs of words.  Raises ValueError when the word is not reduced, and
    ElementCapExceeded when the conjugation closure cannot be completed.
    """
    w = check_word(word, matrix)
    ids = fixed_ids(matrix)
    words = ids.words
    support = occurrence_pairs(occurrence_ids(inversion_ids(w, matrix), matrix), ids)
    return frozenset((words[u], words[v]) for u, v in support)
