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

Candidate support pairs are drawn from the entries of the inversion word
only; this loses nothing because a sweep starts with u and ends with v.

Nothing is memoized per word; closure and sweeps live on the CoxeterMatrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .braid_graph import conjugate_pair_closure
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


@dataclass(frozen=True, slots=True)
class ReflectionPair:
    """Ordered pair of distinct reflections.

    Pairs used as occurrence-vector coordinates are conjugates of
    generator pairs; that certification comes from how they are produced
    (conjugating a generator pair, or a hit in the conjugation closure),
    not from a general membership test.
    """

    u: Reflection
    v: Reflection

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError("reflection pair must be distinct")

    def swapped(self) -> "ReflectionPair":
        return ReflectionPair(self.v, self.u)


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
    pair: ReflectionPair,
    inv_word: InversionWord,
    cap: int = DEFAULT_ORDER_CAP,
) -> int:
    """1 iff the dihedral sweep of the pair is a subword of the inversion word."""
    sweep = dihedral_reflection_word(pair.u, pair.v, cap=cap)
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


class OccurrenceVector:
    """Finitely-supported integer vector over reflection pairs.

    Vectors computed from a reduced word are 0/1-valued; the arithmetic
    methods allow general integer coordinates so that expected vectors can
    be formed and compared exactly.
    """

    __slots__ = ("coords", "_hash")

    def __init__(self, coords: Mapping[ReflectionPair, int]):
        self.coords = {pair: value for pair, value in coords.items() if value != 0}
        self._hash = None

    def value(self, pair: ReflectionPair) -> int:
        return self.coords.get(pair, 0)

    def support(self) -> frozenset[ReflectionPair]:
        return frozenset(self.coords)

    def shifted(self, minus: ReflectionPair, plus: ReflectionPair) -> "OccurrenceVector":
        """self - minus + plus as basis vectors."""
        coords = dict(self.coords)
        coords[minus] = coords.get(minus, 0) - 1
        coords[plus] = coords.get(plus, 0) + 1
        return OccurrenceVector(coords)

    def difference(self, other: "OccurrenceVector") -> dict[ReflectionPair, int]:
        keys = set(self.coords) | set(other.coords)
        return {
            k: self.value(k) - other.value(k)
            for k in keys
            if self.value(k) != other.value(k)
        }

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OccurrenceVector) and self.coords == other.coords

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.coords.items()))
        return self._hash

    def __len__(self) -> int:
        return len(self.coords)

    def __repr__(self) -> str:
        items = ", ".join(f"{p.u!r},{p.v!r}: {v}" for p, v in self.coords.items())
        return f"OccurrenceVector({{{items}}})"


def occurrence_vector(word: Sequence[int], matrix: CoxeterMatrix) -> OccurrenceVector:
    """Occurrence vector of a reduced word: occurrence_vector_of its inversion word."""
    return occurrence_vector_of(inversion_word(word, matrix), matrix)


def occurrence_vector_of(inv: InversionWord, matrix: CoxeterMatrix) -> OccurrenceVector:
    """Occurrence vector of the reduced word inv.source, read off inv.

    Candidates are ordered pairs of distinct inversion-word entries that
    are conjugates of generator pairs; each stored value is 1.  A
    candidate's sweep has the order m of its generator pair, read from
    the conjugation closure, so no order search or order cap is involved.
    Raises ValueError when the word is not reduced, and ElementCapExceeded
    when the conjugation closure cannot be completed.
    """
    if reduce_word(inv.source, matrix).length != len(inv.source):
        raise ValueError("occurrence_vector requires a reduced word")
    closure = conjugate_pair_closure(matrix)
    entries = inv.entries
    position = {r: i for i, r in enumerate(entries)}
    coords: dict[ReflectionPair, int] = {}
    for i, u in enumerate(entries):
        for v in entries[i + 1:]:
            state = closure.get((u.element.word, v.element.word))
            if state is None:
                continue
            sweep = dihedral_reflection_word(u, v, cap=state[2])
            positions = [position.get(r) for r in sweep.entries]
            if None not in positions and positions == sorted(positions):
                coords[ReflectionPair(u, v)] = 1
    return OccurrenceVector(coords)
