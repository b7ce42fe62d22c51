"""Exact arithmetic in Coxeter groups presented by a Coxeter matrix.

A group element is represented by its ShortLex-least reduced expression
(letters are generator indices, ordered first by length, then
lexicographically).  The word problem is solved by Tits' method: keep a
frontier of words reachable by braid moves; whenever some reachable word
contains an adjacent equal pair, delete that pair and start over with the
shorter word.  Once no reachable word contains such a pair, the word is
reduced and the frontier closure is exactly the set of its reduced
expressions, so taking the minimum yields the canonical form.

This is exact and representation-free, at the price of being exponential
in element length; it is meant for desk-scale experiments, not for long
elements of large groups.  All values are immutable; per-matrix caches
are plain dicts and safe under the GIL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

INFINITY = math.inf

DEFAULT_ORDER_CAP = 64

Word = tuple[int, ...]


class MatrixError(ValueError):
    """Raised when an array fails to be a Coxeter matrix."""


class NonSquare(MatrixError):
    pass


class DiagonalNotOne(MatrixError):
    pass


class OffDiagonalBelowTwo(MatrixError):
    pass


class Asymmetric(MatrixError):
    pass


class CapExceededError(RuntimeError):
    """An order computation ran past its cap (possibly infinite order)."""

    def __init__(self, cap: int, message: str = ""):
        super().__init__(message or f"product order exceeds cap {cap}")
        self.cap = cap


class CoxeterMatrix:
    """Validated symmetric matrix over {1, 2, 3, ...} u {inf}.

    Hashable and compared by entries.  Instances carry memoization caches
    for canonical forms and for dihedral sweeps (keyed by the canonical
    words of the two reflections); the caches never affect equality.
    """

    __slots__ = ("entries", "_hash", "_canon", "_sweeps", "__weakref__")

    def __init__(self, entries: tuple[tuple[int | float, ...], ...]):
        self.entries = entries
        self._hash = hash(entries)
        self._canon: dict[Word, Word] = {}
        self._sweeps: dict[tuple[Word, Word], DihedralReflectionWord] = {}

    @property
    def rank(self) -> int:
        return len(self.entries)

    def m(self, s: int, t: int) -> int | float:
        return self.entries[s][t]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CoxeterMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"CoxeterMatrix(rank={self.rank})"


def validate_matrix(raw: Sequence[Sequence[int | float]]) -> CoxeterMatrix:
    """Check and freeze a raw array into a CoxeterMatrix.

    Raises NonSquare, DiagonalNotOne, OffDiagonalBelowTwo or Asymmetric.
    """
    rows = [tuple(row) for row in raw]
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise NonSquare(f"expected {n} entries per row, got {len(row)}")
    for i in range(n):
        for j in range(n):
            v = rows[i][j]
            if v == INFINITY:
                continue
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise MatrixError(f"entry [{i}][{j}] = {v!r} is not a positive integer or inf")
    for i in range(n):
        if rows[i][i] != 1:
            raise DiagonalNotOne(f"entry [{i}][{i}] = {rows[i][i]} (must be 1)")
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] < 2:
                raise OffDiagonalBelowTwo(f"entry [{i}][{j}] = {rows[i][j]} (must be >= 2)")
            if rows[i][j] != rows[j][i]:
                raise Asymmetric(f"entries [{i}][{j}] and [{j}][{i}] differ")
    return CoxeterMatrix(tuple(rows))


def check_word(word: Sequence[int], matrix: CoxeterMatrix) -> Word:
    """Validate letters against the matrix rank and return a tuple."""
    w = tuple(word)
    for letter in w:
        if not 0 <= letter < matrix.rank:
            raise ValueError(f"letter {letter} out of range for rank {matrix.rank}")
    return w


def alternating_word(s: int, t: int, count: int) -> Word:
    """(s, t, s, t, ...) with `count` letters."""
    return tuple(s if i % 2 == 0 else t for i in range(count))


def braid_neighbors(word: Word, matrix: CoxeterMatrix) -> Iterator[tuple[int, tuple[int, int], Word]]:
    """Yield (position, (s, t), result) for every applicable braid move.

    A braid move rewrites a factor (s, t, s, ...) of length m(s, t) into
    (t, s, t, ...).  At most one move starts at each position, so iteration
    order (by position) is deterministic.
    """
    k = len(word)
    entries = matrix.entries
    for i in range(k - 1):
        s = word[i]
        t = word[i + 1]
        if s == t:
            continue
        m = entries[s][t]
        if m == INFINITY or i + m > k:
            continue
        m = int(m)
        if all(word[i + j] == (s if j % 2 == 0 else t) for j in range(2, m)):
            yield i, (s, t), word[:i] + alternating_word(t, s, m) + word[i + m:]


def _delete_square(word: Word) -> Word | None:
    for i in range(len(word) - 1):
        if word[i] == word[i + 1]:
            return word[:i] + word[i + 2:]
    return None


def _canonical(matrix: CoxeterMatrix, word: Word) -> Word:
    cache = matrix._canon
    hit = cache.get(word)
    if hit is not None:
        return hit
    current: Word = ()
    for letter in word:
        key = current + (letter,)
        step = cache.get(key)
        if step is None:
            step = _canonical_search(matrix, key)
            cache[key] = step
        current = step
    cache[word] = current
    return current


def _canonical_search(matrix: CoxeterMatrix, word: Word) -> Word:
    """Tits search on one word: either delete a square or exhaust the orbit."""
    shorter = _delete_square(word)
    if shorter is not None:
        return _canonical(matrix, shorter)
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for _, _, y in braid_neighbors(w, matrix):
                if y in seen:
                    continue
                shorter = _delete_square(y)
                if shorter is not None:
                    return _canonical(matrix, shorter)
                seen.add(y)
                nxt.append(y)
        frontier = nxt
    # No deletion anywhere: `seen` is the full set of reduced expressions.
    best = min(seen)
    canon = matrix._canon
    for w in seen:
        canon.setdefault(w, best)
    return best


@dataclass(frozen=True, slots=True)
class Element:
    """Group element in canonical form (ShortLex-least reduced word)."""

    matrix: CoxeterMatrix
    word: Word

    @property
    def length(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        return not self.word

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    def __invert__(self) -> "Element":
        return inverse(self)

    def __repr__(self) -> str:
        if not self.word:
            return "e"
        return "*".join(f"s{i + 1}" for i in self.word)


def identity_element(matrix: CoxeterMatrix) -> Element:
    return Element(matrix, ())


def generator_element(matrix: CoxeterMatrix, index: int) -> Element:
    check_word((index,), matrix)
    return Element(matrix, (index,))


def reduce_word(word: Sequence[int], matrix: CoxeterMatrix) -> Element:
    """The element represented by an arbitrary word (total; Tits' method)."""
    w = check_word(word, matrix)
    return Element(matrix, _canonical(matrix, w))


def reduced_expressions(element: Element) -> frozenset[Word]:
    """All reduced expressions of an element (its braid-move orbit)."""
    seen = {element.word}
    frontier = [element.word]
    while frontier:
        nxt = []
        for w in frontier:
            for _, _, y in braid_neighbors(w, element.matrix):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def multiply(a: Element, b: Element) -> Element:
    if a.matrix != b.matrix:
        raise ValueError("elements live over different Coxeter matrices")
    return Element(a.matrix, _canonical(a.matrix, a.word + b.word))


def inverse(a: Element) -> Element:
    # The reversed canonical word represents the inverse (generators are
    # involutions); it still needs re-canonicalizing.
    return Element(a.matrix, _canonical(a.matrix, a.word[::-1]))


def conjugate(q: Element, x: Element) -> Element:
    """q x q^-1."""
    return multiply(multiply(q, x), inverse(q))


def order_of_product(u: Element, v: Element, cap: int = DEFAULT_ORDER_CAP) -> int:
    """Least m >= 1 with (uv)^m = identity; CapExceededError past the cap."""
    if u == v:
        raise ValueError("order_of_product requires distinct elements")
    product = multiply(u, v)
    power = product
    m = 1
    while not power.is_identity():
        m += 1
        if m > cap:
            raise CapExceededError(cap)
        power = multiply(power, product)
    return m


@dataclass(frozen=True, slots=True)
class Reflection:
    """A conjugate of a generator.

    Only ever constructed as q s q^-1; the constructor cross-checks the
    cheap invariants (odd length, involution) but membership in the
    reflection set is guaranteed by provenance, not re-derived.
    """

    element: Element

    def __post_init__(self):
        if self.element.length % 2 != 1:
            raise ValueError(f"{self.element!r} has even length; not a reflection")
        if not multiply(self.element, self.element).is_identity():
            raise ValueError(f"{self.element!r} is not an involution")

    @property
    def matrix(self) -> CoxeterMatrix:
        return self.element.matrix

    def __repr__(self) -> str:
        return f"Reflection({self.element!r})"


def generator_reflection(matrix: CoxeterMatrix, index: int) -> Reflection:
    return Reflection(generator_element(matrix, index))


@dataclass(frozen=True, slots=True)
class DihedralReflectionWord:
    """The reflections of the dihedral subgroup <u, v>, in sweep order.

    Entry i is (uv)^i u; there are exactly m = ord(uv) entries, they are
    pairwise distinct, the first is u and the last is v, and together they
    exhaust the reflections of <u, v>.
    """

    pair: tuple[Reflection, Reflection]
    entries: tuple[Reflection, ...]

    @property
    def order(self) -> int:
        return len(self.entries)

    def reversal(self) -> "DihedralReflectionWord":
        """The same word read backwards, which is the sweep for (v, u)."""
        u, v = self.pair
        return DihedralReflectionWord(pair=(v, u), entries=self.entries[::-1])

    def conjugated_by(self, q: Element) -> tuple[Element, ...]:
        """Entrywise conjugation q . entries . q^-1, as raw elements."""
        return tuple(conjugate(q, r.element) for r in self.entries)


def dihedral_reflection_word(
    u: Reflection, v: Reflection, cap: int = DEFAULT_ORDER_CAP
) -> DihedralReflectionWord:
    """Build the sweep ((uv)^0 u, (uv)^1 u, ..., (uv)^(m-1) u).

    Requires u != v with product order m <= cap (CapExceededError
    otherwise, also when the sweep is already memoized).  Each sweep is
    built once per matrix; callers that know m, such as the arc law for
    a conjugate of a generator pair, pass it as the cap.
    """
    if u == v:
        raise ValueError("dihedral_reflection_word requires distinct reflections")
    sweeps = u.matrix._sweeps
    key = (u.element.word, v.element.word)
    hit = sweeps.get(key)
    if hit is not None:
        if hit.order > cap:
            raise CapExceededError(cap)
        return hit
    m = order_of_product(u.element, v.element, cap=cap)
    step = multiply(u.element, v.element)
    entries = [u.element]
    for _ in range(m - 1):
        entries.append(multiply(step, entries[-1]))
    refl_entries = tuple(Reflection(e) for e in entries)
    if len(set(refl_entries)) != m:
        raise AssertionError("sweep entries are not distinct")
    if refl_entries[0] != u or refl_entries[-1] != v:
        raise AssertionError("sweep does not run from u to v")
    sweep = DihedralReflectionWord(pair=(u, v), entries=refl_entries)
    sweeps[key] = sweep
    return sweep


def dihedral_subgroup(u: Element, v: Element, cap: int = 4096) -> frozenset[Element]:
    """Enumerate <u, v> by closure under left multiplication."""
    gens = (u, v)
    seen = {identity_element(u.matrix)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = multiply(g, x)
                if y not in seen:
                    if len(seen) >= cap:
                        raise CapExceededError(cap, "subgroup enumeration exceeded cap")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def enumerate_elements(
    matrix: CoxeterMatrix,
    max_length: int | None = None,
    cap: int = 200_000,
    length_guard: int = 128,
) -> list[Element]:
    """Elements in (length, ShortLex) order via BFS over right multiplication.

    Without max_length the group must be finite; the cap bounds the element
    count and the length guard cuts off groups whose words keep growing
    (every desk-scale finite group tops out well below it).
    """
    seen = {(): None}
    order: list[Word] = [()]
    frontier: list[Word] = [()]
    while frontier:
        if max_length is None and len(frontier[0]) >= length_guard:
            raise CapExceededError(
                length_guard, f"element lengths exceed {length_guard}; group looks infinite"
            )
        nxt = []
        for w in frontier:
            for s in range(matrix.rank):
                y = _canonical(matrix, w + (s,))
                if len(y) > len(w) and y not in seen:
                    if max_length is not None and len(y) > max_length:
                        continue
                    if len(seen) >= cap:
                        raise CapExceededError(cap, "element enumeration exceeded cap")
                    seen[y] = None
                    nxt.append(y)
        frontier = sorted(nxt)
        order.extend(frontier)
    return [Element(matrix, w) for w in order]
