"""Exact arithmetic in Coxeter groups presented by a Coxeter matrix.

A group element is represented by its ShortLex-least reduced expression
(letters are generator indices, ordered first by length, then
lexicographically).  Each matrix keeps one element store, an ElementIds:
canonical words numbered by integer ids, an index from words to ids and
right multiplication by generators.  The store is filled in one of two
exact ways.

* A finite group whose table is cheap enough (see cayley_table) gets a
  complete store, its Cayley table, built once per matrix: Todd-Coxeter
  coset enumeration (HLT with coincidences) of the trivial subgroup in
  <S | s^2, (st)^m(s,t)>, then one breadth-first pass over the generators
  in index order, which numbers the elements in (length, ShortLex) order.
  Whether a group may get a table is decided from the matrix alone, by
  classifying the components of its Coxeter graph, before any coset is
  defined.  The table is built by the operations that walk the whole group
  (enumerate_elements without max_length and the exact conjugation
  closure); once it exists, it replaces the interning store and answers
  every word over the matrix.  A single word does not build it, since
  Tits' method answers a short word sooner than a large table is built.
* Every other group, and a matrix whose table has not been built, interns
  elements as they are reached, by Tits' method: keep a frontier of words
  reachable by braid moves; whenever some reachable word contains an
  adjacent equal pair, delete that pair and start over with the shorter
  word.  Once no reachable word contains such a pair, the word is reduced
  and the frontier closure is exactly the set of its reduced expressions,
  so taking the minimum yields the canonical form.  This is
  representation-free, at the price of being exponential in element
  length; it is meant for desk-scale experiments, not for long elements of
  large groups.

Either way a word is reduced by walking it along the store's right
multiplication from the identity.  All values are immutable; the
per-matrix stores are plain lists and dicts and safe under the GIL.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

INFINITY = math.inf

DEFAULT_ORDER_CAP = 64

DEFAULT_ELEMENT_CAP = 200_000

# A group gets a Cayley table only when |W| times the total relator length,
# the cost of one HLT pass over a complete table, stays below this.  At the
# limit a build takes about 1 s and 20-30 MB (A7, B6, E6, I2(1581) on a
# 2-core host, Python 3.11); the exact closure it replaces took from 44 s
# (I2(1581)) to over 300 s (A7, E6) on Tits' method.
_TABLE_WORK_LIMIT = 10_000_000

# Backstop only: the work limit keeps every table far below it.
_COSET_LIMIT = 2_000_000

# While an exact conjugation closure runs, Tits' method may visit at most
# this many braid-orbit words in all.  Neither the element cap nor the
# length guard bounds the orbit searches of a finite group without a table:
# A8 visits about 33 000 words a second (2-core host, Python 3.11), with
# single orbits past 40 000 words, and its closure ran for minutes.  The
# infinite groups of the test suite reach their length guard within 50 000.
_CLOSURE_SEARCH_BUDGET = 200_000

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


class ElementCapExceeded(CapExceededError):
    """Finite enumeration failed; use a bounded radius instead."""


class CoxeterMatrix:
    """Validated symmetric matrix over {1, 2, 3, ...} u {inf}.

    Hashable and compared by entries.  Instances carry per-matrix memos
    that never affect equality: the element store (see element_ids), which
    is the Cayley table once a whole-group operation has built it (_table,
    or False once the group is known to get none) and until then the store
    Tits' method interns into (_ids).  The braid windows (_windows, see
    braid_windows) depend on the entries alone and stay on the matrix;
    everything else memoized per matrix, the conjugation closure included,
    lives on that store.
    """

    __slots__ = ("entries", "_hash", "_table", "_ids", "_windows", "_budget")

    def __init__(self, entries: tuple[tuple[int | float, ...], ...]):
        self.entries = entries
        self._hash = hash(entries)
        # None until decided, then the complete ElementIds or False for "no table"
        self._table: ElementIds | bool | None = None
        self._ids: ElementIds | None = None
        self._windows: dict[tuple[int, int], tuple[int, Word, Word]] | None = None
        # braid-orbit words Tits' method may still visit, None for no bound
        self._budget: int | None = None

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
    rank = matrix.rank
    for letter in w:
        if not 0 <= letter < rank:
            raise ValueError(f"letter {letter} out of range for rank {matrix.rank}")
    return w


def alternating_word(s: int, t: int, count: int) -> Word:
    """(s, t, s, t, ...) with `count` letters."""
    return ((s, t) * (count // 2 + 1))[:count]


def braid_windows(matrix: CoxeterMatrix) -> dict[tuple[int, int], tuple[int, Word, Word]]:
    """The braid move of each pair: (s, t) -> (m, (s, t, s, ...), (t, s, t, ...)).

    One entry per ordered pair of distinct generators with m(s, t) finite,
    both windows of length m.  Built on first use and kept on the matrix.
    """
    windows = matrix._windows
    if windows is None:
        windows = matrix._windows = {}
        for s, row in enumerate(matrix.entries):
            for t, m in enumerate(row):
                if s != t and m != INFINITY:
                    m = int(m)
                    windows[s, t] = (m, alternating_word(s, t, m), alternating_word(t, s, m))
    return windows


def braid_neighbors(word: Word, matrix: CoxeterMatrix) -> Iterator[tuple[int, tuple[int, int], Word]]:
    """Yield (position, (s, t), result) for every applicable braid move.

    A braid move rewrites a factor (s, t, s, ...) of length m(s, t) into
    (t, s, t, ...).  At most one move starts at each position, so iteration
    order (by position) is deterministic.  Each position costs one lookup
    of its two letters in braid_windows and one slice comparison.
    """
    windows = braid_windows(matrix)
    for i in range(len(word) - 1):
        pair = word[i : i + 2]
        hit = windows.get(pair)
        if hit is not None:
            m, window, flipped = hit
            if word[i : i + m] == window:
                yield i, pair, word[:i] + flipped + word[i + m :]


def _delete_square(word: Word) -> Word | None:
    for i in range(len(word) - 1):
        if word[i] == word[i + 1]:
            return word[:i] + word[i + 2:]
    return None


def _arm(neighbors: dict[int, list[int]], start: int, prev: int | None) -> list[int]:
    """The nodes of a path in the Coxeter graph, from `start` away from `prev`."""
    arm = [start]
    while True:
        ahead = [u for u in neighbors[arm[-1]] if u != prev]
        if not ahead:
            return arm
        prev = arm[-1]
        arm.append(ahead[0])


def _component_order(matrix: CoxeterMatrix, nodes: list[int]) -> int | None:
    """|W| of the irreducible group on one component of the Coxeter graph.

    None when that group is infinite.  The finite ones are A_n, B_n, D_n,
    E6-8, F4, H3, H4 and I2(m) (Coxeter 1935).
    """
    k = len(nodes)
    if k == 1:
        return 2
    neighbors: dict[int, list[int]] = {v: [] for v in nodes}
    bonds = []
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if matrix.m(a, b) != 2:
                neighbors[a].append(b)
                neighbors[b].append(a)
                bonds.append(matrix.m(a, b))
    if k == 2:
        return None if bonds[0] == INFINITY else 2 * bonds[0]
    bonds.sort()
    # a tree with at most one bond above 3, and none above 5
    if len(bonds) != k - 1 or bonds[-1] > 5 or bonds[-2] > 3:
        return None
    branches = [v for v in nodes if len(neighbors[v]) > 2]
    if branches:
        branch = branches[0]
        if len(branches) > 1 or len(neighbors[branch]) > 3 or bonds[-1] > 3:
            return None
        p, q, r = sorted(len(_arm(neighbors, u, branch)) for u in neighbors[branch])
        if p == q == 1:
            return 2 ** (k - 1) * math.factorial(k)  # D_k
        if (p, q) == (1, 2):
            return {2: 51_840, 3: 2_903_040, 4: 696_729_600}.get(r)  # E6, E7, E8
        return None
    path = _arm(neighbors, next(v for v in nodes if len(neighbors[v]) == 1), None)
    labels = [matrix.m(a, b) for a, b in zip(path, path[1:])]
    top = max(labels)
    at_end = labels[0] == top or labels[-1] == top
    if top == 3:
        return math.factorial(k + 1)  # A_k
    if top == 4 and at_end:
        return 2 ** k * math.factorial(k)  # B_k
    if top == 4 and k == 4:
        return 1_152  # F4
    if top == 5 and at_end:
        return {3: 120, 4: 14_400}.get(k)  # H3, H4
    return None


def group_order(matrix: CoxeterMatrix) -> int | None:
    """|W|, the product over the components of the Coxeter graph; None if infinite."""
    order = 1
    seen: set[int] = set()
    for root in range(matrix.rank):
        if root in seen:
            continue
        component = [root]
        seen.add(root)
        for v in component:
            for u in range(matrix.rank):
                if u not in seen and matrix.m(v, u) != 2:
                    seen.add(u)
                    component.append(u)
        factor = _component_order(matrix, component)
        if factor is None:
            return None
        order *= factor
    return order


def _enumerate_cosets(rank: int, relators: list[Word]) -> list[list[int]] | None:
    """HLT coset enumeration of the trivial subgroup, generators involutions.

    Returns act with act[s][c] = c.s on the live cosets (coset 0 is the
    subgroup), or None once more than _COSET_LIMIT cosets are defined.
    A generator is its own inverse, so one column per generator suffices and
    every definition and deduction sets c.s = d and d.s = c together.
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 5.1.)
    """
    act = [[-1] for _ in range(rank)]
    parent = [0]  # union-find over cosets; c is live iff parent[c] == c

    def define(c: int, s: int) -> None:
        d = len(parent)
        parent.append(d)
        for col in act:
            col.append(-1)
        act[s][c] = d
        act[s][d] = c

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def coincidence(a: int, b: int) -> None:
        dead: list[int] = []

        def merge(k: int, l: int) -> None:
            k, l = find(k), find(l)
            if k != l:
                k, l = min(k, l), max(k, l)
                parent[l] = k
                dead.append(l)

        merge(a, b)
        for g in dead:  # grows while it is walked
            for col in act:
                d = col[g]
                if d < 0:
                    continue
                col[d] = -1
                mu, nu = find(g), find(d)
                if col[mu] >= 0:
                    merge(nu, col[mu])
                elif col[nu] >= 0:
                    merge(mu, col[nu])
                else:
                    col[mu] = nu
                    col[nu] = mu

    c = 0
    while c < len(parent):
        if len(parent) > _COSET_LIMIT:
            return None
        for r in relators:
            if parent[c] != c:
                break
            # scan r at c from both ends, filling the table until it closes
            f, i, b, j = c, 0, c, len(r) - 1
            while True:
                while i <= j and act[r[i]][f] >= 0:
                    f = act[r[i]][f]
                    i += 1
                while j >= i and act[r[j]][b] >= 0:
                    b = act[r[j]][b]
                    j -= 1
                if j < i:
                    # the scan closed: it must end where it started
                    if f != b:
                        coincidence(f, b)
                    break
                if i == j:
                    act[r[i]][f] = b
                    act[r[i]][b] = f
                    break
                define(f, r[i])
        if parent[c] == c:
            for s in range(rank):
                if act[s][c] < 0:
                    define(c, s)
        c += 1
    return act


def _build_table(matrix: CoxeterMatrix, relators: list[Word], order: int) -> ElementIds | None:
    """Enumerate cosets, then number the elements by one BFS from the identity.

    Generators are tried in index order from elements taken in discovery
    order, so each element is first reached along its ShortLex-least reduced
    word and the ids come out in (length, ShortLex) order.
    """
    rank = matrix.rank
    act = _enumerate_cosets(rank, relators)
    if act is None:
        return None
    words: list[Word] = [()]
    cosets = [0]
    ids = {0: 0}
    right = []
    for i, c in enumerate(cosets):  # grows while it is walked
        row = []
        for s in range(rank):
            d = act[s][c]
            j = ids.get(d)
            if j is None:
                j = ids[d] = len(cosets)
                cosets.append(d)
                words.append(words[i] + (s,))
            row.append(j)
        right.append(tuple(row))
    if len(words) != order:
        raise AssertionError(f"coset enumeration gave {len(words)} elements, not {order}")
    return ElementIds(matrix, words, right)


def cayley_table(matrix: CoxeterMatrix) -> ElementIds | None:
    """The group's Cayley table, built on the first call and kept on the matrix.

    The table is a complete ElementIds, and from then on it is the
    matrix's element store: the store Tits' method had interned into is
    dropped.  Decided from the matrix alone, before any coset is defined: a
    group gets a table when it is finite and one enumeration pass (|W| times
    the total relator length) stays within _TABLE_WORK_LIMIT.  Otherwise
    this is None and the word problem runs on Tits' method.  Only
    whole-group operations call this; the word problem uses element_ids,
    which is the table if one has been built.
    """
    if matrix._table is None:
        order = group_order(matrix)
        table = None
        if order is not None:
            n = matrix.rank
            relators = [
                alternating_word(s, t, 2 * int(matrix.m(s, t)))
                for s in range(n)
                for t in range(s + 1, n)
            ]
            if order * sum(map(len, relators)) <= _TABLE_WORK_LIMIT:
                table = _build_table(matrix, relators, order)
        if table is not None:
            matrix._ids = None
        matrix._table = table or False
    return matrix._table or None


def _canonical(matrix: CoxeterMatrix, word: Word) -> Word:
    ids = element_ids(matrix)
    return ids.words[ids.id_of(word)]


@contextmanager
def closure_search_budget(matrix: CoxeterMatrix) -> Iterator[None]:
    """Bound Tits' method on the matrix to _CLOSURE_SEARCH_BUDGET orbit words.

    Past the budget _canonical_search raises ElementCapExceeded; no partial
    result is memoized.
    """
    matrix._budget = _CLOSURE_SEARCH_BUDGET
    try:
        yield
    finally:
        matrix._budget = None


def _canonical_search(matrix: CoxeterMatrix, word: Word) -> Word:
    """Tits search on one word: either delete a square or exhaust the orbit.

    An exhausted orbit is the set of reduced expressions of one element:
    its least word is interned in the matrix's element store, and every
    word of the orbit is indexed to that id.  Each word of the orbit whose
    moves are explored spends one unit of the matrix's budget, if
    closure_search_budget has set one.
    """
    shorter = _delete_square(word)
    if shorter is not None:
        return _canonical(matrix, shorter)
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            if matrix._budget is not None:
                matrix._budget -= 1
                if matrix._budget < 0:
                    raise ElementCapExceeded(
                        _CLOSURE_SEARCH_BUDGET,
                        "conjugation closure exceeded its search budget of "
                        f"{_CLOSURE_SEARCH_BUDGET} braid-orbit words",
                    )
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
    ids = element_ids(matrix)
    x = ids.index.get(best)
    if x is None:
        x = len(ids.words)
        ids.words.append(best)
        ids.right.append([-1] * matrix.rank)
    ids.index.update(dict.fromkeys(seen, x))
    return best


class ElementIds:
    """The element store of one matrix: integer ids and right multiplication.

    words[i] is the canonical word of element i (id 0 is the identity),
    index maps words to ids, right[x][s] is the id of x times generator s,
    and walk(x, word) is the id of x times word.  A Cayley table (see
    cayley_table) is a complete store: its ids are in (length, ShortLex)
    order, its index holds exactly the canonical words and right is full.
    Without a table the store starts from the identity alone and Tits'
    method interns elements as they are reached: right[x][s] is -1 until
    walk first needs it, and index also holds every reduced expression of
    an element whose braid orbit a search has exhausted.  Either way the
    callers see one interface.

    The memos of the conjugation closure and the arc law live here, keyed
    by ids: `closure` is the exact conjugation closure as partners[u][v],
    the bit number of the closure pair (u, v), or the ElementCapExceeded
    that cut it off; `pairs[bit]` is (u, v, m(seed pair)), the numbering
    that occurrence vectors are int bitsets over; and `seeds` maps each
    closure seed to its generator pairs with their witness ids (all three
    from braid_graph.conjugate_pair_closure); `steps` maps prefix id * rank +
    letter to (the id of prefix.letter, the id of the inversion-word entry
    prefix.letter.prefix^-1); `sweeps` maps a pair of reflection ids to the
    ids of its dihedral sweep; `sweep_words` keeps the
    DihedralReflectionWord wrappers handed out by dihedral_reflection_word;
    `candidates` holds the occurrence-vector candidates of the last entry
    set inversions.occurrence_ids was asked for, at most one, for every
    caller.
    """

    __slots__ = (
        "matrix", "words", "index", "right", "closure", "pairs", "seeds", "steps", "sweeps",
        "sweep_words", "candidates",
    )

    def __init__(self, matrix: CoxeterMatrix, words: list[Word], right: list[Sequence[int]]):
        self.matrix = matrix
        self.words = words
        self.index = {w: i for i, w in enumerate(words)}
        self.right = right
        self.closure: dict[int, dict[int, int]] | ElementCapExceeded | None = None
        self.pairs: list[tuple[int, int, int]] | None = None
        self.seeds: dict[tuple[int, int], dict[tuple[int, int], int]] | None = None
        self.steps: dict[int, tuple[int, int]] = {}
        self.sweeps: dict[tuple[int, int], tuple[int, ...]] = {}
        self.sweep_words: dict[tuple[int, int], DihedralReflectionWord] = {}
        self.candidates: dict[frozenset[int], tuple] = {}

    def walk(self, x: int, word: Sequence[int]) -> int:
        right = self.right
        for s in word:
            y = right[x][s]
            if y < 0:
                y = self._fill(x, s)
            x = y
        return x

    def prefixes(self, word: Sequence[int]) -> list[int]:
        """The ids of word's prefixes: walk(0, word[:i]) for i = 0, ..., len(word)."""
        right = self.right
        x = 0
        out = [0]
        for s in word:
            y = right[x][s]
            if y < 0:
                y = self._fill(x, s)
            x = y
            out.append(x)
        return out

    def _fill(self, x: int, s: int) -> int:
        key = self.words[x] + (s,)
        y = self.index.get(key)
        if y is None:
            y = self.index[_canonical_search(self.matrix, key)]
        # s is an involution, so the step back is known too
        self.right[x][s] = y
        self.right[y][s] = x
        return y

    def id_of(self, word: Sequence[int]) -> int:
        """The id of the element a (letter-checked) word represents."""
        i = self.index.get(word)
        return self.walk(0, word) if i is None else i

    def element(self, x: int) -> Element:
        return Element(self.matrix, self.words[x])


def element_ids(matrix: CoxeterMatrix) -> ElementIds:
    """The matrix's element store: its Cayley table once one is built.

    Until then it is the store Tits' method interns into, made on the first
    call.  Building the table drops that store with its memos, so ids taken
    from one call must not be kept across an operation that may build the
    table (see inversions.fixed_ids).
    """
    ids = matrix._table or matrix._ids
    if ids is None:
        ids = matrix._ids = ElementIds(matrix, [()], [[-1] * matrix.rank])
    return ids


def reduced_word_counts(matrix: CoxeterMatrix, elements: Sequence[Element]) -> list[int]:
    """|R(w)|, the number of reduced expressions, of each of ``elements``.

    |R(e)| = 1 and |R(w)| = sum of |R(ws)| over the s with l(ws) < l(w),
    since a reduced word ends in a right descent; the sums are pushed up
    from each ws to w in one pass.  ``elements`` must be in length order and
    closed under removing a right descent, as enumerate_elements lists them;
    ValueError otherwise.  No search is run: w.s for an ascent s is read
    from the store's right multiplication or, on Tits' method, from its
    index, which holds every reduced expression of the element w.s once
    enumeration has reached it.
    """
    ids = element_ids(matrix)
    words, index, right = ids.words, ids.index, ids.right
    xs = [ids.id_of(e.word) for e in elements]
    counts = dict.fromkeys(xs, 0)
    if 0 in counts:
        counts[0] = 1
    for x in xs:
        count = counts[x]
        if not count:
            raise ValueError(
                f"{ids.element(x)!r} has no right descent among the elements before it"
            )
        word = words[x]
        for s, y in enumerate(right[x]):
            if y < 0:
                y = index.get(word + (s,), -1)
            if y in counts and len(words[y]) > len(word):
                counts[y] += count
    return [counts[x] for x in xs]


def sweep_ids(ids: ElementIds, u: int, v: int, cap: int) -> tuple[int, ...]:
    """The dihedral sweep of reflections u != v, as ids: entry i is (uv)^i u.

    Entry i + 1 is entry i times v u, so the sweep is walked until it
    returns to u; m = ord(uv) entries, CapExceededError when m > cap (also
    when the sweep is already memoized).  Each sweep is walked once per
    ElementIds; callers that know m, such as the arc law for a conjugate of
    a generator pair, pass it as the cap.
    """
    if u == v:
        raise ValueError("dihedral_reflection_word requires distinct reflections")
    hit = ids.sweeps.get((u, v))
    if hit is None:
        step = ids.words[v] + ids.words[u]
        entries = [u]
        x = ids.walk(u, step)
        while x != u:
            if len(entries) >= cap:
                raise CapExceededError(cap)
            entries.append(x)
            x = ids.walk(x, step)
        if entries[-1] != v:
            raise AssertionError("sweep does not run from u to v")
        hit = ids.sweeps[(u, v)] = tuple(entries)
    elif len(hit) > cap:
        raise CapExceededError(cap)
    return hit


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
    matrix = a.matrix
    if matrix is not b.matrix and matrix != b.matrix:
        raise ValueError("elements live over different Coxeter matrices")
    ids = element_ids(matrix)
    return Element(matrix, ids.words[ids.walk(ids.id_of(a.word), b.word)])


def inverse(a: Element) -> Element:
    # The reversed canonical word represents the inverse (generators are
    # involutions); it still needs re-canonicalizing.
    return Element(a.matrix, _canonical(a.matrix, a.word[::-1]))


def conjugate(q: Element, x: Element) -> Element:
    """q x q^-1."""
    return multiply(multiply(q, x), inverse(q))


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
    otherwise, also when the sweep is already memoized).  The sweep is
    sweep_ids on the matrix's element ids, wrapped once per pair.
    """
    ids = element_ids(u.matrix)
    key = (ids.id_of(u.element.word), ids.id_of(v.element.word))
    entries = sweep_ids(ids, *key, cap=cap)
    sweep = ids.sweep_words.get(key)
    if sweep is None:
        reflections = tuple(Reflection(ids.element(x)) for x in entries)
        sweep = ids.sweep_words[key] = DihedralReflectionWord(pair=(u, v), entries=reflections)
    return sweep


def enumerate_elements(
    matrix: CoxeterMatrix,
    max_length: int | None = None,
    cap: int = DEFAULT_ELEMENT_CAP,
    length_guard: int = 128,
) -> list[Element]:
    """Elements in (length, ShortLex) order, up to max_length when given.

    Without max_length the whole group is listed, so its Cayley table is
    built if it gets one (see cayley_table); with max_length an already
    built table is used.  A group with a table lists the table's elements.
    Otherwise the group is enumerated breadth first over right
    multiplication with Tits' method, which expands no word of length
    max_length; without max_length the group must then be finite, and
    the length guard cuts off words that keep growing.
    CapExceededError when more than `cap` elements would be listed;
    ValueError on a negative max_length.
    """
    if max_length is not None and max_length < 0:
        raise ValueError(f"max_length must be non-negative, got {max_length}")
    table = cayley_table(matrix) if max_length is None else matrix._table or None
    if table is not None:
        words = table.words
        if max_length is not None:
            words = list(itertools.takewhile(lambda w: len(w) <= max_length, words))
        if len(words) > cap:
            raise CapExceededError(cap, "element enumeration exceeded cap")
        return [Element(matrix, w) for w in words]
    seen = {(): None}
    order: list[Word] = [()]
    frontier: list[Word] = [()]
    while frontier and (max_length is None or len(frontier[0]) < max_length):
        if max_length is None and len(frontier[0]) >= length_guard:
            infinite = group_order(matrix) is None
            claim = "group looks infinite" if infinite else "enumeration passed the length guard"
            raise CapExceededError(length_guard, f"element lengths exceed {length_guard}; {claim}")
        nxt = []
        for w in frontier:
            for s in range(matrix.rank):
                y = _canonical(matrix, w + (s,))
                if len(y) > len(w) and y not in seen:
                    if len(seen) >= cap:
                        raise CapExceededError(cap, "element enumeration exceeded cap")
                    seen[y] = None
                    nxt.append(y)
        frontier = sorted(nxt)
        order.extend(frontier)
    return [Element(matrix, w) for w in order]
