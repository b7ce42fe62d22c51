"""Braid-move graphs and conjugacy classes of generator pairs.

The graph of an element has one vertex per expression and one arc per
braid move; arcs carry the move's generator pair, its position, and a
color identifying the simultaneous-conjugacy class of the pair.  Classes
are computed by orbit closure: conjugating a pair of reflections by the
generators until nothing new appears.  The closure runs on the matrix's
element ids (core.ElementIds), and the exact one is kept on that store,
where the arc law reads its pairs too (inversions.occurrence_ids).  When
every orbit closes within the element cap the partition is exact (with a
conjugating witness stored per member); otherwise callers fall back to a
bounded-radius search whose classes are only provisional, i.e. possibly
finer than the truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

from .core import (
    DEFAULT_ELEMENT_CAP,
    CoxeterMatrix,
    Element,
    ElementCapExceeded,
    INFINITY,
    Word,
    alternating_word,
    braid_neighbors,
    cayley_table,
    check_word,
    closure_search_budget,
    ElementIds,
    element_ids,
    group_order,
)

GenPair = tuple[int, int]


class LengthParityMismatch(ValueError):
    """Expression length must have the parity of the element length."""


def finite_pairs(matrix: CoxeterMatrix) -> list[GenPair]:
    """Ordered pairs (s, t) of distinct generators with m(s, t) finite."""
    n = matrix.rank
    return [
        (s, t)
        for s in range(n)
        for t in range(n)
        if s != t and matrix.m(s, t) != INFINITY
    ]


def braid_moves(word, matrix: CoxeterMatrix) -> list[tuple[int, GenPair, Word]]:
    """All braid moves applicable to a word, ordered by position."""
    w = check_word(word, matrix)
    return list(braid_neighbors(w, matrix))


@dataclass(frozen=True, slots=True)
class PairClass:
    index: int
    pairs: tuple[GenPair, ...]
    exact: bool
    radius: int | None
    # witness q per member: q . rep . q^-1 = member, componentwise
    witnesses: Mapping[GenPair, Element] = field(hash=False)

    @property
    def representative(self) -> GenPair:
        return self.pairs[0]


@dataclass(frozen=True, slots=True)
class PairClassPartition:
    matrix: CoxeterMatrix
    classes: tuple[PairClass, ...]
    # verify.verify_parity's check rows per colour multiset, which depend
    # on this partition alone; a copy with other classes starts empty
    signature_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def class_of(self, pair: GenPair) -> int:
        for cls in self.classes:
            if pair in cls.pairs:
                return cls.index
        raise KeyError(f"pair {pair} is not in the partition")

    @property
    def exact(self) -> bool:
        return all(cls.exact for cls in self.classes)


def op_class(class_id: int, partition: PairClassPartition) -> int:
    """The class containing (t, s) for any (s, t) in the given class."""
    s, t = partition.classes[class_id].representative
    return partition.class_of((t, s))


def _pair_ids(ids: ElementIds, pair: GenPair) -> tuple[int, int]:
    return ids.walk(0, pair[:1]), ids.walk(0, pair[1:])


def _conjugation_orbit(
    matrix: CoxeterMatrix, pair: GenPair, radius: int | None, closed: int = 0
) -> dict[tuple[int, int], int]:
    """Conjugate a generator pair by generators, breadth first, on element ids.

    Maps every reached pair of reflection ids (u, v) to a witness id q with
    (u, v) = q . pair . q^-1, in discovery order.  With a radius r only
    conjugating words of length <= r are tried.  With radius=None the
    orbit is closed, and ElementCapExceeded is raised when the `closed`
    states of earlier orbits plus this orbit reach DEFAULT_ELEMENT_CAP.  A
    group with no Cayley table (infinite, or finite but past the table's
    work limit) also has a length guard, the larger of 24 and the largest
    finite bond plus one: a conjugate longer than that raises
    ElementCapExceeded too, which cuts infinite orbits off fast.  Its
    message claims an infinite orbit only when the group is infinite.  A
    group with a table is finite, so its orbits always close and need no
    guard.  The ids are those of element_ids(matrix), so an exact orbit
    must be run after the table has been decided (see
    conjugate_pair_closure).
    """
    length_guard = None
    if radius is None and not matrix._table:
        finite_bonds = [int(matrix.m(s, t)) for s, t in finite_pairs(matrix)]
        length_guard = max(24, max(finite_bonds, default=2) + 1)
        infinite = group_order(matrix) is None
        claim = "orbit looks infinite" if infinite else "orbit passed the length guard"
    ids = element_ids(matrix)
    words, walk = ids.words, ids.walk
    start = _pair_ids(ids, pair)
    orbit = {start: 0}
    frontier = [(*start, 0)]
    depth = 0
    while frontier and (radius is None or depth < radius):
        nxt = []
        for u, v, witness in frontier:
            for g in range(matrix.rank):
                # g u g^-1 and g v g^-1, as g is an involution
                st = (walk(0, (g, *words[u], g)), walk(0, (g, *words[v], g)))
                if st in orbit:
                    continue
                if radius is None:
                    if closed + len(orbit) >= DEFAULT_ELEMENT_CAP:
                        raise ElementCapExceeded(
                            DEFAULT_ELEMENT_CAP, "conjugation closure exceeded element cap"
                        )
                    if length_guard is not None and max(len(words[x]) for x in st) > length_guard:
                        raise ElementCapExceeded(
                            length_guard, f"conjugates exceed length {length_guard}; {claim}"
                        )
                q = orbit[st] = walk(0, (g, *words[witness]))
                nxt.append((*st, q))
        frontier = nxt
        depth += 1
    return orbit


def _conjugation_closure(matrix: CoxeterMatrix) -> dict[tuple[int, int], tuple[GenPair, int, int]]:
    """Close the generator pairs under conjugation by generators, on element ids.

    Maps every reachable pair of reflection ids (u, v) to (seed pair,
    witness id q with (u, v) = q . seed . q^-1, m(seed)).  Seeds are
    scanned in lex order, so each orbit is keyed by its lex-least generator
    pair.  The element cap counts the whole closure, not one orbit.  Tits'
    method, the word problem of a group without a Cayley table, runs under
    closure_search_budget meanwhile: a closure whose orbit searches pass it
    raises ElementCapExceeded too.
    """
    closure: dict[tuple[int, int], tuple[GenPair, int, int]] = {}
    with closure_search_budget(matrix):
        ids = element_ids(matrix)
        for seed in finite_pairs(matrix):
            if _pair_ids(ids, seed) in closure:
                continue
            m = int(matrix.m(*seed))
            orbit = _conjugation_orbit(matrix, seed, None, len(closure))
            closure.update((st, (seed, q, m)) for st, q in orbit.items())
    return closure


def conjugate_pair_closure(matrix: CoxeterMatrix) -> dict[int, dict[int, int]]:
    """The exact conjugation closure, as partners[u][v] on element ids.

    The Cayley table is decided first, then the closure, or the
    ElementCapExceeded that cut it off, is memoized on element_ids(matrix):
    the closure pairs are numbered once, in discovery order; `closure`
    holds partners[u][v], the number of (u, v), and `pairs[number]` is
    (u, v, m(seed pair)), so an occurrence vector is an int with one bit
    per closure pair (inversions.occurrence_ids); `seeds` maps each seed to
    its generator pairs with their witness ids.
    """
    cayley_table(matrix)
    ids = element_ids(matrix)
    if ids.closure is None:
        try:
            closure = _conjugation_closure(matrix)
        except ElementCapExceeded as exc:
            ids.closure = exc.with_traceback(None)  # frees the partial orbit
        else:
            partners: dict[int, dict[int, int]] = {}
            pairs = []
            for (u, v), (_, _, m) in closure.items():
                partners.setdefault(u, {})[v] = len(pairs)
                pairs.append((u, v, m))
            seeds: dict[GenPair, dict[GenPair, int]] = {}
            for pair in finite_pairs(matrix):
                seed, witness, _ = closure[_pair_ids(ids, pair)]
                seeds.setdefault(seed, {})[pair] = witness
            ids.closure, ids.pairs, ids.seeds = partners, pairs, seeds
    if isinstance(ids.closure, ElementCapExceeded):
        raise ElementCapExceeded(ids.closure.cap, str(ids.closure))
    return ids.closure


def pair_classes(matrix: CoxeterMatrix, radius: int | None = None) -> PairClassPartition:
    """Partition the generator pairs by simultaneous conjugacy.

    With radius=None the orbits are closed exactly (ElementCapExceeded if
    that fails); with a radius r, two pairs merge only when some
    conjugating word of length <= r maps one to the other, and every class
    is marked provisional.  The radius search runs under
    closure_search_budget, so Tits' method past the budget raises
    ElementCapExceeded there too.
    """
    if radius is not None:
        with closure_search_budget(matrix):
            return _radius_partition(matrix, radius)
    conjugate_pair_closure(matrix)
    ids = element_ids(matrix)
    classes = []
    for index, seed in enumerate(sorted(ids.seeds)):
        members = {pair: ids.element(q) for pair, q in ids.seeds[seed].items()}
        classes.append(
            PairClass(
                index=index,
                pairs=tuple(sorted(members)),
                exact=True,
                radius=None,
                witnesses=members,
            )
        )
    return PairClassPartition(matrix=matrix, classes=tuple(classes))


def _radius_partition(matrix: CoxeterMatrix, radius: int) -> PairClassPartition:
    ids = element_ids(matrix)
    pairs = finite_pairs(matrix)
    state_to_pair = {_pair_ids(ids, pair): pair for pair in pairs}

    # merges[(P, Q)] = q with q . P . q^-1 = Q, found within the radius
    merges: dict[tuple[GenPair, GenPair], int] = {}
    for pair in pairs:
        for st, q in _conjugation_orbit(matrix, pair, radius).items():
            other = state_to_pair.get(st)
            if other is not None and other != pair:
                merges.setdefault((pair, other), q)
                merges.setdefault((other, pair), ids.id_of(ids.words[q][::-1]))

    # connected components over the merge edges, with witnesses rooted at
    # the lex-least member of each component
    neighbors: dict[GenPair, list[GenPair]] = {pair: [] for pair in pairs}
    for (a, b) in merges:
        neighbors[a].append(b)
    unassigned = set(pairs)
    classes = []
    for rep in pairs:
        if rep not in unassigned:
            continue
        witnesses = {rep: 0}
        queue = [rep]
        while queue:
            current = queue.pop(0)
            for nxt in sorted(neighbors[current]):
                if nxt in witnesses:
                    continue
                witnesses[nxt] = ids.walk(merges[(current, nxt)], ids.words[witnesses[current]])
                queue.append(nxt)
        unassigned -= witnesses.keys()
        classes.append((rep, witnesses))
    out = []
    for index, (rep, witnesses) in enumerate(sorted(classes)):
        out.append(
            PairClass(
                index=index,
                pairs=tuple(sorted(witnesses)),
                exact=False,
                radius=radius,
                witnesses={pair: ids.element(q) for pair, q in witnesses.items()},
            )
        )
    return PairClassPartition(matrix=matrix, classes=tuple(out))


class Arc(NamedTuple):
    source: int
    target: int
    pair: GenPair
    position: int
    color: int


@dataclass(frozen=True, slots=True)
class BraidGraph:
    """Edge-colored directed graph of expressions under braid moves.

    mode is "reduced" (vertices are the reduced expressions of `element`)
    or "expressions" (vertices are the braid-reachable length-k expressions
    from the padded seed; only the reachable component, no completeness
    claim).  Vertices are listed in BFS discovery order with moves taken
    in position order, so construction is reproducible bit for bit.
    """

    matrix: CoxeterMatrix
    element: Element
    mode: str
    expression_length: int | None
    vertices: tuple[Word, ...]
    arcs: tuple[Arc, ...]

    def with_arc_color(self, arc_index: int, color: int) -> "BraidGraph":
        """Copy with one arc recolored (negative-control experiments)."""
        arcs = list(self.arcs)
        arcs[arc_index] = arcs[arc_index]._replace(color=color)
        return BraidGraph(
            self.matrix, self.element, self.mode, self.expression_length,
            self.vertices, tuple(arcs),
        )


def _bfs_graph(
    matrix: CoxeterMatrix,
    element: Element,
    seed: Word,
    mode: str,
    expression_length: int | None,
    partition: PairClassPartition,
) -> BraidGraph:
    index: dict[Word, int] = {seed: 0}
    vertices: list[Word] = [seed]
    arcs: list[Arc] = []
    colors: dict[GenPair, tuple[GenPair, int]] = {}  # the pair's first tuple, its class
    cursor = 0
    while cursor < len(vertices):
        w = vertices[cursor]
        for position, pair, target in braid_neighbors(w, matrix):
            j = index.get(target)
            if j is None:
                j = len(vertices)
                index[target] = j
                vertices.append(target)
            hit = colors.get(pair)
            if hit is None:
                hit = colors[pair] = pair, partition.class_of(pair)
            pair, color = hit
            arcs.append(Arc(cursor, j, pair, position, color))
        cursor += 1
    return BraidGraph(
        matrix=matrix,
        element=element,
        mode=mode,
        expression_length=expression_length,
        vertices=tuple(vertices),
        arcs=tuple(arcs),
    )


def reduced_graph(
    element: Element, partition: PairClassPartition | None = None
) -> BraidGraph:
    """Graph of all reduced expressions of an element."""
    matrix = element.matrix
    if partition is None:
        partition = pair_classes(matrix)
    return _bfs_graph(matrix, element, element.word, "reduced", None, partition)


def expression_graph(
    element: Element,
    length: int,
    partition: PairClassPartition | None = None,
) -> BraidGraph:
    """Braid-reachable component of length-k expressions of an element.

    The seed is the canonical word padded with repeated (s1, s1); only the
    component of that seed is explored.
    """
    matrix = element.matrix
    if length < element.length or (length - element.length) % 2 != 0:
        raise LengthParityMismatch(
            f"length {length} incompatible with element length {element.length}"
        )
    if length > element.length and matrix.rank == 0:
        raise ValueError("cannot pad expressions in the rank-0 group")
    if partition is None:
        partition = pair_classes(matrix)
    seed = element.word + alternating_word(0, 0, length - element.length)
    return _bfs_graph(matrix, element, seed, "expressions", length, partition)
