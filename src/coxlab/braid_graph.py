"""Braid-move graphs and conjugacy classes of generator pairs.

The graph of an element has one vertex per expression and one arc per
braid move; arcs carry the move's generator pair, its position, and a
color identifying the simultaneous-conjugacy class of the pair.  Classes
are computed by orbit closure: conjugating a pair of reflections by the
generators until nothing new appears.  When every orbit closes within the
element cap the partition is exact (with a conjugating witness stored per
member); otherwise callers fall back to a bounded-radius search whose
classes are only provisional, i.e. possibly finer than the truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

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
    conjugate,
    generator_element,
    group_order,
    identity_element,
    multiply,
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


PairState = tuple[Word, Word]


def _pair_state(u: Element, v: Element) -> PairState:
    return (u.word, v.word)


def _conjugation_orbit(
    matrix: CoxeterMatrix,
    pair: GenPair,
    radius: int | None,
    element_cap: int = DEFAULT_ELEMENT_CAP,
    closed: int = 0,
) -> dict[PairState, Element]:
    """Conjugate a generator pair by generators, breadth first.

    Maps every reached pair of reflections (u, v) to a witness q with
    (u, v) = q . pair . q^-1, in discovery order.  With a radius r only
    conjugating words of length <= r are tried.  With radius=None the
    orbit is closed, and ElementCapExceeded is raised when the `closed`
    states of earlier orbits plus this orbit reach the cap.  The exact
    closure walks the whole group, so it builds the group's Cayley table
    if the group gets one.  A group with no table (infinite, or finite but
    past the table's work limit) also has a length guard, the larger of 24
    and the largest finite bond plus one: a conjugate longer than that
    raises ElementCapExceeded too, which cuts infinite orbits off fast.
    Its message claims an infinite orbit only when the group is infinite.
    A group with a table is finite, so its orbits always close and need no
    guard.
    """
    length_guard = None
    if radius is None and cayley_table(matrix) is None:
        finite_bonds = [int(matrix.m(s, t)) for s, t in finite_pairs(matrix)]
        length_guard = max(24, max(finite_bonds, default=2) + 1)
        infinite = group_order(matrix) is None
        claim = "orbit looks infinite" if infinite else "orbit passed the length guard"
    gens = [generator_element(matrix, i) for i in range(matrix.rank)]
    identity = identity_element(matrix)
    su, sv = gens[pair[0]], gens[pair[1]]
    orbit = {_pair_state(su, sv): identity}
    frontier = [(su, sv, identity)]
    depth = 0
    while frontier and (radius is None or depth < radius):
        nxt = []
        for u, v, witness in frontier:
            for g in gens:
                cu = conjugate(g, u)
                cv = conjugate(g, v)
                st = _pair_state(cu, cv)
                if st in orbit:
                    continue
                if radius is None:
                    if closed + len(orbit) >= element_cap:
                        raise ElementCapExceeded(
                            element_cap, "conjugation closure exceeded element cap"
                        )
                    if length_guard is not None and max(cu.length, cv.length) > length_guard:
                        raise ElementCapExceeded(
                            length_guard, f"conjugates exceed length {length_guard}; {claim}"
                        )
                q = multiply(g, witness)
                orbit[st] = q
                nxt.append((cu, cv, q))
        frontier = nxt
        depth += 1
    return orbit


def _conjugation_closure(
    matrix: CoxeterMatrix, element_cap: int
) -> dict[PairState, tuple[GenPair, Element, int]]:
    """Close the generator pairs under conjugation by generators.

    Maps every reachable pair of reflections (u, v) to (seed pair, witness
    q with (u, v) = q . seed . q^-1, m(seed)).  Seeds are scanned in lex
    order, so each orbit is keyed by its lex-least generator pair.  The
    element cap counts the whole closure, not one orbit.  Tits' method, the
    word problem of a group without a Cayley table, runs under
    closure_search_budget meanwhile: a closure whose orbit searches pass it
    raises ElementCapExceeded too.
    """
    gens = [generator_element(matrix, i) for i in range(matrix.rank)]
    closure: dict[PairState, tuple[GenPair, Element, int]] = {}
    with closure_search_budget(matrix):
        for seed in finite_pairs(matrix):
            if _pair_state(gens[seed[0]], gens[seed[1]]) in closure:
                continue
            m = int(matrix.m(*seed))
            orbit = _conjugation_orbit(matrix, seed, None, element_cap, len(closure))
            closure.update((st, (seed, q, m)) for st, q in orbit.items())
    return closure


def conjugate_pair_closure(
    matrix: CoxeterMatrix, element_cap: int = DEFAULT_ELEMENT_CAP
) -> dict[PairState, tuple[GenPair, Element, int]]:
    """Closure of generator pairs under conjugation (the exact orbits).

    At the default cap the closure, or the cap error, is memoized on the matrix.
    """
    if element_cap != DEFAULT_ELEMENT_CAP:
        return _conjugation_closure(matrix, element_cap)
    if matrix._closure is None:
        try:
            matrix._closure = _conjugation_closure(matrix, element_cap)
        except ElementCapExceeded as exc:
            matrix._closure = exc.with_traceback(None)  # frees the partial orbit
    if isinstance(matrix._closure, ElementCapExceeded):
        raise ElementCapExceeded(matrix._closure.cap, str(matrix._closure))
    return matrix._closure


def pair_classes(
    matrix: CoxeterMatrix,
    radius: int | None = None,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> PairClassPartition:
    """Partition the generator pairs by simultaneous conjugacy.

    With radius=None the orbits are closed exactly (ElementCapExceeded if
    that fails); with a radius r, two pairs merge only when some
    conjugating word of length <= r maps one to the other, and every class
    is marked provisional.
    """
    if radius is not None:
        return _radius_partition(matrix, radius)
    closure = conjugate_pair_closure(matrix, element_cap)
    gens = [generator_element(matrix, i) for i in range(matrix.rank)]
    grouped: dict[GenPair, dict[GenPair, Element]] = {}
    for pair in finite_pairs(matrix):
        state = _pair_state(gens[pair[0]], gens[pair[1]])
        seed, witness, _ = closure[state]
        grouped.setdefault(seed, {})[pair] = witness
    classes = []
    for index, seed in enumerate(sorted(grouped)):
        members = grouped[seed]
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
    gens = [generator_element(matrix, i) for i in range(matrix.rank)]
    pairs = finite_pairs(matrix)
    base = {pair: _pair_state(gens[pair[0]], gens[pair[1]]) for pair in pairs}
    state_to_pair = {state: pair for pair, state in base.items()}

    # merges[(P, Q)] = q with q . P . q^-1 = Q, found within the radius
    merges: dict[tuple[GenPair, GenPair], Element] = {}
    for pair in pairs:
        for st, q in _conjugation_orbit(matrix, pair, radius).items():
            other = state_to_pair.get(st)
            if other is not None and other != pair:
                merges.setdefault((pair, other), q)
                merges.setdefault((other, pair), ~q)

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
        witnesses = {rep: identity_element(matrix)}
        queue = [rep]
        while queue:
            current = queue.pop(0)
            for nxt in sorted(neighbors[current]):
                if nxt in witnesses:
                    continue
                witnesses[nxt] = multiply(merges[(current, nxt)], witnesses[current])
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
                witnesses=witnesses,
            )
        )
    return PairClassPartition(matrix=matrix, classes=tuple(out))


def default_partition(matrix: CoxeterMatrix) -> PairClassPartition:
    """Exact partition, grouped from the closure memoized on the matrix."""
    return pair_classes(matrix)


@dataclass(frozen=True, slots=True)
class Arc:
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
        old = arcs[arc_index]
        arcs[arc_index] = Arc(old.source, old.target, old.pair, old.position, color)
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
    cursor = 0
    while cursor < len(vertices):
        w = vertices[cursor]
        for position, pair, target in braid_neighbors(w, matrix):
            j = index.get(target)
            if j is None:
                j = len(vertices)
                index[target] = j
                vertices.append(target)
            arcs.append(
                Arc(
                    source=cursor,
                    target=j,
                    pair=pair,
                    position=position,
                    color=partition.class_of(pair),
                )
            )
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
        partition = default_partition(matrix)
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
        partition = default_partition(matrix)
    seed = element.word + alternating_word(0, 0, length - element.length)
    return _bfs_graph(matrix, element, seed, "expressions", length, partition)
