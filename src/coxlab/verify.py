"""Mechanical verification of the braid-move conservation laws.

Two levels are checked.  Per arc: crossing a braid move rewrites the
occurrence vector by exactly -(s', t') + (t', s'), where s', t' are the
conjugated generators of the move window.  Per cycle: for every color
class c and its opposite (the class of the swapped pair), a directed
cycle uses as many arcs of color c as of the opposite color, and an even
number in total.  Both statements are additive over the cycle space, so a
fundamental-cycle basis of the (bidirected) graph suffices.  Its spanning
tree is the BFS tree the graph was built along, read off the arcs, in
which a parent's index is smaller than its child's; random closed walks
guard the reduction in the test suite.  A cycle's checks
depend only on the multiset of its arc colours (its signature) and on the
partition, so they are computed once per signature and partition and kept
on the partition, not once per cycle or per graph.

One function, _arc_step, checks the arc law on one arc: verify_has_step
calls it once, and verify_arc_steps in one loop over a graph's arcs, in
which each arc-law quantity is computed once, at the scope it depends on:
a vertex's inversion word once, its occurrence vector when an arc first
needs it, a source vertex's prefix ids once per source, each q s q^-1
once per (q, s); the move position comes with the arc.

Verdicts are three-valued: a failure that rests on a provisional class
partition or on a capped conjugation closure is reported as inconclusive,
never as a counterexample.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Iterable, Sequence

from .braid_graph import (
    BraidGraph,
    GenPair,
    PairClassPartition,
    op_class,
)
from .core import (
    CapExceededError,
    CoxeterMatrix,
    Element,
    ElementIds,
    Reflection,
    Word,
    braid_windows,
    check_word,
    element_ids,
    sweep_ids,
)
from .inversions import (
    InversionIds,
    fixed_ids,
    inversion_ids,
    occurrence_ids,
    occurrence_pairs,
)


class Verdict(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"


def worst(verdicts: Iterable[Verdict]) -> Verdict:
    out = Verdict.PASS
    for v in verdicts:
        if v is Verdict.FAIL:
            return Verdict.FAIL
        if v is Verdict.INCONCLUSIVE:
            out = Verdict.INCONCLUSIVE
    return out


class NotABraidStep(ValueError):
    """The two words do not differ by the stated braid move."""


@dataclass(frozen=True, slots=True)
class BraidStepCertificate:
    """Witness data for one braid move a -> b with pair (s, t).

    position is the 0-based start of the rewritten window, q the product
    of the letters before it, and factor = q . sweep(s, t) . q^-1 the
    inversion-word window that the move reverses.
    """

    position: int
    q: Element
    s_prime: Reflection
    t_prime: Reflection
    factor: tuple[Reflection, ...]


def find_braid_factor(
    a: Sequence[int], b: Sequence[int], pair: GenPair, matrix: CoxeterMatrix
) -> BraidStepCertificate:
    """Locate the move window and build its certificate.

    The window starts where the words first differ (_move_position).  s',
    t' and the factor are read off a's inversion word, then cross-checked:
    the endpoints against q s q^-1 and q t q^-1, the factor against the
    sweep of (s', t') of order m(s, t), and b's inversion word against a's
    with the factor reversed.  Raises NotABraidStep when no window works
    and AssertionError when a cross-check fails.  The work runs on element
    ids (_certificate).
    """
    wa, wb = check_word(a, matrix), check_word(b, matrix)
    ids = element_ids(matrix)
    position = _move_position(wa, wb)
    q, s_prime, t_prime, factor = _certificate(
        wa, wb, inversion_ids(wa, matrix), inversion_ids(wb, matrix), pair,
        position, ids.prefixes(wa), {}, ids,
    )
    return BraidStepCertificate(
        position=position,
        q=ids.element(q),
        s_prime=Reflection(ids.element(s_prime)),
        t_prime=Reflection(ids.element(t_prime)),
        factor=tuple(Reflection(ids.element(x)) for x in factor),
    )


def _move_position(wa: Sequence[int], wb: Sequence[int]) -> int:
    """Where a braid window between two words must start.

    A window starts at the first letter where the words differ, since its
    first letters s != t differ and everything before it agrees; equal
    words get len(wa), where no window fits.
    """
    position = 0
    for x, y in zip(wa, wb):
        if x != y:
            break
        position += 1
    return position


def _certificate(
    wa: Word, wb: Word, inv_a: InversionIds, inv_b: InversionIds, pair: GenPair,
    position: int, prefixes: Sequence[int], conjugates: dict[int, list[int]], ids: ElementIds,
) -> tuple[int, int, int, tuple[int, ...]]:
    """find_braid_factor on ids, for the move at position: (q, s', t', factor).

    The words must agree before the position and after the window, and
    hold the move's two windows at it; NotABraidStep otherwise.
    prefixes[i] is the id of wa[:i], walked from the identity along wa
    (ElementIds.prefixes), not read from the inversion-word memo, so q is
    prefixes[position].  The endpoints are compared with q s q^-1 and
    q t q^-1, each walked the first time its (q, generator) comes up (q^-1
    is the reversed prefix) and then read from conjugates[q][generator].
    """
    s, t = pair
    matrix = ids.matrix
    hit = braid_windows(matrix).get((s, t))
    if hit is None:
        rank = matrix.rank
        if s == t or not 0 <= s < rank or not 0 <= t < rank:
            raise NotABraidStep(f"invalid generator pair {pair}")
        raise NotABraidStep(f"pair {pair} has infinite order; no braid move exists")
    m, window, flipped = hit
    if len(wa) != len(wb):
        raise NotABraidStep("words have different lengths")
    end = position + m
    # wb is wa with the window flipped: equal prefixes and tails
    if position < 0 or wa[position:end] != window or wb != wa[:position] + flipped + wa[end:]:
        raise NotABraidStep(f"no ({s}, {t}) braid window between the words")

    q = prefixes[position]
    row = conjugates.get(q)
    if row is None:
        row = conjugates[q] = [-1] * matrix.rank
    ends = []
    for g in pair:
        x = row[g]
        if x < 0:
            x = row[g] = ids.walk(q, (g, *wa[:position][::-1]))
        ends.append(x)
    a_entries = inv_a.entries
    factor = a_entries[position:end]
    s_prime, t_prime = factor[0], factor[-1]
    if [s_prime, t_prime] != ends:
        raise AssertionError("factor endpoints disagree with conjugated generators")
    if factor != sweep_ids(ids, s_prime, t_prime, cap=m):
        raise AssertionError("certificate factor mismatch against inversion word")
    if inv_b.entries != a_entries[:position] + factor[::-1] + a_entries[end:]:
        raise AssertionError("braid move did not reverse the inversion-word factor")
    return q, s_prime, t_prime, factor


@dataclass(frozen=True, slots=True)
class StepResult:
    verdict: Verdict
    details: str = ""


_PASS = StepResult(Verdict.PASS)  # shared by every passing arc


def _arc_step(
    words: Sequence[Word], invs: Sequence[InversionIds], vectors: dict[int, int], a: int,
    b: int, pair: GenPair, position: int, prefixes: Sequence[int],
    conjugates: dict[int, list[int]], ids: ElementIds,
) -> StepResult:
    """verify_has_step on ids, for the move at position from vertex a to vertex b.

    words, invs and vectors are keyed by vertex: its word, its inversion
    word and its occurrence vector, an int bitset built from invs[i] when
    an arc first needs it, never by moving along an arc.  prefixes (those
    of a's word), conjugates and ids are as in _certificate.  The
    certificate comes before the vectors, so a failing certificate is a
    FAIL even where the closure is capped.  Only a failing arc reads its
    two vectors back as pairs, to count the mismatches.
    """
    try:
        _, s_prime, t_prime, _ = _certificate(
            words[a], words[b], invs[a], invs[b], pair, position, prefixes, conjugates, ids
        )
    except AssertionError as exc:
        return StepResult(Verdict.FAIL, f"certificate: {exc}")
    try:
        for i in (a, b):
            if i not in vectors:
                vectors[i] = occurrence_ids(invs[i], ids.matrix)
    except CapExceededError as exc:
        return StepResult(Verdict.INCONCLUSIVE, f"cap exceeded: {exc}")
    va, vb = vectors[a], vectors[b]
    partners = ids.closure
    st = 1 << partners[s_prime][t_prime]
    ts = 1 << partners[t_prime][s_prime]
    if va & st and not va & ts and vb == va ^ st ^ ts:
        return _PASS
    # pairs where vector(b) differs from vector(a) - (s', t') + (t', s')
    va, vb = occurrence_pairs(va, ids), occurrence_pairs(vb, ids)
    st, ts = (s_prime, t_prime), (t_prime, s_prime)
    mismatched = sum(
        (k in vb) != (k in va) - (k == st) + (k == ts) for k in va | vb | {st, ts}
    )
    return StepResult(Verdict.FAIL, f"vector mismatch on {mismatched} pair(s)")


def verify_has_step(
    a: Sequence[int],
    b: Sequence[int],
    pair: GenPair,
    matrix: CoxeterMatrix,
) -> StepResult:
    """Check the occurrence-vector update across one braid move.

    Passes iff vector(b) = vector(a) - (s', t') + (t', s'), each vector
    computed from its own word.  The vectors are 0/1, kept as supports A
    and B, so this reads: (s', t') in A, (t', s') not in A and
    B = A - {(s', t')} | {(t', s')}.  Raises NotABraidStep when the words
    do not differ by the stated move, the window taken where they first
    differ, and ValueError when a word is not reduced.  A failed
    certificate cross-check is a FAIL with details "certificate:
    <message>"; a conjugation closure that hits its cap downgrades the
    verdict to inconclusive.  Sweep orders come from the closure, so no
    order cap applies.
    """
    words = check_word(a, matrix), check_word(b, matrix)
    ids = fixed_ids(matrix)
    invs = [inversion_ids(w, matrix) for w in words]
    position = _move_position(*words)
    return _arc_step(words, invs, {}, 0, 1, pair, position, ids.prefixes(words[0]), {}, ids)


# ---------------------------------------------------------------------------
# cycle space


def fundamental_cycles(graph: BraidGraph) -> list[list[int]]:
    """Basis of the directed cycle space, as lists of arc indices.

    One 2-cycle per undirected edge (an arc and its reverse: braid moves are
    reversible) plus, for each non-tree edge of the BFS spanning tree, the
    long cycle it closes.  The vertices must be numbered in BFS discovery
    order and the arcs grouped by source in vertex order, each group in
    position order, as reduced_graph, expression_graph and with_arc_color
    keep them.  Then the first arc u -> v with u < v discovered v, so one
    pass reads off the tree: each parent has a smaller index than its
    child, and the walk to a common ancestor steps up from the larger end.
    The reverse of u -> v is the move from v at the same position, where at
    most one move starts, found by bisection in v's group; so besides the
    cycles only the tree arc into each vertex and the arc back to its parent
    are kept.  A vertex v > 0 with no arc from an earlier vertex, an arc
    with no reverse and sources out of order raise ValueError.
    """
    arcs = graph.arcs
    n = len(graph.vertices)
    position_of = attrgetter("position")
    starts = [len(arcs)] * (n + 1)  # the arcs from v are arcs[starts[v]:starts[v + 1]]
    into = [-1] * n  # the tree arc into each vertex
    last = -1
    for i, (u, v, _, _, _) in enumerate(arcs):
        if u != last:
            if u < last:
                raise ValueError(f"arc {i} is out of source order")
            starts[last + 1 : u + 1] = [i] * (u - last)
            last = u
        if u < v and into[v] < 0:
            into[v] = i
    if -1 in into[1:]:
        raise ValueError("graph is not connected")

    up = [-1] * n  # the arc from each vertex back to its tree parent
    cycles, long_cycles = [], []
    for i, (u, v, _, position, _) in enumerate(arcs):
        if u > v:
            continue
        j = bisect_left(arcs, position, starts[v], starts[v + 1], key=position_of)
        if j == starts[v + 1] or arcs[j].target != u:
            raise ValueError(f"arc {i} has no reverse arc")
        cycles.append([i, j])
        if into[v] == i:
            up[v] = j
            continue
        # from v up to the common ancestor, then down to u, by tree arcs that come before arc i
        cycle = [i]
        down = []
        x, y = v, u
        while x != y:
            if x > y:
                cycle.append(up[x])
                x = arcs[into[x]].source
            else:
                down.append(into[y])
                y = arcs[into[y]].source
        cycle += reversed(down)
        long_cycles.append(cycle)
    cycles += long_cycles
    return cycles


@dataclass(frozen=True, slots=True)
class CycleClassCheck:
    cycle_index: int
    class_id: int
    op_class_id: int
    count: int
    op_count: int
    verdict: Verdict


CheckRow = tuple[int, int, int, int, Verdict]  # class, op_class, count, op_count, verdict


@dataclass(frozen=True, slots=True)
class CycleParityReport:
    """The cycle law on a cycle basis, one table of check rows per signature.

    signatures[k] holds the (class, op_class, count, op_count, verdict)
    rows of the k-th distinct colour multiset, and cycle_signatures[i] is
    the index of cycle i's signature.  checks spells the rows out per cycle.
    """

    graph_mode: str
    exact_partition: bool
    cycles: tuple[tuple[int, ...], ...]
    signatures: tuple[tuple[CheckRow, ...], ...]
    cycle_signatures: tuple[int, ...]
    verdict: Verdict

    @property
    def exploratory(self) -> bool:
        return self.graph_mode != "reduced"

    @property
    def checks(self) -> tuple[CycleClassCheck, ...]:
        """One check per cycle and class, in cycle order, then class order."""
        return tuple(
            CycleClassCheck(index, *row)
            for index, k in enumerate(self.cycle_signatures)
            for row in self.signatures[k]
        )


def _class_results(counts: Counter, op_ids: Sequence[int], exact: bool) -> tuple[CheckRow, ...]:
    """(class, op_class, count, op_count, verdict) per class of a closed walk.

    counts maps class ids to arc counts; op_ids[c] is the opposite of
    class c; exact is the partition's status.  A self-opposite class
    passes on an even count, any other on count == op_count with an even
    sum.
    """
    failed = Verdict.FAIL if exact else Verdict.INCONCLUSIVE
    results = []
    for class_id, op_id in enumerate(op_ids):
        count, op_count = counts[class_id], counts[op_id]
        if class_id == op_id:
            ok = count % 2 == 0
        else:
            ok = count == op_count and (count + op_count) % 2 == 0
        results.append((class_id, op_id, count, op_count, Verdict.PASS if ok else failed))
    return tuple(results)


def verify_parity(graph: BraidGraph, partition: PairClassPartition) -> CycleParityReport:
    """Check both conservation laws on every fundamental cycle.

    Arc colors are read from the graph (so deliberately corrupted colors
    are caught); the partition supplies the opposite-class involution and
    its exact/provisional status.  A failing check under a provisional
    partition is inconclusive rather than failing.  The checks depend only
    on a cycle's colour multiset, keyed as its sorted colours, and on the
    partition, so they are computed once per distinct signature and
    partition, and kept on the partition (its signature_rows) for the
    graphs checked after this one.
    """
    cycles = fundamental_cycles(graph)
    known = partition.signature_rows
    exact = partition.exact
    op_ids = [op_class(cls.index, partition) for cls in partition.classes]
    colors = [arc.color for arc in graph.arcs]
    index: dict[tuple[int, ...], int] = {}
    signatures: list[tuple[CheckRow, ...]] = []
    cycle_signatures = []
    for number, cycle in enumerate(cycles):
        # the report's tuples replace the lists one at a time, so the
        # cycles are never held twice over
        cycle = cycles[number] = tuple(cycle)
        if len(cycle) == 2:  # most cycles: a signature with no sort
            a, b = colors[cycle[0]], colors[cycle[1]]
            key = (a, b) if a <= b else (b, a)
        else:
            key = tuple(sorted([colors[i] for i in cycle]))
        k = index.get(key)
        if k is None:
            k = index[key] = len(signatures)
            rows = known.get(key)
            if rows is None:
                rows = known[key] = _class_results(Counter(key), op_ids, exact)
            signatures.append(rows)
        cycle_signatures.append(k)
    return CycleParityReport(
        graph_mode=graph.mode,
        exact_partition=exact,
        cycles=tuple(cycles),
        signatures=tuple(signatures),
        cycle_signatures=tuple(cycle_signatures),
        verdict=worst(row[-1] for rows in signatures for row in rows),
    )


def verify_arc_steps(graph: BraidGraph) -> tuple[Verdict, list[tuple[int, StepResult]]]:
    """verify_has_step on every arc, at the graph's own move positions.

    A position where the arc's words hold no braid window raises
    NotABraidStep, and a word that is not reduced raises ValueError.
    """
    matrix = graph.matrix
    words = [check_word(w, matrix) for w in graph.vertices]
    if not graph.arcs:
        return Verdict.PASS, []  # no vector is needed, so the closure is not tried
    ids = fixed_ids(matrix)
    invs = [inversion_ids(w, matrix) for w in words]
    vectors: dict[int, int] = {}
    conjugates: dict[int, list[int]] = {}  # q -> [q s q^-1 per generator s, -1 until walked]
    source, prefixes = -1, []  # the last source and the ids of its word's prefixes
    steps = []
    for a, b, pair, position, _ in graph.arcs:
        if a != source:
            source, prefixes = a, ids.prefixes(words[a])
        step = _arc_step(words, invs, vectors, a, b, pair, position, prefixes, conjugates, ids)
        steps.append(step)
    del invs, vectors, conjugates, prefixes  # so the numbered results never peak with them
    return worst(r.verdict for r in steps if r is not _PASS), list(enumerate(steps))
