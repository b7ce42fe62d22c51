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

Each arc-law quantity is computed once, at the scope it depends on, for
one verify_arc_steps call: a vertex's inversion word and occurrence vector
once per vertex, the ids of a source vertex's prefixes once per source,
each q s q^-1 once per (q, s); the move position comes with the arc.

Verdicts are three-valued: a failure that rests on a provisional class
partition or on a capped conjugation closure is reported as inconclusive,
never as a counterexample.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
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


def _arc_law(
    words: Sequence[Sequence[int]],
    arcs: Sequence[Sequence],
    matrix: CoxeterMatrix,
) -> list[StepResult]:
    """verify_has_step on arcs between words: Arcs, or (source, target, pair, position).

    Runs on element ids.  Each word's inversion word and occurrence vector
    are built at most once, from that word alone, never by moving along an
    arc; the vectors are int bitsets (inversions.occurrence_ids).  A source
    word's prefixes are walked when its first arc comes up and kept until
    an arc from another source, so arcs listed by source, as a graph lists
    them, walk each source once; each q s q^-1 is walked once per (q, s)
    (_certificate).  These are dropped when the call returns; the
    candidate pairs, collected once per entry set, stay in the element
    store's one slot (ElementIds.candidates).  Only a failing arc reads
    its two vectors back as pairs, to count the mismatches.
    """
    words = [check_word(w, matrix) for w in words]
    if not arcs:
        return []  # no vector is needed, so the closure is not tried
    ids = fixed_ids(matrix)
    invs = [inversion_ids(w, matrix) for w in words]
    vectors = {}
    source, prefixes = -1, []  # the last source word and the ids of its prefixes
    conjugates = {}  # q -> [q s q^-1 for each generator s, -1 until walked]

    def arc_result(a: int, b: int, pair: GenPair, position: int) -> StepResult:
        nonlocal source, prefixes
        if a != source:
            source, prefixes = a, ids.prefixes(words[a])
        try:
            _, s_prime, t_prime, _ = _certificate(
                words[a], words[b], invs[a], invs[b], pair, position, prefixes, conjugates, ids
            )
        except AssertionError as exc:
            return StepResult(Verdict.FAIL, f"certificate: {exc}")
        try:
            for i in (a, b):
                if i not in vectors:
                    vectors[i] = occurrence_ids(invs[i], matrix)
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

    return [arc_result(*arc[:4]) for arc in arcs]


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
    differ.  A failed certificate cross-check is a
    FAIL with details "certificate: <message>"; a conjugation closure that
    hits its cap downgrades the verdict to inconclusive.  Sweep orders
    come from the closure, so no order cap applies.
    """
    return _arc_law((a, b), [(0, 1, pair, _move_position(a, b))], matrix)[0]


# ---------------------------------------------------------------------------
# cycle space


def fundamental_cycles(graph: BraidGraph) -> list[list[int]]:
    """Basis of the directed cycle space, as lists of arc indices.

    One 2-cycle per undirected edge (the paired forward/backward arcs)
    plus, for each non-tree edge of the BFS spanning tree, the long cycle it
    closes.  Traversing an arc backwards is realized by its paired reverse
    arc, which exists because braid moves are reversible.  The vertices
    must be numbered in BFS discovery order with the arcs listed by source,
    as reduced_graph, expression_graph and with_arc_color keep them: then
    the first arc u -> v with u < v is the one that discovered v, so one
    pass over the arcs reads off the tree the graph was built along.  So
    every tree parent has a smaller index than its child, and the walk to a
    non-tree edge's common ancestor steps up from whichever end has the
    larger index, which needs no depths.  There is at most one arc u -> v:
    a move's result first differs from its source at the move's position,
    and at most one move starts at a position.  A vertex v > 0 with no arc
    from an earlier vertex raises ValueError.
    """
    n = len(graph.vertices)
    lookup: dict[int, int] = {}  # the arc u -> v, keyed by u * n + v
    edges: list[tuple[int, int]] = []  # forward arcs u -> v, u < v
    parent = [-1] * n
    for i, arc in enumerate(graph.arcs):
        u, v = arc.source, arc.target
        lookup[u * n + v] = i
        if u < v:
            edges.append((u, v))
            if parent[v] < 0:
                parent[v] = u
    if -1 in parent[1:]:
        raise ValueError("graph is not connected")

    cycles = [[lookup[u * n + v], lookup[v * n + u]] for u, v in edges]
    for u, v in edges:
        if parent[v] == u:
            continue
        # the arcs from v up to the common ancestor, then down from it to u
        cycle = [lookup[u * n + v]]
        down = []
        x, y = v, u
        while x != y:
            if x > y:
                p = parent[x]
                cycle.append(lookup[x * n + p])
                x = p
            else:
                p = parent[y]
                down.append(lookup[p * n + y])
                y = p
        cycle += reversed(down)
        cycles.append(cycle)
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

    Each vertex's data is built once per call.  A position where the arc's
    words hold no braid window raises NotABraidStep.
    """
    results = list(enumerate(_arc_law(graph.vertices, graph.arcs, graph.matrix)))
    return worst(r.verdict for _, r in results if r is not _PASS), results
