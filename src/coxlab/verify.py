"""Mechanical verification of the braid-move conservation laws.

Two levels are checked.  Per arc: crossing a braid move rewrites the
occurrence vector by exactly -(s', t') + (t', s'), where s', t' are the
conjugated generators of the move window.  Per cycle: for every color
class c and its opposite (the class of the swapped pair), a directed
cycle uses as many arcs of color c as of the opposite color, and an even
number in total.  Both statements are additive over the cycle space, so a
fundamental-cycle basis of the (bidirected) graph suffices; random closed
walks guard the reduction in the test suite.

Verdicts are three-valued: a failure that rests on a provisional class
partition or on a capped conjugation closure is reported as inconclusive,
never as a counterexample.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .braid_graph import (
    BraidGraph,
    GenPair,
    PairClassPartition,
    braid_moves,
    finite_pairs,
    op_class,
)
from .core import (
    CapExceededError,
    CoxeterMatrix,
    DEFAULT_ORDER_CAP,
    Element,
    INFINITY,
    Reflection,
    Word,
    alternating_word,
    check_word,
    conjugate,
    dihedral_reflection_word,
    dihedral_subgroup,
    generator_element,
    identity_element,
    inverse,
    multiply,
    order_of_product,
    reduce_word,
)
from .inversions import (
    ReflectionPair,
    inversion_word,
    occurrence_bit,
    occurrence_vector,
    subword_embedding_count,
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

    Scans positions left to right and takes the least window that matches.
    s', t' and the factor are read off a's inversion word, then
    cross-checked: the endpoints against q s q^-1 and q t q^-1, the factor
    against the sweep of (s', t') of order m(s, t), and b's inversion word
    against a's with the factor reversed.  Raises NotABraidStep when no
    window works and AssertionError when a cross-check fails.
    """
    wa = check_word(a, matrix)
    wb = check_word(b, matrix)
    s, t = pair
    if s == t or not 0 <= s < matrix.rank or not 0 <= t < matrix.rank:
        raise NotABraidStep(f"invalid generator pair {pair}")
    m = matrix.m(s, t)
    if m == INFINITY:
        raise NotABraidStep(f"pair {pair} has infinite order; no braid move exists")
    m = int(m)
    if len(wa) != len(wb):
        raise NotABraidStep("words have different lengths")
    window_a = alternating_word(s, t, m)
    window_b = alternating_word(t, s, m)
    position = None
    for p in range(len(wa) - m + 1):
        if (
            wa[p : p + m] == window_a
            and wb[p : p + m] == window_b
            and wa[:p] == wb[:p]
            and wa[p + m :] == wb[p + m :]
        ):
            position = p
            break
    if position is None:
        raise NotABraidStep(f"no ({s}, {t}) braid window between the words")

    q = reduce_word(wa[:position], matrix)
    inv_a = inversion_word(wa, matrix).entries
    inv_b = inversion_word(wb, matrix).entries
    factor = inv_a[position : position + m]
    s_prime, t_prime = factor[0], factor[-1]
    if (
        s_prime.element != conjugate(q, generator_element(matrix, s))
        or t_prime.element != conjugate(q, generator_element(matrix, t))
    ):
        raise AssertionError("factor endpoints disagree with conjugated generators")
    if factor != dihedral_reflection_word(s_prime, t_prime, cap=m).entries:
        raise AssertionError("certificate factor mismatch against inversion word")
    if inv_b != inv_a[:position] + factor[::-1] + inv_a[position + m :]:
        raise AssertionError("braid move did not reverse the inversion-word factor")
    return BraidStepCertificate(
        position=position, q=q, s_prime=s_prime, t_prime=t_prime, factor=factor
    )


@dataclass(frozen=True, slots=True)
class StepResult:
    verdict: Verdict
    details: str = ""


def verify_has_step(
    a: Sequence[int],
    b: Sequence[int],
    pair: GenPair,
    matrix: CoxeterMatrix,
) -> StepResult:
    """Check the occurrence-vector update across one braid move.

    Passes iff vector(b) = vector(a) - (s', t') + (t', s').  Raises
    NotABraidStep when the words do not differ by the stated move.  A
    failed certificate cross-check is a FAIL with details "certificate:
    <message>"; a conjugation closure that hits its cap downgrades the
    verdict to inconclusive.  Sweep orders come from the closure, so no
    order cap applies.
    """
    try:
        cert = find_braid_factor(a, b, pair, matrix)
    except AssertionError as exc:
        return StepResult(Verdict.FAIL, f"certificate: {exc}")
    try:
        vec_a = occurrence_vector(a, matrix)
        vec_b = occurrence_vector(b, matrix)
    except CapExceededError as exc:
        return StepResult(Verdict.INCONCLUSIVE, f"cap exceeded: {exc}")
    expected = vec_a.shifted(
        minus=ReflectionPair(cert.s_prime, cert.t_prime),
        plus=ReflectionPair(cert.t_prime, cert.s_prime),
    )
    if vec_b == expected:
        return StepResult(Verdict.PASS)
    delta = vec_b.difference(expected)
    return StepResult(Verdict.FAIL, f"vector mismatch on {len(delta)} pair(s)")


# ---------------------------------------------------------------------------
# cycle space


def _arc_lookup(graph: BraidGraph) -> dict[tuple[int, int], int]:
    lookup: dict[tuple[int, int], int] = {}
    for i, arc in enumerate(graph.arcs):
        lookup.setdefault((arc.source, arc.target), i)
    return lookup


def fundamental_cycles(graph: BraidGraph) -> list[list[int]]:
    """Basis of the directed cycle space, as lists of arc indices.

    One 2-cycle per undirected edge (the paired forward/backward arcs)
    plus, for each non-tree edge of a BFS spanning tree, the long cycle it
    closes.  Traversing an arc backwards is realized by its paired reverse
    arc, which exists because braid moves are reversible.
    """
    lookup = _arc_lookup(graph)
    edges: list[tuple[int, int]] = []
    seen = set()
    for arc in graph.arcs:
        key = (min(arc.source, arc.target), max(arc.source, arc.target))
        if key not in seen:
            seen.add(key)
            edges.append(key)

    n = len(graph.vertices)
    adjacency: dict[int, list[int]] = {i: [] for i in range(n)}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)

    parent: dict[int, int] = {0: -1} if n else {}
    depth = {0: 0} if n else {}
    order = [0] if n else []
    cursor = 0
    while cursor < len(order):
        u = order[cursor]
        for v in adjacency[u]:
            if v not in parent:
                parent[v] = u
                depth[v] = depth[u] + 1
                order.append(v)
        cursor += 1
    if len(parent) != n:
        raise ValueError("graph is not connected")

    tree_edges = {
        (min(u, parent[u]), max(u, parent[u])) for u in parent if parent[u] >= 0
    }

    cycles: list[list[int]] = []
    for u, v in edges:
        cycles.append([lookup[(u, v)], lookup[(v, u)]])
    for u, v in edges:
        if (u, v) in tree_edges:
            continue
        # tree path from v back to u
        up_v, up_u = [v], [u]
        x, y = v, u
        while depth[x] > depth[y]:
            x = parent[x]
            up_v.append(x)
        while depth[y] > depth[x]:
            y = parent[y]
            up_u.append(y)
        while x != y:
            x = parent[x]
            y = parent[y]
            up_v.append(x)
            up_u.append(y)
        path = up_v + up_u[:-1][::-1]  # v ... lca ... u
        cycle = [lookup[(u, v)]]
        for a, b in zip(path, path[1:]):
            cycle.append(lookup[(a, b)])
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


@dataclass(frozen=True, slots=True)
class CycleParityReport:
    graph_mode: str
    exact_partition: bool
    cycles: tuple[tuple[int, ...], ...]
    checks: tuple[CycleClassCheck, ...]
    verdict: Verdict

    @property
    def exploratory(self) -> bool:
        return self.graph_mode != "reduced"


def parity_ok(counts: Mapping[int, int], class_id: int, op_id: int) -> tuple[int, int, bool]:
    """Counts for one class/op pair plus the two-part parity condition."""
    count = counts.get(class_id, 0)
    op_count = counts.get(op_id, 0)
    if class_id == op_id:
        ok = count % 2 == 0
    else:
        ok = count == op_count and (count + op_count) % 2 == 0
    return count, op_count, ok


def _class_results(
    counts: Counter, op_ids: Sequence[int], exact: bool
) -> list[tuple[int, int, int, int, Verdict]]:
    """(class, op_class, count, op_count, verdict) per class of a closed walk.

    counts maps class ids to arc counts; op_ids[c] is the opposite of
    class c; exact is the partition's status.
    """
    failed = Verdict.FAIL if exact else Verdict.INCONCLUSIVE
    results = []
    for class_id, op_id in enumerate(op_ids):
        count, op_count, ok = parity_ok(counts, class_id, op_id)
        results.append((class_id, op_id, count, op_count, Verdict.PASS if ok else failed))
    return results


def verify_parity(graph: BraidGraph, partition: PairClassPartition) -> CycleParityReport:
    """Check both conservation laws on every fundamental cycle.

    Arc colors are read from the graph (so deliberately corrupted colors
    are caught); the partition supplies the opposite-class involution and
    its exact/provisional status.  A failing check under a provisional
    partition is inconclusive rather than failing.
    """
    cycles = fundamental_cycles(graph)
    exact = partition.exact
    op_ids = [op_class(cls.index, partition) for cls in partition.classes]
    checks: list[CycleClassCheck] = []
    for ci, cycle in enumerate(cycles):
        counts = Counter(graph.arcs[i].color for i in cycle)
        checks.extend(
            CycleClassCheck(ci, *result) for result in _class_results(counts, op_ids, exact)
        )
    return CycleParityReport(
        graph_mode=graph.mode,
        exact_partition=exact,
        cycles=tuple(tuple(c) for c in cycles),
        checks=tuple(checks),
        verdict=worst(c.verdict for c in checks),
    )


def verify_arc_steps(graph: BraidGraph) -> tuple[Verdict, list[tuple[int, StepResult]]]:
    """Run the per-arc occurrence-vector check on every arc of a graph."""
    results: list[tuple[int, StepResult]] = []
    for i, arc in enumerate(graph.arcs):
        res = verify_has_step(
            graph.vertices[arc.source],
            graph.vertices[arc.target],
            arc.pair,
            graph.matrix,
        )
        results.append((i, res))
    return worst(r.verdict for _, r in results), results


def random_closed_walk(
    graph: BraidGraph, rng: random.Random, max_steps: int = 64
) -> list[int]:
    """A directed closed walk, as arc indices (never empty).

    Tries random walking back to the start; falls back to out-and-back
    over paired arcs, which is always a closed walk.
    """
    lookup = _arc_lookup(graph)
    out: dict[int, list[int]] = {i: [] for i in range(len(graph.vertices))}
    for i, arc in enumerate(graph.arcs):
        out[arc.source].append(i)
    start = rng.randrange(len(graph.vertices))
    if out[start]:
        for _ in range(8):
            walk = []
            here = start
            for _ in range(max_steps):
                arc_id = rng.choice(out[here])
                walk.append(arc_id)
                here = graph.arcs[arc_id].target
                if here == start:
                    return walk
    if not out[start]:
        raise ValueError("start vertex has no outgoing arcs")
    forward = rng.choice(out[start])
    arc = graph.arcs[forward]
    return [forward, lookup[(arc.target, arc.source)]]


def walk_parity_verdict(
    graph: BraidGraph, walk: Sequence[int], partition: PairClassPartition
) -> Verdict:
    op_ids = [op_class(cls.index, partition) for cls in partition.classes]
    counts = Counter(graph.arcs[i].color for i in walk)
    return worst(result[-1] for result in _class_results(counts, op_ids, partition.exact))


# ---------------------------------------------------------------------------
# randomized property harness


@dataclass(frozen=True, slots=True)
class PropertyFailure:
    name: str
    witness: dict


@dataclass
class HarnessReport:
    matrix_rank: int
    samples: int
    seed: int
    checks: Counter = field(default_factory=Counter)
    failures: list[PropertyFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, name: str, ok: bool, witness: dict | None = None):
        self.checks[name] += 1
        if not ok:
            self.failures.append(PropertyFailure(name, witness or {}))


def _random_word(rng: random.Random, rank: int, max_len: int) -> Word:
    length = rng.randint(0, max_len)
    return tuple(rng.randrange(rank) for _ in range(length))


def _shrink_word(word: Word, fails) -> Word:
    """Greedy letter deletion while the failure persists."""
    current = word
    changed = True
    while changed:
        changed = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1 :]
            try:
                if fails(candidate):
                    current = candidate
                    changed = True
                    break
            except Exception:
                continue
    return current


def property_harness(
    matrix: CoxeterMatrix,
    samples: int = 1000,
    seed: int = 0,
    max_word_length: int | None = None,
    conjugator_length: int = 2,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> HarnessReport:
    """Seeded randomized suite for the sweep/inversion/occurrence laws.

    Runs, per sample: distinctness and coverage of dihedral sweeps, the
    reversal and conjugated-reversal identities, distinctness of
    inversion-word entries, the braid-factor certificate, the at-most-one
    embedding and mutual-exclusion subword properties, the conjugate-pair
    order law, and membership in two-generated subgroups: the elements
    (uv)^(g-1) u and (uv)^g u, recomputed by powering, must be the sweep
    entries g-1 and g mod m.
    Failures carry shrunk witnesses.  Zero failures is the expected
    outcome; anything else indicates an implementation bug.
    """
    rank = matrix.rank
    rng = random.Random(seed)
    report = HarnessReport(matrix_rank=rank, samples=samples, seed=seed)
    if max_word_length is None:
        max_word_length = min(10, 2 * rank + 2)
    pairs = finite_pairs(matrix)
    gens = [generator_element(matrix, i) for i in range(rank)]
    dihedral_cache: dict[GenPair, list[Element]] = {}

    for _ in range(samples):
        if rank == 0:
            break
        word = _random_word(rng, rank, max_word_length)
        element = reduce_word(word, matrix)
        reduced = element.word

        inv = inversion_word(reduced, matrix)
        distinct = len(set(inv.entries)) == len(inv.entries)
        if distinct:
            report.record("inversion_entries_distinct", True)
        else:
            bad = _shrink_word(
                reduced,
                lambda w: len(set(inversion_word(reduce_word(w, matrix).word, matrix).entries))
                < len(reduce_word(w, matrix).word),
            )
            report.record("inversion_entries_distinct", False, {"word": list(bad)})

        moves = braid_moves(reduced, matrix)
        if moves:
            position, pair, target = moves[rng.randrange(len(moves))]
            try:
                cert = find_braid_factor(reduced, target, pair, matrix)
                ok = cert.position == position
            except (NotABraidStep, AssertionError):
                ok = False
            report.record(
                "braid_factor_certificate",
                ok,
                None if ok else {"word": list(reduced), "pair": list(pair)},
            )

        if pairs:
            s, t = pairs[rng.randrange(len(pairs))]
            m = int(matrix.m(s, t))
            q = reduce_word(_random_word(rng, rank, conjugator_length), matrix)
            try:
                u = Reflection(conjugate(q, gens[s]))
                v = Reflection(conjugate(q, gens[t]))
                sweep = dihedral_reflection_word(u, v, cap=order_cap)
            except CapExceededError:
                sweep = None
            if sweep is not None:
                subgroup = dihedral_subgroup(u.element, v.element)
                reflections = {x for x in subgroup if x.length % 2 == 1}
                cover = {r.element for r in sweep.entries} == reflections
                distinct_entries = len(set(sweep.entries)) == len(sweep.entries)
                report.record(
                    "sweep_entries_distinct_cover",
                    cover and distinct_entries,
                    None
                    if cover and distinct_entries
                    else {"pair": [s, t], "q": list(q.word)},
                )
                rev = sweep.reversal()
                other = dihedral_reflection_word(v, u, cap=order_cap)
                report.record(
                    "sweep_reversal",
                    rev.entries == other.entries,
                    None
                    if rev.entries == other.entries
                    else {"pair": [s, t], "q": list(q.word)},
                )
                q2 = reduce_word(_random_word(rng, rank, conjugator_length), matrix)
                lhs = other.conjugated_by(q2)
                rhs = sweep.conjugated_by(q2)[::-1]
                report.record(
                    "sweep_conjugated_reversal",
                    lhs == rhs,
                    None if lhs == rhs else {"pair": [s, t], "q2": list(q2.word)},
                )

                # conjugate-pair order law: u', v' inside q D q^-1, pair
                # produced as a conjugate of a generator pair
                members = dihedral_cache.get((s, t))
                if members is None:
                    members = sorted(
                        dihedral_subgroup(gens[s], gens[t]), key=lambda e: e.word
                    )
                    dihedral_cache[(s, t)] = members
                d = members[rng.randrange(len(members))]
                x = multiply(q, d)
                if rng.random() < 0.5:
                    pu, pv = s, t
                else:
                    pu, pv = t, s
                cu = conjugate(x, gens[pu])
                cv = conjugate(x, gens[pv])
                try:
                    got = order_of_product(cu, cv, cap=order_cap)
                    ok = got == m
                except CapExceededError:
                    ok = False
                report.record(
                    "conjugate_pair_order",
                    ok,
                    None
                    if ok
                    else {"pair": [pu, pv], "x": list(x.word), "expected": m},
                )

                # sweep entry i is (uv)^i u and (uv)^m = e, so the powers
                # recomputed here must land on entries g-1 and g mod m
                g_pow = rng.randint(-2, 3)
                uv = multiply(u.element, v.element)
                p1 = multiply(_power(uv, g_pow - 1), u.element)
                p2 = multiply(_power(uv, g_pow), u.element)
                order = sweep.order
                ok = (
                    p1 == sweep.entries[(g_pow - 1) % order].element
                    and p2 == sweep.entries[g_pow % order].element
                )
                report.record(
                    "two_generated_subgroup_membership",
                    ok,
                    None if ok else {"pair": [s, t], "q": list(q.word), "power": g_pow},
                )

        if len(reduced) <= 10 and len(inv.entries) >= 2:
            entries = inv.entries
            indices = list(range(len(entries)))
            for _ in range(min(3, len(indices))):
                i, j = sorted(rng.sample(indices, 2))
                u, v = entries[i], entries[j]
                try:
                    sweep_uv = dihedral_reflection_word(u, v, cap=order_cap)
                except CapExceededError:
                    continue
                count = subword_embedding_count(sweep_uv, inv)
                report.record(
                    "subword_embedding_at_most_once",
                    count <= 1,
                    None if count <= 1 else {"word": list(reduced), "count": count},
                )
                bit_uv = occurrence_bit(ReflectionPair(u, v), inv, cap=order_cap)
                bit_vu = occurrence_bit(ReflectionPair(v, u), inv, cap=order_cap)
                report.record(
                    "opposite_subwords_exclusive",
                    not (bit_uv == 1 and bit_vu == 1),
                    None
                    if not (bit_uv == 1 and bit_vu == 1)
                    else {"word": list(reduced)},
                )
    return report


def _power(x: Element, exponent: int) -> Element:
    if exponent < 0:
        return _power(inverse(x), -exponent)
    acc = identity_element(x.matrix)
    for _ in range(exponent):
        acc = multiply(acc, x)
    return acc
