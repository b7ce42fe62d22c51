"""Randomized property suites: the `props` command and the helpers only it uses.

property_harness samples words and conjugators and checks the sweep,
inversion-word and occurrence laws.  Its products (multiply, conjugate)
walk the same element store (core.ElementIds) as the arc law; what is
independent is where the expectations come from: products, powers,
subgroup closure and a subword-counting dynamic program, rather than
sweep_ids or the occurrence-vector candidates (inversions._candidates).
The store itself is checked against brute-force oracles in the test
suite (tests/oracles.py).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .braid_graph import GenPair, braid_moves, finite_pairs
from .core import (
    CapExceededError,
    CoxeterMatrix,
    DEFAULT_ORDER_CAP,
    DihedralReflectionWord,
    Element,
    Reflection,
    Word,
    conjugate,
    dihedral_reflection_word,
    element_ids,
    generator_element,
    group_order,
    identity_element,
    inverse,
    multiply,
    reduce_word,
)
from .inversions import InversionWord, inversion_word
from .verify import NotABraidStep, find_braid_factor


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


def property_harness(matrix: CoxeterMatrix, samples: int = 1000, seed: int = 0) -> HarnessReport:
    """Seeded randomized suite for the sweep/inversion/occurrence laws.

    Runs, per sample: distinctness and coverage of dihedral sweeps, the
    reversal and conjugated-reversal identities, distinctness of
    inversion-word entries, the braid-factor certificate, the at-most-one
    embedding and mutual-exclusion subword properties, the conjugate-pair
    order law, and membership in two-generated subgroups: the elements
    (uv)^(g-1) u and (uv)^g u, recomputed by powering, must be the sweep
    entries g-1 and g mod m.
    Sampled words have at most min(10, 2 rank + 2) letters, conjugators q
    at most 2.  m(s, t) caps the sweeps and order law of q (s, t) q^-1;
    DEFAULT_ORDER_CAP caps only the subword properties, whose pairs need
    not be such conjugates.  In an infinite group a subword pair is
    skipped, as on the cap, once its sweep leaves the inversion word: it
    cannot embed there, and walking it to the cap may never end (uv can
    have infinite order).  Failures carry shrunk witnesses.  Zero failures
    is the expected outcome; anything else indicates an implementation bug.
    """
    rank = matrix.rank
    rng = random.Random(seed)
    report = HarnessReport(matrix_rank=rank, samples=samples, seed=seed)
    max_word_length = min(10, 2 * rank + 2)
    pairs = finite_pairs(matrix)
    infinite = group_order(matrix) is None
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
            q = reduce_word(_random_word(rng, rank, 2), matrix)
            u = Reflection(conjugate(q, gens[s]))
            v = Reflection(conjugate(q, gens[t]))
            sweep = dihedral_reflection_word(u, v, cap=m)
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
            other = dihedral_reflection_word(v, u, cap=m)
            report.record(
                "sweep_reversal",
                rev.entries == other.entries,
                None
                if rev.entries == other.entries
                else {"pair": [s, t], "q": list(q.word)},
            )
            q2 = reduce_word(_random_word(rng, rank, 2), matrix)
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
                got = order_of_product(cu, cv, cap=m)
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
                if infinite and _sweep_leaves(u, v, entries):
                    continue  # it cannot embed, and uv may have infinite order
                try:
                    sweep_uv = dihedral_reflection_word(u, v, cap=DEFAULT_ORDER_CAP)
                except CapExceededError:
                    continue
                count = subword_embedding_count(sweep_uv, inv)
                report.record(
                    "subword_embedding_at_most_once",
                    count <= 1,
                    None if count <= 1 else {"word": list(reduced), "count": count},
                )
                bit_uv = occurrence_bit(u, v, inv, cap=DEFAULT_ORDER_CAP)
                bit_vu = occurrence_bit(v, u, inv, cap=DEFAULT_ORDER_CAP)
                report.record(
                    "opposite_subwords_exclusive",
                    not (bit_uv == 1 and bit_vu == 1),
                    None
                    if not (bit_uv == 1 and bit_vu == 1)
                    else {"word": list(reduced)},
                )
    return report


def _sweep_leaves(u: Reflection, v: Reflection, entries: Sequence[Reflection]) -> bool:
    """Whether the sweep of (u, v) reaches a reflection outside entries.

    Walked one entry at a time, so it stops where uv has infinite order
    too: the sweep's entries are distinct and entries is finite.
    """
    ids = element_ids(u.matrix)
    inside = {ids.id_of(r.element.word) for r in entries}
    first = ids.id_of(u.element.word)
    step = v.element.word + u.element.word
    x = ids.walk(first, step)
    while x != first:
        if x not in inside:
            return True
        x = ids.walk(x, step)
    return False


def _power(x: Element, exponent: int) -> Element:
    if exponent < 0:
        return _power(inverse(x), -exponent)
    acc = identity_element(x.matrix)
    for _ in range(exponent):
        acc = multiply(acc, x)
    return acc


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
    return 1 if subword_embedding_count(sweep, inv_word) else 0


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
