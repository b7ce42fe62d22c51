"""Concrete group models used as independent oracles in tests.

Each model multiplies elements directly (permutations, signed permutations,
dihedral symmetries) and never touches the word machinery under test.
Lengths, descents and reduced-word counts are derived from a breadth-first
sweep of the weak order, so they stay independent of any braid-move code.

The closed-walk helpers are not models: they sample directed closed walks
of a braid graph, beyond its fundamental cycles, and judge each with the
cycle law's own class check.  reference_cycles keeps the fundamental-cycle
basis's former construction, a second BFS over an undirected adjacency
built from the arcs, as the reference for the basis read off the graph's
own discovery tree.

The conjugation-closure helpers at the end keep the closure's former
construction, a breadth-first search on Element products keyed by pairs
of canonical words, as the reference for the closure on element ids; and
closure_words reads that closure back as words.

reference_occurrence_ids and reference_braid_neighbors keep the former
implementations of the occurrence vector (a frozenset of id pairs, from a
partner lookup per pair of inversion-word entries) and of the braid moves
of a word (letters compared one by one against m(s, t)), as the
references for the bitset vector and the braid-window table.
"""

from collections import Counter
from functools import lru_cache

from coxlab.braid_graph import conjugate_pair_closure, finite_pairs, op_class
from coxlab.core import (
    DEFAULT_ELEMENT_CAP,
    INFINITY,
    ElementCapExceeded,
    alternating_word,
    closure_search_budget,
    conjugate,
    element_ids,
    generator_element,
    group_order,
    identity_element,
    multiply,
    sweep_ids,
)
from coxlab.verify import _class_results, worst


class ConcreteGroup:
    """A finite group given by explicit generator action.

    Subclasses provide ``identity``, ``gens`` (one concrete element per
    Coxeter generator, in matrix order) and ``compose``.
    """

    identity = None
    gens = ()

    def compose(self, x, y):
        raise NotImplementedError

    def word_to_element(self, word):
        out = self.identity
        for letter in word:
            out = self.compose(out, self.gens[letter])
        return out

    def elements_and_lengths(self):
        """BFS over right multiplication: element -> word length."""
        lengths = {self.identity: 0}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.gens:
                    y = self.compose(x, g)
                    if y not in lengths:
                        lengths[y] = lengths[x] + 1
                        nxt.append(y)
            frontier = nxt
        return lengths

    def length(self, x):
        return self.elements_and_lengths()[x]

    def right_descents(self, x):
        lengths = self.elements_and_lengths()
        lx = lengths[x]
        return [i for i, g in enumerate(self.gens)
                if lengths[self.compose(x, g)] < lx]

    def left_descents(self, x):
        lengths = self.elements_and_lengths()
        lx = lengths[x]
        return [i for i, g in enumerate(self.gens)
                if lengths[self.compose(g, x)] < lx]

    def reduced_word_count(self, x):
        """Weak-order dynamic program: #words = sum over right descents."""
        lengths = self.elements_and_lengths()
        memo = {self.identity: 1}

        def count(y):
            if y in memo:
                return memo[y]
            total = 0
            ly = lengths[y]
            for i, g in enumerate(self.gens):
                z = self.compose(y, g)
                if lengths[z] < ly:
                    total += count(z)
            memo[y] = total
            return total

        return count(x)

    def reduced_words(self, x):
        """All reduced words for x, by peeling left descents."""
        if x == self.identity:
            return [()]
        words = []
        for i in self.left_descents(x):
            for rest in self.reduced_words(self.compose(self.gens[i], x)):
                words.append((i,) + rest)
        return words

    def canonical_word(self, x):
        return min(self.reduced_words(x))

    def inverse(self, x):
        lengths = self.elements_and_lengths()
        for y in lengths:
            if self.compose(x, y) == self.identity:
                return y
        raise ValueError("no inverse found")

    def conjugate(self, q, x):
        return self.compose(self.compose(q, x), self.inverse(q))

    def product_order(self, x, y, cap=200):
        p = self.compose(x, y)
        acc = p
        for m in range(1, cap + 1):
            if acc == self.identity:
                return m
            acc = self.compose(acc, p)
        raise ValueError("order exceeds cap")


class SymmetricOracle(ConcreteGroup):
    """S_{n+1} with generator i = adjacent transposition (i+1, i+2).

    One-line notation tuples; (u o v)(i) = u(v(i)).
    """

    def __init__(self, rank):
        n = rank + 1
        self.n = n
        self.identity = tuple(range(1, n + 1))
        gens = []
        for i in range(rank):
            g = list(range(1, n + 1))
            g[i], g[i + 1] = g[i + 1], g[i]
            gens.append(tuple(g))
        self.gens = tuple(gens)
        self._lengths = None

    def compose(self, x, y):
        return tuple(x[y[i] - 1] for i in range(self.n))

    def elements_and_lengths(self):
        if self._lengths is None:
            self._lengths = super().elements_and_lengths()
        return self._lengths


class SignedOracle(ConcreteGroup):
    """Hyperoctahedral group of signed permutations of {1..n}.

    Elements are tuples (w(1),...,w(n)) with signs.  Generator 0 negates
    the first slot (under right action), generator i swaps slots i, i+1,
    matching the Coxeter matrix with m(0,1) = 4.
    """

    def __init__(self, rank):
        self.n = rank
        self.identity = tuple(range(1, rank + 1))
        gens = []
        g0 = [-1] + list(range(2, rank + 1))
        gens.append(tuple(g0))
        for i in range(1, rank):
            g = list(range(1, rank + 1))
            g[i - 1], g[i] = g[i], g[i - 1]
            gens.append(tuple(g))
        self.gens = tuple(gens)
        self._lengths = None

    def compose(self, x, y):
        def act(w, i):
            return w[i - 1] if i > 0 else -w[-i - 1]
        return tuple(act(x, y[i]) for i in range(self.n))

    def elements_and_lengths(self):
        if self._lengths is None:
            self._lengths = super().elements_and_lengths()
        return self._lengths


class DihedralOracle(ConcreteGroup):
    """Symmetries of a regular m-gon as pairs (rotation, flip).

    (k, e) means r^k f^e; s = f, t = r f, so st = r has order m.
    """

    def __init__(self, m):
        self.m = m
        self.identity = (0, 0)
        self.gens = ((0, 1), (1, 1))
        self._lengths = None

    def compose(self, x, y):
        k1, e1 = x
        k2, e2 = y
        k = (k1 - k2) % self.m if e1 else (k1 + k2) % self.m
        return (k, (e1 + e2) % 2)

    def elements_and_lengths(self):
        if self._lengths is None:
            self._lengths = super().elements_and_lengths()
        return self._lengths


@lru_cache(maxsize=None)
def symmetric_oracle(rank):
    return SymmetricOracle(rank)


@lru_cache(maxsize=None)
def signed_oracle(rank):
    return SignedOracle(rank)


@lru_cache(maxsize=None)
def dihedral_oracle(m):
    return DihedralOracle(m)


def perm_cycles(perm):
    """Cycle notation of a one-line permutation, for readable asserts."""
    seen = set()
    out = []
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = perm[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt - 1]
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return tuple(out)


def arc_lookup(graph):
    """(source, target) -> index of the first arc between them."""
    lookup = {}
    for i, arc in enumerate(graph.arcs):
        lookup.setdefault((arc.source, arc.target), i)
    return lookup


def reference_cycles(graph):
    """The fundamental cycles by a second BFS, as lists of arc indices.

    One 2-cycle per undirected edge (the paired forward/backward arcs)
    plus, for each non-tree edge of a BFS spanning tree, the long cycle it
    closes.  Traversing an arc backwards is realized by its paired reverse
    arc, which exists because braid moves are reversible.
    """
    lookup = arc_lookup(graph)
    edges = []
    seen = set()
    for arc in graph.arcs:
        key = (min(arc.source, arc.target), max(arc.source, arc.target))
        if key not in seen:
            seen.add(key)
            edges.append(key)

    n = len(graph.vertices)
    adjacency = {i: [] for i in range(n)}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)

    parent = {0: -1} if n else {}
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

    cycles = []
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


def random_closed_walk(graph, rng, max_steps=64):
    """A directed closed walk, as arc indices (never empty).

    Tries random walking back to the start; falls back to out-and-back
    over paired arcs, which is always a closed walk.
    """
    lookup = arc_lookup(graph)
    out = {i: [] for i in range(len(graph.vertices))}
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


def walk_parity_verdict(graph, walk, partition):
    """The worst cycle-law verdict over the classes of a closed walk."""
    op_ids = [op_class(cls.index, partition) for cls in partition.classes]
    counts = Counter(graph.arcs[i].color for i in walk)
    return worst(result[-1] for result in _class_results(counts, op_ids, partition.exact))


def reference_orbit(matrix, pair, radius, closed=0):
    """Conjugate a generator pair by generators, breadth first, on Elements.

    Maps every reached pair of reflections, as a pair of canonical words,
    to a witness Element q with (u, v) = q . pair . q^-1, in discovery
    order; the exact orbit (radius=None) raises ElementCapExceeded with
    the messages and caps of braid_graph._conjugation_orbit.  The exact
    orbit expects the Cayley table to be decided already.
    """
    length_guard = None
    if radius is None and not matrix._table:
        finite_bonds = [int(matrix.m(s, t)) for s, t in finite_pairs(matrix)]
        length_guard = max(24, max(finite_bonds, default=2) + 1)
        infinite = group_order(matrix) is None
        claim = "orbit looks infinite" if infinite else "orbit passed the length guard"
    gens = [generator_element(matrix, i) for i in range(matrix.rank)]
    identity = identity_element(matrix)
    su, sv = gens[pair[0]], gens[pair[1]]
    orbit = {(su.word, sv.word): identity}
    frontier = [(su, sv, identity)]
    depth = 0
    while frontier and (radius is None or depth < radius):
        nxt = []
        for u, v, witness in frontier:
            for g in gens:
                cu = conjugate(g, u)
                cv = conjugate(g, v)
                st = (cu.word, cv.word)
                if st in orbit:
                    continue
                if radius is None:
                    if closed + len(orbit) >= DEFAULT_ELEMENT_CAP:
                        raise ElementCapExceeded(
                            DEFAULT_ELEMENT_CAP, "conjugation closure exceeded element cap"
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


def reference_closure(matrix):
    """The exact closure on Elements: word pair -> (seed, witness, m).

    Seeds are scanned in lex order and the orbits run under the closure's
    search budget, as in braid_graph._conjugation_closure.
    """
    closure = {}
    with closure_search_budget(matrix):
        for seed in finite_pairs(matrix):
            if ((seed[0],), (seed[1],)) in closure:
                continue
            m = int(matrix.m(*seed))
            orbit = reference_orbit(matrix, seed, None, len(closure))
            closure.update((st, (seed, q, m)) for st, q in orbit.items())
    return closure


def closure_words(matrix):
    """The memoized exact closure as {(word u, word v): m}.

    partners[u][v] is the bit of (u, v), and pairs[bit] is (u, v, m).
    """
    partners = conjugate_pair_closure(matrix)
    ids = element_ids(matrix)
    words = ids.words
    return {
        (words[u], words[v]): ids.pairs[bit][2]
        for u, mine in partners.items()
        for v, bit in mine.items()
    }


def reference_occurrence_ids(inv, matrix):
    """The occurrence vector of inv.source as a frozenset of id pairs.

    The support: the closure pairs (u, v), u before v in inv, whose sweep
    is a subword of inv, found by looking up every later entry among u's
    closure partners.  inv must use ids taken after inversions.fixed_ids.
    """
    ids = element_ids(matrix)
    if len(ids.words[inv.end]) != len(inv.source):
        raise ValueError("occurrence_vector requires a reduced word")
    partners = conjugate_pair_closure(matrix)
    entries = inv.entries
    position = {x: i for i, x in enumerate(entries)}
    support = []
    for i, u in enumerate(entries):
        mine = partners.get(u)
        if mine is None:
            continue
        for j in range(i + 1, len(entries)):
            v = entries[j]
            bit = mine.get(v)
            if bit is None:
                continue
            middle = sweep_ids(ids, u, v, ids.pairs[bit][2])[1:-1]
            # the middle must sit between positions i and j, in sweep order
            last = i
            for x in middle:
                k = position.get(x)
                if k is None or k < last:
                    break
                last = k
            else:
                if last < j:
                    support.append((u, v))
    return frozenset(support)


def reference_braid_neighbors(word, matrix):
    """Yield (position, (s, t), result) for every braid move of a word."""
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
