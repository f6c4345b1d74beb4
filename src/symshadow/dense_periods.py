"""Certificates that every large period carries an epsilon-dense periodic point.

For a subshift X_A and epsilon = 2^-m in (0, 1), a period-n witness is an
admissible cyclic word of length n that contains every admissible m-word
as a cyclic factor.  Verdicts are exact: a certificate's N0 is the least
n >= 2 with a witness at every period n >= N0, and a refutation's
blocking_n is the least n >= 2 without one.

Cyclic n-words are the closed n-step walks of the (m-1)-block graph,
whose edges are the admissible m-words (the graph of A at m = 1).  For
m >= 2 a walk is dense iff it uses every edge, so by Euler's theorem the
dense periods are E + |x| for the integer flows x >= 0 that balance the
E edges; at m = 1 a walk is dense iff it visits every symbol.  A
non-primitive A is refuted before any search.  A dense walk passes every
node, so a shortest cycle (length c, the girth) splices into it, and the
least dense period in each residue class mod c fixes the class: with a
loop (c = 1) it is the directed Chinese postman length L* of a min-cost
flow x* (Edmonds & Johnson, Math. Programming 5, 1973), N0 = max(2, L*);
at c = 2 the other parity adds to x* a least odd cycle of its residual
graph, by a Dijkstra over (node, parity); for c >= 3 a search over (unmet
demand, residue) finds them; at m = 1 a breadth-first search over
(visited symbols, symbol, residue), exponential in the number of symbols
(n = #symbols asks for a Hamiltonian cycle).  MAX_BLOCK_NODES bounds the
block nodes and both exponential searches.  The verdict reads only the
sizes E + |x|, a flow's total or a search's least cost: the edges of a
witness (every edge once, x once more, and girth cycles to stretch it)
are counted out, from the flow or the least walks labelling a search's
path, only when it is read, and walked as a Hierholzer circuit, least
successor first; the block nodes, the (m-1)-words that spell it, are
listed only then too.  Exactly the primitive matrices are certified, by
the class period ``sft._cyclic_levels`` reads from A; a certificate's proof
is the girth cycle and each class's least witness, in ``sft.spell``'s letters.
The certificate at the length of a cylinder pair's ball word bounds the
pair's exact mixing time (:func:`mixing_thresholds`).
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterator, Sequence

from .sft import (PreconditionError, SymbolicCycle, TransitionMatrix, admissible_words,
                  restrict, return_time_set, spell, _bfs_distances, _cyclic_levels,
                  _least_walk, _merge_overlap, _step_layers)
from .sft import enumerate_cycles  # noqa: F401  bench/test_bench.py checks this binding
from .shiftspace import word_radius

MAX_BLOCK_NODES = 2048  # bound on block nodes, 2^#symbols at m = 1 and residue search states


class WitnessMap(Mapping):
    """Mapping n -> witness for n in [N0, n_max] (none without n_max), made on access."""

    def __init__(self, N0: int, n_max: int | None, build: Callable[[int], SymbolicCycle]):
        self._periods = range(N0, (n_max or 0) + 1)
        self.build = build  # makes the witness of any n >= least[n % girth]

    def __getitem__(self, n: int) -> SymbolicCycle:
        if n not in self._periods:
            raise KeyError(n)
        return self.build(n)

    def __iter__(self) -> Iterator[int]:
        return iter(self._periods)

    def __len__(self) -> int:
        return len(self._periods)


@dataclass
class DensePeriodsCertificate:
    epsilon: float
    word_length: int
    N0: int
    n_max: int | None
    witnesses: WitnessMap
    girth: int
    least: dict[int, int]  # r -> the least dense period n = r (mod girth)
    girth_cycle: Callable[[], tuple[int, ...]]  # a cycle of length girth, made on call
    component: tuple[int, ...] | None = None

    @cached_property
    def proof(self) -> dict:
        """The girth cycle and each class's least witness, spelled."""
        return {"girth": self.girth, "girth_cycle": spell(self.girth_cycle()),
                "classes": {str(r): str(self.witnesses.build(n))
                            for r, n in sorted(self.least.items())}}

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "m": self.word_length,
            "N0": self.N0,
            "n_max": self.n_max,
            "proof": self.proof,
            "witnesses": {str(n): str(w) for n, w in self.witnesses.items()},  # ascending n
        }


@dataclass
class DensePeriodsRefutation:
    epsilon: float
    blocking_n: int
    exhaustive: bool  # always true: every refutation is a proof
    reason: str = ""

    def to_json_dict(self) -> dict:
        return {"epsilon": self.epsilon, "blocking_n": self.blocking_n,
                "exhaustive": self.exhaustive}


# -- block graph and least dense walks --------------------------------------


class _BlockGraph:
    """Graph whose closed n-step walks spell the admissible cyclic n-words:
    nodes are the admissible (m-1)-words (symbols for m <= 2) in
    lexicographic order, with sorted successor lists."""

    def __init__(self, matrix: TransitionMatrix, m: int):
        self.matrix = matrix
        self.m = m
        k = max(m - 1, 1)
        # the admissible j-words ending at each symbol, j = 1, ..., k, counted until
        # past the bound: an essential A has no fewer (j+1)-words than j-words
        ends, j = [1] * matrix.size, 1
        while j < k and sum(ends) <= MAX_BLOCK_NODES:
            ends, j = [sum(ends[s] for s in pred) for pred in matrix.pred], j + 1
        if (count := sum(ends)) > MAX_BLOCK_NODES:
            raise PreconditionError(
                f"word length m = {m} needs at least {count} block nodes > {MAX_BLOCK_NODES}")
        self.succ, self.pred = matrix.succ, matrix.pred
        for _ in range(k - 1):  # the (j+1)-words are the edges of the j-word graph in
            # lexicographic order, and edge u -> v steps to the edges out of v
            first = list(accumulate(map(len, self.succ), initial=0))
            self.succ = [range(first[v], first[v + 1]) for out in self.succ for v in out]
        if k > 1:
            self.pred = [[] for _ in self.succ]
            for u, out in enumerate(self.succ):
                for v in out:
                    self.pred[v].append(u)

    @cached_property
    def nodes(self) -> list[tuple[int, ...]]:
        """The admissible k-words, listed on first read: only a witness reads them."""
        return admissible_words(self.matrix, max(self.m - 1, 1))

    def walk_edges(self, s: int, t: int, steps: int) -> list[tuple[int, int]]:
        """Edges of the least walk of exactly ``steps`` steps from s to t."""
        walk = [s] + _least_walk(self.succ, _step_layers(self.pred, t, steps), s, steps)
        return list(zip(walk, walk[1:]))

    def cycle_edges(self, s: int, steps: int) -> list[tuple[int, int]]:
        """Edges of the least closed walk of ``steps`` steps from the block
        node b starting the least cyclic word of that length at symbol s."""
        succ, pred, k = self.matrix.succ, self.matrix.pred, len(self.nodes[0])
        word = (s,) + tuple(_least_walk(succ, _step_layers(pred, s, steps), s, steps))
        b = self.nodes.index((word[:-1] * k)[:k])
        return self.walk_edges(b, b, steps)


def _least_costs(start, moves: Callable) -> dict:
    """Dijkstra: moves(state) yields (cost, next state, label); returns
    state -> (least cost from start, previous state, label of that move)."""
    best = {start: (0, None, None)}
    heap = [(0, start)]
    while heap:
        cost, state = heapq.heappop(heap)
        if cost > best[state][0]:
            continue
        for step, nxt, label in moves(state):
            if nxt not in best or cost + step < best[nxt][0]:
                best[nxt] = (cost + step, state, label)
                heapq.heappush(heap, (cost + step, nxt))
    return best


def _labels(best: dict, state) -> list:
    """Labels of the moves on the least path to ``state``, last move first."""
    out = []
    while best[state][1] is not None:
        out.append(best[state][2])
        state = best[state][1]
    return out


def _residue_graph(succ: Sequence[Sequence[int]], c: int) -> list[list[int]]:
    """The graph times Z/c: node v * c + r steps to w * c + r + 1 (mod c)."""
    return [[w * c + (r + 1) % c for w in out] for out in succ for r in range(c)]


def _cycle_walks(matrix: TransitionMatrix, c: int) -> list[tuple[int, int]]:
    """(d, s) per residue class mod c of the cycle lengths of A: d is the
    least length in the class, and s the least symbol with a closed d-step
    walk (its block node is found only for a witness, by
    :meth:`_BlockGraph.cycle_edges`)."""
    steps = _residue_graph(matrix.succ, c)
    best: list = [None] * c
    for s in range(matrix.size):
        dist = _bfs_distances(steps, steps[s * c])  # the first step out of s is taken
        for r, d in enumerate(dist[s * c:s * c + c]):
            if d >= 0 and (best[r] is None or d + 1 < best[r][0]):
                best[r] = (d + 1, s)
    return list(filter(None, best))


def _girth(matrix: TransitionMatrix) -> tuple[int, int]:
    """(c, s): the girth c of A and the least symbol s on a c-cycle, by
    scans for a loop A_ss = 1 and a 2-cycle A_st = A_ts = 1 before a search."""
    rows, succ = matrix.rows, matrix.succ
    for s in range(matrix.size):
        if rows[s][s]:
            return 1, s
    for s in range(matrix.size):
        if any(rows[t][s] for t in succ[s]):
            return 2, s
    [(c, s)] = _cycle_walks(matrix, 1)
    return c, s


def _postman_flow(graph: _BlockGraph, excess: list[int]
                  ) -> tuple[list[dict[int, int]], list[int]]:
    """Least integer flow x >= 0 on the (strongly connected) block edges
    sending excess[v] more units out of v than into it, as into[v][u] =
    x(u, v) > 0, and final potentials pot, under which every residual edge
    u -> v of cost +-1 has reduced cost +-1 + pot[u] - pot[v] >= 0:
    successive shortest paths from a super source (Dijkstra on reduced
    costs, popping in (dist, node) order), along each tree path to a
    deficit.  One predecessor array holds each tree node's (tail, forward)
    pair, None at the roots, and a path's amount is taken as it is traced.
    The tree does not depend on the order in which a node relaxes its
    edges: they reach distinct nodes, except an edge u -> w next to a
    backward edge u -> w, which costs 2 less."""
    succ, size = graph.succ, len(graph.succ)
    heappush, heappop = heapq.heappush, heapq.heappop
    excess, pot = list(excess), [0] * size
    into: list[dict[int, int]] = [{} for _ in range(size)]
    sources = [s for s, e in enumerate(excess) if e > 0]
    sinks = [t for t, e in enumerate(excess) if e < 0]
    unsent = sum(excess[s] for s in sources)
    while unsent:
        # the super source steps to each s with excess at cost -pot[s]
        dist, prev = [math.inf] * size, [None] * size
        heap = []
        for s in sources:
            if excess[s]:
                dist[s] = -pot[s]
                heap.append((-pot[s], s))
        heapq.heapify(heap)
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            base = d + pot[u]  # an edge u -> v costs base + 1 - pot[v] reduced
            for v in succ[u]:
                dv = base + 1 - pot[v]
                if dv < dist[v]:
                    dist[v], prev[v] = dv, (u, True)
                    heappush(heap, (dv, v))
            for w in into[u]:  # the residual backward edges u -> w
                dw = base - 1 - pot[w]
                if dw < dist[w]:
                    dist[w], prev[w] = dw, (u, False)
                    heappush(heap, (dw, w))
        pot = [p + d for p, d in zip(pot, dist)]  # tree edges now cost 0
        for t in sinks:
            if not excess[t]:
                continue
            path, s, amount = [], t, -excess[t]
            while prev[s]:
                u, forward = prev[s]
                if not forward:
                    amount = min(amount, into[u].get(s, 0))
                path.append((u, s, forward))
                s = u
            amount = min(amount, excess[s])
            if not amount:  # s is spent, or a backward edge on the path saturated
                continue
            for u, v, forward in path:
                if forward:
                    into[v][u] = into[v].get(u, 0) + amount
                elif into[u][v] > amount:
                    into[u][v] -= amount
                else:  # x(v, u) drops to 0
                    del into[u][v]
            excess[s] -= amount
            excess[t] += amount
            unsent -= amount
    return into, pot


def _odd_residual_cycle(graph: _BlockGraph, into: list[dict[int, int]], pot: list[int]
                        ) -> tuple[int, list[tuple[int, tuple[int, int], int]]]:
    """The least cost of an odd-length cycle in the residual graph of the
    flow and potentials of :func:`_postman_flow`, with a least odd closed
    walk of that cost as (tail, edge, +1 or -1) steps; the block graph of a
    primitive A has an odd cycle, and its edges are residual.  A Dijkstra
    over (node, parity), state 2 node + parity, on reduced costs runs from
    (s, even) through nodes >= s to (s, odd) for each s.  A closed walk's
    reduced cost is its cost, so an odd one costs an odd number >= 1, and a
    run stops where it cannot beat the best cost found by 2."""
    succ, size = graph.succ, len(graph.succ)
    best, found = math.inf, None
    for s in range(size):
        dist, prev, heap = {2 * s: 0}, {}, [(0, 2 * s)]
        while heap:
            d, state = heapq.heappop(heap)
            if d >= best - 1:
                break
            if state == 2 * s + 1:
                best, found = d, (prev, state)
                break
            if d > dist[state]:
                continue
            u, flip = state >> 1, (state & 1) ^ 1
            base = d + pot[u]
            for v in succ[u]:
                cost, key = base + 1 - pot[v], 2 * v + flip
                if v >= s and cost < dist.get(key, math.inf):
                    dist[key], prev[key] = cost, (state, 1)
                    heapq.heappush(heap, (cost, key))
            for w in into[u]:  # the residual backward edges u -> w
                cost, key = base - 1 - pot[w], 2 * w + flip
                if w >= s and cost < dist.get(key, math.inf):
                    dist[key], prev[key] = cost, (state, -1)
                    heapq.heappush(heap, (cost, key))
    prev, state, walk = *found, []
    while state in prev:
        before, sign = prev[state]
        u, v = before >> 1, state >> 1
        walk.append((u, (u, v) if sign > 0 else (v, u), sign))
        state = before
    return best, walk[::-1]


def _odd_simple_cycle(walk: list) -> list[tuple[tuple[int, int], int]]:
    """An odd simple cycle of the closed walk of :func:`_odd_residual_cycle`
    as (edge, +1 or -1): the loop the walk's first repeated node closes, or
    the whole walk if no node repeats.  That loop is odd: the walk is a
    Dijkstra path over (node, parity), so simple there, and each step flips
    the parity, so a node is a step's tail at most once per parity, and two
    visits of one node are an odd number of steps apart.  Added to the
    flow, a walk may take a backward edge more often than its flow; a simple
    cycle takes it once, and costs as much as the walk, since the rest of
    the walk, a closed walk too, costs >= 0 on reduced costs and the walk is
    least."""
    at = {}  # the index of the step out of each node
    for i, (u, _, _) in enumerate(walk):
        if u in at:
            walk = walk[at[u]:i]
            break
        at[u] = i
    return [(e, sign) for _, e, sign in walk]


def _residue_flows(graph: _BlockGraph, excess: list[int], c: int) -> tuple[dict, list]:
    """The least-cost table of a search for a least flow x as in
    :func:`_postman_flow` with |x| = r (mod c), and its end state per r.  A
    flow is a walk per unit plus closed walks, so the search over (unmet
    deficits, residue) sends the units in a fixed order, each along a least
    walk of some residue, and adds closed walks."""
    units = [v for v, e in enumerate(excess) for _ in range(e)]
    sinks = [v for v, e in enumerate(excess) if e < 0]
    if c * math.prod(1 - excess[t] for t in sinks) > MAX_BLOCK_NODES:
        raise PreconditionError(f"residue search over {len(sinks)} deficit nodes "
                                f"needs more than {MAX_BLOCK_NODES} states")
    steps = _residue_graph(graph.succ, c)
    reach = {s: _bfs_distances(steps, [s * c]) for s in set(units)}
    loops = [(d, s) for d, s in _cycle_walks(graph.matrix, c) if d % c]

    def moves(state):
        unmet, r = state
        for d, s in loops:  # a closed walk at symbol s's least cyclic d-word
            yield d, (unmet, (r + d) % c), (s, None, d)
        if any(unmet):
            s = units[len(units) - sum(unmet)]
            for j, t in enumerate(sinks):
                if unmet[j]:
                    left = unmet[:j] + (unmet[j] - 1,) + unmet[j + 1:]
                    for d in reach[s][t * c:t * c + c]:
                        if d >= 0:
                            yield d, (left, (r + d) % c), (s, t, d)

    best = _least_costs((tuple(-excess[t] for t in sinks), 0), moves)
    return best, [((0,) * len(sinks), r) for r in range(c)]


def _least_flows(graph: _BlockGraph, c: int) -> tuple[list, Callable[[int], Counter]]:
    """Per residue r mod c, the size |x| = r (mod c) of the flow x of a least
    dense closed walk of the block graph of a primitive A, and r -> the
    edges of x: the walk is every block edge once plus x at m >= 2, x at
    m = 1.  For c <= 2 these are the postman flow x* and, at c = 2, x* plus
    a least odd residual cycle: a least flow of the other class is x* plus
    conformal residual cycles of cost >= 0, and one of them is odd."""
    if graph.m == 1:  # least closed walks from node 0 through every node
        size = len(graph.succ)
        if 2 ** size > MAX_BLOCK_NODES:
            raise PreconditionError(f"m = 1 needs 2^{size} visited-symbol sets > {MAX_BLOCK_NODES}")
        # residue c is 0 but a state apart: a lone symbol's least walk is its loop
        best = _least_costs((1, 0, c), lambda state: (
            (1, (state[0] | 1 << v, v, (state[2] + 1) % c), (state[1], v, 1))
            for v in graph.succ[state[1]]))
        ends = [((1 << size) - 1, 0, r) for r in range(c)]
    else:
        excess = [len(into) - len(out) for into, out in zip(graph.pred, graph.succ)]
        if c > 2:
            best, ends = _residue_flows(graph, excess, c)
        else:
            into, pot = _postman_flow(graph, excess)
            total = sum(map(sum, map(dict.values, into)))
            sizes = [total] * c
            if c == 2:
                odd = _odd_residual_cycle(graph, into, pot)
                sizes[(total + 1) % 2] = total + odd[0]

            def flow(r: int) -> Counter:
                x = Counter({(u, v): k for v, xv in enumerate(into) for u, k in xv.items()})
                if r != total % c:
                    for e, sign in _odd_simple_cycle(odd[1]):
                        x[e] += sign
                return x

            return sizes, flow
    return [best[end][0] for end in ends], lambda r: Counter(
        e for s, t, d in _labels(best, ends[r])
        for e in (graph.walk_edges(s, t, d) if t is not None else graph.cycle_edges(s, d)))


def _euler_circuit(edges: Counter) -> list[int]:
    """Hierholzer's closed walk through every edge of a connected balanced
    multigraph, from node 0, least successor first (the final 0 left off)."""
    out: dict[int, list[int]] = {}
    for (u, v), k in sorted(edges.items(), reverse=True):
        out.setdefault(u, []).extend([v] * k)
    stack, circuit = [0], []
    while stack:
        if out.get(stack[-1]):
            stack.append(out[stack[-1]].pop())
        else:
            circuit.append(stack.pop())
    return circuit[:0:-1]


def dense_periods_certificate(matrix: TransitionMatrix, epsilon: float, n_max: int | None = None
                              ) -> DensePeriodsCertificate | DensePeriodsRefutation:
    """Exact verdict (see the module docstring); a certificate lists its
    witnesses for n in [N0, n_max], none without n_max, and builds each on
    access.  Raises ``ValueError`` unless 0 < epsilon < 1 and n_max is None
    or >= 2, and :class:`~symshadow.sft.PreconditionError` where the search would
    pass ``MAX_BLOCK_NODES`` (primitive A only).

    A non-primitive A is refuted before any search, by one of two proofs.
    If state 0 misses a symbol forward or backward, A is reducible: no
    closed walk visits every symbol, so 2 is excluded.  If A is irreducible
    of class period d > 1, every cycle length is a multiple of d, and a
    dense cycle visits every symbol, so it is as long as the alphabet at
    least: 2 is excluded, unless d = 2 and A has two symbols, so A is
    [[0, 1], [1, 0]], whose cycle 01 is dense at every m, and 3 is."""
    if n_max is not None and n_max < 2:
        raise ValueError("n_max must be at least 2")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1): at epsilon = 1 every cycle is dense")
    if not (d := _cyclic_levels(matrix)[0]):
        return DensePeriodsRefutation(epsilon, 2, True, reason=(
            "block graph not strongly connected: no closed walk covers every m-word"))
    if d > 1:
        n = 3 if d == 2 and matrix.size == 2 else 2
        return DensePeriodsRefutation(epsilon, n, True, reason=(
            f"dense cycle lengths miss a residue class mod {d}; {n} is the least excluded"))
    graph = _BlockGraph(matrix, word_radius(epsilon))
    c, s = _girth(matrix)
    E = sum(map(len, graph.succ)) if graph.m > 1 else 0
    sizes, flow = _least_flows(graph, c)
    least = {(E + x) % c: E + x for x in sizes}
    N0 = max(2, max(least.values()) - c + 1)
    tours: dict = {}  # r -> the edges of class r's least dense walk, and of a girth cycle

    def build(n: int) -> SymbolicCycle:
        r = n % c
        if r not in tours:  # at m >= 2 the walk takes each block edge once more than x
            ones = Counter((u, v) for u, out in enumerate(graph.succ) for v in out if E)
            tours[r] = ones + flow((r - E) % c), graph.cycle_edges(s, c)
        edges, stretch = tours[r]
        edges = edges.copy()
        for e in stretch:
            edges[e] += (n - least[r]) // c
        return SymbolicCycle.from_word(
            matrix, tuple(graph.nodes[v][0] for v in _euler_circuit(edges)))

    return DensePeriodsCertificate(
        epsilon=epsilon, word_length=graph.m, N0=N0, n_max=n_max,
        witnesses=WitnessMap(N0, n_max, build), girth=c, least=least,
        girth_cycle=lambda: tuple(graph.nodes[u][0] for u, _ in graph.cycle_edges(s, c)))


def homoclinic_restricted_certificate(matrix: TransitionMatrix, p: SymbolicCycle,
                                      epsilon: float, n_max: int | None = None
                                      ) -> DensePeriodsCertificate | DensePeriodsRefutation:
    """Certificate with every witness and proof word confined to the
    irreducible component of the cycle p (the symbolic stand-in for
    homoclinically related orbits: mutual reachability with the p-cycle)."""
    if not matrix.is_admissible_cycle(p.states):
        raise ValueError(f"cycle {p.states} not admissible")
    _, forward, backward = _cyclic_levels(matrix, p.states[0])
    sub, order = restrict(matrix, [s for s, f in enumerate(forward) if min(f, backward[s]) >= 0])
    result = dense_periods_certificate(sub, epsilon, n_max)
    if isinstance(result, DensePeriodsRefutation):
        return result

    def build(n: int) -> SymbolicCycle:
        # order is injective and maps each edge of sub to an edge of matrix
        w = result.witnesses.build(n)
        return SymbolicCycle(tuple(order[s] for s in w.states), w.period, w.primitive_period)

    return replace(result, witnesses=WitnessMap(result.N0, result.n_max, build), component=order,
                   girth_cycle=lambda: tuple(order[s] for s in result.girth_cycle()))


# -- mixing thresholds -----------------------------------------------------


@dataclass(frozen=True)
class MixingPairReport:
    u: tuple[int, ...]
    v: tuple[int, ...]
    first_hit: int
    ball_word: tuple[int, ...]
    threshold: int
    mixing_time: int


def mixing_thresholds(matrix: TransitionMatrix,
                      pairs: Sequence[tuple[Sequence[int], Sequence[int]]]
                      ) -> list[MixingPairReport]:
    """Per-pair mixing thresholds from dense-period witnesses, and the
    exact mixing times they bound.

    For a cylinder pair ([u], [v]) take the first hitting time n1 of [v]
    into [u] and the ball B = [W] inside [v] with sigma^n1(B) inside [u]
    (W superposes v at 0 and u at n1).  A period-(n + n1) point whose
    orbit visits every |W|-cylinder has an iterate z in B, and
    sigma^n(sigma^{n1} z) = z, so sigma^n([u]) meets [v].  The threshold
    is therefore the N0 of a certificate at word length |W|.  The mixing
    time, the least N with sigma^n([u]) meeting [v] for every n >= N, is
    read off :func:`return_time_set` up to H = size^2 + |u| + |v| + 1, the
    horizon of the first hit: A^k > 0 for every k > (size - 1)^2
    (Wielandt), so every n past (size - 1)^2 + |u| is a return time.  A
    matrix that is not mixing raises ``ValueError``.
    """
    reports = []
    for u_raw, v_raw in pairs:
        u = matrix.require_word(u_raw)
        v = matrix.require_word(v_raw)
        horizon = matrix.size * matrix.size + len(u) + len(v) + 1
        # an irreducible A returns to [u] within size + |v| steps; a reducible one raises
        n1 = min(return_time_set(matrix, v, u, horizon) - {0})
        ball = _ball_word(matrix, v, u, n1)
        fine = dense_periods_certificate(matrix, 2.0 ** (-len(ball)))
        if isinstance(fine, DensePeriodsRefutation):
            raise ValueError("internal fine certificate refuted; matrix not mixing")
        gaps = set(range(horizon + 1)) - return_time_set(matrix, u, v, horizon)
        reports.append(MixingPairReport(u=u, v=v, first_hit=n1, ball_word=ball,
                                        threshold=fine.N0, mixing_time=max(gaps, default=-1) + 1))
    return reports


def _ball_word(matrix: TransitionMatrix, v, u, n1: int) -> tuple[int, ...]:
    """Least admissible word carrying v at 0 and u at n1 (a cylinder ball
    inside [v] mapped into [u] by sigma^n1)."""
    if n1 <= len(v):
        merged = _merge_overlap(tuple(v), tuple(u), n1)
        if merged is None or not matrix.is_admissible_word(merged):
            raise ValueError("hitting time inconsistent with admissibility")
        return merged
    # fill the gap between the end of v and the start of u lexicographically:
    # the least walk of gap + 1 steps from v[-1] to u[0]
    steps = n1 - len(v) + 1
    walk = _least_walk(matrix.succ, _step_layers(matrix.pred, u[0], steps), v[-1], steps)
    if walk is None:
        raise ValueError("hitting time inconsistent with admissibility")
    return tuple(v) + tuple(walk) + tuple(u[1:])
