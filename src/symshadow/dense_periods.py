"""Certificates that every large period carries an epsilon-dense periodic point.

For a subshift X_A and epsilon = 2^-m, a period-n witness is an
admissible cyclic word of length n whose bi-infinite repetition visits
every admissible m-cylinder, i.e. contains every admissible m-word as a
cyclic factor.  A certificate exhibits such a witness for every n in
[N0, n_max]; a refutation names a period n at which exhaustive search
(or an exact fixed-point count of zero) or a structural proof rules every
witness out.

Witness construction is splice-and-pad: walk the (m-1)-block graph along
a deterministic closed walk covering every m-word edge, then append a
return walk at the base block to stretch the cycle to the exact target
length.  Exhaustive search over Fix(sigma^n) is the fallback oracle for
periods the construction cannot reach.  The structural proof: for m >= 1
a block graph that is not strongly connected has no closed walk covering
every m-word, so no period has a witness.  ``exhaustive`` means the
exclusion is proven; a failure without proof is flagged inconclusive.

The return-time gaps of a primitive matrix die out, so exactly the
primitive matrices are certified; a certificate together with a first
hitting time yields per-cylinder-pair mixing thresholds (see
:func:`verify_mixing_from_certificate`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .sft import (SymbolicCycle, TransitionMatrix, count_periodic_points,
                  enumerate_cycles, is_primitive, restrict, return_time_set,
                  strongly_connected_component, _bfs_distances, _int_mat_pow,
                  _least_walk, _merge_overlap, _step_layers)
from .shiftspace import word_radius

EXHAUSTIVE_CAP = 4096
EXHAUSTIVE_BUDGET = 60_000  # total enumerated cycles per certificate call
PAD_VARIANTS = 8
MAX_BLOCK_NODES = 2048  # block graph size limit: its node list and n_max + 1 pad sets


class HorizonTooSmallError(ValueError):
    """n_max cannot fit a single covering cycle; no verdict possible."""


class BlockGraphTooLargeError(ValueError):
    """The scale epsilon = 2^-m needs more than MAX_BLOCK_NODES (m-1)-blocks."""


class CertificateTooCoarseError(ValueError):
    """A requested cylinder pair is finer than the certificate scale."""


class WitnessMap(Mapping):
    """Mapping n -> witness cycle for n in [N0, n_max].

    Witness words are deterministic but constructed on access: a
    certificate verdict over a long horizon does not pay for materializing
    every word (serialization and scans still can).
    """

    def __init__(self, N0: int, n_max: int, build: Callable[[int], SymbolicCycle],
                 cache: dict[int, SymbolicCycle]):
        self._N0 = N0
        self._n_max = n_max
        self._build = build
        self._cache = cache

    def __getitem__(self, n: int) -> SymbolicCycle:
        if not self._N0 <= n <= self._n_max:
            raise KeyError(n)
        if n not in self._cache:
            self._cache[n] = self._build(n)
        return self._cache[n]

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._N0, self._n_max + 1))

    def __len__(self) -> int:
        return self._n_max - self._N0 + 1


@dataclass
class DensePeriodsCertificate:
    epsilon: float
    word_length: int
    N0: int
    n_max: int
    witnesses: Mapping
    component: tuple[int, ...] | None = None

    def nonprimitive_periods(self) -> frozenset[int]:
        """Witnessed periods whose cycle is a repetition of a shorter one
        (still a fixed point of sigma^n, flagged rather than rejected)."""
        return frozenset(n for n, w in self.witnesses.items()
                         if w.primitive_period != n)

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "m": self.word_length,
            "N0": self.N0,
            "n_max": self.n_max,
            "witnesses": {str(n): "".join(map(str, w.states))
                          for n, w in sorted(self.witnesses.items())},
        }


@dataclass
class DensePeriodsRefutation:
    epsilon: float
    blocking_n: int
    exhaustive: bool
    n_max: int
    reason: str = ""

    def to_json_dict(self) -> dict:
        return {"epsilon": self.epsilon, "blocking_n": self.blocking_n,
                "exhaustive": self.exhaustive}


# -- density test ---------------------------------------------------------


def admissible_words(matrix: TransitionMatrix, length: int) -> list[tuple[int, ...]]:
    if length == 0:
        return [()]
    words = [(s,) for s in range(matrix.size)]
    for _ in range(length - 1):
        words = [w + (t,) for w in words for t in matrix.succ[w[-1]]]
    return words


def cyclic_factors(word: Sequence[int], length: int) -> set[tuple[int, ...]]:
    w = tuple(word)
    if length == 0:
        return {()}
    reps = -(-(length + len(w)) // len(w))
    tiled = w * reps
    return {tiled[i:i + length] for i in range(len(w))}


def is_dense_cycle(matrix: TransitionMatrix, word: Sequence[int], m: int) -> bool:
    """Does the cyclic word contain every admissible m-word as a factor?"""
    return set(admissible_words(matrix, m)) <= cyclic_factors(word, m)


# -- block graph and covering walk ---------------------------------------


class _BlockGraph:
    """Graph whose closed length-n walks are the admissible cyclic n-words:
    nodes are admissible (m-1)-words (symbols for m <= 1), and the walk
    must cover all nodes (m = 1) or all edges (m >= 2) to be dense."""

    def __init__(self, matrix: TransitionMatrix, m: int):
        self.matrix = matrix
        self.m = m
        if m <= 1:
            self.nodes = [(s,) for s in range(matrix.size)]
        else:
            # the admissible (m-1)-words are counted by the entries of A^(m-2)
            count = sum(map(sum, _int_mat_pow([list(r) for r in matrix.rows], m - 2)))
            if count > MAX_BLOCK_NODES:
                raise BlockGraphTooLargeError(
                    f"word length m = {m} needs {count} block nodes > {MAX_BLOCK_NODES}")
            self.nodes = admissible_words(matrix, m - 1)
        self.index = {v: i for i, v in enumerate(self.nodes)}
        self.succ: list[list[int]] = [[] for _ in self.nodes]
        self.pred: list[list[int]] = [[] for _ in self.nodes]
        for i, v in enumerate(self.nodes):
            for t in matrix.succ[v[-1]]:
                w = v[1:] + (t,) if m >= 2 else (t,)
                j = self.index.get(w)
                if j is not None:
                    self.succ[i].append(j)
                    self.pred[j].append(i)
        self.cover_edges = m >= 2

    def walk_to_word(self, walk: list[int]) -> tuple[int, ...]:
        """Closed walk (node indices, length n, base not repeated) to the
        cyclic word of length n."""
        return tuple(self.nodes[i][0] for i in walk)


def _covering_walk(graph: _BlockGraph) -> list[int] | None:
    """Deterministic closed walk from the lex-least node covering all
    required edges (m >= 2) or all nodes (m = 1); None when the graph is
    not strongly connected.  Returned as node sequence of length n (walk
    steps), base node implicit at both ends.  Greedy: the least shortest
    walk to the least node with an uncovered edge in the first exact-step
    layer that holds one, then that node's least uncovered edge."""
    succ, pred = graph.succ, graph.pred
    home = _bfs_distances(pred, [0])  # steps from each node back to the base
    if min(_bfs_distances(succ, [0])) < 0 or min(home) < 0:
        return None
    walk = [0]

    def go_to(target: int, steps: int) -> None:
        walk.extend(_least_walk(succ, _step_layers(pred, target, steps), walk[-1], steps))

    if graph.cover_edges:
        uncovered = [set(out) for out in succ]
        left = sum(map(len, uncovered))
        while left:
            layer, d, walked = {walk[-1]}, 0, len(walk)
            while not (hits := [u for u in layer if uncovered[u]]):
                layer, d = {v for u in layer for v in succ[u]}, d + 1
            u = min(hits)
            go_to(u, d)
            walk.append(min(uncovered[u]))
            for a, b in zip(walk[walked - 1:], walk[walked:]):
                left -= b in uncovered[a]
                uncovered[a].discard(b)
    else:
        for target in range(len(succ)):
            if target not in walk:
                go_to(target, _bfs_distances(succ, [walk[-1]])[target])
    go_to(0, home[walk[-1]])
    return walk[1:]  # length = number of steps; closed at base


# -- the engine -----------------------------------------------------------


@dataclass
class _Engine:
    matrix: TransitionMatrix
    epsilon: float
    n_max: int
    m: int = field(init=False)

    def __post_init__(self):
        self.m = word_radius(self.epsilon)
        self.graph = _BlockGraph(self.matrix, self.m)
        self.m_words = set(admissible_words(self.matrix, self.m))
        self.cover = _covering_walk(self.graph)
        # pads[t] = block nodes with a walk of exactly t steps to the base node 0,
        # so a closed walk at the base stretches the cover by any t with 0 in pads[t]
        self.pads = (_step_layers(self.graph.pred, 0, self.n_max)
                     if self.cover is not None else None)

    def constructive_witness(self, n: int) -> SymbolicCycle | None:
        if not self.constructive_possible(n):
            return None
        cycles = []
        for variant in range(PAD_VARIANTS):
            pad = _least_walk(self.graph.succ, self.pads, 0, n - len(self.cover), variant)
            cycles.append(SymbolicCycle.from_word(
                self.matrix, self.graph.walk_to_word(self.cover + pad)))
            if cycles[-1].primitive_period == n:
                return cycles[-1]
        return cycles[0]  # flagged by caller

    def exhaustive_witness(self, n: int, budget: list[int]
                           ) -> tuple[SymbolicCycle | None, bool]:
        """(witness or None, verdict_is_exhaustive); an exhausted budget or
        an over-cap period count yields a non-exhaustive None."""
        count = count_periodic_points(self.matrix, n)
        if count > EXHAUSTIVE_CAP or count > budget[0]:
            return None, False
        budget[0] -= count
        # at most count cycles, so the enumeration is never truncated
        dense = [c for c in enumerate_cycles(self.matrix, n).cycles
                 if self.m_words <= cyclic_factors(c.states, self.m)]
        primitive = (c for c in dense if c.primitive_period == n)
        return next(primitive, dense[0] if dense else None), True

    def constructive_possible(self, n: int) -> bool:
        return (self.cover is not None and len(self.cover) <= n <= self.n_max
                and 0 in self.pads[n - len(self.cover)])


def dense_periods_certificate(matrix: TransitionMatrix, epsilon: float, n_max: int
                              ) -> DensePeriodsCertificate | DensePeriodsRefutation:
    """Certify or refute that every period n in some window [N0, n_max]
    admits an epsilon-dense point of Fix(sigma^n).

    Periods are scanned over [2, n_max].  The certificate reports the
    smallest N0 found whose whole suffix [N0, n_max] is witnessed: the
    splice-and-pad construction settles most periods, and an exhaustive
    search (budgeted, deterministic) extends the suffix downward until a
    period genuinely fails or becomes too expensive to enumerate.  The
    suffix must contain at least two consecutive witnessed periods: dense
    cycles of coprime lengths force a primitive matrix, which in turn
    guarantees witnesses beyond the horizon, so a lone witnessed period at
    n_max is no certificate.  A refutation reports the smallest period
    excluded by proof: n = 2 at once when the block graph is not strongly
    connected (no period has a dense cycle), else the first period that
    exhaustive search excludes.  A primitive matrix without a witnessed
    suffix (for one, a covering cycle longer than n_max) raises
    :class:`HorizonTooSmallError` instead.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    eng = _Engine(matrix, epsilon, n_max)
    if eng.cover is None and eng.m >= 1:
        # every block node has an in- and an out-edge (A is essential), so no
        # closed walk covers them all; at m = 0 every cycle is dense
        return DensePeriodsRefutation(eng.epsilon, 2, True, n_max, reason=(
            "block graph not strongly connected: no closed walk covers every m-word"))
    if eng.cover is not None and len(eng.cover) > n_max and is_primitive(matrix):
        raise HorizonTooSmallError(
            f"covering cycle needs length {len(eng.cover)} > n_max = {n_max}")

    budget = [EXHAUSTIVE_BUDGET]
    cache: dict[int, SymbolicCycle] = {}
    n = n_max
    while n >= 2:
        if not eng.constructive_possible(n):  # else constructible on demand
            cyc, _ = eng.exhaustive_witness(n, budget)
            if cyc is None:
                break
            cache[n] = cyc
        n -= 1
    N0 = n + 1

    if N0 <= n_max - 1:
        def build(k: int, _eng=eng) -> SymbolicCycle:
            cyc = _eng.constructive_witness(k)
            if cyc is None:
                raise RuntimeError(f"witness for period {k} vanished; engine bug")
            return cyc
        return DensePeriodsCertificate(
            epsilon=eng.epsilon, word_length=eng.m, N0=N0, n_max=n_max,
            witnesses=WitnessMap(N0, n_max, build, cache))

    # no witnessed suffix: a primitive matrix has witnesses at every large
    # period, so only a longer horizon can show them
    if is_primitive(matrix):
        raise HorizonTooSmallError(
            f"no two consecutive witnessed periods up to n_max = {n_max}")

    # hunt for the smallest exhaustively excluded period
    budget = [EXHAUSTIVE_BUDGET]
    first_unknown = None
    for k in range(2, n_max + 1):
        cyc, exhaustive = eng.exhaustive_witness(k, budget)
        if cyc is None and exhaustive:
            return DensePeriodsRefutation(eng.epsilon, k, True, n_max,
                                          reason="exhaustive search found no dense cycle")
        if cyc is None and first_unknown is None:
            first_unknown = k
    return DensePeriodsRefutation(eng.epsilon, first_unknown or n_max, False, n_max,
                                  reason="no witnessed suffix and no exhaustive exclusion")


def homoclinic_restricted_certificate(matrix: TransitionMatrix, p: SymbolicCycle,
                                      epsilon: float, n_max: int
                                      ) -> DensePeriodsCertificate | DensePeriodsRefutation:
    """Certificate with every witness confined to the irreducible component
    of the cycle p (the symbolic stand-in for homoclinically related
    orbits: mutual reachability with the p-cycle)."""
    if not matrix.is_admissible_cycle(p.states):
        raise ValueError(f"cycle {p.states} not admissible")
    sub, order = restrict(matrix, strongly_connected_component(matrix, p.states[0]))
    result = dense_periods_certificate(sub, epsilon, n_max)
    if isinstance(result, DensePeriodsRefutation):
        return result

    def build(n: int) -> SymbolicCycle:
        w = result.witnesses[n]
        return SymbolicCycle.from_word(matrix, tuple(order[s] for s in w.states))

    return DensePeriodsCertificate(
        epsilon=result.epsilon, word_length=result.word_length, N0=result.N0,
        n_max=result.n_max, witnesses=WitnessMap(result.N0, result.n_max, build, {}),
        component=order)


# -- mixing verification --------------------------------------------------


@dataclass(frozen=True)
class MixingPairReport:
    u: tuple[int, ...]
    v: tuple[int, ...]
    first_hit: int
    ball_word: tuple[int, ...]
    threshold: int
    verified_all: bool
    misses: tuple[int, ...]


def verify_mixing_from_certificate(matrix: TransitionMatrix,
                                   cert: DensePeriodsCertificate,
                                   pairs: Sequence[tuple[Sequence[int], Sequence[int]]]
                                   ) -> list[MixingPairReport]:
    """Per-pair mixing thresholds from dense-period witnesses.

    For a cylinder pair ([u], [v]) take the first hitting time n1 of [v]
    into [u] and the ball B = [W] inside [v] with sigma^n1(B) inside [u]
    (W superposes v at 0 and u at n1).  A period-(n + n1) point whose
    orbit visits every |W|-cylinder has an iterate z in B, and
    sigma^n(sigma^{n1} z) = z, so sigma^n([u]) meets [v].  The threshold
    is therefore the N0 of an internal certificate at word length |W|;
    every n in [threshold, n_max] is additionally checked directly against
    the exact-step reachability layers of :func:`return_time_set` and any
    miss reported.  A reducible matrix raises ``ValueError``.
    """
    reports = []
    for u_raw, v_raw in pairs:
        u = matrix.require_word(u_raw)
        v = matrix.require_word(v_raw)
        if max(len(u), len(v)) > max(cert.word_length, 1):
            raise CertificateTooCoarseError(
                f"pair words longer than certificate scale m = {cert.word_length}")
        back = return_time_set(matrix, v, u, matrix.size * matrix.size + len(u) + len(v) + 1)
        n1 = min(back - {0}, default=None)
        if n1 is None:
            raise ValueError(f"no hitting time for pair {u}, {v}; matrix not mixing")
        ball = _ball_word(matrix, v, u, n1)
        fine = dense_periods_certificate(matrix, 2.0 ** (-len(ball)), cert.n_max)
        if isinstance(fine, DensePeriodsRefutation):
            raise ValueError("internal fine certificate refuted; matrix not mixing")
        threshold = fine.N0
        hits = return_time_set(matrix, u, v, cert.n_max)
        misses = tuple(n for n in range(threshold, cert.n_max + 1) if n not in hits)
        reports.append(MixingPairReport(u=u, v=v, first_hit=n1, ball_word=ball,
                                        threshold=threshold,
                                        verified_all=not misses, misses=misses))
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
