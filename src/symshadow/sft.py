"""Subshift-of-finite-type machinery over 0/1 transition matrices.

A transition matrix A on at most 64 symbols defines the two-sided shift
space X_A of bi-infinite admissible symbol sequences.  This module covers
the combinatorial layer: irreducibility, primitivity, the class period
(gcd of cycle lengths) and the cyclic class decomposition, exact periodic
point counts, cycle enumeration up to rotation, topological entropy via
the Perron root, return-time sets of cylinder pairs, and the graph core the
other modules walk on: admissible words, BFS levels and least walks, one
routine for reachability and class period, and the word codec :func:`spell`.
It also holds the package's failure types, one per CLI exit code:
``PreconditionError`` (exit 3), ``NumericalError`` (exit 4), and
``ReducibleMatrixError``, an invalid input (exit 2) that callers branch on.

All arithmetic on matrix powers is exact (Python integers); only the
Perron eigenvalue computation uses floating point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterable, Sequence

import numpy as np

MAX_SYMBOLS = 64
PERRON_TOL = 1e-13  # certified relative spread of the Collatz-Wielandt bracket
PERRON_FLOOR = 2.0 ** -52  # eig seed floor: its accuracy on a unit-norm vector
MAX_POWER_STEPS = 500_000
LETTERS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz{}"  # rising code points

Word = tuple[int, ...]


class PreconditionError(ValueError):
    """Valid input past a horizon or a cost bound: exit code 3."""


class NumericalError(RuntimeError):
    """A computation that missed its tolerance or broke its own bound: exit code 4."""


class ReducibleMatrixError(ValueError):
    """Operation requires an irreducible (strongly connected) matrix."""


class TransitionMatrix:
    """Square 0/1 matrix, essential: every row and every column has a one.

    Immutable by convention; rows are stored as tuples.  Non-essential
    input is rejected here rather than trimmed, so every downstream
    operation may assume each symbol occurs in some bi-infinite sequence.
    """

    __slots__ = ("size", "rows", "succ", "pred")

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(map(int, r)) for r in rows)
        n = len(rows)
        if n == 0 or set(map(len, rows)) != {n}:
            raise ValueError("transition matrix must be square and non-empty")
        if n > MAX_SYMBOLS:
            raise ValueError(f"at most {MAX_SYMBOLS} symbols supported, got {n}")
        if not set(chain.from_iterable(rows)) <= {0, 1}:
            raise ValueError("entries must be 0 or 1")
        self.size = n
        self.rows = rows
        symbols = range(n)
        self.succ = tuple([tuple(compress(symbols, r)) for r in rows])
        self.pred = tuple([tuple(compress(symbols, col)) for col in zip(*rows)])
        if not all(self.succ) or not all(self.pred):
            raise ValueError("non-essential matrix: every symbol needs an outgoing "
                             "and an incoming edge")

    def __eq__(self, other) -> bool:
        return isinstance(other, TransitionMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"TransitionMatrix({[list(r) for r in self.rows]})"

    # -- constructors -------------------------------------------------

    @classmethod
    def full_shift(cls, n: int) -> "TransitionMatrix":
        return cls([[1] * n for _ in range(n)])

    @classmethod
    def golden_mean(cls) -> "TransitionMatrix":
        """Forbid the factor 11 in the 2-shift."""
        return cls([[1, 1], [1, 0]])

    @classmethod
    def from_dict(cls, data: dict) -> "TransitionMatrix":
        """From {"rows": ..., "size": ...}; ``size`` is optional and checked."""
        if not isinstance(data, dict):
            raise ValueError(f'a transition matrix is an object {{"rows": ...}}, got {data!r}')
        rows = data["rows"]
        if not (isinstance(rows, list)
                and all(isinstance(r, list) and all(v in (0, 1) and not isinstance(v, bool)
                                                    for v in r) for r in rows)):
            raise ValueError(f"transition matrix rows must be lists of 0/1 entries, got {rows!r}")
        if "size" in data and (isinstance(data["size"], bool) or data["size"] != len(rows)):
            raise ValueError("declared size does not match rows")
        return cls(rows)

    # -- admissibility -------------------------------------------------

    def admits(self, i: int, j: int) -> bool:
        return bool(self.rows[i][j])

    def is_admissible_word(self, word: Sequence[int]) -> bool:
        if any(not (0 <= s < self.size) for s in word):
            return False
        return all(self.rows[word[i]][word[i + 1]] for i in range(len(word) - 1))

    def is_admissible_cycle(self, word: Sequence[int]) -> bool:
        if len(word) == 0:
            return False
        return self.is_admissible_word(word) and bool(self.rows[word[-1]][word[0]])

    def require_word(self, word: Sequence[int]) -> Word:
        word = tuple(int(s) for s in word)
        if not self.is_admissible_word(word):
            raise ValueError(f"inadmissible word {word}")
        return word


@dataclass(frozen=True)
class SymbolicCycle:
    """Admissible cyclic word; ``period`` is its length as written and
    ``primitive_period`` the smallest rotation period dividing it."""

    states: Word
    period: int
    primitive_period: int

    @classmethod
    def from_word(cls, matrix: TransitionMatrix, word: Sequence[int]) -> "SymbolicCycle":
        word = tuple(int(s) for s in word)
        if not matrix.is_admissible_cycle(word):
            raise ValueError(f"word {word} is not an admissible cycle")
        return cls(word, len(word), _primitive_period(word))

    def __str__(self) -> str:
        return spell(self.states)


@dataclass(frozen=True)
class CyclicDecomposition:
    """Partition of the symbols into ``class_period`` sets that the matrix
    permutes cyclically; the restriction of A^l to each set is primitive."""

    class_period: int
    classes: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class CycleEnumeration:
    cycles: tuple[SymbolicCycle, ...]


def admissible_words(matrix: TransitionMatrix, length: int) -> list[Word]:
    """Every admissible word of ``length`` symbols, in lexicographic order."""
    if length == 0:
        return [()]
    words = [(s,) for s in range(matrix.size)]
    for _ in range(length - 1):
        words = longer_words(words, matrix)
    return words


def longer_words(words: list[Word], matrix: TransitionMatrix) -> list[Word]:
    """The admissible words one symbol longer than ``words``, in lexicographic
    order, given every admissible word of one length >= 1 in that order."""
    return [w + (t,) for w in words for t in matrix.succ[w[-1]]]


def spell(word: Iterable[int]) -> str:
    """The text of ``word``, symbol s as ``LETTERS[s]``, so text order is word order."""
    return "".join(map(LETTERS.__getitem__, word))


def _primitive_period(word: Word) -> int:
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word == word[p:] + word[:p]:
            return p
    return n


def _unrepeated(cycle: Sequence[int]) -> Word:
    """``cycle`` as a word; ValueError if it repeats a shorter block."""
    if (p := _primitive_period(cycle := tuple(cycle))) < len(cycle):
        raise ValueError(f"cycle {spell(cycle)} repeats the block {spell(cycle[:p])}")
    return cycle


# -- graph walks on adjacency lists -----------------------------------
#
# ``adjacency[u]`` lists the nodes one step after u: a matrix's ``succ``,
# its ``pred`` to walk backwards, or the successor lists of a block graph.


def _bfs_distances(adjacency: Sequence[Sequence[int]], sources: Iterable[int]) -> list[int]:
    """Fewest steps from any of ``sources`` to each node; -1 where no walk
    arrives."""
    dist = [-1] * len(adjacency)
    frontier = []
    for s in sources:
        if dist[s] < 0:
            dist[s] = 0
            frontier.append(s)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def _step_layers(adjacency: Sequence[Sequence[int]], start: int, steps: int
                 ) -> list[set[int]]:
    """layers[t] = nodes at the end of a walk of exactly t steps from
    ``start``, for t in [0, steps]."""
    layers = [{start}]
    for _ in range(steps):
        layers.append({v for u in layers[-1] for v in adjacency[u]})
    return layers


def _least_walk(succ: Sequence[Sequence[int]], ending_layers: list[set[int]], start: int,
                steps: int) -> list[int] | None:
    """Least walk of exactly ``steps`` steps from ``start`` to the target
    whose backward ``_step_layers`` are ``ending_layers``, as the nodes
    after ``start``; None if there is none.  Each step takes the smallest
    successor that can still reach the target in the steps that remain."""
    if steps >= len(ending_layers) or start not in ending_layers[steps]:
        return None
    walk = []
    cur = start
    for r in range(steps - 1, -1, -1):
        cur = min(v for v in succ[cur] if v in ending_layers[r])
        walk.append(cur)
    return walk


def _next_walk(succ: Sequence[Sequence[int]], ending_layers: list[set[int]], start: int,
               walk: list[int]) -> list[int] | None:
    """Lexicographic successor of a ``_least_walk`` result among the walks of
    its length, or None: the latest step that has a larger successor still
    reaching the target takes the least such, and the rest is least."""
    for i in range(len(walk) - 1, -1, -1):
        left = len(walk) - 1 - i
        prev = walk[i - 1] if i else start
        v = next((v for v in succ[prev] if v > walk[i] and v in ending_layers[left]), None)
        if v is not None:
            return walk[:i] + [v] + _least_walk(succ, ending_layers, v, left)
    return None


# -- core predicates ---------------------------------------------------


def is_irreducible(matrix: TransitionMatrix) -> bool:
    """True iff every state reaches every state in >= 1 steps, i.e. state 0
    reaches every state and every state reaches state 0."""
    return _cyclic_levels(matrix)[0] > 0


def is_primitive(matrix: TransitionMatrix) -> bool:
    """True iff irreducible with class period 1, which holds iff some power
    of the matrix is entrywise positive (Lind & Marcus, Theorem 4.5.8)."""
    return _cyclic_levels(matrix)[0] == 1


def class_period(matrix: TransitionMatrix) -> int:
    """gcd of the lengths of all cycles (equivalently, all cycles through
    state 0) of an irreducible matrix."""
    return cyclic_decomposition(matrix).class_period


def _cyclic_levels(matrix: TransitionMatrix, start: int = 0) -> tuple[int, list[int], list[int]]:
    """Class period (0 if ``start`` misses a state either way: A is reducible) and the
    forward and backward BFS distances from ``start``, -1 where no walk arrives; the
    period is the gcd over edges u -> v of forward[u] + 1 - forward[v], read until 1."""
    forward = _bfs_distances(matrix.succ, [start])
    backward = _bfs_distances(matrix.pred, [start])
    g = 0
    for u in range(matrix.size) if -1 not in forward + backward else ():
        for v in matrix.succ[u]:
            if (g := math.gcd(g, forward[u] + 1 - forward[v])) == 1:
                return g, forward, backward
    return g, forward, backward


def cyclic_decomposition(matrix: TransitionMatrix) -> CyclicDecomposition:
    """Group states by path-length residue mod the class period.

    Class k collects the states at distance = k (mod l) from state 0, so
    the matrix maps class k into class k+1 mod l, and A^l restricted to
    each class is primitive.
    """
    l, dist, _ = _cyclic_levels(matrix)
    if not l:
        raise ReducibleMatrixError("class period undefined for reducible matrix")
    classes = tuple(frozenset(i for i in range(matrix.size) if dist[i] % l == k)
                    for k in range(l))
    return CyclicDecomposition(l, classes)


def count_periodic_points(matrix: TransitionMatrix, n: int) -> int:
    """trace(A^n) in exact integer arithmetic: the number of admissible
    cyclic words of length n (= fixed points of the n-th shift power)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    power = _int_mat_pow([list(r) for r in matrix.rows], n)
    return sum(power[i][i] for i in range(matrix.size))


def _int_mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def _int_mat_pow(a: list[list[int]], n: int) -> list[list[int]]:
    """a^n by left-to-right binary powering from a itself (no product with
    the identity, no square after the last bit)."""
    if n == 0:
        return [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    power = a
    for bit in bin(n)[3:]:
        power = _int_mat_mul(power, power)
        if bit == "1":
            power = _int_mat_mul(power, a)
    return power


def enumerate_cycles(matrix: TransitionMatrix, n: int) -> CycleEnumeration:
    """All admissible cyclic words of length exactly n, one representative
    per rotation class (the lexicographically least rotation), in
    lexicographic order: at most ``count_periodic_points(matrix, n)`` of them.

    Least rotations are generated as necklaces by the Fredricksen-Kessler-
    Maiorana rule (Ruskey, Savage & Wang, J. Algorithms 13, 1992): with p
    the prefix's Lyndon period, position pos takes s >= word[pos - p], and
    a full word is a necklace iff p divides n, p its primitive period.

    Deduplication is up to rotation only, not symbol relabeling: two
    rotations of one word are the same orbit, differently labeled words
    are not.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out: list[SymbolicCycle] = []
    word = [0] * n
    for first in range(matrix.size):
        # layers[t] = states with a path of exactly t edges to ``first``
        layers = _step_layers(matrix.pred, first, n)
        if first not in layers[n]:
            continue
        stack = [(0, first, 1)]  # (position, symbol, Lyndon period of the word through it)
        while stack:  # depth first, each position's symbols in rising order
            pos, s, p = stack.pop()
            word[pos] = s
            if (pos := pos + 1) == n:
                if n % p == 0 and matrix.rows[s][first]:
                    out.append(SymbolicCycle(tuple(word), n, p))
                continue
            # prune: t must keep the prefix a prenecklace, and from t there
            # must remain a path of exactly n - pos edges back to word[0]
            least, ahead = word[pos - p], layers[n - pos]
            stack += [(pos, t, p if t == least else pos + 1)
                      for t in reversed(matrix.succ[s]) if t >= least and t in ahead]
    return CycleEnumeration(tuple(out))


def perron_data(matrix: TransitionMatrix) -> tuple[float, list[float], list[float]]:
    """Perron root and right/left Perron vectors of an irreducible matrix.

    Each vector starts from numpy's eigenvector of B = A + I (primitive
    whenever A is irreducible) for its largest real eigenvalue, as |Re v|
    floored at ``PERRON_FLOOR``, and takes power steps on B until the
    Collatz-Wielandt bracket min_i (Bv)_i/v_i <= rho(B) <= max_i (Bv)_i/v_i
    is narrower than ``PERRON_TOL`` relative: one step for most matrices,
    more where eig loses small components (a dense core with a long return
    chain).  The +1 shift is removed; vectors are positive with unit sum.
    """
    if not is_irreducible(matrix):
        raise ReducibleMatrixError("Perron data requires an irreducible matrix")
    shifted = np.array(matrix.rows, dtype=float) + np.eye(matrix.size)

    def iterate(mat) -> tuple[float, list[float]]:
        values, vectors = np.linalg.eig(mat)
        v = np.maximum(np.abs(vectors[:, np.argmax(values.real)].real), PERRON_FLOOR)
        for _ in range(MAX_POWER_STEPS):
            w = mat @ v
            ratios = w / v
            lo, hi = float(ratios.min()), float(ratios.max())
            v = w / w.sum()
            if hi - lo <= PERRON_TOL * hi:
                return (lo + hi) / 2.0 - 1.0, [float(x) for x in v]
        raise NumericalError("power iteration did not converge")

    lam, right = iterate(shifted)
    lam_l, left = iterate(shifted.T)
    if abs(lam - lam_l) > 1e-9 * max(1.0, lam):
        raise NumericalError("left/right Perron eigenvalues disagree")
    return lam, right, left


def topological_entropy(matrix: TransitionMatrix) -> float:
    """log of the Perron root of an irreducible matrix, whose relative
    error is certified below ``PERRON_TOL``."""
    return math.log(perron_data(matrix)[0])


def return_time_set(matrix: TransitionMatrix, u: Sequence[int], v: Sequence[int],
                    horizon: int) -> set[int]:
    """All n in [0, horizon] such that the n-th shift image of the
    cylinder [u] meets [v].

    Concretely: there is an admissible pattern carrying u at positions
    [0, |u|) and v at positions [n, n+|v|).  Beyond the transient, the gaps
    in the returned set equal the class period.
    """
    if not is_irreducible(matrix):
        raise ReducibleMatrixError("return-time sets computed for irreducible matrices")
    u = matrix.require_word(u)
    v = matrix.require_word(v)
    hits = {n for n in range(min(len(u), horizon + 1))
            if (merged := _merge_overlap(u, v, n)) is not None
            and matrix.is_admissible_word(merged)}
    # beyond the overlaps: a path of n - |u| + 1 edges from u[-1] to v[0]
    layers = _step_layers(matrix.succ, u[-1], horizon - len(u) + 1)
    hits.update(n for n in range(len(u), horizon + 1) if v[0] in layers[n - len(u) + 1])
    return hits


def _merge_overlap(u: Word, v: Word, n: int) -> Word | None:
    """Superpose u at 0 and v at n (None fills a gap); None if they disagree."""
    length = max(len(u), n + len(v))
    out: list[int] = []
    for i in range(length):
        a = u[i] if i < len(u) else None
        b = v[i - n] if 0 <= i - n < len(v) else None
        if a is not None and b is not None and a != b:
            return None
        out.append(a if a is not None else b)  # type: ignore[arg-type]
    return tuple(out)


def restrict(matrix: TransitionMatrix, states: Iterable[int]
             ) -> tuple[TransitionMatrix, tuple[int, ...]]:
    """Submatrix on ``states``; returns it with the symbol translation
    table (new index -> original symbol)."""
    order = tuple(sorted(states))
    rows = [[matrix.rows[a][b] for b in order] for a in order]
    return TransitionMatrix(rows), order
