"""Invariant measures, weak-* distances, and the periodic-to-Markov
approximation pipeline.

Measures come in three representations: finite-support (periodic
measures), Markov chains on a transition-matrix support (with an optional
state-to-symbol labeling, so measures living on a block presentation can
be integrated against cylinders of the ambient shift), and closed-form
references (Lebesgue on the torus, Bernoulli products).

Weak-* proximity is metrized at finite depth by a fixed weighted test
family: cylinder indicators up to a depth for shift spaces, Fourier modes
up to a frequency bound for the torus, with weights 2^-j in a canonical
deterministic order, cut where 2^-j underflows to 0.0.  All integrals are
exact sums or transfer-matrix products; no sampling.

The pipeline :func:`bernoulli_approximation` approximates a target
measure first by a periodic measure mu_p, then by the maximal-entropy
(Parry) measure of a small mixing subshift built from the homoclinic
splice of the cycle p: blocks {p-loop repeated m times, excursion word},
with an excursion never following an excursion, so that typical points
spend long stretches tracking the p-orbit.  As m grows the Parry measure
converges to mu_p monotonically at desk scale.  Each m is scored from the
renewal closed form of that Parry measure, primitive exactly when the block
lengths are coprime; only the best m builds its chain, in closed form from
the renewal root, cross-checked against the renewal masses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, groupby, islice, repeat
from operator import not_
from typing import Iterable, Iterator, Sequence

import numpy as np

from .homoclinic import encode_point
from .sft import (MAX_SYMBOLS, ConvergenceError, SymbolicCycle, TransitionMatrix,
                  _merge_overlap, _primitive_period, admissible_words, is_primitive,
                  longer_words, perron_data, spell)
from .shiftspace import ShiftPoint
from .systems import (_BLOCK_ENTRIES, _CHUNK_POINTS, SftSystem, ToralAutomorphism,
                      sft_homoclinic_splice)

STOCHASTIC_TOL = 1e-12
NORMALIZATION_TOL = 1e-14
BLOCK_REPS = 40  # "blocks xN" candidates of a finite-support shift target, N <= BLOCK_REPS
RENEWAL_TOL = 1e-12  # integrals of the winning block subshift chain vs its renewal masses
TWO_PI_I = 2j * math.pi
# observables a test family keeps: 2.0 ** -FAMILY_SIZE is the least positive float
# and 2.0 ** -(FAMILY_SIZE + 1) is 0.0
FAMILY_SIZE = 1074
# modes of a Fourier family whose weighted gaps bound a torus orbit's score from
# below: the weights fall as 2^-j, so the two heaviest carry 3/4 of the weight
HEAVY_MODES = 2
# the bound and the score each add a few thousand float terms w_j |t_j - I_j| <= 2 w_j,
# so for weights summing to <= 1 they part by < 1e-12: a bound past the least score U
# by this absolute slack is a score past it too
BOUND_SLACK = 1e-9


class BlockSubshiftTooLargeError(ValueError):
    """Every primitive block subshift of a Bernoulli scan has more than
    ``MAX_SYMBOLS`` letter states."""


# -- observables ----------------------------------------------------------


@dataclass(frozen=True)
class CylinderObservable:
    """Indicator of the cylinder fixing ``word`` at positions 0..len-1."""

    word: tuple[int, ...]

    def __str__(self) -> str:
        return f"[{spell(self.word)}]"


@dataclass(frozen=True)
class FourierMode:
    """x -> exp(2 pi i k.x) on the 2-torus."""

    k: tuple[int, int]

    def __str__(self) -> str:
        return f"e({self.k[0]},{self.k[1]})"


@dataclass(frozen=True)
class TestFamily:
    """Ordered observables with weights 2^-j; the weighted sum of integral
    discrepancies is the weak-* distance at this depth."""

    observables: tuple
    weights: tuple[float, ...]
    description: str

    def __len__(self) -> int:
        return len(self.observables)

    def cycle_integrals(self, matrix: TransitionMatrix, cycles: Sequence[tuple]) -> np.ndarray:
        """``_cyclic_word_integrals`` of the (text, word, n) listing ``cycles`` of
        ``matrix.primitive_cycles``, computed once per (matrix, number of listed
        cycles) and kept, read-only, for the family's lifetime: the listing is a
        prefix of one list per matrix, so its length names it."""
        kept = self.__dict__.setdefault("_cycle_integrals", {})
        key = (matrix, len(cycles))
        if key not in kept:
            table = _cyclic_word_integrals([w[:n] for _, w, n in cycles], self)
            table.flags.writeable = False
            kept[key] = table
        return kept[key]


def _weighed(observables: Iterable, description: str) -> TestFamily:
    """The first ``FAMILY_SIZE`` observables, the j-th weighted 2^-j: every
    later weight is 0.0, so a later observable cannot move a distance."""
    obs = tuple(islice(observables, FAMILY_SIZE))
    return TestFamily(obs, tuple(2.0 ** -(j + 1) for j in range(len(obs))), description)


def cylinder_family(matrix: TransitionMatrix, depth: int) -> TestFamily:
    """Admissible words of length 1..depth, ordered by length then
    lexicographically, listed one length at a time up to ``FAMILY_SIZE``."""
    # each length extended from the one before, as far as the family reads
    lengths = accumulate(repeat(matrix), longer_words, initial=admissible_words(matrix, 1))
    words = chain.from_iterable(islice(lengths, depth))
    return _weighed(map(CylinderObservable, words), f"cylinders depth {depth}")


def fourier_family(max_frequency: int) -> TestFamily:
    """Fourier modes with 0 < |k|_inf <= max_frequency, one representative
    per conjugate pair +-k (real measures give conjugate integrals), in
    order of increasing |k|^2 then lexicographic, up to ``FAMILY_SIZE``:
    those have |k|^2 <= 685, so a box of |k|_inf <= 32 holds them."""
    box = min(max_frequency, 32)
    ks = sorted(((k1, k2) for k1 in range(box + 1) for k2 in range(-box, box + 1)
                 if k1 > 0 or k2 > 0), key=lambda k: (k[0] * k[0] + k[1] * k[1], k[0], k[1]))
    return _weighed(map(FourierMode, ks), f"fourier modes |k| <= {max_frequency}")


# -- measures -------------------------------------------------------------


class _Measure:
    """A measure's integrals against a test family, computed once per family
    and kept; each entry holds its family, so the family's id stays a
    unique key."""

    def integrals(self, family: TestFamily) -> list:
        cache = self.__dict__.setdefault("_integrals", {})
        if id(family) not in cache:
            cache[id(family)] = (family, self._compute_integrals(family))
        return cache[id(family)][1]

    def _compute_integrals(self, family: TestFamily) -> list:
        return [self.integrate(obs) for obs in family.observables]


class FiniteSupportMeasure(_Measure):
    """Atoms (point, weight) with positive weights summing to one: shift
    points, integrated against cylinders, or torus points, against Fourier
    modes."""

    def __init__(self, atoms: Sequence[tuple]):
        atoms = [(p, w) for p, w in atoms]
        # written so that NaN, for which every comparison is false, fails both
        if not atoms or not all(w > 0 for _, w in atoms):
            raise ValueError("atoms must be non-empty with positive weights")
        self._weights = [float(w) for _, w in atoms]
        total = math.fsum(self._weights)
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(f"weights sum to {total}, not 1")
        self.atoms = atoms

    def integrate(self, obs) -> complex | float:
        return self._compute_integrals(TestFamily((obs,), (1.0,), str(obs)))[0]

    def _compute_integrals(self, family: TestFamily) -> list:
        """Sums over the atoms in atom order, with the float weights of the
        normalization check and each coordinate converted to float once.
        Shift-point atoms integrate cylinders: the weights of the atoms
        whose window at the family's depth starts with the word.  Torus
        atoms integrate Fourier modes: w e(k.x), with the phase k.x taken
        in float."""
        weights = self._weights
        shift = [isinstance(p, ShiftPoint) for p, _ in self.atoms]
        if all(shift):
            fits = CylinderObservable
            depth = max((len(o.word) for o in family.observables if isinstance(o, fits)),
                        default=0)
            cylinders: dict = {}
            for (p, _), w in zip(self.atoms, weights):
                window = p.window(0, depth)
                for length in range(depth + 1):
                    cylinders.setdefault(window[:length], []).append(w)

            def integral(obs):
                return sum(cylinders.get(obs.word, ()))
        else:
            fits = () if any(shift) else FourierMode
            coordinates = [(float(p[0]), float(p[1]), w)
                           for (p, _), w in zip(self.atoms, weights)]

            def integral(obs):
                k0, k1 = obs.k
                return sum(w * cmath.exp(TWO_PI_I * (x * k0 + y * k1))
                           for x, y, w in coordinates)
        for obs in family.observables:
            if not isinstance(obs, fits):
                raise TypeError(f"{obs!r} does not fit the atoms of this measure")
        return [integral(obs) for obs in family.observables]

    def to_json_dict(self) -> dict:
        return {"atoms": [{"point": encode_point(p, 8), "weight": float(w)}
                          for p, w in self.atoms]}


def periodic_measure(orbit_points: Sequence) -> FiniteSupportMeasure:
    """Uniform weights 1/period on the points of a periodic orbit."""
    pts = list(orbit_points)
    w = Fraction(1, len(pts))
    return FiniteSupportMeasure([(p, w) for p in pts])


def cycle_measure(matrix: TransitionMatrix, word: Sequence[int]) -> FiniteSupportMeasure:
    """Periodic measure of the shift orbit of an admissible cyclic word."""
    cyc = SymbolicCycle.from_word(matrix, word)
    return periodic_measure(ShiftPoint.cycle_orbit(cyc.states[:cyc.primitive_period]))


class MarkovMeasure(_Measure):
    """Stationary Markov chain on the states of a transition-matrix
    support; ``labels`` maps states to output symbols when the chain is a
    block presentation of a subshift (identity when omitted)."""

    def __init__(self, support: TransitionMatrix, P: Sequence[Sequence[float]],
                 pi: Sequence[float], labels: Sequence[int] | None = None):
        n = support.size
        self.support = support
        self.P = tuple(tuple(map(float, row)) for row in P)
        self.pi = tuple(float(x) for x in pi)
        self.labels = tuple(labels) if labels is not None else tuple(range(n))
        if len(self.P) != n or len(self.pi) != n or len(self.labels) != n:
            raise ValueError("dimension mismatch")
        for i, row in enumerate(self.P):
            if not abs(sum(row) - 1.0) <= STOCHASTIC_TOL:  # NaN fails it too
                raise ValueError(f"row {i} not stochastic")
            # every entry off the support is zero, so sums over the support's
            # edges below add what sums over the whole row add
            if any(compress(row, map(not_, support.rows[i]))):
                raise ValueError("transition off the support")
            if any(row[j] < 0 for j in support.succ[i]):
                raise ValueError("negative transition probability")
        if not all(p > 0 for p in self.pi) or not abs(sum(self.pi) - 1.0) <= 1e-12:
            raise ValueError("stationary vector must be positive, sum 1")
        drift = max(abs(sum(self.pi[i] * self.P[i][j] for i in pred) - self.pi[j])
                    for j, pred in enumerate(support.pred))
        if not drift <= 1e-10:
            raise ValueError(f"pi not stationary (drift {drift:.2e})")

    def cylinder_mass(self, word: Sequence) -> float:
        """Transfer product over label-compatible state paths; a None
        symbol after the first matches every state, and the empty word
        every path.  Only support predecessors enter each step's sum."""
        word = tuple(word)
        if not word:
            return sum(self.pi)
        n, pred = self.support.size, self.support.pred
        vec = [self.pi[s] if self.labels[s] == word[0] else 0.0 for s in range(n)]
        for sym in word[1:]:
            vec = [sum(vec[i] * self.P[i][j] for i in pred[j])
                   if sym is None or self.labels[j] == sym else 0.0 for j in range(n)]
        return sum(vec)

    def joint_mass(self, u: Sequence[int], v: Sequence[int], lag: int) -> float:
        """Mass of {x carries u at 0 and v at lag}."""
        merged = _merge_overlap(tuple(u), tuple(v), lag)
        return 0.0 if merged is None else self.cylinder_mass(merged)

    def integrate(self, obs) -> float:
        if isinstance(obs, CylinderObservable):
            return self.cylinder_mass(obs.word)
        raise TypeError(f"Markov measures integrate cylinder observables, not {obs!r}")

    def entropy(self) -> float:
        h = 0.0
        for i, (row, succ) in enumerate(zip(self.P, self.support.succ)):
            for j in succ:
                if row[j] > 0:
                    h -= self.pi[i] * row[j] * math.log(row[j])
        return h

    def to_json_dict(self) -> dict:
        return {"P": [list(r) for r in self.P], "pi": list(self.pi),
                "support": {"rows": [list(r) for r in self.support.rows]},
                "labels": list(self.labels)}


class LebesgueTorus(_Measure):
    """Normalized Lebesgue measure on the 2-torus (closed-form integrals)."""

    def integrate(self, obs):
        if isinstance(obs, FourierMode):
            return 0.0 if obs.k != (0, 0) else 1.0
        raise TypeError(f"Lebesgue integrates Fourier modes, not {obs!r}")


class BernoulliProduct(_Measure):
    """Product measure on the full shift with per-symbol probabilities."""

    def __init__(self, probabilities: Sequence[float]):
        p = tuple(float(x) for x in probabilities)
        # written so that NaN, for which every comparison is false, fails both
        if not all(x > 0 for x in p) or not abs(sum(p) - 1.0) <= 1e-12:
            raise ValueError("probabilities must be positive and sum to 1")
        self.p = p

    def integrate(self, obs):
        if isinstance(obs, CylinderObservable):
            mass = 1.0
            for s in obs.word:
                mass *= self.p[s]
            return mass
        raise TypeError(f"Bernoulli products integrate cylinders, not {obs!r}")


def weak_star_distance(mu, nu, family: TestFamily) -> float:
    """sum_j 2^-j |int phi_j d mu - int phi_j d nu|, read off the integral
    vectors each measure keeps per family."""
    return _weighted_gap(family.weights, mu.integrals(family), nu.integrals(family))


def _weighted_gap(weights: Sequence[float], xs: Sequence, ys: Sequence) -> float:
    total = 0.0
    for w, a, b in zip(weights, xs, ys):
        total += w * abs(a - b)
    return total


# -- maximal-entropy (Parry) measure --------------------------------------


def parry_measure(matrix: TransitionMatrix, labels: Sequence[int] | None = None
                  ) -> MarkovMeasure:
    """The maximal-entropy Markov measure of a primitive subshift (Parry,
    Trans. AMS 112, 1964): P_ij = A_ij v_j / (lambda v_i) and pi_i =
    u_i v_i / sum_k u_k v_k for the certified Perron root lambda and the
    right/left Perron vectors v, u.  Its chain entropy equals log lambda."""
    if not is_primitive(matrix):
        raise ValueError("Parry measure requires a primitive (mixing) support")
    lam, v, u = perron_data(matrix)
    P = [[0.0] * matrix.size for _ in range(matrix.size)]  # filled on the edges only
    for i, succ in enumerate(matrix.succ):
        row = [v[j] / (lam * v[i]) for j in succ]
        total = sum(row)  # normalize rows exactly to kill the last float drift
        for j, x in zip(succ, row):
            P[i][j] = x / total
    uv = [a * b for a, b in zip(u, v)]
    total = sum(uv)
    pi = [x / total for x in uv]
    measure = MarkovMeasure(matrix, P, pi, labels)
    h = measure.entropy()
    if abs(h - math.log(lam)) > 1e-10:
        raise ValueError(f"Parry entropy {h} drifted from log Perron {math.log(lam)}")
    return measure


def correlation(measure: MarkovMeasure, phi: CylinderObservable,
                psi: CylinderObservable, n: int) -> float:
    """int phi.(psi o sigma^n) d mu  -  int phi d mu . int psi d mu."""
    joint = measure.joint_mass(phi.word, psi.word, n)
    return joint - measure.cylinder_mass(phi.word) * measure.cylinder_mass(psi.word)


# -- periodic approximation ------------------------------------------------


@dataclass
class ApproximationResult:
    measure: object
    distance: float
    within_epsilon: bool
    description: str


def _orbit_cycles_of_target(target: FiniteSupportMeasure) -> list[tuple[tuple[int, ...], float]]:
    """Decompose a finite-support shift measure into periodic orbits:
    [(cycle word read off its first atom, total weight)]; [] unless every
    atom is a periodic shift point."""
    orbits: dict[tuple[int, ...], list] = {}
    for p, w in target.atoms:
        period = p.period() if isinstance(p, ShiftPoint) else None
        if period is None:
            return []
        word = p.window(0, period)
        rotation_class = min(word[i:] + word[:i] for i in range(period))
        orbits.setdefault(rotation_class, [word, 0.0])[1] += float(w)
    return [(word, weight) for word, weight in orbits.values()]


def _block_words(matrix: TransitionMatrix, parts: list[tuple[tuple[int, ...], float]]
                 ) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(N, word) for N <= BLOCK_REPS: each part's cycle c of weight w repeated
    its rounded share of N among the shares w / |c|, in order, where that is
    an admissible cyclic word.  A cycle repeated k times fills k |c| symbols,
    so these shares give each cycle its weight's share of the word's time.
    Once each cycle is an admissible word only the joins can fail: between
    parts, back to the first, and inside a cycle repeated more than once."""
    shares = [w / len(c) for c, w in parts]
    total, rows, cycles = sum(shares), matrix.rows, [c for c, _ in parts]
    joins = all(map(matrix.is_admissible_word, cycles)) and all(
        rows[a[-1]][b[0]] for a, b in zip(cycles, cycles[1:] + cycles[:1]))
    for reps in range(1, BLOCK_REPS + 1) if total > 0 and joins else ():
        counts = [max(1, round(reps * (s / total))) for s in shares]
        if all(k == 1 or rows[c[-1]][c[0]] for c, k in zip(cycles, counts)):
            yield reps, sum((c * k for c, k in zip(cycles, counts)), ())


def _cyclic_word_integrals(words: Sequence[tuple[int, ...]], family: TestFamily
                           ) -> np.ndarray:
    """(observables x words) table of each cylinder's integral under the cycle
    measure of each primitive cyclic word of length n: it adds 1 / n, the
    measure's float weight, once per rotation whose window starts with the
    cylinder, so the entry for c such rotations is sum([1 / n] * c).  The
    rotations of all words walk a trie of the family's words together.  The
    table does not depend on any target."""
    if not all(isinstance(obs, CylinderObservable) for obs in family.observables):
        raise TypeError("cyclic words integrate cylinder observables only")
    if not words:
        return np.zeros((len(family), 0))
    node = {w: i for i, w in enumerate(dict.fromkeys(
        [()] + [o.word[:k] for o in family.observables for k in range(1, len(o.word) + 1)]))}
    n = np.array([len(w) for w in words])
    flat = np.fromiter(chain.from_iterable(words), int, n.sum())
    # child[v, s] is the node of v + (s,); node len(node) holds the windows off the trie
    child = np.full((len(node) + 1, 1 + max([flat.max(), *chain.from_iterable(node)])), len(node))
    for w in list(node)[1:]:
        child[node[w[:-1]], w[-1]] = node[w]
    owner, first = np.repeat(np.arange(len(n)), n), np.repeat(n.cumsum() - n, n)
    rotation, at = np.arange(n.sum()) - first, np.zeros_like(owner)
    counts = np.zeros(len(n) * len(child), dtype=int)
    for k in range(max(map(len, node)) + 1):  # one bincount per window length k
        counts += np.bincount(owner * len(child) + at, minlength=len(counts))
        at = child[at, flat[first + (rotation + k) % n[owner]]]
    counts = counts.reshape(len(n), -1)[:, [node[o.word] for o in family.observables]]
    table = np.zeros((n.max() + 1, n.max() + 1))  # table[n, c] = sum([1 / n] * c)
    for m in set(n.tolist()):
        table[m, :m + 1] = _atom_sums(m)
    return table[n, counts.T]


def _gaps(target, family: TestFamily, integrals: np.ndarray) -> np.ndarray:
    """The weighted gaps of the target to each column of an (observables x
    candidates) integral table, added one observable at a time in the float
    operations of weak_star_distance, so each is that distance bit for bit."""
    total = np.zeros(integrals.shape[1])
    for weight, a, b in zip(family.weights, target.integrals(family), integrals):
        total += weight * np.abs(a - b)
    return total


def _atom_sums(n: int) -> list[float]:
    """sum([1 / n] * c) for c = 0..n, the integral of a cylinder that c of an n-point
    orbit's atoms enter, as the running sums of 1 / n: sum adds floats in order, so
    these are its additions, n in all rather than n^2 / 2."""
    return list(accumulate(repeat(1 / n, n), initial=0.0))


def rational_orbit_distances(target, system: ToralAutomorphism, family: TestFamily,
                             max_period: int, max_denominator: int,
                             bounded: bool = False) -> Iterator[tuple]:
    """((i, j, q), period, d) for the orbits of ``system.rational_orbit_spans``:
    all of them, or with ``bounded`` those whose score d can be the least score
    d* of the horizon.  The scan reads the integer form of the walk
    (``rational_orbit_spans``: read-only arrays, kept on the system for a horizon
    of max_denominator <= 146, so a later scan of it does not walk again), and
    each orbit's start (i, j) and period are read off its span.  d is the
    weak-* distance from the target up to rounding: (u/q, v/q) has e(k.x) =
    zeta_q^r, r = (k0 u + k1 v) mod q, so an n-point orbit integrates to
    sum_r c_r zeta_q^r / n over its residue counts c_r, counted for a block of a
    q's orbits at once: at most ``_BLOCK_ENTRIES`` residues and counts, or one
    orbit that needs more; a score reads its own orbit's counts only, so
    blocking, and which orbits share a block, keeps its bits.
    Real parts sum (c_r + c_{q-r}) cos and imaginary parts (c_r - c_{q-r}) sin,
    halved, so an orbit and its mirror under x -> -x get bit-identical |integral|s.

    ``bounded`` scans bound the orbits first, a group of lattices at a time: every
    term of a score is >= 0, so the terms of its ``HEAVY_MODES`` heaviest modes are a
    lower bound b on it (``_heavy_mode_bounds``).  The orbit of least b is scored; the
    least such score U so far is >= d*, and an orbit with b > U + ``BOUND_SLACK``
    scores above d*, so it is dropped unscored.  The survivors are scored as above,
    so each yielded d keeps the bits it has in the full listing."""
    if not all(isinstance(obs, FourierMode) for obs in family.observables):
        raise TypeError("torus orbits integrate Fourier modes only")
    modes = np.array([obs.k for obs in family.observables], dtype=int).reshape(-1, 2).T
    width, weights = modes.shape[1], np.array(family.weights)
    target_integrals = np.array(target.integrals(family), dtype=complex)

    def scores(q, points, lengths):
        bounds = np.append(0, np.cumsum(lengths))
        step = max(1, _BLOCK_ENTRIES // ((max_period + q) * width))  # orbits per block
        reflect, zeta = -np.arange(q) % q, np.exp(2j * np.pi * np.arange(q) / q)
        for lo in range(0, len(lengths), step):
            hi = min(lo + step, len(lengths))
            owner = np.repeat(np.arange(hi - lo), lengths[lo:hi])
            cells = (owner[:, None] * width + np.arange(width)) * q
            counts = np.bincount((cells + points[bounds[lo]:bounds[hi]] @ modes % q).ravel(),
                                 minlength=(hi - lo) * width * q)
            counts = counts.reshape(hi - lo, width, q).astype(float)
            mirror = counts[..., reflect]
            integrals = (np.einsum("...r,r", counts + mirror, zeta.real)
                         + 1j * np.einsum("...r,r", counts - mirror, zeta.imag)
                         ) / counts.sum(-1) / 2
            yield from (weights * np.abs(target_integrals - integrals)).sum(-1).tolist()

    def survivors(spans):
        least = math.inf  # the least score so far of a group's orbit of least bound
        # a group's q hold about one walk chunk of lattice points (sum q^2 ~ q^3 / 3)
        chunk = lambda span: span[0] ** 3 // 3 // _CHUNK_POINTS
        for group in (list(group) for _, group in groupby(spans, key=chunk)):
            bound = _heavy_mode_bounds(target, family, group)
            k = bound.argmin()
            for q, points, lengths in group:  # the orbit of least bound, k-th of its q
                if k < len(lengths):
                    break
                k -= len(lengths)
            start = lengths[:k].sum()
            orbit = points[start:start + lengths[k]]
            least = min(least, next(scores(q, orbit, lengths[k:k + 1])))
            keep = bound <= least + BOUND_SLACK
            for q, points, lengths in group:
                kept, keep = keep[:len(lengths)], keep[len(lengths):]
                if kept.any():
                    yield q, points[np.repeat(kept, lengths)], lengths[kept]

    spans = system.rational_orbit_spans(max_period, max_denominator)
    for q, points, lengths in survivors(spans) if bounded else spans:
        starts = points[lengths.cumsum() - lengths].tolist()
        yield from (((i, j, q), n, d) for (i, j), n, d
                    in zip(starts, lengths.tolist(), scores(q, points, lengths)))


def _heavy_mode_bounds(target, family: TestFamily, spans: Sequence[tuple]) -> np.ndarray:
    """sum_j w_j |t_j - I_j| over the ``HEAVY_MODES`` heaviest modes j of the family
    for each orbit of the (q, points, lengths) spans, a lower bound on its score
    up to rounding: I_j is the mean of cos + i sin of 2 pi r / q over the orbit's
    points (u, v), r = k_j.(u, v) mod q, for all orbits at once.  cos and sin are
    taken once per span's q and r < q, 2 pi r / q as a point's angle is, and read
    at each point's residue, so the sums are those of the per-point values."""
    weights = np.array(family.weights)
    heavy = np.argsort(-weights, kind="stable")[:HEAVY_MODES]
    modes = np.array([family.observables[j].k for j in heavy], dtype=int).reshape(-1, 2).T
    lengths = np.concatenate([lengths for _, _, lengths in spans])
    qs, repeat = [q for q, _, _ in spans], [len(points) for _, points, _ in spans]
    angles = np.concatenate([2 * np.pi * np.arange(q) / q for q in qs])
    base = np.repeat(np.cumsum(qs) - qs, repeat)[:, None]  # a point's q's first angle
    residues = np.concatenate([points for _, points, _ in spans]) @ modes
    residues = residues % np.repeat(qs, repeat)[:, None] + base
    first = lengths.cumsum() - lengths
    integrals = (np.add.reduceat(np.cos(angles)[residues], first)
                 + 1j * np.add.reduceat(np.sin(angles)[residues], first)) / lengths[:, None]
    return np.abs(np.array(target.integrals(family))[heavy] - integrals) @ weights[heavy]


def _shift_scan(target, matrix: TransitionMatrix, family: TestFamily, max_period: int
                ) -> tuple[list, np.ndarray, list[int]]:
    """The (text, word, n) candidates, scores and periods n of a shift scan: the
    primitive cycles, listed once per matrix, whose integrals are kept per family
    (``TestFamily.cycle_integrals``), and the "blocks xN" words giving each
    cycle of a finite-support target its share of the target's time, so their
    cylinder frequencies come near the target's, each on its cyclic word.
    The scores are the weak-* distances bit for bit."""
    cycles = matrix.primitive_cycles(max_period)
    blocks = [(f"blocks x{reps}", word, _primitive_period(word)) for reps, word
              in _block_words(matrix, _orbit_cycles_of_target(target))
              ] if isinstance(target, FiniteSupportMeasure) else []
    integrals = np.hstack([family.cycle_integrals(matrix, cycles),
                           _cyclic_word_integrals([w[:n] for _, w, n in blocks], family)])
    candidates = cycles + blocks
    return candidates, _gaps(target, family, integrals), [n for _, _, n in candidates]


def approximate_by_periodic(target, system, epsilon: float, family: TestFamily,
                            max_period: int = 12, max_denominator: int = 64
                            ) -> ApproximationResult:
    """Best periodic measure within the search horizon, scored from integers.

    Shift systems scan cycles and block words (``_shift_scan``); toral systems
    scan rational orbits on their residues mod q.  The winner has the least
    distance, then the least period, then the least description: ``_contenders``
    drops in numpy the candidates that cannot win on (distance, period), so the
    tie rule settles bit-equal scores only.
    Shift scores are the weak-* distances bit for bit; torus scores are them
    up to rounding, so an orbit and its mirror score alike, but orbits whose
    exact distances tie can score a few 1e-17 apart, and rounding picks among
    them (``docs/formats.md`` gives a period-30 orbit that wins so at (30, 40)).
    The ``bounded`` torus scan drops unscored the orbits whose heavy-mode bound
    shows they score above the least score; the survivors' starts, scores and
    periods are collected.  Only the winner's measure is built; a shift winner
    reports its score, a torus winner the distance of that measure.
    """
    if isinstance(system, SftSystem):
        candidates, distances, periods = _shift_scan(target, system.matrix, family, max_period)
        names = [name for name, _, _ in candidates]
        describe = str
    elif isinstance(system, ToralAutomorphism):
        names, distances, periods = [], [], []  # starts, not orbits
        for start, n, d in rational_orbit_distances(target, system, family, max_period,
                                                    max_denominator, bounded=True):
            names.append(start)
            distances.append(d)
            periods.append(n)
        describe = lambda start: "orbit({0}/{2},{1}/{2})".format(*start)
    else:
        raise TypeError(f"unsupported system {system!r}")

    contenders = _contenders((distances, periods), np.ones(len(distances), dtype=bool))
    k = min(contenders, key=lambda c: describe(names[c]))
    if isinstance(system, SftSystem):  # its score is the distance bit for bit
        mu, d = cycle_measure(system.matrix, candidates[k][1]), float(distances[k])
    else:  # walked again from its start: the scan's points in the scan's order
        i, j, q = names[k]
        mu = periodic_measure(system.orbit_of((Fraction(i, q), Fraction(j, q)), max_period))
        d = weak_star_distance(target, mu, family)
    return ApproximationResult(mu, d, d <= epsilon, describe(names[k]))


def _contenders(keys: Sequence[Sequence], rows: np.ndarray) -> list[int]:
    """Indices of the candidates that can win: those among ``rows`` of least
    first key, then of least second key.  Only their descriptions are left to
    compare."""
    for key in np.array(keys, dtype=float):
        rows = rows & (key == key[rows].min(initial=math.inf))
    if not rows.any():
        raise ValueError("no periodic candidates within the horizon")
    return np.flatnonzero(rows).tolist()


# -- the mixing-subshift pipeline ------------------------------------------


@dataclass
class BlockSubshift:
    """Letter-level presentation of the block language {loop = p^m,
    excursion}, no excursion following an excursion: one state per letter
    of loop + excursion, labelled by that letter."""

    matrix: TransitionMatrix
    labels: tuple[int, ...]
    excursion_word: tuple[int, ...]


def block_subshift(matrix: TransitionMatrix, cycle: Sequence[int], m: int,
                   excursion: Sequence[int]) -> BlockSubshift:
    """The n + 1 moves of the n letter states: i -> i + 1, the loop's end to
    its start and the excursion's end to the loop's start, each one checked
    against the ambient matrix, so the points concatenate the tiles loop and
    excursion + loop."""
    if m < 1 or not cycle or not excursion:
        raise ValueError("a block subshift needs m >= 1 and non-empty words")
    labels = tuple(cycle) * m + tuple(excursion)
    n, a = len(labels), m * len(cycle)
    moves = [(i, i + 1) for i in range(n - 1)] + [(a - 1, 0), (n - 1, 0)]
    rows = [[0] * n for _ in range(n)]
    for i, j in moves:
        rows[i][j] = 1
    sub = TransitionMatrix(rows)
    if not all(matrix.admits(labels[i], labels[j]) for i, j in moves):
        raise ValueError("block seams violate ambient admissibility")
    return BlockSubshift(sub, labels, tuple(excursion))


@dataclass
class BernoulliApproximation:
    subshift: BlockSubshift
    measure: MarkovMeasure
    periodic_measure: FiniteSupportMeasure
    cycle: tuple[int, ...]
    distance_to_target: float
    distance_to_periodic: float
    within_epsilon: bool
    m: int
    scan: list[tuple[int, float]]


def renewal_cylinders(loop: Sequence[int], excursion: Sequence[int], depth: int
                      ) -> tuple[float, dict[tuple[int, ...], float]]:
    """Renewal root x = 1/lambda of the block subshift {loop, excursion} and the
    masses of its words of length 0..depth under its Parry measure, in closed form.

    Its points concatenate the tiles L = loop and EL = excursion + loop, and its
    Parry measure (Trans. AMS 112, 1964) is the stationary renewal process that
    picks tile T with probability x^|T|, x = 1/lambda in (0, 1) solving x^a +
    x^(a+b) = 1 for a = |L|, b = |E|.  A word's mass sums, over (tile, offset),
    the tile's match with the word's head times the probability that fresh tiles
    continue with the rest, over the mean tile length a + b x^(a+b).  Words
    outside the language are absent."""
    loop, exc = tuple(loop), tuple(excursion)
    a, b = len(loop), len(exc)
    x = 1.0  # Newton from above on the convex increasing x^a + x^(a+b) - 1
    for _ in range(100):
        step = (x ** a + x ** (a + b) - 1.0) / (a * x ** (a - 1) + (a + b) * x ** (a + b - 1))
        if not x - step < x:
            break
        x -= step
    else:
        raise ConvergenceError(f"renewal root for tiles of {a} and {a + b} letters")
    tiles = ((loop, x ** a), (exc + loop, x ** (a + b)))
    # runs[k]: (first k letters on fresh tiles, their probability)
    runs = [[((), 1.0)]]
    for k in range(1, depth):
        runs.append([(t[:k] + w, p * q) for t, p in tiles for w, q in runs[max(0, k - len(t))]])
    windows: dict = {}  # window of depth letters from position 0 -> its weight
    for t, p in tiles:
        for o in range(len(t)):
            head = t[o:o + depth]
            for w, q in runs[depth - len(head)]:
                windows[head + w] = windows.get(head + w, 0.0) + p * q
    mean = a + b * tiles[1][1]
    masses: dict = {}
    for window, p in windows.items():
        for k in range(depth + 1):
            masses[window[:k]] = masses.get(window[:k], 0.0) + p
    return x, {w: p / mean for w, p in masses.items()}


def _renewal_chain(sub: BlockSubshift, x: float) -> MarkovMeasure:
    """The Parry measure of a primitive block subshift in closed form from its
    renewal root x = 1/lambda (``renewal_cylinders``).  With a loop states and b
    excursion states, every state moves on with probability 1 but the loop's last,
    which starts the tile L with probability x^a and EL with x^(a+b), the pair
    divided by its sum; pi is 1/mean on the loop and x^(a+b)/mean on the
    excursion, mean = a + b x^(a+b).  Its chain entropy must equal log lambda."""
    if not is_primitive(sub.matrix):
        raise ValueError("Parry measure requires a primitive (mixing) support")
    n, b = len(sub.labels), len(sub.excursion_word)
    a = n - b
    to_loop, to_excursion = x ** a, x ** (a + b)
    total = to_loop + to_excursion  # so x's rounding error enters b times, not a times
    to_loop, to_excursion = to_loop / total, to_excursion / total
    P = list(sub.matrix.rows)  # 0/1 rows: every state but the loop's last has one move
    P[a - 1] = [0.0] * n
    P[a - 1][0], P[a - 1][a] = to_loop, to_excursion
    mean = a + b * to_excursion
    measure = MarkovMeasure(sub.matrix, P, [1.0 / mean] * a + [to_excursion / mean] * b,
                            sub.labels)
    h = measure.entropy()
    if abs(h + math.log(x)) > 1e-10:
        raise ValueError(f"renewal chain entropy {h} drifted from log Perron {-math.log(x)}")
    return measure


def _shortest_within(target, matrix: TransitionMatrix, radius: float, family: TestFamily,
                     max_period: int) -> tuple[int, ...]:
    """Bernoulli's step 1 pick among the (text, word, n) of ``_shift_scan``: least
    period within radius of the target, then least distance, or if none is within,
    least distance, then least period; ties to the least text.  Its cycle is
    word[:n]."""
    candidates, distances, periods = _shift_scan(target, matrix, family, max_period)
    within = distances <= radius
    contenders = (_contenders((periods, distances), within) if within.any()
                  else _contenders((distances, periods), ~within))
    _, word, n = min((candidates[k] for k in contenders), key=lambda c: c[0])
    return word[:n]


def bernoulli_approximation(target, matrix: TransitionMatrix, epsilon: float,
                            family: TestFamily, cycle: Sequence[int] | None = None,
                            m_max: int = 16, max_period: int = 12) -> BernoulliApproximation:
    """Approximate a target measure by a mixing-support Markov measure.

    Steps: (1) unless a cycle is supplied, pick a periodic measure mu_p within
    epsilon/2 of the target, the shortest that a shift scan up to ``max_period``
    finds (``_shortest_within``); (2) take the homoclinic splice
    of the cycle and its minimal excursion word; (3) for each m, score the
    Parry measure of the block subshift {p-loop repeated m times, excursion}
    from its renewal closed form (:func:`renewal_cylinders`), skipping the m
    whose block lengths a = m |p| and b = |excursion| have gcd(a, b) > 1, the
    class period of the tile lengths a and a + b; (4) return the best m, whose
    distance to mu_p decreases in m, so the total distance lands within
    epsilon when step (1) met epsilon/2.  Only the best m builds its letter
    presentation and its Parry chain, in closed form from the renewal root the
    scan found (``_renewal_chain``), whose integrals must match the renewal
    masses to ``RENEWAL_TOL``.
    """
    if not is_primitive(matrix):
        raise ValueError("ambient shift must be primitive (mixing)")
    if not all(isinstance(obs, CylinderObservable) for obs in family.observables):
        raise TypeError("block subshift measures integrate cylinder observables only")
    cycle = tuple(cycle) if cycle is not None else _shortest_within(
        target, matrix, epsilon / 2.0, family, max_period)
    mu_p = cycle_measure(matrix, cycle)

    q, center = sft_homoclinic_splice(matrix, cycle)
    excursion = ((cycle[0],) + center) if len(cycle) > 1 else center
    tau, b = len(cycle), len(excursion)
    depth = max((len(obs.word) for obs in family.observables), default=0)

    best = None
    scan: list[tuple[int, float]] = []
    for m in range(1, m_max + 1):
        if m * tau + b > MAX_SYMBOLS:
            break
        if math.gcd(m * tau, b) != 1:
            continue
        x, masses = renewal_cylinders(cycle * m, excursion, depth)
        renewal = [masses.get(obs.word, 0.0) for obs in family.observables]
        d_p = _weighted_gap(family.weights, renewal, mu_p.integrals(family))
        scan.append((m, d_p))
        if best is None or d_p < best[0] - 1e-15:
            best = (d_p, m, x, renewal,
                    _weighted_gap(family.weights, renewal, target.integrals(family)))
    if best is None:
        raise BlockSubshiftTooLargeError(
            f"no primitive block subshift fits the {MAX_SYMBOLS}-state cap")
    d_p, m, x, renewal, d_t = best
    sub = block_subshift(matrix, cycle, m, excursion)
    nu = _renewal_chain(sub, x)
    drift = max(np.abs(np.subtract(nu.integrals(family), renewal)), default=0.0)
    if not drift <= RENEWAL_TOL:
        raise ConvergenceError(f"chain integrals of m = {m} drift {drift:.2e} "
                               "from their renewal masses")
    return BernoulliApproximation(
        subshift=sub, measure=nu, periodic_measure=mu_p, cycle=tuple(cycle),
        distance_to_target=d_t, distance_to_periodic=d_p,
        within_epsilon=(d_p <= epsilon / 2.0 and d_t <= epsilon),
        m=m, scan=scan)
