"""Concrete hyperbolic system backends.

Three kinds of system share one interface, what the pipeline calls: the
map ``apply``; the metric ``distance`` and its elementwise form
``distances``; the point-set queries ``hausdorff`` and ``cyclic_period``;
and the orbit constructions ``periodic_orbits``, ``homoclinic_orbit`` and
``net``.  Density against a net is ``nearest`` on the planar two, which
also carry the closing-lemma bound ``shadowing_constant``, and the
forward-window ``forward_distances`` on the shift.  A point-set query
measures a set against a reference set, ``hausdorff``'s second argument
and the first of ``nearest`` and ``forward_distances``, and each system
keeps the index of the last reference set it was given, so a reference
queried again is not indexed again.  A planar index holds the reference's
own gauge matrix up to ``_BLOCK_ENTRIES`` entries, so a query point equal
to a reference point (a member) reads 0 and its row of that matrix, as a
shift query key found among the reference's keys reads 0.

* :class:`ToralAutomorphism` -- a hyperbolic 2x2 integer matrix acting on
  the torus R^2/Z^2 (the cat map [[2,1],[1,1]] being the standard
  instance), with exact rational arithmetic for periodic points and
  closed-form homoclinic orbits along the eigenlines;
* :class:`Horseshoe` -- a two-branch affine model on the unit square with
  declared contraction/expansion rates; its maximal invariant set is coded
  by the full 2-shift and the coding map is exposed;
* :class:`SftSystem` -- a subshift of finite type presented as a dynamical
  system on exact :class:`~symshadow.shiftspace.ShiftPoint` sequences.

The horseshoe and the shift share one coded-shift implementation of the
periodic and homoclinic orbits (the shift codes itself).  Shift-space
words are least walks and admissible words of the :mod:`symshadow.sft`
graph core.  Toral homoclinic orbits are never produced by naive forward
iteration (which would amplify floating-point error along the unstable
direction); each orbit point is evaluated from the eigenline
parametrization f^k(q) = f^k(p) + t lam_s^k v_s (k >= 0) and
f^k(q) = f^{k+1}(p) + s lam_u^k v_u (k < 0), stable on both tails.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .homoclinic import HomoclinicDatum
from .sft import (TransitionMatrix, admissible_words, count_periodic_points, enumerate_cycles,
                  spell, _bfs_distances, _int_mat_pow, _least_walk, _next_walk,
                  _primitive_period, _step_layers)
from .shiftspace import ShiftPoint, _KeyIndex, word_radius


def _wrap_point(p):
    return (p[0] - math.floor(p[0]), p[1] - math.floor(p[1]))


def _torus_metric(dx, dy):
    """The squared torus distance of float coordinate differences, elementwise
    over arrays or on one pair of floats: each a = |d| is folded to a - floor(a),
    the bits of a mod 1 (Sterbenz: floor(a) is 0 or in [a/2, a]), then to
    min(a, 1 - a).  The distance is its sqrt, and set queries take one sqrt
    per reduced minimum or maximum: a correctly rounded sqrt is monotone."""
    dx, dy = np.abs(dx), np.abs(dy)
    dx, dy = dx - np.floor(dx), dy - np.floor(dy)
    dx, dy = np.minimum(dx, 1.0 - dx), np.minimum(dy, 1.0 - dy)
    return dx * dx + dy * dy


def _coordinates(points: Sequence) -> np.ndarray:
    """Planar points as an (n, 2) float array, in one conversion."""
    return np.fromiter(chain.from_iterable(points), np.float64, 2 * len(points)).reshape(-1, 2)


# float entries per gauge-matrix block of the planar point-set queries, and at most
# in a reference's own gauge matrix (8 MB)
_BLOCK_ENTRIES = 1 << 20


def _distinct(points: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The distinct float coordinate pairs of points (-0.0 read as 0.0, so a
    Fraction and its equal float, or 0.0 and -0.0, are one), sorted, and for
    each point the row of its equal among them."""
    xy = _coordinates(points) + 0.0  # -0.0 + 0.0 is 0.0
    pairs, inverse = np.unique(xy.view(np.complex128).ravel(), return_inverse=True,
                               equal_nan=False)
    return pairs.view(np.float64).reshape(-1, 2), inverse


class _ReferenceSlot:
    """One slot per system: the last reference set a point-set query took
    and that set's index, built by ``_index_reference`` on a miss (on a
    planar system, its distinct coordinates and, up to ``_BLOCK_ENTRIES``
    entries, its own gauge matrix; on a shift, its keys).  The reference is
    ``hausdorff``'s second set and the first set of the planar ``nearest``
    and the shift ``forward_distances`` (the net measured against an
    orbit).  A hit needs the same number of points, each the identical
    object, in order; a set mutated in place, or rebuilt from equal points,
    is indexed anew.  Points are values never mutated (tuples, shift
    points)."""

    def _reference_index(self, points: Sequence):
        kept, index = getattr(self, "_reference", ((), None))  # built lazily
        if index is None or len(points) != len(kept) or not all(map(operator.is_, points, kept)):
            kept = tuple(points)
            index = self._index_reference(kept)
            self._reference = kept, index
        return index


class _PlanarSystem(_ReferenceSlot):
    """The shared base of the planar systems: ``distance`` and the elementwise
    ``distances``, one formula ``_root(_gauge)`` over float coordinate
    differences, so the two agree bit for bit; the point-set queries, which
    reduce gauges and take the monotone ``_root`` of each result.  The index
    of a reference set is its ``_distinct`` coordinates and inverse, and the
    set's own gauge matrix over them when that has at most ``_BLOCK_ENTRIES``
    entries: a query point equal to a reference point, a member, reads 0 and
    its row of that matrix (a column too, as the matrix is symmetric), and
    only the other points are measured afresh.
    Each system binds ``distance`` in its own class as well, where per-class
    wrappers (the bench tracer's) find it."""

    def _index_reference(self, points: Sequence) -> tuple:
        """The ``_distinct`` pairs and inverse of points, and the gauge
        matrix of the pairs against themselves, built 32 rows at a time to
        keep its temporaries small; past ``_BLOCK_ENTRIES`` entries it keeps
        no rows."""
        pairs, inverse = _distinct(points)
        own = np.empty((len(pairs) if len(pairs) ** 2 <= _BLOCK_ENTRIES else 0, len(pairs)))
        for start in range(0, len(own), 32):
            own[start:start + 32] = self._gauges(pairs[start:start + 32], pairs)
        return pairs, inverse, own

    def distance(self, a, b) -> float:
        return float(self._root(self._gauge(float(a[0]) - float(b[0]),
                                            float(a[1]) - float(b[1]))))

    def distances(self, xs: Sequence, ys: Sequence) -> np.ndarray:
        """d(xs[i], ys[i]) for each i."""
        d = _coordinates(xs) - _coordinates(ys)
        return self._root(self._gauge(d[:, 0], d[:, 1]))

    def _gauges(self, queries: np.ndarray, points: np.ndarray) -> np.ndarray:
        """The gauge matrix of two (n, 2) coordinate arrays."""
        return self._gauge(np.subtract.outer(queries[:, 0], points[:, 0]),
                           np.subtract.outer(queries[:, 1], points[:, 1]))

    def _minima(self, index: tuple, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The least gauge from each reference pair of ``index`` to the (n, 2)
        coordinates ``points``, and from each point to the reference.  A
        member, a point whose coordinates equal a reference pair (bisected
        in the pairs' sorted complex view), reads 0 and that pair's row of
        the reference's own gauge matrix; the other points take fresh rows
        against the reference, in blocks that bound their memory.  With no
        own rows every point is one of the others.  Each row is the one
        formula on the same coordinates, and a gauge is symmetric bit for
        bit (|a - b| = |b - a|, hypot of negated differences), so on finite
        coordinates every minimum is the pairwise one either way."""
        pairs, _, own = index
        keys, found = pairs.view(np.complex128).ravel(), points.view(np.complex128).ravel()
        at = np.searchsorted(keys, found)
        member = (keys.take(at, mode="clip") == found) & (len(own) > 0)
        to_points = own[at[member]].min(axis=0, initial=np.inf)
        to_reference, others = np.zeros(len(points)), np.flatnonzero(~member)
        rows = max(1, _BLOCK_ENTRIES // len(keys))
        for start in range(0, len(others), rows):
            block = self._gauges(points[others[start:start + rows]], pairs)
            np.minimum(to_points, block.min(axis=0), out=to_points)
            to_reference[others[start:start + rows]] = block.min(axis=1)
        return to_points, to_reference

    def nearest(self, queries: Sequence, points: Sequence) -> list[float]:
        """min over y in points of d(x, y) for each query x: the root of the
        least gauge from each distinct query to the points, by ``_minima``
        (equal queries share every distance).  The queries are the reference
        set, indexed once.  No queries give []; queries against an empty
        point set raise ValueError."""
        if not queries:
            return []
        if not points:
            raise ValueError("distance to an empty point set")
        index = self._reference_index(queries)
        return self._root(self._minima(index, _coordinates(points))[0])[index[1]].tolist()

    def hausdorff(self, xs: Sequence, ys: Sequence) -> float:
        """max(max_x d(x, ys), max_y d(y, xs)): the root of the largest least
        gauge of ``_minima`` either way, so a set of members reads only rows
        of the reference's own matrix.  ys is the reference set, indexed
        once; an empty set raises ValueError."""
        if not xs or not ys:
            raise ValueError("distance to an empty point set")
        to_xs, to_ys = self._minima(self._reference_index(ys), _coordinates(xs))
        return float(self._root(np.maximum(to_xs.max(), to_ys.max())))

    def cyclic_period(self, points: Sequence) -> int:
        """Smallest p dividing n with d(points[i], points[i + p mod n]) <= 1e-12 for all i."""
        n = len(points)
        return next((p for p in range(1, n) if n % p == 0 and all(
            self.distance(points[i], points[(i + p) % n]) <= 1e-12 for i in range(n))), n)


class _CodedShift:
    """Orbit constructions of a system coded by a shift of finite type: they
    run on the words of ``coding_matrix`` and push each shift point through
    ``code_point`` (the identity on a shift space)."""

    def periodic_orbits(self, n: int, cap: int) -> list[list]:
        """The orbit from each fixed point of f^n, by its cyclic word in
        lexicographic order; ValueError past cap fixed points."""
        if count_periodic_points(self.coding_matrix, n) > cap:
            raise ValueError(f"more than {cap} fixed points at period {n}")
        words = sorted((cyc.states[r:] + cyc.states[:r], cyc.primitive_period)
                       for cyc in enumerate_cycles(self.coding_matrix, n).cycles
                       for r in range(cyc.primitive_period))
        return [list(map(self.code_point, ShiftPoint.cycle_orbit(w[:pp]))) for w, pp in words]

    def homoclinic_orbit(self, cycle: Sequence[int]) -> tuple[list, Callable]:
        """The orbit of the periodic point of ``cycle``, which repeats no shorter
        block, and k -> f^k(q) for its exact splice q (:func:`sft_homoclinic_splice`)."""
        q, _ = sft_homoclinic_splice(self.coding_matrix, cycle)
        if (p := _primitive_period(cycle := tuple(cycle))) < len(cycle):
            raise ValueError(f"cycle {spell(cycle)} repeats the block {spell(cycle[:p])}")
        return (list(map(self.code_point, ShiftPoint.cycle_orbit(cycle))),
                lambda k: self.code_point(q.shift(k)))


# lattice points per chunk of the rational orbit walk (a larger q goes alone)
_CHUNK_POINTS = 1 << 20


class ToralAutomorphism(_PlanarSystem):
    """x -> A x mod 1 for an integer matrix with |det| = 1 and no
    eigenvalue on the unit circle.

    Fraction inputs are mapped exactly; float inputs in floating point.
    Only 2x2 matrices are supported (hyperbolicity then forces real,
    distinct eigenvalues).
    """

    chart_radius = 0.25
    deck_range = 3  # homoclinic_intersection searches deck translates with |m_i| <= 3
    _gauge, _root = staticmethod(_torus_metric), staticmethod(np.sqrt)
    distance = _PlanarSystem.distance

    def __init__(self, matrix: Sequence[Sequence[int]]):
        m = tuple(tuple(int(v) for v in row) for row in matrix)
        if len(m) != 2 or any(len(r) != 2 for r in m):
            raise ValueError("only 2x2 toral automorphisms are supported")
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det not in (1, -1):
            raise ValueError("matrix must have determinant +-1")
        tr = m[0][0] + m[1][1]
        disc = tr * tr - 4 * det
        if disc <= 0:
            raise ValueError("matrix is not hyperbolic (eigenvalues on the unit circle)")
        self.matrix = m
        root = math.sqrt(disc)
        lam1 = (tr + root) / 2.0
        lam2 = (tr - root) / 2.0
        if abs(lam1) < abs(lam2):
            lam1, lam2 = lam2, lam1
        if abs(lam2) >= 1.0 or abs(lam1) <= 1.0:
            raise ValueError("matrix is not hyperbolic (|eigenvalue| = 1)")
        self.lam_u = lam1
        self.lam_s = lam2
        self.v_u = self._unit_eigenvector(lam1)
        self.v_s = self._unit_eigenvector(lam2)
        # C of the closing lemma: the geometric-series bound per adapted coordinate,
        # times 2 / sin(angle of v_s and v_u) back to the ambient metric
        self.shadowing_constant = (
            2.0 / abs(self.v_s[0] * self.v_u[1] - self.v_s[1] * self.v_u[0])
            * max(1.0 / (1.0 - abs(lam2)), 1.0 / (1.0 - 1.0 / abs(lam1))))
        self._kept_spans: dict = {}  # (max_period, max_denominator) -> rational_orbit_spans

    def _unit_eigenvector(self, lam: float) -> tuple[float, float]:
        (a, b), (c, d) = self.matrix
        # (A - lam I) v = 0: v = (b, lam - a) kills row one, (lam - d, c) row two
        cand1 = (float(b), lam - a)
        cand2 = (lam - d, float(c))
        v = cand1 if math.hypot(*cand1) >= math.hypot(*cand2) else cand2
        norm = math.hypot(*v)
        if norm < 1e-12:
            raise ValueError("degenerate eigenvector")
        return (v[0] / norm, v[1] / norm)

    # -- dynamics ------------------------------------------------------

    def apply(self, p):
        (a, b), (c, d) = self.matrix
        x, y = a * p[0] + b * p[1], c * p[0] + d * p[1]
        return (x - math.floor(x), y - math.floor(y))

    # -- exact periodic points ----------------------------------------

    def periodic_lattice_points(self, n: int, cap: int = 200_000) -> list:
        """All fixed points of A^n on the torus, as exact Fractions, sorted.

        With M = A^n - I they are the group M^-1 Z^2 / Z^2 of order
        |det M|, generated by the columns of M^-1 = adj(M) / det M; the
        closure of 0 under the generators walks it on the numerators mod
        |det M|.
        """
        count, gens = self._fixed_point_generators(n)
        if count > cap:
            raise ValueError(f"{count} fixed points of order {n} exceeds cap {cap}")
        points, stack = {(0, 0)}, [(0, 0)]
        while stack:
            u, v = stack.pop()
            for gu, gv in gens:
                q = ((u + gu) % count, (v + gv) % count)
                if q not in points:
                    points.add(q)
                    stack.append(q)
        assert len(points) == count
        return [(Fraction(u, count), Fraction(v, count)) for u, v in sorted(points)]

    def _fixed_point_generators(self, n: int) -> tuple[int, tuple]:
        """|det M| for M = A^n - I, and the columns of M^-1 = adj(M) / det M
        as numerators mod |det M|."""
        (a, b), (c, d) = _int_mat_pow([list(r) for r in self.matrix], n)
        a, d = a - 1, d - 1
        det = a * d - b * c
        if det == 0:
            raise ValueError("A^n - I singular; matrix not hyperbolic?")
        count, sign = abs(det), (1 if det > 0 else -1)
        return count, ((sign * d % count, -sign * c % count),
                       (-sign * b % count, sign * a % count))

    def orbit_of(self, p, cap: int = 10_000) -> list:
        """Forward orbit of an exact rational point up to first return,
        walked on its numerators over the lcm q of its denominators."""
        x, y = _wrap_point((Fraction(p[0]), Fraction(p[1])))
        q = math.lcm(x.denominator, y.denominator)
        start = (x.numerator * (q // x.denominator), y.numerator * (q // y.denominator))
        return [(Fraction(u, q), Fraction(v, q)) for u, v in self._lattice_walk(start, q, cap)]

    def _lattice_walk(self, start: tuple[int, int], modulus: int, cap: int) -> list:
        """The integer walk Y -> A Y mod modulus from start up to its first
        return (the orbit of start / modulus), at most cap points long."""
        (a, b), (c, d) = self.matrix
        walk = [start]
        u, v = start
        while True:
            u, v = (a * u + b * v) % modulus, (c * u + d * v) % modulus
            if (u, v) == start:
                return walk
            if len(walk) == cap:
                raise ValueError(f"{start} / {modulus} not periodic within {cap} iterates")
            walk.append((u, v))

    def periodic_orbits(self, n: int, cap: int) -> list[list]:
        """The orbit from each fixed point of A^n, in the order of
        :meth:`periodic_lattice_points`."""
        points = self.periodic_lattice_points(n, cap=cap)
        rotated: dict = {}  # point -> its orbit from there, walked once per orbit
        for p in points:
            if p not in rotated:
                orbit = self.orbit_of(p, cap=n + 1)
                rotated.update((q, orbit[i:] + orbit[:i]) for i, q in enumerate(orbit))
        return [rotated[p] for p in points]

    def shadowing_orbit(self, points: Sequence) -> tuple[list, int]:
        """The periodic orbit shadowing the cyclic pseudo-orbit ``points``
        (defect below 1/4), as floats, and its exact primitive period.

        With the lifts k_i = round(A x_i - x_{i+1}) the orbit solves
        y_{i+1} = A y_i - k_i cyclically, so y_0 = (A^n - I)^-1 K mod 1 for
        K = sum_i A^(n-1-i) k_i: Y_0 / D with D = |det(A^n - I)|.  The k_i
        drop out mod D: the orbit is the walk Y -> A Y mod D from Y_0, and
        each coordinate is the correctly rounded u / D.
        """
        (a, b), (c, d) = self.matrix
        n = len(points)
        xs = [(float(p[0]), float(p[1])) for p in points]
        K0 = K1 = 0
        for (x0, x1), (z0, z1) in zip(xs, xs[1:] + xs[:1]):
            K0, K1 = (a * K0 + b * K1 + round(a * x0 + b * x1 - z0),
                      c * K0 + d * K1 + round(c * x0 + d * x1 - z1))
        D, ((g0, g1), (h0, h1)) = self._fixed_point_generators(n)
        start = ((K0 * g0 + K1 * h0) % D, (K0 * g1 + K1 * h1) % D)
        walk = self._lattice_walk(start, D, n)
        return [(u / D, v / D) for u, v in walk] * (n // len(walk)), len(walk)

    def rational_orbit_spans(self, max_period: int, max_denominator: int
                             ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """(q, points, lengths) per q, q ascending, for the orbits of period
        <= max_period through the (i/q, j/q) with gcd(i, j, q) = 1, by (i, j):
        ``points`` stacks the integer pairs (u, v) of their points (u/q, v/q),
        each orbit from its least point (i, j), and ``lengths`` holds their
        periods, so an orbit is a span of ``points``; both arrays are read-only.
        One array walk covers several q, in chunks of at most ``_CHUNK_POINTS``
        lattice points (a larger q goes alone; ``_walk_spans``).  The orbits mod
        q depend on the matrix and q alone, so a horizon that fits one chunk
        (sum of q^2 <= ``_CHUNK_POINTS``: max_denominator <= 146) is walked once
        per system, its spans kept by (max_period, max_denominator) and handed
        out again unwalked.  A larger horizon streams, each chunk's walk freed
        before the next, and keeps nothing."""
        key = (max_period, max_denominator)
        if key not in self._kept_spans:
            chunks: list[list[int]] = []
            for q in range(1, max_denominator + 1):
                if not chunks or sum(p * p for p in chunks[-1]) + q * q > _CHUNK_POINTS:
                    chunks.append([])
                chunks[-1].append(q)
            if len(chunks) != 1:
                return chain.from_iterable(self._walk_spans(np.array(qs), max_period)
                                           for qs in chunks)
            self._kept_spans[key] = list(self._walk_spans(np.array(chunks[0]), max_period))
        return iter(self._kept_spans[key])

    def _walk_spans(self, qs: np.ndarray, max_period: int
                    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """The (q, points, lengths) of :meth:`rational_orbit_spans` for the
        chunk of denominators qs: up to max_period steps of the index map
        (u, v) -> A(u, v) mod q, ending once every point has closed its
        orbit, give each point of exact order q its period and the
        least point (i, j) of its orbit, from which a short orbit is walked
        once.  It stays a generator: freeing a streamed chunk's walk arrays
        before its spans are scored, as a list would, raised the peak of a
        (30, 376) CLI run from 119 to 126 MB (2-core x86_64)."""
        (a, b), (c, d) = self.matrix
        sizes = qs * qs
        offset, modulus = np.repeat(sizes.cumsum() - sizes, sizes), np.repeat(qs, sizes)
        u, v = divmod(np.arange(sizes.sum()) - offset, modulus)
        image = offset + (a * u + b * v) % modulus * modulus + (c * u + d * v) % modulus
        index = np.flatnonzero(np.gcd(np.gcd(u, v), modulus) == 1)
        period, least, walk = np.zeros_like(index), index.copy(), index
        unclosed = len(index)
        for step in range(1, max_period + 1):
            if not unclosed:  # every orbit walked round, so each least is final
                break
            walk = image[walk]
            np.minimum(least, walk, out=least)
            closing = (period == 0) & (walk == index)
            period[closing] = step
            unclosed -= np.count_nonzero(closing)
        keep = (period > 0) & (least == index)
        starts, period = index[keep], period[keep]
        ends, walk, flat = period.cumsum(), starts, np.empty(period.sum(), int)
        first = ends - period
        for k in range(period.max(initial=0)):  # the short orbits flat, one entry per point
            flat[first[period > k] + k] = walk[period > k]
            walk = image[walk]
        points, moduli = np.stack([u[flat], v[flat]], axis=1), modulus[starts]
        points.flags.writeable = period.flags.writeable = False
        runs = np.flatnonzero(np.diff(moduli, prepend=0)).tolist()  # each q's first orbit
        for lo, hi in zip(runs, runs[1:] + [len(starts)]):
            yield int(moduli[lo]), points[first[lo]:ends[hi - 1]], period[lo:hi]

    # -- homoclinic orbit along the eigenlines ------------------------

    def homoclinic_intersection(self, p_orbit: Sequence) -> tuple[float, float]:
        """Coefficients (t, s) with p + t v_s = f(p) + m + s v_u for the
        deck translate m minimizing max(|t|, |s|) over nonzero solutions:
        q = p + t v_s lies on the stable segment of p and the unstable
        segment of f(p), a transverse homoclinic point with the backward
        tail along W^u(f(p))."""
        p = p_orbit[0]
        fp = p_orbit[1 % len(p_orbit)]
        rhs0 = (float(fp[0]) - float(p[0]), float(fp[1]) - float(p[1]))
        det = self.v_s[0] * (-self.v_u[1]) - self.v_s[1] * (-self.v_u[0])
        best = None
        for m1 in range(-self.deck_range, self.deck_range + 1):
            for m2 in range(-self.deck_range, self.deck_range + 1):
                r = (rhs0[0] + m1, rhs0[1] + m2)
                t = (r[0] * (-self.v_u[1]) - r[1] * (-self.v_u[0])) / det
                s = (self.v_s[0] * r[1] - self.v_s[1] * r[0]) / det
                if abs(t) < 1e-12 or abs(s) < 1e-12:
                    continue  # on the orbit itself, not homoclinic
                score = max(abs(t), abs(s))
                if best is None or score < best[0]:
                    best = (score, t, s)
        if best is None:
            raise ValueError(f"no transverse homoclinic intersection among deck "
                             f"translates up to {self.deck_range}")
        return best[1], best[2]

    def homoclinic_orbit_point(self, p_orbit: Sequence, t: float, s: float, k: int):
        """f^k(q) for q = p + t v_s = f(p) + s v_u (mod 1), evaluated from
        the tail that is numerically stable at k."""
        tau = len(p_orbit)
        if k >= 0:
            base = p_orbit[k % tau]
            coef = t * self.lam_s ** k
            direction = self.v_s
        else:
            base = p_orbit[(k + 1) % tau]
            coef = s * self.lam_u ** k
            direction = self.v_u
        return _wrap_point((float(base[0]) + coef * direction[0],
                            float(base[1]) + coef * direction[1]))

    def homoclinic_orbit(self, p) -> tuple[list, Callable]:
        """The orbit of the rational point p and k -> f^k(q) along the eigenlines."""
        p_orbit = self.orbit_of(p)
        return p_orbit, partial(self.homoclinic_orbit_point, p_orbit,
                                *self.homoclinic_intersection(p_orbit))

    def net(self, spacing: float) -> list:
        """The k x k grid, k = ceil(1 / spacing)."""
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        k = math.ceil(1.0 / spacing)
        return [(i / k, j / k) for i in range(k) for j in range(k)]

    def to_config(self) -> dict:
        return {"kind": "toral", "matrix": [list(r) for r in self.matrix]}


class Horseshoe(_PlanarSystem, _CodedShift):
    """Two-branch affine horseshoe model on the unit square.

    Branch c in {0, 1} acts on the horizontal strip H_c (height 1/mu_u,
    at the bottom resp. top of the square) by
    f(x, y) = (mu_s x + c (1 - mu_s), mu_u y - c (mu_u - 1)),
    carrying H_c onto the vertical strip of width mu_s at the left resp.
    right edge.  The maximal invariant set is coded by the full 2-shift;
    x-coordinates are read off the backward itinerary, y-coordinates off
    the forward itinerary.
    """

    chart_radius = 0.2
    _gauge, _root = staticmethod(np.hypot), staticmethod(np.positive)  # hypot is the distance
    distance = _PlanarSystem.distance

    def __init__(self, contraction: float, expansion: float):
        if not 0.0 < contraction < 0.5:
            raise ValueError("contraction rate must lie in (0, 1/2)")
        if not 2.0 < expansion <= sys.float_info.max:  # finite as a float
            raise ValueError("expansion rate must be a finite number above 2")
        self.mu_s = float(contraction)
        self.mu_u = float(expansion)
        # the torus's C with v_s and v_u the axes, sin(angle) = 1
        self.shadowing_constant = 2.0 * max(1.0 / (1.0 - self.mu_s),
                                            1.0 / (1.0 - 1.0 / self.mu_u))
        self.coding_matrix = TransitionMatrix.full_shift(2)

    def branch_of(self, p) -> int:
        y = p[1]
        if y <= 1.0 / self.mu_u + 1e-12:
            return 0
        if y >= 1.0 - 1.0 / self.mu_u - 1e-12:
            return 1
        raise ValueError(f"point {p} lies in the escape gap of the horseshoe")

    def apply(self, p):
        c = self.branch_of(p)
        return (self.mu_s * p[0] + c * (1.0 - self.mu_s),
                self.mu_u * p[1] - c * (self.mu_u - 1.0))

    def shadowing_orbit(self, points: Sequence) -> tuple[list, int]:
        """The periodic orbit shadowing the cyclic pseudo-orbit ``points``
        and its exact primitive period: the coding is a conjugacy, so the
        orbit is that of the itinerary c_i = branch_of(x_i).  Over one
        primitive cycle x solves x_{i+1} = mu_s x_i + c_i (1 - mu_s)
        cyclically, and y the same recurrence backwards with rate 1/mu_u."""
        itinerary = tuple(self.branch_of(p) for p in points)
        p = _primitive_period(itinerary)
        xs = _cyclic_affine_orbit(self.mu_s, itinerary[:p])
        ys = _cyclic_affine_orbit(1.0 / self.mu_u, itinerary[p - 1::-1])
        return list(zip(xs, ys[:1] + ys[:0:-1])) * (len(points) // p), p

    # -- coding --------------------------------------------------------

    def code_point(self, itinerary: ShiftPoint) -> tuple[float, float]:
        """Point of the invariant set with the given 2-shift itinerary:
        x = (1-mu_s) sum_{k>=1} s_{-k} mu_s^{k-1},
        y = (1-1/mu_u) sum_{k>=0} s_k mu_u^{-k}."""
        x = (1.0 - self.mu_s) * _tail_sum(itinerary, -1, -1, self.mu_s)
        y = (1.0 - 1.0 / self.mu_u) * _tail_sum(itinerary, 0, +1, 1.0 / self.mu_u)
        return (x, y)

    def word_length(self, scale: float) -> int:
        """Least m >= 1 with max(mu_s^m, mu_u^-m) <= scale: the word length
        whose cylinders have images of diameter at most ``scale``."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        m = 1
        while max(self.mu_s ** m, self.mu_u ** (-m)) > scale:
            m += 1
        return m

    def coding_table(self, depth: int) -> list[dict]:
        """word <-> point table: one row per (backward, forward) word pair
        of length ``depth``, both in lexicographic order."""
        words = admissible_words(self.coding_matrix, depth)
        rows = []
        for back in words:
            for fwd in words:
                x, y = self.code_point(ShiftPoint((0,), back + fwd, (0,), pos=-depth))
                rows.append({"backward": spell(back), "forward": spell(fwd), "x": x, "y": y})
        return rows

    def net(self, spacing: float) -> list:
        """The coding-table points at the word length of spacing / 2."""
        m = self.word_length(spacing / 2.0)
        if m > 7:
            raise ValueError("spacing too fine for a horseshoe net at desk scale")
        return [(row["x"], row["y"]) for row in self.coding_table(m)]

    def to_config(self) -> dict:
        return {"kind": "horseshoe", "rates": [self.mu_s, self.mu_u]}


def _cyclic_affine_orbit(rate: float, codes: Sequence[int]) -> list[float]:
    """The cyclic solution of z_{i+1} = rate z_i + codes_i (1 - rate): the
    geometric sum over one cycle fixes z_0, then one pass forward."""
    z = 0.0
    for c in codes:
        z = rate * z + c * (1.0 - rate)
    out = [z / (1.0 - rate ** len(codes))]
    for c in codes[:-1]:
        out.append(rate * out[-1] + c * (1.0 - rate))
    return out


def _tail_sum(point: ShiftPoint, start: int, step: int, ratio: float) -> float:
    """sum_{j>=0} point[start + j*step] * ratio^j for an eventually
    periodic point, using the closed form for the periodic tail."""
    # the j pre-periodic symbols from start, then one period of the tail; a
    # symbol 0 adds +0.0, which leaves a sum of terms >= 0 as it is
    if step > 0:
        period, j = len(point.right), max(point.pos + len(point.center) - start, 0)
        symbols = point.window(start, start + j + period)
    else:
        period, j = len(point.left), max(start - point.pos + 1, 0)
        symbols = point.window(start - j - period + 1, start + 1)[::-1]
    total = 0.0
    for i, s in enumerate(symbols[:j]):
        if s:
            total += s * ratio ** i
    block = sum(s * ratio ** i for i, s in enumerate(symbols[j:]) if s)
    return total + ratio ** j * block / (1.0 - ratio ** period)


class SftSystem(_CodedShift, _ReferenceSlot):
    """A subshift of finite type as a dynamical system on exact
    eventually-periodic shift points; it is its own coding.  The index of a
    reference set is its points' keys, cut once per key kind and size: at
    each rung a Hausdorff query reaches, and at a forward query's window."""

    _index_reference = _KeyIndex

    def __init__(self, matrix: TransitionMatrix):
        self.matrix = self.coding_matrix = matrix

    def code_point(self, point: ShiftPoint) -> ShiftPoint:
        return point

    def apply(self, p: ShiftPoint) -> ShiftPoint:
        return p.shift(1)

    def distance(self, a: ShiftPoint, b: ShiftPoint) -> float:
        return a.distance(b)

    def distances(self, xs: Sequence[ShiftPoint], ys: Sequence[ShiftPoint]) -> np.ndarray:
        """d(xs[i], ys[i]) for each i."""
        return np.array([x.distance(y) for x, y in zip(xs, ys)], np.float64)

    # exact point-set queries on the integer keys of shift points, against
    # the kept index of the reference set
    def hausdorff(self, xs: Sequence[ShiftPoint], ys: Sequence[ShiftPoint]) -> float:
        """max(max_x d(x, ys), max_y d(y, xs)), exactly, ys the reference; an
        empty set raises ValueError."""
        return self._reference_index(ys).hausdorff(xs)

    def forward_distances(self, queries: Sequence[ShiftPoint], points: Sequence[ShiftPoint],
                          length: int) -> list[float]:
        """For each query y, 2^-m with m the longest common prefix of
        y_0..y_{length-1} with that of some x in points, the queries the
        reference, from forward keys cut once at ``length``.  No queries
        give []; queries against an empty point set raise ValueError."""
        return self._reference_index(queries).forward(points, length)

    cyclic_period = staticmethod(_primitive_period)

    def net(self, spacing: float) -> list[ShiftPoint]:
        """One point through each admissible word of length word_radius(spacing)."""
        # any two shift points are within 1, so a coarser spacing reads as 1
        words = admissible_words(self.matrix, max(1, word_radius(min(spacing, 1.0))))
        return [sft_point_through_word(self.matrix, w) for w in words]

    def to_config(self) -> dict:
        return {"kind": "sft", "matrix": {"rows": [list(r) for r in self.matrix.rows],
                                          "size": self.matrix.size}}


# -- shift-space words ----------------------------------------------------


def sft_point_through_word(matrix: TransitionMatrix, word: Sequence[int]) -> ShiftPoint:
    """A canonical admissible point carrying ``word`` at positions 0..|w|-1:
    the word is closed into a cycle by the least of the shortest walks from
    its last symbol back to its first, and repeated."""
    word = matrix.require_word(word)
    a, b = word[-1], word[0]
    steps = _bfs_distances(matrix.succ, matrix.succ[a])[b] + 1
    if steps == 0:
        raise ValueError(f"no admissible connector from {a} to {b}")
    walk = _least_walk(matrix.succ, _step_layers(matrix.pred, b, steps), a, steps)
    return ShiftPoint.from_cycle(word + tuple(walk[:-1]))


def sft_homoclinic_splice(matrix: TransitionMatrix, cycle: Sequence[int]
                          ) -> tuple[ShiftPoint, tuple[int, ...]]:
    """Transverse-homoclinic analogue for a shift: a point whose backward
    tail is the cycle advanced by one phase and whose forward tail is the
    cycle itself, with the shortest admissible center insertion c (length
    a multiple of the period up to period * (size + 2), possibly empty):
    the least closed walk at w[0] of that length, or its successor where the
    least puts q on the p-orbit (at most one of a length does).  Returns (q, c)."""
    w = tuple(cycle)
    tau = len(w)
    if not matrix.is_admissible_cycle(w):
        raise ValueError(f"cycle {w} not admissible")
    rho = w[1:] + w[:1]  # advanced phase for the backward tail
    for length in range(0, tau * (matrix.size + 2) + 1, tau):
        layers = _step_layers(matrix.pred, w[0], length + 1)
        walk = _least_walk(matrix.succ, layers, w[0], length + 1)
        if walk is not None and ShiftPoint(rho, walk[:-1], w).period() is not None:
            walk = _next_walk(matrix.succ, layers, w[0], walk)
        if walk is not None:
            c = tuple(walk[:-1])
            return ShiftPoint(rho, c, w), c
    raise ValueError(f"no homoclinic splice found for cycle {w}")


# -- homoclinic data ----------------------------------------------------


def homoclinic_point(system, p, delta: float = 1e-2, forward_length: int = 160,
                     backward_length: int = 80) -> HomoclinicDatum:
    """Homoclinic datum for a periodic point of any supported system, its
    segment f^k(q) for k in [-backward_length, forward_length].

    The phase convention is fixed: the backward tail of q follows the
    orbit of f(p), the forward tail the orbit of p (a phase shift of one).
    ``p`` is what ``system.homoclinic_orbit`` takes: a rational point on
    the torus, a cycle word on shift and horseshoe systems.
    """
    p_orbit, orbit = system.homoclinic_orbit(p)
    segment = [orbit(k) for k in range(-backward_length, forward_length + 1)]
    return HomoclinicDatum(system, p_orbit, segment, backward_length, delta, orbit)


def parse_system(config: dict):
    """System from its JSON configuration {"kind": ..., ...}; a bare
    transition matrix {"rows": ..., "size": ...} is an sft system."""
    if not isinstance(config, dict):
        raise ValueError(f"a system is a JSON object, got {config!r}")
    kind = config.get("kind")
    if kind is None and "rows" in config:
        kind, config = "sft", {"matrix": config}
    if kind == "toral":
        matrix = config["matrix"]
        if not (isinstance(matrix, list)
                and all(isinstance(r, list) and all(isinstance(v, int) and not isinstance(v, bool)
                                                    for v in r) for r in matrix)):
            raise ValueError(f"toral matrix must be a list of integer rows, got {matrix!r}")
        return ToralAutomorphism(matrix)
    if kind == "horseshoe":
        rates = config["rates"]
        if not (isinstance(rates, list) and len(rates) == 2
                and all(isinstance(r, (int, float)) and not isinstance(r, bool) for r in rates)):
            raise ValueError(f"horseshoe rates must be [contraction, expansion], got {rates!r}")
        return Horseshoe(*rates)
    if kind == "sft":
        return SftSystem(TransitionMatrix.from_dict(config["matrix"]))
    raise ValueError(f"unknown system kind {kind!r}")


def cat_map() -> ToralAutomorphism:
    return ToralAutomorphism([[2, 1], [1, 1]])
