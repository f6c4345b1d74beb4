"""Points of a two-sided shift space, represented exactly.

A :class:`ShiftPoint` is a bi-infinite symbol sequence that is eventually
periodic in both directions: a periodic left tail, a finite center block,
and a periodic right tail.  This class is closed under the shift map and
its inverse, so orbits of periodic and homoclinic points can be followed
exactly, with no truncation error.  Every point is stored in one canonical
presentation, so equality and hashing are tuple operations.

The metric is d(x, y) = 2^(-k) with k the largest integer such that the
sequences agree on all coordinates i with |i| < k (d = 0 for equal
points).  Closed epsilon-balls are centered cylinders.  The distance is
exact at every radius, with no coordinate cap: distinct points always get
a positive distance, the smallest positive float where 2^(-k) underflows.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

from .sft import TransitionMatrix, Word, _primitive_period


class ShiftPoint:
    """Bi-infinite sequence: periodic left tail | center | periodic right tail.

    ``pos`` is the index of the first center coordinate; the right tail
    starts at ``pos + len(center)`` and repeats ``right``; coordinates
    below ``pos`` repeat ``left``, anchored so that coordinate pos-1 is
    the last symbol of ``left``.  The constructor makes the presentation
    canonical: tails of minimal period, the right tail started as early as
    the sequence allows, the left tail ended as late as the center allows,
    and periodic points anchored at coordinate 0.  Symbols are ints >= 0.
    """

    __slots__ = ("left", "center", "right", "pos", "_key")

    def __init__(self, left: Sequence[int], center: Sequence[int],
                 right: Sequence[int], pos: int = 0):
        if len(left) == 0 or len(right) == 0:
            raise ValueError("tails must be non-empty periodic words")
        left, center, right = (tuple(int(s) for s in w) for w in (left, center, right))
        left = left[-_primitive_period(left):]
        right = right[:_primitive_period(right)]
        # the right tail takes in the center symbols that continue it
        # backwards, and then left-tail symbols unless both are one cycle
        pos, c = int(pos), len(center)
        while c and center[c - 1] == right[-1]:
            c -= 1
            right = right[-1:] + right[:-1]
        while not c and left != right and left[-1] == right[-1]:
            left, right, pos = left[-1:] + left[:-1], right[-1:] + right[:-1], pos - 1
        s = 0  # the left tail takes in the center symbols that continue it
        while s < c and center[s] == left[0]:
            left = left[1:] + left[:1]
            s += 1
        if not c and left == right:
            k = -pos % len(right)
            left = right = right[k:] + right[:k]
            pos = 0
        self.left, self.center, self.right, self.pos = left, center[s:c], right, pos + s

    @classmethod
    def _canonical(cls, left, center, right, pos) -> "ShiftPoint":
        """A point from a presentation that is canonical already."""
        point = cls.__new__(cls)
        point.left, point.center, point.right, point.pos = left, center, right, pos
        return point

    @classmethod
    def from_cycle(cls, word: Sequence[int], phase: int = 0) -> "ShiftPoint":
        """The periodic point x with x_i = word[(i + phase) mod len]."""
        return cls(word, (), word, -phase)

    def period(self) -> int | None:
        """Smallest p > 0 with sigma^p x = x; None for a non-periodic point."""
        return len(self.right) if not self.center and self.left == self.right else None

    def __getitem__(self, i: int) -> int:
        end = self.pos + len(self.center)
        if self.pos <= i < end:
            return self.center[i - self.pos]
        if i >= end:
            return self.right[(i - end) % len(self.right)]
        return self.left[(i - self.pos) % len(self.left)]

    def window(self, lo: int, hi: int) -> Word:
        """Coordinates lo..hi-1."""
        return self._span(lo, hi, self.left, self.center, self.right)

    def text(self, lo: int, hi: int) -> str:
        """Coordinates lo..hi-1 as chr(symbol)s: ordered and prefixed like windows."""
        return self._span(lo, hi, *("".join(map(chr, w))
                                    for w in (self.left, self.center, self.right)))

    def _span(self, lo: int, hi: int, left, center, right):
        """Coordinates lo..hi-1 from the tails and center given as tuples or strings."""
        pos, end = self.pos, self.pos + len(center)
        if lo >= end:  # within the right tail, as every window of a periodic point from 0
            return _repeat(right, lo - end, hi - lo)
        return (_repeat(left, lo - pos, min(hi, pos) - lo)
                + center[max(lo, pos) - pos:max(min(hi, end) - pos, 0)]
                + _repeat(right, max(lo, end) - end, hi - max(lo, end)))

    def shift(self, k: int = 1) -> "ShiftPoint":
        """sigma^k: (sigma x)_i = x_{i+1}."""
        if self.period() is None:
            return ShiftPoint._canonical(self.left, self.center, self.right, self.pos - k)
        k %= len(self.right)
        rotated = self.right[k:] + self.right[:k]
        return ShiftPoint._canonical(rotated, (), rotated, 0)

    def extent(self) -> int:
        """e(x): both rays are periodic beyond |i| = max(-pos, end), so by
        Fine and Wilf distinct points differ at some |i| < e(x) + e(y)."""
        return (max(-self.pos, self.pos + len(self.center), 0)
                + len(self.left) + len(self.right))

    def key(self, radius: int) -> str:
        """Interleaved x_0, x_1, x_-1, ..., x_radius, x_-radius (or a longer
        key built before).  Keys of points with agreement radius k first
        differ at index 2k-1 or 2k, below 2 * radius + 1 if radius >= e(x) + e(y)."""
        key = getattr(self, "_key", "")  # built lazily
        if len(key) <= 2 * radius:
            radius = max(radius, len(key))  # grow at least twofold
            chars = [""] * (2 * radius + 1)
            chars[0::2] = self.text(-radius, 1)[::-1]
            chars[1::2] = self.text(1, radius + 1)
            self._key = key = "".join(chars)
        return key

    def agreement_radius(self, other: "ShiftPoint") -> int | float:
        """Largest k with x_i = y_i for all |i| < k; math.inf for x = y."""
        radius = self.extent() + other.extent()
        m = _common_prefix(self.key(radius), other.key(radius))
        return math.inf if m > 2 * radius else (m + 1) // 2

    def distance(self, other: "ShiftPoint") -> float:
        return 0.0 if self == other else _radius_distance(self.agreement_radius(other))

    def __eq__(self, other) -> bool:
        return (isinstance(other, ShiftPoint) and self.pos == other.pos
                and self.center == other.center and self.right == other.right
                and self.left == other.left)

    equals = __eq__  # exact equality of the bi-infinite sequences

    def __hash__(self) -> int:
        return hash((self.left, self.center, self.right, self.pos))

    def is_admissible(self, matrix: TransitionMatrix) -> bool:
        return matrix.is_admissible_word(self.window(-self.extent() - 1, self.extent() + 2))

    def centered_word(self, radius: int) -> str:
        """Coordinates -radius..radius-1 with a dot before coordinate 0."""
        return ".".join("".join(map(str, self.window(lo, lo + radius)))
                        for lo in (-radius, 0))

    def __repr__(self) -> str:
        return f"ShiftPoint({self.centered_word(8)!r})"


def _repeat(word, start: int, length: int):
    """``length`` symbols of the periodic word from index start (mod len)."""
    off = start % len(word)
    return (word * ((off + length) // len(word) + 1))[off:off + length]


def _radius_distance(k: int) -> float:
    return max(2.0 ** -k, math.ulp(0.0))


def _common_prefix(a: str, b: str) -> int:
    lo, hi = 0, min(len(a), len(b)) + 1
    while hi - lo > 1:  # a[:lo] == b[:lo]; a[:hi] != b[:hi] or hi is past the end
        mid = (lo + hi) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    return lo


def longest_common_prefixes(queries: Sequence[str], keys: Sequence[str]) -> list[int]:
    """For each query, its longest common prefix with any of ``keys``: in
    sorted order that is the prefix shared with one of its two neighbours."""
    index = sorted(keys)
    out = []
    for q in queries:
        i = bisect_left(index, q)
        out.append(max(_common_prefix(q, k) for k in index[max(i - 1, 0):i + 1]))
    return out


def nearest_distances(queries: Sequence[ShiftPoint],
                      points: Sequence[ShiftPoint]) -> list[float]:
    """d(x, points) = min over y in points of d(x, y), exactly, for each
    query x, from a sorted index of interleaved keys.  No queries give
    []; queries against an empty point set raise ValueError."""
    if not queries:
        return []
    if not points:
        raise ValueError("distance to an empty point set")
    radius = max(y.extent() for y in points) + max(x.extent() for x in queries)
    common = longest_common_prefixes([x.key(radius) for x in queries],
                                     [y.key(radius) for y in points])
    return [0.0 if m > 2 * radius else _radius_distance((m + 1) // 2) for m in common]


def cylinder_contains(point: ShiftPoint, word: Word, anchor: int = 0) -> bool:
    """Does the point carry ``word`` at positions anchor..anchor+len-1?"""
    return point.window(anchor, anchor + len(word)) == tuple(word)


def word_radius(epsilon: float) -> int:
    """Smallest m >= 0 with 2^-m <= epsilon (epsilon in (0, 1])."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    m = 0
    while 2.0 ** (-m) > epsilon:
        m += 1
    return m
