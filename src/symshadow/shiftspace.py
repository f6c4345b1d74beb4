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

Comparisons run on cached integer keys, WIDTH = 32 bits per symbol (the
UTF-32 code unit of chr(symbol)), first symbol most significant: keys of
one size compare as their symbol sequences do, and two of them share
size - ceil(bitlength(a ^ b) / WIDTH) leading symbols.  The metric's keys
are cut by rungs: radius 16, doubled while an answer is open, and last
e(x) + e(y), past which distinct points differ.  At radius R a nonzero XOR
fixes the agreement radius k <= R, while a zero one only bounds d by
2^-(R+1), so only the pairs that agree that far take the next rung, and
the last rung decides equality.  Point-set queries sort the distinct keys
of the set they measure against once and bisect each distinct query key
not among them into them, since a key shares its longest prefix with a
sorted set at its neighbour before or after.  The two point-set queries
are a reference set's: the Hausdorff distance of a set to it, and the
forward-window distance of each of its points to a set.  Its keys, set and
sorted keys are cut once per key kind and size into its :class:`_KeyIndex`,
which a system keeps for its last reference set.  The forward query is one
cut, at the window it asks for, read once per distinct reference key.

A glued cyclic word is read without building its orbit: ``cycle_distances``
(the shadow distance) cuts the one-sided keys x_0..x_R and x_-1..x_-R of
every phase at rung R by shift and mask from two integers, the repeated
word and its reverse.  ``ShiftPoint.cycle_orbit`` builds the orbit once,
each point with its forward key at the first rung pre-cut from one integer.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

from .sft import Word, _primitive_period, spell

WIDTH = 32  # bits per symbol in a key
_FIRST_RADIUS = 16  # the first rung of every metric query, and cycle_orbit's pre-cut length


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

    __slots__ = ("left", "center", "right", "pos", "extent", "_key", "_forward", "_backward")

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
        self._fill(left, center[s:c], right, pos + s)

    @classmethod
    def _canonical(cls, left, center, right, pos) -> "ShiftPoint":
        """A point from a presentation that is canonical already."""
        point = cls.__new__(cls)
        point._fill(left, center, right, pos)
        return point

    def _fill(self, left, center, right, pos: int) -> None:
        self.left, self.center, self.right, self.pos = left, center, right, pos
        # e(x): both rays are periodic beyond |i| = max(-pos, end), so by Fine
        # and Wilf distinct points differ at some |i| < e(x) + e(y)
        self.extent = max(-pos, pos + len(center), 0) + len(left) + len(right)

    @classmethod
    def from_cycle(cls, word: Sequence[int], phase: int = 0) -> "ShiftPoint":
        """The periodic point x with x_i = word[(i + phase) mod len]."""
        return cls(word, (), word, -phase)

    @classmethod
    def cycle_orbit(cls, word: Sequence[int]) -> list["ShiftPoint"]:
        """sigma^i x for i < len(word), x = from_cycle(word): one canonical
        point per rotation of the word's primitive block, each with its
        forward key at _FIRST_RADIUS cut from one integer."""
        word = tuple(int(s) for s in word)
        if not word:
            raise ValueError("tails must be non-empty periodic words")
        block = word[:_primitive_period(word)]
        orbit = []
        for k, key in enumerate(_windows("".join(map(chr, block)), _FIRST_RADIUS,
                                         range(len(block)))):
            rotated = block[k:] + block[:k]
            point = cls._canonical(rotated, (), rotated, 0)
            point._forward = _FIRST_RADIUS, key
            orbit.append(point)
        return orbit * (len(word) // len(block))

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

    def key(self, radius: int) -> int:
        """Interleaved x_0, x_1, x_-1, ..., x_radius, x_-radius: 2 * radius + 1
        symbols.  Keys of points with agreement radius k first differ at
        symbol 2k-1 or 2k, below 2 * radius + 1 if radius >= e(x) + e(y)."""
        built, key = getattr(self, "_key", (-1, 0))  # built lazily
        if built < radius:
            built = max(radius, 2 * built)  # grow at least twofold
            key = _digits(_interleave(self.text(-built, 1)[::-1], self.text(1, built + 1)))
            self._key = built, key
        return key >> (2 * WIDTH * (built - radius))

    def forward_key(self, length: int) -> int:
        """x_0, ..., x_{length-1}: ``length`` symbols."""
        built, key = getattr(self, "_forward", (-1, 0))  # built lazily
        if built < length:
            built = max(length, 2 * built)  # grow at least twofold
            key = _digits(self.text(0, built))
            self._forward = built, key
        return key >> (WIDTH * (built - length))

    def backward_key(self, length: int) -> int:
        """x_-1, ..., x_-length: ``length`` symbols."""
        built, key = getattr(self, "_backward", (-1, 0))  # built lazily
        if built < length:
            built = max(length, 2 * built)  # grow at least twofold
            key = _digits(self.text(-built, 0)[::-1])
            self._backward = built, key
        return key >> (WIDTH * (built - length))

    def agreement_radius(self, other: "ShiftPoint") -> int | float:
        """Largest k with x_i = y_i for all |i| < k; math.inf for x = y."""
        for radius in _rungs(lambda: self.extent + other.extent):
            bits = (self.key(radius) ^ other.key(radius)).bit_length()
            if bits:
                return (_common_prefix(bits, 2 * radius + 1) + 1) // 2
        return math.inf

    def distance(self, other: "ShiftPoint") -> float:
        return 0.0 if self == other else _radius_distance(self.agreement_radius(other))

    def __eq__(self, other) -> bool:
        return (isinstance(other, ShiftPoint) and self.pos == other.pos
                and self.center == other.center and self.right == other.right
                and self.left == other.left)

    def __hash__(self) -> int:
        return hash((self.left, self.center, self.right, self.pos))

    def centered_word(self, radius: int) -> str:
        """Coordinates -radius..radius-1 with a dot before coordinate 0."""
        return ".".join(spell(self.window(lo, lo + radius)) for lo in (-radius, 0))

    def __repr__(self) -> str:
        return f"ShiftPoint({self.centered_word(8)!r})"


def _repeat(word, start: int, length: int):
    """``length`` symbols of the periodic word from index start (mod len)."""
    off = start % len(word)
    return (word * ((off + length) // len(word) + 1))[off:off + length]


def _radius_distance(k: int) -> float:
    return max(2.0 ** -k, math.ulp(0.0))


def _common_prefix(bits: int, size: int) -> int:
    """The number of leading symbols shared by two keys of ``size`` symbols
    whose XOR is ``bits`` bits long."""
    return size - -(-bits // WIDTH)


def _digits(text: str) -> int:
    """The symbols chr(s) of ``text`` as a key, the first most significant."""
    return int.from_bytes(text.encode("utf-32-be", "surrogatepass"), "big")


def _interleave(back, forward) -> str:
    """back[0], forward[0], back[1], forward[1], ..., back[-1]."""
    chars = [""] * (len(back) + len(forward))
    chars[0::2] = back
    chars[1::2] = forward
    return "".join(chars)


def _rungs(last):
    """Key radii: _FIRST_RADIUS, doubled while below last(), then last()
    itself; last is called only when a second rung is asked for."""
    radius = _FIRST_RADIUS
    yield radius
    last = last()
    while radius < last:
        radius = min(2 * radius, last)
        yield radius


def _windows(unit: str, length: int, starts: Iterable[int]) -> Iterator[int]:
    """The key of the ``length`` symbols from each start (mod len(unit)) of
    the cyclic word ``unit`` of chr(symbol)s: a shift and mask of one
    integer cut from its repetitions, one key at a time."""
    n = len(unit)
    text = (unit * (length // n + 2))[:n + length - 1]  # every window from a start < n
    digits, mask, top = _digits(text), (1 << WIDTH * length) - 1, len(text) - length
    return (digits >> WIDTH * (top - k % n) & mask for k in starts)


class _SortedKeys:
    """Keys of one size, the set of them, and that set sorted with its least
    and greatest key repeated at the ends: a neighbour either side of every
    key bisected in.  A key among them reads 0 from one hash, as most query
    keys do; any other shares its longest prefix with them at its neighbour
    before or after."""

    __slots__ = ("keys", "distinct", "ranked")

    def __init__(self, keys: list[int]):
        self.keys, self.distinct = keys, set(keys)
        ranked = sorted(self.distinct)
        self.ranked = [ranked[0], *ranked, ranked[-1]]

    def least_bits(self, keys: Iterable[int]) -> dict:
        """For each of the distinct ``keys`` the least bit length of its XOR
        with one of these keys, as a dict keyed by the keys."""
        distinct, ranked, top = self.distinct, self.ranked, len(self.ranked) - 1
        least = {}
        for key in keys:
            if key in distinct:
                least[key] = 0
            else:
                i = bisect_left(ranked, key, 1, top)
                least[key] = min((key ^ ranked[i - 1]).bit_length(), (key ^ ranked[i]).bit_length())
        return least


class _KeyIndex:
    """The index of a reference point set: its points' keys, cut once per
    key kind (``ShiftPoint.key`` or ``ShiftPoint.forward_key``) and size
    and kept as :class:`_SortedKeys`, and their largest extent.  The two
    point-set queries measure against it: the Hausdorff distance of a set
    to the reference, cut at each rung it reaches, and the forward distance
    of each reference point to a set, cut once at the window."""

    def __init__(self, points: Sequence[ShiftPoint]):
        self.points = points
        self.extent = max((y.extent for y in points), default=0)
        self._cuts: dict = {}  # (cut, radius) -> _SortedKeys

    def keys(self, cut, radius: int) -> _SortedKeys:
        entry = self._cuts.get((cut, radius))
        if entry is None:
            entry = self._cuts[cut, radius] = _SortedKeys([cut(y, radius) for y in self.points])
        return entry

    def hausdorff(self, xs: Sequence[ShiftPoint]) -> float:
        """max(max_x d(x, reference), max_y d(y, xs)), exactly, from the least
        XOR of each side at each rung: the first nonzero largest one settles
        it; an empty set raises ValueError."""
        if not xs or not self.points:
            raise ValueError("distance to an empty point set")
        for radius in _rungs(lambda: max(x.extent for x in xs) + self.extent):
            ys, mine = self.keys(ShiftPoint.key, radius), _SortedKeys([x.key(radius) for x in xs])
            bits = max(*ys.least_bits(mine.distinct).values(),
                       *mine.least_bits(ys.distinct).values())
            if bits:
                break
        return _radius_distance((_common_prefix(bits, 2 * radius + 1) + 1) // 2) if bits else 0.0

    def forward(self, points: Sequence[ShiftPoint], length: int) -> list[float]:
        """For each reference point y, 2^-m with m the longest common prefix
        of y_0..y_{length-1} with x_0..x_{length-1} for some x in points,
        read off the least XOR of y's forward key with those of ``points``,
        all cut once at ``length``: m is ``length`` where that XOR is zero.
        Each distinct key of the reference points is read once.  No
        reference points give []; an empty ``points`` raises ValueError."""
        if not self.points:
            return []
        if not points:
            raise ValueError("distance to an empty point set")
        ys = self.keys(ShiftPoint.forward_key, length)
        least = _SortedKeys([x.forward_key(length) for x in points]).least_bits(ys.distinct)
        read = {key: 2.0 ** -_common_prefix(bits, length) for key, bits in least.items()}
        return list(map(read.get, ys.keys))


def cycle_distances(word: Sequence[int], points: Sequence[ShiftPoint]) -> list[float]:
    """d(sigma^i x, points[i]) for each i, exactly, with x the periodic point
    x_j = word[j mod len(word)], with no point built.  At each rung R the
    one-sided keys x_0..x_R and x_-1..x_-R of every sigma^i x still open are
    cut from two integers, the repeated word and its reverse.  With f and b
    their common prefixes with those of points[i], sigma^i x and points[i]
    agree on |j| < min(f, b + 1), the coordinates that the interleaved key
    at radius R covers: R + 1 less the symbols of the longer XOR of the two,
    and R + 1 (open) when both are zero."""
    n, unit = len(word), "".join(map(chr, word))
    out, todo = [0.0] * len(points), range(len(points))
    # e(sigma^i x) <= 2n
    for radius in _rungs(lambda: max(y.extent for y in points) + 2 * n):
        # sigma^i x: x_j = unit[(i + j) % n], x_-1-j = unit[::-1][(j - i) % n]
        forward = _windows(unit, radius + 1, todo)
        backward = _windows(unit[::-1], radius, (-i for i in todo))
        still = []
        for i, f, b in zip(todo, forward, backward):
            y = points[i]
            bits = max((f ^ y.forward_key(radius + 1)).bit_length(),
                       (b ^ y.backward_key(radius)).bit_length())
            if bits:
                out[i] = _radius_distance(_common_prefix(bits, radius + 1))
            else:
                still.append(i)
        todo = still
        if not todo:
            break
    return out


def word_radius(epsilon: float) -> int:
    """Smallest m >= 0 with 2^-m <= epsilon (epsilon in (0, 1])."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    m = 0
    while 2.0 ** (-m) > epsilon:
        m += 1
    return m
