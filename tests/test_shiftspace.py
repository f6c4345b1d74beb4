"""Exact bi-infinite shift points: indexing, shifting, metric.

The properties compare the canonical points against oracles that read the
raw presentations coordinate by coordinate.
"""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import index_builds
from symshadow.homoclinic import (PseudoOrbit, build_periodic_pseudo_orbit,
                                  compute_excursion_parameters, verify_pseudo_orbit)
from symshadow.sft import TransitionMatrix
from symshadow.shadowing import DensityReport, density_check, shadow_periodic
from symshadow.shiftspace import (_FIRST_RADIUS, WIDTH, ShiftPoint, _KeyIndex, _SortedKeys,
                                  _digits, cycle_distances, word_radius)
from symshadow.systems import SftSystem, homoclinic_point


def point_is_admissible(point, matrix):
    """Every transition of the point, read over its tails' extent and one
    more symbol each side, is allowed by the matrix."""
    return matrix.is_admissible_word(point.window(-point.extent - 1, point.extent + 2))


def cylinder_contains(point, word, anchor=0):
    """Does the point carry ``word`` at positions anchor..anchor+len-1?"""
    return point.window(anchor, anchor + len(word)) == tuple(word)


def test_cycle_point_coordinates():
    p = ShiftPoint.from_cycle((0, 1))
    assert [p[i] for i in range(-4, 4)] == [0, 1, 0, 1, 0, 1, 0, 1]
    q = ShiftPoint.from_cycle((0, 1), phase=1)
    assert [q[i] for i in range(-2, 2)] == [1, 0, 1, 0]


def test_shift_moves_coordinates():
    p = ShiftPoint((0,), (1, 1), (0,), pos=0)
    assert p[0] == 1 and p[2] == 0
    s = p.shift(1)
    assert s[0] == p[1] and s[-1] == p[0] and s[1] == p[2]
    assert p.shift(3).shift(-3) == p


def test_distance_is_two_power_of_agreement():
    p = ShiftPoint.from_cycle((0, 1))
    q = ShiftPoint((1, 0), (0, 0), (0, 1), pos=-1)  # agrees near 0, breaks outside
    k = p.agreement_radius(q)
    assert k == 1
    assert p.distance(q) == 2.0 ** (-k)
    assert p.distance(p.shift(2)) == 0.0  # period-2 point: shift by 2 is identity


def test_equality_of_different_presentations():
    a = ShiftPoint.from_cycle((0, 1, 0, 1))
    b = ShiftPoint.from_cycle((0, 1))
    assert a == b
    c = ShiftPoint.from_cycle((0, 1), phase=1)
    assert a != c


def test_homoclinic_like_point_tails():
    q = ShiftPoint((1, 0), (), (0, 1), pos=0)  # ...1010 . 0101...
    assert [q[i] for i in range(-4, 4)] == [1, 0, 1, 0, 0, 1, 0, 1]
    p = ShiftPoint.from_cycle((0, 1))
    assert q.shift(10).distance(p) < 2.0 ** -8  # forward tail falls into O(p)


def test_cylinder_contains_and_admissibility():
    gm = TransitionMatrix.golden_mean()
    q = ShiftPoint((0,), (0, 1), (0,), pos=0)
    assert cylinder_contains(q, (0, 1))
    assert not cylinder_contains(q, (1, 1))
    assert point_is_admissible(q, gm)
    bad = ShiftPoint((0,), (1, 1), (0,), pos=0)
    assert not point_is_admissible(bad, gm)


def test_centered_word():
    q = ShiftPoint((1, 0), (), (0, 1), pos=0)
    assert q.centered_word(3) == "010.010"


def test_word_radius():
    assert word_radius(1.0) == 0
    assert word_radius(0.5) == 1
    assert word_radius(0.25) == 2
    assert word_radius(0.3) == 2
    with pytest.raises(ValueError):
        word_radius(0.0)
    with pytest.raises(ValueError):
        word_radius(2.0)


# -- oracles on raw presentations -----------------------------------------------


def raw_coordinate(raw, i):
    """x_i of the presentation (left, center, right, pos), read directly."""
    left, center, right, pos = raw
    end = pos + len(center)
    if pos <= i < end:
        return center[i - pos]
    if i >= end:
        return right[(i - end) % len(right)]
    return left[(i - pos) % len(left)]


def raw_span(raw, other):
    """A radius beyond which two presentations cannot first disagree: both
    rays are periodic past the centers, and periodic words that agree on
    len(u) * len(v) >= lcm symbols agree everywhere."""
    (l1, c1, r1, p1), (l2, c2, r2, p2) = raw, other
    return (abs(p1) + len(c1) + abs(p2) + len(c2)
            + len(l1) * len(l2) + len(r1) * len(r2) + 2)


def oracle_radius(raw, other, cap):
    """The coordinate loop: largest k <= cap with x_i = y_i for all |i| < k."""
    k = 0
    while k < cap:
        if (raw_coordinate(raw, k) != raw_coordinate(other, k)
                or raw_coordinate(raw, -k) != raw_coordinate(other, -k)):
            return k
        k += 1
    return cap


def oracle_equal(raw, other):
    cap = raw_span(raw, other)
    return oracle_radius(raw, other, cap) == cap


def point(raw):
    return ShiftPoint(*raw)


def re_present(raw, take_right, take_left, rep_left, rep_right):
    """The same sequence written differently: ``take_right`` symbols of the
    right tail and ``take_left`` of the left tail moved into the center,
    then each tail repeated."""
    left, center, right, pos = raw
    a = take_right % len(right)
    center = center + tuple(raw_coordinate(raw, pos + len(center) + j)
                            for j in range(take_right))
    right = right[a:] + right[:a]
    b = take_left % len(left)
    center = tuple(raw_coordinate(raw, pos - take_left + j)
                   for j in range(take_left)) + center
    left = left[-b:] + left[:-b] if b else left
    return (left * rep_left, center, right * rep_right, pos - take_left)


symbols = st.integers(0, 1)
raws = st.tuples(st.lists(symbols, min_size=1, max_size=7).map(tuple),
                 st.lists(symbols, max_size=6).map(tuple),
                 st.lists(symbols, min_size=1, max_size=7).map(tuple),
                 st.integers(-6, 6))


@given(raws, st.integers(0, 5), st.integers(0, 5), st.integers(1, 3), st.integers(1, 3))
def test_presentations_of_one_sequence_are_equal(raw, a, b, kl, kr):
    other = re_present(raw, a, b, kl, kr)
    assert all(raw_coordinate(raw, i) == raw_coordinate(other, i) for i in range(-30, 30))
    x, y = point(raw), point(other)
    assert x == y and hash(x) == hash(y)
    assert (x.left, x.center, x.right, x.pos) == (y.left, y.center, y.right, y.pos)
    assert x.distance(y) == 0.0 and x.agreement_radius(y) == math.inf


@given(raws, st.integers(-8, 8))
def test_coordinates_windows_and_shift_match_the_presentation(raw, k):
    x = point(raw)
    assert [x[i] for i in range(-20, 20)] == [raw_coordinate(raw, i) for i in range(-20, 20)]
    assert x.window(-20, 20) == tuple(raw_coordinate(raw, i) for i in range(-20, 20))
    assert x.text(-3, 9) == "".join(chr(raw_coordinate(raw, i)) for i in range(-3, 9))
    s = x.shift(k)
    assert s.window(-12, 12) == tuple(raw_coordinate(raw, i + k) for i in range(-12, 12))
    assert s.shift(-k) == x


@given(raws, raws, st.integers(-8, 8))
def test_metric_matches_the_coordinate_loop(raw, other, k):
    # a shift of the same point gives near pairs as well as far ones
    for raw_y in (other, re_present(raw, 0, 0, 1, 1)[:3] + (raw[3] - k,)):
        x, y = point(raw), point(raw_y)
        r = oracle_radius(raw, raw_y, raw_span(raw, raw_y))
        same = oracle_equal(raw, raw_y)
        assert (x == y) == same
        if same:
            assert hash(x) == hash(y) and x.distance(y) == 0.0
        else:
            assert x.agreement_radius(y) == y.agreement_radius(x) == r
            assert x.distance(y) == 2.0 ** -r > 0.0
    period = next((p for p in range(1, 8) if oracle_equal(raw, raw[:3] + (raw[3] - p,))),
                  None)
    assert point(raw).period() == period


def test_agreement_far_out_in_long_tails():
    # no center: the rays first differ deep inside the left tails
    x = ShiftPoint((0, 0, 0, 0, 0, 1), (), (0,))
    y = ShiftPoint((0, 0, 0, 0, 0, 0, 0, 1), (), (0,))
    assert x.agreement_radius(y) == 7 and x.distance(y) == 2.0 ** -7
    assert _KeyIndex([y]).hausdorff([x]) == 2.0 ** -7


def test_distinct_points_stay_apart_beyond_float_range():
    p = ShiftPoint.from_cycle((0,))
    far = ShiftPoint((0,), (1,), (0,), pos=2000)
    assert far != p and hash(far) != hash(p)
    assert p.agreement_radius(far) == 2000
    assert p.distance(far) > 0.0 and far.distance(p) > 0.0
    assert _KeyIndex([p]).hausdorff([far]) == p.distance(far)
    assert _KeyIndex([ShiftPoint((0,), (1,), (0,), pos=2000)]).hausdorff([far]) == 0.0
    near = ShiftPoint((0,), (1,), (0,), pos=60)
    assert p.distance(near) == 2.0 ** -60


def test_cyclic_period_is_exact_on_shift_points():
    # distinct points that agree on |i| < 50 are not one point
    p = ShiftPoint.from_cycle((0,))
    q = ShiftPoint((0,), (1,), (0,), pos=50)
    system = SftSystem(TransitionMatrix.full_shift(2))
    assert system.cyclic_period([p, q, p, q]) == 2
    assert system.cyclic_period([p, ShiftPoint((0, 0), (), (0,), pos=3)]) == 1


# -- integer keys: wide symbols, first differences beyond radius 1000 -----------

# the smallest and largest symbols chr() accepts, the one-byte edge and a surrogate
WIDE = (0, 255, 256, 0xD800, 0x10FFFF)
wide_words = st.lists(st.sampled_from(WIDE), min_size=1, max_size=3).map(tuple)
offsets = st.one_of(st.integers(-6, 6), st.integers(1000, 1100), st.integers(-1100, -1000))


@st.composite
def far_sets(draw):
    """Points over one periodic tail whose centers sit near 0 or beyond
    radius 1000, so that pairs first differ there, with the tail's periodic
    point and points of random wide tails beside them."""
    tail = draw(wide_words)
    points = [ShiftPoint(tail, center, tail, pos=k) for center, k in
              draw(st.lists(st.tuples(wide_words, offsets), min_size=1, max_size=5))]
    points += [ShiftPoint(left, center, right, pos=k) for left, center, right, k in
               draw(st.lists(st.tuples(wide_words, wide_words, wide_words, offsets),
                             max_size=2))]
    if draw(st.booleans()):
        points.append(ShiftPoint.from_cycle(tail, draw(st.integers(0, 2))))
    return draw(st.permutations(points))


def raw_of(x):
    return (x.left, x.center, x.right, x.pos)


@settings(max_examples=40, deadline=None)
@given(far_sets(), far_sets())
def test_distance_on_wide_far_points_matches_the_coordinate_loop(xs, ys):
    for x in xs:
        for y in ys:
            raw, other = raw_of(x), raw_of(y)
            if oracle_equal(raw, other):
                assert x.distance(y) == 0.0 and x == y
            else:
                r = oracle_radius(raw, other, raw_span(raw, other))
                assert x.agreement_radius(y) == r
                assert x.distance(y) == max(2.0 ** -r, math.ulp(0.0))


@given(wide_words, wide_words, wide_words, offsets, st.integers(0, 40), st.integers(0, 40))
def test_keys_hold_the_interleaved_coordinates(left, center, right, k, radius, longer):
    x = ShiftPoint(left, center, right, pos=k)
    raw = (left, center, right, k)
    coords = [raw_coordinate(raw, 0)]
    for i in range(1, radius + 1):
        coords += [raw_coordinate(raw, i), raw_coordinate(raw, -i)]
    expected = 0
    for c in coords:
        expected = (expected << WIDTH) | c
    # a key cut from a longer key built before is the key built afresh
    x.key(radius + longer)
    assert x.key(radius) == ShiftPoint(left, center, right, pos=k).key(radius) == expected
    forward = backward = 0
    for i in range(radius):
        forward = (forward << WIDTH) | raw_coordinate(raw, i)
        backward = (backward << WIDTH) | raw_coordinate(raw, -1 - i)
    x.forward_key(radius + longer)
    x.backward_key(radius + longer)
    fresh = ShiftPoint(left, center, right, pos=k)
    assert x.forward_key(radius) == fresh.forward_key(radius) == forward
    assert x.backward_key(radius) == fresh.backward_key(radius) == backward


def symbols_of(key, length):
    """The ``length`` symbols of a key, the first most significant."""
    return tuple(key >> WIDTH * (length - 1 - i) & (1 << WIDTH) - 1 for i in range(length))


@given(st.one_of(st.lists(st.sampled_from(WIDE), min_size=1, max_size=40).map(tuple),
                 st.tuples(wide_words, st.integers(2, 12)).map(lambda t: t[0] * t[1])))
def test_a_cycle_orbit_is_the_shifted_cycle_point(word):
    # a word of wide symbols, or a repeated one (primitive period below its length)
    orbit = ShiftPoint.cycle_orbit(word)
    shifts = [ShiftPoint.from_cycle(word).shift(i) for i in range(len(word))]
    assert orbit == shifts and list(map(hash, orbit)) == list(map(hash, shifts))
    assert list(map(raw_of, orbit)) == list(map(raw_of, shifts))  # canonical
    assert {x._forward[0] for x in orbit} == {_FIRST_RADIUS}
    for i, x in enumerate(orbit):
        # the pre-cut key is the key built afresh, and longer keys extend it
        expected = tuple(word[(i + j) % len(word)] for j in range(2 * _FIRST_RADIUS + 1))
        assert symbols_of(x.forward_key(_FIRST_RADIUS), _FIRST_RADIUS) == expected[:_FIRST_RADIUS]
        assert x.forward_key(_FIRST_RADIUS) == shifts[i].forward_key(_FIRST_RADIUS)
        assert x.forward_key(len(expected)) == shifts[i].forward_key(len(expected))
        assert symbols_of(x.forward_key(len(expected)), len(expected)) == expected


def test_a_cycle_orbit_pre_cuts_keys_of_one_length_whatever_the_word():
    word = tuple(i * 7919 % 0x110000 for i in range(1000))
    orbit = ShiftPoint.cycle_orbit(word)
    assert len(orbit) == 1000 and orbit[999] == ShiftPoint.from_cycle(word, 999)
    assert {x._forward[0] for x in orbit} == {_FIRST_RADIUS}
    assert max(x._forward[1].bit_length() for x in orbit) <= WIDTH * _FIRST_RADIUS
    # nothing else is cut ahead of a query
    assert not any(hasattr(x, "_key") or hasattr(x, "_backward") for x in orbit)
    with pytest.raises(ValueError):
        ShiftPoint.cycle_orbit(())


@given(far_sets(), far_sets())
def test_point_set_distances_on_wide_far_points_match_the_pairwise_scan(xs, ys):
    there = [min(x.distance(y) for y in ys) for x in xs]
    back = [min(y.distance(x) for x in xs) for y in ys]
    assert _KeyIndex(ys).hausdorff(xs) == _KeyIndex(xs).hausdorff(ys) == max(there + back)
    po = PseudoOrbit(SftSystem(TransitionMatrix.full_shift(2)), xs)
    report = verify_pseudo_orbit(po, 1.0, reference=ys)
    assert report["hausdorff_to_reference"] == max(there + back)


@given(st.data())
def test_cycle_distances_match_the_pairwise_scan(data):
    points = data.draw(far_sets())
    n = len(points)
    # any cyclic word of length n, or a repeated one (primitive period < n)
    word = data.draw(st.one_of(
        st.lists(st.sampled_from(WIDE), min_size=n, max_size=n).map(tuple),
        wide_words.map(lambda unit: (unit * n)[:n])))
    shifts = [ShiftPoint.from_cycle(word).shift(i) for i in range(n)]
    for i in data.draw(st.sets(st.integers(0, n - 1))):
        points[i] = shifts[i]
    assert cycle_distances(word, points) == [x.distance(y) for x, y in zip(shifts, points)]


def forward_window_density(orbit, epsilon, net_points):
    """The coordinate-by-coordinate forward-window loop on raw presentations."""
    cap = max(word_radius(min(epsilon, 1.0)) + 8, 16)
    worst, witness = -1.0, None
    for y in net_points:
        best = 0
        for x in orbit:
            lcp = 0
            while lcp < cap and raw_coordinate(raw_of(x), lcp) == raw_coordinate(raw_of(y), lcp):
                lcp += 1
            best = max(best, lcp)
        if 2.0 ** -best > worst:
            worst, witness = 2.0 ** -best, y
    return worst <= epsilon, worst, None if worst <= epsilon else witness


@settings(max_examples=40, deadline=None)
@given(far_sets(), far_sets(),
       st.sampled_from([4.0, 1.0, 0.5, 2.0 ** -20, 2.0 ** -1000, math.ulp(0.0)]))
def test_symbolic_density_on_wide_far_points_matches_the_window_loop(orbit, net_points,
                                                                     epsilon):
    # at the finest epsilons the window reaches past radius 1000
    report = density_check(SftSystem(TransitionMatrix.full_shift(2)), orbit, epsilon,
                           net_points=net_points)
    dense, worst, witness = forward_window_density(orbit, epsilon, net_points)
    assert (report.dense, report.worst_distance) == (dense, worst)
    assert report.witness is witness


def test_point_set_queries_far_out_and_on_empty_sets():
    top = ShiftPoint.from_cycle((0x10FFFF,))
    near, far = (ShiftPoint((0x10FFFF,), (0,), (0x10FFFF,), pos=k) for k in (1000, 1500))
    assert cycle_distances((0x10FFFF,), [near]) == [2.0 ** -1000]
    assert cycle_distances((0x10FFFF,), [far]) == [math.ulp(0.0)]
    # points past one period of the word follow its phases around again
    assert cycle_distances((0x10FFFF,), [top, near, far]) == [0.0, 2.0 ** -1000, math.ulp(0.0)]
    assert _KeyIndex([near]).hausdorff([top, far]) == 2.0 ** -1000
    assert [_KeyIndex([near]).hausdorff([x]) for x in (top, far)] == [2.0 ** -1000] * 2
    assert [_KeyIndex([far.shift(1)]).hausdorff([x]) for x in (top, near)] \
        == [math.ulp(0.0), 2.0 ** -1000]
    for xs, ys in (([top], []), ([], [top])):
        with pytest.raises(ValueError, match="empty point set"):
            _KeyIndex(ys).hausdorff(xs)


# -- keys cut by rungs: agreement past the first rung, equal points, duplicates --


def brute_radius(x, y):
    """Largest k with x_i = y_i for all |i| < k, read symbol by symbol over
    |i| < e(x) + e(y), past which distinct points cannot first differ;
    math.inf when they agree there."""
    for k in range(x.extent + y.extent):
        if x[k] != y[k] or x[-k] != y[-k]:
            return k
    return math.inf


def brute_distance(x, y):
    k = brute_radius(x, y)
    return 0.0 if k == math.inf else max(2.0 ** -k, math.ulp(0.0))


three = st.integers(0, 2)
short_words = st.lists(three, max_size=4).map(tuple)


@st.composite
def cored_points(draw, core):
    """A point carrying ``core`` across coordinate 0, with random tails and
    random words either side of the core."""
    before, after = draw(short_words), draw(short_words)
    pos = -len(before) - len(core) // 2 + draw(st.integers(-2, 2))
    return ShiftPoint(draw(short_words.filter(bool)), before + core + after,
                      draw(short_words.filter(bool)), pos)


@st.composite
def cored_sets(draw, core):
    """Points sharing ``core``, with duplicates: a point twice, a point and a
    presentation of it with longer tails, and the core's periodic point."""
    points = draw(st.lists(cored_points(core), min_size=1, max_size=4))
    x = draw(st.sampled_from(points))
    points += draw(st.sampled_from([[], [x], [ShiftPoint(x.left * 2, x.center, x.right * 3,
                                                          x.pos)]]))
    if draw(st.booleans()):
        points.append(ShiftPoint.from_cycle(core, draw(st.integers(0, len(core) - 1))))
    return draw(st.permutations(points))


# cores longer than 2 * _FIRST_RADIUS: points agree past the first rung, and
# past the second on the longest
cores = st.lists(three, min_size=2 * _FIRST_RADIUS + 1, max_size=5 * _FIRST_RADIUS).map(tuple)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_query_matches_the_brute_radius_at_every_rung(data):
    core = data.draw(cores)
    xs, ys = data.draw(cored_sets(core)), data.draw(cored_sets(core))
    for x in xs:
        for y in ys:
            k = brute_radius(x, y)
            assert x.agreement_radius(y) == y.agreement_radius(x) == k
            assert x.distance(y) == _KeyIndex([y]).hausdorff([x]) == brute_distance(x, y)
    there = [min(brute_distance(x, y) for y in ys) for x in xs]
    back = [min(brute_distance(y, x) for x in xs) for y in ys]
    assert _KeyIndex(ys).hausdorff(xs) == _KeyIndex(xs).hausdorff(ys) == max(there + back)
    # the orbit of the core's periodic point against the points, some of them its own
    shifts = [ShiftPoint.from_cycle(core).shift(i) for i in range(len(xs))]
    points = [shifts[i] if data.draw(st.booleans()) else x for i, x in enumerate(xs)]
    assert cycle_distances(core, points) == [brute_distance(s, y)
                                             for s, y in zip(shifts, points)]


def brute_forward(y, points, length):
    """2^-m for the longest common prefix m <= length of y_0, y_1, ... with
    that of some x in points, read symbol by symbol."""
    return min(2.0 ** -next((i for i in range(length) if x[i] != y[i]), length)
               for x in points)


@functools.cache
def homoclinic_datum():
    return homoclinic_point(SftSystem(TransitionMatrix.full_shift(2)), (0, 1), 2.0 ** -3)


def homoclinic_reference():
    """Fresh copies of the points of a homoclinic datum's segment and p-orbit
    on the full 2-shift, with no keys cut."""
    datum = homoclinic_datum()
    return [ShiftPoint(y.left, y.center, y.right, y.pos) for y in [*datum.segment, *datum.p_orbit]]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_kept_reference_index_answers_as_the_brute_scan_warm_and_cold(data):
    core = data.draw(cores)
    points, reference = data.draw(cored_sets(core)), data.draw(cored_sets(core))
    length = data.draw(st.integers(1, 2 * len(core)))  # up to rungs past 2 * _FIRST_RADIUS

    def answers(system, reference):
        return (system.hausdorff(points, reference),
                system.forward_distances(reference, points, length))

    def brute(reference):
        back = [min(brute_distance(y, x) for x in points) for y in reference]
        there = [min(brute_distance(x, y) for y in reference) for x in points]
        return max(there + back), [brute_forward(y, points, length) for y in reference]

    system = SftSystem(TransitionMatrix.full_shift(3))  # a cold slot
    with index_builds() as builds:
        assert answers(system, reference) == answers(system, reference) == brute(reference)
        assert len(builds) == 1  # warm: each query and the second pass reuse it
        # equal points, not the same objects, with no keys cut yet
        fresh = [ShiftPoint(y.left, y.center, y.right, y.pos) for y in reference]
        assert answers(system, fresh) == brute(fresh) and len(builds) == 2
        x = points[0]
        reference[0], fresh[-1] = (ShiftPoint(x.left, x.center, x.right, x.pos) for _ in "ab")
        for changed in (reference, fresh):  # each mutated in place
            expected = answers(SftSystem(TransitionMatrix.full_shift(3)), changed)
            assert answers(system, changed) == expected == brute(changed)
        assert len(builds) == 6  # each mutated set indexed anew, and once by each cold system

    # a homoclinic datum's reference: 243 points over 17 distinct forward keys
    # at length 16, so each key settles many points.  Queries that keep apart
    # from it (a symbol 2 at |i| <= 1) at a window up to _FIRST_RADIUS, and
    # queries some of which are its own points, equal over the whole window,
    # at a window past it: each query is one forward cut, at its window
    reference = homoclinic_reference()
    apart = ShiftPoint.cycle_orbit((2, 2, 0)) + [x for x in points if 2 in x.window(-1, 2)]
    shared = points + data.draw(st.lists(st.sampled_from(reference), min_size=1, max_size=3))
    short = data.draw(st.integers(1, _FIRST_RADIUS))
    for queries, size in ((apart, short), (shared, _FIRST_RADIUS + length)):
        forward = [brute_forward(y, queries, size) for y in reference]
        index = _KeyIndex(reference)
        assert index.forward(queries, size) == forward
        assert list(index._cuts) == [(ShiftPoint.forward_key, size)]
        system = SftSystem(TransitionMatrix.full_shift(3))
        assert system.forward_distances(reference, queries, size) == forward


def shadow_density(epsilon):
    """The bench's symbolic shadow op at N0 on the full 2-shift: the density
    of the shadow orbit, a cycle orbit, against fresh copies of the datum's
    reference, with the orbit, the reference and the index the check read."""
    datum = homoclinic_datum()
    params = compute_excursion_parameters(datum)
    orbit = shadow_periodic(datum.system, build_periodic_pseudo_orbit(datum, params, params.N0))
    system, reference = SftSystem(TransitionMatrix.full_shift(2)), homoclinic_reference()
    pre_cut = [x._forward for x in orbit.points]
    report = density_check(system, orbit.points, epsilon, net_points=reference)
    return report, orbit.points, pre_cut, reference, system._reference[1]


def test_a_sixteen_symbol_density_check_reads_the_pre_cut_orbit_keys():
    # 3 delta, as the bench shadow ops ask: a 16-symbol window
    report, orbit, pre_cut, reference, index = shadow_density(3 * homoclinic_datum().delta)
    assert all(x._forward is kept for x, kept in zip(orbit, pre_cut))  # none grown or cut again
    assert {length for length, _ in pre_cut} == {_FIRST_RADIUS}
    assert list(index._cuts) == [(ShiftPoint.forward_key, _FIRST_RADIUS)]
    assert {y._forward[0] for y in reference} == {_FIRST_RADIUS}
    assert report.worst_distance == max(brute_forward(y, orbit, _FIRST_RADIUS)
                                        for y in reference)


def test_a_density_check_past_sixteen_symbols_matches_the_brute_scan():
    epsilon = 2.0 ** -12  # below 2^-8: a 20-symbol window
    size = word_radius(epsilon) + 8
    report, orbit, _, reference, index = shadow_density(epsilon)
    assert size > _FIRST_RADIUS and list(index._cuts) == [(ShiftPoint.forward_key, size)]
    forward = [brute_forward(y, orbit, size) for y in reference]
    worst = max(forward)
    assert report == DensityReport(worst <= epsilon, worst,
                                   None if worst <= epsilon else reference[forward.index(worst)])


@st.composite
def key_sets(draw):
    """Query keys and other keys of one width, each a shared word cut at a
    random length and finished with random symbols: long shared prefixes,
    leading zero symbols, repeated keys and query keys among the others."""
    size = draw(st.integers(1, 10))
    symbols = st.integers(0, 4)
    word = draw(st.lists(symbols, min_size=size, max_size=size))

    def keys(min_size, max_size):
        out = []
        for _ in range(draw(st.integers(min_size, max_size))):
            cut = draw(st.integers(0, size))
            tail = draw(st.lists(symbols, min_size=size - cut, max_size=size - cut))
            out.append(_digits("".join(map(chr, word[:cut] + tail))))
        return out + draw(st.lists(st.sampled_from(out), max_size=2))  # repeats
    others = keys(1, 6)
    queries = keys(1, 6) + draw(st.lists(st.sampled_from(others), max_size=2))
    return draw(st.permutations(queries)), draw(st.permutations(others))


@given(key_sets())
def test_least_bits_match_the_brute_minimum(sets):
    def least_bits(keys, others):
        return _SortedKeys(others).least_bits(set(keys))

    keys, others = sets
    assert least_bits(keys, others) == {key: min((key ^ other).bit_length() for other in others)
                                        for key in keys}
    # one-element sets either side
    assert least_bits(keys[:1], others) == {keys[0]: min((keys[0] ^ o).bit_length()
                                                         for o in others)}
    assert least_bits(keys, others[:1]) == {key: (key ^ others[0]).bit_length() for key in keys}


def test_deep_agreement_and_equal_points_reach_the_last_rung():
    core = (0, 1, 2) * 30  # agreement radius 44 or more: three rungs
    x, y = (ShiftPoint((0,), core + tail, (1,), pos=-45) for tail in ((0,), (2,)))
    assert x.agreement_radius(y) == brute_radius(x, y) == 45
    twin = ShiftPoint((0, 0), core + (0,), (1, 1), pos=-45)
    assert twin == x and x.agreement_radius(twin) == math.inf
    assert [_KeyIndex([twin]).hausdorff([z]) for z in (x, y, x)] == [0.0, 2.0 ** -45, 0.0]
    assert _KeyIndex([twin]).hausdorff([x, x]) == 0.0
    assert _KeyIndex([twin, twin]).hausdorff([x, y]) == 2.0 ** -45


def test_a_coarse_hausdorff_distance_cuts_reference_keys_at_the_first_rung():
    datum = homoclinic_point(SftSystem(TransitionMatrix.full_shift(2)), (0, 1), 2.0 ** -3)
    params = compute_excursion_parameters(datum)
    po = build_periodic_pseudo_orbit(datum, params, params.N0)
    # fresh copies: building the datum may have cut keys of its own points
    reference = [ShiftPoint(y.left, y.center, y.right, y.pos)
                 for y in [*datum.segment, *datum.p_orbit]]
    d = _KeyIndex(reference).hausdorff(po.points)
    assert 2.0 ** -_FIRST_RADIUS < d <= datum.delta
    assert d == max(max(min(brute_distance(x, y) for y in reference) for x in po.points),
                    max(min(brute_distance(y, x) for x in po.points) for y in reference))
    assert max(y._key[0] for y in reference) == _FIRST_RADIUS
