"""Concrete system backends: evaluation, shadowing constants, homoclinic oracles,
rational orbits, nets, coding."""

import dataclasses
import itertools
import json
import math
import random
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rational_orbit_lattices
from symshadow import systems
from symshadow.cli import main
from symshadow.homoclinic import HomoclinicDatum, compute_excursion_parameters
from symshadow.measures import (LebesgueTorus, approximate_by_periodic, fourier_family,
                                periodic_measure)
from symshadow.sft import TransitionMatrix, _primitive_period, admissible_words
from symshadow.shiftspace import ShiftPoint, hausdorff_distance, nearest_distances
from symshadow.systems import (Horseshoe, SftSystem, ToralAutomorphism, cat_map,
                               homoclinic_point, parse_system, sft_homoclinic_splice)

CAT = cat_map()
FULL2 = TransitionMatrix.full_shift(2)
LAM = (3 + math.sqrt(5)) / 2


def point_is_admissible(point, matrix):
    """Every transition of the point, read over its tails' extent and one
    more symbol each side, is allowed by the matrix."""
    return matrix.is_admissible_word(point.window(-point.extent - 1, point.extent + 2))


def test_evaluate_examples():
    assert CAT.apply((0.2, 0.4)) == (0.8, 0.6000000000000001)
    assert CAT.apply((0.0, 0.0)) == (0.0, 0.0)
    p = ShiftPoint((0,), (1, 0), (0,), pos=0)
    shifted = SftSystem(FULL2).apply(p)
    assert shifted[0] == p[1] and shifted[-1] == p[0]


def test_orbit_of_matches_exact_fraction_steps():
    for system in (CAT, ToralAutomorphism([[1, 1], [1, 0]])):
        for p in ((Fraction(1, 6), Fraction(3, 10)), (Fraction(2, 7), Fraction(0)),
                  (Fraction(5, 9), Fraction(4, 15)), (Fraction(3, 2), Fraction(-1, 4))):
            oracle = [(p[0] % 1, p[1] % 1)]
            while system.apply(oracle[-1]) != oracle[0]:
                oracle.append(system.apply(oracle[-1]))
            assert system.orbit_of(p) == oracle
            assert system.orbit_of(p, cap=len(oracle)) == oracle
            with pytest.raises(ValueError):
                system.orbit_of(p, cap=len(oracle) - 1)


@pytest.mark.parametrize("max_period, max_denominator", [(3, 6), (1, 4), (6, 12)])
def test_rational_orbits_are_the_short_lattice_orbits(max_period, max_denominator):
    # oracle: the orbit of every lattice point up to the denominator bound
    expected = set()
    for q in range(1, max_denominator + 1):
        for i in range(q):
            for j in range(q):
                orbit = CAT.orbit_of((Fraction(i, q), Fraction(j, q)))
                if len(orbit) <= max_period:
                    expected.add(frozenset(orbit))
    found = fraction_orbits(CAT, max_period, max_denominator)
    for (i, j, q), orbit in found:
        assert orbit[0] == (Fraction(i, q), Fraction(j, q))
        assert math.gcd(math.gcd(i, j), q) == 1
        assert CAT.orbit_of(orbit[0]) == orbit
    assert len(found) == len(expected)
    assert {frozenset(orbit) for _, orbit in found} == expected
    starts = [(q, i, j) for (i, j, q), _ in found]
    assert starts == sorted(starts)


def lattice_orbits(system, max_period, max_denominator):
    """The ((i, j, q), orbit) entries of ``rational_orbit_lattices`` over all q."""
    return [entry for _, _, orbits in rational_orbit_lattices(system, max_period, max_denominator)
            for entry in orbits]


def fraction_orbits(system, max_period, max_denominator):
    """``lattice_orbits`` with each integer pair (u, v) read as (u/q, v/q)."""
    return [((i, j, q), [(Fraction(u, q), Fraction(v, q)) for u, v in orbit])
            for (i, j, q), orbit in lattice_orbits(system, max_period, max_denominator)]


def fraction_orbit_scan(system, max_period, max_denominator):
    """The scan with Fraction points and one set of visited points over all
    denominators."""
    seen = set()
    for q in range(1, max_denominator + 1):
        for i in range(q):
            for j in range(q):
                if math.gcd(math.gcd(i, j), q) != 1:
                    continue
                p0 = (Fraction(i, q), Fraction(j, q))
                if p0 in seen:
                    continue
                orbit = [p0]
                seen.add(p0)
                cur = system.apply(p0)
                while cur != p0 and len(orbit) <= max_period:
                    orbit.append(cur)
                    seen.add(cur)
                    cur = system.apply(cur)
                if cur == p0 and len(orbit) <= max_period:
                    yield (i, j, q), orbit


@pytest.mark.parametrize("system", [CAT, ToralAutomorphism([[1, 1], [1, 0]]),
                                    ToralAutomorphism([[-2, 1], [1, -1]])],
                         ids=["cat", "det_minus_one", "negative_entries"])
@pytest.mark.parametrize("max_period, max_denominator",
                         [(0, 0), (0, 1), (1, 0), (1, 1), (1, 5), (3, 8), (6, 12), (10, 15)])
def test_rational_orbits_equal_the_fraction_scan(system, max_period, max_denominator):
    assert all(type(x) is int and 0 <= x < q for (i, j, q), orbit
               in lattice_orbits(system, max_period, max_denominator)
               for p in [(i, j), *orbit] for x in p)
    found = fraction_orbits(system, max_period, max_denominator)
    expected = list(fraction_orbit_scan(system, max_period, max_denominator))
    assert found == expected
    assert [tuple(map(repr, p)) for _, orbit in found for p in orbit] == \
        [tuple(map(repr, p)) for _, orbit in expected for p in orbit]


def test_rational_orbits_are_the_same_over_many_chunks(monkeypatch):
    one_chunk = lattice_orbits(CAT, 12, 20)
    lattices = [(q, points.tolist(), orbits) for q, points, orbits
                in rational_orbit_lattices(CAT, 12, 20)]
    # chunks of at most 40 points: q <= 4 share chunks, every larger q goes alone;
    # a new system, as CAT keeps the one-chunk walk of (12, 20)
    monkeypatch.setattr(systems, "_CHUNK_POINTS", 40)
    cat = cat_map()
    assert lattice_orbits(cat, 12, 20) == one_chunk
    assert [(q, points.tolist(), orbits) for q, points, orbits
            in rational_orbit_lattices(cat, 12, 20)] == lattices
    assert all(points == [list(p) for _, orbit in orbits for p in orbit]
               for _, points, orbits in lattices)
    assert fraction_orbits(cat, 12, 20) == list(fraction_orbit_scan(cat, 12, 20))


def span_lists(spans):
    """(q, points, lengths) spans with their arrays as lists, for exact comparison."""
    return [(q, points.tolist(), lengths.tolist()) for q, points, lengths in spans]


KEPT_HORIZONS = [(0, 5), (1, 1), (6, 12), (12, 20), (24, 28), (30, 33), (30, 60), (300, 20)]


@pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
def test_kept_spans_equal_a_fresh_walk(monkeypatch, order):
    cat = cat_map()
    kept = {horizon: span_lists(cat.rational_orbit_spans(*horizon))
            for horizon in KEPT_HORIZONS[::order]}
    assert cat._kept_spans.keys() == set(KEPT_HORIZONS)

    def no_walk(*args):
        raise AssertionError("lattice walked")

    monkeypatch.setattr(ToralAutomorphism, "_walk_spans", no_walk)
    for horizon in KEPT_HORIZONS:  # handed out again unwalked, the same arrays each time
        again = list(cat.rational_orbit_spans(*horizon))
        assert span_lists(again) == kept[horizon]
        assert all(span[1] is other[1] and span[2] is other[2]
                   for span, other in zip(again, cat.rational_orbit_spans(*horizon)))
    monkeypatch.undo()
    for horizon in KEPT_HORIZONS:
        assert span_lists(cat_map().rational_orbit_spans(*horizon)) == kept[horizon]


def test_kept_spans_are_read_only():
    cat = cat_map()
    for spans in (list(cat.rational_orbit_spans(12, 20)), list(cat.rational_orbit_spans(12, 20))):
        for _, points, lengths in spans:
            with pytest.raises(ValueError, match="read-only"):
                points[0, 0] = 1
            with pytest.raises(ValueError, match="read-only"):
                lengths[0] = 1


def test_only_a_one_chunk_horizon_is_kept(monkeypatch):
    fresh = span_lists(cat_map().rational_orbit_spans(12, 20))
    walks = []

    def counted(self, qs, max_period):
        walks.append(qs.tolist())
        return walk(self, qs, max_period)

    walk = ToralAutomorphism._walk_spans
    monkeypatch.setattr(ToralAutomorphism, "_walk_spans", counted)
    monkeypatch.setattr(systems, "_CHUNK_POINTS", 40)  # sum(q^2, q <= 4) = 30 fits
    cat = cat_map()
    for _ in range(2):  # the multi-chunk horizon streams, walked again on every call
        walks.clear()
        spans = cat.rational_orbit_spans(12, 20)
        assert walks == []  # nothing walked before the spans are read
        assert span_lists(spans) == fresh
        assert walks == [[1, 2, 3, 4]] + [[q] for q in range(5, 21)]
    assert cat._kept_spans == {}
    walks.clear()
    for _ in range(2):
        assert span_lists(cat.rational_orbit_spans(12, 4)) == fresh[:4]
    assert walks == [[1, 2, 3, 4]] and list(cat._kept_spans) == [(12, 4)]
    # at the real chunk size, sum(q^2, q <= 146) = 1,048,061 <= 2^20 is the last kept
    monkeypatch.setattr(systems, "_CHUNK_POINTS", 1 << 20)
    def unwalked(self, qs, max_period):
        yield from ()

    monkeypatch.setattr(ToralAutomorphism, "_walk_spans", unwalked)
    for q in (146, 147):
        list(cat.rational_orbit_spans(30, q))
    assert list(cat._kept_spans) == [(12, 4), (30, 146)]


def test_a_reused_system_approximates_as_fresh_ones():
    family = fourier_family(3)
    targets = [LebesgueTorus(), periodic_measure(CAT.orbit_of((Fraction(1, 5), Fraction(2, 5))))]
    cat = cat_map()

    def result(system, target, horizon):
        res = approximate_by_periodic(target, system, 0.05, family, *horizon)
        return res.description, res.distance.hex(), res.within_epsilon, res.measure.atoms

    for _ in range(2):
        for horizon in [(24, 28), (25, 28), (29, 33), (30, 33)]:
            for target in targets:
                assert result(cat, target, horizon) == result(cat_map(), target, horizon)


def test_the_orbit_walk_ends_once_every_orbit_has_closed():
    # the cat map is the square of the Fibonacci matrix, whose period mod q is
    # at most 6q, so at q <= 40 every orbit closes within 120 steps
    def lattices(max_period):
        return [(q, points.tolist(), orbits) for q, points, orbits
                in rational_orbit_lattices(CAT, max_period, 40)]

    def best_time(max_period):  # on new systems, which walk the horizon
        times = []
        for _ in range(3):
            cat = cat_map()
            start = time.perf_counter()
            list(rational_orbit_lattices(cat, max_period, 40))
            times.append(time.perf_counter() - start)
        return min(times)

    assert lattices(120) == lattices(2000) == lattices(20000)
    family = fourier_family(3)
    for max_period in (120, 20000):
        res = approximate_by_periodic(LebesgueTorus(), CAT, 0.05, family, max_period, 40)
        assert (res.description, res.distance) == ("orbit(0/25,3/25)", 0.00048317675951971213)
    # the walk stopped taking steps: 20,000 costs about what 120 does
    assert best_time(20000) < 3 * best_time(120) + 0.02


@pytest.mark.parametrize("max_period, max_denominator", [(0, 0), (0, 1), (1, 0)])
def test_an_empty_torus_horizon_has_no_periodic_candidates(max_period, max_denominator):
    family = fourier_family(2)
    assert lattice_orbits(CAT, max_period, max_denominator) == []
    with pytest.raises(ValueError, match="no periodic candidates within the horizon"):
        approximate_by_periodic(LebesgueTorus(), CAT, 0.05, family,
                                max_period=max_period, max_denominator=max_denominator)


@pytest.mark.parametrize("matrix", [[[2, 1], [1, 1]], [[1, 1], [1, 0]], [[3, 2], [1, 1]],
                                    [[-2, 1], [1, -1]], [[0, 1], [1, 3]]])
def test_periodic_lattice_points_are_the_lattice_fixed_points(matrix):
    # oracle: |det(A^n - I)| = D fixed points, all on the lattice (1/D) Z^2
    system = ToralAutomorphism(matrix)
    (a, b), (c, d) = matrix
    power = ((1, 0), (0, 1))
    for n in range(1, 6):
        power = ((a * power[0][0] + b * power[1][0], a * power[0][1] + b * power[1][1]),
                 (c * power[0][0] + d * power[1][0], c * power[0][1] + d * power[1][1]))
        (p, q), (r, s) = power
        count = abs((p - 1) * (s - 1) - q * r)
        if count > 150:
            break
        expected = [(Fraction(i, count), Fraction(j, count))
                    for i in range(count) for j in range(count)
                    if ((p * i + q * j - i) % count, (r * i + s * j - j) % count) == (0, 0)]
        assert system.periodic_lattice_points(n) == expected
        assert len(expected) == count


def test_exact_fraction_evaluation():
    p = (Fraction(1, 5), Fraction(2, 5))
    q = CAT.apply(p)
    assert q == (Fraction(4, 5), Fraction(3, 5))
    assert CAT.apply(q) == p  # period 2, exactly


SEAM = (0.0, -0.0, 1.0 - 2.0 ** -53, 2.0 ** -53, -2.0 ** -53, 0.5, 1.0, -1.0,
        1.5, 1e-170, 5e-324, Fraction(1, 5), Fraction(-7, 3))
torus_coordinates = st.one_of(
    st.sampled_from(SEAM),
    st.floats(-3.0, 3.0),
    st.fractions(-3, 3, max_denominator=1000),
    st.floats(-3.0, 3.0).map(Fraction))


def torus_distance_by_ops(a, b) -> float:
    """Oracle: the torus metric one coordinate at a time, in Python floats."""
    total = 0.0
    for x, y in zip(a, b):
        d = abs(float(x) - float(y)) % 1.0
        d = min(d, 1.0 - d)
        total += d * d
    return math.sqrt(total)


@given(st.lists(st.tuples(torus_coordinates, torus_coordinates), min_size=1, max_size=6),
       st.lists(st.tuples(torus_coordinates, torus_coordinates), min_size=1, max_size=6))
def test_torus_distance_matrix_is_the_metric_bit_for_bit(queries, points):
    # the matrix d(x, y) of queries x and points y, pairwise by distance and
    # distances, and reduced by nearest and hausdorff (the roots of reduced
    # gauges, as sqrt is monotone)
    oracle = [[torus_distance_by_ops(x, y) for y in points] for x in queries]
    assert [[CAT.distance(x, y).hex() for y in points] for x in queries] == \
        [[d.hex() for d in row] for row in oracle]
    pairs = list(itertools.product(queries, points))
    assert [d.hex() for d in CAT.distances(*zip(*pairs)).tolist()] == \
        [d.hex() for row in oracle for d in row]
    assert [d.hex() for d in CAT.nearest(queries, points)] == [min(row).hex() for row in oracle]
    assert CAT.hausdorff(points, queries).hex() == \
        max(max(map(min, oracle)), max(map(min, zip(*oracle)))).hex()


FOLD_EDGES = (0.0, -0.0, 5e-324, 1.0 - 2.0 ** -53, 2.0 ** 52 + 0.5, 2.0 ** 53, 1e300,
              math.inf, -math.inf, math.nan, -math.nan)


@given(st.lists(st.one_of(st.sampled_from(FOLD_EDGES), st.floats()), min_size=1))
def test_floor_fold_is_mod_one_bit_for_bit(ds):
    # the torus metric folds a = |d| as a - floor(a): the bits of a % 1.0, in
    # numpy over arrays and one float at a time, and of Python's float %
    a = np.abs(np.array(ds, np.float64))
    with np.errstate(invalid="ignore"):  # inf folds to nan either way
        folded = [v.hex() for v in (a - np.floor(a)).tolist()]
        assert folded == [v.hex() for v in (a % 1.0).tolist()]
        assert folded == [float(np.float64(v) - np.floor(np.float64(v))).hex()
                          for v in a.tolist()]
    assert folded == [(v % 1.0).hex() for v in a.tolist()]


def nudge(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


HORSESHOE = Horseshoe(1 / 3, 3.0)
SUBNORMAL = (5e-324, -5e-324, 2.0 ** -1022 - 5e-324, 1e-310)
planar_coordinates = st.one_of(
    torus_coordinates, st.sampled_from(SUBNORMAL),
    st.builds(lambda c, k: nudge(float(c), k), torus_coordinates, st.integers(-3, 3)))


@pytest.mark.parametrize("system", [CAT, HORSESHOE], ids=["cat", "horseshoe"])
@given(data=st.data())
def test_distance_forms_are_one_formula_bit_for_bit(system, data):
    # seam, nudged and subnormal coordinates: distance and the elementwise
    # distances read one formula, so they agree exactly
    pairs = st.tuples(planar_coordinates, planar_coordinates)
    xs = data.draw(st.lists(pairs, min_size=1, max_size=6))
    ys = data.draw(st.lists(pairs, min_size=len(xs), max_size=len(xs)))
    assert [d.hex() for d in system.distances(xs, ys).tolist()] \
        == [system.distance(x, y).hex() for x, y in zip(xs, ys)]
    assert all(type(system.distance(x, y)) is float for x, y in zip(xs, ys))


def test_inverse_round_trip():
    x = (0.123, 0.789)
    y = CAT.apply(x)
    back = CAT.apply_inverse(y)
    assert CAT.distance(back, x) < 1e-12


def test_rejects_non_hyperbolic_matrices():
    with pytest.raises(ValueError):
        ToralAutomorphism([[0, 1], [-1, 0]])  # rotation, eigenvalues on S^1
    with pytest.raises(ValueError):
        ToralAutomorphism([[1, 1], [0, 1]])  # parabolic
    with pytest.raises(ValueError):
        ToralAutomorphism([[2, 0], [0, 2]])  # determinant 4


def closing_lemma_bound(mu_s, mu_u, v_s, v_u):
    """C of the stable/unstable splitting: max(1/(1-mu_s), 1/(1-1/mu_u)) per
    adapted coordinate, times 2/sin(angle of v_s and v_u)."""
    sin = abs(v_s[0] * v_u[1] - v_s[1] * v_u[0])
    return 2.0 / sin * max(1.0 / (1.0 - mu_s), 1.0 / (1.0 - 1.0 / mu_u))


def test_splitting_and_shadowing_constant():
    assert abs(CAT.lam_u - LAM) < 1e-12 and abs(CAT.lam_s - 1 / LAM) < 1e-12
    # symmetric matrix: orthogonal eigenvectors, so C = 2 / (1 - 1/LAM) = 2 phi
    assert abs(sum(a * b for a, b in zip(CAT.v_u, CAT.v_s))) < 1e-12
    assert abs(CAT.shadowing_constant - (1 + math.sqrt(5))) < 1e-10
    for torus in (CAT, ToralAutomorphism([[2, 1], [3, 2]])):
        assert torus.shadowing_constant.hex() == closing_lemma_bound(
            abs(torus.lam_s), abs(torus.lam_u), torus.v_s, torus.v_u).hex()
    for rates in ((1 / 3, 3.0), (0.2, 5.0)):
        assert Horseshoe(*rates).shadowing_constant.hex() == \
            closing_lemma_bound(*rates, (1.0, 0.0), (0.0, 1.0)).hex()


def test_differential_dispatch():
    # the planar systems carry a differential; a shift system has none
    assert CAT.differential((0.3, 0.3)) == ((2, 1), (1, 1))
    assert Horseshoe(1 / 3, 3.0).differential((0.1, 0.1)) == ((1 / 3, 0.0), (0.0, 3.0))
    assert not hasattr(SftSystem(FULL2), "differential")


# -- homoclinic oracles ------------------------------------------------------


def test_cat_fixed_point_homoclinic_tails():
    datum = homoclinic_point(CAT, (Fraction(0), Fraction(0)), delta=1e-3,
                             forward_length=120, backward_length=80)
    assert datum.tau == 1
    q = datum.q_point(0)
    assert CAT.distance(q, (0.0, 0.0)) > 1e-6  # genuinely off the orbit
    # forward tail contracts into the fixed point at rate lam_s
    d1 = CAT.distance(datum.q_point(30), (0.0, 0.0))
    d2 = CAT.distance(datum.q_point(31), (0.0, 0.0))
    assert d1 < 1e-6 and d2 < d1
    # backward tail contracts as well
    b1 = CAT.distance(datum.q_point(-30), (0.0, 0.0))
    b2 = CAT.distance(datum.q_point(-31), (0.0, 0.0))
    assert b1 < 1e-6 and b2 < b1


def test_cat_period_two_homoclinic_phase():
    datum = homoclinic_point(CAT, (Fraction(1, 5), Fraction(2, 5)), delta=1e-3,
                             forward_length=160, backward_length=100)
    p_orbit = datum.p_orbit
    far = datum.k_fwd
    # forward tail: f^k(q) -> f^{k mod 2}(p); backward: f^{-k}(q) -> f^{1-k}(p)
    assert CAT.distance(datum.q_point(far), p_orbit[far % 2]) < 1e-9
    back = -datum.k_back
    assert CAT.distance(datum.q_point(back), p_orbit[(back + 1) % 2]) < 1e-9
    dataclasses.replace(datum)  # rebuilt from its fields, the datum checks its tails again


def test_homoclinic_datum_invariants_down_to_1e_3():
    for point in ((Fraction(0), Fraction(0)), (Fraction(1, 5), Fraction(2, 5))):
        datum = homoclinic_point(CAT, point, delta=1e-3,
                                 forward_length=160, backward_length=100)
        dataclasses.replace(datum)  # rebuilt from its fields, the datum checks its tails again
        params = compute_excursion_parameters(datum)
        assert params.N0 >= 1


def toral_builder(system, p, forward_length, backward_length):
    """Oracle: the toral p-orbit and segment from the eigenline parametrization."""
    p_orbit = system.orbit_of(p)
    t, s = system.homoclinic_intersection(p_orbit)
    segment = [system.homoclinic_orbit_point(p_orbit, t, s, k)
               for k in range(-backward_length, forward_length + 1)]
    return tuple(p_orbit), tuple(segment)


def sft_builder(system, cycle, forward_length, backward_length):
    """Oracle: the shift p-orbit and segment from the exact spliced point."""
    q, _ = sft_homoclinic_splice(system.matrix, cycle)
    w = tuple(cycle)
    p_orbit = tuple(ShiftPoint.from_cycle(w, phase) for phase in range(len(w)))
    segment = [q.shift(k) for k in range(-backward_length, forward_length + 1)]
    return p_orbit, tuple(segment)


def horseshoe_builder(system, cycle, forward_length, backward_length):
    """Oracle: the symbolic splice pushed through the coding map."""
    q, _ = sft_homoclinic_splice(system.coding_matrix, cycle)
    w = tuple(cycle)
    p_orbit = tuple(system.code_point(ShiftPoint.from_cycle(w, phase))
                    for phase in range(len(w)))
    segment = [system.code_point(q.shift(k))
               for k in range(-backward_length, forward_length + 1)]
    return p_orbit, tuple(segment)


GOLDEN = TransitionMatrix.golden_mean()
HORSESHOE = Horseshoe(1 / 3, 3.0)


@pytest.mark.parametrize("system, anchor, builder", [
    (CAT, (Fraction(0), Fraction(0)), toral_builder),
    (CAT, (Fraction(1, 5), Fraction(2, 5)), toral_builder),
    (SftSystem(FULL2), (0,), sft_builder),
    (SftSystem(FULL2), (0, 1), sft_builder),
    (SftSystem(GOLDEN), (0,), sft_builder),
    (SftSystem(GOLDEN), (0, 1), sft_builder),
    (HORSESHOE, (0,), horseshoe_builder),
    (HORSESHOE, (0, 1), horseshoe_builder),
    (HORSESHOE, (0, 0, 1), horseshoe_builder),
], ids=["cat_0,0", "cat_1/5,2/5", "full2_0", "full2_01", "golden_0", "golden_01",
        "horseshoe_0", "horseshoe_01", "horseshoe_001"])
def test_homoclinic_point_matches_the_per_system_builders(system, anchor, builder):
    datum = homoclinic_point(system, anchor, delta=1e-2, forward_length=120,
                             backward_length=60)
    assert (datum.p_orbit, datum.segment) == builder(system, anchor, 120, 60)
    assert (datum.tau, datum.k_back, datum.k_fwd) == (len(datum.p_orbit), 60, 120)


@pytest.mark.parametrize("system, anchor, delta", [
    (CAT, (Fraction(1, 5), Fraction(2, 5)), 1e-2),
    (SftSystem(FULL2), (0, 1), 2.0 ** -3),
    (HORSESHOE, (0, 1), 0.05),
], ids=["cat", "full2", "horseshoe"])
def test_a_datum_whose_tail_misses_half_delta_raises_at_construction(system, anchor, delta):
    datum = homoclinic_point(system, anchor, delta=delta, forward_length=120,
                             backward_length=60)
    p_orbit, segment, k_back, orbit = datum.p_orbit, datum.segment, datum.k_back, datum.orbit
    assert HomoclinicDatum(system, list(p_orbit), list(segment), k_back, delta, orbit) == datum
    # the segment cut to f^k(q) for |k| <= 1 leaves q's own excursion at both ends
    with pytest.raises(ValueError, match="forward tail"):
        HomoclinicDatum(system, p_orbit, segment[:k_back + 2], k_back, delta, orbit)
    with pytest.raises(ValueError, match="backward tail"):
        HomoclinicDatum(system, p_orbit, segment[k_back - 1:], 1, delta, orbit)


def test_shift_point_set_queries_are_the_shiftspace_functions():
    system = SftSystem(FULL2)
    rng = random.Random(5)

    def word(low):
        return tuple(rng.randrange(2) for _ in range(rng.randint(low, 4)))

    points = [ShiftPoint(word(1), word(0), word(1), pos=rng.randint(-6, 6)) for _ in range(40)]
    for xs, ys in ((points[:25], points[25:]), (points[:3], points), (points[5:6], points[:1])):
        assert system.nearest(xs, ys) == nearest_distances(xs, ys)
        assert system.hausdorff(xs, ys) == hausdorff_distance(xs, ys)
    cycle = [ShiftPoint.from_cycle((0, 1, 1)).shift(i) for i in range(3)]
    for sequence in (points[:6], cycle * 4, cycle[:2] * 3, points[:1] * 5,
                     points[:2] * 2 + points[:1]):
        assert system.cyclic_period(sequence) == _primitive_period(tuple(sequence))


def test_orbit_segment_steps_are_exact_under_the_map():
    datum = homoclinic_point(CAT, (Fraction(1, 5), Fraction(2, 5)), delta=1e-2,
                             forward_length=120, backward_length=60)
    for k in range(-50, 50):
        stepped = CAT.apply(datum.q_point(k))
        assert CAT.distance(stepped, datum.q_point(k + 1)) < 1e-12


def test_full_shift_splice_example():
    q, center = sft_homoclinic_splice(FULL2, (0, 1))
    assert center == ()
    assert q.centered_word(4) == "1010.0101"
    golden = TransitionMatrix.golden_mean()
    q2, center2 = sft_homoclinic_splice(golden, (0, 1))
    assert point_is_admissible(q2, golden)


def test_splice_fixed_point_needs_excursion():
    q, center = sft_homoclinic_splice(FULL2, (0,))
    assert center == (1,)
    assert q.centered_word(3) == "000.100"


class BudgetExceeded(Exception):
    pass


def seam_scan(matrix, cycle, budget):
    """The splice by brute force: every admissible word of each candidate
    length in lexicographic order, the first whose point is admissible and
    off the p-orbit; BudgetExceeded after ``budget`` candidates."""
    w = tuple(cycle)
    tau = len(w)
    rho = w[1:] + w[:1]

    def words(prefix, length):
        if len(prefix) == length:
            yield prefix
            return
        for t in matrix.succ[prefix[-1] if prefix else w[0]]:
            yield from words(prefix + (t,), length)

    tried = 0
    length = 0 if tau > 1 else tau
    while length <= tau * (matrix.size + 2):
        for c in words((), length):
            tried += 1
            if tried > budget:
                raise BudgetExceeded
            q = ShiftPoint(rho, c, w, pos=0)
            if point_is_admissible(q, matrix) and q.period() is None:
                return q, c
        length += tau if tau > 1 else 1
    raise ValueError(f"no homoclinic splice found for cycle {w}")


def random_essential(rng, size, density):
    while True:
        rows = [[int(rng.random() < density) for _ in range(size)] for _ in range(size)]
        if all(map(any, rows)) and all(map(any, zip(*rows))):
            return TransitionMatrix(rows)


def assert_splice_is_the_seam_scan(matrix, cycle):
    try:
        expected = seam_scan(matrix, cycle, 20_000)
    except BudgetExceeded:
        return
    except ValueError:
        with pytest.raises(ValueError, match="no homoclinic splice"):
            sft_homoclinic_splice(matrix, cycle)
        return
    assert sft_homoclinic_splice(matrix, cycle) == expected


@given(st.integers(1, 5), st.sampled_from([0.25, 0.4, 0.6]), st.integers(1, 3),
       st.integers(0, 10**9))
def test_splice_is_the_first_center_of_the_seam_scan(size, density, tau, seed):
    rng = random.Random(seed)
    matrix = random_essential(rng, size, density)
    cycles = [w for w in itertools.product(range(size), repeat=tau)
              if matrix.is_admissible_cycle(w)]
    for cycle in rng.sample(cycles, min(3, len(cycles))):
        assert_splice_is_the_seam_scan(matrix, cycle)


@pytest.mark.parametrize("rows, cycle", [
    ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]], (3, 3, 3)),  # reducible
    ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]], (1,)),
    ([[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]], (3, 3, 3)),
    ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 1, 0]], (2, 3)),
    ([[0, 1, 1], [1, 0, 0], [1, 0, 0]], (0, 1)),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (0, 1)),
    ([[1, 1], [1, 0]], (0, 0)),
    ([[1]], (0, 0, 0)),
], ids=["reducible_sink_loop", "reducible_middle_loop", "chain_end_loop_repeated",
        "cycles_sharing_a_state", "period_two_star", "triangle", "golden_repeated_zero",
        "one_symbol"])
def test_splice_matches_the_seam_scan_on_reducible_and_repeated_cycles(rows, cycle):
    assert_splice_is_the_seam_scan(TransitionMatrix(rows), cycle)


def test_period_two_star_splice_raises_at_once(tmp_path):
    # every closed walk at 0 alternates 0 and a leaf, so every center puts q
    # on the orbit of 01; the brute-force scan tries 6^(k/2) words per length k
    star = [[0] + [1] * 6] + [[1] + [0] * 6] * 6
    start = time.perf_counter()
    with pytest.raises(ValueError, match="no homoclinic splice"):
        sft_homoclinic_splice(TransitionMatrix(star), (0, 1))
    assert time.perf_counter() - start < 1.0
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"rows": star}))
    assert main(["pseudo-shadow", str(path), "01", "--delta", "0.125",
                 "--out", str(tmp_path / "out")]) == 2


# -- nets -----------------------------------------------------------------------


def test_net_examples():
    assert len(CAT.net(0.5)) == 4
    assert len(CAT.net(0.25)) == 16
    reps = SftSystem(FULL2).net(2.0 ** -2)
    assert len(reps) == 4  # one per admissible 2-word
    windows = {r.window(0, 2) for r in reps}
    assert windows == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for system in (CAT, HORSESHOE, SftSystem(FULL2)):
        for spacing in (0.0, -0.5):
            with pytest.raises(ValueError):
                system.net(spacing)


def word_bfs_connector(matrix, a, b):
    """Breadth-first search over connector words in lexicographic order: the
    first word w with a -> w -> b admissible."""
    level = [()]
    for _ in range(matrix.size):
        for word in level:
            if matrix.admits(word[-1] if word else a, b):
                return word
        level = [w + (t,) for w in level for t in matrix.succ[w[-1] if w else a]]
    raise ValueError(f"no admissible connector from {a} to {b}")


@given(st.integers(1, 5), st.sampled_from([0.25, 0.4, 0.6]), st.integers(0, 10**9))
def test_point_through_word_closes_with_the_least_shortest_connector(size, density, seed):
    rng = random.Random(seed)
    matrix = random_essential(rng, size, density)
    for length in (1, 2, 3):
        words = admissible_words(matrix, length)
        for word in rng.sample(words, min(2, len(words))):
            try:
                connector = word_bfs_connector(matrix, word[-1], word[0])
            except ValueError:
                with pytest.raises(ValueError, match="no admissible connector"):
                    systems.sft_point_through_word(matrix, word)
                continue
            expected = ShiftPoint.from_cycle(word + connector)
            assert systems.sft_point_through_word(matrix, word) == expected


def test_point_through_word_takes_the_least_first_step():
    # 0 reaches 9 in four steps through 1, 6, 7 and through 2, 5, 8; the
    # connector is the lexicographically least of them
    succ = {0: [1, 2], 1: [6], 2: [5], 3: [0], 4: [0], 5: [8], 6: [7], 7: [9], 8: [9],
            9: [0, 3, 4]}
    matrix = TransitionMatrix([[int(v in succ[u]) for v in range(10)] for u in range(10)])
    point = systems.sft_point_through_word(matrix, (9, 0))
    assert point == ShiftPoint.from_cycle((9, 0, 1, 6, 7))


def test_toral_lattice_pushforward_is_permutation():
    q = 7
    lattice = {(Fraction(i, q), Fraction(j, q)) for i in range(q) for j in range(q)}
    image = {CAT.apply(p) for p in lattice}
    assert image == lattice


# -- horseshoe coding ------------------------------------------------------------


def test_coding_fixed_points():
    hs = Horseshoe(1 / 3, 3.0)
    assert hs.code_point(ShiftPoint.from_cycle((0,))) == (0.0, 0.0)
    x, y = hs.code_point(ShiftPoint.from_cycle((1,)))
    assert abs(x - 1.0) < 1e-12 and abs(y - 1.0) < 1e-12


def test_coding_conjugates_shift_and_map():
    hs = Horseshoe(1 / 3, 3.0)
    q, _ = sft_homoclinic_splice(FULL2, (0, 1))
    for k in range(-5, 5):
        geometric = hs.code_point(q.shift(k))
        assert hs.distance(hs.apply(geometric), hs.code_point(q.shift(k + 1))) < 1e-12


def bit_loop_table(hs, depth):
    rows = []
    for b in range(2 ** depth):
        for f in range(2 ** depth):
            back = tuple((b >> i) & 1 for i in range(depth))
            fwd = tuple((f >> (depth - 1 - i)) & 1 for i in range(depth))
            x, y = hs.code_point(ShiftPoint((0,), back[::-1] + fwd, (0,), pos=-depth))
            rows.append({"backward": "".join(map(str, back[::-1])),
                         "forward": "".join(map(str, fwd)), "x": x, "y": y})
    return rows


@pytest.mark.parametrize("depth", range(6))
def test_coding_table_is_the_bit_loop_table(depth):
    hs = Horseshoe(1 / 3, 3.0)
    assert hs.coding_table(depth) == bit_loop_table(hs, depth)


def test_word_length_is_the_least_contracting_length():
    for hs in (Horseshoe(1 / 3, 3.0), Horseshoe(0.3, 2.5), Horseshoe(0.45, 2.1)):
        for scale in (2.0, 1.0, 0.3, 0.05, 1e-3, 1e-9):
            m = hs.word_length(scale)
            assert m >= 1 and max(hs.mu_s ** m, hs.mu_u ** -m) <= scale
            assert m == 1 or max(hs.mu_s ** (m - 1), hs.mu_u ** (1 - m)) > scale
    hs = Horseshoe(0.25, 4.0)  # exact powers: the guard admits m = 7, not 8
    assert hs.word_length(4.0 ** -7) == 7
    assert len(hs.net(2 * 4.0 ** -7)) == 4 ** 7
    with pytest.raises(ValueError, match="spacing too fine"):
        hs.net(2 * 4.0 ** -8)
    for scale in (0.0, -0.1):
        with pytest.raises(ValueError, match="scale must be positive"):
            hs.word_length(scale)


def indexwise_tail_sum(point, start, step, ratio):
    """Oracle: ``systems._tail_sum`` reading one coordinate at a time."""
    if step > 0:
        period = len(point.right)
        tail_from = max(start, point.pos + len(point.center))
    else:
        period = len(point.left)
        tail_from = min(start, point.pos - 1)
    total = 0.0
    j = 0
    idx = start
    while (idx - tail_from) * step < 0:
        total += point[idx] * ratio ** j
        j += 1
        idx += step
    block = sum(point[idx + i * step] * ratio ** i for i in range(period))
    total += ratio ** j * block / (1.0 - ratio ** period)
    return total


binary_words = st.lists(st.integers(0, 1), min_size=1, max_size=16)


@given(binary_words, st.lists(st.integers(0, 1), max_size=16), binary_words,
       st.one_of(st.integers(-15, 15), st.integers(-3000, 3000)),
       st.sampled_from([(1 / 3, 3.0), (0.25, 4.0), (0.3, 2.5), (0.45, 2.1)]))
def test_code_point_matches_the_indexwise_tail_sum(left, center, right, pos, rates):
    hs = Horseshoe(*rates)
    point = ShiftPoint(left, center, right, pos)
    fast = hs.code_point(point)
    with mock.patch.object(systems, "_tail_sum", indexwise_tail_sum):
        slow = hs.code_point(point)
    assert list(map(float.hex, fast)) == list(map(float.hex, slow))


def test_itinerary_round_trip():
    # independent route: the strips that f^k of the coded point visits
    hs = Horseshoe(1 / 3, 3.0)
    point = ShiftPoint((1, 0), (0, 0, 1), (0, 1), pos=-1)
    cur = hs.code_point(point)
    for _ in range(4):
        cur = hs.apply_inverse(cur)
    word = []
    for _ in range(8):
        word.append(hs.branch_of(cur))
        cur = hs.apply(cur)
    assert word == [point[i] for i in range(-4, 4)]


def test_parse_system_round_trip():
    for config in ({"kind": "toral", "matrix": [[2, 1], [1, 1]]},
                   {"kind": "horseshoe", "rates": [0.3, 2.5]},
                   {"kind": "sft", "matrix": {"rows": [[1, 1], [1, 0]]}}):
        system = parse_system(config)
        assert parse_system(system.to_config()).to_config() == system.to_config()
    with pytest.raises(ValueError):
        parse_system({"kind": "unknown"})


def test_parse_system_reads_a_bare_matrix_as_a_shift():
    wrapped = parse_system({"kind": "sft", "matrix": {"rows": [[1, 1], [1, 0]]}})
    for bare in ({"rows": [[1, 1], [1, 0]]}, {"size": 2, "rows": [[1, 1], [1, 0]]}):
        assert parse_system(bare).to_config() == wrapped.to_config()
    for config in ({"size": 3, "rows": [[1, 1], [1, 0]]},
                   {"kind": "sft", "matrix": {"size": 3, "rows": [[1, 1], [1, 0]]}}):
        with pytest.raises(ValueError, match="declared size"):
            parse_system(config)
    with pytest.raises(ValueError, match="unknown system kind"):
        parse_system({"matrix": [[2, 1], [1, 1]]})
