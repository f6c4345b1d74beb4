"""Pseudo-orbit construction from homoclinic data: exact periods, defects
bounded by delta, jumps only at the designated seams."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import index_builds
from symshadow import systems
from symshadow.homoclinic import (InsufficientSegmentError, PseudoOrbit,
                                  build_periodic_pseudo_orbit,
                                  compute_excursion_parameters, verify_pseudo_orbit)
from symshadow.sft import TransitionMatrix
from symshadow.shadowing import density_check
from symshadow.shiftspace import ShiftPoint, nearest_distances
from symshadow.systems import Horseshoe, SftSystem, cat_map, homoclinic_point, parse_system

FULL2 = TransitionMatrix.full_shift(2)
DELTA_SYM = 2.0 ** -3
DELTA_CAT = 1e-2
CAT = cat_map()
HORSESHOE = Horseshoe(1 / 3, 3.0)


@pytest.fixture(scope="module")
def symbolic_datum():
    system = SftSystem(FULL2)
    return homoclinic_point(system, (0, 1), DELTA_SYM,
                            forward_length=200, backward_length=80)


@pytest.fixture(scope="module")
def cat_datum():
    return homoclinic_point(cat_map(), (Fraction(1, 5), Fraction(2, 5)),
                            DELTA_CAT, forward_length=220,
                            backward_length=80)


def scan_for_anchor_and_return(datum):
    """Independent recomputation of (N, l): direct scan of the segment
    against the delta/2-ball of p, with membership at r = 0..tau
    backward tau-multiples of the anchor."""
    half = datum.delta / 2.0
    tau = datum.tau
    p = datum.p_orbit[0]

    def near_p(k):
        return datum.system.distance(datum.q_point(k), p) <= half

    N = next(c for c in range(tau, datum.k_fwd // tau + 1)
             if all(near_p((c - r) * tau) for r in range(tau + 1)))
    x_index = N * tau
    l = next(c for c in range(1, 100) if near_p(x_index - c * tau - 1))
    return N, l


def product_bound(tau: int, l: int) -> int:
    """The large-periods budget of the paper's proof, (prod_{r<tau} r*l + tau*l)*tau,
    which N0 = l*tau^2 + 1 never exceeds."""
    return (math.prod(r * l for r in range(1, tau)) + tau * l) * tau


def test_symbolic_parameters_match_direct_scan(symbolic_datum):
    params = compute_excursion_parameters(symbolic_datum)
    N, l = scan_for_anchor_and_return(symbolic_datum)
    assert (params.N, params.l) == (N, l)
    assert params.N0 == l * 4 + 1      # tau = 2
    assert params.N0 < product_bound(2, l) == (l + 2 * l) * 2


def test_cat_parameters_match_direct_scan(cat_datum):
    params = compute_excursion_parameters(cat_datum)
    N, l = scan_for_anchor_and_return(cat_datum)
    assert (params.N, params.l) == (N, l)
    assert params.N0 == l * 4 + 1


def test_fixed_point_empty_product_branch():
    # tau = 1: the proof's budget is the empty product, (1 + l) * 1, and
    # coincides with N0 = l + 1
    system = SftSystem(FULL2)
    datum = homoclinic_point(system, (0,), DELTA_SYM,
                             forward_length=120, backward_length=60)
    params = compute_excursion_parameters(datum)
    assert datum.tau == 1
    assert params.N0 == 1 + params.l == product_bound(1, params.l)
    po = build_periodic_pseudo_orbit(datum, params, params.N0 + 5)
    assert po.period == params.N0 + 5 and po.exact_period
    assert po.defect <= DELTA_SYM


GOLDEN = TransitionMatrix([[1, 1], [1, 0]])
THRESHOLD_ANCHORS = [
    *(pytest.param(CAT, tuple(Fraction(c) for c in text.split(",")), DELTA_CAT,
                   id=f"cat-{text}") for text in ("1/5,2/5", "1/2,0", "1/3,0", "0,0")),
    *(pytest.param(system, tuple(int(c) for c in word), delta, id=f"{name}-{word}")
      for name, system, delta, words in (
          ("horseshoe", HORSESHOE, 0.05, ("0", "01", "001", "0111")),
          ("full2", SftSystem(FULL2), DELTA_SYM, ("0", "01", "00111")),
          ("golden", SftSystem(GOLDEN), DELTA_SYM, ("0", "01", "010")))
      for word in words),
]


@pytest.mark.parametrize("system, anchor, delta", THRESHOLD_ANCHORS)
def test_threshold_is_exact_on_anchors(system, anchor, delta):
    # N0 = l*tau^2 + 1: every n in [N0, N0 + 3 tau] is built with exact period
    # n, and N0 - 1 = l*tau^2, of class tau, would need l*tau^2 + tau
    datum = homoclinic_point(system, anchor, delta)
    params = compute_excursion_parameters(datum)
    tau, l = datum.tau, params.l
    assert (params.N, l) == scan_for_anchor_and_return(datum)
    assert params.N0 == l * tau * tau + 1 <= product_bound(tau, l)
    last = params.N0 + 3 * tau
    datum = datum.covering(params, last)
    for n in range(params.N0, last + 1):
        po = build_periodic_pseudo_orbit(datum, params, n)
        assert po.period == n and po.exact_period, f"period collapsed at n = {n}"
        assert po.defect <= delta
    with pytest.raises(ValueError, match="below the admissible threshold"):
        build_periodic_pseudo_orbit(datum, params, params.N0 - 1)
    # exactness: l*tau^2 has r = tau excursions, one near-p loop too many, so
    # even with the guard lowered to it the builder cannot write it
    assert (params.N0 - 1) - tau * (l * tau + 1) == -tau
    with pytest.raises(AssertionError):
        build_periodic_pseudo_orbit(datum, dataclasses.replace(params, N0=params.N0 - 1),
                                    params.N0 - 1)


def test_symbolic_construction_exact_periods(symbolic_datum):
    params = compute_excursion_parameters(symbolic_datum)
    for n in range(params.N0, params.N0 + 12):
        po = build_periodic_pseudo_orbit(symbolic_datum, params, n)
        assert len(po.points) == n
        assert po.defect <= DELTA_SYM
        assert po.exact_period, f"period collapsed at n = {n}"


def test_symbolic_jumps_only_at_designated_indices(symbolic_datum):
    params = compute_excursion_parameters(symbolic_datum)
    system = symbolic_datum.system
    po = build_periodic_pseudo_orbit(symbolic_datum, params, params.N0 + 7)
    for i in range(po.period):
        step = system.distance(system.apply(po.points[i]),
                               po.points[(i + 1) % po.period])
        if i in po.jump_indices:
            assert step <= DELTA_SYM
        else:
            assert step == 0.0, f"off-jump defect at step {i}"


def test_cat_construction_defect_and_period(cat_datum):
    params = compute_excursion_parameters(cat_datum)
    po = build_periodic_pseudo_orbit(cat_datum, params, params.N0 + 7)
    assert po.period == params.N0 + 7
    assert po.defect <= DELTA_CAT
    assert po.exact_period
    system = cat_datum.system
    for i in range(po.period):
        step = system.distance(system.apply(po.points[i]),
                               po.points[(i + 1) % po.period])
        if i not in po.jump_indices:
            assert step <= 1e-12, f"off-jump defect {step} at step {i}"


def test_below_threshold_rejected(cat_datum):
    params = compute_excursion_parameters(cat_datum)
    with pytest.raises(ValueError):
        build_periodic_pseudo_orbit(cat_datum, params, params.N0 - 1)


def test_short_segment_raises_insufficient_segment():
    system = SftSystem(FULL2)
    datum = homoclinic_point(system, (0, 1), DELTA_SYM,
                             forward_length=40, backward_length=20)
    params = compute_excursion_parameters(datum)
    raised = None
    for n in range(params.N0, params.N0 + 80):
        try:
            build_periodic_pseudo_orbit(datum, params, n)
        except InsufficientSegmentError as err:
            raised = err
            break
    assert raised is not None, "short segment never ran out"


@pytest.mark.parametrize("system, anchor, delta", [
    (CAT, (Fraction(1, 5), Fraction(2, 5)), DELTA_CAT),
    (HORSESHOE, (0, 1), 0.05),
    (SftSystem(FULL2), (0, 1), DELTA_SYM),
    (SftSystem(TransitionMatrix.golden_mean()), (0, 1), DELTA_SYM),
], ids=["cat-1/5,2/5", "horseshoe-01", "full2-01", "golden-01"])
def test_covering_extends_the_segment_to_a_fresh_build(system, anchor, delta):
    datum = homoclinic_point(system, anchor, delta)
    params = compute_excursion_parameters(datum)
    # a segment that already reaches x_index + n is the datum itself
    assert datum.covering(params, datum.k_fwd - params.x_index) is datum
    for n in (params.N0 + 200, params.N0 + 371):  # the second extends the first
        datum, last = datum.covering(params, n), params.x_index + n
        fresh = homoclinic_point(system, anchor, delta, forward_length=last)
        assert datum.k_fwd == last
        assert (datum.segment, datum.k_back) == (fresh.segment, fresh.k_back)
        assert datum == fresh and datum.reference == fresh.reference
        assert compute_excursion_parameters(datum) == params
        assert datum.covering(params, n) is datum


def test_verify_repeated_true_orbit(symbolic_datum):
    # the true orbit of p repeated is a defect-0 pseudo-orbit whose
    # cyclic period is tau, not n
    system = symbolic_datum.system
    n = 12
    p0 = ShiftPoint.from_cycle((0, 1))
    po = PseudoOrbit(system, [p0.shift(i) for i in range(n)])
    report = verify_pseudo_orbit(po, DELTA_SYM,
                                 reference=[p0, p0.shift(1)])
    assert report["max_defect"] == 0.0
    assert report["exact_period_ok"] is False
    assert report["hausdorff_to_reference"] == 0.0


def test_verify_detects_artificial_jump(cat_datum):
    params = compute_excursion_parameters(cat_datum)
    po = build_periodic_pseudo_orbit(cat_datum, params, params.N0)
    points = list(po.points)
    x, y = points[3]
    points[3] = ((x + 2 * DELTA_CAT) % 1.0, y)
    worst = PseudoOrbit(cat_datum.system, points)
    report = verify_pseudo_orbit(worst, DELTA_CAT)
    assert report["max_defect"] > DELTA_CAT
    assert not report["within_delta"]
    assert verify_pseudo_orbit(po, DELTA_CAT)["within_delta"]


def test_hausdorff_stays_near_reference(cat_datum):
    params = compute_excursion_parameters(cat_datum)
    reference = cat_datum.reference
    po = build_periodic_pseudo_orbit(cat_datum, params, params.N0 + 9)
    report = verify_pseudo_orbit(po, DELTA_CAT, reference=reference)
    # pseudo-orbit points are segment points, so one side is 0; the other
    # side stays within the expansion of the delta/2-ball along one period
    assert report["hausdorff_to_reference"] <= 3 * DELTA_CAT


# -- float point-to-set distances against the pairwise scan --------------------

CAT_P_ORBIT = CAT.orbit_of((Fraction(1, 5), Fraction(2, 5)))


def pairwise_min(system, queries, points):
    """Oracle: min over every pair, one ``system.distance`` call each."""
    return [min(system.distance(x, y) for y in points) for x in queries]


def nudge(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


EDGES = (0.0, 1.0 - 2.0 ** -53, 2.0 ** -53, 0.5, 0.25, 1e-170, 5e-324)
coordinates = st.one_of(st.sampled_from(EDGES),
                        st.floats(0.0, 1.0, exclude_max=True))


@st.composite
def point_sets(draw, system):
    """Points drawn with repetition from a pool holding exact duplicates,
    few-ulp neighbours, mirror images (near ties across the torus seam),
    wrap edges and, on the cat map, the exact Fraction p-orbit.  Horseshoe
    y-coordinates are squeezed into the bottom strip so that the map applies."""
    base = draw(st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=5))
    if system is HORSESHOE:
        base = [(x, y / 3.0) for x, y in base]
    pool = list(base)
    for x, y in base:
        pool.append((nudge(x, draw(st.integers(-3, 3))), y))
        pool.append((x, nudge(y, draw(st.integers(-3, 3)))))
        pool.append((1.0 - x, y))
    if system is CAT:
        pool += CAT_P_ORBIT
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))


float_systems = st.sampled_from([CAT, HORSESHOE])


@given(st.tuples(coordinates, coordinates), st.tuples(coordinates, coordinates),
       st.integers(-3, 3), st.integers(-3, 3))
def test_horseshoe_metric_is_within_an_ulp_factor_of_math_hypot(a, b, dx, dy):
    # metric accuracy: np.hypot, the horseshoe's one formula, and math.hypot
    # are each within an ulp of the exact distance, so they differ by a
    # factor of at most 1 + 2^-51 (plus 1e-300 below the normals)
    for x, y in (b, (nudge(a[0], dx), nudge(a[1], dy)), (1.0 - a[0], a[1])):
        low, high = sorted((HORSESHOE.distance(a, (x, y)), math.hypot(a[0] - x, a[1] - y)))
        assert high <= low * (1.0 + 2.0 ** -51) + 1e-300


@given(st.data(), float_systems)
def test_min_distances_equal_the_pairwise_scan(data, system):
    queries = data.draw(point_sets(system))
    points = data.draw(point_sets(system))
    assert system.nearest(queries, points) == pairwise_min(system, queries, points)
    assert system.nearest(points, queries) == pairwise_min(system, points, queries)


@given(st.data(), float_systems)
def test_a_kept_reference_index_answers_as_the_pairwise_scan_warm_and_cold(data, system):
    points, reference = data.draw(point_sets(system)), data.draw(point_sets(system))

    def answers(reference):
        return system.hausdorff(points, reference), system.nearest(reference, points)

    def pairwise(reference):
        back = pairwise_min(system, reference, points)
        return max(pairwise_min(system, points, reference) + back), back

    system = parse_system(system.to_config())  # a cold slot
    with index_builds() as builds:
        assert answers(reference) == answers(reference) == pairwise(reference)
        assert len(builds) == 1  # warm: the second query and the second set reuse it
        fresh = [(x, y) for x, y in reference]  # equal points, not the same objects
        assert answers(fresh) == pairwise(fresh) and len(builds) == 2
        x, y = points[0]
        reference[0], fresh[-1] = (x, y), (x, y)  # both mutated in place
        for changed in (reference, fresh):
            cold = parse_system(system.to_config())
            expected = cold.hausdorff(points, changed), cold.nearest(changed, points)
            assert answers(changed) == expected == pairwise(changed)
        assert len(builds) == 6  # each mutated set indexed anew, and once by each cold system


@given(st.data(), float_systems)
def test_hausdorff_from_one_matrix_is_the_larger_oracle_direction(data, system):
    points = data.draw(point_sets(system))
    reference = data.draw(point_sets(system))
    po = PseudoOrbit(system, points)
    report = verify_pseudo_orbit(po, 1.0, reference=reference)
    assert report["hausdorff_to_reference"] == max(pairwise_min(system, points, reference)
                                                   + pairwise_min(system, reference, points))


@given(st.data(), float_systems, st.floats(0.0, 1.0))
def test_float_density_check_matches_the_oracle(data, system, epsilon):
    net_points = data.draw(point_sets(system))
    orbit = data.draw(point_sets(system))
    report = density_check(system, orbit, epsilon, net_points=net_points)
    distances = pairwise_min(system, net_points, orbit)
    worst = max(distances)
    assert report.worst_distance == worst
    assert report.dense == (worst <= epsilon)
    assert report.witness == (None if worst <= epsilon
                              else net_points[distances.index(worst)])


def equal_forms(c, system):
    """Coordinates equal to c: 0.0 beside -0.0, and on the cat map the
    Fraction equal to a float."""
    forms = [c]
    if c == 0.0:
        forms += [0.0, -0.0]
    if system is CAT and isinstance(c, float):
        forms.append(Fraction(c))
    return forms


@st.composite
def duplicate_heavy_sets(draw, system):
    """A few distinct points, each repeated up to a dozen times, with every
    copy a new tuple of equal coordinates, shuffled."""
    copies = []
    for x, y in draw(point_sets(system))[:4]:
        for _ in range(draw(st.integers(1, 12))):
            copies.append((draw(st.sampled_from(equal_forms(x, system))),
                           draw(st.sampled_from(equal_forms(y, system)))))
    return draw(st.permutations(copies))


@given(st.data(), float_systems)
def test_duplicate_heavy_sets_match_the_pairwise_scan(data, system):
    queries = data.draw(duplicate_heavy_sets(system))
    points = data.draw(duplicate_heavy_sets(system))
    assert system.nearest(queries, points) == pairwise_min(system, queries, points)
    assert system.nearest(points, queries) == pairwise_min(system, points, queries)
    po = PseudoOrbit(system, queries)
    report = verify_pseudo_orbit(po, 1.0, reference=points)
    assert report["hausdorff_to_reference"] == max(pairwise_min(system, queries, points)
                                                   + pairwise_min(system, points, queries))
    distances = pairwise_min(system, queries, points)
    worst = max(distances)
    epsilon = data.draw(st.sampled_from([0.0, worst / 2.0, worst]))
    density = density_check(system, points, epsilon, net_points=queries)
    assert density.worst_distance == worst
    assert density.dense == (worst <= epsilon)
    # the witness is the first net point at the worst distance, not an equal copy
    assert density.witness is (None if worst <= epsilon
                               else queries[distances.index(worst)])


def test_mixed_equal_coordinates_collapse_to_one_point():
    # a Fraction with its equal float, and 0.0 with -0.0, are one point
    queries = [(Fraction(1, 4), 0.0), (0.25, -0.0), (0.25, Fraction(0)), (0.5, 0.5)]
    points = [(-0.0, Fraction(3, 8)), (0.0, 0.375), (Fraction(1, 5), 0.0)] * 5
    pairs, inverse = systems._distinct(queries)
    assert [[c.hex() for c in pair] for pair in pairs.tolist()] \
        == [[(0.25).hex(), (0.0).hex()], [(0.5).hex(), (0.5).hex()]]
    assert inverse.tolist() == [0, 0, 0, 1]
    assert systems._distinct([(-0.0, 0.5), (0.0, 0.5)])[0][0, 0].hex() == (0.0).hex()
    assert CAT.nearest(queries, points) == pairwise_min(CAT, queries, points)
    # the horseshoe takes float coordinates, where 0.0 and -0.0 are one point
    queries = [(0.25, 0.0), (-0.0, 0.1), (0.25, -0.0), (0.0, 0.1)]
    points = [(0.0, 0.2), (-0.0, 0.2), (0.3, -0.0)] * 5
    assert systems._distinct(queries)[1].tolist() == [1, 0, 1, 0]  # sorted pairs
    assert HORSESHOE.nearest(queries, points) \
        == pairwise_min(HORSESHOE, queries, points)


def counting_distance(system, monkeypatch) -> list:
    """Record the (query, point) pair of every ``system.distance`` call."""
    calls, exact = [], system.distance

    def distance(a, b):
        calls.append((tuple(a), tuple(b)))
        return exact(a, b)

    monkeypatch.setattr(system, "distance", distance)
    return calls


def test_torus_minima_make_no_distance_calls(monkeypatch):
    # the torus and the horseshoe alike: nearest and the Hausdorff
    # distance of verify_pseudo_orbit read the distance matrix alone
    cat = homoclinic_point(cat_map(), (Fraction(1, 5), Fraction(2, 5)),
                           DELTA_CAT, forward_length=220, backward_length=80)
    horseshoe = homoclinic_point(Horseshoe(1 / 3, 3.0), (0, 1), 0.05,
                                 forward_length=160, backward_length=80)
    rng = random.Random(3)
    grid = [(rng.random(), rng.random()) for _ in range(50)] * 3
    for datum, extra in ((cat, 5), (horseshoe, 101)):
        params = compute_excursion_parameters(datum)
        po = build_periodic_pseudo_orbit(datum, params, params.N0 + extra)
        reference = datum.reference
        # the forward tail repeats the p-cycle, so both sets hold exact repeats
        assert len(set(po.points)) < len(po.points) and len(set(reference)) < len(reference)
        cases = [(po.points, reference), (reference, po.points), (grid, po.points)]
        expected = [pairwise_min(datum.system, queries, points) for queries, points in cases]
        assert min(expected[-1]) > 0.0
        calls = counting_distance(datum.system, monkeypatch)
        assert [datum.system.nearest(*case) for case in cases] == expected
        report = verify_pseudo_orbit(po, datum.delta, reference=reference)
        assert report["hausdorff_to_reference"] == max(expected[0] + expected[1])
        assert calls == []
        monkeypatch.undo()


@pytest.mark.parametrize("system", [CAT, HORSESHOE], ids=["cat", "horseshoe"])
def test_min_distances_on_many_rows_with_near_ties(system, monkeypatch):
    # each point has a neighbour one ulp away, so the rows carry near ties;
    # small blocks of queries exercise the blocked scan
    monkeypatch.setattr(systems, "_BLOCK_ENTRIES", 1000)
    rng = random.Random(7)
    points = [(rng.random(), rng.random() / 3.0) for _ in range(12)]
    points += [(nudge(x, 1), y) for x, y in points]
    queries = [(rng.random(), rng.random()) for _ in range(3000)]
    assert system.nearest(queries, points) == pairwise_min(system, queries, points)


def test_min_distances_edge_cases():
    # across the torus seam 0.0 and 1 - 2^-53 are 2^-53 apart
    assert CAT.nearest([(0.0, 0.0)], [(1.0 - 2.0 ** -53, 0.0), (0.5, 0.5)]) \
        == [2.0 ** -53]
    # the torus metric squares its differences, so 1e-170 reads as 0 there ...
    assert CAT.nearest([(0.0, 0.0)], [(1e-170, 0.0)]) == [0.0]
    # ... but the horseshoe's hypot does not underflow: no 0 for distinct points
    assert HORSESHOE.nearest([(0.0, 0.0)], [(2e-170, 0.0), (1e-170, 0.0)]) \
        == [1e-170]
    assert HORSESHOE.nearest([(0.25, 0.1)] * 3, [(0.3, 0.2), (0.25, 0.1)]) \
        == [0.0] * 3
    # a near tie that np.hypot and math.hypot (glibc's hypot) order the two
    # ways round: the minimum is the pairwise one under the one formula
    query = (0.32059447113252204, 0.39924651546101675)
    near, nearer = (0.17146304860013686, 0.2472971453318724), \
        (0.17146304860013684, 0.24729714533187241)
    assert HORSESHOE.nearest([query], [near, nearer]) \
        == pairwise_min(HORSESHOE, [query], [near, nearer])
    assert CAT.nearest(CAT_P_ORBIT, [(0.2, 0.4)]) == pairwise_min(
        CAT, CAT_P_ORBIT, [(0.2, 0.4)])


def test_min_distances_on_homoclinic_data(cat_datum):
    horseshoe = homoclinic_point(HORSESHOE, (0, 1), 0.05,
                                 forward_length=160, backward_length=80)
    for datum in (cat_datum, horseshoe):
        params = compute_excursion_parameters(datum)
        po = build_periodic_pseudo_orbit(datum, params, params.N0 + 5)
        reference = datum.reference
        for queries, points in ((po.points, reference), (reference, po.points)):
            assert datum.system.nearest(queries, points) \
                == pairwise_min(datum.system, queries, points)


def test_empty_queries_and_empty_point_sets():
    shift_points = [ShiftPoint.from_cycle((0, 1))]
    for system, points in ((CAT, [(0.0, 0.0)]), (HORSESHOE, [(0.0, 0.0)]),
                           (SftSystem(FULL2), shift_points)):
        assert system.nearest([], points) == []
        assert system.nearest([], []) == []
        with pytest.raises(ValueError, match="empty point set"):
            system.nearest(points, [])
        for xs, ys in ((points, []), ([], points), ([], [])):  # either set empty
            with pytest.raises(ValueError, match="distance to an empty point set"):
                system.hausdorff(xs, ys)
    assert nearest_distances([], shift_points) == []
    with pytest.raises(ValueError, match="empty point set"):
        nearest_distances(shift_points, [])


# -- pseudo-orbits read their period, defect and exact period off their points --


def step_defect(system, points) -> float:
    """Oracle: the largest step d(f(x_i), x_{i+1 mod n}), one step at a time."""
    n = len(points)
    return max(system.distance(system.apply(points[i]), points[(i + 1) % n])
               for i in range(n))


def exact_period_by_rotation(system, points) -> bool:
    """Oracle: no proper divisor p of n rotates the sequence onto itself,
    equality for shift points and a 1e-12 threshold for float points."""
    n = len(points)

    def same(a, b):
        return a == b if isinstance(a, ShiftPoint) else system.distance(a, b) <= 1e-12

    return not any(n % p == 0 and all(same(points[i], points[(i + p) % n])
                                      for i in range(n)) for p in range(1, n))


def test_built_pseudo_orbits_match_the_step_and_rotation_oracles(symbolic_datum, cat_datum):
    horseshoe = homoclinic_point(HORSESHOE, (0, 1), 0.05,
                                 forward_length=160, backward_length=80)
    for datum in (cat_datum, symbolic_datum, horseshoe):
        params = compute_excursion_parameters(datum)
        for n in range(params.N0, params.N0 + 11):
            po = build_periodic_pseudo_orbit(datum, params, n)
            assert po.period == len(po.points) == n
            assert po.defect == step_defect(datum.system, po.points)
            assert po.exact_period == exact_period_by_rotation(datum.system, po.points)
            report = verify_pseudo_orbit(po, datum.delta)
            assert (report["max_defect"], report["exact_period_ok"]) \
                == (po.defect, po.exact_period)


def test_hand_built_pseudo_orbits_match_the_oracles():
    cycle = [ShiftPoint.from_cycle((0, 1, 1)).shift(i) for i in range(3)]
    near_cycle = [(0.2003, 0.3998), (0.7999, 0.6002)]
    for system, points in ((SftSystem(FULL2), cycle * 4), (SftSystem(FULL2), cycle[:2]),
                           (CAT, near_cycle * 3), (CAT, near_cycle),
                           (HORSESHOE, [(0.1, 0.05), (0.3, 0.15), (0.9, 0.3)])):
        po = PseudoOrbit(system, points)
        assert isinstance(po.points, tuple) and po.period == len(points)
        assert po.defect == step_defect(system, points)
        assert po.exact_period == exact_period_by_rotation(system, points)


def test_pseudo_orbit_values_cannot_be_set_apart_from_its_points():
    po = PseudoOrbit(CAT, [(0.2, 0.4), (0.8, 0.6)])
    for name, value in (("defect", 1.0), ("period", 3), ("exact_period", False),
                        ("points", ((0.0, 0.0),))):
        with pytest.raises(AttributeError):
            setattr(po, name, value)
    assert (po.period, po.exact_period) == (2, True) and po.defect <= 1e-12


def test_empty_pseudo_orbit_is_rejected():
    for system in (CAT, HORSESHOE, SftSystem(FULL2)):
        with pytest.raises(ValueError, match="point sequence is empty"):
            PseudoOrbit(system, [])


def test_cyclic_period_skips_the_trivial_period(monkeypatch):
    system = cat_map()
    points = [(k / 10, 0.3) for k in range(7)]  # prime length, no smaller period
    calls = counting_distance(system, monkeypatch)
    assert system.cyclic_period(points) == 7
    assert len(calls) == 1
    monkeypatch.undo()
    for sequence, period in ((points[:3] * 2, 3), ([(0.5, 0.5)] * 6, 1),
                             (points[:6], 6), (points[:1], 1)):
        assert system.cyclic_period(sequence) == period
        assert exact_period_by_rotation(system, sequence) == (period == len(sequence))
