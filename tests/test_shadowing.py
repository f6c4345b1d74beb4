"""Shadowing solver: the closed-form orbits against an independent dense
cyclic solve, exact Fraction solves and the horseshoe coding map; exact
periodic-point enumeration; density checks."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from symshadow.homoclinic import (PseudoOrbit, build_periodic_pseudo_orbit,
                                  compute_excursion_parameters, verify_pseudo_orbit)
from symshadow.sft import NumericalError, TransitionMatrix
from symshadow.shadowing import DensityReport, density_check, shadow_periodic
from symshadow.shiftspace import ShiftPoint, word_radius
from symshadow.systems import (Horseshoe, SftSystem, ToralAutomorphism, cat_map,
                               homoclinic_point)

CAT = cat_map()
GOLDEN_TORUS = ToralAutomorphism([[1, 1], [1, 0]])  # det -1
HORSESHOE = Horseshoe(1 / 3, 3.0)
FULL2 = TransitionMatrix.full_shift(2)
CAP = 100_000  # fixed points per period in the enumeration tests


def cyclic_solve_oracle(system, points):
    """Independent shadowing oracle: assemble the full 2n x 2n linearized
    cyclic system A e_i - e_{i+1} = -d_i and solve it densely."""
    n = len(points)
    a = np.array(system.matrix, dtype=float)
    big = np.zeros((2 * n, 2 * n))
    rhs = np.zeros(2 * n)
    for i in range(n):
        big[2 * i:2 * i + 2, 2 * i:2 * i + 2] = a
        j = (i + 1) % n
        big[2 * i:2 * i + 2, 2 * j:2 * j + 2] -= np.eye(2)
        fx = system.apply(points[i])
        d = [((float(fx[k]) - float(points[j][k]) + 0.5) % 1.0) - 0.5 for k in range(2)]
        rhs[2 * i:2 * i + 2] = [-d[0], -d[1]]
    corr = np.linalg.solve(big, rhs)
    return [((float(points[i][0]) + corr[2 * i]) % 1.0,
             (float(points[i][1]) + corr[2 * i + 1]) % 1.0) for i in range(n)]


def test_shadow_true_orbit_is_fixed_point_of_solver():
    po = PseudoOrbit(CAT, [(0.2, 0.4), (0.8, 0.6)])
    assert po.defect <= 1e-12
    orbit = shadow_periodic(CAT, po, tol=1e-12)
    assert orbit.shadow_distance <= 1e-12
    assert orbit.residual <= 1e-12
    assert max(CAT.distance(p, q) for p, q in zip(orbit.points, po.points)) <= 1e-12


def test_shadow_perturbed_orbit_matches_dense_oracle():
    rng = random.Random(3)
    base = [(0.2, 0.4), (0.8, 0.6)]
    pts = [((x + (rng.random() - 0.5) * 2e-3) % 1.0,
            (y + (rng.random() - 0.5) * 2e-3) % 1.0) for x, y in base]
    defect = max(CAT.distance(CAT.apply(pts[i]), pts[(i + 1) % 2]) for i in range(2))
    po = PseudoOrbit(CAT, pts)
    assert po.defect == defect
    orbit = shadow_periodic(CAT, po, tol=1e-12)
    oracle = cyclic_solve_oracle(CAT, pts)
    for mine, ref in zip(orbit.points, oracle):
        assert CAT.distance(mine, ref) <= 1e-10
    assert orbit.residual <= 1e-12
    C = CAT.shadowing_constant
    assert orbit.shadow_distance <= C * defect


def test_shadow_long_pseudo_orbit_against_oracle():
    datum = homoclinic_point(CAT, (Fraction(1, 5), Fraction(2, 5)), 1e-2,
                             forward_length=200, backward_length=80)
    params = compute_excursion_parameters(datum)
    po = build_periodic_pseudo_orbit(datum, params, params.N0 + 3)
    orbit = shadow_periodic(CAT, po, tol=1e-12)
    oracle = cyclic_solve_oracle(CAT, po.points)
    worst = max(CAT.distance(a, b) for a, b in zip(orbit.points, oracle))
    assert worst <= 1e-9
    assert orbit.residual <= 1e-12
    assert orbit.period == po.period
    assert orbit.primitive_period == po.period


def fraction_shadow_oracle(system, points):
    """Independent exact shadowing orbit: the lifts k_i of the exact values
    of the float points, K = sum_i A^(n-1-i) k_i from explicit matrix
    powers, a 2x2 Fraction solve of (A^n - I) y_0 = K, and n - 1 exact
    steps of ``apply``."""
    (a, b), (c, d) = system.matrix
    xs = [(Fraction(x), Fraction(y)) for x, y in points]
    n = len(xs)
    power = ((1, 0), (0, 1))  # A^(n-1-i) at step i, i falling
    K = [0, 0]
    for i in reversed(range(n)):
        (x0, x1), (z0, z1) = xs[i], xs[(i + 1) % n]
        k = (round(a * x0 + b * x1 - z0), round(c * x0 + d * x1 - z1))
        for r in range(2):
            K[r] += power[r][0] * k[0] + power[r][1] * k[1]
        power = tuple(tuple(power[r][0] * system.matrix[0][col]
                            + power[r][1] * system.matrix[1][col] for col in range(2))
                      for r in range(2))
    (m00, m01), (m10, m11) = (power[0][0] - 1, power[0][1]), (power[1][0], power[1][1] - 1)
    det = m00 * m11 - m01 * m10
    y = (Fraction(m11 * K[0] - m01 * K[1], det) % 1,
         Fraction(m00 * K[1] - m10 * K[0], det) % 1)
    orbit = [y]
    for _ in range(n - 1):
        orbit.append(system.apply(orbit[-1]))
    return orbit


def lifts_are_unambiguous(system, points):
    """No step of A x_i - x_{i+1} lies within float error of a half-integer."""
    (a, b), (c, d) = system.matrix
    return all(abs(abs(r - round(r)) - 0.5) >= 1e-9
               for (x0, x1), (z0, z1) in zip(points, points[1:] + points[:1])
               for r in (a * x0 + b * x1 - z0, c * x0 + d * x1 - z1))


unit = st.floats(0.0, 1.0, exclude_max=True)


@given(st.sampled_from([CAT, GOLDEN_TORUS]),
       st.lists(st.tuples(unit, unit), min_size=1, max_size=40))
def test_torus_closed_form_is_the_exact_fraction_orbit(system, points):
    assume(lifts_are_unambiguous(system, points))
    orbit, period = system.shadowing_orbit(points)
    exact = fraction_shadow_oracle(system, points)
    assert orbit == [(float(x), float(y)) for x, y in exact]
    assert period == next(p for p in range(1, len(exact) + 1)
                          if exact[p % len(exact)] == exact[0])


@given(st.lists(st.tuples(st.integers(0, 1), unit, unit), min_size=1, max_size=40))
def test_horseshoe_closed_form_is_the_coded_itinerary(draws):
    # any points in the strips of the itinerary c_i: height 1/mu_u at the bottom or top
    itinerary = tuple(c for c, _, _ in draws)
    h = 1.0 / HORSESHOE.mu_u
    points = [(x, 1.0 - t * h if c else t * h) for c, x, t in draws]
    orbit, period = HORSESHOE.shadowing_orbit(points)
    base = ShiftPoint.from_cycle(itinerary)
    for i, point in enumerate(orbit):
        coded = HORSESHOE.code_point(base.shift(i))
        assert max(abs(point[0] - coded[0]), abs(point[1] - coded[1])) <= 1e-15
    n = len(itinerary)
    assert period == next(p for p in range(1, n + 1)
                          if n % p == 0 and itinerary == itinerary[p:] + itinerary[:p])


def test_repeated_lifts_and_itineraries_give_the_smaller_primitive_period():
    near_two_cycle = [(0.2003, 0.3998), (0.7999, 0.6002)]  # the cat-map orbit of (1/5, 2/5)
    base = ShiftPoint.from_cycle((0, 1, 0))
    near_010 = [(x + 1e-4, y) for x, y in (HORSESHOE.code_point(base.shift(i))
                                           for i in range(3))]
    for system, points, p in ((CAT, near_two_cycle, 2), (HORSESHOE, near_010, 3)):
        orbit, period = system.shadowing_orbit(points * 4)
        assert period == p and orbit == system.shadowing_orbit(points)[0] * 4
        n = 4 * len(points)
        defect = max(system.distance(system.apply(x), y)
                     for x, y in zip(points, points[1:] + points[:1]))
        po = PseudoOrbit(system, points * 4)
        assert (po.period, po.defect) == (n, defect)
        shadow = shadow_periodic(system, po)
        assert (shadow.period, shadow.primitive_period) == (n, p)
        assert shadow.points == orbit
    assert CAT.shadowing_orbit(near_two_cycle)[0] == [(0.2, 0.4), (0.8, 0.6)]


def test_symbolic_primitive_period_is_the_smallest_rotation_of_the_orbit():
    system = SftSystem(FULL2)
    datum = homoclinic_point(system, (0, 1), 2.0 ** -3,
                             forward_length=200, backward_length=80)
    params = compute_excursion_parameters(datum)
    base = ShiftPoint.from_cycle((0, 1, 1))
    pseudo_orbits = [PseudoOrbit(system, [base.shift(i) for i in range(12)])]
    pseudo_orbits += [build_periodic_pseudo_orbit(datum, params, n)
                      for n in range(params.N0, params.N0 + 4)]
    for po in pseudo_orbits:
        orbit = shadow_periodic(system, po)
        pts, n = orbit.points, po.period
        assert orbit.primitive_period == next(
            p for p in range(1, n + 1)
            if n % p == 0 and all(pts[i] == pts[(i + p) % n] for i in range(n)))
    assert shadow_periodic(system, pseudo_orbits[0]).primitive_period == 3


def test_symbolic_shadow_is_word_gluing():
    system = SftSystem(FULL2)
    datum = homoclinic_point(system, (0, 1), 2.0 ** -3,
                             forward_length=200, backward_length=80)
    params = compute_excursion_parameters(datum)
    po = build_periodic_pseudo_orbit(datum, params, params.N0 + 5)
    orbit = shadow_periodic(system, po)
    assert orbit.residual == 0.0
    m = 3  # delta = 2^-3
    assert orbit.shadow_distance <= 2.0 ** (-(m - 1))
    # gluing invariance: the shadow agrees with each string away from jumps
    for i in range(po.period):
        near_jump = any((j - i) % po.period <= m or (i - j) % po.period <= m
                        for j in po.jump_indices)
        if not near_jump:
            assert orbit.points[i][0] == po.points[i][0]


def test_enumerate_cat_fixed_points_small():
    assert [len(CAT.periodic_orbits(n, CAP)) for n in (1, 2, 3)] == [1, 5, 16]
    pts2 = {orbit[0] for orbit in CAT.periodic_orbits(2, CAP)}
    assert (Fraction(0), Fraction(0)) in pts2
    assert (Fraction(1, 5), Fraction(2, 5)) in pts2
    assert all(p[0].denominator in (1, 5) for p in pts2)


def test_enumerate_orbit_entries_are_true_orbits():
    for pts in CAT.periodic_orbits(3, CAP):
        for i in range(len(pts)):
            assert CAT.apply(pts[i]) == pts[(i + 1) % len(pts)]
    for n in range(1, 7):  # the horseshoe's coded orbits, in floating point
        for pts in HORSESHOE.periodic_orbits(n, CAP):
            assert n % len(pts) == 0
            for i in range(len(pts)):
                assert HORSESHOE.distance(HORSESHOE.apply(pts[i]), pts[(i + 1) % len(pts)]) \
                    <= 1e-12


def test_torus_entries_are_the_orbits_of_the_sorted_fixed_points():
    for system, n_max in ((CAT, 6), (ToralAutomorphism([[3, 2], [1, 1]]), 5)):
        for n in range(1, n_max + 1):
            assert system.periodic_orbits(n, CAP) == \
                [system.orbit_of(p) for p in system.periodic_lattice_points(n)]


def test_enumerate_sft_matches_trace():
    from symshadow.sft import count_periodic_points
    for system in (SftSystem(TransitionMatrix.golden_mean()), HORSESHOE):
        for n in range(1, 8):
            orbits = system.periodic_orbits(n, CAP)
            assert len(orbits) == count_periodic_points(system.coding_matrix, n)
    assert [len(HORSESHOE.periodic_orbits(n, CAP)) for n in range(1, 7)] == \
        [2, 4, 8, 16, 32, 64]


def test_density_check_examples():
    level2 = [tuple(float(c) for c in orbit[0]) for orbit in CAT.periodic_orbits(2, CAP)]
    report = density_check(CAT, level2, 0.6, net_points=CAT.net(0.25))
    assert report.dense

    lonely = density_check(CAT, [(0.0, 0.0)], 0.1, net_points=CAT.net(0.05))
    assert not lonely.dense
    assert lonely.witness is not None
    assert CAT.distance(lonely.witness, (0.5, 0.5)) <= 0.25


def test_density_symbolic_witness_matches_factor_scan():
    from symshadow.dense_periods import dense_periods_certificate
    system = SftSystem(FULL2)
    cert = dense_periods_certificate(FULL2, 0.25, 30)
    witness = cert.witnesses[cert.N0]
    base = ShiftPoint.from_cycle(witness.states)
    orbit_points = [base.shift(i) for i in range(cert.N0)]
    epsilon = 2.0 ** -cert.word_length
    report = density_check(system, orbit_points, epsilon, net_points=system.net(epsilon / 2))
    assert report.dense


def proximity_loop_density(orbit_points, epsilon, net_points):
    """The per-pair forward-window loop: lcp of x_0..x_{cap-1} and y_0..y_{cap-1}."""
    cap = max(word_radius(epsilon) + 8, 16)

    def proximity(x, y):
        lcp = 0
        while lcp < cap and x[lcp] == y[lcp]:
            lcp += 1
        return 2.0 ** (-lcp)

    worst, witness = -1.0, None
    for y in net_points:
        d = min(proximity(x, y) for x in orbit_points)
        if d > worst:
            worst, witness = d, y
    return worst <= epsilon, worst, None if worst <= epsilon else witness


words = st.lists(st.integers(0, 1), min_size=1, max_size=7).map(tuple)


@given(st.lists(st.tuples(words, words, st.integers(-25, 40)), max_size=5),
       st.lists(st.tuples(words, words, st.integers(-25, 40)), min_size=1, max_size=8),
       st.sampled_from([0.5, 0.25, 0.1, 2.0 ** -20, 1e-9]))
def test_symbolic_density_matches_the_proximity_loop(orbit, net_points, epsilon):
    # points that share long stretches of 0s (past the window cap) and of their cycles
    orbit = [ShiftPoint(a, b, a, pos=k) for a, b, k in orbit] + [ShiftPoint.from_cycle((0,))]
    net_points = [ShiftPoint((0,), a + b, b, pos=k) for a, b, k in net_points]
    report = density_check(SftSystem(FULL2), orbit, epsilon, net_points=net_points)
    dense, worst, witness = proximity_loop_density(orbit, epsilon, net_points)
    assert (report.dense, report.worst_distance) == (dense, worst)
    assert report.witness is witness


def test_symbolic_density_caps_the_forward_window():
    zero = ShiftPoint.from_cycle((0,))
    far = ShiftPoint((0,), (1,), (0,), pos=60)  # shares x_0..x_59 with the zero point
    for epsilon, cap in ((0.5, 16), (2.0 ** -20, 28), (1e-9, 38)):
        report = density_check(SftSystem(FULL2), [zero], epsilon, net_points=[far])
        assert report.worst_distance == 2.0 ** -cap
        assert report.worst_distance == proximity_loop_density([zero], epsilon, [far])[1]


def test_symbolic_density_accepts_epsilon_beyond_one():
    # any two shift points are within 1, so every epsilon >= 1 is dense,
    # with the reports of epsilon = 1; the smooth systems take such values too
    system = SftSystem(FULL2)
    zero = ShiftPoint.from_cycle((0,))
    net_points = [ShiftPoint.from_cycle((1,)), ShiftPoint((0,), (1,), (0,), pos=3)]
    at_one = density_check(system, [zero], 1.0, net_points=net_points)
    assert at_one == DensityReport(True, 1.0, None)
    for epsilon in (1.5, 3.0, 1e9):
        assert density_check(system, [zero], epsilon, net_points=net_points) == at_one
        assert density_check(system, [zero], epsilon, net_points=system.net(epsilon / 2)).dense
    assert density_check(CAT, [(0.0, 0.0)], 3.0, net_points=CAT.net(1.5)).dense


@pytest.mark.parametrize("system, anchor, delta", [
    (CAT, (Fraction(1, 5), Fraction(2, 5)), 0.01),
    (HORSESHOE, (0, 1), 0.05),
    (SftSystem(FULL2), (0, 1), 0.125),
    (SftSystem(TransitionMatrix.golden_mean()), (0,), 0.125),
], ids=["cat_map", "horseshoe", "full_2_shift", "golden_mean"])
def test_shadowed_orbits_are_dense_at_three_times_hausdorff_and_shadow(system, anchor,
                                                                        delta):
    # the README pseudo-shadow anchors: every reference point lies within H of
    # the pseudo-orbit, which lies within S of the orbit, so the orbit is
    # 3 max(H, S)-dense on the reference; this is why pseudo-shadow rows report
    # H rather than a density flag
    datum = homoclinic_point(system, anchor, delta=delta)
    params = compute_excursion_parameters(datum)
    datum = datum.covering(params, params.N0 + 12)
    for n in range(params.N0, params.N0 + 13):
        po = build_periodic_pseudo_orbit(datum, params, n)
        hausdorff = verify_pseudo_orbit(po, delta, reference=datum.reference)[
            "hausdorff_to_reference"]
        orbit = shadow_periodic(system, po)
        epsilon = 3.0 * max(hausdorff, orbit.shadow_distance, 1e-12)
        assert density_check(system, orbit.points, epsilon,
                             net_points=datum.reference).dense, f"n = {n}"


def test_density_check_without_orbit_points_raises():
    shift, shift_net = SftSystem(FULL2), [ShiftPoint.from_cycle((0, 1))]
    for system, net_points in ((shift, shift_net), (shift, shift.net(0.25)),
                               (CAT, [(0.5, 0.5)]), (CAT, CAT.net(0.25))):
        with pytest.raises(ValueError, match="distance to an empty point set"):
            density_check(system, [], 0.5, net_points=net_points)


def test_shadowing_bound_guard():
    # a pseudo-orbit with a huge defect violates the chart precondition
    po = PseudoOrbit(CAT, [(0.1, 0.1), (0.9, 0.8)])
    assert po.defect >= 0.4
    with pytest.raises(NumericalError, match="exceeds the chart radius"):
        shadow_periodic(CAT, po)


def test_a_shadow_past_c_delta_raises_the_bound_violation():
    # the cat map with its closing-lemma constant cut a thousandfold: the
    # shadow of a pseudo-orbit lies farther than C * delta from it
    datum = homoclinic_point(CAT, (Fraction(1, 5), Fraction(2, 5)), 0.01)
    params = compute_excursion_parameters(datum)
    po = build_periodic_pseudo_orbit(datum, params, params.N0)
    orbit = shadow_periodic(CAT, po)
    assert 0.0 < orbit.shadow_distance <= CAT.shadowing_constant * po.defect
    weak = cat_map()
    weak.shadowing_constant = CAT.shadowing_constant / 1000
    with pytest.raises(NumericalError, match="shadowing bound violated"):
        shadow_periodic(weak, PseudoOrbit(weak, po.points))


def test_symbolic_gluing_guards():
    # 0^inf then 1^inf: f(x_0) and x_1 differ at coordinate 0, defect 1 > 1/2
    po = PseudoOrbit(SftSystem(FULL2), [ShiftPoint.from_cycle((0,)), ShiftPoint.from_cycle((1,))])
    assert po.defect == 1.0
    with pytest.raises(NumericalError, match="defect <= 1/2"):
        shadow_periodic(po.system, po)
    # a fixed point outside the golden mean shift: defect 0, glued word 1 not a cycle there
    golden = SftSystem(TransitionMatrix.golden_mean())
    po = PseudoOrbit(golden, [ShiftPoint.from_cycle((1,))])
    assert po.defect == 0.0
    with pytest.raises(NumericalError, match="glued word inadmissible"):
        shadow_periodic(golden, po)
