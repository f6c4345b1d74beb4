"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime (run with ``pytest tests/test_acceptance.py -s``).

Every expected value here is either computed independently inside the
test (brute-force enumeration, exact integer determinants, dense linear
algebra, log-linear regression) or asserted at the tolerance stated with
the criterion; nothing is tuned to the implementation under test.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from symshadow.dense_periods import (DensePeriodsCertificate,
                                     dense_periods_certificate)
from symshadow.homoclinic import (build_periodic_pseudo_orbit,
                                  compute_excursion_parameters,
                                  verify_pseudo_orbit)
from symshadow.measures import (CylinderObservable, FiniteSupportMeasure,
                                LebesgueTorus, approximate_by_periodic,
                                bernoulli_approximation, correlation,
                                cylinder_family, fourier_family,
                                parry_measure)
from symshadow.sft import (TransitionMatrix, class_period, cyclic_decomposition,
                           is_irreducible, is_primitive, return_time_set)
from symshadow.shadowing import density_check, shadow_periodic
from symshadow.shiftspace import ShiftPoint
from symshadow.systems import SftSystem, cat_map, homoclinic_point

CAT = cat_map()
FULL2 = TransitionMatrix.full_shift(2)


def report(number: int, label: str, started: float, limit: float) -> None:
    elapsed = time.time() - started
    print(f"CRITERION {number}: PASS ({elapsed:.1f}s / limit {limit:.0f}s) - {label}")
    assert elapsed < limit, f"criterion {number} exceeded its runtime limit"


def essential_bits_4(bits: int) -> bool:
    cols = 0
    for i in range(4):
        row = (bits >> (4 * i)) & 15
        if row == 0:
            return False
        cols |= row
    return cols == 15


def test_criterion_1_lpp_iff_primitivity():
    start = time.time()
    checked = 0
    worst_n0: dict[int, int] = {}

    def check(matrix):
        verdict = dense_periods_certificate(matrix, 0.25, 100)
        certified = isinstance(verdict, DensePeriodsCertificate)
        assert certified == is_primitive(matrix)
        if certified:
            worst_n0[matrix.size] = max(worst_n0.get(matrix.size, 0), verdict.N0)

    # exhaustive over all essential matrices with at most 4 states
    for size in (1, 2, 3):
        for bits in range(1 << (size * size)):
            rows = [[(bits >> (size * i + j)) & 1 for j in range(size)]
                    for i in range(size)]
            if not all(any(r) for r in rows):
                continue
            if not all(any(rows[i][j] for i in range(size)) for j in range(size)):
                continue
            check(TransitionMatrix(rows))
            checked += 1
    for bits in range(1 << 16):
        if not essential_bits_4(bits):
            continue
        rows = [[(bits >> (4 * i + j)) & 1 for j in range(4)] for i in range(4)]
        check(TransitionMatrix(rows))
        checked += 1
    # 500 random essential matrices on 5 or 6 states
    rng = random.Random(20260808)
    for _ in range(500):
        size = rng.choice([5, 6])
        density = rng.choice([0.3, 0.4, 0.55])
        while True:
            rows = [[1 if rng.random() < density else 0 for _ in range(size)]
                    for _ in range(size)]
            if all(any(r) for r in rows) and \
                    all(any(rows[i][j] for i in range(size)) for j in range(size)):
                break
        check(TransitionMatrix(rows))
        checked += 1
    worst = ", ".join(f"{size}: {n0}" for size, n0 in sorted(worst_n0.items()))
    report(1, f"dense-period certificates match primitivity on {checked} matrices "
              f"(worst N0 by size {worst})", start, 120.0)


def _exact_period_by_rotation(system, points) -> bool:
    n = len(points)
    for p in range(1, n):
        if n % p == 0 and all(system.distance(points[i], points[(i + p) % n]) <= 1e-12
                              for i in range(n)):
            return False
    return True


def test_criterion_2_construction_exact_periods():
    start = time.time()
    sft_system = SftSystem(FULL2)
    symbolic = homoclinic_point(sft_system, (0, 1), 2.0 ** -3,
                                forward_length=260, backward_length=100)
    toral = homoclinic_point(CAT, (Fraction(1, 5), Fraction(2, 5)), 1e-2,
                             forward_length=260, backward_length=100)
    for datum in (symbolic, toral):
        params = compute_excursion_parameters(datum)
        for n in range(params.N0, params.N0 + 51):
            po = build_periodic_pseudo_orbit(datum, params, n)
            assert len(po.points) == n
            assert po.defect <= datum.delta, f"defect exceeds delta at n = {n}"
            assert _exact_period_by_rotation(datum.system, po.points), \
                f"period collapsed at n = {n}"
    report(2, "pseudo-orbits of every exact period in [N0, N0+50], defect <= delta",
           start, 60.0)


def test_criterion_3_shadowing_composition():
    start = time.time()
    datum = homoclinic_point(CAT, (Fraction(1, 5), Fraction(2, 5)), 1e-2,
                             forward_length=260, backward_length=100)
    params = compute_excursion_parameters(datum)
    C = CAT.shadowing_constant
    reference = datum.reference
    for n in range(params.N0, params.N0 + 51):
        po = build_periodic_pseudo_orbit(datum, params, n)
        orbit = shadow_periodic(CAT, po, tol=1e-12)
        assert orbit.residual <= 1e-10
        assert orbit.shadow_distance <= C * po.defect
        # fixed point of f^n: the cyclic closure step is part of the residual
        closure = CAT.distance(CAT.apply(orbit.points[-1]), orbit.points[0])
        assert closure <= 1e-10
        check = verify_pseudo_orbit(po, datum.delta, reference=reference)
        eps_local = max(check["hausdorff_to_reference"], orbit.shadow_distance)
        dens = density_check(CAT, orbit.points, 3.0 * eps_local,
                             net_points=reference)
        assert dens.dense, f"orbit not 3-epsilon dense at n = {n}"
    report(3, f"shadowed orbits: residual <= 1e-10, distance <= C*delta (C = {C:.3f}), "
              "3-epsilon dense", start, 120.0)


def test_criterion_4_fixed_point_counts():
    start = time.time()
    expected_sequence = [1, 5, 16, 45, 121, 320, 841, 2205, 5776, 15125]
    a = ((2, 1), (1, 1))
    power = ((1, 0), (0, 1))
    lucas_prev, lucas = 2, 3  # trace(A^0), trace(A^1)
    for n in range(1, 11):
        power = (
            (power[0][0] * a[0][0] + power[0][1] * a[1][0],
             power[0][0] * a[0][1] + power[0][1] * a[1][1]),
            (power[1][0] * a[0][0] + power[1][1] * a[1][0],
             power[1][0] * a[0][1] + power[1][1] * a[1][1]),
        )
        det_minus_identity = abs((power[0][0] - 1) * (power[1][1] - 1)
                                 - power[0][1] * power[1][0])
        count = len(CAT.periodic_orbits(n, 100_000))
        assert count == det_minus_identity == expected_sequence[n - 1]
        # second independent route: trace recurrence t_{k+1} = 3 t_k - t_{k-1}
        if n >= 2:
            lucas_prev, lucas = lucas, 3 * lucas - lucas_prev
        assert lucas - 2 == det_minus_identity
    report(4, "|Fix(f^n)| = |det(A^n - I)| = 1,5,16,...,15125 for n = 1..10",
           start, 60.0)


def _random_imprimitive_irreducible(rng) -> TransitionMatrix:
    while True:
        l = rng.choice([2, 2, 3, 4])
        sizes = [1 + rng.randrange(2) for _ in range(l)]
        total = sum(sizes)
        if total > 6:
            continue
        bounds = [sum(sizes[:k]) for k in range(l + 1)]
        rows = [[0] * total for _ in range(total)]
        for k in range(l):
            nxt = (k + 1) % l
            for i in range(bounds[k], bounds[k + 1]):
                for j in range(bounds[nxt], bounds[nxt] + sizes[nxt]):
                    rows[i][j] = 1 if rng.random() < 0.7 else 0
        try:
            matrix = TransitionMatrix(rows)
        except ValueError:
            continue
        if is_irreducible(matrix) and not is_primitive(matrix):
            return matrix


def test_criterion_5_spectral_decomposition():
    start = time.time()
    rng = random.Random(5)
    for _ in range(50):
        matrix = _random_imprimitive_irreducible(rng)
        decomp = cyclic_decomposition(matrix)
        assert decomp.class_period == class_period(matrix) >= 2
        position = {s: k for k, cls in enumerate(decomp.classes) for s in cls}
        for i in range(matrix.size):
            for j in matrix.succ[i]:
                assert position[j] == (position[i] + 1) % decomp.class_period
        power = np.linalg.matrix_power(np.array(matrix.rows, dtype=np.int64),
                                       decomp.class_period)
        for cls in decomp.classes:
            states = sorted(cls)
            sub = TransitionMatrix([[int(power[a][b] > 0) for b in states]
                                    for a in states])
            assert is_primitive(sub)
    report(5, "50 imprimitive irreducible matrices decompose into l primitive pieces",
           start, 60.0)


def test_criterion_6_return_time_group():
    start = time.time()
    rng = random.Random(6)
    done = 0
    while done < 20:
        size = rng.choice([2, 3, 4, 5])
        rows = [[1 if rng.random() < 0.45 else 0 for _ in range(size)]
                for _ in range(size)]
        try:
            matrix = TransitionMatrix(rows)
        except ValueError:
            continue
        if not is_irreducible(matrix):
            continue
        l = class_period(matrix)
        horizon = 14 * size
        length_u = rng.choice([1, 2])
        length_v = rng.choice([1, 2])
        words = []
        for length in (length_u, length_v):
            while True:
                w = tuple(rng.randrange(size) for _ in range(length))
                if matrix.is_admissible_word(w):
                    words.append(w)
                    break
        hits = sorted(n for n in return_time_set(matrix, words[0], words[1], horizon)
                      if n >= horizon // 2)
        assert hits, "no hits beyond the transient for an irreducible matrix"
        assert all(b - a == l for a, b in zip(hits, hits[1:])), \
            f"gaps differ from the class period {l}"
        done += 1
    report(6, "return-time sets become arithmetic progressions with gap l",
           start, 60.0)


def test_criterion_7_pipeline_desk_scale():
    start = time.time()
    target = FiniteSupportMeasure([(ShiftPoint.from_cycle((0,)), Fraction(1, 2)),
                                   (ShiftPoint.from_cycle((1,)), Fraction(1, 2))])
    family = cylinder_family(FULL2, 3)
    result = bernoulli_approximation(target, FULL2, 0.1, family)
    assert is_primitive(result.subshift.matrix), "support must be mixing"
    assert result.distance_to_target <= 0.1
    distances = [d for _, d in result.scan]
    assert len(distances) >= 3
    assert all(b <= a + 1e-12 for a, b in zip(distances, distances[1:])), \
        "scan not monotonically nonincreasing"
    report(7, f"mixing Markov measure within {result.distance_to_target:.3f} <= 0.1 "
              f"of the half/half periodic target (m = {result.m})", start, 120.0)


def test_criterion_8_correlation_decay_fit():
    start = time.time()
    golden = TransitionMatrix.golden_mean()
    mu = parry_measure(golden)
    zero = CylinderObservable((0,))
    ns = np.arange(1, 31)
    values = np.array([abs(correlation(mu, zero, zero, int(n))) for n in ns])
    assert (values > 0).all()
    logs = np.log(values)
    slope, intercept = np.polyfit(ns, logs, 1)
    predicted = slope * ns + intercept
    ss_res = float(((logs - predicted) ** 2).sum())
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot
    eigenvalues = sorted(abs(v) for v in np.linalg.eigvals(np.array(mu.P)))
    rho_eigen = eigenvalues[0] / eigenvalues[1]
    rho_fit = math.exp(slope)
    assert abs(rho_fit - rho_eigen) <= 1e-3, (rho_fit, rho_eigen)
    assert r_squared >= 0.99
    report(8, f"|C_n| fits C*rho^n with rho_fit = {rho_fit:.6f} vs "
              f"|lambda_2|/lambda_1 = {rho_eigen:.6f}, R^2 = {r_squared:.5f}",
           start, 30.0)


def test_criterion_9_equidistribution_on_torus():
    start = time.time()
    family = fourier_family(3)
    result = approximate_by_periodic(LebesgueTorus(), CAT, 0.05, family,
                                     max_period=30, max_denominator=40)
    period = len(result.measure.atoms)
    assert period <= 30
    assert result.distance <= 0.05
    # the winner is a true orbit: exact rational points permuted by the map
    points = [p for p, _ in result.measure.atoms]
    image = {CAT.apply(p) for p in points}
    assert image == set(points)
    report(9, f"period-{period} cat-map orbit within {result.distance:.5f} <= 0.05 "
              "of Lebesgue over modes |k| <= 3", start, 120.0)
