"""Measures, weak-* distances, correlation decay, and the approximation
pipeline, cross-checked against closed forms and brute-force counts."""

import cmath
import gc
import math
import random
import time
import weakref
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rational_orbit_lattices
from symshadow import measures, sft, systems
from symshadow.measures import TestFamily as Family
from symshadow.cli import _load_target
from symshadow.measures import (BLOCK_REPS, FAMILY_SIZE, BernoulliProduct, CylinderObservable,
                                FiniteSupportMeasure, FourierMode, LebesgueTorus,
                                MarkovMeasure, _atom_sums, _block_words,
                                _cyclic_word_integrals, _gaps,
                                _orbit_cycles_of_target, _orbit_entries,
                                _shortest_within, approximate_by_periodic,
                                bernoulli_approximation, block_subshift,
                                correlation, cycle_measure, cylinder_family,
                                fourier_family, parry_measure,
                                periodic_measure, rational_orbit_distances,
                                renewal_cylinders, weak_star_distance)
from symshadow.sft import (ConvergenceError, TransitionMatrix, _primitive_period,
                           admissible_words, count_periodic_points, enumerate_cycles, is_primitive, perron_data, topological_entropy)
from symshadow.shiftspace import ShiftPoint
from symshadow.systems import SftSystem, ToralAutomorphism, cat_map, sft_homoclinic_splice

FULL2 = TransitionMatrix.full_shift(2)
GOLDEN = TransitionMatrix.golden_mean()
WHEEL = TransitionMatrix([[1, 1, 0], [0, 0, 1], [1, 0, 0]])
PHI = (1 + math.sqrt(5)) / 2
FAM3 = cylinder_family(FULL2, 3)


def brute_cycle_frequency(word, factor):
    """Cyclic factor frequency by direct string counting."""
    n = len(word)
    tiled = word * 3
    hits = sum(1 for i in range(n) if tiled[i:i + len(factor)] == tuple(factor))
    return hits / n


def mixed_target():
    d0 = ShiftPoint.from_cycle((0,))
    d1 = ShiftPoint.from_cycle((1,))
    return FiniteSupportMeasure([(d0, Fraction(1, 2)), (d1, Fraction(1, 2))])


# -- test families -----------------------------------------------------------
#
# The families as they were before they stopped at FAMILY_SIZE observables:
# every observable up to the depth or bound, weighted 2^-j, so 0.0 past that size.


def uncut_cylinder_family(matrix, depth):
    obs = tuple(CylinderObservable(w) for length in range(1, depth + 1)
                for w in sorted(admissible_words(matrix, length)))
    return Family(obs, tuple(2.0 ** (-(j + 1)) for j in range(len(obs))),
                  f"cylinders depth {depth}")


def uncut_fourier_family(max_frequency):
    ks = []
    for k1 in range(-max_frequency, max_frequency + 1):
        for k2 in range(-max_frequency, max_frequency + 1):
            if (k1, k2) != (0, 0) and (k1 > 0 or (k1 == 0 and k2 > 0)):
                ks.append((k1, k2))
    ks.sort(key=lambda k: (k[0] * k[0] + k[1] * k[1], k[0], k[1]))
    obs = tuple(FourierMode(k) for k in ks)
    return Family(obs, tuple(2.0 ** (-(j + 1)) for j in range(len(obs))),
                  f"fourier modes |k| <= {max_frequency}")


def assert_cut(family, uncut, description):
    assert family.observables == uncut.observables[:FAMILY_SIZE]
    assert family.weights == uncut.weights[:FAMILY_SIZE]
    assert set(uncut.weights[FAMILY_SIZE:]) <= {0.0}
    assert family.description == description


def test_family_size_is_where_the_weights_underflow():
    assert 2.0 ** -FAMILY_SIZE > 0 == 2.0 ** -(FAMILY_SIZE + 1)


LOW_ENTROPY = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 1, 0]])  # lambda ~ 1.3247


@pytest.mark.parametrize("matrix", [FULL2, TransitionMatrix.full_shift(3), GOLDEN, LOW_ENTROPY],
                         ids=["full2", "full3", "golden", "low_entropy"])
def test_cylinder_family_is_the_uncut_family_cut(matrix):
    # words come by length, so past the least depth whose uncut family has
    # FAMILY_SIZE words, a deeper uncut family starts with the same words
    filled = next(d for d in range(1, 100) if len(uncut_cylinder_family(matrix, d)) >= FAMILY_SIZE)
    for depth in [*range(1, 31), 10 ** 9]:
        assert_cut(cylinder_family(matrix, depth),
                   uncut_cylinder_family(matrix, min(depth, filled)), f"cylinders depth {depth}")
    assert len(cylinder_family(matrix, filled)) == FAMILY_SIZE


def test_cylinder_family_on_one_symbol_extends_each_length_from_the_last():
    # the one word of each length: rebuilt from length 1 for every length, the
    # first FAMILY_SIZE lengths would copy about 2e8 tuple entries
    start = time.perf_counter()
    family = cylinder_family(TransitionMatrix([[1]]), 2000)
    elapsed = time.perf_counter() - start
    assert family.observables == tuple(CylinderObservable((0,) * n)
                                       for n in range(1, FAMILY_SIZE + 1))
    assert elapsed < 0.1


def test_fourier_family_is_the_uncut_family_cut():
    # modes come by |k|^2, and the first FAMILY_SIZE have |k|^2 <= 685 < 181^2, so a
    # bound past 181 starts with the modes of bound 181
    for bound in [*range(1, 41), 60, 127, 181, 10 ** 6]:
        assert_cut(fourier_family(bound), uncut_fourier_family(min(bound, 181)),
                   f"fourier modes |k| <= {bound}")
    assert fourier_family(10 ** 6).observables[-1] == FourierMode((3, 26))


@pytest.mark.parametrize("target, system, families, depths, horizon", [
    (mixed_target(), SftSystem(FULL2), (partial(cylinder_family, FULL2),
                                        partial(uncut_cylinder_family, FULL2)), (11, 12), {}),
    (BernoulliProduct([0.3, 0.7]), SftSystem(FULL2), (partial(cylinder_family, FULL2),
                                                      partial(uncut_cylinder_family, FULL2)),
     (11,), {}),
    (LebesgueTorus(), cat_map(), (fourier_family, uncut_fourier_family), (30, 40),
     {"max_period": 30, "max_denominator": 40}),
], ids=["half_mix", "bernoulli", "torus"])
def test_periodic_scores_past_the_cut_equal_the_uncut_family(target, system, families, depths,
                                                             horizon):
    # the weights past FAMILY_SIZE are 0.0, so each dropped term added +0.0
    for depth in depths:
        got, want = (approximate_by_periodic(target, system, 0.1, build(depth), **horizon)
                     for build in families)
        assert (got.distance.hex(), got.description) == (want.distance.hex(), want.description)


def test_bernoulli_past_the_cut_keeps_its_choices():
    # the renewal masses come at the family's longest word (10 on the full 2-shift),
    # not at depth 11, so only the last bits of the distances may move
    got, want = (bernoulli_approximation(mixed_target(), FULL2, 0.1, family)
                 for family in (cylinder_family(FULL2, 11), uncut_cylinder_family(FULL2, 11)))
    assert (got.m, got.cycle, got.subshift, got.within_epsilon) == \
        (want.m, want.cycle, want.subshift, want.within_epsilon)
    assert got.measure.to_json_dict() == want.measure.to_json_dict()
    pairs = [(got.distance_to_target, want.distance_to_target),
             (got.distance_to_periodic, want.distance_to_periodic)]
    pairs += [(a, b) for (m, a), (n, b) in zip(got.scan, want.scan, strict=True) if m == n]
    assert len(pairs) == 2 + len(want.scan)
    assert all(a == pytest.approx(b, rel=1e-13, abs=0) for a, b in pairs)


# -- finite-support measures -------------------------------------------------


def test_periodic_measure_examples():
    delta = periodic_measure([(0.0, 0.0)])
    assert delta.atoms[0][1] == 1
    two = periodic_measure([(0.2, 0.4), (0.8, 0.6)])
    assert all(w == Fraction(1, 2) for _, w in two.atoms)
    three = cycle_measure(FULL2, (0, 0, 1))
    assert len(three.atoms) == 3
    assert all(w == Fraction(1, 3) for _, w in three.atoms)


def test_cycle_measure_masses_match_string_counts():
    mu = cycle_measure(FULL2, (0, 0, 1, 1))
    for obs in FAM3.observables:
        assert mu.integrate(obs) == pytest.approx(
            brute_cycle_frequency((0, 0, 1, 1), obs.word), abs=1e-12)


def is_invariant_under(mu, system, tol=1e-9):
    """Pushforward permutes the atoms with matching weights."""
    for p, w in mu.atoms:
        image = system.apply(p)
        match = [w2 for p2, w2 in mu.atoms if system.distance(image, p2) <= tol]
        if not match or abs(float(match[0]) - float(w)) > 1e-12:
            return False
    return True


def test_periodic_measure_invariance():
    system = SftSystem(FULL2)
    mu = cycle_measure(FULL2, (0, 1, 1))
    assert is_invariant_under(mu, system)
    lopsided = FiniteSupportMeasure([(ShiftPoint.from_cycle((0, 1)), Fraction(1, 3)),
                                     (ShiftPoint.from_cycle((0, 1), 1), Fraction(2, 3))])
    assert not is_invariant_under(lopsided, system)


def test_orbit_cycles_of_target_groups_rotation_classes():
    from symshadow.measures import _orbit_cycles_of_target
    atoms = [(ShiftPoint.from_cycle((0, 1, 1), 1), Fraction(1, 6)),
             (ShiftPoint.from_cycle((0,)), Fraction(1, 6)),
             (ShiftPoint((0, 1, 1, 0, 1, 1), (), (0, 1, 1), pos=4), Fraction(1, 3)),
             (ShiftPoint((0, 0), (0,), (0,), pos=-2), Fraction(1, 3))]
    parts = _orbit_cycles_of_target(FiniteSupportMeasure(atoms))
    assert parts == [((1, 1, 0), 0.5), ((0,), 0.5)]
    stray = ShiftPoint((0,), (1,), (0,), pos=0)  # not periodic
    assert _orbit_cycles_of_target(FiniteSupportMeasure([(stray, 1.0)])) == []


def test_normalization_enforced():
    with pytest.raises(ValueError):
        FiniteSupportMeasure([((0.0, 0.0), 0.5)])
    with pytest.raises(ValueError):
        FiniteSupportMeasure([((0.0, 0.0), -1.0), ((0.1, 0.1), 2.0)])
    for weights in ([math.nan], [0.5, math.nan], [math.inf]):
        with pytest.raises(ValueError):
            FiniteSupportMeasure([((0.1 * i, 0.0), w) for i, w in enumerate(weights)])


def test_normalization_tolerance_on_fraction_weights():
    # exact 1/n weights pass, all n to 256 and a stride to 2048; an atom off
    # by 1e-13 in either direction does not
    for n in [*range(1, 257), *range(257, 2048, 37), 2047, 2048]:
        w = Fraction(1, n)
        FiniteSupportMeasure([(i, w) for i in range(n)])
    for n in (1, 3, 64, 2048):
        for off in (Fraction(1, 10 ** 13), -Fraction(1, 10 ** 13)):
            atoms = [(i, Fraction(1, n)) for i in range(n)]
            atoms[-1] = (n - 1, Fraction(1, n) + off)
            with pytest.raises(ValueError):
                FiniteSupportMeasure(atoms)


# -- Parry measures ------------------------------------------------------------


def test_parry_full_shift_is_uniform():
    mu = parry_measure(FULL2)
    assert np.allclose(mu.P, [[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(mu.pi, [0.5, 0.5])


def test_parry_golden_mean_closed_forms():
    mu = parry_measure(GOLDEN)
    assert mu.P[0][0] == pytest.approx(1 / PHI, abs=1e-12)
    assert mu.P[0][1] == pytest.approx(1 / PHI ** 2, abs=1e-12)
    assert mu.P[1][0] == pytest.approx(1.0, abs=1e-15)
    assert mu.pi[0] == pytest.approx(PHI ** 2 / (1 + PHI ** 2), abs=1e-12)
    # stationarity cross-check
    assert sum(mu.pi[i] * mu.P[i][0] for i in range(2)) == pytest.approx(mu.pi[0],
                                                                         abs=1e-12)


def test_parry_entropy_equals_topological():
    for matrix in (FULL2, GOLDEN, WHEEL):
        mu = parry_measure(matrix)
        assert mu.entropy() == pytest.approx(topological_entropy(matrix), abs=1e-10)


def test_parry_rejects_non_primitive():
    with pytest.raises(ValueError):
        parry_measure(TransitionMatrix([[0, 1], [1, 0]]))


GOLDEN_CHAIN = ([[0.5, 0.5], [1.0, 0.0]], [2 / 3, 1 / 3])  # stationary on the golden mean


@pytest.mark.parametrize("P, pi, message", [
    ([[0.5, 0.5], [0.9, 0.1]], GOLDEN_CHAIN[1], "transition off the support"),
    ([[1.5, -0.5], [1.0, 0.0]], [2 / 3, 1 / 3], "negative transition probability"),
    ([[0.5, 0.6], [1.0, 0.0]], GOLDEN_CHAIN[1], "row 0 not stochastic"),
    ([[math.nan, 0.5], [1.0, 0.0]], GOLDEN_CHAIN[1], "row 0 not stochastic"),
    ([[0.5, 0.5], [1.0, 0.0]], [0.6, 0.4], "pi not stationary"),
    ([[0.5, 0.5], [1.0, 0.0]], [math.nan, 1 / 3], "must be positive, sum 1"),
], ids=["off-support", "negative", "not-stochastic", "nan-row", "not-stationary", "nan-pi"])
def test_markov_measure_rejects(P, pi, message):
    with pytest.raises(ValueError, match=message):
        MarkovMeasure(GOLDEN, P, pi)


def test_parry_measure_fills_only_the_edges():
    for matrix in (FULL2, GOLDEN, WHEEL):
        mu = parry_measure(matrix)
        assert all((p > 0) == bool(a) for row, arow in zip(mu.P, matrix.rows)
                   for p, a in zip(row, arow))


def test_parry_maximizes_entropy_spot_check():
    rng = random.Random(11)
    mu = parry_measure(GOLDEN)
    target = mu.entropy()
    for _ in range(100):
        # random compatible chain on the golden-mean support
        p00 = rng.uniform(0.05, 0.95)
        P = [[p00, 1 - p00], [1.0, 0.0]]
        pi0 = 1 / (2 - p00)
        chain = MarkovMeasure(GOLDEN, P, [pi0, 1 - pi0])
        assert chain.entropy() <= target + 1e-12


# -- integration ----------------------------------------------------------------


def test_integrate_examples():
    assert LebesgueTorus().integrate(FourierMode((1, 0))) == 0.0
    origin = FiniteSupportMeasure([((0.0, 0.0), Fraction(1))])
    assert origin.integrate(FourierMode((3, -2))) == pytest.approx(1.0)
    mu = parry_measure(GOLDEN)
    assert mu.integrate(CylinderObservable((0, 0))) == pytest.approx(
        mu.pi[0] * mu.P[0][0], abs=1e-14)


def test_empty_cylinder_is_the_total_mass():
    empty = CylinderObservable(())
    mu = parry_measure(GOLDEN)
    assert mu.integrate(empty) == sum(mu.pi) == pytest.approx(1.0, abs=1e-12)
    assert cycle_measure(FULL2, (0, 0, 1)).integrate(empty) == pytest.approx(1.0, abs=1e-15)
    assert BernoulliProduct((0.3, 0.7)).integrate(empty) == 1.0


@pytest.mark.parametrize("p", [[math.nan, 1.0], [0.5, math.nan], [math.inf, 0.5],
                               [0.0, 1.0], [0.3, 0.3]])
def test_bernoulli_probabilities_must_be_positive_and_sum_to_one(p):
    with pytest.raises(ValueError, match="positive and sum to 1"):
        BernoulliProduct(p)


def test_markov_cylinder_mass_is_chain_product():
    mu = parry_measure(GOLDEN)
    word = (0, 0, 1, 0)
    expected = mu.pi[0] * mu.P[0][0] * mu.P[0][1] * mu.P[1][0]
    assert mu.cylinder_mass(word) == pytest.approx(expected, abs=1e-14)
    assert mu.cylinder_mass((1, 1)) == 0.0


def test_unsupported_observable_raises():
    with pytest.raises(TypeError):
        parry_measure(FULL2).integrate(FourierMode((1, 1)))
    with pytest.raises(TypeError):
        LebesgueTorus().integrate(CylinderObservable((0,)))
    # a cylinder against torus atoms, a Fourier mode against shift-point atoms
    with pytest.raises(TypeError):
        cat_map_orbit_measure().integrate(CylinderObservable((0,)))
    with pytest.raises(TypeError):
        cycle_measure(FULL2, (0, 1)).integrate(FourierMode((1, 0)))
    with pytest.raises(TypeError):
        weak_star_distance(cat_map_orbit_measure(), cycle_measure(FULL2, (0, 1)), FAM3)
    with pytest.raises(TypeError):
        weak_star_distance(LebesgueTorus(), cycle_measure(FULL2, (0, 1)), fourier_family(1))


def cat_map_orbit_measure():
    return periodic_measure(cat_map().orbit_of((Fraction(1, 5), Fraction(2, 5))))


# -- weak-* distance against the one-observable-at-a-time oracle --------------------


def oracle_integrate(measure, obs):
    """One observable at a time: every atom rescanned, every Fraction weight
    and coordinate converted to float again on each call."""
    if not isinstance(measure, FiniteSupportMeasure):
        return measure.integrate(obs)
    if isinstance(obs, CylinderObservable):
        return sum(float(w) for p, w in measure.atoms
                   if tuple(p[i] for i in range(len(obs.word))) == obs.word)
    return sum(float(w) * cmath.exp(2j * math.pi * (float(p[0]) * obs.k[0]
                                                     + float(p[1]) * obs.k[1]))
               for p, w in measure.atoms)


def oracle_weak_star(mu, nu, family):
    total = 0.0
    for obs, w in zip(family.observables, family.weights):
        total += w * abs(oracle_integrate(mu, obs) - oracle_integrate(nu, obs))
    return total


SHIFTS = [FULL2, GOLDEN, WHEEL, TransitionMatrix.full_shift(3)]
CYCLES = {m: [c.states for n in range(1, 6) for c in enumerate_cycles(m, n).cycles]
          for m in SHIFTS}
numerators = st.integers(1, 97)
words = st.lists(st.integers(0, 2), min_size=1, max_size=4)


def fraction_weights(draw, n):
    raw = [draw(numerators) for _ in range(n)]
    return [Fraction(x, sum(raw)) for x in raw]


@st.composite
def shift_measures(draw, matrix):
    """Mixtures of cycle measures, or atoms at non-periodic shift points."""
    if draw(st.booleans()):
        cycles = draw(st.lists(st.sampled_from(CYCLES[matrix]), min_size=1, max_size=3))
        atoms = []
        for cycle, weight in zip(cycles, fraction_weights(draw, len(cycles))):
            atoms.extend((p, weight * w) for p, w in cycle_measure(matrix, cycle).atoms)
        return FiniteSupportMeasure(atoms)
    size = matrix.size
    points = [ShiftPoint(tuple(s % size for s in draw(words)),
                         tuple(s % size for s in draw(words)),
                         tuple(s % size for s in draw(words)), draw(st.integers(-3, 3)))
              for _ in range(draw(st.integers(1, 5)))]
    return FiniteSupportMeasure(list(zip(points, fraction_weights(draw, len(points)))))


@st.composite
def torus_measures(draw):
    """Mixtures of cat-map orbits with Fraction coordinates, or float atoms."""
    if draw(st.booleans()):
        cat = cat_map()
        starts = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(0, 11),
                                         st.integers(0, 11)), min_size=1, max_size=3))
        orbits = [cat.orbit_of((Fraction(i % q, q), Fraction(j % q, q))) for q, i, j in starts]
        atoms = []
        for orbit, weight in zip(orbits, fraction_weights(draw, len(orbits))):
            atoms.extend((p, weight / len(orbit)) for p in orbit)
        return FiniteSupportMeasure(atoms)
    unit = st.floats(0.0, 1.0, exclude_max=True)
    points = draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=6))
    if draw(st.booleans()):
        return periodic_measure(points)
    return FiniteSupportMeasure(list(zip(points, fraction_weights(draw, len(points)))))


def assert_bitwise_oracle(mu, nu, family):
    assert weak_star_distance(mu, nu, family).hex() == oracle_weak_star(mu, nu, family).hex()
    for obs in family.observables:
        for measure in (mu, nu):
            got, want = complex(measure.integrate(obs)), complex(oracle_integrate(measure, obs))
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


@given(st.data(), st.sampled_from(SHIFTS), st.integers(1, 4), st.integers(1, 4))
def test_weak_star_on_shifts_equals_the_oracle_bit_for_bit(data, matrix, depth, depth2):
    mu = data.draw(shift_measures(matrix))
    partners = [data.draw(shift_measures(matrix)), parry_measure(matrix)]
    if matrix.rows == ((1,) * matrix.size,) * matrix.size:
        p = fraction_weights(data.draw, matrix.size)
        partners.append(BernoulliProduct([float(x) for x in p]))
    family, other = cylinder_family(matrix, depth), cylinder_family(matrix, depth2)
    # the same measures against two families, in both orders: a cache keyed
    # by anything but the family itself would hand one family's vector to the other
    for fam in (family, other, family):
        for nu in partners:
            assert_bitwise_oracle(mu, nu, fam)
            assert_bitwise_oracle(nu, mu, fam)


@given(st.data(), st.integers(1, 3), st.integers(1, 3))
def test_weak_star_on_the_torus_equals_the_oracle_bit_for_bit(data, bound, bound2):
    mu = data.draw(torus_measures())
    partners = [data.draw(torus_measures()), LebesgueTorus()]
    family, other = fourier_family(bound), fourier_family(bound2)
    for fam in (family, other, family):
        for nu in partners:
            assert_bitwise_oracle(mu, nu, fam)
            assert_bitwise_oracle(nu, mu, fam)


def test_integral_cache_keeps_one_entry_per_family():
    mu = cycle_measure(FULL2, (0, 0, 1))
    a = cylinder_family(FULL2, 2)
    # a distinct family with the same description gets its own vector
    b = Family(a.observables[::-1], a.weights, a.description)
    assert mu.integrals(a) == [oracle_integrate(mu, o) for o in a.observables]
    assert mu.integrals(b) == [oracle_integrate(mu, o) for o in b.observables]
    # families dropped right after use: a later family may take the id of an
    # earlier one unless the cache keeps its families alive
    for depth in (1, 2, 3, 4, 2, 1, 4, 3, 1, 2, 4):
        got = mu.integrals(cylinder_family(FULL2, depth))
        family = cylinder_family(FULL2, depth)
        assert got == [oracle_integrate(mu, o) for o in family.observables]
        del family
    family = cylinder_family(FULL2, 3)
    alive = weakref.ref(family)
    mu.integrals(family)
    del family
    gc.collect()
    assert alive() is not None


# -- weak-* distance --------------------------------------------------------------


def test_weak_star_identity_and_bernoulli_parry():
    mu = parry_measure(FULL2)
    assert weak_star_distance(mu, mu, FAM3) == 0.0
    assert weak_star_distance(mu, BernoulliProduct([0.5, 0.5]), FAM3) < 1e-14


def test_weak_star_delta_vs_lebesgue_closed_form():
    fam = fourier_family(2)
    origin = FiniteSupportMeasure([((0.0, 0.0), Fraction(1))])
    # every mode integrates to 1 against the origin and 0 against Lebesgue
    assert weak_star_distance(origin, LebesgueTorus(), fam) == pytest.approx(
        sum(fam.weights), abs=1e-12)


def test_weak_star_pseudometric_on_computed_triples():
    mus = [cycle_measure(FULL2, (0,)), cycle_measure(FULL2, (0, 1)),
           parry_measure(FULL2), cycle_measure(FULL2, (0, 0, 1))]
    for a in mus:
        for b in mus:
            dab = weak_star_distance(a, b, FAM3)
            assert dab == pytest.approx(weak_star_distance(b, a, FAM3), abs=0)
            for c in mus:
                assert dab <= weak_star_distance(a, c, FAM3) + \
                    weak_star_distance(c, b, FAM3) + 1e-15


# -- correlations ------------------------------------------------------------------


def test_bernoulli_correlation_examples():
    mu = parry_measure(FULL2)
    zero = CylinderObservable((0,))
    assert correlation(mu, zero, zero, 0) == pytest.approx(0.25, abs=1e-14)
    for n in (1, 2, 5):
        assert correlation(mu, zero, zero, n) == pytest.approx(0.0, abs=1e-14)


def test_golden_mean_correlation_decay_rate():
    mu = parry_measure(GOLDEN)
    zero = CylinderObservable((0,))
    eigs = sorted(abs(v) for v in np.linalg.eigvals(np.array(mu.P)))
    rho = eigs[0] / eigs[1]  # |lambda_2| / 1
    # two-state chain: C_n = c rho^n exactly; successive ratios expose rho
    # (cancellation noise caps the usable range around C_n ~ 1e-7)
    values = [abs(correlation(mu, zero, zero, n)) for n in range(1, 15)]
    for n in range(1, 14):
        assert values[n] / values[n - 1] == pytest.approx(rho, rel=1e-6)


def test_correlation_decay_envelope_wheel():
    # complex subdominant pair: |C_n| oscillates under a geometric
    # envelope at the spectral-gap rate (the clean log-linear fit with
    # R^2 >= 0.99 belongs to real-gap chains like the golden mean)
    mu = parry_measure(WHEEL)
    zero = CylinderObservable((0,))
    eigs = sorted(abs(v) for v in np.linalg.eigvals(np.array(mu.P)))
    rho = eigs[-2] / eigs[-1]
    ns = np.arange(1, 31)
    values = np.array([abs(correlation(mu, zero, zero, int(n))) for n in ns])
    envelope_constant = float(max(values / rho ** ns))
    assert envelope_constant < 1.0  # |C_n| <= C rho^n with modest C
    slope, _ = np.polyfit(ns, np.log(values), 1)
    assert slope < 0
    assert abs(math.exp(slope) - rho) < 1e-3


def test_correlation_overlap_consistency():
    mu = parry_measure(GOLDEN)
    phi = CylinderObservable((0, 1))
    psi = CylinderObservable((1, 0))
    # lag 1 overlaps: the joint pattern is the word 010
    joint = mu.joint_mass(phi.word, psi.word, 1)
    assert joint == pytest.approx(mu.cylinder_mass((0, 1, 0)), abs=1e-14)
    # incompatible overlap has zero mass
    assert mu.joint_mass((0, 1), (0, 0), 1) == 0.0


# -- periodic approximation ----------------------------------------------------------


def test_approximate_target_is_periodic_itself():
    mu = cycle_measure(FULL2, (0, 1))
    res = approximate_by_periodic(mu, SftSystem(FULL2), 0.05, FAM3)
    assert res.distance == pytest.approx(0.0, abs=1e-14)
    assert res.within_epsilon


def test_approximate_mixed_target_with_blocks():
    res = approximate_by_periodic(mixed_target(), SftSystem(FULL2), 0.1, FAM3)
    assert res.within_epsilon
    # longer balanced blocks keep improving the distance
    k3 = weak_star_distance(mixed_target(), cycle_measure(FULL2, (0,) * 3 + (1,) * 3),
                            FAM3)
    k6 = weak_star_distance(mixed_target(), cycle_measure(FULL2, (0,) * 6 + (1,) * 6),
                            FAM3)
    assert k6 < k3
    assert res.distance <= k3 + 1e-15


def letter_by_letter_block_words(matrix, parts):
    """Oracle: every "blocks xN" word, each checked letter by letter; a cycle
    repeats by its share of N among the shares weight / length."""
    total = sum(w / len(cycle) for cycle, w in parts)
    out = []
    for reps in range(1, BLOCK_REPS + 1) if total > 0 else ():
        word = sum((cycle * max(1, round(reps * (w / len(cycle) / total)))
                    for cycle, w in parts), ())
        if matrix.is_admissible_cycle(word):
            out.append((reps, word))
    return out


def test_block_words_match_the_letter_by_letter_check():
    data = Path(__file__).resolve().parent.parent / "data"
    readme, _ = _load_target(str(data / "target_half_mix.json"), SftSystem(FULL2))
    parts = _orbit_cycles_of_target(readme)
    assert list(_block_words(FULL2, parts)) == letter_by_letter_block_words(FULL2, parts) != []
    # a join between parts fails; a cycle fails inside itself; "1" may not repeat;
    # every join holds
    for parts in ([((0, 1), 0.5), ((1, 0), 0.5)], [((1, 1), 0.5), ((0,), 0.5)],
                  [((1,), 0.2), ((0,), 0.8)], [((0, 1), 0.3), ((0,), 0.7)]):
        assert list(_block_words(GOLDEN, parts)) == letter_by_letter_block_words(GOLDEN, parts)
    # "1" appears once while 0.2 N rounds to 1
    assert [reps for reps, _ in _block_words(GOLDEN, [((1,), 0.2), ((0,), 0.8)])] == \
        list(range(1, 8))
    rng = random.Random(57)
    for _ in range(300):
        matrix = rng.choice([FULL2, GOLDEN, WHEEL])
        parts = [(tuple(rng.randrange(matrix.size) for _ in range(rng.randint(1, 4))),
                  rng.choice([0.1, 0.25, 0.5, 1.0])) for _ in range(rng.randint(1, 3))]
        assert list(_block_words(matrix, parts)) == letter_by_letter_block_words(matrix, parts)


def cycle_mix(matrix, parts):
    """The finite-support measure sum of w * O(cycle) over [(cycle, w)]."""
    return FiniteSupportMeasure([(p, w * wp) for cycle, w in parts
                                 for p, wp in cycle_measure(matrix, cycle).atoms])


def test_block_words_give_each_cycle_its_share_of_the_target_time():
    # 13/25 O(0) + 12/25 O(001) spends 13 of 25 steps on 0 and 12 in 001, so
    # 0^13 (001)^4 is the target itself; shares by weight alone (13 : 12)
    # never give it, and the best of them lands 0.0077 away
    target = cycle_mix(GOLDEN, [((0,), Fraction(13, 25)), ((0, 0, 1), Fraction(12, 25))])
    words = dict(_block_words(GOLDEN, _orbit_cycles_of_target(target)))
    assert words[17] == (0,) * 13 + (0, 0, 1) * 4
    res = approximate_by_periodic(target, SftSystem(GOLDEN), 0.01, cylinder_family(GOLDEN, 3))
    assert res.description == "blocks x17" and len(res.measure.atoms) == 25
    assert res.distance < 1e-15
    # the Bernoulli step 1 now finds a periodic measure within epsilon / 2 here
    target = cycle_mix(FULL2, [((0, 0, 0, 1), Fraction(1, 2)), ((0, 1, 1), Fraction(1, 2))])
    assert bernoulli_approximation(target, FULL2, 0.01, FAM3).within_epsilon


def test_approximate_lebesgue_on_torus():
    res = approximate_by_periodic(LebesgueTorus(), cat_map(), 0.05,
                                  fourier_family(3), max_period=30,
                                  max_denominator=20)
    assert res.within_epsilon
    assert len(res.measure.atoms) <= 30


def reference_candidates(target, system, max_period=12, max_denominator=64, block_reps=40):
    """The scan with one full measure per candidate: [(description, word or
    integer orbit, measure)]."""
    candidates = []
    if isinstance(system, SftSystem):
        matrix = system.matrix
        for n in range(1, max_period + 1):
            if count_periodic_points(matrix, n) > 2048:
                break
            for cyc in enumerate_cycles(matrix, n).cycles:
                if cyc.primitive_period == n:
                    candidates.append((str(cyc), cyc.states, cycle_measure(matrix, cyc.states)))
        parts = _orbit_cycles_of_target(target) \
            if isinstance(target, FiniteSupportMeasure) else []
        total = sum(w / len(cyc_word) for cyc_word, w in parts)
        for reps in range(1, block_reps + 1) if parts and total > 0 else ():
            word = ()
            for cyc_word, w in parts:
                word = word + cyc_word * max(1, round(reps * (w / len(cyc_word) / total)))
            if matrix.is_admissible_cycle(word):
                candidates.append((f"blocks x{reps}", word, cycle_measure(matrix, word)))
    else:
        for _, _, orbits in rational_orbit_lattices(system, max_period, max_denominator):
            for (i, j, q), orbit in orbits:
                points = [(Fraction(u, q), Fraction(v, q)) for u, v in orbit]
                candidates.append((f"orbit({i}/{q},{j}/{q})", orbit, periodic_measure(points)))
    return candidates


def reference_pick(target, candidates, epsilon, family, prefer="distance"):
    """The winner among full-measure candidates: (distance, period,
    description, measure), picked as ``approximate_by_periodic`` picks."""
    scored = [(weak_star_distance(target, mu, family), len(mu.atoms), desc, mu)
              for desc, _, mu in candidates]
    within = [s for s in scored if s[0] <= epsilon] if prefer == "shortest_within" else []
    if within:
        return min(within, key=lambda s: (s[1], s[0], s[2]))
    return min(scored, key=lambda s: (s[0], s[1], s[2]))


def assert_same_result(res, reference):
    d, _, desc, mu = reference
    assert (res.description, res.distance.hex()) == (desc, d.hex())
    assert res.measure.atoms == mu.atoms


def periodic_mix(matrix, parts):
    atoms = []
    for cycle, weight in parts:
        atoms += [(p, weight * w) for p, w in cycle_measure(matrix, cycle).atoms]
    return FiniteSupportMeasure(atoms)


def cyclic_word_distances(target, words, family):
    """The scan's score of each primitive cyclic word: the target's gaps to the
    words' integral table."""
    return _gaps(target, family, _cyclic_word_integrals(words, family)).tolist()


def assert_cyclic_scores_bit_for_bit(target, matrix, words, family):
    """Each batched score against the weak-* distance of the word's full
    cycle measure."""
    scores = cyclic_word_distances(target, words, family)
    assert [d.hex() for d in scores] == \
        [weak_star_distance(target, cycle_measure(matrix, word), family).hex() for word in words]


@pytest.mark.parametrize("matrix", [FULL2, GOLDEN], ids=["full2", "golden"])
def test_cyclic_word_distances_equal_the_full_measure_scan_bit_for_bit(matrix):
    system = SftSystem(matrix)
    targets = [parry_measure(matrix), BernoulliProduct([0.3, 0.7]),
               periodic_mix(matrix, [((0,), Fraction(2, 5)), ((0, 0, 1), Fraction(3, 5))]),
               periodic_mix(matrix, [((0, 1), Fraction(1, 3)), ((0,), Fraction(2, 3))])]
    cycles = [c.states for n in range(1, 13)
              for c in enumerate_cycles(matrix, n).cycles if c.primitive_period == n]
    for target in targets:
        candidates = reference_candidates(target, system)
        listings = ((12, candidates), (6, reference_candidates(target, system, 6)))
        blocks = [word[:len(mu.atoms)] for desc, word, mu in candidates
                  if desc.startswith("blocks")]
        assert blocks or not isinstance(target, FiniteSupportMeasure)
        for depth in range(1, 5):
            family = cylinder_family(matrix, depth)
            assert_cyclic_scores_bit_for_bit(target, matrix, cycles + blocks, family)
            for epsilon in (0.02, 0.1):
                res = approximate_by_periodic(target, system, epsilon, family)
                assert_same_result(res, reference_pick(target, candidates, epsilon, family))
                assert res.distance == weak_star_distance(target, res.measure, family)
                # Bernoulli's step 1 picks from the same scan by the shortest-within rule,
                # epsilon standing for its epsilon/2
                for max_period, listed in listings:
                    cycle = _shortest_within(target, matrix, epsilon, family, max_period)
                    _, n, _, mu = reference_pick(target, listed, epsilon, family,
                                                 "shortest_within")
                    assert len(cycle) == n and cycle_measure(matrix, cycle).atoms == mu.atoms


def test_cyclic_word_distances_at_the_edges_bit_for_bit():
    target = periodic_mix(FULL2, [((0, 1), Fraction(1, 3)), ((0,), Fraction(2, 3))])
    assert cyclic_word_distances(target, [], FAM3) == []
    # one candidate; period-1 words; words shorter than the depth wrap more than once
    for words in ([(0, 1, 1)], [(0,), (1,)], [(0, 1), (1,), (0, 0, 1)]):
        for depth in (1, 3, 5, 7):
            assert_cyclic_scores_bit_for_bit(target, FULL2, words,
                                             cylinder_family(FULL2, depth))
    # symbols the family never mentions
    full3 = TransitionMatrix.full_shift(3)
    words = [(2,), (0, 2), (1, 2, 2), (0, 1, 2), (0, 0, 1)]
    for depth in (1, 2, 3):
        assert_cyclic_scores_bit_for_bit(BernoulliProduct([0.2, 0.3, 0.5]), full3, words,
                                         cylinder_family(FULL2, depth))
    # the empty cylinder integrates to sum([1 / n] * n), as the full measure sums it
    empty = Family((CylinderObservable(()), CylinderObservable((0,)), CylinderObservable(())),
                   (0.5, 0.25, 0.125), "with the empty cylinder")
    words = [c.states for n in range(1, 11) for c in enumerate_cycles(FULL2, n).cycles
             if c.primitive_period == n]
    assert_cyclic_scores_bit_for_bit(target, FULL2, words, empty)
    assert_cyclic_scores_bit_for_bit(parry_measure(FULL2), FULL2, words, empty)
    with pytest.raises(TypeError):
        cyclic_word_distances(target, [(0, 1)], fourier_family(1))


def test_atom_sums_are_the_sums_of_the_atom_weights():
    for n in range(1, 1025):
        assert _atom_sums(n) == [sum([1 / n] * c) for c in range(n + 1)]


def test_cyclic_word_distances_of_long_words_bit_for_bit():
    # "blocks xN" words of two long cycles, and one long primitive word: 100 to 1,000
    # symbols, so a cylinder's integral adds 1 / n up to hundreds of times
    rng = random.Random(32)

    def tiles(length):  # "10", "100" and "1000" in a random order: golden-mean cycles
        word = ()
        while len(word) < length:
            word += rng.choice([(1, 0), (1, 0, 0), (1, 0, 0, 0)])
        return word

    for matrix in (FULL2, GOLDEN):
        cycles = [tiles(19), tiles(27)]
        target = periodic_mix(matrix, [(cycles[0], Fraction(2, 5)), (cycles[1], Fraction(3, 5))])
        blocks = [word[:_primitive_period(word)] for _, word
                  in _block_words(matrix, _orbit_cycles_of_target(target))]
        long_word = tiles(997)
        words = [w for w in blocks if 100 <= len(w) <= 1000] + [long_word]
        assert len(words) >= 20 and max(map(len, words)) >= 990
        assert _primitive_period(long_word) == len(long_word)
        for family_target in (target, parry_measure(matrix)):
            for depth in (1, 3, 6):
                assert_cyclic_scores_bit_for_bit(family_target, matrix, words,
                                                 cylinder_family(matrix, depth))


def shift_result(res):
    return res.description, res.distance.hex(), res.within_epsilon, res.measure.atoms


def counted_kernel(monkeypatch):
    """Record the number of words of each ``_cyclic_word_integrals`` run that
    has words to count."""
    runs, kernel = [], measures._cyclic_word_integrals

    def counted(words, family):
        if words:
            runs.append(len(words))
        return kernel(words, family)

    monkeypatch.setattr(measures, "_cyclic_word_integrals", counted)
    return runs


@pytest.mark.parametrize("matrix", [FULL2, GOLDEN], ids=["full2", "golden"])
def test_a_warm_family_approximates_as_a_fresh_one(matrix):
    system = SftSystem(matrix)
    targets = [parry_measure(matrix), BernoulliProduct([0.3, 0.7]),
               periodic_mix(matrix, [((0,), Fraction(2, 5)), ((0, 0, 1), Fraction(3, 5))])]
    for depth in range(1, 5):
        warm = cylinder_family(matrix, depth)
        for _ in range(2):
            for max_period in (6, 8):
                for target in targets:
                    reference = reference_candidates(target, system, max_period)
                    for epsilon in (0.02, 0.1):
                        res = approximate_by_periodic(target, system, epsilon, warm,
                                                      max_period)
                        fresh = approximate_by_periodic(
                            target, system, epsilon, cylinder_family(matrix, depth),
                            max_period)
                        assert shift_result(res) == shift_result(fresh)
                        assert_same_result(res, reference_pick(target, reference, epsilon,
                                                               warm))
        # one table per listing: 6 and 8 list different numbers of cycles
        assert len(warm._cycle_integrals) == 2
        assert all(not table.flags.writeable for table in warm._cycle_integrals.values())


def test_the_cycle_table_is_counted_once_per_matrix_family_and_listing(monkeypatch):
    runs = counted_kernel(monkeypatch)
    family, target = cylinder_family(FULL2, 3), BernoulliProduct([0.4, 0.6])
    listed = len(FULL2.primitive_cycles(8))
    # Bernoulli's step 1 scans with the same table
    approximate_by_periodic(target, SftSystem(FULL2), 0.1, family, 8)
    _shortest_within(target, FULL2, 0.1, family, 8)
    approximate_by_periodic(target, SftSystem(FULL2), 0.1, family, 8)
    assert runs == [listed]
    # a finite-support target counts its "blocks xN" words on every request
    mix = periodic_mix(FULL2, [((0,), Fraction(1, 3)), ((0, 1), Fraction(2, 3))])
    blocks = len(list(_block_words(FULL2, _orbit_cycles_of_target(mix))))
    for _ in range(2):
        approximate_by_periodic(mix, SftSystem(FULL2), 0.1, family, 8)
    assert runs == [listed, blocks, blocks]
    # a new listing is a new table; an equal matrix shares the kept one
    approximate_by_periodic(target, SftSystem(TransitionMatrix.full_shift(2)), 0.1, family, 6)
    assert runs[3:] == [len(FULL2.primitive_cycles(6))]
    assert list(family._cycle_integrals) == [(FULL2, listed), (FULL2, runs[3])]


@pytest.mark.parametrize("matrix", [FULL2, GOLDEN], ids=["full2", "golden"])
def test_a_max_period_past_the_listing_cut_reuses_the_table(monkeypatch, matrix):
    # the listing ends before 2^12 (full 2-shift) and L_16 = 2207 (golden mean)
    # periodic points, so every max_period from the cut on lists the same cycles
    cut = {FULL2: 11, GOLDEN: 15}[matrix]
    assert len(matrix.primitive_cycles(cut - 1)) < len(matrix.primitive_cycles(cut)) \
        == len(matrix.primitive_cycles(cut + 30))
    runs, family = counted_kernel(monkeypatch), cylinder_family(matrix, 3)
    target = BernoulliProduct([0.45, 0.55])
    results = [shift_result(approximate_by_periodic(target, SftSystem(matrix), 0.1, family,
                                                    max_period))
               for max_period in (cut, cut + 1, cut + 30)]
    assert results[0] == results[1] == results[2]
    assert runs == [len(matrix.primitive_cycles(cut))]


def test_one_family_on_two_matrices_keeps_two_tables():
    full3, family = TransitionMatrix.full_shift(3), cylinder_family(FULL2, 2)
    target = BernoulliProduct([0.2, 0.3, 0.5])
    for _ in range(2):
        for matrix in (full3, FULL2):
            res = approximate_by_periodic(target, SftSystem(matrix), 0.1, family, 5)
            fresh = approximate_by_periodic(target, SftSystem(matrix), 0.1,
                                            cylinder_family(FULL2, 2), 5)
            assert shift_result(res) == shift_result(fresh)
            assert res.distance == weak_star_distance(target, res.measure, family)
    assert list(family._cycle_integrals) == [(full3, len(full3.primitive_cycles(5))),
                                             (FULL2, len(FULL2.primitive_cycles(5)))]


def test_a_non_cylinder_family_keeps_no_cycle_table():
    mixed = Family((CylinderObservable((0,)), FourierMode((1, 0))), (0.5, 0.25), "mixed")
    for family in (fourier_family(1), mixed):
        with pytest.raises(TypeError):
            approximate_by_periodic(BernoulliProduct([0.5, 0.5]), SftSystem(FULL2), 0.1,
                                    family, 6)
        assert "_cycle_integrals" not in vars(family) or not family._cycle_integrals


TORUS_HORIZONS = [(6, 12), (12, 20), (20, 33), (30, 40)]


@pytest.mark.parametrize("bound", [2, 3, 4])
def test_torus_orbit_distances_match_the_full_measure_scan(bound):
    cat = cat_map()
    family = fourier_family(bound)
    orbit_target = periodic_measure(cat.orbit_of((Fraction(1, 5), Fraction(2, 5))))
    for max_period, max_denominator in TORUS_HORIZONS:
        horizon = {"max_period": max_period, "max_denominator": max_denominator}
        for target in (LebesgueTorus(), orbit_target):
            reference = reference_candidates(target, cat, **horizon)
            scored = list(rational_orbit_distances(target, cat, family, **horizon))
            assert [(start, orbit) for start, orbit, _ in scored] \
                == [entry for _, _, orbits in rational_orbit_lattices(cat, **horizon)
                    for entry in orbits]
            score_at = {}
            for ((i, j, q), orbit, d), (_, _, mu) in zip(scored, reference):
                assert abs(d - weak_star_distance(target, mu, family)) <= 1e-15
                score_at.update(((u, v, q), d) for u, v in orbit)
            if isinstance(target, LebesgueTorus):
                # an orbit and its mirror under x -> -x score bit for bit alike,
                # as orbit(1/15,3/15) and orbit(1/15,6/15), which the full
                # measures put 3.6e-17 apart at bound 3
                for (i, j, q), _, d in scored:
                    assert score_at[(-i % q, -j % q, q)].hex() == d.hex()
            res = approximate_by_periodic(target, cat, 0.05, family, **horizon)
            assert_same_result(res, reference_pick(target, reference, 0.05, family))
            assert res.distance == weak_star_distance(target, res.measure, family)


def test_the_torus_scan_breaks_ties_by_description(monkeypatch):
    # a stream of scored one-point orbits where (d, n) ties often, so the
    # descriptions break them
    count = 100_000

    def stream(target, system, family, max_period, max_denominator, bounded=False):
        for t in range(count):  # distinct starts: 7919 is a unit mod 400^2
            q, (i, j) = 400, divmod(t * 7919 % 160_000, 400)
            yield (i, j, q), [(i, j)] * (2 if t % 3 else 1), (0.125, 0.25, 0.0625)[t % 3] + t % 5

    scored = [(d, len(orbit), f"orbit({i}/{q},{j}/{q})")
              for (i, j, q), orbit, d in stream(*[None] * 5)]
    monkeypatch.setattr(measures, "rational_orbit_distances", stream)
    # the winner's measure is the cat map orbit walked from its start, and
    # every orbit mod 400 closes within 300 steps (the Pisano period is 600)
    res = approximate_by_periodic(LebesgueTorus(), cat_map(), 0.2, fourier_family(1),
                                  max_period=300)
    assert res.description == min(scored)[2]


@pytest.mark.parametrize("budget", [1, 3000])
def test_torus_orbit_scores_do_not_depend_on_the_block_budget(monkeypatch, budget):
    # one orbit per block, and a few per block, score bit for bit as one block per q
    cat, family = cat_map(), fourier_family(4)
    orbit_target = periodic_measure(cat.orbit_of((Fraction(1, 5), Fraction(2, 5))))

    def scores(target):
        return [(start, d.hex()) for start, _, d in
                rational_orbit_distances(target, cat, family, 20, 33)]

    whole = [scores(LebesgueTorus()), scores(orbit_target)]
    monkeypatch.setattr(measures, "_BLOCK_ENTRIES", budget)
    assert [scores(LebesgueTorus()), scores(orbit_target)] == whole


BENCH_HORIZONS = [(24, 28), (25, 28), (29, 33), (30, 33)]
CAT = cat_map()
TORUS_TARGETS = {
    "lebesgue": LebesgueTorus(),
    "orbit": periodic_measure(CAT.orbit_of((Fraction(1, 5), Fraction(2, 5)))),
    # not an orbit: its integrals have nonzero imaginary parts
    "point": FiniteSupportMeasure([((Fraction(1, 7), Fraction(3, 7)), Fraction(1))]),
}
BOUND_FAMILIES = [fourier_family(bound) for bound in (1, 2, 3, 4)] + [
    Family(fourier_family(2).observables, (1 / 12,) * 12, "twelve modes, equal weights"),
    Family((FourierMode((1, 2)),), (0.5,), "one mode"),
]


@pytest.mark.parametrize("horizon", TORUS_HORIZONS + BENCH_HORIZONS, ids=str)
def test_the_heavy_mode_bound_drops_only_orbits_that_cannot_win(horizon):
    spans = list(CAT.rational_orbit_spans(*horizon))
    for name, target in TORUS_TARGETS.items():
        reference = reference_candidates(target, CAT, *horizon)
        for family in BOUND_FAMILIES:
            full = list(rational_orbit_distances(target, CAT, family, *horizon))
            score = {start: d for start, _, d in full}
            least = min(score.values())
            bounds = measures._heavy_mode_bounds(target, family, spans)
            assert len(bounds) == len(full)
            assert all(b <= d + measures.BOUND_SLACK for b, (_, _, d) in zip(bounds, full))
            kept = list(rational_orbit_distances(target, CAT, family, *horizon, bounded=True))
            # every kept score is the full scan's, and every orbit that can win is kept
            assert all(score[start].hex() == d.hex() for start, _, d in kept)
            kept_starts = {start for start, _, _ in kept}
            assert {s for s, d in score.items() if d <= least} <= kept_starts
            if name == "lebesgue":  # a mirror pair is kept or dropped together
                kept_points = {(u, v, q) for (_, _, q), orbit, _ in kept for u, v in orbit}
                assert all(((-i % q, -j % q, q) in kept_points) == ((i, j, q) in kept_points)
                           for i, j, q in score)
            scanned = [(d, len(orbit), "orbit({0}/{2},{1}/{2})".format(*start))
                       for start, orbit, d in full]
            for epsilon in (0.01, 0.05, 0.3):
                res = approximate_by_periodic(target, CAT, epsilon, family, *horizon)
                assert res.description == min(scanned)[2]
                # the scan's scores and the full measures' distances part in their
                # last bits, so a near tie of the two can fall either way (99 of
                # these 432 requests, without the bound too); the distances agree
                d, _, _, _ = reference_pick(target, reference, epsilon, family)
                assert abs(res.distance - d) <= 1e-15


def per_point_bounds(target, family, spans):
    """``_heavy_mode_bounds`` with cos and sin taken at every orbit point."""
    weights = np.array(family.weights)
    heavy = np.argsort(-weights, kind="stable")[:measures.HEAVY_MODES]
    modes = np.array([family.observables[j].k for j in heavy], dtype=int).reshape(-1, 2).T
    lengths = np.concatenate([lengths for _, _, lengths in spans])
    qs = np.repeat([q for q, _, _ in spans], [len(points) for _, points, _ in spans])
    residues = np.concatenate([points for _, points, _ in spans]) @ modes % qs[:, None]
    angles, first = 2 * np.pi * residues / qs[:, None], lengths.cumsum() - lengths
    integrals = (np.add.reduceat(np.cos(angles), first)
                 + 1j * np.add.reduceat(np.sin(angles), first)) / lengths[:, None]
    return np.abs(np.array(target.integrals(family))[heavy] - integrals) @ weights[heavy]


@pytest.mark.parametrize("matrix", [[[2, 1], [1, 1]], [[1, 1], [1, 0]], [[-2, 1], [1, -1]]])
def test_the_heavy_mode_bound_tables_keep_the_per_point_bits(monkeypatch, matrix):
    families = [fourier_family(bound) for bound in (1, 3, 5)]
    for chunk_points in (1 << 20, 40):  # 40: every q > 4 a chunk of its own
        monkeypatch.setattr(systems, "_CHUNK_POINTS", chunk_points)
        system = ToralAutomorphism(matrix)
        for horizon in [(6, 12), (12, 20), (24, 28), (30, 33)]:
            spans = list(system.rational_orbit_spans(*horizon))
            for family in families:
                for target in TORUS_TARGETS.values():
                    # all the horizon's q at once, one q at a time, and every other q
                    for group in (spans, spans[-1:], spans[::2]):
                        assert measures._heavy_mode_bounds(target, family, group).tobytes() \
                            == per_point_bounds(target, family, group).tobytes()


@pytest.mark.parametrize("horizon", TORUS_HORIZONS + BENCH_HORIZONS, ids=str)
def test_the_bounded_torus_scan_builds_entries_only_for_the_orbits_it_yields(monkeypatch,
                                                                              horizon):
    built = []

    def counted(q, points, lengths):
        entries = _orbit_entries(q, points, lengths)
        built.extend(entries)
        return entries

    monkeypatch.setattr(measures, "_orbit_entries", counted)
    for target in TORUS_TARGETS.values():
        for family in (fourier_family(1), fourier_family(3)):
            full = {start: (start, orbit, d.hex()) for start, orbit, d
                    in rational_orbit_distances(target, CAT, family, *horizon)}
            built.clear()
            kept = [(start, orbit, d.hex()) for start, orbit, d
                    in rational_orbit_distances(target, CAT, family, *horizon, bounded=True)]
            assert 0 < len(kept) < len(full)
            assert kept == [full[start] for start, _, _ in kept]
            assert built == [(start, orbit) for start, orbit, _ in kept]


def test_the_bounded_torus_scan_at_the_edges(monkeypatch):
    family = fourier_family(3)
    for horizon in ((0, 0), (0, 1), (1, 0)):  # no orbits: nothing is bounded
        assert list(rational_orbit_distances(LebesgueTorus(), CAT, family, *horizon,
                                             bounded=True)) == []
    # one orbit, the fixed point at the origin, is kept, bounded or not
    assert [(start, orbit) for _, _, orbits in rational_orbit_lattices(CAT, 1, 1)
            for start, orbit in orbits] == [((0, 0, 1), [(0, 0)])]
    for bounded in (False, True):
        assert [(start, d.hex()) for start, _, d in
                rational_orbit_distances(LebesgueTorus(), CAT, family, 1, 1, bounded)] \
            == [((0, 0, 1), weak_star_distance(LebesgueTorus(), periodic_measure(
                [(Fraction(0), Fraction(0))]), family).hex())]
    # in blocks of one orbit, and bounded one lattice per group, survivors score bit
    # for bit as in the full scan, and the least score is still among them
    target = TORUS_TARGETS["orbit"]
    full = {start: d.hex() for start, _, d in
            rational_orbit_distances(target, CAT, family, 30, 33)}
    monkeypatch.setattr(measures, "_BLOCK_ENTRIES", 1)
    monkeypatch.setattr(measures, "_CHUNK_POINTS", 1)
    kept = {start: d.hex() for start, _, d in
            rational_orbit_distances(target, CAT, family, 30, 33, bounded=True)}
    assert kept.items() <= full.items()
    assert min(full.values(), key=float.fromhex) in kept.values()


# -- the pipeline -----------------------------------------------------------------------


def test_block_subshift_structure():
    sub = block_subshift(FULL2, (0, 1), 2, (0,))
    assert sub.matrix.size == 5
    assert sub.labels == (0, 1, 0, 1, 0)
    assert is_primitive(sub.matrix)
    # excursion state (last) cannot return to itself in one step
    assert sub.matrix.rows[4][4] == 0
    for m, cycle, excursion in ((0, (0, 1), (0,)), (1, (), (0,)), (1, (0, 1), ())):
        with pytest.raises(ValueError, match="non-empty"):
            block_subshift(FULL2, cycle, m, excursion)


def block_subshift_by_table(matrix, cycle, m, excursion):
    """Oracle: a (block, offset) state table, every block seam allowed except
    excursion -> excursion, and all n^2 state pairs checked against the
    ambient matrix.  Returns (rows, labels)."""
    blocks = [tuple(cycle) * m, tuple(excursion)]
    states = [(b, off) for b, blk in enumerate(blocks) for off in range(len(blk))]
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    rows = [[0] * n for _ in range(n)]
    for b, blk in enumerate(blocks):
        for off in range(len(blk) - 1):
            rows[index[(b, off)]][index[(b, off + 1)]] = 1
        for b2 in (0, 1) if b == 0 else (0,):
            rows[index[(b, len(blk) - 1)]][index[(b2, 0)]] = 1
    labels = tuple(blocks[b][off] for b, off in states)
    TransitionMatrix(rows)  # the same symbol cap and checks
    for i in range(n):
        for j in range(n):
            if rows[i][j] and not matrix.admits(labels[i], labels[j]):
                raise ValueError("block seams violate ambient admissibility")
    return tuple(map(tuple, rows)), labels


def block_subshift_triples():
    """(matrix, cycle, m, excursion): the spliced block subshifts of the sft and
    Perron tests, past the symbol cap too, and seeded random words, most of them
    inadmissible somewhere."""
    out = []
    for matrix, cycles in ((FULL2, [(0,), (1,), (0, 1), (0, 0, 1), (0, 1, 1), (0, 0, 0, 1, 1)]),
                           (GOLDEN, [(0,), (0, 1), (0, 0, 1)])):
        for cycle in cycles:
            center = sft_homoclinic_splice(matrix, cycle)[1]
            excursion = (cycle[0],) + center if len(cycle) > 1 else center
            out += [(matrix, cycle, m, excursion) for m in range(1, 18)]
    out += [(FULL2, (0, 1), m, (0, 1, 1, 0)) for m in range(1, 8)]
    rng = random.Random(7)
    for _ in range(300):
        size = rng.randint(1, 4)
        matrix = TransitionMatrix([[1] * size] + [[int(rng.random() < 0.6 or i == j)
                                                   for j in range(size)]
                                                  for i in range(1, size)])
        word = [tuple(rng.randrange(size) for _ in range(rng.randint(1, 6))) for _ in "ce"]
        out.append((matrix, word[0], rng.randint(1, 12), word[1]))
    return out


def test_block_subshift_equals_the_state_table_oracle():
    outcomes = set()
    for matrix, cycle, m, excursion in block_subshift_triples():
        try:
            want = block_subshift_by_table(matrix, cycle, m, excursion)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                block_subshift(matrix, cycle, m, excursion)
            assert str(got.value) == str(exc)
            outcomes.add(str(exc).split()[0])
            continue
        sub = block_subshift(matrix, cycle, m, excursion)
        assert (sub.matrix.rows, sub.labels) == want
        assert sub.excursion_word == tuple(excursion)
        outcomes.add("built")
    assert outcomes == {"built", "block", "at"}  # built, inadmissible, past the cap


def test_pipeline_on_its_own_cycle_monotone():
    mu01 = cycle_measure(FULL2, (0, 1))
    result = bernoulli_approximation(mu01, FULL2, 0.2, FAM3, cycle=(0, 1))
    assert result.within_epsilon
    distances = [d for _, d in result.scan]
    assert all(b <= a + 1e-12 for a, b in zip(distances, distances[1:]))
    assert result.distance_to_periodic <= 0.1


def test_pipeline_mixed_target_within_epsilon():
    result = bernoulli_approximation(mixed_target(), FULL2, 0.3, FAM3)
    assert result.within_epsilon
    assert result.distance_to_target <= 0.3
    assert is_primitive(result.subshift.matrix)


def test_pipeline_degenerate_fixed_point_target():
    target = cycle_measure(FULL2, (0,))
    result = bernoulli_approximation(target, FULL2, 0.5, FAM3)
    assert result.cycle == (0,)
    assert result.distance_to_periodic == result.distance_to_target == \
        pytest.approx(result.distance_to_periodic)
    assert result.within_epsilon


def test_pipeline_rejects_non_primitive_support():
    with pytest.raises(ValueError):
        bernoulli_approximation(mixed_target(), TransitionMatrix([[0, 1], [1, 0]]),
                                0.3, FAM3)


def exact_renewal_root(a, b):
    """lambda with lambda^-a + lambda^-(a+b) = 1 to 60 digits, by Newton's
    method on x = 1/lambda in decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(1)
        for _ in range(200):
            x -= (x ** a + x ** (a + b) - 1) / (a * x ** (a - 1) + (a + b) * x ** (a + b - 1))
        return 1 / x


def chain_errors(measure, a, root):
    """The largest |P_ij| error and the largest relative pi_i error of a chain on
    the block subshift of a loop and b excursion states against its closed form
    in 60 digits from the root lambda: every state moves on with probability 1
    but the loop's last, which goes to 0 with x^a and to a with x^(a+b), x =
    1/lambda; pi is 1/mean on the loop and x^(a+b)/mean on the excursion, mean =
    a + b x^(a+b).  Off the support's edges both chains are 0."""
    with localcontext() as ctx:
        ctx.prec = 60
        n, x = measure.support.size, 1 / root
        b = n - a
        P = {(i, (i + 1) % n): Decimal(1) for i in range(n)}
        P[a - 1, 0], P[a - 1, a] = x ** a, x ** (a + b)
        mean = a + b * x ** (a + b)
        pi = [1 / mean] * a + [x ** (a + b) / mean] * b
        return (max(abs(Decimal(measure.P[i][j]) - P[i, j])
                    for i, succ in enumerate(measure.support.succ) for j in succ),
                max(abs(Decimal(measure.pi[i]) - pi[i]) / pi[i] for i in range(n)))


def oracle_block_scan(target, matrix, epsilon, family, cycle, parry_by_m):
    """The per-m scan the renewal closed form replaced, over the Parry measures
    of the primitive block subshifts in increasing m: (m, scan, distance to
    mu_p, distance to the target, within epsilon) of the best m."""
    mu_p = cycle_measure(matrix, cycle)
    best, scan = None, []
    for m, nu in parry_by_m.items():
        d_p = weak_star_distance(nu, mu_p, family)
        scan.append((m, d_p))
        if best is None or d_p < best[0] - 1e-15:
            best = (d_p, m, weak_star_distance(nu, target, family))
    d_p, m, d_t = best
    return m, scan, d_p, d_t, d_p <= epsilon / 2 and d_t <= epsilon


@pytest.mark.parametrize("matrix", [FULL2, GOLDEN, WHEEL], ids=["full2", "golden", "wheel"])
def test_renewal_scan_matches_the_per_m_parry_scan(matrix):
    # every primitive cycle up to length 4 and every m under the 64-state cap
    target = parry_measure(matrix)
    families = [cylinder_family(matrix, depth) for depth in range(1, 5)]
    words = [()] + [obs.word for obs in families[-1].observables]
    verdicts = set()
    for n in range(1, 5):
        for cycle in (c.states for c in enumerate_cycles(matrix, n).cycles
                      if c.primitive_period == n):
            center = sft_homoclinic_splice(matrix, cycle)[1]
            excursion = (cycle[0],) + center if n > 1 else center
            parry_by_m, chains = {}, {}
            for m in range(1, 65):
                if m * n + len(excursion) > 64:
                    break
                sub = block_subshift(matrix, cycle, m, excursion)
                if not is_primitive(sub.matrix):
                    continue
                nu = parry_by_m[m] = parry_measure(sub.matrix, labels=sub.labels)
                parry = {w: nu.cylinder_mass(w) for w in words}
                root = exact_renewal_root(m * n, len(excursion))
                for depth in range(1, 5):
                    x, masses = renewal_cylinders(cycle * m, excursion, depth)
                    lam = 1.0 / x
                    # perron_data's midpoint of its bracket, certified to 1e-13,
                    # sits up to 3.6e-15 from the 60-digit root on these cases
                    assert abs(Decimal(lam) - root) <= Decimal(2e-16) * root
                    assert abs(lam - perron_data(sub.matrix)[0]) <= 4e-15 * lam
                    assert set(masses) <= {w for w in words if len(w) <= depth}
                    for w in words:
                        if len(w) <= depth:
                            assert abs(masses.get(w, 0.0) - parry[w]) <= 1e-14
                # the closed-form chain is the Parry chain perron_data gives, and no
                # farther than it from the 60-digit closed form, or within 2^-52
                chain = chains[m] = measures._renewal_chain(sub, x)
                assert chain.support.rows == nu.support.rows and chain.labels == nu.labels
                assert all(abs(u - v) <= 1e-13 for row, other in zip(chain.P, nu.P)
                           for u, v in zip(row, other))
                assert all(abs(u - v) <= 1e-13 for u, v in zip(chain.pi, nu.pi))
                for mine, eig in zip(chain_errors(chain, m * n, root),
                                     chain_errors(nu, m * n, root)):
                    assert mine <= max(eig, Decimal(2.0 ** -52))
            assert parry_by_m
            for family, epsilon in zip(families, (0.05, 0.3, 0.05, 0.3)):
                m, scan, d_p, d_t, within = oracle_block_scan(target, matrix, epsilon,
                                                              family, cycle, parry_by_m)
                ba = bernoulli_approximation(target, matrix, epsilon, family, cycle=cycle,
                                             m_max=64)
                assert (ba.cycle, ba.m, [k for k, _ in ba.scan], ba.within_epsilon) == \
                    (cycle, m, [k for k, _ in scan], within)
                assert all(abs(a - b) <= 1e-14 for (_, a), (_, b) in zip(ba.scan, scan))
                assert abs(ba.distance_to_periodic - d_p) <= 1e-14
                assert abs(ba.distance_to_target - d_t) <= 1e-14
                assert ba.measure.to_json_dict() == chains[m].to_json_dict()
                verdicts.add(within)
    assert verdicts == {True, False}


def test_renewal_cross_check_raises_on_drifted_parry_integrals(monkeypatch):
    original = measures._renewal_chain

    def drifted(sub, x):
        nu = original(sub, x)
        nu.cylinder_mass = lambda word: MarkovMeasure.cylinder_mass(nu, word) + 1e-9
        return nu

    monkeypatch.setattr(measures, "_renewal_chain", drifted)
    with pytest.raises(ConvergenceError):
        bernoulli_approximation(cycle_measure(FULL2, (0, 1)), FULL2, 0.2, FAM3, cycle=(0, 1))


def test_bernoulli_approximation_needs_no_eigen_solve(monkeypatch):
    # the winner's chain comes from the renewal root, not from perron_data or eig
    runs = [(mixed_target(), FULL2, 0.3, FAM3, None),
            (cycle_measure(GOLDEN, (0, 1)), GOLDEN, 0.2, cylinder_family(GOLDEN, 3), (0, 1))]
    expected = [bernoulli_approximation(*run[:4], cycle=run[4]) for run in runs]

    def refuse(*args, **kwargs):
        raise AssertionError("eigen-solve on the bernoulli path")

    for module, name in ((measures, "perron_data"), (sft, "perron_data"), (np.linalg, "eig")):
        monkeypatch.setattr(module, name, refuse)
    for run, ba in zip(runs, expected):
        got = bernoulli_approximation(*run[:4], cycle=run[4])
        assert (got.m, got.cycle, got.scan, got.distance_to_target) == \
            (ba.m, ba.cycle, ba.scan, ba.distance_to_target)
        assert got.measure.to_json_dict() == ba.measure.to_json_dict()
