"""Perron data, Parry chains and Markov cylinder masses against the cold
power iteration, the stationary linear solve and the dense transfer
product they replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symshadow.measures import block_subshift, parry_measure
from symshadow.sft import (PERRON_TOL, NumericalError, ReducibleMatrixError,
                           TransitionMatrix, enumerate_cycles, is_irreducible,
                           is_primitive, perron_data)
from symshadow.systems import sft_homoclinic_splice

# -- independent oracles ---------------------------------------------------------


def cold_perron_data(matrix, tol=1e-13, max_iter=500_000):
    """Power iteration on A + I from the uniform vector, stopped on the
    Collatz-Wielandt spread."""
    if not is_irreducible(matrix):
        raise ReducibleMatrixError("Perron data requires an irreducible matrix")
    n = matrix.size
    shifted = np.array(matrix.rows, dtype=float) + np.eye(n)

    def iterate(mat):
        v = np.full(n, 1.0 / n)
        for _ in range(max_iter):
            w = mat @ v
            ratios = w / v
            lo, hi = float(ratios.min()), float(ratios.max())
            v = w / w.sum()
            if hi - lo <= tol * hi:
                return (lo + hi) / 2.0 - 1.0, [float(x) for x in v]
        raise NumericalError("power iteration did not converge")

    lam, right = iterate(shifted)
    lam_l, left = iterate(shifted.T)
    if abs(lam - lam_l) > 1e-9 * max(1.0, lam):
        raise NumericalError("left/right Perron eigenvalues disagree")
    return lam, right, left


def stationary_vector(P):
    """Stationary row vector of an irreducible stochastic matrix, by a
    direct linear solve (pi (P - I) = 0 with sum pi = 1)."""
    n = len(P)
    a = np.transpose(np.array(P)) - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    return [float(x) for x in pi]


def dense_cylinder_mass(measure, word):
    """Transfer product over all n states at every step."""
    word = tuple(word)
    n = measure.support.size
    vec = [measure.pi[s] if measure.labels[s] == word[0] else 0.0 for s in range(n)]
    for sym in word[1:]:
        vec = [sum(vec[i] * measure.P[i][j] for i in range(n))
               if sym is None or measure.labels[j] == sym else 0.0 for j in range(n)]
    return sum(vec)


# -- inputs ------------------------------------------------------------------------


@st.composite
def irreducible_matrices(draw, max_size=12):
    """A closed walk through every state plus random extra edges.  State i
    sits in class i mod ``period`` (before a random relabeling) and every
    edge goes from class k to class k + 1, so ``period`` > 1 gives a
    periodic matrix; period 1 allows every edge."""
    period = draw(st.integers(1, 4))
    n = draw(st.integers(period, max_size))
    members = [list(range(k, n, period)) for k in range(period)]
    walk = [members[k][r % len(members[k])]
            for r in range(max(map(len, members))) for k in range(period)]
    rows = [[0] * n for _ in range(n)]
    for a, b in zip(walk, walk[1:] + walk[:1]):
        rows[a][b] = 1
    extra = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    for i in range(n):
        for j in range(n):
            if (j - i - 1) % period == 0 and extra[i * n + j]:
                rows[i][j] = 1
    perm = draw(st.permutations(range(n)))
    return TransitionMatrix([[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)])


def pipeline_subshifts():
    """The block subshifts {p^m, excursion} that `bernoulli_approximation`
    scans, for short cycles of the full 2-shift and the golden mean."""
    out = []
    for ambient in (TransitionMatrix.full_shift(2), TransitionMatrix.golden_mean()):
        for n in (1, 2, 3):
            for cyc in enumerate_cycles(ambient, n).cycles:
                if cyc.primitive_period != n:
                    continue
                cycle = cyc.states
                _, center = sft_homoclinic_splice(ambient, cycle)
                excursion = ((cycle[0],) + center) if len(cycle) > 1 else center
                for m in range(1, 17):
                    if m * n + len(excursion) > 64:
                        break
                    sub = block_subshift(ambient, cycle, m, excursion)
                    if is_primitive(sub.matrix):
                        out.append(sub)
    return out


PIPELINE = pipeline_subshifts()


def dense_core_with_chain(core, chain):
    """Complete graph with loops on ``core`` states, plus a return chain of
    ``chain`` states leaving and re-entering at state 0."""
    n = core + chain
    rows = [[int(i < core and j < core) for j in range(n)] for i in range(n)]
    path = [0, *range(core, n), 0]
    for a, b in zip(path, path[1:]):
        rows[a][b] = 1
    return TransitionMatrix(rows)


# -- checks ------------------------------------------------------------------------


def assert_certified_bracket(matrix, lam, right, left):
    """Both vectors are positive with unit sum, and the Collatz-Wielandt
    ratios of A + I on each close to PERRON_TOL around lambda + 1."""
    shifted = np.array(matrix.rows, dtype=float) + np.eye(matrix.size)
    for mat, vec in ((shifted, right), (shifted.T, left)):
        v = np.array(vec)
        assert (v > 0).all()
        assert abs(v.sum() - 1.0) < 1e-12
        ratios = (mat @ v) / v
        lo, hi = ratios.min(), ratios.max()
        assert hi - lo <= PERRON_TOL * hi
        # lambda is the previous step's midpoint, within one spread of the bracket
        assert lo - PERRON_TOL * hi <= lam + 1.0 <= hi + PERRON_TOL * hi


def check_against_oracles(matrix):
    lam, right, left = perron_data(matrix)
    lam_cold, _, _ = cold_perron_data(matrix)
    assert abs(lam - lam_cold) <= 2e-13 * lam_cold
    assert_certified_bracket(matrix, lam, right, left)
    if is_primitive(matrix):
        mu = parry_measure(matrix)
        assert max(abs(a - b) for a, b in zip(mu.pi, stationary_vector(mu.P))) <= 1e-12


@given(irreducible_matrices())
def test_perron_data_matches_cold_power_iteration(matrix):
    check_against_oracles(matrix)


@settings(max_examples=25)
@given(st.sampled_from(PIPELINE))
def test_perron_data_matches_cold_power_iteration_on_block_subshifts(sub):
    check_against_oracles(sub.matrix)


@pytest.mark.parametrize("core, chain", [(4, 48), (4, 60), (16, 48)])
def test_dense_core_with_long_chain_polishes_to_the_bracket(core, chain):
    # eig loses the chain's small components (down to ~1e-59 here); the
    # power steps from the floored seed must still close the bracket
    check_against_oracles(dense_core_with_chain(core, chain))


@st.composite
def labeled_words(draw, alphabet):
    symbols = st.one_of(st.none(), st.sampled_from(alphabet))
    return (draw(st.sampled_from(alphabet)), *draw(st.lists(symbols, max_size=7)))


@given(st.data())
def test_cylinder_mass_equals_dense_product(data):
    if data.draw(st.booleans()):
        sub = data.draw(st.sampled_from(PIPELINE))
        mu = parry_measure(sub.matrix, labels=sub.labels)
    else:
        matrix = data.draw(irreducible_matrices(max_size=8))
        if not is_primitive(matrix):
            return
        mu = parry_measure(matrix)
    for _ in range(5):
        word = data.draw(labeled_words(sorted(set(mu.labels))))
        assert mu.cylinder_mass(word).hex() == dense_cylinder_mass(mu, word).hex()
