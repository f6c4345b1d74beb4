"""Core subshift machinery against independent brute-force oracles."""

import contextlib
import json
import math
import random
import sys
from itertools import product

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symshadow import dense_periods, sft
from symshadow.dense_periods import _BlockGraph, dense_periods_certificate
from symshadow.measures import _cycle_table, _cyclic_word_integrals, cylinder_family
from symshadow.sft import (ReducibleMatrixError, TransitionMatrix,
                           class_period, count_periodic_points,
                           cyclic_decomposition, enumerate_cycles, is_irreducible,
                           is_primitive, perron_data, return_time_set,
                           topological_entropy, _bfs_distances, _int_mat_mul,
                           _int_mat_pow, _primitive_period, _step_layers)

FULL2 = TransitionMatrix.full_shift(2)
GOLDEN = TransitionMatrix.golden_mean()
PARITY = TransitionMatrix([[0, 1], [1, 0]])
WHEEL = TransitionMatrix([[1, 1, 0], [0, 0, 1], [1, 0, 0]])  # 3-cycle plus loop at 0


# -- independent oracles ---------------------------------------------------


def brute_cyclic_words(matrix, n):
    """All admissible cyclic words of length n, lexicographically: a
    depth-first walk extends admissible prefixes by the symbols the matrix
    rows allow and keeps a full word when its closing edge is allowed."""
    rows = matrix.rows
    stack = [(s,) for s in reversed(range(matrix.size))]
    while stack:
        word = stack.pop()
        if len(word) < n:
            stack.extend(word + (t,) for t in reversed(range(matrix.size))
                         if rows[word[-1]][t])
        elif rows[word[-1]][word[0]]:
            yield word


def brute_return_time_gcd(matrix, state):
    """gcd of closed-walk lengths at ``state`` from exact matrix powers
    (the walk semigroup's gcd stabilizes within 4n+4 steps)."""
    a = np.array(matrix.rows, dtype=np.int64)
    cur = a.copy()
    g = 0
    for n in range(1, 4 * matrix.size + 5):
        if cur[state, state] > 0:
            g = math.gcd(g, n)
        cur = (cur @ a > 0).astype(np.int64)
    return g


def wielandt_primitive(matrix):
    """Some boolean power A^k with k up to the Wielandt bound (n-1)^2 + 1 is
    entrywise positive."""
    a = np.array(matrix.rows, dtype=np.int64)
    cur = a.copy()
    for _ in range((matrix.size - 1) ** 2 + 1):
        if cur.all():
            return True
        cur = (cur @ a > 0).astype(np.int64)
    return False


def closure_irreducible(matrix):
    """Every entry of A + A^2 + ... + A^n is positive (transitive closure)."""
    a = np.array(matrix.rows, dtype=np.int64)
    reach, cur = a.copy(), a.copy()
    for _ in range(matrix.size):
        cur = (cur @ a > 0).astype(np.int64)
        reach |= cur
    return bool(reach.all())


def random_essential(rng, size, density):
    while True:
        rows = [[1 if rng.random() < density else 0 for _ in range(size)]
                for _ in range(size)]
        if all(any(r) for r in rows) and all(any(rows[i][j] for i in range(size))
                                             for j in range(size)):
            return TransitionMatrix(rows)


# -- construction ----------------------------------------------------------


def test_rejects_non_essential():
    with pytest.raises(ValueError, match="non-essential matrix"):
        TransitionMatrix([[1, 0], [0, 0]])
    with pytest.raises(ValueError, match="non-essential matrix"):
        TransitionMatrix([[0, 1], [0, 1]])  # column 0 empty


def test_rejects_oversized_and_malformed():
    with pytest.raises(ValueError):
        TransitionMatrix([[1, 1], [1]])
    with pytest.raises(ValueError):
        TransitionMatrix([[2, 0], [1, 1]])
    with pytest.raises(ValueError):
        TransitionMatrix([[1] * 65 for _ in range(65)])


def entrywise_matrix_fields(rows):
    """Oracle: a TransitionMatrix's rows, successors and predecessors built
    entry by entry, after the same checks in the same order."""
    rows = tuple(tuple(int(v) for v in r) for r in rows)
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("transition matrix must be square and non-empty")
    if n > 64:
        raise ValueError(f"at most 64 symbols supported, got {n}")
    if any(v not in (0, 1) for r in rows for v in r):
        raise ValueError("entries must be 0 or 1")
    succ = tuple(tuple(j for j in range(n) if rows[i][j]) for i in range(n))
    pred = tuple(tuple(i for i in range(n) if rows[i][j]) for j in range(n))
    if any(not s for s in succ) or any(not p for p in pred):
        raise ValueError(
            "non-essential matrix: every symbol needs an outgoing and an incoming edge")
    return rows, succ, pred


@st.composite
def matrix_like_rows(draw):
    """Square or ragged rows of 0/1 entries, dense, sparse, or with bools,
    floats and out-of-range ints mixed in; or 64 or 65 states, one entry
    perhaps 2."""
    if draw(st.integers(0, 9)) == 0:
        n = draw(st.sampled_from([64, 65]))
        rows = [[1] * n for _ in range(n)]
        rows[draw(st.integers(0, n - 1))][0] = draw(st.sampled_from([0, 1, 2]))
        return rows
    entry = draw(st.sampled_from([
        st.sampled_from([0, 1]), st.sampled_from([0, 0, 0, 1]),
        st.one_of(st.sampled_from([0, 1]), st.sampled_from([2, -1, 0.5, 1.0, True, False]))]))
    n = draw(st.integers(0, 6))
    lengths = st.integers(max(n - 1, 0), n + 1) if draw(st.integers(0, 4)) == 0 else st.just(n)
    return [draw(st.lists(entry, min_size=k, max_size=k))
            for k in [draw(lengths) for _ in range(n)]]


def matrix_fields(rows):
    matrix = TransitionMatrix(rows)
    return matrix.rows, matrix.succ, matrix.pred


def construction_outcome(build, rows):
    """The rows, their entry types, successors and predecessors that
    ``build`` makes of ``rows``, or the type and message it raises."""
    try:
        rows, succ, pred = build(rows)
    except ValueError as exc:
        return type(exc), str(exc)
    return rows, [type(v) for r in rows for v in r], succ, pred


@given(matrix_like_rows())
def test_construction_matches_the_entrywise_oracle(rows):
    assert construction_outcome(matrix_fields, rows) \
        == construction_outcome(entrywise_matrix_fields, rows)


def test_json_round_trip():
    again = TransitionMatrix.from_dict(json.loads(json.dumps(
        {"rows": [list(r) for r in GOLDEN.rows], "size": GOLDEN.size})))
    assert again == GOLDEN


# -- irreducibility / primitivity -------------------------------------------


def test_is_irreducible_examples():
    assert is_irreducible(GOLDEN) is True
    assert is_irreducible(TransitionMatrix([[1, 0], [0, 1]])) is False
    assert is_irreducible(PARITY) is True


def test_is_primitive_examples():
    assert is_primitive(GOLDEN) is True
    assert is_primitive(PARITY) is False
    assert is_primitive(FULL2) is True


def test_class_period_examples():
    assert class_period(PARITY) == 2
    three_cycle = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert class_period(three_cycle) == 3
    assert class_period(GOLDEN) == 1
    with pytest.raises(ReducibleMatrixError):
        class_period(TransitionMatrix([[1, 0], [0, 1]]))


@given(st.integers(2, 6), st.integers(0, 10**9))
def test_primitive_iff_class_period_one(size, seed):
    import random
    matrix = random_essential(random.Random(seed), size, 0.4)
    assert is_irreducible(matrix) == closure_irreducible(matrix)
    assert is_primitive(matrix) == wielandt_primitive(matrix)
    if is_irreducible(matrix):
        assert wielandt_primitive(matrix) == (class_period(matrix) == 1)


def test_primitive_iff_class_period_one_thousand_samples():
    import random
    rng = random.Random(99)
    checked = 0
    while checked < 1000:
        matrix = random_essential(rng, rng.choice([2, 3, 4, 5, 6]),
                                  rng.choice([0.3, 0.4, 0.6]))
        assert is_primitive(matrix) == wielandt_primitive(matrix)
        if not is_irreducible(matrix):
            continue
        assert wielandt_primitive(matrix) == (class_period(matrix) == 1)
        checked += 1


@pytest.mark.parametrize("matrix", [GOLDEN, PARITY, WHEEL, TransitionMatrix([[1, 0], [0, 1]]),
                                    TransitionMatrix([[1, 1], [0, 1]])],
                         ids=["golden", "parity", "wheel", "identity", "triangular"])
def test_each_predicate_walks_the_graph_twice(matrix):
    # one forward and one backward breadth-first search from state 0 decide
    # reachability and the class period; dense_periods' own binding counts too
    calls = []

    def counted(adjacency, sources):
        calls.append(adjacency)
        return _bfs_distances(adjacency, sources)

    irreducible = is_irreducible(matrix)
    with mock.patch.object(sft, "_bfs_distances", counted), \
            mock.patch.object(dense_periods, "_bfs_distances", counted):
        for predicate in (is_irreducible, is_primitive, class_period, cyclic_decomposition):
            calls.clear()
            with contextlib.suppress(ReducibleMatrixError):  # the last two, on a reducible A
                predicate(matrix)
            assert calls == [matrix.succ, matrix.pred], predicate.__name__
        if not irreducible:
            calls.clear()
            assert dense_periods_certificate(matrix, 0.5, 10).blocking_n == 2
            assert calls == [matrix.succ, matrix.pred]


def block_subshift_cases():
    """The block presentations the measure pipeline builds, up to 36 states:
    (cycle, excursion, m, block matrix)."""
    from symshadow.measures import block_subshift
    from symshadow.systems import sft_homoclinic_splice
    cases = [(matrix, cycle, (cycle[0],) + sft_homoclinic_splice(matrix, cycle)[1])
             for matrix, cycle in ((FULL2, (0, 1)), (GOLDEN, (0, 1)), (FULL2, (0, 0, 0, 1, 1)))]
    cases.append((FULL2, (0, 1), (0, 1, 1, 0)))  # even block lengths: class period 2
    return [(cycle, excursion, m, block_subshift(matrix, cycle, m, excursion).matrix)
            for matrix, cycle, excursion in cases for m in range(1, 8)]


def test_primitivity_of_block_subshifts_matches_wielandt():
    verdicts = set()
    for _, _, _, sub in block_subshift_cases():
        assert is_primitive(sub) == wielandt_primitive(sub)
        verdicts.add(is_primitive(sub))
    assert verdicts == {True, False}


def test_block_subshifts_are_primitive_exactly_when_the_block_lengths_are_coprime():
    # the tiles loop and excursion + loop have lengths a = m |p| and a + b
    verdicts = set()
    for cycle, excursion, m, sub in block_subshift_cases():
        coprime = math.gcd(m * len(cycle), len(excursion)) == 1
        assert coprime == wielandt_primitive(sub)
        verdicts.add(coprime)
    assert verdicts == {True, False}


def fresh_cycle_list(matrix, max_period):
    """The per-request scan the kept table replaced."""
    out = []
    for n in range(1, max_period + 1):
        if count_periodic_points(matrix, n) > 2048:
            break
        out += [(str(c), c.states, n) for c in enumerate_cycles(matrix, n).cycles
                if c.primitive_period == n]
    return out


@pytest.mark.parametrize("rows, longest", [(FULL2.rows, 11), (GOLDEN.rows, 14)],
                         ids=["full2", "golden"])
def test_cached_cycle_list_equals_a_fresh_scan_in_any_order(rows, longest):
    fresh = {k: fresh_cycle_list(TransitionMatrix(rows), k) for k in range(1, 15)}
    for order in (range(1, 15), range(14, 0, -1)):
        matrix, family = TransitionMatrix(rows), cylinder_family(TransitionMatrix(rows), 2)
        for k in order:
            cycles, table = _cycle_table(matrix, family, k)
            assert cycles == fresh[k]
            assert max(n for _, _, n in fresh[k]) == min(k, longest)
            assert np.array_equal(table, _cyclic_word_integrals([w for _, w, _ in cycles],
                                                                family))
            assert not table.flags.writeable
    # the full shift stops before its 4096 points of period 12, the golden mean
    # (322 points) reaches the measure scan's max_period 12
    assert max(n for _, _, n in _cycle_table(matrix, family, 12)[0]) == min(12, longest)
    # equal but distinct matrices share one kept table
    a, b = TransitionMatrix(rows), TransitionMatrix(rows)
    assert a == b and a is not b and _cycle_table(b, family, 14) is _cycle_table(a, family, 14)
    assert _cycle_table(a, family, 0)[0] == [] and _cycle_table(a, family, 0)[1].shape == \
        (len(family), 0)


def test_a_matrix_keeps_only_its_rows_and_adjacency():
    # the primitive cycle listing lives with its integrals in measures._cycle_table
    assert TransitionMatrix.__slots__ == ("size", "rows", "succ", "pred")


@given(st.integers(2, 5), st.integers(0, 10**9))
def test_class_period_matches_return_time_gcd_oracle(size, seed):
    import random
    matrix = random_essential(random.Random(seed), size, 0.45)
    if not is_irreducible(matrix):
        return
    assert class_period(matrix) == brute_return_time_gcd(matrix, 0)


# -- cyclic decomposition ----------------------------------------------------


def test_cyclic_decomposition_parity():
    decomp = cyclic_decomposition(PARITY)
    assert decomp.class_period == 2
    assert decomp.classes == (frozenset({0}), frozenset({1}))


def test_cyclic_decomposition_primitive_single_class():
    decomp = cyclic_decomposition(GOLDEN)
    assert decomp.class_period == 1
    assert decomp.classes == (frozenset({0, 1}),)


def test_cyclic_decomposition_four_state_example():
    # 0->1->2->3->0 with the extra 2->1 giving cycles of lengths 4 and 2
    matrix = TransitionMatrix([[0, 1, 0, 0], [0, 0, 1, 0],
                               [0, 1, 0, 1], [1, 0, 0, 0]])
    decomp = cyclic_decomposition(matrix)
    assert decomp.class_period == 2
    assert set(decomp.classes) == {frozenset({0, 2}), frozenset({1, 3})}


@given(st.integers(2, 6), st.integers(0, 10**9))
def test_cyclic_decomposition_structure(size, seed):
    import random
    matrix = random_essential(random.Random(seed), size, 0.35)
    if not is_irreducible(matrix):
        return
    decomp = cyclic_decomposition(matrix)
    l = decomp.class_period
    position = {}
    for k, cls in enumerate(decomp.classes):
        for s in cls:
            position[s] = k
    # the matrix maps class k into class k+1 mod l
    for i in range(size):
        for j in matrix.succ[i]:
            assert position[j] == (position[i] + 1) % l
    # A^l restricted to each class is primitive
    power = np.linalg.matrix_power(np.array(matrix.rows, dtype=np.int64),
                                   l).astype(bool).astype(int)
    for cls in decomp.classes:
        states = sorted(cls)
        sub = TransitionMatrix([[int(power[a][b]) for b in states] for a in states])
        assert is_primitive(sub)


# -- periodic point counts ---------------------------------------------------


def test_count_periodic_points_examples():
    assert count_periodic_points(FULL2, 5) == 32
    assert count_periodic_points(GOLDEN, 4) == 7
    assert count_periodic_points(PARITY, 3) == 0


@given(st.integers(2, 4), st.integers(1, 12), st.integers(0, 10**9))
def test_count_matches_brute_enumeration(size, n, seed):
    import random
    matrix = random_essential(random.Random(seed), size, 0.5)
    assert count_periodic_points(matrix, n) == sum(1 for _ in brute_cyclic_words(matrix, n))


def test_count_huge_power_is_exact():
    # 2^200 has no float representation; exact integers required
    assert count_periodic_points(FULL2, 200) == 2 ** 200


def identity(size):
    return [[int(i == j) for j in range(size)] for i in range(size)]


def times(x, a):
    """The plain product x a."""
    size = len(a)
    return [[sum(x[i][k] * a[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)]


@given(st.integers(1, 6), st.integers(0, 10**9))
def test_int_mat_pow_matches_repeated_product(size, seed):
    rng = random.Random(seed)
    a = [[rng.randint(0, 1) for _ in range(size)] for _ in range(size)]
    power = identity(size)
    for n in range(71):
        assert _int_mat_pow([row[:] for row in a], n) == power
        power = times(power, a)


def test_int_mat_pow_zero_is_the_identity():
    # the block graph at m = 2 counts its nodes as the entries of A^0
    for matrix in (FULL2, GOLDEN, PARITY, WHEEL):
        assert _int_mat_pow([list(r) for r in matrix.rows], 0) == identity(matrix.size)
        assert len(_BlockGraph(matrix, 2).nodes) == matrix.size


@pytest.mark.parametrize("size", [2, 3])
def test_float_products_are_bitwise_the_textbook_sum(size):
    # _int_mat_mul adds each entry's products in index order, so it is the
    # textbook product on floats too; at size 3 another order would show in
    # the last bits
    rng = random.Random(2014)
    chain = want = [[float(i == j) for j in range(size)] for i in range(size)]
    for _ in range(200):
        a = [[rng.uniform(-3.0, 3.0) for _ in range(size)] for _ in range(size)]
        chain = _int_mat_mul(a, chain)
        expected = []
        for row in a:
            expected.append([])
            for j in range(size):
                acc = 0
                for k in range(size):
                    acc += row[k] * want[k][j]
                expected[-1].append(acc)
        want = expected
        assert [[x.hex() for x in r] for r in chain] == [[x.hex() for x in r] for r in want]


# -- cycle enumeration --------------------------------------------------------


def test_enumerate_cycles_examples():
    gm2 = enumerate_cycles(GOLDEN, 2)
    assert [str(c) for c in gm2.cycles] == ["00", "01"]
    assert [c.primitive_period for c in gm2.cycles] == [1, 2]

    assert [str(c) for c in enumerate_cycles(FULL2, 1).cycles] == ["0", "1"]
    assert [str(c) for c in enumerate_cycles(PARITY, 2).cycles] == ["01"]


@given(st.one_of(st.tuples(st.integers(1, 3), st.integers(1, 8)),
                 st.tuples(st.just(4), st.integers(1, 6))),
       st.integers(0, 10**9))
def test_enumerate_cycles_matches_brute_rotation_classes(size_n, seed):
    import random
    size, n = size_n
    matrix = random_essential(random.Random(seed), size, 0.5)
    enum = enumerate_cycles(matrix, n)
    brute = sorted({min(w[i:] + w[:i] for i in range(n))
                    for w in brute_cyclic_words(matrix, n)})
    assert [c.states for c in enum.cycles] == brute
    assert all(c.period == n and c.primitive_period == _primitive_period(c.states)
               for c in enum.cycles)
    # each rotation class of primitive period p holds p fixed points of sigma^n
    assert sum(c.primitive_period for c in enum.cycles) == count_periodic_points(matrix, n)


def test_enumerate_cycles_walks_words_past_the_recursion_limit():
    # one step per symbol on an explicit stack: the 3-cycle at n = 3000 has one
    # rotation class, 012 repeated, and a recursive walk died at depth ~1000
    perm3 = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    n = 3 * sys.getrecursionlimit()
    (cycle,) = enumerate_cycles(perm3, n).cycles
    assert cycle.states == (0, 1, 2) * (n // 3) and cycle.period == n
    assert cycle.primitive_period == 3 == count_periodic_points(perm3, n)


def test_enumeration_deterministic_order():
    a = enumerate_cycles(FULL2, 6)
    b = enumerate_cycles(FULL2, 6)
    assert [c.states for c in a.cycles] == [c.states for c in b.cycles]
    assert [c.states for c in a.cycles] == sorted(c.states for c in a.cycles)


# -- entropy -------------------------------------------------------------------


def test_entropy_examples():
    assert abs(topological_entropy(FULL2) - math.log(2)) < 1e-12
    golden_ratio = (1 + math.sqrt(5)) / 2
    assert abs(topological_entropy(GOLDEN) - math.log(golden_ratio)) < 1e-12
    assert abs(topological_entropy(PARITY)) < 1e-12


def test_entropy_against_numpy_eigenvalues():
    for matrix in (GOLDEN, WHEEL, FULL2):
        lam = max(abs(v) for v in np.linalg.eigvals(np.array(matrix.rows, float)))
        assert abs(topological_entropy(matrix) - math.log(lam)) < 1e-10


def test_perron_vectors_are_eigenvectors():
    lam, right, left = perron_data(GOLDEN)
    a = np.array(GOLDEN.rows, float)
    assert np.allclose(a @ right, lam * np.array(right), atol=1e-11)
    assert np.allclose(np.array(left) @ a, lam * np.array(left), atol=1e-11)


# -- return times ---------------------------------------------------------------


def test_return_time_set_examples():
    assert return_time_set(FULL2, (0,), (0,), 10) == set(range(11))
    assert return_time_set(PARITY, (0,), (0,), 10) == {0, 2, 4, 6, 8, 10}
    assert return_time_set(GOLDEN, (1,), (1,), 10) == {0} | set(range(2, 11))


def test_return_time_set_brute_oracle():
    # independent check: search all admissible patterns of bounded length
    horizon = 8
    for u, v in (((0, 1), (1, 0)), ((1,), (0, 0))):
        got = return_time_set(GOLDEN, u, v, horizon)
        expected = set()
        for n in range(horizon + 1):
            length = max(len(u), n + len(v))
            for word in product(range(2), repeat=length):
                if word[:len(u)] != tuple(u) or word[n:n + len(v)] != tuple(v):
                    continue
                if GOLDEN.is_admissible_word(word):
                    expected.add(n)
                    break
        assert got == expected


@given(st.integers(2, 5), st.integers(0, 10**9))
def test_return_time_gaps_eventually_class_period(size, seed):
    import random
    rng = random.Random(seed)
    matrix = random_essential(rng, size, 0.4)
    if not is_irreducible(matrix):
        return
    l = class_period(matrix)
    horizon = 12 * size
    u = (rng.randrange(size),)
    v = (rng.randrange(size),)
    hits = sorted(n for n in return_time_set(matrix, u, v, horizon)
                  if n >= horizon // 2)
    assert hits, "irreducible shifts must keep hitting"
    assert all(b - a == l for a, b in zip(hits, hits[1:]))


def bool_power_return_time_set(matrix, u, v, horizon):
    """Return times from boolean matrix powers: u and v superpose
    admissibly (n < |u|), or A^(n-|u|+1) links u[-1] to v[0]."""
    a = np.array(matrix.rows, dtype=np.int32)
    powers = [np.eye(matrix.size, dtype=np.int32)]
    for _ in range(horizon + 1):
        powers.append((powers[-1] @ a > 0).astype(np.int32))
    hits = set()
    for n in range(horizon + 1):
        if n < len(u):
            agree = all(u[i] == v[i - n] for i in range(n, min(len(u), n + len(v))))
            if agree and matrix.is_admissible_word(tuple(u) + tuple(v[len(u) - n:])):
                hits.add(n)
        elif powers[n - len(u) + 1][u[-1], v[0]]:
            hits.add(n)
    return hits


def random_word(rng, matrix, length):
    word = [rng.randrange(matrix.size)]
    while len(word) < length:
        word.append(rng.choice(matrix.succ[word[-1]]))
    return tuple(word)


@given(st.integers(2, 6), st.integers(1, 3), st.integers(1, 3), st.integers(0, 40),
       st.integers(0, 10**9))
def test_return_time_set_matches_boolean_powers(size, len_u, len_v, horizon, seed):
    rng = random.Random(seed)
    matrix = random_essential(rng, size, rng.choice([0.3, 0.45, 0.6]))
    u, v = random_word(rng, matrix, len_u), random_word(rng, matrix, len_v)
    if not is_irreducible(matrix):
        with pytest.raises(ReducibleMatrixError):
            return_time_set(matrix, u, v, horizon)
        return
    assert return_time_set(matrix, u, v, horizon) == \
        bool_power_return_time_set(matrix, u, v, horizon)


# -- graph core -------------------------------------------------------------------


def floyd_warshall(matrix):
    inf = math.inf
    n = matrix.size
    dist = [[0 if i == j else (1 if matrix.rows[i][j] else inf) for j in range(n)]
            for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    return dist


@given(st.integers(2, 6), st.integers(0, 10**9))
def test_bfs_distances_match_floyd_warshall(size, seed):
    rng = random.Random(seed)
    matrix = random_essential(rng, size, rng.choice([0.25, 0.4, 0.6]))
    fw = floyd_warshall(matrix)
    sources = rng.sample(range(size), rng.randint(1, size))
    for adjacency, dist_to in ((matrix.succ, lambda s, t: fw[s][t]),
                               (matrix.pred, lambda s, t: fw[t][s])):
        expected = [min(dist_to(s, t) for s in sources) for t in range(size)]
        assert _bfs_distances(adjacency, sources) == \
            [-1 if d == math.inf else d for d in expected]


@given(st.integers(2, 6), st.integers(0, 30), st.integers(0, 10**9))
def test_step_layers_match_matrix_powers(size, steps, seed):
    rng = random.Random(seed)
    matrix = random_essential(rng, size, rng.choice([0.25, 0.4, 0.6]))
    start = rng.randrange(size)
    a = np.array(matrix.rows, dtype=object)  # exact: no int64 overflow
    forward = _step_layers(matrix.succ, start, steps)
    backward = _step_layers(matrix.pred, start, steps)
    assert len(forward) == len(backward) == steps + 1
    for t in range(steps + 1):
        power = np.linalg.matrix_power(a, t) > 0
        assert forward[t] == {j for j in range(size) if power[start, j]}
        assert backward[t] == {i for i in range(size) if power[i, start]}
