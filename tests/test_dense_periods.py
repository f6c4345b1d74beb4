"""Dense-period certificates, refutations, and mixing thresholds."""

import hashlib
import json
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symshadow.dense_periods import (EXHAUSTIVE_BUDGET, MAX_BLOCK_NODES,
                                     BlockGraphTooLargeError,
                                     CertificateTooCoarseError,
                                     DensePeriodsCertificate,
                                     DensePeriodsRefutation,
                                     HorizonTooSmallError, admissible_words,
                                     dense_periods_certificate,
                                     homoclinic_restricted_certificate,
                                     is_dense_cycle,
                                     verify_mixing_from_certificate, _BlockGraph,
                                     _ball_word, _covering_walk, _Engine)
from symshadow.sft import (NonEssentialMatrixError, SymbolicCycle,
                           TransitionMatrix, count_periodic_points,
                           is_irreducible, is_primitive, _bfs_distances)

FULL2 = TransitionMatrix.full_shift(2)
GOLDEN = TransitionMatrix.golden_mean()
PARITY = TransitionMatrix([[0, 1], [1, 0]])
WHEEL = TransitionMatrix([[1, 1, 0], [0, 0, 1], [1, 0, 0]])


def scanner_contains_all_words(matrix, cycle_word, m):
    """Independent density check: string scan of the doubled word."""
    text = "".join(map(str, cycle_word))
    doubled = text + text + text[:m]
    for word in admissible_words(matrix, m):
        if "".join(map(str, word)) not in doubled:
            return False
    return True


def random_essential(rng, size, density):
    while True:
        rows = [[1 if rng.random() < density else 0 for _ in range(size)]
                for _ in range(size)]
        if all(any(r) for r in rows) and all(any(rows[i][j] for i in range(size))
                                             for j in range(size)):
            return TransitionMatrix(rows)


# -- certificates -----------------------------------------------------------


def test_full_shift_certificate_smallest_n0():
    cert = dense_periods_certificate(FULL2, 0.5, 20)
    assert isinstance(cert, DensePeriodsCertificate)
    assert cert.N0 == 2
    assert cert.word_length == 1
    witness2 = cert.witnesses[2]
    assert sorted(witness2.states) == [0, 1]  # the 2-cycle through both symbols


def test_parity_refutation_at_three():
    result = dense_periods_certificate(PARITY, 0.5, 20)
    assert isinstance(result, DensePeriodsRefutation)
    assert result.blocking_n == 3
    assert result.exhaustive is True
    assert count_periodic_points(PARITY, 3) == 0  # Fix(sigma^3) is empty


def test_golden_mean_certificate_all_two_words():
    cert = dense_periods_certificate(GOLDEN, 0.25, 30)
    assert isinstance(cert, DensePeriodsCertificate)
    assert cert.N0 == 3  # no 2-cycle contains 00, 01 and 10
    for n, witness in cert.witnesses.items():
        assert len(witness.states) == n
        assert scanner_contains_all_words(GOLDEN, witness.states, 2)


def test_witnesses_prefer_exact_primitive_period():
    cert = dense_periods_certificate(FULL2, 0.5, 40)
    flagged = cert.nonprimitive_periods()
    for n in cert.witnesses:
        if n not in flagged:
            assert cert.witnesses[n].primitive_period == n


def test_horizon_too_small_error():
    # primitive 4-state wheel with loop: covering 2-word cycle is longer
    # than this tiny horizon
    wheel4 = TransitionMatrix([[1, 1, 0, 0], [0, 0, 1, 0],
                               [0, 0, 0, 1], [1, 0, 0, 0]])
    assert is_primitive(wheel4)
    with pytest.raises(HorizonTooSmallError):
        dense_periods_certificate(wheel4, 0.25, 3)


def test_primitive_matrix_with_a_cover_of_exactly_n_max_is_never_refuted():
    # the covering walk is 80 long: at n_max = 80 only n = 80 is constructible,
    # and a lone witnessed period once drew an "exhaustive" refutation at n = 2
    matrix = TransitionMatrix([[1, 1, 0, 1, 1], [0, 1, 1, 1, 1], [1, 0, 1, 0, 1],
                               [1, 1, 1, 0, 1], [0, 1, 0, 1, 1]])
    assert is_primitive(matrix)
    with pytest.raises(HorizonTooSmallError):
        dense_periods_certificate(matrix, 1 / 8, 80)
    cert = dense_periods_certificate(matrix, 1 / 8, 81)
    assert isinstance(cert, DensePeriodsCertificate) and cert.N0 == 80
    [report] = verify_mixing_from_certificate(matrix, cert, [((2, 0), (2,))])
    assert report.verified_all
    # a coarser certificate whose internal fine certificate hits the same horizon
    coarse = dense_periods_certificate(matrix, 1 / 4, 80)
    with pytest.raises(HorizonTooSmallError):
        verify_mixing_from_certificate(matrix, coarse, [((2, 0), (2,))])


def test_refutation_for_reducible_matrix():
    two_loops = TransitionMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    # essential but reducible: no single cycle sees both components' words
    result = dense_periods_certificate(two_loops, 0.5, 30)
    assert isinstance(result, DensePeriodsRefutation)
    assert result.exhaustive is True


@given(st.integers(2, 5), st.sampled_from([0.5, 0.25]), st.integers(0, 10**9))
def test_certificate_iff_primitive(size, epsilon, seed):
    matrix = random_essential(random.Random(seed), size, 0.4)
    result = dense_periods_certificate(matrix, epsilon, 100)
    assert isinstance(result, DensePeriodsCertificate) == is_primitive(matrix)


@given(st.integers(0, 10**9))
def test_every_witness_passes_independent_scanner(seed):
    rng = random.Random(seed)
    matrix = random_essential(rng, rng.choice([2, 3, 4]), 0.5)
    result = dense_periods_certificate(matrix, 0.25, 60)
    if isinstance(result, DensePeriodsRefutation):
        return
    for n in (result.N0, (result.N0 + result.n_max) // 2, result.n_max):
        witness = result.witnesses[n]
        assert len(witness.states) == n
        assert matrix.is_admissible_cycle(witness.states)
        assert scanner_contains_all_words(matrix, witness.states, result.word_length)


def test_certificates_are_pinned():
    # sha256 of to_json_dict() over seeded random matrices: pins N0 and every
    # witness word, so an engine change that moves either must re-pin on purpose
    rng = random.Random(20140)
    digest = hashlib.sha256()
    for _ in range(100):
        matrix = random_essential(rng, rng.randint(2, 6), rng.choice([0.35, 0.5, 0.65]))
        for epsilon in (0.5, 0.25):
            try:
                result = dense_periods_certificate(matrix, epsilon, 60).to_json_dict()
            except HorizonTooSmallError:
                result = "horizon too small"
            digest.update(json.dumps(result, sort_keys=True).encode())
    assert digest.hexdigest() == \
        "c61f3794592fe8db364e1c061d32d3e73d10b1d04aa348745d335996cbfc929c"


def test_block_graph_size_guard():
    # the full 2-shift has 2^(m-1) blocks of length m - 1
    assert len(_BlockGraph(FULL2, 12).nodes) == MAX_BLOCK_NODES == 2048
    with pytest.raises(BlockGraphTooLargeError, match="4096 block nodes"):
        _BlockGraph(FULL2, 13)
    with pytest.raises(BlockGraphTooLargeError):
        dense_periods_certificate(FULL2, 1e-6, 100)
    # golden mean: Fibonacci many blocks, 1597 of length 15 and 2584 of length 16
    assert len(_BlockGraph(GOLDEN, 16).nodes) == 1597
    with pytest.raises(BlockGraphTooLargeError, match="2584 block nodes"):
        _BlockGraph(GOLDEN, 17)


# -- structural refutation -----------------------------------------------------


def scan_and_hunt(matrix, epsilon, n_max):
    """Oracle: the verdict flow without the structural refutation (the
    downward scan, then the upward hunt for an exhaustive exclusion).
    Returns ("certificate", N0) or ("refutation", blocking_n, exhaustive)."""
    eng = _Engine(matrix, epsilon, n_max)
    if eng.cover is not None and len(eng.cover) > n_max and is_primitive(matrix):
        raise HorizonTooSmallError(
            f"covering cycle needs length {len(eng.cover)} > n_max = {n_max}")

    budget = [EXHAUSTIVE_BUDGET]
    n = n_max
    while n >= 2:
        if eng.constructive_possible(n):
            n -= 1  # witness constructible on demand
            continue
        cyc, _ = eng.exhaustive_witness(n, budget)
        if cyc is None:
            break
        n -= 1
    N0 = n + 1

    if N0 <= n_max - 1:
        return ("certificate", N0)

    if is_primitive(matrix):
        raise HorizonTooSmallError(
            f"no two consecutive witnessed periods up to n_max = {n_max}")

    budget = [EXHAUSTIVE_BUDGET]
    first_unknown = None
    for k in range(2, n_max + 1):
        cyc, exhaustive = eng.exhaustive_witness(k, budget)
        if cyc is None and exhaustive:
            return ("refutation", k, True)
        if cyc is None and first_unknown is None:
            first_unknown = k
    return ("refutation", first_unknown or n_max, False)


def outcome(flow, matrix, epsilon, n_max):
    try:
        return flow(matrix, epsilon, n_max)
    except HorizonTooSmallError:
        return "horizon too small"


def verdict(result):
    if isinstance(result, DensePeriodsCertificate):
        return ("certificate", result.N0)
    if isinstance(result, DensePeriodsRefutation):
        return ("refutation", result.blocking_n, result.exhaustive)
    return result


def no_dense_cyclic_word(matrix, m, lengths=range(2, 9)):
    for n in lengths:
        for word in admissible_words(matrix, n):
            if matrix.rows[word[-1]][word[0]] and \
                    scanner_contains_all_words(matrix, word, m):
                return False
    return True


STRUCTURAL = "block graph not strongly connected: no closed walk covers every m-word"


def test_structural_refutation_matches_scan_and_hunt_on_all_small_matrices():
    # every essential matrix on at most 3 states; epsilon = 1 (m = 0) keeps
    # the old flow, since there every cycle is dense
    structural = 0
    for size in (1, 2, 3):
        for bits in product((0, 1), repeat=size * size):
            try:
                matrix = TransitionMatrix([bits[i * size:(i + 1) * size]
                                           for i in range(size)])
            except NonEssentialMatrixError:
                continue
            reducible = not is_irreducible(matrix)
            if reducible:
                assert no_dense_cyclic_word(matrix, 1)  # hence none for m >= 1
            for epsilon in (1.0, 0.5, 0.25, 0.125):
                result = outcome(dense_periods_certificate, matrix, epsilon, 16)
                assert verdict(result) == outcome(scan_and_hunt, matrix, epsilon, 16)
                proven = getattr(result, "reason", None) == STRUCTURAL
                assert proven == (reducible and epsilon < 1)
                structural += proven
    assert structural == 3 * 124  # the reducible essential matrices on <= 3 states


def block_reducible(rng, size):
    """Essential, reducible: two essential diagonal blocks, a random block
    above them, and the states shuffled."""
    k = rng.randint(1, size - 1)
    top, bottom = random_essential(rng, k, 0.5), random_essential(rng, size - k, 0.5)
    rows = [list(r) + [int(rng.random() < 0.5) for _ in range(size - k)]
            for r in top.rows] + [[0] * k + list(r) for r in bottom.rows]
    order = list(range(size))
    rng.shuffle(order)
    return TransitionMatrix([[rows[a][b] for b in order] for a in order])


@given(st.integers(4, 6), st.integers(0, 10**9))
def test_structural_refutation_matches_scan_and_hunt_on_reducible(size, seed):
    matrix = block_reducible(random.Random(seed), size)
    assert not is_irreducible(matrix)
    for epsilon in (0.5, 0.25, 0.125):
        result = dense_periods_certificate(matrix, epsilon, 40)
        assert verdict(result) == ("refutation", 2, True) == \
            scan_and_hunt(matrix, epsilon, 40)
        assert result.reason == STRUCTURAL
    assert no_dense_cyclic_word(matrix, 1, range(2, 7))


def test_each_refutation_path_states_its_reason():
    two_loops = TransitionMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    structural = dense_periods_certificate(two_loops, 0.5, 30)
    assert (structural.blocking_n, structural.exhaustive) == (2, True)
    assert structural.reason == STRUCTURAL
    # PARITY's block graph is strongly connected: Fix(sigma^3) is empty
    exhaustive = dense_periods_certificate(PARITY, 0.5, 20)
    assert (exhaustive.blocking_n, exhaustive.exhaustive) == (3, True)
    assert exhaustive.reason == "exhaustive search found no dense cycle"
    # at n_max = 2 only the period-2 witness 01 exists: no suffix, no exclusion
    inconclusive = dense_periods_certificate(PARITY, 0.5, 2)
    assert (inconclusive.blocking_n, inconclusive.exhaustive) == (2, False)
    assert inconclusive.reason == "no witnessed suffix and no exhaustive exclusion"


# -- covering walk -------------------------------------------------------------


def all_pairs_covering_walk(graph):
    """The greedy covering walk from an all-pairs BFS table: head for the
    uncovered edge (u, v) least by (dist[cur][u], u, v), stepping to the
    least successor one step closer."""
    succ = graph.succ
    dist = [_bfs_distances(succ, [s]) for s in range(len(succ))]
    base = 0
    if min(dist[base]) < 0 or any(row[base] < 0 for row in dist):
        return None

    walk = [base]

    def go_to(target):
        cur = walk[-1]
        while cur != target:
            cur = min(v for v in succ[cur] if dist[v][target] == dist[cur][target] - 1)
            walk.append(cur)

    if graph.cover_edges:
        uncovered = {(i, j) for i in range(len(succ)) for j in succ[i]}
        while uncovered:
            cur, walked = walk[-1], len(walk)
            u, v = min(uncovered, key=lambda e: (dist[cur][e[0]], e[0], e[1]))
            go_to(u)
            walk.append(v)
            uncovered.difference_update(zip(walk[walked - 1:], walk[walked:]))
    else:
        for target in range(len(succ)):
            if target not in walk:
                go_to(target)
    go_to(base)
    return walk[1:]


def test_covering_walk_matches_all_pairs_greedy():
    rng = random.Random(1992)
    graphs = [_BlockGraph(FULL2, m) for m in range(1, 9)]
    graphs += [_BlockGraph(GOLDEN, m) for m in range(1, 11)]
    graphs += [_BlockGraph(random_essential(rng, rng.randint(1, 6),
                                            rng.choice([0.35, 0.5, 0.65])),
                           rng.randint(1, 5)) for _ in range(150)]
    closed = 0
    for graph in graphs:
        walk = _covering_walk(graph)
        assert walk == all_pairs_covering_walk(graph)
        if walk is None:
            continue
        closed += 1
        steps = list(zip([0] + walk, walk))  # empty for a one-node cover at m = 1
        assert (walk or [0])[-1] == 0 and all(b in graph.succ[a] for a, b in steps)
        if graph.cover_edges:
            assert set(steps) == {(i, j) for i in range(len(graph.nodes))
                                  for j in graph.succ[i]}
        else:
            assert set([0] + walk) == set(range(len(graph.nodes)))
    assert closed > 100


# -- component restriction ----------------------------------------------------


def test_homoclinic_restriction_single_component_matches():
    p = SymbolicCycle.from_word(FULL2, (0,))
    restricted = homoclinic_restricted_certificate(FULL2, p, 0.5, 20)
    plain = dense_periods_certificate(FULL2, 0.5, 20)
    assert restricted.N0 == plain.N0
    assert restricted.component == (0, 1)


def test_homoclinic_restriction_block_diagonal():
    block = TransitionMatrix([[1, 1, 0, 0], [1, 1, 0, 0],
                              [0, 0, 1, 1], [0, 0, 1, 1]])
    p = SymbolicCycle.from_word(block, (2,))
    cert = homoclinic_restricted_certificate(block, p, 0.5, 20)
    assert isinstance(cert, DensePeriodsCertificate)
    assert cert.component == (2, 3)
    for n in (cert.N0, cert.n_max):
        assert set(cert.witnesses[n].states) <= {2, 3}


def test_homoclinic_restriction_golden_mean():
    p = SymbolicCycle.from_word(GOLDEN, (0, 1))
    cert = homoclinic_restricted_certificate(GOLDEN, p, 0.25, 40)
    assert isinstance(cert, DensePeriodsCertificate)


# -- mixing verification --------------------------------------------------------


def brute_all_hits_from(matrix, u, v, horizon):
    """Smallest N with sigma^n([u]) meeting [v] for every n in [N, horizon],
    by plain matrix powers."""
    a = np.array(matrix.rows, dtype=np.int64)
    hits = {}
    for n in range(len(u), horizon + 1):
        steps = n - len(u) + 1
        hits[n] = bool(np.linalg.matrix_power(a, steps)[u[-1], v[0]] > 0)
    best = None
    for n in range(horizon, len(u) - 1, -1):
        if hits[n]:
            best = n
        else:
            break
    return best


def test_mixing_full_shift_pair():
    cert = dense_periods_certificate(FULL2, 0.5, 20)
    report = verify_mixing_from_certificate(FULL2, cert, [((0,), (1,))])[0]
    assert report.verified_all and not report.misses
    # ground truth: the full shift hits from n = 1 on
    assert brute_all_hits_from(FULL2, (0,), (1,), 20) == 1
    assert report.threshold >= 1


def test_mixing_wheel_thresholds_within_five():
    cert = dense_periods_certificate(WHEEL, 0.5, 40)
    pairs = [((a,), (b,)) for a in range(3) for b in range(3)]
    reports = verify_mixing_from_certificate(WHEEL, cert, pairs)
    for rep in reports:
        assert rep.verified_all and not rep.misses
        truth = brute_all_hits_from(WHEEL, rep.u, rep.v, 40)
        assert truth is not None and truth <= 5
        assert rep.threshold >= truth  # derived threshold never overclaims


def test_mixing_pair_too_fine_raises():
    cert = dense_periods_certificate(FULL2, 0.5, 20)  # m = 1
    with pytest.raises(CertificateTooCoarseError):
        verify_mixing_from_certificate(FULL2, cert, [((0, 1), (1,))])


def test_mixing_never_misses_above_threshold_random():
    rng = random.Random(7)
    for _ in range(10):
        matrix = random_essential(rng, rng.choice([2, 3, 4]), 0.55)
        if not is_primitive(matrix):
            continue
        cert = dense_periods_certificate(matrix, 0.5, 50)
        u = (rng.randrange(matrix.size),)
        v = (rng.randrange(matrix.size),)
        rep = verify_mixing_from_certificate(matrix, cert, [(u, v)])[0]
        assert rep.verified_all, f"miss above threshold for {matrix} {u} {v}"


# -- density helper -------------------------------------------------------------


def test_is_dense_cycle_agrees_with_scanner():
    for word in [(0, 1), (0, 0, 1), (0, 1, 1), (0,)]:
        for m in (1, 2):
            assert is_dense_cycle(FULL2, word, m) == \
                scanner_contains_all_words(FULL2, word, m)


def per_n_hits(matrix, u, v, n):
    """sigma^n([u]) meets [v], by a fresh walk for this n alone."""
    if n < len(u):
        agree = all(u[i] == v[i - n] for i in range(n, min(len(u), n + len(v))))
        return agree and matrix.is_admissible_word(tuple(u) + tuple(v[len(u) - n:]))
    reach = {u[-1]}
    for _ in range(n - len(u) + 1):
        reach = {t for s in reach for t in matrix.succ[s]}
    return v[0] in reach


def dfs_ball_word(matrix, v, u, n1):
    """Least admissible word with v at 0 and u at n1, by recursive search
    over the gap fills in lexicographic order."""
    if n1 <= len(v):
        return tuple(v) + tuple(u[len(v) - n1:])
    gap = n1 - len(v)

    def rec(word):
        if len(word) == gap:
            return word if matrix.admits(word[-1] if word else v[-1], u[0]) else None
        for t in matrix.succ[word[-1] if word else v[-1]]:
            found = rec(word + [t])
            if found is not None:
                return found
        return None

    return tuple(v) + tuple(rec([])) + tuple(u)


@given(st.integers(2, 6), st.integers(0, 10**9))
def test_mixing_reports_match_per_n_walks_and_dfs_ball(size, seed):
    rng = random.Random(seed)
    matrix = random_essential(rng, size, rng.choice([0.4, 0.55, 0.7]))
    if not is_primitive(matrix):
        return
    try:
        cert = dense_periods_certificate(matrix, 0.25, 120)
    except HorizonTooSmallError:
        return
    words = admissible_words(matrix, 1) + admissible_words(matrix, 2)
    for _ in range(3):
        u, v = rng.choice(words), rng.choice(words)
        for k in range(1, 16):  # every ball, not only the one at the first hit
            if per_n_hits(matrix, v, u, k):
                assert _ball_word(matrix, v, u, k) == dfs_ball_word(matrix, v, u, k)
        try:
            rep = verify_mixing_from_certificate(matrix, cert, [(u, v)])[0]
        except ValueError as exc:  # the internal fine certificate does not fit n_max
            assert isinstance(exc, (HorizonTooSmallError, BlockGraphTooLargeError)) \
                or "fine certificate refuted" in str(exc)
            continue
        n1 = next(k for k in range(1, 100) if per_n_hits(matrix, v, u, k))
        assert rep.first_hit == n1
        assert rep.ball_word == dfs_ball_word(matrix, v, u, n1)
        assert rep.misses == tuple(n for n in range(rep.threshold, cert.n_max + 1)
                                   if not per_n_hits(matrix, u, v, n))


def test_mixing_on_reducible_matrix_raises_value_error():
    block = TransitionMatrix([[1, 1, 0, 0], [1, 1, 0, 0],
                              [0, 0, 1, 1], [0, 0, 1, 1]])
    cert = homoclinic_restricted_certificate(block, SymbolicCycle.from_word(block, (0,)),
                                             0.5, 20)
    assert isinstance(cert, DensePeriodsCertificate)
    for pair in (((0,), (1,)), ((0,), (2,))):
        with pytest.raises(ValueError):
            verify_mixing_from_certificate(block, cert, [pair])
