"""Dense-period certificates, refutations, and mixing thresholds."""

import hashlib
import heapq
import json
import math
import random
from collections import Counter, deque
from itertools import islice, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from symshadow import dense_periods
from symshadow.dense_periods import (MAX_BLOCK_NODES, BlockGraphTooLargeError,
                                     DensePeriodsCertificate,
                                     DensePeriodsRefutation,
                                     dense_periods_certificate,
                                     homoclinic_restricted_certificate,
                                     mixing_thresholds, WitnessMap,
                                     _BlockGraph, _ball_word, _euler_circuit, _girth,
                                     _labels, _least_costs, _least_flows, _odd_simple_cycle,
                                     _postman_flow, _residue_flows)
from symshadow.sft import (NonEssentialMatrixError, SymbolicCycle,
                           TransitionMatrix, admissible_words, count_periodic_points,
                           enumerate_cycles, is_irreducible, is_primitive, _bfs_distances)
from symshadow.shiftspace import word_radius

DATA = Path(__file__).resolve().parent.parent / "data"
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


def is_dense_cycle(matrix, word, m):
    """Does the cyclic word contain every admissible m-word as a factor?"""
    tiled = tuple(word) * (m // len(word) + 2)
    return set(admissible_words(matrix, m)) <= {tiled[i:i + m] for i in range(len(word))}


def nonprimitive_periods(cert):
    """Witnessed periods whose cycle is a repetition of a shorter one
    (still a fixed point of sigma^n, flagged rather than rejected)."""
    return frozenset(n for n, w in cert.witnesses.items() if w.primitive_period != n)


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
    flagged = nonprimitive_periods(cert)
    for n in cert.witnesses:
        if n not in flagged:
            assert cert.witnesses[n].primitive_period == n


def test_witnesses_outside_the_window_raise_key_error():
    cert = dense_periods_certificate(GOLDEN, 0.25, 30)
    assert (cert.N0, len(cert.witnesses)) == (3, 28)
    for n in (cert.N0 - 1, cert.n_max + 1):
        assert n not in cert.witnesses
        with pytest.raises(KeyError):
            cert.witnesses[n]


def test_an_n0_past_n_max_is_exact_and_lists_no_witness():
    # primitive 4-state wheel with a loop: its least covering 2-word cycle,
    # 00123, is longer than n_max, which bounds only the listing
    wheel4 = TransitionMatrix([[1, 1, 0, 0], [0, 0, 1, 0],
                               [0, 0, 0, 1], [1, 0, 0, 0]])
    assert is_primitive(wheel4)
    for n_max in (3, None):
        cert = dense_periods_certificate(wheel4, 0.25, n_max)
        assert (cert.N0, cert.n_max, dict(cert.witnesses)) == (5, n_max, {})
        assert cert.proof == {"girth": 1, "girth_cycle": "0", "classes": {"0": "00123"}}
    assert dense_periods_certificate(wheel4, 0.25, 5).witnesses[5].states == (0, 0, 1, 2, 3)


def test_primitive_matrix_with_a_cover_of_exactly_n_max_is_never_refuted():
    # every period from N0 = 77 on is dense: at n_max = 77 only n = 77 is in
    # the window, which is still a certificate, never a refutation, and at
    # n_max = 76 the window is empty, with the same N0
    matrix = TransitionMatrix([[1, 1, 0, 1, 1], [0, 1, 1, 1, 1], [1, 0, 1, 0, 1],
                               [1, 1, 1, 0, 1], [0, 1, 0, 1, 1]])
    assert is_primitive(matrix)
    past = dense_periods_certificate(matrix, 1 / 8, 76)
    assert (past.N0, len(past.witnesses)) == (77, 0)
    cert = dense_periods_certificate(matrix, 1 / 8, 77)
    assert isinstance(cert, DensePeriodsCertificate) and cert.N0 == 77
    assert list(cert.witnesses) == [77]
    # the pair (20, 2) has a ball word of length 3, whose certificate has that
    # N0 = 77: the threshold bounds the exact mixing time 3
    [report] = mixing_thresholds(matrix, [((2, 0), (2,))])
    assert (report.threshold, report.mixing_time) == (77, 3)
    assert per_n_mixing_time(matrix, (2, 0), (2,)) == 3


def test_mixing_golden_mean_pair_threshold_and_mixing_time():
    # the golden mean pair (01, 10) first hits at 1 through the ball 101, whose
    # certificate at m = 3 has N0 = 6
    [report] = mixing_thresholds(GOLDEN, [((0, 1), (1, 0))])
    assert (report.first_hit, report.ball_word, report.threshold) == (1, (1, 0, 1), 6)
    assert report.mixing_time == 3
    assert per_n_mixing_time(GOLDEN, (0, 1), (1, 0)) == 3


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
    # sha256 of to_json_dict() over seeded random matrices, the proof blocks
    # apart: pins N0 and every witness word, and the proofs' words, so an
    # engine change that moves any must re-pin on purpose
    rng = random.Random(20140)
    digest, proofs = hashlib.sha256(), hashlib.sha256()
    for _ in range(100):
        matrix = random_essential(rng, rng.randint(2, 6), rng.choice([0.35, 0.5, 0.65]))
        for epsilon in (0.5, 0.25):
            result = dense_periods_certificate(matrix, epsilon, 60).to_json_dict()
            proofs.update(json.dumps(result.pop("proof", None), sort_keys=True).encode())
            digest.update(json.dumps(result, sort_keys=True).encode())
    assert digest.hexdigest() == \
        "d43ec7ba23f776a20eefeac243a5191abd4ec7d1fd39c6bcd51c58a9f54db268"
    assert proofs.hexdigest() == \
        "a0a9c2af3e151d354ac1c9af1527fd155f881001d7489370b43590f6d45c5e7e"


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
    # the words are counted up to the first length past the bound: at m = 997
    # the 64-symbol full shift is refused at its 2-words, in a short message
    with pytest.raises(BlockGraphTooLargeError, match="at least 4096 block nodes") as refused:
        dense_periods_certificate(TransitionMatrix.full_shift(64), 1e-300)
    assert len(str(refused.value)) < 200


def tuple_dict_block_graph(matrix, m):
    """Oracle: the block graph's nodes, successor and predecessor lists by
    a dict from each (m-1)-word to its node, one lookup per edge."""
    nodes = admissible_words(matrix, max(m - 1, 1))
    index = {v: i for i, v in enumerate(nodes)}
    succ = [[index[v[1:] + (t,)] for t in matrix.succ[v[-1]]] for v in nodes]
    pred = [[index[(s,) + v[:-1]] for s in matrix.pred[v[0]]] for v in nodes]
    return nodes, succ, pred


def test_block_graph_matches_the_tuple_dict_construction():
    rng = random.Random(2048)
    checked = 0
    for _ in range(60):
        matrix = random_essential(rng, rng.randint(2, 6), rng.choice([0.3, 0.5, 0.7]))
        for m in (1, 2, 3, 4, 5, 6):
            try:
                graph = _BlockGraph(matrix, m)
            except BlockGraphTooLargeError:
                continue
            nodes, succ, pred = tuple_dict_block_graph(matrix, m)
            assert graph.nodes == nodes
            assert [list(out) for out in graph.succ] == succ
            assert [list(into) for into in graph.pred] == pred
            checked += m >= 3
    assert checked > 150


def test_search_size_guards():
    # m = 1 visits every symbol: 2^11 visited sets fit, 2^12 do not
    for size, fits in ((11, True), (12, False)):
        cycle = TransitionMatrix([[int(j in (i, (i + 1) % size)) for j in range(size)]
                                  for i in range(size)])
        if fits:
            assert dense_periods_certificate(cycle, 0.5, 100).N0 == size
        else:
            with pytest.raises(BlockGraphTooLargeError, match="2\\^12 visited"):
                dense_periods_certificate(cycle, 0.5, 100)
    # at m = 3 the star's five 2-words x0 each lack 4 in-edges, a table of
    # 2 * 5^5 states, but its class period is 2, so no search runs and 2 is
    # excluded
    star = TransitionMatrix([[0] + [1] * 5] + [[1, 0, 0, 0, 0, 0]] * 5)
    for epsilon in (0.25, 0.125):
        result = dense_periods_certificate(star, epsilon, 100)
        assert isinstance(result, DensePeriodsRefutation) and result.blocking_n == 2
    # hub 0 fans out to 1..5, which meet at 6, back to 0: class period 3,
    # refuted with no search at every m
    fan = TransitionMatrix([[0, 1, 1, 1, 1, 1, 0]] + [[0] * 6 + [1]] * 5 + [[1] + [0] * 6])
    for epsilon in (0.125, 1 / 16):
        assert dense_periods_certificate(fan, epsilon, 100).blocking_n == 2
    # girth 3: the residue search table is the girth times the product of
    # (deficit + 1) over the deficit nodes; the fan with a return path
    # 6 -> 7 -> 0 has cycles of lengths 3 and 4, so it is primitive
    rows = [list(r) + [0] for r in fan.rows] + [[1] + [0] * 7]
    rows[6][7] = 1
    fan_back = TransitionMatrix(rows)
    assert is_primitive(fan_back)
    for epsilon, N0 in ((0.25, 16), (0.125, 41)):
        assert dense_periods_certificate(fan_back, epsilon, 100).N0 == N0
    # at m = 4 the five 3-words x60 each lack 4 in-edges: 3 * 5^5 states
    with pytest.raises(BlockGraphTooLargeError, match="residue search over 5 deficit"):
        dense_periods_certificate(fan_back, 1 / 16, 100)


def test_epsilon_one_is_rejected():
    # at epsilon = 1 (m = 0) every cycle is dense, so there is nothing to certify
    for rows in ([[1, 1], [0, 1]], [[1, 1, 0], [1, 1, 0], [0, 0, 1]]):
        for epsilon in (1.0, 1.5):
            with pytest.raises(ValueError, match="epsilon must lie in"):
                dense_periods_certificate(TransitionMatrix(rows), epsilon, 30)


# -- exactness against an independent walk search --------------------------------


def brute_words(rows, length):
    return [w for w in product(range(len(rows)), repeat=length)
            if all(rows[a][b] for a, b in zip(w, w[1:]))]


def dense_lengths(rows, m, top):
    """Oracle: the n in [1, top] with an admissible cyclic n-word containing
    every m-word, by a search over closed walks from the least node of the
    graph of (m-1)-words (symbols at m = 1).  The state after each step is
    the last node and the set of m-words (symbols at m = 1) covered; the
    states are memoized per step, so memory stays at one step's states,
    and a state with more uncovered m-words than steps left is dropped."""
    k = max(m - 1, 1)
    targets = {w: i for i, w in enumerate(brute_words(rows, m))}
    full = (1 << len(targets)) - 1
    start = brute_words(rows, k)[0]
    states, lengths = {(start, 0)}, set()
    for n in range(1, top + 1):
        states = {((node + (t,))[-k:], covered | 1 << targets[(node + (t,))[-m:]])
                  for node, covered in states for t in range(len(rows)) if rows[node[-1]][t]}
        states = {(node, covered) for node, covered in states
                  if len(targets) - bin(covered).count("1") <= top - n}
        if (start, full) in states:
            lengths.add(n)
    return lengths


def girth(rows):
    a = np.array(rows, dtype=np.int64)
    return next(k for k in range(1, len(rows) + 1)
                if np.trace(np.linalg.matrix_power(a, k)) > 0)


STRUCTURAL = "block graph not strongly connected: no closed walk covers every m-word"


def check_against_walk_search(rows, m):
    """Every N0 and blocking_n is exact: N0 - 1 is excluded, N0 ... N0 + c
    are dense (c the girth: the dense lengths are closed under adding it);
    a refutation excludes blocking_n and no 2 <= n < blocking_n.  Returns
    False for a block graph over 16 edges, whose search is too large."""
    if m >= 2 and len(brute_words(rows, m)) > 16:
        return False
    matrix = TransitionMatrix(rows)
    result = dense_periods_certificate(matrix, 2.0 ** -m, 400)
    if isinstance(result, DensePeriodsCertificate):
        c = girth(rows)
        dense = dense_lengths(rows, m, result.N0 + c)
        assert result.N0 == 2 or result.N0 - 1 not in dense
        assert set(range(result.N0, result.N0 + c + 1)) <= dense
        for n in range(result.N0, min(result.N0 + c, 400) + 1):
            witness = result.witnesses[n]
            assert len(witness.states) == n and matrix.is_admissible_cycle(witness.states)
            assert scanner_contains_all_words(matrix, witness.states, m)
        assert is_primitive(matrix)
    else:
        assert result.exhaustive is True and not is_primitive(matrix)
        dense = dense_lengths(rows, m, result.blocking_n)
        assert result.blocking_n not in dense
        assert set(range(2, result.blocking_n)) <= dense
        assert (result.reason == STRUCTURAL) == (not is_irreducible(matrix))
    return True


def test_verdicts_match_walk_search_on_all_small_matrices():
    checked = 0
    for size in (1, 2, 3):
        for bits in product((0, 1), repeat=size * size):
            rows = [bits[i * size:(i + 1) * size] for i in range(size)]
            try:
                TransitionMatrix(rows)
            except NonEssentialMatrixError:
                continue
            checked += sum(check_against_walk_search(rows, m) for m in (1, 2, 3))
    assert checked == 791  # of 3 * 273 (matrix, m) pairs; 28 have over 16 edges


@given(st.integers(4, 5), st.sampled_from([0.3, 0.4, 0.55]), st.integers(0, 10**9))
def test_verdicts_match_walk_search_on_random_matrices(size, density, seed):
    matrix = random_essential(random.Random(seed), size, density)
    for m in (1, 2, 3):
        check_against_walk_search([list(r) for r in matrix.rows], m)


def postman_length(rows, m):
    """Oracle for a loop: E plus the least total of shortest-path lengths
    over the pairings of surplus units (in-degree above out-degree) with
    deficit units of the graph of (m-1)-words, by a DP over the sets of
    deficit units taken; None past 14 units."""
    edges = brute_words(rows, m)
    out, balance = {}, {}
    for w in edges:
        out.setdefault(w[:-1], []).append(w[1:])
        balance[w[1:]] = balance.get(w[1:], 0) + 1
        balance[w[:-1]] = balance.get(w[:-1], 0) - 1
    units = [v for v, b in sorted(balance.items()) for _ in range(b)]
    sinks = [v for v, b in sorted(balance.items()) for _ in range(-b)]
    if len(units) > 14:
        return None
    dist = {}
    for s in set(units):
        dist[s], queue = {s: 0}, deque([s])
        while queue:
            u = queue.popleft()
            for v in out[u]:
                if v not in dist[s]:
                    dist[s][v] = dist[s][u] + 1
                    queue.append(v)
    least = [0] + [math.inf] * ((1 << len(sinks)) - 1)
    for taken in sorted(range(1 << len(sinks)), key=lambda b: bin(b).count("1"))[:-1]:
        s = units[bin(taken).count("1")]  # the units go out in a fixed order
        for j, t in enumerate(sinks):
            if not taken >> j & 1:
                more = taken | 1 << j
                least[more] = min(least[more], least[taken] + dist[s][t])
    return len(edges) + least[-1]


def test_postman_length_matches_assignment_oracle():
    rng = random.Random(1973)
    cases = [(GOLDEN, m) for m in range(2, 10)]
    while len(cases) < 120:
        matrix = random_essential(rng, rng.randint(2, 5), rng.choice([0.4, 0.55, 0.7]))
        if is_primitive(matrix) and any(matrix.rows[i][i] for i in range(matrix.size)):
            cases += [(matrix, m) for m in (2, 3, 4, 5)]
    checked = 0
    for matrix, m in cases:
        try:
            cert = dense_periods_certificate(matrix, 2.0 ** -m, 10**6)
        except BlockGraphTooLargeError:
            continue
        length = postman_length([list(r) for r in matrix.rows], m)
        if length is not None:
            assert cert.N0 == max(2, length)
            checked += 1
    assert checked > 90


def least_costs_postman_flow(graph, excess):
    """Oracle: the successive-shortest-path flow of ``_postman_flow`` on the
    generic Dijkstra ``_least_costs``, whose moves are rebuilt per node, and
    its potentials on the block nodes."""
    top = len(graph.succ)
    excess, pot, x = list(excess), [0] * (top + 1), Counter()

    def moves(u):
        if u == top:
            return [(pot[top] - pot[s], s, s) for s, e in enumerate(excess) if e > 0]
        return ([(1 + pot[u] - pot[v], v, ((u, v), 1)) for v in graph.succ[u]]
                + [(pot[u] - pot[w] - 1, w, ((w, u), -1)) for w in graph.pred[u] if x[w, u]])

    while any(e > 0 for e in excess):
        best = _least_costs(top, moves)
        pot = [p + best[v][0] for v, p in enumerate(pot)]
        for t in [v for v, e in enumerate(excess) if e < 0]:
            *arcs, s = _labels(best, t)
            amount = min([excess[s], -excess[t]] + [x[e] for e, sign in arcs if sign < 0])
            for e, sign in arcs:
                x[e] += sign * amount
            excess[s] -= amount
            excess[t] += amount
    return x, pot[:top]


def counter_postman_flow(graph, excess):
    """Oracle: ``_postman_flow`` as a Counter of edges and potentials,
    written plainly: per round the sources and deficits are listed again,
    each node scans its whole into-dict, and a saturated backward edge stays
    at zero."""
    size = len(graph.succ)
    excess, pot = list(excess), [0] * size
    into = [{} for _ in range(size)]  # into[v][u] = x(u, v)
    while any(e > 0 for e in excess):
        dist = [-p if e > 0 else math.inf for p, e in zip(pot, excess)]
        heap = [(d, s) for s, d in enumerate(dist) if d < math.inf]
        prev, forward = [-1] * size, [True] * size
        heapq.heapify(heap)
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v in graph.succ[u]:
                if d + 1 + pot[u] - pot[v] < dist[v]:
                    dist[v], prev[v], forward[v] = d + 1 + pot[u] - pot[v], u, True
                    heapq.heappush(heap, (dist[v], v))
            for w in sorted(into[u]):
                if into[u][w] and d + pot[u] - pot[w] - 1 < dist[w]:
                    dist[w], prev[w], forward[w] = d + pot[u] - pot[w] - 1, u, False
                    heapq.heappush(heap, (dist[w], w))
        pot = [p + d for p, d in zip(pot, dist)]
        for t in [v for v, e in enumerate(excess) if e < 0]:
            path, s = [], t
            while prev[s] >= 0:
                path.append((prev[s], s))
                s = prev[s]
            amount = min([excess[s], -excess[t]] + [into[u][v] for u, v in path if not forward[v]])
            for u, v in path:
                if forward[v]:
                    into[v][u] = into[v].get(u, 0) + amount
                else:
                    into[u][v] -= amount
            excess[s] -= amount
            excess[t] += amount
    return Counter({(u, v): k for v, flow in enumerate(into) for u, k in flow.items() if k}), pot


def edge_flow(into):
    """The flow into[v][u] = x(u, v) of ``_postman_flow`` as {(u, v): x} > 0."""
    return {(u, v): k for v, flow in enumerate(into) for u, k in flow.items() if k}


def assert_reduced_costs_nonnegative(graph, into, pot):
    """Every residual edge of the flow, forward u -> v at cost 1 and
    backward v -> u at cost -1 where x(u, v) > 0, costs >= 0 reduced."""
    for u, out in enumerate(graph.succ):
        for v in out:
            assert 1 + pot[u] - pot[v] >= 0
            if into[v].get(u):
                assert -1 + pot[v] - pot[u] >= 0


def verdict_and_ends(matrix, epsilon, stretch):
    """The certificate's N0, its proof and its witness at N0 + stretch, or
    the refutation's report."""
    result = dense_periods_certificate(matrix, epsilon)
    if isinstance(result, DensePeriodsRefutation):
        return result.to_json_dict()
    return result.N0, result.proof, result.witnesses.build(result.N0 + stretch).states


@given(st.integers(2, 6), st.integers(0, 10**9))
def test_postman_flow_matches_the_least_costs_oracle(size, seed):
    rng = random.Random(seed)
    matrix = random_essential(rng, size, rng.choice([0.3, 0.45, 0.6]))
    for m in (2, 3):
        try:
            graph = _BlockGraph(matrix, m)
        except BlockGraphTooLargeError:
            continue
        excess = [len(into) - len(out) for into, out in zip(graph.pred, graph.succ)]
        if all(len(_least_costs(0, lambda u: ((1, v, None) for v in out[u])))
               == len(out) for out in (graph.succ, graph.pred)):  # strongly connected
            oracle, _ = least_costs_postman_flow(graph, excess)
            into, pot = _postman_flow(graph, excess)
            assert edge_flow(into) == {e: k for e, k in oracle.items() if k}
            assert_reduced_costs_nonnegative(graph, into, pot)
        try:
            fast = verdict_and_ends(matrix, 2.0 ** -m, 150)
        except BlockGraphTooLargeError as exc:
            fast = type(exc)

        def slow_flow(graph, excess):
            into = [{} for _ in graph.succ]
            x, pot = least_costs_postman_flow(graph, excess)
            for (u, v), k in x.items():
                if k:
                    into[v][u] = k
            return into, pot

        with mock.patch("symshadow.dense_periods._postman_flow", slow_flow):
            try:
                slow = verdict_and_ends(matrix, 2.0 ** -m, 150)
            except BlockGraphTooLargeError as exc:
                slow = type(exc)
        assert fast == slow


@given(st.integers(2, 7), st.integers(0, 10**9))
def test_postman_flow_matches_the_counter_kernel(size, seed):
    """The kernel lists its sources and deficits once, scans backward edges
    unsorted and deletes saturated ones: the same flow, edge for edge, as
    the plain kernel, with no zero entries."""
    rng = random.Random(seed)
    matrix = random_essential(rng, size, rng.choice([0.3, 0.45, 0.6, 0.8]))
    for m in (2, 3, 4):
        try:
            graph = _BlockGraph(matrix, m)
        except BlockGraphTooLargeError:
            continue
        if min(_bfs_distances(graph.succ, [0]) + _bfs_distances(graph.pred, [0])) < 0:
            continue
        excess = [len(into) - len(out) for into, out in zip(graph.pred, graph.succ)]
        into, pot = _postman_flow(graph, excess)
        assert all(k > 0 for flow in into for k in flow.values())
        assert (edge_flow(into), pot) == counter_postman_flow(graph, excess)


def test_loop_free_certificate_walks_edges_only_when_a_witness_is_read():
    # girth 2 (cycles 01 and 012), girth 3 (cycles 012 and 0123), girth 1,
    # and the full 2-shift at m = 12, whose 2,048 block words a verdict
    # listed; the block words, like the walks and the Euler circuits, are
    # read only by a witness or the proof
    for rows, epsilon, n_max in (([[0, 1, 0], [1, 0, 1], [1, 0, 0]], 0.25, 40),
                                 ([[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1], [1, 0, 0, 0]],
                                  0.25, 40),
                                 ([[1, 1, 0], [0, 0, 1], [1, 1, 0]], 0.125, 40),
                                 (FULL2.rows, 2.0 ** -12, 4096)):
        matrix = TransitionMatrix(rows)
        for read in ("witnesses", "proof"):
            with mock.patch.object(_BlockGraph, "walk_edges", autospec=True,
                                   side_effect=_BlockGraph.walk_edges) as walk_edges, \
                    mock.patch("symshadow.dense_periods._least_walk",
                               side_effect=dense_periods._least_walk) as least_walk, \
                    mock.patch("symshadow.dense_periods.admissible_words",
                               side_effect=admissible_words) as words, \
                    mock.patch("symshadow.dense_periods._euler_circuit",
                               side_effect=_euler_circuit) as circuits:
                cert = dense_periods_certificate(matrix, epsilon, n_max)
                assert isinstance(cert, DensePeriodsCertificate)
                calls = (walk_edges, least_walk, words, circuits)
                assert [f.call_count for f in calls] == [0, 0, 0, 0]
                if read == "witnesses":
                    n, witness = cert.N0, cert.witnesses[cert.N0].states
                else:  # the least witness of the class of N0
                    n = cert.least[cert.N0 % cert.girth]
                    witness = tuple(map(int, cert.proof["classes"][str(n % cert.girth)]))
                assert all(f.call_count > 0 for f in calls)
            assert len(witness) == n
            assert is_dense_cycle(matrix, witness, cert.word_length)
    # a reducible matrix is refuted on A, with no word listed
    with mock.patch("symshadow.dense_periods.admissible_words",
                    side_effect=admissible_words) as words:
        refutation = dense_periods_certificate(TransitionMatrix([[1, 1], [0, 1]]), 0.25, 40)
    assert isinstance(refutation, DensePeriodsRefutation) and refutation.blocking_n == 2
    assert words.call_count == 0


def residue_search_sizes(graph, c):
    """Oracle: per residue r mod c the least flow size |x| = r (mod c), by
    the search over (unmet deficits, residue)."""
    excess = [len(into) - len(out) for into, out in zip(graph.pred, graph.succ)]
    best, ends = _residue_flows(graph, excess, c)
    return [best[end][0] if end in best else None for end in ends]


def assert_flow_balances(graph, x, size):
    """x >= 0 on block edges, of total size, sends excess[v] = in-degree -
    out-degree more units out of each node v than into it."""
    edges = {(u, v) for u, out in enumerate(graph.succ) for v in out}
    assert set(x) <= edges and all(k >= 0 for k in x.values()) and sum(x.values()) == size
    for v, (into, out) in enumerate(zip(graph.pred, graph.succ)):
        assert sum(x[v, w] for w in out) - sum(x[u, v] for u in into) == len(into) - len(out)


def odd_cycle_dropping_even_loops(walk):
    """Oracle: an odd simple cycle of a closed walk as (edge, +1 or -1), the
    walk split at each repeated node and its loops dropped while even."""
    path, at = [], {}
    for step in walk:
        u = step[0]
        if u in at:
            loop = path[at[u]:]
            if len(loop) % 2:
                path = loop
                break
            del path[at[u]:]
            for tail, _, _ in loop:
                del at[tail]
        at[u] = len(path)
        path.append(step)
    return [(e, sign) for _, e, sign in path]


def test_girth_two_flows_match_the_residue_search():
    # at girth 2 the postman flow plus one least odd residual cycle gives the
    # least flow of each parity; the residue search, with its table cap
    # raised, is the oracle, among them on tables the cap refuses
    rng, cut, walks = random.Random(39), dense_periods._odd_simple_cycle, []
    checked = past_cap = 0

    def spy(walk):
        # the cut is an odd simple cycle of the walk's cost: each step's head
        # is the next step's tail, and no tail repeats
        cycle = cut(walk)
        arcs = [(e[0], e[1]) if sign > 0 else (e[1], e[0]) for e, sign in cycle]
        assert len(cycle) % 2 and len({u for u, _ in arcs}) == len(arcs)
        assert all(v == w for (_, v), (w, _) in zip(arcs, arcs[1:] + arcs[:1]))
        assert sum(sign for _, sign in cycle) == sum(sign for _, _, sign in walk)
        assert cycle == odd_cycle_dropping_even_loops(walk)  # no even loop comes first
        walks.append(walk)
        return cycle

    with mock.patch("symshadow.dense_periods.MAX_BLOCK_NODES", 10_000), \
            mock.patch("symshadow.dense_periods._odd_simple_cycle", spy):
        for _ in range(150):
            matrix = FULL2
            while girth(matrix.rows) != 2 or not is_primitive(matrix):  # loop-free, a 2-cycle
                matrix = random_essential(rng, rng.randint(4, 6), rng.choice([0.3, 0.45, 0.6]))
            for m in (2, 3, 4):
                graph = _BlockGraph(matrix, m)
                table = 2 * math.prod(1 + len(out) - len(into)
                                      for into, out in zip(graph.pred, graph.succ)
                                      if len(into) < len(out))
                if table > 10_000:
                    continue
                past_cap += table > MAX_BLOCK_NODES
                sizes, flow = _least_flows(graph, 2)
                assert sizes == residue_search_sizes(graph, 2)
                for r, size in enumerate(sizes):
                    assert_flow_balances(graph, flow(r), size)
                result = dense_periods_certificate(matrix, 2.0 ** -m, 10**4)
                for n in (result.N0, result.N0 + 1):  # both parities
                    witness = result.witnesses[n].states
                    assert len(witness) == n and matrix.is_admissible_cycle(witness)
                    assert scanner_contains_all_words(matrix, witness, m)
                checked += 1
    assert checked > 300 and past_cap > 5
    # some least odd closed walk revisits a node, so the cut is exercised
    assert any(len({u for u, _, _ in walk}) < len(walk) for walk in walks)


# -- refutations on A, against the search-first flow ------------------------------
#
# The certificate flow that decided every matrix on its block graph, kept as
# an oracle: strong connectivity from the block graph's two BFS, an odd
# residual cycle search that returns None on a bipartite block graph (BFS
# levels alternating parity across every edge), and a refutation from the
# residue classes mod the girth that the flows miss.


def search_first_bipartite(graph, levels):
    return all((levels[u] ^ levels[v]) & 1 for u, out in enumerate(graph.succ) for v in out)


def search_first_odd_residual_cycle(graph, levels, into, pot):
    if search_first_bipartite(graph, levels):
        return None
    succ, size = graph.succ, len(graph.succ)
    best, found = math.inf, None
    for s in range(size):
        dist, prev, heap = {2 * s: 0}, {}, [(0, 2 * s)]
        while heap:
            d, state = heapq.heappop(heap)
            if d >= best - 1:
                break
            if state == 2 * s + 1:
                best, found = d, (prev, state)
                break
            if d > dist[state]:
                continue
            u, flip = state >> 1, (state & 1) ^ 1
            base = d + pot[u]
            for v in succ[u]:
                cost, key = base + 1 - pot[v], 2 * v + flip
                if v >= s and cost < dist.get(key, math.inf):
                    dist[key], prev[key] = cost, (state, 1)
                    heapq.heappush(heap, (cost, key))
            for w in into[u]:  # the residual backward edges u -> w
                cost, key = base - 1 - pot[w], 2 * w + flip
                if w >= s and cost < dist.get(key, math.inf):
                    dist[key], prev[key] = cost, (state, -1)
                    heapq.heappush(heap, (cost, key))
    if found is None:
        return None
    prev, state, walk = *found, []
    while state in prev:
        before, sign = prev[state]
        u, v = before >> 1, state >> 1
        walk.append((u, (u, v) if sign > 0 else (v, u), sign))
        state = before
    return best, walk[::-1]


def search_first_least_flows(graph, levels, c):
    if graph.m == 1:  # least closed walks from node 0 through every node
        size = len(graph.succ)
        if 2 ** size > MAX_BLOCK_NODES:
            raise BlockGraphTooLargeError(
                f"m = 1 needs 2^{size} visited-symbol sets > {MAX_BLOCK_NODES}")
        best = _least_costs((1, 0, 0), lambda state: (
            (1, (state[0] | 1 << v, v, (state[2] + 1) % c), (state[1], v, 1))
            for v in graph.succ[state[1]]))
        ends = [((1 << size) - 1, 0, r) for r in range(c)]
    else:
        excess = [len(into) - len(out) for into, out in zip(graph.pred, graph.succ)]
        if c > 2:
            best, ends = _residue_flows(graph, excess, c)
        else:
            into, pot = _postman_flow(graph, excess)
            total = sum(map(sum, map(dict.values, into)))
            odd = search_first_odd_residual_cycle(graph, levels, into, pot) if c == 2 else None
            sizes = [None] * c
            sizes[total % c] = total
            if odd:
                sizes[(total + 1) % c] = total + odd[0]

            def flow(r):
                x = Counter({(u, v): k for v, xv in enumerate(into) for u, k in xv.items()})
                if r != total % c:
                    for e, sign in _odd_simple_cycle(odd[1]):
                        x[e] += sign
                return x

            return sizes, flow
    return [best[end][0] if end in best else None for end in ends], lambda r: Counter(
        e for s, t, d in _labels(best, ends[r])
        for e in (graph.walk_edges(s, t, d) if t is not None else graph.cycle_edges(s, d)))


def search_first_certificate(matrix, epsilon, n_max):
    """Oracle: the verdict of the search-first flow."""
    graph = _BlockGraph(matrix, word_radius(epsilon))
    levels = _bfs_distances(graph.succ, [0])
    if -1 in levels or -1 in _bfs_distances(graph.pred, [0]):
        return DensePeriodsRefutation(epsilon, 2, True, reason=STRUCTURAL)
    c, s = _girth(matrix)
    E = sum(map(len, graph.succ)) if graph.m > 1 else 0
    sizes, flow = search_first_least_flows(graph, levels, c)
    least = {(E + x) % c: E + x for x in sizes if x is not None}
    if len(least) < c:
        n = next(n for n in range(2, c + 2) if n < least.get(n % c, math.inf))
        return DensePeriodsRefutation(epsilon, n, True, reason=(
            f"dense cycle lengths miss a residue class mod {c}; {n} is the least excluded"))
    N0 = max(2, max(least.values()) - c + 1)
    tours = {}

    def build(n):
        r = n % c
        if r not in tours:
            ones = Counter((u, v) for u, out in enumerate(graph.succ) for v in out if E)
            tours[r] = ones + flow((r - E) % c), graph.cycle_edges(s, c)
        edges, stretch = tours[r]
        edges = edges.copy()
        for e in stretch:
            edges[e] += (n - least[r]) // c
        return SymbolicCycle.from_word(
            matrix, tuple(graph.nodes[v][0] for v in _euler_circuit(edges)))

    return DensePeriodsCertificate(
        epsilon=epsilon, word_length=graph.m, N0=N0, n_max=n_max,
        witnesses=WitnessMap(N0, n_max, build), girth=c, least=least,
        girth_cycle=lambda: tuple(graph.nodes[u][0] for u, _ in graph.cycle_edges(s, c)))


STAR = TransitionMatrix([[0, 1, 1, 1, 1, 1]] + [[1, 0, 0, 0, 0, 0]] * 5)
FAN = TransitionMatrix([[0, 1, 1, 1, 1, 1, 0]] + [[0] * 6 + [1]] * 5 + [[1] + [0] * 6])
TWO_BLOCKS = TransitionMatrix([[1, 1, 0, 0], [1, 1, 1, 0], [0, 0, 1, 1], [0, 0, 1, 1]])


def test_non_primitive_matrices_are_refuted_with_no_search():
    # the star and the fan have class periods 2 and 3, PARITY is the period-2
    # pair whose 2-cycle is dense, and TWO_BLOCKS and the block_reducible
    # draws are reducible: each verdict is read off A, at every scale
    rng = random.Random(49)
    cases = [(STAR, 2), (TWO_BLOCKS, 2), (FAN, 2), (PARITY, 3)]
    cases += [(block_reducible(rng, rng.randint(4, 6)), 2) for _ in range(20)]

    def refuse(*args):
        raise AssertionError("a non-primitive matrix reached a search")

    with mock.patch("symshadow.dense_periods._BlockGraph", side_effect=refuse), \
            mock.patch("symshadow.dense_periods._least_flows", side_effect=refuse):
        for matrix, blocking_n in cases:
            for m in range(1, 21):
                result = dense_periods_certificate(matrix, 2.0 ** -m, 100)
                assert isinstance(result, DensePeriodsRefutation)
                assert (result.blocking_n, result.exhaustive) == (blocking_n, True)
                assert (result.reason == STRUCTURAL) == (not is_irreducible(matrix))
    for matrix, blocking_n in cases:  # blocking_n is the least excluded at m = 2
        assert no_dense_cyclic_word(matrix, 2, [blocking_n])
        assert not any(no_dense_cyclic_word(matrix, 2, [n]) for n in range(2, blocking_n))


def block_cyclic(rng, size, period):
    """Essential, of class period a multiple of ``period`` where irreducible:
    symbol i lies in class i mod period, and every edge steps to the next
    class."""
    while True:
        rows = [[int((j - i) % period == 1 and rng.random() < 0.6) for j in range(size)]
                for i in range(size)]
        if all(map(any, rows)) and all(map(any, zip(*rows))):
            return TransitionMatrix(rows)


@given(st.integers(2, 7), st.integers(1, 4), st.integers(4, 12), st.integers(0, 10**9))
@example(size=7, period=1, fine=7, seed=4)  # N0 = 11993 > n_max: no witness is listed
def test_verdicts_match_the_search_first_flow(size, period, fine, seed):
    # equal verdicts, N0 and blocking_n, proofs, and the witnesses at N0 and
    # N0 + 1 that n_max lists, wherever the oracle answers
    rng = random.Random(seed)
    matrix = (block_cyclic(rng, max(size, period), period) if period > 1
              else random_essential(rng, size, rng.choice([0.3, 0.45, 0.6])))
    for m in (1, 2, 3, fine):
        verdicts = []
        for certify in (dense_periods_certificate, search_first_certificate):
            try:
                result = certify(matrix, 2.0 ** -m, 10**4)
            except BlockGraphTooLargeError as exc:
                result = type(exc)
            if isinstance(result, DensePeriodsCertificate):
                result = (result.N0, result.proof, [w.states for _, w in
                                                    islice(result.witnesses.items(), 2)])
            elif isinstance(result, DensePeriodsRefutation):  # the class text names d, not c
                result = result.to_json_dict(), result.reason == STRUCTURAL
            verdicts.append(result)
        verdict, oracle = verdicts
        if oracle is BlockGraphTooLargeError and verdict is not oracle:
            # the oracle built the block graph first; A's class period answers
            assert not is_primitive(matrix)
            blocking_n = verdict[0]["blocking_n"]
            assert no_dense_cyclic_word(matrix, m, [blocking_n])
            assert not any(no_dense_cyclic_word(matrix, m, [n]) for n in range(2, blocking_n))
        else:
            assert verdict == oracle


def no_dense_cyclic_word(matrix, m, lengths=range(2, 9)):
    for n in lengths:
        for word in admissible_words(matrix, n):
            if matrix.rows[word[-1]][word[0]] and \
                    scanner_contains_all_words(matrix, word, m):
                return False
    return True


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
def test_structural_refutation_on_reducible(size, seed):
    matrix = block_reducible(random.Random(seed), size)
    assert not is_irreducible(matrix)
    for epsilon in (0.5, 0.25, 0.125):
        result = dense_periods_certificate(matrix, epsilon, 40)
        assert (result.blocking_n, result.exhaustive) == (2, True)
        assert result.reason == STRUCTURAL
    assert no_dense_cyclic_word(matrix, 1, range(2, 7))


def test_each_refutation_path_states_its_reason():
    two_loops = TransitionMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    structural = dense_periods_certificate(two_loops, 0.5, 30)
    assert (structural.blocking_n, structural.exhaustive) == (2, True)
    assert structural.reason == STRUCTURAL
    # PARITY's block graph is strongly connected, but every dense cycle has
    # even length; the exclusion holds whatever n_max is
    for n_max in (20, 2):
        residue = dense_periods_certificate(PARITY, 0.5, n_max)
        assert (residue.blocking_n, residue.exhaustive) == (3, True)
        assert residue.reason == "dense cycle lengths miss a residue class mod 2; " \
            "3 is the least excluded"


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


def closure_component(matrix, state):
    """The states that ``state`` reaches and is reached from in >= 1 steps,
    read off the transitive closure A + A^2 + ... + A^n."""
    a = np.array(matrix.rows, dtype=np.int64)
    reach, power = a.copy(), a.copy()
    for _ in range(matrix.size):
        power = (power @ a > 0).astype(np.int64)
        reach |= power
    return tuple(t for t in range(matrix.size) if reach[state, t] and reach[t, state])


def test_restricted_component_matches_the_transitive_closure():
    # reducible matrices included: each admissible cycle's certificate is
    # confined to exactly the closure component of the cycle's states
    rng, proper = random.Random(12), Counter()
    for _ in range(300):
        size = rng.randint(1, 7)
        matrix = random_essential(rng, size, rng.choice([0.2, 0.3, 0.5]))
        for n in range(1, 4):
            for cycle in enumerate_cycles(matrix, n).cycles:
                component = closure_component(matrix, cycle.states[0])
                assert all(closure_component(matrix, s) == component for s in cycle.states)
                cert = homoclinic_restricted_certificate(matrix, cycle, 0.5, 2)
                if isinstance(cert, DensePeriodsCertificate):
                    assert cert.component == component
                else:  # the component's own matrix is refuted too
                    assert isinstance(dense_periods_certificate(
                        TransitionMatrix([[matrix.rows[a][b] for b in component]
                                          for a in component]), 0.5, 2), DensePeriodsRefutation)
                proper[type(cert).__name__] += len(component) < size
    # proper components of reducible matrices, both certified and refuted
    assert min(proper.values()) >= 20, proper


def test_homoclinic_restriction_refuses_an_inadmissible_cycle():
    with pytest.raises(ValueError, match=r"cycle \(1,\) not admissible"):
        homoclinic_restricted_certificate(GOLDEN, SymbolicCycle((1,), 1, 1), 0.25, 20)


def test_homoclinic_restriction_golden_mean():
    p = SymbolicCycle.from_word(GOLDEN, (0, 1))
    cert = homoclinic_restricted_certificate(GOLDEN, p, 0.25, 40)
    assert isinstance(cert, DensePeriodsCertificate)


def assert_restricted_witnesses_are_from_word(matrix, cycle, epsilon, n_max):
    """Every witness of the restricted certificate, read at each n, is the
    cycle ``SymbolicCycle.from_word`` builds on the ambient matrix, inside
    the cycle's component.  Returns whether a certificate was given."""
    cert = homoclinic_restricted_certificate(matrix, cycle, epsilon, n_max)
    if isinstance(cert, DensePeriodsRefutation):
        return False
    for n in range(cert.N0, cert.n_max + 1):
        w = cert.witnesses[n]
        assert w == SymbolicCycle.from_word(matrix, w.states) and w.period == n
        assert set(w.states) <= set(cert.component)
    return True


def test_restricted_witnesses_match_from_word_on_the_golden_mean_file():
    golden = TransitionMatrix.from_dict(json.loads((DATA / "golden_mean.json").read_text()))
    assert assert_restricted_witnesses_are_from_word(
        golden, SymbolicCycle.from_word(golden, (0, 1)), 0.25, 300)


def test_restricted_witnesses_match_from_word_on_reducible_matrices():
    # two irreducible blocks, the first reaching the second, with the
    # symbols shuffled so the component's relabelling is not the identity
    rng, certified = random.Random(11), 0
    for _ in range(40):
        a, b = rng.randint(1, 3), rng.randint(2, 3)
        blocks = []
        for size in (a, b):
            block = random_essential(rng, size, 0.6)
            while not is_irreducible(block):
                block = random_essential(rng, size, 0.6)
            blocks.append(block.rows)
        rows = [list(r) + [rng.randint(0, 1) for _ in range(b)] for r in blocks[0]]
        rows += [[0] * a + list(r) for r in blocks[1]]
        perm = rng.sample(range(a + b), a + b)
        matrix = TransitionMatrix([[rows[perm[i]][perm[j]] for j in range(a + b)]
                                   for i in range(a + b)])
        start = perm.index(a + rng.randrange(b))  # a symbol of the second block
        cycle = next(c for n in range(1, b + 1)
                     for c in enumerate_cycles(matrix, n).cycles if start in c.states)
        certified += assert_restricted_witnesses_are_from_word(
            matrix, cycle, rng.choice([0.5, 0.25]), 40)
    assert certified >= 30


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
    report = mixing_thresholds(FULL2, [((0,), (1,))])[0]
    # ground truth: the full shift hits from n = 1 on
    assert brute_all_hits_from(FULL2, (0,), (1,), 20) == report.mixing_time == 1
    assert per_n_mixing_time(FULL2, (0,), (1,)) == 1
    assert report.threshold >= 1


def test_mixing_wheel_thresholds_within_five():
    pairs = [((a,), (b,)) for a in range(3) for b in range(3)]
    for rep in mixing_thresholds(WHEEL, pairs):
        truth = brute_all_hits_from(WHEEL, rep.u, rep.v, 40)
        assert truth is not None and truth <= 5
        assert rep.mixing_time == per_n_mixing_time(WHEEL, rep.u, rep.v) <= truth
        assert rep.threshold >= truth  # derived threshold never overclaims


def test_mixing_never_misses_above_threshold_random():
    rng = random.Random(7)
    for _ in range(10):
        matrix = random_essential(rng, rng.choice([2, 3, 4]), 0.55)
        if not is_primitive(matrix):
            continue
        u = (rng.randrange(matrix.size),)
        v = (rng.randrange(matrix.size),)
        rep = mixing_thresholds(matrix, [(u, v)])[0]
        assert rep.mixing_time == per_n_mixing_time(matrix, u, v)
        assert rep.threshold >= rep.mixing_time, f"miss above threshold for {matrix} {u} {v}"


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


def per_n_mixing_time(matrix, u, v):
    """Least N with sigma^n([u]) meeting [v] for every n in [N, 4H], by a
    fresh walk per n, scanned down from 4H: four times the horizon H =
    size^2 + |u| + |v| + 1 past which a primitive matrix hits every n."""
    n = 4 * (matrix.size ** 2 + len(u) + len(v) + 1)
    while n >= 0 and per_n_hits(matrix, u, v, n):
        n -= 1
    return n + 1


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
    words = admissible_words(matrix, 1) + admissible_words(matrix, 2)
    for _ in range(3):
        u, v = rng.choice(words), rng.choice(words)
        for k in range(1, 16):  # every ball, not only the one at the first hit
            if per_n_hits(matrix, v, u, k):
                assert _ball_word(matrix, v, u, k) == dfs_ball_word(matrix, v, u, k)
        try:
            rep = mixing_thresholds(matrix, [(u, v)])[0]
        except BlockGraphTooLargeError:  # the ball word's certificate needs too large a search
            continue
        n1 = next(k for k in range(1, 100) if per_n_hits(matrix, v, u, k))
        assert rep.first_hit == n1
        assert rep.ball_word == dfs_ball_word(matrix, v, u, n1)
        assert rep.mixing_time == per_n_mixing_time(matrix, u, v)
        assert rep.threshold >= rep.mixing_time


def test_mixing_on_reducible_matrix_raises_value_error():
    block = TransitionMatrix([[1, 1, 0, 0], [1, 1, 0, 0],
                              [0, 0, 1, 1], [0, 0, 1, 1]])
    for pair in (((0,), (1,)), ((0,), (2,))):
        with pytest.raises(ValueError):
            mixing_thresholds(block, [pair])


def test_mixing_from_a_certificate_refuses_a_period_two_matrix():
    # PARITY returns 0 to 0 at n1 = 2 through the ball 010, whose
    # certificate at m = 3 is refuted: PARITY is not mixing
    with pytest.raises(ValueError, match="internal fine certificate refuted"):
        mixing_thresholds(PARITY, [((0,), (0,))])
