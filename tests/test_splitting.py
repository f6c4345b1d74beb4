"""Dense-period thresholds under conjugacy: a state splitting B of A is a
2-block recoding, so N0_A(m) <= N0_B(m) <= N0_A(m + 1).

An out-splitting's B-word of length m fixes the A-word of its symbols, and
an A-word of length m + 1 fixes the B-word of length m on its first m
symbols, each part named by the next symbol; cyclic words keep their
period.  So a B-witness at m projects to an A-witness, and an A-witness at
m + 1 lifts to a B-witness at m.  An in-splitting is the same statement
for the transposes.  Primitivity is a conjugacy invariant, so A and B are
refuted together."""

import random

import pytest

from symshadow.dense_periods import (BlockGraphTooLargeError, DensePeriodsRefutation,
                                     dense_periods_certificate)
from symshadow.sft import TransitionMatrix
from test_dense_periods import random_essential


def out_split(matrix, parts):
    """The out-splitting of A by ``parts``: parts[s] partitions the
    successors of s into nonempty sets, and the state (s, i) of the split
    matrix steps to every state (t, j) with t in parts[s][i]."""
    states = [(s, i) for s in range(matrix.size) for i in range(len(parts[s]))]
    return TransitionMatrix([[int(t in parts[s][i]) for t, _ in states] for s, i in states])


def transpose(matrix):
    return TransitionMatrix([list(column) for column in zip(*matrix.rows)])


def in_split(matrix, parts):
    """The in-splitting of A by ``parts``, each a partition of the
    predecessors of s: the out-splitting of the transpose, transposed back."""
    return transpose(out_split(transpose(matrix), parts))


def random_parts(rng, neighbours):
    """A random partition of each state's neighbour list into nonempty parts."""
    parts = []
    for out in neighbours:
        labels = [rng.randrange(len(out)) for _ in out]
        parts.append([{t for t, k in zip(out, labels) if k == label}
                      for label in sorted(set(labels))])
    return parts


def n0(matrix, m):
    """N0 at epsilon = 2^-m, or None for a refutation."""
    result = dense_periods_certificate(matrix, 2.0 ** -m)
    return None if isinstance(result, DensePeriodsRefutation) else result.N0


def test_splittings_of_the_golden_mean():
    # state 0 split by its successors {0} and {1}, or by its predecessors:
    # both bracket tightly at the top, N0_B(m) = N0_A(m + 1)
    golden, parts = TransitionMatrix.golden_mean(), [[{0}, {1}], [{0}]]
    assert out_split(golden, parts).rows == ((1, 1, 0), (0, 0, 1), (1, 1, 0))
    assert in_split(golden, parts).rows == ((1, 0, 1), (1, 0, 1), (0, 1, 0))
    assert [n0(golden, m) for m in (1, 2, 3, 4)] == [2, 3, 6, 10]
    for split in (out_split, in_split):
        assert [n0(split(golden, parts), m) for m in (1, 2, 3)] == [3, 6, 10]


@pytest.mark.parametrize("split, neighbours", [(out_split, "succ"), (in_split, "pred")])
def test_splitting_brackets_n0_or_keeps_the_refutation(split, neighbours):
    rng = random.Random(21)
    checked = skipped = 0
    for _ in range(200):
        matrix = random_essential(rng, rng.randrange(2, 6), 0.5)
        parts = random_parts(rng, getattr(matrix, neighbours))
        b = split(matrix, parts)
        for m in (1, 2, 3):
            try:
                a, a_finer, b_n0 = n0(matrix, m), n0(matrix, m + 1), n0(b, m)
            except BlockGraphTooLargeError:
                skipped += 1
                continue
            checked += 1
            if a is None:
                assert (a_finer, b_n0) == (None, None), (matrix.rows, parts)
            else:
                assert a <= b_n0 <= a_finer, (matrix.rows, parts, m)
    assert checked >= 3 * skipped
