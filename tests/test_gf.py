import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snicode import gf

from _gf_reference import in_row_span, rank, rref

PRIMES = [2, 3, 5]


def random_matrix(rng, rows, cols, p):
    return rng.integers(0, p, size=(rows, cols), dtype=np.int64)


# ------------------------------------------- reference rref / rank / span


def test_rref_known_example():
    a = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    r, pivots = rref(a, 2)
    # over GF(2) the third row is the sum of the first two
    assert pivots == [0, 1]
    assert np.array_equal(r[:2], [[1, 0, 1], [0, 1, 1]])
    assert not r[2:].any()


def test_rref_identity_is_fixed_point():
    eye = np.eye(5, dtype=np.int64)
    r, pivots = rref(eye, 3)
    assert np.array_equal(r, eye)
    assert pivots == [0, 1, 2, 3, 4]


def test_rref_rejects_1d_input():
    with pytest.raises(ValueError):
        rref(np.array([1, 0, 1]), 2)


def test_rank_examples():
    assert rank(np.zeros((3, 4), dtype=np.int64), 2) == 0
    assert rank(np.eye(4, dtype=np.int64), 5) == 4
    # rank depends on the field: 2*I == 0 mod 2 but not mod 3
    two = 2 * np.eye(3, dtype=np.int64)
    assert rank(two, 2) == 0
    assert rank(two, 3) == 3


@settings(deadline=None, max_examples=60)
@given(
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    p=st.sampled_from(PRIMES),
    seed=st.integers(0, 2**32 - 1),
)
def test_rref_preserves_row_space(rows, cols, p, seed):
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, rows, cols, p)
    r, pivots = rref(a, p)
    assert len(pivots) == rank(a, p)
    for row in a:
        assert in_row_span(r, row, p)
    for row in r[: len(pivots)]:
        assert in_row_span(a, row, p)
    # pivot columns of the reduced form are unit vectors
    for i, c in enumerate(pivots):
        col = r[:, c]
        assert col[i] == 1 and col.sum() == 1


def test_in_row_span_rejects_outside_vector():
    a = np.array([[1, 0, 0], [0, 1, 0]])
    assert in_row_span(a, np.array([1, 1, 0]), 2)
    assert not in_row_span(a, np.array([0, 0, 1]), 2)


# ------------------------------------------------------------ batched stack


@settings(deadline=None, max_examples=60)
@given(
    count=st.integers(1, 5),
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    p=st.sampled_from(PRIMES),
    sparsity=st.sampled_from([0.0, 0.5, 0.8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rref_stack_matches_rank_and_row_space(count, rows, cols, p, sparsity, seed):
    """Every matrix of a random stack, some rows all-zero padding, reduces
    to a basis of its own row space: rank as the reference rank, each input row in the
    span of the pivot rows and each pivot row in the span of the input."""
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, p, size=(count, rows, cols)) * (rng.random((count, rows, cols)) >= sparsity)
    stack[rng.random((count, rows)) < 0.3] = 0  # padding rows
    red, pivots = gf.rref_stack(stack, p)
    assert red.shape == stack.shape and pivots.shape == (count, rows)
    for a, r, piv in zip(stack, red, pivots):
        basis = r[piv >= 0].astype(np.int64)
        assert len(basis) == rank(a, p)
        assert not r[piv < 0].any()
        for row in a:
            assert in_row_span(basis, row, p) if len(basis) else not row.any()
        for row in basis:
            assert in_row_span(a, row, p)
        # every pivot entry is 1 and the only non-zero of its column
        for i in np.flatnonzero(piv >= 0):
            col = r[:, piv[i]]
            assert col[i] == 1 and np.count_nonzero(col) == 1


def test_rref_stack_zero_padding_and_order():
    stack = np.array(
        [
            [[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]],
            [[0, 2, 1], [0, 0, 0], [0, 1, 2], [2, 0, 0]],
        ]
    )
    red, pivots = gf.rref_stack(stack, 3)
    # matrix 0: a padding row, then three rows independent over GF(3)
    # (determinant 2), which would be dependent over GF(2)
    assert pivots[0].tolist() == [-1, 0, 1, 2]
    assert gf.rref_stack(stack[:1], 2)[1].tolist() == [[-1, 0, 1, -1]]
    # matrix 1: row 2 = 2 * row 0 mod 3; rows stay where they were
    assert pivots[1].tolist() == [1, -1, -1, 0]
    assert red[1, 0].tolist() == [0, 1, 2]
    assert red[1, 3].tolist() == [1, 0, 0]


def test_rref_stack_rejects_2d_input():
    with pytest.raises(ValueError):
        gf.rref_stack(np.eye(3, dtype=np.int64), 2)
