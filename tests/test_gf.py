import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snicode import gf

PRIMES = [2, 3, 5]


def random_matrix(rng, rows, cols, p):
    return rng.integers(0, p, size=(rows, cols), dtype=np.int64)


# ---------------------------------------------------------------- rref / rank


def test_rref_known_example():
    a = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    r, pivots = gf.rref(a, 2)
    # over GF(2) the third row is the sum of the first two
    assert pivots == [0, 1]
    assert np.array_equal(r[:2], [[1, 0, 1], [0, 1, 1]])
    assert not r[2:].any()


def test_rref_identity_is_fixed_point():
    eye = np.eye(5, dtype=np.int64)
    r, pivots = gf.rref(eye, 3)
    assert np.array_equal(r, eye)
    assert pivots == [0, 1, 2, 3, 4]


def test_rref_rejects_1d_input():
    with pytest.raises(ValueError):
        gf.rref(np.array([1, 0, 1]), 2)


def test_rank_examples():
    assert gf.rank(np.zeros((3, 4), dtype=np.int64), 2) == 0
    assert gf.rank(np.eye(4, dtype=np.int64), 5) == 4
    # rank depends on the field: 2*I == 0 mod 2 but not mod 3
    two = 2 * np.eye(3, dtype=np.int64)
    assert gf.rank(two, 2) == 0
    assert gf.rank(two, 3) == 3


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
    r, pivots = gf.rref(a, p)
    assert len(pivots) == gf.rank(a, p)
    for row in a:
        assert gf.in_row_span(r, row, p)
    for row in r[: len(pivots)]:
        assert gf.in_row_span(a, row, p)
    # pivot columns of the reduced form are unit vectors
    for i, c in enumerate(pivots):
        col = r[:, c]
        assert col[i] == 1 and col.sum() == 1


def test_in_row_span_rejects_outside_vector():
    a = np.array([[1, 0, 0], [0, 1, 0]])
    assert gf.in_row_span(a, np.array([1, 1, 0]), 2)
    assert not gf.in_row_span(a, np.array([0, 0, 1]), 2)


# ------------------------------------------------------------------- inverse


def test_inverse_round_trip():
    rng = np.random.default_rng(5)
    for p in PRIMES:
        for _ in range(20):
            a = random_matrix(rng, 6, 6, p)
            inv = gf.inverse(a, p)
            if inv is None:
                assert gf.rank(a, p) < 6
            else:
                assert np.array_equal(a @ inv % p, np.eye(6, dtype=np.int64))


def test_inverse_requires_square():
    with pytest.raises(ValueError):
        gf.inverse(np.ones((2, 3), dtype=np.int64), 2)


def test_inverse_singular_returns_none():
    assert gf.inverse(np.ones((3, 3), dtype=np.int64), 2) is None


# --------------------------------------------------------- incremental basis


@settings(deadline=None, max_examples=50)
@given(
    width=st.integers(1, 10),
    n_units=st.integers(0, 6),
    n_dense=st.integers(0, 6),
    p=st.sampled_from(PRIMES),
    seed=st.integers(0, 2**32 - 1),
)
def test_incremental_rank_matches_batch_rank(width, n_units, n_dense, p, seed):
    """Interleaving unit-row batches with dense rows gives the same rank as
    one big elimination over all of them."""
    rng = np.random.default_rng(seed)
    unit_cols = rng.integers(0, width, size=n_units)
    dense = rng.integers(0, p, size=(n_dense, width))

    elim = gf.IncrementalRref(width, p)
    rows = []
    order = rng.permutation(n_units + n_dense)
    for idx in order:
        if idx < n_units:
            c = int(unit_cols[idx])
            elim.add_units([c])
            e = np.zeros(width, dtype=np.int64)
            e[c] = 1
            rows.append(e)
        else:
            v = dense[idx - n_units]
            elim.add_row(v)
            rows.append(v)
        assert elim.rank == gf.rank(np.array(rows), p)


def test_incremental_unit_batch_with_duplicates():
    elim = gf.IncrementalRref(6, 2)
    elim.add_units([0, 3, 3, 0, 5])
    assert elim.rank == 3
    elim.add_units([3, 5])
    assert elim.rank == 3


def test_incremental_dense_then_clashing_unit():
    # a dense row takes pivot column 1; the later unit e_1 must still add rank
    elim = gf.IncrementalRref(4, 2)
    assert elim.add_row([0, 1, 1, 0])
    elim.add_units([1])
    assert elim.rank == 2
    # and now e_2 is dependent: e_1 + (e_1 + e_2)
    assert not elim.add_row([0, 0, 1, 0])
    assert elim.rank == 2


def test_incremental_add_row_reports_growth():
    elim = gf.IncrementalRref(3, 3)
    assert elim.add_row([1, 2, 0])
    assert not elim.add_row([2, 4, 0])  # scalar multiple mod 3
    assert elim.add_row([0, 0, 2])
    assert elim.rank == 2


def test_incremental_add_row_zero_pads_short_rows():
    elim = gf.IncrementalRref(4, 3)
    assert elim.add_row([1, 2])
    assert not elim.add_row([2, 1, 0, 0])  # 2 * (1, 2, 0, 0) mod 3
    assert [row.tolist() for _, row in elim.pivot_rows()] == [[1, 2, 0, 0]]


def test_pivot_rows_reduced_against_units():
    elim = gf.IncrementalRref(5, 2)
    elim.add_row([1, 1, 0, 1, 0])
    elim.add_units([1])
    for c, row in elim.pivot_rows():
        assert row[1] == 0  # unit columns are cleared in stored rows
