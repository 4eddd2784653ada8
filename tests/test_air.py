import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snicode.air import (
    build_air,
    euclid_chain,
    format_matrix,
    layout_cells,
    locate,
    partitions,
)
from snicode import air
from snicode.codec import all_windows_full_rank, decode_plan, encoding_matrix
from snicode.rates import SniProblem

from _dense_reference import air_from_bits, dense_build_air
from _gf_reference import rank

# ------------------------------------------------------------------- chains


def test_chain_65_26():
    ch = euclid_chain(65, 26)
    assert ch.lambdas == (26, 39, 26, 13)
    assert ch.betas == (0, 1, 2)
    assert ch.l == 2
    assert ch.gcd == 13


def test_chain_65_39():
    ch = euclid_chain(65, 39)
    assert ch.lambdas == (39, 26, 13)
    assert ch.betas == (1, 2)
    assert ch.l == 1
    assert ch.gcd == 13


def test_chain_7_3():
    ch = euclid_chain(7, 3)
    assert ch.lambdas == (3, 4, 3, 1)
    assert ch.betas == (0, 1, 3)
    assert ch.l == 2
    assert ch.gcd == 1


def test_chain_square_case():
    ch = euclid_chain(8, 8)
    assert ch.l == -1
    assert ch.lambdas == (8,)
    assert ch.betas == ()
    assert ch.gcd == 8


def test_chain_accessors_and_bounds():
    ch = euclid_chain(65, 26)
    assert ch.lam(-2) == 65
    assert ch.lam(-1) == 26
    assert ch.lam(0) == 39
    assert ch.lam(2) == 13
    assert ch.lam(3) == 0  # past the end
    assert ch.beta(2) == 2
    assert ch.beta(5) == 0


def test_chain_recurrence():
    for m, n in [(65, 26), (65, 39), (7, 3), (30, 12), (100, 73)]:
        ch = euclid_chain(m, n)
        for i in range(ch.l + 1):
            assert ch.lam(i - 1) == ch.beta(i) * ch.lam(i) + ch.lam(i + 1)


def test_chain_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        euclid_chain(5, 6)
    with pytest.raises(ValueError):
        euclid_chain(5, 0)


# ------------------------------------------------------------- construction


def test_build_7_3_exact():
    mat = build_air(7, 3)
    expected = np.array(
        [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [1, 1, 1],
        ],
        dtype=np.uint8,
    )
    assert np.array_equal(mat.bits, expected)


def test_build_5_3_exact():
    mat = build_air(5, 3)
    expected = np.array(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]],
        dtype=np.uint8,
    )
    assert np.array_equal(mat.bits, expected)


def test_build_square_is_identity():
    mat = build_air(6, 6)
    assert np.array_equal(mat.bits, np.eye(6, dtype=np.uint8))


def test_build_65_26_column_supports():
    """Every column k has 1s exactly at rows k, k+26 and 52 + (k mod 13)."""
    mat = build_air(65, 26)
    for k in range(26):
        support = set(map(int, mat.column_support(k)))
        assert support == {k, k + 26, 52 + k % 13}


def test_build_bits_are_read_only():
    # and built afresh on each read, never stored
    mat = build_air(9, 4)
    assert mat.bits is not mat.bits
    with pytest.raises(ValueError):
        mat.bits[0, 0] = 0


def test_sparse_forms_equal_the_dense_cell_walk_up_to_120_rows():
    # the sorted keys read off the cells' walks, and every form derived
    # from them, against the cell walk written into a dense array
    for m in range(1, 121):
        for n in range(1, m + 1):
            bits = dense_build_air(m, n)
            mat = build_air(m, n)
            assert np.array_equal(mat.csc_keys, np.flatnonzero(bits.T)), (m, n)
            indptr, rows = mat.csc
            assert np.array_equal(indptr, np.concatenate([[0], np.cumsum(bits.sum(axis=0))])), (m, n)
            assert np.array_equal(rows, np.nonzero(bits.T)[1]), (m, n)
            pattern, table = mat.row_patterns
            assert np.array_equal(table[pattern], bits) and len(table) < 2 * n, (m, n)
            unit = bits.sum(axis=1) == 1
            assert np.array_equal(pattern < n, unit), (m, n)
            assert np.array_equal(pattern[unit], bits[unit].argmax(axis=1)), (m, n)
            assert np.array_equal(mat.bits, bits), (m, n)


@pytest.mark.parametrize("m,n", [(65, 26), (2002, 11), (7, 3)])
def test_built_matrix_holds_no_dense_array(m, n):
    build_air.cache_clear()
    mat = build_air(m, n)
    for form in ("csc", "row_patterns", "bits"):
        getattr(mat, form)  # every derived form, read once
    held = [mat.csc_keys, *(v for value in mat.memo.values() for v in value)]
    sizes = [v.size for v in held if isinstance(v, np.ndarray)]
    assert len(sizes) == 5 and max(sizes) < m * n
    # the CSC is held once, as the intp indices that take gathers with
    for arr in mat.csc:
        assert arr.dtype == np.intp and not arr.flags.writeable


@pytest.mark.parametrize("K,D,U,a,b", [(13, 4, 1, 1, 5), (1001, 4, 1, 1, 2), (53, 6, 0, 1, 15)])
def test_plan_shares_the_generator_csc(K, D, U, a, b):
    # the compiled plan holds the generator's own CSC arrays, no copy
    problem = SniProblem(K, D, U)
    indptr, rows = encoding_matrix(problem, a, b).csc
    g = decode_plan(problem, a, b).geometry
    assert g.rows is rows and g.indptr is indptr


def test_build_air_holds_generators_within_its_byte_budget(monkeypatch):
    # a budget of a few generators: building past it drops the least
    # recently used ones, whole, and a plan compiled after its generator
    # was dropped and rebuilt holds the new generator's CSC
    monkeypatch.setattr(air, "_BUDGET", 100_000)
    build_air.cache_clear()
    ref = SniProblem(13, 4, 1)
    first = encoding_matrix(ref, 1, 5)
    assert decode_plan(ref, 1, 5).geometry.rows is first.csc[1]
    hot = build_air(7, 3)
    for m in range(400, 1200, 40):
        build_air(m, 10).row_patterns
        assert build_air(7, 3) is hot  # the most recently used stays
        assert build_air.cache_info().nbytes <= air._BUDGET
    info = build_air.cache_info()
    assert (info.hits, info.misses) == (1 + 20, 2 + 20)
    assert 2 < info.currsize < 20
    rebuilt = encoding_matrix(ref, 1, 5)
    assert rebuilt is not first
    assert decode_plan(ref, 1, 5).geometry.rows is rebuilt.csc[1]
    assert build_air.cache_info().nbytes <= air._BUDGET
    build_air.cache_clear()
    assert build_air.cache_info() == (0, 0, 0, 0)


@pytest.mark.parametrize("m,n", [(9, 4), (65, 26), (2002, 11), (7, 7)])
def test_row_patterns_once_per_generator(m, n):
    # a weight-1 row's pattern is its column, every other row's points past n
    mat = build_air(m, n)
    pattern, table = mat.row_patterns
    want = [int(np.flatnonzero(row)[0]) if row.sum() == 1 else -1 for row in mat.bits]
    assert np.where(pattern < n, pattern, -1).tolist() == want
    assert build_air(m, n).row_patterns is mat.row_patterns
    with pytest.raises(ValueError):
        pattern[0] = 0
    with pytest.raises(ValueError):
        table[0, 0] = 0


def test_top_rows_are_stacked_identities():
    for m, n in [(10, 3), (26, 13), (65, 26), (12, 5)]:
        mat = build_air(m, n)
        q = m // n if m % n else m // n  # at least floor(m/n) full copies
        top = (m - n if m > n else m) // n * n
        for j in range(top):
            row = np.zeros(n, dtype=np.uint8)
            row[j % n] = 1
            assert np.array_equal(mat.bits[j], row)


# -------------------------------------------------------------- layout cells


def staircase(m, n):
    """Oracle: the AIR bits by the staircase construction, alternating
    vertically stacked identities in rows of the unfilled corner with
    horizontally repeated ones in its columns, shrinking the corner by the
    Euclidean remainders until it closes."""
    bits = np.zeros((m, n), dtype=np.uint8)
    top, left = 0, 0
    mm, nn = m, n
    while True:
        q, r = divmod(mm, nn)
        i = np.arange(q * nn)
        bits[top + i, left + i % nn] = 1
        top += q * nn
        if r == 0:
            return bits
        q2, r2 = divmod(nn, r)
        j = np.arange(q2 * r)
        bits[top + j % r, left + j] = 1
        left += q2 * r
        if r2 == 0:
            return bits
        mm, nn = r, r2


@settings(deadline=None, max_examples=80)
@given(m=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_layout_cells_tile_the_matrix(m, seed):
    """The closed-form band description, from which build_air draws its
    bits, reproduces the staircase construction."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, m + 1))
    mat = build_air(m, n)
    ch = mat.chain
    grid = np.zeros((m, n), dtype=np.uint8)
    seen = np.zeros((m, n), dtype=bool)
    for cell in layout_cells(ch):
        for j in cell.rows:
            for k in cell.cols:
                assert not seen[j, k]  # cells are disjoint
                seen[j, k] = True
                grid[j, k] = cell.has_one(j, k)
    assert seen.all()
    assert np.array_equal(grid, staircase(m, n))
    assert np.array_equal(mat.bits, grid)


def test_locate_examples():
    ch = euclid_chain(65, 26)
    top = locate(ch, 5, 5)
    assert top.cell.kind == "top"
    # beta_0 = 0 for (65, 26): the tail starts at the odd band, so the
    # repeated-identity band at the bottom carries chain index 2
    even = locate(ch, 52, 0)
    assert even.cell.kind == "even" and even.cell.index == 2
    assert (even.j_r, even.k_r) == (0, 0)
    assert even.cell.modulus == 13
    odd = locate(ch, 30, 13)
    assert odd.cell.kind == "odd" and odd.cell.index == 1


def test_locate_out_of_range():
    ch = euclid_chain(10, 4)
    with pytest.raises(ValueError):
        locate(ch, 10, 0)
    with pytest.raises(ValueError):
        locate(ch, 0, 4)


def test_partitions_65_26():
    parts = partitions(euclid_chain(65, 26))
    # beta_0 = 0, so the first column band is empty and band 1 takes all of
    # [0, 26); shifted by lambda_0 = 39 it covers codeword indices [39, 65)
    assert parts.cols == (range(0, 0), range(0, 26))
    assert parts.middle == (range(39, 39), range(39, 52))
    assert parts.boundary == (range(39, 39), range(52, 65))


def test_partition_bands_cover_columns():
    for m, n in [(65, 26), (65, 39), (7, 3), (24, 9), (50, 50)]:
        parts = partitions(euclid_chain(m, n))
        cols = sorted(k for band in parts.cols for k in band)
        assert cols == list(range(n))
        # each column band, shifted by lambda_0 = m - n, is its middle band
        # then its boundary band
        for mid, bnd, band in zip(parts.middle, parts.boundary, parts.cols):
            assert list(mid) + list(bnd) == [k + m - n for k in band]


def test_last_boundary_band_is_gcd_wide():
    for m, n in [(65, 26), (65, 39), (7, 3), (24, 9)]:
        parts = partitions(euclid_chain(m, n))
        last = parts.boundary[-1]
        g = euclid_chain(m, n).gcd
        assert (last.start, last.stop) == (m - g, m)


# ------------------------------------------------------------------- windows


def window_rank_ok_brute(mat, p):
    m, n = mat.m, mat.n
    rows = np.vstack([mat.bits, mat.bits])
    return all(rank(rows[s : s + n], p) == n for s in range(m))


@settings(deadline=None, max_examples=120)
@given(
    m=st.integers(1, 28),
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([2, 3, 5]),
    kind=st.sampled_from(["air", "random", "flipped"]),
)
def test_all_windows_full_rank_matches_brute_force(m, seed, p, kind):
    """The window check against a rank per window: on AIR generators, where
    it holds, and on random and bit-flipped 0/1 matrices (m <= 16, n = 1
    and n = m included), where it often fails."""
    rng = np.random.default_rng(seed)
    if kind != "air":
        m = (m - 1) % 16 + 1
    n = int(rng.choice([1, m, rng.integers(1, m + 1)]))
    mat = build_air(m, n)
    if kind == "random":
        bits = (rng.random((m, n)) < rng.choice([0.2, 0.5, 0.8])).astype(np.uint8)
        mat = air_from_bits(bits, mat.chain)
    elif kind == "flipped":
        bits = mat.bits.copy()
        flips = rng.integers(1, 4)
        bits[rng.integers(0, m, flips), rng.integers(0, n, flips)] ^= 1
        mat = air_from_bits(bits, mat.chain)
    assert all_windows_full_rank(mat, p) == window_rank_ok_brute(mat, p)
    if kind == "air":
        assert all_windows_full_rank(mat, p)


def test_all_windows_detects_damage():
    mat = build_air(13, 5)
    bits = mat.bits.copy()
    bits[6] = bits[2]  # duplicate a row inside the windows covering 2..6
    broken = air_from_bits(bits, mat.chain)
    assert not all_windows_full_rank(broken, 2)
    assert not window_rank_ok_brute(broken, 2)
    # a non-prime p is rejected, not read as arithmetic mod p
    for p in (0, 1, 4, 6, 257):
        with pytest.raises(ValueError, match="not a prime"):
            all_windows_full_rank(broken, p)


# -------------------------------------------------------------------- text io


@settings(deadline=None, max_examples=30)
@given(m=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_format_parse_round_trip(m, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, m + 1))
    mat = build_air(m, n)
    header, *rows = format_matrix(mat).splitlines()
    assert tuple(map(int, header.split())) == (m, n)
    bits = np.array([[int(v) for v in row] for row in rows], dtype=np.uint8)
    assert np.array_equal(bits, mat.bits)
