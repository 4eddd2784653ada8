import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snicode.air import build_air, euclid_chain, locate
from snicode.distances import (
    NoRightNeighbor,
    down_distance,
    right_distance,
    tau_profile,
    up_distance,
)

from _dense_reference import down_distance_scan, right_distance_scan, up_distance_scan

# ------------------------------------------------------------ frozen values


def test_down_distance_65_26():
    ch = euclid_chain(65, 26)
    assert down_distance(ch, 0) == 52
    assert down_distance(ch, 12) == 52 - 12 + 12  # still 52: same sub-band
    assert down_distance(ch, 13) == 39
    assert down_distance(ch, 25) == 39


def test_down_distance_65_39():
    ch = euclid_chain(65, 39)
    for k in range(26):
        assert down_distance(ch, k) == 39
    # columns of the last band [26, 39) are m - n away from their lowest 1
    for k in range(26, 39):
        assert down_distance(ch, k) == 26


def test_down_distance_requires_a_tail():
    with pytest.raises(ValueError):
        down_distance(euclid_chain(9, 9), 0)
    with pytest.raises(ValueError):
        down_distance(euclid_chain(9, 4), 4)


def test_up_distance_65_26():
    ch = euclid_chain(65, 26)
    assert up_distance(ch, 26, 0) == 26
    assert up_distance(ch, 52, 13) == 13


def test_up_distance_rejects_non_ones():
    ch = euclid_chain(65, 26)
    with pytest.raises(ValueError):
        up_distance(ch, 5, 5)  # top identity
    with pytest.raises(ValueError):
        up_distance(ch, 52, 1)  # zero entry


def test_right_distance_65_26():
    ch = euclid_chain(65, 26)
    assert right_distance(ch, 52, 0) == 13
    with pytest.raises(NoRightNeighbor):
        right_distance(ch, 52, 13)


def test_right_distance_65_39():
    ch = euclid_chain(65, 39)
    assert right_distance(ch, 39, 0) == 26
    assert right_distance(ch, 64, 25) == 13


def test_right_distance_odd_band_rejected():
    ch = euclid_chain(65, 26)
    with pytest.raises(ValueError):
        right_distance(ch, 30, 13)


def test_tau_profile_65_26():
    mat = build_air(65, 26)
    prof = tau_profile(mat, 0)
    assert (prof.down, prof.mu) == (52, 13)
    assert prof.taus == () and prof.p == 0


def test_tau_profile_65_39():
    mat = build_air(65, 39)
    prof = tau_profile(mat, 0)
    assert (prof.down, prof.mu) == (39, 26)
    assert prof.taus == (13,) and prof.p == 1


def test_tau_profile_range():
    mat = build_air(65, 26)
    with pytest.raises(ValueError):
        tau_profile(mat, 13)  # columns of the last gcd band have no profile


# --------------------------------------------------------- oracle agreement


@settings(deadline=None, max_examples=120)
@given(m=st.integers(2, 48), seed=st.integers(0, 2**32 - 1))
def test_down_distance_matches_scan(m, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, m))  # strict: m > n so a tail exists
    mat = build_air(m, n)
    for k in range(n):
        assert down_distance(mat.chain, k) == down_distance_scan(mat, k)


@settings(deadline=None, max_examples=120)
@given(m=st.integers(2, 48), seed=st.integers(0, 2**32 - 1))
def test_up_distance_matches_scan(m, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, m))
    mat = build_air(m, n)
    for j in range(n, m):
        for k in map(int, np.flatnonzero(mat.bits[j])):
            assert up_distance(mat.chain, j, k) == up_distance_scan(mat, j, k)


@settings(deadline=None, max_examples=120)
@given(m=st.integers(2, 48), seed=st.integers(0, 2**32 - 1))
def test_right_distance_matches_scan(m, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, m))
    mat = build_air(m, n)
    ch = mat.chain
    for j in range(n, m):
        for k in map(int, np.flatnonzero(mat.bits[j])):
            if locate(ch, j, k).cell.kind != "even":
                continue
            try:
                closed = right_distance(ch, j, k)
            except NoRightNeighbor:
                closed = None
            assert closed == right_distance_scan(mat, j, k)


@settings(deadline=None, max_examples=100)
@given(m=st.integers(2, 48), seed=st.integers(0, 2**32 - 1))
def test_tau_profile_lists_sub_pivot_support(m, seed):
    """The taus are exactly the offsets of the 1s below the pivot entry, and
    a pivot inside a repeated-identity band has none."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, m))
    mat = build_air(m, n)
    ch = mat.chain
    for k in range(n - ch.lam(ch.l)):
        prof = tau_profile(mat, k)
        j = k + prof.down
        pivot = locate(ch, j, k + prof.mu)
        assert pivot.cell.has_one(j, k + prof.mu)
        below = np.flatnonzero(mat.bits[j + 1 :, k + prof.mu])
        assert prof.taus == tuple(int(t) + 1 for t in below)
        if pivot.cell.kind == "even":
            assert prof.p == 0


def test_scan_oracles_on_known_columns():
    mat = build_air(65, 26)
    assert down_distance_scan(mat, 0) == 52
    assert down_distance_scan(mat, 13) == 39
    assert up_distance_scan(mat, 26, 0) == 26
    assert right_distance_scan(mat, 52, 0) == 13
    assert right_distance_scan(mat, 52, 13) is None
    assert down_distance_scan(build_air(5, 5), 2) is None


def test_right_distance_accepts_exactly_the_ones_of_even_bands():
    # every entry of every generator with m <= 24, ones and zeros alike
    for m in range(2, 25):
        for n in range(1, m):
            ch = euclid_chain(m, n)
            for j in range(m):
                for k in range(n):
                    cell = locate(ch, j, k).cell
                    if cell.kind == "even" and cell.has_one(j, k):
                        continue
                    with pytest.raises(ValueError):
                        right_distance(ch, j, k)


def test_closed_forms_take_one_entry_in_range():
    # -1 and n must raise, never wrap to the other end of a table; (64, 25)
    # is a 1 of an even band, so a read that wrapped -1 would return or
    # raise NoRightNeighbor
    mat = build_air(65, 26)
    ch = mat.chain
    for k in (-1, 26, np.array([0, 1]), 1.0):
        with pytest.raises((ValueError, TypeError)):
            down_distance(ch, k)
        with pytest.raises((ValueError, TypeError)):
            right_distance(ch, 64, k)
        with pytest.raises((ValueError, TypeError)):
            tau_profile(mat, k)
    for j in (-1, 65, np.array([52]), 52.0):
        with pytest.raises((ValueError, TypeError)):
            right_distance(ch, j, 0)
