import functools
import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snicode import air, codec, distances
from snicode.air import build_air, partitions
from snicode.codec import (
    NotAchievablePair,
    NotDecodable,
    OracleDecoder,
    PlanError,
    check_field,
    decode_plan,
    encode,
    encoding_matrix,
    format_plan,
    predicted_side_counts,
    rank_deficits,
    symbolic_codes,
    verify_lemma1,
)
from snicode.distances import down_distance, right_distance, tau_profile
from snicode.rates import SniProblem, make_pair
from snicode.sim import SimConfig, run

from _dense_reference import (
    air_from_bits,
    dense_build_air,
    dense_combining,
    dense_oracle_decode,
    down_distance_scan,
    right_distance_scan,
)
from _gf_reference import in_row_span, interference, side_info
from _reference_tables import NON_MEMBERS as NON_MEMBER_TABLE
from _reference_tables import REF_CODE_LINES, REF_DECODE_CODES
from test_acceptance import grid_instances

REF = SniProblem(13, 4, 1)  # the worked (K, D, U) = (13, 4, 1) instance, (a, b) = (1, 5)


def ref_matrix():
    return encoding_matrix(REF, 1, 5)


def _geometry(m, n):
    """The compiled plan of the m x n generator, held on it."""
    return build_air(m, n).derived(codec._plan_geometry)


def _side_check(problem, n, b):
    """decode_plan's side check of the (K b) x n generator for ``problem``,
    held on the generator."""
    return build_air(problem.K * b, n).derived(codec._unknown_side_row, problem)


# ----------------------------------------------------------------- encoding


def test_reference_symbolic_code_table():
    lines = symbolic_codes(ref_matrix(), 5)
    assert lines == REF_CODE_LINES


def test_encoding_matrix_rejects_non_member():
    with pytest.raises(NotAchievablePair) as err:
        encoding_matrix(SniProblem(13, 4, 3), 1, 5)
    assert "gcd(65, 26) = 13" in str(err.value)


def test_encode_known_vector():
    mat = build_air(5, 3)
    y = encode(mat, [1, 0, 0, 1, 1])
    # rows 0, 3, 4 -> (100) + (101) + (011) = (0 1 0) over GF(2)
    assert np.array_equal(y, [0, 1, 0])


@pytest.mark.parametrize("p,bad", [(2, 2), (2, -1), (3, 3), (5, 200)])
def test_encode_rejects_symbols_outside_the_field(p, bad):
    x = np.zeros((3, 65), dtype=np.int64)
    x[1, 7] = bad
    with pytest.raises(ValueError, match=rf"\[0, {p}\)"):
        encode(ref_matrix(), x, p)


def test_encode_batched_and_mod_p():
    mat = build_air(7, 3)
    x = np.arange(14).reshape(2, 7) % 3
    y = encode(mat, x, p=3)
    assert y.shape == (2, 3)
    assert np.array_equal(y, x @ mat.bits % 3)


def _dense_encode(matrix, x, p):
    """Oracle: y = x @ G mod p as a dense float64 product."""
    y = np.asarray(x).astype(np.float64) @ matrix.bits.astype(np.float64)
    return np.mod(y, p).astype(np.uint8)


def test_encode_equals_the_dense_product_on_the_acceptance_grid():
    # the segmented sum over the CSC against the dense product, on every
    # generator shape of the acceptance grid, over GF(2), GF(3) and GF(251)
    shapes = sorted({(pair.m, pair.n) for _, pair in grid_instances()})
    rng = np.random.default_rng(17)
    for m, n in shapes:
        matrix = build_air(m, n)
        for p in (2, 3, 251):
            x = rng.integers(0, p, size=(3, m), dtype=np.uint8)
            assert np.array_equal(encode(matrix, x, p), _dense_encode(matrix, x, p)), (m, n, p)
            assert np.array_equal(encode(matrix, x[0], p), _dense_encode(matrix, x[0], p)), (m, n, p)
    assert len(shapes) > 900


@pytest.mark.parametrize("weight", [262, 263])
def test_encode_accumulator_holds_every_column_sum(weight):
    # over GF(251) a column of weight 262 sums to at most 250 * 262 = 65500,
    # which fits uint16; weight 263 needs uint32.  The m x 1 generator's one
    # column holds all m rows.
    mat = build_air(weight, 1)
    assert np.diff(mat.csc[0]).tolist() == [weight]
    x = np.full((3, weight), 250, dtype=np.uint8)
    x[1] = np.random.default_rng(weight).integers(0, 251, size=weight)
    x[2, ::2] = 0
    want = [[sum(row) % 251] for row in x.tolist()]
    assert encode(mat, x, 251).tolist() == want


@pytest.mark.parametrize("trials", [1, 63, 64, 65, 130])
def test_unpack_inverts_pack(trials):
    rng = np.random.default_rng(trials)
    z = rng.integers(0, 2, size=(trials, 37), dtype=np.uint8)
    zw = codec._pack(z)
    assert zw.shape == (37, -(-trials // 64)) and zw.dtype == np.uint64
    # trial i of symbol r is bit i % 64 of word [r, i // 64]; padding bits are zero
    i = np.arange(64 * zw.shape[1])
    bits = zw[:, i // 64] >> (i % 64).astype(np.uint64) & np.uint64(1)
    assert np.array_equal(bits[:, :trials], z.T) and not bits[:, trials:].any()
    assert np.array_equal(codec._unpack(zw, z.shape), z)
    assert np.array_equal(codec._unpack(codec._pack(z[0]), z[0].shape), z[0])
    batched = rng.integers(0, 2, size=(2, trials, 37), dtype=np.uint8)
    assert np.array_equal(codec._unpack(codec._pack(batched), batched.shape), batched)


def test_word_encode_equals_the_dense_product():
    # every (m, n) with m <= 40 and two large shapes, on three words, the
    # last one padded: padding bits encode to zero
    shapes = [(m, n) for m in range(1, 41) for n in range(1, m + 1)] + [(2002, 11), (795, 106)]
    rng = np.random.default_rng(19)
    for m, n in shapes:
        x = rng.integers(0, 2, size=(130, m), dtype=np.uint8)
        want = codec._pack(x.astype(np.int64) @ dense_build_air(m, n) % 2)
        assert np.array_equal(codec._encode_words(build_air(m, n).csc, codec._pack(x)), want), (m, n)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 251])
def test_check_field_accepts_uint8_primes(p):
    check_field(p)


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9, 250, 257, 2.0, 3.5, "3"])
def test_check_field_rejects_non_primes_and_wide_fields(p):
    # 257 is prime, but its symbols would wrap in the uint8 outputs; 2.0
    # and "3" name a prime but are not integers
    with pytest.raises(ValueError):
        check_field(p)
    mat = ref_matrix()
    with pytest.raises(ValueError):
        encode(mat, np.zeros(65, dtype=np.int64), p)
    with pytest.raises(ValueError):
        rank_deficits(mat, REF, p)
    with pytest.raises(ValueError):
        OracleDecoder(mat, REF, p)


# -------------------------------------------------------------------- plans


def test_reference_decode_table():
    plan = decode_plan(REF, 1, 5)
    assert {key: e.codes for key, e in plan.entries.items()} == REF_DECODE_CODES


def test_reference_case_split():
    plan = decode_plan(REF, 1, 5)
    counts = {"I": 0, "II": 0, "III": 0, "IV": 0}
    for e in plan.entries.values():
        counts[e.case] += 1
    assert counts == {"I": 39, "II": 13, "III": 0, "IV": 13}


def test_reference_two_code_entry_side_terms():
    e = decode_plan(REF, 1, 5).entries[(7, 5)]
    assert e.case == "II"
    assert e.codes == (0, 13)
    assert e.side == (0, 13, 26)        # x_{0,1}, x_{2,4}, x_{5,2}
    # x_{10,3} appears in both codes, so it cancels and is no side term
    mat = ref_matrix()
    assert 52 in mat.column_support(0) and 52 in mat.column_support(13)
    assert 52 not in e.side


def test_plan_side_rows_are_known_side_information():
    for problem, a, b in [(REF, 1, 5), (SniProblem(9, 2, 1), 0, 3), (SniProblem(8, 1, 1), 0, 4)]:
        plan = decode_plan(problem, a, b)
        for (t, j), e in plan.entries.items():
            known = set(side_info(problem, t))
            assert {r // b for r in e.side} <= known


def test_decode_plan_rejects_side_rows_the_receiver_lacks(monkeypatch):
    # REF's compiled plan reads side rows from blocks 5 to 11 ahead of each
    # receiver; with U = 3 instead of 1 the receivers lack the blocks 10 to
    # 12 ahead, and entry (0, 1) reads row 52 from block 10.  (13, 4, 3) is
    # no member for (1, 5), so admit it to reach the plan's own check.
    assert _side_check(REF, 26, 5) is None
    lacking = SniProblem(13, 4, 3)
    assert _side_check(lacking, 26, 5) == (0, 52)
    monkeypatch.setattr(codec, "in_S", lambda problem, a, b: True)
    with pytest.raises(PlanError, match="t=0, j=1 uses row 52 from block 10"):
        decode_plan(lacking, 1, 5)


@functools.cache
def _side_rows(m, n):
    g = _geometry(m, n)
    return [g.recipe(k)[1] for k in range(m)]


def _first_unknown_side_row_walk(problem, n, b):
    # oracle: walk the plan's side rows in index order against side_info
    m = problem.K * b
    for k, side in enumerate(_side_rows(m, n)):
        known = set(side_info(problem, k // b))
        for r in side:
            if r // b not in known:
                return k, r
    return None


@pytest.mark.parametrize("K,D,U,a,b", [(13, 4, 1, 1, 5), (13, 4, 3, 1, 5), (25, 9, 0, 47, 4), (9, 2, 1, 0, 3), (4, 0, 0, 2, 3)])
def test_unknown_side_row_matches_a_walk_of_the_terms(K, D, U, a, b):
    # the interval check names the first row of a walk of every index's
    # side rows
    pr = SniProblem(K, D, U)
    n = b * (D + 1) + a
    assert codec._unknown_side_row(build_air(K * b, n), pr) == _first_unknown_side_row_walk(pr, n, b)


def _side_check_cases():
    """(problem, n, b) of every (problem, a, b) with K < 26 and b <= 3,
    members of S and non-members alike, grouped by generator shape."""
    for K in range(1, 26):
        for b in (1, 2, 3):
            for n in range(1, K * b + 1):
                for D in range(min(K, n // b)):
                    if n - b * (D + 1) <= b * (K - D - 1):
                        for U in range(min(D, K - 1 - D) + 1):
                            yield SniProblem(K, D, U), n, b


def test_interval_side_check_equals_the_walk_on_every_small_problem(monkeypatch):
    # the interval counts against a walk of the explicit terms; where a
    # receiver lacks a row, decode_plan names the walk's first row
    monkeypatch.setattr(codec, "in_S", lambda problem, a, b: True)
    checked = flagged = 0
    wants = []
    for pr, n, b in _side_check_cases():
        want = _first_unknown_side_row_walk(pr, n, b)
        assert _side_check(pr, n, b) == want, (pr, n, b)
        wants.append(want)
        checked += 1
        if want is not None:
            k, r = want
            with pytest.raises(PlanError) as err:
                decode_plan(pr, n - b * (pr.D + 1), b)
            assert str(err.value) == (
                f"plan for t={k // b}, j={k % b + 1} uses row {r} from block {r // b}, "
                f"which receiver {k // b} does not know"
            )
            flagged += 1
    assert (checked, flagged) == (87633, 67351)
    # again in chunks of 8 indices, and in chunks of one index on the
    # problems whose first lacked row is read by a one-code index past the
    # first, so that the interval count finds it in a later chunk
    late = 0
    for (pr, n, b), want in zip(_side_check_cases(), wants):
        matrix = build_air(pr.K * b, n)
        monkeypatch.setattr(codec, "_GROUP_BYTES", 64)
        assert codec._unknown_side_row(matrix, pr) == want, (pr, n, b)
        if want is not None and want[0] > 0 and matrix.derived(codec._plan_geometry).num_codes[want[0]] == 1:
            monkeypatch.setattr(codec, "_GROUP_BYTES", 8)
            assert codec._unknown_side_row(matrix, pr) == want, (pr, n, b)
            late += 1
    assert late == 3665


@pytest.mark.parametrize(
    "K,D,U,n,b,want",
    [
        (5, 1, 1, 2, 1, (0, 4)),   # 5 x 2: receiver 0 lacks rows 4, 0 and 1
        (5, 1, 1, 4, 2, (0, 8)),   # 10 x 4: receiver 0 lacks rows 8 to 3
        (3, 1, 1, 3, 1, None),     # 3 x 3, one row per column
        (2, 0, 0, 4, 2, None),     # 4 x 4, one row per column
    ],
)
def test_neighbour_side_check_edges(K, D, U, n, b, want):
    # the neighbours of row k in its column wrap within the column's CSC
    # run, and a one-row column has no other row
    pr = SniProblem(K, D, U)
    matrix = build_air(K * b, n)
    assert codec._unknown_side_row(matrix, pr) == want == _first_unknown_side_row_walk(pr, n, b)
    g = matrix.derived(codec._plan_geometry)
    weight = np.diff(g.indptr)
    if want is None:
        assert (weight == 1).all() and (g.num_codes == 1).all()
        return
    k, row = want
    lo, hi = g.indptr[g.code[k]], g.indptr[g.code[k] + 1]
    first, size = codec._window(pr, b, k // b)
    # row k is its column's first row, and the lacked row is the column's
    # last, its predecessor past row m - 1 in a window that wraps there;
    # its successor is known
    assert g.num_codes[k] == 1 and g.pos[k] == lo and row == g.rows[hi - 1]
    assert first + size > K * b and first <= row
    assert (g.rows[lo + 1] - first) % (K * b) >= size


def _explicit_plan(g, k0=0, k1=None):
    """The plan of indices k0 .. k1 - 1 of geometry g, read one index at a
    time, as (terms, offsets, cases, num_codes): index k XORs z[terms[
    offsets[k - k0]:offsets[k - k0 + 1]]] for z = concat(x, y), its side
    rows ascending, then its codes offset by m."""
    m = g.cases.size
    k1 = m if k1 is None else k1
    terms, offsets = [], [0]
    for k in range(k0, k1):
        codes, side = g.recipe(k)
        terms += side
        terms += [m + c for c in codes]
        offsets.append(len(terms))
    return np.array(terms, np.int32), np.array(offsets), g.cases[k0:k1], g.num_codes[k0:k1]


def _hash_plan(h, plan):
    for arr, dtype in zip(plan, (np.int32, np.int64, np.uint8, np.int64)):
        h.update(arr.astype(dtype).tobytes())


def test_plan_geometry_digest():
    # sha256 of every compiled plan with 1 <= n <= m <= 60, frozen: any
    # change to a plan's terms, offsets, cases or code counts shows here
    h = hashlib.sha256()
    for m in range(1, 61):
        for n in range(1, m + 1):
            _hash_plan(h, _explicit_plan(_geometry(m, n)))
    assert h.hexdigest() == "3a1f5b678f5abdfcd6e047a6e24db173f97b033ea2666459093679ebfc5995f2"


def _recipes_loop(matrix):
    """Oracle: (case, codes) of every codeword index in order, one index at
    a time, band by band over the remainder chain; the case-III codes come
    from scans of the generator, not from the closed forms."""
    chain = matrix.chain
    parts = partitions(chain)
    lam0 = chain.lam(0)
    last = (chain.l + 1) // 2
    for k in range(lam0):
        yield 0, (k % chain.n,)
    for i, (middle, boundary) in enumerate(zip(parts.middle, parts.boundary)):
        step = chain.lam(2 * i)
        for kp in range(middle.start - lam0, middle.stop - lam0):
            yield 1, (kp, kp + step)
        for kp in range(boundary.start - lam0, boundary.stop - lam0):
            if i < last:
                down = down_distance_scan(matrix, kp)
                mu = right_distance_scan(matrix, kp + down, kp)
                taus = np.flatnonzero(matrix.bits[kp + down + 1 :, kp + mu]) + 1
                yield 2, (kp, kp + mu) + tuple(kp + int(t) for t in taus)
            else:
                yield 3, (kp,)


def _plan_geometry_loop(matrix):
    """Oracle: the compiled plan of ``matrix``, one codeword index at a
    time, as (terms, offsets, cases, num_codes); each index's side terms
    are the symmetric difference of its codes' column supports."""
    m = matrix.m
    supports = [frozenset(matrix.column_support(c).tolist()) for c in range(matrix.n)]
    terms, offsets, cases, num_codes = [], [0], [], []
    for k, (case, codes) in enumerate(_recipes_loop(matrix)):
        picked = set()
        for c in codes:
            picked ^= supports[c]
        if k not in picked:
            raise PlanError(f"codeword index {k}: wanted row absent from XOR")
        picked.discard(k)
        terms.extend(sorted(picked))
        terms.extend(m + c for c in codes)
        offsets.append(len(terms))
        cases.append(case)
        num_codes.append(len(codes))
    return np.array(terms, np.int32), np.array(offsets), np.array(cases, np.uint8), np.array(num_codes)


def _assert_equal_plans(plan, want, shape):
    for got, arr in zip(plan, want):
        assert got.dtype == arr.dtype and np.array_equal(got, arr), shape
    return plan


def test_plan_geometry_equals_the_loop_up_to_120_rows():
    # the array passes against one index at a time, byte for byte, on
    # every (m, n) with m <= 120; the digest is that of the loop
    h = hashlib.sha256()
    for m in range(1, 121):
        for n in range(1, m + 1):
            plan = _explicit_plan(_geometry(m, n))
            _hash_plan(h, _assert_equal_plans(plan, _plan_geometry_loop(build_air(m, n)), (m, n)))
    assert h.hexdigest() == "61f943058aab5456d1c1436851ac1d568cc3c0756f690887384c694eb000af44"


def test_compiled_case_three_profiles_equal_tau_profile_up_to_120_rows():
    # the compiler evaluates the profiles of its own case-III columns only;
    # each equals tau_profile's, read from the profiles of every column
    for m in range(1, 121):
        for n in range(1, m + 1):
            matrix = build_air(m, n)
            cases, multi, codes, count = codec._recipes(matrix)
            three = cases[multi] == 2
            ks, at = multi[three] - (m - n), (np.cumsum(count) - count)[three]
            for k, i, c in zip(ks.tolist(), at.tolist(), count[three].tolist()):
                prof = tau_profile(matrix, k)
                assert codes[i + 1] - k == prof.mu, (m, n, k)
                assert c - 2 == prof.p, (m, n, k)
                assert tuple((codes[i + 2 : i + 2 + prof.p] - k).tolist()) == prof.taus, (m, n, k)


def test_cold_plan_builds_no_distance_table():
    # a cold decode_plan evaluates the closed forms on its own columns and
    # holds neither the chain's table nor the generator's profiles
    build_air.cache_clear()
    for problem, a, b in [(REF, 1, 5), (SniProblem(1001, 4, 1), 1, 2), (SniProblem(53, 6, 0), 1, 15)]:
        decode_plan(problem, a, b)
        matrix = encoding_matrix(problem, a, b)
        assert (codec._plan_geometry,) in matrix.memo
        assert (distances._profiles,) not in matrix.memo
        assert (distances._column_geometry,) not in matrix.chain.memo


@functools.cache
def _loop_plan(m, n):
    return _plan_geometry_loop(build_air(m, n))


@pytest.mark.parametrize("chunk", [1, 7, 32768])
def test_plan_geometry_independent_of_the_pass_length(chunk):
    # the explicit plan rebuilt from the per-index reader in passes of one
    # index, of a few and of every index at once (_explicit_decode reads
    # passes of 256) equals the loop, on m <= 40 and three large shapes
    shapes = [(m, n) for m in range(1, 41) for n in range(1, m + 1)] + [(400, 10), (795, 106), (2002, 11)]
    for m, n in shapes:
        g = _geometry(m, n)
        passes = [_explicit_plan(g, k0, min(m, k0 + chunk)) for k0 in range(0, m, chunk)]
        bases = np.cumsum([0] + [p[1][-1] for p in passes])
        plan = (
            np.concatenate([p[0] for p in passes]),
            np.concatenate([[0]] + [p[1][1:] + base for p, base in zip(passes, bases)]),
            np.concatenate([p[2] for p in passes]),
            np.concatenate([p[3] for p in passes]),
        )
        _assert_equal_plans(plan, _loop_plan(m, n), (m, n))


def _flipped(m, n, *entries):
    """The m x n generator with the bits at ``entries`` flipped."""
    matrix = build_air(m, n)
    bits = matrix.bits.copy()
    for r, c in entries:
        bits[r, c] ^= 1
    return air_from_bits(bits, matrix.chain)


def _first_code(m, n, k):
    return _geometry(m, n).recipe(k)[0][0]


@pytest.mark.parametrize(
    "m,n,ks,cases",
    [
        (65, 26, [0], ["I"]),
        (65, 26, [45], ["II"]),
        (65, 26, [60], ["IV"]),
        (65, 39, [30], ["III"]),
        (65, 26, [3, 45], ["I", "II"]),    # one code before several
        (65, 26, [45, 60], ["II", "IV"]),  # several codes before one
    ],
)
def test_plan_geometry_raises_when_the_wanted_row_is_missing(m, n, ks, cases):
    # flipping the bit of index k in its first code takes row k out of its
    # XOR; the compiler names the first index so broken, as the loop does
    assert [codec.CASES[c] for c in _geometry(m, n).cases[ks]] == cases
    broken = _flipped(m, n, *[(k, _first_code(m, n, k)) for k in ks])
    message = f"codeword index {min(ks)}: wanted row absent"
    with pytest.raises(PlanError, match=message):
        _plan_geometry_loop(broken)
    with pytest.raises(PlanError, match=message):
        codec._plan_geometry(broken)


def test_cold_compile_of_the_ring_plan_stays_small():
    # the compiled 2002 x 11 plan is O(m + n), about 0.2 MB at its peak;
    # the terms of every index would take 1.5 MB alone.  A first small
    # compile keeps one-time allocations out of the count.
    codec._plan_geometry(build_air(65, 26))
    air.build_air.cache_clear()
    tracemalloc.start()
    try:
        codec._plan_geometry(build_air(2002, 11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


def test_case_two_codes_are_a_right_distance_apart():
    # a middle-band index k' pairs with the code lambda_{2i} to its right,
    # which is the right distance from its column's lowest 1
    checked = 0
    for m in range(2, 61):
        for n in range(1, m):
            chain = build_air(m, n).chain
            g = _geometry(m, n)
            for k in np.flatnonzero(g.cases == codec.CASES.index("II")).tolist():
                first, second = g.recipe(k)[0]
                kp = k - chain.lam(0)
                assert first == kp
                assert second - first == right_distance(chain, kp + down_distance(chain, kp), kp), (m, n, k)
                checked += 1
    assert checked > 10000


def test_format_plan_reference_line():
    plan = decode_plan(REF, 1, 5)
    lines = format_plan(plan)
    assert lines[7 * 5 + 4] == "7 5 CASE II codes 0,13 side (0,1);(2,4);(5,2)"
    assert lines[0] == "0 1 CASE I codes 0 side (5,2);(10,3)"


def test_identity_instance_plan():
    # a = b*(K - D - 1) makes m == n: the code is the identity and every
    # entry decodes from its own coded symbol with no side information
    pr = SniProblem(4, 3, 0)
    plan = decode_plan(pr, 0, 1)
    for (t, j), e in plan.entries.items():
        assert e.case == "IV"
        assert e.codes == (t,)
        assert e.side == ()
    x = np.random.default_rng(2).integers(0, 2, size=(6, 4), dtype=np.uint8)
    y = encode(encoding_matrix(pr, 0, 1), x)
    assert np.array_equal(plan.decode(y, x), x)


@pytest.mark.parametrize("K,D,U", [(13, 4, 1), (9, 2, 1), (8, 1, 1), (4, 3, 0), (11, 5, 5), (20, 7, 3)])
def test_known_block_arithmetic_matches_side_info(K, D, U):
    # the rows inside a receiver's window are those of the blocks outside
    # its side information, for a scalar t and for an array of them
    pr = SniProblem(K, D, U)
    for b in (1, 3):
        m, rows = K * b, np.arange(K * b)
        first, size = codec._window(pr, b, np.arange(K))
        for t in range(K):
            known = set(side_info(pr, t))
            want = [r // b not in known for r in rows]
            assert [bool(w) for w in (rows - first[t]) % m < size] == want
            assert codec._window(pr, b, t) == (int(first[t]), size)


def test_plan_round_trip_reference():
    plan = decode_plan(REF, 1, 5)
    mat = ref_matrix()
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2, size=65, dtype=np.uint8)
    y = encode(mat, x)
    got = plan.decode(y, x)
    assert got.shape == (65,)
    for t in range(13):
        for j in range(1, 6):
            assert got[5 * t + j - 1] == x[5 * t + j - 1]


@pytest.mark.parametrize(
    "K,D,U,a,b", [(13, 4, 1, 1, 5), (1001, 4, 1, 1, 2), (4, 3, 0, 0, 1)], ids=["ref", "ring", "identity"]
)
@pytest.mark.parametrize("trials", [None, 1, 7, 63, 64, 65, 130])
def test_plan_decode_any_trial_count(K, D, U, a, b, trials):
    # trials are packed 64 to a word: partial, whole and several words;
    # None is a single message vector
    pr = SniProblem(K, D, U)
    mat = encoding_matrix(pr, a, b)
    shape = (mat.m,) if trials is None else (trials, mat.m)
    x = np.random.default_rng(K + (trials or 0)).integers(0, 2, size=shape, dtype=np.uint8)
    got = decode_plan(pr, a, b).decode(encode(mat, x), x)
    assert got.shape == x.shape
    assert got.dtype == np.uint8
    assert np.array_equal(got, x)


def test_plan_decode_of_no_trials():
    plan, mat = decode_plan(REF, 1, 5), ref_matrix()
    for shape in [(0, 65), (2, 0, 65)]:
        x = np.zeros(shape, dtype=np.uint8)
        assert plan.decode(encode(mat, x), x).shape == shape


def test_plan_decode_batched():
    plan = decode_plan(REF, 1, 5)
    mat = ref_matrix()
    rng = np.random.default_rng(4)
    x = rng.integers(0, 2, size=(20, 65), dtype=np.uint8)
    y = encode(mat, x)
    got = plan.decode(y, x)
    assert got.shape == (20, 65)
    assert np.array_equal(got[:, 39], x[:, 39])
    assert np.array_equal(got, x)


def _explicit_decode(g, y, x):
    """Oracle: every codeword index XORs z = concat(x, y) over its explicit
    terms, 64 trials to a uint64 word, in passes of 256 indices."""
    m = g.cases.size
    z = np.concatenate([x, y], axis=1)
    trials = z.shape[0]
    packed = np.zeros((z.shape[1], 8 * -(-trials // 64)), dtype=np.uint8)
    packed[:, : -(-trials // 8)] = np.packbits(z.T, axis=1, bitorder="little")
    zw = packed.view(np.uint64)
    out = np.empty((m, zw.shape[1]), dtype=np.uint64)
    for k0 in range(0, m, 256):
        k1 = min(m, k0 + 256)
        terms, offsets, _, _ = _explicit_plan(g, k0, k1)
        out[k0:k1] = np.bitwise_xor.reduceat(zw[terms], offsets[:-1], axis=0)
    return np.unpackbits(out.view(np.uint8), axis=1, count=trials, bitorder="little").T


@pytest.mark.parametrize("trials", [1, 63, 64, 65, 130])
def test_compact_decode_equals_the_explicit_terms(trials):
    # every (m, n) with m <= 60 and three large shapes, on coded symbols
    # that x encodes (both give x back) and on unrelated ones
    shapes = [(m, n) for m in range(1, 61) for n in range(1, m + 1)] + [(2002, 11), (795, 106), (10000, 10)]
    rng = np.random.default_rng(trials)
    for m, n in shapes:
        g = _geometry(m, n)
        plan = codec.DecodePlan(problem=None, a=None, b=None, m=m, n=n, geometry=g)
        x = rng.integers(0, 2, size=(trials, m), dtype=np.uint8)
        y = encode(build_air(m, n), x)
        assert np.array_equal(plan.decode(y, x), x), (m, n)
        y = rng.integers(0, 2, size=(trials, n), dtype=np.uint8)
        assert np.array_equal(plan.decode(y, x), _explicit_decode(g, y, x)), (m, n)


def test_plan_decode_equals_the_explicit_terms_on_the_grid():
    # REF and every 8th instance of the acceptance grid, on coded symbols
    # that x encodes and on unrelated ones, over three words
    instances = grid_instances()
    rng = np.random.default_rng(23)
    for pr, pair in [(REF, make_pair(REF, 1, 5))] + instances[::8]:
        plan = decode_plan(pr, pair.a, pair.b)
        x = rng.integers(0, 2, size=(130, pair.m), dtype=np.uint8)
        assert np.array_equal(plan.decode(encode(encoding_matrix(pr, pair.a, pair.b), x), x), x), (pr, pair)
        y = rng.integers(0, 2, size=(130, pair.n), dtype=np.uint8)
        assert np.array_equal(plan.decode(y, x), _explicit_decode(plan.geometry, y, x)), (pr, pair)
    assert len(instances[::8]) > 1000


def _damaged_geometries(g, every=False):
    """(k, geometry) pairs: copies of plan geometry g, each with one
    index k's recipe damaged, at the first, a middle and the last index
    of its kind, or with ``every`` at every index.  A one-code index's
    code moves to the next column; a several-code index loses the first or
    the last of its codes, and with ``every`` also, in a third copy, gains
    the code (k + 1) mod n after its last."""
    n = g.indptr.size - 1
    single = np.flatnonzero(g.num_codes == 1)
    for k in (single if every else single[[0, single.size // 2, -1]]).tolist():
        code = g.code.copy()
        code[k] = (code[k] + 1) % n
        yield k, replace(g, code=code)
    picks = range(g.multi.size) if every else sorted({0, g.multi.size // 2, g.multi.size - 1} if g.multi.size else ())
    for i in picks:
        k, end = int(g.multi[i]), g.multi_starts[i + 1]
        for drop in (g.multi_starts[i], end - 1):
            starts = g.multi_starts.copy()
            starts[i + 1 :] -= 1
            yield k, replace(g, multi_codes=np.delete(g.multi_codes, drop), multi_starts=starts)
        if every:
            starts = g.multi_starts.copy()
            starts[i + 1 :] += 1
            yield k, replace(g, multi_codes=np.insert(g.multi_codes, end, (k + 1) % n), multi_starts=starts)


@pytest.mark.parametrize("problem,a,b", [(REF, 1, 5), (SniProblem(1001, 4, 1), 1, 2), (SniProblem(53, 6, 0), 1, 15)])
def test_plan_decode_reads_each_index_own_terms(problem, a, b):
    # each damage to one index's recipe changes exactly that symbol, in
    # some trial, on arbitrary (x, y): on coded symbols that x encodes,
    # every column's term is zero, and a wrong code would not show
    plan = decode_plan(problem, a, b)
    rng = np.random.default_rng(31)
    xw = rng.integers(0, 2**64, size=(plan.m, 2), dtype=np.uint64)
    yw = rng.integers(0, 2**64, size=(plan.n, 2), dtype=np.uint64)
    want = plan.decode_words(xw, yw)
    damaged = list(_damaged_geometries(plan.geometry))
    for k, g in damaged:
        got = replace(plan, geometry=g).decode_words(xw, yw)
        assert np.flatnonzero((got != want).any(axis=1)).tolist() == [k], (problem, k)
    assert len(damaged) == (3 if plan.geometry.multi.size == 0 else 9)


def test_plan_at_a_hundred_thousand_receivers():
    # the explicit plan would hold 10^9 terms (4 GB); the compact one is
    # O(m), and neither compiling it nor a run of it allocates much more
    pr = SniProblem(100000, 9, 4)
    air.build_air.cache_clear()
    tracemalloc.start()
    try:
        plan = decode_plan(pr, 0, 1)
        compile_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        report = run(SimConfig(pr, 0, 1, trials=32, decoder="plan"))
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert compile_peak <= 64_000_000 and run_peak <= 64_000_000
    assert report.failures == 0 and report.symbol_decodes == 32 * 100000
    x = np.random.default_rng(6).integers(0, 2, size=(32, 100000), dtype=np.uint8)
    assert np.array_equal(plan.decode(encode(encoding_matrix(pr, 0, 1), x), x), x)


@pytest.mark.parametrize("decoder", ["plan", "oracle"])
def test_gf2_decoders_reject_gf3_symbols(decoder):
    # both used to return wrong symbols without a word
    mat = ref_matrix()
    x = np.random.default_rng(5).integers(0, 3, size=(4, 65), dtype=np.uint8)
    y = encode(mat, x, 3)
    gf2 = decode_plan(REF, 1, 5) if decoder == "plan" else OracleDecoder(mat, REF, 2)
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        gf2.decode(y, x)


def test_encode_rejects_non_integer_symbols():
    # a float message used to be encoded anyway: 0.5 everywhere gave y = [1 1 1 ...]
    with pytest.raises(ValueError, match="integers"):
        encode(ref_matrix(), np.full(65, 0.5), 2)


@pytest.mark.parametrize(
    "x_shape,y_shape",
    [((4, 60), (4, 26)), ((4, 65), (4, 25)), ((4, 65), (3, 26)), ((65,), (4, 26))],
    ids=["x-too-narrow", "y-too-narrow", "trials-differ", "vector-and-batch"],
)
def test_decoders_reject_wrong_widths_and_trials(x_shape, y_shape):
    x, y = np.zeros(x_shape, dtype=np.uint8), np.zeros(y_shape, dtype=np.uint8)
    with pytest.raises(ValueError, match="symbols"):
        decode_plan(REF, 1, 5).decode(y, x)
    with pytest.raises(ValueError, match="symbols"):
        OracleDecoder(ref_matrix(), REF, 2).decode(y, x)


# ------------------------------------------------------------- verification


def test_verify_reference_instance():
    mat = ref_matrix()
    assert verify_lemma1(mat, REF, 2)
    assert verify_lemma1(mat, REF, 3)
    assert np.flatnonzero(rank_deficits(mat, REF, 2)).tolist() == []


NON_MEMBERS = NON_MEMBER_TABLE


@pytest.mark.parametrize("K,D,U,a,b", NON_MEMBERS)
def test_verify_fails_for_non_members(K, D, U, a, b):
    pr = SniProblem(K, D, U)
    mat = build_air(K * b, b * (D + 1) + a)
    assert not verify_lemma1(mat, pr, 2)
    assert not verify_lemma1(mat, pr, 3)
    assert np.flatnonzero(rank_deficits(mat, pr, 2)).tolist()


def test_rank_deficits_require_divisible_m():
    with pytest.raises(ValueError):
        rank_deficits(build_air(10, 4), SniProblem(3, 1, 1))


def literal_decodability_failures(matrix, problem, p):
    """Direct reading of the decodability condition: every row of the wanted
    block must lie outside the span of the other rows of its window."""
    b = matrix.m // problem.K
    bad = []
    for t in range(problem.K):
        blocks = list(interference(problem, t)) + [t]
        rows = np.concatenate([np.arange(blk * b, blk * b + b) for blk in blocks])
        window = matrix.bits[rows].astype(np.int64)
        wanted = range(len(rows) - b, len(rows))
        for i in wanted:
            others = np.delete(window, i, axis=0)
            if in_row_span(others, window[i], p):
                bad.append(t)
                break
    return bad


@pytest.mark.parametrize("K,D,U,a,b", [(13, 4, 1, 1, 5), (9, 2, 1, 0, 3)] + NON_MEMBERS)
def test_rank_check_equals_literal_span_check(K, D, U, a, b):
    pr = SniProblem(K, D, U)
    mat = build_air(K * b, b * (D + 1) + a)
    for p in (2, 3):
        assert np.flatnonzero(rank_deficits(mat, pr, p)).tolist() == literal_decodability_failures(mat, pr, p)


@st.composite
def small_instances(draw):
    """(K, D, U, a, b) with a generator of at most 60 rows, members of S
    and non-members alike."""
    K = draw(st.integers(2, 12))
    D = draw(st.integers(0, K - 1))
    U = draw(st.integers(0, min(D, K - 1 - D)))
    b = draw(st.integers(1, max(1, 60 // K)))
    a = draw(st.integers(0, b * (K - D - 1)))
    return K, D, U, a, b


@settings(deadline=None, max_examples=60)
@given(inst=small_instances(), p=st.sampled_from([2, 3, 5]))
def test_rank_deficits_equal_literal_span_check_on_random_instances(inst, p):
    K, D, U, a, b = inst
    pr = SniProblem(K, D, U)
    mat = build_air(K * b, b * (D + 1) + a)
    assert np.flatnonzero(rank_deficits(mat, pr, p)).tolist() == literal_decodability_failures(mat, pr, p)


def test_rank_deficits_of_non_member():
    """(13, 4, 3) with (1, 5) is not in S: the deficits, over GF(2) and
    GF(3), of receivers 0 .. 12."""
    pr = SniProblem(13, 4, 3)
    mat = build_air(65, 26)
    want = [5, 5, 3, 0, 0, 0, 0, 1, 5, 5, 5, 5, 5]
    for p in (2, 3):
        assert rank_deficits(mat, pr, p).tolist() == want
        assert np.flatnonzero(rank_deficits(mat, pr, p)).tolist() == [t for t, d in enumerate(want) if d]
    assert not rank_deficits(ref_matrix(), REF, 2).any()


@pytest.mark.parametrize("K,D,U,a,b", [(13, 4, 1, 1, 5), (13, 4, 3, 1, 5), (9, 2, 1, 0, 3), (40, 10, 5, 0, 1)])
def test_window_solve_independent_of_receiver_groups(monkeypatch, K, D, U, a, b):
    """A group budget of one receiver per group changes no output."""
    pr = SniProblem(K, D, U)
    mat = build_air(K * b, b * (D + 1) + a)
    rng = np.random.default_rng(K + D + U)
    x = rng.integers(0, 3, size=(4, mat.m), dtype=np.uint8)
    y = encode(mat, x, 3)

    def outputs():
        codec._window_stacks.cache_clear()
        codec._window_solve.cache_clear()
        groups, deficit = codec._window_solve(mat, pr, 3)
        T = dense_combining(groups, mat.n, mat.m, b)
        decoded = OracleDecoder(mat, pr, 3).decode(y, x) if not deficit.any() else None
        return T, deficit, decoded

    T, deficit, decoded = outputs()
    monkeypatch.setattr(codec, "_GROUP_BYTES", 1)
    T1, deficit1, decoded1 = outputs()
    # the second run assembled and reduced anew, one receiver per group
    assert codec._window_stacks.cache_info().misses == 1
    assert codec._window_solve.cache_info().misses == 1
    assert [g[0].size for g in codec._window_stacks(mat, pr)] == [1] * K
    assert np.array_equal(deficit1, deficit)
    assert np.array_equal(T1, T)
    if decoded is not None:
        assert np.array_equal(decoded1, decoded)
        assert np.array_equal(decoded, x)


def test_window_systems_are_assembled_once_and_reduced_once_per_field():
    mat = ref_matrix()
    codec._window_stacks.cache_clear()
    codec._window_solve.cache_clear()
    assert verify_lemma1(mat, REF, 2)
    assert verify_lemma1(mat, REF, 3)
    OracleDecoder(mat, REF, 2)
    OracleDecoder(mat, REF, 3)
    assert codec._window_stacks.cache_info().misses == 1
    assert codec._window_solve.cache_info()[:2] == (2, 2)  # hits, misses
    groups, deficit = codec._window_solve(mat, REF, 3)
    (ts, cols, T), *_ = groups
    (_, _, _, stack), *_ = codec._window_stacks(mat, REF)
    for arr in (T, deficit, ts, cols, stack):
        with pytest.raises(ValueError):
            arr[0] = 0
    codec._window_stacks.cache_clear()
    codec._window_solve.cache_clear()
    pr, non_member = SniProblem(13, 4, 3), build_air(65, 26)
    for p in (2, 3):
        assert rank_deficits(non_member, pr, p).tolist() == [5, 5, 3, 0, 0, 0, 0, 1, 5, 5, 5, 5, 5]


# ------------------------------------------------------------ oracle decoder


@pytest.mark.parametrize("p", [2, 3, 5])
def test_oracle_round_trip(p):
    mat = ref_matrix()
    rng = np.random.default_rng(11)
    x = rng.integers(0, p, size=(8, 65), dtype=np.uint8)
    y = encode(mat, x, p)
    got = OracleDecoder(mat, REF, p).decode(y, x)
    assert got.shape == x.shape
    for t in range(13):
        assert np.array_equal(got[:, 5 * t : 5 * t + 5], x[:, 5 * t : 5 * t + 5])


def test_oracle_decode_single_vector():
    mat = ref_matrix()
    rng = np.random.default_rng(12)
    x = rng.integers(0, 2, size=65, dtype=np.uint8)
    y = encode(mat, x)
    got = OracleDecoder(mat, REF).decode(y, x)
    assert got.shape == (65,)
    assert np.array_equal(got[20:25], x[20:25])


def test_oracle_raises_when_not_decodable():
    pr = SniProblem(13, 4, 3)
    mat = build_air(65, 26)
    bad = np.flatnonzero(rank_deficits(mat, pr, 2)).tolist()
    with pytest.raises(NotDecodable, match=rf"receiver {bad[0]} .*rank deficit 5"):
        OracleDecoder(mat, pr, 2)


def test_oracle_agrees_with_plan():
    plan = decode_plan(REF, 1, 5)
    mat = ref_matrix()
    rng = np.random.default_rng(13)
    x = rng.integers(0, 2, size=(10, 65), dtype=np.uint8)
    y = encode(mat, x)
    got = plan.decode(y, x)
    oracle = OracleDecoder(mat, REF, 2).decode(y, x)
    for t in range(13):
        dec = oracle[:, 5 * t : 5 * t + 5]
        for j in range(1, 6):
            assert np.array_equal(got[:, 5 * t + j - 1], dec[:, j - 1])


@pytest.mark.parametrize(
    "K,D,U,a,b",
    [
        (13, 4, 1, 1, 5),  # REF
        (9, 2, 1, 0, 3),   # windows wrap past row 0 and past row m
        (4, 3, 0, 0, 1),   # every window is the whole ring
        (12, 4, 0, 0, 1),  # b = 1: the window check of the 12 x 5 generator
    ],
)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_oracle_equals_dense_reference_on_arbitrary_symbols(K, D, U, a, b, p):
    """(y - x_t @ G) @ T_t from the dense generator, for y that is no
    encoding of x, so that no window term cancels."""
    pr = SniProblem(K, D, U)
    mat = build_air(K * b, b * (D + 1) + a)
    rng = np.random.default_rng(K * 1000 + p)
    x = rng.integers(0, p, size=(7, mat.m), dtype=np.uint8)
    y = rng.integers(0, p, size=(7, mat.n), dtype=np.uint8)
    oracle = OracleDecoder(mat, pr, p)
    T = dense_combining(codec._window_solve(mat, pr, p)[0], mat.n, mat.m, b)
    assert np.array_equal(oracle.decode(y, x), dense_oracle_decode(mat, pr, T, y, x, p))
    assert np.array_equal(oracle.decode(y[0], x[0]), dense_oracle_decode(mat, pr, T, y[0], x[0], p))


def _unknown_rows(problem, b, t):
    """Message rows of receiver t's interference blocks and wanted block."""
    return [r for blk in interference(problem, t) + (t,) for r in range(blk * b, blk * b + b)]


@pytest.mark.parametrize(
    "K,D,U,a,b", [(13, 4, 1, 1, 5), (9, 2, 1, 0, 3), (8, 1, 1, 0, 4), (13, 6, 1, 4, 5), (4, 3, 0, 0, 1)]
)
def test_decoders_read_no_unknown_symbol(K, D, U, a, b):
    """Overwriting what receiver t does not know leaves its output alone."""
    pr = SniProblem(K, D, U)
    mat = encoding_matrix(pr, a, b)
    plan = decode_plan(pr, a, b)
    rng = np.random.default_rng(K * 100 + D * 10 + U)
    for p in (2, 3):
        x = rng.integers(0, p, size=(6, mat.m), dtype=np.uint8)
        y = encode(mat, x, p)
        oracle = OracleDecoder(mat, pr, p)
        for t in range(K):
            scrambled = x.copy()
            rows = _unknown_rows(pr, b, t)
            scrambled[:, rows] = rng.integers(0, p, size=(6, len(rows)), dtype=np.uint8)
            want = slice(t * b, t * b + b)
            assert np.array_equal(oracle.decode(y, scrambled)[:, want], oracle.decode(y, x)[:, want])
            if p == 2:
                assert np.array_equal(plan.decode(y, scrambled)[:, want], plan.decode(y, x)[:, want])


def test_plan_reads_only_known_rows_on_the_grid():
    # On coded symbols that x encodes every column term is zero, and the
    # plan decoder gives x back whatever its codes are, so a round trip of
    # the whole of x shows no wrong recipe.  Here every receiver of every
    # acceptance-grid instance decodes from its own copy of x, one 64-trial
    # word, with the rows it lacks redrawn: a code set under which its
    # lacked rows do not cancel to row k changes a symbol.  And every
    # several-code index's side rows are the rows of odd multiplicity over
    # its codes but k, counted on the dense generator.
    rng = np.random.default_rng(37)
    for pr, pair in grid_instances():
        mat = encoding_matrix(pr, pair.a, pair.b)
        plan = decode_plan(pr, pair.a, pair.b)
        K, b, m = pr.K, pair.b, pair.m
        xw = rng.integers(0, 2**64, size=(m, 1), dtype=np.uint64)
        xs = np.repeat(xw, K, axis=1)
        # receiver t lacks blocks t - U .. t + D, as _unknown_rows lists them
        blocks = (np.arange(K)[:, None] + np.arange(-pr.U, pr.D + 1)) % K
        rows = (blocks[:, :, None] * b + np.arange(b)).reshape(K, -1)
        xs[rows, np.arange(K)[:, None]] = rng.integers(0, 2**64, size=rows.shape, dtype=np.uint64)
        out = plan.decode_words(xs, np.repeat(codec._encode_words(mat.csc, xw), K, axis=1))
        assert np.array_equal(out[np.arange(m), np.arange(m) // b], xw[:, 0]), (pr, pair)
        g = plan.geometry
        odd = np.add.reduceat(mat.bits[:, g.multi_codes], g.multi_starts[:-1], axis=1) % 2
        want = np.zeros_like(odd)
        want[g.multi_side, np.repeat(np.arange(g.multi.size), np.diff(g.side_starts))] = 1
        want[g.multi, np.arange(g.multi.size)] += 1  # 2 if k were a side row
        assert np.array_equal(odd, want), (pr, pair)


# -------------------------------------------------------------- cost counts


SIDE_COUNT_GRID = [(13, 4, 1, 1, 5), (9, 2, 1, 0, 3), (8, 1, 1, 0, 4), (13, 6, 1, 4, 5), (4, 3, 0, 0, 1)]


@pytest.mark.parametrize("K,D,U,a,b", SIDE_COUNT_GRID)
def test_compiled_counts_and_cases_match_entries(K, D, U, a, b):
    # the report reads the compiled arrays; the per-symbol entries are the reference
    pr = SniProblem(K, D, U)
    plan = decode_plan(pr, a, b)
    rows = [f"{t},{j},{e.case},{len(e.codes)},{len(e.side)}" for (t, j), e in sorted(plan.entries.items())]
    report = run(SimConfig(pr, a, b, trials=2, decoder="plan"))
    assert report.csv_lines()[1:-1] == rows


@pytest.mark.parametrize("K,D,U,a,b", SIDE_COUNT_GRID)
def test_predicted_side_counts_match_plans(K, D, U, a, b):
    pr = SniProblem(K, D, U)
    mat = encoding_matrix(pr, a, b)
    plan = decode_plan(pr, a, b)
    predicted = predicted_side_counts(mat, plan)
    for key, e in plan.entries.items():
        assert predicted[key] == len(e.side)
