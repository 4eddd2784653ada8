import numpy as np
import pytest

from snicode import codec, gf
from snicode.air import build_air
from snicode.codec import (
    NotAchievablePair,
    NotDecodable,
    OracleDecoder,
    PlanError,
    check_field,
    complexity_stats,
    decode_plan,
    encode,
    encoding_matrix,
    format_plan,
    lemma1_failures,
    predicted_side_counts,
    symbolic_codes,
    verify_lemma1,
)
from snicode.rates import SniProblem
from snicode.sim import SimConfig, run

from _reference_tables import NON_MEMBERS as NON_MEMBER_TABLE
from _reference_tables import REF_CODE_LINES, REF_DECODE_CODES

REF = SniProblem(13, 4, 1)  # the worked (K, D, U) = (13, 4, 1) instance, (a, b) = (1, 5)


def ref_matrix():
    return encoding_matrix(REF, 1, 5)


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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 251])
def test_check_field_accepts_uint8_primes(p):
    check_field(p)


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9, 250, 257])
def test_check_field_rejects_non_primes_and_wide_fields(p):
    # 257 is prime, but its symbols would wrap in the uint8 outputs
    with pytest.raises(ValueError):
        check_field(p)
    mat = ref_matrix()
    with pytest.raises(ValueError):
        encode(mat, np.zeros(65, dtype=np.int64), p)
    with pytest.raises(ValueError):
        lemma1_failures(mat, REF, p)
    with pytest.raises(ValueError):
        OracleDecoder(mat, REF, 0, p)


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
    e = decode_plan(REF, 1, 5).entry(7, 5)
    assert e.case == "II"
    assert e.codes == (0, 13)
    assert e.side == (0, 13, 26)        # x_{0,1}, x_{2,4}, x_{5,2}
    assert 52 in e.cancelled             # x_{10,3} appears in both codes


def test_plan_side_rows_are_known_side_information():
    for problem, a, b in [(REF, 1, 5), (SniProblem(9, 2, 1), 0, 3), (SniProblem(8, 1, 1), 0, 4)]:
        plan = decode_plan(problem, a, b)
        for (t, j), e in plan.entries.items():
            known = set(problem.side_info(t))
            assert {r // b for r in e.side} <= known


def test_decode_plan_rejects_side_rows_the_receiver_lacks(monkeypatch):
    # REF's compiled plan reads side rows from blocks 5 to 11 ahead of each
    # receiver; with U = 3 instead of 1 the receivers lack the blocks 10 to
    # 12 ahead, and entry (0, 1) reads row 52 from block 10.  (13, 4, 3) is
    # no member for (1, 5), so admit it to reach the plan's own check.
    lo, hi = codec._side_offset_range(65, 26, 5)
    assert REF.D < lo and hi < REF.K - REF.U
    lacking = SniProblem(13, 4, 3)
    assert hi >= lacking.K - lacking.U
    monkeypatch.setattr(codec, "in_S", lambda problem, a, b: True)
    with pytest.raises(PlanError, match="t=0, j=1 uses row 52 from block 10"):
        decode_plan(lacking, 1, 5)


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
    pr = SniProblem(K, D, U)
    blocks = np.arange(K)
    for t in range(K):
        known = set(pr.side_info(t))
        assert [bool(k) for k in codec._known(pr, t, blocks)] == [blk in known for blk in blocks]
        assert all(codec._known(pr, t, blk) == (blk in known) for blk in range(K))


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


# ------------------------------------------------------------- verification


def test_verify_reference_instance():
    mat = ref_matrix()
    assert verify_lemma1(mat, REF, 2)
    assert verify_lemma1(mat, REF, 3)
    assert lemma1_failures(mat, REF, 2) == []


NON_MEMBERS = NON_MEMBER_TABLE


@pytest.mark.parametrize("K,D,U,a,b", NON_MEMBERS)
def test_verify_fails_for_non_members(K, D, U, a, b):
    pr = SniProblem(K, D, U)
    mat = build_air(K * b, b * (D + 1) + a)
    assert not verify_lemma1(mat, pr, 2)
    assert not verify_lemma1(mat, pr, 3)
    assert lemma1_failures(mat, pr, 2)


def test_lemma1_failures_requires_divisible_m():
    with pytest.raises(ValueError):
        lemma1_failures(build_air(10, 4), SniProblem(3, 1, 1))


def literal_decodability_failures(matrix, problem, p):
    """Direct reading of the decodability condition: every row of the wanted
    block must lie outside the span of the other rows of its window."""
    b = matrix.m // problem.K
    bad = []
    for t in range(problem.K):
        blocks = list(problem.interference(t)) + [t]
        rows = np.concatenate([np.arange(blk * b, blk * b + b) for blk in blocks])
        window = matrix.bits[rows].astype(np.int64)
        wanted = range(len(rows) - b, len(rows))
        for i in wanted:
            others = np.delete(window, i, axis=0)
            if gf.in_row_span(others, window[i], p):
                bad.append(t)
                break
    return bad


@pytest.mark.parametrize("K,D,U,a,b", [(13, 4, 1, 1, 5), (9, 2, 1, 0, 3)] + NON_MEMBERS)
def test_rank_check_equals_literal_span_check(K, D, U, a, b):
    pr = SniProblem(K, D, U)
    mat = build_air(K * b, b * (D + 1) + a)
    for p in (2, 3):
        assert lemma1_failures(mat, pr, p) == literal_decodability_failures(mat, pr, p)


# ------------------------------------------------------------ oracle decoder


@pytest.mark.parametrize("p", [2, 3, 5])
def test_oracle_round_trip(p):
    mat = ref_matrix()
    rng = np.random.default_rng(11)
    x = rng.integers(0, p, size=(8, 65), dtype=np.uint8)
    y = encode(mat, x, p)
    for t in range(13):
        got = OracleDecoder(mat, REF, t, p).decode(y, x)
        assert np.array_equal(got, x[:, 5 * t : 5 * t + 5])


def test_oracle_decode_single_vector():
    mat = ref_matrix()
    rng = np.random.default_rng(12)
    x = rng.integers(0, 2, size=65, dtype=np.uint8)
    y = encode(mat, x)
    assert np.array_equal(OracleDecoder(mat, REF, 4).decode(y, x), x[20:25])


def test_oracle_raises_when_not_decodable():
    pr = SniProblem(13, 4, 3)
    mat = build_air(65, 26)
    bad = lemma1_failures(mat, pr, 2)
    with pytest.raises(NotDecodable):
        OracleDecoder(mat, pr, bad[0], 2)


def test_oracle_agrees_with_plan():
    plan = decode_plan(REF, 1, 5)
    mat = ref_matrix()
    rng = np.random.default_rng(13)
    x = rng.integers(0, 2, size=(10, 65), dtype=np.uint8)
    y = encode(mat, x)
    got = plan.decode(y, x)
    for t in range(13):
        dec = OracleDecoder(mat, REF, t, 2).decode(y, x)
        for j in range(1, 6):
            assert np.array_equal(got[:, 5 * t + j - 1], dec[:, j - 1])


def _unknown_rows(problem, b, t):
    """Message rows of receiver t's interference blocks and wanted block."""
    return [r for blk in problem.interference(t) + (t,) for r in range(blk * b, blk * b + b)]


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
        for t in range(K):
            scrambled = x.copy()
            rows = _unknown_rows(pr, b, t)
            scrambled[:, rows] = rng.integers(0, p, size=(6, len(rows)), dtype=np.uint8)
            oracle = OracleDecoder(mat, pr, t, p)
            assert np.array_equal(oracle.decode(y, scrambled), oracle.decode(y, x))
            if p == 2:
                want = slice(t * b, t * b + b)
                assert np.array_equal(plan.decode(y, scrambled)[:, want], plan.decode(y, x)[:, want])


# -------------------------------------------------------------- cost counts


def test_complexity_stats_reference():
    plan = decode_plan(REF, 1, 5)
    stats = complexity_stats(plan)
    assert stats[(0, 1)] == {"num_codes": 1, "num_side": 2}
    assert stats[(7, 5)] == {"num_codes": 2, "num_side": 3}
    assert stats[(10, 3)] == {"num_codes": 1, "num_side": 2}


SIDE_COUNT_GRID = [(13, 4, 1, 1, 5), (9, 2, 1, 0, 3), (8, 1, 1, 0, 4), (13, 6, 1, 4, 5), (4, 3, 0, 0, 1)]


@pytest.mark.parametrize("K,D,U,a,b", SIDE_COUNT_GRID)
def test_compiled_counts_and_cases_match_entries(K, D, U, a, b):
    pr = SniProblem(K, D, U)
    plan = decode_plan(pr, a, b)
    stats = {key: {"num_codes": len(e.codes), "num_side": len(e.side)} for key, e in plan.entries.items()}
    cases = {key: e.case for key, e in plan.entries.items()}
    assert complexity_stats(plan) == stats
    assert plan.cases() == cases
    report = run(SimConfig(pr, a, b, trials=2, decoder="plan"))
    assert report.stats == stats
    assert report.cases == cases


@pytest.mark.parametrize("K,D,U,a,b", SIDE_COUNT_GRID)
def test_predicted_side_counts_match_plans(K, D, U, a, b):
    pr = SniProblem(K, D, U)
    mat = encoding_matrix(pr, a, b)
    plan = decode_plan(pr, a, b)
    predicted = predicted_side_counts(mat, plan)
    for key, e in plan.entries.items():
        assert predicted[key] == len(e.side)
