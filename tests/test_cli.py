import hashlib
import time
import tracemalloc

import numpy as np
import pytest

from snicode.air import build_air
from snicode.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- subcommands


def test_chain_output(capsys):
    code, out, _ = run_cli(capsys, "chain", "--m", "65", "--n", "26")
    assert code == 0
    assert out == "lambda: 26,39,26,13\nbeta: 0,1,2\nl: 2\ngcd: 13\n"


def test_air_output_parses_back(capsys):
    code, out, _ = run_cli(capsys, "air", "--m", "7", "--n", "3")
    assert code == 0
    header, *rows = out.splitlines()
    m, n = map(int, header.split())
    assert (m, n) == (7, 3)
    bits = np.array([[int(v) for v in row] for row in rows], dtype=np.uint8)
    assert np.array_equal(bits, build_air(7, 3).bits)
    assert out.splitlines()[-1] == "111"


def test_pairs_output(capsys):
    code, out, _ = run_cli(capsys, "pairs", "--K", "13", "--D", "4", "--U", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "K,D,U,a,b,rate,m,n"
    assert lines[1] == "13,4,1,3,2,13/2=6.5000,26,13"       # canonical
    assert lines[2] == "13,4,1,1,5,26/5=5.2000,65,26"       # best at b_max=64


def test_pairs_u0_note(capsys):
    code, out, _ = run_cli(capsys, "pairs", "--K", "9", "--D", "2", "--U", "0")
    assert code == 0
    assert "# note: U=0" in out.splitlines()[1]


def test_table_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "--K", "7", "--b-max", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "K,D,U,a,b,rate,m,n"
    # (D, U) pairs with 1 <= U <= D, U + D < 7, D <= min(15, K - 2) = 5
    expected = [(d, u) for d in range(1, 6) for u in range(1, d + 1) if u + d < 7]
    assert len(lines) - 1 == len(expected)
    for line, (d, u) in zip(lines[1:], expected):
        parts = line.split(",")
        assert parts[:3] == ["7", str(d), str(u)]


def test_pairs_answers_at_once_for_a_large_cap(capsys):
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "pairs", "--K", "7", "--D", "2", "--U", "1", "--b-max", "3000000")
    assert time.monotonic() - start < 5
    assert code == 0
    # the canonical pair is the best one
    assert out.splitlines()[1:] == ["7,2,1,1,2,7/2=3.5000,14,7"] * 2


def test_table_with_a_large_cap_equals_the_cap_of_K(capsys):
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "table", "--K", "40", "--b-max", "1000000")
    assert time.monotonic() - start < 5
    assert code == 0
    # no pair past b = K // (U+1) <= 40 is ever the best
    assert (code, out) == run_cli(capsys, "table", "--K", "40", "--b-max", "40")[:2]


def test_encode_symbolic(capsys):
    code, out, _ = run_cli(
        capsys, "encode", "--K", "13", "--D", "4", "--U", "1",
        "--a", "1", "--b", "5", "--symbolic",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c_0 = x_{0,1} + x_{5,2} + x_{10,3}"
    assert len(lines) == 26


def test_encode_explicit_vector(capsys):
    x = [0] * 65
    x[0], x[26], x[52] = 1, 1, 1  # the support of column 0
    code, out, _ = run_cli(
        capsys, "encode", "--K", "13", "--D", "4", "--U", "1",
        "--a", "1", "--b", "5", "--x", ",".join(map(str, x)),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x " + ",".join(map(str, x))
    y = list(map(int, lines[1][2:].split(",")))
    assert y[0] == 1  # 1+1+1 mod 2
    assert sum(y) >= 1


def test_encode_seeded_is_reproducible(capsys):
    args = ("encode", "--K", "9", "--D", "2", "--U", "1", "--a", "0", "--b", "3", "--seed", "5")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_encode_rejects_wrong_length(capsys):
    code, _, err = run_cli(
        capsys, "encode", "--K", "13", "--D", "4", "--U", "1",
        "--a", "1", "--b", "5", "--x", "1,0,1",
    )
    assert code == 1
    assert "65" in err


def test_encode_rejects_out_of_field_symbols(capsys):
    code, _, err = run_cli(
        capsys, "encode", "--K", "4", "--D", "3", "--U", "0",
        "--a", "0", "--b", "1", "--x", "0,1,2,0",
    )
    assert code == 1
    assert "[0, 2)" in err


def test_encode_x_and_symbolic_exclude_each_other(capsys):
    # --symbolic used to drop --x, even one of the wrong length, and exit 0
    code, out, err = run_cli(
        capsys, "encode", "--K", "13", "--D", "4", "--U", "1",
        "--a", "1", "--b", "5", "--symbolic", "--x", "1,0,1",
    )
    assert code == 1
    assert out == ""
    assert "--x: not allowed with argument --symbolic" in err


def test_encode_non_member_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "encode", "--K", "13", "--D", "4", "--U", "3", "--a", "1", "--b", "5",
    )
    assert code == 1
    assert "not achievable" in err


@pytest.mark.parametrize(
    "cmd,a,b,reason",
    [
        ("encode", "21", "1", "a = 21 outside [0, b*(K-D-1)] = [0, 8]"),
        ("plan", "1", "0", "b = 0 < 1"),
        ("verify", "21", "1", "a = 21 outside [0, b*(K-D-1)] = [0, 8]"),
        ("verify", "-1", "1", "a = -1 outside [0, b*(K-D-1)] = [0, 8]"),
    ],
)
def test_out_of_range_pair_names_the_range(capsys, cmd, a, b, reason):
    code, out, err = run_cli(capsys, cmd, "--K", "13", "--D", "4", "--U", "1", "--a", a, "--b", b)
    assert code == 1
    assert reason in out + err
    assert "gcd" not in out + err


def test_plan_full_listing(capsys):
    code, out, _ = run_cli(
        capsys, "plan", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5",
    )
    assert code == 0
    assert len(out.splitlines()) == 65


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["plan"], "5b390ea5eb100e69c60c311956e583296c9dc1494beea8beb38abd69c809c17b"),
        (["simulate", "--format", "csv"], "6d484dbc2b7ab71424a430de2bdfcfcd34404b8d79ea04dbc33fb6c827c6dc16"),
    ],
    ids=["plan", "csv"],
)
def test_reference_listing_and_csv_report_are_frozen(capsys, argv, digest):
    # sha256 of the worked instance's full plan listing and CSV report,
    # frozen when the plan still held its per-index counts and row places
    code, out, _ = run_cli(capsys, *argv[:1], "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5", *argv[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_plan_single_entry(capsys):
    code, out, _ = run_cli(
        capsys, "plan", "--K", "13", "--D", "4", "--U", "1",
        "--a", "1", "--b", "5", "--t", "7", "--j", "5",
    )
    assert code == 0
    assert out == "7 5 CASE II codes 0,13 side (0,1);(2,4);(5,2)\n"


def test_plan_single_entry_at_a_hundred_thousand_receivers(capsys):
    # every symbol's line would list about m^2 / n = 10^9 side rows; the
    # line of one symbol reads its own column's support alone
    K, t = 100000, 5
    tracemalloc.start()
    try:
        code, out, _ = run_cli(
            capsys, "plan", "--K", str(K), "--D", "9", "--U", "4",
            "--a", "0", "--b", "1", "--t", str(t), "--j", "1",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 64_000_000
    side = ";".join(f"({r},1)" for r in build_air(K, 10).column_support(t).tolist() if r != t)
    assert out == f"{t} 1 CASE I codes {t} side {side}\n"


def test_plan_t_without_j_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "plan", "--K", "13", "--D", "4", "--U", "1",
        "--a", "1", "--b", "5", "--t", "7",
    )
    assert code == 1
    assert "together" in err


def test_plan_out_of_range_symbol(capsys):
    code, _, err = run_cli(
        capsys, "plan", "--K", "13", "--D", "4", "--U", "1",
        "--a", "1", "--b", "5", "--t", "13", "--j", "1",
    )
    assert code == 1


def test_verify_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "pair (a=1, b=5): gcd(65, 26) = 13 >= b*(U+1) = 10 -> member"
    )
    assert lines[1] == "PASS: all 13 receivers isolate their block over GF(2)"


def test_verify_non_member_fails_exit_2(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--K", "13", "--D", "4", "--U", "3", "--a", "1", "--b", "5",
    )
    assert code == 2
    lines = out.splitlines()
    assert "gcd(65, 26) = 13 < b*(U+1) = 20 -> not a member" in lines[0]
    assert lines[1].startswith("FAIL: receivers ")


@pytest.mark.parametrize("p", ["2", "3"])
def test_verify_reports_rank_deficits(capsys, p):
    code, out, _ = run_cli(
        capsys, "verify", "--K", "13", "--D", "4", "--U", "3", "--a", "1", "--b", "5", "--p", p,
    )
    assert code == 2
    lines = out.splitlines()
    assert lines[1] == f"FAIL: receivers [0, 1, 2, 7, 8, 9, 10, 11, 12] cannot isolate their block over GF({p})"
    deficits = {0: 5, 1: 5, 2: 3, 7: 1, 8: 5, 9: 5, 10: 5, 11: 5, 12: 5}
    assert lines[2:] == [f"receiver {t}: rank deficit {d} over GF({p})" for t, d in deficits.items()]


def test_simulate_text(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--K", "13", "--D", "4", "--U", "1",
        "--a", "1", "--b", "5", "--trials", "10",
    )
    assert code == 0
    assert "failures: 0" in out


def test_simulate_csv(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--K", "9", "--D", "2", "--U", "1",
        "--a", "0", "--b", "3", "--trials", "5", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,j,case,num_codes,num_side"
    assert lines[-1].startswith("# trials=5 failures=0")


def test_simulate_oracle_p3(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--K", "13", "--D", "4", "--U", "1", "--a", "1",
        "--b", "5", "--p", "3", "--decoder", "oracle", "--trials", "5",
    )
    assert code == 0
    assert "failures: 0" in out


# ----------------------------------------------------------------- bad usage


def test_missing_required_flag_exits_1(capsys):
    code, _, err = run_cli(capsys, "pairs", "--K", "13", "--D", "4")
    assert code == 1
    assert "error" in err


def test_unknown_command_exits_1(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_bad_problem_parameters_exit_1(capsys):
    code, _, err = run_cli(
        capsys, "pairs", "--K", "5", "--D", "3", "--U", "2",
    )
    assert code == 1
    assert "U + D < K" in err or "need" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("pairs", "--K", "13", "--D", "4", "--U", "1", "--b-max", "0"),
        ("table", "--K", "7", "--b-max", "0"),
        ("table", "--K", "2", "--b-max", "0"),
        ("table", "--K", "0"),
        ("table", "--K", "2"),
        ("table", "--K", "7", "--D-max", "-5"),
        ("table", "--K", "7", "--D-max", "0"),
        ("table", "--K", "2", "--D-max", "3"),
        ("simulate", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5", "--trials", "0"),
        ("verify", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5", "--p", "4"),
        ("verify", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5", "--p", "1"),
        ("encode", "--K", "7", "--D", "2", "--U", "0", "--a", "0", "--b", "1",
         "--p", "257", "--x", "256,0,0,0,0,0,0"),
        ("encode", "--K", "7", "--D", "2", "--U", "0", "--a", "0", "--b", "1",
         "--p", "3", "--x", "0,1,2,3,0,0,0"),
        ("encode", "--K", "7", "--D", "2", "--U", "0", "--a", "0", "--b", "1",
         "--x", "99999999999999999999,0,0,0,0,0,0"),
        ("encode", "--K", "7", "--D", "2", "--U", "0", "--a", "0", "--b", "1",
         "--x=-99999999999999999999,0,0,0,0,0,0"),
        ("simulate", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5",
         "--p", "4", "--decoder", "oracle", "--trials", "5"),
        ("simulate", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5", "--seed", "-1"),
        ("encode", "--K", "7", "--D", "2", "--U", "0", "--a", "0", "--b", "1", "--seed", "-1"),
        ("encode", "--K", "7", "--D", "2", "--U", "0", "--a", "0", "--b", "1", "--x", "1,,2"),
        ("encode", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5", "--p", "0"),
        ("encode", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5", "--p", "-3"),
    ],
    ids=["pairs-b-max-0", "table-b-max-0", "table-K-2-b-max-0", "table-K-0", "table-K-2", "table-D-max--5",
         "table-D-max-0", "table-K-2-D-max-3", "simulate-trials-0", "verify-p-4", "verify-p-1",
         "encode-p-257", "encode-x-3-over-gf3", "encode-x-past-int64", "encode-x-below-int64", "simulate-p-4",
         "simulate-seed--1", "encode-seed--1", "encode-x-empty-field", "encode-p-0", "encode-p--3"],
)
def test_inputs_that_cannot_be_honoured_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert any(line.startswith("error: ") for line in err.splitlines())
    assert "Traceback" not in err
    assert "PASS" not in out
    if argv[0] in ("pairs", "table", "verify"):
        assert out == ""


@pytest.mark.parametrize(
    "argv,want",
    [
        (("simulate", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5", "--seed", "-1"), "--seed"),
        (("encode", "--K", "7", "--D", "2", "--U", "0", "--a", "0", "--b", "1", "--seed", "-1"), "--seed"),
        (("encode", "--K", "7", "--D", "2", "--U", "0", "--a", "0", "--b", "1", "--x", "1,,2"), "--x field 2 is empty"),
        # a draw from [0, p) used to fail inside numpy with "high <= 0"
        (("encode", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5", "--p", "0"), "p=0 is not a prime"),
        (("encode", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5", "--p", "-3"), "p=-3 is not a prime"),
    ],
)
def test_bad_seed_and_symbols_name_their_option(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert want in err


def test_plan_flag_pair_is_checked_before_the_plan_is_compiled(capsys, monkeypatch):
    import snicode.codec

    def compile_plan(*args):
        raise AssertionError("compiled the plan")

    monkeypatch.setattr(snicode.codec, "decode_plan", compile_plan)
    for flag in ("--t", "--j"):
        code, out, err = run_cli(capsys, "plan", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5", flag, "1")
        assert (code, out) == (1, "")
        assert err == "error: --t and --j must be given together\n"


def test_allocation_failure_exits_1_with_one_error_line(capsys, monkeypatch):
    import snicode.air

    def fail(m, n):
        raise MemoryError

    monkeypatch.setattr(snicode.air, "build_air", fail)
    code, out, err = run_cli(capsys, "air", "--m", "200000000", "--n", "3")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


def test_package_exports_each_name_once():
    import snicode
    from snicode import air, codec, distances, rates, sim

    names = [n for mod in (air, codec, distances, rates, sim) for n in mod.__all__]
    assert sorted(snicode.__all__) == sorted(names + ["__version__"])
    assert len(set(snicode.__all__)) == len(snicode.__all__)
    assert all(hasattr(snicode, n) for n in snicode.__all__)
