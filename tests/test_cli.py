import numpy as np
import pytest

from snicode.air import parse_matrix
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
    m, n, bits = parse_matrix(out)
    assert (m, n) == (7, 3)
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


def test_encode_non_member_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "encode", "--K", "13", "--D", "4", "--U", "3", "--a", "1", "--b", "5",
    )
    assert code == 1
    assert "not achievable" in err


def test_plan_full_listing(capsys):
    code, out, _ = run_cli(
        capsys, "plan", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5",
    )
    assert code == 0
    assert len(out.splitlines()) == 65


def test_plan_single_entry(capsys):
    code, out, _ = run_cli(
        capsys, "plan", "--K", "13", "--D", "4", "--U", "1",
        "--a", "1", "--b", "5", "--t", "7", "--j", "5",
    )
    assert code == 0
    assert out == "7 5 CASE II codes 0,13 side (0,1);(2,4);(5,2)\n"


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
        ("simulate", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5", "--trials", "0"),
        ("verify", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5", "--p", "4"),
        ("verify", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5", "--p", "1"),
        ("encode", "--K", "7", "--D", "2", "--U", "0", "--a", "0", "--b", "1",
         "--p", "257", "--x", "256,0,0,0,0,0,0"),
        ("encode", "--K", "7", "--D", "2", "--U", "0", "--a", "0", "--b", "1",
         "--p", "3", "--x", "0,1,2,3,0,0,0"),
        ("simulate", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5",
         "--p", "4", "--decoder", "oracle", "--trials", "5"),
    ],
    ids=["pairs-b-max-0", "table-b-max-0", "simulate-trials-0", "verify-p-4", "verify-p-1",
         "encode-p-257", "encode-x-3-over-gf3", "simulate-p-4"],
)
def test_inputs_that_cannot_be_honoured_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert any(line.startswith("error: ") for line in err.splitlines())
    assert "Traceback" not in err
    assert "PASS" not in out


def test_package_exports_each_name_once():
    import snicode
    from snicode import air, codec, distances, rates, sim

    names = [n for mod in (air, codec, distances, rates, sim) for n in mod.__all__]
    assert sorted(snicode.__all__) == sorted(names + ["__version__"])
    assert len(set(snicode.__all__)) == len(snicode.__all__)
    assert all(hasattr(snicode, n) for n in snicode.__all__)
