from dataclasses import replace

import numpy as np
import pytest

from snicode import codec, sim
from snicode.cli import main
from snicode.codec import DecodePlan
from snicode.rates import SniProblem
from snicode.sim import SimConfig, run

from test_codec import _damaged_geometries

REF = SniProblem(13, 4, 1)


def config(**kw):
    base = dict(problem=REF, a=1, b=5, trials=25, seed=7)
    base.update(kw)
    return SimConfig(**base)


def test_run_reference_instance_clean():
    report = run(config())
    assert report.failures == 0
    assert report.plan_failures == 0
    assert report.oracle_failures == 0
    assert report.disagreements == 0
    # both decoders, 25 trials x 65 symbols each
    assert report.symbol_decodes == 2 * 25 * 65
    assert report.details == []


def test_run_is_reproducible():
    r1 = run(config())
    r2 = run(config())
    assert r1.failures == r2.failures
    assert r1.symbol_decodes == r2.symbol_decodes
    assert r1.csv_lines() == r2.csv_lines()


def test_run_oracle_only_p3():
    report = run(config(p=3, decoder="oracle", trials=10))
    assert report.failures == 0
    assert report.symbol_decodes == 10 * 65


@pytest.mark.parametrize("p", [2, 3])
def test_oracle_catches_a_faulty_encoder(monkeypatch, p):
    """An encoder that gets one coded symbol wrong makes the oracle fail, so
    the oracle takes x @ G from the generator itself, never from the
    encoder: over GF(2) the word encoder that sim.run calls, over GF(3)
    encode."""
    if p == 2:
        name, real = "_encode_words", codec._encode_words

        def faulty(matrix, xw):
            yw = real(matrix, xw)
            yw[0] = ~yw[0]  # coded symbol 0 of every trial
            return yw
    else:
        name, real = "encode", codec.encode

        def faulty(matrix, x, p=2):
            y = real(matrix, x, p)
            y[..., 0] = (y[..., 0] + 1) % p
            return y

    monkeypatch.setattr(codec, name, faulty)
    monkeypatch.setattr(sim, name, faulty)
    report = run(config(p=p, decoder="oracle", trials=10))
    assert report.oracle_failures > 0


def test_run_rejects_plan_at_odd_p():
    with pytest.raises(ValueError):
        run(config(p=3))
    with pytest.raises(ValueError):
        run(config(p=3, decoder="both"))


def test_run_rejects_unknown_decoder():
    with pytest.raises(ValueError):
        run(config(decoder="magic"))


@pytest.mark.parametrize("trials", [0, -1])
def test_run_rejects_no_trials(trials):
    with pytest.raises(ValueError):
        run(config(trials=trials))


@pytest.mark.parametrize("p", [1, 4, 257])
def test_run_rejects_bad_field(p):
    with pytest.raises(ValueError):
        run(config(p=p, decoder="oracle"))


def test_text_report_shape():
    report = run(config(trials=5))
    text = report.text()
    lines = text.splitlines()
    assert lines[0].startswith("simulation K=13 D=4 U=1 a=1 b=5 p=2 trials=5 seed=7")
    assert lines[1] == "rng: numpy default_rng (PCG64)"
    assert lines[2].startswith("rate: 26/5=5.2000")
    assert sum(1 for ln in lines if ln.startswith("t=")) == 13
    assert lines[-2].endswith("; 5 receivers, 25 symbols checked")
    assert lines[-1].startswith("failures: 0 (plan 0, oracle 0, disagreements 0)")
    assert report.symbol_decodes == 2 * 5 * 65
    # trials past K check each receiver again; the oracle alone checks no view
    assert run(config(trials=30)).text().splitlines()[-2].endswith("; 13 receivers, 150 symbols checked")
    assert not any(ln.startswith("plan check") for ln in run(config(decoder="oracle")).text().splitlines())


def test_run_counts_and_reports_wrong_symbols(monkeypatch):
    decode_words = DecodePlan.decode_words

    def flip_symbol_7(self, xw, yw):
        out = decode_words(self, xw, yw)
        out[7] = ~out[7]  # symbol (t, j) = (1, 3) of every trial
        return out

    monkeypatch.setattr(DecodePlan, "decode_words", flip_symbol_7)
    report = run(config())
    # of the 25 trials, only 1 and 14 check receiver 1 (trial i checks i mod 13)
    assert (report.plan_failures, report.oracle_failures, report.disagreements) == (2, 0, 2)
    assert report.details == [(kind, 1, 3, trial) for kind in ("plan", "disagree") for trial in (1, 14)]
    lines = report.text().splitlines()
    assert lines[-5].startswith("failures: 4 (plan 2, oracle 0, disagreements 2)")
    assert lines[-4:] == [f"  {kind} t=1 j=3 trial={trial}" for kind in ("plan", "disagree") for trial in (1, 14)]


def _flip(out, trial, symbol):
    out[symbol, trial // 64] ^= np.uint64(1 << trial % 64)


def test_run_lists_mismatches_in_symbol_order(monkeypatch):
    decode_words = DecodePlan.decode_words

    def flip_some(self, xw, yw):
        out = decode_words(self, xw, yw)
        # symbols (1, 3) and (0, 4), not in that order, on trials that check
        # their receivers, and symbol (0, 4) on trial 2, which checks receiver 2
        for trial, symbol in [(14, 7), (0, 3), (13, 3), (2, 3)]:
            _flip(out, trial, symbol)
        return out

    monkeypatch.setattr(DecodePlan, "decode_words", flip_some)
    report = run(config())
    assert (report.plan_failures, report.oracle_failures, report.disagreements) == (3, 0, 3)
    want = [(0, 4, 0), (0, 4, 13), (1, 3, 14)]
    assert report.details == [("plan", *d) for d in want] + [("disagree", *d) for d in want]
    assert report.text().splitlines()[-7:] == [
        "failures: 6 (plan 3, oracle 0, disagreements 3) over 3250 symbol decodes",
        *[f"  {kind} t={t} j={j} trial={trial}" for kind in ("plan", "disagree") for t, j, trial in want],
    ]


@pytest.mark.parametrize("trials", [65, 130])
def test_run_on_padded_words_is_clean(trials):
    # two and three words, the last one padded
    report = run(config(trials=trials))
    assert (report.failures, report.details) == (0, [])
    assert report.symbol_decodes == 2 * trials * 13 * 5


@pytest.mark.parametrize("trials", [65, 130])
def test_fault_in_the_last_trial_of_a_padded_word_counts_once(monkeypatch, trials):
    decode_words = DecodePlan.decode_words

    def flip_last_trial(self, xw, yw):
        out = decode_words(self, xw, yw)
        _flip(out, trials - 1, 62)  # symbol (12, 3); trials 64 and 129 check receiver 12
        out[:, -1] |= ~(np.uint64(2**64 - 1) >> np.uint64(-trials % 64))  # every padding bit
        return out

    monkeypatch.setattr(DecodePlan, "decode_words", flip_last_trial)
    report = run(config(trials=trials))
    assert (report.plan_failures, report.oracle_failures, report.disagreements) == (1, 0, 1)
    assert report.details == [("plan", 12, 3, trials - 1), ("disagree", 12, 3, trials - 1)]


def test_plan_run_unpacks_no_symbols(monkeypatch):
    # a clean GF(2) plan run draws, encodes, decodes and compares words and
    # never makes a (trials, m) symbol array
    def refuse(*args, **kw):
        raise AssertionError("sim.run made symbols")

    for name in ("_pack", "_unpack", "encode"):
        monkeypatch.setattr(codec, name, refuse)
        monkeypatch.setattr(sim, name, refuse)
    report = run(config(trials=130, decoder="plan"))
    assert report.failures == 0
    assert report.symbol_decodes == 130 * 65


def test_run_builds_no_plan_entries(monkeypatch):
    # the per-symbol view of a plan is for listings; a run and its report
    # read the compiled arrays
    def refuse(**kw):
        raise AssertionError("sim.run built a PlanEntry")

    monkeypatch.setattr(codec, "PlanEntry", refuse)
    report = run(config(trials=3))
    assert report.failures == 0
    assert len(report.csv_lines()) == 1 + 65 + 1
    assert report.text().splitlines()[-1].startswith("failures: 0")


def test_csv_report_shape():
    report = run(config(trials=5))
    lines = report.csv_lines()
    assert lines[0] == "t,j,case,num_codes,num_side"
    assert len(lines) == 1 + 65 + 1
    assert lines[1] == "0,1,I,1,2"
    assert lines[-1] == "# trials=5 failures=0 rate=26/5=5.2000"



def test_a_damaged_plan_fails_the_run_and_names_its_symbol(monkeypatch, capsys):
    # every one-code index with its code moved, and every several-code index
    # with its first or last code dropped or a code added: at 832 trials
    # each receiver decodes its view on 64 lanes, and every fault shows
    plan = codec.decode_plan(REF, 1, 5)
    damaged = list(_damaged_geometries(plan.geometry, every=True))
    assert len(damaged) == 91
    argv = ["simulate", "--K", "13", "--D", "4", "--U", "1", "--a", "1", "--b", "5", "--trials", "832",
            "--decoder", "plan"]
    for k, g in damaged:
        monkeypatch.setattr(sim, "decode_plan", lambda *args, g=g: replace(plan, geometry=g))
        report = run(config(trials=832, decoder="plan"))
        assert report.plan_failures > 0, k
        assert {(t, j) for _, t, j, _ in report.details} == {(k // 5, k % 5 + 1)}, k
        assert main(argv) == 2, k
        assert f"  plan t={k // 5} j={k % 5 + 1} trial=" in capsys.readouterr().out


@pytest.mark.parametrize("problem,a,b", [(REF, 1, 5), (SniProblem(1001, 4, 1), 1, 2), (SniProblem(12, 2, 2), 0, 1)])
def test_view_masks_equal_the_windows(problem, a, b):
    # trial i's view is x with receiver (i mod K)'s window zeroed, and its
    # block is the one checked; the b = 1 windows wrap past row m - 1
    matrix = codec.encoding_matrix(problem, a, b)
    m, K = matrix.m, problem.K
    rows = np.arange(m)[:, None]
    for trials in (1, 64, 65, K, 64 * K):
        known, mine = matrix.derived(sim._view_masks, problem, trials)
        assert known.shape == mine.shape == (m, -(-trials // 64))
        assert known.dtype == mine.dtype == np.uint64
        for w in range(known.shape[1]):
            i = np.arange(64 * w, 64 * w + 64)
            first, size = codec._window(problem, b, i % K)
            live = i < trials  # padding bits stay zero
            want_known = ((rows - first) % m >= size) & live
            want_mine = (rows // b == i % K) & live
            for got, want in ((known, want_known), (mine, want_mine)):
                bits = np.unpackbits(got[:, w : w + 1].view(np.uint8), axis=1, bitorder="little")
                assert np.array_equal(bits, want), (problem, trials, w)
