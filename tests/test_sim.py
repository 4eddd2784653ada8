import numpy as np
import pytest

from snicode import codec, sim
from snicode.codec import DecodePlan
from snicode.rates import SniProblem
from snicode.sim import SimConfig, run


def config(**kw):
    base = dict(problem=SniProblem(13, 4, 1), a=1, b=5, trials=25, seed=7)
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
    assert lines[-1].startswith("failures: 0 (plan 0, oracle 0, disagreements 0)")


def test_run_counts_and_reports_wrong_symbols(monkeypatch):
    decode_words = DecodePlan.decode_words

    def flip_symbol_7(self, xw, yw):
        out = decode_words(self, xw, yw)
        out[7] = ~out[7]  # symbol (t, j) = (1, 3) of every trial
        return out

    monkeypatch.setattr(DecodePlan, "decode_words", flip_symbol_7)
    report = run(config())
    assert (report.plan_failures, report.oracle_failures, report.disagreements) == (25, 0, 25)
    assert report.details == [("plan", 1, 3, trial) for trial in range(10)]
    lines = report.text().splitlines()
    assert lines[-11].startswith("failures: 50 (plan 25, oracle 0, disagreements 25)")
    assert lines[-10:] == [f"  plan t=1 j=3 trial={trial}" for trial in range(10)]


def _flip(out, trial, symbol):
    out[symbol, trial // 64] ^= np.uint64(1 << trial % 64)


def test_run_lists_mismatches_in_symbol_order(monkeypatch):
    decode_words = DecodePlan.decode_words

    def flip_some(self, xw, yw):
        out = decode_words(self, xw, yw)
        for trial, symbol in [(2, 7), (0, 3), (2, 3)]:  # symbols (1, 3) and (0, 4), not in that order
            _flip(out, trial, symbol)
        return out

    monkeypatch.setattr(DecodePlan, "decode_words", flip_some)
    report = run(config())
    assert (report.plan_failures, report.oracle_failures, report.disagreements) == (3, 0, 3)
    want = [(0, 4, 0), (0, 4, 2), (1, 3, 2)]
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
        _flip(out, trials - 1, 7)
        out[:, -1] |= ~(np.uint64(2**64 - 1) >> np.uint64(-trials % 64))  # every padding bit
        return out

    monkeypatch.setattr(DecodePlan, "decode_words", flip_last_trial)
    report = run(config(trials=trials))
    assert (report.plan_failures, report.oracle_failures, report.disagreements) == (1, 0, 1)
    assert report.details == [("plan", 1, 3, trials - 1), ("disagree", 1, 3, trials - 1)]


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

