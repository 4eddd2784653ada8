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
    the oracle takes x @ G from the generator itself, never from encode."""
    real = codec.encode

    def faulty(matrix, x, p=2):
        y = real(matrix, x, p)
        y[..., 0] = (y[..., 0] + 1) % p
        return y

    monkeypatch.setattr(codec, "encode", faulty)
    monkeypatch.setattr(sim, "encode", faulty)
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
    decode = DecodePlan.decode

    def flip_symbol_7(self, y, x):
        out = decode(self, y, x)
        out[:, 7] ^= 1  # symbol (t, j) = (1, 3) of every trial
        return out

    monkeypatch.setattr(DecodePlan, "decode", flip_symbol_7)
    report = run(config())
    assert (report.plan_failures, report.oracle_failures, report.disagreements) == (25, 0, 25)
    assert report.details == [("plan", 1, 3, trial) for trial in range(10)]
    lines = report.text().splitlines()
    assert lines[-11].startswith("failures: 50 (plan 25, oracle 0, disagreements 25)")
    assert lines[-10:] == [f"  plan t=1 j=3 trial={trial}" for trial in range(10)]


def test_run_lists_mismatches_in_symbol_order(monkeypatch):
    decode = DecodePlan.decode

    def flip_some(self, y, x):
        out = decode(self, y, x)
        out[[2, 0, 2], [7, 3, 3]] ^= 1  # symbols (1, 3) and (0, 4), not in that order
        return out

    monkeypatch.setattr(DecodePlan, "decode", flip_some)
    report = run(config())
    assert (report.plan_failures, report.oracle_failures, report.disagreements) == (3, 0, 3)
    want = [(0, 4, 0), (0, 4, 2), (1, 3, 2)]
    assert report.details == [("plan", *d) for d in want] + [("disagree", *d) for d in want]
    assert report.text().splitlines()[-7:] == [
        "failures: 6 (plan 3, oracle 0, disagreements 3) over 3250 symbol decodes",
        *[f"  {kind} t={t} j={j} trial={trial}" for kind in ("plan", "disagree") for t, j, trial in want],
    ]


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

