"""Tests of the benchmark's own checks, corpus and tracing.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hullprice import pricing, samples, ucdp  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def fuzz(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    corpus = workloads.build_corpus(workloads.WORKLOADS["fuzz_small"], 1, out)
    return run.Runner("fuzz_small", corpus, {})


def test_demo_output_passes_its_goldens(fuzz):
    demo = fuzz.corpus.lead[0]
    code, text = workloads.run_compare(demo)
    assert code == 0
    assert text.endswith("\n" + workloads.DEMO_SUMMARY)
    assert fuzz.check(demo, (code, text)) == []


@pytest.mark.parametrize("old, new", [
    ("chp,7,835,828,", "chp,8,835,828,"),        # total_uplift
    ("tlmp,g2,0,-35,35", "tlmp,g2,0,-35,34"),    # one uplift row
    ("tlmp,35,835,835,0.8", "tlmp,35,835,835,0.7"),  # gap_tm
    ("chp,3,6\n", ""),                           # a missing price row
])
def test_tampered_compare_output_counts_as_failed(fuzz, old, new):
    demo = fuzz.corpus.lead[0]
    code, text = workloads.run_compare(demo)
    assert old in text
    bad = fuzz.failures([(demo, (code, text.replace(old, new, 1)))])
    assert len(bad) == 1


def test_random_system_tampered_total_uplift_is_caught(fuzz):
    op = fuzz.corpus.op(5)
    code, text = workloads.run_compare(op)
    assert fuzz.failures([(op, (code, text))]) == []
    lines = text.rstrip("\n").split("\n")
    method, total, *rest = lines[-1].split(",")
    lines[-1] = ",".join([method, repr(float(total) + 1e-3), *rest])
    assert fuzz.failures([(op, (code, "\n".join(lines) + "\n"))])


def test_nonzero_exit_and_exceptions_count_as_failed(fuzz):
    op = fuzz.corpus.op(1)
    assert fuzz.failures([(op, (1, "")),
                          (op, RuntimeError("solver blew up"))])[1][1] == [
        "raised RuntimeError: solver blew up"]


def test_profit_max_check_flags_a_wrong_profit():
    rng = np.random.default_rng(3)
    gen = samples.random_generator(rng, 6)
    prices = samples.random_prices(rng, 6)
    profit, sched = ucdp.profit_max(gen, prices)
    assert workloads.check_profit_max(gen, prices, (profit, sched)) == []
    assert workloads.check_profit_max(gen, prices, (profit + 1e-3, sched))


def test_same_seed_writes_the_same_instances(tmp_path):
    wl = workloads.WORKLOADS["dayahead_dp"]
    a = workloads.build_corpus(wl, 7, tmp_path / "a")
    b = workloads.build_corpus(wl, 7, tmp_path / "b")
    c = workloads.build_corpus(wl, 8, tmp_path / "c")
    read = [[Path(op.path).read_text() for op in x.cycle] for x in (a, b, c)]
    assert read[0] == read[1]
    assert [op.prices for op in a.cycle] == [op.prices for op in b.cycle]
    assert [op.prices for op in a.cycle] != [op.prices for op in c.cycle]


def test_tail_keeps_ten_samples_beyond():
    times = [float(i) for i in range(1, 101)]
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_tracer_records_nested_spans_and_restores_entry_points():
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr, *_ in tracing.ENTRY_POINTS}
    tracer = tracing.Tracer()
    root = tracer.span(tracing.ROOT, pricing.compare)
    with tracer:
        root(samples.demo_instance())
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"bnb.solve_mip", "pricing.price_chp", "ucdp.solve_ed",
            "lp.solve_lp", "simplex.solve"} <= names
    m = tracing.layer_report(tracer.spans, tracer.memo_lookups)
    assert m["bnb.nodes"] >= 1 and m["lp.iterations"] > 0
    wall = sum(s[tracing.END] - s[tracing.START] for s in tracer.spans
               if s[tracing.NAME] == tracing.ROOT)
    covered = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert 0 < covered <= wall
