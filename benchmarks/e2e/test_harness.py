"""Tests of the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import statistics

import pytest

import compare
import layers
import measure
import run

#: Work items of the tiny runs: churn events, or Figure 10 rows (the two
#: headline rows come first, so the headline check still runs).
TINY = {"churn-cbr": 200, "plane-churn": 200, "vbr-2prio": 200,
        "fig10-sweep": 2}


def test_percentile_median_and_spread():
    assert measure.percentile([4, 1, 3, 2], 50) == 2.5
    assert measure.percentile([1, 2, 3, 4, 5], 0) == 1
    assert measure.percentile([1, 2, 3, 4, 5], 100) == 5
    assert measure.percentile(range(101), 95) == 95
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    q1, median, q3 = measure.quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert median == 3.5
    assert measure.spread(values) == pytest.approx((q3 - q1) / 3.5)
    assert measure.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_self_times_sum_to_root_duration():
    ticks = iter([0, 1, 2, 5, 7, 8, 9, 10])
    recorder = layers.Recorder(clock=lambda: next(ticks))
    root, a, b, c = (recorder.index(n) for n in ("root", "a", "b", "c"))
    spans = {}
    spans["root"] = recorder.open(root)       # 0 .. 10
    spans["a"] = recorder.open(a)             # 1 .. 7
    spans["b"] = recorder.open(b)             # 2 .. 5, inside a
    recorder.close(spans["b"])
    recorder.close(spans["a"])
    spans["c"] = recorder.open(c)             # 8 .. 9
    recorder.close(spans["c"])
    recorder.close(spans["root"])
    self_ns, nested = recorder.fold()
    assert self_ns == {"root": 3, "a": 3, "b": 3, "c": 1}
    assert sum(self_ns.values()) == 10
    assert nested == {("a", "root"): 1, ("b", "a"): 1, ("c", "root"): 1}


def test_forward_passes_sends_throws_and_return_values():
    def walk():
        received = yield 1
        try:
            yield received
        except KeyError:
            return "caught"

    marks = []
    proxy = layers.forward(walk(), lambda: marks.append("in") or 0,
                           lambda _token: marks.append("out"))
    assert next(proxy) == 1
    assert proxy.send(5) == 5
    with pytest.raises(StopIteration) as stop:
        proxy.throw(KeyError("x"))
    assert stop.value.value == "caught"
    assert marks == ["in", "out"] * 3


BASE = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def test_verdict_gain_needs_paired_wins_beyond_the_spread():
    head = [x * 1.2 for x in BASE]
    pairs = list(zip(BASE, head))
    assert measure.verdict(BASE, head, "higher", 0.1, pairs) == measure.GAIN
    # The same numbers without A/B pairs cannot claim a gain.
    assert measure.verdict(BASE, head, "higher", 0.1) == measure.UNCHANGED
    # Winning 8 of 10 pairs is not enough.
    mixed = head[:8] + [x * 0.99 for x in BASE[8:]]
    assert measure.verdict(BASE, mixed, "higher", 0.1,
                           list(zip(BASE, mixed))) == measure.UNCHANGED


def test_verdict_regression_is_judged_against_the_bound():
    slower = [x * 1.2 for x in BASE]
    assert measure.verdict(BASE, slower, "lower", 0.1) == measure.REGRESSION
    assert measure.verdict(BASE, slower, "lower", 0.25) == measure.UNCHANGED
    assert measure.verdict(BASE, slower, "higher", 0.1) == measure.UNCHANGED


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    head = [x * 1.05 for x in noisy]
    assert measure.verdict(noisy, head, "lower", 0.1) == measure.UNRESOLVED
    # ... unless every head run reads better than every base run.
    faster = [30.0] * 10
    assert measure.verdict(noisy, faster, "lower", 0.1) == measure.UNCHANGED


def test_compare_records_prints_one_row_per_workload(tmp_path, capsys):
    def record(scale):
        return {"workloads": {workload: {"end_to_end": {
            m["name"]: {"samples": [x * scale for x in BASE]}
            for m in run.SPEC["end_to_end"]}} for workload in TINY}}

    results = tmp_path / "results.jsonl"
    results.write_text(json.dumps(record(1.0)) + "\n"
                       + json.dumps(record(1.3)) + "\n")
    assert compare.main([f"{results}@0", f"{results}@1"]) == 0
    table = capsys.readouterr().out.split("\n\n")[0].splitlines()
    assert len(table) == 1 + len(TINY)
    row = next(line for line in table if line.startswith("vbr-2prio"))
    # 30% more events/s is no regression; 30% slower setups are.
    assert row.split()[1:3] == ["unchanged", "+30.0%"]
    assert row.split()[3] == "regression"


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_emits_every_metric_and_passes_checks(workload, tmp_path,
                                                       capsys):
    results = tmp_path / "results.jsonl"
    code = run.main(["--workload", workload, "--repeats", "1",
                     "--size", str(TINY[workload]),
                     "--results", str(results)])
    out = capsys.readouterr().out
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= 1
    named = {m["name"] for m in run.SPEC["end_to_end"] + run.SPEC["per_layer"]}
    assert set(summary["metrics"]) == named
    metrics = {k: v["value"] for k, v in summary["metrics"].items()}
    for name in (m["name"] for m in run.SPEC["end_to_end"]):
        assert metrics[name] > 0
    unattributed = metrics["trace.root_ms"] - sum(
        v for k, v in metrics.items() if k.endswith(".self_ms"))
    assert unattributed == pytest.approx(metrics["trace.unattributed_ms"],
                                         rel=1e-6, abs=1e-6)
    if workload == "fig10-sweep":
        assert metrics["switch_cac.check.calls"] == 0
        assert metrics["engine.events"] == 0
    else:
        assert metrics["admission.setup.calls"] > 0
    if workload in ("churn-cbr", "vbr-2prio"):
        assert metrics["engine.events_per_churn_event"] == 1
    record = json.loads(results.read_text())
    assert record["schema"] == run.SCHEMA and record["repeats"] == 1
    assert set(record["workloads"]) == {workload}


def test_tampered_expected_digest_fails_the_run(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "churn-cbr",
                        {"size": 200, "seed": 11, "digest": "0" * 64})
    code = run.main(["--workload", "churn-cbr", "--repeats", "1",
                     "--trace", "0", "--size", "200",
                     "--results", str(tmp_path / "results.jsonl")])
    captured = capsys.readouterr()
    assert code != 0
    assert "digest differs from workloads.json" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "results.jsonl").exists()


def test_missing_source_tree_fails_before_running(tmp_path, capsys):
    assert run.main(["--src", str(tmp_path)]) != 0
    assert capsys.readouterr().out == ""
