"""Checks of the benchmark harness itself.

Outside the tier-1 suite; run it explicitly from the repository root::

    python -m pytest perfbench/test_bench_harness.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402  (puts src/ on sys.path)
from repro.apps import reference_output  # noqa: E402
from workloads import FlowWorkload, make_workload  # noqa: E402

SPEC = bench.load_spec()

#: Per workload: a size small enough for a test, and the layers whose
#: self time its traced repeat must show.
TINY = {
    "flow_pv": (100, ("kernel", "apps", "ship")),
    "flow_cam": (10, ("kernel", "apps", "ship", "models", "cam")),
    "flow_pin": (2, ("kernel", "apps", "ocp", "accessors", "rtl")),
    "sweep_cold": (4, ("kernel", "cam", "explore", "sweep")),
    "sweep_warm": (1, ("kernel", "cam", "explore", "sweep", "snapshot")),
}


@pytest.fixture(scope="module")
def traced():
    return {name: bench.run_in_process(name, seed=1, seconds=0, trace=True,
                                       size=size)
            for name, (size, _) in TINY.items()}


@pytest.mark.parametrize("name", TINY)
def test_workload_emits_every_metric_with_its_unit(traced, name):
    record = bench.summarize(traced[name], 1, SPEC)
    assert record["attempted"] > 0
    assert record["failed"] == 0, record["problems"]
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = bench.contract_line(record, SPEC, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert {name: metric["unit"]
                for name, metric in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[section]}
    for metric in SPEC["end_to_end"]:
        stats = record["end_to_end"][metric["name"]]
        assert stats["q1"] <= stats["q3"]
        assert stats["value"] > 0


@pytest.mark.parametrize("name", TINY)
def test_traced_repeat_charges_the_layers_it_exercises(traced, name):
    layers = traced[name]["layers"]
    for layer in TINY[name][1]:
        assert layers[f"{layer}.self_s"] > 0, layer


def test_layers_a_workload_bypasses_stay_zero(traced):
    assert traced["flow_pv"]["layers"]["cam.self_s"] == 0
    assert traced["flow_pv"]["layers"]["models.self_s"] == 0
    assert traced["flow_pin"]["layers"]["ship.self_s"] == 0
    assert traced["sweep_cold"]["layers"]["snapshot.self_s"] == 0


@pytest.mark.parametrize("name", TINY)
def test_layer_self_times_add_up_to_the_traced_wall(traced, name):
    layers = traced[name]["layers"]
    total = sum(value for key, value in layers.items()
                if key.endswith(".self_s"))
    assert total == pytest.approx(layers["trace.wall_s"], rel=0.05)


def test_tampered_flow_reference_fails_blocks(tmp_path):
    reference = reference_output(100)
    reference[7] = [0] * len(reference[7])
    workload = FlowWorkload("flow_pv", str(tmp_path), blocks=100,
                            reference=reference)
    workload.repeat()
    assert (workload.attempted, workload.failed) == (100, 1)


def test_wrong_simulated_end_time_fails_the_repeat(tmp_path):
    workload = FlowWorkload("flow_cam", str(tmp_path), blocks=10)
    workload.golden_end_ns += 1
    workload.repeat()
    assert workload.failed == 10


def test_tampered_sweep_reference_fails_points(tmp_path):
    workload = make_workload("sweep_cold", 1, str(tmp_path), size=2)
    try:
        workload.repeat()
        workload.verify()
        assert (workload.attempted, workload.failed) == (2, 0)
        workload.reference_rows[1]["sim_time_ns"] += 1.0
        workload.repeat()
        workload.verify()
        assert (workload.attempted, workload.failed) == (4, 1)
    finally:
        workload.close()


def test_scaled_rate_cancels_a_uniform_host_slowdown():
    pairs = [(100.0 + i, 120.0 + i % 3) for i in range(20)]
    slower = [(rate * 0.8, probes * 0.8) for rate, probes in pairs]
    assert bench.scaled_rate(slower) == pytest.approx(
        bench.scaled_rate(pairs))


# -- --compare ---------------------------------------------------------------


def _stats(samples):
    """A summary whose quartiles are those of the samples themselves."""
    q1, median, q3 = (bench.statistics.quantiles(samples, n=4)
                      if len(samples) > 1 else samples * 3)
    return {"value": median, "q1": q1, "q3": q3, "n": len(samples),
            "samples": samples}


def _results(path, items_per_s, failed=0):
    record = {
        "workload": "w", "attempted": 100, "failed": failed,
        "end_to_end": {
            "items_per_s": _stats(items_per_s),
            "setup_s": _stats([1.0, 1.0, 1.0]),
            "peak_rss_mb": _stats([50.0]),
        },
        "per_layer": {"kernel.self_s": 0.5},
    }
    path.write_text(json.dumps({"workloads": {"w": record}}))
    return str(path)


@pytest.mark.parametrize("new,expected", [
    ([99.0, 100.0, 101.0], "same"),
    ([79.0, 80.0, 81.0], "worse"),
    ([119.0, 120.0, 121.0], "better"),
    ([60.0, 100.0, 140.0], "unresolved"),
])
def test_verdicts_against_the_bound(new, expected):
    base = _stats([99.0, 100.0, 101.0])
    assert bench.verdict(base, _stats(new), "higher", 0.1) == expected


def test_wide_spread_with_every_run_better_is_better():
    base = _stats([70.0, 100.0, 130.0])
    new = _stats([131.0, 160.0, 190.0])
    assert bench.verdict(base, new, "higher", 0.1) == "better"
    assert bench.verdict(new, base, "lower", 0.1) == "better"


def test_compare_exit_code_and_report(tmp_path, capsys):
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "items_per_s")
    slow_rate = 100.0 * (1 - 1.5 * bound)
    base = _results(tmp_path / "base.json", [99.0, 100.0, 101.0])
    same = _results(tmp_path / "same.json", [98.0, 99.0, 100.0])
    slow = _results(tmp_path / "slow.json",
                    [slow_rate - 1, slow_rate, slow_rate + 1])
    failing = _results(tmp_path / "failing.json", [99.0, 100.0, 101.0],
                       failed=1)
    assert bench.compare(base, same, SPEC) == 0
    assert bench.compare(base, slow, SPEC) == 1
    report = capsys.readouterr().out
    assert "items_per_s" in report and f"worse ({bound:.0%})" in report
    assert "kernel.self_s" in report
    assert bench.compare(base, failing, SPEC) == 1
