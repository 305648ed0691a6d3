"""Cross-process sweep telemetry: spans and trace stitching.

Pins the observability-layer contract: the engine protocol turns into
orchestrator spans deterministically under an injected clock, and — the
headline invariant — a telemetry-on sweep produces bit-identical
results to a telemetry-off one for every worker count while stitching
orchestrator plus per-worker spans into one merged Chrome trace.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.kernel import ns, us
from repro.explore import DesignSpace, MasterTrafficSpec
from repro.obs.telemetry import SweepTelemetry
from repro.sweep import SweepEngine, points_for_space


def small_specs(transactions=8):
    """A tiny two-master workload that keeps each point fast."""
    return (
        MasterTrafficSpec("cpu", pattern="random", base=0x0,
                          size=1 << 12, burst_length=1, gap=ns(50),
                          transactions=transactions, priority=0),
        MasterTrafficSpec("dma", pattern="stream", base=0x1000,
                          size=1 << 12, burst_length=8, gap=ns(80),
                          transactions=transactions, priority=1),
    )


def small_points(transactions=8):
    space = DesignSpace(fabrics=("plb", "generic"),
                        arbiters=("static-priority", "round-robin"))
    return points_for_space(space, small_specs(transactions),
                            workload="w", max_sim_time=us(2_000))


def det_rows(outcomes):
    """Simulation-derived fields only — the bit-identity comparator."""
    return [o.row() for o in outcomes]


class FakeClock:
    """A manually-advanced stand-in for ``time.time``."""

    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRunProtocol:
    def test_run_spans_are_sequential_and_digest_suffixed(self):
        clock = FakeClock()
        telemetry = SweepTelemetry(clock=clock)
        for _ in range(2):
            telemetry.begin_run(["k2", "k1"])
            clock.advance(1.0)
            telemetry.end_run()
        digest = hashlib.sha256(b"k1\nk2").hexdigest()[:8]
        assert [s["name"] for s in telemetry.spans.spans] == [
            f"run-0001-{digest}", f"run-0002-{digest}"]
        first = telemetry.spans.spans[0]
        assert first["track"] == "engine"
        assert first["args"] == {"points": 2}
        assert first["t1"] - first["t0"] == pytest.approx(1.0)

    def test_end_run_without_begin_run_raises(self):
        telemetry = SweepTelemetry(clock=FakeClock())
        with pytest.raises(RuntimeError, match="begin_run"):
            telemetry.end_run()

    def test_pool_events_become_orchestrator_spans(self):
        telemetry = SweepTelemetry(clock=FakeClock())
        telemetry.on_worker_event({
            "type": "batch_done", "batch": 3, "points": 2,
            "worker_id": 1, "pid": 222, "submit_ts": 5.0, "ts": 7.0})
        telemetry.on_worker_event({
            "type": "worker_respawned", "worker_id": 0, "pid": 333,
            "old_pid": 111, "crashed_ts": 8.0, "ts": 8.5})
        telemetry.on_worker_event({"type": "something_else", "ts": 9.0})
        batch, respawn = telemetry.spans.spans
        assert (batch["name"], batch["track"]) == ("batch 3", "batches")
        assert (batch["t0"], batch["t1"]) == (5.0, 7.0)
        assert batch["args"] == {"worker": 1, "points": 2}
        assert (respawn["name"], respawn["track"]) == ("respawn w0",
                                                       "recovery")
        assert (respawn["t0"], respawn["t1"]) == (8.0, 8.5)
        assert respawn["args"] == {"worker": 0, "old_pid": 111,
                                   "new_pid": 333}


class TestTelemetrySweepEndToEnd:
    def test_two_worker_sweep_stitches_ledgers_and_traces(self,
                                                          tmp_path):
        points = small_points()
        with SweepEngine(workers=2) as plain_engine:
            baseline = det_rows(plain_engine.run(points))

        trace_path = tmp_path / "trace.json"
        telemetry = SweepTelemetry(trace_path=str(trace_path))
        with SweepEngine(workers=2, telemetry=telemetry) as engine:
            outcomes = engine.run(points)
            # bit-identity: telemetry is observation-only
            assert det_rows(outcomes) == baseline
        telemetry.close()

        # merged trace: orchestrator + >= 2 distinct worker tracks
        trace = json.loads(trace_path.read_text())
        names = [e["args"]["name"] for e in trace["traceEvents"]
                 if e.get("ph") == "M"
                 and e.get("name") == "process_name"]
        assert any(n.startswith("orchestrator") for n in names)
        workers = [n for n in names if n.startswith("worker ")]
        assert len(workers) >= 2
        by_pid = {}
        for e in trace["traceEvents"]:
            if e.get("ph") == "B":
                by_pid.setdefault(e["pid"], set()).add(e["name"])
        # orchestrator track carries engine + batch round-trip spans
        orch = by_pid[1]
        assert "cache" in orch
        assert "dispatch" in orch
        assert any(n.startswith("batch ") for n in orch)
        assert any(n.startswith("run-") for n in orch)
        # worker tracks carry the per-point phase spans
        worker_spans = set().union(*(
            spans for pid, spans in by_pid.items() if pid >= 10))
        assert {"setup", "simulate", "serialize"} <= worker_spans

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_results_identical_with_telemetry_on_or_off(self, workers):
        points = small_points()
        with SweepEngine(workers=workers) as engine:
            baseline = det_rows(engine.run(points))
        telemetry = SweepTelemetry()
        with SweepEngine(workers=workers,
                         telemetry=telemetry) as engine:
            assert det_rows(engine.run(points)) == baseline
        telemetry.close()

    def test_telemetry_off_sweep_imports_no_obs(self):
        """The off path is import-free, not just cheap: a pooled and an
        in-process sweep without telemetry never load the telemetry
        stack or the metrics registry.  Runs in a fresh interpreter,
        since this test module itself imports both."""
        script = textwrap.dedent("""
            import json, sys
            from repro.explore import DesignSpace, MasterTrafficSpec
            from repro.kernel import ns, us
            from repro.sweep import SweepEngine, points_for_space

            spec = MasterTrafficSpec("cpu", pattern="random", base=0,
                                     size=4096, burst_length=1,
                                     gap=ns(50), transactions=4)
            space = DesignSpace(fabrics=("plb", "generic"),
                                arbiters=("static-priority",))
            points = points_for_space(space, [spec], workload="w",
                                      max_sim_time=us(2_000))
            with SweepEngine(workers=2) as engine:
                engine.run(points)
                assert engine.last_batches > 0, "sweep stayed in-process"
            SweepEngine(workers=1).run(points)
            print(json.dumps([name for name in
                              ("repro.obs.telemetry", "repro.obs.metrics")
                              if name in sys.modules]))
        """)
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []


class TestCliTelemetry:
    def test_cli_summary_matches_json_report_and_renders(self,
                                                         tmp_path,
                                                         capsys):
        """``--trace-out`` writes a merged trace with an orchestrator
        track and one track per worker, and leaves the ranking as it is
        without the flag."""
        from repro.sweep.cli import main as sweep_main

        args = [
            "--workload", "mixed", "--fabrics", "plb,generic",
            "--arbiters", "static-priority,tdma",
            "--transactions", "8", "--workers", "2",
        ]
        plain_path = tmp_path / "plain.json"
        traced_path = tmp_path / "traced.json"
        trace_path = tmp_path / "trace.json"
        assert sweep_main(args + ["--json", str(plain_path)]) == 0
        assert not trace_path.exists()
        assert sweep_main(args + ["--json", str(traced_path),
                                  "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        plain = json.loads(plain_path.read_text())
        traced = json.loads(traced_path.read_text())
        assert traced["ranked"] == plain["ranked"]
        assert traced["points"] == plain["points"] == 4

        trace = json.loads(trace_path.read_text())
        names = [e["args"]["name"] for e in trace["traceEvents"]
                 if e.get("ph") == "M"
                 and e.get("name") == "process_name"]
        assert len([n for n in names
                    if n.startswith("orchestrator")]) == 1
        assert len([n for n in names if n.startswith("worker ")]) >= 2
