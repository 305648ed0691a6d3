"""Cross-process sweep telemetry: spans, stream, ledger, stitching.

Pins the observability-layer contract: registry merges are
order-insensitive, the progress stream is valid JSONL, the run ledger
survives reopen and torn tails, stall/heartbeat logic is deterministic
under an injected clock, and — the headline invariant — a telemetry-on
sweep produces bit-identical results to a telemetry-off one for every
worker count while stitching orchestrator plus per-worker spans into
one merged Chrome trace whose ledger record matches the engine's own
counters.
"""

import io
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.kernel import ns, us
from repro.explore import DesignSpace, MasterTrafficSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    ProgressRenderer,
    ProgressStream,
    RunLedger,
    SpanRecorder,
    SweepTelemetry,
)
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


class TestSpanRecorder:
    def test_span_context_manager_records_wall_interval(self):
        clock = FakeClock()
        spans = SpanRecorder(clock)
        with spans.span("dispatch", track="engine", batches=3):
            clock.advance(2.5)
        assert len(spans) == 1
        span = spans.spans[0]
        assert span["name"] == "dispatch"
        assert span["track"] == "engine"
        assert span["t1"] - span["t0"] == pytest.approx(2.5)
        assert span["args"] == {"batches": 3}

    def test_total_sums_same_named_spans(self):
        spans = SpanRecorder(FakeClock())
        spans.add("cache", 0.0, 1.0)
        spans.add("cache", 5.0, 5.5)
        spans.add("dispatch", 0.0, 10.0)
        assert spans.total("cache") == pytest.approx(1.5)
        assert spans.total("missing") == 0.0

    def test_span_recorded_even_when_body_raises(self):
        spans = SpanRecorder(FakeClock())
        with pytest.raises(ValueError):
            with spans.span("boom"):
                raise ValueError("x")
        assert len(spans) == 1


class TestProgressStream:
    def test_writes_one_json_line_per_event(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        stream = ProgressStream(path, clock=FakeClock(42.0))
        stream.emit({"type": "run_started", "points": 4})
        stream.emit({"type": "point_done", "key": "k1"})
        stream.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        events = [json.loads(line) for line in lines]
        assert events[0]["type"] == "run_started"
        assert events[0]["ts"] == 42.0     # stamped by the stream
        assert events[1]["key"] == "k1"
        assert stream.events == 2

    def test_listeners_fire_and_survive_close(self):
        stream = ProgressStream()          # purely in-memory
        seen = []
        stream.add_listener(seen.append)
        stream.emit({"type": "a"})
        stream.close()
        stream.close()                     # idempotent
        stream.emit({"type": "b"})         # listeners still fed
        assert [e["type"] for e in seen] == ["a", "b"]

    def test_explicit_ts_is_preserved(self):
        stream = ProgressStream(clock=FakeClock(99.0))
        seen = []
        stream.add_listener(seen.append)
        stream.emit({"type": "x", "ts": 7.0})
        assert seen[0]["ts"] == 7.0


class TestRunLedger:
    def test_run_ids_are_sequential_and_digest_suffixed(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        assert ledger.next_run_id("abcdef0123456789") == \
            "run-0001-abcdef01"
        assert ledger.next_run_id("abcdef0123456789") == \
            "run-0002-abcdef01"

    def test_sequence_survives_reopen(self, tmp_path):
        first = RunLedger(tmp_path / "led")
        first.append({"kind": "run", "run_id": first.next_run_id("aa")})
        first.append({"kind": "summary"})
        reopened = RunLedger(tmp_path / "led")
        # only "run" records count toward the sequence
        assert reopened.next_run_id("bb") == "run-0002-bb"

    def test_run_records_also_get_manifest_files(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        run_id = ledger.next_run_id("deadbeef")
        ledger.append({"kind": "run", "run_id": run_id, "points": 4})
        manifest = tmp_path / "led" / f"{run_id}.json"
        assert manifest.exists()
        assert json.loads(manifest.read_text())["points"] == 4
        ledger.append({"kind": "summary", "points": 4})
        assert len(list((tmp_path / "led").glob("run-*.json"))) == 1

    def test_records_skips_torn_tail_lines(self, tmp_path):
        ledger = RunLedger(tmp_path / "led")
        ledger.append({"kind": "run", "run_id": "run-0001-x"})
        with open(ledger.path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "run", "run_id": "run-0002')  # torn
        reopened = RunLedger(tmp_path / "led")
        assert len(reopened.records()) == 1
        assert reopened.records(kind="summary") == []


class TestRegistryMerge:
    def _snapshot_ab(self):
        a = MetricsRegistry()
        a.counter("points").inc(3)
        a.gauge("depth").set(0.25)
        h = a.histogram("latency")
        for v in (10.0, 20.0, 30.0):
            h.observe(v)
        b = MetricsRegistry()
        b.counter("points").inc(5)
        b.gauge("depth").set(0.75)
        h = b.histogram("latency")
        for v in (5.0, 40.0):
            h.observe(v)
        return a.snapshot(), b.snapshot()

    def test_counters_add_and_histograms_pool(self):
        snap_a, snap_b = self._snapshot_ab()
        target = MetricsRegistry()
        target.merge(snap_a)
        target.merge(snap_b)
        assert target.counter("points").value == 8
        h = target.histogram("latency")
        assert h.count == 5
        assert h.snapshot()["min"] == 5.0
        assert h.snapshot()["max"] == 40.0
        assert h.snapshot()["total"] == pytest.approx(105.0)
        assert h.mean == pytest.approx(21.0)

    def test_merge_is_order_insensitive(self):
        snap_a, snap_b = self._snapshot_ab()
        ab = MetricsRegistry()
        ab.merge(snap_a)
        ab.merge(snap_b)
        ba = MetricsRegistry()
        ba.merge(snap_b)
        ba.merge(snap_a)
        sa, sb = ab.snapshot(), ba.snapshot()
        assert sorted(sa) == sorted(sb)
        for name in sa:
            if sa[name].get("type") != "histogram":
                continue
            for field in ("count", "min", "max"):
                assert sa[name][field] == sb[name][field], (name, field)
            for field in ("total", "mean", "stddev"):
                assert sa[name][field] == pytest.approx(
                    sb[name][field]), (name, field)
        assert sa["points"]["value"] == sb["points"]["value"]

    def test_prefix_namespaces_every_merged_metric(self):
        snap_a, _ = self._snapshot_ab()
        target = MetricsRegistry()
        target.merge(snap_a, prefix="worker.")
        assert target.counter("worker.points").value == 3
        assert "points" not in target
        assert target.histogram("worker.latency").count == 3

    def test_time_weighted_folds_into_mean_histogram(self):
        source = MetricsRegistry()
        source.time_weighted("occ").set_at(2, 0)
        target = MetricsRegistry()
        target.merge(source.snapshot(now_fs=100), prefix="worker.")
        h = target.histogram("worker.occ.mean")
        assert h.count == 1
        assert h.mean == pytest.approx(2.0)

    def test_unknown_kinds_are_skipped(self):
        target = MetricsRegistry()
        target.merge({"weird": {"type": "novel", "value": 1}})
        assert len(target) == 0


class TestStallsAndHeartbeats:
    def _telemetry(self, clock):
        return SweepTelemetry(stall_after_s=2.0, heartbeat_every_s=5.0,
                              clock=clock)

    def test_stall_warning_is_one_shot_until_next_event(self):
        clock = FakeClock()
        telemetry = self._telemetry(clock)
        seen = []
        telemetry.stream.add_listener(seen.append)
        telemetry.begin_dispatch([111, 222], batches=2, points=4)
        clock.advance(3.0)                 # past stall_after_s
        telemetry.on_poll_idle()
        telemetry.on_poll_idle()           # no duplicate
        stalls = [e for e in seen if e["type"] == "stall_warning"]
        assert len(stalls) == 2            # one per silent worker
        assert {e["worker_id"] for e in stalls} == {0, 1}
        assert stalls[0]["idle_s"] == pytest.approx(3.0)
        # a sign of life clears the flag; silence re-arms it
        telemetry.on_worker_event({"type": "point_done",
                                   "worker_id": 0, "pid": 111,
                                   "key": "k"})
        assert not telemetry.worker_states()[0]["stalled"]
        clock.advance(3.0)
        telemetry.on_poll_idle()
        stalls = [e for e in seen if e["type"] == "stall_warning"]
        assert len(stalls) == 3

    def test_heartbeat_carries_per_worker_liveness(self):
        clock = FakeClock()
        telemetry = self._telemetry(clock)
        seen = []
        telemetry.stream.add_listener(seen.append)
        telemetry.begin_dispatch([111, 222], batches=2, points=4)
        telemetry.on_worker_event({"type": "point_done",
                                   "worker_id": 1, "pid": 222,
                                   "key": "k9"})
        clock.advance(5.5)
        telemetry.on_poll_idle()
        beats = [e for e in seen if e["type"] == "worker_heartbeat"]
        assert len(beats) == 1
        workers = {w["worker_id"]: w for w in beats[0]["workers"]}
        assert workers[1]["points_done"] == 1
        assert workers[1]["current_key"] == "k9"
        assert workers[0]["pid"] == 111
        assert workers[0]["idle_s"] == pytest.approx(5.5)
        # next idle poll inside the interval stays quiet
        telemetry.on_poll_idle()
        assert len([e for e in seen
                    if e["type"] == "worker_heartbeat"]) == 1

    def test_end_run_without_begin_run_raises(self):
        telemetry = self._telemetry(FakeClock())
        with pytest.raises(RuntimeError, match="begin_run"):
            telemetry.end_run(cached=0, computed=0, batches=0,
                              workers=1)


class TestProgressRenderer:
    def test_renders_counts_rate_workers_and_eta(self):
        clock = FakeClock()
        out = io.StringIO()
        stream = ProgressStream(clock=clock)
        ProgressRenderer(out, clock=clock).attach(stream)
        stream.emit({"type": "run_started", "points": 4,
                     "phase": "screen"})
        stream.emit({"type": "cache_resolved", "cached": 1,
                     "pending": 3})
        clock.advance(1.0)
        stream.emit({"type": "point_done", "worker_id": 0,
                     "points_done": 1})
        text = out.getvalue()
        assert "[sweep screen]" in text
        assert "1/3 pts" in text
        assert "cache 1" in text
        assert "w0:1" in text
        assert "eta 2s" in text            # 2 left at 1/s

    def test_stall_warning_prints_a_full_line(self):
        clock = FakeClock()
        out = io.StringIO()
        stream = ProgressStream(clock=clock)
        ProgressRenderer(out, clock=clock).attach(stream)
        stream.emit({"type": "run_started", "points": 2})
        stream.emit({"type": "stall_warning", "worker_id": 1,
                     "pid": 222, "idle_s": 31.0})
        text = out.getvalue()
        assert "worker 1 (pid 222) silent for 31s" in text
        assert "w1:0!" in text             # stalled marker on the line

    def test_run_finished_ends_with_newline(self):
        clock = FakeClock()
        out = io.StringIO()
        stream = ProgressStream(clock=clock)
        ProgressRenderer(out, clock=clock).attach(stream)
        stream.emit({"type": "run_started", "points": 1})
        stream.emit({"type": "run_finished", "run_id": "run-0001"})
        assert out.getvalue().endswith("\n")


class TestTelemetrySweepEndToEnd:
    def test_two_worker_sweep_stitches_ledgers_and_traces(self,
                                                          tmp_path):
        points = small_points()
        with SweepEngine(workers=2) as plain_engine:
            baseline = det_rows(plain_engine.run(points))

        trace_path = tmp_path / "trace.json"
        telemetry = SweepTelemetry(ledger=tmp_path / "led",
                                   trace_path=str(trace_path))
        with SweepEngine(workers=2, telemetry=telemetry) as engine:
            outcomes = engine.run(points)
            # bit-identity: telemetry is observation-only
            assert det_rows(outcomes) == baseline

            record = telemetry.run_records[0]
            assert record["points"] == len(points)
            assert record["cached"] == engine.last_cached == 0
            assert record["computed"] == engine.last_computed \
                == len(points)
            assert record["batches"] == engine.last_batches
            assert record["workers"] == 2
            assert record["timing"]["wall_s"] > 0
            assert record["timing"]["worker_simulate_s"] > 0
            assert record["pool"]["spawns"] == 2
            assert sorted(record["pool"]["ping_latency_s"]) == \
                ["0", "1"]
        telemetry.close()

        # ledger on disk matches the in-memory record
        ledger = RunLedger(tmp_path / "led")
        disk = ledger.records(kind="run")
        assert len(disk) == 1
        assert disk[0] == record

        # progress stream: full event vocabulary for a cold run
        events = [json.loads(line) for line in
                  (tmp_path / "led" / "progress.jsonl")
                  .read_text().splitlines()]
        types = {e["type"] for e in events}
        assert {"run_started", "cache_resolved", "dispatch_started",
                "point_done", "batch_done", "run_finished"} <= types
        assert len([e for e in events
                    if e["type"] == "point_done"]) == len(points)

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

        # worker metrics merged under worker.*
        snapshot = telemetry.metrics.snapshot()
        assert any(name.startswith("worker.") for name in snapshot)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_results_identical_with_telemetry_on_or_off(self, workers,
                                                        tmp_path):
        points = small_points()
        with SweepEngine(workers=workers) as engine:
            baseline = det_rows(engine.run(points))
        telemetry = SweepTelemetry(ledger=tmp_path / "led")
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

    def test_cached_rerun_is_ledgered_with_full_hits(self, tmp_path):
        from repro.sweep import SweepStore

        points = small_points()
        telemetry = SweepTelemetry(ledger=tmp_path / "led")
        store = SweepStore(tmp_path / "cache")
        with SweepEngine(workers=2, store=store,
                         telemetry=telemetry) as engine:
            engine.run(points)
            engine.run(points)
        telemetry.close()
        first, second = telemetry.run_records
        assert first["digest"] == second["digest"]
        assert second["cached"] == len(points)
        assert second["computed"] == 0
        assert second["run_id"] != first["run_id"]

    def test_successive_halving_tags_screen_and_finals(self, tmp_path):
        from repro.sweep import SuccessiveHalving

        space = DesignSpace(
            fabrics=("plb", "opb", "generic", "crossbar"),
            arbiters=("static-priority",),
        )
        search = SuccessiveHalving(space, small_specs(), workload="w",
                                   max_sim_time=us(5_000), eta=2)
        telemetry = SweepTelemetry(ledger=tmp_path / "led")
        with SweepEngine(workers=2, telemetry=telemetry) as engine:
            search.run(engine)
        telemetry.close()
        phases = [r["phase"] for r in telemetry.run_records]
        assert phases == ["screen", "finals"]
        assert telemetry.phase is None     # restored afterwards

    def test_replicated_runner_records_rounds_and_context(self,
                                                          tmp_path):
        from repro.stats import ReplicatedRunner, ReplicationPolicy

        points = small_points()[:2]
        telemetry = SweepTelemetry(ledger=tmp_path / "led")
        with SweepEngine(workers=2, telemetry=telemetry) as engine:
            runner = ReplicatedRunner(
                engine, ReplicationPolicy(r_min=2, r_max=2))
            runner.run(points)
        telemetry.close()
        runs = telemetry.run_records
        assert runs[0]["context"]["replication"]["round"] == 1
        assert runs[0]["context"]["replication"]["replicates"] == 4
        ledger = RunLedger(tmp_path / "led")
        repl = ledger.records(kind="replication")
        assert len(repl) == 1
        assert repl[0]["points"] == 2
        assert repl[0]["replicates"] == 4
        assert repl[0]["rounds"] == 1
        assert telemetry.context == {}     # popped after the session


class TestCliTelemetry:
    def test_cli_summary_matches_json_report_and_renders(self,
                                                         tmp_path,
                                                         capsys):
        from repro.obs.report import main as report_main
        from repro.sweep.cli import main as sweep_main

        report_path = tmp_path / "report.json"
        ledger_dir = tmp_path / "led"
        code = sweep_main([
            "--workload", "mixed", "--fabrics", "plb,generic",
            "--arbiters", "static-priority,tdma",
            "--transactions", "8", "--workers", "2",
            "--json", str(report_path),
            "--telemetry", str(ledger_dir),
            "--trace-out", str(tmp_path / "trace.json"),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        ledger = RunLedger(ledger_dir)
        summary = ledger.records(kind="summary")[-1]
        assert ([r["config"] for r in summary["ranking"]]
                == [r["config"] for r in report["ranked"]])
        run = ledger.records(kind="run")[-1]
        assert run["points"] == report["points"]
        assert run["cached"] == report["cached"]
        assert run["computed"] == report["computed"]
        assert (tmp_path / "trace.json").exists()

        capsys.readouterr()
        assert report_main(["--runs", str(ledger_dir)]) == 0
        out = capsys.readouterr().out
        assert run["run_id"] in out
        assert "summary: mixed/grid" in out
