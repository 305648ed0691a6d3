"""Tests for the self-healing sweep runtime (``repro.sweep.recovery``).

Covers the recovery policy (and its backoff-equivalence pin against
``repro.faults.retry.RetryPolicy`` — one backoff implementation), the
canonical failure-record shapes, the kind-tagged quarantine records in
the store, quarantine semantics end to end for all three hazard modes
(raise / worker exit / hang past deadline) including deterministic
warm-resume skips, the chaos determinism gate (results bit-identical
with workers SIGKILLed mid-run) and the respawn span a kill leaves in
the sweep trace, SIGINT-safe shutdown, and dead-worker diagnostics.
Faults are injected by the ``hazard`` fixture (``tests/conftest.py``).
"""

import json
import os
import re
import signal
import time

import pytest

from repro.kernel import ns, us
from repro.explore import DesignSpace, MasterTrafficSpec
from repro.faults.retry import RetryPolicy
from repro.sweep import (
    RecoveryPolicy,
    ShutdownGuard,
    SweepEngine,
    SweepInterrupted,
    SweepStore,
    WorkerPool,
    points_for_space,
    quarantined,
    ranked,
)
from repro.sweep.recovery import (
    failure_from_exception,
    failure_from_loss,
    quarantine_record,
)


def tiny_specs(transactions=4):
    """One-master workload keeping every point in the millisecond range."""
    return (
        MasterTrafficSpec("cpu", pattern="random", base=0x0,
                          size=1 << 12, burst_length=1, gap=ns(50),
                          transactions=transactions, priority=0),
    )


def four_points():
    """Four fast design points (2 fabrics x 2 arbiters)."""
    space = DesignSpace(fabrics=("plb", "generic"),
                        arbiters=("static-priority", "round-robin"))
    return points_for_space(space, tiny_specs(), workload="w",
                            max_sim_time=us(2_000))


def det_rows(outcomes):
    """Simulation-derived fields only — wall clock excluded."""
    return [
        (o.key, o.result.config.name, o.result.mean_latency_ns,
         o.result.throughput_mbps, o.result.utilization,
         o.result.sim_time_ns, o.result.total_bytes)
        for o in outcomes if not o.failed
    ]


class TestRecoveryPolicy:
    def test_backoff_delegates_to_retry_policy(self):
        """Satellite pin: RecoveryPolicy's respawn backoff must equal
        RetryPolicy.from_seconds() — one backoff implementation."""
        recovery = RecoveryPolicy(backoff_s=0.05, exponential=True,
                                  max_backoff_s=1.0, max_respawns=8)
        retry = RetryPolicy.from_seconds(
            max_attempts=8, backoff_s=0.05, exponential=True,
            max_backoff_s=1.0)
        for attempt in range(1, 9):
            assert recovery.delay_s(attempt) == pytest.approx(
                retry.delay_s(attempt))

    def test_exponential_schedule_values_pinned(self):
        recovery = RecoveryPolicy(backoff_s=0.05, exponential=True,
                                  max_backoff_s=1.0)
        delays = [recovery.delay_s(n) for n in range(1, 8)]
        assert delays == pytest.approx(
            [0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0])

    def test_fixed_schedule(self):
        recovery = RecoveryPolicy(backoff_s=0.02, exponential=False)
        assert [recovery.delay_s(n) for n in (1, 2, 5)] == pytest.approx(
            [0.02, 0.02, 0.02])

    def test_batch_budget_scales_with_points(self):
        assert RecoveryPolicy().batch_budget_s(4) is None
        policy = RecoveryPolicy(deadline_s=2.0)
        assert policy.batch_budget_s(3) == pytest.approx(6.0)
        assert policy.batch_budget_s(0) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_respawns=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(batch_attempts=0)
        with pytest.raises(ValueError):
            RecoveryPolicy(point_attempts=0)
        with pytest.raises(ValueError):
            RecoveryPolicy(deadline_s=0.0)


class TestFailureRecords:
    def test_failure_from_exception_shape(self):
        try:
            raise ValueError("boom " + "x" * 500)
        except ValueError as exc:
            failure = failure_from_exception(exc, attempts=3)
        assert failure["kind"] == "error"
        assert failure["error_type"] == "ValueError"
        assert len(failure["message"]) == 300
        assert len(failure["traceback_digest"]) == 16
        assert failure["attempts"] == 3
        assert "ValueError" in failure["traceback"]

    def test_failure_from_loss_kinds(self):
        crash = failure_from_loss("crash", "worker died", attempts=2)
        timeout = failure_from_loss("timeout", "blew deadline", attempts=1)
        assert crash["error_type"] == "WorkerCrash"
        assert timeout["error_type"] == "PointDeadline"
        assert crash["traceback_digest"] != timeout["traceback_digest"]

    def test_quarantine_record_drops_traceback(self):
        try:
            raise RuntimeError("bad")
        except RuntimeError as exc:
            failure = failure_from_exception(exc)
        record = quarantine_record(failure)
        assert "traceback" not in record
        assert record["traceback_digest"] == failure["traceback_digest"]
        assert sorted(record) == ["attempts", "error_type", "kind",
                                  "message", "traceback_digest"]


class TestStoreFailureRecords:
    def test_round_trip_and_count(self, tmp_path):
        store = SweepStore(tmp_path)
        record = {"kind": "crash", "error_type": "WorkerCrash",
                  "message": "died", "traceback_digest": "ab" * 8,
                  "attempts": 2}
        store.put_failure("k1", record)
        assert store.get_failure("k1") == record
        assert store.failure_count == 1
        assert list(store.failure_keys()) == ["k1"]
        # a reopened store sees the same record
        assert SweepStore(tmp_path).get_failure("k1") == record

    def test_cross_kind_last_line_wins(self, tmp_path):
        store = SweepStore(tmp_path)
        failure = {"kind": "error", "error_type": "ValueError",
                   "message": "x", "traceback_digest": "0" * 16,
                   "attempts": 1}
        store.put_failure("k", failure)
        store.put("k", {"config": {}, "ok": True})
        # the later success supersedes the quarantine...
        reopened = SweepStore(tmp_path)
        assert reopened.get_failure("k") is None
        assert reopened.get("k") == {"config": {}, "ok": True}
        # ...and a later quarantine supersedes the success
        reopened.put_failure("k", failure)
        fresh = SweepStore(tmp_path)
        assert fresh.get_failure("k") == failure
        assert fresh.get("k") is None


class TestQuarantineSemantics:
    """Satellite: raise / os._exit / hang each end as a kind-tagged
    quarantine, and a warm resume skips it without re-executing."""

    def _run(self, tmp_path, hazard, action, seconds=3600.0,
             **engine_kwargs):
        points = four_points()
        poison = points[3]
        hazard.arm(poison.config.name, action, seconds=seconds)
        store = SweepStore(tmp_path / "cache")
        with SweepEngine(workers=2, store=store,
                         **engine_kwargs) as engine:
            outcomes = engine.run(points)
        return points, poison, store, engine, outcomes

    def _assert_quarantined(self, outcomes, poison, store, kind,
                            error_type):
        bad = [o for o in outcomes if o.failed]
        assert len(bad) == 1
        assert bad[0].key == poison.key()
        assert bad[0].failure["kind"] == kind
        assert bad[0].failure["error_type"] == error_type
        assert bad[0].failure["attempts"] >= 2
        # persisted as the same kind-tagged record
        stored = store.get_failure(poison.key())
        assert stored == bad[0].failure
        assert len(ranked(outcomes)) == 3
        assert [o.key for o in quarantined(outcomes)] == [poison.key()]

    def _assert_resume_skips(self, tmp_path, points, poison, hazard):
        hazard.disarm()
        store = SweepStore(tmp_path / "cache")
        with SweepEngine(workers=2, store=store) as engine:
            outcomes = engine.run(points)
            assert engine.last_computed == 0
            assert engine.pool_spawns == 0  # nothing re-executed
        bad = [o for o in outcomes if o.failed]
        assert len(bad) == 1 and bad[0].cached
        assert bad[0].key == poison.key()

    def test_raising_point(self, tmp_path, hazard):
        points, poison, store, engine, outcomes = self._run(
            tmp_path, hazard, "raise")
        self._assert_quarantined(outcomes, poison, store,
                                 "error", "InjectedHazardError")
        assert engine.last_recovery["point_retries"] >= 1
        self._assert_resume_skips(tmp_path, points, poison, hazard)

    def test_raising_point_in_process(self, hazard):
        """The zero-worker case takes the same retry/quarantine rule."""
        points = four_points()
        poison = points[3]
        hazard.arm(poison.config.name, "raise")
        engine = SweepEngine(workers=1)
        outcomes = engine.run(points)
        bad = quarantined(outcomes)
        assert [o.key for o in bad] == [poison.key()]
        assert bad[0].failure["kind"] == "error"
        assert bad[0].failure["attempts"] == engine.recovery.point_attempts
        assert engine.pool_spawns == 0
        assert engine.last_recovery is None

    def test_worker_exit_point(self, tmp_path, hazard):
        points, poison, store, engine, outcomes = self._run(
            tmp_path, hazard, "exit")
        self._assert_quarantined(outcomes, poison, store,
                                 "crash", "WorkerCrash")
        assert engine.last_recovery["worker_crashes"] >= 2
        assert engine.last_recovery["worker_respawns"] >= 2
        self._assert_resume_skips(tmp_path, points, poison, hazard)

    def test_hang_past_deadline(self, tmp_path, hazard):
        points, poison, store, engine, outcomes = self._run(
            tmp_path, hazard, "hang", seconds=60, deadline_s=0.5)
        self._assert_quarantined(outcomes, poison, store,
                                 "timeout", "PointDeadline")
        assert engine.last_recovery["timeouts"] >= 2
        self._assert_resume_skips(tmp_path, points, poison, hazard)

    def test_rerun_supersedes_quarantine(self, tmp_path, hazard):
        points, poison, store, engine, outcomes = self._run(
            tmp_path, hazard, "raise")
        hazard.disarm()
        store = SweepStore(tmp_path / "cache")
        with SweepEngine(workers=2, store=store) as engine:
            redo = engine.run([poison], rerun=True)
        assert not redo[0].failed
        fresh = SweepStore(tmp_path / "cache")
        assert fresh.failure_count == 0
        assert fresh.get(poison.key()) is not None


class TestChaosDeterminism:
    """The headline gate: completed results bit-identical whether 0,
    1, or 3 workers are SIGKILLed mid-run."""

    @pytest.fixture(scope="class")
    def calm_rows(self):
        with SweepEngine(workers=2) as engine:
            return det_rows(engine.run(four_points()))

    @pytest.mark.parametrize("kills", [1, 3])
    def test_kills_do_not_change_results(self, calm_rows, hazard, kills):
        # every kill costs its batch one attempt; a budget of kills + 1
        # lets even a batch hit by every kill finish without bisection
        hazard.arm(None, "kill", kills=kills)
        with SweepEngine(workers=2, recovery=RecoveryPolicy(
                batch_attempts=kills + 1)) as engine:
            outcomes = engine.run(four_points())
        assert engine.last_quarantined == 0
        assert engine.last_recovery["worker_crashes"] == kills
        assert engine.last_recovery["worker_respawns"] == kills
        assert det_rows(outcomes) == calm_rows

    def test_ledger_records_recovery_counts(self, hazard):
        """One kill: one respawn counted, one respawn span traced."""
        from repro.obs.telemetry import SweepTelemetry

        hazard.arm(None, "kill", kills=1)
        telemetry = SweepTelemetry()
        with SweepEngine(workers=2, telemetry=telemetry) as engine:
            engine.run(four_points())
        assert engine.last_recovery["worker_crashes"] == 1
        assert engine.last_recovery["worker_respawns"] == 1
        assert engine.last_quarantined == 0
        respawns = [span for span in telemetry.spans.spans
                    if span["track"] == "recovery"]
        assert len(respawns) == 1
        assert re.fullmatch(r"respawn w\d+", respawns[0]["name"])
        assert respawns[0]["t1"] >= respawns[0]["t0"]


class TestEngineSessionState:
    def test_session_failures_accumulate_and_supersede(
            self, tmp_path, hazard):
        points = four_points()
        poison = points[2]
        hazard.arm(poison.config.name, "raise")
        store = SweepStore(tmp_path)
        with SweepEngine(workers=2, store=store) as engine:
            engine.run(points)
            assert set(engine.session_failures) == {poison.key()}
            assert engine.session_recovery["quarantined"] == 1
            hazard.disarm()
            redo = engine.run([poison], rerun=True)
            assert not redo[0].failed
            assert engine.session_failures == {}


class TestShutdownGuard:
    def test_sigint_becomes_catchable(self):
        with pytest.raises(SweepInterrupted) as excinfo:
            with ShutdownGuard() as guard:
                os.kill(os.getpid(), signal.SIGINT)
                time.sleep(5)  # the signal interrupts this
        assert excinfo.value.signum == signal.SIGINT
        assert guard.fired == signal.SIGINT
        assert "SIGINT" in str(excinfo.value)

    def test_previous_handlers_restored(self):
        before = signal.getsignal(signal.SIGINT)
        with ShutdownGuard():
            assert signal.getsignal(signal.SIGINT) != before
        assert signal.getsignal(signal.SIGINT) == before


class TestDeadWorkerDiagnostics:
    """Satellite: the pool names what each dead pid was doing."""

    class FakeProc:
        name = "sweep-worker-0"
        pid = 54321
        exitcode = -9

    def test_describe_dead_names_batches_and_heartbeat(self):
        pool = WorkerPool(workers=2)
        pool._in_flight[7] = {"pid": 54321, "points": 3,
                              "started": time.time() - 2.0}
        pool._worker_last_seen[54321] = time.time() - 1.0
        text = pool.describe_dead([self.FakeProc()])
        assert "pid 54321" in text
        assert "exit -9" in text
        assert "batch 7" in text
        assert "3 point(s)" in text
        assert "last heartbeat" in text

    def test_describe_dead_idle_worker(self):
        pool = WorkerPool(workers=2)
        text = pool.describe_dead([self.FakeProc()])
        assert "no batch in flight" in text


class TestCliRecoveryFlags:
    def test_chaos_spec_rejected(self, capsys):
        # worker kills are a test fixture, not a CLI option
        from repro.sweep.cli import main

        with pytest.raises(SystemExit):
            main(["--chaos", "kill-worker:1"])
        assert "unrecognized arguments: --chaos" in capsys.readouterr().err

    def test_bad_deadline_rejected(self):
        from repro.sweep.cli import main

        with pytest.raises(SystemExit):
            main(["--max-point-seconds", "0"])

    def test_quarantine_section_in_report(self, tmp_path, hazard,
                                          capsys):
        from repro.sweep.cli import main

        space_args = [
            "--workload", "mixed", "--fabrics", "plb,generic",
            "--arbiters", "static-priority,round-robin",
            "--transactions", "3", "--workers", "2",
            "--cache", str(tmp_path / "cache"),
            "--json", str(tmp_path / "report.json"),
        ]
        hazard.arm("plb/round-robin@100MHz/b16", "raise")
        assert main(space_args) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert "InjectedHazardError" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["quarantined"]) == 1
        assert report["quarantined"][0]["kind"] == "error"
        assert len(report["ranked"]) == 3
        assert report["recovery"]["quarantined"] == 1
