"""Cross-process sweep telemetry: spans, progress stream, run ledger.

Everything the sweep runtime builds above the kernel — warm worker
pools, replicated runs, halving stages — is opaque from the outside:
worker-side instruments die with the batch, and a long sweep prints
nothing until it finishes.  This module is the observability layer that
fixes that, in four pieces:

* :class:`SpanRecorder` — lightweight wall-clock spans.  The engine
  records orchestrator-side spans (each ``run()``, the cache/dedup
  phase, each parallel dispatch, each batch round-trip); workers record
  per-point ``setup`` / ``simulate`` / ``serialize`` spans that ship
  home inside the batch reply.
* :class:`ProgressStream` — an append-only JSONL event stream
  (``run_started``, ``point_done``, ``batch_done``,
  ``worker_heartbeat``, ``stall_warning``, ``run_finished``, …) with
  in-process listeners; the sweep CLI's ``--progress`` mode attaches a
  :class:`ProgressRenderer` to it for a live status line.
* :class:`RunLedger` — a run-history directory: one JSONL record per
  ``SweepEngine.run()`` (config digest, timing breakdown, cache stats,
  pool spawn/reuse/ping figures) plus per-run JSON manifests.
  ``python -m repro.obs.report --runs DIR`` renders the history with
  deltas.
* :class:`SweepTelemetry` — the hub that owns all of the above, merges
  worker metrics snapshots under ``worker.*``
  (:meth:`repro.obs.metrics.MetricsRegistry.merge`), and stitches
  orchestrator plus worker spans into one merged Chrome-trace /
  Perfetto timeline (:class:`~repro.obs.trace_events.TraceEventCollector`)
  where every worker is its own process track.

The layer is strictly additive: simulation results are bit-identical
with telemetry on or off (workers run the exact same
``decode → run_point → to_dict`` pipeline), and the telemetry-off path
never even imports this module — the tier-1 tests assert both.  All
timestamps are host wall clock (:func:`time.time`), the one
clock comparable across processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace_events import TraceEventCollector

#: Schema version stamped on every ledger record.
LEDGER_SCHEMA = 1

#: Seconds a dispatched worker may stay silent before the stream emits
#: a ``stall_warning``.  Deliberately well under the pool's
#: ``READY_TIMEOUT_S`` (60 s) so the stream warns while the pool is
#: still willing to wait.
STALL_WARNING_S = 30.0

#: Seconds between aggregate ``worker_heartbeat`` events while the
#: engine is waiting on workers.
HEARTBEAT_INTERVAL_S = 5.0

#: Synthetic trace pid of the orchestrator process track.
ORCHESTRATOR_TRACE_PID = 1

#: First synthetic trace pid handed out to worker process tracks.
WORKER_TRACE_PID_BASE = 10


class SpanRecorder:
    """Collects wall-clock spans as plain JSON-able dicts.

    A span is ``{"name", "track", "t0", "t1", "args"}`` with ``t0`` /
    ``t1`` in :func:`time.time` seconds — the one clock comparable
    across processes, which is what lets worker-side spans stitch onto
    the orchestrator's timeline.  ``clock`` is injectable for
    deterministic tests.
    """

    def __init__(self, clock: Callable[[], float] = time.time):
        self._clock = clock
        #: recorded spans, in completion order
        self.spans: List[dict] = []

    @contextmanager
    def span(self, name: str, track: str = "engine", **args):
        """Context manager recording one span around its body."""
        t0 = self._clock()
        try:
            yield
        finally:
            self.add(name, t0, self._clock(), track=track, **args)

    def add(self, name: str, t0: float, t1: float,
            track: str = "engine", **args) -> None:
        """Record one already-finished span explicitly."""
        self.spans.append({
            "name": name, "track": track,
            "t0": t0, "t1": t1, "args": args,
        })

    def total(self, name: str) -> float:
        """Summed duration (seconds) of every span called ``name``."""
        return sum(s["t1"] - s["t0"] for s in self.spans
                   if s["name"] == name)

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"SpanRecorder({len(self.spans)} spans)"


class ProgressStream:
    """Append-only JSONL progress events plus in-process listeners.

    Every :meth:`emit` stamps the event with ``ts`` (wall clock),
    appends one JSON line to ``path`` (when given — the stream also
    works purely in-memory for listener-only use), and fans the event
    out to every registered listener.  Events are plain dicts with a
    ``type`` tag; see the module docstring for the vocabulary.  Lines
    are flushed per event so ``tail -f progress.jsonl`` follows a live
    sweep.
    """

    def __init__(self, path=None,
                 clock: Callable[[], float] = time.time):
        self._clock = clock
        self.path = str(path) if path is not None else None
        self._fh = (open(self.path, "a", encoding="utf-8")
                    if self.path is not None else None)
        self._listeners: List[Callable[[dict], None]] = []
        #: events emitted over this stream's lifetime
        self.events = 0

    def add_listener(self, fn: Callable[[dict], None]) -> None:
        """Call ``fn(event)`` on every :meth:`emit`."""
        self._listeners.append(fn)

    def emit(self, event: dict) -> None:
        """Stamp, persist, and fan out one progress event."""
        if "ts" not in event:
            event["ts"] = round(self._clock(), 6)
        self.events += 1
        if self._fh is not None:
            self._fh.write(json.dumps(event, sort_keys=True) + "\n")
            self._fh.flush()
        for fn in self._listeners:
            fn(event)

    def close(self) -> None:
        """Close the backing file; idempotent.  Listeners survive."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __repr__(self) -> str:
        return f"ProgressStream({self.path!r}, {self.events} events)"


class ProgressRenderer:
    """Live one-line progress display (the CLI's ``--progress`` mode).

    Subscribe with :meth:`attach`; every progress event redraws a
    single carriage-return-updated status line on ``out`` showing
    points done vs pending, the rolling points/s rate, the cache-hit
    split, per-worker liveness (``w<id>:<points-done>``, suffixed ``!``
    while stalled) and an ETA extrapolated from the current rate.
    Stall warnings, worker deaths/respawns and quarantines print as
    full lines so they survive the live line's overwrites; quarantined
    points count toward progress (they are resolved, just not with a
    result) and show as a ``quar N`` field.  ``clock`` is injectable
    for deterministic tests.
    """

    def __init__(self, out=None, clock: Callable[[], float] = time.time):
        self.out = out if out is not None else sys.stderr
        self._clock = clock
        self._t0: Optional[float] = None
        self._phase: Optional[str] = None
        self._pending: Optional[int] = None
        self._cached = 0
        self._done = 0
        self._quarantined = 0
        self._crashes = 0
        self._workers: Dict[object, dict] = {}
        self._width = 0

    def attach(self, stream: ProgressStream) -> "ProgressRenderer":
        """Subscribe to ``stream``; returns ``self`` for chaining."""
        stream.add_listener(self.on_event)
        return self

    def on_event(self, event: dict) -> None:
        """Progress-stream listener: fold the event in, redraw."""
        etype = event.get("type")
        if etype == "run_started":
            self._t0 = event.get("ts", self._clock())
            self._phase = event.get("phase")
            self._pending = None
            self._cached = 0
            self._done = 0
            self._quarantined = 0
        elif etype == "cache_resolved":
            self._cached = int(event.get("cached") or 0)
            self._pending = int(event.get("pending") or 0)
        elif etype == "point_done":
            self._done += 1
            self._update_worker(event)
        elif etype == "worker_heartbeat":
            for info in event.get("workers", ()):
                self._update_worker(info)
        elif etype == "stall_warning":
            self._newline()
            self.out.write(
                f"[sweep] worker {event.get('worker_id')} "
                f"(pid {event.get('pid')}) silent for "
                f"{event.get('idle_s', 0):.0f}s\n"
            )
            state = self._workers.setdefault(
                event.get("worker_id"), {"points_done": 0})
            state["stalled"] = True
        elif etype == "worker_crashed":
            self._crashes += 1
            self._newline()
            self.out.write(
                f"[sweep] worker {event.get('worker_id')} "
                f"(pid {event.get('pid')}) died "
                f"(exit {event.get('exitcode')}); "
                f"{event.get('points', 0)} point(s) requeued\n"
            )
        elif etype == "worker_respawned":
            self._newline()
            self.out.write(
                f"[sweep] worker {event.get('worker_id')} respawned "
                f"(pid {event.get('pid')})\n"
            )
        elif etype == "point_quarantined":
            self._quarantined += 1
            self._done += 1
            self._newline()
            self.out.write(
                f"[sweep] quarantined {event.get('config')} "
                f"({event.get('kind')}: {event.get('error_type')}, "
                f"{event.get('attempts')} attempt(s))\n"
            )
        elif etype == "run_finished":
            self._render()
            self._newline()
            return
        self._render()

    def _update_worker(self, info: dict) -> None:
        wid = info.get("worker_id")
        if wid is None:
            return
        state = self._workers.setdefault(wid, {"points_done": 0})
        state["points_done"] = int(
            info.get("points_done") or state["points_done"])
        state["stalled"] = False

    def _render(self) -> None:
        now = self._clock()
        elapsed = max(1e-9, now - (self._t0 if self._t0 is not None
                                   else now))
        rate = self._done / elapsed
        total = "?" if self._pending is None else str(self._pending)
        if self._pending and rate > 0:
            eta = max(0.0, (self._pending - self._done) / rate)
            eta_text = f"eta {eta:.0f}s"
        else:
            eta_text = "eta --"
        workers = " ".join(
            f"w{wid}:{st.get('points_done', 0)}"
            f"{'!' if st.get('stalled') else ''}"
            for wid, st in sorted(self._workers.items(),
                                  key=lambda kv: str(kv[0]))
        )
        phase = f" {self._phase}" if self._phase else ""
        extras = ""
        if self._quarantined:
            extras += f"  quar {self._quarantined}"
        if self._crashes:
            extras += f"  crashes {self._crashes}"
        line = (f"[sweep{phase}] {self._done}/{total} pts "
                f"{rate:.1f}/s  cache {self._cached}  "
                f"{workers}{extras}  {eta_text}")
        pad = max(0, self._width - len(line))
        self._width = len(line)
        self.out.write("\r" + line + " " * pad)
        self.out.flush()

    def _newline(self) -> None:
        if self._width:
            self.out.write("\n")
            self._width = 0

    def __repr__(self) -> str:
        return (f"ProgressRenderer(done={self._done}, "
                f"workers={len(self._workers)})")


class RunLedger:
    """Append-only run-history ledger under one directory.

    ``ledger.jsonl`` holds one JSON record per line, ``kind``-tagged:

    * ``"run"`` — one ``SweepEngine.run()`` with its config digest,
      timing breakdown, cache stats and pool figures (the
      ``RunRecord`` manifest; also written as a per-run
      ``<run_id>.json`` file for artifact upload);
    * ``"summary"`` — the CLI's final ranked report (point count,
      cache split, ranking), written once per invocation;
    * ``"replication"`` — one replicated-runner session (replicate and
      round totals).

    Appends are single ``O_APPEND`` writes — the same torn-line-safe
    discipline as :class:`repro.sweep.store.SweepStore` — and
    :meth:`records` skips unparseable lines, so a killed writer never
    poisons the history.
    """

    def __init__(self, directory):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        #: the JSONL history file
        self.path = self.dir / "ledger.jsonl"
        self._seq = sum(1 for r in self.records()
                        if r.get("kind") == "run")

    def next_run_id(self, digest: str = "") -> str:
        """Allocate the next sequential run id (digest-suffixed)."""
        self._seq += 1
        suffix = f"-{digest[:8]}" if digest else ""
        return f"run-{self._seq:04d}{suffix}"

    def append(self, record: dict) -> None:
        """Append one record; ``run`` records also get a manifest file."""
        line = json.dumps(record, sort_keys=True) + "\n"
        fd = os.open(self.path,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        if record.get("kind") == "run" and record.get("run_id"):
            # Crash-consistent manifest: write a temp file, then
            # os.replace() it into place.  A run killed mid-write
            # leaves either the old manifest or the new one — never a
            # torn half-JSON that breaks later ``--runs`` rendering.
            manifest = self.dir / f"{record['run_id']}.json"
            tmp = manifest.with_suffix(".json.tmp")
            data = json.dumps(record, indent=1, sort_keys=True) + "\n"
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                         0o644)
            try:
                os.write(fd, data.encode("utf-8"))
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, manifest)

    def records(self, kind: Optional[str] = None) -> List[dict]:
        """Every parseable record in append order, filtered by kind."""
        out: List[dict] = []
        if not self.path.exists():
            return out
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail line from a killed writer
                if kind is None or record.get("kind") == kind:
                    out.append(record)
        return out

    def __repr__(self) -> str:
        return f"RunLedger({str(self.dir)!r}, {self._seq} runs)"


class SweepTelemetry:
    """The cross-process observability hub of one sweep session.

    Construct one and hand it to
    ``SweepEngine(telemetry=...)``; from then on the engine drives the
    ``begin_run`` / ``cache_resolved`` / ``begin_dispatch`` /
    ``absorb_batch`` / ``end_dispatch`` / ``end_run`` protocol, and the
    worker pool forwards worker-side events
    (:meth:`on_worker_event`) plus idle polls (:meth:`on_poll_idle`,
    which powers heartbeats and stall detection).  Everything is
    optional: without a ledger directory nothing touches disk, without
    a trace path no trace is written — the progress stream still feeds
    any attached listeners.

    ``metrics`` defaults to a private
    :class:`~repro.obs.metrics.MetricsRegistry`; worker snapshots merge
    into it under ``worker.*``.  ``clock`` is injectable so stall and
    heartbeat behaviour is testable without sleeping.
    """

    def __init__(self, ledger=None,
                 stream: Optional[ProgressStream] = None,
                 trace_path: Optional[str] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 stall_after_s: float = STALL_WARNING_S,
                 heartbeat_every_s: float = HEARTBEAT_INTERVAL_S,
                 clock: Callable[[], float] = time.time):
        self._clock = clock
        if ledger is not None and not isinstance(ledger, RunLedger):
            ledger = RunLedger(ledger)
        #: the :class:`RunLedger`, or None for a file-less session
        self.ledger = ledger
        if stream is None:
            path = (self.ledger.dir / "progress.jsonl"
                    if self.ledger is not None else None)
            stream = ProgressStream(path, clock=clock)
        #: the :class:`ProgressStream` every event flows through
        self.stream = stream
        #: where :meth:`close` writes the stitched trace (None = skip)
        self.trace_path = trace_path
        #: merge target for worker snapshots (``worker.*``)
        self.metrics = (metrics if metrics is not None
                        else MetricsRegistry())
        #: orchestrator-side spans (engine run / cache / dispatch / batch)
        self.spans = SpanRecorder(clock)
        self.stall_after_s = stall_after_s
        self.heartbeat_every_s = heartbeat_every_s
        #: strategy-set stage label ("screen", "finals") stamped on
        #: run records and ``run_started`` events
        self.phase: Optional[str] = None
        #: extra JSON-able context stamped on run records (the
        #: replicated runner publishes its round counters here)
        self.context: Dict[str, object] = {}
        #: worker telemetry blobs, in absorption order
        self.worker_blobs: List[dict] = []
        #: ledger ``run`` records written this session
        self.run_records: List[dict] = []
        self._workers: Dict[object, dict] = {}
        self._run: Optional[dict] = None
        self._dispatch: Optional[dict] = None
        self._last_heartbeat = clock()
        self._epoch = clock()

    def clock(self) -> float:
        """The telemetry wall clock (injectable for tests)."""
        return self._clock()

    # -- engine protocol ----------------------------------------------

    def begin_run(self, keys: Sequence[str], workers: int,
                  rerun: bool = False) -> None:
        """Engine hook: one ``SweepEngine.run()`` is starting.

        ``keys`` are the content keys of every requested point; their
        sorted SHA-256 digest identifies the run's configuration in the
        ledger (two runs with the same digest asked for the same work).
        """
        digest = hashlib.sha256(
            "\n".join(sorted(keys)).encode("utf-8")).hexdigest()
        self._run = {
            "t0": self._clock(),
            "perf0": time.perf_counter(),
            "digest": digest,
            "points": len(keys),
            "blobs": [],
            "cache_s": 0.0,
            "dispatch_s": 0.0,
            "restores": 0,
            "checkpoints_saved": 0,
        }
        self.stream.emit({
            "type": "run_started", "points": len(keys),
            "digest": digest[:12], "workers": workers,
            "rerun": bool(rerun), "phase": self.phase,
        })

    def cache_resolved(self, cached: int, pending: int,
                       t0: float) -> None:
        """Engine hook: the cache-lookup/dedup phase just finished."""
        t1 = self._clock()
        self.spans.add("cache", t0, t1, track="engine",
                       cached=cached, pending=pending)
        if self._run is not None:
            self._run["cache_s"] += t1 - t0
        self.stream.emit({"type": "cache_resolved", "cached": cached,
                          "pending": pending})

    def begin_dispatch(self, worker_pids: Sequence[int],
                       batches: int, points: int) -> None:
        """Engine hook: a parallel dispatch starts (arms stall checks).

        Seeds every worker's liveness state with the dispatch start
        time, so a worker that never says anything still trips the
        stall warning ``stall_after_s`` later.
        """
        t0 = self._clock()
        self._dispatch = {"t0": t0, "batches": batches}
        for wid, pid in enumerate(worker_pids):
            state = self._workers.setdefault(wid, {"points_done": 0})
            state["last_seen"] = t0
            state["pid"] = pid
            state["stalled"] = False
        self.stream.emit({
            "type": "dispatch_started", "batches": batches,
            "points": points, "workers": len(worker_pids),
        })

    def end_dispatch(self) -> None:
        """Engine hook: the parallel dispatch finished; record its span."""
        dispatch = self._dispatch
        self._dispatch = None
        if dispatch is None:
            return
        t1 = self._clock()
        self.spans.add("dispatch", dispatch["t0"], t1, track="engine",
                       batches=dispatch["batches"])
        if self._run is not None:
            self._run["dispatch_s"] += t1 - dispatch["t0"]

    def absorb_batch(self, blob: Optional[dict],
                     generation: int = 0) -> None:
        """Engine hook: ingest one worker telemetry blob.

        Keeps the blob's spans for trace stitching and merges its
        metrics snapshot into :attr:`metrics` under ``worker.``.
        ``generation`` (the pool's spawn generation) disambiguates
        worker identities across pool restarts — the OS can hand a new
        generation a recycled pid.
        """
        if not blob:
            return
        blob = dict(blob)
        blob["generation"] = generation
        self.worker_blobs.append(blob)
        if self._run is not None:
            self._run["blobs"].append(blob)
        snapshot = blob.get("metrics")
        if snapshot:
            self.metrics.merge(snapshot, prefix="worker.")

    def end_run(self, *, cached: int, computed: int, batches: int,
                workers: int, pool_stats: Optional[dict] = None,
                pool_spawns: int = 0, pool_reuses: int = 0,
                recovery: Optional[dict] = None,
                quarantined: int = 0) -> dict:
        """Engine hook: finalize the run's ``RunRecord`` and ledger it.

        The record carries the config digest, the wall/cache/dispatch/
        worker-phase timing breakdown (worker phases summed from the
        shipped-back spans), cache stats, the pool's spawn/reuse/
        ping figures, the self-healing summary (``recovery`` — worker
        crashes/respawns/requeues/timeouts as counted by
        ``WorkerPool.run_batches``, point retries and quarantines as
        counted by the engine) and the number of points
        quarantined this run.  Returns the record (also kept on
        :attr:`run_records`).
        """
        run = self._run
        self._run = None
        if run is None:
            raise RuntimeError("end_run() without begin_run()")
        t1 = self._clock()
        wall = time.perf_counter() - run["perf0"]
        timing = {
            "wall_s": round(wall, 6),
            "cache_s": round(run["cache_s"], 6),
            "dispatch_s": round(run["dispatch_s"], 6),
        }
        for name in ("setup", "restore", "simulate", "serialize"):
            timing[f"worker_{name}_s"] = round(sum(
                s["t1"] - s["t0"]
                for blob in run["blobs"]
                for s in blob.get("spans", ())
                if s.get("name") == name), 6)
        digest = run["digest"]
        run_id = (self.ledger.next_run_id(digest)
                  if self.ledger is not None
                  else f"run-{len(self.run_records) + 1:04d}"
                       f"-{digest[:8]}")
        record = {
            "schema": LEDGER_SCHEMA, "kind": "run", "run_id": run_id,
            "ts": round(t1, 3), "phase": self.phase,
            "digest": digest,
            "points": run["points"], "cached": cached,
            "computed": computed, "batches": batches,
            "workers": workers,
            "points_per_s": (round(run["points"] / wall, 3)
                             if wall > 0 else None),
            "timing": timing,
            "pool": dict(pool_stats or {}, spawns=pool_spawns,
                         reuses=pool_reuses),
            "recovery": (dict(recovery) if recovery else None),
            "quarantined": int(quarantined),
            # checkpoint restores / boot checkpoints resolved during
            # this run (0 on cold runs; the report's "warm" column)
            "restores": int(run["restores"]),
            "checkpoints_saved": int(run["checkpoints_saved"]),
            "context": dict(self.context),
        }
        self.run_records.append(record)
        if self.ledger is not None:
            self.ledger.append(record)
        self.spans.add(run_id, run["t0"], t1, track="engine",
                       points=run["points"], phase=self.phase)
        self.stream.emit({
            "type": "run_finished", "run_id": run_id,
            "points": run["points"], "cached": cached,
            "computed": computed, "wall_s": timing["wall_s"],
            "quarantined": int(quarantined),
        })
        return record

    # -- pool hooks ---------------------------------------------------

    def on_worker_event(self, event: dict) -> None:
        """Pool hook: ingest one worker/pool event, stream it.

        ``point_done`` events double as heartbeats — they refresh the
        worker's liveness state (pid, points done, current key) and
        clear any stall flag.  ``batch_done`` events additionally
        become orchestrator-side batch spans (submit-to-reply, on the
        ``batches`` track).  Self-healing events are folded in too:
        ``worker_crashed`` bumps the worker's crash count,
        ``worker_respawned`` closes the outage as a span on the
        ``recovery`` track (crash instant to respawn instant), and
        ``point_quarantined`` / ``point_timeout`` / ``point_failed``
        stream through for renderers and the progress log.
        Warm-start events — ``checkpoint_saved`` (engine-side boot
        materialization) and ``checkpoint_restored`` (a worker resumed
        a point from a checkpoint) — bump the current run's counters,
        which land on the run record as ``checkpoints_saved`` /
        ``restores``.
        """
        event = dict(event)
        event.setdefault("ts", self._clock())
        etype = event.setdefault("type", "worker_event")
        wid = event.get("worker_id")
        if wid is not None:
            state = self._workers.setdefault(wid, {"points_done": 0})
            state["last_seen"] = event["ts"]
            state["stalled"] = False
            if event.get("pid") is not None:
                state["pid"] = event["pid"]
            if etype == "point_done":
                state["points_done"] = int(
                    event.get("points_done")
                    or state["points_done"] + 1)
                event.setdefault("points_done", state["points_done"])
                if event.get("key"):
                    state["current_key"] = event["key"]
            elif etype == "worker_crashed":
                state["crashes"] = state.get("crashes", 0) + 1
        if etype == "checkpoint_restored" and self._run is not None:
            self._run["restores"] += 1
        elif etype == "checkpoint_saved" and self._run is not None:
            self._run["checkpoints_saved"] += 1
        if etype == "batch_done" and event.get("submit_ts") is not None:
            self.spans.add(
                f"batch {event.get('batch')}", event["submit_ts"],
                event["ts"], track="batches", worker=wid,
                points=event.get("points"),
            )
        elif (etype == "worker_respawned"
                and event.get("crashed_ts") is not None):
            self.spans.add(
                f"respawn w{wid}", event["crashed_ts"], event["ts"],
                track="recovery", worker=wid,
                old_pid=event.get("old_pid"),
                new_pid=event.get("pid"),
            )
        self.stream.emit(event)

    def on_poll_idle(self) -> None:
        """Pool hook (idle result polls): heartbeats + stall warnings.

        Emits an aggregate ``worker_heartbeat`` every
        ``heartbeat_every_s`` and a one-shot ``stall_warning`` per
        worker whose last sign of life is older than
        ``stall_after_s`` (the flag clears on the worker's next
        event).
        """
        now = self._clock()
        if now - self._last_heartbeat >= self.heartbeat_every_s:
            self._last_heartbeat = now
            self.stream.emit({
                "type": "worker_heartbeat", "ts": round(now, 6),
                "workers": [
                    {
                        "worker_id": wid,
                        "pid": st.get("pid"),
                        "points_done": st.get("points_done", 0),
                        "current_key": st.get("current_key"),
                        "idle_s": round(
                            now - st.get("last_seen", now), 3),
                    }
                    for wid, st in sorted(
                        self._workers.items(),
                        key=lambda kv: str(kv[0]))
                ],
            })
        for wid, state in self._workers.items():
            last = state.get("last_seen")
            if last is None or state.get("stalled"):
                continue
            idle = now - last
            if idle > self.stall_after_s:
                state["stalled"] = True
                self.stream.emit({
                    "type": "stall_warning", "ts": round(now, 6),
                    "worker_id": wid, "pid": state.get("pid"),
                    "idle_s": round(idle, 3),
                    "threshold_s": self.stall_after_s,
                })

    def worker_states(self) -> Dict[object, dict]:
        """Per-worker liveness snapshot (points done, pid, stall flag)."""
        return {wid: dict(st) for wid, st in self._workers.items()}

    # -- ledger extras ------------------------------------------------

    def record_summary(self, summary: dict) -> dict:
        """Write a final ranked-report record (CLI) into the ledger."""
        record = {"schema": LEDGER_SCHEMA, "kind": "summary",
                  "ts": round(self._clock(), 3)}
        record.update(summary)
        if self.ledger is not None:
            self.ledger.append(record)
        return record

    def record_replication(self, info: dict) -> dict:
        """Ledger + stream one replicated-runner session summary."""
        record = {"schema": LEDGER_SCHEMA, "kind": "replication",
                  "ts": round(self._clock(), 3)}
        record.update(info)
        if self.ledger is not None:
            self.ledger.append(record)
        self.stream.emit(dict(info, type="replication_done"))
        return record

    # -- trace stitching ----------------------------------------------

    def build_trace(self) -> TraceEventCollector:
        """Stitch orchestrator and worker spans into one merged trace.

        The orchestrator is trace pid 1; every distinct worker
        identity ``(pool generation, worker id, OS pid)`` gets its own
        *synthetic* trace pid from :data:`WORKER_TRACE_PID_BASE` up —
        synthetic precisely because the OS can recycle a pid across
        pool generations, which would otherwise collapse two workers
        onto one track.  One trace microsecond equals one host
        microsecond since telemetry construction.
        """
        collector = TraceEventCollector(
            process_tracks=False,
            time_note="1 trace us == 1 host us since telemetry start",
        )
        base = self._epoch

        def fs(t: float) -> int:
            # add_span() divides by 1e6 to get trace us, so host
            # seconds scale by 1e12 to land on "1 trace us == 1 host
            # us".
            return max(0, int(round((t - base) * 1e12)))

        collector.name_process(
            ORCHESTRATOR_TRACE_PID,
            f"orchestrator (pid {os.getpid()})")
        for span in self.spans.spans:
            collector.add_span(
                span.get("track", "engine"), span["name"],
                fs(span["t0"]), fs(span["t1"]),
                pid=ORCHESTRATOR_TRACE_PID, **span.get("args", {}))
        pids: Dict[Tuple, int] = {}
        for blob in self.worker_blobs:
            ident = (blob.get("generation", 0),
                     str(blob.get("worker_id")), blob.get("pid"))
            pid = pids.get(ident)
            if pid is None:
                pid = WORKER_TRACE_PID_BASE + len(pids)
                pids[ident] = pid
                collector.name_process(
                    pid,
                    f"worker {ident[1]} (pid {ident[2]}, "
                    f"gen {ident[0]})")
            if (blob.get("t0") is not None
                    and blob.get("t1") is not None):
                collector.add_span(
                    "batches", "batch", fs(blob["t0"]),
                    fs(blob["t1"]), pid=pid,
                    points=blob.get("points"))
            for span in blob.get("spans", ()):
                collector.add_span(
                    "points", span["name"], fs(span["t0"]),
                    fs(span["t1"]), pid=pid,
                    **span.get("args", {}))
        return collector

    def write_trace(self, path: Optional[str] = None) -> str:
        """Write the stitched trace JSON; returns the path written."""
        path = path if path is not None else self.trace_path
        if path is None:
            raise ValueError("no trace path configured")
        self.build_trace().write(path)
        return path

    def close(self) -> None:
        """Write the trace (when a path is set) and close the stream."""
        if self.trace_path is not None:
            self.write_trace(self.trace_path)
        self.stream.close()

    def __repr__(self) -> str:
        return (
            f"SweepTelemetry(runs={len(self.run_records)}, "
            f"spans={len(self.spans)}, "
            f"blobs={len(self.worker_blobs)}, "
            f"ledger={self.ledger!r})"
        )
