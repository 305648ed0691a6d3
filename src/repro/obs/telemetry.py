"""Cross-process sweep telemetry: one merged Perfetto trace.

A sweep's work happens in worker processes whose instruments die with
each batch, so a single-simulation trace cannot show where a sweep's
wall time went.  This module records it in two pieces:

* :class:`SpanRecorder` — lightweight wall-clock spans.  The engine
  records orchestrator-side spans (each ``run()``, the cache/dedup
  phase, each parallel dispatch, each batch round-trip, each worker
  respawn); workers record per-point ``setup`` / ``restore`` /
  ``simulate`` / ``serialize`` spans that ship home inside the batch
  reply.
* :class:`SweepTelemetry` — the hub the engine drives.  It keeps the
  orchestrator spans and the worker span blobs and stitches them into
  one merged Chrome-trace / Perfetto timeline
  (:class:`~repro.obs.trace_events.TraceEventCollector`) where every
  worker is its own process track.

The layer is strictly additive: simulation results are bit-identical
with telemetry on or off (workers run the exact same
``decode → run_point → to_dict`` pipeline), and the telemetry-off path
never even imports this module — the tier-1 tests assert both.  All
timestamps are host wall clock (:func:`time.time`), the one
clock comparable across processes.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.trace_events import TraceEventCollector

#: Synthetic trace pid of the orchestrator process track.
ORCHESTRATOR_TRACE_PID = 1

#: First synthetic trace pid handed out to worker process tracks.
WORKER_TRACE_PID_BASE = 10


class SpanRecorder:
    """Collects wall-clock spans as plain JSON-able dicts.

    A span is ``{"name", "track", "t0", "t1", "args"}`` with ``t0`` /
    ``t1`` in :func:`time.time` seconds — the one clock comparable
    across processes, which is what lets worker-side spans stitch onto
    the orchestrator's timeline.
    """

    def __init__(self):
        #: recorded spans, in completion order
        self.spans: List[dict] = []

    def add(self, name: str, t0: float, t1: float,
            track: str = "engine", **args) -> None:
        """Record one already-finished span explicitly."""
        self.spans.append({
            "name": name, "track": track,
            "t0": t0, "t1": t1, "args": args,
        })

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"SpanRecorder({len(self.spans)} spans)"


class SweepTelemetry:
    """The trace hub of one sweep session.

    Construct one and hand it to ``SweepEngine(telemetry=...)``; from
    then on the engine drives the ``begin_run`` / ``cache_resolved`` /
    ``begin_dispatch`` / ``absorb_batch`` / ``end_dispatch`` /
    ``end_run`` protocol, and the worker pool forwards its batch and
    respawn events (:meth:`on_worker_event`).  :meth:`close` writes the
    stitched trace to ``trace_path`` (when set).  ``clock`` is
    injectable for deterministic tests.
    """

    def __init__(self, trace_path: Optional[str] = None,
                 clock: Callable[[], float] = time.time):
        self._clock = clock
        #: where :meth:`close` writes the stitched trace (None = skip)
        self.trace_path = trace_path
        #: orchestrator-side spans (engine run / cache / dispatch /
        #: batch / respawn)
        self.spans = SpanRecorder()
        #: worker telemetry blobs, in absorption order
        self.worker_blobs: List[dict] = []
        self._runs = 0
        self._run: Optional[dict] = None
        self._dispatch: Optional[dict] = None
        self._epoch = clock()

    def clock(self) -> float:
        """The telemetry wall clock (injectable for tests)."""
        return self._clock()

    # -- engine protocol ----------------------------------------------

    def begin_run(self, keys: Sequence[str]) -> None:
        """Engine hook: one ``SweepEngine.run()`` is starting.

        ``keys`` are the content keys of every requested point; their
        sorted SHA-256 digest suffixes the run's span name (two runs
        with the same digest asked for the same work).
        """
        digest = hashlib.sha256(
            "\n".join(sorted(keys)).encode("utf-8")).hexdigest()
        self._run = {"t0": self._clock(), "digest": digest,
                     "points": len(keys)}

    def cache_resolved(self, cached: int, pending: int,
                       t0: float) -> None:
        """Engine hook: the cache-lookup/dedup phase just finished."""
        self.spans.add("cache", t0, self._clock(), track="engine",
                       cached=cached, pending=pending)

    def begin_dispatch(self, batches: int) -> None:
        """Engine hook: a parallel dispatch of ``batches`` starts."""
        self._dispatch = {"t0": self._clock(), "batches": batches}

    def end_dispatch(self) -> None:
        """Engine hook: the parallel dispatch finished; record its span."""
        dispatch = self._dispatch
        self._dispatch = None
        if dispatch is None:
            return
        self.spans.add("dispatch", dispatch["t0"], self._clock(),
                       track="engine", batches=dispatch["batches"])

    def absorb_batch(self, blob: Optional[dict],
                     generation: int = 0) -> None:
        """Engine hook: keep one worker telemetry blob for stitching.

        ``generation`` (the pool's spawn generation) disambiguates
        worker identities across pool restarts — the OS can hand a new
        generation a recycled pid.
        """
        if not blob:
            return
        blob = dict(blob)
        blob["generation"] = generation
        self.worker_blobs.append(blob)

    def end_run(self) -> None:
        """Engine hook: record the finished run as a ``run-NNNN-<digest>``
        span on the engine track."""
        run = self._run
        self._run = None
        if run is None:
            raise RuntimeError("end_run() without begin_run()")
        self._runs += 1
        self.spans.add(f"run-{self._runs:04d}-{run['digest'][:8]}",
                       run["t0"], self._clock(), track="engine",
                       points=run["points"])

    # -- pool hook ----------------------------------------------------

    def on_worker_event(self, event: dict) -> None:
        """Pool hook: turn a pool event into an orchestrator span.

        ``batch_done`` becomes a submit-to-reply span on the
        ``batches`` track; ``worker_respawned`` becomes the outage
        (crash instant to respawn instant) on the ``recovery`` track.
        """
        etype = event.get("type")
        wid = event.get("worker_id")
        if etype == "batch_done":
            self.spans.add(
                f"batch {event.get('batch')}", event["submit_ts"],
                event["ts"], track="batches", worker=wid,
                points=event.get("points"),
            )
        elif etype == "worker_respawned":
            self.spans.add(
                f"respawn w{wid}", event["crashed_ts"], event["ts"],
                track="recovery", worker=wid,
                old_pid=event.get("old_pid"),
                new_pid=event.get("pid"),
            )

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
        """Write the trace when a path is set."""
        if self.trace_path is not None:
            self.write_trace(self.trace_path)

    def __repr__(self) -> str:
        return (
            f"SweepTelemetry(runs={self._runs}, "
            f"spans={len(self.spans)}, "
            f"blobs={len(self.worker_blobs)})"
        )
