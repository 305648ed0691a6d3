"""Chrome trace-event / Perfetto JSON export.

:class:`TraceEventCollector` turns a simulation run into a JSON file in
the Chrome trace-event format, directly loadable at ``ui.perfetto.dev``
or ``chrome://tracing``:

* every **bus CAM and SHIP channel** that reports a completed transfer
  (the ``on_transaction`` hook) becomes a track; each transfer is a
  matched ``B``/``E`` duration pair in *simulated* time with
  initiator/target/size arguments, and transfers that overlap in time
  go to extra lanes of the track;
* every **kernel process** becomes a track (via the kernel observer
  hooks); each activation is an ``X`` slice placed at its simulated
  time whose *duration is the host cost of that dispatch* — the slice
  width shows where wall-clock time goes along the simulated timeline;
* **gauges** (bus utilization, FIFO occupancy) become Perfetto counter
  tracks via ``C`` events.

Timestamps are microseconds as the format requires; one trace
microsecond equals one simulated nanosecond (``displayTimeUnit`` is set
to ``ns``), so Perfetto's ruler reads directly in simulated ns.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.obs.hooks import SimObserver

#: Track groups ("processes" in the trace-event format).
PID_PROCESSES = 1
PID_CHANNELS = 2
PID_COUNTERS = 3

_PID_NAMES = {
    PID_PROCESSES: "kernel processes",
    PID_CHANNELS: "channels",
    PID_COUNTERS: "metrics",
}

#: One trace-event microsecond per simulated nanosecond.
_FS_PER_US = 1_000_000


class TraceEventCollector(SimObserver):
    """Collects trace events from observer hooks and gauges.

    Attach to a kernel (directly or inside an
    :class:`~repro.obs.hooks.ObserverGroup`) for process tracks and the
    channel tracks of every bus and SHIP channel of the context, call
    :meth:`watch_gauge` for counter tracks, then :meth:`write` after the
    run.
    """

    def __init__(self, process_tracks: bool = True,
                 time_note: Optional[str] = None):
        self.process_tracks = process_tracks
        #: overrides ``otherData.time_mapping`` in the output — set it
        #: when trace timestamps are not simulated nanoseconds (the
        #: sweep telemetry stitcher maps them to host microseconds)
        self.time_note = time_note
        self._events: List[dict] = []
        self._metadata: List[dict] = []
        self._tids: Dict[Tuple[int, str], int] = {}
        self._named_pids: set = set()
        #: (pid, track) -> its lanes, each ``[tid, end_fs of last span]``
        self._lanes: Dict[Tuple[int, str], List[list]] = {}

    # -- track bookkeeping -------------------------------------------------

    def name_process(self, pid: int, name: str) -> None:
        """Name the track group ("process") ``pid`` explicitly.

        Overrides the default group label.  The sweep telemetry
        stitcher uses this to give every worker its own named track
        group keyed by *worker identity* rather than OS pid — two pool
        generations can reuse the same OS pid, so synthetic trace pids
        with explicit names are the only collision-free scheme.
        Renaming an already-named pid updates the existing metadata in
        place (no duplicate ``process_name`` records).
        """
        if pid in self._named_pids:
            for meta in self._metadata:
                if (meta["name"] == "process_name"
                        and meta["pid"] == pid):
                    meta["args"]["name"] = name
                    return
        self._named_pids.add(pid)
        self._metadata.append({
            "name": "process_name", "ph": "M", "pid": pid, "ts": 0,
            "args": {"name": name},
        })

    def _tid(self, pid: int, label: str) -> int:
        key = (pid, label)
        tid = self._tids.get(key)
        if tid is None:
            if pid not in self._named_pids:
                self._named_pids.add(pid)
                self._metadata.append({
                    "name": "process_name", "ph": "M", "pid": pid, "ts": 0,
                    "args": {"name": _PID_NAMES.get(pid, f"group {pid}")},
                })
            tid = len([k for k in self._tids if k[0] == pid]) + 1
            self._tids[key] = tid
            self._metadata.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "ts": 0, "args": {"name": label},
            })
        return tid

    # -- direct emission API -----------------------------------------------

    def add_span(self, track: str, name: str, begin_fs: int, end_fs: int,
                 pid: int = PID_CHANNELS, **args) -> None:
        """Emit one matched ``B``/``E`` pair on ``track`` (sim time).

        Readers close each ``E`` against the most recent open ``B`` of
        its thread, so spans that share a thread must not overlap.  A
        span that begins before every lane of ``track`` is free goes to
        a new lane, a thread named ``"<track> (2)"``, ``(3)`` and so on:
        every span reads back with its own begin and end.
        """
        lanes = self._lanes.setdefault((pid, track), [])
        for lane in lanes:
            if lane[1] <= begin_fs:
                break
        else:
            label = f"{track} ({len(lanes) + 1})" if lanes else track
            lane = [self._tid(pid, label), begin_fs]
            lanes.append(lane)
        # Each lane's spans arrive in time order, so the stable sort in
        # to_dict() keeps every E after its own B and before the next B.
        lane[1] = end_fs
        tid = lane[0]
        self._events.append({
            "name": name, "ph": "B", "pid": pid, "tid": tid,
            "ts": begin_fs / _FS_PER_US, "args": args,
        })
        self._events.append({
            "name": name, "ph": "E", "pid": pid, "tid": tid,
            "ts": end_fs / _FS_PER_US,
        })

    def add_counter(self, name: str, value, now_fs: int) -> None:
        """Emit one ``C`` counter sample at simulated time ``now_fs``."""
        self._events.append({
            "name": name, "ph": "C", "pid": PID_COUNTERS,
            "ts": now_fs / _FS_PER_US, "args": {name: value},
        })

    # -- kernel observer hooks ---------------------------------------------

    def on_process_suspend(self, process, now_fs: int,
                           wall_s: float) -> None:
        """Emit one activation slice for ``process`` (see module doc)."""
        if not self.process_tracks:
            return
        self._events.append({
            "name": process.name, "ph": "X", "cat": process.kind,
            "pid": PID_PROCESSES,
            "tid": self._tid(PID_PROCESSES, process.name),
            "ts": now_fs / _FS_PER_US, "dur": wall_s * 1e6,
        })

    def on_transaction(self, track: str, kind: str, initiator: str,
                       target: str, begin_fs: int, end_fs: int,
                       nbytes: int, burst) -> None:
        """Emit a completed transfer as a span on the ``track`` lane(s)."""
        args = {"initiator": initiator, "target": target, "nbytes": nbytes}
        if burst is not None:
            args["burst"] = burst
        self.add_span(track, kind, begin_fs, end_fs, **args)

    # -- source attachment -------------------------------------------------

    def watch_gauge(self, gauge) -> None:
        """Mirror a gauge's updates as a Perfetto counter track.

        Accepts any instrument with ``add_listener`` whose listeners
        receive ``(value, now_fs)`` — both
        :class:`~repro.obs.metrics.Gauge` and
        :class:`~repro.obs.metrics.TimeWeightedGauge`.  Updates without
        a timestamp (``now_fs=None``) are skipped.
        """
        name = gauge.name

        def listener(value, now_fs):
            if now_fs is not None:
                self.add_counter(name, value, now_fs)

        gauge.add_listener(listener)

    # -- output -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def to_dict(self) -> dict:
        """The complete trace: metadata plus ts-sorted events."""
        events = sorted(self._events, key=lambda e: e["ts"])
        return {
            "traceEvents": self._metadata + events,
            "displayTimeUnit": "ns",
            "otherData": {
                "generator": "repro.obs.trace_events",
                "time_mapping": self.time_note or (
                    "1 trace us == 1 simulated ns; "
                    "process slice dur == host seconds * 1e6"
                ),
            },
        }

    def write(self, path: str) -> None:
        """Write the trace JSON to ``path`` (open in ui.perfetto.dev)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")

    def __repr__(self) -> str:
        return f"TraceEventCollector({len(self._events)} events)"
