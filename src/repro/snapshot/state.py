"""Capture and restore of deterministic kernel state.

A snapshot is taken at a *quiescent instant*: the context is not
running a delta cycle, the runnable queue / update queue / delta
notification list are empty, and every process is either terminated or
parked on a wait.  That is exactly the state the kernel is in right
after ``ctx.run(until=...)`` returns with outcome ``"limit"`` (or
``"starved"`` with a limit), which makes "run to the boot horizon,
checkpoint, hand out to workers" a natural idiom.

What gets captured
------------------

* kernel scalars — current time (integer femtoseconds), delta counter,
  last-activity time, the next scheduler sequence number;
* the timed heap — every live entry as ``(when_fs, seq, kind, name)``
  where names refer to events, processes or clocks (a clock's next
  edge, kind ``"clock"``), never object references;
* event trigger state — ``trigger_count`` / ``last_trigger_delta`` and
  the exact order of each event's dynamic waiter list;
* per-process wait records — static / any-of / timed shape, event
  names in registration order, and the pending timeout's heap
  coordinates;
* per-object state — whatever each kernel object returns from
  ``__snapshot__()`` (JSON-able), keyed by hierarchical name;
* extras — caller-supplied non-SimObject state holders (fault plans,
  metrics registries) implementing the same protocol.

How restore works (replayable segments)
---------------------------------------

Restore targets a **freshly built, structurally identical** context.
After structural elaboration (binding, sensitivity — but *not* the
init-phase process queuing), object state is overlaid, the heap is
rebuilt with its original sequence numbers, and each live thread
process is *re-primed*: a fresh generator is created from the process
body and advanced to its first yield against the restored channel
state.  The contract is that this first yield must have the same
*shape* (static / timed / same event set) as the captured wait; the
captured wait — with its exact event ordering and timer coordinates —
is then adopted, and the fresh wait's own timing is discarded.  A
clock's edge entry is bound back to the clock, which therefore does
not arm a first edge of its own.

Processes present in the new context but absent from the snapshot
(e.g. measured-phase traffic masters layered on top of a boot
checkpoint) are given the normal init-phase treatment: queued runnable
(or parked on static sensitivity when ``dont_initialize``).
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.kernel.clock import Clock
from repro.kernel.context import SimContext
from repro.kernel.event import (
    Event,
    KIND_CANCELLED,
    KIND_CLOCK,
    KIND_EVENT,
    KIND_RESUME,
)
from repro.kernel.process import (
    MethodProcess,
    Process,
    ProcessState,
    ThreadProcess,
    WaitCondition,
    WaitMode,
)

SNAPSHOT_SCHEMA = 1

_KIND_NAMES = {KIND_EVENT: "event", KIND_RESUME: "resume",
               KIND_CLOCK: "clock"}
_KIND_CODES = {name: kind for kind, name in _KIND_NAMES.items()}


class SnapshotError(RuntimeError):
    """The context cannot be captured or restored deterministically."""


def rng_state_json(rng: random.Random) -> list:
    """JSON-able encoding of ``rng.getstate()`` (tuple -> lists)."""
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def set_rng_state(rng: random.Random, payload) -> None:
    """Inverse of :func:`rng_state_json`: put ``payload`` back in ``rng``."""
    version, internal, gauss = payload
    rng.setstate((version, tuple(internal), gauss))


def peek_counter(owner, attr: str) -> int:
    """The value the ``itertools.count`` at ``owner.<attr>`` yields next.

    Reading a count consumes the value, so the counter is re-seated at
    it: a capture leaves the numbering of the run it captures as it was.
    """
    value = next(getattr(owner, attr))
    setattr(owner, attr, itertools.count(value))
    return value


# ---------------------------------------------------------------------------
# Event registry
# ---------------------------------------------------------------------------

def build_event_registry(ctx: SimContext) -> Dict[str, Event]:
    """Map every snapshot-reachable event name to its Event object.

    Events are not SimObjects, so they are discovered through two
    channels: each kernel object's ``__snapshot_events__()`` hook and
    each process's ``terminated_event``.  Names must be unique — they
    are hierarchical by construction.
    """
    registry: Dict[str, Event] = {}

    def _add(event: Event) -> None:
        existing = registry.get(event.name)
        if existing is not None and existing is not event:
            raise SnapshotError(
                f"duplicate event name in snapshot registry: {event.name!r}"
            )
        registry[event.name] = event

    for obj in ctx.objects.values():
        hook = getattr(obj, "__snapshot_events__", None)
        if hook is None:
            continue
        for event in hook():
            _add(event)
    for proc in ctx.processes:
        _add(proc.terminated_event)
    return registry


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------

def _check_quiescent(ctx: SimContext) -> None:
    if ctx._running:
        raise SnapshotError("cannot capture while the scheduler is running")
    if not ctx.elaborated:
        raise SnapshotError("cannot capture an un-elaborated context")
    if ctx._runnable:
        raise SnapshotError(
            f"context not quiescent: {len(ctx._runnable)} runnable process(es)"
        )
    if ctx._update_queue:
        raise SnapshotError("context not quiescent: pending channel updates")
    if ctx._delta_events:
        raise SnapshotError("context not quiescent: pending delta notifications")
    for proc in ctx.processes:
        if proc.state not in (ProcessState.TERMINATED, ProcessState.WAITING):
            raise SnapshotError(
                f"process {proc.name} is {proc.state.name}, not waiting/terminated"
            )


def _wait_record(
    proc: Process, event_names: Dict[int, str]
) -> Optional[Dict[str, Any]]:
    if proc.state is not ProcessState.WAITING:
        return None
    timeout = None
    handle = proc._timeout_handle
    if handle is not None:
        if handle[2] == KIND_CANCELLED:  # ENTRY_KIND
            handle = None
        else:
            timeout = [handle[0], handle[1]]  # when_fs, seq
    if proc._waiting_static:
        mode = "static"
        events: List[str] = []
    elif proc._wait_events:
        mode = "any"
        events = []
        for event in proc._wait_events:
            name = event_names.get(id(event))
            if name is None:
                raise SnapshotError(
                    f"process {proc.name} waits on unregistered event "
                    f"{event.name!r}; the owning object must expose it via "
                    "__snapshot_events__ (or the wait is on a transient "
                    "event and the context is not at a checkpointable "
                    "boundary)"
                )
            events.append(name)
    elif timeout is not None:
        mode = "timed"
        events = []
    else:
        raise SnapshotError(f"process {proc.name} is waiting on nothing")
    return {"mode": mode, "events": events, "timeout": timeout}


def capture_state(
    ctx: SimContext, extras: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Serialize a quiescent context into one JSON-able dict."""
    _check_quiescent(ctx)
    registry = build_event_registry(ctx)
    event_names: Dict[int, str] = {id(ev): name for name, ev in registry.items()}
    proc_names: Dict[int, str] = {id(p): p.name for p in ctx.processes}

    heap: List[List[Any]] = []
    for entry in ctx._timed_heap:
        when_fs, seq, kind, payload = entry
        if kind == KIND_CANCELLED:
            continue
        if kind == KIND_EVENT:
            name = event_names.get(id(payload))
            if name is None:
                raise SnapshotError(
                    f"timed notification on unregistered event {payload.name!r}"
                )
        elif kind == KIND_RESUME:
            name = proc_names.get(id(payload))
            if name is None:
                raise SnapshotError("timed resume for unknown process")
        elif kind == KIND_CLOCK:
            name = payload.full_name
        else:  # pragma: no cover - defensive
            raise SnapshotError(f"unknown heap entry kind {kind!r}")
        heap.append([when_fs, seq, _KIND_NAMES[kind], name])
    heap.sort()

    events: Dict[str, Any] = {}
    for name, event in registry.items():
        if event._pending_kind == "delta":
            raise SnapshotError(
                f"event {name!r} has a pending delta notification at capture"
            )
        waiters = []
        for waiter in event._dynamic_waiters:
            wname = proc_names.get(id(waiter))
            if wname is None:
                raise SnapshotError(
                    f"event {name!r} has an unknown dynamic waiter"
                )
            waiters.append(wname)
        record: Dict[str, Any] = {}
        if event._trigger_count:
            record["trigger_count"] = event._trigger_count
        if event._last_trigger_delta is not None:
            record["last_trigger_delta"] = event._last_trigger_delta
        if waiters:
            record["waiters"] = waiters
        if record:
            events[name] = record

    processes: Dict[str, Any] = {}
    for proc in ctx.processes:
        record = {
            "kind": "thread" if isinstance(proc, ThreadProcess) else "method",
            "state": proc.state.name.lower(),
        }
        if isinstance(proc, ThreadProcess):
            record["started"] = proc._gen is not None
        wait = _wait_record(proc, event_names)
        if wait is not None:
            record["wait"] = wait
        processes[proc.name] = record

    objects: Dict[str, Any] = {}
    for name, obj in ctx.objects.items():
        hook = getattr(obj, "__snapshot__", None)
        if hook is None:
            continue
        objects[name] = hook()

    snapshot: Dict[str, Any] = {
        "schema": SNAPSHOT_SCHEMA,
        "kernel": {
            "now_fs": ctx._now_fs,
            "last_activity_fs": ctx._last_activity_fs,
            "delta_count": ctx._delta_count,
            "next_seq": peek_counter(ctx, "_seq"),
            "last_run_outcome": ctx.last_run_outcome,
        },
        "heap": heap,
        "events": events,
        "processes": processes,
        "objects": objects,
    }
    if extras:
        payload = {}
        for key, holder in extras.items():
            hook = getattr(holder, "__snapshot__", None)
            if hook is None:
                raise SnapshotError(f"extra {key!r} has no __snapshot__")
            payload[key] = hook()
        snapshot["extras"] = payload
    return snapshot


# ---------------------------------------------------------------------------
# Restore
# ---------------------------------------------------------------------------

def _fresh_wait_shape(
    cond: WaitCondition, event_names: Dict[int, str]
) -> Tuple[str, frozenset, bool]:
    if cond.mode is WaitMode.STATIC:
        return ("static", frozenset(), False)
    if cond.mode is WaitMode.TIMED:
        return ("timed", frozenset(), True)
    names = []
    for event in cond.events:
        name = event_names.get(id(event))
        if name is None:
            raise SnapshotError(
                f"re-primed wait references unregistered event {event.name!r}"
            )
        names.append(name)
    return ("any", frozenset(names), cond.timeout is not None)


def _snapshot_wait_shape(wait: Dict[str, Any]) -> Tuple[str, frozenset, bool]:
    return (wait["mode"], frozenset(wait["events"]),
            wait.get("timeout") is not None)


def _start_generator(proc: ThreadProcess
                     ) -> Tuple[Generator, WaitCondition]:
    gen = proc._fn()
    if gen is None or not hasattr(gen, "send"):
        raise SnapshotError(
            f"process {proc.name}: body did not return a generator on re-prime"
        )
    try:
        first = gen.send(None)
    except StopIteration:
        raise SnapshotError(
            f"process {proc.name}: body terminated before reaching its "
            "captured yield boundary — the model does not persist its loop "
            "position on instance state"
        ) from None
    return gen, WaitCondition.normalize(first)


def restore_state(
    ctx: SimContext,
    snapshot: Dict[str, Any],
    extras: Optional[Dict[str, Any]] = None,
) -> None:
    """Overlay *snapshot* onto a freshly built, identical context."""
    if snapshot.get("schema") != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"unsupported snapshot schema {snapshot.get('schema')!r}"
        )
    if ctx._running:
        raise SnapshotError("cannot restore into a running context")
    if ctx.elaborated or ctx._now_fs or ctx._delta_count:
        raise SnapshotError("restore target must be a fresh, un-run context")

    ctx._elaborate_structure()

    # Object state first: re-primed process bodies read it.  Iterate in
    # snapshot (creation) order so __restore__ hooks that re-create
    # lazily built child objects run before those children's records.
    for name, payload in snapshot["objects"].items():
        obj = ctx.objects.get(name)
        if obj is None:
            raise SnapshotError(
                f"snapshot object {name!r} missing from restore target"
            )
        hook = getattr(obj, "__restore__", None)
        if hook is None:
            raise SnapshotError(f"object {name!r} has no __restore__")
        hook(payload)

    if extras or snapshot.get("extras"):
        extra_payloads = snapshot.get("extras") or {}
        extras = extras or {}
        for key, payload in extra_payloads.items():
            holder = extras.get(key)
            if holder is None:
                raise SnapshotError(f"no restore target for extra {key!r}")
            hook = getattr(holder, "__restore__", None)
            if hook is None:
                raise SnapshotError(f"extra {key!r} has no __restore__")
            hook(payload)

    kernel = snapshot["kernel"]
    ctx._now_fs = kernel["now_fs"]
    ctx._now = None
    ctx._last_activity_fs = kernel["last_activity_fs"]
    ctx._delta_count = kernel["delta_count"]
    ctx._deltas_this_timestep = 0
    ctx._seq = itertools.count(kernel["next_seq"])
    ctx.last_run_outcome = kernel["last_run_outcome"]

    registry = build_event_registry(ctx)
    event_names: Dict[int, str] = {id(ev): name for name, ev in registry.items()}
    procs_by_name: Dict[str, Process] = {p.name: p for p in ctx.processes}
    clocks = {name: obj for name, obj in ctx.objects.items()
              if isinstance(obj, Clock)}
    payloads = {KIND_EVENT: ("event", registry),
                KIND_RESUME: ("process", procs_by_name),
                KIND_CLOCK: ("clock", clocks)}

    # Rebuild the timed heap with the original sequence numbers.
    heap: List[List[Any]] = []
    entries_by_seq: Dict[int, List[Any]] = {}
    for when_fs, seq, kind_name, name in snapshot["heap"]:
        kind = _KIND_CODES.get(kind_name)
        if kind is None:
            raise SnapshotError(f"unknown heap entry kind {kind_name!r}")
        what, by_name = payloads[kind]
        payload = by_name.get(name)
        if payload is None:
            raise SnapshotError(f"heap references unknown {what} {name!r}")
        entry = [when_fs, seq, kind, payload]
        heap.append(entry)
        entries_by_seq[seq] = entry
        if kind == KIND_EVENT:
            payload._pending_kind = "timed"
            payload._pending_handle = entry
        elif kind == KIND_CLOCK:
            payload._edge = entry
    heap.sort()
    ctx._timed_heap = heap

    # Event trigger history.
    for name, record in snapshot["events"].items():
        event = registry.get(name)
        if event is None:
            raise SnapshotError(f"snapshot event {name!r} missing on restore")
        event._trigger_count = record.get("trigger_count", 0)
        event._last_trigger_delta = record.get("last_trigger_delta")

    # Processes: overlay snapshot state, re-priming live thread bodies.
    proc_records = snapshot["processes"]
    claimed_resumes: set = set()
    for proc in ctx.processes:
        record = proc_records.get(proc.name)
        if record is None:
            # New process layered on top of the checkpoint (e.g. a
            # measured-phase master): give it the init-phase treatment.
            if proc.dont_initialize:
                proc._apply_wait(WaitCondition(WaitMode.STATIC))
            else:
                proc.state = ProcessState.READY
                ctx._runnable.append(proc)
            continue
        if record["state"] == "terminated":
            proc.state = ProcessState.TERMINATED
            continue
        wait = record.get("wait")
        if wait is None:
            raise SnapshotError(f"waiting process {proc.name} has no wait record")
        _adopt_wait(ctx, proc, record, wait, registry, event_names,
                    entries_by_seq, claimed_resumes)

    missing = set(proc_records) - set(procs_by_name)
    if missing:
        raise SnapshotError(
            f"snapshot processes missing from restore target: {sorted(missing)}"
        )

    # Dynamic waiter lists are rebuilt wholesale, in captured order.
    for name, record in snapshot["events"].items():
        waiters = record.get("waiters")
        if not waiters:
            continue
        event = registry[name]
        rebuilt = []
        for wname in waiters:
            waiter = procs_by_name.get(wname)
            if waiter is None:
                raise SnapshotError(
                    f"event {name!r} waiter {wname!r} missing on restore"
                )
            rebuilt.append(waiter)
        event._dynamic_waiters = rebuilt

    # Every timed resume must have been claimed as some process's
    # timeout handle; an orphan would fire into a process that is not
    # waiting for it.
    for seq, entry in entries_by_seq.items():
        if entry[2] == KIND_RESUME and seq not in claimed_resumes:
            raise SnapshotError(
                f"orphan timed resume for process {entry[3].name}"
            )

    ctx._run_start_hooks()


def _adopt_wait(
    ctx: SimContext,
    proc: Process,
    record: Dict[str, Any],
    wait: Dict[str, Any],
    registry: Dict[str, Event],
    event_names: Dict[int, str],
    entries_by_seq: Dict[int, List[Any]],
    claimed_resumes: set,
) -> None:
    if isinstance(proc, ThreadProcess):
        if record.get("started"):
            gen, fresh = _start_generator(proc)
            fresh_shape = _fresh_wait_shape(fresh, event_names)
            snap_shape = _snapshot_wait_shape(wait)
            if fresh_shape != snap_shape:
                raise SnapshotError(
                    f"process {proc.name}: re-primed wait {fresh_shape} does "
                    f"not match captured wait {snap_shape} — not a replayable "
                    "yield boundary"
                )
            proc._gen = gen
        # A never-started thread (dont_initialize, never triggered) just
        # re-parks on its captured wait; the generator starts on wake.

    proc.state = ProcessState.WAITING
    proc._wake_value = None
    mode = wait["mode"]
    if mode == "static":
        proc._waiting_static = True
    elif mode == "any":
        proc._wait_events = tuple(registry[name] for name in wait["events"])
    elif mode != "timed":
        raise SnapshotError(f"unknown wait mode {mode!r}")

    timeout = wait.get("timeout")
    if timeout is not None:
        when_fs, seq = timeout
        entry = entries_by_seq.get(seq)
        if entry is None or entry[0] != when_fs or entry[2] != KIND_RESUME \
                or entry[3] is not proc:
            raise SnapshotError(
                f"process {proc.name}: timeout heap entry {timeout} not found"
            )
        proc._timeout_handle = entry
        claimed_resumes.add(seq)
    elif mode == "timed":
        raise SnapshotError(
            f"process {proc.name}: timed wait without a timeout entry"
        )
