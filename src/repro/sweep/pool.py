"""Persistent warm-worker pool for the sweep engine.

``ProcessPoolExecutor`` made parallel sweeps *slower* than serial on
the bench box (``speedup_vs_serial: 0.51``): every ``SweepEngine.run``
paid pool spawn, interpreter boot, module import, and one
payload-pickle round-trip *per point*, which swamps few-millisecond
simulations.  :class:`WorkerPool` removes all four costs:

* **Fork once, stay hot.**  Workers are long-lived daemon processes
  spawned on first use.  They pre-import the simulation stack
  (:mod:`repro.explore.runner` and its kernel/CAM dependencies) before
  reporting ready, so after warmup a dispatch touches no import
  machinery.  The pool survives across ``run()`` calls — multi-run
  sessions (replication rounds, fault campaigns, CLI resume loops)
  reuse one pool instead of respawning.
* **Batched shards.**  Work is dispatched as *batches* of plain-JSON
  point payloads; one IPC round-trip carries many points and returns a
  compact list of result dicts (:func:`repro.explore.runner.run_payload_batch`
  is the worker-side entry point).  The parent feeds idle workers from
  its own backlog, so load balances even when batch costs are skewed.
* **Kill-isolated channels.**  Each worker talks to the parent over
  its *own* duplex pipe — there is no shared queue and therefore no
  shared lock a SIGKILLed worker could die holding.  A worker killed
  mid-message tears only its own channel (the parent reads EOF, not a
  poisoned stream), which is what makes the self-healing dispatch of
  :meth:`WorkerPool.run_batches` safe under crashes and deadline
  kills: the surviving workers are unaffected by construction.
* **Measurable overhead.**  :meth:`WorkerPool.ping` round-trips a no-op
  task and returns the submit-to-worker-start latency, which the
  benchmark records as ``sweep.dispatch_overhead_ms``.

Results are dict-in/dict-out and order-restored by task id, so the
engine's canonicalizing ``to_dict``/``from_dict`` round-trip is
untouched: results stay bit-identical across pool sizes, batch sizes,
and cache states.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

#: Seconds to wait for a worker to report ready before declaring the
#: pool broken.  Generous: a cold ``spawn``-method worker pays a full
#: interpreter boot plus the simulation-stack import.
READY_TIMEOUT_S = 60.0

#: Seconds between liveness checks while waiting on results.
POLL_INTERVAL_S = 0.1


class WorkerPoolError(RuntimeError):
    """A worker died or misbehaved; the pool can no longer be trusted."""


def _worker_index(proc) -> int:
    """Recover a worker's logical id from its process name."""
    try:
        return int(proc.name.rsplit("-", 1)[1])
    except (ValueError, IndexError):
        return -1


def _digest(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def resolve_workers(workers) -> int:
    """Normalize a worker-count request to a positive int.

    ``None`` means serial (1).  ``"auto"`` resolves to
    :func:`os.cpu_count` so ``SweepEngine(workers="auto")`` and
    ``python -m repro.sweep --workers auto`` saturate the machine.
    """
    if workers is None:
        return 1
    if isinstance(workers, str):
        if workers.strip().lower() == "auto":
            return max(1, os.cpu_count() or 1)
        workers = int(workers)
    return max(1, int(workers))


def _preferred_context():
    """``fork`` where available (workers inherit warm imports), else
    the platform default (``spawn``; workers import on boot instead)."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _worker_main(worker_id: int, conn, close_first=()) -> None:
    """Long-lived worker loop: pre-import, report ready, serve batches.

    The worker owns one duplex pipe end (``conn``): it blocks in
    ``conn.recv()`` for tasks and replies with ``conn.send()``.  No
    shared lock is ever held, so a sibling dying — even SIGKILLed
    mid-message — cannot wedge this worker.  ``close_first`` lists
    pipe ends inherited from the parent's fork that belong to *other*
    workers; closing them immediately keeps each pipe's write end
    unique to its owner, so owner death reads as EOF in the parent
    (including a torn final frame from a mid-``send`` kill).

    Task messages are ``(kind, task_id, body)``:

    * ``"batch"`` — ``body`` is ``{"payloads", "keys", "telemetry"}``;
      simulate it via :func:`repro.explore.runner.run_payload_batch`,
      which returns a point's failure as an ``{"__sweep_error__":
      {...}}`` marker in its result slot.  The reply is ``("done",
      task_id, started, (result_dicts, blob_or_None))``; the blob
      carries the batch's spans when ``telemetry`` is set.
    * ``"ping"`` — no-op; reply
      ``("pong", task_id, started, worker_id)`` where ``started`` is
      the worker-side :func:`time.time` at pickup (wall clock is the
      one timestamp comparable across processes).
    * ``None`` — shut down (as is EOF on the pipe).

    A batch is acknowledged with
    ``("started", task_id, started, {"worker_id", "pid", "points"})``
    *before* any simulation runs: the parent uses the ack to know
    which batch was in flight on a pid when it died (crash recovery,
    dead-worker diagnostics) and as the deadline reference point.

    An exception that escapes the batch runner itself is shipped back
    as ``("error", task_id, started, traceback_text)`` so the parent
    can act on it instead of hanging.
    """
    for other in close_first:
        try:
            other.close()
        except OSError:
            pass
    # Pre-import the entire simulation stack (kernel, CAMs, traffic,
    # faults) so the first real batch runs as hot as the hundredth.
    from repro.explore.runner import run_payload_batch

    pid = os.getpid()
    conn.send(("ready", worker_id, pid, None))
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            break  # the parent is gone; nothing left to serve
        if item is None:
            break
        kind, task_id, body = item
        started = time.time()
        if kind == "ping":
            conn.send(("pong", task_id, started, worker_id))
            continue
        payloads = body["payloads"]
        conn.send(("started", task_id, started,
                   {"worker_id": worker_id, "pid": pid,
                    "points": len(payloads)}))
        try:
            reply = run_payload_batch(
                payloads, keys=body["keys"],
                worker_id=worker_id, telemetry=body["telemetry"],
            )
        except BaseException:
            conn.send(("error", task_id, started,
                       traceback.format_exc()))
        else:
            conn.send(("done", task_id, started, reply))


class WorkerPool:
    """A pool of persistent, pre-warmed simulation worker processes.

    Lazily spawned: constructing a pool is free; processes fork on the
    first :meth:`ensure_started` / :meth:`run_batches` / :meth:`ping`
    and then persist until :meth:`close` (or interpreter exit — workers
    are daemons).  ``spawn_count`` tracks every process ever started,
    so "a warm second run spawned zero new processes" is assertable:
    it simply stays equal to ``workers``.
    """

    def __init__(self, workers: int):
        self.workers = resolve_workers(workers)
        self._ctx = _preferred_context()
        #: worker processes by slot; a slot whose worker died with the
        #: respawn budget spent holds ``None`` (parallel to _conns)
        self._procs: List = []
        #: parent end of each worker's duplex pipe, by slot; ``None``
        #: once the channel hit EOF (worker dead) or was retired
        self._conns: List = []
        #: batch tasks not yet sent to any worker (parent-side queue;
        #: idle workers are fed from the left end)
        self._backlog: Deque[tuple] = deque()
        #: batch task id → slot it was sent to; exact parent-side
        #: ownership, so a dead slot's lost work needs no guessing
        self._busy: Dict[int, int] = {}
        self._next_task_id = 0
        #: processes spawned over the pool's lifetime
        self.spawn_count = 0
        #: batches shipped to workers over the pool's lifetime
        self.batches_dispatched = 0
        #: points shipped inside those batches
        self.points_dispatched = 0
        #: spawn generations: how many times the workers (re)started —
        #: telemetry keys worker identity on this because the OS can
        #: recycle a pid across generations
        self.generation = 0
        #: telemetry hook: called with the pool's ``batch_done`` and
        #: ``worker_respawned`` events
        self.on_event: Optional[Callable[[dict], None]] = None
        #: batches acknowledged-but-unfinished, task id → {"pid",
        #: "worker_id", "points", "started"} — who holds what, so a
        #: dead pid's lost work is attributable
        self._in_flight: Dict[int, dict] = {}
        #: wall-clock of the last batch pickup ack from each worker pid
        self._worker_last_seen: Dict[int, float] = {}

    # -- lifecycle ----------------------------------------------------

    @property
    def started(self) -> bool:
        """True once workers exist (and :meth:`close` has not run)."""
        return any(p is not None for p in self._procs)

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (empty before start/after close)."""
        return [p.pid for p in self._procs if p is not None]

    def ensure_started(self) -> None:
        """Spawn and warm the workers if they are not already up.

        Blocks until every worker has imported the simulation stack and
        reported ready, so callers can treat "started" as "hot".
        """
        if self.started:
            return
        self._procs = []
        self._conns = []
        for worker_id in range(self.workers):
            self._procs.append(None)
            self._conns.append(None)
            self._procs[worker_id] = self._spawn_worker(worker_id,
                                                        worker_id)
        self.generation += 1
        ready = 0
        deadline = time.monotonic() + READY_TIMEOUT_S
        while ready < self.workers:
            message = self._get_result(deadline)
            if message[0] == "ready":
                ready += 1

    def _spawn_worker(self, worker_id: int, slot: int):
        """Start one worker on its own fresh duplex pipe (no wait).

        Pipe hygiene is what makes worker death *observable*: the
        parent closes its copy of the child end right after the fork,
        and the child closes every inherited pipe end belonging to
        other workers (``close_first``), so each child end lives only
        in its owner.  Owner dies — for any reason, at any instant —
        and the parent's next poll on that channel reads EOF.
        """
        parent_end, child_end = self._ctx.Pipe(duplex=True)
        close_first = [c for c in self._conns
                       if c is not None and c is not parent_end]
        self._conns[slot] = parent_end
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, child_end, close_first),
            name=f"sweep-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        child_end.close()  # the worker's copy is the only one left
        self.spawn_count += 1
        return proc

    def _retire_conn(self, slot: int) -> None:
        """Close and drop slot's channel (EOF seen or pool teardown)."""
        conn = self._conns[slot]
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
            self._conns[slot] = None

    def close(self) -> None:
        """Shut the workers down; idempotent.

        A closed pool may be started again (a fresh generation of
        processes — ``spawn_count`` keeps counting up).
        """
        if not self._procs and not self._conns:
            return
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.send(None)
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for slot in range(len(self._conns)):
            self._retire_conn(slot)
        self._procs = []
        self._conns = []
        self._backlog.clear()
        self._busy.clear()
        self._in_flight.clear()
        self._worker_last_seen.clear()

    def __enter__(self) -> "WorkerPool":
        self.ensure_started()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort; daemons die with the process
        try:
            self.close()
        except Exception:
            pass

    # -- dispatch -----------------------------------------------------

    def _slot_live(self, slot: int) -> bool:
        """Slot has an open channel and a live process."""
        return (self._conns[slot] is not None
                and self._procs[slot] is not None
                and self._procs[slot].is_alive())

    def _send_to(self, slot: int, message) -> bool:
        """Ship one task message to a specific worker's pipe.

        Returns False (message unsent) if the channel turns out to be
        broken — the caller re-backlogs and the dead-worker path picks
        the worker up.
        """
        try:
            self._conns[slot].send(message)
        except (OSError, ValueError):
            self._retire_conn(slot)
            return False
        if message[0] != "ping":
            self._busy[message[1]] = slot
        return True

    def _dispatch(self, message) -> None:
        """Send a batch task to an idle worker, or backlog it.

        Workers serve one task at a time, so the parent keeps exact
        ownership: every in-flight batch task id maps to the slot it
        went to (:attr:`_busy`), and everything else waits in the
        parent-side :attr:`_backlog` until a ``done``/``error`` frees
        a slot (:meth:`_flush_backlog`).
        """
        busy_slots = set(self._busy.values())
        for slot in range(len(self._procs)):
            if slot in busy_slots or not self._slot_live(slot):
                continue
            if self._send_to(slot, message):
                return
        self._backlog.append(message)

    def _flush_backlog(self) -> None:
        """Feed backlogged tasks to every currently idle worker."""
        while self._backlog:
            busy_slots = set(self._busy.values())
            idle = [slot for slot in range(len(self._procs))
                    if slot not in busy_slots
                    and self._slot_live(slot)]
            if not idle:
                return
            sent = False
            for slot in idle:
                if not self._backlog:
                    return
                if self._send_to(slot, self._backlog[0]):
                    self._backlog.popleft()
                    sent = True
            if not sent:
                return

    def run_batches(
        self,
        batches: Sequence[Sequence[dict]],
        key_batches: Optional[Sequence[Sequence[str]]] = None,
        recovery=None,
        telemetry: bool = False,
    ) -> Tuple[List[List[dict]], List[dict], dict]:
        """Run every payload batch on the pool, surviving worker death.

        The pool's one dispatch method.  Batches are fed to idle
        workers from the parent's backlog, so scheduling stays dynamic,
        and replies are reassembled by slot, so the output order (and
        every downstream result) does not depend on which worker
        computed what.  ``key_batches`` (parallel to ``batches``) label
        worker spans and events with content keys.

        Workers acknowledge batch pickup, so when a pid dies the lost
        batch is known exactly; it is requeued (``recovery
        .batch_attempts`` tries), then *bisected* — halves, quarters …
        down to a single point — until the repeatedly-lethal point is
        isolated and finalized as an ``{"__sweep_error__": {...}}``
        marker (kind ``crash``/``timeout``) in its result slot.  Dead
        workers are respawned in place (same worker id) after
        ``recovery.delay_s`` backoff, bounded by
        ``recovery.max_respawns`` per call; with the budget spent the
        pool shrinks, and only an empty pool aborts the run.  A worker
        holding a batch past ``recovery.deadline_s × points`` is
        SIGKILLed and takes the crash path, tagged ``timeout``.

        A point that *raises* comes back as the worker's marker, and a
        batch whose runner failed outside any point gives each of its
        points a ``WorkerBatchError`` marker; whether those are retried
        or quarantined is the engine's decision, not the pool's.
        Successful slots carry the worker's result dicts untouched, so
        recovery can re-run work but never change a result.

        Returns ``(result_batches, blobs, summary)``: per-slot result
        dicts or failure markers in input order, telemetry blobs in
        arrival order (empty when ``telemetry`` is off), and the
        process-fault counters ``worker_crashes``, ``worker_respawns``,
        ``timeouts``, ``requeues`` and ``bisections``.
        """
        from repro.sweep.recovery import RecoveryPolicy, failure_from_loss

        if recovery is None:
            recovery = RecoveryPolicy()
        self.ensure_started()
        results_out: List[List[Optional[dict]]] = [
            [None] * len(batch) for batch in batches
        ]
        blobs: List[dict] = []
        summary = {
            "worker_crashes": 0,
            "worker_respawns": 0,
            "timeouts": 0,
            "requeues": 0,
            "bisections": 0,
        }
        pending_points = sum(len(batch) for batch in batches)
        tasks_meta: Dict[int, dict] = {}
        respawns_used = 0

        def submit(slots, payloads, keys, attempts):
            task_id = self._next_task_id
            self._next_task_id += 1
            tasks_meta[task_id] = {
                "slots": list(slots),
                "payloads": list(payloads),
                "keys": list(keys),
                "attempts": attempts,
                "submit": time.time(),
                "timed_out": False,
            }
            self._dispatch(("batch", task_id, {
                "payloads": list(payloads),
                "keys": (list(keys)
                         if any(k is not None for k in keys) else None),
                "telemetry": bool(telemetry),
            }))
            self.batches_dispatched += 1
            self.points_dispatched += len(payloads)

        def emit(event):
            if self.on_event is not None:
                event.setdefault("ts", time.time())
                self.on_event(event)

        def settle(slot, result):
            nonlocal pending_points
            results_out[slot[0]][slot[1]] = result
            pending_points -= 1

        def resolve_loss(meta, kind, detail):
            # a batch whose worker died or blew its deadline
            attempts = meta["attempts"] + 1
            slots = meta["slots"]
            payloads = meta["payloads"]
            keys = meta["keys"]
            if attempts < recovery.batch_attempts:
                summary["requeues"] += 1
                submit(slots, payloads, keys, attempts)
            elif len(slots) > 1:
                # repeatedly lethal: bisect toward the poison point,
                # each half keeping one strike before it splits again
                summary["bisections"] += 1
                mid = (len(slots) + 1) // 2
                for lo, hi in ((0, mid), (mid, len(slots))):
                    submit(slots[lo:hi], payloads[lo:hi], keys[lo:hi],
                           attempts=recovery.batch_attempts - 1)
            else:
                settle(slots[0], {"__sweep_error__": failure_from_loss(
                    kind, detail, attempts)})

        def enforce_deadlines(now):
            if recovery.deadline_s is None:
                return
            for task_id, meta in list(tasks_meta.items()):
                if meta["timed_out"]:
                    continue
                slot = self._busy.get(task_id)
                if slot is None:
                    continue  # backlogged: no worker, no clock running
                budget = recovery.batch_budget_s(len(meta["payloads"]))
                ack = self._in_flight.get(task_id, {})
                started = ack.get("started")
                # a sent-but-unacked batch (worker between recv and
                # ack — a microsecond window unless it just died) gets
                # double budget from send-side submit time
                reference = started if started is not None \
                    else meta["submit"]
                allowance = budget if started is not None \
                    else 2.0 * budget
                if now - reference <= allowance:
                    continue
                meta["timed_out"] = True
                summary["timeouts"] += 1
                victim = self._procs[slot]
                if victim is not None and victim.is_alive():
                    # the dead-worker sweep below reaps and requeues
                    victim.kill()

        def reap_dead(now):
            nonlocal respawns_used
            for slot in range(len(self._procs)):
                proc = self._procs[slot]
                if proc is None or proc.is_alive():
                    continue
                conn = self._conns[slot]
                if conn is not None:
                    # The corpse's channel has not hit EOF in _poll
                    # yet: completed replies may still be buffered in
                    # it (they count — recovery must not re-run work
                    # that finished).  Let the next poll drain it to
                    # EOF and reap on the following cycle; only a
                    # channel that cannot signal EOF (fd hygiene
                    # failure) is cut here.
                    if conn.poll(0):
                        continue
                    self._retire_conn(slot)
                pid = proc.pid
                held_ids = sorted(tid for tid, s in self._busy.items()
                                  if s == slot)
                for tid in held_ids:
                    self._busy.pop(tid, None)
                held = [(tid, tasks_meta[tid]) for tid in held_ids
                        if tid in tasks_meta]
                summary["worker_crashes"] += 1
                for task_id, meta in held:
                    tasks_meta.pop(task_id)
                    self._in_flight.pop(task_id, None)
                    resolve_loss(
                        meta,
                        "timeout" if meta["timed_out"] else "crash",
                        f"worker pid {pid} "
                        f"(exit {proc.exitcode}) died holding the "
                        f"point (batch {task_id})",
                    )
                if respawns_used < recovery.max_respawns:
                    respawns_used += 1
                    summary["worker_respawns"] += 1
                    delay = recovery.delay_s(respawns_used)
                    if delay > 0:
                        time.sleep(delay)
                    replacement = self._spawn_worker(
                        _worker_index(proc), slot)
                    self._procs[slot] = replacement
                    emit({
                        "type": "worker_respawned",
                        "worker_id": _worker_index(proc),
                        "pid": replacement.pid,
                        "old_pid": pid,
                        "crashed_ts": now,
                        "respawn_delay_s": delay,
                    })
                else:
                    # budget spent: shrink the pool and carry on with
                    # the survivors
                    self._procs[slot] = None
            if not self.started and pending_points > 0:
                raise WorkerPoolError(
                    f"all sweep workers died and the respawn budget "
                    f"({recovery.max_respawns}) is spent; "
                    f"{pending_points} point(s) unresolved"
                )
            self._flush_backlog()

        for index, batch in enumerate(batches):
            keys = (list(key_batches[index]) if key_batches is not None
                    else [None] * len(batch))
            submit([(index, position) for position in range(len(batch))],
                   batch, keys, attempts=0)

        while pending_points > 0:
            message = self._poll()
            now = time.time()
            if message is None:
                enforce_deadlines(now)
                reap_dead(now)
                continue
            kind, task_id, _started, body = message
            if kind == "ready":
                continue  # a respawned worker reporting for duty
            meta = tasks_meta.pop(task_id, None)
            if meta is None:
                continue  # stale reply for a requeued/retired task
            if kind == "error":
                # the batch runner itself failed (not one point
                # raising — those come back as markers): every point
                # inherits the shipped traceback
                for slot in meta["slots"]:
                    settle(slot, {"__sweep_error__": {
                        "kind": "error",
                        "error_type": "WorkerBatchError",
                        "message": str(body)[-300:],
                        "traceback_digest": _digest(str(body)),
                        "attempts": 1,
                    }})
                continue
            if kind != "done":
                continue
            batch_results, blob = body
            if blob is not None:
                blobs.append(blob)
                emit({
                    "type": "batch_done",
                    "batch": task_id,
                    "points": len(batch_results),
                    "worker_id": blob.get("worker_id"),
                    "pid": blob.get("pid"),
                    "submit_ts": meta["submit"],
                })
            for slot, result in zip(meta["slots"], batch_results):
                settle(slot, result)
        return results_out, blobs, summary

    def ping(self) -> float:
        """Seconds from submit to worker-side start for a no-op task.

        The per-point dispatch overhead a warm pool still pays — what
        the bench records as ``sweep.dispatch_overhead_ms``.  Each
        live worker is pinged directly on its own pipe (one round,
        no queue-fairness games), and the fastest round-trip of the
        call is returned.
        """
        self.ensure_started()
        best: Optional[float] = None
        pending: Dict[int, float] = {}
        for slot in range(len(self._procs)):
            if not self._slot_live(slot):
                continue
            task_id = self._next_task_id
            self._next_task_id += 1
            stamp = time.time()
            if self._send_to(slot, ("ping", task_id, None)):
                pending[task_id] = stamp
        while pending:
            kind, got_id, started, _ = self._get_result()
            if kind != "pong" or got_id not in pending:
                continue
            latency = max(0.0, started - pending.pop(got_id))
            if best is None or latency < best:
                best = latency
        return best if best is not None else 0.0

    # -- internals ----------------------------------------------------

    def _poll(self, timeout: float = POLL_INTERVAL_S):
        """One protocol message off the result queue, or ``None``.

        Routes the one transparent message kind: ``"started"`` pickup
        acks update the in-flight registry (which the deadline clock
        reads) and per-pid heartbeat clocks; ``"done"`` / ``"error"``
        / ``"pong"`` retire their in-flight entry before being
        returned.

        ``None`` means every open channel was *observed quiet* —
        pickup acks are consumed in a loop rather than returned as
        None.  Crash attribution depends on this: a dead
        worker's channel stays readable until its buffered messages
        are drained and EOF retires it, so once a poll comes back
        quiet, everything the corpse ever sent has been folded into
        the bookkeeping and its lost work is exactly the batch tasks
        the parent had assigned to its slot.
        """
        while True:
            open_conns = [c for c in self._conns if c is not None]
            if not open_conns or not mp_connection.wait(open_conns,
                                                        timeout):
                return None
            progressed = False
            for conn in list(self._conns):
                if conn is None or not conn.poll(0):
                    continue
                slot = self._conns.index(conn)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # The worker died: EOF — or a torn final frame
                    # from a kill mid-send — on its *own* channel.
                    # Siblings are untouched; the dead-worker sweeps
                    # attribute whatever this slot was holding.
                    self._retire_conn(slot)
                    continue
                progressed = True
                kind = message[0]
                if kind == "started":
                    _, task_id, started, info = message
                    pid = info.get("pid")
                    if pid is not None:
                        self._worker_last_seen[pid] = time.time()
                    self._in_flight[task_id] = {
                        "pid": pid,
                        "worker_id": info.get("worker_id"),
                        "points": info.get("points"),
                        "started": started,
                    }
                    continue
                if kind in ("done", "error", "pong"):
                    self._in_flight.pop(message[1], None)
                    self._busy.pop(message[1], None)
                    self._flush_backlog()
                return message
            if not progressed and not any(
                    c is not None for c in self._conns):
                return None

    def describe_dead(self, dead) -> str:
        """Human-readable diagnosis of dead workers: exit code, which
        batches/points each pid held in flight, heartbeat age."""
        now = time.time()
        lines = []
        for proc in dead:
            parts = [f"{proc.name} (pid {proc.pid}, "
                     f"exit {proc.exitcode})"]
            held = [(tid, meta) for tid, meta in
                    sorted(self._in_flight.items())
                    if meta.get("pid") == proc.pid]
            if held:
                parts.append("in flight: " + "; ".join(
                    f"batch {tid} [{meta.get('points')} point(s), "
                    f"running {max(0.0, now - meta['started']):.1f}s]"
                    for tid, meta in held
                ))
            else:
                parts.append("no batch in flight")
            seen = self._worker_last_seen.get(proc.pid)
            if seen is not None:
                parts.append(
                    f"last heartbeat {max(0.0, now - seen):.1f}s ago")
            lines.append(" — ".join(parts))
        return "; ".join(lines)

    def _get_result(self, deadline: Optional[float] = None):
        """One protocol message off the result queue, watching health.

        The wait of warm-up and :meth:`ping`, which carry no work to
        recover: any dead worker is fatal, and the raised error says
        which batches/points died with each pid and how stale its
        heartbeat was.
        """
        while True:
            message = self._poll()
            if message is not None:
                return message
            dead = [p for p in self._procs
                    if p is not None and not p.is_alive()]
            if dead:
                detail = self.describe_dead(dead)
                self.close()
                raise WorkerPoolError(
                    f"sweep worker(s) died: {detail}"
                ) from None
            if deadline is not None and time.monotonic() > deadline:
                self.close()
                raise WorkerPoolError(
                    "timed out waiting for sweep workers to warm up"
                ) from None

    def __repr__(self) -> str:
        state = "warm" if self.started else "cold"
        return (f"WorkerPool(workers={self.workers}, {state}, "
                f"spawned={self.spawn_count})")
