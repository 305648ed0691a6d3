"""Self-healing policy objects for the sweep runtime.

The warm-worker pool (:mod:`repro.sweep.pool`) used to treat any dead
worker as fatal: one segfault, OOM kill, or hung simulation aborted the
whole campaign and discarded every in-flight batch.  This module holds
the pieces that let the pool *recover* instead:

* :class:`RecoveryPolicy` — how many times to respawn dead workers,
  how many times a lost batch may be retried before it is bisected
  down to the individual poison point, how raising points are retried
  before quarantine, the per-point wall-clock deadline, and the
  respawn backoff schedule.  Backoff delegates to
  :class:`repro.faults.retry.RetryPolicy` — the *same* exponential
  schedule the simulated retrying masters use, expressed in host
  seconds instead of simulated time, so there is exactly one backoff
  implementation in the codebase.
* :class:`ShutdownGuard` — SIGINT/SIGTERM-safe shutdown: converts
  termination signals into a catchable :class:`SweepInterrupted` so
  ``finally`` blocks flush the store, run ledger, and trace before the
  process exits.
* :func:`failure_from_exception` / :func:`quarantine_record` — the
  canonical shape of a failure: error type, message, traceback digest
  and attempt count, compact enough to live in the
  :class:`~repro.sweep.store.SweepStore` as a kind-tagged ``failed``
  record that resumed runs skip deterministically.
"""

from __future__ import annotations

import hashlib
import signal
import threading
import traceback
from dataclasses import dataclass
from typing import Optional

from repro.faults.retry import RetryPolicy

#: Characters of exception message kept in failure records.
MESSAGE_LIMIT = 300

#: Hex characters of the traceback SHA-256 kept in failure records.
DIGEST_LEN = 16

#: Failure kinds the pool finalizes itself: the worker process was lost
#: while holding the point, and requeue/bisection already spent the
#: crash budget.  Every other failure kind is a point that raised, which
#: the engine retries up to ``RecoveryPolicy.point_attempts`` times.
LOSS_KINDS = ("crash", "timeout")

#: Recovery counters of one ``SweepEngine.run``, in report order.  The
#: pool counts the process faults (the first five); the engine counts
#: quarantines and raising-point retries.
RECOVERY_COUNTERS = ("worker_crashes", "worker_respawns", "timeouts",
                     "requeues", "bisections", "quarantined",
                     "point_retries")


class SweepInterrupted(RuntimeError):
    """A termination signal arrived while a :class:`ShutdownGuard` was
    active; the sweep should flush and exit instead of dying torn."""

    def __init__(self, signum: int):
        self.signum = signum
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = str(signum)
        super().__init__(f"sweep interrupted by {name}")


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the pool survives crashes, hangs, and poison points.

    ``batch_attempts`` is the crash budget of one dispatched batch: a
    batch whose worker dies (or blows its deadline) is requeued until
    the budget is spent, then *bisected* — each half gets one strike
    left — until the lethal batch is a single point, which is
    quarantined.  ``point_attempts`` is the analogous budget for points
    that raise a Python exception (the worker survives those, so no
    bisection is needed).  ``deadline_s`` is the per-point wall-clock
    budget: a worker holding a batch longer than
    ``deadline_s * len(batch)`` is killed and the batch re-enters the
    crash path.  ``max_respawns`` bounds worker respawns per dispatch
    so a systematically broken environment still fails loudly.

    Backoff before each respawn delegates to
    :class:`repro.faults.retry.RetryPolicy` via :meth:`retry_policy` —
    one backoff implementation for the host and the simulation.
    """

    max_respawns: int = 8
    batch_attempts: int = 2
    point_attempts: int = 2
    backoff_s: float = 0.05
    exponential: bool = True
    max_backoff_s: Optional[float] = 1.0
    deadline_s: Optional[float] = None

    def __post_init__(self):
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if self.batch_attempts < 1:
            raise ValueError("batch_attempts must be >= 1")
        if self.point_attempts < 1:
            raise ValueError("point_attempts must be >= 1")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError("deadline_s must be positive when set")

    def retry_policy(self) -> RetryPolicy:
        """The equivalent :class:`repro.faults.retry.RetryPolicy`.

        Host seconds map onto the policy's simulated-time fields; the
        backoff *schedule* (fixed vs exponential doubling, clamped at
        the cap) is computed by ``RetryPolicy.delay_for`` itself, so
        host-side and sim-side backoff can never drift apart.
        """
        return RetryPolicy.from_seconds(
            max_attempts=max(1, self.max_respawns),
            backoff_s=self.backoff_s,
            exponential=self.exponential,
            max_backoff_s=self.max_backoff_s,
        )

    def delay_s(self, attempt: int) -> float:
        """Host-seconds backoff before respawn attempt ``attempt``."""
        return self.retry_policy().delay_s(attempt)

    def batch_budget_s(self, points: int) -> Optional[float]:
        """Wall-clock budget of one dispatched batch, or None."""
        if self.deadline_s is None:
            return None
        return self.deadline_s * max(1, points)


class ShutdownGuard:
    """Context manager turning SIGINT/SIGTERM into a catchable error.

    While active, termination signals raise :class:`SweepInterrupted`
    in the main thread instead of killing the process outright, so the
    sweep CLI's ``finally`` blocks run — the result store has already
    fsynced every point, and the guard gives the run ledger, progress
    stream, and stitched trace their chance to flush too.  Previous
    handlers are restored on exit.  Outside the main thread (where
    Python forbids ``signal.signal``) the guard is a transparent no-op.
    """

    def __init__(self, signals=(signal.SIGINT, signal.SIGTERM)):
        self.signals = tuple(signals)
        self._previous: dict = {}
        #: signal number that fired, when one did
        self.fired: Optional[int] = None

    def _handler(self, signum, frame):
        self.fired = signum
        raise SweepInterrupted(signum)

    def __enter__(self) -> "ShutdownGuard":
        if threading.current_thread() is not threading.main_thread():
            return self
        for signum in self.signals:
            self._previous[signum] = signal.signal(signum, self._handler)
        return self

    def __exit__(self, *exc) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()


def failure_from_exception(exc: BaseException,
                           attempts: int = 1) -> dict:
    """Canonical failure dict for a point that raised ``exc``.

    Carries the full traceback for live diagnostics (events, error
    messages); :func:`quarantine_record` strips it down to the digest
    before the failure is persisted.
    """
    text = "".join(traceback.format_exception(
        type(exc), exc, exc.__traceback__))
    return {
        "kind": "error",
        "error_type": type(exc).__name__,
        "message": str(exc)[:MESSAGE_LIMIT],
        "traceback_digest": hashlib.sha256(
            text.encode("utf-8")).hexdigest()[:DIGEST_LEN],
        "traceback": text,
        "attempts": attempts,
    }


def failure_from_restore(exc: BaseException,
                         attempts: int = 1) -> dict:
    """Canonical failure dict for a point that failed *during restore*.

    Same shape as :func:`failure_from_exception` but tagged
    ``kind="restore"`` — a checkpoint that is corrupt, incompatible, or
    refuses to overlay is an infrastructure fault of the warm-start
    path, not a model bug, and reports/resume logic distinguish the two
    (a restore-quarantined point is safe to re-run cold).
    """
    failure = failure_from_exception(exc, attempts=attempts)
    failure["kind"] = "restore"
    return failure


def failure_from_loss(kind: str, message: str,
                      attempts: int) -> dict:
    """Canonical failure dict for a crash- or timeout-lost point.

    ``kind`` is ``"crash"`` (the worker died while holding the point)
    or ``"timeout"`` (the worker blew the batch deadline and was
    killed); there is no traceback — the process is gone — so the
    digest hashes the loss description instead.
    """
    return {
        "kind": kind,
        "error_type": ("WorkerCrash" if kind == "crash"
                       else "PointDeadline"),
        "message": message[:MESSAGE_LIMIT],
        "traceback_digest": hashlib.sha256(
            f"{kind}:{message}".encode("utf-8")
        ).hexdigest()[:DIGEST_LEN],
        "attempts": attempts,
    }


def quarantine_record(failure: dict) -> dict:
    """The compact, store-persistable view of a failure dict.

    Exactly the fields a resumed run needs to skip the point
    deterministically and a report needs to explain why: kind, error
    type, message, traceback digest, attempt count.  The full
    traceback (when present) is deliberately dropped — it is
    diagnostics, not identity.
    """
    return {
        "kind": failure.get("kind", "error"),
        "error_type": failure.get("error_type"),
        "message": failure.get("message"),
        "traceback_digest": failure.get("traceback_digest"),
        "attempts": failure.get("attempts", 1),
    }
