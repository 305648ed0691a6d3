"""``repro.faults`` — deterministic fault injection and resilience.

The robustness layer of the library: seedable fault *plans* drive
injectors at every modeling layer, and the matching resilience
primitives (timeouts, retries, watchdogs) turn the injected failures
into diagnosable, recoverable events instead of silent hangs.

* :class:`FaultPlan` / :class:`FaultRule` — one seeded RNG and one
  append-only log per campaign; same seed, same simulator, same faults
  (compare :meth:`FaultPlan.digest`).
* :class:`LinkFaultInjector` — SHIP message drop / payload corruption /
  added latency (``ShipChannel.fault_injector``).
* :class:`BusFaultInjector` — forced ERR, decode misses, arbitration
  starvation (``BusCam.fault_injector``); :class:`FaultySlave` wraps a
  slave with error / stall / no-response behaviour.
* :class:`MemoryFaultInjector` — periodic seeded bit flips in a
  :class:`~repro.cam.memory.MemorySlave`.
* :class:`RetryPolicy` / :func:`retry_call` / :class:`RetryingMaster` —
  bounded retry with fixed or exponential backoff in simulated time;
  exhaustion raises :class:`RetryExhaustedError`.
* :mod:`repro.faults.campaign` — the standard multi-layer campaign CI
  pins as a golden summary.

The kernel-side counterparts live in :mod:`repro.kernel`:
``with_timeout`` (the one deadline for any blocking call),
:class:`SimWatchdog`, and
``SimContext.blocked_processes()`` / ``starvation_report()``.
"""

from repro.faults.bus import BusFaultInjector, FaultySlave
from repro.faults.link import LinkFaultInjector
from repro.faults.memory import MemoryFaultInjector
from repro.faults.plan import FaultPlan, FaultRecord, FaultRule
from repro.faults.retry import (
    RetryExhaustedError,
    RetryPolicy,
    RetryingMaster,
    retry_call,
)

__all__ = [
    "BusFaultInjector",
    "FaultPlan",
    "FaultRecord",
    "FaultRule",
    "FaultySlave",
    "LinkFaultInjector",
    "MemoryFaultInjector",
    "RetryExhaustedError",
    "RetryPolicy",
    "RetryingMaster",
    "retry_call",
]
