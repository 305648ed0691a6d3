"""Deterministic fault plans.

A :class:`FaultPlan` is the single source of randomness and the single
log for a fault campaign: every injector draws from ``plan.rng`` and
reports every injected fault through :meth:`FaultPlan.record`.  Because
the simulator itself is deterministic, one seed fixes the complete
sequence of RNG draws and therefore the complete fault log — rerunning
the same model with the same seed reproduces every drop, flip and error
bit-for-bit (compare :meth:`FaultPlan.digest`).

:class:`FaultRule` is the shared "when does this fault fire?" predicate:
a probability per candidate event or a deterministic every-nth counter.
Injectors own one rule per fault kind.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional

from repro.snapshot.state import rng_state_json, set_rng_state


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault: what, when, and a human-readable detail."""

    seq: int
    now_fs: int
    kind: str
    detail: str

    def line(self) -> str:
        """Stable one-line rendering (used for logs and digests)."""
        return f"{self.seq:04d} @{self.now_fs}fs {self.kind}: {self.detail}"


@dataclass
class FaultRule:
    """Predicate deciding whether a candidate event becomes a fault.

    Parameters
    ----------
    probability:
        Chance per candidate event, drawn from the plan's RNG.
    every_nth:
        Deterministic alternative: fire on every nth candidate
        (takes precedence over ``probability``).
    """

    probability: float = 0.0
    every_nth: Optional[int] = None
    #: candidates seen (drives ``every_nth``)
    seen: int = field(default=0, init=False)

    def __snapshot__(self) -> dict:
        return {"seen": self.seen}

    def __restore__(self, state: dict) -> None:
        self.seen = state["seen"]

    def matches(self, rng: Random) -> bool:
        """Decide one candidate event; counts it and may consume RNG."""
        self.seen += 1
        if self.every_nth is not None:
            return self.seen % self.every_nth == 0
        if self.probability > 0.0:
            return rng.random() < self.probability
        return False


class FaultPlan:
    """Seeded randomness plus the append-only log of injected faults.

    Parameters
    ----------
    seed:
        Seeds the plan's private :class:`random.Random`; with the
        deterministic kernel this fixes the whole campaign.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`; every recorded
        fault also increments a ``fault.<kind>`` counter there.
    """

    def __init__(self, seed: int = 1, metrics=None):
        self.seed = seed
        self.rng = Random(seed)
        self.metrics = metrics
        self.log: List[FaultRecord] = []
        self._counters: Dict[str, object] = {}

    def record(self, kind: str, now_fs: int, detail: str) -> FaultRecord:
        """Append one injected fault to the log (and metrics, if any)."""
        rec = FaultRecord(len(self.log), now_fs, kind, detail)
        self.log.append(rec)
        if self.metrics is not None:
            name = f"fault.{kind}"
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = self.metrics.counter(name)
            counter.inc()
        return rec

    # -- checkpoint/restore protocol (see repro.snapshot) -------------------

    def __snapshot__(self) -> dict:
        return {
            "seed": self.seed,
            "rng": rng_state_json(self.rng),
            "log": [
                [rec.seq, rec.now_fs, rec.kind, rec.detail]
                for rec in self.log
            ],
        }

    def __restore__(self, state: dict) -> None:
        if state["seed"] != self.seed:
            raise ValueError(
                f"fault plan seed mismatch: snapshot has {state['seed']}, "
                f"this plan has {self.seed}"
            )
        set_rng_state(self.rng, state["rng"])
        self.log = [
            FaultRecord(seq, now_fs, kind, detail)
            for seq, now_fs, kind, detail in state["log"]
        ]

    def count(self, kind: Optional[str] = None) -> int:
        """Number of injected faults, optionally of one kind."""
        if kind is None:
            return len(self.log)
        return sum(1 for rec in self.log if rec.kind == kind)

    def counts_by_kind(self) -> Dict[str, int]:
        """``{kind: count}`` over the whole log, sorted by kind."""
        counts: Dict[str, int] = {}
        for rec in self.log:
            counts[rec.kind] = counts.get(rec.kind, 0) + 1
        return dict(sorted(counts.items()))

    def summary_lines(self) -> List[str]:
        """Stable multi-line summary: header, per-kind counts, full log."""
        lines = [
            f"fault plan seed={self.seed}: {len(self.log)} fault(s)",
        ]
        for kind, count in self.counts_by_kind().items():
            lines.append(f"  {kind}: {count}")
        for rec in self.log:
            lines.append("  " + rec.line())
        return lines

    def summary(self) -> str:
        """The summary lines joined (what golden files store)."""
        return "\n".join(self.summary_lines())

    def digest(self) -> str:
        """SHA-256 of the summary — one value to compare across runs."""
        return hashlib.sha256(self.summary().encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, faults={len(self.log)})"
