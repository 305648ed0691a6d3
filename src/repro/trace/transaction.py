"""Transaction recording.

Every TLM channel in the library (SHIP, OCP, the bus CAMs) can be handed
a :class:`TransactionRecorder`; it captures one :class:`TransactionRecord`
per completed transaction with begin/end timestamps and free-form
attributes.  The recorder is what the CCATB-accuracy experiment (E2) and
the exploration engine (E3) read their cycle counts and latencies from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.kernel.simtime import SimTime
from repro.trace.stats import TimeStats


@dataclass
class TransactionRecord:
    """One completed transaction."""

    uid: int
    channel: str
    kind: str               # e.g. "read", "write", "send", "request"
    initiator: str
    target: str
    begin: SimTime
    end: SimTime
    nbytes: int = 0
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def latency(self) -> SimTime:
        """End minus begin."""
        return self.end - self.begin


class TransactionRecorder:
    """Collects transaction records and derives summary statistics.

    Summary statistics (counts, bytes, latency moments) accumulate
    whether or not records are retained: ``keep_records=False`` trades
    the per-record storage away while every statistic and metric keeps
    working, which is the long-sweep / exploration configuration.

    ``metrics`` optionally publishes the stream into a
    :class:`repro.obs.metrics.MetricsRegistry` (duck-typed, so this
    module does not depend on the observability layer): counters
    ``{prefix}.transactions`` / ``{prefix}.bytes`` and histogram
    ``{prefix}.latency_ns``, with ``prefix`` defaulting to ``trace``.
    """

    def __init__(self, keep_records: bool = True, metrics=None,
                 metrics_prefix: Optional[str] = None):
        self.keep_records = keep_records
        self.records: List[TransactionRecord] = []
        self.count = 0
        self.total_bytes = 0
        self._uid = itertools.count()
        self.latency_by_kind: Dict[str, TimeStats] = {}
        #: Latency over *all* kinds; kept online so it survives
        #: ``keep_records=False``.
        self._overall_latency = TimeStats()
        self._listeners: List[Callable[[TransactionRecord], None]] = []
        self.metrics = metrics
        if metrics is not None:
            prefix = metrics_prefix or "trace"
            self._m_transactions = metrics.counter(f"{prefix}.transactions")
            self._m_bytes = metrics.counter(f"{prefix}.bytes")
            self._m_latency = metrics.histogram(f"{prefix}.latency_ns")
        else:
            self._m_transactions = None
            self._m_bytes = None
            self._m_latency = None

    def record(
        self,
        channel: str,
        kind: str,
        initiator: str,
        target: str,
        begin: SimTime,
        end: SimTime,
        nbytes: int = 0,
        **attributes,
    ) -> TransactionRecord:
        """Store one completed transaction; returns the record."""
        rec = TransactionRecord(
            uid=next(self._uid),
            channel=channel,
            kind=kind,
            initiator=initiator,
            target=target,
            begin=begin,
            end=end,
            nbytes=nbytes,
            attributes=attributes,
        )
        self.count += 1
        self.total_bytes += nbytes
        latency = rec.latency
        self.latency_by_kind.setdefault(kind, TimeStats()).add(latency)
        self._overall_latency.add(latency)
        if self._m_transactions is not None:
            self._m_transactions.inc()
            self._m_bytes.inc(nbytes)
            self._m_latency.observe(latency.to("ns"))
        if self.keep_records:
            self.records.append(rec)
        for listener in self._listeners:
            listener(rec)
        return rec

    def subscribe(self, listener: Callable[[TransactionRecord], None]) -> None:
        """Call ``listener`` for every new record."""
        self._listeners.append(listener)

    # -- queries -----------------------------------------------------------------

    def by_kind(self, kind: str) -> List[TransactionRecord]:
        """Kept records of the given kind."""
        return [r for r in self.records if r.kind == kind]

    def by_initiator(self, initiator: str) -> List[TransactionRecord]:
        """Kept records from the given initiator."""
        return [r for r in self.records if r.initiator == initiator]

    def latency_stats(self, kind: Optional[str] = None) -> TimeStats:
        """Latency statistics, optionally restricted to one kind.

        The overall statistics are maintained online, so they are exact
        even with ``keep_records=False``.
        """
        if kind is not None:
            return self.latency_by_kind.get(kind, TimeStats())
        return self._overall_latency

    def clear(self) -> None:
        """Drop records and reset statistics.

        Metrics already published to an attached registry are counters
        in that registry's namespace and are intentionally not rolled
        back.
        """
        self.records.clear()
        self.count = 0
        self.total_bytes = 0
        self.latency_by_kind.clear()
        self._overall_latency = TimeStats()
