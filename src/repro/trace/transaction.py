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
from typing import Callable, Dict, List

from repro.kernel.simtime import SimTime


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
    """Collects transaction records, counts them and their bytes.

    The counts accumulate whether or not records are retained:
    ``keep_records=False`` trades the per-record storage away while the
    counts, subscribers and metrics keep working, which is the
    long-sweep / exploration configuration.

    ``metrics`` optionally publishes the stream into a
    :class:`repro.obs.metrics.MetricsRegistry` (duck-typed, so this
    module does not depend on the observability layer): counters
    ``trace.transactions`` / ``trace.bytes`` and histogram
    ``trace.latency_ns``.  The registry's histogram is the one latency
    summary.
    """

    def __init__(self, keep_records: bool = True, metrics=None):
        self.keep_records = keep_records
        self.records: List[TransactionRecord] = []
        self.count = 0
        self.total_bytes = 0
        self._uid = itertools.count()
        self._listeners: List[Callable[[TransactionRecord], None]] = []
        if metrics is not None:
            self._m_transactions = metrics.counter("trace.transactions")
            self._m_bytes = metrics.counter("trace.bytes")
            self._m_latency = metrics.histogram("trace.latency_ns")
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
        if self._m_transactions is not None:
            self._m_transactions.inc()
            self._m_bytes.inc(nbytes)
            self._m_latency.observe(rec.latency.to("ns"))
        if self.keep_records:
            self.records.append(rec)
        for listener in self._listeners:
            listener(rec)
        return rec

    def subscribe(self, listener: Callable[[TransactionRecord], None]) -> None:
        """Call ``listener`` for every new record."""
        self._listeners.append(listener)
