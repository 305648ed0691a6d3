"""Synthetic traffic generation for architecture exploration.

Real exploration runs replay application traffic; the paper has no
public traces, so the workload generator produces the classic
patterns communication-architecture studies sweep (and experiment E3
uses): streaming DMA, random CPU-like access, and request/response
ping-pong.  Generation is fully deterministic per seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Generator, Optional

from repro.kernel.errors import SimulationError
from repro.kernel.module import Module
from repro.kernel.simtime import SimTime, ZERO_TIME, ns
from repro.ocp.types import OcpCmd, OcpRequest
from repro.snapshot.state import rng_state_json, set_rng_state
from repro.trace.stats import TimeStats

#: Supported traffic patterns.
PATTERNS = ("stream", "random", "pingpong")

#: RNG substream names a traffic master draws from, in the order they
#: exist: addresses, read/write coin flips, inter-transaction gaps,
#: write payload words.  Keeping each decision on its own stream is
#: what makes common-random-numbers work across design points — a
#: config that clamps bursts (consuming fewer data words) no longer
#: desynchronizes the address and gap draws of every later
#: transaction.
SUBSTREAMS = ("addr", "rw", "gap", "data")


def substream_seed(seed: int, master: str, stream: str) -> str:
    """Canonical seed string of one ``(master, stream)`` RNG substream.

    String seeds are stable across interpreter processes (tuple hashes
    are not — see :class:`TrafficMaster`); the exact format is a
    compatibility contract pinned by tests, like ``cache_key()``:
    changing it changes every substream-seeded simulation result.
    """
    if stream not in SUBSTREAMS:
        raise ValueError(
            f"unknown substream {stream!r}; expected one of {SUBSTREAMS}"
        )
    return f"{seed}:{master}:{stream}"


@dataclass
class MasterTrafficSpec:
    """Traffic description for one bus master.

    Parameters
    ----------
    pattern:
        ``stream`` — sequential bursts walking the region (DMA-like);
        ``random`` — uniformly random aligned addresses (CPU-like);
        ``pingpong`` — alternating write/read to the same line
        (synchronization-flag traffic).
    gap:
        Mean idle time between transactions (uniform in [0, 2*gap]).
    read_fraction:
        Probability a transaction is a read (ignored by ``pingpong``).
    transactions:
        How many transactions to issue (None = until simulation ends).
    """

    name: str
    pattern: str = "stream"
    base: int = 0x0
    size: int = 1 << 16
    burst_length: int = 4
    gap: SimTime = ns(100)
    read_fraction: float = 0.5
    transactions: Optional[int] = 200
    priority: int = 0
    word_bytes: int = 4

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ValueError(
                f"unknown traffic pattern {self.pattern!r}; expected one "
                f"of {PATTERNS}"
            )
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be within [0, 1]")
        if self.burst_length < 1:
            raise ValueError("burst_length must be >= 1")
        span = self.burst_length * self.word_bytes
        if span > self.size:
            raise ValueError("burst does not fit the address region")

    def to_dict(self) -> dict:
        """JSON-able dict (``gap`` as integer femtoseconds)."""
        return {
            "name": self.name,
            "pattern": self.pattern,
            "base": self.base,
            "size": self.size,
            "burst_length": self.burst_length,
            "gap_fs": self.gap.femtoseconds,
            "read_fraction": self.read_fraction,
            "transactions": self.transactions,
            "priority": self.priority,
            "word_bytes": self.word_bytes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MasterTrafficSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            pattern=data["pattern"],
            base=data["base"],
            size=data["size"],
            burst_length=data["burst_length"],
            gap=SimTime(data["gap_fs"]),
            read_fraction=data["read_fraction"],
            transactions=data["transactions"],
            priority=data["priority"],
            word_bytes=data["word_bytes"],
        )

    def scaled(self, fraction: float) -> "MasterTrafficSpec":
        """A copy with ``transactions`` scaled down to ``fraction``.

        Shrinks a standard workload for quicker sweeps; an unbounded
        spec (``transactions=None``) is returned unchanged.  At least
        one transaction survives.
        """
        if self.transactions is None or fraction >= 1.0:
            return self
        return replace(self,
                       transactions=max(1, int(self.transactions * fraction)))


class TrafficMaster(Module):
    """Drives one blocking-transport socket with generated traffic.

    ``rng_streams=True`` gives every decision kind its own RNG
    substream seeded by :func:`substream_seed` — the common-random-
    numbers discipline paired design-point comparisons rely on.  Off
    (the default), all decisions share one RNG exactly as before, so
    existing seeds reproduce byte-identical traffic.
    ``record_series=True`` additionally stores the per-transaction
    latency series (ns floats, completion order) for steady-state
    estimation in :mod:`repro.stats`.
    """

    def __init__(self, name, parent=None, ctx=None,
                 socket=None, spec: MasterTrafficSpec = None,
                 seed: int = 1, rng_streams: bool = False,
                 record_series: bool = False,
                 start_time: Optional[SimTime] = None):
        super().__init__(name, parent, ctx)
        if socket is None or spec is None:
            raise SimulationError(
                f"traffic master {name!r} needs a socket and a spec"
            )
        self.socket = socket
        self.spec = spec
        # Seed with a string, not a tuple hash: str/bytes seeding is
        # stable across interpreter processes, while tuple.__hash__
        # includes the PYTHONHASHSEED-salted string hash and silently
        # broke cross-process reproducibility.
        self.rng = random.Random(f"{seed}:{spec.name}")
        if rng_streams:
            self._rng_addr = random.Random(
                substream_seed(seed, spec.name, "addr"))
            self._rng_rw = random.Random(
                substream_seed(seed, spec.name, "rw"))
            self._rng_gap = random.Random(
                substream_seed(seed, spec.name, "gap"))
            self._rng_data = random.Random(
                substream_seed(seed, spec.name, "data"))
        else:
            # All four names alias the one shared RNG: the draw order
            # is unchanged from the pre-substream implementation, so
            # default-mode results stay byte-identical.
            self._rng_addr = self._rng_rw = self.rng
            self._rng_gap = self._rng_data = self.rng
        self.rng_streams = rng_streams
        self.latency = TimeStats()
        self.latency_series = [] if record_series else None
        self.bytes_done = 0
        self.completed = 0
        self.errors = 0
        self.last_done: SimTime = ZERO_TIME
        self.start_time = start_time
        self._stream_offset = 0
        self._index = 0
        self._pending_gap_fs: Optional[int] = None
        self.add_thread(self._drive, "drive")

    # -- request generation ------------------------------------------------------

    def _next_request(self, index: int) -> OcpRequest:
        spec = self.spec
        span = spec.burst_length * spec.word_bytes
        if spec.pattern == "stream":
            addr = spec.base + self._stream_offset
            self._stream_offset += span
            if self._stream_offset + span > spec.size:
                # the next burst would not fit: back to the region start
                self._stream_offset = 0
            is_read = self._rng_rw.random() < spec.read_fraction
        elif spec.pattern == "random":
            slots = max((spec.size - span) // spec.word_bytes, 1)
            addr = (spec.base
                    + self._rng_addr.randrange(slots) * spec.word_bytes)
            is_read = self._rng_rw.random() < spec.read_fraction
        else:  # pingpong
            addr = spec.base
            is_read = bool(index % 2)
        if is_read:
            return OcpRequest(
                OcpCmd.RD, addr, burst_length=spec.burst_length,
                word_bytes=spec.word_bytes,
            )
        data = [
            self._rng_data.randrange(1 << 32)
            for _ in range(spec.burst_length)
        ]
        return OcpRequest(
            OcpCmd.WR, addr, data=data, burst_length=spec.burst_length,
            word_bytes=spec.word_bytes,
        )

    def _gap_time(self) -> SimTime:
        mean_fs = self.spec.gap.femtoseconds
        if mean_fs == 0:
            return ZERO_TIME
        return SimTime(self._rng_gap.randrange(2 * mean_fs + 1))

    # -- the driver process ---------------------------------------------------------

    def _drive(self) -> Generator:
        spec = self.spec
        if self.start_time is not None:
            # Absolute anchor: the wait is recomputed from *now*, so a
            # master created at restore time parks at the same absolute
            # instant a cold run's master does.
            start_fs = self.start_time._fs
            while self.ctx._now_fs < start_fs:
                yield SimTime(start_fs - self.ctx._now_fs)
        while spec.transactions is None or self._index < spec.transactions:
            if self._pending_gap_fs is None:
                # Persist the drawn gap before yielding: a checkpoint
                # taken while parked on the gap must not redraw it on
                # restore (the RNG stream already advanced).
                self._pending_gap_fs = self._gap_time()._fs
            if self._pending_gap_fs > 0:
                yield SimTime(self._pending_gap_fs)
            self._pending_gap_fs = None
            index = self._index
            request = self._next_request(index)
            begin = self.ctx.now
            response = yield from self.socket.transport(request)
            elapsed = self.ctx.now - begin
            self.latency.add(elapsed)
            if self.latency_series is not None:
                self.latency_series.append(elapsed.to("ns"))
            if response.ok:
                self.bytes_done += request.nbytes
            else:
                self.errors += 1
            self.completed += 1
            self.last_done = self.ctx.now
            self._index = index + 1

    # -- checkpoint/restore protocol (see repro.snapshot) --------------------

    def __snapshot__(self) -> dict:
        state = {
            "rng": rng_state_json(self.rng),
            "latency": self.latency.__snapshot__(),
            "latency_series": (
                list(self.latency_series)
                if self.latency_series is not None else None
            ),
            "bytes_done": self.bytes_done,
            "completed": self.completed,
            "errors": self.errors,
            "last_done_fs": self.last_done._fs,
            "stream_offset": self._stream_offset,
            "index": self._index,
            "pending_gap_fs": self._pending_gap_fs,
        }
        if self.rng_streams:
            state["streams"] = {
                name: rng_state_json(getattr(self, f"_rng_{name}"))
                for name in SUBSTREAMS
            }
        return state

    def __restore__(self, state: dict) -> None:
        set_rng_state(self.rng, state["rng"])
        if self.rng_streams and "streams" in state:
            for name, payload in state["streams"].items():
                set_rng_state(getattr(self, f"_rng_{name}"), payload)
        self.latency.__restore__(state["latency"])
        if state["latency_series"] is None:
            self.latency_series = None
        else:
            self.latency_series = list(state["latency_series"])
        self.bytes_done = state["bytes_done"]
        self.completed = state["completed"]
        self.errors = state["errors"]
        self.last_done = SimTime(state["last_done_fs"])
        self._stream_offset = state["stream_offset"]
        self._index = state["index"]
        self._pending_gap_fs = state["pending_gap_fs"]

    @property
    def done(self) -> bool:
        """True once the requested transaction count completed."""
        return (
            self.spec.transactions is not None
            and self.completed >= self.spec.transactions
        )


def standard_workloads() -> dict:
    """The named workloads used by experiment E3: the three classic
    patterns plus a fully-contended one that removes any
    fabric-parallelism advantage."""
    return {
        "dma_stream": [
            MasterTrafficSpec("dma0", pattern="stream", base=0x0,
                              size=1 << 16, burst_length=8, gap=ns(50),
                              read_fraction=0.0, transactions=300,
                              priority=1),
            MasterTrafficSpec("dma1", pattern="stream", base=0x10000,
                              size=1 << 16, burst_length=8, gap=ns(50),
                              read_fraction=1.0, transactions=300,
                              priority=2),
        ],
        "cpu_random": [
            MasterTrafficSpec("cpu0", pattern="random", base=0x0,
                              size=1 << 16, burst_length=1, gap=ns(80),
                              read_fraction=0.7, transactions=400,
                              priority=0),
            MasterTrafficSpec("cpu1", pattern="random", base=0x10000,
                              size=1 << 16, burst_length=1, gap=ns(80),
                              read_fraction=0.7, transactions=400,
                              priority=1),
        ],
        "mixed": [
            MasterTrafficSpec("cpu", pattern="random", base=0x0,
                              size=1 << 16, burst_length=1, gap=ns(100),
                              read_fraction=0.8, transactions=300,
                              priority=0),
            MasterTrafficSpec("dma", pattern="stream", base=0x10000,
                              size=1 << 16, burst_length=16, gap=ns(200),
                              read_fraction=0.0, transactions=150,
                              priority=1),
            MasterTrafficSpec("sync", pattern="pingpong", base=0x20000,
                              size=1 << 12, burst_length=1, gap=ns(150),
                              read_fraction=0.5, transactions=200,
                              priority=2),
        ],
        # every master hammers ONE region: slave-side contention
        # dominates and fabric parallelism cannot help — the workload
        # that keeps exploration results honest
        "contended": [
            MasterTrafficSpec(f"m{i}", pattern="random", base=0x0,
                              size=1 << 14, burst_length=4, gap=ns(60),
                              read_fraction=0.5, transactions=200,
                              priority=i)
            for i in range(3)
        ],
    }
