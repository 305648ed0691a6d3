"""The CCATB bus engine: base class for communication architecture models.

A :class:`BusCam` is *cycle-count accurate at the boundaries* (CCATB,
Pasricha et al. DAC'04, as adopted by the paper): transactions observe
cycle-accurate begin/end times, but the interior of a transaction is
computed arithmetically instead of simulating every cycle.  That is the
source of the TLM speedup quantified in experiments E1/E2.

Masters attach through :meth:`BusCam.master_socket` (an
:class:`~repro.ocp.tl.OcpTargetIf`, so any OCP TL master or wrapper can
drive it); slaves attach with :meth:`BusCam.attach_slave` into the bus's
address map.  A slave is either:

* **functional** — implements ``access(request)`` returning the response
  in zero time, with its wait states charged by the bus (memories), or
* **transported** — implements ``transport(request)`` as a blocking
  generator; the bus holds the data path while it runs (bridges).

Timing model (one grant at a time on the shared command path)::

    grant:   arb_cycles + addr_cycles              (command phase)
    data:    wait_states + beats * cycles_per_beat (data phase)

With ``pipelined=True`` the command phase of transaction *n+1* overlaps
the data phase of transaction *n* (PLB address pipelining); with
``split_rw=True`` reads and writes drain on separate data paths (PLB's
separate read/write data buses).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional

from repro.kernel.errors import ElaborationError, SimulationError
from repro.kernel.event import Event
from repro.kernel.module import Module
from repro.kernel.object import SimObject
from repro.kernel.simtime import SimTime, ZERO_TIME, ns
from repro.ocp.tl import OcpTargetIf
from repro.ocp.types import OcpRequest, OcpResponse
from repro.cam.arbiters import Arbiter, StaticPriorityArbiter


@dataclass(frozen=True)
class BusTiming:
    """Cycle counts defining a bus protocol's CCATB timing (frozen: each
    fabric's, e.g. ``PLB_TIMING``, is one instance its models share)."""

    arb_cycles: int = 1
    addr_cycles: int = 1
    cycles_per_beat: int = 1
    pipelined: bool = False
    split_rw: bool = False

    @property
    def cmd_cycles(self) -> int:
        """Arbitration plus address cycles (the command phase)."""
        return self.arb_cycles + self.addr_cycles


@dataclass
class SlaveBinding:
    """One entry in the bus address map.

    With ``localize`` set (the default for functional slaves) the slave
    sees region-relative addresses; bridges keep absolute addresses so
    they can re-decode on the far bus.
    """

    target: object
    base: int
    size: int
    name: str
    read_wait: Optional[int] = None
    write_wait: Optional[int] = None
    localize: bool = True
    #: one past the last byte of the mapped region
    end: int = field(init=False)
    #: True when the slave offers zero-time ``access``
    is_functional: bool = field(init=False)
    _slave_wait_states: Optional[Callable[[OcpRequest], int]] = field(
        init=False, repr=False, compare=False,
    )

    def __post_init__(self):
        self.end = self.base + self.size
        self.is_functional = hasattr(self.target, "access")
        self._slave_wait_states = getattr(self.target, "wait_states", None)

    def wait_states(self, request: OcpRequest) -> int:
        """Wait states to charge (override or slave-advertised)."""
        override = (
            self.read_wait if request.cmd.is_read else self.write_wait
        )
        if override is not None:
            return override
        getter = self._slave_wait_states
        return getter(request) if getter is not None else 0

    def localized(self, request: OcpRequest) -> OcpRequest:
        """The request as the slave should see it."""
        if not self.localize or self.base == 0:
            return request
        return request.rebased(request.addr - self.base)


def decode_region(slaves: List[SlaveBinding],
                  request: OcpRequest) -> Optional[SlaveBinding]:
    """The binding whose region holds every beat of ``request``."""
    low, high = request.beat_bounds()
    end = high + request.word_bytes
    for binding in slaves:
        if binding.base <= low and end <= binding.end:
            return binding
    return None


def map_slave(fabric: str, slaves: List[SlaveBinding], target, base: int,
              size: int, name: Optional[str] = None,
              read_wait: Optional[int] = None,
              write_wait: Optional[int] = None,
              localize: Optional[bool] = None,
              transported: bool = True) -> SlaveBinding:
    """Map ``target`` into ``[base, base+size)`` of the address map
    ``slaves``: every fabric's ``attach_slave``.

    ``fabric`` names the fabric in errors.  ``transported`` says
    whether the fabric can hold its data path while a transported
    slave runs; otherwise it drives functional slaves only.
    ``localize`` defaults to True for functional slaves (memories see
    region-relative addresses) and False for transported slaves
    (bridges need the absolute address to re-decode downstream).
    """
    name = name or getattr(target, "full_name", repr(target))
    functional = hasattr(target, "access")
    if size <= 0:
        raise ElaborationError(f"{fabric}: slave {name!r} size <= 0")
    if not (functional or transported and hasattr(target, "transport")):
        kinds = ("functional (access()) or transported (transport())"
                 if transported else "functional (access())")
        raise ElaborationError(f"{fabric}: slave {name!r} must be {kinds}")
    binding = SlaveBinding(
        target=target, base=base, size=size, name=name,
        read_wait=read_wait, write_wait=write_wait,
        localize=functional if localize is None else localize,
    )
    for other in slaves:
        if binding.base < other.end and other.base < binding.end:
            raise ElaborationError(
                f"{fabric}: address ranges of {name!r} and "
                f"{other.name!r} overlap"
            )
    slaves.append(binding)
    return binding


class _BusTransaction:
    """In-flight bookkeeping for one master request."""

    __slots__ = (
        "request", "master", "priority", "seq", "arrival_fs",
        "done", "response",
    )

    def __init__(self, request, master, priority, seq, arrival_fs, done):
        self.request = request
        self.master = master
        self.priority = priority
        self.seq = seq
        self.arrival_fs = arrival_fs
        self.done = done
        self.response: Optional[OcpResponse] = None


class _MasterSocket(SimObject, OcpTargetIf):
    """Bus attachment point for one master (an OCP TL target).

    Requests longer than the bus's ``max_burst`` are transparently
    split into back-to-back sub-bursts (incrementing bursts only), the
    way a real bus master interface re-chunks long transfers.
    """

    def __init__(self, name, bus: "BusCam", priority: int):
        super().__init__(name, bus)
        self.bus = bus
        self.priority = priority
        self.split_transactions = 0

    def __snapshot__(self) -> dict:
        return {"split_transactions": self.split_transactions}

    def __restore__(self, state: dict) -> None:
        self.split_transactions = state["split_transactions"]

    def transport(self, request: OcpRequest) -> Generator:
        if request.master_id is None:
            request.master_id = self.full_name
        limit = self.bus.max_burst
        if limit is not None and request.burst_length > limit:
            return (yield from self._split_transport(request, limit))
        txn = self.bus._submit(request, self.name, self.priority)
        while txn.response is None:
            yield txn.done
        return txn.response

    def _split_transport(self, request: OcpRequest,
                         limit: int) -> Generator:
        from dataclasses import replace

        from repro.ocp.types import BurstSeq

        if request.burst_seq is not BurstSeq.INCR:
            raise SimulationError(
                f"{self.full_name}: cannot split a "
                f"{request.burst_seq.name} burst of "
                f"{request.burst_length} beats (bus max {limit})"
            )
        self.split_transactions += 1
        offset = 0
        read_data = []
        while offset < request.burst_length:
            beats = min(limit, request.burst_length - offset)
            sub = replace(
                request,
                addr=request.beat_address(offset),
                data=(request.data[offset:offset + beats]
                      if request.cmd.is_write else []),
                burst_length=beats,
            )
            response = yield from self.transport(sub)
            if not response.ok:
                return response
            read_data.extend(response.data)
            offset += beats
        if request.cmd.is_read:
            return OcpResponse.read_ok(read_data)
        return OcpResponse.write_ok()


class BusStats:
    """Aggregated CCATB bus statistics."""

    def __init__(self):
        self.transactions = 0
        self.bytes = 0
        self.data_busy_cycles = 0

    def record(self, nbytes: int, data_cycles: int) -> None:
        """Account one completed transaction."""
        self.transactions += 1
        self.bytes += nbytes
        self.data_busy_cycles += data_cycles

    def __snapshot__(self) -> dict:
        return {
            "transactions": self.transactions,
            "bytes": self.bytes,
            "data_busy_cycles": self.data_busy_cycles,
        }

    def __restore__(self, state: dict) -> None:
        self.transactions = state["transactions"]
        self.bytes = state["bytes"]
        self.data_busy_cycles = state["data_busy_cycles"]


class BusCam(Module):
    """Base communication architecture model (a shared bus).

    Subclasses (PLB, OPB, AHB, the generic bus) pass a
    :class:`BusTiming`; the bus process derives every transaction's
    timing from it and the slave's wait states.
    """

    def __init__(
        self,
        name,
        parent=None,
        ctx=None,
        clock_period: SimTime = None,
        timing: Optional[BusTiming] = None,
        arbiter: Optional[Arbiter] = None,
        max_burst: Optional[int] = None,
        metrics=None,
    ):
        super().__init__(name, parent, ctx)
        self.clock_period = clock_period if clock_period is not None else ns(10)
        if self.clock_period == ZERO_TIME:
            raise SimulationError(f"bus {name!r}: clock period must be > 0")
        if max_burst is not None and max_burst < 1:
            raise SimulationError(f"bus {name!r}: max_burst must be >= 1")
        self.max_burst = max_burst
        self.timing = timing or GENERIC_TIMING
        self.arbiter = arbiter or StaticPriorityArbiter()
        self.stats = BusStats()
        #: Optional repro.obs MetricsRegistry; when given, every
        #: completion and arbitration decision also publishes there
        #: (counters under ``bus.<full_name>.*``).
        self.metrics = metrics
        if metrics is not None:
            base = f"bus.{self.full_name}"
            self._m_transactions = metrics.counter(f"{base}.transactions")
            self._m_bytes = metrics.counter(f"{base}.bytes")
            self._m_errors = metrics.counter(f"{base}.errors")
            self._m_latency = metrics.histogram(f"{base}.latency_ns")
            self._m_utilization = metrics.gauge(f"{base}.utilization")
            self._m_grants = metrics.counter(f"{base}.arbiter.grants")
            self._m_contended = metrics.counter(
                f"{base}.arbiter.contended_requests"
            )
        else:
            self._m_grants = None
        #: Optional bus fault injector (``repro.faults.BusFaultInjector``
        #: duck type).  None keeps the bus on the fault-free path — the
        #: only cost is one attribute test per granted transaction.
        self.fault_injector = None
        self.slaves: List[SlaveBinding] = []
        self._pending: List[_BusTransaction] = []
        self._request_event = Event(self, f"{self.full_name}.request")
        self._seq = itertools.count()
        self._sockets: Dict[str, _MasterSocket] = {}
        #: per data channel: time (fs) the channel becomes free
        self._channel_free: Dict[str, int] = {}
        self.add_thread(self._bus_process, "bus_process")

    # -- construction-time wiring ---------------------------------------------

    def master_socket(self, name: str, priority: int = 0) -> _MasterSocket:
        """Create (or fetch) the attachment point for master ``name``."""
        if name in self._sockets:
            return self._sockets[name]
        socket = _MasterSocket(name, self, priority)
        self._sockets[name] = socket
        return socket

    def attach_slave(
        self,
        target,
        base: int,
        size: int,
        name: Optional[str] = None,
        read_wait: Optional[int] = None,
        write_wait: Optional[int] = None,
        localize: Optional[bool] = None,
    ) -> SlaveBinding:
        """Map ``target`` into ``[base, base+size)`` on this bus (see
        :func:`map_slave`)."""
        return map_slave(f"bus {self.full_name}", self.slaves, target,
                         base, size, name=name, read_wait=read_wait,
                         write_wait=write_wait, localize=localize)

    def decode(self, request: OcpRequest) -> Optional[SlaveBinding]:
        """Address decode; every beat of the burst must fit one region."""
        return decode_region(self.slaves, request)

    # -- master-side submission -------------------------------------------------------

    def _submit(self, request: OcpRequest, master: str,
                priority: int) -> _BusTransaction:
        txn = _BusTransaction(
            request, master, priority, next(self._seq), self.ctx._now_fs,
            Event(self, f"{self.full_name}.done_{next(self._seq)}"),
        )
        self._pending.append(txn)
        self._request_event.notify()
        return txn

    # -- the bus process ------------------------------------------------------------------

    def _bus_process(self) -> Generator:
        """Grant, decode, time and complete one transaction per pass.

        A functional slave's transaction completes in this loop, timed
        on integer femtoseconds: a ``SimTime`` is built only where the
        process yields one, and the command phase's once per bus.
        """
        ctx = self.ctx
        pending = self._pending
        slaves = self.slaves
        period_fs = self.clock_period._fs
        timing = self.timing
        cmd_phase = self.clock_period * timing.cmd_cycles
        cmd_fs = cmd_phase._fs
        cycles_per_beat = timing.cycles_per_beat
        pipelined = timing.pipelined
        split_rw = timing.split_rw
        while True:
            while not pending:
                yield self._request_event
            remainder = ctx._now_fs % period_fs
            if remainder:
                yield SimTime._from_fs(period_fs - remainder)
                if not pending:
                    continue
            txn = self.arbiter.pick(pending, ctx._now_fs // period_fs)
            if self._m_grants is not None:
                self._m_grants.inc()
                if len(pending) > 1:
                    self._m_contended.inc(len(pending) - 1)
            pending.remove(txn)
            request = txn.request
            inj = self.fault_injector
            if inj is not None and inj.force_error(self, request):
                yield cmd_phase
                self._complete(txn, OcpResponse.error(), data_cycles=0,
                               channel="fault-injected")
                continue
            binding = decode_region(slaves, request)
            if (binding is not None and inj is not None
                    and inj.decode_miss(self, request)):
                binding = None
            if binding is None:
                yield cmd_phase
                self._complete(txn, OcpResponse.error(), data_cycles=0,
                               channel="decode-error")
                continue
            if split_rw:
                channel = "read" if request.cmd.is_read else "write"
            else:
                channel = "data"
            if not binding.is_functional:
                yield from self._run_transported(txn, binding, channel)
                continue
            data_cycles = (binding.wait_states(request)
                           + request.burst_length * cycles_per_beat)
            if pipelined:
                # Command phase on the shared path; the data phase
                # overlaps the next command phase, serialized per data
                # channel, so the loop arbitrates again at once.
                yield cmd_phase
                now_fs = ctx._now_fs
                free_fs = self._channel_free.get(channel, 0)
                end_fs = ((free_fs if free_fs > now_fs else now_fs)
                          + period_fs * data_cycles)
                self._channel_free[channel] = end_fs
            else:
                yield SimTime._from_fs(cmd_fs + period_fs * data_cycles)
                end_fs = ctx._now_fs
            try:
                response = binding.target.access(binding.localized(request))
            except Exception:
                ctx.reporter.error(
                    "bus",
                    f"slave {binding.name!r} raised during access to "
                    f"{request!r}",
                    time_str=str(ctx.now),
                )
                response = OcpResponse.error()
            txn.response = response
            if not pipelined:
                txn.done.notify()
            elif end_fs > now_fs:
                txn.done._notify_at_fs(end_fs)
            else:
                txn.done.notify_delta()
            self._account(txn, response, end_fs, data_cycles, channel)

    def _run_transported(self, txn: _BusTransaction, binding: SlaveBinding,
                         channel: str) -> Generator:
        period = self.clock_period
        yield period * self.timing.cmd_cycles
        start_fs = self.ctx._now_fs
        response = yield from binding.target.transport(
            binding.localized(txn.request)
        )
        busy = (self.ctx._now_fs - start_fs) // period._fs
        self._complete(txn, response, busy, channel)

    # -- completion & accounting ----------------------------------------------------------

    def _complete(self, txn: _BusTransaction, response: OcpResponse,
                  data_cycles: int, channel: str) -> None:
        txn.response = response
        txn.done.notify()
        self._account(txn, response, self.ctx._now_fs, data_cycles, channel)

    def _account(self, txn: _BusTransaction, response: OcpResponse,
                 end_fs: int, data_cycles: int, channel: str) -> None:
        request = txn.request
        self.stats.record(request.nbytes, data_cycles)
        if self._m_grants is not None:
            self._m_transactions.inc()
            self._m_bytes.inc(request.nbytes)
            if not response.ok:
                self._m_errors.inc()
            self._m_latency.observe((end_fs - txn.arrival_fs) / 1_000_000)
            self._m_utilization.set(self.utilization(), self.ctx._now_fs)
        obs = self.ctx._obs
        if obs is not None:
            obs.on_transaction(self.full_name, request.cmd.name.lower(),
                               txn.master, channel, txn.arrival_fs, end_fs,
                               request.nbytes, request.burst_length)

    # -- checkpoint/restore protocol (see repro.snapshot) --------------------

    def __snapshot_events__(self):
        return (self._request_event,)

    def __snapshot__(self) -> dict:
        from repro.snapshot.state import SnapshotError, peek_counter

        if self._pending:
            raise SnapshotError(
                f"bus {self.full_name}: {len(self._pending)} transaction(s) "
                "in flight — not a checkpointable instant"
            )
        state = {
            "stats": self.stats.__snapshot__(),
            "next_seq": peek_counter(self, "_seq"),
            "arbiter": self.arbiter.snapshot_state(),
            "channel_free": dict(self._channel_free),
            # Socket roster so lazily created attachment points (crossbar
            # per-path sockets) can be re-created before their own
            # records are replayed.
            "sockets": [
                [socket.name, socket.priority]
                for socket in self._sockets.values()
            ],
        }
        injector = self.fault_injector
        if injector is not None:
            hook = getattr(injector, "__snapshot__", None)
            if hook is None:
                raise SnapshotError(
                    f"bus {self.full_name}: fault injector "
                    f"{type(injector).__name__} has no __snapshot__"
                )
            state["fault_injector"] = hook()
        return state

    def __restore__(self, state: dict) -> None:
        from repro.snapshot.state import SnapshotError

        self.stats.__restore__(state["stats"])
        self._seq = itertools.count(state["next_seq"])
        self.arbiter.restore_state(state["arbiter"])
        self._channel_free = dict(state["channel_free"])
        for name, priority in state["sockets"]:
            self.master_socket(name, priority)
        payload = state.get("fault_injector")
        if payload is not None:
            injector = self.fault_injector
            if injector is None:
                raise SnapshotError(
                    f"bus {self.full_name}: snapshot has fault-injector "
                    "state but no injector is attached"
                )
            injector.__restore__(payload)

    # -- reporting ----------------------------------------------------------------------------

    def utilization(self, until: Optional[SimTime] = None) -> float:
        """Fraction of elapsed bus cycles with an active data phase.

        ``until`` measures against a window end other than the current
        simulation time (e.g. the workload's completion time).
        """
        horizon = until if until is not None else self.ctx.now
        total_cycles = horizon // self.clock_period
        if total_cycles == 0:
            return 0.0
        busy = self.stats.data_busy_cycles
        if self.timing.split_rw:
            # Two parallel data paths double the available cycles.
            total_cycles *= 2
        return min(busy / total_cycles, 1.0)


#: The generic bus: one arbitration, one address cycle, a beat per cycle,
#: no pipelining, one data path.  Also BusCam's and each crossbar path's.
GENERIC_TIMING = BusTiming(arb_cycles=1, addr_cycles=1, cycles_per_beat=1,
                           pipelined=False, split_rw=False)


class GenericBus(BusCam):
    """A plain non-pipelined shared bus (the 'simple bus' CAM)."""

    def __init__(self, name, parent=None, ctx=None, clock_period=None,
                 arbiter=None, metrics=None):
        super().__init__(
            name,
            parent,
            ctx,
            clock_period=clock_period,
            timing=GENERIC_TIMING,
            arbiter=arbiter,
            metrics=metrics,
        )
