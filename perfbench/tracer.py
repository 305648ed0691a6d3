"""Per-layer host-time attribution for one traced benchmark repeat.

A :class:`LayerTracer` keeps a stack of open spans.  Each span belongs
to a *layer*, the ``repro`` subpackage whose code runs inside it
(``kernel``, ``ship``, ``cam``, ...).  When a span closes, its duration
is added to its layer's self time and taken off the self time of the
enclosing span's layer, so every traced second is charged to exactly
one layer and the self times sum to the traced wall time.

Spans come from three places, all outside the simulator's own code:

* a :class:`repro.obs.SimObserver` attached to each traced context
  opens one span per process dispatch, charged to the module of the
  process owner's class (a ``PlbBus`` process is ``cam`` time, a
  ``TrafficMaster`` process is ``explore`` time);
* thin wrappers, installed only while :meth:`LayerTracer.installed` is
  active, time selected public entry points (the SHIP codec and channel
  calls, the mailbox, the pin-level OCP master, bus statistics, the
  sweep store, point serialization and checkpoint loading, and
  ``SimContext.run`` itself, whose self time is the scheduler's);
* the benchmark wraps its own calls into a layer with :meth:`span`.

Generator methods (``ShipChannel.send``, ``OcpPinMaster.transport``)
are timed per resumption step, since their work is spread over several
process dispatches.  Spans stay in memory and are written at the end as
a Chrome trace through :class:`repro.obs.TraceEventCollector`.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional

import repro.models.wrappers as wrappers_module
import repro.ship.channel as channel_module
from repro.cam import BusCam, BusStats
from repro.explore import ExplorationResult
from repro.kernel import SimContext
from repro.models import MailboxSlave
from repro.models.mailbox import CTRL_VALID
from repro.obs import SimObserver, TraceEventCollector
from repro.ocp import OcpPinMaster
from repro.ship import ShipChannel
from repro.snapshot import Checkpoint
from repro.sweep import SweepPoint, SweepStore

#: Layers reported by name; time in any other module is ``other``.
LAYERS = ("kernel", "apps", "ship", "models", "cam", "ocp", "accessors",
          "rtl", "explore", "sweep", "snapshot")

#: Spans kept for the Chrome trace; aggregates never stop counting.
MAX_KEPT_SPANS = 400_000

#: Chrome-trace timestamps are host microseconds; the collector takes
#: simulated femtoseconds and divides by 1e6, so 1 host s == 1e12 units.
_TRACE_UNITS_PER_S = 1e12


def layer_of(cls) -> str:
    """The layer a class's code belongs to, from its module name."""
    parts = cls.__module__.split(".")
    if parts[0] == "repro" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return "other"


def owner_layer(process) -> str:
    """Layer of the object that owns ``process``.

    Process names are hierarchical (``top.plb.bus_process``): the owner
    is the longest registered object name that prefixes it.
    """
    objects = process.ctx.objects
    name = process.name
    while "." in name:
        name = name.rsplit(".", 1)[0]
        owner = objects.get(name)
        if owner is not None:
            return layer_of(type(owner))
    return "other"


def _per(total: float, count: int, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


class _LayerObserver(SimObserver):
    """Kernel observer that turns each dispatch into a layer span."""

    def __init__(self, tracer: "LayerTracer"):
        self.tracer = tracer
        self._layers: Dict[object, str] = {}

    def on_process_activate(self, process, now_fs: int) -> None:
        tracer = self.tracer
        layer = self._layers.get(process)
        if layer is None:
            layer = self._layers[process] = owner_layer(process)
            if process.ctx not in tracer.contexts:
                tracer.contexts.append(process.ctx)
        tracer.counts[layer + ".activations"] += 1
        tracer.enter(layer, process.name)

    def on_process_suspend(self, process, now_fs: int,
                           wall_s: float) -> None:
        self.tracer.exit(wall_s)

    def on_delta_cycle(self, delta_count: int, now_fs: int) -> None:
        self.tracer.counts["kernel.deltas"] += 1

    def on_time_advance(self, now_fs: int) -> None:
        self.tracer.counts["kernel.time_advances"] += 1


class LayerTracer:
    """Span stack, per-layer self time, and call counts of one trace."""

    def __init__(self, keep_spans: bool = False):
        #: layer -> seconds spent in its own code
        self.self_s: Dict[str, float] = defaultdict(float)
        #: span name -> inclusive seconds
        self.time_s: Dict[str, float] = defaultdict(float)
        #: wrapped call counts by name, activations by ``<layer>.activations``
        #: and free counters (codec bytes, mailbox polls)
        self.counts: Dict[str, int] = defaultdict(int)
        #: every SimContext the observer saw, for component statistics
        self.contexts: List[object] = []
        self.spans: Optional[List[tuple]] = [] if keep_spans else None
        self.observer = _LayerObserver(self)
        self._stack: List[tuple] = []
        self._patches: List[tuple] = []

    # -- spans ----------------------------------------------------------

    def enter(self, layer: str, name: str) -> None:
        """Open a span of ``layer``."""
        self._stack.append((layer, name, time.perf_counter()))

    def exit(self, duration: Optional[float] = None) -> None:
        """Close the innermost span (``duration`` overrides the clock)."""
        layer, name, start = self._stack.pop()
        if duration is None:
            duration = time.perf_counter() - start
        self.self_s[layer] += duration
        if self._stack:
            self.self_s[self._stack[-1][0]] -= duration
        self.time_s[name] += duration
        spans = self.spans
        if spans is not None and len(spans) < MAX_KEPT_SPANS:
            spans.append((name, layer, start, duration))

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """Charge the body to ``layer``; exception-safe."""
        depth = len(self._stack)
        self.enter(layer, name)
        try:
            yield
        finally:
            # a simulation that raised mid-dispatch leaves its spans open
            del self._stack[depth + 1:]
            self.exit()

    def _timed_steps(self, gen, layer: str, name: str):
        """Drive ``gen``, timing each resumption as a span."""
        value, error = None, None
        while True:
            self.enter(layer, name)
            try:
                if error is None:
                    yielded = gen.send(value)
                else:
                    yielded = gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit()
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                value, error = None, exc

    # -- wrappers -------------------------------------------------------

    def _wrap(self, owner, attr: str, layer: str, name: str,
              steps: bool = False, after=None) -> None:
        raw = vars(owner)[attr]
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self
        counts = self.counts

        if steps:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return tracer._timed_steps(func(*args, **kwargs), layer, name)
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                tracer.enter(layer, name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer.exit()
                if after is not None:
                    after(args, result)
                return result

        setattr(owner, attr,
                classmethod(wrapper) if isinstance(raw, classmethod)
                else wrapper)
        self._patches.append((owner, attr, raw))

    def _count_encoded(self, args, data) -> None:
        self.counts["ship.bytes"] += len(data)

    def _count_poll(self, args, response) -> None:
        mailbox, request = args
        if not request.cmd.is_read or request.burst_length != 1:
            return
        layout = mailbox.layout
        # a poll is useful when it finds the state the wrapper waits
        # for: the inbound slot free, or an outbound chunk valid
        if request.addr == layout.ctrl_in:
            useful = not response.data[0] & CTRL_VALID
        elif request.addr == layout.ctrl_out:
            useful = bool(response.data[0] & CTRL_VALID)
        else:
            return
        self.counts["models.polls"] += 1
        self.counts["models.useful_polls"] += int(useful)

    @contextlib.contextmanager
    def installed(self):
        """Install the timing wrappers for the body, then remove them."""
        try:
            self._wrap(SimContext, "run", "kernel", "SimContext.run")
            for module in (channel_module, wrappers_module):
                self._wrap(module, "encode_message", "ship", "ship.encode",
                           after=self._count_encoded)
                self._wrap(module, "decode_message", "ship", "ship.decode")
            for call in ("send", "recv", "request", "reply"):
                self._wrap(ShipChannel, call, "ship", f"ShipChannel.{call}",
                           steps=True)
            self._wrap(MailboxSlave, "access", "models",
                       "MailboxSlave.access", after=self._count_poll)
            self._wrap(OcpPinMaster, "transport", "ocp",
                       "OcpPinMaster.transport", steps=True)
            # counts transactions completed in this run; bus statistics
            # restored from a checkpoint already hold the boot phase's
            self._wrap(BusStats, "record", "cam", "BusStats.record")
            self._wrap(SweepPoint, "to_payload", "sweep",
                       "SweepPoint.to_payload")
            self._wrap(ExplorationResult, "from_dict", "explore",
                       "ExplorationResult.from_dict")
            self._wrap(SweepStore, "put", "sweep", "SweepStore.put")
            self._wrap(SweepStore, "get", "sweep", "SweepStore.get")
            self._wrap(Checkpoint, "load", "snapshot", "Checkpoint.load")
            yield self
        finally:
            while self._patches:
                owner, attr, raw = self._patches.pop()
                setattr(owner, attr, raw)

    # -- results --------------------------------------------------------

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Layer metrics derivable from the trace alone.

        ``wall_s`` is the traced section's wall time measured outside
        the tracer; the self times should sum to it.
        """
        counts = self.counts
        self_s = {layer: self.self_s.get(layer, 0.0) for layer in LAYERS}
        activations = sum(count for key, count in counts.items()
                          if key.endswith(".activations"))
        messages = sum(counts[f"ShipChannel.{call}"]
                       for call in ("send", "request", "reply"))
        buses = [obj for ctx in self.contexts for obj in ctx.objects.values()
                 if isinstance(obj, BusCam)]
        utilization = (statistics.fmean(
            bus.utilization(until=bus.ctx.last_activity_time)
            for bus in buses) if buses else 0.0)
        metrics = {f"{layer}.self_s": seconds
                   for layer, seconds in self_s.items()}
        metrics.update({
            "other.self_s": sum(seconds for layer, seconds
                                in self.self_s.items()
                                if layer not in LAYERS),
            "kernel.ns_per_activation": _per(self_s["kernel"], activations,
                                             1e9),
            "kernel.activations": activations,
            "kernel.deltas": counts["kernel.deltas"],
            "kernel.time_advances": counts["kernel.time_advances"],
            "ship.codec_s": (self.time_s["ship.encode"]
                             + self.time_s["ship.decode"]),
            "ship.us_per_message": _per(self_s["ship"], messages, 1e6),
            "ship.messages": messages,
            "ship.bytes": counts["ship.bytes"],
            "models.mailbox_accesses": counts["MailboxSlave.access"],
            "models.poll_hit_frac": _per(counts["models.useful_polls"],
                                         counts["models.polls"]),
            "cam.transactions": counts["BusStats.record"],
            "cam.us_per_transaction": _per(self_s["cam"],
                                           counts["BusStats.record"], 1e6),
            "cam.utilization": utilization,
            "ocp.transactions": counts["OcpPinMaster.transport"],
            "accessors.activations": counts["accessors.activations"],
            "rtl.activations": counts["rtl.activations"],
            "sweep.store_put_us": _per(self.time_s["SweepStore.put"],
                                       counts["SweepStore.put"], 1e6),
            "snapshot.load_ms": _per(self.time_s["Checkpoint.load"],
                                     counts["Checkpoint.load"], 1e3),
            "trace.wall_s": wall_s,
        })
        return metrics

    def write_chrome_trace(self, path: str) -> None:
        """Write the kept spans as a Chrome trace, one track per layer."""
        collector = TraceEventCollector(
            process_tracks=False,
            time_note="1 trace us == 1 host us; one track per layer",
        )
        collector.name_process(1, "benchmark driver")
        spans = self.spans or []
        origin = min((start for _, _, start, _ in spans), default=0.0)
        for name, layer, start, duration in spans:
            begin = (start - origin) * _TRACE_UNITS_PER_S
            collector.add_span(layer, name, begin,
                               begin + duration * _TRACE_UNITS_PER_S, pid=1)
        collector.write(path)
