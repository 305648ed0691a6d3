"""Simulation profiling report CLI: ``python -m repro.obs.report``.

Runs a small but representative CCATB workload — two OCP masters
streaming bursts through a CoreConnect PLB into a wait-stated memory —
with the full observability stack attached, then prints:

* the profiler hotspot table (per-process activations, wall time, share
  of dispatch time), and
* a metrics snapshot (bus utilization, arbiter grants/contention,
  transaction counters, latency moments).

Optionally writes the Chrome trace-event JSON (``--trace``, open in
``ui.perfetto.dev`` or ``chrome://tracing``) and the metrics snapshot
(``--metrics``).  ``--json`` switches the stdout report itself to JSON
for scripting.

This doubles as the CI bench-smoke workload: it exercises kernel hooks,
the metrics registry, the bus's transaction spans and the profiler in
one short run.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

from repro.cam.coreconnect import PlbBus
from repro.cam.memory import MemorySlave
from repro.kernel.context import SimContext
from repro.kernel.module import Module
from repro.kernel.simtime import ns, us
from repro.obs.hooks import ObserverGroup
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import SimProfiler
from repro.obs.trace_events import TraceEventCollector
from repro.ocp.types import OcpCmd, OcpRequest

#: Beats per burst in the demo workload (PLB-legal fixed burst).
BURST = 8


def _master(socket, index: int, transactions: int):
    """Request-stream generator factory for demo master ``index``."""

    def proc():
        for i in range(transactions):
            addr = (index * 0x1000) + (i % 16) * BURST * 4
            if i % 2:
                request = OcpRequest(OcpCmd.RD, addr, burst_length=BURST)
            else:
                request = OcpRequest(OcpCmd.WR, addr, data=[i] * BURST,
                                     burst_length=BURST)
            response = yield from socket.transport(request)
            assert response.ok
            yield ns(100)

    return proc


def run_demo(transactions: int = 20, trace_path: Optional[str] = None):
    """Run the instrumented two-master PLB demo; returns ``(profiler,
    registry, collector, ctx)``.

    ``transactions`` is the per-master transaction count.  When
    ``trace_path`` is None the collector still runs (it is part of what
    this demo measures) but nothing is written.
    """
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    registry = MetricsRegistry()
    plb = PlbBus("plb", top, metrics=registry)
    memory = MemorySlave("mem", top, size=1 << 16, read_wait=1,
                         write_wait=1)
    plb.attach_slave(memory, 0, 1 << 16)
    for m in range(2):
        socket = plb.master_socket(f"m{m}", priority=m)
        top.add_thread(_master(socket, m, transactions), f"gen{m}")

    profiler = SimProfiler()
    collector = TraceEventCollector()
    ctx.attach_observer(ObserverGroup(profiler, collector))
    profiler.start()
    # Generous horizon: the workload finishes long before this.
    ctx.run(us(50) * max(1, transactions))
    profiler.stop()
    if trace_path is not None:
        collector.write(trace_path)
    return profiler, registry, collector, ctx


def _text_report(profiler: SimProfiler, registry: MetricsRegistry,
                 ctx: SimContext) -> str:
    """Human-readable report: hotspot table plus metrics snapshot."""
    lines: List[str] = []
    lines.append(f"simulated {ctx.last_activity_time} "
                 f"({profiler.delta_cycles} delta cycles, "
                 f"{profiler.events_fired} event fires)")
    lines.append("")
    lines.append("process hotspots")
    lines.append(profiler.format_table())
    lines.append("")
    lines.append("metrics")
    snapshot = registry.snapshot(ctx.last_activity_time._fs)
    for name in sorted(snapshot):
        value = snapshot[name]
        if isinstance(value, dict):
            parts = ", ".join(
                f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in value.items() if k != "type"
            )
            lines.append(f"  {name}: {parts}")
        elif isinstance(value, float):
            lines.append(f"  {name}: {value:.4g}")
        else:
            lines.append(f"  {name}: {value}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    import argparse

    from repro.sweep.cli import _positive_int

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Run an instrumented PLB demo and print a "
                    "profiling/metrics report.",
    )
    parser.add_argument("--transactions", type=_positive_int, default=20,
                        help="transactions per master (default 20)")
    parser.add_argument("--trace", metavar="PATH",
                        help="write Chrome trace-event JSON here")
    parser.add_argument("--metrics", metavar="PATH",
                        help="write the metrics snapshot JSON here")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON instead of text")
    args = parser.parse_args(argv)

    profiler, registry, collector, ctx = run_demo(
        transactions=args.transactions,
        trace_path=args.trace,
    )
    if args.metrics:
        registry.write_json(args.metrics,
                            now_fs=ctx.last_activity_time._fs)
    if args.json:
        report = profiler.report()
        report["metrics"] = registry.snapshot(ctx.last_activity_time._fs)
        report["trace_events"] = len(collector)
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_text_report(profiler, registry, ctx))
        if args.trace:
            print(f"\ntrace:   {args.trace} ({len(collector)} events)")
        if args.metrics:
            print(f"metrics: {args.metrics}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
