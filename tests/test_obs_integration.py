"""Observability wired through SHIP channels, the bus CAMs and the
explore harness: attaching one collector traces every bus and SHIP
transfer of a context, with no per-component wiring."""

import collections
from unittest import mock

import repro.cam.crossbar as crossbar_module
from repro.apps.pipeline import build_cam
from repro.cam import BusCam
from repro.kernel import ns
from repro.obs import MetricsRegistry, SimProfiler, TraceEventCollector
from repro.ship import ShipChannel, ShipEnd, ShipInt


def _spans_per_track(collector):
    """Begun spans per track, a track's lanes ``<track> (n)`` merged."""
    trace = collector.to_dict()
    threads = {(e["pid"], e["tid"]): e["args"]["name"].split(" (")[0]
               for e in trace["traceEvents"]
               if e["ph"] == "M" and e["name"] == "thread_name"}
    return collections.Counter(threads[e["pid"], e["tid"]]
                               for e in trace["traceEvents"]
                               if e["ph"] == "B")


class TestShipObservability:
    def test_ship_transfers_publish_metrics_and_spans(self, ctx, top):
        """Each received message is one span; the spans agree with the
        channel's own counts."""
        collector = TraceEventCollector(process_tracks=False)
        ctx.attach_observer(collector)
        chan = ShipChannel("link", top)
        a = chan.claim_end("producer")
        b = chan.claim_end("consumer")

        def sender():
            for i in range(4):
                yield from chan.send(a, ShipInt(i))
                yield ns(10)

        def receiver():
            for _ in range(4):
                yield from chan.recv(b)

        ctx.register_thread(sender, "s")
        ctx.register_thread(receiver, "r")
        ctx.run()

        spans = [e for e in collector.to_dict()["traceEvents"]
                 if e["ph"] == "B"]
        assert len(spans) == chan.messages_sent(a) == 4
        assert sum(s["args"]["nbytes"] for s in spans) == chan.bytes_sent(a)
        assert spans[0]["args"] == {"initiator": "producer",
                                    "target": "consumer", "nbytes": 14}


class TestOneCollectorTracesEverything:
    def test_f1_cam_level_with_only_a_collector(self):
        """F1 at CAM level, 12 blocks: every PLB transaction and every
        message on the four local SHIP channels is a span, and the run
        is the unobserved run."""
        unobserved = build_cam(12)
        unobserved.ctx.run()
        system = build_cam(12)
        collector = TraceEventCollector()
        system.ctx.attach_observer(collector)
        system.ctx.run()

        assert system.outputs() == unobserved.outputs()
        assert system.ctx.last_activity_time \
            == unobserved.ctx.last_activity_time == ns(6_860)
        assert system.ctx.delta_count == unobserved.ctx.delta_count == 215
        spans = _spans_per_track(collector)
        plb = system.extras["plb"]
        assert spans[plb.full_name] == plb.stats.transactions == 96
        channels = [channel for link in system.extras["links"]
                    for channel in (link.master_attach, link.slave_attach)]
        assert len(channels) == 4
        for channel in channels:
            sent = sum(channel.messages_sent(end) for end in ShipEnd)
            assert spans[channel.full_name] == sent == 12
        assert sum(spans.values()) == 96 + 48

    def test_crossbar_point_reports_every_path(self):
        """Each crossbar path reports its own transfers: its span count
        is its BusStats count."""
        from repro.explore import ArchitectureConfig, run_point

        paths = []

        class KeptPath(BusCam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                paths.append(self)

        collector = TraceEventCollector(process_tracks=False)
        with mock.patch.object(crossbar_module, "BusCam", KeptPath):
            result = run_point(ArchitectureConfig(fabric="crossbar"),
                               TestExploreObservability._specs(),
                               observer=collector)
        assert result.all_done
        spans = _spans_per_track(collector)
        assert len(paths) == 2
        assert all(spans[path.full_name] == path.stats.transactions > 0
                   for path in paths)
        assert sum(spans.values()) == sum(m.completed
                                          for m in result.masters)


class TestExploreObservability:
    @staticmethod
    def _specs():
        from repro.explore import MasterTrafficSpec

        return [
            MasterTrafficSpec("cpu", pattern="random", base=0x0,
                              size=1 << 12, burst_length=1, gap=ns(50),
                              transactions=5, priority=0),
            MasterTrafficSpec("dma", pattern="stream", base=0x1000,
                              size=1 << 12, burst_length=8, gap=ns(80),
                              transactions=5, priority=1),
        ]

    def test_run_point_accepts_metrics_and_observer(self):
        from repro.explore import ArchitectureConfig, run_point

        registry = MetricsRegistry()
        profiler = SimProfiler()
        result = run_point(ArchitectureConfig(fabric="plb"),
                           self._specs(), metrics=registry,
                           observer=profiler)
        assert result.all_done
        grants = registry.get("bus.top.fabric.arbiter.grants")
        assert grants is not None and grants.value > 0
        util = registry.get("bus.top.fabric.utilization")
        assert 0.0 < util.value <= 1.0
        assert profiler.total_activations > 0
        assert any("fabric" in name for name in profiler.per_process)

    def test_run_point_uninstrumented_by_default(self):
        from repro.explore import ArchitectureConfig, run_point

        result = run_point(ArchitectureConfig(fabric="generic"),
                           self._specs())
        assert result.all_done
