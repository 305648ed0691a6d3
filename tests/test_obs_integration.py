"""Observability wired through SHIP channels and the explore harness."""

from repro.kernel import ns
from repro.obs import MetricsRegistry, SimProfiler, TraceEventCollector
from repro.ship import ShipChannel, ShipInt
from repro.trace import TransactionRecorder


class TestShipObservability:
    def test_ship_transfers_publish_metrics_and_spans(self, ctx, top):
        registry = MetricsRegistry()
        recorder = TransactionRecorder(keep_records=False,
                                       metrics=registry)
        collector = TraceEventCollector(process_tracks=False)
        collector.attach_recorder(recorder)
        chan = ShipChannel("link", top, recorder=recorder)
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

        assert registry.get("trace.transactions").value == 4
        assert registry.get("trace.latency_ns").count == 4
        assert recorder.count == 4
        spans = [e for e in collector.to_dict()["traceEvents"]
                 if e["ph"] == "B"]
        assert len(spans) == 4
        assert spans[0]["args"]["initiator"] == "producer"


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
