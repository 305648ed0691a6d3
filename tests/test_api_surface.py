"""Public API surface: direct checks of small kept entry points, and a
guard that every name a ``repro.*`` package exports is used by the
program itself, not only by its tests.
"""

import importlib
import pathlib
import pkgutil
import tokenize
from types import SimpleNamespace

import pytest

import repro
from repro.kernel import (
    Event,
    Fifo,
    Module,
    SimContext,
    ns,
    us,
)


class TestKernelSurface:
    def test_add_elaboration_hook_runs_once(self, ctx, top):
        calls = []
        ctx.add_elaboration_hook(lambda: calls.append("hook"))
        ctx.run(ns(1))
        ctx.run(ns(1))  # elaboration happens only once
        assert calls == ["hook"]

    def test_event_triggered_property(self, ctx, top):
        ev = Event(ctx, "ev")
        snap = []

        def waiter():
            yield ev
            snap.append(ev.triggered)   # true in the wake delta
            yield ns(5)
            snap.append(ev.triggered)   # stale in a later delta

        def kicker():
            yield ns(5)
            ev.notify()

        ctx.register_thread(waiter, "w")
        ctx.register_thread(kicker, "k")
        ctx.run()
        assert snap == [True, False]


class TestRtosSurface:
    def test_ready_count(self, ctx, top):
        from repro.rtos import Rtos

        os = Rtos("os", top)
        seen = []

        def watcher():
            seen.append(os.ready_count)
            yield from os.execute(us(1))

        def sleeper():
            yield from os.execute(us(1))

        os.create_task(watcher, "w", priority=1)
        os.create_task(sleeper, "s", priority=2)
        ctx.run()
        # when the high-priority watcher sampled, the sleeper was ready
        assert seen == [1]


class TestShipSurface:
    def test_endpoint_owner_names(self, ctx, top):
        from repro.ship import ShipChannel, ShipEnd

        chan = ShipChannel("c", top)
        chan.claim_end("alpha")
        assert chan.endpoint_owner(ShipEnd.A) == "alpha"
        assert chan.endpoint_owner(ShipEnd.B) is None

    def test_ship_ports_listing(self, ctx, top):
        from repro.models import ProcessingElement
        from repro.ship import ShipChannel, ShipMasterPort

        chan = ShipChannel("c", top)

        class PE(ProcessingElement):
            def __init__(self, name, parent):
                super().__init__(name, parent)
                self.p = self.ship_port("p", ShipMasterPort)
                self.p.bind(chan)
                self.add_thread(self.run)

            def run(self):
                """No traffic needed for this structural test."""
                yield ns(1)

        pe = PE("pe", top)
        assert pe.ship_ports == [pe.p]


class TestOcpSurface:
    def test_pin_bundle_response_active(self, ctx, top):
        from repro.kernel import Clock
        from repro.ocp import OcpPinBundle, OcpResp

        clk = Clock("clk", top, period=ns(10))
        bundle = OcpPinBundle("ocp", top, clock=clk)
        states = []

        def driver():
            states.append(bundle.response_active)
            bundle.s_resp.write(OcpResp.DVA.value)
            yield ns(1)
            states.append(bundle.response_active)
            bundle.idle_response()
            yield ns(1)
            states.append(bundle.response_active)
            ctx.stop()

        ctx.register_thread(driver, "d")
        ctx.run(us(1))
        assert states == [False, True, False]


class TestStatsAndFlowSurface:
    def test_time_stats_stddev(self):
        from repro.trace import TimeStats

        stats = TimeStats()
        for v in (10, 20, 30):
            stats.add(ns(v))
        assert stats.stddev_ns == pytest.approx(8.165, abs=0.01)

    def test_stage_result_sim_ns(self):
        from repro.flow import DesignFlow
        from repro.models import AbstractionLevel

        flow = DesignFlow("f")

        def builder():
            ctx = SimContext()

            def body():
                yield ns(25)

            ctx.register_thread(body, "t")
            return SimpleNamespace(ctx=ctx, outputs=list)

        flow.register(AbstractionLevel.CCATB, builder)
        result = flow.run_stage(AbstractionLevel.CCATB)
        assert result.sim_ns == 25.0


ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Exported names only tests use, each kept on purpose.
TEST_ONLY_EXPORTS = {
    # the kernel-isolation tests' window on the running-context global
    "active_context",
    # SHIP registry isolation for tests that register types
    "clear_user_registry",
    # kept with fs/ps/ns/us/ms: the unit constructors are one family
    "sec",
}


def _program_names():
    """Every name token in src/, examples/, benchmarks/ and perfbench/,
    except the name a ``def`` or ``class`` line introduces.  Package
    ``__init__`` files only re-export, so they do not count."""
    names = set()
    for top in ("src", "examples", "benchmarks", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            previous = None
            with path.open("rb") as fh:
                for tok in tokenize.tokenize(fh.readline):
                    if (tok.type == tokenize.NAME
                            and previous not in ("def", "class")):
                        names.add(tok.string)
                    previous = tok.string
    return names


def test_every_export_is_used_outside_tests():
    used = _program_names()
    unused = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            package = importlib.import_module(info.name)
            unused.update(f"{info.name}.{name}" for name in package.__all__
                          if name not in used)
    assert {name.rsplit(".", 1)[1] for name in unused} == TEST_ONLY_EXPORTS, \
        sorted(unused)
