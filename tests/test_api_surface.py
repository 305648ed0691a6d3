"""Public API surface: direct checks of small kept entry points, and
guards that every name a ``repro.*`` package exports, and every public
function or method it defines, is used by the program itself, not only
by its tests.
"""

import ast
import importlib
import pathlib
import pkgutil
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


#: Public functions and methods only tests call, each kept on purpose.
TEST_ONLY_FUNCTIONS = {
    "active_context": "the kernel-isolation tests' window (an export too)",
    "add_elaboration_hook": "kept kernel hook, pinned by TestKernelSurface",
    "clear_user_registry": "SHIP registry isolation (an export too)",
    "data_written_event": "tests wait on a FIFO's data through it",
    "endpoint_owner": "kept SHIP query, pinned by TestShipSurface",
    "failure_keys": "tests read the sweep store's quarantine records",
    "has_pending_notification": "tests observe event notification state",
    "locked": "tests observe the mutex state through it",
    "negedge": "the clock reference test samples falling edges",
    "negedge_event": "the clock reference test waits on falling edges",
    "ready_count": "kept RTOS query, pinned by TestRtosSurface",
    "response_active": "kept OCP query, pinned by TestOcpSurface",
    "sec": "kept with fs/ps/ns/us/ms (an export too)",
    "ship_ports": "kept PE query, pinned by TestShipSurface",
    "skipped_lines": "tests read the store's torn-line recovery count",
    "stddev_ns": "kept statistic, pinned by TestStatsAndFlowSurface",
    "terminated": "tests observe process termination through it",
    "trigger_count": "tests count event triggers through it",
    "triggered": "kept event query, pinned by TestKernelSurface",
    "watch_gauge": "Perfetto gauge counters, for transaction tracing",
}


class _NameUses(ast.NodeVisitor):
    """Names a module uses: variables, attributes, imported names and
    the attribute strings of ``getattr``/``hasattr``/``setattr`` (the
    kernel calls its elaboration hooks that way).  A use inside the
    ``def`` of the same name does not count."""

    def __init__(self):
        self.names = set()
        self._defs = []

    def _use(self, name):
        if name not in self._defs:
            self.names.add(name)

    def visit_FunctionDef(self, node):
        self._defs.append(node.name)
        self.generic_visit(node)
        self._defs.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._use(node.name.rsplit(".", 1)[-1])

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr", "setattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)):
            self._use(node.args[1].value)
        self.generic_visit(node)


def _program_names():
    """Every name used in src/, examples/, benchmarks/ and perfbench/.
    Package ``__init__`` files only re-export, so they do not count.
    The scan walks the syntax tree, so names inside f-strings count on
    every supported Python."""
    uses = _NameUses()
    for top in ("src", "examples", "benchmarks", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            if path.name != "__init__.py":
                uses.visit(ast.parse(path.read_text(encoding="utf-8")))
    return uses.names


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


def test_every_public_function_is_used_outside_tests():
    """A public ``def`` under src/repro that only tests call is dead
    code unless TEST_ONLY_FUNCTIONS names it with its reason."""
    used = _program_names()
    unused = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")
                    and node.name not in used):
                unused.setdefault(node.name, []).append(
                    f"{path.relative_to(ROOT)}:{node.lineno}")
    assert set(unused) == set(TEST_ONLY_FUNCTIONS), unused
