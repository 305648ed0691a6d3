"""Unit tests for the RTOS scheduler."""

import pytest

from repro.kernel import Event, SimulationError, ns, us
from repro.rtos import Rtos


@pytest.fixture
def os(ctx, top):
    return Rtos("os", top)


class TestScheduling:
    def test_priority_order_determines_first_run(self, ctx, top, os):
        order = []

        def make(tag):
            def body():
                order.append(tag)
                yield from os.execute(us(1))
            return body

        os.create_task(make("low"), "low", priority=10)
        os.create_task(make("high"), "high", priority=1)
        ctx.run()
        assert order == ["high", "low"]

    def test_execute_serializes_on_one_cpu(self, ctx, top, os):
        done = {}

        def make(tag):
            def body():
                yield from os.execute(us(1))
                done[tag] = str(ctx.now)
            return body

        os.create_task(make("a"), "a", priority=5)
        os.create_task(make("b"), "b", priority=5)
        ctx.run()
        assert done == {"a": "1 us", "b": "2 us"}

    def test_preemption_by_woken_high_priority_task(self, ctx, top, os):
        trace = []

        def low():
            trace.append(("low-start", str(ctx.now)))
            yield from os.execute(us(10))
            trace.append(("low-end", str(ctx.now)))

        def high():
            yield from os.delay(us(2))
            trace.append(("high-run", str(ctx.now)))
            yield from os.execute(us(1))

        os.create_task(low, "low", priority=10)
        os.create_task(high, "high", priority=1)
        ctx.run()
        assert trace == [
            ("low-start", "0 s"),
            ("high-run", "2 us"),
            ("low-end", "11 us"),  # 10us of work + 1us preempted
        ]
        assert os.task_by_name("low").preemptions >= 1

    def test_cpu_time_accounting(self, ctx, top, os):
        def busy():
            yield from os.execute(us(3))

        task = os.create_task(busy, "busy", priority=5)
        ctx.run()
        assert task.cpu_time == us(3)
        assert task.finished

    def test_delay_releases_cpu(self, ctx, top, os):
        trace = []

        def sleeper():
            yield from os.delay(us(5))
            trace.append(("sleeper", str(ctx.now)))

        def worker():
            yield from os.execute(us(2))
            trace.append(("worker", str(ctx.now)))

        os.create_task(sleeper, "s", priority=1)
        os.create_task(worker, "w", priority=10)
        ctx.run()
        # worker runs while the high-priority task sleeps
        assert trace == [("worker", "2 us"), ("sleeper", "5 us")]

    def test_context_switch_cost_charged(self, ctx, top):
        os = Rtos("os2", top, context_switch=ns(100))

        def make():
            def body():
                for _ in range(2):
                    yield from os.delay(us(1))
            return body

        os.create_task(make(), "a", priority=5)
        os.create_task(make(), "b", priority=5)
        ctx.run()
        assert os.context_switches >= 2

    def test_block_on_kernel_event(self, ctx, top, os):
        ev = Event(ctx, "irq")
        trace = []

        def handler():
            yield from os.block_on(ev)
            trace.append(("handled", str(ctx.now)))

        def other():
            yield from os.execute(us(3))
            trace.append(("other", str(ctx.now)))

        os.create_task(handler, "h", priority=1)
        os.create_task(other, "o", priority=10)

        def hw():
            yield us(1)
            ev.notify()

        ctx.register_thread(hw, "hw")
        ctx.run()
        assert ("handled", "1 us") in trace

    def test_rtos_call_outside_task_rejected(self, ctx, top, os):
        def naked():
            yield from os.execute(us(1))

        ctx.register_thread(naked, "naked")
        with pytest.raises(SimulationError, match="outside any task"):
            ctx.run()

    def test_all_finished_and_lookup(self, ctx, top, os):
        def quick():
            yield from os.execute(ns(10))

        os.create_task(quick, "q", priority=3)
        assert os.task_by_name("q") is not None
        assert os.task_by_name("none") is None
        ctx.run()
        assert os.all_finished()
