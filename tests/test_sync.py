"""Unit tests for the mutex primitive."""

import pytest

from repro.kernel import Mutex, SimulationError, ns


class TestMutex:
    def test_lock_serializes_critical_sections(self, ctx, top):
        mtx = Mutex("m", top)
        trace = []

        def worker(tag, hold):
            def body():
                yield from mtx.lock()
                trace.append((tag, "in", str(ctx.now)))
                yield hold
                trace.append((tag, "out", str(ctx.now)))
                mtx.unlock()
            return body

        ctx.register_thread(worker("a", ns(10)), "a")
        ctx.register_thread(worker("b", ns(5)), "b")
        ctx.run()
        assert trace == [
            ("a", "in", "0 s"),
            ("a", "out", "10 ns"),
            ("b", "in", "10 ns"),
            ("b", "out", "15 ns"),
        ]

    def test_try_lock(self, ctx, top):
        mtx = Mutex("m", top)
        results = []

        def body():
            results.append(mtx.try_lock())
            results.append(mtx.try_lock())  # second attempt fails
            mtx.unlock()
            results.append(mtx.try_lock())
            mtx.unlock()
            if False:
                yield

        ctx.register_thread(body, "t")
        ctx.run()
        assert results == [True, False, True]

    def test_unlock_unlocked_rejected(self, ctx, top):
        mtx = Mutex("m", top)
        with pytest.raises(SimulationError):
            mtx.unlock()

    def test_unlock_by_non_owner_rejected(self, ctx, top):
        mtx = Mutex("m", top)

        def owner():
            yield from mtx.lock()
            yield ns(10)
            mtx.unlock()

        def intruder():
            yield ns(5)
            mtx.unlock()

        ctx.register_thread(owner, "o")
        ctx.register_thread(intruder, "i")
        with pytest.raises(SimulationError, match="non-owner"):
            ctx.run()

    def test_locked_property(self, ctx, top):
        mtx = Mutex("m", top)
        assert not mtx.locked

        def body():
            yield from mtx.lock()
            assert mtx.locked
            mtx.unlock()

        ctx.register_thread(body, "t")
        ctx.run()
        assert not mtx.locked
