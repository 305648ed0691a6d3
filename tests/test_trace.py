"""Unit tests for VCD tracing."""

import io

import pytest

from repro.kernel import Clock, Signal, ns
from repro.trace import VcdTracer


class TestVcdTracer:
    def _run_traced(self, ctx, top):
        stream = io.StringIO()
        tracer = VcdTracer(stream, ctx)
        sig = Signal("data", top, init=0, check_writer=False)
        flag = Signal("flag", top, init=False, check_writer=False)
        tracer.trace(sig, "data", width=8)
        tracer.trace(flag, "flag")

        def driver():
            yield ns(1)
            sig.write(0xAB)
            flag.write(True)
            yield ns(1)
            flag.write(False)

        ctx.register_thread(driver, "d")
        ctx.run()
        tracer.flush()
        return stream.getvalue()

    def test_header_declares_vars(self, ctx, top):
        text = self._run_traced(ctx, top)
        assert "$timescale 1ps $end" in text
        assert "$var wire 8" in text
        assert "$var wire 1" in text
        assert "$enddefinitions $end" in text
        assert "$dumpvars" in text

    def test_value_changes_timestamped(self, ctx, top):
        text = self._run_traced(ctx, top)
        assert "#1000" in text  # 1 ns in ps ticks
        assert "#2000" in text
        assert "b10101011" in text  # 0xAB

    def test_adding_signal_after_start_rejected(self, ctx, top):
        stream = io.StringIO()
        tracer = VcdTracer(stream, ctx)
        sig = Signal("s", top, init=0, check_writer=False)
        tracer.trace(sig, "s")

        def driver():
            yield ns(1)
            sig.write(1)

        ctx.register_thread(driver, "d")
        ctx.run()
        other = Signal("o", top, init=0, check_writer=False)
        with pytest.raises(RuntimeError):
            tracer.trace(other, "o")

    def test_clock_waveform(self, ctx, top, tmp_path):
        path = tmp_path / "wave.vcd"
        tracer = VcdTracer(str(path), ctx)
        clk = Clock("clk", top, period=ns(10))
        tracer.trace(clk, "clk")
        ctx.run(ns(35))
        tracer.close()
        text = path.read_text()
        # 0/10/20/30 rises and 5/15/25 falls -> at least 7 change lines
        change_lines = [
            line for line in text.splitlines()
            if line and line[0] in "01" and not line.startswith("0 ")
        ]
        assert len(change_lines) >= 7

    def test_duplicate_trace_is_idempotent(self, ctx, top):
        stream = io.StringIO()
        tracer = VcdTracer(stream, ctx)
        sig = Signal("s", top, init=0, check_writer=False)
        tracer.trace(sig, "s")
        tracer.trace(sig, "s")
        assert len(tracer._vars) == 1


class TestVcdValueKinds:
    def test_float_signal_dumped_as_real(self, ctx, top):
        stream = io.StringIO()
        tracer = VcdTracer(stream, ctx)
        temp = Signal("temp", top, init=0.0, check_writer=False)
        tracer.trace(temp, "temp")

        def driver():
            yield ns(1)
            temp.write(36.6)

        ctx.register_thread(driver, "d")
        ctx.run()
        tracer.flush()
        text = stream.getvalue()
        assert "$var real" in text
        assert "r36.6" in text

    def test_wide_int_signal_width_inferred(self, ctx, top):
        stream = io.StringIO()
        tracer = VcdTracer(stream, ctx)
        addr = Signal("addr", top, init=0xFFFF, check_writer=False)
        tracer.trace(addr, "addr")  # width inferred from init value

        def driver():
            yield ns(1)
            addr.write(0xABCD)

        ctx.register_thread(driver, "d")
        ctx.run()
        tracer.flush()
        assert "$var wire 16" in stream.getvalue()


class TestVcdTracerLifecycle:
    def test_context_manager_stamps_final_time(self, ctx, top):
        stream = io.StringIO()
        sig = Signal("s", top, init=0, check_writer=False)

        with VcdTracer(stream, ctx) as writer:
            writer.trace(sig, "s")

            def driver():
                yield ns(1)
                sig.write(1)

            ctx.register_thread(driver, "d")
            ctx.run(ns(50))
        # the change was dumped at #1000 (1 ns); close() stamps the run
        # end (#50000)
        text = stream.getvalue()
        assert "#1000\n" in text
        assert text.rstrip().endswith("#50000")

    def test_close_idempotent(self, ctx, top):
        stream = io.StringIO()
        tracer = VcdTracer(stream, ctx)
        sig = Signal("s", top, init=0, check_writer=False)
        tracer.trace(sig, "s")

        def driver():
            yield ns(1)
            sig.write(1)

        ctx.register_thread(driver, "d")
        ctx.run()
        tracer.close()
        size = len(stream.getvalue())
        tracer.close()
        assert len(stream.getvalue()) == size

    def test_close_on_exception_path(self, ctx, top):
        stream = io.StringIO()
        sig = Signal("s", top, init=0, check_writer=False)
        with pytest.raises(RuntimeError, match="boom"):
            with VcdTracer(stream, ctx) as tracer:
                tracer.trace(sig, "s")
                raise RuntimeError("boom")
        assert tracer._closed
