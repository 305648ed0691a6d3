"""VCD (Value Change Dump) waveform tracing for signals.

Produces IEEE 1364 VCD files viewable in GTKWave.  Signals are traced by
subscribing to their change observers, so tracing adds zero overhead to
untraced signals.  Boolean signals dump as 1-bit wires, integers as
vectors of a declared width, everything else as real/string values.

Example::

    tracer = VcdTracer("wave.vcd", ctx)
    tracer.trace(clk, "clk")
    tracer.trace(addr_sig, "addr", width=32)
    ctx.run(us(10))
    tracer.close()
"""

from __future__ import annotations

from typing import Dict, Optional, TextIO, Union

from repro.kernel.context import SimContext
from repro.kernel.signal import Signal

#: Printable identifier characters per the VCD grammar.
_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _make_identifier(index: int) -> str:
    """Compact VCD identifier for the index-th traced signal."""
    chars = []
    index += 1
    while index > 0:
        index, rem = divmod(index - 1, len(_ID_CHARS))
        chars.append(_ID_CHARS[rem])
    return "".join(reversed(chars))


class _TracedVar:
    __slots__ = ("signal", "identifier", "width", "kind", "label")

    def __init__(
        self,
        signal: Signal,
        identifier: str,
        width: int,
        kind: str,
        label: str,
    ):
        self.signal = signal
        self.identifier = identifier
        self.width = width
        self.kind = kind  # "wire" (bit/vector) or "real"
        self.label = label


#: Femtoseconds per VCD tick: the header declares ``$timescale 1ps``.
_FS_PER_TICK = 1000


class VcdTracer:
    """Writes signal changes, in picoseconds, to a VCD file (or any
    text stream)."""

    def __init__(self, target: Union[str, TextIO], ctx: SimContext):
        if isinstance(target, str):
            self._stream: TextIO = open(target, "w", encoding="ascii")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self.ctx = ctx
        self._vars: Dict[int, _TracedVar] = {}
        self._header_written = False
        self._closed = False
        self._last_dump_fs: Optional[int] = None

    # -- registration ----------------------------------------------------------

    def trace(
        self,
        signal: Signal,
        name: Optional[str] = None,
        width: int = 1,
    ) -> None:
        """Start tracing ``signal``; must be called before the header is
        emitted (i.e. before the first value change is recorded)."""
        if self._header_written:
            raise RuntimeError("cannot add signals after tracing started")
        if id(signal) in self._vars:
            return
        value = signal.read()
        if isinstance(value, bool) or (isinstance(value, int) and width == 1
                                       and value in (0, 1)):
            kind = "wire"
        elif isinstance(value, int):
            kind = "wire"
            width = max(width, value.bit_length(), 1)
        elif isinstance(value, float):
            kind = "real"
        else:
            kind = "real"  # dumped via repr as $dumpvars strings are rare
        identifier = _make_identifier(len(self._vars))
        label = name or signal.full_name.replace(".", "_")
        var = _TracedVar(signal, identifier, width, kind, label)
        self._vars[id(signal)] = var
        signal.on_change(self._on_change)

    # -- dumping ---------------------------------------------------------------

    def _write_header(self) -> None:
        out = self._stream
        out.write("$date\n    (repro simulation)\n$end\n")
        out.write("$version\n    repro VcdTracer\n$end\n")
        out.write("$timescale 1ps $end\n")
        out.write("$scope module top $end\n")
        for var in self._vars.values():
            vcd_type = "real" if var.kind == "real" else "wire"
            width = 64 if var.kind == "real" else var.width
            out.write(
                f"$var {vcd_type} {width} {var.identifier} "
                f"{var.label} $end\n"
            )
        out.write("$upscope $end\n$enddefinitions $end\n")
        out.write("$dumpvars\n")
        for var in self._vars.values():
            self._dump_value(var, var.signal.read())
        out.write("$end\n")
        self._header_written = True
        # Sentinel: the first recorded change always gets a timestamp,
        # even when it happens at the same instant the header is written.
        self._last_dump_fs = -1

    def _on_change(self, signal: Signal, old, new) -> None:
        if not self._header_written:
            self._write_header()
        now_fs = self.ctx.now.femtoseconds
        if now_fs != self._last_dump_fs:
            self._stream.write(f"#{now_fs // _FS_PER_TICK}\n")
            self._last_dump_fs = now_fs
        self._dump_value(self._vars[id(signal)], new)

    def _dump_value(self, var: _TracedVar, value) -> None:
        out = self._stream
        if var.kind == "real":
            try:
                out.write(f"r{float(value):.16g} {var.identifier}\n")
            except (TypeError, ValueError):
                out.write(f"r0 {var.identifier}\n")
            return
        if var.width == 1:
            bit = "1" if value else "0"
            out.write(f"{bit}{var.identifier}\n")
        else:
            intval = int(value) & ((1 << var.width) - 1)
            out.write(f"b{intval:b} {var.identifier}\n")

    def flush(self) -> None:
        """Write the header if needed and flush the stream."""
        if not self._header_written and self._vars:
            self._write_header()
        self._stream.flush()

    def close(self) -> None:
        """Finalize and close (if this tracer opened the file).

        Stamps a final timestamp at the current simulation time so the
        waveform visibly spans to the end of the run, then flushes;
        guaranteed to run exactly once (idempotent), including via the
        context-manager exit on an exception path.
        """
        if self._closed:
            return
        self._closed = True
        if self._header_written:
            now_fs = self.ctx.now.femtoseconds
            if self._last_dump_fs is not None and now_fs > self._last_dump_fs:
                self._stream.write(f"#{now_fs // _FS_PER_TICK}\n")
                self._last_dump_fs = now_fs
        self.flush()
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "VcdTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
