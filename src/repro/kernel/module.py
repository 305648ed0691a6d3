"""Modules: the structural building block of a model.

A :class:`Module` groups ports, channels, child modules and processes,
mirroring ``sc_module``.  Processes are registered in ``__init__``::

    class Producer(Module):
        def __init__(self, name, parent=None, ctx=None, fifo=None):
            super().__init__(name, parent, ctx)
            self.fifo = fifo
            self.add_thread(self.run)

        def run(self):
            for i in range(10):
                yield from self.fifo.write(i)
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.kernel.object import SimObject
from repro.kernel.process import MethodProcess, ThreadProcess


class Module(SimObject):
    """A hierarchical module with processes."""

    # -- process registration ------------------------------------------------

    def add_thread(
        self,
        fn: Callable[[], Generator],
        name: Optional[str] = None,
        sensitive=(),
        dont_initialize: bool = False,
    ) -> ThreadProcess:
        """Register ``fn`` (a bound generator method) as a thread process."""
        pname = f"{self.full_name}.{name or fn.__name__}"
        return self.ctx.register_thread(
            fn, pname, sensitive=sensitive, dont_initialize=dont_initialize
        )

    def add_method(
        self,
        fn: Callable[[], None],
        name: Optional[str] = None,
        sensitive=(),
        dont_initialize: bool = False,
    ) -> MethodProcess:
        """Register ``fn`` (a bound callable) as a method process."""
        pname = f"{self.full_name}.{name or fn.__name__}"
        return self.ctx.register_method(
            fn, pname, sensitive=sensitive, dont_initialize=dont_initialize
        )
