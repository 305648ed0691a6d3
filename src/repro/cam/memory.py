"""Memory slave models.

:class:`MemorySlave` is the standard bus slave: sparse word-addressed
storage with configurable wait states.  It exposes both access styles
used in the library:

* ``access(request)`` — zero-time functional access, what the CCATB bus
  models call after they have accounted for all timing themselves;
* ``transport(request)`` — blocking :class:`~repro.ocp.tl.OcpTargetIf`
  access that charges the wait states itself, for direct point-to-point
  use (pin adapters, test benches).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.kernel.object import SimObject
from repro.kernel.simtime import SimTime
from repro.ocp.tl import OcpTargetIf
from repro.ocp.types import OcpRequest, OcpResponse


class MemorySlave(SimObject, OcpTargetIf):
    """Sparse RAM with word-granular storage.

    Parameters
    ----------
    size:
        Region size in bytes; accesses outside ``[0, size)`` (after the
        bus strips the region base) return ERR.
    word_bytes:
        Word width; addresses are truncated to word alignment.
    read_wait / write_wait:
        Wait states in cycles charged by ``transport`` (and advertised to
        CCATB buses through :meth:`wait_states`).
    cycle:
        Cycle duration used by ``transport``; unused for ``access``.
    """

    def __init__(
        self,
        name,
        parent=None,
        ctx=None,
        size: int = 1 << 20,
        word_bytes: int = 4,
        read_wait: int = 1,
        write_wait: int = 1,
        cycle: Optional[SimTime] = None,
    ):
        super().__init__(name, parent, ctx)
        if size <= 0:
            raise ValueError(f"memory {name!r}: size must be positive")
        if word_bytes not in (1, 2, 4, 8):
            raise ValueError(
                f"memory {name!r}: word_bytes must be 1/2/4/8"
            )
        self.size = size
        self.word_bytes = word_bytes
        self.read_wait = read_wait
        self.write_wait = write_wait
        self.cycle = cycle
        self._words: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0
        self._word_mask = (1 << (8 * word_bytes)) - 1
        #: bit mask of the word bytes each byte-enable value enables
        self._byte_masks = [
            sum(0xFF << (8 * byte) for byte in range(word_bytes)
                if byte_en >> byte & 1)
            for byte_en in range(1 << word_bytes)
        ]

    # -- raw storage helpers -----------------------------------------------------

    def _word_index(self, addr: int) -> int:
        return addr // self.word_bytes

    def load_words(self, addr: int, values) -> None:
        """Test/bootstrap helper: poke words starting at ``addr``."""
        for i, value in enumerate(values):
            self._words[self._word_index(addr) + i] = value & self._word_mask

    def peek_word(self, addr: int) -> int:
        """Read one word without simulating an access."""
        return self._words.get(self._word_index(addr), 0)

    def wait_states(self, request: OcpRequest) -> int:
        """Wait states a CCATB bus should charge for this request."""
        return self.read_wait if request.cmd.is_read else self.write_wait

    # -- functional access (zero simulated time) -----------------------------------

    def access(self, request: OcpRequest) -> OcpResponse:
        """Zero-time functional access to a whole burst.

        ERR unless every beat's word lies in ``[0, size)``.  A write
        stores the enabled bytes of each beat's word; when beats share a
        word (STRM, or words wider than the request's) the last wins.
        """
        low, high = request.beat_bounds()
        word_bytes = self.word_bytes
        if low < 0 or high + word_bytes > self.size:
            return OcpResponse.error()
        addresses = request.beat_addresses()
        get = self._words.get
        if request.cmd.is_write:
            byte_en = request.byte_en
            enable = (self._word_mask if byte_en is None else
                      self._byte_masks[byte_en % len(self._byte_masks)])
            keep = self._word_mask ^ enable
            if keep:
                # reads every old word before the update stores any
                self._words.update({
                    address // word_bytes:
                        get(address // word_bytes, 0) & keep | value & enable
                    for address, value in zip(addresses, request.data)
                })
            else:
                self._words.update({
                    address // word_bytes: value & enable
                    for address, value in zip(addresses, request.data)
                })
            self.writes += 1
            return OcpResponse.write_ok()
        data = [get(address // word_bytes, 0) for address in addresses]
        self.reads += 1
        return OcpResponse.read_ok(data)

    # -- checkpoint/restore protocol (see repro.snapshot) -----------------------

    def __snapshot__(self) -> dict:
        return {
            "words": {str(index): value
                      for index, value in self._words.items()},
            "reads": self.reads,
            "writes": self.writes,
        }

    def __restore__(self, state: dict) -> None:
        self._words = {int(index): value
                       for index, value in state["words"].items()}
        self.reads = state["reads"]
        self.writes = state["writes"]

    # -- blocking transport ------------------------------------------------------------

    def transport(self, request: OcpRequest) -> Generator:
        waits = self.wait_states(request)
        if self.cycle is not None and waits:
            yield self.cycle * waits
        return self.access(request)
