"""OCP (Open Core Protocol) transaction types.

The paper uses OCP below the CCATB level as the *openly-licensed*
socket between processing elements and the communication architecture.
This module defines the protocol vocabulary shared by the TL (transaction
level) channels, the pin-level bundle, and the bus CAM attachment points:
commands, responses, and the request/response payloads with burst
support.

Only the OCP subset the methodology needs is modeled: basic read/write,
incrementing bursts, byte enables, and the DVA/ERR response codes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


class OcpCmd(enum.Enum):
    """OCP master command (MCmd).

    ``is_read`` / ``is_write`` are plain per-member attributes (filled in
    right after the class body): command classification happens per beat
    on the pin-accurate hot path, so it must not cost a property call.
    """

    IDLE = 0
    WR = 1    # write
    RD = 2    # read
    RDEX = 3  # exclusive read (used by locking protocols)
    WRNP = 5  # non-posted write (response required)

    is_read: bool
    is_write: bool


for _cmd in OcpCmd:
    _cmd.is_read = _cmd in (OcpCmd.RD, OcpCmd.RDEX)
    _cmd.is_write = _cmd in (OcpCmd.WR, OcpCmd.WRNP)


class OcpResp(enum.Enum):
    """OCP slave response (SResp)."""

    NULL = 0  # no response
    DVA = 1   # data valid / accept
    FAIL = 2  # request failed (exclusive access lost)
    ERR = 3   # error


class BurstSeq(enum.Enum):
    """OCP burst address sequence (MBurstSeq subset)."""

    INCR = 0   # incrementing
    STRM = 1   # streaming (same address)
    WRAP = 2   # wrapping


# Hot-path bindings: enum member access goes through the metaclass on
# every lookup, so the members the per-transaction helpers test are
# bound to module globals once.
_IDLE = OcpCmd.IDLE
_INCR = BurstSeq.INCR
_STRM = BurstSeq.STRM
_WRAP = BurstSeq.WRAP
_DVA = OcpResp.DVA
_ERR = OcpResp.ERR


@dataclass
class OcpRequest:
    """One OCP transaction request (a full burst).

    ``data`` carries one integer word per beat for writes; reads leave it
    empty.  ``addr`` is the byte address of the first beat.
    """

    cmd: OcpCmd
    addr: int
    data: List[int] = field(default_factory=list)
    burst_length: int = 1
    burst_seq: BurstSeq = BurstSeq.INCR
    byte_en: Optional[int] = None     # bitmask over bytes of a word
    master_id: Optional[str] = None   # annotated by bus attachment points
    #: word size in bytes; fixed per socket in real OCP, carried here so
    #: monitors can compute byte counts without socket context
    word_bytes: int = 4

    def __post_init__(self):
        if self.cmd is _IDLE:
            raise ValueError("cannot build an OCP request with MCmd=IDLE")
        if self.burst_length < 1:
            raise ValueError(
                f"burst_length must be >= 1, got {self.burst_length}"
            )
        if self.addr < 0:
            raise ValueError(f"negative address {self.addr:#x}")
        if self.cmd.is_write and len(self.data) != self.burst_length:
            raise ValueError(
                f"write burst of length {self.burst_length} carries "
                f"{len(self.data)} data beats"
            )

    @property
    def nbytes(self) -> int:
        """Total bytes this burst moves."""
        return self.burst_length * self.word_bytes

    def beat_addresses(self) -> Sequence[int]:
        """Byte address of every beat, in burst order.

        INCR steps one word per beat and STRM repeats ``addr``.  WRAP
        walks the burst-sized aligned window that holds ``addr``: from
        ``addr`` to the window's end, then on from its start.
        """
        addr = self.addr
        step = self.word_bytes
        seq = self.burst_seq
        if seq is _INCR:
            return range(addr, addr + self.burst_length * step, step)
        if seq is _STRM:
            return (addr,) * self.burst_length
        window = self.burst_length * step
        end = addr - addr % window + window
        return (*range(addr, end, step),
                *range(end - window + addr % step, addr, step))

    def beat_address(self, beat: int) -> int:
        """Byte address of the given beat per the burst sequence."""
        if not 0 <= beat < self.burst_length:
            raise ValueError(
                f"beat {beat} outside burst of {self.burst_length}"
            )
        return self.beat_addresses()[beat]

    def beat_bounds(self) -> Tuple[int, int]:
        """Lowest and highest address of :meth:`beat_addresses`.

        In closed form, so a decoder or slave bounds a burst without
        building its sequence.  The footprint runs from the first to one
        word past the second: ``burst_length`` words for INCR, the
        aligned window for WRAP, one word for STRM.
        """
        addr = self.addr
        seq = self.burst_seq
        if seq is _STRM:
            return addr, addr
        last = (self.burst_length - 1) * self.word_bytes
        if seq is _WRAP:
            # the window's start plus the offset every beat shares
            addr -= addr % (last + self.word_bytes) - addr % self.word_bytes
        return addr, addr + last

    def rebased(self, addr: int) -> "OcpRequest":
        """A shallow copy of this request at ``addr``.

        For decoders that strip a region base: skips ``__post_init__``,
        since every other field was checked when the request was built
        and a decoded address is never below its region's base.
        """
        request = object.__new__(self.__class__)
        request.__dict__ = {**self.__dict__, "addr": addr}
        return request

    def __repr__(self) -> str:
        return (
            f"OcpRequest({self.cmd.name} @ {self.addr:#x} x"
            f"{self.burst_length})"
        )


@dataclass
class OcpResponse:
    """One OCP transaction response (a full burst).

    ``data`` carries one word per beat for reads; writes return an empty
    list and just the response code.
    """

    resp: OcpResp
    data: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True for a DVA response."""
        return self.resp is _DVA

    @classmethod
    def error(cls) -> "OcpResponse":
        """An ERR response."""
        return cls(_ERR)

    @classmethod
    def write_ok(cls) -> "OcpResponse":
        """A successful write response."""
        return cls(_DVA)

    @classmethod
    def read_ok(cls, data: List[int]) -> "OcpResponse":
        """A successful read response carrying ``data``."""
        return cls(_DVA, list(data))

    def __repr__(self) -> str:
        return f"OcpResponse({self.resp.name}, beats={len(self.data)})"
