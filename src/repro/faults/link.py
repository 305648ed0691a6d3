"""SHIP link faults: message drop, payload corruption, added latency.

A :class:`LinkFaultInjector` attaches to a
:class:`~repro.ship.channel.ShipChannel` via its ``fault_injector``
attribute.  The channel consults :meth:`on_message` once per ``send``
and ``request`` message (both pass through the same transmit path); a
``reply`` is not consulted, and reaches the injector only through
:meth:`on_reply_dropped` when its requester has given up.  The
fault-free channel pays a single attribute test.

Fault semantics:

* **drop** — the sender pays the full wire latency and its accounting is
  updated, but the message never reaches the peer's queue.  A dropped
  ``request`` therefore hangs its master unless a ``with_timeout``
  deadline bounds it or a watchdog is armed — which is exactly the
  failure mode the resilience layer exists to surface.
* **corrupt** — one payload bit is flipped *after* the 6-byte frame
  header (``tag | length``), so the frame still parses.  Usually the
  receiver decodes a value — the wrong one; but a flipped bit can also
  leave a payload its type cannot decode (a ``ShipString`` that is no
  longer UTF-8), and the receiver's ``recv`` then raises
  :class:`~repro.ship.serializable.SerializationError`.  Skipped for
  zero-copy channels (there are no bytes to flip) and empty payloads.
* **delay** — adds ``extra_latency`` to the modeled transfer time.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.kernel.simtime import SimTime, ZERO_TIME
from repro.ship.serializable import FRAME_HEADER_BYTES
from repro.faults.plan import FaultPlan, FaultRule


class LinkFaultInjector:
    """Per-message fault decisions for one SHIP channel.

    Parameters
    ----------
    plan:
        The campaign's :class:`FaultPlan` (RNG + log).
    drop / corrupt / delay:
        Optional :class:`FaultRule` per fault kind; None disables it.
    extra_latency:
        Latency added when the ``delay`` rule fires.
    """

    def __init__(
        self,
        plan: FaultPlan,
        drop: Optional[FaultRule] = None,
        corrupt: Optional[FaultRule] = None,
        delay: Optional[FaultRule] = None,
        extra_latency: SimTime = ZERO_TIME,
    ):
        self.plan = plan
        self.drop = drop
        self.corrupt = corrupt
        self.delay = delay
        self.extra_latency = extra_latency
        self.messages_seen = 0

    def on_message(self, channel, end, kind: str,
                   data: Optional[bytes],
                   nbytes: int) -> Tuple[bool, Optional[bytes], int]:
        """Channel hook: decide this message's fate.

        Returns ``(deliver, data, extra_latency_fs)``.
        """
        self.messages_seen += 1
        now_fs = channel.ctx._now_fs
        rng = self.plan.rng
        extra_fs = 0
        if (self.delay is not None
                and self.delay.matches(rng)):
            extra_fs = self.extra_latency._fs
            self.plan.record(
                "link.delay", now_fs,
                f"{channel.full_name}: +{self.extra_latency} on {kind} "
                f"from end {end.value}",
            )
        if self.drop is not None and self.drop.matches(rng):
            self.plan.record(
                "link.drop", now_fs,
                f"{channel.full_name}: dropped {kind} ({nbytes}B) "
                f"from end {end.value}",
            )
            return False, data, extra_fs
        if (self.corrupt is not None
                and data is not None
                and len(data) > FRAME_HEADER_BYTES
                and self.corrupt.matches(rng)):
            index = FRAME_HEADER_BYTES + rng.randrange(
                len(data) - FRAME_HEADER_BYTES
            )
            bit = rng.randrange(8)
            corrupted = bytearray(data)
            corrupted[index] ^= 1 << bit
            data = bytes(corrupted)
            self.plan.record(
                "link.corrupt", now_fs,
                f"{channel.full_name}: flipped bit {bit} of byte {index} "
                f"in {kind} from end {end.value}",
            )
        return True, data, extra_fs

    def on_reply_dropped(self, channel, end, txn_id: int) -> None:
        """Channel hook: a reply arrived after its requester timed out."""
        self.plan.record(
            "link.reply_dropped", channel.ctx._now_fs,
            f"{channel.full_name}: late reply {txn_id} from end "
            f"{end.value} discarded (requester timed out)",
        )
