"""The SHIP channel.

SHIP (SystemC High-level Interface Protocol) models *directed
point-to-point connections between two communication entities*.  The
channel offers the four blocking interface method calls from the paper —
``send``, ``recv``, ``request`` and ``reply`` — as generator methods
(``yield from``) and transports any registered SHIP-serializable object.

Key properties reproduced from the paper:

* **Serialization**: by default every transferred object is run through
  ``serialize``/``deserialize`` (the channel really moves byte streams,
  which is what later lets the same channel span the HW/SW boundary).
  ``zero_copy=True`` passes references instead — the PV-speed ablation
  of experiment E7.
* **Master/slave tracking**: each endpoint records which interface
  methods it used, feeding automatic role detection (experiment E4).
* **Abstraction-level timing**: the untimed channel is the
  component-assembly model's communication primitive; attaching a
  :class:`ShipTiming` gives the CCATB view (a latency per transaction
  boundary) without touching PE code.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Dict, Generator, Optional, Set

from repro.kernel.errors import SimulationError
from repro.kernel.event import Event
from repro.kernel.object import SimObject
from repro.kernel.simtime import SimTime, ZERO_TIME
from repro.ship.roles import Role, classify, roles_consistent
from repro.ship.serializable import (
    FRAME_HEADER_BYTES,
    ShipSerializable,
    decode_message,
    encode_message,
)


class ShipEnd(enum.Enum):
    """The two endpoints of a point-to-point SHIP channel."""

    A = "a"
    B = "b"

    # Members are singletons, so identity hashing agrees with equality;
    # it spares each channel call Enum's Python-level ``__hash__``.
    __hash__ = object.__hash__


@dataclass
class ShipTiming:
    """Transaction-boundary timing annotation for a SHIP channel.

    ``transfer_time(nbytes) = base_latency + nbytes * per_byte``.  With
    the default (all zero) the channel is untimed, i.e. the
    component-assembly model.
    """

    base_latency: SimTime = ZERO_TIME
    per_byte: SimTime = ZERO_TIME

    def transfer_time_fs(self, nbytes: int) -> int:
        """Transfer duration as integer femtoseconds (hot-path form:
        the untimed common case costs two int reads and no allocation)."""
        return self.base_latency._fs + self.per_byte._fs * nbytes


class _Message:
    __slots__ = ("kind", "data", "obj", "txn_id", "nbytes", "sent_at_fs")

    def __init__(self, kind, data, obj, txn_id, nbytes, sent_at_fs):
        self.kind = kind        # "send" or "request"
        self.data = data        # framed bytes (None when zero_copy)
        self.obj = obj          # original object (zero_copy) or None
        self.txn_id = txn_id    # for requests
        self.nbytes = nbytes
        self.sent_at_fs = sent_at_fs  # integer femtoseconds


class _Endpoint:
    """Everything one channel end owns, reached in one lookup."""

    __slots__ = ("end", "owner_name", "calls_used", "bytes_sent",
                 "messages_sent", "queue", "data_event", "space_event",
                 "unanswered", "peer")

    def __init__(self, end: ShipEnd, channel: "ShipChannel"):
        self.end = end
        #: set when an owner claims the end
        self.owner_name: Optional[str] = None
        self.calls_used: Set[str] = set()
        self.bytes_sent = 0
        self.messages_sent = 0
        #: messages sent from this end, not yet received by the peer
        self.queue: deque = deque()
        prefix, suffix = channel.full_name, end.value
        #: notified when a message reaches this end
        self.data_event = Event(channel, f"{prefix}.data_{suffix}")
        #: notified when a slot frees in this end's queue
        self.space_event = Event(channel, f"{prefix}.space_{suffix}")
        #: requests received at this end and not yet replied to (FIFO)
        self.unanswered: deque = deque()
        #: the other end's record
        self.peer: Optional["_Endpoint"] = None


class ShipInterface:
    """What a :class:`~repro.ship.ports.ShipPort` binds (the
    ``sc_interface`` idiom).

    An implementation hands each port an end with ``claim_end(owner)``
    and takes that end first in the four SHIP calls — ``send(end, obj)``,
    ``recv(end)``, ``request(end, obj)``, ``reply(end, obj)`` — and in
    ``pending_requests(end)`` and ``detected_role(end)``.  The
    implementations are :class:`ShipChannel` and the SW end of a mapped
    HW/SW link (:class:`~repro.hwsw.commlib.SwShipEnd`).
    """


class ShipChannel(SimObject, ShipInterface):
    """A directed point-to-point SHIP message-passing channel.

    Parameters
    ----------
    capacity:
        Maximum queued messages per direction before ``send`` blocks.
    zero_copy:
        Pass object references instead of serialized byte streams.
    timing:
        Optional :class:`ShipTiming` annotation (CCATB refinement).

    Each delivered message and reply is reported to the context's
    observer (``on_transaction``): a message when it is received, a
    reply when it reaches its requester.
    """

    def __init__(
        self,
        name,
        parent=None,
        ctx=None,
        capacity: int = 8,
        zero_copy: bool = False,
        timing: Optional[ShipTiming] = None,
    ):
        super().__init__(name, parent, ctx)
        if capacity < 1:
            raise SimulationError(
                f"ship channel {name!r}: capacity must be >= 1"
            )
        self.capacity = capacity
        self.zero_copy = zero_copy
        self.timing = timing or ShipTiming()
        a = _Endpoint(ShipEnd.A, self)
        b = _Endpoint(ShipEnd.B, self)
        a.peer, b.peer = b, a
        #: each end's record; the per-message calls resolve it once
        self._ends: Dict[ShipEnd, _Endpoint] = {ShipEnd.A: a, ShipEnd.B: b}
        #: txn_id -> [reply payload or None, Event]
        self._pending_replies: Dict[int, list] = {}
        self._txn_ids = itertools.count(1)
        #: Optional link fault injector (``repro.faults.LinkFaultInjector``
        #: duck type): consulted once per ``send`` or ``request`` message,
        #: and told of each dropped reply.  None keeps the channel on the
        #: fault-free path (a single attribute test).
        self.fault_injector = None
        #: Replies that arrived after their requester abandoned the
        #: transaction; they are dropped, not delivered.
        self.replies_dropped = 0

    # -- endpoint management ---------------------------------------------------

    def claim_end(self, owner) -> ShipEnd:
        """Assign a free endpoint to ``owner`` (a port or module)."""
        for ep in self._ends.values():
            if ep.owner_name is None:
                ep.owner_name = getattr(owner, "full_name", str(owner))
                return ep.end
        raise SimulationError(
            f"ship channel {self.full_name} already has two endpoints "
            f"(point-to-point only)"
        )

    def endpoint_owner(self, end: ShipEnd) -> Optional[str]:
        """Name of the object that claimed this end."""
        return self._ends[end].owner_name

    # -- the four SHIP interface method calls -----------------------------------

    def send(self, end: ShipEnd, obj: ShipSerializable) -> Generator:
        """Blocking one-way transfer toward the other endpoint.

        A call closed while it waits for wire time or queue space (a
        :func:`~repro.kernel.sync.with_timeout` deadline closes it)
        enqueues nothing and counts no bytes.
        """
        return self._transmit(end, obj, "send", None)

    def recv(self, end: ShipEnd) -> Generator:
        """Blocking receive; returns the next message from the peer.

        If the message was sent with ``request``, this endpoint owes a
        ``reply`` (FIFO order).
        """
        ep = self._ends[end]
        ep.calls_used.add("recv")
        source = ep.peer
        queue = source.queue
        while not queue:
            yield ep.data_event
        msg = queue.popleft()
        source.space_event.notify()
        obj = msg.obj
        if obj is None:
            obj, _ = decode_message(msg.data)
        if msg.kind == "request":
            ep.unanswered.append(msg.txn_id)
        obs = self.ctx._obs
        if obs is not None:
            obs.on_transaction(self.full_name, msg.kind,
                               source.owner_name or source.end.value,
                               ep.owner_name or end.value, msg.sent_at_fs,
                               self.ctx._now_fs, msg.nbytes, None)
        return obj

    def request(self, end: ShipEnd, obj: ShipSerializable) -> Generator:
        """Blocking round trip: transfer ``obj``, wait for the reply.

        A call closed before its reply arrives (a
        :func:`~repro.kernel.sync.with_timeout` deadline closes it)
        gives up its reply slot: the late reply is dropped and counted
        in :attr:`replies_dropped` instead of delivered.
        """
        txn_id = next(self._txn_ids)
        done = Event(self, f"{self.full_name}.reply_{txn_id}")
        slot = [None, done]
        self._pending_replies[txn_id] = slot
        try:
            yield from self._transmit(end, obj, "request", txn_id)
            while txn_id in self._pending_replies:
                yield done
        finally:
            # A delivered reply already took the slot; anything else
            # leaves this call abandoned.
            self._pending_replies.pop(txn_id, None)
        return slot[0]

    def reply(self, end: ShipEnd, obj: ShipSerializable) -> Generator:
        """Answer the oldest unanswered ``request`` received at this end.

        A call closed during its transfer delivers nothing and the
        request stays owed, at the head of the queue.  If the requester
        already abandoned the transaction the reply is silently dropped
        and counted in :attr:`replies_dropped`.
        """
        ep = self._ends[end]
        ep.calls_used.add("reply")
        unanswered = ep.unanswered
        if not unanswered:
            raise SimulationError(
                f"ship channel {self.full_name}: reply() with no "
                f"outstanding request at end {end.value}"
            )
        txn_id = unanswered.popleft()
        data, nbytes = self._frame(obj)
        delay_fs = self.timing.transfer_time_fs(nbytes)
        if delay_fs:
            try:
                yield SimTime._from_fs(delay_fs)
            except GeneratorExit:
                unanswered.appendleft(txn_id)
                raise
        slot = self._pending_replies.pop(txn_id, None)
        ep.bytes_sent += nbytes
        ep.messages_sent += 1
        if slot is None:
            self.replies_dropped += 1
            inj = self.fault_injector
            if inj is not None:
                inj.on_reply_dropped(self, end, txn_id)
            return
        if data is not None:
            obj, _ = decode_message(data)
        slot[0] = obj
        slot[1].notify()
        obs = self.ctx._obs
        if obs is not None:
            # the reply's one wait is its transfer, so it was called
            # delay_fs before it is delivered
            now_fs = self.ctx._now_fs
            requester = ep.peer
            obs.on_transaction(self.full_name, "reply",
                               ep.owner_name or end.value,
                               requester.owner_name or requester.end.value,
                               now_fs - delay_fs, now_fs, nbytes, None)

    # -- internals ---------------------------------------------------------------

    def _frame(self, obj: ShipSerializable) -> tuple:
        """``(frame, wire bytes)`` of one transfer of ``obj``.

        Zero-copy mode builds no frame (``None``) but charges the same
        ``tag | length | payload`` size, so the flag moves host time
        only, never simulated time or byte counts.
        """
        if self.zero_copy:
            serialize = getattr(obj, "serialize", None)
            if serialize is None:
                return None, 0
            return None, FRAME_HEADER_BYTES + len(serialize())
        data = encode_message(obj)
        return data, len(data)

    def _transmit(self, end, obj, kind, txn_id) -> Generator:
        ep = self._ends[end]
        ep.calls_used.add(kind)
        # a reported transfer begins when the call does: its latency
        # includes the wire time and any wait for queue space
        sent_at_fs = self.ctx._now_fs
        data, nbytes = self._frame(obj)
        delay_fs = self.timing.transfer_time_fs(nbytes)
        deliver = True
        inj = self.fault_injector
        if inj is not None:
            deliver, data, extra_fs = inj.on_message(
                self, end, kind, data, nbytes
            )
            delay_fs += extra_fs
        if delay_fs:
            yield SimTime._from_fs(delay_fs)
        if not deliver:
            # Lost on the wire: the sender pays the latency and its
            # accounting is updated, but nothing reaches the peer.
            ep.bytes_sent += nbytes
            ep.messages_sent += 1
            return
        queue = ep.queue
        while len(queue) >= self.capacity:
            yield ep.space_event
        queue.append(_Message(kind, data, obj if self.zero_copy else None,
                              txn_id, nbytes, sent_at_fs))
        ep.bytes_sent += nbytes
        ep.messages_sent += 1
        ep.peer.data_event.notify()

    # -- checkpoint/restore protocol (see repro.snapshot) --------------------

    def __snapshot_events__(self):
        a, b = self._ends[ShipEnd.A], self._ends[ShipEnd.B]
        return a.data_event, b.data_event, a.space_event, b.space_event

    def __snapshot__(self) -> dict:
        from repro.snapshot.state import SnapshotError, peek_counter

        if self._pending_replies:
            raise SnapshotError(
                f"ship channel {self.full_name}: "
                f"{len(self._pending_replies)} request(s) awaiting replies "
                "— not a checkpointable instant"
            )
        queues = {}
        for end, ep in self._ends.items():
            records = []
            for msg in ep.queue:
                if msg.obj is not None:
                    raise SnapshotError(
                        f"ship channel {self.full_name}: zero-copy message "
                        "in flight cannot be serialized"
                    )
                records.append({
                    "kind": msg.kind,
                    "data": msg.data.hex(),
                    "txn_id": msg.txn_id,
                    "nbytes": msg.nbytes,
                    "sent_at_fs": msg.sent_at_fs,
                })
            queues[end.value] = records
        return {
            "queues": queues,
            "endpoints": {
                end.value: {
                    "calls_used": sorted(ep.calls_used),
                    "bytes_sent": ep.bytes_sent,
                    "messages_sent": ep.messages_sent,
                }
                for end, ep in self._ends.items()
            },
            "unanswered": {
                end.value: list(ep.unanswered)
                for end, ep in self._ends.items()
            },
            "next_txn_id": peek_counter(self, "_txn_ids"),
            "replies_dropped": self.replies_dropped,
        }

    def __restore__(self, state: dict) -> None:
        for end, ep in self._ends.items():
            ep.queue.clear()
            for record in state["queues"][end.value]:
                ep.queue.append(_Message(
                    record["kind"],
                    bytes.fromhex(record["data"]),
                    None,
                    record["txn_id"],
                    record["nbytes"],
                    record["sent_at_fs"],
                ))
            payload = state["endpoints"][end.value]
            ep.calls_used = set(payload["calls_used"])
            ep.bytes_sent = payload["bytes_sent"]
            ep.messages_sent = payload["messages_sent"]
            ep.unanswered.clear()
            ep.unanswered.extend(state["unanswered"][end.value])
        self._txn_ids = itertools.count(state["next_txn_id"])
        self.replies_dropped = state["replies_dropped"]

    # -- role detection ------------------------------------------------------------

    def detected_role(self, end: ShipEnd) -> Role:
        """Role of one endpoint from its observed interface calls."""
        return classify(self._ends[end].calls_used)

    def detected_roles(self) -> Dict[ShipEnd, Role]:
        """Role per endpoint from observed calls."""
        return {end: self.detected_role(end) for end in ShipEnd}

    def roles_consistent(self) -> bool:
        """True when endpoint roles can coexist."""
        return roles_consistent(
            self.detected_role(ShipEnd.A), self.detected_role(ShipEnd.B)
        )

    # -- statistics ------------------------------------------------------------------

    def bytes_sent(self, end: ShipEnd) -> int:
        """Bytes transmitted from this endpoint."""
        return self._ends[end].bytes_sent

    def messages_sent(self, end: ShipEnd) -> int:
        """Messages transmitted from this endpoint."""
        return self._ends[end].messages_sent

    def pending_requests(self, end: ShipEnd) -> int:
        """Requests received at ``end`` and not yet replied to."""
        return len(self._ends[end].unanswered)
