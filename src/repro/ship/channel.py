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
from repro.trace.transaction import TransactionRecorder


class ShipEnd(enum.Enum):
    """The two endpoints of a point-to-point SHIP channel."""

    A = "a"
    B = "b"

    @property
    def other(self) -> "ShipEnd":
        """The opposite endpoint."""
        return ShipEnd.B if self is ShipEnd.A else ShipEnd.A


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
    __slots__ = ("kind", "data", "obj", "txn_id", "nbytes", "sent_at")

    def __init__(self, kind, data, obj, txn_id, nbytes, sent_at):
        self.kind = kind        # "send" or "request"
        self.data = data        # framed bytes (None when zero_copy)
        self.obj = obj          # original object (zero_copy) or None
        self.txn_id = txn_id    # for requests
        self.nbytes = nbytes
        self.sent_at = sent_at


class _Endpoint:
    """Book-keeping for one channel end."""

    __slots__ = ("owner_name", "calls_used", "bytes_sent", "messages_sent")

    def __init__(self):
        self.owner_name: Optional[str] = None
        self.calls_used: Set[str] = set()
        self.bytes_sent = 0
        self.messages_sent = 0


class ShipChannel(SimObject):
    """A directed point-to-point SHIP message-passing channel.

    Parameters
    ----------
    capacity:
        Maximum queued messages per direction before ``send`` blocks.
    zero_copy:
        Pass object references instead of serialized byte streams.
    timing:
        Optional :class:`ShipTiming` annotation (CCATB refinement).
    recorder:
        Optional :class:`TransactionRecorder` capturing completed
        transfers.
    """

    def __init__(
        self,
        name,
        parent=None,
        ctx=None,
        capacity: int = 8,
        zero_copy: bool = False,
        timing: Optional[ShipTiming] = None,
        recorder: Optional[TransactionRecorder] = None,
    ):
        super().__init__(name, parent, ctx)
        if capacity < 1:
            raise SimulationError(
                f"ship channel {name!r}: capacity must be >= 1"
            )
        self.capacity = capacity
        self.zero_copy = zero_copy
        self.timing = timing or ShipTiming()
        self.recorder = recorder
        self._endpoints: Dict[ShipEnd, _Endpoint] = {
            ShipEnd.A: _Endpoint(),
            ShipEnd.B: _Endpoint(),
        }
        self._claimed: Dict[ShipEnd, object] = {}
        #: messages in flight from each end toward the other
        self._queues: Dict[ShipEnd, deque] = {
            ShipEnd.A: deque(),
            ShipEnd.B: deque(),
        }
        self._data_events = {
            ShipEnd.A: Event(self, f"{self.full_name}.data_a"),
            ShipEnd.B: Event(self, f"{self.full_name}.data_b"),
        }
        self._space_events = {
            ShipEnd.A: Event(self, f"{self.full_name}.space_a"),
            ShipEnd.B: Event(self, f"{self.full_name}.space_b"),
        }
        #: txn_id -> [reply payload or None, Event]
        self._pending_replies: Dict[int, list] = {}
        #: per end: requests received and not yet replied to (FIFO)
        self._unanswered: Dict[ShipEnd, deque] = {
            ShipEnd.A: deque(),
            ShipEnd.B: deque(),
        }
        self._txn_ids = itertools.count(1)
        #: Optional link fault injector (``repro.faults.LinkFaultInjector``
        #: duck type): consulted once per transmitted message.  None keeps
        #: the channel on the fault-free path (a single attribute test).
        self.fault_injector = None
        #: Replies that arrived after their requester abandoned the
        #: transaction; they are dropped, not delivered.
        self.replies_dropped = 0

    # -- endpoint management ---------------------------------------------------

    def claim_end(self, owner) -> ShipEnd:
        """Assign a free endpoint to ``owner`` (a port or module)."""
        for end in (ShipEnd.A, ShipEnd.B):
            if end not in self._claimed:
                self._claimed[end] = owner
                self._endpoints[end].owner_name = getattr(
                    owner, "full_name", str(owner)
                )
                return end
        raise SimulationError(
            f"ship channel {self.full_name} already has two endpoints "
            f"(point-to-point only)"
        )

    def endpoint_owner(self, end: ShipEnd) -> Optional[str]:
        """Name of the object that claimed this end."""
        return self._endpoints[end].owner_name

    # -- the four SHIP interface method calls -----------------------------------

    def send(self, end: ShipEnd, obj: ShipSerializable) -> Generator:
        """Blocking one-way transfer toward the other endpoint.

        A call closed while it waits for wire time or queue space (a
        :func:`~repro.kernel.sync.with_timeout` deadline closes it)
        enqueues nothing and counts no bytes.
        """
        yield from self._transmit(end, obj, "send", None)

    def recv(self, end: ShipEnd) -> Generator:
        """Blocking receive; returns the next message from the peer.

        If the message was sent with ``request``, this endpoint owes a
        ``reply`` (FIFO order).
        """
        self._note_call(end, "recv")
        source = end.other
        queue = self._queues[source]
        while not queue:
            yield self._data_events[end]
        msg = queue.popleft()
        self._space_events[source].notify()
        obj = self._materialize(msg)
        if msg.kind == "request":
            self._unanswered[end].append(msg.txn_id)
        if self.recorder is not None:
            self.recorder.record(
                channel=self.full_name,
                kind=msg.kind,
                initiator=self._endpoints[source].owner_name or source.value,
                target=self._endpoints[end].owner_name or end.value,
                begin=msg.sent_at,
                end=self.ctx.now,
                nbytes=msg.nbytes,
            )
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
        self._note_call(end, "reply")
        if not self._unanswered[end]:
            raise SimulationError(
                f"ship channel {self.full_name}: reply() with no "
                f"outstanding request at end {end.value}"
            )
        txn_id = self._unanswered[end].popleft()
        nbytes = self._wire_size(obj)
        delay_fs = self.timing.transfer_time_fs(nbytes)
        if delay_fs:
            try:
                yield SimTime._from_fs(delay_fs)
            except GeneratorExit:
                self._unanswered[end].appendleft(txn_id)
                raise
        slot = self._pending_replies.pop(txn_id, None)
        self._endpoints[end].bytes_sent += nbytes
        self._endpoints[end].messages_sent += 1
        if slot is None:
            self.replies_dropped += 1
            inj = self.fault_injector
            if inj is not None:
                inj.on_reply_dropped(self, end, txn_id)
            return
        slot[0] = self._roundtrip(obj)
        slot[1].notify()

    # -- internals ---------------------------------------------------------------

    def _note_call(self, end: ShipEnd, call: str) -> None:
        self._endpoints[end].calls_used.add(call)

    def _wire_size(self, obj: ShipSerializable) -> int:
        """Framed bytes ``obj`` occupies on the wire.

        Zero-copy mode skips building the frame but charges the same
        ``tag | length | payload`` size, so the flag moves host time
        only, never simulated time or byte counts.
        """
        if self.zero_copy:
            serialize = getattr(obj, "serialize", None)
            if serialize is None:
                return 0
            return FRAME_HEADER_BYTES + len(serialize())
        return len(encode_message(obj))

    def _roundtrip(self, obj: ShipSerializable):
        """Serialize/deserialize (or pass through when zero_copy)."""
        if self.zero_copy:
            return obj
        decoded, _ = decode_message(encode_message(obj))
        return decoded

    def _materialize(self, msg: _Message):
        if msg.obj is not None:
            return msg.obj
        decoded, _ = decode_message(msg.data)
        return decoded

    def _transmit(self, end, obj, kind, txn_id) -> Generator:
        self._note_call(end, kind)
        # a recorded transfer begins when the call does: its latency
        # includes the wire time and any wait for queue space
        sent_at = self.ctx.now
        if self.zero_copy:
            data, payload_obj = None, obj
            nbytes = self._wire_size(obj)
        else:
            data = encode_message(obj)
            payload_obj = None
            nbytes = len(data)
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
        ep = self._endpoints[end]
        if not deliver:
            # Lost on the wire: the sender pays the latency and its
            # accounting is updated, but nothing reaches the peer.
            ep.bytes_sent += nbytes
            ep.messages_sent += 1
            return
        queue = self._queues[end]
        while len(queue) >= self.capacity:
            yield self._space_events[end]
        queue.append(
            _Message(kind, data, payload_obj, txn_id, nbytes, sent_at)
        )
        ep.bytes_sent += nbytes
        ep.messages_sent += 1
        self._data_events[end.other].notify()

    # -- checkpoint/restore protocol (see repro.snapshot) --------------------

    def __snapshot_events__(self):
        return (
            self._data_events[ShipEnd.A], self._data_events[ShipEnd.B],
            self._space_events[ShipEnd.A], self._space_events[ShipEnd.B],
        )

    def __snapshot__(self) -> dict:
        from repro.snapshot.state import SnapshotError

        if self._pending_replies:
            raise SnapshotError(
                f"ship channel {self.full_name}: "
                f"{len(self._pending_replies)} request(s) awaiting replies "
                "— not a checkpointable instant"
            )
        queues = {}
        for end, queue in self._queues.items():
            records = []
            for msg in queue:
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
                    "sent_at_fs": msg.sent_at._fs,
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
                for end, ep in self._endpoints.items()
            },
            "unanswered": {
                end.value: list(ids) for end, ids in self._unanswered.items()
            },
            "next_txn_id": next(self._txn_ids),
            "replies_dropped": self.replies_dropped,
        }

    def __restore__(self, state: dict) -> None:
        for end in ShipEnd:
            queue = self._queues[end]
            queue.clear()
            for record in state["queues"][end.value]:
                queue.append(_Message(
                    record["kind"],
                    bytes.fromhex(record["data"]),
                    None,
                    record["txn_id"],
                    record["nbytes"],
                    SimTime._from_fs(record["sent_at_fs"]),
                ))
            ep = self._endpoints[end]
            payload = state["endpoints"][end.value]
            ep.calls_used = set(payload["calls_used"])
            ep.bytes_sent = payload["bytes_sent"]
            ep.messages_sent = payload["messages_sent"]
            self._unanswered[end] = deque(state["unanswered"][end.value])
        self._txn_ids = itertools.count(state["next_txn_id"])
        self.replies_dropped = state["replies_dropped"]

    # -- role detection ------------------------------------------------------------

    def detected_role(self, end: ShipEnd) -> Role:
        """Role of one endpoint from its observed interface calls."""
        return classify(self._endpoints[end].calls_used)

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
        return self._endpoints[end].bytes_sent

    def messages_sent(self, end: ShipEnd) -> int:
        """Messages transmitted from this endpoint."""
        return self._endpoints[end].messages_sent

    def pending_requests(self, end: ShipEnd) -> int:
        """Requests received at ``end`` and not yet replied to."""
        return len(self._unanswered[end])
