"""``ship_serializable_if``: the SHIP serialization interface.

The paper specifies that the SHIP channel transfers *any C++ object that
implements the ``ship_serializable_if`` interface*, which defines the
``serialize`` and ``deserialize`` functions used to turn communication
objects into serial data streams and back.

The Python equivalent is the :class:`ShipSerializable` ABC plus a type
registry: every serializable class registers under a unique 16-bit type
tag, and :func:`encode_message` / :func:`decode_message` frame payloads
as ``tag (2B) | length (4B) | payload`` so a byte stream is
self-describing — exactly what the HW/SW interface needs to push SHIP
messages through shared memory.

Built-in wrappers cover the common cases: integers, byte strings, text,
floats, and homogeneous integer arrays.  A model-specific payload
implements :class:`ShipSerializable` and is registered with
:func:`register_serializable`.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Dict, Tuple, Type

from repro.kernel.errors import KernelError


class SerializationError(KernelError):
    """Raised for malformed byte streams or unregistered types.

    The built-in wrappers also raise it for a value their payload format
    cannot hold (an ``int`` outside int64 or int32, text that is not
    valid Unicode) and for a payload that does not decode.
    """


class ShipSerializable(ABC):
    """The SHIP serializable interface (``ship_serializable_if``)."""

    @abstractmethod
    def serialize(self) -> bytes:
        """Encode this object as a byte string."""

    @classmethod
    @abstractmethod
    def deserialize(cls, data: bytes) -> "ShipSerializable":
        """Decode an instance from ``data`` (inverse of :meth:`serialize`)."""


#: type tag -> class
_REGISTRY: Dict[int, Type[ShipSerializable]] = {}
#: class -> type tag
_TAGS: Dict[Type[ShipSerializable], int] = {}
_NEXT_TAG = [1]

_FRAME_HEADER = struct.Struct(">HI")  # tag, payload length

#: Bytes the ``tag | length`` header adds to every framed payload.
FRAME_HEADER_BYTES = _FRAME_HEADER.size


def register_serializable(
    cls: Type[ShipSerializable], tag: int = None
) -> Type[ShipSerializable]:
    """Register ``cls`` in the global type registry.

    Explicit tags let independently-built HW and SW sides agree on the
    wire format; automatic tags are fine within one simulation.
    """
    if tag is None:
        tag = _NEXT_TAG[0]
        while tag in _REGISTRY:
            tag += 1
        _NEXT_TAG[0] = tag + 1
    if tag in _REGISTRY and _REGISTRY[tag] is not cls:
        raise SerializationError(
            f"type tag {tag} already registered to "
            f"{_REGISTRY[tag].__name__}"
        )
    if not (0 < tag < 0x10000):
        raise SerializationError(f"type tag out of range: {tag}")
    _REGISTRY[tag] = cls
    _TAGS[cls] = tag
    return cls


def registered_tag(cls: Type) -> int:
    """The wire tag registered for ``cls``."""
    try:
        return _TAGS[cls]
    except KeyError:
        raise SerializationError(
            f"{cls.__name__} is not a registered SHIP-serializable type"
        ) from None


def encode_message(obj: ShipSerializable) -> bytes:
    """Frame ``obj`` as ``tag | length | payload`` bytes."""
    tag = registered_tag(type(obj))
    payload = obj.serialize()
    if not isinstance(payload, (bytes, bytearray)):
        raise SerializationError(
            f"{type(obj).__name__}.serialize must return bytes, got "
            f"{type(payload).__name__}"
        )
    # bytes + bytearray is bytes, so the payload is copied only here
    return _FRAME_HEADER.pack(tag, len(payload)) + payload


def decode_message(data: bytes) -> Tuple[ShipSerializable, int]:
    """Decode one framed message; returns ``(object, bytes_consumed)``."""
    if len(data) < FRAME_HEADER_BYTES:
        raise SerializationError(
            f"truncated frame header: {len(data)} bytes"
        )
    tag, length = _FRAME_HEADER.unpack_from(data)
    end = FRAME_HEADER_BYTES + length
    if len(data) < end:
        raise SerializationError(
            f"truncated payload: expected {length} bytes, have "
            f"{len(data) - FRAME_HEADER_BYTES}"
        )
    cls = _REGISTRY.get(tag)
    if cls is None:
        raise SerializationError(f"unknown type tag {tag}")
    return cls.deserialize(data[FRAME_HEADER_BYTES:end]), end


# ---------------------------------------------------------------------------
# Built-in serializable wrappers
# ---------------------------------------------------------------------------


class ShipInt(ShipSerializable):
    """A signed 64-bit integer payload."""

    _FORMAT = struct.Struct(">q")

    def __init__(self, value: int):
        self.value = int(value)

    def serialize(self) -> bytes:
        try:
            return self._FORMAT.pack(self.value)
        except struct.error:
            raise SerializationError(
                f"ShipInt value {self.value} is outside the int64 range"
            ) from None

    @classmethod
    def deserialize(cls, data: bytes) -> "ShipInt":
        """Decode a signed 64-bit integer payload."""
        if len(data) != cls._FORMAT.size:
            raise SerializationError(
                f"ShipInt payload must be {cls._FORMAT.size} bytes"
            )
        return cls(cls._FORMAT.unpack(data)[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, ShipInt) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("ShipInt", self.value))

    def __repr__(self) -> str:
        return f"ShipInt({self.value})"


class ShipFloat(ShipSerializable):
    """A 64-bit IEEE-754 float payload."""

    _FORMAT = struct.Struct(">d")

    def __init__(self, value: float):
        self.value = float(value)

    def serialize(self) -> bytes:
        return self._FORMAT.pack(self.value)

    @classmethod
    def deserialize(cls, data: bytes) -> "ShipFloat":
        """Decode an IEEE-754 double payload."""
        try:
            (value,) = cls._FORMAT.unpack(data)
        except struct.error:
            raise SerializationError(
                f"ShipFloat payload must be {cls._FORMAT.size} bytes, "
                f"got {len(data)}"
            ) from None
        return cls(value)

    def __eq__(self, other) -> bool:
        return isinstance(other, ShipFloat) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("ShipFloat", self.value))

    def __repr__(self) -> str:
        return f"ShipFloat({self.value})"


class ShipBytes(ShipSerializable):
    """A raw byte-string payload."""

    def __init__(self, value: bytes):
        self.value = bytes(value)

    def serialize(self) -> bytes:
        return self.value

    @classmethod
    def deserialize(cls, data: bytes) -> "ShipBytes":
        """Wrap the raw payload bytes."""
        return cls(data)

    def __eq__(self, other) -> bool:
        return isinstance(other, ShipBytes) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("ShipBytes", self.value))

    def __len__(self) -> int:
        return len(self.value)

    def __repr__(self) -> str:
        return f"ShipBytes({self.value!r})"


class ShipString(ShipSerializable):
    """A UTF-8 text payload."""

    def __init__(self, value: str):
        self.value = str(value)

    def serialize(self) -> bytes:
        try:
            return self.value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise SerializationError(
                f"ShipString value is not encodable as UTF-8: {exc.reason} "
                f"at index {exc.start}"
            ) from None

    @classmethod
    def deserialize(cls, data: bytes) -> "ShipString":
        """Decode a UTF-8 payload."""
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError(
                f"ShipString payload is not valid UTF-8: {exc.reason} "
                f"at byte {exc.start}"
            ) from None
        return cls(text)

    def __eq__(self, other) -> bool:
        return isinstance(other, ShipString) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("ShipString", self.value))

    def __repr__(self) -> str:
        return f"ShipString({self.value!r})"


@lru_cache(maxsize=256)
def _int32_array(count: int) -> struct.Struct:
    """The codec of a ``count``-element ``ShipIntArray`` payload."""
    return struct.Struct(f">{count}i")


class ShipIntArray(ShipSerializable):
    """A homogeneous array of signed 32-bit integers."""

    def __init__(self, values):
        self.values = [int(v) for v in values]

    def serialize(self) -> bytes:
        values = self.values
        try:
            return _int32_array(len(values)).pack(*values)
        except struct.error:
            raise SerializationError(
                "ShipIntArray values must be ints in the int32 range"
            ) from None

    @classmethod
    def deserialize(cls, data: bytes) -> "ShipIntArray":
        """Decode a packed array of 32-bit integers."""
        if len(data) % 4:
            raise SerializationError(
                f"ShipIntArray payload length {len(data)} not a multiple of 4"
            )
        # struct already produced ints: skip __init__'s per-value int()
        obj = cls.__new__(cls)
        obj.values = list(_int32_array(len(data) // 4).unpack(data))
        return obj

    def __eq__(self, other) -> bool:
        return isinstance(other, ShipIntArray) and other.values == self.values

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"ShipIntArray({self.values})"


for _cls, _tag in (
    (ShipInt, 1),
    (ShipFloat, 2),
    (ShipBytes, 3),
    (ShipString, 4),
    (ShipIntArray, 5),
):
    register_serializable(_cls, _tag)


def clear_user_registry() -> None:
    """Remove all non-builtin registrations (test isolation helper)."""
    builtin_tags = {1, 2, 3, 4, 5}
    for tag in [t for t in _REGISTRY if t not in builtin_tags]:
        cls = _REGISTRY.pop(tag)
        _TAGS.pop(cls, None)
