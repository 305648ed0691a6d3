"""Unit tests for the SHIP serialization interface."""

import math
import struct

import pytest
from hypothesis import given, strategies as st

from repro.ship import (
    SerializationError,
    ShipBytes,
    ShipFloat,
    ShipInt,
    ShipIntArray,
    ShipString,
    clear_user_registry,
    decode_message,
    encode_message,
    register_serializable,
    registered_tag,
)
from repro.ship.serializable import ShipSerializable


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    clear_user_registry()


class TestBuiltinWrappers:
    @pytest.mark.parametrize("obj", [
        ShipInt(0),
        ShipInt(-(2**63)),
        ShipInt(2**63 - 1),
        ShipFloat(3.14159),
        ShipBytes(b"\x00\xff" * 10),
        ShipBytes(b""),
        ShipString("hello ümlaut"),
        ShipIntArray([1, -2, 3]),
        ShipIntArray([]),
    ])
    def test_round_trip(self, obj):
        decoded, consumed = decode_message(encode_message(obj))
        assert decoded == obj
        assert consumed == len(encode_message(obj))

    def test_ship_int_payload_length_checked(self):
        with pytest.raises(SerializationError):
            ShipInt.deserialize(b"\x00\x01")

    def test_int_array_alignment_checked(self):
        with pytest.raises(SerializationError):
            ShipIntArray.deserialize(b"\x00\x01\x02")

    def test_float_payload_length_checked(self):
        frame = struct.pack(">HI", 2, 4) + b"\x00" * 4
        with pytest.raises(SerializationError, match="ShipFloat.*8 bytes"):
            decode_message(frame)

    def test_invalid_utf8_payload_rejected(self):
        frame = bytearray(encode_message(ShipString("abc")))
        frame[6] ^= 0x80      # bit 7 of the first payload byte
        with pytest.raises(SerializationError, match="ShipString.*UTF-8"):
            decode_message(bytes(frame))

    def test_unencodable_string_rejected(self):
        with pytest.raises(SerializationError, match="ShipString.*UTF-8"):
            encode_message(ShipString("\ud800"))

    def test_int_outside_int64_rejected(self):
        with pytest.raises(SerializationError, match="ShipInt.*int64"):
            encode_message(ShipInt(1 << 63))

    def test_array_value_outside_int32_rejected(self):
        with pytest.raises(SerializationError,
                           match="ShipIntArray.*int32"):
            encode_message(ShipIntArray([1 << 31]))

    def test_builtin_tags_are_stable(self):
        assert registered_tag(ShipInt) == 1
        assert registered_tag(ShipFloat) == 2
        assert registered_tag(ShipBytes) == 3
        assert registered_tag(ShipString) == 4
        assert registered_tag(ShipIntArray) == 5


class TestFraming:
    def test_truncated_header_rejected(self):
        with pytest.raises(SerializationError, match="truncated frame"):
            decode_message(b"\x00")

    def test_truncated_payload_rejected(self):
        data = encode_message(ShipInt(5))[:-2]
        with pytest.raises(SerializationError, match="truncated payload"):
            decode_message(data)

    def test_unknown_tag_rejected(self):
        data = b"\xff\xfe" + b"\x00\x00\x00\x00"
        with pytest.raises(SerializationError, match="unknown type tag"):
            decode_message(data)

    def test_unregistered_type_rejected(self):
        class Rogue(ShipSerializable):
            def serialize(self):
                return b""

            @classmethod
            def deserialize(cls, data):
                return cls()

        with pytest.raises(SerializationError, match="not a registered"):
            encode_message(Rogue())


class TestRegistry:
    def test_explicit_tag_collision_rejected(self):
        class A(ShipSerializable):
            def serialize(self):
                return b""

            @classmethod
            def deserialize(cls, data):
                return cls()

        class B(A):
            pass

        register_serializable(A, 100)
        with pytest.raises(SerializationError, match="already registered"):
            register_serializable(B, 100)

    def test_out_of_range_tag_rejected(self):
        class C(ShipSerializable):
            def serialize(self):
                return b""

            @classmethod
            def deserialize(cls, data):
                return cls()

        with pytest.raises(SerializationError):
            register_serializable(C, 0x10000)

    def test_bad_serialize_return_type_detected(self):
        class D(ShipSerializable):
            def serialize(self):
                return "not-bytes"

            @classmethod
            def deserialize(cls, data):
                return cls()

        register_serializable(D)
        with pytest.raises(SerializationError, match="must return bytes"):
            encode_message(D())


@given(st.integers(-(2**63), 2**63 - 1))
def test_ship_int_round_trip_property(value):
    decoded, _ = decode_message(encode_message(ShipInt(value)))
    assert decoded.value == value


@given(st.binary(max_size=512))
def test_ship_bytes_round_trip_property(data):
    decoded, _ = decode_message(encode_message(ShipBytes(data)))
    assert decoded.value == data


@given(st.lists(st.integers(-(2**31), 2**31 - 1), max_size=64))
def test_int_array_round_trip_property(values):
    decoded, _ = decode_message(encode_message(ShipIntArray(values)))
    assert decoded.values == values


@given(st.text(max_size=100))
def test_string_round_trip_property(text):
    decoded, _ = decode_message(encode_message(ShipString(text)))
    assert decoded.value == text


# The wire format of docs/ship_protocol.md section 2, built here from the
# document, not from the codec: a ``>HI`` (tag, payload length) header,
# then the payload in its class's encoding.
_INT64 = st.integers(-(2**63), 2**63 - 1)
_INT32 = st.integers(-(2**31), 2**31 - 1)
_builtins = st.one_of(
    st.tuples(st.just(1), st.one_of(_INT64, st.sampled_from(
        [-(2**63), 2**63 - 1, 0]))),
    st.tuples(st.just(2), st.one_of(st.floats(allow_nan=False),
                                    st.sampled_from([math.inf, -math.inf]))),
    st.tuples(st.just(3), st.binary(max_size=64)),
    st.tuples(st.just(4), st.text(max_size=32)),
    st.tuples(st.just(5), st.one_of(
        st.lists(_INT32, max_size=40),
        st.sampled_from([[], [-(2**31)], [2**31 - 1, -(2**31)]]))),
)

_WIRE = {
    1: (ShipInt, lambda v: struct.pack(">q", v)),
    2: (ShipFloat, lambda v: struct.pack(">d", v)),
    3: (ShipBytes, lambda v: v),
    4: (ShipString, lambda v: v.encode("utf-8")),
    5: (ShipIntArray, lambda v: struct.pack(f">{len(v)}i", *v)),
}


@given(_builtins)
def test_builtin_wire_format_is_the_documented_one(case):
    tag, value = case
    cls, payload_of = _WIRE[tag]
    payload = payload_of(value)
    frame = struct.pack(">HI", tag, len(payload)) + payload
    obj = cls(value)
    assert encode_message(obj) == frame
    assert decode_message(frame) == (obj, len(frame))
    # trailing bytes belong to the next frame
    assert decode_message(frame + b"\x01") == (obj, len(frame))
