"""Unit tests for the SHIP serialization interface."""

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
