"""``repro.ship`` — the SystemC High-level Interface Protocol (SHIP).

SHIP is the paper's lightweight transaction-based protocol for directed
point-to-point communication between processing elements, independent of
HW/SW partitioning.  The package provides:

* :class:`ShipChannel` with the four blocking interface method calls
  ``send`` / ``recv`` / ``request`` / ``reply``, and
  :class:`ShipInterface`, the base of everything a SHIP port binds;
* the ``ship_serializable_if`` equivalent (:class:`ShipSerializable`,
  the type registry, and built-in wrappers);
* SHIP ports for PEs (:class:`ShipPort` and the role-restricted
  :class:`ShipMasterPort` / :class:`ShipSlavePort`);
* automatic master/slave detection (:mod:`repro.ship.roles`).
"""

from repro.ship.channel import (
    ShipChannel,
    ShipEnd,
    ShipInterface,
    ShipTiming,
)
from repro.ship.ports import ShipMasterPort, ShipPort, ShipSlavePort
from repro.ship.roles import (
    ALL_CALLS,
    MASTER_CALLS,
    SLAVE_CALLS,
    Role,
    classify,
    roles_consistent,
)
from repro.ship.serializable import (
    SerializationError,
    ShipBytes,
    ShipFloat,
    ShipInt,
    ShipIntArray,
    ShipSerializable,
    ShipString,
    clear_user_registry,
    decode_message,
    encode_message,
    register_serializable,
    registered_tag,
)

__all__ = [
    "ALL_CALLS",
    "MASTER_CALLS",
    "Role",
    "SLAVE_CALLS",
    "SerializationError",
    "ShipBytes",
    "ShipChannel",
    "ShipEnd",
    "ShipFloat",
    "ShipInt",
    "ShipIntArray",
    "ShipInterface",
    "ShipMasterPort",
    "ShipPort",
    "ShipSerializable",
    "ShipSlavePort",
    "ShipString",
    "ShipTiming",
    "classify",
    "clear_user_registry",
    "decode_message",
    "encode_message",
    "register_serializable",
    "registered_tag",
    "roles_consistent",
]
