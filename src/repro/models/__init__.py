"""``repro.models`` — TLM abstraction levels, mailbox, and wrappers.

Holds the glue of the design flow: the abstraction-level vocabulary
(Figure 1), the :class:`ProcessingElement` base for SHIP-only PEs, the
memory-mapped mailbox protocol, and the wrappers that carry SHIP
channels over bus CAMs.
"""

from repro.models.levels import AbstractionLevel, ProcessingElement
from repro.models.mailbox import (
    CTRL_MORE,
    CTRL_REQUEST,
    CTRL_VALID,
    WORD_BYTES,
    MailboxLayout,
    MailboxSlave,
    bytes_to_words,
    chunk_message,
    words_to_bytes,
)
from repro.models.wrappers import (
    ShipBusMasterWrapper,
    ShipBusSlaveWrapper,
    connect_pin_master_to_bus,
)

__all__ = [
    "AbstractionLevel",
    "CTRL_MORE",
    "CTRL_REQUEST",
    "CTRL_VALID",
    "MailboxLayout",
    "MailboxSlave",
    "ProcessingElement",
    "ShipBusMasterWrapper",
    "ShipBusSlaveWrapper",
    "WORD_BYTES",
    "bytes_to_words",
    "chunk_message",
    "connect_pin_master_to_bus",
    "words_to_bytes",
]
