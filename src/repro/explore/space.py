"""Design-space description for communication architecture exploration."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.kernel.simtime import SimTime, ns

#: Fabrics the runner can instantiate.
FABRICS = ("plb", "opb", "ahb", "generic", "crossbar")
#: Arbitration policies the runner can instantiate.
ARBITERS = ("static-priority", "round-robin", "tdma")


@dataclass(frozen=True)
class ArchitectureConfig:
    """One point in the communication-architecture design space."""

    fabric: str = "plb"
    arbiter: str = "static-priority"
    clock_period: SimTime = ns(10)
    max_burst: int = 16
    tdma_slot_cycles: int = 8
    label: Optional[str] = None

    def __post_init__(self):
        if self.fabric not in FABRICS:
            raise ValueError(
                f"unknown fabric {self.fabric!r}; expected one of {FABRICS}"
            )
        if self.arbiter not in ARBITERS:
            raise ValueError(
                f"unknown arbiter {self.arbiter!r}; expected one of "
                f"{ARBITERS}"
            )
        if self.clock_period.femtoseconds <= 0:
            raise ValueError("clock_period must be > 0")
        if self.max_burst < 1:
            raise ValueError("max_burst must be >= 1")

    @property
    def name(self) -> str:
        """Readable identifier (label override or derived)."""
        if self.label:
            return self.label
        mhz = 1e3 / self.clock_period.to("ns")
        return (
            f"{self.fabric}/{self.arbiter}@{mhz:.0f}MHz"
            f"/b{self.max_burst}"
        )

    def cache_key(self) -> str:
        """Canonical identity string for result caching.

        Pins a fixed field order and renders the clock period as its
        exact integer femtosecond count, so the key is independent of
        dataclass field order, ``SimTime`` repr, and the cosmetic
        :attr:`label` (two configs differing only in label simulate
        identically and must share cached results).  The format is a
        compatibility contract — tests pin it, and the sweep cache keys
        derive from it — so changing it invalidates every stored sweep
        result.
        """
        return (
            f"fabric={self.fabric};arbiter={self.arbiter};"
            f"clock_fs={self.clock_period.femtoseconds};"
            f"max_burst={self.max_burst};"
            f"tdma_slot_cycles={self.tdma_slot_cycles}"
        )

    def to_dict(self) -> dict:
        """JSON-able dict (``clock_period`` as integer femtoseconds)."""
        return {
            "fabric": self.fabric,
            "arbiter": self.arbiter,
            "clock_period_fs": self.clock_period.femtoseconds,
            "max_burst": self.max_burst,
            "tdma_slot_cycles": self.tdma_slot_cycles,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ArchitectureConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        return cls(
            fabric=data["fabric"],
            arbiter=data["arbiter"],
            clock_period=SimTime(data["clock_period_fs"]),
            max_burst=data["max_burst"],
            tdma_slot_cycles=data["tdma_slot_cycles"],
            label=data.get("label"),
        )


@dataclass
class DesignSpace:
    """Cartesian product of architecture parameters."""

    fabrics: Sequence[str] = ("plb", "generic", "crossbar")
    arbiters: Sequence[str] = ("static-priority", "round-robin")
    clock_periods: Sequence[SimTime] = (ns(10),)
    max_bursts: Sequence[int] = (16,)

    def __iter__(self) -> Iterator[ArchitectureConfig]:
        for fabric, arbiter, period, burst in itertools.product(
            self.fabrics, self.arbiters, self.clock_periods,
            self.max_bursts,
        ):
            yield ArchitectureConfig(
                fabric=fabric, arbiter=arbiter,
                clock_period=period, max_burst=burst,
            )

    def __len__(self) -> int:
        return (
            len(self.fabrics) * len(self.arbiters)
            * len(self.clock_periods) * len(self.max_bursts)
        )
