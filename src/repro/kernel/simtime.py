"""Simulation time.

Time is represented exactly, as an integer count of *femtoseconds*, the
same approach SystemC takes with its configurable time resolution (the
default SystemC resolution is 1 ps; we use 1 fs so that sub-picosecond
RTL annotations never round).  Exact integer time is essential for a
discrete-event kernel: floating-point time accumulates rounding error and
breaks the "cycle-count accurate at the boundaries" property the CCATB
models rely on.

The public entry points are the :class:`SimTime` value type and the unit
constructors :func:`fs`, :func:`ps`, :func:`ns`, :func:`us`, :func:`ms`
and :func:`sec`.

Example
-------
>>> ns(5) + ps(500)
SimTime(5500 ps)
>>> ns(10) // ns(2)
5
>>> ns(1) < us(1)
True
"""

from __future__ import annotations

from typing import Union

from repro.kernel.errors import TimeError

#: Femtoseconds per named unit.
_FS_PER_UNIT = {
    "fs": 1,
    "ps": 10**3,
    "ns": 10**6,
    "us": 10**9,
    "ms": 10**12,
    "s": 10**15,
    "sec": 10**15,
}

#: Interned SimTime instances keyed by femtosecond count.  A simulation
#: re-creates the same handful of durations (clock phases, bus-cycle
#: latencies, inter-transaction gaps) millions of times; interning makes
#: those constructions a dict hit instead of an allocation.  Bounded so
#: a workload sweeping unique timestamps cannot grow it without limit.
_INTERN_CACHE: dict = {}
_INTERN_CAP = 4096

_object_new = object.__new__


class SimTime:
    """An exact, immutable point in (or duration of) simulated time.

    ``SimTime`` supports addition and subtraction with other ``SimTime``
    values, multiplication by integers, and floor division.  All
    comparisons are exact.

    Instances are ordinarily created through the unit helpers
    (:func:`ns` etc.) rather than directly.
    """

    __slots__ = ("_fs",)

    def __init__(self, femtoseconds: int):
        if not isinstance(femtoseconds, int):
            raise TimeError(
                f"SimTime requires an integer femtosecond count, got "
                f"{type(femtoseconds).__name__}"
            )
        if femtoseconds < 0:
            raise TimeError(f"time cannot be negative: {femtoseconds} fs")
        self._fs = femtoseconds

    # -- construction -------------------------------------------------

    @classmethod
    def _from_fs(cls, femtoseconds: int) -> "SimTime":
        """Trusted fast constructor from a non-negative femtosecond count.

        Kernel-internal: skips the type/sign validation of ``__init__``
        and interns common values.  Callers must guarantee
        ``femtoseconds`` is a non-negative ``int``.
        """
        cached = _INTERN_CACHE.get(femtoseconds)
        if cached is not None:
            return cached
        t = _object_new(cls)
        t._fs = femtoseconds
        if len(_INTERN_CACHE) < _INTERN_CAP:
            _INTERN_CACHE[femtoseconds] = t
        return t

    @classmethod
    def from_value(cls, value: float, unit: str) -> "SimTime":
        """Build a time from a value and unit name (``"ns"``, ``"ps"`` ...).

        Fractional values are allowed as long as they resolve to a whole
        number of femtoseconds.
        """
        try:
            scale = _FS_PER_UNIT[unit]
        except KeyError:
            raise TimeError(f"unknown time unit {unit!r}") from None
        femto = value * scale
        rounded = round(femto)
        if abs(femto - rounded) > 1e-9:
            raise TimeError(
                f"{value} {unit} does not resolve to an integer number of "
                f"femtoseconds"
            )
        if rounded < 0:
            raise TimeError(f"time cannot be negative: {value} {unit}")
        return cls._from_fs(int(rounded))

    # -- accessors -----------------------------------------------------

    @property
    def femtoseconds(self) -> int:
        """The exact femtosecond count."""
        return self._fs

    def to(self, unit: str) -> float:
        """Convert to a float value in the given unit (may lose precision)."""
        try:
            scale = _FS_PER_UNIT[unit]
        except KeyError:
            raise TimeError(f"unknown time unit {unit!r}") from None
        return self._fs / scale

    @property
    def is_zero(self) -> bool:
        """True for the zero duration."""
        return self._fs == 0

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "SimTime") -> "SimTime":
        if not isinstance(other, SimTime):
            return NotImplemented
        return SimTime._from_fs(self._fs + other._fs)

    def __sub__(self, other: "SimTime") -> "SimTime":
        if not isinstance(other, SimTime):
            return NotImplemented
        if other._fs > self._fs:
            raise TimeError(
                f"time subtraction underflow: {self} - {other}"
            )
        return SimTime._from_fs(self._fs - other._fs)

    def __mul__(self, factor: int) -> "SimTime":
        if not isinstance(factor, int):
            return NotImplemented
        return SimTime._from_fs(self._fs * factor)

    __rmul__ = __mul__

    def __floordiv__(self, other: Union["SimTime", int]):
        if isinstance(other, SimTime):
            if other._fs == 0:
                raise ZeroDivisionError("division by zero time")
            return self._fs // other._fs
        if isinstance(other, int):
            return SimTime._from_fs(self._fs // other)
        return NotImplemented

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimTime) and self._fs == other._fs

    # One call per comparison; total_ordering's derived ones take three.
    def __lt__(self, other: "SimTime") -> bool:
        if not isinstance(other, SimTime):
            return NotImplemented
        return self._fs < other._fs

    def __le__(self, other: "SimTime") -> bool:
        if not isinstance(other, SimTime):
            return NotImplemented
        return self._fs <= other._fs

    def __gt__(self, other: "SimTime") -> bool:
        if not isinstance(other, SimTime):
            return NotImplemented
        return self._fs > other._fs

    def __ge__(self, other: "SimTime") -> bool:
        if not isinstance(other, SimTime):
            return NotImplemented
        return self._fs >= other._fs

    def __hash__(self) -> int:
        return hash(self._fs)

    def __bool__(self) -> bool:
        return self._fs != 0

    # -- display ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"SimTime({self})"

    def __str__(self) -> str:
        if self._fs == 0:
            return "0 s"
        for unit in ("s", "ms", "us", "ns", "ps", "fs"):
            scale = _FS_PER_UNIT[unit]
            if self._fs % scale == 0:
                return f"{self._fs // scale} {unit}"
        return f"{self._fs} fs"


#: The zero duration, used pervasively as a default.  Interned so the
#: kernel's ``_from_fs(0)`` always returns this exact instance.
ZERO_TIME = SimTime(0)
_INTERN_CACHE[0] = ZERO_TIME


def fs(value: float) -> SimTime:
    """``value`` femtoseconds."""
    return SimTime.from_value(value, "fs")


def ps(value: float) -> SimTime:
    """``value`` picoseconds."""
    return SimTime.from_value(value, "ps")


def ns(value: float) -> SimTime:
    """``value`` nanoseconds."""
    return SimTime.from_value(value, "ns")


def us(value: float) -> SimTime:
    """``value`` microseconds."""
    return SimTime.from_value(value, "us")


def ms(value: float) -> SimTime:
    """``value`` milliseconds."""
    return SimTime.from_value(value, "ms")


def sec(value: float) -> SimTime:
    """``value`` seconds."""
    return SimTime.from_value(value, "sec")
