"""Retry policies and the retrying bus master.

:class:`RetryPolicy` bounds attempts and spaces them with fixed or
exponential backoff in *simulated* time.  :func:`retry_call` retries any
blocking generator operation on :class:`~repro.kernel.errors
.SimTimeoutError`; :class:`RetryingMaster` wraps a bus master socket
(any :class:`~repro.ocp.tl.OcpTargetIf`) and retries ERR responses and
per-attempt timeouts, surfacing exhaustion as
:class:`RetryExhaustedError` instead of silently returning the last
failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.kernel.errors import SimTimeoutError, SimulationError
from repro.kernel.object import SimObject
from repro.kernel.simtime import SimTime, ZERO_TIME
from repro.kernel.sync import with_timeout
from repro.ocp.tl import OcpTargetIf
from repro.ocp.types import OcpRequest, OcpResponse
from repro.faults.plan import FaultPlan


class RetryExhaustedError(SimulationError):
    """Every attempt a :class:`RetryPolicy` allowed has failed."""


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget and backoff schedule (in simulated time).

    ``delay_for(n)`` is the pause after failed attempt ``n`` (1-based):
    ``backoff`` fixed, or ``backoff * 2**(n-1)`` with ``exponential``,
    clamped to ``max_backoff`` when given.
    """

    max_attempts: int = 3
    backoff: SimTime = ZERO_TIME
    exponential: bool = False
    max_backoff: Optional[SimTime] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise SimulationError("retry policy: max_attempts must be >= 1")

    def delay_for(self, attempt: int) -> SimTime:
        """Backoff delay after failed attempt ``attempt`` (1-based)."""
        fs = self.backoff._fs
        if self.exponential and attempt > 1:
            fs *= 2 ** (attempt - 1)
        if self.max_backoff is not None and fs > self.max_backoff._fs:
            fs = self.max_backoff._fs
        return SimTime._from_fs(fs)

    @classmethod
    def from_seconds(cls, max_attempts: int = 3, backoff_s: float = 0.0,
                     exponential: bool = False,
                     max_backoff_s: Optional[float] = None) -> "RetryPolicy":
        """Build a policy whose backoff fields encode *host* seconds.

        The sweep runtime's :class:`repro.sweep.recovery.RecoveryPolicy`
        schedules worker respawns with the exact same fixed/exponential/
        clamped schedule simulated masters use — by mapping wall-clock
        seconds onto :class:`SimTime` and reading them back with
        :meth:`delay_s`, rather than duplicating the arithmetic.
        """
        return cls(
            max_attempts=max_attempts,
            backoff=SimTime.from_value(backoff_s, "s"),
            exponential=exponential,
            max_backoff=(None if max_backoff_s is None
                         else SimTime.from_value(max_backoff_s, "s")),
        )

    def delay_s(self, attempt: int) -> float:
        """:meth:`delay_for` read back as host seconds (float)."""
        return self.delay_for(attempt).to("s")


def retry_call(factory: Callable[[], Generator], policy: RetryPolicy,
               what: str = "operation") -> Generator:
    """Run ``factory()`` (a fresh blocking generator per attempt),
    retrying on :class:`SimTimeoutError` with the policy's backoff::

        reply = yield from retry_call(
            lambda: with_timeout(ctx, port.request(msg), us(5)), policy)

    Raises :class:`RetryExhaustedError` once attempts are exhausted,
    chaining the last timeout.
    """
    last: Optional[SimTimeoutError] = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return (yield from factory())
        except SimTimeoutError as exc:
            last = exc
        if attempt < policy.max_attempts:
            delay = policy.delay_for(attempt)
            if delay._fs:
                yield delay
    raise RetryExhaustedError(
        f"{what}: all {policy.max_attempts} attempt(s) failed "
        f"(last: {last})"
    ) from last


class RetryingMaster(SimObject, OcpTargetIf):
    """Bus-socket wrapper retrying ERR responses and timed-out attempts.

    Drop-in :class:`OcpTargetIf`: masters call ``transport`` on it
    exactly as they would on the raw socket.  Each attempt optionally
    runs under a per-attempt ``timeout`` (via
    :func:`~repro.kernel.sync.with_timeout`); failed attempts (ERR
    response or timeout) back off per ``policy`` and retry.  When the
    budget is exhausted :class:`RetryExhaustedError` is raised — an
    exhausted retry is a loud failure, never a quietly returned ERR.

    Attributes
    ----------
    retries / recoveries / exhausted:
        Re-attempts issued, transactions that succeeded after at least
        one retry, and transactions that ran out of attempts.
    """

    def __init__(
        self,
        name,
        parent=None,
        ctx=None,
        socket: OcpTargetIf = None,
        policy: Optional[RetryPolicy] = None,
        timeout: Optional[SimTime] = None,
        plan: Optional[FaultPlan] = None,
    ):
        super().__init__(name, parent, ctx)
        if socket is None:
            raise SimulationError(
                f"retrying master {name!r}: socket is required"
            )
        self.socket = socket
        self.policy = policy or RetryPolicy()
        self.timeout = timeout
        self.plan = plan
        self.retries = 0
        self.recoveries = 0
        self.exhausted = 0

    def _attempt(self, request: OcpRequest) -> Generator:
        if self.timeout is None:
            return (yield from self.socket.transport(request))
        return (yield from with_timeout(
            self.ctx, self.socket.transport(request), self.timeout,
            what=f"{self.full_name} transport",
        ))

    def transport(self, request: OcpRequest) -> Generator:
        """One logical transaction, retried across physical attempts."""
        policy = self.policy
        failure = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                response = yield from self._attempt(request)
                if response.ok:
                    if attempt > 1:
                        self.recoveries += 1
                    return response
                failure = "ERR response"
            except SimTimeoutError as exc:
                failure = str(exc)
            if attempt < policy.max_attempts:
                self.retries += 1
                if self.plan is not None:
                    self.plan.record(
                        "retry.attempt", self.ctx._now_fs,
                        f"{self.full_name}: attempt {attempt} failed "
                        f"({failure}); retrying",
                    )
                delay = policy.delay_for(attempt)
                if delay._fs:
                    yield delay
        self.exhausted += 1
        if self.plan is not None:
            self.plan.record(
                "retry.exhausted", self.ctx._now_fs,
                f"{self.full_name}: gave up at addr {request.addr:#x} "
                f"after {policy.max_attempts} attempt(s)",
            )
        raise RetryExhaustedError(
            f"{self.full_name}: transaction at addr {request.addr:#x} "
            f"failed after {policy.max_attempts} attempt(s) "
            f"(last: {failure})"
        )
