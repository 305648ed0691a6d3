"""Host-speed probe: a fixed event-loop simulation timed between repeats.

The reference box is a shared VM whose speed swings with its
neighbours' load: ``flow_pv`` ran 26% faster in one run than in the run
a minute before it, and for minutes at a time the whole VM ran at half
speed.  A probe that runs in the same process, interleaved with the
workload's repeats, slows down and speeds up with the host, so
``workload rate / probe rate`` keeps the part of the rate that the code
under test controls.

The probe is a miniature discrete-event loop (generators resumed from a
``heapq`` timeline, tuple and attribute traffic), because contention
slows such code differently from arithmetic: over ten fresh-process
runs of ``flow_pin`` during a half-speed period, the spread of the rate
(interquartile range over median) was 44.7% unscaled, 17.5% scaled by
an arithmetic-and-dict loop, and 9.6% scaled by this probe; on
``flow_pv`` the three were 9.7%, 3.5% and 3.2%.

The two CPUs also drift apart: one can run 40% slower than the other
for a whole run.  A workload that keeps both busy (the sweeps, whose two
workers share one backlog of batches) moves at the sum of their speeds,
so :class:`HostProbe` runs the probe on as many processes at once as
the workload uses CPUs and takes their mean rate.  Over ten 10-second
``sweep_warm`` runs in such a period, with the arithmetic loop as the
probe, the spread of the rate was 17.9% unscaled, 14.7% scaled by one
probe process and 6.0% by the mean of two.

The probe is benchmark code that no change under test touches.  It
runs with the cyclic collector off and creates no reference cycles, so
the workload's heap cannot make it slower.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import multiprocessing
import time
from typing import List

#: Probe runs per second (fast decile) on the reference box, a 2-CPU
#: Xeon VM at 2.1 GHz with Python 3.11.7, at its usual speed: the host
#: speed that reported rates are scaled to.
NOMINAL_PROBES_PER_S = 148.0

#: Simulated jobs and events of one probe run (about 7 ms).
_JOBS = 64
_EVENTS = 12000


class _Job:
    __slots__ = ("ident", "fired", "total")

    def __init__(self, ident: int):
        self.ident = ident
        self.fired = 0
        self.total = 0


def _run_job(job: _Job):
    delay = 1
    while True:
        now = yield delay
        job.fired += 1
        job.total += now
        delay = (job.ident * 7 + job.fired) % 13 + 1


def probe() -> float:
    """Run the probe once; return its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seq = itertools.count()
        jobs = [_run_job(_Job(ident)) for ident in range(_JOBS)]
        timeline = []
        for index, job in enumerate(jobs):
            heapq.heappush(timeline, (next(job), next(seq), index))
        for _ in range(_EVENTS):
            now, _, index = heapq.heappop(timeline)
            delay = jobs[index].send(now)
            heapq.heappush(timeline, (now + delay, next(seq), index))
        for job in jobs:
            job.close()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _serve(conn) -> None:
    """Helper process: probe once per request until told to stop."""
    while conn.recv():
        conn.send(probe())


class HostProbe:
    """The probe on ``processes`` processes at once (this one plus
    helpers started now); :meth:`run` returns their mean rate."""

    def __init__(self, processes: int = 1):
        context = multiprocessing.get_context("spawn")
        self._helpers: List[tuple] = []
        for _ in range(processes - 1):
            parent_end, child_end = context.Pipe()
            helper = context.Process(target=_serve, args=(child_end,),
                                     daemon=True)
            helper.start()
            child_end.close()
            self._helpers.append((helper, parent_end))

    def run(self) -> float:
        """Probe once in every process; their mean rate (probes/s)."""
        for _, conn in self._helpers:
            conn.send(True)
        times = [probe()]
        times.extend(conn.recv() for _, conn in self._helpers)
        return sum(1 / elapsed for elapsed in times) / len(times)

    def close(self) -> None:
        """Stop and join the helpers."""
        for helper, conn in self._helpers:
            conn.send(False)
            conn.close()
            helper.join(timeout=10)
            if helper.is_alive():
                helper.kill()
                helper.join()
        self._helpers = []
