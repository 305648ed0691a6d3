"""The benchmark's five workloads: the paper's F1 flow at three levels
and the design-space sweep path, cold and warm-started.

Each workload object is built once (that is the set-up the benchmark
times), then runs any number of *repeats*.  Every repeat's simulation
outputs are checked: a flow block fails when the sink's output differs
from :func:`repro.apps.reference_output`, or when the run's simulated
end time differs from the golden value in ``golden.json``; a sweep
point fails when it is quarantined, missing, or its result row differs
from an inline :func:`repro.explore.run_point` of the same point.
Failures are counted in :attr:`Workload.failed` out of
:attr:`Workload.attempted`, never raised.

Why these five (see README.md for the full table):

* ``flow_pv`` — untimed SHIP on the kernel; scheduler and SHIP codec.
* ``flow_cam`` — the same PEs with SHIP carried over a PLB by the
  wrappers and mailbox polling.
* ``flow_pin`` — pin-level OCP masters into the RTL bus core on a
  clock; the kernel event loop under the heaviest activation load.
* ``sweep_cold`` — the E3 space simulated by two pool workers into a
  fresh result store; simulation dominates.
* ``sweep_warm`` — boot-heavy points resumed from checkpoints; dispatch,
  serialization and snapshot restore dominate.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.apps import (
    build_cam,
    build_prototype_level,
    build_pv,
    reference_output,
)
from repro.explore import (
    FABRICS,
    BootSpec,
    DesignSpace,
    MasterTrafficSpec,
    decode_payload,
    materialize_boot_checkpoint,
    run_point,
    standard_workloads,
)
from repro.kernel import ms, ns, us
from repro.snapshot import Checkpoint
from repro.sweep import SweepEngine, SweepPoint, SweepStore, points_for_space

GOLDEN_PATH = Path(__file__).resolve().with_name("golden.json")

#: Pool workers for both sweep workloads (the benchmark box has 2 CPUs).
SWEEP_WORKERS = 2

#: ``engine.dispatch_overhead_s()`` probes; the median is reported.
DISPATCH_PROBES = 10


def result_row(result) -> dict:
    """A result's simulation-derived fields (wall clock dropped)."""
    row = result.to_dict()
    row.pop("wall_seconds")
    return row


class Workload:
    """Common bookkeeping: correctness counts and the work directory."""

    name = ""
    #: what one unit of :attr:`items` is, for reports
    unit = ""
    #: CPUs a repeat keeps busy (processes the host-speed probe uses)
    cpus = 1

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        #: units of work (blocks or points) done by one repeat
        self.items = 0
        self.attempted = 0
        self.failed = 0
        #: one line per distinct failure, for the report
        self.problems: List[str] = []

    def fail(self, count: int, problem: str) -> None:
        """Count ``count`` failed units and remember why."""
        self.failed += count
        if problem not in self.problems:
            self.problems.append(problem)

    def repeat(self) -> None:
        """Run and check one untraced repeat."""
        raise NotImplementedError

    def traced_repeat(self, tracer) -> float:
        """Run one repeat under ``tracer``; return the wall time of the
        part that an untraced :meth:`repeat` also does."""
        raise NotImplementedError

    def verify(self) -> None:
        """Check repeats whose check was deferred (none by default)."""

    def layer_extras(self, repeat_s: float) -> Dict[str, float]:
        """Workload-specific layer metrics, given the median repeat."""
        return {}

    def peak_rss_kib(self) -> int:
        """Peak RSS so far of this process plus its largest child."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        """Release processes and files."""
        shutil.rmtree(self.work_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# F1 design flow
# ---------------------------------------------------------------------------

#: name -> (builder, blocks per repeat, run bound or None).  Each
#: repeat takes 0.25-0.3 s on the 2-CPU reference box, so a 10 s run
#: has some 35-40 repeats to take the fast decile of.
FLOWS = {
    "flow_pv": (build_pv, 5000, None),
    "flow_cam": (build_cam, 500, None),
    # the prototype's clock never starves; the sink stops the run
    "flow_pin": (build_prototype_level, 75, us(1_000_000_000)),
}


def golden_end_ns(workload: str, blocks: int) -> Optional[float]:
    """The stored simulated end time for ``blocks`` blocks, if any."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    return golden.get(workload, {}).get(str(blocks))


class FlowWorkload(Workload):
    """The F1 pipeline at one level; each repeat builds and runs it."""

    unit = "block"

    def __init__(self, name: str, work_dir: str,
                 blocks: Optional[int] = None, reference=None):
        super().__init__(work_dir)
        self.name = name
        self.builder, default_blocks, self.bound = FLOWS[name]
        self.items = blocks or default_blocks
        #: expected sink output; computed at the first (warm-up) check
        #: so that the checker's own work is not timed as set-up
        self.reference = reference
        self.golden_end_ns = golden_end_ns(name, self.items)

    def _run(self, observer=None) -> None:
        system = self.builder(self.items)
        if observer is not None:
            system.ctx.attach_observer(observer)
        system.ctx.run(self.bound)
        self._check(system)

    def _check(self, system) -> None:
        if self.reference is None:
            self.reference = reference_output(self.items)
        self.attempted += self.items
        outputs = system.outputs()
        bad = sum(1 for i, expected in enumerate(self.reference)
                  if i >= len(outputs) or outputs[i] != expected)
        bad += max(0, len(outputs) - len(self.reference))
        if bad:
            self.fail(bad, "sink output differs from reference_output")
            return
        end_ns = system.ctx.last_activity_time.to("ns")
        if end_ns != self.golden_end_ns:
            self.fail(self.items, f"simulated end {end_ns} ns, golden "
                                  f"{self.golden_end_ns} ns")

    def repeat(self) -> None:
        self._run()

    def traced_repeat(self, tracer) -> float:
        start = time.perf_counter()
        with tracer.span("apps", "repeat"):
            self._run(tracer.observer)
        return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Sweep path
# ---------------------------------------------------------------------------


class SweepWorkload(Workload):
    """Points run on a warm two-worker pool; rows checked against an
    inline :func:`run_point` pass made after the timed repeats."""

    unit = "point"
    cpus = SWEEP_WORKERS

    def __init__(self, work_dir: str, points: List[SweepPoint],
                 **engine_options):
        super().__init__(work_dir)
        self.points = points
        self.items = len(points)
        self.engine = SweepEngine(workers=SWEEP_WORKERS, **engine_options)
        # spawns and warms the pool: part of set-up, not of a repeat
        self.engine.dispatch_overhead_s()
        #: per repeat: one row (or None when quarantined) per point
        self.runs: List[List[Optional[dict]]] = []
        #: rows of the untraced inline pass over every point, and its
        #: wall time (set by :meth:`verify`)
        self.reference_rows: List[dict] = []
        self.inline_s = 0.0
        self.traced_results: list = []

    def repeat(self) -> None:
        outcomes = self.engine.run(self.points)
        self.runs.append([None if o.failed else result_row(o.result)
                          for o in outcomes])

    def _inline_kwargs(self, point: SweepPoint) -> dict:
        return decode_payload(point.to_payload())

    def verify(self) -> None:
        """Check the repeats run since the last call; the first call
        also makes the inline reference pass."""
        if not self.reference_rows:
            start = time.perf_counter()
            self.reference_rows = [
                result_row(run_point(**self._inline_kwargs(point)))
                for point in self.points]
            self.inline_s = time.perf_counter() - start
            self._check_reference()
        for rows in self.runs:
            self.attempted += self.items
            bad = sum(1 for i, expected in enumerate(self.reference_rows)
                      if i >= len(rows) or rows[i] != expected)
            if bad:
                self.fail(bad, "pooled row differs from inline run_point "
                               "(or was quarantined)")
        self.runs = []

    def _check_reference(self) -> None:
        """Extra checks on the inline reference rows (none here)."""

    def _traced_point(self, tracer, point: SweepPoint):
        return run_point(observer=tracer.observer,
                         **self._inline_kwargs(point))

    def traced_repeat(self, tracer) -> float:
        start = time.perf_counter()
        with tracer.span("sweep", "SweepEngine.run"):
            self.repeat()
        pooled_s = time.perf_counter() - start
        self.traced_results = []
        for point in self.points:
            with tracer.span("explore", "run_point"):
                self.traced_results.append(
                    self._traced_point(tracer, point))
        return pooled_s

    def layer_extras(self, repeat_s: float) -> Dict[str, float]:
        pool_s = repeat_s * SWEEP_WORKERS
        probes = [self.engine.dispatch_overhead_s()
                  for _ in range(DISPATCH_PROBES)]
        return {
            "sweep.dispatch_overhead_ms": statistics.median(probes) * 1e3,
            "sweep.overhead_ms_per_point":
                (pool_s - self.inline_s) / self.items * 1e3,
            "sweep.parallel_efficiency": self.inline_s / pool_s,
            "sweep.batches": self.engine.last_batches,
            "explore.transactions": sum(
                master.completed for result in self.traced_results
                for master in result.masters),
        }

    def peak_rss_kib(self) -> int:
        # the pool workers are alive, so read their high-water marks
        workers = [_peak_rss_of(pid) for pid in self.engine.pool_pids()]
        return super().peak_rss_kib() + max(workers, default=0)

    def close(self) -> None:
        self.engine.close()
        super().close()


def _peak_rss_of(pid: int) -> int:
    """A live process's peak RSS in KiB (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


#: Share of the E3 workloads' transactions a cold point simulates, so
#: that one pass over the 80 points takes about 0.25 s.
COLD_SCALE = 0.25


def cold_points(seed: int) -> List[SweepPoint]:
    """The E3 space: 5 fabrics x 2 arbiters x 2 clocks x 2 max bursts,
    over the ``mixed`` and ``contended`` workloads (80 points)."""
    space = DesignSpace(
        fabrics=FABRICS,
        arbiters=("static-priority", "round-robin"),
        clock_periods=(ns(10), ns(20)),
        max_bursts=(8, 16),
    )
    workloads = standard_workloads()
    return [point for name in ("mixed", "contended")
            for point in points_for_space(
                space, [spec.scaled(COLD_SCALE) for spec in workloads[name]],
                workload=name, seed=seed)]


class SweepColdWorkload(SweepWorkload):
    """Every point simulated by the workers into a fresh store."""

    name = "sweep_cold"

    def __init__(self, seed: int, work_dir: str,
                 points: Optional[int] = None):
        super().__init__(work_dir, cold_points(seed)[:points])
        self._stores = 0

    def repeat(self) -> None:
        self._stores += 1
        self.engine.store = SweepStore(
            os.path.join(self.work_dir, f"store{self._stores}"))
        super().repeat()


#: Boot-phase and measured transactions of a warm-start point, as in
#: ``benchmarks/run_all.py``: the boot carries 10x the measured work.
BOOT_TRANSACTIONS = 400
MEASURED_TRANSACTIONS = 40
#: Measured variants per family: one pass over the 80 points takes
#: about 0.2 s.
WARM_VARIANTS = 8


def warm_points(seed: int, variants: int = WARM_VARIANTS
                ) -> List[SweepPoint]:
    """10 checkpoint families (5 fabrics x 2 arbiters) x ``variants``
    measured traffic variants drawn from ``seed``.

    Every variant keeps the boot phase's address regions, so all
    variants of one architecture share that architecture's checkpoint.
    """
    cpu = dict(pattern="random", base=0x0, size=1 << 14, burst_length=1,
               priority=0)
    dma = dict(pattern="stream", base=0x100000, size=1 << 14,
               burst_length=8, priority=1)
    boot = BootSpec(specs=(
        MasterTrafficSpec("boot_cpu", gap=ns(40),
                          transactions=BOOT_TRANSACTIONS, **cpu),
        MasterTrafficSpec("boot_dma", gap=ns(60),
                          transactions=BOOT_TRANSACTIONS, **dma),
    ), until=ms(1))
    space = DesignSpace(fabrics=FABRICS,
                        arbiters=("static-priority", "round-robin"))
    rng = random.Random(f"sweep_warm:{seed}")
    points = []
    for variant in range(variants):
        specs = (
            MasterTrafficSpec("cpu", gap=ns(rng.randint(20, 60)),
                              read_fraction=round(rng.uniform(0.5, 0.9), 2),
                              transactions=MEASURED_TRANSACTIONS, **cpu),
            MasterTrafficSpec("dma", gap=ns(rng.randint(40, 80)),
                              read_fraction=round(rng.uniform(0.0, 0.5), 2),
                              transactions=MEASURED_TRANSACTIONS, **dma),
        )
        points.extend(points_for_space(
            space, specs, workload=f"variant{variant}", max_sim_time=ms(5),
            seed=seed, boot=boot))
    return points


class SweepWarmWorkload(SweepWorkload):
    """Every point resumed from its family's boot checkpoint."""

    name = "sweep_warm"

    def __init__(self, seed: int, work_dir: str,
                 variants: Optional[int] = None):
        checkpoint_dir = os.path.join(work_dir, "checkpoints")
        super().__init__(work_dir,
                         warm_points(seed, variants or WARM_VARIANTS),
                         checkpoint_dir=checkpoint_dir, warm_start=True)
        self.checkpoint_dir = checkpoint_dir
        #: family key -> (checkpoint digest, index of its first point)
        self.families: Dict[str, tuple] = {}
        for index, point in enumerate(self.points):
            family = point.family_key()
            if family not in self.families:
                digest = materialize_boot_checkpoint(
                    point.to_payload(), checkpoint_dir, family)
                self.families[family] = (digest, index)
        self._snapshots: Dict[str, dict] = {}
        self.restore_s: List[float] = []
        self.warm_points = 0

    def repeat(self) -> None:
        super().repeat()
        self.warm_points = self.engine.last_warm_points

    def _inline_kwargs(self, point: SweepPoint) -> dict:
        kwargs = decode_payload(point.to_payload())
        digest = self.families[point.family_key()][0]
        if digest not in self._snapshots:
            self._snapshots[digest] = Checkpoint.load(
                self.checkpoint_dir, digest).snapshot
        kwargs["warm_snapshot"] = self._snapshots[digest]
        return kwargs

    def _check_reference(self) -> None:
        # one point per family: the warm inline row must equal a cold
        # run that simulates the boot phase itself
        self.attempted += len(self.families)
        for _, index in self.families.values():
            point = self.points[index]
            cold = run_point(**decode_payload(point.to_payload()))
            if result_row(cold) != self.reference_rows[index]:
                self.fail(1, f"{point.label()}: warm-started row differs "
                             f"from the cold run")

    def traced_repeat(self, tracer) -> float:
        # reload checkpoints inside the trace so loading is measured
        self._snapshots = {}
        self.restore_s = []
        return super().traced_repeat(tracer)

    def _traced_point(self, tracer, point: SweepPoint):
        timings: dict = {}
        result = run_point(observer=tracer.observer, timings=timings,
                           **self._inline_kwargs(point))
        self.restore_s.append(timings["restore_s"])
        return result

    def layer_extras(self, repeat_s: float) -> Dict[str, float]:
        extras = super().layer_extras(repeat_s)
        extras["snapshot.restore_ms"] = (
            statistics.median(self.restore_s) * 1e3 if self.restore_s
            else 0.0)
        extras["snapshot.warm_frac"] = self.warm_points / self.items
        return extras


# ---------------------------------------------------------------------------


WORKLOAD_NAMES = ("flow_pv", "flow_cam", "flow_pin", "sweep_cold",
                  "sweep_warm")


def make_workload(name: str, seed: int, root: str,
                  size: Optional[int] = None) -> Workload:
    """Build (set up) workload ``name``; its files live under ``root``.

    ``size`` shrinks the workload for tests: blocks for the flows,
    points for ``sweep_cold``, variants per family for ``sweep_warm``.
    Flow inputs come from ``generate_block`` alone, so ``seed`` does not
    change them.
    """
    if name not in WORKLOAD_NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of "
                         f"{WORKLOAD_NAMES}")
    os.makedirs(root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=root)
    if name in FLOWS:
        return FlowWorkload(name, work_dir, blocks=size)
    if name == "sweep_cold":
        return SweepColdWorkload(seed, work_dir, points=size)
    return SweepWarmWorkload(seed, work_dir, variants=size)
