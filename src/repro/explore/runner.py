"""Exploration runner: build, simulate, measure one config at a time.

The paper's claim is that CAMs enable *fast yet timing-accurate
communication architecture exploration*; this runner is the loop that
claim powers.  For each :class:`~repro.explore.space.ArchitectureConfig`
it builds a fresh simulation (fabric + memories + traffic masters), runs
it to workload completion, and extracts the metrics designers sweep on:
per-master latency, aggregate throughput, and fabric utilization —
plus wall-clock cost, so exploration speed itself is measurable (E1/E3).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.kernel.context import SimContext
from repro.kernel.errors import SimulationError
from repro.kernel.module import Module
from repro.kernel.simtime import SimTime, us
from repro.cam.arbiters import make_arbiter
from repro.cam.amba import AhbBus
from repro.cam.bus import GenericBus
from repro.cam.coreconnect import OpbBus, PlbBus
from repro.cam.crossbar import CrossbarCam
from repro.cam.memory import MemorySlave
from repro.explore.space import ArchitectureConfig
from repro.explore.workload import MasterTrafficSpec, TrafficMaster


@dataclass
class MasterMetrics:
    """Measured behaviour of one traffic master.

    ``latency_series`` is the per-transaction latency series (ns
    floats, completion order), present only when the point ran with
    ``record_series=True`` — the raw material of steady-state
    estimation in :mod:`repro.stats.steady`.  ``target`` is the
    transaction count the master was asked for (None for an unbounded
    master, and for results stored before the field existed).
    """

    name: str
    completed: int
    errors: int
    bytes_done: int
    mean_latency_ns: float
    max_latency_ns: float
    latency_series: Optional[List[float]] = None
    target: Optional[int] = None

    def to_dict(self) -> dict:
        """JSON-able dict of every field.

        The series key is emitted only when a series was recorded, so
        series-free results keep their historical (compact) shape.
        """
        data = {
            "name": self.name,
            "completed": self.completed,
            "errors": self.errors,
            "bytes_done": self.bytes_done,
            "mean_latency_ns": self.mean_latency_ns,
            "max_latency_ns": self.max_latency_ns,
            "target": self.target,
        }
        if self.latency_series is not None:
            data["latency_series"] = list(self.latency_series)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MasterMetrics":
        """Rebuild from :meth:`to_dict` output."""
        series = data.get("latency_series")
        return cls(
            name=data["name"],
            completed=data["completed"],
            errors=data["errors"],
            bytes_done=data["bytes_done"],
            mean_latency_ns=data["mean_latency_ns"],
            max_latency_ns=data["max_latency_ns"],
            latency_series=None if series is None else list(series),
            target=data.get("target"),
        )


@dataclass
class BootSpec:
    """The warm-up phase a checkpointable design point boots through.

    ``specs`` drive the fabric from time zero (cache/arbiter/statistics
    warming); they must finish before ``until``, the boot horizon at
    which the platform is quiescent and a checkpoint can be captured.
    Measured traffic (the point's real workload) starts one
    femtosecond *after* the horizon, so a run restored from the boot
    checkpoint replays the measured phase bit-identically to a cold run
    that simulated the boot inline.
    """

    specs: Sequence[MasterTrafficSpec]
    until: SimTime

    def __post_init__(self):
        if not isinstance(self.specs, tuple):
            self.specs = tuple(self.specs)
        if self.until._fs <= 0:
            raise ValueError("boot horizon must be positive")

    def to_dict(self) -> dict:
        """JSON-able dict (``until`` as integer femtoseconds)."""
        return {
            "until_fs": self.until.femtoseconds,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BootSpec":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            specs=tuple(
                MasterTrafficSpec.from_dict(s) for s in data["specs"]
            ),
            until=SimTime(data["until_fs"]),
        )


@dataclass
class FaultSpec:
    """Fault rates for one exploration point (``run_point(faults=...)``).

    Translated into a seeded :class:`repro.faults.FaultPlan` plus
    injectors on the point's private fabric and memories, so a sweep can
    vary fault pressure exactly like any other architecture parameter.
    """

    seed: int = 1
    bus_error_rate: float = 0.0
    decode_miss_rate: float = 0.0
    mem_flip_period: Optional[SimTime] = None

    @property
    def active(self) -> bool:
        """True when any fault kind is enabled."""
        return bool(
            self.bus_error_rate
            or self.decode_miss_rate
            or self.mem_flip_period is not None
        )

    def to_dict(self) -> dict:
        """JSON-able dict (``mem_flip_period`` as integer fs or None)."""
        return {
            "seed": self.seed,
            "bus_error_rate": self.bus_error_rate,
            "decode_miss_rate": self.decode_miss_rate,
            "mem_flip_period_fs": (
                None if self.mem_flip_period is None
                else self.mem_flip_period.femtoseconds
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        """Rebuild from :meth:`to_dict` output."""
        period_fs = data.get("mem_flip_period_fs")
        return cls(
            seed=data["seed"],
            bus_error_rate=data["bus_error_rate"],
            decode_miss_rate=data["decode_miss_rate"],
            mem_flip_period=None if period_fs is None
            else SimTime(period_fs),
        )


@dataclass(frozen=True)
class FaultSummary:
    """Serializable read-only view of a point's fault activity.

    A live :class:`repro.faults.FaultPlan` does not round-trip through
    JSON (it holds an RNG and the full record log); what sweep reports
    and golden files consume is the per-kind fault counts and the
    plan's SHA-256 digest.  ``FaultSummary`` carries exactly those, with
    the same accessor names as ``FaultPlan``, so code rendering sweep
    output works identically on a freshly-computed result (live plan)
    and a cache-reconstituted one (summary).
    """

    counts: Dict[str, int]
    sha256: str

    def counts_by_kind(self) -> Dict[str, int]:
        """``{kind: count}`` over the recorded faults, sorted by kind."""
        return dict(sorted(self.counts.items()))

    def digest(self) -> str:
        """SHA-256 digest of the originating plan's full summary."""
        return self.sha256

    @classmethod
    def capture(cls, fault_plan) -> Optional["FaultSummary"]:
        """Summarize a ``FaultPlan`` (or pass a summary through)."""
        if fault_plan is None:
            return None
        if isinstance(fault_plan, FaultSummary):
            return fault_plan
        return cls(
            counts=dict(fault_plan.counts_by_kind()),
            sha256=fault_plan.digest(),
        )


@dataclass
class ExplorationResult:
    """All metrics for one design point."""

    config: ArchitectureConfig
    workload: str
    masters: List[MasterMetrics]
    sim_time_ns: float
    wall_seconds: float
    utilization: float
    total_bytes: int
    #: the point's FaultPlan when run with ``faults=``, else None
    fault_plan: Optional[object] = None

    @property
    def mean_latency_ns(self) -> float:
        """Completion-weighted mean latency over all masters."""
        total = sum(m.mean_latency_ns * m.completed for m in self.masters)
        count = sum(m.completed for m in self.masters)
        return total / count if count else 0.0

    @property
    def throughput_mbps(self) -> float:
        """Aggregate throughput in MB/s of simulated time."""
        if self.sim_time_ns <= 0:
            return 0.0
        return self.total_bytes / (self.sim_time_ns * 1e-9) / 1e6

    @property
    def truncated(self) -> bool:
        """True when the run bound stopped a master short of its
        transaction count."""
        return any(m.target is not None and m.completed < m.target
                   for m in self.masters)

    @property
    def all_done(self) -> bool:
        """True when every master finished its transaction count and
        none saw an error response."""
        return not self.truncated and all(m.errors == 0
                                          for m in self.masters)

    def as_row(self) -> Dict[str, object]:
        """Flat dict for tables and CSV export."""
        return {
            "config": self.config.name,
            "workload": self.workload,
            "mean_latency_ns": round(self.mean_latency_ns, 2),
            "throughput_mbps": round(self.throughput_mbps, 2),
            "utilization": round(self.utilization, 4),
            "sim_time_us": round(self.sim_time_ns / 1e3, 2),
            "wall_s": round(self.wall_seconds, 4),
        }

    def to_dict(self) -> dict:
        """Canonical JSON-able dict of the whole result.

        SimTime-bearing fields serialize as integer femtoseconds (via
        the nested ``to_dict`` calls) and a live ``fault_plan`` is
        reduced to its :class:`FaultSummary`, so the output is stable
        across processes and Python versions — the representation the
        sweep cache stores and workers ship back.
        """
        summary = FaultSummary.capture(self.fault_plan)
        return {
            "config": self.config.to_dict(),
            "workload": self.workload,
            "masters": [m.to_dict() for m in self.masters],
            "sim_time_ns": self.sim_time_ns,
            "wall_seconds": self.wall_seconds,
            "utilization": self.utilization,
            "total_bytes": self.total_bytes,
            "fault": (
                None if summary is None
                else {"counts": summary.counts_by_kind(),
                      "sha256": summary.sha256}
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExplorationResult":
        """Rebuild from :meth:`to_dict` output.

        The ``fault_plan`` slot comes back as a :class:`FaultSummary`
        (counts + digest), not a live plan — enough for every report
        and golden-file consumer.
        """
        fault = data.get("fault")
        return cls(
            config=ArchitectureConfig.from_dict(data["config"]),
            workload=data["workload"],
            masters=[MasterMetrics.from_dict(m) for m in data["masters"]],
            sim_time_ns=data["sim_time_ns"],
            wall_seconds=data["wall_seconds"],
            utilization=data["utilization"],
            total_bytes=data["total_bytes"],
            fault_plan=(
                None if fault is None
                else FaultSummary(counts=dict(fault["counts"]),
                                  sha256=fault["sha256"])
            ),
        )


def _build_arbiter(config: ArchitectureConfig,
                   specs: Sequence[MasterTrafficSpec]):
    if config.arbiter == "tdma":
        return make_arbiter(
            "tdma",
            schedule=[s.name for s in specs],
            slot_cycles=config.tdma_slot_cycles,
        )
    return make_arbiter(config.arbiter)


def build_fabric(config: ArchitectureConfig, parent: Module,
                 specs: Sequence[MasterTrafficSpec], metrics=None):
    """Instantiate the fabric a config describes.

    ``metrics`` optionally hands the bus fabrics a
    :class:`repro.obs.MetricsRegistry` to publish into (the crossbar
    keeps its own per-path accounting and ignores it).
    """
    arbiter = _build_arbiter(config, specs)
    if config.fabric == "plb":
        return PlbBus("fabric", parent, clock_period=config.clock_period,
                      arbiter=arbiter, metrics=metrics)
    if config.fabric == "opb":
        return OpbBus("fabric", parent, clock_period=config.clock_period,
                      arbiter=arbiter, metrics=metrics)
    if config.fabric == "ahb":
        return AhbBus("fabric", parent, clock_period=config.clock_period,
                      arbiter=arbiter, metrics=metrics)
    if config.fabric == "generic":
        return GenericBus("fabric", parent,
                          clock_period=config.clock_period,
                          arbiter=arbiter, metrics=metrics)
    # crossbar: a fresh arbiter per path
    return CrossbarCam(
        "fabric", parent, clock_period=config.clock_period,
        arbiter_factory=lambda: _build_arbiter(config, specs),
    )


def _clamped_spec(spec: MasterTrafficSpec,
                  config: ArchitectureConfig) -> MasterTrafficSpec:
    """The spec with its burst clamped to the config's ``max_burst``."""
    if spec.burst_length <= config.max_burst:
        return spec
    return MasterTrafficSpec(
        name=spec.name, pattern=spec.pattern, base=spec.base,
        size=spec.size, burst_length=config.max_burst,
        gap=spec.gap, read_fraction=spec.read_fraction,
        transactions=spec.transactions, priority=spec.priority,
        word_bytes=spec.word_bytes,
    )


def point_regions(specs: Sequence[MasterTrafficSpec],
                  boot: Optional[BootSpec] = None) -> List[tuple]:
    """Ordered distinct ``(base, size)`` regions of a design point.

    Boot regions come first so the boot-only capture context and the
    full (measured) context create memories in the same order under the
    same names — the alignment a checkpoint restore relies on.  The
    region list is part of a point's checkpoint family identity.
    """
    regions: List[tuple] = []
    ordered = list(boot.specs) if boot is not None else []
    ordered.extend(specs)
    for spec in ordered:
        if (spec.base, spec.size) not in regions:
            regions.append((spec.base, spec.size))
    return regions


def _build_point(
    config: ArchitectureConfig,
    specs: Sequence[MasterTrafficSpec],
    seed: int,
    memory_read_wait: int,
    memory_write_wait: int,
    metrics=None,
    observer=None,
    faults: Optional[FaultSpec] = None,
    rng_streams: bool = False,
    record_series: bool = False,
    boot: Optional[BootSpec] = None,
    include_measured: bool = True,
):
    """Instantiate one design point's simulation.

    Returns ``(ctx, masters, fabric, fault_plan)`` where ``masters``
    are the *measured* traffic masters (empty when
    ``include_measured=False``, the boot-checkpoint capture form).  The
    boot-only build is an exact structural prefix of the full build —
    same fabric, memories, injectors and boot masters, in the same
    creation order — so state captured from one restores into the
    other.
    """
    if boot is not None:
        boot_names = {s.name for s in boot.specs}
        clash = boot_names.intersection(s.name for s in specs)
        if clash:
            raise SimulationError(
                f"boot and measured master names collide: {sorted(clash)}"
            )
    ctx = SimContext(name=f"explore_{config.name}")
    top = Module("top", ctx=ctx)
    all_specs = (list(boot.specs) if boot is not None else []) + list(specs)
    fabric = build_fabric(config, top, all_specs, metrics=metrics)
    if observer is not None:
        ctx.attach_observer(observer)
    fault_plan = None
    if faults is not None and faults.active:
        from repro.faults import (
            BusFaultInjector,
            FaultPlan,
            FaultRule,
            MemoryFaultInjector,
        )

        fault_plan = FaultPlan(seed=faults.seed, metrics=metrics)
        if faults.bus_error_rate or faults.decode_miss_rate:
            fabric.fault_injector = BusFaultInjector(
                fault_plan,
                error=(FaultRule(probability=faults.bus_error_rate)
                       if faults.bus_error_rate else None),
                decode=(FaultRule(probability=faults.decode_miss_rate)
                        if faults.decode_miss_rate else None),
            )
    # One memory per distinct address region.  Disjoint regions give the
    # crossbar its concurrency opportunity; masters sharing a region
    # (the "contended" workload) share one slave, which is where
    # slave-side contention dominates and fabrics converge.
    for i, (base, size) in enumerate(point_regions(specs, boot)):
        memory = MemorySlave(
            f"mem{i}", top, size=size,
            read_wait=memory_read_wait, write_wait=memory_write_wait,
        )
        fabric.attach_slave(memory, base, size)
        if fault_plan is not None and faults.mem_flip_period is not None:
            MemoryFaultInjector(
                f"seu{i}", top, memory=memory, plan=fault_plan,
                period=faults.mem_flip_period,
            )
    if boot is not None:
        for spec in boot.specs:
            socket = fabric.master_socket(spec.name,
                                          priority=spec.priority)
            TrafficMaster(f"tm_{spec.name}", top, socket=socket,
                          spec=_clamped_spec(spec, config), seed=seed,
                          rng_streams=rng_streams)
    masters = []
    if include_measured:
        # Measured traffic starts one femtosecond past the boot
        # horizon: the boot run's event loop fires entries *at* the
        # horizon, so anything scheduled there would already have run
        # before the checkpoint was captured.
        start_time = (SimTime(boot.until._fs + 1)
                      if boot is not None else None)
        for spec in specs:
            socket = fabric.master_socket(spec.name,
                                          priority=spec.priority)
            masters.append(
                TrafficMaster(f"tm_{spec.name}", top, socket=socket,
                              spec=_clamped_spec(spec, config), seed=seed,
                              rng_streams=rng_streams,
                              record_series=record_series,
                              start_time=start_time)
            )
    return ctx, masters, fabric, fault_plan


def run_point(
    config: ArchitectureConfig,
    specs: Sequence[MasterTrafficSpec],
    workload_name: str = "workload",
    max_sim_time: SimTime = us(10_000),
    seed: int = 1,
    memory_read_wait: int = 1,
    memory_write_wait: int = 1,
    metrics=None,
    observer=None,
    faults: Optional[FaultSpec] = None,
    rng_streams: bool = False,
    record_series: bool = False,
    boot: Optional[BootSpec] = None,
    warm_snapshot: Optional[dict] = None,
    timings: Optional[dict] = None,
) -> ExplorationResult:
    """Simulate one design point to workload completion.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) and ``observer``
    (a :class:`repro.obs.SimObserver`) instrument this point's private
    simulation — profile or trace a single design point without
    slowing the rest of the sweep.  ``faults`` (a :class:`FaultSpec`)
    injects seeded bus errors, decode misses and memory bit flips into
    this point; the resulting ``repro.faults.FaultPlan`` rides back on
    :attr:`ExplorationResult.fault_plan`.  ``rng_streams`` switches the
    traffic masters to per-``(master, stream)`` RNG substreams (the
    common-random-numbers discipline of :mod:`repro.stats`), and
    ``record_series`` exports each master's per-transaction latency
    series on its :class:`MasterMetrics` for steady-state estimation.

    ``boot`` prepends a warm-up phase (see :class:`BootSpec`); the
    measured masters then start one femtosecond past the boot horizon.
    ``warm_snapshot`` (a :func:`repro.snapshot.capture_state` dict of
    the boot phase) skips simulating the boot: the fresh build is
    restored from the snapshot and only the measured phase runs —
    bit-identical to the cold (boot-inline) run by construction.
    ``timings`` (a dict, when given) receives ``restore_s``, the
    wall-clock cost of the state restore.
    """
    ctx, masters, fabric, fault_plan = _build_point(
        config, specs, seed, memory_read_wait, memory_write_wait,
        metrics=metrics, observer=observer, faults=faults,
        rng_streams=rng_streams, record_series=record_series, boot=boot,
    )
    if warm_snapshot is not None:
        restore_t0 = time.perf_counter()
        extras = (
            {"fault_plan": fault_plan} if fault_plan is not None else None
        )
        ctx.resume(warm_snapshot, extras=extras)
        if timings is not None:
            timings["restore_s"] = time.perf_counter() - restore_t0
    wall_start = time.perf_counter()
    ctx.run(max_sim_time)
    wall = time.perf_counter() - wall_start
    metrics = [
        MasterMetrics(
            name=m.spec.name,
            completed=m.completed,
            errors=m.errors,
            bytes_done=m.bytes_done,
            mean_latency_ns=m.latency.mean_ns,
            max_latency_ns=m.latency.max_ns,
            latency_series=m.latency_series,
            target=m.spec.transactions,
        )
        for m in masters
    ]
    # Measure over the active window, not the run bound: a finite
    # workload usually finishes long before max_sim_time.
    end = max((m.last_done for m in masters), default=ctx.now)
    if end.is_zero:
        end = ctx.now
    return ExplorationResult(
        config=config,
        workload=workload_name,
        masters=metrics,
        sim_time_ns=end.to("ns"),
        wall_seconds=wall,
        utilization=fabric.utilization(until=end),
        total_bytes=sum(m.bytes_done for m in metrics),
        fault_plan=fault_plan,
    )


def decode_payload(payload: dict) -> dict:
    """Turn a plain-JSON point payload into :func:`run_point` kwargs.

    The payload format is :meth:`repro.sweep.SweepPoint.to_payload`
    output, but decoding lives here — every field is an explore-level
    type, and the sweep worker pool needs exactly this module (and not
    the sweep package) importable on its hot path.
    """
    faults = payload.get("faults")
    return {
        "config": ArchitectureConfig.from_dict(payload["config"]),
        "specs": [
            MasterTrafficSpec.from_dict(s) for s in payload["specs"]
        ],
        "workload_name": payload["workload"],
        "max_sim_time": SimTime(payload["max_sim_time_fs"]),
        "seed": payload["seed"],
        "faults": None if faults is None else FaultSpec.from_dict(faults),
        "memory_read_wait": payload["memory_read_wait"],
        "memory_write_wait": payload["memory_write_wait"],
        # .get() keeps payloads from pre-stats callers decodable.
        "rng_streams": payload.get("rng_streams", False),
        "record_series": payload.get("record_series", False),
        "boot": (
            None if payload.get("boot") is None
            else BootSpec.from_dict(payload["boot"])
        ),
    }


#: Payload key carrying warm-start directions (``{"dir", "digest"}``).
#: The sweep engine annotates payloads with it *after* cache-key
#: resolution, so warm-start is a transport detail, never part of a
#: point's identity — warm and cold runs share keys, caches and golden
#: files by construction.
WARM_START_KEY = "__warm_start__"

#: Process-global digest-keyed checkpoint cache.  A warm worker loads
#: and verifies each family checkpoint once, then restores every point
#: of that family from the in-memory snapshot.
_checkpoint_cache: Dict[str, object] = {}


def _load_warm_snapshot(warm: dict) -> dict:
    """The (cached) verified snapshot a warm-start direction points at."""
    from repro.snapshot import Checkpoint

    digest = warm["digest"]
    checkpoint = _checkpoint_cache.get(digest)
    if checkpoint is None:
        checkpoint = Checkpoint.load(warm["dir"], digest)
        _checkpoint_cache[digest] = checkpoint
    return checkpoint.snapshot


def materialize_boot_checkpoint(payload: dict, directory: str,
                                family_key: str) -> str:
    """Simulate a payload's boot phase and checkpoint it; return digest.

    Builds the point's *boot-only* form (fabric, memories, fault
    injectors and boot masters — no measured masters), runs it to the
    boot horizon, and saves the captured state under
    ``checkpoint_digest(family_key, horizon_fs)`` in *directory*.  An
    existing file for that digest short-circuits: checkpoints are
    content-addressed, so a hit is the same bytes.  Raises
    :class:`repro.snapshot.CheckpointError` when the payload has no
    boot phase or the boot masters did not finish by the horizon (a
    checkpoint of an unfinished boot would leak boot traffic into the
    measured phase).
    """
    from repro.snapshot import Checkpoint, CheckpointError, checkpoint_digest

    kwargs = decode_payload(payload)
    boot = kwargs["boot"]
    if boot is None:
        raise CheckpointError("payload has no boot phase to checkpoint")
    digest = checkpoint_digest(family_key, boot.until._fs)
    if os.path.exists(Checkpoint.path_for(directory, digest)):
        return digest
    ctx, _, _, fault_plan = _build_point(
        kwargs["config"], kwargs["specs"], kwargs["seed"],
        kwargs["memory_read_wait"], kwargs["memory_write_wait"],
        faults=kwargs["faults"], rng_streams=kwargs["rng_streams"],
        boot=boot, include_measured=False,
    )
    ctx.run(boot.until)
    unfinished = [
        spec.name for spec in boot.specs
        if not ctx.objects[f"top.tm_{spec.name}"].done
    ]
    if unfinished:
        raise CheckpointError(
            f"boot masters unfinished at horizon: {unfinished} — raise the "
            "boot horizon or shrink the boot workload"
        )
    extras = {"fault_plan": fault_plan} if fault_plan is not None else None
    checkpoint = Checkpoint.capture(
        ctx, config_key=family_key, extras=extras,
        meta={"boot_until_fs": boot.until._fs,
              "config": kwargs["config"].name},
    )
    checkpoint.save(directory)
    _checkpoint_cache[digest] = checkpoint
    return digest


def _error_marker(exc: Exception) -> dict:
    # Lazy import: repro.sweep imports this module at package-import
    # time, so the reverse dependency must resolve at call time only.
    from repro.snapshot import CheckpointError, SnapshotError
    from repro.sweep.recovery import (
        failure_from_exception,
        failure_from_restore,
    )

    if isinstance(exc, (CheckpointError, SnapshotError)):
        return {"__sweep_error__": failure_from_restore(exc)}
    return {"__sweep_error__": failure_from_exception(exc)}


def run_payload_batch(payloads: Sequence[dict],
                      keys: Optional[Sequence[str]] = None,
                      worker_id=None, telemetry: bool = False):
    """Simulate a batch of point payloads in order; one result dict each.

    The sweep's one batch runner: every :class:`repro.sweep.WorkerPool`
    worker calls it on each shard it receives, and the engine calls it
    in-process when it runs without a pool.  Each point takes the same
    ``decode_payload → run_point → to_dict`` round-trip, so a result is
    bit-identical wherever it was computed.  Payloads are plain JSON,
    so they cross a process boundary without any simulation class
    needing pickle support.  A point that raises yields an
    ``{"__sweep_error__": {...}}`` marker in its slot instead of
    aborting the batch; the engine decides whether it is retried or
    quarantined.

    With ``telemetry`` every point also records wall-clock ``setup`` /
    ``restore`` / ``simulate`` / ``serialize`` spans, labelled with the
    config name and, when ``keys`` (parallel to ``payloads``) is given,
    the content key.  The simulation is the same call with telemetry
    on or off, and the batch imports nothing from :mod:`repro.obs`
    either way.

    Returns ``(result_dicts, blob)``.  ``blob`` is ``None`` with
    telemetry off; otherwise it is JSON-able: ``worker_id``, ``pid``,
    batch ``t0``/``t1``, ``points`` and ``spans`` (each ``{"name",
    "t0", "t1", "args"}`` in wall-clock seconds).
    """
    pid = os.getpid()
    spans: List[dict] = []
    results: List[dict] = []
    batch_t0 = time.time()
    for index, payload in enumerate(payloads):
        t0 = time.time()
        warm_started = False
        timings: dict = {}
        try:
            kwargs = decode_payload(payload)
            warm = payload.get(WARM_START_KEY)
            t1 = time.time()
            if warm is not None and kwargs["boot"] is not None:
                load_t0 = time.perf_counter()
                kwargs["warm_snapshot"] = _load_warm_snapshot(warm)
                timings["load_s"] = time.perf_counter() - load_t0
                warm_started = True
            result = run_point(timings=timings, **kwargs)
            t2 = time.time()
            data = result.to_dict()
            t3 = time.time()
        except Exception as exc:
            results.append(_error_marker(exc))
            continue
        results.append(data)
        if not telemetry:
            continue
        args = {"point": kwargs["config"].name}
        key = keys[index] if keys is not None else None
        if key is not None:
            args["key"] = key
        # A warm point splits [t1, t2] into restore (checkpoint load +
        # state overlay) and simulate; the restore wall time comes from
        # the run itself so the span boundary is exact.
        sim_begin = t1 + (timings.get("load_s", 0.0)
                          + timings.get("restore_s", 0.0))
        named_spans = [("setup", t0, t1)]
        if warm_started:
            named_spans.append(("restore", t1, sim_begin))
        named_spans.extend((("simulate", sim_begin, t2),
                            ("serialize", t2, t3)))
        for name, begin, end in named_spans:
            spans.append({"name": name, "t0": begin, "t1": end,
                          "args": dict(args)})
    if not telemetry:
        return results, None
    return results, {
        "worker_id": worker_id,
        "pid": pid,
        "t0": batch_t0,
        "t1": time.time(),
        "points": len(results),
        "spans": spans,
    }


def explore(
    space: Iterable[ArchitectureConfig],
    specs: Sequence[MasterTrafficSpec],
    workload_name: str = "workload",
    max_sim_time: SimTime = us(10_000),
    seed: int = 1,
) -> List[ExplorationResult]:
    """Sweep every configuration in ``space`` over one workload."""
    return [
        run_point(config, specs, workload_name=workload_name,
                  max_sim_time=max_sim_time, seed=seed)
        for config in space
    ]


def pareto_front(
    results: Sequence[ExplorationResult],
) -> List[ExplorationResult]:
    """Non-dominated points for (latency down, throughput up)."""
    front = []
    for candidate in results:
        dominated = False
        for other in results:
            if other is candidate:
                continue
            if (other.mean_latency_ns <= candidate.mean_latency_ns
                    and other.throughput_mbps >= candidate.throughput_mbps
                    and (other.mean_latency_ns < candidate.mean_latency_ns
                         or other.throughput_mbps
                         > candidate.throughput_mbps)):
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    return front


def fixed_width_table(rows: Sequence[dict]) -> str:
    """Left-aligned columns two spaces apart under a dashed rule.

    The headers are the first row's keys; an empty table renders as
    ``(no results)``.
    """
    if not rows:
        return "(no results)"
    headers = list(rows[0])
    cells = [[str(row[h]) for h in headers] for row in rows]
    widths = [max(len(h), *(len(line[i]) for line in cells))
              for i, h in enumerate(headers)]
    lines = [headers, ["-" * w for w in widths]] + cells
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths))
        for line in lines
    )


def format_table(results: Sequence[ExplorationResult]) -> str:
    """Human-readable exploration table (one row per design point)."""
    return fixed_width_table([r.as_row() for r in results])
