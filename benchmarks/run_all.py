"""Benchmark trajectory harness for the simulation kernel.

Runs a fixed set of kernel-throughput workloads plus the E1
abstraction-level comparison, writes ``BENCH_kernel.json`` at the repo
root (events/sec, wall time, speedup vs. the recorded baseline in
``benchmarks/baseline.json``), and **fails loudly** — non-zero exit —
when any workload regresses more than 10% against that baseline.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py            # full run
    PYTHONPATH=src python benchmarks/run_all.py --quick --output q.json
    PYTHONPATH=src python benchmarks/run_all.py --write-baseline

``--quick`` scales every workload down ~10x so the whole harness runs
in seconds; quick numbers are too noisy to gate on, so the timing
regression checks are skipped and the JSON is flagged
``"quick": true``.  Quick mode needs an explicit ``--output``, so a
smoke run can never overwrite the committed full-mode trajectory, and
it refuses ``--write-baseline``.  The deterministic observability
checks — an attached observer must see kernel hooks, a detached one
must see none — gate in every mode, and full runs additionally require
the obs-disabled ``timed_storm`` rate to stay within
``OBS_OFF_TOLERANCE`` (2%) of the recorded baseline, proving
instrumentation is free when off.

``--write-baseline`` re-records ``benchmarks/baseline.json`` from the
current run — do this only on a commit whose numbers you want future
runs measured against.

The sweep path (dispatch, warm start, cache) is timed and verified by
``perfbench/bench.py`` (workloads ``sweep_cold`` and ``sweep_warm``);
its byte-identity gates live in the tier-1 tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

# Make the package and the sibling bench modules importable no matter
# where the harness is invoked from.
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.kernel import Clock, Event, EventQueue, Module, SimContext, ns

REGRESSION_TOLERANCE = 0.10   # fail when >10% below baseline
#: The observability layer must be free when disabled: the obs-off
#: timed_storm rate may not sit more than 2% below the recorded
#: baseline (full runs only; quick numbers are too noisy).
OBS_OFF_TOLERANCE = 0.02
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_kernel.json"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baseline.json"


# ---------------------------------------------------------------------------
# Kernel-throughput workloads.  Each returns (units, wall_seconds) where
# ``units`` is the number of scheduler-visible operations performed, so
# units/wall is an events-per-second figure comparable across kernels.
# ---------------------------------------------------------------------------

def timed_storm(scale: float, observer=None):
    """Pure timed-wait throughput: independent periodic threads.

    ``observer`` optionally attaches a :class:`repro.obs.SimObserver`
    before the run — the overhead experiment times the same workload
    with and without one.
    """
    n_procs, n_waits = 20, max(1, int(2000 * scale))
    ctx = SimContext()

    def make(i):
        period = ns(10 + i)

        def body():
            for _ in range(n_waits):
                yield period
        return body

    for i in range(n_procs):
        ctx.register_thread(make(i), f"p{i}")
    if observer is not None:
        ctx.attach_observer(observer)
    start = time.perf_counter()
    ctx.run()
    return n_procs * n_waits, time.perf_counter() - start


def timed_events(scale: float):
    """notify_after storm: timed event notifications with waiters."""
    n_events, n_rounds = 30, max(1, int(1500 * scale))
    ctx = SimContext()
    events = [Event(ctx, f"e{i}") for i in range(n_events)]

    def make_waiter(ev):
        def body():
            while True:
                yield ev
        return body

    def driver():
        for _ in range(n_rounds):
            for i, ev in enumerate(events):
                ev.notify_after(ns(1 + i))
            yield ns(100)

    for i, ev in enumerate(events):
        ctx.register_thread(make_waiter(ev), f"w{i}")
    ctx.register_thread(driver, "driver")
    start = time.perf_counter()
    ctx.run()
    return n_events * n_rounds, time.perf_counter() - start


def delta_chain(scale: float):
    """Delta-notification ping-pong: pure evaluate/notify cycling."""
    n_rounds = max(1, int(30000 * scale))
    ctx = SimContext(max_deltas_per_timestep=10 ** 9)
    e1, e2 = Event(ctx, "e1"), Event(ctx, "e2")
    count = [0]

    def ping():
        while count[0] < n_rounds:
            e2.notify_delta()
            yield e1

    def pong():
        while True:
            yield e2
            count[0] += 1
            e1.notify_delta()

    ctx.register_thread(ping, "ping")
    ctx.register_thread(pong, "pong")
    start = time.perf_counter()
    ctx.run()
    return ctx.delta_count, time.perf_counter() - start


def clock_tree(scale: float):
    """A clock fanning out to statically-sensitive methods."""
    n_methods, cycles = 10, max(1, int(3000 * scale))
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    clk = Clock("clk", top, period=ns(10))
    hits = [0]

    def m():
        hits[0] += 1

    for i in range(n_methods):
        ctx.register_method(m, f"m{i}", sensitive=[clk.posedge_event],
                            dont_initialize=True)
    start = time.perf_counter()
    ctx.run(ns(10 * cycles))
    return hits[0], time.perf_counter() - start


def event_queue_storm(scale: float):
    """EventQueue multi-notification traffic (one trigger per notify)."""
    n_queues, n_notifies = 8, max(1, int(1500 * scale))
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    queues = [EventQueue(f"q{i}", top) for i in range(n_queues)]
    got = [0]

    def make_waiter(q):
        def body():
            while True:
                yield q.event
                got[0] += 1
        return body

    def driver():
        for r in range(n_notifies):
            for q in queues:
                q.notify(ns(1 + (r % 7)))
            yield ns(50)

    for i, q in enumerate(queues):
        ctx.register_thread(make_waiter(q), f"w{i}")
    ctx.register_thread(driver, "driver")
    start = time.perf_counter()
    ctx.run()
    return got[0], time.perf_counter() - start


# ---------------------------------------------------------------------------
# Observability overhead experiment.
# ---------------------------------------------------------------------------

def measure_obs_overhead(scale: float, repeats: int) -> dict:
    """Best-of-N timed_storm rate without and with an attached observer.

    The "on" case attaches a bare no-op :class:`repro.obs.SimObserver`,
    so the ratio isolates the cost of the hook calls and dispatch timing
    themselves, not any particular consumer.
    """
    from repro.obs import SimObserver

    best_off = 0.0
    best_on = 0.0
    for _ in range(repeats):
        units, wall = timed_storm(scale)
        best_off = max(best_off, units / wall if wall > 0 else 0.0)
        units, wall = timed_storm(scale, observer=SimObserver())
        best_on = max(best_on, units / wall if wall > 0 else 0.0)
    return {
        "off_rate_per_s": round(best_off),
        "on_rate_per_s": round(best_on),
        "on_off_ratio": round(best_on / best_off, 4) if best_off else 0.0,
    }


def noop_hook_check() -> list:
    """Deterministic observability sanity checks; returns failures.

    Two invariants that must hold on every commit, quick mode included:
    an attached observer sees kernel activity, and a detached one sees
    none.
    """
    from repro.obs import CountingObserver

    failures = []
    counting = CountingObserver()
    timed_storm(0.01, observer=counting)
    if counting.total == 0:
        failures.append("attached CountingObserver saw no kernel hooks")
    if counting.activations == 0:
        failures.append("attached observer saw no process activations")

    detached = CountingObserver()
    ctx = SimContext()
    ctx.attach_observer(detached)
    ctx.detach_observer()

    def body():
        for _ in range(10):
            yield ns(10)

    ctx.register_thread(body, "p")
    ctx.run()
    if detached.total:
        failures.append(
            f"detached observer still received {detached.total} hooks"
        )
    return failures


def fault_off_check() -> list:
    """Deterministic fault-machinery-off checks; returns failures.

    Fault injection must be strictly opt-in and free when off: channels
    and buses default to ``fault_injector = None``, and with no injector
    attached no fault rule may ever be evaluated on the transfer paths.
    The second property is enforced structurally — every
    ``FaultRule.matches`` is replaced with a bomb for the duration of a
    bus+SHIP workload — so it cannot be masked by wall-clock noise.
    """
    from repro.cam import GenericBus, MemorySlave
    from repro.faults.plan import FaultRule
    from repro.ocp import OcpCmd, OcpRequest
    from repro.ship import ShipChannel, ShipInt

    failures = []
    ctx = SimContext()
    top = Module("top", ctx=ctx)
    chan = ShipChannel("chan", top)
    bus = GenericBus("bus", top, clock_period=ns(10))
    if chan.fault_injector is not None:
        failures.append("ShipChannel constructs with a fault injector")
    if bus.fault_injector is not None:
        failures.append("BusCam constructs with a fault injector")

    original = FaultRule.matches

    def bomb(self, *args, **kwargs):
        raise AssertionError("fault rule evaluated")

    FaultRule.matches = bomb
    try:
        mem = MemorySlave("mem", top, size=4096)
        bus.attach_slave(mem, 0, 4096)
        sock = bus.master_socket("m0")
        tx = chan.claim_end("tx")
        rx = chan.claim_end("rx")

        def master():
            for i in range(20):
                yield from sock.transport(
                    OcpRequest(OcpCmd.WR, 0, data=[i], burst_length=1))
                yield from chan.send(tx, ShipInt(i))

        def sink():
            while True:
                yield from chan.recv(rx)

        ctx.register_thread(master, "m")
        ctx.register_thread(sink, "s")
        try:
            ctx.run()
        except AssertionError:
            failures.append(
                "fault rule evaluated with no injector attached"
            )
    finally:
        FaultRule.matches = original
    return failures


# ---------------------------------------------------------------------------
# Statistical evaluation experiment (replication overhead + CRN).
# ---------------------------------------------------------------------------

#: Fixed replicate count for the replication-overhead measurement.
STATS_REPLICATES = 4

#: Worker processes of the replicated sweep's engine.
STATS_WORKERS = 4


def _available_cpus() -> int:
    """CPUs this process may actually use (honest ``cpus`` record)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def measure_stats(scale: float, repeats: int):
    """Replicated-run overhead and CRN variance reduction; returns
    ``(record, failures)``.

    Times a fixed-R :class:`repro.stats.ReplicatedRunner` pass over the
    benchmark space against single-run ``engine.run()`` on the same
    warm pool, recording the per-replicate cost relative to a plain
    per-point run (``overhead_ratio`` — the price of the replication
    layer itself, since the simulations are identical work).

    Deterministic gates in every mode: two replicated passes must
    produce bit-identical report rows (the ensemble determinism
    invariant), and on the close-pair clock comparison (same fabric,
    10ns vs 12ns, screening-length workload — the regime CRN is for)
    the common-random-numbers difference stddev must be strictly
    smaller than the independent-seeds one.
    """
    import dataclasses

    from repro.explore import DesignSpace, standard_workloads
    from repro.stats import ReplicatedRunner, ReplicationPolicy, \
        paired_compare
    from repro.sweep import SweepEngine, points_for_space

    failures = []
    space = DesignSpace(
        fabrics=("plb", "generic", "crossbar"),
        arbiters=("static-priority", "round-robin"),
        clock_periods=(ns(10),),
        max_bursts=(16,),
    )
    specs = [s.scaled(scale) for s in standard_workloads()["mixed"]]
    points = points_for_space(space, specs, workload="mixed")
    policy = ReplicationPolicy(r_min=STATS_REPLICATES,
                               r_max=STATS_REPLICATES)

    with SweepEngine(workers=STATS_WORKERS) as engine:
        engine.run(points)  # spawn + warm the pool off the clock

        best_single = None
        for _ in range(repeats):
            start = time.perf_counter()
            engine.run(points)
            wall = time.perf_counter() - start
            if best_single is None or wall < best_single:
                best_single = wall

        runner = ReplicatedRunner(engine, policy)
        best_repl = None
        first_rows = None
        for _ in range(repeats):
            start = time.perf_counter()
            outcomes = runner.run(points)
            wall = time.perf_counter() - start
            if best_repl is None or wall < best_repl:
                best_repl = wall
            rows = [o.row() for o in outcomes]
            if first_rows is None:
                first_rows = rows
            elif rows != first_rows:
                failures.append(
                    "replicated passes over the same points produced "
                    "different report rows"
                )
        total_replicates = len(points) * STATS_REPLICATES

        # CRN vs independent seeds on the close-pair clock comparison.
        # Screening-length specs regardless of --quick: variance
        # reduction is a statistical property of the short, contended
        # regime, not a throughput number to scale.
        short_specs = [s.scaled(0.1)
                       for s in standard_workloads()["mixed"]]
        crn_space = DesignSpace(
            fabrics=("plb",), arbiters=("round-robin",),
            clock_periods=(ns(10),), max_bursts=(16,),
        )
        point_a = points_for_space(crn_space, short_specs,
                                   workload="mixed")[0]
        point_b = dataclasses.replace(
            point_a,
            config=dataclasses.replace(point_a.config,
                                       clock_period=ns(12)),
        )
        crn = paired_compare(engine, point_a, point_b, replicates=8,
                             crn=True)
        ind = paired_compare(engine, point_a, point_b, replicates=8,
                             crn=False)
        if ind.difference.stddev > 0:
            ratio = crn.difference.stddev / ind.difference.stddev
        else:
            ratio = 0.0 if crn.difference.stddev == 0 else float("inf")
        if ratio >= 1.0:
            failures.append(
                f"CRN did not reduce the paired-difference stddev on "
                f"the close-pair clock comparison: {crn.difference.stddev:.3f}"
                f" (crn) vs {ind.difference.stddev:.3f} (independent)"
            )

    per_replicate = best_repl / total_replicates
    per_point = best_single / len(points)
    record = {
        "points": len(points),
        "replicates_per_point": STATS_REPLICATES,
        "workers": STATS_WORKERS,
        "cpus": _available_cpus(),
        "single_wall_s": round(best_single, 5),
        "replicated_wall_s": round(best_repl, 5),
        "replicates_per_s": round(total_replicates / best_repl, 2)
        if best_repl > 0 else float("inf"),
        "per_replicate_ms": round(per_replicate * 1e3, 4),
        "per_point_single_ms": round(per_point * 1e3, 4),
        # >1.0 means a replicate costs more than a plain point run —
        # the replication layer's own overhead (seed derivation, extra
        # point objects, pooling) on identical simulation work.
        "overhead_ratio": round(per_replicate / per_point, 3)
        if per_point > 0 else float("inf"),
        "crn_variance_ratio": round(ratio, 4),
        "crn_difference_stddev": round(crn.difference.stddev, 4),
        "independent_difference_stddev": round(ind.difference.stddev, 4),
    }
    return record, failures


KERNEL_WORKLOADS = [
    ("timed_storm", timed_storm),
    ("timed_events", timed_events),
    ("delta_chain", delta_chain),
    ("clock_tree", clock_tree),
    ("event_queue_storm", event_queue_storm),
]


def run_kernel_workloads(scale: float, repeats: int) -> dict:
    results = {}
    for name, fn in KERNEL_WORKLOADS:
        best = None
        for _ in range(repeats):
            units, wall = fn(scale)
            rate = units / wall if wall > 0 else float("inf")
            if best is None or rate > best[0]:
                best = (rate, units, wall)
        results[name] = {
            "units": best[1],
            "wall_s": round(best[2], 5),
            "rate_per_s": round(best[0]),
        }
    return results


def run_e1_levels(repeats: int) -> dict:
    """Best-of-N wall time for each E1 abstraction level."""
    import bench_e1_sim_speed as e1

    results = {}
    for name, runner in e1.LEVELS:
        best = None
        for _ in range(repeats):
            start = time.perf_counter()
            runner()
            wall = time.perf_counter() - start
            if best is None or wall < best:
                best = wall
        results[name] = {
            "wall_s": round(best, 5),
            "transactions": 2 * e1.TRANSACTIONS,
        }
    return results


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------

def compare(kernel: dict, e1: dict, baseline: dict,
            stats: Optional[dict] = None):
    """Annotate results with speedups; return the list of regressions."""
    regressions = []
    base_repl_rate = baseline.get("stats_replicates_per_s")
    if stats and base_repl_rate:
        ratio = stats["replicates_per_s"] / base_repl_rate
        stats["baseline_replicates_per_s"] = base_repl_rate
        stats["vs_baseline"] = round(ratio, 2)
        if stats.get("cpus", 1) <= 1:
            # One CPU measures core starvation, not the replication
            # layer.  The deterministic gates in measure_stats() still
            # apply.
            stats["vs_baseline_note"] = "rate gate skipped on 1 cpu"
        elif ratio < 1.0 - REGRESSION_TOLERANCE:
            regressions.append(("stats/replicates_per_s", ratio))
    base_rates = baseline.get("kernel_rate_per_s", {})
    for name, row in kernel.items():
        base = base_rates.get(name)
        if not base:
            continue
        speedup = row["rate_per_s"] / base
        row["baseline_rate_per_s"] = base
        row["speedup"] = round(speedup, 2)
        if speedup < 1.0 - REGRESSION_TOLERANCE:
            regressions.append((f"kernel/{name}", speedup))
    base_walls = baseline.get("e1_wall_s", {})
    for name, row in e1.items():
        base = base_walls.get(name)
        if not base:
            continue
        speedup = base / row["wall_s"] if row["wall_s"] > 0 else float("inf")
        row["baseline_wall_s"] = base
        row["speedup"] = round(speedup, 2)
        if speedup < 1.0 - REGRESSION_TOLERANCE:
            regressions.append((f"e1/{name}", speedup))
    return regressions


def print_report(kernel: dict, e1: dict) -> None:
    print(f"{'workload':<22}{'units':>9}{'wall':>10}{'rate/s':>12}"
          f"{'speedup':>9}")
    print("-" * 62)
    for name, row in kernel.items():
        speed = row.get("speedup")
        print(f"{name:<22}{row['units']:>9}{row['wall_s'] * 1e3:>8.1f}ms"
              f"{row['rate_per_s']:>12}"
              f"{('x%.2f' % speed) if speed else '-':>9}")
    for name, row in e1.items():
        speed = row.get("speedup")
        print(f"{'e1/' + name:<22}{row['transactions']:>9}"
              f"{row['wall_s'] * 1e3:>8.1f}ms{'':>12}"
              f"{('x%.2f' % speed) if speed else '-':>9}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run all kernel benchmarks and record the trajectory."
    )
    parser.add_argument("--quick", action="store_true",
                        help="~10x smaller workloads, no regression gate "
                             "(CI smoke)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="take the best of N repeats (default 3)")
    parser.add_argument("--output", type=Path, default=None,
                        help="where to write the JSON trajectory record "
                             "(default BENCH_kernel.json; required with "
                             "--quick)")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="recorded baseline to compare against")
    parser.add_argument("--write-baseline", action="store_true",
                        help="re-record the baseline from this run")
    args = parser.parse_args(argv)

    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")
    if args.quick and args.output is None:
        parser.error("--quick needs an explicit --output: quick numbers "
                     f"must not overwrite {DEFAULT_OUTPUT.name}")
    if args.quick and args.write_baseline:
        parser.error("--write-baseline needs a full run; quick numbers "
                     "are too noisy to measure against")
    output = args.output or DEFAULT_OUTPUT
    scale = 0.1 if args.quick else 1.0
    if args.quick:
        # Shrink the E1 transaction stream before the bench module loads.
        os.environ.setdefault("E1_TRANSACTIONS", "10")

    kernel = run_kernel_workloads(scale, args.repeat)
    e1 = run_e1_levels(args.repeat)
    obs = measure_obs_overhead(scale, args.repeat)
    stats, stats_failures = measure_stats(scale, args.repeat)
    obs_failures = noop_hook_check() + fault_off_check() + stats_failures

    baseline = {}
    if args.baseline.exists() and not args.quick:
        baseline = json.loads(args.baseline.read_text())
    regressions = compare(kernel, e1, baseline, stats=stats)
    base_obs_off = baseline.get("obs_off_rate_per_s")
    if base_obs_off:
        obs["baseline_off_rate_per_s"] = base_obs_off
        ratio = obs["off_rate_per_s"] / base_obs_off
        obs["off_vs_baseline"] = round(ratio, 4)
        if ratio < 1.0 - OBS_OFF_TOLERANCE:
            regressions.append(("obs/off_rate", ratio))

    record = {
        "quick": args.quick,
        "python": platform.python_version(),
        "repeat": args.repeat,
        "regression_tolerance": REGRESSION_TOLERANCE,
        "obs_off_tolerance": OBS_OFF_TOLERANCE,
        "kernel": kernel,
        "e1": e1,
        "obs": obs,
        "stats": stats,
    }
    output.write_text(json.dumps(record, indent=1) + "\n")
    print_report(kernel, e1)
    print(f"\nobs overhead: off {obs['off_rate_per_s']}/s, "
          f"on {obs['on_rate_per_s']}/s "
          f"(ratio {obs['on_off_ratio']:.3f})")
    print(f"stats: {stats['points']} points x "
          f"{stats['replicates_per_point']} replicates in "
          f"{stats['replicated_wall_s'] * 1e3:.0f}ms "
          f"({stats['replicates_per_s']:.1f} replicates/s, "
          f"x{stats['overhead_ratio']:.2f} per-replicate vs plain "
          f"point), CRN variance ratio "
          f"{stats['crn_variance_ratio']:.2f}")
    print(f"wrote {output}")

    if obs_failures:
        print("\nOBSERVABILITY CHECK FAILED:", file=sys.stderr)
        for failure in obs_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1

    if args.write_baseline:
        new_baseline = {
            "recorded": f"python {platform.python_version()}, "
                        f"{time.strftime('%Y-%m-%d')}",
            "note": "Update by running `python benchmarks/run_all.py "
                    "--write-baseline` on the commit you want to measure "
                    "against.",
            "kernel_rate_per_s": {
                name: row["rate_per_s"] for name, row in kernel.items()
            },
            "e1_wall_s": {
                name: row["wall_s"] for name, row in e1.items()
            },
            "obs_off_rate_per_s": obs["off_rate_per_s"],
            "stats_replicates_per_s": stats["replicates_per_s"],
        }
        args.baseline.write_text(json.dumps(new_baseline, indent=2) + "\n")
        print(f"re-recorded baseline at {args.baseline}")
        return 0

    if regressions:
        print("\nREGRESSION: the following workloads fell below the "
              f"recorded baseline (tolerance {REGRESSION_TOLERANCE:.0%}, "
              f"obs-off {OBS_OFF_TOLERANCE:.0%}):",
              file=sys.stderr)
        for name, speedup in regressions:
            print(f"  {name}: x{speedup:.2f} of baseline", file=sys.stderr)
        return 1
    if baseline:
        print("no regressions vs. recorded baseline "
              f"(tolerance {REGRESSION_TOLERANCE:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
