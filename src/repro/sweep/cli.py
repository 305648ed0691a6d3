"""``python -m repro.sweep`` — ranked design-space sweep reports.

Builds a :class:`~repro.explore.DesignSpace` from command-line axes,
sweeps it over one of the standard E3 workloads with the parallel
:class:`~repro.sweep.engine.SweepEngine`, and emits the ranked result
table — to stdout, and optionally as JSON and/or CSV reports.

Examples::

    PYTHONPATH=src python -m repro.sweep --workload mixed --workers auto
    PYTHONPATH=src python -m repro.sweep --workload dma_stream \\
        --fabrics plb,generic --strategy halving --cache /tmp/sweep
    PYTHONPATH=src python -m repro.sweep --workload mixed \\
        --cache /tmp/sweep --require-cached   # resume must be all-hits
    PYTHONPATH=src python -m repro.sweep --workload mixed \\
        --ci-target 0.02 --max-replicates 8   # CI-backed ranking
    PYTHONPATH=src python -m repro.sweep --workload mixed --workers 2 \\
        --progress --telemetry /tmp/ledger --trace-out /tmp/trace.json
    PYTHONPATH=src python -m repro.sweep --workload mixed --boot 16 \\
        --warm-start --checkpoint-dir /tmp/ckpt  # checkpointed boot

``--boot N`` prepends a deterministic warm-up phase to every point;
``--warm-start`` then simulates each architecture family's boot
exactly once, checkpoints it (:mod:`repro.snapshot`), and resumes
every point of the family from the checkpoint — byte-identical
results, boot cost paid once per family instead of once per point
(see ``docs/checkpointing.md``).

With ``--cache DIR`` results persist across invocations: an interrupted
sweep resumes where it stopped, and a repeated sweep is served entirely
from cache (enforceable with ``--require-cached``).

``--ci-target`` / ``--max-replicates`` switch the final ranking to the
statistically rigorous mode of :mod:`repro.stats`: every ranked point
runs as a seed-replicated ensemble (replicates cache individually, so
resume still works) and the table reports mean ± confidence half-width
with the replicate count the sequential stopping rule settled on.

``--telemetry DIR`` / ``--trace-out PATH`` / ``--progress`` attach the
cross-process telemetry layer (:mod:`repro.obs.telemetry`): a run
ledger plus JSONL progress stream under DIR, a merged
orchestrator+workers Perfetto trace at PATH, and a live progress line
on stderr.  Telemetry never changes results — the ranked rows are
bit-identical with or without these flags.

The sweep is *self-healing* (:mod:`repro.sweep.recovery`): dead
workers respawn, lost batches requeue and bisect down to the poison
point, which is quarantined — listed in the report's ``quarantined``
section and skipped on resume.  ``--max-point-seconds`` adds a
per-point wall-clock deadline.  SIGINT/SIGTERM flush the store, ledger
and trace before exiting with status 130.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import List, Optional

from repro.kernel.simtime import ms, ns, us
from repro.explore.space import ARBITERS, FABRICS, DesignSpace
from repro.explore.workload import standard_workloads
from repro.sweep.engine import OBJECTIVES, SweepEngine, SweepOutcome
from repro.sweep.recovery import ShutdownGuard, SweepInterrupted
from repro.sweep.store import SweepStore
from repro.sweep.strategies import (
    GridSearch,
    RandomSearch,
    SuccessiveHalving,
)


def _csv_list(text: str) -> List[str]:
    """Split a comma-separated option value, dropping empties."""
    return [item.strip() for item in text.split(",") if item.strip()]


def _workers_arg(text: str):
    """``--workers`` value: a positive int or the string ``auto``."""
    text = text.strip().lower()
    if text == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError("workers must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="parallel, cached design-space sweep with ranked "
                    "output",
    )
    parser.add_argument(
        "--workload", default="mixed",
        choices=sorted(standard_workloads()),
        help="standard E3 workload to sweep (default: mixed)",
    )
    parser.add_argument(
        "--fabrics", type=_csv_list,
        default=["plb", "opb", "ahb", "generic", "crossbar"],
        help=f"comma-separated fabrics from {FABRICS}",
    )
    parser.add_argument(
        "--arbiters", type=_csv_list,
        default=["static-priority", "round-robin"],
        help=f"comma-separated arbiters from {ARBITERS}",
    )
    parser.add_argument(
        "--clock-ns", type=_csv_list, default=["10"],
        help="comma-separated clock periods in ns (default: 10)",
    )
    parser.add_argument(
        "--bursts", type=_csv_list, default=["16"],
        help="comma-separated max burst lengths (default: 16)",
    )
    parser.add_argument(
        "--transactions", type=int, default=None,
        help="override every master's transaction count (smoke runs)",
    )
    parser.add_argument(
        "--strategy", default="grid",
        choices=("grid", "random", "halving"),
        help="search strategy (default: grid)",
    )
    parser.add_argument(
        "--samples", type=int, default=4,
        help="points to draw with --strategy random (default: 4)",
    )
    parser.add_argument(
        "--eta", type=int, default=2,
        help="halving keep ratio: top 1/eta survive (default: 2)",
    )
    parser.add_argument(
        "--screen-fraction", type=float, default=0.25,
        help="halving screening workload fraction (default: 0.25)",
    )
    parser.add_argument(
        "--objective", default="mean_latency_ns",
        choices=sorted(OBJECTIVES),
        help="ranking objective (default: mean_latency_ns)",
    )
    parser.add_argument(
        "--ci-target", type=float, default=None,
        help="replicate each ranked point until its CI half-width is "
             "within this fraction of the mean (e.g. 0.02 = 2%%)",
    )
    parser.add_argument(
        "--max-replicates", type=int, default=None,
        help="replicate cap per ranked point; setting it without "
             "--ci-target runs exactly this many replicates "
             "(default when replicating: 8)",
    )
    parser.add_argument(
        "--min-replicates", type=int, default=2,
        help="replicates each point starts with under --ci-target "
             "(default: 2)",
    )
    parser.add_argument(
        "--confidence", type=float, default=0.95,
        help="two-sided confidence level of replicated estimates "
             "(default: 0.95)",
    )
    parser.add_argument(
        "--workers", type=_workers_arg, default=1,
        help="worker processes: a count, or 'auto' for one per CPU "
             "(default: 1 = in-process)",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="workload seed (default: 1)",
    )
    parser.add_argument(
        "--max-sim-time-us", type=int, default=10_000,
        help="per-point simulated-time bound in us (default: 10000)",
    )
    parser.add_argument(
        "--cache", metavar="DIR", default=None,
        help="persistent JSONL result cache directory",
    )
    parser.add_argument(
        "--rerun", action="store_true",
        help="bypass cache reads (results are still written back)",
    )
    parser.add_argument(
        "--require-cached", action="store_true",
        help="fail (exit 2) if any point had to be simulated — "
             "asserts a warm cache",
    )
    parser.add_argument(
        "--top", type=int, default=None,
        help="print/emit only the best N rows",
    )
    parser.add_argument(
        "--max-point-seconds", type=float, default=None, metavar="S",
        help="per-point wall-clock deadline: a worker holding a batch "
             "past its budget is killed and the lost points retried "
             "once before quarantine",
    )
    parser.add_argument(
        "--boot", type=int, default=None, metavar="N",
        help="prepend a boot phase: one warm-up master per workload "
             "master drives N transactions before the measured phase "
             "starts (boot traffic is part of each point's identity)",
    )
    parser.add_argument(
        "--warm-start", action="store_true",
        help="materialize one boot checkpoint per architecture family "
             "and resume every point from it instead of simulating "
             "the boot inline; results stay byte-identical to cold "
             "runs (requires --boot)",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        default="sweep_checkpoints",
        help="directory boot checkpoints live in "
             "(default: sweep_checkpoints)",
    )
    parser.add_argument(
        "--telemetry", metavar="DIR", default=None,
        help="enable sweep telemetry: write the run ledger "
             "(ledger.jsonl + per-run manifests) and the progress "
             "event stream (progress.jsonl) into DIR",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the merged Chrome-trace/Perfetto timeline "
             "(orchestrator + per-worker tracks) here; implies "
             "telemetry",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="render live progress (points/s, cache hits, per-worker "
             "liveness, ETA) on stderr; implies telemetry",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the ranked report as JSON",
    )
    parser.add_argument(
        "--csv", metavar="PATH", default=None,
        help="write the ranked rows as CSV",
    )
    return parser


def _boot_spec(specs, transactions: int):
    """The :class:`~repro.explore.BootSpec` the ``--boot`` flag asks for.

    One warm-up master per workload master (``boot_<name>``, same
    region, pattern and priority, ``transactions`` transactions), with
    the boot horizon at 1 ms — generous for any standard workload's
    warm-up traffic, and free simulated time for the event-driven CAM
    fabrics, which schedule nothing between the boot's completion and
    the horizon.
    """
    from repro.explore import BootSpec
    from repro.explore.workload import MasterTrafficSpec

    boot_specs = [
        MasterTrafficSpec(
            name=f"boot_{s.name}", pattern=s.pattern, base=s.base,
            size=s.size, burst_length=s.burst_length, gap=s.gap,
            read_fraction=s.read_fraction, transactions=transactions,
            priority=s.priority, word_bytes=s.word_bytes,
        )
        for s in specs
    ]
    return BootSpec(specs=boot_specs, until=ms(1))


def _build_strategy(args, space, specs):
    """Instantiate the requested search strategy."""
    common = dict(
        workload=args.workload,
        max_sim_time=us(args.max_sim_time_us),
        seed=args.seed,
        boot=(_boot_spec(specs, args.boot)
              if args.boot is not None else None),
    )
    if args.strategy == "random":
        return RandomSearch(space, specs, samples=args.samples, **common)
    if args.strategy == "halving":
        return SuccessiveHalving(
            space, specs, eta=args.eta,
            screen_fraction=args.screen_fraction, **common,
        )
    return GridSearch(space, specs, **common)


def _format_rows(rows: List[dict]) -> str:
    """Fixed-width table over the ranked rows."""
    if not rows:
        return "(no results)"
    headers = ["rank", "config", "value", "mean_latency_ns",
               "throughput_mbps", "utilization", "all_done"]
    rendered = [
        {
            "rank": str(row["rank"]),
            "config": row["config"],
            "value": f"{row['value']:.2f}",
            "mean_latency_ns": f"{row['mean_latency_ns']:.2f}",
            "throughput_mbps": f"{row['throughput_mbps']:.2f}",
            "utilization": f"{row['utilization']:.4f}",
            "all_done": str(row["all_done"]),
        }
        for row in rows
    ]
    widths = {
        h: max(len(h), *(len(r[h]) for r in rendered)) for h in headers
    }
    lines = [
        "  ".join(h.ljust(widths[h]) for h in headers),
        "  ".join("-" * widths[h] for h in headers),
    ]
    for r in rendered:
        lines.append("  ".join(r[h].ljust(widths[h]) for h in headers))
    return "\n".join(lines)


def rank_rows(outcomes: List[SweepOutcome],
              objective: str) -> List[dict]:
    """Numbered report rows for already-ranked outcomes."""
    rows = []
    for rank, outcome in enumerate(outcomes, start=1):
        row = outcome.row(objective)
        row["rank"] = rank
        row["cached"] = outcome.cached
        rows.append(row)
    return rows


def rank_replicated_rows(outcomes) -> List[dict]:
    """Numbered report rows for ranked replicated outcomes."""
    rows = []
    for rank, outcome in enumerate(outcomes, start=1):
        row = outcome.row()
        row["rank"] = rank
        rows.append(row)
    return rows


def _format_replicated_rows(rows: List[dict]) -> str:
    """Fixed-width table over ranked CI-backed rows."""
    if not rows:
        return "(no results)"
    headers = ["rank", "config", "mean", "half_width", "rel_hw",
               "replicates", "met_target"]
    rendered = [
        {
            "rank": str(row["rank"]),
            "config": row["config"],
            "mean": f"{row['mean']:.2f}",
            "half_width": f"{row['half_width']:.2f}",
            "rel_hw": f"{row['relative_half_width']:.2%}",
            "replicates": str(row["replicates"]),
            "met_target": str(row["met_target"]),
        }
        for row in rows
    ]
    widths = {
        h: max(len(h), *(len(r[h]) for r in rendered)) for h in headers
    }
    lines = [
        "  ".join(h.ljust(widths[h]) for h in headers),
        "  ".join("-" * widths[h] for h in headers),
    ]
    for r in rendered:
        lines.append("  ".join(r[h].ljust(widths[h]) for h in headers))
    return "\n".join(lines)


def _replication_policy(args, parser):
    """The :class:`~repro.stats.ReplicationPolicy` the flags request.

    Returns None when neither ``--ci-target`` nor ``--max-replicates``
    was given — the plain single-run sweep.
    """
    if args.ci_target is None and args.max_replicates is None:
        return None
    from repro.stats.replicate import ReplicationPolicy

    r_max = 8 if args.max_replicates is None else args.max_replicates
    try:
        # r_min is clamped to the cap so "--max-replicates 1" means
        # exactly one replicate instead of an argument error.
        return ReplicationPolicy(
            r_min=min(args.min_replicates, r_max),
            r_max=r_max,
            ci_target=args.ci_target,
            confidence=args.confidence,
        )
    except ValueError as exc:
        parser.error(str(exc))


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    replication = _replication_policy(args, parser)
    if (args.max_point_seconds is not None
            and not args.max_point_seconds > 0):
        parser.error("--max-point-seconds must be positive")
    if args.boot is not None and args.boot < 1:
        parser.error("--boot must be >= 1")
    if args.warm_start and args.boot is None:
        parser.error("--warm-start requires --boot (there is no boot "
                     "phase to checkpoint otherwise)")
    space = DesignSpace(
        fabrics=tuple(args.fabrics),
        arbiters=tuple(args.arbiters),
        clock_periods=tuple(ns(int(c)) for c in args.clock_ns),
        max_bursts=tuple(int(b) for b in args.bursts),
    )
    specs = standard_workloads()[args.workload]
    if args.transactions is not None:
        specs = [_with_transactions(s, args.transactions) for s in specs]
    strategy = _build_strategy(args, space, specs)
    store = SweepStore(args.cache) if args.cache else None
    telemetry = None
    if args.telemetry or args.trace_out or args.progress:
        # Lazy import: plain sweeps must never load the telemetry
        # stack (the bench asserts the off path does not import it).
        from repro.obs.telemetry import ProgressRenderer, SweepTelemetry

        telemetry = SweepTelemetry(ledger=args.telemetry,
                                   trace_path=args.trace_out)
        if args.progress:
            ProgressRenderer(sys.stderr).attach(telemetry.stream)
    # One engine — and therefore at most one warm worker pool — serves
    # every stage the strategy runs; the context manager tears the
    # pool down when the sweep is done.
    interrupted: Optional[SweepInterrupted] = None
    with SweepEngine(workers=args.workers, store=store,
                     telemetry=telemetry,
                     deadline_s=args.max_point_seconds,
                     checkpoint_dir=(args.checkpoint_dir
                                     if args.warm_start else None),
                     warm_start=args.warm_start) as engine:
        wall_start = time.perf_counter()
        try:
            # The guard turns SIGINT/SIGTERM into SweepInterrupted so
            # this with-block's teardown — pool shutdown, telemetry
            # flush below — runs instead of the process dying torn.
            with ShutdownGuard():
                outcomes = strategy.run(engine, objective=args.objective,
                                        replication=replication)
        except SweepInterrupted as exc:
            interrupted = exc
        wall = time.perf_counter() - wall_start
        pool_spawns = engine.pool_spawns
        pool_reuses = engine.pool_reuses
        quarantine_rows = [
            o.quarantine_row()
            for o in sorted(engine.session_failures.values(),
                            key=lambda o: o.key)
        ]
        recovery = dict(engine.session_recovery) or None
        warm_points = engine.session_warm_points
        warm_families = engine.session_checkpoints

    if interrupted is not None:
        # Every completed point is already fsynced in the store; close
        # the telemetry hub so the ledger/trace flush too, then exit
        # with the conventional interrupted status.
        if telemetry is not None:
            telemetry.close()
        print(f"\n{interrupted}; completed points are cached — rerun "
              f"with the same --cache to resume", file=sys.stderr)
        return 130

    if replication is not None:
        # Cache provenance over every replicate, before any --top cut.
        replicate_runs = [o for ro in outcomes for o in ro.outcomes]
        cached = sum(1 for o in replicate_runs if o.cached)
        computed = len(replicate_runs) - cached
    else:
        cached = engine.last_cached
        computed = engine.last_computed
    if args.top is not None:
        outcomes = outcomes[:args.top]
    if replication is not None:
        rows = rank_replicated_rows(outcomes)
    else:
        rows = rank_rows(outcomes, args.objective)
    report = {
        "workload": args.workload,
        "strategy": args.strategy,
        "objective": args.objective,
        "points": len(outcomes),
        "computed": computed,
        "cached": cached,
        "workers": engine.workers,
        "pool_spawns": pool_spawns,
        "pool_reuses": pool_reuses,
        "wall_s": round(wall, 4),
        "quarantined": quarantine_rows,
        "recovery": recovery,
        "ranked": rows,
    }
    if replication is not None:
        report["replication"] = {
            "ci_target": replication.ci_target,
            "r_min": replication.r_min,
            "r_max": replication.r_max,
            "confidence": replication.confidence,
        }
        print(_format_replicated_rows(rows))
    else:
        print(_format_rows(rows))
    if quarantine_rows:
        print("\nquarantined (excluded from ranking; rerun with "
              "--rerun to retry)")
        for row in quarantine_rows:
            print(
                f"  {row['config']}/{row['workload']}: {row['kind']} "
                f"({row['error_type']}, {row['attempts']} attempt(s)) "
                f"— {row['message']}"
            )
    if telemetry is not None:
        # The ledger's summary record mirrors the report exactly —
        # point count, cache split, ranking — so artifact consumers
        # never need the CLI's stdout.
        telemetry.record_summary({
            "workload": report["workload"],
            "strategy": report["strategy"],
            "objective": report["objective"],
            "points": report["points"],
            "cached": report["cached"],
            "computed": report["computed"],
            "workers": report["workers"],
            "wall_s": report["wall_s"],
            "quarantined": len(quarantine_rows),
            "recovery": recovery,
            "ranking": [
                {"rank": row["rank"], "config": row["config"],
                 "key": row["key"]}
                for row in rows
            ],
        })
        telemetry.close()
    print(
        f"\nsweep: {report['points']} ranked point(s), "
        f"{report['cached']} cached / {report['computed']} computed, "
        f"{engine.workers} worker(s) ({pool_spawns} spawned, "
        f"{pool_reuses} warm reuse(s)), {wall:.2f} s"
    )
    if args.warm_start:
        print(
            f"warm start: {warm_families} boot checkpoint famil"
            f"{'y' if warm_families == 1 else 'ies'} in "
            f"{args.checkpoint_dir}, {warm_points} point(s) resumed "
            f"from checkpoint"
        )
    if recovery:
        print(
            f"recovery: {recovery.get('worker_crashes', 0)} crash(es), "
            f"{recovery.get('worker_respawns', 0)} respawn(s), "
            f"{recovery.get('timeouts', 0)} timeout(s), "
            f"{recovery.get('requeues', 0)} requeue(s), "
            f"{len(quarantine_rows)} quarantined"
        )
    if replication is not None:
        target = ("none (fixed)" if replication.ci_target is None
                  else f"{replication.ci_target:.1%}")
        print(
            f"replication: ci-target {target}, "
            f"{replication.r_min}..{replication.r_max} replicates/point, "
            f"{len(replicate_runs)} replicate run(s) total"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.json}")
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            if rows:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
        print(f"wrote {args.csv}")
    if args.trace_out:
        print(f"wrote {args.trace_out}")
    if args.telemetry:
        print(f"ledger: {args.telemetry} "
              f"(render with python -m repro.obs.report --runs)")
    if args.require_cached and computed:
        print(
            f"--require-cached: {computed} point(s) were "
            f"simulated instead of served from cache", file=sys.stderr,
        )
        return 2
    return 0


def _with_transactions(spec, transactions: int):
    """Copy of ``spec`` with its transaction count replaced."""
    from repro.explore.workload import MasterTrafficSpec

    return MasterTrafficSpec(
        name=spec.name, pattern=spec.pattern, base=spec.base,
        size=spec.size, burst_length=spec.burst_length, gap=spec.gap,
        read_fraction=spec.read_fraction, transactions=transactions,
        priority=spec.priority, word_bytes=spec.word_bytes,
    )
