#!/usr/bin/env python3
"""One benchmark for the paper's design flow and the sweep path.

Run from the repository root (the script finds ``src/`` itself)::

    python3 perfbench/bench.py [--seed N] [--seconds S] [--out results.json]
                               [--trace-out DIR]
    python3 perfbench/bench.py --workload flow_pv --seed N --seconds S --trace 0|1
    python3 perfbench/bench.py --compare BASE.json NEW.json

With no ``--workload`` it runs all five workloads of ``BENCHMARK.json``,
one after another, and prints every end-to-end metric (its value, the
quartiles of that value over bootstrap resamples of its samples, and
the sample count) and every per-layer metric from one traced repeat per
workload.  ``--out`` saves the results for ``--compare``.

With ``--workload`` it runs that workload once and prints, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.

Each workload is measured the same way.  Five fresh processes are
spawned one after another; each imports the simulator and sets the
workload up (for the sweeps: spawns and warms the two-worker pool, and
for ``sweep_warm`` makes the boot checkpoints).  ``setup_s`` is the
median of their five spawn-to-ready wall times.  The first four then
exit; the fifth runs one warm-up repeat and timed repeats with tracing
off until ``--seconds`` have passed (closed loop: the next repeat
starts when the previous one ends).  Each repeat is followed by a
garbage collection and a run of a host-speed probe (``hostspeed.py``),
both untimed.  ``items_per_s`` counts F1 blocks
(``flow_*``) or design points (``sweep_*``) finished per second: the
fast decile (:func:`fast_decile`) of the repeats' rates, over the fast
decile of the probe's rate, times the probe's nominal rate — items per
second on a host of the reference box's nominal speed.
``peak_rss_mb`` is the peak RSS of that process plus its largest child
during set-up and the timed repeats.  With tracing on, one traced repeat follows (see
``tracer.py``).  Every repeat's outputs are checked; the process exits
non-zero when any check failed, after printing its metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Scratch files (stores, checkpoints) stay inside the checkout.
WORK_ROOT = ROOT / ".bench_work"

#: Fresh processes whose spawn-to-ready times give ``setup_s``.
SETUP_SAMPLES = 5
#: Timed repeats made even when ``--seconds`` is already used up.
MIN_TIMED_REPEATS = 3
#: A workload process is killed after this long.
CHILD_TIMEOUT_S = 170
#: Resamples behind the quartiles reported for each value.
BOOTSTRAP_ROUNDS = 200

READY = "BENCH-READY"
RESULT = "BENCH-RESULT "


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def fast_decile(values: List[float]) -> float:
    """The 90th percentile: the speed of repeats that host interference
    spared.  Interference only ever slows a repeat down, and on a shared
    box it comes in episodes of seconds, so the fast decile of a run is
    far steadier than its median."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def scaled_rate(pairs: List[tuple]) -> float:
    """Fast-decile workload rate over fast-decile probe rate, scaled
    to the nominal host: ``pairs`` are ``(rate, probes_per_s)`` of each
    repeat and the probe run after it (see ``hostspeed.py``)."""
    rates, probes = zip(*pairs)
    return (fast_decile(list(rates)) * hostspeed.NOMINAL_PROBES_PER_S
            / fast_decile(list(probes)))


def estimate(samples: list, statistic) -> tuple:
    """``(value, q1, q3)``: ``statistic(samples)`` and the quartiles of
    its bootstrap distribution (the value's own spread)."""
    value = statistic(samples)
    if len(samples) < 2:
        return value, value, value
    rng = random.Random(0)
    resampled = [statistic(rng.choices(samples, k=len(samples)))
                 for _ in range(BOOTSTRAP_ROUNDS)]
    q1, _, q3 = statistics.quantiles(resampled, n=4)
    return value, q1, q3


# ---------------------------------------------------------------------------
# Measuring one workload (inside its own process)
# ---------------------------------------------------------------------------


def measure(workload, seconds: float, trace: bool,
            trace_out: Optional[str] = None) -> dict:
    """Warm up, time repeats for ``seconds``, optionally trace one.

    Each timed repeat is followed by one run of the host-speed probe,
    on as many processes at once as the workload keeps CPUs busy.
    """
    host_probe = hostspeed.HostProbe(workload.cpus)
    try:
        workload.repeat()
        gc.collect()
        host_probe.run()
        walls, probes = [], []
        start = time.perf_counter()
        while (len(walls) < MIN_TIMED_REPEATS
               or time.perf_counter() - start < seconds):
            t0 = time.perf_counter()
            workload.repeat()
            walls.append(time.perf_counter() - t0)
            # the last repeat's cyclic garbage is freed here, untimed,
            # so every repeat starts from the same heap
            gc.collect()
            probes.append(host_probe.run())
    finally:
        host_probe.close()
    peak_rss_kib = workload.peak_rss_kib()
    workload.verify()
    repeat_s = statistics.median(walls)
    layers = None
    if trace:
        from tracer import LayerTracer

        tracer = LayerTracer(keep_spans=trace_out is not None)
        with tracer.installed():
            t0 = time.perf_counter()
            comparable_s = workload.traced_repeat(tracer)
            traced_s = time.perf_counter() - t0
        layers = tracer.metrics(traced_s)
        if trace_out:
            tracer.write_chrome_trace(trace_out)
        workload.verify()
        layers.update(workload.layer_extras(repeat_s))
        layers["trace.overhead_frac"] = comparable_s / repeat_s - 1
    workload.close()
    return {
        "workload": workload.name,
        "unit": workload.unit,
        "items": workload.items,
        "host_items_per_s": [workload.items / wall for wall in walls],
        "probes_per_s": probes,
        "peak_rss_mb": peak_rss_kib / 1024,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "problems": workload.problems,
        "layers": layers,
    }


def run_in_process(name: str, seed: int, seconds: float, trace: bool,
                   size: Optional[int] = None,
                   trace_out: Optional[str] = None) -> dict:
    """Set up and measure one workload in this process.

    ``setup_s`` is then a single sample: the workload's construction
    time, without interpreter start and imports.
    """
    from workloads import make_workload

    start = time.perf_counter()
    workload = make_workload(name, seed, str(WORK_ROOT), size=size)
    setup_s = time.perf_counter() - start
    result = measure(workload, seconds, trace, trace_out)
    result["setup_s"] = [setup_s]
    return result


def child_main(args) -> int:
    """Set up, report ready, then run or exit as the parent says."""
    from workloads import make_workload

    workload = make_workload(args.child, args.seed, str(WORK_ROOT))
    print(READY, flush=True)
    if sys.stdin.readline().strip() != "run":
        workload.close()
        return 0
    result = measure(workload, args.seconds, bool(args.trace),
                     args.trace_out)
    print(RESULT + json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# Driving workload processes
# ---------------------------------------------------------------------------


class BenchError(RuntimeError):
    """A workload process failed before producing a result."""


def _spawn(name: str, seed: int, seconds: float, trace: bool,
           trace_out: Optional[str], run: bool):
    """One workload process: ``(setup seconds, result or None)``."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--child", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace_out:
        command += ["--trace-out", trace_out]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        setup_s = None
        result = None
        for line in proc.stdout:
            if line.startswith(READY) and setup_s is None:
                setup_s = time.perf_counter() - start
                proc.stdin.write("run\n" if run else "exit\n")
                proc.stdin.close()
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup_s is None or (run and result is None):
        raise BenchError(f"{name}: workload process exited with {code}")
    return setup_s, result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_out: Optional[str] = None) -> dict:
    """Measure ``name`` through fresh processes (see module doc)."""
    setup = []
    result = None
    for sample in range(SETUP_SAMPLES):
        last = sample == SETUP_SAMPLES - 1
        setup_s, result = _spawn(name, seed, seconds, trace,
                                 trace_out if last else None, run=last)
        setup.append(setup_s)
    result["setup_s"] = setup
    return result


def _summary(samples: list, statistic, shown: Optional[list] = None
             ) -> dict:
    value, q1, q3 = estimate(samples, statistic)
    shown = samples if shown is None else shown
    return {"value": value, "q1": q1, "q3": q3, "n": len(shown),
            "samples": shown}


def summarize(result: dict, seed: int, spec: dict) -> dict:
    """A result record: end-to-end metrics with their spread, and every
    per-layer metric (0 for layers the workload does not exercise)."""
    rates, probes = result["host_items_per_s"], result["probes_per_s"]
    host_speed = fast_decile(probes) / hostspeed.NOMINAL_PROBES_PER_S
    end_to_end = {
        # samples shown as per-repeat rates scaled by the run's host speed
        "items_per_s": _summary(list(zip(rates, probes)), scaled_rate,
                                [rate / host_speed for rate in rates]),
        "setup_s": _summary(result["setup_s"], statistics.median),
        "peak_rss_mb": _summary([result["peak_rss_mb"]], statistics.median),
    }
    layers = result["layers"]
    if layers is not None:
        layers = {m["name"]: layers.get(m["name"], 0.0)
                  for m in spec["per_layer"]}
    return {
        "workload": result["workload"],
        "seed": seed,
        "unit": result["unit"],
        "items": result["items"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "host_speed": host_speed,
        "host_items_per_s": fast_decile(rates),
        "end_to_end": end_to_end,
        "per_layer": layers,
    }


def contract_line(record: dict, spec: dict, trace: bool) -> dict:
    """The one-line JSON result of a single-workload run."""
    if trace:
        metrics = {m["name"]: {"value": record["per_layer"][m["name"]],
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value":
                               record["end_to_end"][m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    if value == 0 or not math.isfinite(value):
        return f"{value:g}"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def print_report(records: List[dict], spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for record in records:
        failed_frac = record["failed"] / max(record["attempted"], 1)
        print(f"\n== {record['workload']} (seed {record['seed']}, "
              f"{record['items']} {record['unit']}s per repeat) ==")
        print(f"  {'metric':<22}{'unit':>7}{'value':>12}{'q1':>12}"
              f"{'q3':>12}{'n':>4}")
        for name, stats in record["end_to_end"].items():
            print(f"  {name:<22}{units[name]:>7}{_fmt(stats['value']):>12}"
                  f"{_fmt(stats['q1']):>12}{_fmt(stats['q3']):>12}"
                  f"{stats['n']:>4}")
        print(f"  {'failed_frac':<22}{'ratio':>7}{_fmt(failed_frac):>12}"
              f"   ({record['failed']} of {record['attempted']})")
        print(f"  host speed {record['host_speed']:.3f} of nominal; "
              f"unscaled rate {_fmt(record['host_items_per_s'])}/s")
        for problem in record["problems"]:
            print(f"  FAILED: {problem}")
        if record["per_layer"]:
            print("  per layer (one traced repeat):")
            for name, unit in layer_units.items():
                print(f"    {name:<30}{_fmt(record['per_layer'][name]):>12}"
                      f" {unit}")


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """better / same / worse / unresolved, per choosing-metrics 6.5."""
    sign = 1.0 if better == "higher" else -1.0
    spread = max((stats["q3"] - stats["q1"]) / abs(stats["value"])
                 if stats["value"] else 0.0 for stats in (base, new))
    if spread > bound:
        if all(sign * (n - b) > 0 for n in new["samples"]
               for b in base["samples"]):
            return "better"
        return "unresolved"
    change = sign * (new["value"] - base["value"]) / abs(base["value"])
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def compare(base_path: str, new_path: str, spec: dict) -> int:
    """Print base vs new per workload x metric; 1 when any is worse."""
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)["workloads"]
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)["workloads"]
    worse = 0
    print(f"{'workload':<12}{'metric':<16}{'base value [q1, q3]':>30}"
          f"{'new value [q1, q3]':>30}{'change':>9}  verdict (bound)")
    for name in base:
        if name not in new:
            print(f"{name:<12}missing from {new_path}: worse")
            worse += 1
            continue
        for metric in spec["end_to_end"]:
            b = base[name]["end_to_end"][metric["name"]]
            n = new[name]["end_to_end"][metric["name"]]
            result = verdict(b, n, metric["better"], metric["bound"])
            worse += result == "worse"
            change = (n["value"] - b["value"]) / abs(b["value"])
            print(f"{name:<12}{metric['name']:<16}"
                  f"{_span(b):>30}{_span(n):>30}{change:>+9.1%}  "
                  f"{result} ({metric['bound']:.0%})")
        fracs = [r["failed"] / max(r["attempted"], 1)
                 for r in (base[name], new[name])]
        result = "worse" if fracs[1] > fracs[0] else "same"
        worse += result == "worse"
        print(f"{name:<12}{'failed_frac':<16}{_fmt(fracs[0]):>30}"
              f"{_fmt(fracs[1]):>30}{'':>9}  {result} (0)")
        base_layers = base[name].get("per_layer") or {}
        new_layers = new[name].get("per_layer") or {}
        for layer in spec["per_layer"]:
            key = layer["name"]
            if key not in base_layers or key not in new_layers:
                continue
            b, n = base_layers[key], new_layers[key]
            delta = f"{(n - b) / abs(b):+.1%}" if b else "n/a"
            print(f"{'':<12}  {key:<30}{_fmt(b):>14}{_fmt(n):>14}"
                  f"{delta:>9} {layer['unit']}")
    return 1 if worse else 0


def _span(stats: dict) -> str:
    return (f"{_fmt(stats['value'])} [{_fmt(stats['q1'])}, "
            f"{_fmt(stats['q3'])}]")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the F1 flow levels and the sweep path.")
    parser.add_argument("--workload", help="run one workload and print "
                        "its JSON result line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed repeats per workload (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports per-layer metrics")
    parser.add_argument("--out", help="write all results to this JSON file")
    parser.add_argument("--trace-out", help="directory for Chrome traces "
                        "(one <workload>.trace.json each)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])

    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}")
        names = [args.workload]
    trace = bool(args.trace) or not args.workload
    if args.trace_out:
        os.makedirs(args.trace_out, exist_ok=True)
    records = []
    try:
        for name in names:
            trace_out = (os.path.abspath(os.path.join(
                args.trace_out, f"{name}.trace.json"))
                if args.trace_out else None)
            result = run_workload(name, args.seed, seconds, trace,
                                  trace_out)
            records.append(summarize(result, args.seed, spec))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    failed = any(record["failed"] for record in records)
    if args.workload:
        print(json.dumps(contract_line(records[0], spec, bool(args.trace))))
        return 1 if failed else 0
    print_report(records, spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": seconds,
                       "workloads": {r["workload"]: r for r in records}},
                      fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
