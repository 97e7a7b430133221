"""randgroups benchmark: four workloads, end-to-end metrics and a traced
per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a source checkout; it imports the library from `src/`.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  `--workload all` runs every workload in
turn, each in a fresh process.  bench/README.md describes the workloads
and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 5        # fresh processes timed for setup_s; the median is reported
TAIL_PERCENTILE = 75  # every workload's minimum run leaves >= 10 items beyond it
MIN_BEYOND_TAIL = 10


def load_workloads():
    """The workload module, or exit non-zero when the library is missing."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as e:
        sys.exit(f"bench: cannot import randgroups from {ROOT / 'src'}: {e}")
    return workloads


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh process to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with code {proc.returncode}")
    return times


class Run:
    """One pass over rounds of tasks: latencies, records and failures."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.latencies: list[float] = []   # seconds per item, one entry per task
        self.round_busy: dict[int, float] = {}
        self.items = 0
        self.busy = 0.0
        self.done: list[tuple[object, dict | None, str | None]] = []  # (task, record, error)
        self.replay_problems: list[str] = []
        self.digest = hashlib.sha256()

    def round(self, r: int) -> None:
        for task in self.wl.tasks(r):
            self.tracer.item(f"{r}:{task.label}")
            error = rec = None
            t0 = time.perf_counter()
            try:
                with self.tracer.span("item"):
                    raw = task.fn(self.tracer)
            except Exception:
                error = traceback.format_exc()
            dt = time.perf_counter() - t0
            self.items += task.items
            self.busy += dt
            self.latencies.append(dt / task.items)
            self.round_busy[r] = self.round_busy.get(r, 0.0) + dt
            if error is None:
                try:
                    rec = self.wl.record(task, raw)
                except Exception:
                    error = traceback.format_exc()
            self.done.append((task, rec, error))
            if error is not None:
                continue
            if r < self.wl.trace_rounds:
                self.digest.update(json.dumps(rec, sort_keys=True).encode())
            replay = getattr(self.wl, "replay", None)
            if self.tracer.enabled and replay is not None:
                try:
                    with self.tracer.span("replay"):
                        self.replay_problems.extend(replay(rec, self.tracer))
                except Exception:
                    self.replay_problems.append(traceback.format_exc())


def run_all(names: list[str], args) -> int:
    """Each workload in its own fresh process; non-zero if any run fails."""
    worst = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
        if result is None or not result["correct"]:
            worst = 1
    return worst


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or `all` to run each in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    workloads = load_workloads()
    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_only:
        cls(args.seed, OUT_DIR)
        print("ready", flush=True)
        return 0

    import numpy
    from spans import NullTracer, Tracer, layer_metrics

    # the torsion query's raw-word fallback warns on every call
    logging.getLogger("randgroups").setLevel(logging.ERROR)
    wl = cls(args.seed, OUT_DIR)
    setup_times = measure_setup(args.workload, args.seed)

    # Timed phase, tracing off: whole rounds until both the time and the
    # minimum number of rounds are reached.
    run = Run(wl, NullTracer())
    start = time.perf_counter()
    r = 0
    while r < wl.min_rounds or time.perf_counter() - start < args.seconds:
        run.round(r)
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced = None
    if args.trace:
        traced = Run(wl, Tracer())
        for r in range(wl.trace_rounds):
            traced.round(r)

    # Output checks, outside the timed phase.
    failed = 0
    for task, rec, error in run.done:
        try:
            problems = [error] if error else wl.check(rec)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            failed += task.items
            print(f"FAILED {task.label} (round {task.round}): {'; '.join(problems)}", file=sys.stderr)
    gate_problems = wl.gates([rec for _, rec, error in run.done if not error])
    if traced is not None:
        if traced.digest.hexdigest() != run.digest.hexdigest():
            gate_problems.append("traced and untraced digests differ")
        gate_problems.extend(error for _, _, error in traced.done if error)
        gate_problems.extend(traced.replay_problems)

    for msg in gate_problems:
        print(f"FAILED GATE: {msg}", file=sys.stderr)

    print(f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"numpy={numpy.__version__}")
    print(f"workload {wl.name}, seed {args.seed}: {run.items} items ({wl.item_unit}) in "
          f"{len(run.latencies)} calls over {len(run.round_busy)} rounds")
    print(f"digest {run.digest.hexdigest()} (first {wl.trace_rounds} rounds)")
    print(f"fail_frac {failed / run.items:.6f} ({failed}/{run.items})")

    if traced is None:
        lat = run.latencies
        tail = percentile(lat, TAIL_PERCENTILE)
        if sum(x > tail for x in lat) < MIN_BEYOND_TAIL:
            gate_problems.append(f"fewer than {MIN_BEYOND_TAIL} calls beyond p{TAIL_PERCENTILE}")
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "items_per_s": (run.items / run.busy, "items/s"),
            "item_p50_ms": (statistics.median(lat) * 1000, "ms"),
            "item_tail_ms": (tail * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        print(f"item latency: each call's time over its items; tail is p{TAIL_PERCENTILE} "
              f"over {len(lat)} calls")
    else:
        tr = traced.tracer
        tr.write(OUT_DIR / f"trace-{wl.name}-{args.seed}.json")
        metrics = layer_metrics(tr)
        replay_ids = {s["id"] for s in tr.spans if s["name"] == "replay"}
        replayed = sum(s["end"] - s["start"] for s in tr.spans if s["parent"] in replay_ids)
        metrics["harness.run_experiment.self_s"] = (tr.busy("harness.run_experiment") - replayed, "s")
        untraced = sum(run.round_busy[r] for r in range(wl.trace_rounds))
        metrics["trace.overhead_frac"] = (traced.busy / untraced - 1, "ratio")
        print(f"share of item wall time ({traced.busy:.3f} s over {wl.trace_rounds} rounds; "
              "replayed layers are extra work measured outside the items):")
        replayed_names = {s["name"] for s in tr.spans if s["parent"] in replay_ids}
        for name in sorted({s["name"] for s in tr.spans} - {"item", "replay"}):
            tag = " (replayed)" if name in replayed_names else ""
            print(f"  {name:38s} {tr.busy(name) / traced.busy:7.3f}{tag}")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": not failed and not gate_problems,
        "attempted": run.items,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
