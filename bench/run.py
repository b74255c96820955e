"""Run benchmark workloads against the tcis sources in this checkout.

    python3 bench/run.py --workload census --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36

Each workload is a single-client closed loop in one process: the next job
starts when the previous one returns.  Jobs come from the seed
(workloads.py) and every answer is checked against ground truth
(truth.py); checks are not timed.  The job list runs as whole passes while
another pass still fits in --seconds, and at least once.  ``--workload
all`` runs every workload in a fresh process of its own, one after the
other, and prints their metrics side by side.

--trace 0 reports the end-to-end metrics:
  setup_s      median time to import tcis afresh, load the bundled data,
               generate the seeded inputs and write the CLI input files;
               set-up runs before the first pass and again after each pass
               (at least SETUP_REPEATS times), so its samples span the run
  wall_s       time for the whole job list: the sum over its jobs of each
               job's median latency over the passes
  job_p50_ms   median job latency over every job of every pass
  job_p90_ms   90th-percentile job latency, same samples
  peak_rss_mb  peak resident memory of this process (ru_maxrss)
--trace 1 alternates untraced and traced passes (tracing.py) and reports
per-layer metrics per traced pass; the tracing overhead is the mean traced
pass minus the mean untraced pass.

The last stdout line is the JSON result; the lines before it give every
metric by name with its unit, the failed fraction, per-kind job latency
and the host context.  A record of the run, and the spans of a traced
run, go to .bench_out/ at the checkout root.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
PROBE_LOOPS = 2_000_000

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop; context for host drift only."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i & 7
    return time.perf_counter() - t0


def host_info() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def import_tcis():
    """A fresh import of tcis from this checkout's sources."""
    for name in [m for m in sys.modules if m == "tcis" or m.startswith("tcis.")]:
        del sys.modules[name]
    api = importlib.import_module("tcis")
    importlib.import_module("tcis.cli")
    return api


class SetUp:
    """Builds the workload's jobs and times every build."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.workdir = OUT / workload
        self.times: list[float] = []

    def __call__(self):
        t0 = time.perf_counter()
        self.workdir.mkdir(parents=True, exist_ok=True)
        api = import_tcis()
        ctx = {"data": SRC / "tcis" / "data", "workdir": self.workdir}
        jobs = workloads.WORKLOADS[self.workload](api, random.Random(self.seed), ctx)
        self.times.append(time.perf_counter() - t0)
        return api, jobs


def run_passes(jobs, seconds: float, tracer=None, after_pass=None):
    """Whole passes while another one fits in `seconds`, at least one.

    With a tracer, passes alternate untraced and traced, starting
    untraced, and at least one of each runs, so both kinds see the same
    host conditions.  Returns (traced, summed job latency) per pass, the
    per-job (kind, latency) samples and the failure messages.
    """
    walls, samples, failures = [], [], []
    start = time.perf_counter()
    last = 0.0  # elapsed time of the previous pass, checks included
    while len(walls) < (2 if tracer else 1) or time.perf_counter() - start + last <= seconds:
        pass_start = time.perf_counter()
        traced = tracer is not None and len(walls) % 2 == 1
        if traced:
            tracer.install()
        total = 0.0
        try:
            for job in jobs:
                if traced:
                    tracer.job += 1
                t0 = time.perf_counter()
                try:
                    result = job.call()
                except Exception as e:  # a failed job is counted, not fatal
                    dt = time.perf_counter() - t0
                    failures.append(f"{job.kind}: raised {e!r}")
                else:
                    dt = time.perf_counter() - t0
                    try:
                        job.check(result)
                    except Exception as e:
                        failures.append(f"{job.kind}: {e!r}")
                    del result
                total += dt
                samples.append((job.kind, dt))
        finally:
            if traced:
                tracer.remove()
        walls.append((traced, total))
        if after_pass is not None:
            after_pass()
        last = time.perf_counter() - pass_start
    return walls, samples, failures


def run_one(args) -> int:
    if not (SRC / "tcis" / "__init__.py").is_file():
        print(f"error: no tcis sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    host = host_info()
    probe_before = host_probe()
    setup = SetUp(args.workload, args.seed)
    api, jobs = setup()

    tracer = tracing.Tracer(api) if args.trace else None
    walls, samples, failures = run_passes(
        jobs, args.seconds, tracer, after_pass=None if args.trace else setup)
    traced_walls = [w for traced, w in walls if traced]
    walls = [w for traced, w in walls if not traced]
    if args.trace:
        metrics = tracer.layer_metrics(len(traced_walls), sum(traced_walls))
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(walls)
        units = tracing.metric_names()
    else:
        while len(setup.times) < SETUP_REPEATS:
            setup()
        lat = [dt for _, dt in samples]
        metrics = {
            "setup_s": statistics.median(setup.times),
            "wall_s": sum(statistics.median(lat[j::len(jobs)]) for j in range(len(jobs))),
            "job_p50_ms": statistics.median(lat) * 1e3,
            "job_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    probe_after = host_probe()

    per_kind: dict[str, list[float]] = {}
    for kind, dt in samples:
        per_kind.setdefault(kind, []).append(dt)
    attempted = len(samples)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "probe_s": {"before": probe_before, "after": probe_after},
        "setup_s": setup.times,
        "pass_wall_s": walls,
        "traced_pass_wall_s": traced_walls,
        "jobs_per_pass": len(jobs),
        "job_median_ms": {k: statistics.median(v) * 1e3 for k, v in sorted(per_kind.items())},
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(walls)} pass(es)" + (f" and {len(traced_walls)} traced" if args.trace else "")
          + f" of {len(jobs)} jobs, {attempted} latency samples")
    print(f"host: python {host['python']}, numpy {host['numpy']}, {host['cpu']}, "
          f"nproc {host['nproc']}; probe {probe_before:.3f} s before, {probe_after:.3f} s after")
    for kind, v in sorted(per_kind.items()):
        print(f"  {kind:<20} {len(v):6d} jobs  median {statistics.median(v) * 1e3:10.3f} ms")
    for name, unit in units:
        print(f"{name:<40} {metrics[name]:14.6f} {unit}")
    print(f"{'failed_frac':<40} {record['failed_frac']:14.6f} ratio "
          f"({len(failures)} of {attempted})")
    for msg in failures[:10]:
        print(f"FAILED {msg}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, then one table of their metrics."""
    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results)
    print(f"{'metric':<40}" + "".join(f"{n:>16}" for n in names) + "  unit")
    for metric, m in next(iter(results.values()))["metrics"].items():
        row = "".join(f"{r['metrics'][metric]['value']:16.6f}" for r in results.values())
        print(f"{metric:<40}{row}  {m['unit']}")
    row = "".join(f"{r['failed'] / r['attempted']:16.6f}" for r in results.values())
    print(f"{'failed_frac':<40}{row}  ratio")
    row = "".join(f"{r['attempted']:16d}" for r in results.values())
    print(f"{'latency samples':<40}{row}  count")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
