"""plverify benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for the exact op of each, inputs.py for the
pools):

* ``verify``   - the user-facing verdict path: 40 standard-suite instances
  times the 7 methods of ``cli.run_verify``;
* ``optimize`` - the deep-search path: ``bab.bab_optimize`` on 40 suite
  instances with at most 3 inputs, seed 1016 (never converges today)
  included;
* ``generate`` - suite generation: ``gensuite.generate`` on the same 40
  specs, nearly all of its time in tiny, mostly infeasible oracle LPs;
* ``all``      - each of the three in turn.

The launcher pins BLAS to one thread before numpy is imported anywhere,
prepares the instance cache (untimed), then starts the workload process
``SETUP_PROBES`` times: all but the last to measure set-up alone, the last
for the measured run. ``setup_s`` is the median of their set-ups.

End-to-end metrics (``--trace 0``): ``setup_s``, ``ops_per_s``,
``op_p50_ms``, ``op_tail_ms`` (the highest of p75/p90/p95/p99/p99.9 with at
least 10 of one pass's ops beyond it, so its rank does not move with speed)
and ``peak_rss_mb``. Every time is normalised to a reference host speed
(speed.py); the raw wall times are printed beside them. ``fail_frac`` is
printed too, but reported in the JSON line only by the traced run: it is 0
on two workloads, and a reported end-to-end metric must never be 0.
Per-layer metrics (``--trace 1``) are listed in tracer.py, plus
``fail_frac`` and ``trace.overhead_frac``.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Any wrong answer makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
WORKLOADS = ["verify", "optimize", "generate"]
CACHED = {"verify", "optimize"}  # load their pool from the instance cache
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
TAIL_LADDER = [99.9, 99.0, 95.0, 90.0, 75.0]
WORKER_TIMEOUT_S = 170


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_rank(ops_per_pass: int) -> float | None:
    for p in TAIL_LADDER:
        if ops_per_pass * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def start_worker(workload: str, args, extra: list[str]) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "workloads.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--suite-seed", str(args.suite_seed), "--t0", repr(time.monotonic()),
    ] + extra
    proc = subprocess.run(cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, args) -> tuple[dict, list[str]]:
    """(result fields for the JSON line, printable report lines)."""
    if workload in CACHED:
        import inputs

        inputs.prepare_cache(inputs.POOLS[workload](args.suite_seed))
    extra = ["--trace", str(args.trace)]
    probes = []
    if not args.trace:
        probes = [start_worker(workload, args, ["--setup-only"]) for _ in range(SETUP_PROBES - 1)]
    raw = start_worker(workload, args, extra)
    probes.append(raw)
    setups = [p["setup_s"] for p in probes]

    n = len(raw["op_s"])
    attempted = raw["attempted"]
    fail_frac = (raw["capped"] + raw["failed"]) / attempted
    report = [
        f"== {workload}: {raw['passes']} pass(es) of {raw['ops_per_pass']} ops, {raw['elapsed_s']:.2f} s wall timed, "
        f"{sum(raw['op_s']):.2f} s normalised; raw set-up {statistics.median(p['setup_raw_s'] for p in probes):.3f} s"
    ]
    if args.trace:
        metrics = {name: (value, unit) for name, (value, unit) in raw["layer_metrics"].items()}
        metrics["fail_frac"] = (fail_frac, "ratio")
        report.append(f"   spans written to {raw['trace_file']}")
    else:
        ms = sorted(t * 1000.0 for t in raw["op_s"])
        rank = tail_rank(raw["ops_per_pass"])
        if rank is None:
            raise RuntimeError(f"{workload}: {raw['ops_per_pass']} ops per pass leave no tail percentile")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (n / sum(raw["op_s"]), "ops/s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_tail_ms": (percentile(ms, rank), "ms"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
        }
        beyond = round(n * (1.0 - rank / 100.0))
        report.append(f"   op_tail_ms is p{rank:g} of {n} ops ({beyond} beyond it); fail_frac {fail_frac:.4f}")
    width = max(len(k) for k in metrics)
    report += [f"   {name:<{width}}  {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    report += [f"   WRONG: {p}" for p in raw["problems"]]
    fields = {
        "correct": not raw["problems"],
        "attempted": attempted,
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return fields, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0, help="orders the ops of each pass")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--suite-seed", type=int, default=1000, help="first standard-suite seed of every pool")
    args = parser.parse_args()

    if not (REPO_ROOT / "src" / "plverify" / "__init__.py").is_file():
        print(f"error: no plverify sources under {REPO_ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)  # inherited by the workers; set before any numpy import

    selected = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in selected:
            fields, report = run_workload(workload, args)
            print("\n".join(report), flush=True)
            results[workload] = fields
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if len(selected) == 1:
        line = results[selected[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
