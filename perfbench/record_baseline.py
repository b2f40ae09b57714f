"""Record the host and a baseline of every workload into baseline.json.

Run from the repository root:

    python3 perfbench/record_baseline.py --seeds 1-10

Each workload runs once per seed untraced and once (on the first seed)
traced. For every end-to-end metric the file keeps the median, the
quartiles and the spread (interquartile range over median) of the seeds.
The host section records the BLAS thread pin the launcher sets and the
median time of the speed kernel that times are normalised by (speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

import run  # noqa: E402  (same directory)


def host_record() -> dict:
    os.environ.update(run.BLAS_PIN)
    import numpy as np

    import speed

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_thread_pin": run.BLAS_PIN,
        "speed_kernel_ms": speed.kernel_seconds(201) * 1e3,
        "reference_kernel_ms": speed.REFERENCE_KERNEL_S * 1e3,
    }


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: " + ", ".join(
        f"{k} {v['value']:.5g}" for k, v in list(line["metrics"].items())[:6]), file=sys.stderr, flush=True)
    return line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last run seeds")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--out", default=str(BENCH_DIR / "baseline.json"))
    args = parser.parse_args()
    first, last = (int(v) for v in args.seeds.split("-"))
    seconds = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    doc = {"host": host_record(), "run_seconds": seconds, "seeds": args.seeds, "untraced": {}, "traced": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        for seed in range(first, last + 1):
            for name, m in bench(workload, seed, seconds, 0)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "unit": units[name]}
        doc["untraced"][workload] = summary
        traced = bench(workload, first, seconds, 1)["metrics"]
        doc["traced"][workload] = {name: m["value"] for name, m in traced.items()}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
