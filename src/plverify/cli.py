"""Command line interface: verify / bench / cactus / gen-suite.

Methods:

* babsb           branch-and-bound, smart input branching, tightened hull bounds
* bab-input       branch-and-bound, longest-edge input branching
* bab-relusplit   branch-and-bound splitting ReLU phases, bounds rebuilt per child
* mip-planet-opt  big-M MIP, hull-tightened bounds, minimised output
* mip-planet-feas the same search as mip-planet-opt (the feasibility form
                  of the question is answered by the minimum's sign)
* mip-interval    big-M MIP, interval bounds, minimised output
* mip-sym         big-M MIP, symmetric big-M constant, minimised output

Every method works on the canonical scalar-output network with MaxPools
lowered to ReLUs; SAT is only ever reported after the counterexample
re-validates against the original canonical network. Runs are
single-threaded and bit-reproducible apart from ``time_s``. Exit codes for
``verify``: 0 UNSAT, 1 SAT, 2 TIMEOUT, 3 ERROR.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import formats
from .bab import SAT, TIMEOUT, UNSAT, BabConfig, INPUT_LONGEST, INPUT_SMART, RELU_SPLIT, bab_verify
from .canon import PropertyClause, canonicalize, lower_maxpools, validate_counterexample
from .mip import INTERVAL_VARIANT, PLANET_OPT, PLANET_SYMFEASIBLE, encode_mip, solve_mip
from .model import BoxDomain, Network

BAB_METHODS = {
    "babsb": INPUT_SMART,
    "bab-input": INPUT_LONGEST,
    "bab-relusplit": RELU_SPLIT,
}
MIP_METHODS = {
    "mip-planet-opt": PLANET_OPT,
    "mip-planet-feas": PLANET_OPT,
    "mip-interval": INTERVAL_VARIANT,
    "mip-sym": PLANET_SYMFEASIBLE,
}
METHODS = list(BAB_METHODS) + list(MIP_METHODS)

STATUS_NAMES = {UNSAT: "UNSAT", SAT: "SAT", TIMEOUT: "TIMEOUT"}
EXIT_CODES = {"UNSAT": 0, "SAT": 1, "TIMEOUT": 2, "ERROR": 3}


@dataclass
class RunRecord:
    problem: str
    method: str
    status: str  # UNSAT | SAT | TIMEOUT | ERROR
    time_s: float
    nodes: int
    lb: float
    ub: float
    spurious_candidates: int
    result_file: str = ""


def run_verify(
    net: Network,
    prop: PropertyClause,
    box: BoxDomain,
    method: str,
    timeout: float = np.inf,
    eps: float = 1e-4,
    seed: int = 0,
    sample_count: int = 1024,
    out: str | Path | None = None,
    problem_id: str = "problem",
) -> RunRecord:
    """Canonicalise, lower MaxPools, dispatch, validate, write the result."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    t0 = time.monotonic()
    problem = canonicalize(net, prop, box)
    work_problem = lower_maxpools(problem)

    if method in BAB_METHODS:
        cfg = BabConfig(
            epsilon=eps,
            branching=BAB_METHODS[method],
            sample_count=sample_count,
            timeout=timeout,
            seed=seed,
        )
        res = bab_verify(work_problem, cfg)
    else:
        enc = encode_mip(work_problem.canonical_net, box, MIP_METHODS[method])
        res = solve_mip(enc, timeout=timeout)

    status = STATUS_NAMES.get(res.status, "ERROR")
    counterexample = None
    if status == "SAT":
        counterexample = res.counterexample
        if not validate_counterexample(problem, counterexample, 1e-6):
            status = "ERROR"  # never surface an unvalidated counterexample
            counterexample = None
    wall = time.monotonic() - t0

    doc = {
        "status": status,
        "margin": None if res.margin is None else float(res.margin),
        "counterexample": None if counterexample is None else [float(v) for v in counterexample],
        "nodes": res.nodes,
        "time_s": wall,
        "lb": float(res.best_lb),
        "ub": float(res.best_ub),
        "spurious_candidates": res.spurious_candidates,
    }
    result_file = ""
    if out is not None:
        formats.save_result(doc, out)
        result_file = str(out)
    return RunRecord(problem_id, method, status, wall, res.nodes, doc["lb"], doc["ub"], res.spurious_candidates, result_file)


def discover_problems(directory: str | Path) -> list[tuple[str, Path, Path]]:
    d = Path(directory)
    if not d.is_dir():
        raise ValueError(f"not a directory: {d}")
    out = []
    for net_file in sorted(d.glob("*.net.json")):
        stem = net_file.name[: -len(".net.json")]
        prop_file = d / f"{stem}.prop.json"
        if prop_file.exists():
            out.append((stem, net_file, prop_file))
    return out


def run_bench(
    directory: str | Path,
    methods: list[str],
    out_csv: str | Path,
    timeout: float = 60.0,
    eps: float = 1e-4,
    seed: int = 0,
    sample_count: int = 1024,
    results_dir: str | Path | None = None,
) -> list[RunRecord]:
    """Run every (problem, method) pair in the directory; write a CSV."""
    problems = discover_problems(directory)
    rdir = Path(results_dir) if results_dir is not None else Path(out_csv).parent / "results"
    rdir.mkdir(parents=True, exist_ok=True)
    records: list[RunRecord] = []
    for stem, net_file, prop_file in problems:
        net = formats.load_network(net_file)
        prop, box = formats.load_property(prop_file)
        for method in methods:
            out = rdir / f"{stem}__{method}.result.json"
            try:
                rec = run_verify(
                    net, prop, box, method,
                    timeout=timeout, eps=eps, seed=seed,
                    sample_count=sample_count, out=out, problem_id=stem,
                )
            except Exception as exc:  # record, keep benching
                rec = RunRecord(stem, method, "ERROR", 0.0, 0, -np.inf, np.inf, 0, str(out))
                rec_doc = {"status": "ERROR", "error": str(exc)}
                out.write_text(json.dumps(rec_doc) + "\n", encoding="utf-8")
            records.append(rec)
    write_records_csv(records, out_csv)
    return records


CSV_FIELDS = ["problem", "method", "status", "time_s", "nodes", "lb", "ub", "spurious_candidates", "result_file"]


def write_records_csv(records: list[RunRecord], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for r in records:
            writer.writerow([r.problem, r.method, r.status, f"{r.time_s:.6f}", r.nodes, repr(r.lb), repr(r.ub), r.spurious_candidates, r.result_file])


def cactus(csv_path: str | Path) -> list[tuple[str, float, float]]:
    """Per method: sorted cumulative (time budget, fraction solved) rows.

    The fraction at budget t counts problems decided (SAT or UNSAT) within
    t seconds, over all problems the method attempted. A method that solved
    nothing contributes a single zero row.
    """
    per_method: dict[str, list[tuple[float, bool]]] = {}
    with open(csv_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            solved = row["status"] in ("UNSAT", "SAT")
            per_method.setdefault(row["method"], []).append((float(row["time_s"]), solved))
    rows: list[tuple[str, float, float]] = []
    for method in sorted(per_method):
        runs = per_method[method]
        total = len(runs)
        times = sorted(t for t, ok in runs if ok)
        if not times:
            rows.append((method, 0.0, 0.0))
            continue
        done = 0
        for i, t in enumerate(times):
            done = i + 1
            if i + 1 < len(times) and times[i + 1] == t:
                continue  # collapse equal budgets into the last fraction
            rows.append((method, t, done / total))
    return rows


def write_cactus_csv(rows: list[tuple[str, float, float]], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "budget_s", "fraction_solved"])
        for method, budget, frac in rows:
            writer.writerow([method, f"{budget:.6f}", f"{frac:.6f}"])


def _load_net_arg(path: str, fmt: str) -> Network:
    if fmt == "nnet":
        return formats.load_nnet(path)
    return formats.load_network(path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="plverify", description="Piecewise-linear network verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify one property against one network")
    p_verify.add_argument("--net", required=True)
    p_verify.add_argument("--prop", required=True)
    p_verify.add_argument("--format", choices=["plnn", "nnet"], default="plnn")
    p_verify.add_argument("--method", required=True, choices=METHODS)
    p_verify.add_argument("--timeout", type=float, default=3600.0)
    p_verify.add_argument("--eps", type=float, default=1e-4)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=1024)
    p_verify.add_argument("--out", default=None, help="result JSON path")

    p_bench = sub.add_parser("bench", help="run every problem/method pair in a directory")
    p_bench.add_argument("--dir", required=True)
    p_bench.add_argument("--methods", default=",".join(METHODS))
    p_bench.add_argument("--timeout", type=float, default=60.0)
    p_bench.add_argument("--eps", type=float, default=1e-4)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--samples", type=int, default=1024)
    p_bench.add_argument("--out", required=True, help="runs CSV path")
    p_bench.add_argument("--results-dir", default=None)

    p_cactus = sub.add_parser("cactus", help="aggregate a runs CSV into coverage rows")
    p_cactus.add_argument("--csv", required=True)
    p_cactus.add_argument("--out", default=None, help="cactus CSV path (default: stdout)")

    p_gen = sub.add_parser("gen-suite", help="generate a reproducible benchmark directory")
    p_gen.add_argument("--out-dir", required=True)
    p_gen.add_argument("--count", type=int, default=20)
    p_gen.add_argument("--seed", type=int, default=1000)

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            net = _load_net_arg(args.net, args.format)
            prop, box = formats.load_property(args.prop)
            rec = run_verify(
                net, prop, box, args.method,
                timeout=args.timeout, eps=args.eps, seed=args.seed,
                sample_count=args.samples, out=args.out,
                problem_id=Path(args.net).name,
            )
            print(f"{rec.status} nodes={rec.nodes} lb={rec.lb:.6g} ub={rec.ub:.6g} time={rec.time_s:.3f}s")
            return EXIT_CODES[rec.status]
        if args.command == "bench":
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            for m in methods:
                if m not in METHODS:
                    raise ValueError(f"unknown method {m!r}")
            records = run_bench(
                args.dir, methods, args.out,
                timeout=args.timeout, eps=args.eps, seed=args.seed,
                sample_count=args.samples, results_dir=args.results_dir,
            )
            n_err = sum(1 for r in records if r.status == "ERROR")
            print(f"wrote {len(records)} runs to {args.out} ({n_err} errors)")
            return 0
        if args.command == "cactus":
            rows = cactus(args.csv)
            if args.out:
                write_cactus_csv(rows, args.out)
                print(f"wrote {len(rows)} rows to {args.out}")
            else:
                for method, budget, frac in rows:
                    print(f"{method},{budget:.6f},{frac:.6f}")
            return 0
        if args.command == "gen-suite":
            from .gensuite import standard_suite, write_suite

            manifest = write_suite(standard_suite(args.count, args.seed), args.out_dir)
            print(f"generated {len(manifest)} instances in {args.out_dir}")
            return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 3


if __name__ == "__main__":
    sys.exit(main())
