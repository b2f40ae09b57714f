"""One workload process: set up, run timed passes, check every answer.

Started by ``run.py``, never by hand. The load is a closed loop: one client
runs operations back to back in this single process. An operation (op) is

* ``verify``: one ``cli.run_verify(net, prop, box, method, seed=7)`` per
  instance of the full pool and method, all 7 methods on every instance;
* ``optimize``: one ``bab.bab_optimize`` on an instance of the small pool
  after MaxPool lowering, with
  ``BabConfig(epsilon=1e-3, seed=7, node_cap=OPT_NODE_CAP)``;
* ``generate``: one ``gensuite.generate(spec.seed, spec)`` per spec of the
  small pool.

A pass runs every op of the workload once, in an order shuffled from the run
seed. Passes repeat while the next one is predicted to end within the run's
seconds; there is always at least one. Whole passes keep the measured mix of
ops identical between runs and seeds. Op times are normalised to a reference
host speed (see speed.py).

Set-up time runs from the moment ``run.py`` started this process to the first
timed op: imports, loading the cached instances through ``formats``,
canonicalisation and MaxPool lowering, and one warm-up op on the pool's
first instance. It is normalised by the kernel time measured right after it.
Answers are checked after the timed phase.

With ``--trace 1`` the run makes one untraced pass and then the same pass
traced; the per-layer metrics cover set-up and the traced pass, their times
normalised by the speed samples of the traced pass.

Prints one JSON object on its last stdout line for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import sys
import time
from pathlib import Path

import inputs
import speed
import tracer

METHOD_SEED = 7
OPT_EPSILON = 1e-3
# Seed 1016 needs 557 nodes once input splitting guarantees shrinking boxes
# and never converges today; a cap above 557 lets that fix show as a
# converged op instead of hiding it behind the cap.
OPT_NODE_CAP = 600
MARGIN_TOL = 1e-6
SETUP_KERNEL_REPEATS = 21


def load_cached(specs: list) -> list[tuple]:
    """(manifest entry, net, prop, box, canonical problem) per cached instance."""
    from plverify import canon, formats

    directory = inputs.suite_dir(specs)
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    instances = []
    for entry in manifest:
        net = formats.load_network(directory / f"{entry['id']}.net.json")
        prop, box = formats.load_property(directory / f"{entry['id']}.prop.json")
        instances.append((entry, net, prop, box, canon.canonicalize(net, prop, box)))
    return instances


def cached_reference_problems(instances: list[tuple]) -> list[str]:
    from plverify.gensuite import GenSpec

    references = inputs.load_references()
    problems = []
    for entry, net, prop, _, _ in instances:
        spec = GenSpec(entry["inputs"], entry["depth"], entry["width"], entry["margin"], entry["maxpool"], entry["seed"])
        problems.append(inputs.check_reference(references, spec, net, prop))
    return [p for p in problems if p]


class Verify:
    """Every instance of the full pool under every method of ``cli``."""

    def __init__(self, suite_seed: int, results_dir: Path):
        from plverify import cli

        self.cli = cli
        self.results_dir = results_dir
        self.instances = load_cached(inputs.full_specs(suite_seed))
        self.ops = [(i, m) for i in range(len(self.instances)) for m in cli.METHODS]
        self.warmup = (0, cli.METHODS[0])
        self.count = 0

    def run(self, op):
        i, method = op
        _, net, prop, box, _ = self.instances[i]
        self.count += 1
        out = self.results_dir / f"{self.count:06d}.result.json"
        record = self.cli.run_verify(net, prop, box, method, seed=METHOD_SEED, out=out)
        return record.status, out

    def check(self, op, answer, validate) -> tuple[bool, str | None]:
        """(capped, problem); the problem is None for a right answer."""
        entry, _, _, _, problem = self.instances[op[0]]
        status, out = answer
        doc = json.loads(Path(out).read_text(encoding="utf-8"))
        where = f"{entry['id']} {op[1]}"
        if status != entry["expected"].upper():
            return False, f"{where}: status {status}, expected {entry['expected'].upper()}"
        if status == "SAT":
            import numpy as np

            if not validate(problem, np.array(doc["counterexample"], dtype=np.float64), MARGIN_TOL):
                return False, f"{where}: counterexample fails validation"
        elif not 0.0 < doc["margin"] <= entry["margin"] + MARGIN_TOL:
            return False, f"{where}: margin {doc['margin']!r} outside (0, {entry['margin']} + {MARGIN_TOL}]"
        return False, None

    def reference_problems(self) -> list[str]:
        return cached_reference_problems(self.instances)


class Optimize:
    """``bab_optimize`` on the small pool to within epsilon, under a node cap."""

    def __init__(self, suite_seed: int, results_dir: Path):
        from plverify import bab, canon, interval, model

        self.bab = bab
        self.instances = load_cached(inputs.small_specs(suite_seed))
        for k, (entry, net, prop, box, problem) in enumerate(self.instances):
            work_net = problem.canonical_net
            if not model.is_relu_only(work_net):
                work_net = canon.maxpool_to_relu(work_net, interval.propagate_box(work_net, box))
            lowered = canon.VerificationProblem(work_net, problem.domain, problem.original_net, problem.original_property)
            self.instances[k] = (entry, net, prop, box, lowered)
        self.ops = list(range(len(self.instances)))
        self.warmup = 0

    def run(self, op):
        cfg = self.bab.BabConfig(epsilon=OPT_EPSILON, seed=METHOD_SEED, node_cap=OPT_NODE_CAP)
        return self.bab.bab_optimize(self.instances[op][4], cfg)

    def check(self, op, answer, validate) -> tuple[bool, str | None]:
        entry = self.instances[op][0]
        exact = entry["margin"]  # the canonical minimum, by construction
        where = f"{entry['id']}"
        if answer.status == self.bab.CONVERGED:
            if abs(answer.min_estimate - exact) > OPT_EPSILON + MARGIN_TOL:
                return False, f"{where}: converged to {answer.min_estimate!r}, minimum is {exact}"
            return False, None
        if answer.status == self.bab.TIMEOUT and answer.nodes >= OPT_NODE_CAP:
            if answer.best_lb > exact + MARGIN_TOL or answer.best_ub < exact - MARGIN_TOL:
                return True, f"{where}: capped bounds [{answer.best_lb!r}, {answer.best_ub!r}] miss the minimum {exact}"
            return True, None
        return False, f"{where}: status {answer.status} after {answer.nodes} nodes"

    def reference_problems(self) -> list[str]:
        return cached_reference_problems(self.instances)


class Generate:
    """Regenerate each spec of the small pool."""

    def __init__(self, suite_seed: int, results_dir: Path):
        from plverify import gensuite

        self.gensuite = gensuite
        self.ops = inputs.small_specs(suite_seed)
        self.warmup = self.ops[0]
        self.references = inputs.load_references()
        missing = [s.seed for s in self.ops if inputs.spec_key(s) not in self.references]
        if missing:
            raise SystemExit(
                f"no committed reference for specs with seeds {missing}; "
                f"record them with: python3 perfbench/inputs.py --record {suite_seed}"
            )

    def run(self, spec):
        return self.gensuite.generate(spec.seed, spec)

    def check(self, spec, answer, validate) -> tuple[bool, str | None]:
        return False, inputs.check_reference(self.references, spec, answer.net, answer.prop)

    def reference_problems(self) -> list[str]:
        return []  # checked per op


WORKLOADS = {"verify": Verify, "optimize": Optimize, "generate": Generate}


def timed_pass(workload, order) -> tuple[list[float], list, speed.SpeedProbe]:
    """(normalised seconds per op, answers, speed samples) of one pass in the given order."""
    spans, answers = [], []
    clock = time.perf_counter
    with speed.SpeedProbe() as probe:
        for op in order:
            t = clock()
            answers.append(workload.run(op))
            spans.append((t, clock()))
    return [probe.normalised(a, b) for a, b in spans], answers, probe


def checked(workload, op, answer, validate) -> tuple[bool, str | None]:
    try:
        return workload.check(op, answer, validate)
    except Exception as exc:  # a malformed answer is a wrong answer
        return False, f"{op}: answer check raised {exc!r}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--suite-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was started")
    args = parser.parse_args()

    from plverify import canon

    validate = canon.validate_counterexample  # the benchmark's own checks stay untraced
    trace = tracer.Tracer() if args.trace else None
    if trace is not None:
        trace.install()
    results_dir = inputs.CACHE_DIR / "results" / f"{args.workload}-{args.seed}-{time.monotonic_ns()}"
    results_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.suite_seed, results_dir)
        warm = workload.run(workload.warmup)
        setup_raw_s = time.monotonic() - args.t0
        setup_s = speed.normalise(setup_raw_s, speed.kernel_seconds(SETUP_KERNEL_REPEATS))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0

        rng = random.Random(args.seed)
        outcomes = []  # (op, answer)
        op_s: list[float] = []
        passes = 0
        t_begin = time.monotonic()
        traced_s = untraced_s = 0.0
        while True:
            order = list(workload.ops)
            rng.shuffle(order)
            t_pass = time.monotonic()
            if trace is not None:
                trace.uninstall()
            times, answers, _ = timed_pass(workload, order)
            pass_s = time.monotonic() - t_pass
            op_s.extend(times)
            outcomes.extend(zip(order, answers))
            passes += 1
            if trace is not None:
                untraced_s = sum(times)
                trace.install()
                traced_times, answers, traced_probe = timed_pass(workload, order)
                traced_s = sum(traced_times)
                trace.uninstall()
                outcomes.extend(zip(order, answers))
                break
            if time.monotonic() - t_begin + pass_s > args.seconds:
                break
        elapsed = time.monotonic() - t_begin
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = []
        capped = failed = 0
        for op, answer in outcomes:
            was_capped, problem = checked(workload, op, answer, validate)
            capped += was_capped
            if problem:
                failed += 1
                problems.append(problem)
        warm_problem = checked(workload, workload.warmup, warm, validate)[1]
        problems += [warm_problem] if warm_problem else []
        problems += workload.reference_problems()

        result = {
            "workload": args.workload,
            "ops_per_pass": len(workload.ops),
            "passes": passes,
            "elapsed_s": elapsed,
            "op_s": op_s,
            "attempted": len(outcomes),
            "failed": failed,
            "capped": capped,
            "problems": problems,
            "setup_s": setup_s,
            "setup_raw_s": setup_raw_s,
            "peak_rss_mb": peak_rss_mb,
        }
        if trace is not None:
            metrics, trace_problems = tracer.layer_metrics(trace.spans, traced_probe.normalised)
            metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
            result["layer_metrics"] = metrics
            result["problems"] += trace_problems + tracer.coverage_problems(args.workload, trace.spans)
            trace_file = inputs.CACHE_DIR / "traces" / f"{args.workload}-suite{args.suite_seed}-seed{args.seed}.csv.gz"
            trace.write(trace_file)
            result["trace_file"] = str(trace_file.relative_to(inputs.REPO_ROOT))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(results_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
