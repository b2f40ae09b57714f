"""Benchmark inputs: the instance pools, their on-disk cache and the
committed answer references.

Every pool is a fixed slice of ``gensuite.standard_suite`` starting at the
suite seed (1000 by default), so every run seed measures the same work and
only the order of operations changes with it.

* The *full* pool (``verify``) is the first ``FULL_COUNT`` specs, every
  shape of the suite.
* The *small* pool (``optimize`` and ``generate``) is the first
  ``SMALL_COUNT`` specs whose nets have at most ``SMALL_MAX_INPUTS`` inputs.
  The 4-input shapes take 0.3-16 s each to generate and up to 4 s each to
  optimise on a 2-core x86 host, so a pool that kept them would leave fewer
  than the 40 ops a run needs for a p75 tail. Seed 1016 is in it.

``verify`` and ``optimize`` load their instances with ``formats`` from
``perfbench/.cache/suite-<hash of the specs>/``, written once by
``gensuite.write_suite``; writing it is not part of any timed phase.
``generate`` regenerates its pool as its operation.

``reference.json`` holds, per spec, a SHA-256 digest of the generated net's
weights and the generated property threshold, recorded from the seed commit.
Run ``python3 perfbench/inputs.py --record 1000 2000`` from the repository
root to record the references of other suite seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
CACHE_DIR = BENCH_DIR / ".cache"
REFERENCE_FILE = BENCH_DIR / "reference.json"

FULL_COUNT = 40
SMALL_COUNT = 40
SMALL_MAX_INPUTS = 3
THRESHOLD_TOL = 1e-6

if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))


def full_specs(suite_seed: int) -> list:
    from plverify import gensuite

    return gensuite.standard_suite(FULL_COUNT, suite_seed)


def small_specs(suite_seed: int) -> list:
    from plverify import gensuite

    small = [s for s in gensuite.standard_suite(2 * SMALL_COUNT, suite_seed) if s.inputs <= SMALL_MAX_INPUTS]
    return small[:SMALL_COUNT]


POOLS = {"verify": full_specs, "optimize": small_specs, "generate": small_specs}


def spec_key(spec) -> str:
    return f"{spec.inputs}-{spec.depth}-{spec.width}-{spec.maxpool}-{spec.margin!r}-{spec.seed}"


def net_digest(net) -> str:
    """SHA-256 over every Linear layer's float64 weight and bias bytes."""
    from plverify.model import Linear

    h = hashlib.sha256()
    for layer in net.layers:
        if isinstance(layer, Linear):
            h.update(layer.weight.astype("<f8").tobytes())
            h.update(layer.bias.astype("<f8").tobytes())
    return h.hexdigest()


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def check_reference(references: dict, spec, net, prop) -> str | None:
    """None when the instance matches its committed reference, else why not.

    A spec without a reference passes: only the recorded suite seeds can
    be checked this way.
    """
    ref = references.get(spec_key(spec))
    if ref is None:
        return None
    if net_digest(net) != ref["net_sha256"]:
        return f"seed {spec.seed}: net weights differ from the reference digest"
    if abs(float(prop.b) - ref["threshold"]) > THRESHOLD_TOL:
        return f"seed {spec.seed}: threshold {float(prop.b)!r} is not within {THRESHOLD_TOL} of {ref['threshold']!r}"
    return None


def suite_dir(specs: list) -> Path:
    key = hashlib.sha256(json.dumps([asdict(s) for s in specs]).encode()).hexdigest()[:16]
    return CACHE_DIR / f"suite-{key}"


def prepare_cache(specs: list) -> Path:
    """Write the pool's instances unless they are already on disk."""
    from plverify import gensuite

    out = suite_dir(specs)
    if (out / "manifest.json").exists():
        return out
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    gensuite.write_suite(specs, tmp)
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    return out


def record(suite_seeds: list[int]) -> None:
    from plverify import gensuite

    references = load_references() if REFERENCE_FILE.exists() else {}
    for suite_seed in suite_seeds:
        specs = {spec_key(s): s for s in full_specs(suite_seed) + small_specs(suite_seed)}
        for key, spec in specs.items():
            inst = gensuite.generate(spec.seed, spec)
            references[key] = {"net_sha256": net_digest(inst.net), "threshold": float(inst.prop.b)}
            print(f"recorded {key}", file=sys.stderr)
    REFERENCE_FILE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Record answer references for benchmark suite seeds")
    parser.add_argument("--record", type=int, nargs="+", required=True, metavar="SUITE_SEED")
    record(parser.parse_args().record)
