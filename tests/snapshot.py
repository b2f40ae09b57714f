"""Identity snapshot of the verifier's results, one JSON line per run.

    PYTHONPATH=src python tests/snapshot.py OUT.jsonl

Writes, on every instance of ``standard_suite(200, 1000)``:

* the result document of each method of ``cli.METHODS`` (``run_verify``
  with seed 7 and no timeout), without ``time_s``;
* one line per ``bab_optimize`` sweep run on the MaxPool-lowered problem
  (epsilon 1e-3, seed 7; input-smart node cap 600, relu-split node cap 150)
  with its status, node count and bounds as ``float.hex``.

Every line is bit-reproducible, so diffing the files of two commits lists
every result a change moved. pytest does not collect this file.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from plverify import formats
from plverify.bab import INPUT_SMART, RELU_SPLIT, BabConfig, bab_optimize
from plverify.canon import lower_maxpools
from plverify.cli import METHODS, run_verify
from plverify.gensuite import generate, standard_suite

SEED = 7
SWEEP_EPSILON = 1e-3
SWEEP_CAPS = {INPUT_SMART: 600, RELU_SPLIT: 150}


def _hex(value: float | None) -> str | None:
    return None if value is None else float(value).hex()


def snapshot_lines():
    instances = [generate(spec.seed, spec) for spec in standard_suite(200, 1000)]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "result.json"
        for inst in instances:
            for method in METHODS:
                run_verify(inst.net, inst.prop, inst.box, method, seed=SEED, out=out)
                doc = formats.load_result(out)
                del doc["time_s"]
                yield {"kind": "verify", "seed": inst.spec.seed, "method": method, "result": doc}
    for inst in instances:
        problem = lower_maxpools(inst.problem())
        for branching, cap in SWEEP_CAPS.items():
            res = bab_optimize(problem, BabConfig(epsilon=SWEEP_EPSILON, branching=branching, seed=SEED, node_cap=cap))
            yield {
                "kind": "sweep",
                "seed": inst.spec.seed,
                "branching": branching,
                "status": res.status,
                "nodes": res.nodes,
                "best_lb": _hex(res.best_lb),
                "best_ub": _hex(res.best_ub),
                "min_estimate": _hex(res.min_estimate),
            }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], "w", encoding="utf-8") as f:
        for line in snapshot_lines():
            f.write(json.dumps(line, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
