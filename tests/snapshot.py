"""Identity snapshot of the verifier's results, one JSON line per run.

    PYTHONPATH=src python tests/snapshot.py OUT.jsonl

Writes, on every instance of ``standard_suite(200, 1000)``:

* one line per generated instance with its spec key and its property's
  threshold ``prop.b`` as ``float.hex``, so the diff covers suite
  generation, nearly all of it oracle LPs;
* the result document of each method of ``cli.METHODS`` (``run_verify``
  with seed 7 and no timeout), without ``time_s``;
* one line per ``bab_optimize`` sweep run on the MaxPool-lowered problem
  (epsilon 1e-3, seed 7; input-smart node cap 600, relu-split node cap 150)
  with its status, node count and bounds as ``float.hex``.

Every line is bit-reproducible, so diffing the files of two commits lists
every result a change moved. pytest does not collect this file.

    PYTHONPATH=src python tests/snapshot.py --compare PARENT.jsonl CHANGE.jsonl

compares two such files line by line. It fails (exit status 1) on any line
that differs outside its float fields: the spec key, the status, the node
counts, the instance and method, and whether there is a counterexample. It
lists every moved float value (``margin``, ``lb``, ``ub``, ``best_lb``,
``best_ub``, ``min_estimate``, a generated threshold ``b`` and the
counterexample's coordinates) with the size of the move, then the count and
the largest move per field, and last a table of the moved values per
(method, status, field), a sweep line's branching rule standing for its
method and a generated line's kind for both, and then per method the node
totals of both files and the number of lines whose node count moved.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from collections import Counter
from pathlib import Path

from helpers import load_result

from plverify.bab import INPUT_SMART, RELU_SPLIT, BabConfig, bab_optimize
from plverify.canon import lower_maxpools
from plverify.cli import METHODS, run_verify
from plverify.gensuite import generate, standard_suite

SEED = 7
SWEEP_EPSILON = 1e-3
SWEEP_CAPS = {INPUT_SMART: 600, RELU_SPLIT: 150}


def _hex(value: float | None) -> str | None:
    return None if value is None else float(value).hex()


def _spec_key(spec) -> str:
    return f"{spec.inputs}-{spec.depth}-{spec.width}-{spec.maxpool}-{spec.margin!r}-{spec.seed}"


def snapshot_lines():
    instances = [generate(spec.seed, spec) for spec in standard_suite(200, 1000)]
    for inst in instances:
        yield {"kind": "generate", "seed": inst.spec.seed, "spec": _spec_key(inst.spec), "b": _hex(inst.prop.b)}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "result.json"
        for inst in instances:
            for method in METHODS:
                run_verify(inst.net, inst.prop, inst.box, method, seed=SEED, out=out)
                doc = load_result(out)
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


FLOAT_FIELDS = ("margin", "lb", "ub", "best_lb", "best_ub", "min_estimate", "b")


def _fields(line: dict) -> dict:
    """The line's fields, flat: sweep bounds and generated thresholds
    decoded from hex, a verify result's fields next to its instance keys."""
    flat = {k: v for k, v in line.items() if k != "result"}
    flat.update(line.get("result", {}))
    for key in ("best_lb", "best_ub", "min_estimate", "b"):
        if isinstance(flat.get(key), str):
            flat[key] = float.fromhex(flat[key])
    return flat


def _move(old, new) -> float:
    """Size of a float field's move; 0 for identical bytes, inf when only
    one side is finite or present."""
    if old is None or new is None:
        return 0.0 if old is new else math.inf
    if float(old).hex() == float(new).hex():
        return 0.0
    return abs(new - old) if math.isfinite(old) and math.isfinite(new) else math.inf


def _load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [_fields(json.loads(line)) for line in f]


def compare(parent_path: str, change_path: str) -> int:
    parent, change = _load(parent_path), _load(change_path)
    if len(parent) != len(change):
        print(f"line counts differ: {len(parent)} != {len(change)}")
        return 1
    failures = 0
    moved: dict[str, list[float]] = {}
    table: Counter = Counter()  # (method, status, field) -> moved values
    nodes: dict[str, list[int]] = {}  # method -> parent total, change total, lines moved
    for n, (old, new) in enumerate(zip(parent, change), 1):
        method = old.get("method", old.get("branching", old["kind"]))
        if "nodes" in old:
            counts = nodes.setdefault(method, [0, 0, 0])
            counts[0] += old["nodes"]
            counts[1] += new.get("nodes", 0)
            counts[2] += old["nodes"] != new.get("nodes")
        where = f"line {n} ({old['kind']} {method} seed {old['seed']})"
        old_cex, new_cex = old.pop("counterexample", None), new.pop("counterexample", None)
        fixed = (set(old) | set(new)) - set(FLOAT_FIELDS)
        diff = sorted(k for k in fixed if old.get(k) != new.get(k))
        if (old_cex is None) != (new_cex is None) or len(old_cex or ()) != len(new_cex or ()):
            diff.append("counterexample")
        if diff:
            failures += 1
            print(f"{where}: differs in {', '.join(diff)}")
            continue
        sizes = [(k, old.get(k), new.get(k), _move(old.get(k), new.get(k))) for k in FLOAT_FIELDS]
        if old_cex is not None:
            size = max((_move(a, b) for a, b in zip(old_cex, new_cex)), default=0.0)
            sizes.append(("counterexample", None, None, size))
        for key, a, b, size in sizes:
            if size > 0.0:
                moved.setdefault(key, []).append(size)
                table[method, old.get("status", "-"), key] += 1
                values = "" if a is None else f" {a!r} -> {b!r}"
                print(f"{where}: {key}{values} moved {size:.3g}")
    for key in (*FLOAT_FIELDS, "counterexample"):
        sizes = moved.get(key, [])
        print(f"{key}: {len(sizes)} moved" + (f", largest {max(sizes):.3g}" if sizes else ""))
    print("moved values per (method, status, field):")
    for (method, status, key), count in sorted(table.items()):
        print(f"  {method:16} {status:8} {key:15} {count}")
    print("nodes per method (parent total, change total, lines moved):")
    for method, (old_total, new_total, lines) in nodes.items():
        print(f"  {method:16} {old_total:8} {new_total:8} {lines:6}")
    print(f"{len(parent)} lines, {failures} differ outside their float fields")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], "w", encoding="utf-8") as f:
        for line in snapshot_lines():
            f.write(json.dumps(line, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
