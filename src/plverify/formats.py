"""On-disk formats: network and property JSON, result JSON, ACAS-style .nnet.

The JSON writers emit a fixed key order with Python's shortest round-trip
float serialisation, so load -> save reproduces a saved file byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .canon import AllClause, AnyClause, Geq, PropertyClause
from .model import BoxDomain, Layer, Linear, MaxPool, Network, Relu, validate_network, whole_number

NETWORK_FORMAT = "plnn-v1"


def network_to_dict(net: Network) -> dict:
    layers = []
    for layer in net.layers:
        if isinstance(layer, Linear):
            layers.append(
                {"linear": {"weight": [list(map(float, row)) for row in layer.weight], "bias": [float(b) for b in layer.bias]}}
            )
        elif isinstance(layer, Relu):
            layers.append({"relu": {}})
        else:
            layers.append({"maxpool": {"groups": [list(g) for g in layer.groups]}})
    return {"format": NETWORK_FORMAT, "input_size": net.input_size, "layers": layers}


def network_from_dict(doc: dict) -> Network:
    if doc.get("format") != NETWORK_FORMAT:
        raise ValueError(f"unsupported format {doc.get('format')!r}")
    layers: list[Layer] = []
    for k, entry in enumerate(doc["layers"]):
        if "linear" in entry:
            spec = entry["linear"]
            layers.append(Linear(np.array(spec["weight"], dtype=np.float64), np.array(spec["bias"], dtype=np.float64)))
        elif "relu" in entry:
            layers.append(Relu())
        elif "maxpool" in entry:
            layers.append(MaxPool(tuple(tuple(g) for g in entry["maxpool"]["groups"])))
        else:
            raise ValueError(f"layer {k + 1}: unknown layer object {sorted(entry)!r}")
    net = Network(whole_number(doc["input_size"], "input_size"), tuple(layers))
    errors = validate_network(net)
    if errors:
        raise ValueError("invalid network: " + "; ".join(errors))
    return net


def save_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net)) + "\n", encoding="utf-8")


def load_network(path: str | Path) -> Network:
    return network_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def clause_to_dict(prop: PropertyClause) -> dict:
    if isinstance(prop, Geq):
        return {"geq": {"c": [float(v) for v in prop.c], "b": float(prop.b)}}
    if isinstance(prop, AnyClause):
        return {"any": [clause_to_dict(c) for c in prop.clauses]}
    return {"all": [clause_to_dict(c) for c in prop.clauses]}


def clause_from_dict(doc: dict) -> PropertyClause:
    if "geq" in doc:
        return Geq(np.array(doc["geq"]["c"], dtype=np.float64), float(doc["geq"]["b"]))
    if "any" in doc:
        return AnyClause(tuple(clause_from_dict(c) for c in doc["any"]))
    if "all" in doc:
        return AllClause(tuple(clause_from_dict(c) for c in doc["all"]))
    raise ValueError(f"unknown clause object {sorted(doc)!r}")


def save_property(prop: PropertyClause, box: BoxDomain, path: str | Path) -> None:
    doc = {
        "input_lb": [float(v) for v in box.lb],
        "input_ub": [float(v) for v in box.ub],
        "property": clause_to_dict(prop),
    }
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load_property(path: str | Path) -> tuple[PropertyClause, BoxDomain]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    box = BoxDomain(np.array(doc["input_lb"], dtype=np.float64), np.array(doc["input_ub"], dtype=np.float64))
    return clause_from_dict(doc["property"]), box


def save_result(doc: dict, path: str | Path) -> None:
    keys = ["status", "margin", "counterexample", "nodes", "time_s", "lb", "ub", "spurious_candidates"]
    ordered = {k: doc.get(k) for k in keys}
    Path(path).write_text(json.dumps(ordered) + "\n", encoding="utf-8")


def load_result(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def load_nnet(path: str | Path) -> Network:
    """Best-effort reader for the ACAS-style text format.

    Comment lines start with //; then the four counts, the layer sizes, a
    legacy flag line, input minima/maxima and normalisation constants (all
    ignored), then per layer the weight matrix rows followed by one bias
    entry per line. ReLUs sit between consecutive layers, not after the
    last.
    """
    lines = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        s = raw.strip()
        if not s or s.startswith("//"):
            continue
        lines.append(s)

    def nums(at: int, part: str) -> list[float]:
        """The numbers on line ``at``, which holds ``part`` of the file."""
        line = lines[at] if at < len(lines) else ""
        values = [float(tok) for tok in line.rstrip(",").split(",") if tok.strip()]
        if not values:
            raise ValueError(f"truncated .nnet file: missing the {part}")
        return values

    n_layers, *_ = [whole_number(v, "header count") for v in nums(0, "header")]
    sizes = [whole_number(v, "layer size") for v in nums(1, "layer sizes")]
    if len(sizes) != n_layers + 1:
        raise ValueError("layer size line does not match layer count")
    pos = 2
    pos += 1  # legacy flag
    pos += 4  # input min / max / mean / range lines
    if pos > len(lines):
        raise ValueError("truncated .nnet file: missing the flag or input normalisation lines")
    layers: list[Layer] = []
    for k in range(n_layers):
        n_out, n_in = sizes[k + 1], sizes[k]
        weight = np.zeros((n_out, n_in))
        for j in range(n_out):
            row = nums(pos, f"weight row {j} of layer {k + 1}")
            pos += 1
            if len(row) != n_in:
                raise ValueError(f"layer {k + 1} row {j}: expected {n_in} weights, got {len(row)}")
            weight[j] = row
        bias = np.zeros(n_out)
        for j in range(n_out):
            bias[j] = nums(pos, f"bias {j} of layer {k + 1}")[0]
            pos += 1
        layers.append(Linear(weight, bias))
        if k + 1 < n_layers:
            layers.append(Relu())
    net = Network(sizes[0], tuple(layers))
    errors = validate_network(net)
    if errors:
        raise ValueError("invalid network: " + "; ".join(errors))
    return net
