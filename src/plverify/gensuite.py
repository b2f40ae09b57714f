"""Deterministic generator of small verification instances.

Random fully-connected nets (Gaussian weights at 1/sqrt(fan_in) scale,
uniform biases in [-0.5, 0.5], optional maxpool stage) over the box
[-1, 1]^inputs. The property threshold is shifted against the enumeration
oracle so the instance's satisfiability margin is exactly the requested
one: a positive margin gives an UNSAT instance with that margin, a negative
one a SAT instance. Requested margins inside the 1e-3 boundary guard are
rejected, so no generated verdict ever rides on a tolerance.

Only manifests (seed + architecture + margin per instance) are meant to be
committed; the float files regenerate bit-identically from them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import formats
from .canon import Geq, VerificationProblem, canonicalize, lower_maxpools
from .model import BoxDomain, Layer, Linear, MaxPool, Network, Relu
from .oracle import oracle_min, oracle_verdict
from .rng import SplitMix64

BOUNDARY_GUARD = 1e-3


@dataclass(frozen=True)
class GenSpec:
    inputs: int
    depth: int
    width: int
    margin: float
    maxpool: bool = False
    seed: int = 0


@dataclass
class Instance:
    spec: GenSpec
    net: Network
    prop: Geq
    box: BoxDomain
    expected: str  # "unsat" | "sat"

    def problem(self) -> VerificationProblem:
        return canonicalize(self.net, self.prop, self.box)


def _random_net(rng: SplitMix64, spec: GenSpec) -> Network:
    layers: list[Layer] = []
    fan_in = spec.inputs

    def linear(n_out: int, n_in: int) -> Linear:
        w = rng.normal(n_out * n_in).reshape(n_out, n_in) / np.sqrt(n_in)
        b = rng.uniform(-0.5, 0.5, size=n_out)
        return Linear(w, b)

    for _ in range(spec.depth):
        layers.append(linear(spec.width, fan_in))
        layers.append(Relu())
        fan_in = spec.width
    if spec.maxpool:
        pool_width = max(2, spec.width - spec.width % 2)
        layers.append(linear(pool_width, fan_in))
        groups = tuple(tuple(range(k, k + 2)) for k in range(0, pool_width, 2))
        layers.append(MaxPool(groups))
        fan_in = len(groups)
    layers.append(linear(1, fan_in))
    return Network(spec.inputs, tuple(layers))


def generate(seed: int, spec: GenSpec) -> Instance:
    """Build one instance whose margin is exactly spec.margin (up to LP tol)."""
    if abs(spec.margin) < BOUNDARY_GUARD:
        raise ValueError(f"margin {spec.margin} is inside the boundary guard {BOUNDARY_GUARD}")
    spec = GenSpec(spec.inputs, spec.depth, spec.width, spec.margin, spec.maxpool, seed)
    rng = SplitMix64(seed)
    net = _random_net(rng, spec)
    box = BoxDomain(-np.ones(spec.inputs), np.ones(spec.inputs))

    zero_problem = lower_maxpools(canonicalize(net, Geq(np.ones(1), 0.0), box))
    base = oracle_min(zero_problem.canonical_net, box).min_value
    prop = Geq(np.ones(1), base - spec.margin)
    expected = "unsat" if spec.margin > 0 else "sat"

    instance = Instance(spec, net, prop, box, expected)
    got, _ = oracle_verdict(instance.problem())
    if got != expected:  # tautological by construction; a failure is a bug
        raise RuntimeError(f"self-check failed: expected {expected}, oracle says {got}")
    return instance


def standard_suite(count: int = 200, seed0: int = 1000) -> list[GenSpec]:
    """The desk-scale benchmark: 2-4 inputs, depths 2-3, <= 12 ReLU units,
    margins cycling through {+-0.1, +-1, +-10}, a maxpool net every 10th."""
    margins = [0.1, -0.1, 1.0, -1.0, 10.0, -10.0]
    shapes = [
        (2, 2, 3, False),
        (3, 2, 4, False),
        (4, 2, 5, False),
        (2, 3, 3, False),
        (3, 3, 4, False),
        (4, 2, 6, False),
        (3, 3, 3, False),
        (2, 2, 4, False),
        (4, 3, 4, False),
        (3, 2, 2, True),
    ]
    specs = []
    for k in range(count):
        inputs, depth, width, maxpool = shapes[k % len(shapes)]
        margin = margins[k % len(margins)]
        specs.append(GenSpec(inputs, depth, width, margin, maxpool, seed0 + k))
    return specs


def write_suite(specs: list[GenSpec], out_dir: str | Path) -> list[dict]:
    """Generate every spec to disk in the benchmark layout.

    Writes <id>.net.json / <id>.prop.json pairs plus manifest.json holding
    the specs and expected verdicts.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for spec in specs:
        inst = generate(spec.seed, spec)
        name = f"i{spec.seed:06d}"
        formats.save_network(inst.net, out / f"{name}.net.json")
        formats.save_property(inst.prop, inst.box, out / f"{name}.prop.json")
        entry = dict(asdict(spec), id=name, expected=inst.expected)
        manifest.append(entry)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest
