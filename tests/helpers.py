"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from plverify.canon import Geq, canonicalize, maxpool_to_relu
from plverify.interval import propagate_box
from plverify.model import BoxDomain, Linear, MaxPool, Network, Relu


def toy_net() -> Network:
    """One-hidden-layer net: y = -max(x1+x2, 0) - max(-x1-x2, 0) = -|x1+x2|."""
    return Network(
        2,
        (
            Linear(np.array([[1.0, 1.0], [-1.0, -1.0]]), np.zeros(2)),
            Relu(),
            Linear(np.array([[-1.0, -1.0]]), np.zeros(1)),
        ),
    )


def toy_box() -> BoxDomain:
    return BoxDomain(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))


def toy_problem(b: float):
    """Canonical problem for the property y >= b on the toy net."""
    return canonicalize(toy_net(), Geq(np.array([1.0]), b), toy_box())


def random_net(rng: np.random.Generator, n_in: int, widths: list[int], out: int = 1) -> Network:
    """Random fully-connected ReLU net, Gaussian weights at 1/sqrt(fan_in) scale."""
    layers: list = []
    fan_in = n_in
    for w in widths:
        weight = rng.normal(size=(w, fan_in)) / np.sqrt(fan_in)
        bias = rng.uniform(-0.5, 0.5, size=w)
        layers.append(Linear(weight, bias))
        layers.append(Relu())
        fan_in = w
    weight = rng.normal(size=(out, fan_in)) / np.sqrt(fan_in)
    bias = rng.uniform(-0.5, 0.5, size=out)
    layers.append(Linear(weight, bias))
    return Network(n_in, tuple(layers))


def random_box(rng: np.random.Generator, n_in: int, radius: float = 1.0) -> BoxDomain:
    center = rng.uniform(-0.5, 0.5, size=n_in)
    half = rng.uniform(0.2, radius, size=n_in)
    return BoxDomain(center - half, center + half)


def differential_cases(rng):
    """Random small nets (some with a MaxPool, lowered over the first box,
    which contains every later one), nested boxes, random phase maps; some
    maps contradict the bounds or each other."""
    for _ in range(40):
        n_in = int(rng.integers(1, 4))
        net = random_net(rng, n_in, [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 3)))])
        pooled = rng.random() < 0.25
        if pooled:
            w = 2 * int(rng.integers(1, 3))
            net = Network(n_in, (
                Linear(rng.normal(size=(w, n_in)), rng.uniform(-0.5, 0.5, w)),
                Relu(),
                MaxPool(tuple((k, k + 1) for k in range(0, w, 2))),
                Linear(rng.normal(size=(1, w // 2)), rng.uniform(-0.5, 0.5, 1)),
            ))
        center = rng.uniform(-0.5, 0.5, size=n_in)
        half = rng.uniform(0.3, 1.5, size=n_in)
        if pooled:
            net = maxpool_to_relu(net, propagate_box(net, BoxDomain(center - half, center + half)))
        units = [(i, j) for i, layer in enumerate(net.layers) if isinstance(layer, Relu)
                 for j in range(net.layers[i - 1].out_width)]
        for _ in range(3):
            box = BoxDomain(center - half, center + half)
            for _ in range(3):
                picks = rng.random(len(units)) < 0.4
                phases = {u: bool(rng.random() < 0.5) for u, pick in zip(units, picks) if pick}
                yield net, box, phases
            center = rng.uniform(box.lb, box.ub)
            half = half * rng.uniform(0.3, 0.8, size=n_in)
            center = np.clip(center, box.lb + half, box.ub - half)


def assert_same_solve(got, want) -> None:
    """Two ``lp.solve`` results are the same bytes: status, objective, x and final basis."""
    assert got.status == want.status
    assert float(got.objective).hex() == float(want.objective).hex()
    assert (got.x is None and want.x is None) or got.x.tobytes() == want.x.tobytes()
    assert got.basis == want.basis


def count_calls(monkeypatch, module, name: str, keep=lambda result: True) -> list[int]:
    """Wrap ``module.name`` so that each call whose result passes ``keep``
    adds one to the returned one-element counter."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        if keep(result):
            calls[0] += 1
        return result

    monkeypatch.setattr(module, name, counted)
    return calls
