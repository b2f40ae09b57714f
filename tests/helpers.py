"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from plverify.canon import Geq, canonicalize
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


def assert_same_solve(got, want, got_basis=None, want_basis=None) -> None:
    """Two ``lp.solve`` results are the same bytes: status, objective, x and final basis."""
    assert got.status == want.status
    assert float(got.objective).hex() == float(want.objective).hex()
    assert (got.x is None and want.x is None) or got.x.tobytes() == want.x.tobytes()
    assert got_basis == want_basis
