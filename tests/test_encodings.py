"""The network's own graph meets every row the LP builders write.

At a point of the box, the inputs, each Linear layer's outputs x_hat, each
ReLU's outputs x = max(x_hat, 0) and the true phase binaries form an
assignment of the relaxation's and the MIP's variables. It must meet every
row and variable bound of ``build_planet`` (untightened, tightened, with
phases the point agrees with), of ``build_reluplex`` and of ``encode_mip``.
A sign or index slip in a block can cut the point off without moving any
LP bound above the true minimum, so the soundness tests need not see it.
"""

import numpy as np
from helpers import random_box, random_net

from plverify import lp
from plverify.interval import BLOCKED, PASSING
from plverify.mip import BOUNDS_INTERVAL, INTERVAL_VARIANT, PLANET_OPT, PLANET_SYMFEASIBLE, SYM, MipVariant, encode_mip
from plverify.model import BoxDomain, Linear, MaxPool, Network, Relu, forward_eval
from plverify.relax import build_planet, build_reluplex


def _layer_values(net: Network, x0: np.ndarray) -> list[np.ndarray]:
    """Each layer's output at ``x0``, by ``forward_eval`` on the prefixes."""
    return [forward_eval(Network(net.input_size, net.layers[: i + 1]), x0) for i in range(len(net.layers))]


def _assignment(net: Network, x0: np.ndarray, num_vars: int, units) -> np.ndarray:
    """The value of every variable at ``x0``: the inputs, then per Linear
    its outputs; ``units(i, pre, z)`` writes layer i's other variables,
    given the layer's input values ``pre``, and returns how many it wrote."""
    z = np.full(num_vars, np.nan)
    z[: len(x0)] = x0
    k = len(x0)
    values = _layer_values(net, x0)
    for i, layer in enumerate(net.layers):
        if isinstance(layer, Linear):
            z[k : k + layer.out_width] = values[i]
            k += layer.out_width
        else:
            k += units(i, values[i - 1], z)
    assert k == num_vars and not np.isnan(z).any()
    return z


def _assert_meets(model: lp.LpModel, z: np.ndarray) -> None:
    """Every row and bound of ``model`` holds at ``z`` within 1e-9 of its magnitude."""
    gap = model.rows @ z - model.rhs
    tol = 1e-9 * np.maximum(1.0, np.abs(model.rows) @ np.abs(z) + np.abs(model.rhs))
    rel = model.rel
    assert np.all(gap[rel == lp.LE] <= tol[rel == lp.LE])
    assert np.all(gap[rel == lp.GE] >= -tol[rel == lp.GE])
    assert np.all(np.abs(gap[rel == lp.EQ]) <= tol[rel == lp.EQ])
    slack = 1e-9 * np.maximum(1.0, np.abs(z))
    assert np.all(model.lower - slack <= z) and np.all(z <= model.upper + slack)


def _relaxation_point(net: Network, pm, x0: np.ndarray) -> np.ndarray:
    def hull(i, pre, z):
        units = [h for h in pm.hull_units if h.layer == i]
        for h in units:
            assert z[h.var_pre] == pre[h.unit]
            z[h.var_post] = max(pre[h.unit], 0.0)
        return len(units)

    return _assignment(net, x0, pm.model.num_vars, hull)


def _mip_point(net: Network, enc, x0: np.ndarray) -> np.ndarray:
    def binaries(i, pre, z):
        count = 0
        for layer, j, d, pre_var, post in enc.relu_units:
            if layer == i:
                assert z[pre_var] == pre[j]
                z[post], z[d] = max(pre[j], 0.0), float(pre[j] > 0.0)
                count += 2
        for layer, gi, deltas, y in enc.pool_groups:
            if layer == i:
                group = list(net.layers[i].groups[gi])
                z[y] = pre[group].max()
                z[deltas] = 0.0
                z[deltas[int(np.argmax(pre[group]))]] = 1.0
                count += 1 + len(deltas)
        return count

    return _assignment(net, x0, enc.model.num_vars, binaries)


def _phases_at(net: Network, x0: np.ndarray, rng) -> dict:
    """A random set of ReLU phases that ``x0`` agrees with."""
    values = _layer_values(net, x0)
    return {
        (i, j): PASSING if values[i - 1][j] > 0.0 else BLOCKED
        for i, layer in enumerate(net.layers)
        if isinstance(layer, Relu)
        for j in range(len(values[i - 1]))
        if rng.random() < 0.4
    }


def test_graph_points_meet_every_relaxation_row():
    rng = np.random.default_rng(61)
    checked = {"planet": 0, "tightened": 0, "backward": 0, "phases": 0, "reluplex": 0}
    for _ in range(25):
        n_in = int(rng.integers(1, 4))
        net = random_net(rng, n_in, [int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 4)))])
        box = random_box(rng, n_in)
        models = {
            "planet": build_planet(net, box),
            "tightened": build_planet(net, box, tighten=True),
            "backward": build_planet(net, box, tighten=True, output_only=True),
            "reluplex": build_reluplex(net, box),
        }
        for x0 in rng.uniform(box.lb, box.ub, size=(4, n_in)):
            for name, pm in models.items():
                _assert_meets(pm.model, _relaxation_point(net, pm, x0))
                checked[name] += len(pm.hull_units) > 0
            pm = build_planet(net, box, _phases_at(net, x0, rng), tighten=True)
            assert not pm.infeasible
            _assert_meets(pm.model, _relaxation_point(net, pm, x0))
            checked["phases"] += len(pm.hull_units) > 0
    assert min(checked.values()) > 40, checked


def test_graph_points_meet_every_mip_row():
    rng = np.random.default_rng(62)
    variants = (PLANET_OPT, INTERVAL_VARIANT, PLANET_SYMFEASIBLE)
    checked = {variant: 0 for variant in variants}
    for _ in range(20):
        n_in = int(rng.integers(1, 4))
        net = random_net(rng, n_in, [int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 4)))])
        box = random_box(rng, n_in)
        for variant in variants:
            enc = encode_mip(net, box, variant)
            for x0 in rng.uniform(box.lb, box.ub, size=(4, n_in)):
                _assert_meets(enc.model, _mip_point(net, enc, x0))
            checked[variant] += len(enc.int_vars) > 0
    assert min(checked.values()) > 10, checked


def test_graph_points_meet_every_maxpool_row():
    # a ReLU layer and a MaxPool with groups of one to three elements
    rng = np.random.default_rng(63)
    pools = 0
    for _ in range(10):
        net = Network(3, (
            Linear(rng.normal(size=(4, 3)), rng.uniform(-0.5, 0.5, 4)),
            Relu(),
            Linear(rng.normal(size=(6, 4)), rng.uniform(-0.5, 0.5, 6)),
            MaxPool(((0, 3, 5), (1,), (2, 4))),
            Linear(rng.normal(size=(1, 3)), rng.uniform(-0.5, 0.5, 1)),
        ))
        box = BoxDomain(-np.ones(3), np.ones(3))
        for variant in (INTERVAL_VARIANT, MipVariant(SYM, BOUNDS_INTERVAL)):
            enc = encode_mip(net, box, variant)
            assert len(enc.pool_groups) == 3
            for x0 in rng.uniform(box.lb, box.ub, size=(4, 3)):
                _assert_meets(enc.model, _mip_point(net, enc, x0))
            pools += 1
    assert pools == 20
