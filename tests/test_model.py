import numpy as np
import pytest
from helpers import random_box, random_net, toy_net

from plverify.interval import propagate_box
from plverify.model import (
    BoxDomain,
    Linear,
    MaxPool,
    Network,
    Relu,
    forward_batch,
    forward_eval,
    forward_rows,
    validate_network,
)


def test_toy_net_is_valid():
    assert validate_network(toy_net()) == []


def test_width_mismatch_reported_with_layer_index():
    net = Network(
        2,
        (
            Linear(np.eye(2), np.zeros(2)),
            Relu(),
            Linear(np.zeros((1, 3)), np.zeros(1)),
        ),
    )
    errs = validate_network(net)
    assert any("width mismatch at layer 3" in e for e in errs)


def test_first_layer_must_be_linear():
    net = Network(2, (Relu(), Linear(np.eye(2), np.zeros(2))))
    errs = validate_network(net)
    assert any("first layer must be linear" in e for e in errs)


def test_maxpool_group_errors():
    base = (Linear(np.eye(3), np.zeros(3)),)
    overlapping = Network(3, base + (MaxPool(((0, 1), (1, 2))),))
    assert any("overlap" in e for e in validate_network(overlapping))
    empty = Network(3, base + (MaxPool(((0, 1, 2), ())),))
    assert any("empty" in e for e in validate_network(empty))
    not_covering = Network(3, base + (MaxPool(((0, 1),)),))
    assert any("cover" in e for e in validate_network(not_covering))


def test_forward_toy_hand_values():
    net = toy_net()
    # (1,1): a_hat=2, b_hat=-2 -> a=2, b=0 -> y=-2
    assert forward_eval(net, np.array([1.0, 1.0]))[0] == pytest.approx(-2.0)
    assert forward_eval(net, np.array([0.0, 0.0]))[0] == pytest.approx(0.0)
    assert forward_eval(net, np.array([2.0, 2.0]))[0] == pytest.approx(-4.0)


def test_forward_dimension_mismatch():
    with pytest.raises(ValueError):
        forward_eval(toy_net(), np.zeros(3))


def test_forward_batch_matches_single():
    rng = np.random.default_rng(0)
    net = random_net(rng, 3, [4, 3])
    pts = rng.uniform(-1, 1, size=(50, 3))
    batch = forward_batch(net, pts)
    for k in range(50):
        assert np.allclose(batch[k], forward_eval(net, pts[k]))


def test_piecewise_linear_within_fixed_pattern():
    # Two points with the same activation pattern must interpolate affinely.
    rng = np.random.default_rng(1)
    net = random_net(rng, 2, [3, 3])
    found = 0
    for _ in range(200):
        x0 = rng.uniform(-1, 1, size=2)
        x1 = x0 + rng.uniform(-0.01, 0.01, size=2)
        if _pattern(net, x0) != _pattern(net, x1):
            continue
        if _pattern(net, x0) != _pattern(net, (x0 + x1) / 2):
            continue
        mid = forward_eval(net, (x0 + x1) / 2)
        lerp = (forward_eval(net, x0) + forward_eval(net, x1)) / 2
        assert np.allclose(mid, lerp, atol=1e-9)
        found += 1
    assert found > 50


def _pattern(net, x):
    pat = []
    cur = np.asarray(x, dtype=float)
    for layer in net.layers:
        if isinstance(layer, Linear):
            cur = layer.weight @ cur + layer.bias
        elif isinstance(layer, Relu):
            pat.extend(cur > 0)
            cur = np.maximum(cur, 0.0)
    return tuple(pat)


def test_singleton_maxpool_is_identity():
    net = Network(
        3,
        (
            Linear(np.eye(3), np.array([0.5, -0.25, 0.0])),
            MaxPool(((0,), (1,), (2,))),
        ),
    )
    assert validate_network(net) == []
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=3)
        assert np.allclose(forward_eval(net, x), x + np.array([0.5, -0.25, 0.0]))


def test_maxpool_forward():
    net = Network(
        4,
        (
            Linear(np.eye(4), np.zeros(4)),
            MaxPool(((0, 2), (1, 3))),
        ),
    )
    out = forward_eval(net, np.array([1.0, 5.0, 3.0, -2.0]))
    assert np.allclose(out, [3.0, 5.0])


def test_box_domain_validation():
    with pytest.raises(ValueError):
        BoxDomain(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        BoxDomain(np.array([np.inf]), np.array([np.inf]))


def test_forward_eval_is_the_one_row_call_of_forward_rows():
    # each row of a stacked call is the bytes of forward_eval at that row:
    # widths 1-70 cross the blocking of a BLAS matrix-vector kernel, where a
    # matrix product over the stack would round differently in some rows
    rng = np.random.default_rng(23)
    nets = [random_net(rng, int(rng.integers(1, 71)), [int(w) for w in rng.integers(1, 71, size=rng.integers(1, 4))])
            for _ in range(12)]
    for _ in range(6):
        w = 2 * int(rng.integers(1, 20))
        head = random_net(rng, int(rng.integers(1, 40)), [int(rng.integers(2, 40))], out=w).layers
        groups = tuple((j, j + 1) for j in range(0, w, 2))
        nets.append(Network(head[0].in_width, head + (MaxPool(groups), Linear(rng.normal(size=(3, w // 2)), rng.normal(size=3)))))
    for net in nets:
        pts = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 13)), net.input_size))
        stacked = forward_rows(net, pts)
        assert stacked.shape == (len(pts), net.output_size)
        for k, x in enumerate(pts):
            assert forward_eval(net, x).tobytes() == stacked[k].tobytes()
