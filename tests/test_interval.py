import numpy as np
import pytest
from helpers import random_box, random_net, toy_box, toy_net, toy_problem

from plverify.interval import (
    BLOCKED,
    PASSING,
    ambiguous_units,
    propagate_box,
)
from plverify.model import BoxDomain, Linear, MaxPool, Network, Relu, forward_eval


def test_toy_chain():
    b = propagate_box(toy_net(), toy_box())
    assert np.allclose(b.pre_lb[0], [-4.0, -4.0])
    assert np.allclose(b.pre_ub[0], [4.0, 4.0])
    assert np.allclose(b.post_lb[1], [0.0, 0.0])
    assert np.allclose(b.post_ub[1], [4.0, 4.0])
    assert np.allclose(b.output_lb, [-8.0])
    assert np.allclose(b.output_ub, [0.0])


def test_canonical_toy_shifted_by_five():
    problem = toy_problem(-5.0)
    b = propagate_box(problem.canonical_net, problem.domain)
    # output = y + 5, so interval gives [-3, 5]: inconclusive on its own
    assert b.output_lb[0] == pytest.approx(-3.0)
    assert b.output_ub[0] == pytest.approx(5.0)


def test_identity_linear_keeps_box():
    box = BoxDomain(np.array([-1.0, 2.0]), np.array([0.5, 3.0]))
    net = Network(2, (Linear(np.eye(2), np.zeros(2)),))
    b = propagate_box(net, box)
    assert np.allclose(b.output_lb, box.lb)
    assert np.allclose(b.output_ub, box.ub)


def test_maxpool_transfer_uses_max_of_lower_bounds():
    net = Network(
        4,
        (Linear(np.eye(4), np.zeros(4)), MaxPool(((0, 1), (2, 3)),)),
    )
    box = BoxDomain(np.array([-3.0, -1.0, 0.0, 2.0]), np.array([-2.0, 4.0, 1.0, 5.0]))
    b = propagate_box(net, box)
    assert np.allclose(b.output_lb, [-1.0, 2.0])
    assert np.allclose(b.output_ub, [4.0, 5.0])


def test_soundness_randomized():
    rng = np.random.default_rng(7)
    net = random_net(rng, 3, [4, 4])
    box = random_box(rng, 3)
    b = propagate_box(net, box)
    pts = rng.uniform(box.lb, box.ub, size=(1000, 3))
    for x in pts:
        cur = x
        for i, layer in enumerate(net.layers):
            if isinstance(layer, Linear):
                cur = layer.weight @ cur + layer.bias
            elif isinstance(layer, Relu):
                cur = np.maximum(cur, 0.0)
            assert np.all(cur >= b.post_lb[i] - 1e-9)
            assert np.all(cur <= b.post_ub[i] + 1e-9)


def test_monotone_under_shrinking_boxes():
    rng = np.random.default_rng(8)
    net = random_net(rng, 2, [3, 3])
    box = random_box(rng, 2)
    prev = propagate_box(net, box)
    for shrink in [0.8, 0.5, 0.2]:
        center = (box.lb + box.ub) / 2
        half = (box.ub - box.lb) / 2 * shrink
        inner = propagate_box(net, BoxDomain(center - half, center + half))
        for i in range(len(net.layers)):
            assert np.all(inner.pre_lb[i] >= prev.pre_lb[i] - 1e-9)
            assert np.all(inner.pre_ub[i] <= prev.pre_ub[i] + 1e-9)
        prev = inner


def test_refine_passing_unit():
    net = toy_net()
    refined = propagate_box(net, toy_box(), {(1, 0): PASSING})
    assert refined is not None
    assert refined.pre_lb[1][0] == pytest.approx(0.0)
    assert refined.pre_ub[1][0] == pytest.approx(4.0)
    # the sibling unit is untouched and the output range stays [-8, 0]
    assert refined.pre_lb[1][1] == pytest.approx(-4.0)
    assert np.allclose(refined.output_lb, [-8.0])
    assert np.allclose(refined.output_ub, [0.0])


def test_refine_blocked_unit_zeroes_post():
    net = toy_net()
    refined = propagate_box(net, toy_box(), {(1, 1): BLOCKED})
    assert refined is not None
    assert refined.pre_ub[1][1] == pytest.approx(0.0)
    assert refined.post_lb[1][1] == 0.0 and refined.post_ub[1][1] == 0.0
    # with b blocked, y = -a over a in [0,4]
    assert np.allclose(refined.output_lb, [-4.0])


def test_refine_contradiction_is_infeasible():
    net = Network(1, (Linear(np.array([[1.0]]), np.array([2.5])), Relu(), Linear(np.array([[1.0]]), np.zeros(1))))
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    # pre in [1.5, 3.5], strictly positive
    assert propagate_box(net, box, {(1, 0): BLOCKED}) is None
    net2 = Network(1, (Linear(np.array([[1.0]]), np.array([-2.5])), Relu(), Linear(np.array([[1.0]]), np.zeros(1))))
    assert propagate_box(net2, box, {(1, 0): PASSING}) is None


def test_refine_empty_phases_is_identity():
    net = toy_net()
    b = propagate_box(net, toy_box())
    refined = propagate_box(net, toy_box(), {})
    for i in range(len(net.layers)):
        assert np.allclose(refined.pre_lb[i], b.pre_lb[i])
        assert np.allclose(refined.pre_ub[i], b.pre_ub[i])


def test_ambiguous_units_toy():
    net = toy_net()
    b = propagate_box(net, toy_box())
    assert ambiguous_units(net, b) == [(1, 0), (1, 1)]
