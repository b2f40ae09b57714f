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
    assert np.allclose(b.post_ub[-1], [0.0])


def test_canonical_toy_shifted_by_five():
    problem = toy_problem(-5.0)
    b = propagate_box(problem.canonical_net, problem.domain)
    # output = y + 5, so interval gives [-3, 5]: inconclusive on its own
    assert b.output_lb[0] == pytest.approx(-3.0)
    assert b.post_ub[-1][0] == pytest.approx(5.0)


def test_identity_linear_keeps_box():
    box = BoxDomain(np.array([-1.0, 2.0]), np.array([0.5, 3.0]))
    net = Network(2, (Linear(np.eye(2), np.zeros(2)),))
    b = propagate_box(net, box)
    assert np.allclose(b.output_lb, box.lb)
    assert np.allclose(b.post_ub[-1], box.ub)


def test_maxpool_transfer_uses_max_of_lower_bounds():
    net = Network(
        4,
        (Linear(np.eye(4), np.zeros(4)), MaxPool(((0, 1), (2, 3)),)),
    )
    box = BoxDomain(np.array([-3.0, -1.0, 0.0, 2.0]), np.array([-2.0, 4.0, 1.0, 5.0]))
    b = propagate_box(net, box)
    assert np.allclose(b.output_lb, [-1.0, 2.0])
    assert np.allclose(b.post_ub[-1], [4.0, 5.0])


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


def _stacked_rows_match(net, lb, ub):
    """Each row of one stacked call is the bytes of the call on that row's box, in all four fields."""
    stacked = propagate_box(net, BoxDomain(lb, ub))
    for r in range(len(lb)):
        one = propagate_box(net, BoxDomain(lb[r], ub[r]))
        for field in ("pre_lb", "pre_ub", "post_lb", "post_ub"):
            for got, want in zip(getattr(stacked, field), getattr(one, field), strict=True):
                assert got[r].tobytes() == want.tobytes()


def test_stacked_rows_match_per_box_calls_byte_for_byte():
    # widths 1-70 cross the blocking of a BLAS matrix-vector kernel; a
    # matrix product over the stack would round differently in some rows
    rng = np.random.default_rng(19)
    for n_in, widths in [(1, [1]), (70, [70, 70])] + [
        (int(rng.integers(1, 71)), [int(w) for w in rng.integers(1, 71, size=rng.integers(1, 4))]) for _ in range(20)
    ]:
        net = random_net(rng, n_in, widths, out=int(rng.integers(1, 71)))
        rows = int(rng.integers(1, 13))
        center = rng.uniform(-0.5, 0.5, size=(rows, n_in))
        half = rng.uniform(0.0, 1.0, size=(rows, n_in))
        _stacked_rows_match(net, center - half, center + half)


def test_stacked_rows_match_per_box_calls_through_a_maxpool():
    rng = np.random.default_rng(20)
    groups = ((0, 1), (2,), (3, 4, 5), (6, 7, 8, 9))
    net = Network(3, (
        Linear(rng.normal(size=(10, 3)), rng.uniform(-0.5, 0.5, 10)),
        Relu(),
        MaxPool(groups),
        Linear(rng.normal(size=(2, len(groups))), rng.uniform(-0.5, 0.5, 2)),
    ))
    center = rng.uniform(-0.5, 0.5, size=(7, 3))
    half = rng.uniform(0.0, 1.0, size=(7, 3))
    _stacked_rows_match(net, center - half, center + half)


def test_stacked_rows_reject_phases():
    # one ReLU unit, so a unit index also names a row of the stack
    net = Network(1, (Linear(np.array([[1.0]]), np.array([0.5])), Relu(), Linear(np.array([[1.0]]), np.zeros(1))))
    stacked = BoxDomain(np.array([[-1.0], [0.0]]), np.array([[1.0], [1.0]]))
    for phase in (BLOCKED, PASSING):
        with pytest.raises(ValueError):
            propagate_box(net, stacked, {(1, 0): phase})
    assert propagate_box(net, stacked, {}).output_lb.shape == (2, 1)


def test_refine_passing_unit():
    net = toy_net()
    refined = propagate_box(net, toy_box(), {(1, 0): PASSING})
    assert refined is not None
    assert refined.pre_lb[1][0] == pytest.approx(0.0)
    assert refined.pre_ub[1][0] == pytest.approx(4.0)
    # the sibling unit is untouched and the output range stays [-8, 0]
    assert refined.pre_lb[1][1] == pytest.approx(-4.0)
    assert np.allclose(refined.output_lb, [-8.0])
    assert np.allclose(refined.post_ub[-1], [0.0])


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
