import numpy as np
import pytest
from helpers import toy_box, toy_net, toy_problem

from plverify.canon import (
    AllClause,
    AnyClause,
    Geq,
    canonicalize,
    clause_holds_strict,
    lower_maxpools,
    maxpool_to_relu,
    validate_counterexample,
)
from plverify.interval import propagate_box
from plverify.model import (
    BoxDomain,
    Linear,
    MaxPool,
    Network,
    Relu,
    forward_eval,
    is_relu_only,
    validate_network,
)


def test_geq_appends_single_linear():
    problem = toy_problem(-5.0)
    net = problem.canonical_net
    assert len(net.layers) == len(toy_net().layers) + 1
    last = net.layers[-1]
    assert isinstance(last, Linear)
    assert np.allclose(last.weight, [[1.0]])
    assert np.allclose(last.bias, [5.0])
    assert net.output_size == 1
    assert validate_network(net) == []


def test_or_of_opposite_signs_is_absolute_value():
    # base net output = x + 10 over [0, 1]: never zero, so the strict
    # tautology check is clean
    base = Network(1, (Linear(np.array([[1.0]]), np.array([10.0])),))
    prop = AnyClause((Geq(np.array([1.0]), 0.0), Geq(np.array([-1.0]), 0.0)))
    problem = canonicalize(base, prop, BoxDomain(np.array([0.0]), np.array([1.0])))
    assert problem.canonical_net.output_size == 1
    for x in [0.0, 0.3, 1.0]:
        out = forward_eval(problem.canonical_net, np.array([x]))[0]
        assert out == pytest.approx(abs(x + 10.0))


def test_and_idempotent_on_toy():
    prop = AllClause((Geq(np.array([1.0]), -5.0), Geq(np.array([1.0]), -5.0)))
    problem = canonicalize(toy_net(), prop, toy_box())
    single = toy_problem(-5.0)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(-2, 2, size=2)
        a = forward_eval(problem.canonical_net, x)[0]
        b = forward_eval(single.canonical_net, x)[0]
        assert a == pytest.approx(b, abs=1e-12)


def test_nested_clause_semantics_match_boolean_tree():
    rng = np.random.default_rng(4)
    width = 3
    base = Network(width, (Linear(np.eye(width), np.zeros(width)),))
    prop = AnyClause(
        (
            AllClause((Geq(np.array([1.0, 0.0, 0.0]), 0.2), Geq(np.array([0.0, 1.0, 0.0]), -0.1))),
            Geq(np.array([0.0, 0.0, 1.0]), 0.5),
            AllClause(
                (
                    Geq(np.array([1.0, 1.0, 0.0]), 0.0),
                    AnyClause((Geq(np.array([0.0, 0.0, -1.0]), 0.3), Geq(np.array([1.0, -1.0, 1.0]), -0.2))),
                )
            ),
        )
    )
    box = BoxDomain(-np.ones(width), np.ones(width))
    problem = canonicalize(base, prop, box)
    assert problem.canonical_net.output_size == 1
    assert validate_network(problem.canonical_net) == []
    checked = 0
    while checked < 1000:
        y = rng.uniform(-1, 1, size=width)
        val = forward_eval(problem.canonical_net, y)[0]
        if abs(val) < 1e-9:  # resample boundary cases
            continue
        assert (val > 0.0) == clause_holds_strict(prop, y)
        checked += 1


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        canonicalize(toy_net(), Geq(np.array([1.0, 2.0]), 0.0), toy_box())
    with pytest.raises(ValueError):
        canonicalize(toy_net(), AnyClause(()), toy_box())


def test_stacked_domain_rejected():
    # a BoxDomain may hold one box per row; a problem's domain is one box,
    # even when its row count matches the input size
    stacked = BoxDomain(np.full((2, 1), -2.0), np.full((2, 1), 2.0))
    with pytest.raises(ValueError, match="must be vectors"):
        canonicalize(toy_net(), Geq(np.array([1.0]), -5.0), stacked)


def test_validate_counterexample():
    problem = toy_problem(-3.0)
    assert validate_counterexample(problem, np.array([2.0, 2.0]), 1e-6)
    strict = toy_problem(-5.0)
    assert not validate_counterexample(strict, np.array([2.0, 2.0]), 1e-6)
    assert not validate_counterexample(problem, np.array([3.0, 0.0]), 1e-6)


def test_pairwise_max_decomposition_identity():
    # max(x1,x2) = max(x1-x2,0) + max(x2-l2,0) + l2 with l2 = -2
    for x1, x2, want in [(3.0, 1.0, 3.0), (1.0, 3.0, 3.0)]:
        got = max(x1 - x2, 0.0) + max(x2 - (-2.0), 0.0) + (-2.0)
        assert got == pytest.approx(want)


def _pool_net(groups, width):
    return Network(width, (Linear(np.eye(width), np.zeros(width)), MaxPool(groups)))


def test_maxpool_to_relu_pairwise():
    net = _pool_net(((0, 1),), 2)
    box = BoxDomain(np.array([-2.0, -2.0]), np.array([3.0, 3.0]))
    lowered = maxpool_to_relu(net, propagate_box(net, box))
    assert is_relu_only(lowered)
    assert validate_network(lowered) == []
    assert forward_eval(lowered, np.array([3.0, 1.0]))[0] == pytest.approx(3.0)
    assert forward_eval(lowered, np.array([1.0, 3.0]))[0] == pytest.approx(3.0)


def test_maxpool_to_relu_4ary_matches_on_random_points():
    net = _pool_net(((0, 1, 2, 3),), 4)
    box = BoxDomain(-2 * np.ones(4), 2 * np.ones(4))
    lowered = maxpool_to_relu(net, propagate_box(net, box))
    assert is_relu_only(lowered)
    # balanced tree: 3 pairwise maxima = 6 relu units over 2 rounds
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, size=(1000, 4))
    for x in pts:
        assert abs(forward_eval(lowered, x)[0] - np.max(x)) <= 1e-9


def test_maxpool_to_relu_multiple_groups_and_odd_sizes():
    net = _pool_net(((0, 2, 4), (1, 3)), 5)
    box = BoxDomain(-np.ones(5) * 3, np.ones(5) * 2)
    lowered = maxpool_to_relu(net, propagate_box(net, box))
    rng = np.random.default_rng(6)
    for _ in range(500):
        x = rng.uniform(-3, 2, size=5)
        got = forward_eval(lowered, x)
        want = np.array([max(x[0], x[2], x[4]), max(x[1], x[3])])
        assert np.allclose(got, want, atol=1e-9)


def test_maxpool_to_relu_exact_on_domain_for_canonical_or():
    # OR properties introduce MaxPool layers behind the net; lowering them
    # must preserve evaluation on the domain
    prop = AnyClause((Geq(np.array([1.0]), -5.0), Geq(np.array([-1.0]), -5.0)))
    problem = canonicalize(toy_net(), prop, toy_box())
    bounds = propagate_box(problem.canonical_net, problem.domain)
    lowered = maxpool_to_relu(problem.canonical_net, bounds)
    lowered_problem = lower_maxpools(problem)
    assert lowered_problem.domain is problem.domain
    assert lowered_problem.original_net is problem.original_net
    assert lowered_problem.original_property is problem.original_property
    relu_only = toy_problem(-5.0)
    assert lower_maxpools(relu_only) is relu_only
    rng = np.random.default_rng(7)
    for net in (lowered, lowered_problem.canonical_net):
        assert is_relu_only(net)
        for _ in range(1000):
            x = rng.uniform(-2, 2, size=2)
            a = forward_eval(problem.canonical_net, x)[0]
            b = forward_eval(net, x)[0]
            assert abs(a - b) <= 1e-9


def test_maxpool_to_relu_requires_finite_bounds():
    net = _pool_net(((0, 1),), 2)
    box = BoxDomain(np.array([-2.0, -2.0]), np.array([3.0, 3.0]))
    bounds = propagate_box(net, box)
    bounds.pre_lb[1][0] = -np.inf
    with pytest.raises(ValueError):
        maxpool_to_relu(net, bounds)
