import numpy as np
import pytest
from helpers import add_row, add_var, count_calls, random_box, random_net, toy_box, toy_net, toy_problem
from reference_lp import solve_reference

from plverify import lp
from plverify.canon import AnyClause, Geq, canonicalize, maxpool_to_relu
from plverify.interval import propagate_box
from plverify.model import BoxDomain, Linear, MaxPool, Network, Relu, forward_eval
from plverify.oracle import CapExceeded, oracle_min, oracle_verdict


def test_toy_four_pattern_enumeration():
    problem = toy_problem(-5.0)
    res = oracle_min(problem.canonical_net, problem.domain)
    # (pass,block) and (block,pass) reach 1; (block,block) gives 5 at s=0;
    # (pass,pass) is feasible only at s=0 giving 5
    assert res.min_value == pytest.approx(1.0, abs=1e-8)
    assert res.feasible_patterns == 4
    assert abs(abs(res.argmin[0] + res.argmin[1]) - 4.0) <= 1e-6


def test_toy_shifted():
    problem = toy_problem(-3.0)
    res = oracle_min(problem.canonical_net, problem.domain)
    assert res.min_value == pytest.approx(-1.0, abs=1e-8)


def test_relu_free_affine_net():
    net = Network(2, (Linear(np.array([[1.0, -2.0]]), np.array([0.5])),))
    box = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 2.0]))
    res = oracle_min(net, box)
    assert res.feasible_patterns == 1
    assert res.min_value == pytest.approx(1.0 * -1.0 - 2.0 * 2.0 + 0.5, abs=1e-9)


def test_verdicts():
    status, margin = oracle_verdict(toy_problem(-5.0))
    assert status == "unsat"
    assert margin == pytest.approx(1.0, abs=1e-8)
    status, point = oracle_verdict(toy_problem(-3.0))
    assert status == "sat"
    assert forward_eval(toy_problem(-3.0).canonical_net, point)[0] <= 1e-8


def test_tautology_with_offset_output_is_unsat():
    # |x + 10| >= 9 on [-1, 1]: an OR of the two signs, never near zero
    base = Network(1, (Linear(np.array([[1.0]]), np.array([10.0])),))
    prop = AnyClause((Geq(np.array([1.0]), 0.0), Geq(np.array([-1.0]), 0.0)))
    problem = canonicalize(base, prop, BoxDomain(np.array([-1.0]), np.array([1.0])))
    status, margin = oracle_verdict(problem)
    assert status == "unsat"
    assert margin == pytest.approx(9.0, abs=1e-8)


def test_cap_exceeded():
    rng = np.random.default_rng(5)
    net = random_net(rng, 2, [6, 6])
    box = BoxDomain(-2 * np.ones(2), 2 * np.ones(2))
    with pytest.raises(CapExceeded):
        oracle_min(net, box, relu_cap=3)


def test_sampled_points_lie_in_a_feasible_pattern():
    # oracle minimum is a lower bound on any sampled value, and matches the
    # true minimum found by dense sampling on a tiny net
    rng = np.random.default_rng(9)
    for _ in range(10):
        net = random_net(rng, 2, [3])
        box = random_box(rng, 2)
        res = oracle_min(net, box)
        grid = np.stack(
            np.meshgrid(
                np.linspace(box.lb[0], box.ub[0], 60),
                np.linspace(box.lb[1], box.ub[1], 60),
            ),
            axis=-1,
        ).reshape(-1, 2)
        vals = [forward_eval(net, x)[0] for x in grid]
        assert res.min_value <= min(vals) + 1e-7
        assert res.min_value >= min(vals) - 0.2  # coarse grid upper gap


def test_min_matches_brute_force_sampling_closely():
    rng = np.random.default_rng(21)
    net = random_net(rng, 2, [2, 2])
    box = random_box(rng, 2)
    res = oracle_min(net, box)
    val_at_argmin = forward_eval(net, res.argmin)[0]
    assert val_at_argmin == pytest.approx(res.min_value, abs=1e-7)


def _plain_enumeration_min(net: Network, box: BoxDomain) -> float:
    """Minimum over every total sign pattern of every unit, each pattern LP
    solved by vertex enumeration: no interval or LP pruning anywhere."""
    units = [(i, j) for i, layer in enumerate(net.layers) if isinstance(layer, Relu)
             for j in range(net.layers[i - 1].out_width)]
    best = np.inf
    for mask in range(1 << len(units)):
        passing = {u: bool(mask >> k & 1) for k, u in enumerate(units)}
        mat, const = np.eye(net.input_size), np.zeros(net.input_size)
        model = lp.LpModel()
        for j in range(box.size):
            add_var(model, box.lb[j], box.ub[j])
        for i, layer in enumerate(net.layers):
            if isinstance(layer, Linear):
                mat, const = layer.weight @ mat, layer.weight @ const + layer.bias
                continue
            for j in range(len(const)):
                if passing[(i, j)]:
                    add_row(model, -mat[j], lp.LE, float(const[j]))
                else:
                    add_row(model, mat[j].copy(), lp.LE, float(-const[j]))
                    mat[j], const[j] = 0.0, 0.0
        model.set_objective(mat[0])
        sol = solve_reference(model)
        if sol.status == lp.OPTIMAL:
            best = min(best, sol.objective + float(const[0]))
    return best


def test_pruned_search_matches_plain_enumeration():
    # the unit-by-unit search drops empty partial patterns; it must reach
    # the minimum that enumerating every total pattern reaches
    rng = np.random.default_rng(33)
    for k in range(12):
        n_in = 2 + k % 2
        net = random_net(rng, n_in, [3, 3] if k % 3 else [4])
        box = random_box(rng, n_in)
        res = oracle_min(net, box)
        assert res.min_value == pytest.approx(_plain_enumeration_min(net, box), abs=1e-6)


def _differential_nets(rng):
    for k in range(40):
        n_in = 2 + k % 3
        net = random_net(rng, n_in, [int(rng.integers(2, 5)) for _ in range(2 + k % 2)])
        yield net, net, random_box(rng, n_in)
    net = Network(
        3,
        (
            Linear(rng.normal(size=(4, 3)), rng.uniform(-0.5, 0.5, 4)),
            Relu(),
            Linear(rng.normal(size=(4, 4)) / 2.0, rng.uniform(-0.5, 0.5, 4)),
            MaxPool(((0, 1), (2, 3))),
            Linear(rng.normal(size=(1, 2)), rng.uniform(-0.5, 0.5, 1)),
        ),
    )
    box = BoxDomain(-np.ones(3), np.ones(3))
    yield net, maxpool_to_relu(net, propagate_box(net, box)), box


def test_warm_pattern_lps_match_cold_oracle(monkeypatch):
    # pattern LPs start from the parent pattern's basis; the cold oracle
    # solves every one from scratch, and both must enumerate the same
    # feasible patterns and reach the same minimum
    real_solve = lp.solve
    warm_run = [False]

    def solve(model, basis=None):
        return real_solve(model, basis if warm_run[0] else None)

    monkeypatch.setattr(lp, "solve", solve)
    lps = count_calls(monkeypatch, lp, "solve", lambda sol: warm_run[0])
    cold_starts = count_calls(monkeypatch, lp, "_slack_start", lambda start: warm_run[0])
    for net, relu_net, box in _differential_nets(np.random.default_rng(44)):
        warm_run[0] = False
        cold = oracle_min(relu_net, box)
        warm_run[0] = True
        warm = oracle_min(relu_net, box)
        assert abs(warm.min_value - cold.min_value) <= 1e-9
        assert warm.feasible_patterns == cold.feasible_patterns
        assert np.all(warm.argmin >= box.lb - 1e-9) and np.all(warm.argmin <= box.ub + 1e-9)
        assert forward_eval(net, warm.argmin)[0] == pytest.approx(warm.min_value, abs=1e-7)
    assert lps[0] > 1000, lps
    assert cold_starts[0] <= 0.03 * lps[0], (cold_starts, lps)
