import numpy as np
import pytest
from helpers import random_box, random_net, toy_box, toy_net, toy_problem

from plverify.bab import (
    CONVERGED,
    FAST_DUAL,
    INPUT_LONGEST,
    INPUT_SMART,
    INTERVAL,
    PLANET_TIGHTENED,
    RELU_SPLIT,
    RELUPLEX_RELAX,
    SAT,
    TIMEOUT,
    UNSAT,
    BabConfig,
    InputBox,
    NoAmbiguousUnit,
    PhaseSet,
    SplitExhausted,
    Subdomain,
    bab_optimize,
    bab_verify,
    pick_out,
    sample_upper_bound,
    split_input_longest,
    split_input_smart,
    split_relu,
)
from plverify.canon import Geq, canonicalize, validate_counterexample
from plverify.interval import BLOCKED, PASSING, propagate_box
from plverify.model import BoxDomain, Linear, Network, Relu, forward_eval
from plverify.oracle import oracle_min, oracle_verdict
from plverify.rng import SplitMix64


def _heap(entries):
    import heapq

    h = []
    for seq, (lb, name) in enumerate(entries):
        heapq.heappush(h, (lb, seq, Subdomain(name, lb, 0, seq=seq)))
    return h


def test_pick_out_minimum_and_fifo_ties():
    q = _heap([(-3.0, "A"), (-1.0, "B")])
    assert pick_out(q).region == "A"
    q = _heap([(-1.0, "A"), (-1.0, "B")])
    assert pick_out(q).region == "A"
    q = _heap([(-1.0, "only")])
    assert pick_out(q).region == "only"
    with pytest.raises(IndexError):
        pick_out([])


def _boxdom(lb, ub):
    return Subdomain(InputBox(BoxDomain(np.array(lb), np.array(ub))), -np.inf, 0)


def test_split_input_longest():
    kids = split_input_longest(_boxdom([-2.0, -2.0], [2.0, 2.0]))
    assert np.allclose(kids[0].region.box.ub, [0.0, 2.0])
    assert np.allclose(kids[1].region.box.lb, [0.0, -2.0])

    kids = split_input_longest(_boxdom([0.0, -3.0], [1.0, 3.0]))
    assert np.allclose(kids[0].region.box.ub, [1.0, 0.0])

    kids = split_input_longest(_boxdom([5.0, 0.0], [5.0, 2.0]))
    assert np.allclose(kids[0].region.box.ub, [5.0, 1.0])

    with pytest.raises(SplitExhausted):
        split_input_longest(_boxdom([1.0, 2.0], [1.0, 2.0]))


def test_split_input_smart_symmetric_toy_falls_back_to_dim0():
    problem = toy_problem(-5.0)
    net = problem.canonical_net
    dom = _boxdom([-2.0, -2.0], [2.0, 2.0])
    kids = split_input_smart(dom, net)
    assert kids[0].region.box.ub[0] == pytest.approx(0.0)  # dim 0 split


def test_split_input_smart_ignores_dead_dimension():
    # the net reads only input 0; splitting input 0 raises the fast bound
    net = Network(
        2,
        (
            Linear(np.array([[1.0, 0.0]]), np.zeros(1)),
            Relu(),
            Linear(np.array([[1.0]]), np.zeros(1)),
        ),
    )
    dom = _boxdom([-4.0, -4.0], [4.0, 4.0])
    kids = split_input_smart(dom, net)
    assert kids[0].region.box.ub[0] == pytest.approx(0.0)
    assert kids[0].region.box.ub[1] == pytest.approx(4.0)


def test_split_input_smart_width_guarantee():
    # same x0-only net: the fast bound only ever rewards halving x0, so
    # smart scoring alone would keep cutting x0 while x1 keeps its width
    net = Network(
        2,
        (
            Linear(np.array([[1.0, 0.0]]), np.zeros(1)),
            Relu(),
            Linear(np.array([[1.0]]), np.zeros(1)),
        ),
    )
    root = BoxDomain(np.array([-4.0, -4.0]), np.array([4.0, 4.0]))
    dom = _boxdom([-1.0 / 16, -4.0], [1.0 / 16, 4.0])  # x0 is 1/64 of x1's width
    kids = split_input_smart(dom, net)
    assert kids[0].region.box.ub[0] == pytest.approx(0.0)
    kids = split_input_smart(dom, net, root=root)
    assert kids[0].region.box.ub[1] == pytest.approx(0.0)
    assert kids[0].region.box.ub[0] == pytest.approx(1.0 / 16)
    # relative to an anisotropic root the same box is not elongated
    wide_root = BoxDomain(np.array([-0.5, -4.0]), np.array([0.5, 4.0]))
    kids = split_input_smart(dom, net, root=wide_root)
    assert kids[0].region.box.ub[0] == pytest.approx(0.0)


def test_split_input_smart_1d():
    net = toy_problem(-5.0).canonical_net
    # 1-D slice: fix x2 via a degenerate box on dim 1
    dom = _boxdom([-2.0, 0.0], [2.0, 0.0])
    kids = split_input_smart(dom, net)
    assert kids[0].region.box.ub[0] == pytest.approx(0.0)


def test_split_relu_tiebreak_and_progress():
    problem = toy_problem(-5.0)
    net = problem.canonical_net
    bounds = propagate_box(net, problem.domain)
    root = Subdomain(PhaseSet(problem.domain, ()), -np.inf, 0)
    kids = split_relu(root, net, bounds)
    # both units score min(4,4); tie broken by lowest (layer, unit)
    assert dict(kids[0].region.phases) == {(1, 0): BLOCKED}
    assert dict(kids[1].region.phases) == {(1, 0): PASSING}

    half = Subdomain(PhaseSet(problem.domain, (((1, 0), PASSING),)), -np.inf, 1)
    kids = split_relu(half, net, bounds)
    assert dict(kids[0].region.phases)[(1, 1)] == BLOCKED

    full = Subdomain(
        PhaseSet(problem.domain, (((1, 0), PASSING), ((1, 1), BLOCKED))), -np.inf, 2
    )
    with pytest.raises(NoAmbiguousUnit):
        split_relu(full, net, bounds)


def test_sample_upper_bound_point_box():
    net = toy_problem(-5.0).canonical_net
    x = np.array([1.0, -0.5])
    dom = InputBox(BoxDomain(x, x))
    val, pt = sample_upper_bound(net, dom, 8, SplitMix64(0))
    assert val == pytest.approx(forward_eval(net, x)[0])
    assert np.allclose(pt, x)


def test_sample_upper_bound_toy():
    problem = toy_problem(-5.0)
    val, pt = sample_upper_bound(problem.canonical_net, InputBox(problem.domain), 1024, SplitMix64(0))
    assert 1.0 - 1e-12 <= val <= 5.0
    # coordinate descent from the best of 1024 samples reaches a corner
    assert val == pytest.approx(1.0, abs=1e-9)


def test_sample_upper_bound_finds_toy_counterexample():
    problem = toy_problem(-3.0)
    val, pt = sample_upper_bound(problem.canonical_net, InputBox(problem.domain), 1024, SplitMix64(0))
    assert val <= 0.0
    assert validate_counterexample(problem, pt, 1e-6)


def test_sample_upper_bound_phase_filtering():
    problem = toy_problem(-5.0)
    net = problem.canonical_net
    dom = PhaseSet(problem.domain, (((1, 0), PASSING),))
    val, pt = sample_upper_bound(net, dom, 256, SplitMix64(1))
    assert pt is not None
    assert pt[0] + pt[1] >= -1e-12  # passing phase of unit a means x1+x2 >= 0
    impossible = PhaseSet(problem.domain, (((1, 0), PASSING), ((1, 1), PASSING)))
    # both passing only happens on the measure-zero line x1+x2=0
    val, pt = sample_upper_bound(net, impossible, 64, SplitMix64(2))
    assert val == np.inf and pt is None


def test_toy_verify_unsat_all_bab_methods():
    for branching in (INPUT_LONGEST, INPUT_SMART, RELU_SPLIT):
        problem = toy_problem(-5.0)
        cfg = BabConfig(branching=branching)
        res = bab_verify(problem, cfg)
        assert res.status == UNSAT, branching
        assert res.margin == pytest.approx(1.0, abs=1e-3)
        assert res.nodes == 1  # root bound is already conclusive


def test_toy_verify_sat_all_bab_methods():
    for branching in (INPUT_LONGEST, INPUT_SMART, RELU_SPLIT):
        problem = toy_problem(-3.0)
        res = bab_verify(problem, BabConfig(branching=branching))
        assert res.status == SAT, branching
        assert validate_counterexample(problem, res.counterexample, 1e-6)


def test_toy_optimize_converges_to_oracle():
    problem = toy_problem(-5.0)
    res = bab_optimize(problem, BabConfig(branching=INPUT_LONGEST))
    assert res.status == CONVERGED
    assert abs(res.min_estimate - 1.0) <= 1e-3
    assert res.nodes == 1

    res = bab_optimize(toy_problem(-3.0), BabConfig(branching=INPUT_LONGEST))
    assert res.status == CONVERGED
    assert abs(res.min_estimate + 1.0) <= 1e-3


def test_optimize_point_box():
    net = toy_net()
    x = np.array([0.7, -0.2])
    problem = canonicalize(net, Geq(np.array([1.0]), -5.0), BoxDomain(x, x))
    res = bab_optimize(problem, BabConfig())
    assert res.status == CONVERGED
    assert res.nodes == 1
    assert res.min_estimate == pytest.approx(forward_eval(problem.canonical_net, x)[0], abs=1e-9)


def test_contradictory_initial_phases_unsat_immediately():
    problem = toy_problem(-3.0)  # a SAT problem, but the phase set is empty
    phases = {(1, 0): PASSING, (1, 1): PASSING}
    # both passing forces x1+x2 = 0, where y+3 = 3 > 0: planet proves it
    res = bab_verify(problem, BabConfig(branching=RELU_SPLIT), initial_phases=phases)
    assert res.status == UNSAT
    net = Network(
        1,
        (Linear(np.array([[1.0]]), np.array([2.5])), Relu(), Linear(np.array([[1.0]]), np.zeros(1))),
    )
    prob2 = canonicalize(net, Geq(np.array([1.0]), 100.0), BoxDomain(np.array([-1.0]), np.array([1.0])))
    res2 = bab_verify(prob2, BabConfig(branching=RELU_SPLIT), initial_phases={(1, 0): BLOCKED})
    assert res2.status == UNSAT
    assert res2.nodes == 1


def test_timeout_zero():
    res = bab_verify(toy_problem(-5.0), BabConfig(timeout=0.0))
    assert res.status == TIMEOUT
    assert res.nodes == 0


def _suite(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n_in = int(rng.integers(2, 4))
        widths = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(1, 3)))]
        net = random_net(rng, n_in, widths)
        box = random_box(rng, n_in)
        base = oracle_min(net, box).min_value
        margin = float(rng.choice([-1.0, -0.3, 0.3, 1.0]))
        problem = canonicalize(net, Geq(np.array([1.0]), base - margin), box)
        out.append((problem, margin))
    return out


def test_verdicts_match_oracle_across_methods():
    for problem, margin in _suite(100, 12):
        want = "unsat" if margin > 0 else "sat"
        for branching in (INPUT_LONGEST, INPUT_SMART, RELU_SPLIT):
            res = bab_verify(problem, BabConfig(branching=branching, seed=3))
            assert res.status == want, (branching, margin)
            if res.status == SAT:
                assert validate_counterexample(problem, res.counterexample, 1e-6)
            else:
                # the reported margin is the final global lower bound: it is
                # positive and never exceeds the true margin
                assert 0.0 < res.margin <= margin + 1e-6


def test_optimize_matches_oracle_and_brackets():
    for problem, margin in _suite(200, 10):
        exact = oracle_min(problem.canonical_net, problem.domain).min_value
        res = bab_optimize(problem, BabConfig(branching=INPUT_SMART, seed=5))
        assert res.status == CONVERGED
        assert abs(res.min_estimate - exact) <= res.best_ub - res.best_lb + 1e-6 + 1e-4
        assert abs(res.min_estimate - exact) <= 1e-4 + 1e-6
        assert res.best_lb <= exact + 1e-6
        assert res.best_ub >= exact - 1e-6


def test_alternative_boundings_still_sound():
    for problem, margin in _suite(300, 6):
        want = "unsat" if margin > 0 else "sat"
        for bounding in (INTERVAL, FAST_DUAL, RELUPLEX_RELAX):
            cfg = BabConfig(bounding=bounding, branching=INPUT_LONGEST, node_cap=50_000)
            res = bab_verify(problem, cfg)
            assert res.status in (want, TIMEOUT), (bounding, margin)


def test_child_bounds_dominate_parent():
    problem = toy_problem(-4.5)
    net = problem.canonical_net
    cfg = BabConfig(branching=INPUT_LONGEST)
    root = Subdomain(InputBox(problem.domain), -np.inf, 0)
    from plverify.bab import _bound_region

    lb_root, bounds, _ = _bound_region(net, root.region, cfg)
    root.bounds = bounds
    root.lower_bound = lb_root
    for child in split_input_longest(root):
        lb_child, _, _ = _bound_region(net, child.region, cfg)
        assert lb_child >= lb_root - 1e-6


def test_deterministic_repeat_runs():
    problem = toy_problem(-4.9)
    cfg = BabConfig(branching=INPUT_SMART, seed=11)
    a = bab_verify(problem, cfg)
    b = bab_verify(problem, cfg)
    assert a.status == b.status
    assert a.nodes == b.nodes
    assert (a.margin is None) == (b.margin is None)
    if a.margin is not None:
        assert a.margin == b.margin
