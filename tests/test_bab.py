import numpy as np
import pytest
from helpers import count_calls, differential_cases, random_box, random_net, toy_box, toy_net, toy_problem

from plverify.bab import (
    CONVERGED,
    INPUT_LONGEST,
    INPUT_SMART,
    RELU_SPLIT,
    SAT,
    TIMEOUT,
    UNSAT,
    BabConfig,
    NoAmbiguousUnit,
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
from plverify import bab as bab_module
from plverify import lp as lp_module
from plverify.canon import Geq, canonicalize, lower_maxpools, validate_counterexample
from plverify.gensuite import GenSpec, generate, standard_suite
from plverify.interval import BLOCKED, PASSING, propagate_box
from plverify.lp import NumericalFailure
from plverify.model import BoxDomain, Linear, MaxPool, Network, Relu, forward_batch, forward_eval
from plverify.oracle import oracle_min, oracle_verdict
from plverify.relax import build_planet
from plverify.rng import SplitMix64


def _heap(entries):
    import heapq

    h = []
    for seq, (lb, name) in enumerate(entries):
        heapq.heappush(h, (lb, seq, Subdomain(name, lb, seq=seq)))
    return h


def test_pick_out_minimum_and_fifo_ties():
    q = _heap([(-3.0, "A"), (-1.0, "B")])
    assert pick_out(q).box == "A"
    q = _heap([(-1.0, "A"), (-1.0, "B")])
    assert pick_out(q).box == "A"
    q = _heap([(-1.0, "only")])
    assert pick_out(q).box == "only"
    with pytest.raises(IndexError):
        pick_out([])


def _boxdom(lb, ub):
    return Subdomain(BoxDomain(np.array(lb), np.array(ub)), -np.inf)


def test_split_input_longest():
    kids = split_input_longest(_boxdom([-2.0, -2.0], [2.0, 2.0]))
    assert np.allclose(kids[0].box.ub, [0.0, 2.0])
    assert np.allclose(kids[1].box.lb, [0.0, -2.0])

    kids = split_input_longest(_boxdom([0.0, -3.0], [1.0, 3.0]))
    assert np.allclose(kids[0].box.ub, [1.0, 0.0])

    kids = split_input_longest(_boxdom([5.0, 0.0], [5.0, 2.0]))
    assert np.allclose(kids[0].box.ub, [5.0, 1.0])

    with pytest.raises(SplitExhausted):
        split_input_longest(_boxdom([1.0, 2.0], [1.0, 2.0]))


def test_split_input_smart_symmetric_toy_falls_back_to_dim0():
    problem = toy_problem(-5.0)
    net = problem.canonical_net
    dom = _boxdom([-2.0, -2.0], [2.0, 2.0])
    kids = split_input_smart(dom, net, root=dom.box)
    assert kids[0].box.ub[0] == pytest.approx(0.0)  # dim 0 split


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
    kids = split_input_smart(dom, net, root=dom.box)
    assert kids[0].box.ub[0] == pytest.approx(0.0)
    assert kids[0].box.ub[1] == pytest.approx(4.0)


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
    kids = split_input_smart(dom, net, root=dom.box)
    assert kids[0].box.ub[0] == pytest.approx(0.0)
    kids = split_input_smart(dom, net, root=root)
    assert kids[0].box.ub[1] == pytest.approx(0.0)
    assert kids[0].box.ub[0] == pytest.approx(1.0 / 16)
    # relative to an anisotropic root the same box is not elongated
    wide_root = BoxDomain(np.array([-0.5, -4.0]), np.array([0.5, 4.0]))
    kids = split_input_smart(dom, net, root=wide_root)
    assert kids[0].box.ub[0] == pytest.approx(0.0)


def test_split_input_smart_1d():
    net = toy_problem(-5.0).canonical_net
    # 1-D slice: fix x2 via a degenerate box on dim 1
    dom = _boxdom([-2.0, 0.0], [2.0, 0.0])
    kids = split_input_smart(dom, net, root=dom.box)
    assert kids[0].box.ub[0] == pytest.approx(0.0)


def test_split_relu_tiebreak_and_progress():
    problem = toy_problem(-5.0)
    net = problem.canonical_net
    bounds = propagate_box(net, problem.domain)
    root = Subdomain(problem.domain, -np.inf)
    kids = split_relu(root, net, bounds)
    # both units score min(4,4); tie broken by lowest (layer, unit)
    assert dict(kids[0].phases) == {(1, 0): BLOCKED}
    assert dict(kids[1].phases) == {(1, 0): PASSING}

    half = Subdomain(problem.domain, -np.inf, (((1, 0), PASSING),))
    kids = split_relu(half, net, bounds)
    assert dict(kids[0].phases)[(1, 1)] == BLOCKED

    full = Subdomain(problem.domain, -np.inf, (((1, 0), PASSING), ((1, 1), BLOCKED)))
    with pytest.raises(NoAmbiguousUnit):
        split_relu(full, net, bounds)


def test_sample_upper_bound_point_box():
    net = toy_problem(-5.0).canonical_net
    x = np.array([1.0, -0.5])
    val, pt = sample_upper_bound(net, BoxDomain(x, x), {}, 8, SplitMix64(0))
    assert val == pytest.approx(forward_eval(net, x)[0])
    assert np.allclose(pt, x)


def test_sample_upper_bound_toy():
    problem = toy_problem(-5.0)
    val, pt = sample_upper_bound(problem.canonical_net, problem.domain, {}, 1024, SplitMix64(0))
    assert 1.0 - 1e-12 <= val <= 5.0
    # coordinate descent from the best of 1024 samples reaches a corner
    assert val == pytest.approx(1.0, abs=1e-9)


def test_sample_upper_bound_finds_toy_counterexample():
    problem = toy_problem(-3.0)
    val, pt = sample_upper_bound(problem.canonical_net, problem.domain, {}, 1024, SplitMix64(0))
    assert val <= 0.0
    assert validate_counterexample(problem, pt, 1e-6)


def test_sample_upper_bound_phase_filtering():
    problem = toy_problem(-5.0)
    net = problem.canonical_net
    val, pt = sample_upper_bound(net, problem.domain, {(1, 0): PASSING}, 256, SplitMix64(1))
    assert pt is not None
    assert pt[0] + pt[1] >= -1e-12  # passing phase of unit a means x1+x2 >= 0
    impossible = {(1, 0): PASSING, (1, 1): PASSING}
    # both passing only happens on the measure-zero line x1+x2=0
    val, pt = sample_upper_bound(net, problem.domain, impossible, 64, SplitMix64(2))
    assert val == np.inf and pt is None


def _sample_per_trial(net, box, phases, count, rng):
    """``sample_upper_bound`` with one ``forward_eval`` per coordinate trial."""
    pts = rng.uniform_box(box.lb, box.ub, count)
    vals, mask = bab_module._forward_phases(net, pts, phases)
    if phases:
        if not np.any(mask):
            return np.inf, None
        vals = np.where(mask, vals, np.inf)
    k = int(np.argmin(vals))
    best_val, best_pt = float(vals[k]), pts[k].copy()
    for j in range(box.size):
        for cand in (box.lb[j], 0.5 * (box.lb[j] + box.ub[j]), box.ub[j]):
            trial = best_pt.copy()
            trial[j] = cand
            v = float(forward_eval(net, trial)[0])
            if v < best_val:
                if phases and not bab_module._forward_phases(net, trial[None, :], phases)[1][0]:
                    continue
                best_val, best_pt = v, trial
    return best_val, best_pt


def test_sample_upper_bound_keeps_the_bytes_of_a_per_trial_loop():
    # the three trials of a coordinate share one evaluation, row by row, so
    # the value and the point are those of one forward_eval per trial
    rng = np.random.default_rng(58)
    cases = [(net, box, phases) for net, box, phases in differential_cases(rng)]
    for _ in range(20):
        n_in = int(rng.integers(1, 4))
        pooled = Network(n_in, (
            Linear(rng.normal(size=(4, n_in)), rng.uniform(-0.5, 0.5, 4)),
            MaxPool(((0, 1), (2, 3))),
            Linear(rng.normal(size=(1, 2)), rng.uniform(-0.5, 0.5, 1)),
        ))
        cases.append((pooled, random_box(rng, n_in), {}))
    found = {"plain": 0, "phased": 0}
    for seed, (net, box, phases) in enumerate(cases):
        for given in ({}, phases):
            got = sample_upper_bound(net, box, given, 32, SplitMix64(seed))
            want = _sample_per_trial(net, box, given, 32, SplitMix64(seed))
            assert float(got[0]).hex() == float(want[0]).hex()
            assert (got[1] is None and want[1] is None) or got[1].tobytes() == want[1].tobytes()
            found["phased" if given else "plain"] += got[1] is not None
    assert min(found.values()) > 100, found


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


def test_satisfiability_runs_cheap_steps_before_the_lp(monkeypatch):
    # a positive interval bound prunes a subdomain and a sampled
    # counterexample ends the run, so neither toy instance bounds by LP
    calls = []
    bound_region = bab_module._bound_region
    monkeypatch.setattr(bab_module, "_bound_region", lambda *args: calls.append(args) or bound_region(*args))
    for branching in (INPUT_LONGEST, INPUT_SMART, RELU_SPLIT):
        problem = toy_problem(-100.0)
        interval_lb = float(propagate_box(problem.canonical_net, problem.domain).output_lb[0])
        res = bab_verify(problem, BabConfig(branching=branching))
        assert res.status == UNSAT and res.nodes == 1, branching
        assert res.margin == interval_lb > 0.0
        problem = toy_problem(100.0)
        res = bab_verify(problem, BabConfig(branching=branching))
        assert res.status == SAT and res.nodes == 1, branching
        assert validate_counterexample(problem, res.counterexample, 1e-6)
    assert calls == []
    # the LP still bounds what the interval bound cannot prune
    res = bab_verify(toy_problem(-5.0), BabConfig())
    assert len(calls) == 1 and res.margin == pytest.approx(1.0, abs=1e-3)


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
    engine = bab_module._Engine(problem.canonical_net, problem.domain, BabConfig(branching=RELU_SPLIT), bab_module.SATISFIABILITY)
    # both passing forces x1+x2 = 0, where y+3 = 3 > 0: planet proves it
    sub, candidates = engine.evaluate(Subdomain(problem.domain, -np.inf, (((1, 0), PASSING), ((1, 1), PASSING))))
    assert sub.lower_bound == pytest.approx(3.0, abs=1e-6)
    assert all(val > 0.0 for val, _ in candidates)
    net = Network(
        1,
        (Linear(np.array([[1.0]]), np.array([2.5])), Relu(), Linear(np.array([[1.0]]), np.zeros(1))),
    )
    prob2 = canonicalize(net, Geq(np.array([1.0]), 100.0), BoxDomain(np.array([-1.0]), np.array([1.0])))
    # x + 2.5 > 0 on the whole box: blocking the unit leaves no point
    engine = bab_module._Engine(prob2.canonical_net, prob2.domain, BabConfig(branching=RELU_SPLIT), bab_module.SATISFIABILITY)
    sub, candidates = engine.evaluate(Subdomain(prob2.domain, -np.inf, (((1, 0), BLOCKED),)))
    assert sub.lower_bound == np.inf and candidates == []


def test_optimize_prunes_contradictory_phase_sets_before_any_lp(monkeypatch):
    # a phase set whose phases its interval bounds contradict takes +inf
    # and offers no candidate in optimise mode too, before any LP; its
    # relaxation alone can solve the tightening LPs of earlier layers
    # before it reaches the contradiction
    solves = count_calls(monkeypatch, lp_module, "solve")
    pruned = relaxation_lps = 0
    for net, box, phases in differential_cases(np.random.default_rng(8)):
        problem = canonicalize(net, Geq(np.array([1.0]), 0.0), box)
        if propagate_box(problem.canonical_net, box, phases) is not None:
            continue
        engine = bab_module._Engine(problem.canonical_net, problem.domain, BabConfig(branching=RELU_SPLIT), bab_module.OPTIMIZE)
        sub, candidates = engine.evaluate(Subdomain(box, -np.inf, tuple(sorted(phases.items()))))
        assert solves[0] == 0
        assert sub.lower_bound == np.inf and sub.bounds is None and candidates == []
        pruned += 1
        assert build_planet(problem.canonical_net, box, phases, tighten=True).infeasible
        relaxation_lps += solves[0]
        solves[0] = 0
    assert pruned > 50 and relaxation_lps > 0


def test_config_rejects_an_unknown_branching_rule():
    # a misspelt rule must fail at once: unchecked, it runs until the first
    # split, and a run decided at the root returns a verdict with no error
    with pytest.raises(ValueError, match="unknown branching rule 'relu_split'"):
        bab_verify(toy_problem(-3.0), BabConfig(branching="relu_split"))


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


def test_reported_lower_bound_never_exceeds_the_incumbent():
    # a later incumbent prunes queued entries lazily; a queue head above it
    # must not be reported as the lower bound
    problem = lower_maxpools(generate(6, GenSpec(4, 3, 4, -1e-3)).problem())
    exact = oracle_min(problem.canonical_net, problem.domain).min_value
    res = bab_optimize(problem, BabConfig(epsilon=1e-4, node_cap=2000))
    assert res.status == CONVERGED
    assert res.best_lb <= res.best_ub
    assert res.best_lb <= exact + 1e-9


def test_only_input_branching_skips_tightening(monkeypatch):
    # phase splitting picks its unit from the layer bounds, so it keeps
    # every tightening LP
    output_only = []
    real_build = bab_module.build_planet

    def build(*args, **kwargs):
        output_only.append(kwargs["output_only"])
        return real_build(*args, **kwargs)

    monkeypatch.setattr(bab_module, "build_planet", build)
    for branching in (INPUT_LONGEST, INPUT_SMART, RELU_SPLIT):
        for run in (bab_verify, bab_optimize):
            output_only.clear()
            run(toy_problem(-5.0), BabConfig(branching=branching))
            assert set(output_only) == {branching != RELU_SPLIT}, (branching, run)


def test_optimize_matches_oracle_and_brackets():
    for problem, margin in _suite(200, 10):
        exact = oracle_min(problem.canonical_net, problem.domain).min_value
        res = bab_optimize(problem, BabConfig(branching=INPUT_SMART, seed=5))
        assert res.status == CONVERGED
        assert abs(res.min_estimate - exact) <= res.best_ub - res.best_lb + 1e-6 + 1e-4
        assert abs(res.min_estimate - exact) <= 1e-4 + 1e-6
        assert res.best_lb <= exact + 1e-6
        assert res.best_ub >= exact - 1e-6


def test_failed_output_lp_falls_back_to_an_lp_free_bound(monkeypatch):
    # a NumericalFailure in a subdomain's output LP does not end the run:
    # the subdomain takes the fast dual bound over its relaxation's layer
    # bounds
    def failing(pm):
        raise NumericalFailure("forced")

    monkeypatch.setattr(bab_module, "planet_lower_bound_with_point", failing)
    for problem, margin in _suite(400, 8):
        want, _ = oracle_verdict(problem)
        exact = oracle_min(problem.canonical_net, problem.domain).min_value
        res = bab_verify(problem, BabConfig(seed=3))
        assert res.status == want, margin
        if res.status == UNSAT:
            assert 0.0 < res.margin <= exact + 1e-6
        res = bab_optimize(problem, BabConfig(seed=5))
        assert res.status == CONVERGED
        assert res.best_lb <= exact + 1e-6


def test_unwitnessed_leaves_keep_their_bound(monkeypatch):
    # a leaf that cannot be split has an exact bound, but it is resolved only
    # when its LP minimiser fed the incumbent; a leaf whose output LP failed
    # has none, so its bound stays a floor and cannot yield a wrong UNSAT or
    # a lower bound above the minimum
    real = bab_module.planet_lower_bound_with_point

    def failing(pm):
        if pm.infeasible:
            return real(pm)  # no LP is solved here
        raise NumericalFailure("forced")

    monkeypatch.setattr(bab_module, "planet_lower_bound_with_point", failing)
    rng = np.random.default_rng(500)
    for _ in range(60):
        n_in = int(rng.integers(2, 4))
        net = random_net(rng, n_in, [int(rng.integers(2, 4)) for _ in range(int(rng.integers(1, 3)))])
        box = random_box(rng, n_in)
        base = oracle_min(net, box).min_value
        for margin in (-0.3, -0.02, 0.3):
            problem = canonicalize(net, Geq(np.array([1.0]), base - margin), box)
            want, _ = oracle_verdict(problem)
            res = bab_verify(problem, BabConfig(branching=RELU_SPLIT, sample_count=1))
            assert res.status in (want, TIMEOUT), margin
            if res.status == UNSAT:
                assert res.margin <= margin + 1e-6
        exact = oracle_min(problem.canonical_net, box).min_value
        res = bab_optimize(problem, BabConfig(branching=RELU_SPLIT, sample_count=1))
        assert res.best_lb <= exact + 1e-6


def test_child_bounds_dominate_parent():
    problem = toy_problem(-4.5)
    net = problem.canonical_net
    root = Subdomain(problem.domain, -np.inf)
    from plverify.bab import _bound_region

    lb_root, bounds, _ = _bound_region(net, root.box, {}, True)
    root.bounds = bounds
    root.lower_bound = lb_root
    for child in split_input_longest(root):
        lb_child, _, _ = _bound_region(net, child.box, {}, True)
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


def test_input_split_search_keeps_the_verdicts_of_full_tightening(monkeypatch):
    # input boxes take their intermediate bounds from the backward pass
    # instead of tightening LPs; the searches keep the verdicts of a run
    # that tightens every unit by LP, and optimise estimates stay within
    # epsilon of its, with fewer LPs
    real_build = bab_module.build_planet
    calls = count_calls(monkeypatch, lp_module, "solve")

    def full(net, box, phases=None, tighten=False, output_only=False):
        return real_build(net, box, phases, tighten)

    lps = {"backward": 0, "full": 0}
    rng = np.random.default_rng(77)
    for _ in range(12):
        n_in = int(rng.integers(2, 4))
        net = random_net(rng, n_in, [int(rng.integers(5, 9)) for _ in range(int(rng.integers(2, 4)))])
        box = random_box(rng, n_in, radius=2.0)
        # thresholds just below the best of a few samples: some SAT, some
        # UNSAT, few decided at the root
        base = float(forward_batch(net, rng.uniform(box.lb, box.ub, size=(200, n_in)))[:, 0].min())
        for margin in (0.01, 0.05):
            problem = canonicalize(net, Geq(np.array([1.0]), base - margin), box)
            runs = [
                lambda: bab_verify(problem, BabConfig(branching=INPUT_SMART, seed=4)),
                lambda: bab_verify(problem, BabConfig(branching=INPUT_LONGEST, seed=4)),
            ]
            if margin == 0.01:
                runs.append(lambda: bab_optimize(problem, BabConfig(seed=4)))
            for run in runs:
                results = {}
                for side, build in (("backward", real_build), ("full", full)):
                    monkeypatch.setattr(bab_module, "build_planet", build)
                    before = calls[0]
                    results[side] = run()
                    lps[side] += calls[0] - before
                got, want = results["backward"], results["full"]
                assert got.status == want.status
                if want.min_estimate is not None:
                    assert abs(got.min_estimate - want.min_estimate) <= BabConfig().epsilon
    assert lps["backward"] < lps["full"], lps


def test_backward_bounds_converge_where_one_slope_does_not():
    # the two-slope backward pass keeps this 4-input, depth-2 instance
    # under the sweep's node cap; the adaptive slope alone misses it
    (spec,) = [s for s in standard_suite(200, 1000) if s.seed == 1112]
    assert (spec.inputs, spec.depth, spec.width) == (4, 2, 5)
    problem = lower_maxpools(generate(spec.seed, spec).problem())
    res = bab_optimize(problem, BabConfig(epsilon=1e-3, branching=INPUT_SMART, seed=7, node_cap=600))
    assert res.status == CONVERGED


def test_optimize_prunes_on_the_fast_dual_bound_before_the_lp(monkeypatch):
    # a subdomain whose fast dual bound reaches the incumbent solves no LP
    # and draws no sample; one whose LP bound reaches it draws no sample
    solves = count_calls(monkeypatch, lp_module, "solve")
    samples = count_calls(monkeypatch, bab_module, "sample_upper_bound")
    rng = np.random.default_rng(31)
    net = random_net(rng, 2, [4, 3])
    problem = canonicalize(net, Geq(np.array([1.0]), 0.0), random_box(rng, 2))
    net, box = problem.canonical_net, problem.domain
    fast = bab_module.fast_dual_bound(net, box, propagate_box(net, box))
    lp_lb, _, _ = bab_module._bound_region(net, box, {}, True)
    assert fast < lp_lb
    solves[0] = 0
    engines = {
        b: bab_module._Engine(problem.canonical_net, problem.domain, BabConfig(branching=b), bab_module.OPTIMIZE) for b in (INPUT_SMART, RELU_SPLIT)
    }
    for engine in engines.values():
        for parent in (fast - 1.0, fast + 0.5):
            engine.global_ub = fast
            sub, candidates = engine.evaluate(Subdomain(box, parent))
            assert candidates == [] and sub.lower_bound == max(fast, parent) and sub.fast_lb == fast
            assert solves[0] == samples[0] == 0
        engine.global_ub = lp_lb
        sub, candidates = engine.evaluate(Subdomain(box, fast - 1.0))
        assert sub.lower_bound == lp_lb and solves[0] > 0 and samples[0] == 0
        assert all(val >= lp_lb - 1e-9 for val, _ in candidates)
        solves[0] = 0
    engine = engines[INPUT_SMART]
    engine.global_ub = np.nextafter(lp_lb, np.inf)
    engine.evaluate(Subdomain(box, fast - 1.0))
    assert samples[0] == 1


def test_optimize_results_are_unchanged_by_the_pre_lp_prune(monkeypatch):
    # every point of a region is worth at least its fast dual bound, so a
    # region pruned on it could not have lowered the incumbent
    evaluations = count_calls(monkeypatch, bab_module, "_bound_region")
    totals = {"prune": 0, "off": 0}
    rng = np.random.default_rng(15)
    for k in range(12):
        n_in = int(rng.integers(2, 4))
        net = random_net(rng, n_in, [int(rng.integers(4, 8)) for _ in range(2 + k % 2)])
        problem = canonicalize(net, Geq(np.array([1.0]), 0.0), random_box(rng, n_in, radius=1.5))
        for branching in (INPUT_SMART, INPUT_LONGEST, RELU_SPLIT):
            cfg = BabConfig(branching=branching, node_cap=120, seed=k)
            results, counts = {}, {}
            for side in ("off", "prune"):
                with monkeypatch.context() as patch:
                    if side == "off":
                        patch.setattr(bab_module._Engine, "_reaches_incumbent", lambda self, bound: False)
                    before = evaluations[0]
                    results[side] = bab_optimize(problem, cfg)
                    counts[side] = evaluations[0] - before
                    totals[side] += counts[side]
            got, want = results["prune"], results["off"]
            assert (got.status, got.nodes) == (want.status, want.nodes), (k, branching)
            for name in ("best_lb", "best_ub", "min_estimate"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None and b is None) or abs(a - b) <= 1e-12, (k, branching, name)
            assert counts["prune"] <= counts["off"]
    assert totals["prune"] < 0.95 * totals["off"], totals


def test_split_input_smart_children_carry_their_fast_bound(monkeypatch):
    rng = np.random.default_rng(31)
    net = random_net(rng, 3, [5, 4])
    box = random_box(rng, 3)
    propagations = count_calls(monkeypatch, bab_module, "propagate_box")
    children = split_input_smart(Subdomain(box, -np.inf), net, root=box)
    assert propagations[0] == 2  # the parent's own bound, then all children in one stacked call
    for child in children:
        want = bab_module.fast_dual_bound(net, child.box, propagate_box(net, child.box))
        assert child.fast_lb is not None and child.fast_lb.hex() == want.hex()
    scored = propagations[0] - 1  # the parent's own bound
    parent = Subdomain(box, -np.inf, fast_lb=bab_module.fast_dual_bound(net, box, propagate_box(net, box)))
    propagations[0] = 0
    again = split_input_smart(parent, net, root=box)
    assert propagations[0] == scored == 1
    assert [c.box.lb.tobytes() + c.box.ub.tobytes() for c in again] == [
        c.box.lb.tobytes() + c.box.ub.tobytes() for c in children
    ]
