import math

import numpy as np
import pytest
from helpers import random_box, random_net, toy_box, toy_net, toy_problem

from plverify import lp
from plverify.interval import BLOCKED, PASSING, propagate_box, refine_with_fixed_phases
from plverify.model import BoxDomain, Linear, MaxPool, Network, Relu, forward_eval
from plverify.oracle import oracle_min
from plverify.relax import (
    _SAFETY,
    MAYBE_SAT,
    UNSAT,
    build_planet,
    build_reluplex,
    fast_dual_bound,
    planet_lower_bound_with_point,
    reluplex_feasible,
    reluplex_lower_bound,
)


def test_toy_planet_bound_is_one():
    problem = toy_problem(-5.0)
    pm = build_planet(problem.canonical_net, problem.domain)
    assert planet_lower_bound_with_point(pm)[0] == pytest.approx(1.0, abs=1e-8)


def test_toy_planet_bound_shifted():
    problem = toy_problem(-3.0)
    pm = build_planet(problem.canonical_net, problem.domain)
    assert planet_lower_bound_with_point(pm)[0] == pytest.approx(-1.0, abs=1e-8)


def test_planet_exact_on_point_box():
    rng = np.random.default_rng(0)
    net = random_net(rng, 3, [4, 3])
    x = rng.uniform(-1, 1, size=3)
    box = BoxDomain(x, x)
    pm = build_planet(net, box)
    assert planet_lower_bound_with_point(pm)[0] == pytest.approx(forward_eval(net, x)[0], abs=1e-6)


def test_planet_with_blocked_phase():
    problem = toy_problem(-5.0)
    pm = build_planet(problem.canonical_net, problem.domain, phases={(1, 0): BLOCKED}, tighten=True)
    assert not pm.infeasible
    # unit a contributes the constant 0; x_hat_a is clamped <= 0
    bound = planet_lower_bound_with_point(pm)[0]
    assert bound >= 1.0 - 1e-8
    assert bound == pytest.approx(1.0, abs=1e-6)


def test_planet_sign_fixed_passing_unit_has_no_hull_rows():
    net = Network(
        1,
        (Linear(np.array([[1.0]]), np.array([2.0])), Relu(), Linear(np.array([[1.0]]), np.zeros(1))),
    )
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))  # pre in [1, 3]
    pm = build_planet(net, box)
    assert pm.hull_units == []
    assert planet_lower_bound_with_point(pm)[0] == pytest.approx(1.0, abs=1e-8)


def test_planet_structure_three_constraints_per_ambiguous_unit():
    problem = toy_problem(-5.0)
    pm = build_planet(problem.canonical_net, problem.domain)
    assert len(pm.hull_units) == 2
    for h in pm.hull_units:
        assert pm.model.lower[h.var_post] == 0.0  # x >= 0 as a variable bound
        row, rel, rhs = pm.model.rows[h.row_lower]  # x >= x_hat
        assert rel == ">=" and rhs == 0.0
        assert row[h.var_post] == 1.0 and row[h.var_pre] == -1.0
        row, rel, rhs = pm.model.rows[h.row_upper]
        assert rel == "<="
        # chord: value 0 at x_hat = l and u at x_hat = u
        at_l = (rhs - row[h.var_pre] * h.lb) / row[h.var_post]
        at_u = (rhs - row[h.var_pre] * h.ub) / row[h.var_post]
        assert at_l == pytest.approx(0.0, abs=1e-12)
        assert at_u == pytest.approx(h.ub, rel=1e-12)


def test_planet_infeasible_phases_marker():
    net = Network(
        1,
        (Linear(np.array([[1.0]]), np.array([2.5])), Relu(), Linear(np.array([[1.0]]), np.zeros(1))),
    )
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    pm = build_planet(net, box, phases={(1, 0): BLOCKED})
    assert pm.infeasible
    assert planet_lower_bound_with_point(pm)[0] == np.inf


def test_reluplex_toy_results():
    # the loose relaxation cannot prove the +5 toy (its optimum is -3)
    p5 = toy_problem(-5.0)
    assert reluplex_feasible(p5.canonical_net, p5.domain) in (MAYBE_SAT, UNSAT)
    val, _ = reluplex_lower_bound(p5.canonical_net, p5.domain)
    assert val == pytest.approx(-3.0, abs=1e-8)
    p3 = toy_problem(-3.0)
    assert reluplex_feasible(p3.canonical_net, p3.domain) == MAYBE_SAT
    contradict = {(1, 0): BLOCKED, (1, 1): BLOCKED}
    # blocking both units forces x1+x2 <= 0 and -x1-x2 <= 0, output 5 > 0
    assert reluplex_feasible(p5.canonical_net, p5.domain, contradict) == UNSAT


def test_fast_dual_toy_value():
    problem = toy_problem(-5.0)
    bounds = propagate_box(problem.canonical_net, problem.domain)
    val = fast_dual_bound(problem.canonical_net, problem.domain, bounds)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_fast_dual_exact_when_all_passing():
    # shift the box so every pre-activation is positive: bound is the exact min
    net = Network(
        2,
        (
            Linear(np.array([[1.0, 0.5], [0.25, 1.0]]), np.array([5.0, 5.0])),
            Relu(),
            Linear(np.array([[1.0, -2.0]]), np.array([0.5])),
        ),
    )
    box = BoxDomain(np.zeros(2), np.ones(2))
    bounds = propagate_box(net, box)
    val = fast_dual_bound(net, box, bounds)
    got = oracle_min(net, box)
    assert val == pytest.approx(got.min_value, abs=1e-9)


def test_fast_dual_can_be_below_interval():
    # single ambiguous unit, objective +x: fast gives d*l = -2, interval gives 0
    net = Network(
        1,
        (Linear(np.array([[1.0]]), np.zeros(1)), Relu(), Linear(np.array([[1.0]]), np.zeros(1))),
    )
    box = BoxDomain(np.array([-4.0]), np.array([4.0]))
    bounds = propagate_box(net, box)
    assert fast_dual_bound(net, box, bounds) == pytest.approx(-2.0, abs=1e-12)
    assert bounds.output_lb[0] == pytest.approx(0.0)


def _bound_suite(n_instances, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        n_in = int(rng.integers(2, 4))
        depth = int(rng.integers(1, 3))
        widths = [int(rng.integers(2, 4)) for _ in range(depth)]
        net = random_net(rng, n_in, widths)
        box = random_box(rng, n_in)
        yield net, box


def test_soundness_and_dominance_on_random_nets():
    for net, box in _bound_suite(200, 99):
        bounds = propagate_box(net, box)
        interval_lb = bounds.output_lb[0]
        pm = build_planet(net, box)
        planet = planet_lower_bound_with_point(pm)[0]
        fast = fast_dual_bound(net, box, bounds)
        rlx, _ = reluplex_lower_bound(net, box)
        exact = oracle_min(net, box).min_value
        assert interval_lb <= exact + 1e-6
        assert planet <= exact + 1e-6
        assert fast <= exact + 1e-6
        assert rlx <= exact + 1e-6
        # dominance: interval and fast dual are both below the hull optimum
        assert interval_lb <= planet + 1e-6
        assert fast <= planet + 1e-6
        assert rlx <= planet + 1e-6


def test_sherali_adams_level0_hull_equivalence():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        l = -rng.uniform(0.1, 5.0)
        u = rng.uniform(0.1, 5.0)
        xhat = rng.uniform(l, u)
        d_star = (xhat - l) / (u - l)
        assert 0.0 <= d_star <= 1.0
        val_star = min(xhat - l * (1.0 - d_star), u * d_star)
        hull = u * (xhat - l) / (u - l)
        assert abs(val_star - hull) <= 1e-9
        # d_star maximises the concave min of the two linear pieces
        for d in np.linspace(0.0, 1.0, 21):
            assert min(xhat - l * (1.0 - d), u * d) <= val_star + 1e-9


def test_tightening_never_hurts_and_helps_on_shrinking_boxes():
    rng = np.random.default_rng(17)
    strict_improvement = False
    for trial in range(6):
        net = random_net(rng, 3, [4, 4, 4])
        center = rng.uniform(-0.3, 0.3, size=3)
        for k in range(8):
            half = 1.2 * (0.7**k)
            box = BoxDomain(center - half, center + half)
            loose = planet_lower_bound_with_point(build_planet(net, box, tighten=False))[0]
            tight = planet_lower_bound_with_point(build_planet(net, box, tighten=True))[0]
            assert tight >= loose - 1e-6
            if tight > loose + 1e-6:
                strict_improvement = True
    assert strict_improvement


def test_maxpool_hull_bound_is_sound():
    rng = np.random.default_rng(31)
    for _ in range(30):
        net = Network(
            3,
            (
                Linear(rng.normal(size=(4, 3)), rng.uniform(-0.5, 0.5, 4)),
                MaxPool(((0, 1), (2, 3))),
                Linear(rng.normal(size=(1, 2)), rng.uniform(-0.5, 0.5, 1)),
            ),
        )
        box = random_box(rng, 3)
        pm = build_planet(net, box)
        lb = planet_lower_bound_with_point(pm)[0]
        pts = rng.uniform(box.lb, box.ub, size=(200, 3))
        for x in pts:
            assert forward_eval(net, x)[0] >= lb - 1e-7


def _differential_cases(rng):
    """Random small nets (some with a MaxPool hull), nested boxes, random
    phase maps; some maps contradict the bounds or each other."""
    for _ in range(40):
        n_in = int(rng.integers(1, 4))
        net = random_net(rng, n_in, [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 3)))])
        if rng.random() < 0.25:
            w = 2 * int(rng.integers(1, 3))
            net = Network(n_in, (
                Linear(rng.normal(size=(w, n_in)), rng.uniform(-0.5, 0.5, w)),
                Relu(),
                MaxPool(tuple((k, k + 1) for k in range(0, w, 2))),
                Linear(rng.normal(size=(1, w // 2)), rng.uniform(-0.5, 0.5, 1)),
            ))
        units = [(i, j) for i, layer in enumerate(net.layers) if isinstance(layer, Relu)
                 for j in range(net.layers[i - 1].out_width)]
        center = rng.uniform(-0.5, 0.5, size=n_in)
        half = rng.uniform(0.3, 1.5, size=n_in)
        for _ in range(3):
            box = BoxDomain(center - half, center + half)
            for _ in range(3):
                picks = rng.random(len(units)) < 0.4
                phases = {u: bool(rng.random() < 0.5) for u, pick in zip(units, picks) if pick}
                yield net, box, phases
            center = rng.uniform(box.lb, box.ub)
            half = half * rng.uniform(0.3, 0.8, size=n_in)
            center = np.clip(center, box.lb + half, box.ub - half)


def _vertex_subsets(model) -> int:
    """How many constraint subsets ``lp.solve_reference`` enumerates."""
    n = model.num_vars
    return math.comb(2 * n + sum(2 if rel == lp.EQ else 1 for _, rel, _ in model.rows), n)


def test_warm_relaxation_lps_match_cold_solves(monkeypatch):
    warm_solve = lp.solve
    checked = {"reference": 0, "warm_lps": 0}

    def checked_solve(model, basis=None):
        got = warm_solve(model, basis)
        cold = warm_solve(model)
        assert got.status == cold.status
        if got.status == lp.OPTIMAL:
            assert abs(got.objective - cold.objective) <= 1e-9
        checked["warm_lps"] += basis is not None
        # the reference's memory grows with the subset count: 50k is ~20 MB
        if model.num_vars <= 8 and _vertex_subsets(model) <= 50_000:
            ref = lp.solve_reference(model)
            assert got.status == ref.status
            if got.status == lp.OPTIMAL:
                assert got.objective == pytest.approx(ref.objective, abs=1e-6)
            checked["reference"] += 1
        return got

    def cold_solve(model, basis=None):
        return warm_solve(model)

    outcomes = {"feasible": 0, "interval_infeasible": 0, "lp_infeasible": 0}
    for net, box, phases in _differential_cases(np.random.default_rng(8)):
        monkeypatch.setattr(lp, "solve", checked_solve)
        warm = build_planet(net, box, phases, tighten=True)
        warm_lb = planet_lower_bound_with_point(warm)[0]
        monkeypatch.setattr(lp, "solve", cold_solve)
        cold = build_planet(net, box, phases, tighten=True)
        cold_lb = planet_lower_bound_with_point(cold)[0]
        assert warm.infeasible == cold.infeasible
        if not warm.infeasible:
            for got, want in ((warm.bounds.pre_lb, cold.bounds.pre_lb), (warm.bounds.pre_ub, cold.bounds.pre_ub)):
                for a, b in zip(got, want):
                    assert np.all(np.abs(a - b) <= 1e-9)
        if warm_lb == np.inf:
            assert cold_lb == np.inf
            base = refine_with_fixed_phases(net, propagate_box(net, box), phases)
            outcomes["interval_infeasible" if base is None else "lp_infeasible"] += 1
        else:
            assert abs(warm_lb - cold_lb) <= 1e-9
            outcomes["feasible"] += 1
    assert min(outcomes.values()) > 0, outcomes
    assert checked["warm_lps"] > 500 and checked["reference"] > 100, checked


def test_relaxation_lps_never_run_phase_one(monkeypatch):
    # without fixed phases every crash start is feasible, so no LP of a hull
    # or loose relaxation falls back to the cold two-phase path
    cold_passes = []
    monkeypatch.setattr(lp, "_phase_one", lambda *args: cold_passes.append(args))
    real_solve = lp.solve
    solves = []

    def counted(model, basis=None):
        solves.append(basis is not None)
        return real_solve(model, basis)

    monkeypatch.setattr(lp, "solve", counted)
    for net, box in _bound_suite(100, 5):
        pm = build_planet(net, box, tighten=True)
        assert not pm.infeasible and np.isfinite(planet_lower_bound_with_point(pm)[0])
        assert np.isfinite(reluplex_lower_bound(net, box)[0])
    assert cold_passes == []
    assert all(solves) and len(solves) > 300


def _recorded_solves(monkeypatch) -> list:
    """The models of every later ``lp.solve`` call."""
    real_solve = lp.solve
    solves = []

    def recorded(model, basis=None):
        solves.append(model)
        return real_solve(model, basis)

    monkeypatch.setattr(lp, "solve", recorded)
    return solves


def test_first_layer_tightening_runs_no_lp(monkeypatch):
    # one Linear from the input box, the interval bounds are already exact:
    # tightening would keep them, so it solves nothing before the output LP
    real_solve = lp.solve
    solves = _recorded_solves(monkeypatch)
    rng = np.random.default_rng(12)
    ambiguous = 0
    for _ in range(20):
        n_in = int(rng.integers(2, 5))
        net = random_net(rng, n_in, [int(rng.integers(2, 6))])
        box = random_box(rng, n_in)
        pm = build_planet(net, box, tighten=True)
        assert solves == []
        want = propagate_box(net, box)
        assert pm.bounds.pre_lb[1].tobytes() == want.pre_lb[1].tobytes()
        assert pm.bounds.pre_ub[1].tobytes() == want.pre_ub[1].tobytes()
        # the skipped LPs would not have moved a bound either
        ambiguous += len(pm.hull_units)
        for unit in pm.hull_units:
            low = real_solve(pm.model.with_objective({unit.var_pre: 1.0})).objective
            high = -real_solve(pm.model.with_objective({unit.var_pre: -1.0})).objective
            assert low - _SAFETY <= unit.lb and high + _SAFETY >= unit.ub
        planet_lower_bound_with_point(pm)
        assert len(solves) == 1
        solves.clear()
    assert ambiguous > 20


def test_first_layer_phase_still_tightens(monkeypatch):
    # blocking x1 + x2 cuts the box to x1 + x2 <= 0, which lifts the lower
    # bound of its neighbour -x1 - x2 from -4 to 0
    solves = _recorded_solves(monkeypatch)
    problem = toy_problem(-5.0)
    pm = build_planet(problem.canonical_net, problem.domain, phases={(1, 0): BLOCKED}, tighten=True)
    assert len(solves) == 2
    assert pm.bounds.pre_lb[1][1] == pytest.approx(0.0, abs=1e-8)
    assert propagate_box(problem.canonical_net, problem.domain).pre_lb[1][1] == -4.0
