import numpy as np
import pytest
from helpers import assert_same_solve, count_calls, random_box, random_net, toy_box, toy_net, toy_problem

from plverify import lp
from plverify.canon import Geq, canonicalize, validate_counterexample
from plverify.interval import propagate_box
from plverify.mip import (
    ASYM,
    BOUNDS_INTERVAL,
    BOUNDS_PLANET,
    INTERVAL_VARIANT,
    PLANET_OPT,
    PLANET_SYMFEASIBLE,
    SYM,
    EncodedMip,
    MipVariant,
    encode_mip,
    solve_mip,
)
from plverify.model import BoxDomain, Linear, MaxPool, Network, Relu, forward_eval
from plverify.oracle import oracle_min, oracle_verdict
from plverify.relax import build_planet, planet_lower_bound_with_point


def _pin(enc: EncodedMip, fixes: dict[int, int]) -> lp.LpModel:
    model = enc.model.copy()
    for var, val in fixes.items():
        model.lower[var] = float(val)
        model.upper[var] = float(val)
    return model


def test_encoding_delta_zero_forces_blocked():
    problem = toy_problem(-5.0)
    enc = encode_mip(problem.canonical_net, problem.domain, PLANET_OPT)
    assert len(enc.int_vars) == 2
    (_, _, d, pre, post) = enc.relu_units[0]
    model = _pin(enc, {d: 0})
    # max x subject to delta=0 must be 0; max x_hat must be <= 0
    model.set_objective({post: -1.0})
    assert -lp.solve(model).objective == pytest.approx(0.0, abs=1e-9)
    model.set_objective({pre: -1.0})
    assert -lp.solve(model).objective <= 1e-9


def test_encoding_delta_one_forces_passing():
    problem = toy_problem(-5.0)
    enc = encode_mip(problem.canonical_net, problem.domain, PLANET_OPT)
    (_, _, d, pre, post) = enc.relu_units[0]
    model = _pin(enc, {d: 1})
    # x == x_hat when delta = 1: maximise |x - x_hat| in both directions
    model.set_objective({post: 1.0, pre: -1.0})
    assert lp.solve(model).objective == pytest.approx(0.0, abs=1e-9)
    model.set_objective({post: -1.0, pre: 1.0})
    assert lp.solve(model).objective == pytest.approx(0.0, abs=1e-9)


def test_sym_variant_uses_single_m():
    net = Network(
        1,
        (Linear(np.array([[1.0]]), np.array([1.0])), Relu(), Linear(np.array([[1.0]]), np.zeros(1))),
    )
    box = BoxDomain(np.array([-3.0]), np.array([3.0]))  # pre in [-2, 4], M = 4
    enc = encode_mip(net, box, MipVariant(SYM, BOUNDS_INTERVAL))
    (_, _, d, pre, post) = enc.relu_units[0]
    # upper bound row x <= M delta with M = max(2, 4) = 4
    rows = enc.model.rows[enc.model.rows[:, d] != 0.0]
    ubs = [-r[d] for r in rows if r[post] == 1.0 and r[pre] == 0.0]
    assert any(u == pytest.approx(4.0) for u in ubs)


def test_root_relaxation_equals_planet_lp():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n_in = int(rng.integers(2, 4))
        widths = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(1, 3)))]
        net = random_net(rng, n_in, widths)
        box = random_box(rng, n_in)
        enc = encode_mip(net, box, MipVariant(ASYM, BOUNDS_INTERVAL))
        root = lp.solve(enc.model)
        planet = planet_lower_bound_with_point(build_planet(net, box, tighten=False))[0]
        assert root.objective == pytest.approx(planet, abs=1e-6)


def test_sym_root_no_tighter_than_asym():
    rng = np.random.default_rng(43)
    for _ in range(50):
        net = random_net(rng, 2, [3])
        box = random_box(rng, 2)
        asym = lp.solve(encode_mip(net, box, MipVariant(ASYM, BOUNDS_INTERVAL)).model)
        sym = lp.solve(encode_mip(net, box, MipVariant(SYM, BOUNDS_INTERVAL)).model)
        assert sym.objective <= asym.objective + 1e-6


def test_integral_deltas_project_to_relu_graph():
    rng = np.random.default_rng(44)
    for _ in range(40):
        net = random_net(rng, 2, [3])
        box = random_box(rng, 2)
        enc = encode_mip(net, box, MipVariant(ASYM, BOUNDS_INTERVAL))
        if not enc.int_vars:
            continue
        fixes = {d: int(rng.integers(0, 2)) for d in enc.int_vars}
        model = _pin(enc, fixes)
        model.set_objective(rng.normal(size=model.num_vars))
        sol = lp.solve(model)
        if sol.status != lp.OPTIMAL:
            continue  # contradictory pattern on this box
        for (_, _, d, pre, post) in enc.relu_units:
            assert sol.x[post] == pytest.approx(max(sol.x[pre], 0.0), abs=1e-6)


def test_maxpool_encoding_projects_to_max():
    rng = np.random.default_rng(45)
    net = Network(
        3,
        (
            Linear(rng.normal(size=(4, 3)), rng.uniform(-0.5, 0.5, 4)),
            MaxPool(((0, 1, 2, 3),)),
            Linear(np.array([[1.0]]), np.zeros(1)),
        ),
    )
    box = BoxDomain(-np.ones(3), np.ones(3))
    enc = encode_mip(net, box, MipVariant(ASYM, BOUNDS_INTERVAL))
    (layer, gi, deltas, y) = enc.pool_groups[0]
    checked = 0
    for pick in range(4):
        fixes = {d: 1 if k == pick else 0 for k, d in enumerate(deltas)}
        model = _pin(enc, fixes)
        model.set_objective(rng.normal(size=model.num_vars))
        sol = lp.solve(model)
        if sol.status != lp.OPTIMAL:
            continue
        pre_vars = [1 + 3 + j for j in range(4)]  # inputs then linear outputs
        vals = [sol.x[v] for v in range(3, 7)]
        assert sol.x[y] == pytest.approx(max(vals), abs=1e-6)
        checked += 1
    assert checked >= 1


def test_toy_all_variants():
    for variant in (PLANET_OPT, INTERVAL_VARIANT, PLANET_SYMFEASIBLE):
        unsat = toy_problem(-5.0)
        enc = encode_mip(unsat.canonical_net, unsat.domain, variant)
        res = solve_mip(enc)
        assert res.status == "unsat", variant
        assert res.margin == pytest.approx(1.0, abs=1e-3)
        if variant is PLANET_OPT:
            assert res.nodes == 1  # root relaxation equals the hull bound

        sat = toy_problem(-3.0)
        enc = encode_mip(sat.canonical_net, sat.domain, variant)
        res = solve_mip(enc)
        assert res.status == "sat", variant
        assert validate_counterexample(sat, res.counterexample, 1e-6)


def test_verdicts_match_oracle_all_variants():
    rng = np.random.default_rng(46)
    variants = (PLANET_OPT, INTERVAL_VARIANT, PLANET_SYMFEASIBLE)
    for _ in range(12):
        n_in = int(rng.integers(2, 4))
        widths = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(1, 3)))]
        net = random_net(rng, n_in, widths)
        box = random_box(rng, n_in)
        base = oracle_min(net, box).min_value
        margin = float(rng.choice([-1.0, -0.3, 0.3, 1.0]))
        problem = canonicalize(net, Geq(np.array([1.0]), base - margin), box)
        want = "unsat" if margin > 0 else "sat"
        for variant in variants:
            enc = encode_mip(problem.canonical_net, problem.domain, variant)
            res = solve_mip(enc)
            assert res.status == want, (variant, margin)
            if res.status == "sat":
                assert validate_counterexample(problem, res.counterexample, 1e-6)


@pytest.mark.parametrize("variant", [PLANET_OPT, INTERVAL_VARIANT, PLANET_SYMFEASIBLE])
def test_node_lps_start_warm_and_match_cold(monkeypatch, variant):
    # every node LP starts from its parent's basis (the root from the
    # all-slack basis), never falls back to a cold start, reports
    # INFEASIBLE only through a checked Farkas row, agrees with a cold
    # re-solve and returns the bytes of a fresh copy of its model (no shared
    # form) from a copy of its basis
    counts = {"nodes": 0, "cold_starts": 0, "dual": 0, "infeasible": 0, "proofs": 0}
    recheck = [False]
    real_solve = lp.solve

    def solve(model, basis=None):
        assert basis is not None
        counts["nodes"] += 1
        fresh, start = model.copy(), lp.Basis(list(basis.basic), set(basis.at_upper))
        got = real_solve(model, basis)
        recheck[0] = True
        assert_same_solve(got, real_solve(fresh, start), basis, start)
        cold = real_solve(model)
        recheck[0] = False
        assert got.status == cold.status
        if got.status == lp.OPTIMAL:
            assert abs(got.objective - cold.objective) <= 1e-9
        else:
            counts["infeasible"] += 1
        return got

    rng = np.random.default_rng(48)
    for _ in range(12):
        n_in = int(rng.integers(2, 4))
        widths = [int(rng.integers(3, 6)) for _ in range(int(rng.integers(1, 4)))]
        net = random_net(rng, n_in, widths)
        box = random_box(rng, n_in)
        base = oracle_min(net, box).min_value
        margin = float(rng.choice([-0.3, -0.05, 0.05, 0.3]))
        problem = canonicalize(net, Geq(np.array([1.0]), base - margin), box)
        enc = encode_mip(problem.canonical_net, problem.domain, variant)
        with monkeypatch.context() as patch:
            patch.setattr(lp, "solve", solve)
            counters = {
                "cold_starts": count_calls(patch, lp, "_slack_start", lambda start: not recheck[0]),
                "dual": count_calls(patch, lp, "_run_dual", lambda used: not recheck[0]),
                "proofs": count_calls(patch, lp, "_farkas_row", lambda proved: proved and not recheck[0]),
            }
            res = solve_mip(enc)
        for key, calls in counters.items():
            counts[key] += calls[0]
        assert res.status == oracle_verdict(problem)[0]
    assert counts["cold_starts"] == 0
    assert counts["proofs"] == counts["infeasible"] > 0
    assert counts["dual"] == counts["nodes"] > 20


def test_queued_nodes_hold_no_matrices(monkeypatch):
    # the queue keeps each node's final basis, its columns only, so memory
    # does not grow with the open nodes by any matrix
    import heapq

    pushed = []
    push = heapq.heappush

    def recorded(queue, item):
        pushed.append(item[-1])
        push(queue, item)

    monkeypatch.setattr(heapq, "heappush", recorded)
    rng = np.random.default_rng(52)
    for _ in range(6):
        net = random_net(rng, 3, [5, 5])
        enc = encode_mip(net, random_box(rng, 3), INTERVAL_VARIANT)
        solve_mip(enc, node_cap=40)
    assert len(pushed) > 10
    assert all(isinstance(b, lp.Basis) and set(vars(b)) == {"basic", "at_upper"} for b in pushed)


def test_one_search_builds_its_row_matrix_once(monkeypatch):
    # every node LP pins bounds on a clone of the encoding's model, so the
    # whole search reads one row matrix and one [rows | I]
    builds = count_calls(monkeypatch, lp, "_derive")
    rng = np.random.default_rng(54)
    searched = 0
    for _ in range(6):
        net = random_net(rng, 3, [5, 5])
        enc = encode_mip(net, random_box(rng, 3), PLANET_OPT)
        builds[0] = 0
        res = solve_mip(enc, node_cap=40)
        assert builds[0] == 1
        searched += res.nodes > 1
    assert searched > 2


def test_timeout():
    problem = toy_problem(-5.0)
    enc = encode_mip(problem.canonical_net, problem.domain, PLANET_OPT)
    res = solve_mip(enc, timeout=0.0)
    assert res.status == "timeout"


@pytest.mark.parametrize("k", [1, 2, 3])
def test_failed_node_lps_degrade_to_the_parent_bound(monkeypatch, k):
    # every k-th node LP fails numerically: the node keeps its parent's
    # bound and is branched on, or, fully pinned, holds that bound under
    # the margin, so the run never aborts and never claims a wrong UNSAT
    real_solve = lp.solve
    calls = [0]

    def flaky(model, basis=None):
        calls[0] += 1
        if calls[0] % k == 0:
            raise lp.NumericalFailure("forced")
        return real_solve(model, basis)

    rng = np.random.default_rng(53)
    decided = 0
    for _ in range(10):
        n_in = int(rng.integers(2, 4))
        net = random_net(rng, n_in, [int(rng.integers(2, 4)) for _ in range(int(rng.integers(1, 3)))])
        box = random_box(rng, n_in)
        base = oracle_min(net, box).min_value
        margin = float(rng.choice([-0.3, 0.3]))
        problem = canonicalize(net, Geq(np.array([1.0]), base - margin), box)
        want, _ = oracle_verdict(problem)
        exact = oracle_min(problem.canonical_net, box).min_value
        for variant in (PLANET_OPT, INTERVAL_VARIANT, PLANET_SYMFEASIBLE):
            enc = encode_mip(problem.canonical_net, box, variant)
            monkeypatch.setattr(lp, "solve", flaky)
            res = solve_mip(enc)
            monkeypatch.setattr(lp, "solve", real_solve)
            assert res.status in (want, "timeout"), (variant, margin)
            if res.status == "unsat":
                assert res.margin <= exact + 1e-6
            elif res.status == "sat":
                assert validate_counterexample(problem, res.counterexample, 1e-6)
            decided += res.status != "timeout"
    if k > 1:
        assert decided > 0
