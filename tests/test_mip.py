import numpy as np
import pytest
from helpers import (
    assert_same_solve,
    count_calls,
    crown_faces,
    fresh_copy,
    random_box,
    random_net,
    relu_binaries,
    toy_box,
    toy_net,
    toy_problem,
)

from plverify import lp
from plverify.canon import Geq, canonicalize, lower_maxpools, validate_counterexample
from plverify.gensuite import generate, standard_suite
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
    compute_bounds,
    encode_mip,
    solve_mip,
)
from plverify.model import BoxDomain, Linear, MaxPool, Network, Relu, forward_eval
from plverify.oracle import oracle_min, oracle_verdict
from plverify.relax import build_planet, planet_lower_bound_with_point


def _pin(enc: EncodedMip, fixes: dict[int, int]) -> lp.LpModel:
    model = fresh_copy(enc.model)
    for var, val in fixes.items():
        model.lower[var] = float(val)
        model.upper[var] = float(val)
    return model


def test_encoding_delta_zero_forces_blocked():
    problem = toy_problem(-5.0)
    enc = encode_mip(problem.canonical_net, problem.domain, PLANET_OPT)
    assert len(enc.int_vars) == 2
    (_, _, d, pre, post) = relu_binaries(enc)[0]
    model = _pin(enc, {d: 0})
    # max x subject to delta=0 must be 0; max x_hat must be <= 0
    model.set_objective({post: -1.0})
    assert -lp.solve(model).objective == pytest.approx(0.0, abs=1e-9)
    model.set_objective({pre: -1.0})
    assert -lp.solve(model).objective <= 1e-9


def test_encoding_delta_one_forces_passing():
    problem = toy_problem(-5.0)
    enc = encode_mip(problem.canonical_net, problem.domain, PLANET_OPT)
    (_, _, d, pre, post) = relu_binaries(enc)[0]
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
    (_, _, d, pre, post) = relu_binaries(enc)[0]
    # upper bound row x <= M delta with M = max(2, 4) = 4
    rows = enc.model.rows[enc.model.rows[:, d] != 0.0]
    ubs = [-r[d] for r in rows if r[post] == 1.0 and r[pre] == 0.0]
    assert any(u == pytest.approx(4.0) for u in ubs)


def test_encoding_rejects_a_net_that_does_not_end_in_a_linear_layer():
    net = Network(2, (Linear(np.eye(2), np.array([0.0, -0.5])), Relu()))
    box = BoxDomain(-np.ones(2), np.ones(2))
    for variant in (PLANET_OPT, INTERVAL_VARIANT):
        with pytest.raises(ValueError, match="ends in a Linear layer"):
            encode_mip(net, box, variant)


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
        for (_, _, d, pre, post) in relu_binaries(enc):
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
def test_sat_ends_at_the_root_whose_minimiser_is_a_counterexample(variant):
    # the root LP minimiser of this suite instance (margin -0.1) is a
    # counterexample although its binaries are fractional
    (spec,) = [s for s in standard_suite(2, 1000) if s.seed == 1001]
    problem = lower_maxpools(generate(spec.seed, spec).problem())
    res = solve_mip(encode_mip(problem.canonical_net, problem.domain, variant))
    assert res.status == "sat" and res.nodes == 1
    assert validate_counterexample(problem, res.counterexample, 1e-6)


def test_no_node_lp_is_solved_after_a_counterexample(monkeypatch):
    # every node LP's minimiser is checked: once one validates, the search
    # solves no further LP; an UNSAT margin never exceeds the minimum
    real_solve = lp.solve
    rng = np.random.default_rng(55)
    ended = 0
    for _ in range(10):
        n_in = int(rng.integers(2, 4))
        net = random_net(rng, n_in, [int(rng.integers(3, 6)) for _ in range(int(rng.integers(1, 3)))])
        box = random_box(rng, n_in)
        base = oracle_min(net, box).min_value
        margin = float(rng.choice([-0.05, -0.01, 0.01, 0.05]))
        problem = canonicalize(net, Geq(np.array([1.0]), base - margin), box)
        exact = oracle_min(problem.canonical_net, box).min_value
        for variant in (PLANET_OPT, INTERVAL_VARIANT, PLANET_SYMFEASIBLE):
            found = []

            def solve(model, basis=None):
                assert not found, "a node LP was solved after a counterexample"
                sol = real_solve(model, basis)
                if sol.status == lp.OPTIMAL:
                    x0 = sol.x[:n_in]
                    if forward_eval(problem.canonical_net, x0)[0] <= 0.0 and validate_counterexample(problem, x0, 1e-6):
                        found.append(x0)
                return sol

            monkeypatch.setattr(lp, "solve", solve)
            res = solve_mip(encode_mip(problem.canonical_net, box, variant))
            monkeypatch.setattr(lp, "solve", real_solve)
            if found:
                assert res.status == "sat" and res.counterexample.tobytes() == found[0].tobytes()
            else:
                assert res.status == "unsat" and res.margin <= exact + 1e-9, (variant, margin)
            ended += bool(found)
    assert 0 < ended < 30


@pytest.mark.parametrize("variant", [PLANET_OPT, INTERVAL_VARIANT, PLANET_SYMFEASIBLE])
def test_node_lps_start_warm_and_match_cold(monkeypatch, variant):
    # every node LP starts from its parent's basis (the root from the
    # encoding's crash basis), never falls back to a cold start, reports
    # INFEASIBLE only through a checked Farkas row, agrees with a cold
    # re-solve and returns the bytes of a fresh copy of its model (no shared
    # form) from the same basis
    counts = {"nodes": 0, "cold_starts": 0, "dual": 0, "infeasible": 0, "proofs": 0}
    recheck = [False]
    real_solve = lp.solve

    def solve(model, basis=None):
        assert basis is not None
        counts["nodes"] += 1
        fresh = fresh_copy(model)
        got = real_solve(model, basis)
        recheck[0] = True
        assert_same_solve(got, real_solve(fresh, basis))
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
        # a SAT search ends at its first validated node point, so the
        # searches that branch are the UNSAT ones near the boundary
        margin = float(rng.choice([-0.3, -0.05, 0.001, 0.01]))
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


def _native_maxpool_net(rng, n_in: int) -> Network:
    """Linear, ReLU, Linear, native MaxPool over groups of 1 to 3, Linear."""
    sizes = [int(s) for s in rng.integers(1, 4, size=int(rng.integers(1, 4)))]
    starts = np.cumsum([0] + sizes)
    hidden, width = int(rng.integers(2, 5)), int(starts[-1])
    return Network(n_in, (
        Linear(rng.normal(size=(hidden, n_in)), rng.uniform(-0.5, 0.5, hidden)),
        Relu(),
        Linear(rng.normal(size=(width, hidden)), rng.uniform(-0.5, 0.5, width)),
        MaxPool(tuple(tuple(range(a, b)) for a, b in zip(starts, starts[1:]))),
        Linear(rng.normal(size=(1, len(sizes))), rng.uniform(-0.5, 0.5, 1)),
    ))


def test_root_starts_from_the_forward_pass_crash_basis(monkeypatch):
    # the root LP starts from the encoding's basis, a network point, so it
    # never falls back to the slack basis, reaches the cold optimum and
    # takes fewer pivots than a start from the slack basis
    real_solve = lp.solve
    roots = []

    def recorded(model, basis=None):
        got = real_solve(model, basis)
        roots.append((model, basis, got))
        return got

    cases = []
    rng = np.random.default_rng(56)
    for _ in range(20):
        n_in = int(rng.integers(2, 4))
        net = random_net(rng, n_in, [int(rng.integers(3, 6)) for _ in range(int(rng.integers(1, 4)))])
        box = random_box(rng, n_in)
        cases += [(net, box, variant) for variant in (PLANET_OPT, INTERVAL_VARIANT, PLANET_SYMFEASIBLE)]
        pooled = _native_maxpool_net(rng, n_in)
        cases += [(pooled, box, variant) for variant in (INTERVAL_VARIANT, MipVariant(SYM, BOUNDS_INTERVAL))]
    crash = slack = pools = 0
    for net, box, variant in cases:
        enc = encode_mip(net, box, variant)
        roots.clear()
        with monkeypatch.context() as patch:
            cold_starts = count_calls(patch, lp, "_slack_start")
            patch.setattr(lp, "solve", recorded)
            solve_mip(enc, node_cap=1)
        (model, basis, got), = roots
        assert basis is enc.basis and cold_starts[0] == 0
        want = real_solve(model, lp.slack_basis(model))
        assert abs(got.objective - want.objective) <= 1e-9
        crash += got.pivots
        slack += want.pivots
        pools += len(enc.pool_groups)
    assert pools > 40 and crash < slack, (pools, crash, slack)


def test_root_starts_at_the_corner_the_backward_pass_picks(monkeypatch):
    # the root's crash point lies at the input corner that CROWN's adaptive
    # backward pass picks from the output row over the encoding's bounds
    # (the loop reference ``crown_faces``): an input starts at its upper
    # bound exactly where the pass's final coefficient is negative, and the
    # start is primal feasible, so the root takes no dual pivot and reaches
    # the optimum of a solve from the slack basis
    real_solve = lp.solve
    rng = np.random.default_rng(58)
    uppers = inputs = 0
    for _ in range(20):
        n_in = int(rng.integers(2, 4))
        net = random_net(rng, n_in, [int(rng.integers(3, 6)) for _ in range(int(rng.integers(1, 4)))])
        box = random_box(rng, n_in)
        for variant in (PLANET_OPT, INTERVAL_VARIANT, PLANET_SYMFEASIBLE):
            enc = encode_mip(net, box, variant)
            bounds = compute_bounds(net, box, variant.bounds_source)
            corner = crown_faces(net.layers, np.ones((1, 1)), bounds.pre_lb, bounds.pre_ub)[-1]
            at_upper = {c for c in enc.basis.at_upper if 0 <= c < n_in}
            assert at_upper == set(np.flatnonzero(corner[0]).tolist())
            uppers += len(at_upper)
            inputs += n_in
            with monkeypatch.context() as patch:
                dual = count_calls(patch, lp, "_run_dual", lambda used: used > 0)
                got = lp.solve(enc.model, enc.basis)
            want = real_solve(enc.model, lp.slack_basis(enc.model))
            assert dual[0] == 0 and abs(got.objective - want.objective) <= 1e-9
    assert 0.2 * inputs < uppers < 0.8 * inputs, (uppers, inputs)


def test_queued_nodes_hold_no_matrices(monkeypatch):
    # a queued node keeps the basis its LP returned, its columns only, and
    # the root box that every node shares, so memory does not grow with the
    # open nodes by any matrix
    import heapq

    pushed = []
    push = heapq.heappush

    def recorded(queue, item):
        lb, seq, node = item
        pushed.append(node)
        push(queue, item)

    monkeypatch.setattr(heapq, "heappush", recorded)
    rng = np.random.default_rng(52)
    queued = []
    for _ in range(6):
        net = random_net(rng, 3, [5, 5])
        enc = encode_mip(net, random_box(rng, 3), INTERVAL_VARIANT)
        pushed.clear()
        solve_mip(enc, node_cap=40)
        queued += [(enc.box, node) for node in pushed]
    assert len(queued) > 10
    for box, node in queued:
        assert isinstance(node.basis, lp.Basis) and set(vars(node.basis)) == {"basic", "at_upper"}
        assert node.box is box and node.bounds is None
        assert not any(isinstance(v, np.ndarray) for k, v in vars(node).items() if k != "box")


def test_one_search_builds_its_row_matrix_once(monkeypatch):
    # every node LP pins bounds on a clone of the encoding's model, so the
    # whole search reads one row matrix and one [rows | I]
    builds = count_calls(monkeypatch, lp, "_derive")
    rng = np.random.default_rng(54)
    searched = 0
    for _ in range(6):
        net, box = random_net(rng, 3, [5, 5]), random_box(rng, 3)
        # just below the minimum: UNSAT, and the search branches
        problem = canonicalize(net, Geq(np.ones(1), oracle_min(net, box).min_value - 1e-3), box)
        enc = encode_mip(problem.canonical_net, box, PLANET_OPT)
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
