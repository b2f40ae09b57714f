import math

import numpy as np
import pytest
from helpers import (
    assert_same_solve,
    count_calls,
    crown_faces,
    differential_cases,
    fresh_copy,
    hull_rows,
    post_lists,
    random_box,
    random_net,
    toy_box,
    toy_net,
    toy_problem,
)
from reference_lp import solve_reference

from plverify import bab, lp
from plverify import relax as relax_module
from plverify.canon import maxpool_to_relu
from plverify.interval import BLOCKED, PASSING, propagate_box
from plverify.mip import BOUNDS_PLANET, compute_bounds
from plverify.model import BoxDomain, Linear, MaxPool, Network, Relu, forward_batch, forward_eval
from plverify.oracle import oracle_min
from plverify.relax import (
    _SAFETY,
    MAYBE_SAT,
    UNSAT,
    backward_bounds,
    backward_pass,
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
        var_pre, row_upper = hull_rows(pm.model, h)
        assert pm.model.lower[h.var_post] == 0.0  # x >= 0 as a variable bound
        row, rel, rhs = (a[h.row_lower] for a in (pm.model.rows, pm.model.rel, pm.model.rhs))  # x >= x_hat
        assert rel == lp.GE and rhs == 0.0
        assert row[h.var_post] == 1.0 and row[var_pre] == -1.0
        assert np.count_nonzero(row) == 2
        row, rel, rhs = (a[row_upper] for a in (pm.model.rows, pm.model.rel, pm.model.rhs))
        assert rel == lp.LE and np.count_nonzero(row) == 2
        # chord: value 0 at x_hat = l and u at x_hat = u
        l, u = pm.bounds.pre_lb[h.layer][h.unit], pm.bounds.pre_ub[h.layer][h.unit]
        at_l = (rhs - row[var_pre] * l) / row[h.var_post]
        at_u = (rhs - row[var_pre] * u) / row[h.var_post]
        assert at_l == pytest.approx(0.0, abs=1e-12)
        assert at_u == pytest.approx(u, rel=1e-12)


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


def test_relaxations_reject_an_unlowered_maxpool():
    net = Network(
        3,
        (
            Linear(np.eye(4, 3), np.zeros(4)),
            MaxPool(((0, 1), (2, 3))),
            Linear(np.ones((1, 2)), np.zeros(1)),
        ),
    )
    box = BoxDomain(-np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="ReLU-only"):
        build_planet(net, box)
    with pytest.raises(ValueError, match="ReLU-only"):
        build_reluplex(net, box)
    with pytest.raises(ValueError, match="ReLU-only"):
        fast_dual_bound(net, box, propagate_box(net, box))


def test_relaxations_reject_a_net_that_does_not_end_in_a_linear_layer():
    net = Network(2, (Linear(np.eye(2), np.array([0.0, -0.5])), Relu()))
    box = BoxDomain(-np.ones(2), np.ones(2))
    for build in (build_planet, build_reluplex):
        with pytest.raises(ValueError, match="ends in a Linear layer"):
            build(net, box)


def _vertex_subsets(model) -> int:
    """How many constraint subsets ``solve_reference`` enumerates."""
    n = model.num_vars
    return math.comb(2 * n + len(model.rel) + int(np.sum(model.rel == lp.EQ)), n)


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
            ref = solve_reference(model)
            assert got.status == ref.status
            if got.status == lp.OPTIMAL:
                assert got.objective == pytest.approx(ref.objective, abs=1e-6)
            checked["reference"] += 1
        return got

    def cold_solve(model, basis=None):
        return warm_solve(model)

    outcomes = {"feasible": 0, "interval_infeasible": 0, "lp_infeasible": 0}
    for net, box, phases in differential_cases(np.random.default_rng(8)):
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
            base = propagate_box(net, box, phases)
            outcomes["interval_infeasible" if base is None else "lp_infeasible"] += 1
        else:
            assert abs(warm_lb - cold_lb) <= 1e-9
            outcomes["feasible"] += 1
    assert min(outcomes.values()) > 0, outcomes
    assert checked["warm_lps"] > 500 and checked["reference"] > 100, checked


def test_relaxation_lps_match_fresh_copies_bytewise(monkeypatch):
    # an LP over the cached form returns the bytes of the same call on a
    # fresh copy of its model from the same start basis, which builds the
    # form again
    real_solve = lp.solve
    lps = [0]

    def checked_solve(model, basis=None):
        fresh_model = fresh_copy(model)
        got = real_solve(model, basis)
        lps[0] += 1
        assert_same_solve(got, real_solve(fresh_model, basis))
        return got

    monkeypatch.setattr(lp, "solve", checked_solve)
    for net, box, phases in differential_cases(np.random.default_rng(8)):
        planet_lower_bound_with_point(build_planet(net, box, phases, tighten=True))
    assert lps[0] > 400


def test_relaxation_builds_each_row_set_once(monkeypatch):
    # the LPs over one row set share one row matrix, and a unit's max LP,
    # over its min LP's bounds, reads the min LP's form object
    real_solve = lp.solve
    counts = {name: count_calls(monkeypatch, lp, name) for name in ("_derive", "_warm_start")}

    def snapshot():
        return {name: calls[0] for name, calls in counts.items()}

    solves = []

    def recorded(model, basis=None):
        before = snapshot()
        got = real_solve(model, basis)
        solves.append((len(model.rows), model.objective.min() < 0.0, model.standard_form(), before, snapshot()))
        return got

    monkeypatch.setattr(lp, "solve", recorded)
    max_lps = 0
    rng = np.random.default_rng(9)
    for _ in range(20):
        n_in = int(rng.integers(2, 4))
        net = random_net(rng, n_in, [int(rng.integers(3, 5)) for _ in range(3)])
        box = random_box(rng, n_in)
        solves.clear()
        for calls in counts.values():
            calls[0] = 0
        pm = build_planet(net, box, tighten=True)
        planet_lower_bound_with_point(pm)
        row_sets = len({rows for rows, *_ in solves})
        # no fixed phase, so no LP runs cold: each LP derives one start
        assert snapshot() == {"_derive": row_sets, "_warm_start": len(solves)}
        for (_, _, form_min, _, _), (_, is_max, form_max, before, after) in zip(solves, solves[1:]):
            if is_max:
                assert form_max is form_min and after["_derive"] == before["_derive"]
                max_lps += 1
    assert max_lps > 50


def test_relaxation_lps_never_start_cold(monkeypatch):
    # without fixed phases every crash start is feasible, so no LP of a hull
    # or loose relaxation falls back to the slack basis
    cold_starts = count_calls(monkeypatch, lp, "_slack_start")
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
    assert cold_starts[0] == 0
    assert all(solves) and len(solves) > 300


def test_tightening_lps_start_from_their_own_crash_basis(monkeypatch):
    # without fixed phases each tightening LP starts from the crash basis
    # built for its own objective row, a point of the relaxation, so no LP
    # takes a dual pivot or falls back to the slack basis; the LPs of a
    # layer all read one standard form and one set of bounds: a layer's
    # tightened bounds are written after its last LP
    real_solve, real_crash = lp.solve, relax_module._crash_starts
    crashes, solves = [], []

    def crash(*args):
        starts = real_crash(*args)
        crashes.append(starts)
        return starts

    def recorded(model, basis=None):
        solves.append((len(crashes), model.standard_form(), basis, model.lower.copy(), model.upper.copy()))
        return real_solve(model, basis)

    monkeypatch.setattr(relax_module, "_crash_starts", crash)
    monkeypatch.setattr(lp, "solve", recorded)
    dual = count_calls(monkeypatch, lp, "_run_dual", lambda used: used > 0)
    cold = count_calls(monkeypatch, lp, "_slack_start")
    rng = np.random.default_rng(57)
    layers = 0
    for _ in range(20):
        n_in = int(rng.integers(2, 4))
        net = random_net(rng, n_in, [int(rng.integers(3, 6)) for _ in range(3)])
        crashes.clear()
        solves.clear()
        build_planet(net, random_box(rng, n_in), tighten=True)
        for k, starts in enumerate(crashes, 1):
            lps = [s for s in solves if s[0] == k]
            # the min LP of unit t starts from starts[t], its max LP from
            # starts[len(lps) // 2 + t]
            order = [t // 2 + (t % 2) * (len(lps) // 2) for t in range(len(lps))]
            assert len(lps) == len(starts) and all(basis is starts[t] for t, (_, _, basis, _, _) in zip(order, lps))
            _, form, _, lower, upper = lps[0]
            assert all(f is form and (lo == lower).all() and (hi == upper).all() for _, f, _, lo, hi in lps)
            layers += 1
    assert dual[0] == 0 and cold[0] == 0
    assert layers > 20


def test_a_crash_point_cut_by_a_phase_starts_from_the_last_optimum(monkeypatch):
    # where a fixed phase cuts a row's crash point out of the model, that
    # LP starts from the last optimum its layer returned, before any from
    # the basis the encoding carried into the layer: the last optimum of the
    # layers before, extended by crash columns
    real_solve, real_crash = lp.solve, relax_module._crash_starts
    crashes, solves = [], []

    def crash(*args):
        crashes.append(real_crash(*args))
        return crashes[-1]

    def recorded(model, basis=None):
        got = real_solve(model, basis)
        solves.append((len(crashes), basis, got.basis))
        return got

    monkeypatch.setattr(relax_module, "_crash_starts", crash)
    monkeypatch.setattr(lp, "solve", recorded)
    fallbacks = 0
    for net, box, phases in differential_cases(np.random.default_rng(8)):
        crashes.clear()
        solves.clear()
        build_planet(net, box, phases, tighten=True)
        carried = None  # the last optimum of the layers before
        for k, starts in enumerate(crashes, 1):
            lps = [(start, final) for layer, start, final in solves if layer == k]
            half = len(starts) // 2
            last = None
            for t, (start, final) in enumerate(lps):
                own = starts[t // 2 + (t % 2) * half]
                if own is None:
                    if last is not None:
                        assert start is last
                    elif carried is not None:
                        assert start.basic[: len(carried.basic)] == carried.basic
                    fallbacks += 1
                else:
                    assert start is own
                last = final if final is not None else last
            carried = last if last is not None else carried
    assert fallbacks > 10


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
            var_pre, _ = hull_rows(pm.model, unit)
            low = real_solve(pm.model.with_objective({var_pre: 1.0})).objective
            high = -real_solve(pm.model.with_objective({var_pre: -1.0})).objective
            assert low - _SAFETY <= pm.bounds.pre_lb[unit.layer][unit.unit]
            assert high + _SAFETY >= pm.bounds.pre_ub[unit.layer][unit.unit]
        planet_lower_bound_with_point(pm)
        assert len(solves) == 1
        solves.clear()
    assert ambiguous > 20


def _layout(net, pm):
    """The variables of every Linear layer's outputs and the first row of
    every layer's block, by the relaxation's layout: a Linear block is one
    row per unit over new x_hat variables, a ReLU block two rows and one
    new x per hull unit."""
    n, m, xhat, first_row = pm.box.size, 0, {}, {}
    for i, layer in enumerate(net.layers):
        first_row[i] = m
        if isinstance(layer, Linear):
            xhat[i] = np.arange(n, n + layer.out_width)
            n, m = n + layer.out_width, m + layer.out_width
        else:
            k = sum(h.layer == i for h in pm.hull_units)
            n, m = n + k, m + 2 * k
    assert (n, m) == (pm.model.num_vars, len(pm.model.rhs))
    return xhat, first_row


def _phase_cases(rng):
    """Random depth-2 nets, one unit of each hidden layer made the constant
    0 (l = u = 0) in every other net, under random phase maps over all units
    plus maps that fix every unit of a layer: with or against the interval
    sign, on decided and ambiguous units, in the first ReLU layer or not."""
    for k in range(30):
        n_in = int(rng.integers(1, 4))
        net = random_net(rng, n_in, [int(rng.integers(2, 5)) for _ in range(2)])
        if k % 2:
            layers = list(net.layers)
            for i in (0, 2):
                w, b = layers[i].weight.copy(), layers[i].bias.copy()
                w[0], b[0] = 0.0, 0.0
                layers[i] = Linear(w, b)
            net = Network(n_in, tuple(layers))
        box = random_box(rng, n_in)
        interval = propagate_box(net, box)
        units = [(i, j) for i in (1, 3) for j in range(len(interval.pre_lb[i]))]
        for _ in range(4):
            picks = rng.random(len(units)) < 0.5
            yield net, box, {u: bool(rng.random() < 0.5) for u, pick in zip(units, picks) if pick}
        for i in (1, 3):
            lo, hi = interval.pre_lb[i], interval.pre_ub[i]
            yield net, box, {(i, j): bool(hi[j] > 0.0) for j in range(len(lo))}  # with the sign where decided
            yield net, box, {(i, j): bool(lo[j] < 0.0) for j in range(len(lo))}  # against it where decided


def test_fixed_phases_are_clamped_once(monkeypatch):
    # a fixed phase reaches the encoding only through the interval clamp:
    # the hull units are exactly the units still ambiguous in ``pm.bounds``,
    # and every fixed unit is encoded on its side, blocked (u <= 0) as a
    # zero column of the next Linear block, passing (l >= 0) as x = x_hat
    solves = _recorded_solves(monkeypatch)
    backward_layers: list[int] = []
    real_backward = relax_module.backward_bounds

    def recorded_backward(net, i, *args):
        backward_layers.append(i)
        return real_backward(net, i, *args)

    monkeypatch.setattr(relax_module, "backward_bounds", recorded_backward)
    seen = {"infeasible": 0, "against": 0, "decided": 0, "zero": 0, "first_layer_tightened": 0}
    for net, box, phases in _phase_cases(np.random.default_rng(61)):
        interval = propagate_box(net, box, phases)
        root = propagate_box(net, box)
        for (i, j), phase in phases.items():
            lo, hi = root.pre_lb[i][j], root.pre_ub[i][j]
            seen["against"] += (phase == PASSING and hi < 0.0) or (phase == BLOCKED and lo > 0.0)
            seen["decided"] += (phase == PASSING and lo > 0.0) or (phase == BLOCKED and hi < 0.0)
            seen["zero"] += lo == hi == 0.0
        for output_only in (False, True):
            solves.clear()
            backward_layers.clear()
            pm = build_planet(net, box, phases, tighten=True, output_only=output_only)
            if interval is None:
                assert pm.infeasible
            # the first ReLU layer is tightened exactly when one of its own
            # phases cuts the box and leaves a unit ambiguous
            first = propagate_box(net, box, {u: p for u, p in phases.items() if u[0] == 1})
            first_cut = first is not None and any(l == 1 for l, _ in phases) and bool(
                np.any((first.pre_lb[1] < 0.0) & (first.pre_ub[1] > 0.0))
            )
            first_lps = sum(int(np.flatnonzero(m.objective)[0]) < box.size + len(root.pre_lb[0]) for m in solves)
            assert (1 in backward_layers if output_only else first_lps > 0) == first_cut
            seen["first_layer_tightened"] += first_cut
            if pm.infeasible:
                seen["infeasible"] += 1
                continue
            bounds = pm.bounds
            assert [(h.layer, h.unit) for h in pm.hull_units] == [
                (i, j) for i in (1, 3) for j in np.flatnonzero((bounds.pre_lb[i] < 0.0) & (bounds.pre_ub[i] > 0.0)).tolist()
            ]
            xhat, first_row = _layout(net, pm)
            for (i, j), phase in phases.items():
                lo, hi = bounds.pre_lb[i][j], bounds.pre_ub[i][j]
                assert hi <= 0.0 if phase == BLOCKED else lo >= 0.0
                weight = net.layers[i + 1].weight
                rows = pm.model.rows[first_row[i + 1] : first_row[i + 1] + len(weight), xhat[i - 1][j]]
                want = np.zeros(len(weight)) if hi <= 0.0 else 0.0 - weight[:, j]
                assert rows.tobytes() == want.tobytes()
    assert all(v > 5 for v in seen.values()), seen


def test_first_layer_phase_still_tightens(monkeypatch):
    # blocking x1 + x2 cuts the box to x1 + x2 <= 0, which lifts the lower
    # bound of its neighbour -x1 - x2 from -4 to 0
    solves = _recorded_solves(monkeypatch)
    problem = toy_problem(-5.0)
    pm = build_planet(problem.canonical_net, problem.domain, phases={(1, 0): BLOCKED}, tighten=True)
    assert len(solves) == 2
    assert pm.bounds.pre_lb[1][1] == pytest.approx(0.0, abs=1e-8)
    assert propagate_box(problem.canonical_net, problem.domain).pre_lb[1][1] == -4.0


def test_tightening_failure_keeps_the_interval_bound(monkeypatch):
    # a tightening LP that fails numerically costs its unit the tightening,
    # not the run: the unit keeps its interval bounds, which are sound
    real_solve = lp.solve
    failed: list[int] = []

    def flaky(model, basis=None):
        var = int(np.flatnonzero(model.objective)[0])
        if not failed or var == failed[0]:  # the first unit tightened fails
            failed[:] = [var]
            raise lp.NumericalFailure("forced")
        return real_solve(model, basis)

    monkeypatch.setattr(lp, "solve", flaky)
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(10):
        net = random_net(rng, 3, [4, 4])
        box = random_box(rng, 3)
        failed.clear()
        pm = build_planet(net, box, tighten=True)
        if not failed:
            continue  # no ambiguous unit in the second ReLU layer
        # the first ReLU layer is not tightened, so the second one's
        # interval bounds are those of plain propagation
        interval = propagate_box(net, box)
        (unit,) = [u for u in pm.hull_units if hull_rows(pm.model, u)[0] == failed[0]]
        assert unit.layer == 3
        assert pm.bounds.pre_lb[3][unit.unit] == interval.pre_lb[3][unit.unit]
        assert pm.bounds.pre_ub[3][unit.unit] == interval.pre_ub[3][unit.unit]
        # and the unit's chord row is written over those bounds
        pre, chord = hull_rows(pm.model, unit)
        l, u = interval.pre_lb[3][unit.unit], interval.pre_ub[3][unit.unit]
        assert pm.model.rows[chord, unit.var_post] == u - l and pm.model.rows[chord, pre] == -u
        low = planet_lower_bound_with_point(pm)[0]
        points = rng.uniform(box.lb, box.ub, size=(500, 3))
        assert low <= forward_batch(net, points).min() + 1e-9
        checked += 1
    assert checked >= 3


def test_infeasible_max_tightening_lp_makes_the_relaxation_infeasible(monkeypatch):
    # a unit's max LP is checked as its min LP is: an INFEASIBLE result ends
    # the encoding at once, and no bound of -inf reaches the model
    real_solve = lp.solve
    max_lps: list[bool] = []

    def infeasible_max(model, basis=None):
        max_lps.append(model.objective.min() < 0.0)  # the max LP minimises -x_hat
        if max_lps[-1]:
            return lp.LpSolution(lp.INFEASIBLE, np.inf, None)
        return real_solve(model, basis)

    monkeypatch.setattr(lp, "solve", infeasible_max)
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(10):
        net = random_net(rng, 3, [4, 4])
        box = random_box(rng, 3)
        max_lps.clear()
        pm = build_planet(net, box, tighten=True)
        if not max_lps:
            continue  # no ambiguous unit in the second ReLU layer
        assert max_lps == [False, True] and pm.infeasible
        assert planet_lower_bound_with_point(pm) == (np.inf, None)
        checked += 1
    assert checked >= 3


def _same_bytes(net, got, want):
    xs, ys = _flat_bounds(net, got), _flat_bounds(net, want)
    return len(xs) == len(ys) and all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(xs, ys))


def test_relaxation_bounds_are_interval_bounds():
    # without tightening a relaxation's layer bounds are the bytes of
    # propagate_box; tightened ones lie inside them, layer by layer
    outcomes = {"feasible": 0, "interval_infeasible": 0, "tightened_infeasible": 0}
    for net, box, phases in differential_cases(np.random.default_rng(13)):
        want = propagate_box(net, box, phases)
        plain = build_planet(net, box, phases)
        tight = build_planet(net, box, phases, tighten=True)
        if want is None:
            assert plain.infeasible and tight.infeasible
            outcomes["interval_infeasible"] += 1
            continue
        assert not plain.infeasible and _same_bytes(net, plain.bounds, want)
        if tight.infeasible:
            outcomes["tightened_infeasible"] += 1
            continue
        (got_lb, got_ub), (want_lb, want_ub) = post_lists(net, tight.bounds), post_lists(net, want)
        for lo, hi, w_lo, w_hi in zip(
            tight.bounds.pre_lb + got_lb, tight.bounds.pre_ub + got_ub, want.pre_lb + want_lb, want.pre_ub + want_ub
        ):
            assert np.all(lo >= w_lo) and np.all(hi <= w_hi)
        outcomes["feasible"] += 1
    assert outcomes["feasible"] > 100 and outcomes["interval_infeasible"] > 10, outcomes


def test_tightening_exposes_a_phase_contradiction(monkeypatch):
    # x in [-1, 1]; fixing a = relu(x) passing cuts the box to x >= 0, so
    # tightening b = -x gives b <= 1e-9, and c = relu(b) - 0.5 < 0 then
    # contradicts c fixed passing; plain interval bounds give c up to 0.5
    net = Network(1, (
        Linear(np.array([[1.0], [-1.0]]), np.zeros(2)),
        Relu(),
        Linear(np.array([[0.0, 1.0]]), np.array([-0.5])),
        Relu(),
        Linear(np.array([[1.0]]), np.zeros(1)),
    ))
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    phases = {(1, 0): PASSING, (3, 0): PASSING}
    assert propagate_box(net, box, phases).pre_ub[3][0] == 0.5
    assert not build_planet(net, box, phases).infeasible
    solves = []
    real = lp.solve
    monkeypatch.setattr(lp, "solve", lambda model, basis=None: solves.append(1) or real(model, basis))
    pm = build_planet(net, box, phases, tighten=True)
    assert pm.infeasible
    assert planet_lower_bound_with_point(pm) == (np.inf, None)
    assert len(solves) == 2  # the two tightening LPs of b, none after


def _skip_cases(rng):
    """Random depth-2 and depth-3 nets, every third one with a MaxPool
    before its last Linear (lowered over the root box), each over a root box
    and two random sub-boxes of it."""
    for k in range(36):
        n_in = int(rng.integers(1, 4))
        depth = 2 + k % 2
        net = random_net(rng, n_in, [int(rng.integers(2, 5)) for _ in range(depth)])
        root = random_box(rng, n_in)
        if k % 3 == 0:
            w = 2 * int(rng.integers(1, 3))
            head = random_net(rng, n_in, [int(rng.integers(2, 5))], out=w).layers
            net = Network(n_in, head + (
                MaxPool(tuple((j, j + 1) for j in range(0, w, 2))),
                Linear(rng.normal(size=(1, w // 2)), rng.uniform(-0.5, 0.5, 1)),
            ))
            net = maxpool_to_relu(net, propagate_box(net, root))
        yield net, root
        for _ in range(2):
            lo = rng.uniform(root.lb, root.ub)
            hi = rng.uniform(root.lb, root.ub)
            yield net, BoxDomain(np.minimum(lo, hi), np.maximum(lo, hi))


def _flat_bounds(net, bounds):
    post_lb, post_ub = post_lists(net, bounds)
    return [*bounds.pre_lb, *bounds.pre_ub, *post_lb, *post_ub, bounds.output_lb]


def test_input_box_relaxation_solves_only_the_output_lp(monkeypatch):
    # an input box takes its intermediate bounds from the backward pass, so
    # its relaxation solves no tightening LP and the engine solves exactly
    # its output LP; phase sets and the MIP encodings keep LP tightening
    solves = _recorded_solves(monkeypatch)
    deep = 0
    for net, box in _skip_cases(np.random.default_rng(31)):
        relus = [i for i, layer in enumerate(net.layers) if isinstance(layer, Relu)]
        full = build_planet(net, box, tighten=True)
        full_lps = len(solves)
        solves.clear()
        # a ReLU layer's bounds before tightening are those of the Linear
        # layer feeding it; the first ReLU layer is never tightened
        ambiguous = {i: (full.bounds.pre_lb[i - 1] < 0.0) & (full.bounds.pre_ub[i - 1] > 0.0) for i in relus[1:]}
        assert full_lps == 2 * sum(int(a.sum()) for a in ambiguous.values())
        deep += full_lps > 0
        fast = build_planet(net, box, tighten=True, output_only=True)
        assert solves == []
        v_fast = planet_lower_bound_with_point(fast)[0]
        assert len(solves) == 1
        solves.clear()
        # the engine bounds an input box with exactly that relaxation
        assert bab._bound_region(net, box, {}, True)[0] == v_fast
        assert len(solves) == 1
        assert v_fast <= planet_lower_bound_with_point(full)[0] + 1e-9
        solves.clear()
        units = [(i, j) for i in relus for j in range(len(full.bounds.pre_lb[i]))]
        for phases in ({}, {units[-1]: BLOCKED}, {units[0]: PASSING, units[-1]: PASSING}):
            want = build_planet(net, box, phases, tighten=True)
            if not want.infeasible:
                planet_lower_bound_with_point(want)
            want_lps = len(solves)
            solves.clear()
            got = bab._bound_region(net, box, phases, False)[1]
            assert len(solves) == want_lps
            solves.clear()
            assert (got is None) == (want.bounds is None)
            if got is not None:
                for a, b in zip(_flat_bounds(net, got), _flat_bounds(net, want.bounds)):
                    assert a.tobytes() == b.tobytes()
        for a, b in zip(_flat_bounds(net, compute_bounds(net, box, BOUNDS_PLANET)), _flat_bounds(net, full.bounds)):
            assert a.tobytes() == b.tobytes()
        assert len(solves) == full_lps
        solves.clear()
    assert deep > 30, deep


def _sub_boxes(rng):
    """Random depth-2 to depth-4 nets, each over a root box and random
    sub-boxes of it, one of them a point."""
    for k in range(30):
        n_in = int(rng.integers(1, 5))
        net = random_net(rng, n_in, [int(rng.integers(2, 7)) for _ in range(2 + k % 3)])
        root = random_box(rng, n_in, radius=2.0)
        yield net, root
        for _ in range(3):
            lo = rng.uniform(root.lb, root.ub)
            hi = rng.uniform(root.lb, root.ub)
            yield net, BoxDomain(np.minimum(lo, hi), np.maximum(lo, hi))
        yield net, BoxDomain(lo, lo.copy())


def test_backward_bounds_are_sound():
    # every sampled pre-activation lies inside the backward bounds, which
    # lie inside the interval bounds; the fast dual bound over them, a
    # dual-feasible value of the hull LP over the same bounds, is at most
    # that LP's minimum
    rng = np.random.default_rng(57)
    tightened = 0
    for net, box in _sub_boxes(rng):
        pm = build_planet(net, box, tighten=True, output_only=True)
        interval = propagate_box(net, box)
        got = pm.bounds
        pre: dict[int, np.ndarray] = {}
        points = rng.uniform(box.lb, box.ub, size=(400, box.size))
        forward_batch(net, np.vstack([points, box.lb, box.ub]), pre)
        # the corners meet the first layer's interval bound, up to rounding
        for i, values in pre.items():
            assert np.all(values >= got.pre_lb[i] - 1e-9) and np.all(values <= got.pre_ub[i] + 1e-9)
        (got_lb, got_ub), (want_lb, want_ub) = post_lists(net, got), post_lists(net, interval)
        for lo, hi, w_lo, w_hi in zip(
            got.pre_lb + got_lb, got.pre_ub + got_ub, interval.pre_lb + want_lb, interval.pre_ub + want_ub
        ):
            assert np.all(lo >= w_lo) and np.all(hi <= w_hi)
            tightened += int(np.sum(lo > w_lo) + np.sum(hi < w_hi))
        low = planet_lower_bound_with_point(pm)[0]
        assert fast_dual_bound(net, box, got) <= low + 1e-9
        assert low <= forward_batch(net, points)[:, 0].min() + 1e-9
    assert tightened > 100, tightened


def _backward_row(net, i, box, bounds, row, adaptive):
    """Lower bound of row . (layer i's input) over the box, one objective
    and one lower slope at a time, in a loop over the units: the chord's
    slope when ``adaptive`` is None, else CROWN's adaptive slope or 0."""
    g = np.array(row, dtype=float)
    kappa = 0.0
    for k in range(i - 1, -1, -1):
        layer = net.layers[k]
        if isinstance(layer, Linear):
            kappa += float(g @ layer.bias)
            g = layer.weight.T @ g
            continue
        l, u = bounds.pre_lb[k], bounds.pre_ub[k]
        for j in range(len(g)):
            if u[j] <= 0.0:
                g[j] = 0.0
            elif l[j] < 0.0:
                d = u[j] / (u[j] - l[j])
                if g[j] < 0.0:
                    kappa += g[j] * d * (-l[j])
                    g[j] *= d
                elif adaptive is None:
                    g[j] *= d
                else:
                    g[j] *= 1.0 if adaptive and u[j] > -l[j] else 0.0
    return kappa + float(np.sum(np.where(g >= 0.0, g * box.lb, g * box.ub)))


def test_backward_bounds_match_a_per_row_loop():
    # the stacked pass sums in another order than one pass per objective
    # and slope, so the two agree up to a few ulps of the terms' size; the
    # fast dual bound is the one-row pass over the output with the chord
    # lower slope, and stacking copies of that row leaves its bytes as
    # they are
    checked = 0
    for net, box in _sub_boxes(np.random.default_rng(59)):
        bounds = propagate_box(net, box)
        fast = fast_dual_bound(net, box, bounds)
        want = _backward_row(net, len(net.layers), box, bounds, [1.0], None)
        assert fast == pytest.approx(want, rel=1e-12, abs=1e-12)
        stacked = backward_pass(net.layers, np.ones((3, 1)), box.lb, box.ub, bounds.pre_lb, bounds.pre_ub)
        assert stacked.tolist() == [fast] * 3
        for i in [i for i, layer in enumerate(net.layers) if isinstance(layer, Relu)][1:]:
            units = np.flatnonzero((bounds.pre_lb[i] < 0.0) & (bounds.pre_ub[i] > 0.0))
            if not len(units):
                continue
            low, high = backward_bounds(net, i, box, bounds, units)
            for unit, got_low, got_high in zip(units, low, high):
                row = np.eye(len(bounds.pre_lb[i]))[unit]
                want_low = max(_backward_row(net, i, box, bounds, row, a) for a in (True, False))
                want_high = -max(_backward_row(net, i, box, bounds, -row, a) for a in (True, False))
                assert got_low == pytest.approx(want_low, rel=1e-12, abs=1e-12)
                assert got_high == pytest.approx(want_high, rel=1e-12, abs=1e-12)
                checked += 1
    assert checked > 100, checked


def _objective_rows(net, bounds):
    """(i, rows) pairs of a backward pass through ``net.layers[:i]``: the
    rows +-e_j over each ReLU layer i's input, the objectives of its
    tightening LPs, and the output row."""
    cases = [(len(net.layers), np.ones((1, 1)))]
    for i, layer in enumerate(net.layers):
        if isinstance(layer, Relu):
            eye = np.eye(len(bounds.pre_lb[i]))
            cases.append((i, np.concatenate([eye, -eye])))
    return cases


def test_backward_pass_records_crowns_faces():
    # with every row adaptive, the faces the pass records are the ones the
    # plain loops of ``crown_faces`` pick, on random nets over interval
    # bounds with and without their phases clamped and over tightened hull
    # bounds
    checked, chords, lower_faces, upper_inputs = 0, 0, 0, 0
    for net, box, phases in differential_cases(np.random.default_rng(61)):
        pm = build_planet(net, box, phases, tighten=True)
        sources = [propagate_box(net, box), propagate_box(net, box, phases), None if pm.infeasible else pm.bounds]
        for bounds in [b for b in sources if b is not None]:
            for i, g in _objective_rows(net, bounds):
                lo, hi = bounds.pre_lb[:i], bounds.pre_ub[:i]
                faces: dict = {}
                backward_pass(net.layers[:i], g, box.lb, box.ub, lo, hi, True, faces)
                want = crown_faces(net.layers[:i], g, lo, hi)
                assert faces.keys() == want.keys()
                for key, mask in want.items():
                    assert faces[key].dtype == bool and faces[key].shape == mask.shape
                    assert (faces[key] == mask).all()
                chords += sum(int(mask.sum()) for key, mask in want.items() if key >= 0)
                lower_faces += sum(int((~mask).sum()) for key, mask in want.items() if key >= 0)
                upper_inputs += int(want[-1].sum())
                checked += len(g)
    assert checked > 5000 and chords > 1000 and lower_faces > 2000 and upper_inputs > 4000, (
        checked, chords, lower_faces, upper_inputs
    )


def test_recording_faces_changes_no_bytes():
    # on stacked rows under all three lower slopes (the chord's, CROWN's
    # adaptive slope and 0), a pass that records its faces returns the
    # bytes of one that does not
    rng = np.random.default_rng(62)
    checked = 0
    for net, box, phases in differential_cases(rng):
        bounds = propagate_box(net, box, phases)
        if bounds is None:
            continue
        for i, g in _objective_rows(net, bounds):
            g = np.concatenate([g, rng.normal(size=(3, g.shape[1]))])
            lo, hi = bounds.pre_lb[:i], bounds.pre_ub[:i]
            for adaptive in (None, np.arange(len(g)) % 2 == 0):
                want = backward_pass(net.layers[:i], g, box.lb, box.ub, lo, hi, adaptive)
                got = backward_pass(net.layers[:i], g, box.lb, box.ub, lo, hi, adaptive, faces={})
                assert got.tobytes() == want.tobytes()
                checked += len(g)
    assert checked > 1000, checked


def test_backward_bounds_tighten_the_second_layer():
    # a = relu(x + 0.5) and b = relu(0.5 - x) over x in [-1, 1] feed
    # y = a + b - 1.2, whose interval bound is [-1.2, 1.8]. The adaptive
    # lower slope is 1 for both units (u = 1.5 > -l = 0.5), so a + b >= 1
    # and y >= -0.2; the chords a <= 0.75 (x + 1), b <= 0.75 (1 - x) give
    # y <= 0.3. Both are the true range.
    net = Network(1, (
        Linear(np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])),
        Relu(),
        Linear(np.array([[1.0, 1.0]]), np.array([-1.2])),
        Relu(),
        Linear(np.array([[1.0]]), np.zeros(1)),
    ))
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    interval = propagate_box(net, box)
    assert (interval.pre_lb[3][0], interval.pre_ub[3][0]) == pytest.approx((-1.2, 1.8))
    low, high = backward_bounds(net, 3, box, interval, np.array([0]))
    assert (low[0], high[0]) == pytest.approx((-0.2, 0.3), abs=1e-12)
    pm = build_planet(net, box, tighten=True, output_only=True)
    assert pm.bounds.pre_lb[3][0] == pytest.approx(-0.2 - _SAFETY, abs=1e-12)
    assert pm.bounds.pre_ub[3][0] == pytest.approx(0.3 + _SAFETY, abs=1e-12)


def test_inverted_backward_bounds_keep_the_interval_bounds(monkeypatch):
    # an input box is never empty, so a pair that rounding left inverted
    # after widening must not make the relaxation infeasible: the unit
    # keeps its interval bounds, the others take their backward bounds
    real = relax_module.backward_bounds

    def inverted(net, i, box, bounds, units):
        low, high = real(net, i, box, bounds, units)
        low[0], high[0] = high[0] + 1e-6, high[0] - 1e-6
        return low, high

    monkeypatch.setattr(relax_module, "backward_bounds", inverted)
    rng = np.random.default_rng(58)
    checked = 0
    for net, box in _sub_boxes(rng):
        pm = build_planet(net, box, tighten=True, output_only=True)
        assert not pm.infeasible
        relus = [i for i, layer in enumerate(net.layers) if isinstance(layer, Relu)]
        for i in relus[1:]:
            units = np.flatnonzero((pm.bounds.pre_lb[i - 1] < 0.0) & (pm.bounds.pre_ub[i - 1] > 0.0))
            if len(units):
                j = units[0]
                assert pm.bounds.pre_lb[i][j] == pm.bounds.pre_lb[i - 1][j] <= pm.bounds.pre_ub[i][j]
                assert pm.bounds.pre_ub[i][j] == pm.bounds.pre_ub[i - 1][j]
                checked += 1
        points = rng.uniform(box.lb, box.ub, size=(200, box.size))
        assert planet_lower_bound_with_point(pm)[0] <= forward_batch(net, points)[:, 0].min() + 1e-9
    assert checked > 20, checked
