import numpy as np
import pytest

import plverify.lp as lp_module
from plverify.lp import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    Basis,
    LpModel,
    NumericalFailure,
    TooLarge,
    solve,
    solve_reference,
)


def _toy_planet_lp() -> LpModel:
    # variables s in [-4,4], a in [0,4], b in [0,4];
    # hull rows a >= s, a <= (s+4)/2, b >= -s, b <= (4-s)/2; min 5 - a - b
    m = LpModel()
    s = m.add_var(-4.0, 4.0)
    a = m.add_var(0.0, 4.0)
    b = m.add_var(0.0, 4.0)
    m.add_row({a: 1.0, s: -1.0}, GE, 0.0)
    m.add_row({a: 2.0, s: -1.0}, LE, 4.0)
    m.add_row({b: 1.0, s: 1.0}, GE, 0.0)
    m.add_row({b: 2.0, s: 1.0}, LE, 4.0)
    m.set_objective({a: -1.0, b: -1.0})
    return m


def test_bound_only_model():
    m = LpModel()
    x = m.add_var(0.0, 4.0)
    m.set_objective({x: -1.0})
    sol = solve(m)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-4.0)
    assert sol.x[x] == pytest.approx(4.0)


def test_toy_planet_lp_value():
    sol = solve(_toy_planet_lp())
    assert sol.status == OPTIMAL
    # a + b <= (s+4)/2 + (4-s)/2 = 4, so 5 - a - b has minimum 1
    assert 5.0 + sol.objective == pytest.approx(1.0, abs=1e-8)
    ref = solve_reference(_toy_planet_lp())
    assert ref.status == OPTIMAL
    assert ref.objective == pytest.approx(sol.objective, abs=1e-8)


def test_infeasible_row():
    m = LpModel()
    x = m.add_var(0.0, 1.0)
    m.add_row({x: 1.0}, GE, 2.0)
    m.set_objective({x: 1.0})
    assert solve(m).status == INFEASIBLE
    assert solve_reference(m).status == INFEASIBLE


def test_degenerate_fixed_variable():
    m = LpModel()
    x = m.add_var(0.0, 0.0)
    m.set_objective({x: 1.0})
    for solver in (solve, solve_reference):
        sol = solver(m)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(0.0)


def test_symmetric_pair():
    m = LpModel()
    x = m.add_var(-1.0, 1.0)
    y = m.add_var(-1.0, 1.0)
    m.add_row({x: 1.0, y: 1.0}, GE, 0.0)
    m.set_objective({x: 1.0, y: 1.0})
    for solver in (solve, solve_reference):
        sol = solver(m)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_equality_rows():
    m = LpModel()
    x = m.add_var(-5.0, 5.0)
    y = m.add_var(-5.0, 5.0)
    m.add_row({x: 1.0, y: 1.0}, EQ, 2.0)
    m.add_row({x: 1.0, y: -1.0}, LE, 1.0)
    m.set_objective({x: 1.0})
    sol = solve(m)
    assert sol.status == OPTIMAL
    assert sol.x[0] + sol.x[1] == pytest.approx(2.0, abs=1e-9)
    # min x with x+y=2, y <= 5 -> x = -3
    assert sol.objective == pytest.approx(-3.0, abs=1e-8)


def _random_model(rng: np.random.Generator) -> LpModel:
    n = int(rng.integers(1, 7))
    k = int(rng.integers(0, 9))
    m = LpModel()
    for _ in range(n):
        lo = rng.uniform(-3, 1)
        m.add_var(lo, lo + rng.uniform(0.1, 4))
    anchor = np.array([rng.uniform(m.lower[j], m.upper[j]) for j in range(n)])
    for _ in range(k):
        a = rng.normal(size=n)
        rel = (LE, GE, EQ)[int(rng.integers(0, 3))]
        off = rng.uniform(-1.0, 1.0) if rel != EQ else rng.uniform(-0.3, 0.3)
        m.add_row(a, rel, float(a @ anchor + off))
    m.set_objective(rng.normal(size=n))
    return m


def test_agreement_with_reference_on_random_lps():
    rng = np.random.default_rng(2024)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0}
    for _ in range(500):
        model = _random_model(rng)
        got = solve(model)
        ref = solve_reference(model)
        assert got.status == ref.status
        statuses[got.status] += 1
        if got.status == OPTIMAL:
            assert got.objective == pytest.approx(ref.objective, abs=1e-6)
    # both outcomes must actually occur for the check to mean anything
    assert statuses[OPTIMAL] > 50
    assert statuses[INFEASIBLE] > 50


def test_optimal_point_is_feasible():
    rng = np.random.default_rng(11)
    for _ in range(200):
        model = _random_model(rng)
        sol = solve(model)
        if sol.status != OPTIMAL:
            continue
        x = sol.x
        lo = np.array(model.lower)
        hi = np.array(model.upper)
        assert np.all(x >= lo - 1e-9) and np.all(x <= hi + 1e-9)
        for row, rel, rhs in model.rows:
            v = float(row @ x)
            if rel == LE:
                assert v <= rhs + 1e-8
            elif rel == GE:
                assert v >= rhs - 1e-8
            else:
                assert v == pytest.approx(rhs, abs=1e-8)


def test_deterministic_objective_values():
    rng = np.random.default_rng(5)
    models = [_random_model(rng) for _ in range(20)]
    first = [solve(m).objective for m in models]
    second = [solve(m).objective for m in models]
    assert first == second  # bitwise identical


def _count_phase_one(monkeypatch) -> list[int]:
    calls = [0]
    original = lp_module._phase_one

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(lp_module, "_phase_one", counted)
    return calls


def test_warm_start_matches_cold_solve(monkeypatch):
    # from an all-slack crash basis, then from each previous optimum, also
    # after a bound is cut around that optimum (as tightening does)
    phase_one = _count_phase_one(monkeypatch)
    rng = np.random.default_rng(17)
    statuses = set()
    warm = 0
    for _ in range(200):
        model = _random_model(rng)
        n = model.num_vars
        basis = Basis([~i for i in range(len(model.rows))])
        c = rng.normal(size=n)
        for step, obj in enumerate((c, -c, rng.normal(size=n), c)):
            if step == 3 and got.status == OPTIMAL:
                j = int(rng.integers(0, n))
                model.lower[j] = max(model.lower[j], float(got.x[j]) - 0.1)
                model.upper[j] = min(model.upper[j], float(got.x[j]) + 0.1)
            clone = model.with_objective(obj)
            before = phase_one[0]
            got = solve(clone, basis)
            cold = solve(clone)
            assert got.status == cold.status
            statuses.add(got.status)
            if got.status == OPTIMAL:
                assert abs(got.objective - cold.objective) <= 1e-12
                if step > 0:  # from the previous optimum: only the cold solve ran phase 1
                    assert phase_one[0] == before + 1
                    warm += 1
    assert statuses == {OPTIMAL, INFEASIBLE}
    assert warm > 200


def test_failed_warm_start_is_retried_cold(monkeypatch):
    model = _toy_planet_lp()
    cold = solve(model)
    phase_one = _count_phase_one(monkeypatch)
    singular = Basis([0, 0, 0, 0])  # one column basic in every row
    got = solve(model, singular)
    assert phase_one[0] == 1
    assert got.status == cold.status and got.objective == cold.objective
    assert len(singular.basic) == 4 and len(set(singular.basic)) == 4  # the final basis
    with pytest.raises(ValueError):
        solve(model, Basis([0]))

    # a simplex failure in the warm run is retried cold; a cold one propagates
    original = lp_module._run_simplex
    failures = [1]

    def flaky(*args):
        if failures[0] > 0:
            failures[0] -= 1
            raise NumericalFailure("forced")
        return original(*args)

    monkeypatch.setattr(lp_module, "_run_simplex", flaky)
    optimal = Basis(list(singular.basic), set(singular.at_upper))
    got = solve(model, optimal)
    assert failures[0] == 0 and phase_one[0] == 2
    assert got.status == cold.status and got.objective == cold.objective
    failures[0] = 2
    with pytest.raises(NumericalFailure):
        solve(model, optimal)
    assert failures[0] == 0


def test_reference_cap():
    m = LpModel()
    for _ in range(9):
        m.add_var(0.0, 1.0)
    m.set_objective(np.zeros(9))
    with pytest.raises(TooLarge):
        solve_reference(m)
