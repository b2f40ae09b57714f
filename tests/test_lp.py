import itertools
import math
import tracemalloc

import numpy as np
import pytest
import reference_lp
from helpers import count_calls
from reference_lp import TooLarge, solve_reference

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
    RowStack,
    solve,
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


@pytest.fixture
def blands_rule(monkeypatch):
    """Bland's rule from the first pivot on, in both simplex loops: every
    pivot counts as degenerate, and one is enough."""
    monkeypatch.setattr(lp_module, "_BLAND_TRIGGER", 1)
    monkeypatch.setattr(lp_module, "_DEGEN_TOL", np.inf)


def test_agreement_with_reference_on_random_lps(monkeypatch):
    _agreement_with_reference(monkeypatch)


def test_agreement_with_reference_under_blands_rule(monkeypatch, blands_rule):
    _agreement_with_reference(monkeypatch)


def _agreement_with_reference(monkeypatch):
    # every solve starts from the slack basis, so each INFEASIBLE comes
    # from its dual pass: one checked Farkas row, and no OPTIMAL has one
    proofs = count_calls(monkeypatch, lp_module, "_farkas_row", lambda proved: proved)
    rng = np.random.default_rng(2024)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0}
    for _ in range(500):
        model = _random_model(rng)
        before = proofs[0]
        got = solve(model)
        assert proofs[0] == before + (got.status == INFEASIBLE)
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
        for row, rel, rhs in zip(model.rows, model.rel, model.rhs):
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


def test_warm_start_matches_cold_solve(monkeypatch):
    # from an all-slack crash basis, then from each previous optimum, also
    # after a bound is cut around that optimum (as tightening does)
    cold_starts = count_calls(monkeypatch, lp_module, "_slack_start")
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
            before = cold_starts[0]
            got = solve(clone, basis)
            cold = solve(clone)
            assert got.status == cold.status
            statuses.add(got.status)
            if got.status == OPTIMAL:
                assert abs(got.objective - cold.objective) <= 1e-12
                if step > 0:  # from the previous optimum: only the cold solve used the slack basis
                    assert cold_starts[0] == before + 1
                    warm += 1
    assert statuses == {OPTIMAL, INFEASIBLE}
    assert warm > 200


def test_failed_warm_start_is_retried_cold(monkeypatch):
    model = _toy_planet_lp()
    cold = solve(model)
    cold_starts = count_calls(monkeypatch, lp_module, "_slack_start")
    singular = Basis([0, 0, 0, 0])  # one column basic in every row
    got = solve(model, singular)
    assert cold_starts[0] == 1
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
    assert failures[0] == 0 and cold_starts[0] == 2
    assert got.status == cold.status and got.objective == cold.objective
    failures[0] = 2
    with pytest.raises(NumericalFailure):
        solve(model, optimal)
    assert failures[0] == 0


def test_dual_warm_start_after_bound_cut_matches_cold(monkeypatch):
    _dual_warm_start_after_bound_cut(monkeypatch)


def test_dual_warm_start_after_bound_cut_under_blands_rule(monkeypatch, blands_rule):
    _dual_warm_start_after_bound_cut(monkeypatch)


def _dual_warm_start_after_bound_cut(monkeypatch):
    # cut a bound of a basic variable through its optimal value: the optimal
    # basis stays dual feasible, so the warm solve runs dual pivots only
    cold_starts = count_calls(monkeypatch, lp_module, "_slack_start")
    dual_runs = count_calls(monkeypatch, lp_module, "_run_dual", lambda used: used != 0)
    proofs = count_calls(monkeypatch, lp_module, "_farkas_row", lambda proved: proved)
    rng = np.random.default_rng(31)
    outcomes = {OPTIMAL: 0, INFEASIBLE: 0}
    for _ in range(300):
        model = _random_model(rng)
        basis = Basis([~i for i in range(len(model.rows))])
        first = solve(model, basis)
        lo, hi = np.array(model.lower), np.array(model.upper)
        basic = [j for j in basis.basic if j >= 0 and lo[j] + 1e-6 < first.x[j] < hi[j] - 1e-6]
        if first.status != OPTIMAL or not basic:
            continue
        j = basic[int(rng.integers(0, len(basic)))]
        cut = float(first.x[j]) + rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 3.0)
        if cut > first.x[j]:
            model.lower[j] = min(cut, model.upper[j])
        else:
            model.upper[j] = max(cut, model.lower[j])
        before, ran_dual, proved = cold_starts[0], dual_runs[0], proofs[0]
        warm = solve(model, Basis(list(basis.basic), set(basis.at_upper)))
        assert cold_starts[0] == before and dual_runs[0] == ran_dual + 1
        # reported INFEASIBLE only through a checked Farkas row
        assert proofs[0] == proved + (warm.status == INFEASIBLE)
        cold = solve(model)
        assert warm.status == cold.status
        outcomes[warm.status] += 1
        if warm.status == OPTIMAL:
            assert abs(warm.objective - cold.objective) <= 1e-9
    assert outcomes[OPTIMAL] > 40 and outcomes[INFEASIBLE] > 40


def _capped_pair(objective) -> tuple[LpModel, Basis]:
    # x, y in [0, 2], x + y <= 3; the basis of min -x - y (x at its upper
    # bound, y basic at 1) with y's upper bound cut to 0.5
    m = LpModel()
    x = m.add_var(0.0, 2.0)
    y = m.add_var(0.0, 0.5)
    m.add_row({x: 1.0, y: 1.0}, LE, 3.0)
    m.set_objective(objective)
    return m, Basis([y], {x})


def test_dual_warm_start_needs_a_dual_feasible_start(monkeypatch):
    cold_starts = count_calls(monkeypatch, lp_module, "_slack_start")
    dual = count_calls(monkeypatch, lp_module, "_run_dual")
    model, basis = _capped_pair({0: -1.0, 1: -1.0})
    got = solve(model, basis)
    assert (cold_starts[0], dual[0]) == (0, 1)
    assert got.status == OPTIMAL and got.objective == pytest.approx(-2.5, abs=1e-12)
    # the same start is not dual feasible for min x + y: solved from the
    # slack basis, whose dual pass runs (and pivots nothing) as well
    model, basis = _capped_pair({0: 1.0, 1: 1.0})
    got = solve(model, basis)
    assert (cold_starts[0], dual[0]) == (1, 2)
    assert got.status == OPTIMAL and got.objective == pytest.approx(0.0, abs=1e-12)


def test_dual_warm_start_reports_infeasible_only_with_a_proof(monkeypatch):
    # 1e10 x = z with x >= 2e-8 needs z >= 200; from the basis with x basic,
    # z's entry in x's row of B^-1 A is -1e-10, below the pivot tolerance, so
    # the dual ratio test finds no column. The Farkas check fails and the
    # solve is retried cold.
    cold_starts = count_calls(monkeypatch, lp_module, "_slack_start")
    m = LpModel()
    x = m.add_var(2e-8, 1.0)
    z = m.add_var(0.0, 1000.0)
    m.add_row({x: 1e10, z: -1.0}, EQ, 0.0)
    m.set_objective({x: 1.0})
    got = solve(m, Basis([x]))
    assert cold_starts[0] == 1
    assert got.status == OPTIMAL and got.x[z] == pytest.approx(200.0)
    # with z capped at 10 the same row proves the model infeasible
    m.upper[z] = 10.0
    assert solve(m, Basis([x])).status == INFEASIBLE and cold_starts[0] == 1
    assert solve(m).status == INFEASIBLE


def test_cold_start_within_feasibility_tolerance_is_optimal(monkeypatch):
    # x in [0, 0] with the row x = 5e-10: the slack sits 5e-10 outside its
    # bounds, above the cold tolerance, and no column can move it. The
    # Farkas check fails (the miss is below TOL_FEAS), so the start counts
    # as feasible instead of raising NumericalFailure
    proofs = count_calls(monkeypatch, lp_module, "_farkas_row")
    m = LpModel()
    x = m.add_var(0.0, 0.0)
    m.add_row({x: 1.0}, EQ, 5e-10)
    m.set_objective({x: 1.0})
    got = solve(m)
    assert proofs[0] == 1
    assert got.status == OPTIMAL and got.objective == 0.0 and got.x.tolist() == [0.0]
    m = LpModel([0.0], [0.0])
    m.add_row({x: 1.0}, EQ, 2e-8)  # outside TOL_FEAS: a proof
    m.set_objective({x: 1.0})
    assert solve(m).status == INFEASIBLE and proofs[0] == 2


def test_zero_pivot_warm_solve_inverts_once(monkeypatch):
    # from an optimal basis no pivot happens, so the final refactor reuses
    # the start's inverse: the same bytes as inverting again
    inverse = np.linalg.inv
    inversions = [0]

    def counted(a):
        inversions[0] += 1
        return inverse(a)

    monkeypatch.setattr(lp_module.np.linalg, "inv", counted)
    always = lp_module._SimplexState.refactor

    def reinverting(state):
        state.fresh = False
        always(state)

    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(100):
        model = _random_model(rng)
        basis = Basis([~i for i in range(len(model.rows))])
        if not len(model.rows) or solve(model, basis).status != OPTIMAL:
            continue
        inversions[0] = 0
        got = solve(model, Basis(list(basis.basic), set(basis.at_upper)))
        assert inversions[0] == 1
        with monkeypatch.context() as patch:
            patch.setattr(lp_module._SimplexState, "refactor", reinverting)
            inversions[0] = 0
            again = solve(model, Basis(list(basis.basic), set(basis.at_upper)))
            assert inversions[0] == 2
        assert got.objective == again.objective and got.x.tobytes() == again.x.tobytes()
        # a re-solve from ``basis`` itself derives its start again: one inversion
        inversions[0] = 0
        same = solve(model, basis)
        assert inversions[0] == 1
        assert same.objective == got.objective and same.x.tobytes() == got.x.tobytes()
        # a new row (its slack basic) changes the basis matrix: invert again
        model.add_row(np.ones(model.num_vars), LE, float(np.sum(np.abs(model.upper)) + 1.0))
        basis.basic.append(~(len(model.rows) - 1))
        inversions[0] = 0
        assert solve(model, basis).status == OPTIMAL
        assert inversions[0] >= 1
        checked += 1
    assert checked > 30


def test_warm_solve_without_rows(monkeypatch):
    cold_starts = count_calls(monkeypatch, lp_module, "_slack_start")
    m = LpModel()
    x = m.add_var(0.0, 2.0)
    y = m.add_var(-1.0, 1.0)
    m.set_objective({x: -1.0, y: 1.0})
    basis = Basis()
    got = solve(m, basis)
    assert got.status == OPTIMAL and got.objective == -3.0 and got.x.tolist() == [2.0, -1.0]
    assert basis.basic == [] and basis.at_upper == {x}
    again = solve(m, basis)
    assert again.objective == got.objective and again.x.tobytes() == got.x.tobytes()
    assert cold_starts[0] == 0


_REL_SYMBOL = {LE: "<=", EQ: "=", GE: ">=", None: "None"}


@pytest.mark.parametrize(
    "rel, rhs",
    [
        pytest.param(rel, rhs, id=f"{_REL_SYMBOL[rel]}-{rhs}")
        for rel, rhs in [
            (EQ, 2.0), (EQ, 0.0), (LE, 1.0), (LE, -1.0), (GE, -1.0), (GE, 1.0), (None, None)
        ]
    ],
)
def test_model_without_variables_checks_its_rows(rel, rhs):
    # x = () meets a row only when 0 meets its relation; with no row at all
    # (rel None) it is the optimum, of value 0
    model = LpModel()
    if rel is not None:
        model.add_row({}, rel, rhs)
    got, want = solve(model), solve_reference(model)
    assert got.status == want.status
    if rel is None:
        assert got.status == OPTIMAL and got.objective == want.objective == 0.0
        assert got.x.shape == want.x.shape == (0,)
    if rel != LE:
        return
    stack = RowStack([], [])
    stack.push(np.zeros(0), rhs)
    assert solve(stack).status == want.status


def test_reused_form_is_read_only(monkeypatch):
    # a solver write into the cached form raises; the next solve, from the
    # same cache, returns the bytes of a fresh model
    model = _toy_planet_lp()
    basis = Basis([~i for i in range(len(model.rows))])
    want = solve(model.copy(), Basis(list(basis.basic)))
    first = solve(model, basis)
    assert first.x.tobytes() == want.x.tobytes()
    original = lp_module._run_simplex
    for name in ("a", "rhs", "lo", "hi"):

        def writing(state, *args):
            getattr(state, name)[0] = 7.0
            return original(state, *args)

        with monkeypatch.context() as patch:
            patch.setattr(lp_module, "_run_simplex", writing)
            with pytest.raises(ValueError, match="read-only"):
                solve(model, Basis(list(basis.basic), set(basis.at_upper)))
        again = solve(model, Basis(list(basis.basic), set(basis.at_upper)))
        assert again.x.tobytes() == want.x.tobytes() and again.objective == want.objective
    stack = RowStack([0.0, 0.0], [1.0, 1.0])
    stack.push(np.ones(2), 1.5)
    form = stack.standard_form()
    for array in form:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7.0
    stack.push(np.ones(2), 1.0)  # the stack's own buffers stay writeable


def test_row_stack_solves_like_an_lp_model():
    # random push/truncate sequences, from the empty stack to past the
    # buffers' first capacity; every solve must return the bytes and the
    # final basis of an LpModel built from the same rows
    rng = np.random.default_rng(41)
    statuses = set()
    deepest = 0
    for _ in range(40):
        n = int(rng.integers(1, 5))
        lo = rng.uniform(-2.0, 0.5, size=n)
        hi = lo + rng.uniform(0.1, 3.0, size=n)
        stack = RowStack(lo, hi)
        rows: list[tuple[np.ndarray, float]] = []
        last = Basis()
        push_p = rng.uniform(0.4, 0.9)
        for _ in range(40):
            if rng.uniform() < push_p:
                a = rng.normal(size=n)
                b = float(a @ rng.uniform(lo, hi) + rng.uniform(-0.5, 1.0))
                stack.push(a, b)
                rows.append((a, b))
            else:
                k = int(rng.integers(0, len(rows) + 1))
                stack.truncate(k)
                del rows[k:]
            deepest = max(deepest, stack.depth)
            model = LpModel()
            for j in range(n):
                model.add_var(lo[j], hi[j])
            for a, b in rows:
                model.add_row(a, LE, b)
            objective = rng.normal(size=n) if rng.uniform() < 0.5 else None
            stack.objective = objective
            if objective is not None:
                model.set_objective(objective)
            # the last final basis, a new row's slack basic, as the oracle does
            start = last.basic[: len(rows)] + [~i for i in range(len(last.basic), len(rows))]
            if any(j < 0 and ~j >= len(rows) for j in start):
                start = [~i for i in range(len(rows))]
            upper = {j for j in last.at_upper if j >= 0 or ~j < len(rows)}
            for basis in (None, start):
                got_basis = None if basis is None else Basis(list(basis), set(upper))
                want_basis = None if basis is None else Basis(list(basis), set(upper))
                got, want = solve(stack, got_basis), solve(model, want_basis)
                assert got.status == want.status
                statuses.add(got.status)
                assert float(got.objective).hex() == float(want.objective).hex()
                assert (got.x is None and want.x is None) or got.x.tobytes() == want.x.tobytes()
                assert got_basis == want_basis
            if got.status == OPTIMAL:
                last = got_basis
        with pytest.raises(ValueError):
            stack.truncate(stack.depth + 1)
    assert statuses == {OPTIMAL, INFEASIBLE}
    assert deepest > 2 * lp_module._STACK_ROWS


def test_reference_subsets_come_in_lexicographic_chunks(monkeypatch):
    monkeypatch.setattr(reference_lp, "_REFERENCE_CHUNK", 50)
    for k, n in [(0, 1), (2, 3), (5, 3), (6, 1), (9, 4), (12, 6), (16, 8)]:
        chunks = list(reference_lp._subsets(k, n))
        got = [tuple(row) for chunk in chunks for row in chunk.tolist()]
        assert got == list(itertools.combinations(range(k), n))
        # a chunk closes at the first head that brings it to 50 rows, and
        # one head adds at most C(k - 1, 3) rows
        most = 50 + math.comb(max(k - 1, 0), 3)
        assert all(0 < len(c) < most for c in chunks)
        assert all(len(c) >= 50 for c in chunks[:-1])


def test_reference_memory_stays_bounded():
    # 8 variables and 11 rows give 28 constraint rows once bounds and
    # equalities are doubled: 3,108,105 8-subsets, whose 8x8 matrices alone
    # take 1.6 GB when built at once
    rng = np.random.default_rng(29)
    m = LpModel()
    for _ in range(8):
        m.add_var(-1.0, 1.0)
    anchor = rng.uniform(-0.5, 0.5, size=8)
    for rel in (LE, GE) * 5:
        a = rng.normal(size=8)
        m.add_row(a, rel, float(a @ anchor) + (0.2 if rel == LE else -0.2))
    a = rng.normal(size=8)
    m.add_row(a, EQ, float(a @ anchor))
    m.set_objective(rng.normal(size=8))
    tracemalloc.start()
    try:
        ref = solve_reference(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20
    got = solve(m)
    assert ref.status == got.status == OPTIMAL
    assert ref.objective == pytest.approx(got.objective, abs=1e-7)


def test_reference_cap():
    m = LpModel()
    for _ in range(9):
        m.add_var(0.0, 1.0)
    m.set_objective(np.zeros(9))
    with pytest.raises(TooLarge):
        solve_reference(m)


def test_solve_rejects_an_infinite_bound_or_unknown_relation():
    # the model's arrays are checked where a solve reads them; a variable
    # with lower > upper is an infeasible model, as after a bound cut
    for lower, upper in (([0.0, -np.inf], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.nan])):
        with pytest.raises(ValueError, match="bounds must be finite"):
            solve(LpModel(lower, upper))
    m = LpModel([0.0], [1.0])
    m.add_row({0: 1.0}, "<=", 1.0)
    with pytest.raises(ValueError, match="unknown relation"):
        solve(m)
    assert solve(LpModel([1.0], [0.0])).status == INFEASIBLE
