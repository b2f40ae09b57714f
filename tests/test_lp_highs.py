"""Cold ``lp.solve`` against SciPy's HiGHS on real relaxation and MIP-node
LPs, most of them past the 8-variable cap of ``reference_lp.solve_reference``."""

import numpy as np
import pytest
from helpers import differential_cases

from plverify import lp
from plverify.canon import Geq, canonicalize
from plverify.mip import INTERVAL_VARIANT, PLANET_OPT, PLANET_SYMFEASIBLE, encode_mip, solve_mip
from plverify.model import forward_batch
from plverify.relax import build_planet, planet_lower_bound_with_point

linprog = pytest.importorskip("scipy.optimize").linprog

_HIGHS_TOL = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _highs(model: lp.LpModel) -> tuple[str, float]:
    """Status and minimum of ``model`` by HiGHS."""
    eq = model.rel == lp.EQ
    sign = np.where(model.rel == lp.LE, 1.0, -1.0)[~eq]
    c = np.zeros(model.num_vars)
    c[: len(model.objective)] = model.objective
    res = linprog(
        c,
        A_ub=sign[:, None] * model.rows[~eq] if (~eq).any() else None,
        b_ub=sign * model.rhs[~eq] if (~eq).any() else None,
        A_eq=model.rows[eq] if eq.any() else None,
        b_eq=model.rhs[eq] if eq.any() else None,
        bounds=list(zip(model.lower, model.upper)),
        method="highs",
        options=_HIGHS_TOL,
    )
    assert res.status in (0, 2), res.message  # optimal or infeasible
    return (lp.OPTIMAL, float(res.fun)) if res.status == 0 else (lp.INFEASIBLE, np.inf)


def test_cold_relaxation_lps_agree_with_highs(monkeypatch):
    # every LP the tightened hull relaxations solve (tightening and output
    # LPs, some infeasible through fixed phases), solved again from the
    # slack basis
    real_solve = lp.solve
    models = []

    def recorded(model, basis=None):
        models.append(model.copy())
        return real_solve(model, basis)

    monkeypatch.setattr(lp, "solve", recorded)
    for seed in (8, 13):
        for net, box, phases in differential_cases(np.random.default_rng(seed)):
            planet_lower_bound_with_point(build_planet(net, box, phases, tighten=True))
    monkeypatch.undo()

    outcomes = {lp.OPTIMAL: 0, lp.INFEASIBLE: 0}
    past_cap = 0
    for model in models:
        got = lp.solve(model)
        status, value = _highs(model)
        assert got.status == status
        outcomes[status] += 1
        past_cap += model.num_vars > 8
        if status == lp.OPTIMAL:
            assert abs(got.objective - value) <= 1e-9
    assert outcomes[lp.OPTIMAL] > 900 and outcomes[lp.INFEASIBLE] > 10 and past_cap > 150, (outcomes, past_cap)


def test_mip_node_lps_agree_with_highs(monkeypatch):
    # every node LP the big-M searches of the three variants solve (warm,
    # pinned binaries, some infeasible), solved again from the slack basis
    real_solve = lp.solve
    models = []

    def recorded(model, basis=None):
        models.append(model.copy())
        return real_solve(model, basis)

    for k, (net, box, _) in enumerate(differential_cases(np.random.default_rng(8))):
        if k % 3:
            continue  # one case per box
        # thresholds near the sampled minimum, so that the searches branch
        rng = np.random.default_rng(k)
        y = forward_batch(net, rng.uniform(box.lb, box.ub, size=(64, box.size)))[:, 0]
        problem = canonicalize(net, Geq(np.ones(1), float(y.min()) - 0.01), box)
        for variant in (PLANET_OPT, INTERVAL_VARIANT, PLANET_SYMFEASIBLE):
            enc = encode_mip(problem.canonical_net, box, variant)
            with monkeypatch.context() as patch:
                patch.setattr(lp, "solve", recorded)
                solve_mip(enc)

    outcomes = {lp.OPTIMAL: 0, lp.INFEASIBLE: 0}
    past_cap = 0
    for model in models:
        got = lp.solve(model)
        status, value = _highs(model)
        assert got.status == status
        outcomes[status] += 1
        past_cap += model.num_vars > 8
        if status == lp.OPTIMAL:
            assert abs(got.objective - value) <= 1e-9
    assert outcomes[lp.OPTIMAL] > 500 and outcomes[lp.INFEASIBLE] > 0 and past_cap > 400, (outcomes, past_cap)
