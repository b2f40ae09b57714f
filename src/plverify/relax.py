"""Convex relaxations of ReLU networks and the fast dual lower bound.

Two LP relaxations are built layer by layer over variables for the inputs,
every affine output (x_hat) and every activation output (x):

* the tight hull ("planet" mode): an ambiguous unit (l < 0 < u) contributes
  x >= 0 (variable bound), x >= x_hat, and the upper chord
  x <= u (x_hat - l) / (u - l), written as (u-l) x - u x_hat <= -u l;
* the loose relaxation ("reluplex" mode): only x >= 0, x >= x_hat, x <= u,
  keeping the box part but dropping the chord.

Units fixed by sign (bounds or an explicit phase) are encoded exactly:
blocked contributes the constant 0, passing aliases x to x_hat. MaxPool
layers, when not lowered, use the elementwise hull y >= x_k and
y <= sum_k (x_k - l_k) + max_k l_k.

Optional bound tightening re-derives every ambiguous unit's pre-activation
range by minimising/maximising its variable over the partial model built so
far (two LPs per unit), before that unit's ReLU is encoded. Tightening is
what the branch-and-bound engine uses per subdomain by default. A ReLU layer
fed by one Linear layer straight from the input box is skipped unless one
of its units has a fixed phase: the interval bound of an affine map over a
box is exact, so those LPs could only return it.

Every LP over one relaxation starts warm (``lp.Basis``) from the previous
LP's optimum: tightened bounds contain every feasible point, so that optimum
stays feasible. Each row is added with a crash column that keeps the start
primal-feasible without pivoting (inputs start at their lower bounds):

* a Linear equality row: its x_hat basic;
* a hull unit: x basic in its chord row (x then sits on the chord, inside
  [max(0, x_hat), u]) and the slack basic in its x >= x_hat row;
* a reluplex unit: x nonbasic at its upper bound u, the slack basic;
* a MaxPool hull group: y basic in its sum row, the slacks basic in its
  y >= x_k rows (this start can exceed y's upper bound).

Where a start is infeasible after all (a bound cut by fixed ReLU phases,
or the MaxPool case above), ``lp.solve`` falls back to its cold two-phase
path, which also reports infeasible phase sets.

The fast dual bound is an LP-free backward pass producing the value of a
feasible dual point of the hull LP: it maintains an affine under-estimator
g . (layer value) + kappa of the scalar output. Ambiguous units scale their
coefficient by d = u/(u-l); negative coefficients additionally pay the chord
intercept (-l) d. At the input the box minimum of the affine form is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp
from .interval import (
    BLOCKED,
    PASSING,
    LayerBounds,
    PhaseMap,
    propagate_box,
    refine_with_fixed_phases,
)
from .model import BoxDomain, Linear, MaxPool, Network, Relu

MAYBE_SAT = "maybe_sat"
UNSAT = "unsat"

_SAFETY = 1e-9  # outward slack applied to LP-tightened bounds


@dataclass
class HullUnit:
    layer: int
    unit: int
    var_pre: int
    var_post: int
    row_lower: int  # x - x_hat >= 0
    row_upper: int | None  # chord row; None in reluplex mode
    lb: float
    ub: float


@dataclass
class PlanetModel:
    """LP relaxation plus the bookkeeping needed to query it."""

    model: lp.LpModel | None
    output_var: int | None  # None encodes a constant-zero output
    input_vars: list[int]
    bounds: LayerBounds | None
    hull_units: list[HullUnit] = field(default_factory=list)
    infeasible: bool = False
    basis: lp.Basis | None = None  # start of the next LP over ``model``


def _encode(
    net: Network,
    box: BoxDomain,
    phases: PhaseMap | None,
    tighten: bool,
    mode: str,
) -> PlanetModel:
    base = propagate_box(net, box)
    refined = refine_with_fixed_phases(net, base, phases or {})
    if refined is None:
        return PlanetModel(None, None, [], None, [], infeasible=True)

    model = lp.LpModel()
    basis = lp.Basis()

    def add_row(coefs: dict[int, float], rel: str, rhs: float, crash: int | None = None) -> int:
        """Add a row with its crash column: ``crash`` basic, or the row's slack."""
        basis.basic.append(~len(model.rows) if crash is None else crash)
        return model.add_row(coefs, rel, rhs)

    input_vars = [model.add_var(box.lb[j], box.ub[j]) for j in range(box.size)]
    prev: list[int | None] = list(input_vars)
    cur_lb, cur_ub = box.lb.copy(), box.ub.copy()
    out = refined.copy()
    hull_units: list[HullUnit] = []

    for i, layer in enumerate(net.layers):
        if isinstance(layer, Linear):
            wp = np.maximum(layer.weight, 0.0)
            wn = np.minimum(layer.weight, 0.0)
            lo = np.maximum(wp @ cur_lb + wn @ cur_ub + layer.bias, refined.pre_lb[i])
            hi = np.minimum(wp @ cur_ub + wn @ cur_lb + layer.bias, refined.pre_ub[i])
            new_vars: list[int | None] = []
            for j in range(layer.out_width):
                v = model.add_var(lo[j], hi[j])
                coefs = {v: 1.0}
                for k, p in enumerate(prev):
                    if p is not None and layer.weight[j, k] != 0.0:
                        coefs[p] = coefs.get(p, 0.0) - layer.weight[j, k]
                add_row(coefs, lp.EQ, float(layer.bias[j]), crash=v)
                new_vars.append(v)
            prev = new_vars
            cur_lb, cur_ub = lo, hi
            out.pre_lb[i], out.pre_ub[i] = lo.copy(), hi.copy()
            out.post_lb[i], out.post_ub[i] = lo.copy(), hi.copy()

        elif isinstance(layer, Relu):
            lo = np.maximum(cur_lb, refined.pre_lb[i])
            hi = np.minimum(cur_ub, refined.pre_ub[i])
            for j, p in enumerate(prev):
                model.lower[p] = max(model.lower[p], float(lo[j]))
                model.upper[p] = min(model.upper[p], float(hi[j]))
            # over the input box the interval bound of one affine layer is
            # exact, so its LPs cannot move it unless a phase of this layer
            # cuts the box
            exact = i == 1 and isinstance(net.layers[0], Linear) and not any(l == i for l, _ in phases or {})
            if tighten and not exact:
                for j, p in enumerate(prev):
                    if not (lo[j] < 0.0 < hi[j]):
                        continue
                    sol_min = lp.solve(model.with_objective({p: 1.0}), basis)
                    if sol_min.status == lp.INFEASIBLE:
                        return PlanetModel(None, None, [], None, [], infeasible=True)
                    sol_max = lp.solve(model.with_objective({p: -1.0}), basis)
                    lo[j] = max(lo[j], sol_min.objective - _SAFETY)
                    hi[j] = min(hi[j], -sol_max.objective + _SAFETY)
                    model.lower[p] = float(lo[j])
                    model.upper[p] = float(hi[j])
            new_vars = []
            for j, p in enumerate(prev):
                l, u = float(lo[j]), float(hi[j])
                phase = (phases or {}).get((i, j))
                if phase == BLOCKED or u <= 0.0:
                    new_vars.append(None)
                elif phase == PASSING or l >= 0.0:
                    new_vars.append(p)
                else:
                    x = model.add_var(0.0, u)
                    r_low = add_row({x: 1.0, p: -1.0}, lp.GE, 0.0)
                    r_up = None
                    if mode == "planet":
                        r_up = add_row({x: u - l, p: -u}, lp.LE, -u * l, crash=x)
                    else:
                        basis.at_upper.add(x)
                    hull_units.append(HullUnit(i, j, p, x, r_low, r_up, l, u))
                    new_vars.append(x)
            prev = new_vars
            p_lo = np.maximum(lo, 0.0)
            p_hi = np.maximum(hi, 0.0)
            for j in range(len(prev)):
                if prev[j] is None:
                    p_lo[j] = p_hi[j] = 0.0
            cur_lb, cur_ub = p_lo, p_hi
            out.pre_lb[i], out.pre_ub[i] = lo.copy(), hi.copy()
            out.post_lb[i], out.post_ub[i] = p_lo.copy(), p_hi.copy()

        else:  # MaxPool hull
            p_lo = np.array([np.max(cur_lb[list(g)]) for g in layer.groups])
            p_hi = np.array([np.max(cur_ub[list(g)]) for g in layer.groups])
            new_vars = []
            for gi, g in enumerate(layer.groups):
                y = model.add_var(p_lo[gi], p_hi[gi])
                coefs = {y: 1.0}
                for k in g:
                    add_row({y: 1.0, prev[k]: -1.0}, lp.GE, 0.0)
                    coefs[prev[k]] = -1.0
                lbs = cur_lb[list(g)]
                add_row(coefs, lp.LE, float(-np.sum(lbs) + np.max(lbs)), crash=y)
                new_vars.append(y)
            prev = new_vars
            cur_lb, cur_ub = p_lo, p_hi
            out.post_lb[i], out.post_ub[i] = p_lo.copy(), p_hi.copy()

    output_var = prev[0] if prev else None
    return PlanetModel(model, output_var, input_vars, out, hull_units, basis=basis)


def build_planet(
    net: Network,
    box: BoxDomain,
    phases: PhaseMap | None = None,
    tighten: bool = False,
) -> PlanetModel:
    """Hull relaxation of the canonical network over the (sub)domain."""
    return _encode(net, box, phases, tighten, "planet")


def build_reluplex(net: Network, box: BoxDomain, phases: PhaseMap | None = None) -> PlanetModel:
    """The looser relaxation: box rows plus x >= x_hat only."""
    if any(isinstance(l, MaxPool) for l in net.layers):
        raise ValueError("reluplex relaxation requires a ReLU-only network (lower MaxPools first)")
    return _encode(net, box, phases, False, "reluplex")


def _minimise_output(pm: PlanetModel) -> tuple[float, np.ndarray | None]:
    if pm.infeasible:
        return np.inf, None
    if pm.output_var is None:
        return 0.0, None
    sol = lp.solve(pm.model.with_objective({pm.output_var: 1.0}), pm.basis)
    if sol.status == lp.INFEASIBLE:
        return np.inf, None
    return sol.objective, sol.x[: len(pm.input_vars)]


def planet_lower_bound_with_point(pm: PlanetModel) -> tuple[float, np.ndarray | None]:
    """LP minimum of the output variable (+inf prunes an infeasible
    subdomain) plus the input coordinates of the LP minimiser."""
    return _minimise_output(pm)


def reluplex_lower_bound(net: Network, box: BoxDomain, phases: PhaseMap | None = None) -> tuple[float, np.ndarray | None]:
    return _minimise_output(build_reluplex(net, box, phases))


def reluplex_feasible(net: Network, box: BoxDomain, phases: PhaseMap | None = None) -> str:
    """Feasibility of the loose relaxation plus the counterexample row.

    UNSAT proves no counterexample exists in the subdomain; MAYBE_SAT says
    nothing either way (the relaxation is strictly looser than the hull).
    """
    pm = build_reluplex(net, box, phases)
    if pm.infeasible:
        return UNSAT
    if pm.output_var is None:
        return MAYBE_SAT  # constant zero output satisfies <= 0
    model = pm.model.copy()
    model.add_row({pm.output_var: 1.0}, lp.LE, 0.0)
    model.set_objective(np.zeros(model.num_vars))
    return MAYBE_SAT if lp.solve(model).status == lp.OPTIMAL else UNSAT


def fast_dual_bound(net: Network, box: BoxDomain, bounds: LayerBounds) -> float:
    """Backward-pass lower bound on the scalar output; no LP involved.

    Maintains the affine under-estimator g . v + kappa through the layers in
    reverse. Through Linear(W, b): kappa += g . b and g <- W^T g. Through an
    ambiguous ReLU with bounds (l, u) and d = u/(u-l): negative coefficients
    pay kappa += (-l) d min(g, 0) (the chord intercept) and every coefficient
    scales to d g. At the input the box minimum of the affine form is added.
    """
    g = np.ones(1)
    kappa = 0.0
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if isinstance(layer, Linear):
            kappa += float(g @ layer.bias)
            g = layer.weight.T @ g
        elif isinstance(layer, Relu):
            l = bounds.pre_lb[i]
            u = bounds.pre_ub[i]
            for j in range(len(g)):
                if u[j] <= 0.0:
                    g[j] = 0.0
                elif l[j] >= 0.0:
                    continue
                else:
                    d = u[j] / (u[j] - l[j])
                    kappa += (-l[j]) * d * min(g[j], 0.0)
                    g[j] = d * g[j]
        else:
            raise ValueError("fast dual bound requires a ReLU-only network")
    kappa += float(np.sum(np.where(g >= 0.0, g * box.lb, g * box.ub)))
    return kappa
