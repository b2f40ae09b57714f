"""Convex relaxations of ReLU networks and the fast dual lower bound.

Two LP relaxations of a ReLU-only network (``canon.lower_maxpools`` rewrites
MaxPools first; an unlowered one raises ``ValueError``) are built layer by
layer over variables for the inputs, every affine output (x_hat) and every
activation output (x):

* the tight hull ("planet" mode): an ambiguous unit (l < 0 < u) contributes
  x >= 0 (variable bound), x >= x_hat, and the upper chord
  x <= u (x_hat - l) / (u - l), written as (u-l) x - u x_hat <= -u l;
* the loose relaxation ("reluplex" mode): only x >= 0, x >= x_hat, x <= u,
  keeping the box part but dropping the chord.

Units fixed by sign (bounds or an explicit phase) are encoded exactly:
blocked contributes the constant 0, passing aliases x to x_hat.

The bounds of each layer come from ``interval.pre_bounds`` and
``interval.post_bounds`` applied to the previous layer's bounds as this
encoding left them, tightened or not; without tightening they are the
bytes of ``interval.propagate_box``. A fixed phase that the bounds reaching
its layer contradict makes the relaxation ``infeasible`` on the spot, with
no further LP solved.

Optional bound tightening re-derives every ambiguous unit's pre-activation
range before that unit's ReLU is encoded, in one of two ways. By default it
minimises/maximises the unit's variable over the partial model built so far
(two LPs per unit); phase sets and the MIP encodings read these bounds. A
caller that reads only the output LP's minimum, not ``bounds``
(``output_only``; the input-split search), takes them instead from one
LP-free backward pass per ReLU layer (``backward_bounds``) over the bounds
already encoded for the layers before it, and so solves only the output
LP. Either way a ReLU layer fed by one Linear layer straight from the input
box is skipped unless one of its units has a fixed phase: the interval
bound of an affine map over a box is exact, so tightening could only return
it. A tightened bound is widened outward by ``_SAFETY`` and kept inside the
interval bound, so it cuts no feasible point up to that slack. A backward
pair that widening leaves inverted, which only rounding can cause (an input
box is never empty), keeps its interval bounds. A tightening LP that fails
numerically (``lp.NumericalFailure``) leaves its unit with the interval
bounds it had, which are sound, and the encoding goes on.

The model is written one block per layer (``lp.LpModel.add_block``): a
Linear layer is [-W | I] with its bias (``add_linear``), a ReLU layer the
rows of its ambiguous units, placed by index arithmetic. Each row comes
with a crash column that keeps the block crash basis primal-feasible
without pivoting (inputs start at their lower bounds):

* a Linear equality row: its x_hat basic;
* a hull unit: x basic in its chord row (x then sits on the chord, inside
  [max(0, x_hat), u]) and the slack basic in its x >= x_hat row;
* a reluplex unit: x nonbasic at its upper bound u, the slack basic.

Every LP over one relaxation starts warm. Each tightening LP of a layer
starts from a crash basis of its own (``_crash_starts``): for all the
layer's objective rows +-e_j at once, one stacked adaptive
``backward_pass`` through the layers below records the faces CROWN's pass
takes (the chord where a unit's coefficient is negative, else the lower
face) and the input corner, and one stacked forward pass at those corners
places the vertex on them. Such a vertex is a point of the relaxation and
often the LP's optimum. A layer's tightened bounds are written once all its
LPs have run: they are implied by the layers below, so every LP of the
layer reads the same model and the same standard form, which
``with_objective`` clones share. Where a fixed phase cuts a row's crash
point out of the model, its LP starts instead from the last optimum the
layer returned, or before any from the basis carried into the layer: the
last optimum of the layers before (none: the block crash basis), extended
by the new rows' crash columns. The carried basis also starts the output
LP; tightened bounds contain every feasible point, so an optimum stays
feasible. An LP that fails numerically leaves it as it was. Where a start
is infeasible after all (a bound cut by fixed ReLU phases or by the
backward pass), ``lp.solve`` either repairs it with dual pivots or starts
again from its slack basis. Either way an infeasible phase set is reported
only through a checked Farkas row.

Every LP-free bound and every crash start's faces come from one kernel,
``backward_pass``, which carries an affine under-estimator g . (layer
value) + kappa of a stack of objective rows back to the input box, where
its box minimum is exact. The fast dual bound is its one-row call over the
scalar output with the chord lower slope d = u/(u-l), a feasible dual value
of the hull LP: ambiguous units scale their coefficient by d; negative ones
also pay (-l) d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp
from .interval import PASSING, LayerBounds, PhaseMap, post_bounds, pre_bounds
from .model import BoxDomain, Linear, Network, Relu, is_relu_only

MAYBE_SAT = "maybe_sat"
UNSAT = "unsat"

_SAFETY = 1e-9  # outward slack applied to tightened bounds


@dataclass
class HullUnit:
    layer: int
    unit: int
    var_post: int
    row_lower: int  # x - x_hat >= 0
    lb: float
    ub: float


@dataclass
class PlanetModel:
    """LP relaxation plus the bookkeeping needed to query it."""

    model: lp.LpModel | None  # its first ``box.size`` variables are the inputs
    box: BoxDomain
    output_var: int  # -1 when infeasible
    bounds: LayerBounds | None
    hull_units: list[HullUnit] = field(default_factory=list)
    infeasible: bool = False
    basis: lp.Basis | None = None  # start of the next LP over ``model``


def add_linear(model: lp.LpModel, layer: Linear, prev: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Add a Linear layer's rows x_hat - W prev = b to ``model`` as one
    [-W | I] block over new variables x_hat in [lo, hi]; those variables.
    ``prev`` holds the layer's input variables, -1 for a constant zero, whose
    column stays +0.0, as does a zero weight's entry."""
    n, out = model.num_vars, layer.out_width
    block = np.zeros((out, n + out + 1))  # a -1 in prev writes into the last column, which is dropped
    block[:, prev] = 0.0 - layer.weight  # -w, and +0.0 for w = 0
    block.ravel()[n :: n + out + 2] = 1.0  # I over the new columns
    model.add_block(block[:, :-1], [lp.EQ] * out, layer.bias, lo, hi)
    return np.arange(n, n + out)


def backward_pass(layers: tuple, g: np.ndarray, lb, ub, pre_lb: list, pre_ub: list, adaptive=None, faces=None) -> np.ndarray:
    """Lower bound of each objective row g[r] . v, where v is the output of
    the ReLU-only ``layers``, over the box [lb, ub] and the layers' bounds
    ``pre_lb``, ``pre_ub``, each shared by all rows (1-D) or given per row
    (2-D), and read only at ReLU layers.

    Through Linear(W, b): kappa += g . b and g <- g W. At an ambiguous ReLU
    a negative coefficient's unit is bounded by its chord d (x_hat - l), a
    positive one's by s x_hat with a lower slope s: the chord's slope d in
    every row when ``adaptive`` is None, so every coefficient scales by d;
    otherwise CROWN's adaptive slope (1 if u > -l, else 0) in the rows where
    ``adaptive`` is true and 0 in the others. Every step is elementwise or
    takes one row at a time (``np.vecdot``, ``np.vecmat``: a dot or a
    matrix-vector product per row, never a matrix-matrix one), so a row's
    value does not depend on the rows stacked with it.

    A ``faces`` dict (shared bounds only) receives the faces taken and
    changes nothing else: under each ReLU layer's index the chord mask, one
    column per ambiguous unit; under -1 the mask of the negative final
    coefficients, the inputs where each row's box minimum takes ``ub``.
    """
    if adaptive is not None:
        adaptive = np.reshape(adaptive, (-1, 1))
    kappa = np.zeros(len(g))
    for i, (layer, l, u) in reversed(list(enumerate(zip(layers, pre_lb, pre_ub)))):
        if isinstance(layer, Linear):
            kappa += np.vecdot(g, layer.bias)
            g = np.vecmat(g, layer.weight)
            continue
        if not isinstance(layer, Relu):
            raise ValueError("the backward pass requires a ReLU-only network (lower MaxPools first)")
        amb = (l < 0.0) & (u > 0.0)
        if faces is not None:
            faces[i] = (g < 0.0)[:, amb]
        flat = (l >= 0.0) * 1.0  # 1 for a passing unit, 0 for a blocked or ambiguous one
        chord = np.divide(u, u - l, out=flat.copy(), where=amb)
        neg = np.minimum(g, 0.0)
        kappa -= np.vecdot(neg, np.minimum(l, 0.0) * chord)  # the chord intercepts (-l) d
        if adaptive is None:
            g = g * chord
        else:
            g = neg * chord + (g - neg) * (flat + adaptive * (amb & (u > -l)))
    if faces is not None:
        faces[-1] = g < 0.0
    return kappa + np.vecdot(g, np.where(g >= 0.0, lb, ub))


def _crash_starts(
    model: lp.LpModel, layers: tuple, box: BoxDomain, bounds: LayerBounds, units: list[HullUnit], g: np.ndarray
) -> list[lp.Basis | None]:
    """One start for each LP over ``model`` that minimises an objective row
    g[r] over the output of ``layers``, all layers that ``model`` encodes:
    the vertex on the faces the adaptive ``backward_pass`` takes over
    ``bounds``, at the row's input corner, built from the Linear blocks'
    variables and the hull ``units`` as the block crash columns are:

    * each x_hat basic in its Linear row, each input nonbasic at its corner;
    * a chord unit: x and the slack of its x >= x_hat row basic;
    * a unit on its lower face where x_hat >= 0 there (active): x and its
      chord slack basic, the x >= x_hat slack at its upper bound 0;
    * one where x_hat < 0 (inactive): both slacks basic, x at 0.

    A row's start is None when its point lies outside an x_hat bound of
    ``model`` by more than ``lp.TOL_FEAS``, as a fixed phase can cut it."""
    faces: dict[int, np.ndarray] = {}
    backward_pass(layers, g, box.lb, box.ub, bounds.pre_lb, bounds.pre_ub, True, faces)
    v = np.where(faces[-1], box.ub, box.lb)  # each row's value of the current layer
    basic = np.empty((len(v), len(model.rhs)), dtype=np.intp)
    inside = np.ones(len(v), dtype=bool)
    columns, at_upper = [np.arange(box.size)], [faces[-1]]  # the columns that may start at their upper bound
    n, m = box.size, 0  # the block's first variable and first row
    for i, layer in enumerate(layers):
        if isinstance(layer, Linear):
            v = v @ layer.weight.T + layer.bias
            x_hat = np.arange(n, n + len(layer.bias))
            inside &= ((v >= model.lower[x_hat] - lp.TOL_FEAS) & (v <= model.upper[x_hat] + lp.TOL_FEAS)).all(axis=1)
            basic[:, m : m + len(x_hat)] = x_hat
            n, m = n + len(x_hat), m + len(x_hat)
            continue
        hull = [h for h in units if h.layer == i]
        j, x, low = np.array([(h.unit, h.var_post, h.row_lower) for h in hull], dtype=np.intp).reshape(-1, 3).T
        l, u = np.array([(h.lb, h.ub) for h in hull]).reshape(-1, 2).T
        chord, pre = faces[i], v[:, j]
        active = ~chord & (pre >= 0.0)
        v = np.where(bounds.pre_ub[i] > 0.0, v, 0.0)  # a passing unit keeps x_hat, a blocked one is 0
        v[:, j] = np.where(chord, u * (pre - l) / (u - l), np.maximum(pre, 0.0))
        basic[:, low] = np.where(active, x, ~low)
        basic[:, low + 1] = np.where(chord, x, ~(low + 1))
        columns.append(~low)
        at_upper.append(active)
        n, m = n + len(hull), m + 2 * len(hull)
    columns, at_upper = np.concatenate(columns), np.concatenate(at_upper, axis=1)
    return [
        lp.Basis(tuple(cols), frozenset(columns[up].tolist())) if ok else None
        for cols, up, ok in zip(basic.tolist(), at_upper, inside)
    ]


def backward_bounds(
    net: Network, i: int, box: BoxDomain, bounds: LayerBounds, units: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the ``units`` of layer ``i``'s input over
    the box, from one ``backward_pass`` through layers ``i - 1`` down to 0
    over the ReLU bounds ``bounds.pre_*`` of those layers: the rows [I; -I]
    over ``units`` with CROWN's adaptive lower slope (Zhang et al., arXiv
    1811.00866) and again with lower slope 0 (Wong & Kolter, arXiv
    1711.00851), the tighter of the two per bound."""
    k = len(units)
    eye = np.eye(len(bounds.post_lb[i - 1]))[units]
    rows, adaptive = np.concatenate([eye, -eye] * 2), np.repeat((True, False), 2 * k)
    kappa = backward_pass(net.layers[:i], rows, box.lb, box.ub, bounds.pre_lb[:i], bounds.pre_ub[:i], adaptive)
    low = np.maximum(kappa[:k], kappa[2 * k : 3 * k])
    high = -np.maximum(kappa[k : 2 * k], kappa[3 * k :])
    return low, high


def fast_dual_bound(net: Network, box: BoxDomain, bounds: LayerBounds) -> float:
    """Lower bound on the scalar output with no LP: the one-row
    ``backward_pass`` with the chord lower slope, a dual-feasible value of
    the hull LP over ``bounds`` (Wong & Kolter, arXiv 1711.00851)."""
    return float(backward_pass(net.layers, np.ones((1, 1)), box.lb, box.ub, bounds.pre_lb, bounds.pre_ub)[0])


def _encode(
    net: Network,
    box: BoxDomain,
    phases: PhaseMap | None,
    tighten: bool,
    mode: str,
    output_only: bool = False,
) -> PlanetModel:
    if not is_relu_only(net):
        raise ValueError("relaxation requires a ReLU-only network (lower MaxPools first)")
    if not isinstance(net.layers[-1], Linear):
        raise ValueError("relaxation requires a network that ends in a Linear layer")
    infeasible = PlanetModel(None, box, -1, None, [], infeasible=True)
    model = lp.LpModel(box.lb, box.ub)
    basis = lp.Basis()
    prev = np.arange(box.size)  # the variable of each unit of the last layer, -1 for a constant zero
    cur_lb, cur_ub = box.lb, box.ub
    out = LayerBounds([], [], [], [])
    hull_units: list[HullUnit] = []

    for i, layer in enumerate(net.layers):
        pre = pre_bounds(layer, i, cur_lb, cur_ub, phases)
        if pre is None:
            return infeasible
        lo, hi = pre
        if isinstance(layer, Linear):
            prev = add_linear(model, layer, prev, lo, hi)
            basis = basis.extended(prev.tolist())  # each x_hat basic in its row

        else:  # Relu, whose inputs are the variables of the Linear before it
            fixed = {j: phase for (l, j), phase in (phases or {}).items() if l == i}
            # over the input box the interval bound of one affine layer is
            # exact, so tightening cannot move it unless a phase of this
            # layer cuts the box
            exact = i == 1 and isinstance(net.layers[0], Linear) and not fixed
            ambiguous = np.flatnonzero((lo < 0.0) & (hi > 0.0))
            if tighten and output_only and not exact and len(ambiguous):
                low, high = backward_bounds(net, i, box, out, ambiguous)
                low = np.maximum(lo[ambiguous], low - _SAFETY)
                high = np.minimum(hi[ambiguous], high + _SAFETY)
                # the box is never empty: a pair that rounding inverted
                # keeps its interval bounds
                ok = low <= high
                lo[ambiguous[ok]] = low[ok]
                hi[ambiguous[ok]] = high[ok]
            model.lower[prev] = lo
            model.upper[prev] = hi
            if tighten and not output_only and not exact and len(ambiguous):
                # a start per row +-e_j of the ambiguous units, min rows first;
                # where one is None, the last optimum stands in
                eye, k = np.eye(len(lo))[ambiguous], len(ambiguous)
                starts = _crash_starts(model, net.layers[:i], box, out, hull_units, np.concatenate([eye, -eye]))
                low, high = lo.copy(), hi.copy()
                for t, j in enumerate(ambiguous.tolist()):
                    p = int(prev[j])
                    try:
                        sol_min = lp.solve(model.with_objective({p: 1.0}), starts[t] or basis)
                        if sol_min.status == lp.INFEASIBLE:
                            return infeasible
                        basis = sol_min.basis
                        sol_max = lp.solve(model.with_objective({p: -1.0}), starts[k + t] or basis)
                        if sol_max.status == lp.INFEASIBLE:
                            return infeasible
                        basis = sol_max.basis
                    except lp.NumericalFailure:
                        continue  # the unit keeps its interval bounds, which are sound
                    low[j] = max(lo[j], sol_min.objective - _SAFETY)
                    high[j] = min(hi[j], -sol_max.objective + _SAFETY)
                # written once every LP of the layer has run: the bounds are
                # implied by the layers below, so each LP reads the same model
                lo, hi = low, high
                model.lower[prev] = lo
                model.upper[prev] = hi
            blocked, passing = hi <= 0.0, lo >= 0.0
            for j, phase in fixed.items():
                (passing if phase == PASSING else blocked)[j] = True
            # one block over the outputs x in [0, u] of the ambiguous units:
            # per unit x - x_hat >= 0 (its slack basic), then in planet mode
            # the chord (u-l) x - u x_hat <= -u l (x basic); in reluplex mode
            # x starts at its upper bound
            hull = np.flatnonzero(~(blocked | passing))
            k, n, m, per = len(hull), model.num_vars, len(model.rhs), 2 if mode == "planet" else 1
            p, l, u, x = prev[hull], lo[hull], hi[hull], np.arange(n, n + k)
            t = np.arange(0, per * k, per)  # each unit's first row in the block
            block, rhs = np.zeros((per * k, n + k)), np.zeros((k, per))
            block[t, x], block[t, p] = 1.0, -1.0
            low = (m + t).tolist()
            if mode == "planet":
                block[t + 1, x], block[t + 1, p] = u - l, -u
                rhs[:, 1] = -u * l
                basis = basis.extended([c for r, v in zip(low, x.tolist()) for c in (~r, v)])
            else:
                basis = basis.extended([~r for r in low], x.tolist())
            model.add_block(block, [lp.GE, lp.LE][:per] * k, rhs.ravel(), np.zeros(k), u)
            hull_units += map(HullUnit, [i] * k, hull.tolist(), x.tolist(), low, l.tolist(), u.tolist())
            prev = np.where(blocked, -1, prev)
            prev[hull] = x
        cur_lb, cur_ub = post_bounds(layer, lo, hi)
        out.pre_lb.append(lo)
        out.pre_ub.append(hi)
        out.post_lb.append(cur_lb)
        out.post_ub.append(cur_ub)

    return PlanetModel(model, box, int(prev[0]), out, hull_units, basis=basis)


def build_planet(
    net: Network,
    box: BoxDomain,
    phases: PhaseMap | None = None,
    tighten: bool = False,
    output_only: bool = False,
) -> PlanetModel:
    """Hull relaxation of the canonical network over the (sub)domain.

    ``output_only`` says the caller reads only the output LP's minimum, not
    ``bounds``: tightening then takes the intermediate bounds from the
    backward pass (``backward_bounds``) instead of LPs."""
    return _encode(net, box, phases, tighten, "planet", output_only)


def build_reluplex(net: Network, box: BoxDomain, phases: PhaseMap | None = None) -> PlanetModel:
    """The looser relaxation: box rows plus x >= x_hat only."""
    return _encode(net, box, phases, False, "reluplex")


def planet_lower_bound_with_point(pm: PlanetModel) -> tuple[float, np.ndarray | None]:
    """LP minimum of the output variable (+inf prunes an infeasible
    subdomain) plus the input coordinates of the LP minimiser; for either
    relaxation mode."""
    if pm.infeasible:
        return np.inf, None
    sol = lp.solve(pm.model.with_objective({pm.output_var: 1.0}), pm.basis)
    if sol.status == lp.INFEASIBLE:
        return np.inf, None
    return sol.objective, sol.x[: pm.box.size]


def reluplex_lower_bound(net: Network, box: BoxDomain, phases: PhaseMap | None = None) -> tuple[float, np.ndarray | None]:
    return planet_lower_bound_with_point(build_reluplex(net, box, phases))


def reluplex_feasible(net: Network, box: BoxDomain, phases: PhaseMap | None = None) -> str:
    """Feasibility of the loose relaxation plus the counterexample row
    output <= 0, answered by the sign of its minimum: the row is feasible
    exactly when the minimum is <= 0.

    UNSAT proves no counterexample exists in the subdomain; MAYBE_SAT says
    nothing either way (the relaxation is strictly looser than the hull).
    """
    return UNSAT if reluplex_lower_bound(net, box, phases)[0] > 0.0 else MAYBE_SAT
