"""Big-M mixed-integer encodings and an in-repo branch-and-bound over them.

Each ambiguous ReLU unit gets one binary phase variable delta and the four
big-M constraints

    x >= 0          x <= u . delta
    x >= x_hat      x <= x_hat - l . (1 - delta)

so that delta = 0 forces x = 0 (and x_hat <= 0) while delta = 1 forces
x = x_hat (and x_hat >= 0). The symmetric variant substitutes the single
constant M = max(-l, u) for both -l and u, a deliberately looser but
otherwise identical encoding. Sign-fixed units are encoded exactly with no
binary. MaxPool groups use one binary per element, y >= x_k,
y <= x_k + (U - l_k)(1 - delta_k) with U the group upper bound, and
sum_k delta_k = 1.

Intermediate bounds come either from interval propagation or from the
tightened hull relaxation (better bounds, more work to obtain; it needs a
ReLU-only net). The native MaxPool encoding stays, over interval bounds,
for the MaxPool equivalence check of acceptance criterion 8.

The search relaxes unfixed binaries to [0, 1] and branches best-bound-first
on the most fractional one. Every node relaxation minimises the output: an
integral point with output <= 0 that passes forward validation stops the
search with SAT, and a positive global lower bound proves the property.
The feasibility form of the question (is "output <= 0" satisfiable?) needs
no separate model: the row is feasible exactly when the minimum is <= 0,
and minimising also yields the margin of an UNSAT instance. Candidates
whose LP solution fails forward validation are counted as spurious and the
search continues past them.

Node LPs start warm. The root is given ``lp.slack_basis`` as its start,
which is dual feasible; as a given start, its dual pass stops at the
feasibility tolerance of a warm repair. Each queued node keeps the final
``lp.Basis`` of its LP, and both children start from a copy of it. A child
differs from its parent only in one pinned binary, so that basis stays dual
feasible and ``lp.solve`` repairs it with dual simplex pivots, with no cold
start. An optimum reached this way can be another vertex among ties than a
cold solve's, so the branching binary can differ from a cold search, and
with it the node count and an UNSAT margin (the smallest pruned bound of
the tree searched); each node LP's value and the verdict do not. Every node LP
is a clone of the encoding's model with pinned bounds, so all of them
share its row matrix and [rows | I]; only the slack bounds are computed
per node.

A node LP that fails numerically does not end the run: the node takes its
parent's bound (-inf at the root) and branches on its first unfixed binary
from its start basis; a fully pinned node keeps that bound under the margin.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .bab import SAT, TIMEOUT, UNSAT, BabResult
from .canon import validate_point
from .interval import LayerBounds, propagate_box
from .model import BoxDomain, Linear, Network, Relu, forward_eval
from .relax import build_planet, linear_rows

ASYM = "asym"
SYM = "sym"
BOUNDS_INTERVAL = "interval"
BOUNDS_PLANET = "planet"

_INT_TOL = 1e-6  # |delta - round(delta)| below this counts as integral


@dataclass(frozen=True)
class MipVariant:
    encoding: str = ASYM
    bounds_source: str = BOUNDS_PLANET

    def __post_init__(self):
        if self.encoding not in (ASYM, SYM):
            raise ValueError(f"unknown encoding {self.encoding!r}")
        if self.bounds_source not in (BOUNDS_INTERVAL, BOUNDS_PLANET):
            raise ValueError(f"unknown bounds source {self.bounds_source!r}")


# The three variants reported in the comparison experiments.
PLANET_OPT = MipVariant(ASYM, BOUNDS_PLANET)
INTERVAL_VARIANT = MipVariant(ASYM, BOUNDS_INTERVAL)
PLANET_SYMFEASIBLE = MipVariant(SYM, BOUNDS_PLANET)


@dataclass
class EncodedMip:
    net: Network
    box: BoxDomain
    model: lp.LpModel  # full encoding, output minimised
    output_var: int | None
    int_vars: list[int]
    input_vars: list[int] = field(default_factory=list)
    relu_units: list[tuple[int, int, int, int, int]] = field(default_factory=list)
    # (layer, unit, delta_var, pre_var, post_var)
    pool_groups: list[tuple[int, int, list[int], int]] = field(default_factory=list)
    # (layer, group, delta_vars, y_var)


def compute_bounds(net: Network, box: BoxDomain, source: str) -> LayerBounds:
    if source == BOUNDS_INTERVAL:
        return propagate_box(net, box)
    pm = build_planet(net, box, tighten=True)
    if pm.infeasible or pm.bounds is None:
        raise RuntimeError("bound tightening reported an infeasible full domain")
    return pm.bounds


def encode_mip(net: Network, box: BoxDomain, variant: MipVariant) -> EncodedMip:
    """Build the big-M model; one binary per ambiguous unit, none elsewhere."""
    bounds = compute_bounds(net, box, variant.bounds_source)
    model = lp.LpModel()
    input_vars = [model.add_var(box.lb[j], box.ub[j]) for j in range(box.size)]
    prev: list[int | None] = list(input_vars)
    int_vars: list[int] = []
    relu_units: list[tuple[int, int, int, int, int]] = []
    pool_groups: list[tuple[int, int, list[int], int]] = []

    for i, layer in enumerate(net.layers):
        if isinstance(layer, Linear):
            first = model.num_vars
            for j, row in enumerate(linear_rows(layer.weight, prev, first)):
                model.add_var(bounds.pre_lb[i][j], bounds.pre_ub[i][j])
                model.add_row(row, lp.EQ, float(layer.bias[j]))
            prev = list(range(first, model.num_vars))
        elif isinstance(layer, Relu):
            new_vars = []
            for j, p in enumerate(prev):
                l = float(bounds.pre_lb[i][j])
                u = float(bounds.pre_ub[i][j])
                if u <= 0.0:
                    new_vars.append(None)
                elif l >= 0.0:
                    new_vars.append(p)
                else:
                    if variant.encoding == SYM:
                        m_const = max(-l, u)
                        l, u = -m_const, m_const
                    x = model.add_var(0.0, u)
                    d = model.add_var(0.0, 1.0)
                    model.add_row({x: 1.0, p: -1.0}, lp.GE, 0.0)
                    model.add_row({x: 1.0, d: -u}, lp.LE, 0.0)
                    model.add_row({x: 1.0, p: -1.0, d: -l}, lp.LE, -l)
                    int_vars.append(d)
                    relu_units.append((i, j, d, p, x))
                    new_vars.append(x)
            prev = new_vars
        else:  # MaxPool
            new_vars = []
            for gi, g in enumerate(layer.groups):
                g_lo = bounds.pre_lb[i][list(g)]
                g_hi = bounds.pre_ub[i][list(g)]
                u_all = float(np.max(g_hi))
                y = model.add_var(float(np.max(g_lo)), u_all)
                deltas = []
                sum_row = {}
                for idx, k in enumerate(g):
                    d = model.add_var(0.0, 1.0)
                    big = u_all - float(g_lo[idx])
                    model.add_row({y: 1.0, prev[k]: -1.0}, lp.GE, 0.0)
                    model.add_row({y: 1.0, prev[k]: -1.0, d: big}, lp.LE, big)
                    sum_row[d] = 1.0
                    deltas.append(d)
                    int_vars.append(d)
                model.add_row(sum_row, lp.EQ, 1.0)
                pool_groups.append((i, gi, deltas, y))
                new_vars.append(y)
            prev = new_vars

    output_var = prev[0] if prev else None
    model.set_objective({output_var: 1.0} if output_var is not None else np.zeros(model.num_vars))
    return EncodedMip(net, box, model, output_var, int_vars, input_vars, relu_units, pool_groups)


def _pinned(base: lp.LpModel, fixes: dict[int, int]) -> lp.LpModel:
    model = base.with_objective(base.objective)  # shares the row part of the standard form
    for var, val in fixes.items():
        model.lower[var] = float(val)
        model.upper[var] = float(val)
    return model


def solve_mip(
    enc: EncodedMip,
    timeout: float = np.inf,
    node_cap: int = 1_000_000,
) -> BabResult:
    """Best-bound branch-and-bound on the binaries of the encoding.

    Node relaxations minimise the output with unfixed binaries relaxed to
    [0, 1]. A node whose bound is positive is pruned (it cannot contain a
    counterexample); a relaxation solution with integral binaries is a
    candidate, accepted as SAT only after forward validation. Unvalidated
    candidates are counted as spurious and the search branches on past them.
    The property is UNSAT once every open bound is positive; the margin is
    the smallest bound that was pruned.
    """
    t0 = time.monotonic()
    n_in = len(enc.input_vars)

    nodes = 0
    seq = 0
    spurious = 0
    margin_floor = np.inf  # min lower bound over pruned/resolved nodes
    best_seen = np.inf  # best validated forward value at a candidate
    queue: list = []  # (lb, seq, fixes, branch_var, final basis of the node LP)

    def elapsed() -> float:
        return time.monotonic() - t0

    def open_lb() -> float:
        return min(queue[0][0] if queue else np.inf, margin_floor)

    def result(status: str, glb: float, point=None) -> BabResult:
        res = BabResult(
            status=status,
            nodes=nodes,
            wall_time=elapsed(),
            best_lb=glb,
            best_ub=best_seen,
            spurious_candidates=spurious,
        )
        if status == UNSAT:
            res.margin = glb
        elif status == SAT:
            res.counterexample = point
            res.best_ub = float(forward_eval(enc.net, point)[0])
        return res

    def process(fixes: dict[int, int], basis: lp.Basis, parent_lb: float) -> np.ndarray | None:
        """Solve one node from ``basis``; returns a validated counterexample or None."""
        nonlocal seq, spurious, margin_floor, best_seen
        unfixed = [d for d in enc.int_vars if d not in fixes]
        try:
            sol = lp.solve(_pinned(enc.model, fixes), basis)
        except lp.NumericalFailure:
            sol = None
        if sol is None:
            # keep the parent's bound; a failed solve leaves the start basis
            # unchanged, so a branched node restarts from it
            if unfixed:
                seq += 1
                heapq.heappush(queue, (parent_lb, seq, fixes, unfixed[0], basis))
            else:
                margin_floor = min(margin_floor, parent_lb)
            return None
        if sol.status != lp.OPTIMAL:
            return None  # infeasible subtree, nothing below it
        lb = sol.objective
        if lb > 0.0:
            margin_floor = min(margin_floor, lb)
            return None
        if unfixed:
            vals = np.array([sol.x[d] for d in unfixed])
            dist = np.abs(vals - np.round(vals))
            if float(np.max(dist)) > _INT_TOL:
                seq += 1
                heapq.heappush(queue, (lb, seq, fixes, unfixed[int(np.argmax(dist))], basis))
                return None
        # integral candidate: check it against the actual network
        x0 = sol.x[:n_in].copy()
        val = float(forward_eval(enc.net, x0)[0])
        if val <= 0.0 and validate_point(enc.net, enc.box, x0, 1e-6):
            return x0
        spurious += 1
        best_seen = min(best_seen, val)
        if unfixed:
            # near-integral relaxation artefact: branching pins the binaries
            # exactly and repairs the candidate region
            seq += 1
            heapq.heappush(queue, (lb, seq, fixes, unfixed[0], basis))
        else:
            # fully pinned yet unvalidated: keep its bound so no UNSAT claim
            # can paper over the unresolved region
            margin_floor = min(margin_floor, lb)
        return None

    if enc.output_var is None:
        # constant-zero output: 0 <= 0 is a counterexample anywhere
        nodes = 1
        return result(SAT, 0.0, (enc.box.lb + enc.box.ub) / 2.0)
    if elapsed() >= timeout:
        return result(TIMEOUT, -np.inf)

    nodes += 1
    cx = process({}, lp.slack_basis(enc.model), -np.inf)
    if cx is not None:
        return result(SAT, open_lb(), cx)

    # a node is queued only with a bound <= 0 (a positive one is pruned), so
    # the open bound turns positive only once the queue has drained
    while queue:
        if elapsed() >= timeout or nodes >= node_cap:
            return result(TIMEOUT, open_lb())
        lb, _, fixes, branch_var, basis = heapq.heappop(queue)
        for val in (0, 1):
            child = dict(fixes)
            child[branch_var] = val
            nodes += 1
            cx = process(child, lp.Basis(list(basis.basic), set(basis.at_upper)), lb)
            if cx is not None:
                return result(SAT, open_lb(), cx)

    glb = open_lb()
    if glb > 0.0:
        return result(UNSAT, glb)
    return result(TIMEOUT, glb)  # minimum sits exactly on the boundary