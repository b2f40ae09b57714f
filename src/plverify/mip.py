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
the tree searched); each node LP's value and the verdict do not.

The model is written one block per layer (per group of a MaxPool), its
rows placed by index arithmetic: a unit's x then d, its three rows
together; a group's y, its binaries, each element's two rows and then the
sum row. Every node LP is a ``with_objective`` clone with pinned bounds, so
all of them share one derived [rows | I]; only the slack bounds are computed
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
from .relax import add_linear, build_planet

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
    """Build the big-M model, one block per layer (per group of a MaxPool);
    one binary per ambiguous unit, none elsewhere."""
    bounds = compute_bounds(net, box, variant.bounds_source)
    model = lp.LpModel(box.lb, box.ub)
    prev = np.arange(box.size)  # the variable of each unit of the last layer, -1 for a constant zero
    int_vars: list[int] = []
    relu_units: list[tuple[int, int, int, int, int]] = []
    pool_groups: list[tuple[int, int, list[int], int]] = []

    for i, layer in enumerate(net.layers):
        lo, hi = bounds.pre_lb[i], bounds.pre_ub[i]
        n = model.num_vars
        if isinstance(layer, Linear):
            prev = add_linear(model, layer, prev, lo, hi)
        elif isinstance(layer, Relu):
            amb = np.flatnonzero((lo < 0.0) & (hi > 0.0))
            k, p, l, u = len(amb), prev[amb], lo[amb], hi[amb]
            if variant.encoding == SYM:
                u = np.maximum(-l, u)
                l = -u
            # per unit the variables x in [0, u], d in [0, 1] and the rows
            # x - x_hat >= 0, x - u d <= 0, x - x_hat - l d <= -l
            x, r = np.arange(n, n + 2 * k, 2), np.arange(0, 3 * k, 3)  # each unit's x (d follows) and first row
            block, rhs, upper = np.zeros((3 * k, n + 2 * k)), np.zeros((k, 3)), np.ones((k, 2))
            block[r, x] = block[r + 1, x] = block[r + 2, x] = 1.0
            block[r, p] = block[r + 2, p] = -1.0
            block[r + 1, x + 1], block[r + 2, x + 1] = -u, -l
            rhs[:, 2], upper[:, 0] = -l, u
            model.add_block(block, [lp.GE, lp.LE, lp.LE] * k, rhs.ravel(), np.zeros(2 * k), upper.ravel())
            int_vars += (x + 1).tolist()
            relu_units += zip([i] * k, amb.tolist(), (x + 1).tolist(), p.tolist(), x.tolist())
            prev = np.where(hi <= 0.0, -1, prev)
            prev[amb] = x
        else:  # MaxPool, whose inputs are the variables of the Linear before it
            for gi, g in enumerate(map(list, layer.groups)):
                n, s = model.num_vars, len(g)
                d, r = n + 1 + np.arange(s), 2 * np.arange(s)
                big = np.max(hi[g]) - lo[g]
                # the variables y, d_k and per element the rows
                # y - x_k >= 0, y - x_k + big d_k <= big; then sum_k d_k = 1
                block = np.zeros((2 * s + 1, n + 1 + s))
                block[: 2 * s, n] = 1.0
                block[r, prev[g]] = block[r + 1, prev[g]] = -1.0
                block[r + 1, d] = big
                block[2 * s, d] = 1.0
                rhs = np.zeros(2 * s + 1)
                rhs[r + 1], rhs[-1] = big, 1.0
                rel = [lp.GE, lp.LE] * s + [lp.EQ]
                model.add_block(block, rel, rhs, [np.max(lo[g])] + [0.0] * s, [np.max(hi[g])] + [1.0] * s)
                int_vars += d.tolist()
                pool_groups.append((i, gi, d.tolist(), n))
            prev = np.array([y for layer_i, *_, y in pool_groups if layer_i == i])

    output_var = int(prev[0]) if len(prev) and prev[0] >= 0 else None
    model.set_objective({output_var: 1.0} if output_var is not None else np.zeros(model.num_vars))
    return EncodedMip(net, box, model, output_var, int_vars, list(range(box.size)), relu_units, pool_groups)


def _pinned(base: lp.LpModel, fixes: dict[int, int]) -> lp.LpModel:
    model = base.with_objective(base.objective)  # shares the row set and its derived form
    pins = list(fixes)
    model.lower[pins] = model.upper[pins] = list(fixes.values())
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