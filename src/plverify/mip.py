"""Big-M mixed-integer encodings, searched by the branch-and-bound engine.

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

The search is the branch and bound of ``bab._Engine`` in satisfiability
mode, the loop the relaxation-based methods run (Bunel et al., "A Unified
View of Piecewise Linear Neural Network Verification", arXiv 1711.00455):
its queue, budget, counterexample check, pruning, margin and result. The
MIP supplies only a node step and a split. A node is the root box with
some binaries pinned. Its step solves the node LP, the output minimised
with the unfixed binaries relaxed to [0, 1], and offers the input part of
the minimiser as a candidate point: one with output <= 0 that passes
forward validation ends the search with SAT, at any node, whether or not
its binaries are integral. This is the upper-bound step of branch and
bound (Bunel et al., JMLR 2020): any point of the box is a feasible
integral solution of the encoding, its binaries set to the phases of its
forward pass, and is worth its output. The step then picks the most
fractional unfixed binary to branch on. An integral node whose point
failed the check is counted once, there, as a spurious candidate, and is
branched on its first unfixed binary; a fully pinned one keeps its bound
as a floor of the margin. The split pins the binary to 0 and to 1. A
node with a positive bound is pruned, and a positive global lower bound
proves the property. The feasibility form of the question (is "output
<= 0" satisfiable?) needs no separate model: the row is feasible exactly
when the minimum is <= 0, and minimising also yields the margin of an
UNSAT instance.

Node LPs start warm. The root starts from ``EncodedMip.basis``, a crash
basis that ``encode_mip`` builds block by block from the network's forward
pass at one corner of the box (Bixby, "Implementing the Simplex Method:
The Initial Basis", ORSA J. Computing 4(3), 1992). The corner is the one
that CROWN's adaptive ``relax.backward_pass`` takes for the output row
over the encoding's bounds: an input sits at its upper bound where the
pass's final coefficient is negative, else at its lower bound, and is
nonbasic there. A native MaxPool encoding keeps the lower corner. The
blocks' columns:

* a Linear row: its x_hat basic;
* an ambiguous unit whose pre-activation there is >= 0: x, d and the slack
  of x - u d <= 0 basic, the slack of x >= x_hat at its upper bound 0, so
  x = x_hat and d = 1;
* one whose pre-activation is < 0: d and the slacks of its first two rows
  basic, x at 0, so d = 1 - x_hat / l;
* a MaxPool group: y, the d of its largest element there, every ``<=``
  slack and the other elements' ``>=`` slacks basic; that element's
  ``>=`` slack at its upper bound 0, so y is its value and its d is 1.

That start is a point of the network, so it meets the rows and bounds of
every variant, and the root LP runs primal pivots only. Each queued node
keeps the ``lp.Basis`` its LP returned, and both children start from that
one value.
A child differs from its parent only in one pinned binary, so that basis
stays dual feasible and ``lp.solve`` repairs it with dual simplex pivots,
with no cold start. An optimum reached this way can be another vertex
among ties than a cold solve's, so the branching binary can differ from a
cold search, and with it the node count and an UNSAT margin (the smallest
pruned bound of the tree searched); each node LP's value and the verdict
do not.

The model is written one block per layer (per group of a MaxPool), its
rows placed by index arithmetic: a unit's x then d, its three rows
together; a group's y, its binaries, each element's two rows and then the
sum row. Every node LP is a ``with_objective`` clone with pinned bounds, so
all of them share one derived [rows | I]; only the slack bounds are computed
per node.

A node LP that fails numerically does not end the run: the node keeps its
parent's bound (-inf at the root) and branches on its first unfixed binary
from its start basis; a fully pinned node keeps that bound as a floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp
from .bab import SATISFIABILITY, BabConfig, BabResult, NoAmbiguousUnit, Subdomain, _Engine
from .canon import validate_point
from .interval import LayerBounds, propagate_box
from .model import BoxDomain, Linear, Network, Relu, forward_eval, is_relu_only
from .relax import add_linear, backward_pass, build_planet

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
    output_var: int
    int_vars: list[int]
    basis: lp.Basis  # the root LP's start: the network's forward pass at a corner of the box
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
    one binary per ambiguous unit, none elsewhere. Each block also extends
    the crash basis of the forward pass at the corner the adaptive backward
    pass takes (see the module docstring)."""
    if not isinstance(net.layers[-1], Linear):
        raise ValueError("the MIP encoding requires a network that ends in a Linear layer")
    bounds = compute_bounds(net, box, variant.bounds_source)
    upper = np.zeros(box.size, dtype=bool)  # a native MaxPool keeps the lower corner
    if is_relu_only(net):
        faces: dict[int, np.ndarray] = {}
        backward_pass(net.layers, np.ones((1, 1)), box.lb, box.ub, bounds.pre_lb, bounds.pre_ub, True, faces)
        upper = faces[-1][0]
    model = lp.LpModel(box.lb, box.ub)
    basis = lp.Basis(at_upper=frozenset(np.flatnonzero(upper).tolist()))  # the inputs nonbasic at the corner
    prev = np.arange(box.size)  # the variable of each unit of the last layer, -1 for a constant zero
    val = np.where(upper, box.ub, box.lb)  # the value of each unit of the last layer at the corner
    int_vars: list[int] = []
    pool_groups: list[tuple[int, int, list[int], int]] = []

    for i, layer in enumerate(net.layers):
        lo, hi = bounds.pre_lb[i], bounds.pre_ub[i]
        n, m = model.num_vars, len(model.rhs)
        if isinstance(layer, Linear):
            prev = add_linear(model, layer, prev, lo, hi)
            basis = basis.extended(prev.tolist())  # each x_hat basic in its row
            val = layer.weight @ val + layer.bias
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
            # an active unit: x, the slack of x - u d <= 0 and d basic, x >= x_hat
            # tight (x = x_hat, d = 1); an inactive one: the slacks of its first
            # two rows and d basic, x at 0 (d = 1 - x_hat / l)
            active, first = val[amb] >= 0.0, m + r
            cols = np.stack([np.where(active, x, ~first), ~(first + 1), x + 1], axis=1)
            basis = basis.extended(cols.ravel().tolist(), (~first[active]).tolist())
            int_vars += (x + 1).tolist()
            prev = np.where(hi <= 0.0, -1, prev)
            prev[amb] = x
            val = np.maximum(val, 0.0)
        else:  # MaxPool, whose inputs are the variables of the Linear before it
            tops = []
            for gi, g in enumerate(map(list, layer.groups)):
                n, m, s = model.num_vars, len(model.rhs), len(g)
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
                # y and the largest element's d basic, its y - x_k >= 0 tight;
                # the other rows' slacks basic
                top = int(np.argmax(val[g]))
                ge = m + r
                cols = np.stack([np.where(r == 2 * top, n, ~ge), ~(ge + 1)], axis=1)
                basis = basis.extended([*cols.ravel().tolist(), int(d[top])], [~int(ge[top])])
                tops.append(val[g][top])
                int_vars += d.tolist()
                pool_groups.append((i, gi, d.tolist(), n))
            prev = np.array([y for layer_i, *_, y in pool_groups if layer_i == i])
            val = np.array(tops)

    output_var = int(prev[0])
    model.set_objective({output_var: 1.0})
    return EncodedMip(net, box, model, output_var, int_vars, basis, pool_groups)


def _pinned(base: lp.LpModel, fixes: dict[int, int]) -> lp.LpModel:
    model = base.with_objective(base.objective)  # shares the row set and its derived form
    pins = list(fixes)
    model.lower[pins] = model.upper[pins] = list(fixes.values())
    return model


@dataclass
class _Node(Subdomain):
    """A MIP node: ``box`` is the root box, shared by every node, and
    ``phases`` the pinned binaries as (variable, 0 or 1) pairs."""

    basis: lp.Basis | None = None  # the node LP's start (the root's: the crash basis); the one it returned once solved
    branch: int | None = None  # the binary the node step picked; None when all are pinned


class _MipSearch(_Engine):
    def __init__(self, enc: EncodedMip, cfg: BabConfig):
        super().__init__(enc.net, enc.box, cfg, SATISFIABILITY)
        self.enc = enc

    def _root(self) -> _Node:
        return _Node(self.box, -np.inf, basis=self.enc.basis)

    def evaluate(self, node: _Node) -> tuple[_Node, list[tuple[float, np.ndarray]]]:
        """Solve the node LP from the node's basis and offer its minimiser's
        input point; pick the binary to branch on."""
        enc = self.enc
        fixes = dict(node.phases)
        unfixed = [d for d in enc.int_vars if d not in fixes]
        node.branch = unfixed[0] if unfixed else None  # unless a binary is fractional
        try:
            sol = lp.solve(_pinned(enc.model, fixes), node.basis)
        except lp.NumericalFailure:
            return node, []  # keep the parent's bound; the children restart from the start basis
        if sol.status != lp.OPTIMAL:
            node.lower_bound = np.inf  # infeasible subtree, nothing below it
            return node, []
        node.lower_bound, node.basis = sol.objective, sol.basis
        x0 = sol.x[: self.box.size].copy()
        point = (float(forward_eval(self.net, x0)[0]), x0)
        if node.lower_bound > 0.0 or (point[0] <= 0.0 and validate_point(self.net, self.box, x0, 1e-6)):
            return node, [point]  # pruned, or a counterexample that ends the run
        dist = np.abs(sol.x[unfixed] - np.round(sol.x[unfixed]))
        if unfixed and float(np.max(dist)) > _INT_TOL:
            node.branch = unfixed[int(np.argmax(dist))]
        else:
            # an integral candidate whose point failed the check; branching
            # pins the binaries exactly and repairs the candidate region
            self.spurious += 1
        return node, [point]

    def _split(self, node: _Node) -> list[_Node]:
        if node.branch is None:
            raise NoAmbiguousUnit("every binary is pinned")
        return [
            _Node(node.box, node.lower_bound, node.phases + ((node.branch, val),), basis=node.basis)
            for val in (0, 1)
        ]


def solve_mip(
    enc: EncodedMip,
    timeout: float = np.inf,
    node_cap: int = 1_000_000,
) -> BabResult:
    """Decide the encoded property by branch and bound on its binaries.

    The search is ``bab._Engine`` in satisfiability mode with the MIP's
    node step and split (see the module docstring): SAT with the first node
    point that validates, UNSAT once every open bound is positive, with the
    smallest pruned bound as the margin, or TIMEOUT. ``best_ub`` is the
    smallest output evaluated at a point inside the box (+inf when there is
    none), ``best_lb`` a lower bound on the minimum.
    """
    return _MipSearch(enc, BabConfig(timeout=timeout, node_cap=node_cap)).run()
