"""Ground-truth global minimiser by exhaustive activation-pattern enumeration.

Fixing a total blocked/passing assignment to every ReLU collapses the
network to an affine function of the input, valid on the polyhedron where
the assignment's sign constraints hold. Enumerating all assignments and
solving one small input-space LP per feasible pattern therefore yields the
exact global minimum (up to LP tolerance). This is the test oracle every
other method is judged against; it only scales to a handful of units.

Units whose interval bounds already fix their sign are not enumerated, and
subtrees whose partial sign constraints are interval-infeasible are pruned,
so the 2^R blow-up only counts genuinely ambiguous units. Both bounds come
from ``interval``: ``propagate_box`` over the box, and one ``pre_bounds``
call per ReLU layer for the affine map ``Linear(mat, const)`` from the input
to that layer's pre-activations that the partial pattern above it leaves.

Ambiguous units are decided one at a time, and a partial pattern is kept
only while its input polyhedron is non-empty: a known point of the parent
polyhedron that meets the new halfspace proves the child non-empty, else a
feasibility LP decides. Most total patterns of a few-input net are empty
(a hyperplane arrangement has far fewer regions than 2^R), so they are cut
off high in the tree instead of costing one leaf LP each. The leaf LPs and
the order in which patterns are visited are the same as with plain
enumeration, so the result does not depend on the pruning.

One ``lp.RowStack`` per search holds the halfspaces of the current partial
pattern, in the order in which units were decided: deciding a unit pushes
its row before the feasibility test and truncates it after the subtree, and
a leaf LP sets its objective on the stack. No pattern LP rebuilds its model.

Pattern LPs start warm (``lp.Basis``). A pattern carries the basis the
last LP solved on its path returned, extended by one basic slack per row
added since; a child extends it by its new row's slack, and the stack
keeps rows in decision order, so slack indices line up. A feasibility LP
has a zero objective, so that start is always dual feasible: ``lp.solve``
repairs it with the bounded dual simplex, and an empty pattern is pruned
through a checked Farkas row, taken from the dual pass's current inverse
(when that check fails the pass refactors and checks again; a warm run
that still fails starts again from the slack basis, which proves
infeasibility the same way). A zero objective costs no phase-2 pricing. A
feasible child carries the basis its LP returned. Each leaf LP starts from
its pattern's basis, which is usually primal feasible, so it runs phase 2
only; a start that is neither primal nor dual feasible falls back to the
slack basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .canon import CEX_TOL, VerificationProblem, lower_maxpools, validate_counterexample
from .interval import ambiguous_units, pre_bounds, propagate_box
from .model import BoxDomain, Linear, MaxPool, Network


class CapExceeded(Exception):
    """More ambiguous ReLU units than the enumeration cap allows."""


@dataclass
class OracleResult:
    min_value: float
    argmin: np.ndarray
    feasible_patterns: int


def oracle_min(net: Network, box: BoxDomain, relu_cap: int = 16) -> OracleResult:
    """Exact minimum of the scalar output over the box.

    The pattern LP is posed in input space: with all phases fixed the network
    is an affine map, and each unit contributes one halfspace (blocked:
    pre <= 0, passing: pre >= 0). Infeasible patterns are skipped silently;
    their count is reported via ``feasible_patterns``.
    """
    if any(isinstance(l, MaxPool) for l in net.layers):
        raise ValueError("oracle requires a ReLU-only network (lower MaxPools first)")
    if net.output_size != 1:
        raise ValueError("oracle requires a scalar-output network")
    bounds = propagate_box(net, box)
    ambiguous = len(ambiguous_units(net, bounds))
    if ambiguous > relu_cap:
        raise CapExceeded(f"{ambiguous} ambiguous units exceed cap {relu_cap}")

    state = _Search(net, box, bounds)
    center = 0.5 * (box.lb + box.ub)
    state.descend(0, np.eye(net.input_size), np.zeros(net.input_size), lp.Basis(), center)
    if state.best_x is None:
        raise RuntimeError("no feasible activation pattern; box should be non-empty")
    return OracleResult(state.best_val, state.best_x, state.feasible)


class _Search:
    def __init__(self, net: Network, box: BoxDomain, bounds):
        self.net = net
        self.box = box
        self.bounds = bounds
        self.stack = lp.RowStack(box.lb, box.ub)  # the current partial pattern's halfspaces
        self.best_val = np.inf
        self.best_x: np.ndarray | None = None
        self.feasible = 0

    def descend(self, idx: int, mat: np.ndarray, const: np.ndarray, basis: lp.Basis, witness: np.ndarray) -> None:
        """Enumerate the patterns of layers idx.. below a partial pattern whose
        input polyhedron (box plus the stack's rows) contains `witness`;
        `basis` is the basis the last LP returned, with one basic slack per later row."""
        if idx == len(self.net.layers):
            self._solve_leaf(mat, const, basis)
            return
        layer = self.net.layers[idx]
        if isinstance(layer, Linear):
            self.descend(idx + 1, layer.weight @ mat, layer.weight @ const + layer.bias, basis, witness)
            return

        lo, hi = self.bounds.pre_lb[idx], self.bounds.pre_ub[idx]
        free = [j for j in range(len(lo)) if lo[j] < 0.0 < hi[j]]
        # phases each unit may take: a phase whose sign constraint the
        # affine pre-activation cannot meet anywhere on the box is dropped
        r_lo, r_hi = pre_bounds(Linear(mat, const), idx - 1, self.box.lb, self.box.ub)
        allowed = []
        for j in range(len(lo)):
            if j in free:
                allowed.append((r_lo[j] <= 0.0, r_hi[j] >= 0.0))
            elif (lo[j] >= 0.0 and r_hi[j] < 0.0) or (lo[j] < 0.0 and r_lo[j] > 0.0):
                return
        chosen: dict[int, bool] = {}
        stack = self.stack

        def finish(part_basis: lp.Basis, witness: np.ndarray) -> None:
            blocked = [j for j in range(len(lo)) if not chosen.get(j, lo[j] >= 0.0)]
            new_mat = mat.copy()
            new_const = const.copy()
            new_mat[blocked] = 0.0
            new_const[blocked] = 0.0
            self.descend(idx + 1, new_mat, new_const, part_basis, witness)

        def choose(k: int, part_basis: lp.Basis, witness: np.ndarray) -> None:
            # the highest free unit is decided first, blocked before passing,
            # so patterns are visited in the order of their bit masks
            if k < 0:
                finish(part_basis, witness)
                return
            j = free[k]
            depth = stack.depth
            for passing in (False, True):
                if not allowed[k][passing]:
                    continue
                # pre >= 0 is written as -pre <= const
                row = -mat[j] if passing else mat[j]
                b = const[j] if passing else -const[j]
                child = part_basis.extended([~depth])
                stack.push(row, b)
                inside = witness
                if float(row @ witness) > b:
                    sol = self._pattern_lp(child)
                    inside, child = sol.x, sol.basis  # both None when the pattern is empty
                if inside is not None:
                    chosen[j] = passing
                    choose(k - 1, child, inside)
                    del chosen[j]
                stack.truncate(depth)

        choose(len(free) - 1, basis, witness)

    def _pattern_lp(self, basis: lp.Basis, objective: np.ndarray | None = None) -> lp.LpSolution:
        """Minimise `objective` (none: find any point) over the box cut by
        the stack's halfspaces, starting from `basis`."""
        self.stack.objective = objective
        return lp.solve(self.stack, basis)

    def _solve_leaf(self, mat: np.ndarray, const: np.ndarray, basis: lp.Basis) -> None:
        sol = self._pattern_lp(basis, mat[0])
        if sol.status != lp.OPTIMAL:
            return
        self.feasible += 1
        val = sol.objective + float(const[0])
        if val < self.best_val:
            self.best_val = val
            self.best_x = sol.x


def oracle_verdict(problem: VerificationProblem) -> tuple[str, float | np.ndarray]:
    """("sat", counterexample) when the canonical minimum is <= 0, else
    ("unsat", margin). MaxPools are lowered before enumeration."""
    res = oracle_min(lower_maxpools(problem).canonical_net, problem.domain)
    if res.min_value <= 0.0:
        if not validate_counterexample(problem, res.argmin, CEX_TOL):
            raise RuntimeError("oracle argmin failed counterexample validation")
        return "sat", res.argmin
    return "unsat", res.min_value
