"""Branch-and-bound search for the canonical verification problem.

The engine keeps a priority queue of subdomains ordered by lower bound. Each
iteration pops the most promising subdomain, splits it, and bounds the
children: an upper bound from random sampling (any point value is an upper
bound on the minimum) and a lower bound from the tightened hull LP of the
subdomain (``relax.build_planet``, over a ReLU-only net). Under input
branching a subdomain's intermediate bounds come from an LP-free backward
pass (``output_only``), so it solves only its output LP; input branching
never reads the layer bounds. A phase set keeps its tightening LPs, because
phase splitting picks its unit from the bounds they give. Children whose lower bound cannot improve on the incumbent are
pruned; the global lower bound is the smallest bound over the open queue,
capped at the incumbent (queued entries a later incumbent outgrew are
pruned only when popped).

Two modes share the loop:

* optimise: run until the global upper/lower bounds are within epsilon; the
  estimate returned is the incumbent upper bound. Each subdomain runs one
  cheap step first: when the fast dual bound over its interval bounds
  (Wong & Kolter, arXiv 1711.00851) already reaches the incumbent, it is
  pruned with that bound, with no LP and no sampling; after the LP, one
  whose bound reaches the incumbent is not sampled. Results are those of
  the LP-first order: the fast bound is a dual-feasible value of the
  untightened hull LP, so up to rounding it never exceeds the LP bound over
  any tighter intermediate bounds,
  and every point of such a subdomain is worth at least its bound, so its
  samples could not have lowered the incumbent.
* satisfiability: the incumbent is pinned at 0. A subdomain with a strictly
  positive lower bound cannot contain a counterexample and is pruned; the
  search stops the moment any sampled or LP-solved point with canonical
  output <= 0 passes counterexample validation. If everything is pruned the
  property is UNSAT with margin equal to the smallest pruned bound. Each
  subdomain runs the cheap steps first: a positive interval bound prunes it,
  and a validated sampled counterexample ends the run, before any LP. The
  verdict and the node count are those of the LP-first order, since neither
  step can act on a subdomain the LP bound would keep; a subdomain pruned by
  its interval bound contributes that (looser) bound to the margin. The
  result's upper bound is the smallest output seen at a point of the box
  (a sample's best, an LP minimiser or the counterexample), not the pinned
  incumbent. A SAT result's lower bound is the smallest bound over the
  regions still open: the queue, the leaves kept as floors, the subdomain
  that held the counterexample and its siblings not yet evaluated (-inf
  when the root's bound was not yet known).

A subdomain is an input box plus the ReLU phases fixed so far, and the
branching rule alone decides which of the two it splits. Input branching
bisects the box and fixes no phase (optionally with the smart scoring that
test-splits every dimension and keeps the one whose children have the best
fast dual bounds). Phase splitting keeps the root box and fixes one more
unit per child, rebuilding tightened bounds per child; in the rest of this
module a "phase set" is a subdomain of that search.

Smart input branching carries a width guarantee: a box whose widest edge,
measured relative to the root box, exceeds ASPECT_LIMIT times its narrowest
non-degenerate edge is bisected along that widest edge instead of by score.
No box edge can therefore keep its width while the others shrink, so the
subdomain diameter goes to zero along every branch, which input-domain
branch and bound needs to converge (Bunel et al., JMLR 2020).

Every bounding LP's minimiser is fed back as an upper-bound witness;
sampling alone cannot close the gap on phase-set leaves, so this is what
makes the phase-splitting search terminate. A leaf that cannot be split is
resolved only when its exact LP minimiser was fed back; otherwise its bound
stays a floor of the global lower bound.

An output LP that fails numerically (``lp.NumericalFailure``) does not end
the run: its subdomain takes the fast dual bound over the relaxation's layer
bounds, which stay sound without it, and offers no LP point.

The loop is single-threaded, and all randomness flows from a splitmix64
stream derived from (seed, node index), so every run is bit-reproducible.
The MIP search of ``mip.solve_mip`` runs on the same engine in
satisfiability mode, with its own node step and split.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from . import lp
from .canon import VerificationProblem, validate_point
from .interval import (
    BLOCKED,
    PASSING,
    LayerBounds,
    PhaseMap,
    ambiguous_units,
    propagate_box,
)
from .model import BoxDomain, Linear, Network, Relu, forward_batch, forward_eval
from .relax import backward_pass, build_planet, fast_dual_bound, planet_lower_bound_with_point
from .rng import SplitMix64

OPTIMIZE = "optimize"
SATISFIABILITY = "satisfiability"

INPUT_LONGEST = "input-longest"
INPUT_SMART = "input-smart"
RELU_SPLIT = "relu-split"

# widest / narrowest non-degenerate edge, relative to the root box, beyond
# which smart input branching bisects the widest edge without scoring
ASPECT_LIMIT = 8.0

UNSAT = "unsat"
SAT = "sat"
TIMEOUT = "timeout"
CONVERGED = "converged"


class SplitExhausted(Exception):
    """The box has zero width in every dimension."""


class NoAmbiguousUnit(Exception):
    """Every ReLU unit is already fixed; the subdomain's LP bound is exact."""


@dataclass
class Subdomain:
    box: BoxDomain  # under phase splitting, the root box; the phases restrict it
    lower_bound: float
    phases: tuple[tuple[tuple[int, int], bool], ...] = ()  # sorted; empty under input splitting
    seq: int = 0
    bounds: LayerBounds | None = None
    stalled: bool = False  # bound did not improve on the parent's
    witnessed: bool = False  # the bounding LP's minimiser was fed to the incumbent
    fast_lb: float | None = None  # fast dual bound over the subdomain's interval bounds


@dataclass
class BabConfig:
    epsilon: float = 1e-4
    branching: str = INPUT_SMART
    sample_count: int = 1024
    timeout: float = np.inf
    node_cap: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.branching not in (INPUT_LONGEST, INPUT_SMART, RELU_SPLIT):
            raise ValueError(f"unknown branching rule {self.branching!r}")


@dataclass
class BabResult:
    status: str
    nodes: int
    margin: float | None = None
    counterexample: np.ndarray | None = None
    min_estimate: float | None = None
    best_lb: float = -np.inf
    best_ub: float = np.inf
    spurious_candidates: int = 0


def pick_out(queue: list) -> Subdomain:
    """Pop the subdomain with the smallest lower bound (FIFO on ties)."""
    if not queue:
        raise IndexError("pick_out on empty queue")
    _, _, sub = heapq.heappop(queue)
    return sub


def _push(queue: list, sub: Subdomain) -> None:
    heapq.heappush(queue, (sub.lower_bound, sub.seq, sub))


def split_input_longest(dom: Subdomain) -> list[Subdomain]:
    """Bisect the box along its longest edge (lowest index on ties)."""
    box = dom.box
    widths = box.widths()
    if np.max(widths) <= 0.0:
        raise SplitExhausted("box has zero width in every dimension")
    i = int(np.argmax(widths))
    return _bisect(dom, i)


def _bisect(dom: Subdomain, i: int) -> list[Subdomain]:
    box = dom.box
    mid = 0.5 * (box.lb[i] + box.ub[i])
    lo_ub = box.ub.copy()
    lo_ub[i] = mid
    hi_lb = box.lb.copy()
    hi_lb[i] = mid
    return [
        Subdomain(BoxDomain(box.lb.copy(), lo_ub), dom.lower_bound),
        Subdomain(BoxDomain(hi_lb, box.ub.copy()), dom.lower_bound),
    ]


def split_input_smart(dom: Subdomain, net: Network, root: BoxDomain) -> list[Subdomain]:
    """Bisect the dimension whose tentative children have the best fast
    dual bounds (scored by the worse of the two; all children in one
    stacked ``propagate_box`` and one ``backward_pass``). The children
    returned are the scored ones and carry their fast bound (``fast_lb``);
    the parent's own score is its ``fast_lb`` when set.

    The split keeps the width guarantee over the search's ``root`` box:
    edge widths are measured relative to ``root``, and when the widest is
    more than ASPECT_LIMIT times the narrowest non-degenerate one, that
    widest edge is bisected without scoring. The fast dual bound may never
    reward splitting some dimension; without the guarantee such an edge
    keeps its full width while the others are cut to slivers, and the
    search stalls short of the minimum."""
    box = dom.box
    widths = box.widths()
    if np.max(widths) <= 0.0:
        raise SplitExhausted("box has zero width in every dimension")
    scale = root.widths()
    rel = np.divide(widths, scale, out=np.zeros_like(widths), where=scale > 0.0)
    live = rel[rel > 0.0]
    if live.max() > ASPECT_LIMIT * live.min():
        return _bisect(dom, int(np.argmax(rel)))
    parent = dom.fast_lb
    if parent is None:
        parent = fast_dual_bound(net, box, propagate_box(net, box))
    tol = 1e-9 * max(1.0, abs(parent))
    # near-degenerate dimensions are not candidates: halving them can only
    # shave epsilons off the bound, and chasing those epsilons slices the
    # box into slivers without ever improving the queue
    dims = np.flatnonzero(widths >= 1e-2 * np.max(widths))
    # a row per child: the lower, then the upper half of each scored dimension
    rows = 2 * np.arange(len(dims))
    lb, ub = np.tile(box.lb, (2 * len(dims), 1)), np.tile(box.ub, (2 * len(dims), 1))
    ub[rows, dims] = lb[rows + 1, dims] = 0.5 * (box.lb[dims] + box.ub[dims])
    bounds = propagate_box(net, BoxDomain(lb, ub))
    lows = backward_pass(net.layers, np.ones((len(lb), 1)), lb, ub, bounds.pre_lb, bounds.pre_ub)
    scores = lows.reshape(-1, 2).min(axis=1)
    # A dimension qualifies only if it actually raises the fast bound;
    # without the guard a dimension the bound ignores scores level with the
    # parent forever (the aggressive child of a useful split scores lower)
    # and the search livelocks halving it. No improvement anywhere means
    # ties everywhere: fall back to the longest edge (always scored).
    improving = np.flatnonzero(scores > parent + tol)
    k = int(np.argmax(widths[dims]))
    if len(improving):
        best = improving[int(np.argmax(scores[improving]))]
        tied = improving[scores[improving] >= scores[best] - tol]
        k = int(tied[int(np.argmax(widths[dims[tied]]))])
    return [Subdomain(BoxDomain(lb[r], ub[r]), dom.lower_bound, fast_lb=float(lows[r])) for r in (2 * k, 2 * k + 1)]


def split_relu(dom: Subdomain, net: Network, bounds: LayerBounds) -> list[Subdomain]:
    """Split on the most undecided unfixed ambiguous unit.

    The unit maximising min(-l, u) under the subdomain's current bounds is
    chosen (ties: lowest (layer, unit)); children fix it blocked / passing.
    """
    fixed = dict(dom.phases)
    best = None
    for (i, j) in ambiguous_units(net, bounds):
        if (i, j) in fixed:
            continue
        s = min(-bounds.pre_lb[i][j], bounds.pre_ub[i][j])
        if best is None or s > best[0] + 0.0:
            best = (s, (i, j))
    if best is None:
        raise NoAmbiguousUnit("all units sign-fixed; bound is exact")
    unit = best[1]
    return [
        Subdomain(dom.box, dom.lower_bound, tuple(sorted(dom.phases + ((unit, phase),))))
        for phase in (BLOCKED, PASSING)
    ]


def _forward_phases(net: Network, pts: np.ndarray, phases: PhaseMap) -> tuple[np.ndarray, np.ndarray]:
    """The canonical outputs of ``pts`` and which of the points meet every
    phase in ``phases``, from one forward pass."""
    relu_inputs: dict[int, np.ndarray] = {}
    vals = forward_batch(net, pts, relu_inputs)[:, 0]
    mask = np.ones(len(pts), dtype=bool)
    for (i, j), phase in phases.items():
        pre = relu_inputs[i][:, j]
        mask &= pre >= 0.0 if phase == PASSING else pre <= 0.0
    return vals, mask


def _forward_rows(net: Network, pts: np.ndarray) -> np.ndarray:
    """``forward_eval`` of each row of ``pts``, with its bytes: every Linear
    layer takes one row at a time (``np.matvec``), never the matrix product
    of ``forward_batch``."""
    x = pts
    for layer in net.layers:
        if isinstance(layer, Linear):
            x = np.matvec(layer.weight, x) + layer.bias
        elif isinstance(layer, Relu):
            x = np.maximum(x, 0.0)
        else:
            x = np.stack([np.max(x[:, list(g)], axis=1) for g in layer.groups], axis=1)
    return x


def sample_upper_bound(
    net: Network,
    box: BoxDomain,
    phases: PhaseMap,
    count: int,
    rng: SplitMix64,
) -> tuple[float, np.ndarray | None]:
    """Best canonical output over uniform samples of ``box`` plus one greedy
    coordinate descent pass from the best sample. Given phases, only points
    that meet them count (+inf, None when none match)."""
    pts = rng.uniform_box(box.lb, box.ub, count)
    vals, mask = _forward_phases(net, pts, phases)
    if phases:
        if not np.any(mask):
            return np.inf, None
        vals = np.where(mask, vals, np.inf)
    k = int(np.argmin(vals))
    best_val, best_pt = float(vals[k]), pts[k].copy()

    for j in range(box.size):
        # the three trials differ from the best point only in coordinate j,
        # so an accepted one leaves the later ones as they were
        trials = np.tile(best_pt, (3, 1))
        trials[:, j] = box.lb[j], 0.5 * (box.lb[j] + box.ub[j]), box.ub[j]
        for trial, v in zip(trials, _forward_rows(net, trials)[:, 0].tolist()):
            if v < best_val:
                if phases and not _forward_phases(net, trial[None, :], phases)[1][0]:
                    continue
                best_val, best_pt = v, trial
    return best_val, best_pt


def _bound_region(
    net: Network, box: BoxDomain, phases: PhaseMap, output_only: bool
) -> tuple[float, LayerBounds | None, np.ndarray | None]:
    """Lower bound, refreshed bounds, and optional LP minimiser input point,
    from the tightened hull LP. With ``output_only`` (an input box; see
    ``build_planet``) its intermediate bounds come from the backward pass,
    so the output LP is the only LP solved."""
    pm = build_planet(net, box, phases, tighten=True, output_only=output_only)
    try:
        lb, point = planet_lower_bound_with_point(pm)
    except lp.NumericalFailure:
        # the relaxation's layer bounds stay sound without its output LP
        return fast_dual_bound(net, box, pm.bounds), pm.bounds, None
    return lb, pm.bounds, point


class _Engine:
    """The search over the canonical ``net`` on the input ``box``. The
    steps that bound a subdomain (``evaluate``), split it (``_split``) and
    make the root (``_root``) are the only ones a subclass overrides; the
    queue, the budget, the SAT check, the pruning, the margin and the
    result are shared by every search that runs on it."""

    def __init__(self, net: Network, box: BoxDomain, cfg: BabConfig, mode: str):
        self.net = net
        self.box = box
        self.cfg = cfg
        self.mode = mode
        self.rng = SplitMix64(cfg.seed)
        self.nodes = 0  # subdomains evaluated
        self.spurious = 0  # integral MIP node points that failed validation
        self.t0 = time.monotonic()
        self.global_ub = np.inf if mode == OPTIMIZE else 0.0
        self.seen_ub = np.inf  # smallest output at an evaluated point of the box (satisfiability)
        self.sat_point: np.ndarray | None = None
        self.pruned_lb = np.inf  # min lower bound among pruned subdomains (satisfiability)
        self.final_lbs: list[float] = []  # unsplittable leaves w/o exact witness
        self.queue: list = []

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def out_of_budget(self) -> bool:
        return self.elapsed() >= self.cfg.timeout or self.nodes >= self.cfg.node_cap

    def evaluate(self, sub: Subdomain) -> tuple[Subdomain, list[tuple[float, np.ndarray]]]:
        """Bound one subdomain; returns it (lb/bounds filled) + UB candidates.

        The cheap steps run before the bounding LP. A satisfiability search
        prunes a subdomain on a positive interval bound and ends the run on
        a validated sampled counterexample. An optimise search prunes a
        phase set whose phases the interval bounds contradict, then one
        whose fast dual bound (carried from ``split_input_smart`` when set)
        already reaches the incumbent. A subdomain pruned this way solves no
        LP and draws no sample, and one whose LP bound reaches the
        incumbent draws no sample: every point inside is worth at least
        that bound, so none can lower the incumbent."""
        sample = None
        box, phases = sub.box, dict(sub.phases)
        phase_split = self.cfg.branching == RELU_SPLIT
        if self.mode == SATISFIABILITY or phase_split:
            interval = propagate_box(self.net, box, phases)
            if interval is None or (self.mode == SATISFIABILITY and interval.output_lb[0] > 0.0):
                sub.lower_bound = np.inf if interval is None else max(float(interval.output_lb[0]), sub.lower_bound)
                sub.bounds = interval
                return sub, []
        if self.mode == OPTIMIZE:
            if sub.fast_lb is None:
                if not phase_split:
                    interval = propagate_box(self.net, box)
                sub.fast_lb = fast_dual_bound(self.net, box, interval)
            if self._reaches_incumbent(sub.fast_lb):
                sub.lower_bound = max(sub.fast_lb, sub.lower_bound)
                return sub, []
        else:
            sample = self._sample(sub, phases)
            val, pt = sample
            if pt is not None and val <= 0.0 and validate_point(self.net, self.box, pt, 1e-6):
                return sub, [sample]
        parent_lb = sub.lower_bound
        # only phase splitting reads the layer bounds back (split_relu)
        lb, bounds, lp_point = _bound_region(self.net, box, phases, not phase_split)
        if np.isfinite(parent_lb) and np.isfinite(lb) and np.isfinite(self.global_ub):
            # progress is measured against the gap that still has to close;
            # a bound creeping by epsilons while the gap stands still means
            # the branching choice is not working on this subdomain
            gap = max(self.global_ub - lb, self.cfg.epsilon)
            sub.stalled = lb - parent_lb <= 0.01 * gap
        sub.lower_bound = max(lb, sub.lower_bound)  # child never below parent
        sub.bounds = bounds
        candidates: list[tuple[float, np.ndarray]] = []
        if np.isfinite(lb):
            if sample is None and not self._reaches_incumbent(sub.lower_bound):
                sample = self._sample(sub, phases)
            if sample is not None and sample[1] is not None:
                candidates.append(sample)
            if lp_point is not None:
                candidates.append((float(forward_eval(self.net, lp_point)[0]), lp_point))
                sub.witnessed = True
        return sub, candidates

    def _reaches_incumbent(self, bound: float) -> bool:
        """No point of a subdomain bounded below by ``bound`` can lower the
        incumbent upper bound."""
        return bound >= self.global_ub

    def _sample(self, sub: Subdomain, phases: PhaseMap) -> tuple[float, np.ndarray | None]:
        return sample_upper_bound(self.net, sub.box, phases, self.cfg.sample_count, self.rng.spawn(sub.seq))

    def _open_lb(self) -> float:
        """The smallest bound over the queue and the leaves kept as floors."""
        head = self.queue[0][0] if self.queue else np.inf
        return min([head, *self.final_lbs])

    def global_lb(self) -> float:
        """The smallest open bound, capped at the incumbent. A queue head at
        or above the incumbent was pruned lazily by a later incumbent, and
        so was every entry behind it."""
        return min(self._open_lb(), self.global_ub)

    def run(self) -> BabResult:
        cfg = self.cfg
        if self.out_of_budget():
            return self._result(TIMEOUT, -np.inf)
        res = self._process([self._root()])
        if res is not None:
            return res
        while self.queue:
            glb = self.global_lb()
            if self.mode == OPTIMIZE and self.global_ub - glb <= cfg.epsilon:
                return self._result(CONVERGED, glb)
            if self.out_of_budget():
                return self._result(TIMEOUT, glb)
            parent = pick_out(self.queue)
            if self.mode == OPTIMIZE and parent.lower_bound >= self.global_ub:
                continue  # lazily pruned by a better incumbent
            try:
                children = self._split(parent)
            except (SplitExhausted, NoAmbiguousUnit):
                self._finalize_leaf(parent)
                continue
            res = self._process(children)
            if res is not None:
                return res
        return self._wrap_up()

    def _root(self) -> Subdomain:
        return Subdomain(self.box, -np.inf)

    def _split(self, sub: Subdomain) -> list[Subdomain]:
        cfg = self.cfg
        if cfg.branching == INPUT_LONGEST:
            return split_input_longest(sub)
        if cfg.branching == INPUT_SMART:
            # guaranteed progress: when the smart choice stopped moving the
            # real bound, halve the longest edge instead of trusting the
            # fast-bound score again
            if sub.stalled:
                return split_input_longest(sub)
            return split_input_smart(sub, self.net, root=self.box)
        return split_relu(sub, self.net, sub.bounds)

    def _finalize_leaf(self, sub: Subdomain) -> None:
        # The bound is final for this subdomain. When its exact LP minimiser
        # already fed the incumbent it is resolved; otherwise keep
        # the bound as a permanent floor.
        if not sub.witnessed:
            self.final_lbs.append(sub.lower_bound)

    def _process(self, subs: list[Subdomain]) -> BabResult | None:
        """Evaluate and absorb ``subs`` in order. A subdomain's ``seq`` is
        its evaluation index; siblings are evaluated in the order they were
        made, so it is their creation order too."""
        for k, sub in enumerate(subs):
            self.nodes += 1
            sub.seq = self.nodes
            if self._absorb(*self.evaluate(sub)):
                # the minimum lies in a region still open: the queue, a leaf
                # kept as a floor, this subdomain or a sibling not yet evaluated
                return self._result(SAT, min(self._open_lb(), *(s.lower_bound for s in subs[k:])))
        return None

    def _absorb(self, sub: Subdomain, candidates: list[tuple[float, np.ndarray]]) -> bool:
        """Feed the candidates to the upper bounds, then queue or prune
        ``sub``; True when a candidate is a validated counterexample."""
        for val, pt in candidates:
            if self.mode == SATISFIABILITY:
                if self.box.contains(pt):
                    self.seen_ub = min(self.seen_ub, val)
                if val <= 0.0 and validate_point(self.net, self.box, pt, 1e-6):
                    self.sat_point = pt
                    return True
            if val < self.global_ub and self.mode == OPTIMIZE:
                self.global_ub = val
        lb = sub.lower_bound
        if self.mode == SATISFIABILITY:
            if lb > 0.0:
                self.pruned_lb = min(self.pruned_lb, lb)
            else:
                _push(self.queue, sub)
        elif lb < self.global_ub:
            _push(self.queue, sub)
        return False

    def _wrap_up(self) -> BabResult:
        if self.mode == SATISFIABILITY:
            if self.final_lbs and min(self.final_lbs) <= 0.0:
                return self._result(TIMEOUT, self.global_lb())
            return self._result(UNSAT, min([self.pruned_lb, *self.final_lbs]))
        glb = self.global_lb()
        if self.global_ub - glb <= self.cfg.epsilon:
            return self._result(CONVERGED, glb)
        return self._result(TIMEOUT, glb)

    def _result(self, status: str, glb: float) -> BabResult:
        ub = self.global_ub if self.mode == OPTIMIZE else self.seen_ub
        res = BabResult(status, self.nodes, best_lb=glb, best_ub=ub, spurious_candidates=self.spurious)
        if status == UNSAT:
            res.margin = glb
        elif status == SAT:
            res.counterexample = self.sat_point
            res.best_ub = float(forward_eval(self.net, self.sat_point)[0])
        elif status == CONVERGED:
            res.min_estimate = self.global_ub
        return res


def bab_optimize(problem: VerificationProblem, config: BabConfig | None = None) -> BabResult:
    """Estimate the global minimum of the canonical output to within epsilon."""
    return _Engine(problem.canonical_net, problem.domain, config or BabConfig(), OPTIMIZE).run()


def bab_verify(problem: VerificationProblem, config: BabConfig | None = None) -> BabResult:
    """Decide the property: UNSAT with a margin, SAT with a validated
    counterexample, or timeout."""
    return _Engine(problem.canonical_net, problem.domain, config or BabConfig(), SATISFIABILITY).run()
