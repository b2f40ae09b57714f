"""Branch-and-bound search for the canonical verification problem.

The engine keeps a priority queue of subdomains ordered by lower bound. Each
iteration pops the most promising subdomain, splits it, and bounds the
children: an upper bound from random sampling (any point value is an upper
bound on the minimum) and a lower bound from one of the pluggable bounding
methods. Children whose lower bound cannot improve on the incumbent are
pruned; the global lower bound is the smallest bound over the open queue.

Two modes share the loop:

* optimise: run until the global upper/lower bounds are within epsilon; the
  estimate returned is the incumbent upper bound.
* satisfiability: the incumbent is pinned at 0. A subdomain with a strictly
  positive lower bound cannot contain a counterexample and is pruned; the
  search stops the moment any sampled or LP-solved point with canonical
  output <= 0 passes counterexample validation. If everything is pruned the
  property is UNSAT with margin equal to the smallest pruned bound.

Subdomains are either input sub-boxes (bisection branching, optionally with
the smart scoring that test-splits every dimension and keeps the one whose
children have the best fast dual bounds) or partial ReLU phase assignments
(the phase-splitting branching, which rebuilds tightened bounds per child).

Smart input branching carries a width guarantee: a box whose widest edge,
measured relative to the root box, exceeds ASPECT_LIMIT times its narrowest
non-degenerate edge is bisected along that widest edge instead of by score.
No box edge can therefore keep its width while the others shrink, so the
subdomain diameter goes to zero along every branch, which input-domain
branch and bound needs to converge (Bunel et al., JMLR 2020).

Whenever a bounding LP is exact for its subdomain (no ambiguous unit left),
the LP minimiser is fed back as an upper-bound witness; sampling alone
cannot close the gap on phase-set leaves, so this is what makes the
phase-splitting search terminate.

The loop is single-threaded, and all randomness flows from a splitmix64
stream derived from (seed, node index), so every run is bit-reproducible.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace

import numpy as np

from .canon import VerificationProblem, validate_counterexample
from .interval import (
    BLOCKED,
    PASSING,
    LayerBounds,
    PhaseMap,
    ambiguous_units,
    propagate_box,
    refine_with_fixed_phases,
)
from .model import BoxDomain, Linear, Network, Relu, forward_batch, forward_eval
from .relax import (
    build_planet,
    fast_dual_bound,
    planet_lower_bound_with_point,
    reluplex_lower_bound,
)
from .rng import SplitMix64

OPTIMIZE = "optimize"
SATISFIABILITY = "satisfiability"

PLANET_TIGHTENED = "planet-tightened"
PLANET_FIXED = "planet-fixed"
INTERVAL = "interval"
FAST_DUAL = "fast-dual"
RELUPLEX_RELAX = "reluplex-relax"

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


@dataclass(frozen=True)
class InputBox:
    box: BoxDomain


@dataclass(frozen=True)
class PhaseSet:
    box: BoxDomain  # the root box; phases restrict it
    phases: tuple[tuple[tuple[int, int], bool], ...]

    def phase_map(self) -> PhaseMap:
        return dict(self.phases)


Region = InputBox | PhaseSet


@dataclass
class Subdomain:
    region: Region
    lower_bound: float
    depth: int
    seq: int = 0
    bounds: LayerBounds | None = None
    stalled: bool = False  # bound did not improve on the parent's


@dataclass
class BabConfig:
    epsilon: float = 1e-4
    mode: str = SATISFIABILITY
    bounding: str = PLANET_TIGHTENED
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


@dataclass
class BabResult:
    status: str
    nodes: int
    wall_time: float
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
    box = dom.region.box
    widths = box.widths()
    if np.max(widths) <= 0.0:
        raise SplitExhausted("box has zero width in every dimension")
    i = int(np.argmax(widths))
    return _bisect(dom, i)


def _bisect(dom: Subdomain, i: int) -> list[Subdomain]:
    box = dom.region.box
    mid = 0.5 * (box.lb[i] + box.ub[i])
    lo_ub = box.ub.copy()
    lo_ub[i] = mid
    hi_lb = box.lb.copy()
    hi_lb[i] = mid
    return [
        Subdomain(InputBox(BoxDomain(box.lb.copy(), lo_ub)), dom.lower_bound, dom.depth + 1),
        Subdomain(InputBox(BoxDomain(hi_lb, box.ub.copy())), dom.lower_bound, dom.depth + 1),
    ]


def split_input_smart(dom: Subdomain, net: Network, root: BoxDomain | None = None) -> list[Subdomain]:
    """Bisect the dimension whose tentative children have the best fast
    dual bounds (scored by the worse of the two).

    Given the search's `root` box, the split keeps the width guarantee:
    edge widths are measured relative to `root`, and when the widest is
    more than ASPECT_LIMIT times the narrowest non-degenerate one, that
    widest edge is bisected without scoring. The fast dual bound may never
    reward splitting some dimension; without the guarantee such an edge
    keeps its full width while the others are cut to slivers, and the
    search stalls short of the minimum."""
    box = dom.region.box
    widths = box.widths()
    if np.max(widths) <= 0.0:
        raise SplitExhausted("box has zero width in every dimension")
    if root is not None:
        scale = root.widths()
        rel = np.divide(widths, scale, out=np.zeros_like(widths), where=scale > 0.0)
        live = rel[rel > 0.0]
        if live.max() > ASPECT_LIMIT * live.min():
            return _bisect(dom, int(np.argmax(rel)))
    parent = fast_dual_bound(net, box, propagate_box(net, box))
    tol = 1e-9 * max(1.0, abs(parent))
    scores = np.full(box.size, -np.inf)
    for i in range(box.size):
        # near-degenerate dimensions are not candidates: halving them can
        # only shave epsilons off the bound, and chasing those epsilons
        # slices the box into slivers without ever improving the queue
        if widths[i] < 1e-2 * np.max(widths):
            continue
        vals = []
        for child in _bisect(dom, i):
            cbox = child.region.box
            cb = propagate_box(net, cbox)
            vals.append(fast_dual_bound(net, cbox, cb))
        scores[i] = min(vals)
    # A dimension qualifies only if it actually raises the fast bound;
    # without the guard a dimension the bound ignores scores level with the
    # parent forever (the aggressive child of a useful split scores lower)
    # and the search livelocks halving it. No improvement anywhere means
    # ties everywhere: fall back to the longest edge.
    improving = np.flatnonzero(scores > parent + tol)
    if len(improving):
        best = improving[int(np.argmax(scores[improving]))]
        tied = improving[scores[improving] >= scores[best] - tol]
        best = tied[int(np.argmax(widths[tied]))]
        return _bisect(dom, int(best))
    return split_input_longest(dom)


def split_relu(dom: Subdomain, net: Network, bounds: LayerBounds) -> list[Subdomain]:
    """Split on the most undecided unfixed ambiguous unit.

    The unit maximising min(-l, u) under the subdomain's current bounds is
    chosen (ties: lowest (layer, unit)); children fix it blocked / passing.
    """
    fixed = dom.region.phase_map()
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
    children = []
    for phase in (BLOCKED, PASSING):
        phases = dict(fixed)
        phases[unit] = phase
        region = PhaseSet(dom.region.box, tuple(sorted(phases.items())))
        children.append(Subdomain(region, dom.lower_bound, dom.depth + 1))
    return children


def _phase_match_mask(net: Network, pts: np.ndarray, phases: PhaseMap) -> np.ndarray:
    mask = np.ones(len(pts), dtype=bool)
    cur = pts
    for i, layer in enumerate(net.layers):
        if isinstance(layer, Linear):
            cur = cur @ layer.weight.T + layer.bias
        elif isinstance(layer, Relu):
            for (li, j), phase in phases.items():
                if li != i:
                    continue
                if phase == PASSING:
                    mask &= cur[:, j] >= 0.0
                else:
                    mask &= cur[:, j] <= 0.0
            cur = np.maximum(cur, 0.0)
        else:
            cur = np.stack([np.max(cur[:, list(g)], axis=1) for g in layer.groups], axis=1)
    return mask


def sample_upper_bound(
    net: Network,
    dom: Region,
    count: int,
    rng: SplitMix64,
) -> tuple[float, np.ndarray | None]:
    """Best canonical output over uniform samples plus one greedy coordinate
    descent pass from the best sample. Phase-set domains sample the root box
    and keep only phase-consistent points (+inf, None when none match)."""
    box = dom.box
    phases = dom.phase_map() if isinstance(dom, PhaseSet) else {}
    pts = rng.uniform_box(box.lb, box.ub, count)
    vals = forward_batch(net, pts)[:, 0]
    if phases:
        mask = _phase_match_mask(net, pts, phases)
        if not np.any(mask):
            return np.inf, None
        vals = np.where(mask, vals, np.inf)
    k = int(np.argmin(vals))
    best_val, best_pt = float(vals[k]), pts[k].copy()

    for j in range(box.size):
        for cand in (box.lb[j], 0.5 * (box.lb[j] + box.ub[j]), box.ub[j]):
            trial = best_pt.copy()
            trial[j] = cand
            v = float(forward_eval(net, trial)[0])
            if v < best_val:
                if phases and not _phase_match_mask(net, trial[None, :], phases)[0]:
                    continue
                best_val, best_pt = v, trial
    return best_val, best_pt


def _bound_region(net: Network, region: Region, cfg: BabConfig) -> tuple[float, LayerBounds | None, np.ndarray | None]:
    """Lower bound, refreshed bounds, and optional LP minimiser input point."""
    if isinstance(region, InputBox):
        box, phases = region.box, {}
    else:
        box, phases = region.box, region.phase_map()

    if cfg.bounding in (PLANET_TIGHTENED, PLANET_FIXED):
        pm = build_planet(net, box, phases, tighten=cfg.bounding == PLANET_TIGHTENED)
        lb, point = planet_lower_bound_with_point(pm)
        return lb, pm.bounds, point

    refined = refine_with_fixed_phases(net, propagate_box(net, box), phases)
    if refined is None:
        return np.inf, None, None
    if cfg.bounding == INTERVAL:
        return float(refined.output_lb[0]), refined, None
    if cfg.bounding == FAST_DUAL:
        return fast_dual_bound(net, box, refined), refined, None
    if cfg.bounding == RELUPLEX_RELAX:
        lb, point = reluplex_lower_bound(net, box, phases)
        return lb, refined, point
    raise ValueError(f"unknown bounding method {cfg.bounding!r}")


class _Engine:
    def __init__(self, problem: VerificationProblem, cfg: BabConfig):
        self.problem = problem
        self.net = problem.canonical_net
        self.cfg = cfg
        self.rng = SplitMix64(cfg.seed)
        self.nodes = 0
        self.t0 = time.monotonic()
        self.global_ub = np.inf if cfg.mode == OPTIMIZE else 0.0
        self.sat_point: np.ndarray | None = None
        self.pruned_lb = np.inf  # min lower bound among pruned subdomains
        self.final_lbs: list[float] = []  # unsplittable leaves w/o exact witness
        self.queue: list = []

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def out_of_budget(self) -> bool:
        return self.elapsed() >= self.cfg.timeout or self.nodes >= self.cfg.node_cap

    def evaluate(self, sub: Subdomain) -> tuple[Subdomain, list[tuple[float, np.ndarray]]]:
        """Bound one subdomain; returns it (lb/bounds filled) + UB candidates."""
        parent_lb = sub.lower_bound
        lb, bounds, lp_point = _bound_region(self.net, sub.region, self.cfg)
        if np.isfinite(parent_lb) and np.isfinite(lb) and np.isfinite(self.global_ub):
            # progress is measured against the gap that still has to close;
            # a bound creeping by epsilons while the gap stands still means
            # the branching choice is not working on this region
            gap = max(self.global_ub - lb, self.cfg.epsilon)
            sub.stalled = lb - parent_lb <= 0.01 * gap
        sub.lower_bound = max(lb, sub.lower_bound)  # child never below parent
        sub.bounds = bounds
        candidates: list[tuple[float, np.ndarray]] = []
        if np.isfinite(lb):
            rng = self.rng.spawn(sub.seq)
            val, pt = sample_upper_bound(self.net, sub.region, self.cfg.sample_count, rng)
            if pt is not None:
                candidates.append((val, pt))
            if lp_point is not None:
                candidates.append((float(forward_eval(self.net, lp_point)[0]), lp_point))
        return sub, candidates

    def global_lb(self) -> float:
        lbs = [self.queue[0][0]] if self.queue else []
        lbs.extend(self.final_lbs)
        return min(lbs) if lbs else self.global_ub

    def run(self, initial_phases: PhaseMap | None = None) -> BabResult:
        cfg = self.cfg
        if self.out_of_budget():
            return self._result(TIMEOUT, -np.inf)
        root_region: Region
        if cfg.branching == RELU_SPLIT or initial_phases:
            root_region = PhaseSet(self.problem.domain, tuple(sorted((initial_phases or {}).items())))
        else:
            root_region = InputBox(self.problem.domain)
        root = Subdomain(root_region, -np.inf, 0, seq=self._next_seq())

        res = self._process([root])
        if res is not None:
            return res
        while self.queue:
            glb = self.global_lb()
            if cfg.mode == OPTIMIZE and self.global_ub - glb <= cfg.epsilon:
                return self._result(CONVERGED, glb)
            if self.out_of_budget():
                return self._result(TIMEOUT, glb)
            parent = pick_out(self.queue)
            if cfg.mode == OPTIMIZE and parent.lower_bound >= self.global_ub:
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

    def _next_seq(self) -> int:
        self.nodes += 1
        return self.nodes

    def _split(self, sub: Subdomain) -> list[Subdomain]:
        cfg = self.cfg
        if cfg.branching == INPUT_LONGEST:
            children = split_input_longest(sub)
        elif cfg.branching == INPUT_SMART:
            # guaranteed progress: when the smart choice stopped moving the
            # real bound, halve the longest edge instead of trusting the
            # fast-bound score again
            if sub.stalled:
                children = split_input_longest(sub)
            else:
                children = split_input_smart(sub, self.net, root=self.problem.domain)
        elif cfg.branching == RELU_SPLIT:
            children = split_relu(sub, self.net, sub.bounds)
        else:
            raise ValueError(f"unknown branching rule {cfg.branching!r}")
        for child in children:
            child.seq = self._next_seq()
        return children

    def _finalize_leaf(self, sub: Subdomain) -> None:
        # Bound is final for this region. With an LP bounding the minimiser
        # witness already fed the incumbent, so the region is resolved; for
        # LP-free boundings keep the bound as a permanent floor.
        if self.cfg.bounding in (PLANET_TIGHTENED, PLANET_FIXED, RELUPLEX_RELAX):
            return
        self.final_lbs.append(sub.lower_bound)

    def _process(self, subs: list[Subdomain]) -> BabResult | None:
        for sub in subs:
            verdict = self._absorb(*self.evaluate(sub))
            if verdict is not None:
                return verdict
        return None

    def _absorb(self, sub: Subdomain, candidates: list[tuple[float, np.ndarray]]) -> BabResult | None:
        cfg = self.cfg
        for val, pt in candidates:
            if cfg.mode == SATISFIABILITY:
                if val <= 0.0 and validate_counterexample(self.problem, pt, 1e-6):
                    self.sat_point = pt
                    return self._result(SAT, self.global_lb())
            if val < self.global_ub and cfg.mode == OPTIMIZE:
                self.global_ub = val
        lb = sub.lower_bound
        if cfg.mode == SATISFIABILITY:
            if lb > 0.0:
                self.pruned_lb = min(self.pruned_lb, lb)
            else:
                _push(self.queue, sub)
        else:
            if lb < self.global_ub:
                _push(self.queue, sub)
            else:
                self.pruned_lb = min(self.pruned_lb, lb)
        return None

    def _wrap_up(self) -> BabResult:
        cfg = self.cfg
        if cfg.mode == SATISFIABILITY:
            if self.final_lbs and min(self.final_lbs) <= 0.0:
                return self._result(TIMEOUT, self.global_lb())
            margin = min(self.pruned_lb, min(self.final_lbs) if self.final_lbs else np.inf)
            return self._result(UNSAT, margin)
        glb = self.global_lb()
        if self.global_ub - glb <= cfg.epsilon:
            return self._result(CONVERGED, glb)
        return self._result(TIMEOUT, glb)

    def _result(self, status: str, glb: float) -> BabResult:
        res = BabResult(status=status, nodes=self.nodes, wall_time=self.elapsed(), best_lb=glb, best_ub=self.global_ub)
        if status == UNSAT:
            res.margin = glb
            res.best_lb = glb
        elif status == SAT:
            res.counterexample = self.sat_point
            res.best_ub = float(forward_eval(self.net, self.sat_point)[0])
        elif status == CONVERGED:
            res.min_estimate = self.global_ub
        return res


def bab_optimize(problem: VerificationProblem, config: BabConfig | None = None) -> BabResult:
    """Estimate the global minimum of the canonical output to within epsilon."""
    cfg = replace(config or BabConfig(), mode=OPTIMIZE)
    return _Engine(problem, cfg).run()


def bab_verify(
    problem: VerificationProblem,
    config: BabConfig | None = None,
    initial_phases: PhaseMap | None = None,
) -> BabResult:
    """Decide the property: UNSAT with a margin, SAT with a validated
    counterexample, or timeout."""
    cfg = replace(config or BabConfig(), mode=SATISFIABILITY)
    return _Engine(problem, cfg).run(initial_phases=initial_phases)
