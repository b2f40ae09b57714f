"""Dense linear programming for the relaxations and MIP node subproblems.

The solver is a bounded-variable primal simplex over models whose variables
all carry finite box bounds (every LP in this artifact is box-bounded, so the
objective can never be unbounded), with a bounded dual simplex for warm
starts. Bland's rule takes over after 50 consecutive degenerate pivots to
rule out cycling, and the basis inverse is refactorised periodically to
contain drift.

A solve given a start ``Basis`` starts from that basis and overwrites it
with its final basis; the relaxation builder hands each LP the previous
LP's optimum, extended by a crash column per new row, the MIP search hands
each node its parent's optimum, and the oracle hands each pattern LP the
last basis on its pattern's path, extended by a basic slack per new row.
A start whose basic values lie within their bounds runs primal phase 2
only. A start that puts a basic value
outside its bounds but keeps every reduced cost's sign within the
optimality tolerance (dual feasible; a bound cut after an optimum) first
runs dual simplex pivots until the basic values are within bounds, then
hands over to primal phase 2. The dual path reports INFEASIBLE only through
a checked Farkas row: when its ratio test finds no entering column, row r of
B^-1 is taken after a fresh refactor, and the range of that row's
combination of the columns over their box must miss its right-hand side by
more than the feasibility tolerance, scaled by the row's magnitude;
otherwise the warm run raises ``NumericalFailure``. A start that is neither
primal nor dual feasible, or is singular, falls back to the cold two-phase
path (phase 1 with one artificial variable per row, which decides
infeasibility, then phase 2), and a warm ``NumericalFailure`` is retried
once cold; only a cold failure propagates.

Tolerances (fixed for the whole artifact): feasibility 1e-8, optimality
1e-7, pivot threshold 1e-9, iteration cap 50000.

``solve_reference`` is the independent test oracle: exhaustive enumeration of
basic solutions (vertices) for models with at most 8 variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

LE = "<="
EQ = "="
GE = ">="

TOL_FEAS = 1e-8
TOL_OPT = 1e-7
PIVOT_TOL = 1e-9
MAX_ITER = 50_000
_DEGEN_TOL = 1e-12
_BLAND_TRIGGER = 50
_REFACTOR_EVERY = 64
_REFERENCE_CHUNK = 1 << 15


class NumericalFailure(Exception):
    """Simplex stalled or lost feasibility beyond the iteration cap."""


class TooLarge(Exception):
    """Model too large for the enumeration reference solver."""


@dataclass
class LpModel:
    """Minimisation LP: variables with finite bounds, dense rows."""

    lower: list[float] = field(default_factory=list)
    upper: list[float] = field(default_factory=list)
    rows: list[tuple[np.ndarray, str, float]] = field(default_factory=list)
    objective: np.ndarray | None = None

    @property
    def num_vars(self) -> int:
        return len(self.lower)

    def add_var(self, lb: float, ub: float) -> int:
        if not (np.isfinite(lb) and np.isfinite(ub)):
            raise ValueError("variable bounds must be finite")
        if lb > ub:
            raise ValueError("variable lb > ub")
        self.lower.append(float(lb))
        self.upper.append(float(ub))
        return len(self.lower) - 1

    def add_row(self, coefs, rel: str, rhs: float) -> int:
        if rel not in (LE, EQ, GE):
            raise ValueError(f"unknown relation {rel!r}")
        if isinstance(coefs, dict):
            row = np.zeros(self.num_vars)
            for idx, val in coefs.items():
                row[idx] = val
        else:
            row = np.asarray(coefs, dtype=np.float64)
        self.rows.append((row, rel, float(rhs)))
        return len(self.rows) - 1

    def set_objective(self, coefs) -> None:
        if isinstance(coefs, dict):
            c = np.zeros(self.num_vars)
            for idx, val in coefs.items():
                c[idx] = val
        else:
            c = np.asarray(coefs, dtype=np.float64)
        self.objective = c

    def with_objective(self, coefs) -> "LpModel":
        """Shallow copy sharing rows, with a different objective."""
        clone = LpModel(list(self.lower), list(self.upper), list(self.rows))
        clone.set_objective(coefs)
        return clone

    def copy(self) -> "LpModel":
        clone = LpModel(list(self.lower), list(self.upper), list(self.rows))
        if self.objective is not None:
            clone.objective = self.objective.copy()
        return clone


@dataclass
class LpSolution:
    status: str
    objective: float
    x: np.ndarray | None


def _padded_objective(model: LpModel) -> np.ndarray:
    c = np.zeros(model.num_vars)
    if model.objective is not None:
        c[: len(model.objective)] = model.objective
    return c


@dataclass
class Basis:
    """A simplex basis: the start of a ``solve``, overwritten with its final basis.

    A column is a variable index ``j``, or ``~i`` for the slack of row ``i``.
    ``basic`` holds one column per row; nonbasic columns listed in
    ``at_upper`` start at their upper bound, all others at their lower bound.
    """

    basic: list[int] = field(default_factory=list)
    at_upper: set[int] = field(default_factory=set)


def solve(model: LpModel, basis: Basis | None = None) -> LpSolution:
    """Bounded-variable simplex, warm from ``basis`` when it is given,
    nonsingular and primal or dual feasible; two-phase from scratch otherwise."""
    n = model.num_vars
    if n == 0:
        return LpSolution(OPTIMAL, 0.0, np.zeros(0))
    form = _standard_form(model)
    if form is None:
        return LpSolution(INFEASIBLE, np.inf, None)
    c_obj = _padded_objective(model)
    if basis is not None:
        try:
            c = np.concatenate([c_obj, np.zeros(len(form[1]))])
            state = _warm_start(form, n, basis, c)
            if state is not None:
                used = _run_dual(state, c, MAX_ITER)
                if used is None:
                    return LpSolution(INFEASIBLE, np.inf, None)
                return _phase_two(state, form, c_obj, MAX_ITER - used, basis)
        except NumericalFailure:
            pass  # retried once from scratch
    start = _phase_one(form, n)
    if start is None:
        return LpSolution(INFEASIBLE, np.inf, None)
    state, iters_used = start
    return _phase_two(state, form, c_obj, MAX_ITER - iters_used, basis)


def _standard_form(model: LpModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """(rows, rhs, lo, hi): the row matrix over the structural columns, and
    the bounds of the columns structural | one slack per row, where row i
    reads rows[i] . x + slack_i = rhs[i]; None when some lower > upper."""
    n = model.num_vars
    lo = np.asarray(model.lower, dtype=np.float64)
    hi = np.asarray(model.upper, dtype=np.float64)
    if np.any(lo > hi + 1e-12):
        return None
    hi = np.maximum(hi, lo)  # collapse sub-tolerance inversions

    m = len(model.rows)
    arow = np.zeros((m, n))
    rhs = np.zeros(m)
    rels = []
    for i, (row, rel, r) in enumerate(model.rows):
        if len(row) > n:
            raise ValueError("row references unknown variables")
        arow[i, : len(row)] = row
        rhs[i] = r
        rels.append(rel)

    # Standard form: one slack per row (fixed at 0 for equalities), finite
    # bounds derived from the row range over the variable boxes.
    wp = np.maximum(arow, 0.0)
    wn = np.minimum(arow, 0.0)
    row_min = wp @ lo + wn @ hi
    row_max = wp @ hi + wn @ lo
    is_le = np.array([rel == LE for rel in rels], dtype=bool)
    is_ge = np.array([rel == GE for rel in rels], dtype=bool)
    room_up = rhs - row_min
    room_dn = rhs - row_max
    slack_lo = np.where(is_ge & (room_dn < 0.0), room_dn, 0.0)
    slack_hi = np.where(is_le & (room_up > 0.0), room_up, 0.0)
    return arow, rhs, np.concatenate([lo, slack_lo]), np.concatenate([hi, slack_hi])


def _warm_start(form, n: int, basis: Basis, c: np.ndarray) -> "_SimplexState | None":
    """The state at ``basis``; None when a basic value lies outside its
    bounds by more than TOL_FEAS and some reduced cost of ``c`` has the wrong
    sign by more than TOL_OPT (neither simplex can start there). A singular
    basis raises NumericalFailure."""
    arow, rhs, lo, hi = form
    m = len(rhs)
    if len(basis.basic) != m:
        raise ValueError(f"basis names {len(basis.basic)} basic columns for {m} rows")
    basic = np.array([j if j >= 0 else n + ~j for j in basis.basic], dtype=np.intp)
    at_upper = np.zeros(n + m, dtype=bool)
    at_upper[[j if j >= 0 else n + ~j for j in basis.at_upper]] = True
    at_upper[basic] = False
    in_basis = np.zeros(n + m, dtype=bool)
    in_basis[basic] = True
    x = np.where(at_upper, hi, lo)
    a = np.hstack([arow, np.eye(m)])
    state = _SimplexState(a, rhs, lo, hi, x, at_upper, basic, in_basis, None)
    state.refactor()
    xb = state.x[basic]
    if np.any(xb < lo[basic] - TOL_FEAS) or np.any(xb > hi[basic] + TOL_FEAS):
        d = c - (c[basic] @ state.binv) @ a
        wrong = np.where(at_upper, d > TOL_OPT, d < -TOL_OPT)
        if np.any(wrong & ~in_basis & (hi > lo)):
            return None
    return state


def _phase_one(form, n: int) -> "tuple[_SimplexState, int] | None":
    """A feasible state from one artificial variable per row, plus the
    iterations used; None when the model is infeasible."""
    arow, rhs, lo, hi = form
    m = len(rhs)
    total = n + m + m  # structural | slacks | artificials
    a_full = np.zeros((m, total))
    a_full[:, :n] = arow
    a_full[:, n : n + m] = np.eye(m)
    lo_full = np.concatenate([lo, np.zeros(m)])
    hi_full = np.concatenate([hi, np.zeros(m)])
    slack_lo, slack_hi = lo[n:], hi[n:]

    x = np.concatenate([lo[:n], np.zeros(m), np.zeros(m)])
    at_upper = np.zeros(total, dtype=bool)
    # Slacks start at whichever of their bounds is nearer the row residual.
    desired = rhs - arow @ lo[:n]
    start_upper = np.abs(desired - slack_hi) < np.abs(desired - slack_lo)
    x[n : n + m] = np.where(start_upper, slack_hi, slack_lo)
    at_upper[n : n + m] = start_upper
    resid = rhs - arow @ lo[:n] - x[n : n + m]
    sigma = np.where(resid >= 0.0, 1.0, -1.0)
    a_full[:, n + m :] = np.diag(sigma)
    hi_full[n + m :] = np.abs(resid)
    x[n + m :] = np.abs(resid)

    basis = np.arange(n + m, total)
    in_basis = np.zeros(total, dtype=bool)
    in_basis[basis] = True
    binv = np.diag(sigma).copy()

    state = _SimplexState(a_full, rhs, lo_full, hi_full, x, at_upper, basis, in_basis, binv)

    c_phase1 = np.zeros(total)
    c_phase1[n + m :] = 1.0
    iters_used = _run_simplex(state, c_phase1, MAX_ITER)
    if c_phase1 @ state.x > TOL_FEAS:
        return None

    # Pin artificials at zero for phase 2; basic ones stay at 0 harmlessly.
    state.hi[n + m :] = 0.0
    state.x[n + m :] = np.minimum(state.x[n + m :], 0.0)
    return state, iters_used


def _phase_two(state: "_SimplexState", form, c_obj: np.ndarray, max_iter: int, basis: Basis | None) -> LpSolution:
    """Minimise c_obj from a feasible state; record the final basis."""
    arow, rhs = form[0], form[1]
    n, m = len(c_obj), len(rhs)
    c = np.concatenate([c_obj, np.zeros(len(state.x) - n)])
    _run_simplex(state, c, max_iter)

    state.refactor()
    xs = state.x[:n]
    if m:
        residual = np.max(np.abs(arow @ xs + state.x[n : n + m] - rhs))
        if residual > 1e-6:
            raise NumericalFailure(f"final residual {residual:.2e}")
    if basis is not None:
        # a basic artificial (pinned at 0) stands in for its row's slack:
        # the two columns differ only in sign
        basis.basic = [int(j) if j < n else ~int((j - n) % m) for j in state.basis]
        upper = state.at_upper[: n + m] & ~state.in_basis[: n + m]
        basis.at_upper = {int(j) if j < n else ~int(j - n) for j in np.flatnonzero(upper)}
    return LpSolution(OPTIMAL, float(c_obj @ xs), xs.copy())


class _SimplexState:
    def __init__(self, a, rhs, lo, hi, x, at_upper, basis, in_basis, binv):
        self.a = a
        self.rhs = rhs
        self.lo = lo
        self.hi = hi
        self.x = x
        self.at_upper = at_upper
        self.basis = basis
        self.in_basis = in_basis
        self.binv = binv
        self.fresh = False  # binv was inverted from the basis, no pivot since

    def refactor(self) -> None:
        """Recompute the basic values, inverting the basis again unless no
        pivot happened since the last inversion (the inverse would be the
        same bytes)."""
        m = len(self.basis)
        if m == 0:
            return
        if not self.fresh:
            try:
                self.binv = np.linalg.inv(self.a[:, self.basis])
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure("singular basis") from exc
            self.fresh = True
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self.binv @ (self.rhs - self.a @ xn)

    def pivot(self, e: int, leave: int, w: np.ndarray, to_upper) -> None:
        """Column ``e`` enters the basis in row ``leave``, whose basic column
        leaves at its upper bound when ``to_upper``, else at its lower bound;
        ``w`` is B^-1 a_e. Product-form update of the inverse, shared by the
        primal and the dual loop."""
        lv = int(self.basis[leave])
        self.x[lv] = self.hi[lv] if to_upper else self.lo[lv]
        self.at_upper[lv] = to_upper
        self.in_basis[lv] = False
        self.basis[leave] = e
        self.in_basis[e] = True
        piv = w[leave]
        if abs(piv) < PIVOT_TOL:
            raise NumericalFailure("pivot below threshold")
        row = self.binv[leave] / piv
        self.binv -= w[:, None] * row
        self.binv[leave] = row
        self.fresh = False


def _run_simplex(state: _SimplexState, c: np.ndarray, max_iter: int) -> int:
    a, lo, hi = state.a, state.lo, state.hi
    m = len(state.basis)
    movable = hi - lo > 0.0
    no_ratio = np.full(m, np.inf)
    degen_run = 0
    bland = False

    for it in range(max_iter):
        if m and it > 0 and it % _REFACTOR_EVERY == 0:
            state.refactor()
        x, basis, in_basis, at_upper, binv = state.x, state.basis, state.in_basis, state.at_upper, state.binv

        y = c[basis] @ binv if m else np.zeros(0)
        d = c - (y @ a if m else 0.0)
        # a nonbasic at its lower bound improves by increasing, one at its
        # upper bound by decreasing
        eligible = movable & ~in_basis & np.where(at_upper, d > TOL_OPT, d < -TOL_OPT)
        if not eligible.any():
            return it
        if bland:
            e = int(eligible.argmax())  # first eligible index
        else:
            e = int(np.where(eligible, np.abs(d), -1.0).argmax())
        sgn = -1.0 if at_upper[e] else 1.0

        w = binv @ a[:, e] if m else np.zeros(0)
        delta = -sgn * w  # movement of basics per unit step
        t_flip = hi[e] - lo[e]

        t_leave = np.inf
        leave = -1
        if m:
            xb = x[basis]
            up = np.divide(hi[basis] - xb, delta, out=no_ratio.copy(), where=delta > PIVOT_TOL)
            dn = np.divide(xb - lo[basis], -delta, out=no_ratio.copy(), where=delta < -PIVOT_TOL)
            ratios = np.maximum(np.minimum(up, dn), 0.0)
            t_leave = float(ratios.min())
            if np.isfinite(t_leave):
                near = (ratios <= t_leave + 1e-12).nonzero()[0]
                if bland:
                    leave = int(near[basis[near].argmin()])
                else:
                    leave = int(near[np.abs(w[near]).argmax()])

        t = min(t_flip, t_leave)
        if not np.isfinite(t):
            raise NumericalFailure("unbounded direction in box-bounded model")

        if t <= _DEGEN_TOL:
            degen_run += 1
            if degen_run >= _BLAND_TRIGGER:
                bland = True
        else:
            degen_run = 0

        x[e] += sgn * t
        if m:
            x[basis] += delta * t
        if t_flip <= t_leave:
            at_upper[e] = not at_upper[e]
            x[e] = hi[e] if at_upper[e] else lo[e]
        else:
            state.pivot(e, leave, w, delta[leave] > 0)
    raise NumericalFailure(f"iteration cap {MAX_ITER} exceeded")


def _run_dual(state: _SimplexState, c: np.ndarray, max_iter: int) -> int | None:
    """Bounded dual simplex from a dual feasible state until every basic
    value lies within its bounds; the iterations used, or None when a
    checked Farkas row proves the model infeasible.

    Each pivot takes the most violated basic out at its violated bound and
    brings in the column that keeps every reduced cost's sign (dual ratio
    test, ties to the largest pivot); Bland's rule takes over after
    _BLAND_TRIGGER consecutive dual-degenerate pivots.
    """
    a, lo, hi = state.a, state.lo, state.hi
    movable = hi - lo > 0.0
    degen_run = 0
    bland = False

    for it in range(max_iter):
        if it > 0 and it % _REFACTOR_EVERY == 0:
            state.refactor()
        x, basis, in_basis, at_upper, binv = state.x, state.basis, state.in_basis, state.at_upper, state.binv

        xb = x[basis]
        below = lo[basis] - xb
        above = xb - hi[basis]
        violation = np.maximum(below, above)
        bad = violation > TOL_FEAS
        if not bad.any():
            return it
        if bland:
            rows = bad.nonzero()[0]
            r = int(rows[basis[rows].argmin()])
        else:
            r = int(violation.argmax())
        rise = below[r] > 0.0  # the leaving value climbs to its lower bound

        d = c - (c[basis] @ binv) @ a
        alpha = binv[r] @ a
        # x_B[r] moves by -alpha_j per unit increase of column j
        toward = -alpha if rise else alpha
        eligible = movable & ~in_basis & np.where(at_upper, toward < -PIVOT_TOL, toward > PIVOT_TOL)
        if not eligible.any():
            if not state.fresh:
                state.refactor()  # decide on an inverse without drift
                continue
            if _farkas_row(state, r):
                return None
            raise NumericalFailure("dual ratio test found no column, Farkas check failed")
        slack = np.maximum(np.where(at_upper, -d, d), 0.0)
        ratios = np.divide(slack, np.abs(alpha), out=np.full(len(alpha), np.inf), where=eligible)
        theta = float(ratios.min())
        near = (ratios <= theta + 1e-12).nonzero()[0]
        if bland:
            e = int(near[0])
        else:
            e = int(near[np.abs(alpha[near]).argmax()])

        if theta <= _DEGEN_TOL:
            degen_run += 1
            if degen_run >= _BLAND_TRIGGER:
                bland = True
        else:
            degen_run = 0

        w = binv @ a[:, e]
        target = lo[basis[r]] if rise else hi[basis[r]]
        step = (xb[r] - target) / w[r]
        x[e] += step
        x[basis] -= w * step
        state.pivot(e, r, w, not rise)
    raise NumericalFailure(f"iteration cap {MAX_ITER} exceeded")


def _farkas_row(state: _SimplexState, r: int) -> bool:
    """Whether row ``r`` of B^-1 proves the model infeasible.

    Every solution z of the rows satisfies (y A) z = y rhs for y = row r of
    B^-1, so the model is infeasible when y rhs lies outside the range of
    (y A) z over the column box. Any y gives a valid proof, so rounding in y
    cannot make a false one; the range must miss by more than TOL_FEAS times
    the row's magnitude (the sum of its terms' largest sizes over the box,
    at least 1), so rounding in the sums cannot either.
    """
    y = state.binv[r]
    alpha = y @ state.a
    at_lo, at_hi = alpha * state.lo, alpha * state.hi
    low = float(np.minimum(at_lo, at_hi).sum())
    high = float(np.maximum(at_lo, at_hi).sum())
    value = float(y @ state.rhs)
    scale = max(1.0, float(np.maximum(np.abs(at_lo), np.abs(at_hi)).sum()), abs(value))
    return value < low - TOL_FEAS * scale or value > high + TOL_FEAS * scale


def _subsets(k: int, n: int):
    """The n-subsets of range(k) in lexicographic order, as index arrays of
    about _REFERENCE_CHUNK rows each, so memory stays bounded. Each head of
    n - 3 indices is joined in numpy to every 3-subset that follows it."""
    r = min(n, 3)
    tails = np.array(list(itertools.combinations(range(k), r)), dtype=np.intp).reshape(-1, r)
    after = np.searchsorted(tails[:, 0], np.arange(k), side="right")
    blocks, size = [], 0
    for head in itertools.combinations(range(k), n - r):
        tail = tails[after[head[-1]] :] if head else tails
        if len(tail):
            blocks.append(np.hstack([np.broadcast_to(np.array(head, dtype=np.intp), (len(tail), n - r)), tail]))
            size += len(tail)
        if size >= _REFERENCE_CHUNK:
            yield np.concatenate(blocks)
            blocks, size = [], 0
    if blocks:
        yield np.concatenate(blocks)


def solve_reference(model: LpModel) -> LpSolution:
    """Exhaustive vertex enumeration; the independent oracle for ``solve``.

    Every vertex of a box-bounded polyhedron is the solution of n active
    constraints, so enumerating all n-subsets of the (normalised) constraint
    rows and filtering by feasibility finds the optimum. Only usable for
    small models.
    """
    n = model.num_vars
    if n > 8:
        raise TooLarge(f"{n} variables exceeds the reference cap of 8")
    c = _padded_objective(model)
    lo = np.asarray(model.lower)
    hi = np.asarray(model.upper)
    if np.any(lo > hi + 1e-12):
        return LpSolution(INFEASIBLE, np.inf, None)
    hi = np.maximum(hi, lo)

    g_rows: list[np.ndarray] = []
    h_vals: list[float] = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        g_rows.append(e.copy())
        h_vals.append(hi[j])
        g_rows.append(-e)
        h_vals.append(-lo[j])
    for row, rel, rhs in model.rows:
        a = np.zeros(n)
        a[: len(row)] = row
        if rel in (LE, EQ):
            g_rows.append(a)
            h_vals.append(rhs)
        if rel in (GE, EQ):
            g_rows.append(-a)
            h_vals.append(-rhs)

    g = np.array(g_rows)
    h = np.array(h_vals)
    norms = np.linalg.norm(g, axis=1)
    zero_rows = norms < 1e-14
    if np.any(h[zero_rows] < -TOL_FEAS):
        return LpSolution(INFEASIBLE, np.inf, None)
    g, h, norms = g[~zero_rows], h[~zero_rows], norms[~zero_rows]
    g = g / norms[:, None]
    h = h / norms

    # the first best vertex in enumeration order wins, as in one batch
    best_val, best_pt = np.inf, None
    for chunk in _subsets(len(g), n):
        mats = g[chunk]
        dets = np.abs(np.linalg.det(mats))
        ok = dets > 1e-8
        if not np.any(ok):
            continue
        pts = np.linalg.solve(mats[ok], h[chunk][ok][..., None])[..., 0]
        feas = np.all(g @ pts.T <= h[:, None] + 1e-7, axis=0)
        if not np.any(feas):
            continue
        vals = pts[feas] @ c
        best = int(np.argmin(vals))
        if vals[best] < best_val:
            best_val, best_pt = float(vals[best]), pts[feas][best]
    if best_pt is None:
        return LpSolution(INFEASIBLE, np.inf, None)
    return LpSolution(OPTIMAL, best_val, best_pt)
