"""Dense linear programming for the relaxations and MIP node subproblems.

The solver is a bounded-variable primal simplex over models whose variables
all carry finite box bounds (every LP in this artifact is box-bounded, so the
objective can never be unbounded), with a bounded dual simplex that makes
a start primal feasible. Both loops are built for the small LPs of this
artifact (about 13 to 25 rows): each iteration makes a handful of numpy
calls, and the ratio tests are scalar passes over Python lists.

* Primal pricing keeps a sign vector over the columns: +1 for a movable
  nonbasic column at its lower bound, -1 for one at its upper bound, 0 for
  a basic or fixed column. The entering column is the first argmax of
  (c_B B^-1 A - c) * sign; the run is optimal when that maximum is at most
  the optimality tolerance.
* The primal ratio test walks the basic rows once. Ties within 1e-12 of
  the shortest step go to the largest |B^-1 a_e| entry. The basic values
  live in a list during the run, updated as x_B - (s t) w.
* The dual loop takes the most violated basic as the leaving row. Its
  entering candidates are the columns whose signed row entry pushes that
  value toward its bound by more than the pivot threshold. Among them, a
  scalar pass takes the smallest |d_j| / |alpha_j|, ties within 1e-12 to
  the largest |alpha_j|.
* Bland's rule takes over after 50 consecutive degenerate pivots, to rule
  out cycling. It picks the first improving column and the smallest basic
  column among the ratio ties (dual: the smallest violated basic column,
  the first column among the ties).
* The basis inverse is updated in product form and refactorised every 64
  pivots and at the end, to contain drift.

A solve given a start ``Basis`` starts from that basis and overwrites it
with its final basis; the relaxation builder hands each LP the previous
LP's optimum, extended by a crash column per new row, the MIP search hands
each node its parent's optimum, and the oracle hands each pattern LP the
last basis on its pattern's path, extended by a basic slack per new row.
A ``Basis`` holds only columns: each solve derives its start from them.

Every solve takes one route: from a start basis, dual simplex pivots until
the basic values lie within their bounds, then primal phase 2. The start is
the given ``Basis`` when it is nonsingular and either primal feasible or
dual feasible (every reduced cost's sign right within the optimality
tolerance; a bound cut after an optimum). Otherwise, and after a
``NumericalFailure`` of that run, the solve starts from ``slack_basis``:
every slack basic, every structural column at the bound its cost prefers.
B = I there, so the reduced costs are the costs and this cold start is
always dual feasible; a failure from it propagates.

The dual pass stops once every basic value lies within the feasibility
tolerance of its bounds from a given start, within ``_TOL_COLD`` from the
slack basis: a cold pass stopped at the feasibility tolerance can leave a
basic value further outside a bound than the 1e-9 by which the relaxation
builder widens its tightened bounds. The pass reports INFEASIBLE only
through a checked Farkas row: when its ratio test finds no entering column,
row r of B^-1 is taken after a fresh refactor, and the range of that row's
combination of the columns over their box must miss its right-hand side by
more than the feasibility tolerance, scaled by the row's magnitude. When
the check fails but no basic value lies outside its bounds by more than the
feasibility tolerance, the start counts as feasible; otherwise the run
raises ``NumericalFailure``. The only other INFEASIBLE results are a
variable with lower > upper and a model without variables whose rows 0
does not meet.

Tolerances (fixed for the whole artifact): feasibility 1e-8 (1e-10 for
the dual pass from the slack basis), optimality 1e-7, pivot threshold
1e-9, iteration cap 50000.

``solve`` reads a model through its ``standard_form``: the row matrix, the
right-hand sides and the bounds of the structural and slack columns. An
``LpModel`` holds its variable bounds, row matrix, right-hand sides and
relation codes as arrays and grows by blocks, one per layer part in the
relaxation and MIP builders. Each block makes a new row set, shared with the
model's ``with_objective`` clones: [rows | I], the rows' positive and
negative parts and the relation masks are derived from it once, the slack
bounds again only when a variable bound changes, by the same formula, so
they are the same bytes. A ``RowStack`` (box
variables and a stack of ``<=`` rows; the oracle's pattern LPs) keeps its
form in buffers that double when full, so ``push`` and ``truncate`` touch
one row and a solve starts from views. Its slack bounds are computed for the
whole stack in the matrix product ``LpModel`` uses, once per stack state
that gets solved, so a ``RowStack`` solve returns the bytes of an
``LpModel`` solve with the same rows. Every array of a form is read-only,
so a write by the solver raises instead of corrupting the next solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

# relation codes of the rows
LE = 1
EQ = 0
GE = -1

TOL_FEAS = 1e-8
_TOL_COLD = 1e-10  # the dual pass's feasibility tolerance from the slack basis
TOL_OPT = 1e-7
PIVOT_TOL = 1e-9
MAX_ITER = 50_000
_DEGEN_TOL = 1e-12
_BLAND_TRIGGER = 50
_REFACTOR_EVERY = 64
_STACK_ROWS = 8  # the rows a new RowStack has room for


class NumericalFailure(Exception):
    """Simplex stalled or lost feasibility beyond the iteration cap."""


class _Form(NamedTuple):
    """An LP as ``solve`` reads it: row i is rows[i] . x + slack_i = rhs[i],
    and ``lo``/``hi`` bound the columns structural | one slack per row.
    ``full`` is the matrix [rows | I] over those columns."""

    rows: np.ndarray
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    full: np.ndarray


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _derive(a: np.ndarray, rhs: np.ndarray, rel: np.ndarray) -> tuple[np.ndarray, ...]:
    """What the bounds of a standard form leave alone, derived from the rows
    ``a`` and their relations: [a | I], max(a, 0), min(a, 0) and the masks
    of the <= and >= rows. ``a`` and ``rhs`` become read-only too."""
    is_le, is_ge = rel == LE, rel == GE
    if not (is_le | is_ge | (rel == EQ)).all():
        raise ValueError(f"unknown relation among {rel}")
    _read_only(a, rhs)
    return _read_only(np.hstack([a, np.eye(len(a))]), np.maximum(a, 0.0), np.minimum(a, 0.0), is_le, is_ge)


class _RowSet:
    """The rows of an ``LpModel``: row i is a[i] . x (rel[i]) rhs[i]. A new
    block gives its model a new row set, which its ``with_objective`` clones
    share, so ``standard_form`` derives its row part once and its column
    bounds again only for other variable bounds."""

    def __init__(self, a: np.ndarray, rhs: np.ndarray, rel: np.ndarray):
        self.a, self.rhs, self.rel = a, rhs, rel
        self.part: tuple[np.ndarray, ...] | None = None  # ``_derive``'s arrays, on the first solve
        self.bounds = b""  # the variable bounds of ``form``, as bytes
        self.form: _Form | None = None


class LpModel:
    """Minimisation LP: variables with bounds ``lower``/``upper`` and dense
    rows rows[i] . x (rel[i]) rhs[i], all held as arrays.

    The model grows by blocks (``add_block``): new variables with their
    bounds, then rows over every variable so far. Rows are never changed
    once added; the bounds may be changed in place. A solve raises
    ValueError on a bound that is not finite and reports a variable with
    lower > upper infeasible."""

    def __init__(self, lower=(), upper=()):
        self.lower = np.array(lower, dtype=np.float64)
        self.upper = np.array(upper, dtype=np.float64)
        self.objective: np.ndarray | None = None
        self._rows = _RowSet(np.zeros((0, len(self.lower))), np.zeros(0), np.zeros(0, dtype=int))

    rows = property(lambda self: self._rows.a)
    rhs = property(lambda self: self._rows.rhs)
    rel = property(lambda self: self._rows.rel)

    @property
    def num_vars(self) -> int:
        return len(self.lower)

    def add_block(self, rows: np.ndarray, rel, rhs, lower=(), upper=()) -> None:
        """Add variables with the bounds ``lower``/``upper``, then the rows
        rows[i] . x (rel[i]) rhs[i], each relation LE, EQ or GE; a row
        narrower than the variables is zero past its end."""
        old = self._rows
        (m, n), (k, width) = old.a.shape, rows.shape
        if not (k or len(lower)):
            return  # an empty block keeps the row set and its derived form
        self.lower, self.upper = np.concatenate((self.lower, lower)), np.concatenate((self.upper, upper))
        a = np.zeros((m + k, self.num_vars))
        a[:m, :n], a[m:, :width] = old.a, rows  # a row past the variables raises
        self._rows = _RowSet(a, np.concatenate((old.rhs, rhs)), np.concatenate((old.rel, rel)))

    def add_var(self, lb: float, ub: float) -> int:
        self.add_block(np.zeros((0, 0)), [], [], [lb], [ub])
        return self.num_vars - 1

    def add_row(self, coefs, rel: int, rhs: float) -> int:
        self.add_block(self._dense(coefs)[None], [rel], [rhs])
        return len(self.rhs) - 1

    def _dense(self, coefs) -> np.ndarray:
        """``coefs`` as a row over the variables: an array, or a dict of entries."""
        if not isinstance(coefs, dict):
            return np.asarray(coefs, dtype=np.float64)
        row = np.zeros(self.num_vars)
        row[list(coefs)] = list(coefs.values())
        return row

    def set_objective(self, coefs) -> None:
        self.objective = self._dense(coefs)

    def with_objective(self, coefs) -> "LpModel":
        """A clone with its own bounds and the objective ``coefs``, sharing
        the rows and what ``standard_form`` derives from them."""
        clone = object.__new__(LpModel)
        clone.lower, clone.upper, clone._rows = self.lower.copy(), self.upper.copy(), self._rows
        clone.set_objective(coefs)
        return clone

    def copy(self) -> "LpModel":
        """A clone that derives its standard form afresh."""
        clone, rows = self.with_objective({}), self._rows
        clone._rows = _RowSet(rows.a, rows.rhs, rows.rel)
        clone.objective = None if self.objective is None else self.objective.copy()
        return clone

    def standard_form(self) -> _Form | None:
        """The rows as ``solve`` reads them (see ``_Form``); None when some
        lower > upper. The row part is derived once per row set, the column
        bounds again only for other variable bounds."""
        lo = self.lower
        if (lo > self.upper + 1e-12).any():
            return None
        hi = np.maximum(self.upper, lo)  # collapse sub-tolerance inversions
        s = self._rows
        if s.part is None:
            s.part = _derive(s.a, s.rhs, s.rel)
        full, pos, neg, is_le, is_ge = s.part
        bounds = lo.tobytes() + hi.tobytes()
        if s.form is None or bounds != s.bounds:
            if not np.isfinite(hi - lo).all():
                raise ValueError("variable bounds must be finite")
            # one slack per row (fixed at 0 for equalities), finite bounds
            # derived from the row range over the variable boxes
            room_up = s.rhs - (pos @ lo + neg @ hi)
            room_dn = s.rhs - (pos @ hi + neg @ lo)
            slack_lo = np.where(is_ge & (room_dn < 0.0), room_dn, 0.0)
            slack_hi = np.where(is_le & (room_up > 0.0), room_up, 0.0)
            col_lo, col_hi = _read_only(np.concatenate([lo, slack_lo]), np.concatenate([hi, slack_hi]))
            s.form = _Form(s.a, s.rhs, col_lo, col_hi, full)
            s.bounds = bounds
        return s.form


class RowStack:
    """Minimisation LP over fixed box variables whose rows, all ``<=``,
    form a stack: ``push`` adds a row, ``truncate`` drops back to a depth.

    The stack keeps its standard form in buffers that double when full: the
    rows, the matrix [rows | slack identity], the right-hand sides and the
    column bounds, so the form ``solve`` reads is a set of views. A slack's
    upper bound, the row's room over the box, is computed for the whole
    stack in one matrix product, once per stack state that gets solved: a
    row's range computed alone can differ from it in the last bit, and
    ``solve`` must return the bytes an ``LpModel`` with the same rows gives.
    ``objective`` (None: zero) is read by each solve.
    """

    def __init__(self, lower, upper):
        lo = np.array(lower, dtype=np.float64)
        hi = np.array(upper, dtype=np.float64)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("variable bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("variable lb > ub")
        self.num_vars = n = len(lo)
        self.objective: np.ndarray | None = None
        self.depth = 0
        self._box = lo, hi
        self._rows = np.zeros((0, n))
        self._full = np.zeros((0, n))
        self._rhs = np.zeros(0)
        self._stale = False  # the slack bounds predate the last push or truncate
        self._grow(_STACK_ROWS)

    @property
    def rows(self) -> np.ndarray:
        return self._rows[: self.depth]

    def push(self, row: np.ndarray, rhs: float) -> None:
        """Add the row ``row . x <= rhs`` on top of the stack."""
        k, n = self.depth, self.num_vars
        if k == len(self._rhs):
            self._grow(2 * k)
        self._rows[k] = row
        self._full[k, :n] = row
        self._rhs[k] = rhs
        self.depth = k + 1
        self._stale = True

    def truncate(self, depth: int) -> None:
        """Drop the rows above ``depth``."""
        if not 0 <= depth <= self.depth:
            raise ValueError(f"cannot truncate a stack of {self.depth} rows to {depth}")
        self.depth = depth
        self._stale = True

    def _grow(self, cap: int) -> None:
        k, n = self.depth, self.num_vars
        rows = np.zeros((cap, n))
        rows[:k] = self._rows[:k]
        full = np.zeros((cap, n + cap))
        full[:, :n] = rows
        full[:, n:] = np.eye(cap)
        self._rows, self._full = rows, full
        self._rhs = np.concatenate([self._rhs[:k], np.zeros(cap - k)])
        # only push grows a stack, and it marks the slack bounds stale
        self._lo, self._hi = (np.concatenate([b, np.zeros(cap)]) for b in self._box)

    def standard_form(self) -> _Form:
        k, n = self.depth, self.num_vars
        rows, rhs = self._rows[:k], self._rhs[:k]
        lo, hi = self._box
        if self._stale:
            # as in LpModel.standard_form: slack_i in [0, max(rhs_i - row_i min, 0)]
            room = rhs - (np.maximum(rows, 0.0) @ lo + np.minimum(rows, 0.0) @ hi)
            self._hi[n : n + k] = np.where(room > 0.0, room, 0.0)
            self._stale = False
        return _Form(*_read_only(rows, rhs, self._lo[: n + k], self._hi[: n + k], self._full[:k, : n + k]))


@dataclass
class LpSolution:
    status: str
    objective: float
    x: np.ndarray | None


def _padded_objective(model: LpModel | RowStack) -> np.ndarray:
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


def slack_basis(model: LpModel | RowStack) -> Basis:
    """Every row's slack basic, every structural column at its upper bound
    when its cost is < 0, else at its lower bound. B = I, so the reduced
    costs are the costs and this start is dual feasible."""
    return Basis([~i for i in range(len(model.rows))], set(np.flatnonzero(_padded_objective(model) < 0.0).tolist()))


def solve(model: LpModel | RowStack, basis: Basis | None = None) -> LpSolution:
    """Bounded-variable simplex from ``basis`` when it is given, nonsingular
    and primal or dual feasible, else from ``slack_basis(model)``; dual
    pivots until the start is primal feasible, then primal phase 2."""
    form = model.standard_form()
    if form is None:
        return LpSolution(INFEASIBLE, np.inf, None)
    n = model.num_vars
    if n == 0:  # x = () meets row i when rhs_i lies within its slack's bounds
        if np.any(form.rhs < form.lo - TOL_FEAS) or np.any(form.rhs > form.hi + TOL_FEAS):
            return LpSolution(INFEASIBLE, np.inf, None)
        return LpSolution(OPTIMAL, 0.0, np.zeros(0))
    c = np.concatenate([_padded_objective(model), np.zeros(len(form.rhs))])
    if basis is not None:
        try:
            state = _warm_start(form, n, basis)
            if _can_start(state, c):
                return _run(state, form, c, TOL_FEAS, basis)
        except NumericalFailure:
            pass  # retried once from the slack basis
    return _run(_slack_start(model, form), form, c, _TOL_COLD, basis)


def _run(state: "_SimplexState", form: _Form, c: np.ndarray, tol: float, basis: Basis | None) -> LpSolution:
    """Dual pivots until every basic value lies within ``tol`` of its
    bounds, then primal phase 2; INFEASIBLE when the dual pass proves it."""
    used = _run_dual(state, c, tol, MAX_ITER)
    if used is None:
        return LpSolution(INFEASIBLE, np.inf, None)
    return _phase_two(state, form, c, MAX_ITER - used, basis)


def _columns(cols: list[int] | set[int], n: int) -> np.ndarray:
    """Indices into structural | slack columns of ``Basis`` columns."""
    b = np.fromiter(cols, dtype=np.intp, count=len(cols))
    return np.where(b >= 0, b, n + ~b)


def _warm_start(form: _Form, n: int, basis: Basis) -> "_SimplexState":
    """The state at ``basis``, derived from its columns; a singular basis
    raises NumericalFailure."""
    _, rhs, lo, hi, a = form
    m = len(rhs)
    if len(basis.basic) != m:
        raise ValueError(f"basis names {len(basis.basic)} basic columns for {m} rows")
    basic = _columns(basis.basic, n)
    at_upper = np.zeros(n + m, dtype=bool)
    at_upper[_columns(basis.at_upper, n)] = True
    at_upper[basic] = False
    x = np.where(at_upper, hi, lo)
    state = _SimplexState(a, rhs, lo, hi, x, at_upper, basic, None)
    state.refactor()
    return state


def _can_start(state: "_SimplexState", c: np.ndarray) -> bool:
    """False when a basic value lies outside its bounds by more than
    TOL_FEAS and some reduced cost of ``c`` has the wrong sign by more than
    TOL_OPT: neither simplex can start there."""
    basic, lo, hi = state.basis, state.lo, state.hi
    xb = state.x[basic]
    if (xb < lo[basic] - TOL_FEAS).any() or (xb > hi[basic] + TOL_FEAS).any():
        d = c - (c[basic] @ state.binv) @ state.a
        # a nonbasic column whose cost improves by leaving its bound
        return not (d * state.start_run() < -TOL_OPT).any()
    return True


def _slack_start(model: LpModel | RowStack, form: _Form) -> "_SimplexState":
    """The cold start: the state at ``slack_basis(model)``."""
    return _warm_start(form, model.num_vars, slack_basis(model))


def _phase_two(state: "_SimplexState", form: _Form, c: np.ndarray, max_iter: int, basis: Basis | None) -> LpSolution:
    """Minimise c from a feasible state over ``form``'s columns; record the
    final basis in ``basis``."""
    arow, rhs = form.rows, form.rhs
    n, m = arow.shape[1], len(rhs)
    _run_simplex(state, c, max_iter)

    state.refactor()
    xs = state.x[:n]
    if m:
        residual = np.abs(arow @ xs + state.x[n:] - rhs).max()
        if residual > 1e-6:
            raise NumericalFailure(f"final residual {residual:.2e}")
    if basis is not None:
        b = state.basis
        basis.basic = np.where(b < n, b, ~(b - n)).tolist()
        state.at_upper[b] = False
        u = np.flatnonzero(state.at_upper)
        basis.at_upper = set(np.where(u < n, u, ~(u - n)).tolist())
    return LpSolution(OPTIMAL, float(c[:n] @ xs), xs.copy())


class _SimplexState:
    def __init__(self, a, rhs, lo, hi, x, at_upper, basis, binv):
        self.a = a
        self.rhs = rhs
        self.lo = lo
        self.hi = hi
        self.x = x
        self.at_upper = at_upper
        self.basis = basis
        self.cols = basis.tolist()  # ``basis`` as a list, for scalar loops
        self.binv = binv
        self.fresh = False  # binv was inverted from the basis, no pivot since
        self.lo_l = self.hi_l = self.sgn = None

    def start_run(self) -> np.ndarray:
        """Start a run of pivots: the bounds as lists, and the sign vector,
        +1 for a movable nonbasic column at its lower bound, -1 for one at
        its upper bound, 0 for a basic or fixed column (the direction each
        column can move in). ``pivot`` keeps the sign vector current."""
        self.lo_l, self.hi_l = self.lo.tolist(), self.hi.tolist()
        sgn = np.where(self.at_upper, -1.0, 1.0)
        sgn[self.hi - self.lo <= 0.0] = 0.0
        sgn[self.basis] = 0.0
        self.sgn = sgn
        return sgn

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

    def pivot(self, e: int, leave: int, w: np.ndarray, to_upper: bool) -> None:
        """Column ``e`` enters the basis in row ``leave``, whose basic column
        leaves at its upper bound when ``to_upper``, else at its lower bound;
        ``w`` is B^-1 a_e. Product-form update of the inverse, shared by the
        primal and the dual loop."""
        lv = self.cols[leave]
        lo, hi = self.lo_l[lv], self.hi_l[lv]
        self.x[lv] = hi if to_upper else lo
        self.at_upper[lv] = to_upper
        self.sgn[lv] = 0.0 if hi - lo <= 0.0 else -1.0 if to_upper else 1.0
        self.sgn[e] = 0.0
        self.basis[leave] = e
        self.cols[leave] = e
        piv = w[leave]
        if abs(piv) < PIVOT_TOL:
            raise NumericalFailure("pivot below threshold")
        row = self.binv[leave] / piv
        self.binv -= w[:, None] * row
        self.binv[leave] = row
        self.fresh = False


def _run_simplex(state: _SimplexState, c: np.ndarray, max_iter: int) -> int:
    """Primal simplex from a feasible state until no reduced cost improves;
    the iterations used.

    The entering column has the largest score (c_B B^-1 a_j - c_j) sgn_j,
    improving when above TOL_OPT; it moves until it reaches its other bound
    (a flip) or a basic value reaches a bound first. That ratio test is a
    scalar pass over the basic rows, whose values the loop keeps in a list;
    ties within 1e-12 of the shortest step go to the largest |w|. Bland's
    rule (the first improving column, the smallest basic column among the
    ties) takes over after _BLAND_TRIGGER consecutive degenerate pivots.
    """
    a, x, cols = state.a, state.x, state.cols
    m = len(cols)
    sgn = state.start_run()
    lo_l, hi_l = state.lo_l, state.hi_l
    xb = x[state.basis].tolist()
    degen_run = 0
    bland = False

    for it in range(max_iter):
        if m and it > 0 and it % _REFACTOR_EVERY == 0:
            state.refactor()
            xb = x[state.basis].tolist()
        binv = state.binv

        score = (((c[state.basis] @ binv) @ a if m else 0.0) - c) * sgn
        e = int((score > TOL_OPT).argmax() if bland else score.argmax())
        if not score.item(e) > TOL_OPT:
            x[state.basis] = xb
            return it
        s = sgn.item(e)  # +1 when e rises from its lower bound, -1 when it falls
        t_flip = hi_l[e] - lo_l[e]

        t_leave = np.inf
        if m:
            w = binv @ a[:, e]
            wl = w.tolist()
            # basic value i moves by -s w_i per unit step
            ratios = []
            for wi, xi, j in zip(wl, xb, cols):
                move = -s * wi
                if move > PIVOT_TOL:
                    r = (hi_l[j] - xi) / move
                elif move < -PIVOT_TOL:
                    r = (xi - lo_l[j]) / -move
                else:
                    r = np.inf
                ratios.append(r if r > 0.0 else 0.0)
            t_leave = min(ratios)
            if t_leave < np.inf:
                near = [i for i, r in enumerate(ratios) if r <= t_leave + 1e-12]
                if bland:
                    leave = min(near, key=cols.__getitem__)
                else:
                    leave = max(near, key=lambda i: abs(wl[i]))

        t = min(t_flip, t_leave)
        if not t < np.inf:
            raise NumericalFailure("unbounded direction in box-bounded model")

        if t <= _DEGEN_TOL:
            degen_run += 1
            if degen_run >= _BLAND_TRIGGER:
                bland = True
        else:
            degen_run = 0

        step = s * t
        x[e] += step
        if m:
            xb = [xi - step * wi for xi, wi in zip(xb, wl)]
        if t_flip <= t_leave:
            state.at_upper[e] = s > 0.0
            x[e] = hi_l[e] if s > 0.0 else lo_l[e]
            sgn[e] = -s
        else:
            state.pivot(e, leave, w, s * wl[leave] < 0.0)
            xb[leave] = x.item(e)
    raise NumericalFailure(f"iteration cap {MAX_ITER} exceeded")


def _run_dual(state: _SimplexState, c: np.ndarray, tol: float, max_iter: int) -> int | None:
    """Bounded dual simplex from a dual feasible state until every basic
    value lies within ``tol`` of its bounds; the iterations used, or None
    when a checked Farkas row proves the model infeasible.

    Each pivot takes the most violated basic out at its violated bound and
    brings in the column that keeps every reduced cost's sign: among the
    columns whose move pushes the leaving value toward that bound, a scalar
    pass takes the smallest ratio |d_j| / |alpha_j|, ties within 1e-12 to
    the largest |alpha_j|. Bland's rule (the smallest violated basic column,
    the first column among the ties) takes over after _BLAND_TRIGGER
    consecutive dual-degenerate pivots. When no column can repair the
    chosen row and its Farkas check fails, the state still counts as
    feasible if no basic value lies outside its bounds by more than
    TOL_FEAS (only a ``tol`` below TOL_FEAS can get there).
    """
    a, x, basis, cols = state.a, state.x, state.basis, state.cols
    if not cols:
        return 0  # no basic value to lie outside its bounds
    lo_b, hi_b = state.lo[basis], state.hi[basis]
    sgn = None  # set up at the first violated row
    degen_run = 0
    bland = False

    for it in range(max_iter):
        if it > 0 and it % _REFACTOR_EVERY == 0:
            state.refactor()
        binv = state.binv

        xb = x[basis]
        violation = np.maximum(lo_b - xb, xb - hi_b)
        if bland:
            bad = [i for i, v in enumerate(violation.tolist()) if v > tol]
            if not bad:
                return it
            r = min(bad, key=cols.__getitem__)
        else:
            r = int(violation.argmax())
            if not violation.item(r) > tol:
                return it
        if sgn is None:
            sgn = state.start_run()
            lo_l, hi_l = state.lo_l, state.hi_l
        rise = lo_l[cols[r]] - xb.item(r) > 0.0  # the leaving value climbs to its lower bound

        alpha = binv[r] @ a
        # x_B[r] moves by -alpha_j sgn_j per unit step of column j
        moves = alpha * sgn
        eligible = np.flatnonzero(moves < -PIVOT_TOL if rise else moves > PIVOT_TOL).tolist()
        if not eligible:
            if not state.fresh:
                state.refactor()  # decide on an inverse without drift
                continue
            if _farkas_row(state, r):
                return None
            if not violation.max() > TOL_FEAS:
                return it
            raise NumericalFailure("dual ratio test found no column, Farkas check failed")
        d = c - (c[basis] @ binv) @ a
        dl, al, sl = d.tolist(), alpha.tolist(), sgn.tolist()
        ratios = []
        for j in eligible:
            room = dl[j] * sl[j]  # the reduced cost's room, >= 0 when dual feasible
            ratios.append((room if room > 0.0 else 0.0) / abs(al[j]))
        theta = min(ratios)
        near = [j for j, q in zip(eligible, ratios) if q <= theta + 1e-12]
        e = near[0] if bland else max(near, key=lambda j: abs(al[j]))

        if theta <= _DEGEN_TOL:
            degen_run += 1
            if degen_run >= _BLAND_TRIGGER:
                bland = True
        else:
            degen_run = 0

        w = binv @ a[:, e]
        target = lo_l[cols[r]] if rise else hi_l[cols[r]]
        step = (xb.item(r) - target) / w.item(r)
        x[e] += step
        x[basis] -= w * step
        state.pivot(e, r, w, not rise)
        lo_b[r], hi_b[r] = lo_l[e], hi_l[e]
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
