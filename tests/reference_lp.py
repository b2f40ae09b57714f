"""The independent test oracle for ``plverify.lp.solve``.

``solve_reference`` enumerates the basic solutions (vertices) of models with
at most 8 variables. The subsets come in bounded chunks built in numpy, one
Gaussian elimination with partial pivoting per chunk solves them all, and a
pivot at most the pivot threshold marks a subset singular. It shares no code
with the simplex it checks, apart from reading the model.
"""

from __future__ import annotations

import numpy as np

from plverify.lp import EQ, GE, INFEASIBLE, LE, OPTIMAL, PIVOT_TOL, TOL_FEAS, LpModel, LpSolution, _padded_objective

_REFERENCE_CHUNK = 1 << 15


class TooLarge(Exception):
    """Model too large for the enumeration reference solver."""


def _after(heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """For each head, the first row of ``tails`` whose first index exceeds
    the head's last (tails sorted by first index)."""
    if heads.shape[1] == 0:
        return np.zeros(len(heads), dtype=np.intp)
    return np.searchsorted(tails[:, 0], heads[:, -1], side="right")


def _join(heads: np.ndarray, tails: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Each head followed by every row of ``tails`` from its ``start`` on,
    head by head."""
    counts = len(tails) - start
    offset = np.cumsum(counts) - counts  # where each head's rows begin
    rows = np.repeat(start - offset, counts) + np.arange(counts.sum())
    return np.hstack([np.repeat(heads, counts, axis=0), tails[rows]])


def _combinations(k: int, r: int) -> np.ndarray:
    """The r-subsets of range(k) in lexicographic order, one per row."""
    out = np.zeros((1, 0), dtype=np.intp)
    singles = np.arange(k, dtype=np.intp)[:, None]
    for _ in range(r):
        out = _join(out, singles, _after(out, singles))
    return out


def _subsets(k: int, n: int):
    """The n-subsets of range(k) in lexicographic order, as index arrays of
    about _REFERENCE_CHUNK rows each, so memory stays bounded. A chunk is a
    run of heads of n - 3 indices, each joined to every 3-subset that
    follows it; it ends at the first head that brings it to
    _REFERENCE_CHUNK rows."""
    r = min(n, 3)
    tails = _combinations(k, r)
    heads = _combinations(k, n - r)
    start = _after(heads, tails)
    ends = np.cumsum(len(tails) - start)
    lo = 0
    while lo < len(heads):
        done = int(ends[lo - 1]) if lo else 0
        hi = min(int(np.searchsorted(ends, done + _REFERENCE_CHUNK)) + 1, len(heads))
        if ends[hi - 1] > done:
            yield _join(heads[lo:hi], tails, start[lo:hi])
        lo = hi


def _vertices(g: np.ndarray, h: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    """The solutions of g[s] z = h[s] for the subsets s (rows of ``chunk``),
    as columns in subset order, without the singular subsets.

    One Gaussian elimination with partial pivoting runs over all subsets at
    once; a subset is singular when a pivot is at most PIVOT_TOL (the rows
    of g have unit norm). Entry (i, j) of subset s's system is a[j, i, s],
    and column n is its right-hand side, so every step works on contiguous
    runs of subsets.
    """
    count, n = chunk.shape
    a = np.empty((n + 1, n, count))
    np.take(g.T, chunk.T, axis=1, out=a[:n])
    np.take(h, chunk.T, out=a[n])
    flat = a.reshape(-1)
    subsets = np.arange(count)
    ok = np.ones(count, dtype=bool)
    for k in range(n):
        size = np.abs(a[k, k:])
        p = size.argmax(axis=0)  # pivot row, counted from row k
        ok &= size[p, subsets] > PIVOT_TOL
        swap = np.flatnonzero(p)
        if len(swap):  # exchange rows k and k + p in columns k..n
            cols = np.arange(k, n + 1)[:, None] * (n * count)
            at_k = cols + (k * count + swap)
            at_p = cols + ((k + p[swap]) * count + swap)
            flat[at_k], flat[at_p] = flat[at_p], flat[at_k]
        # a singular subset divides by 1, so its numbers stay finite
        factor = a[k, k + 1 :] / np.where(ok, a[k, k], 1.0)
        a[k + 1 :, k + 1 :] -= a[k + 1 :, None, k] * factor
    diag = np.where(ok, a[np.arange(n), np.arange(n)], 1.0)
    z = np.empty((n, count))
    for k in range(n - 1, -1, -1):
        z[k] = (a[n, k] - np.einsum("jc,jc->c", a[k + 1 : n, k], z[k + 1 :])) / diag[k]
    return z[:, ok]


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
    for a, rel, rhs in zip(model.rows, model.rel, model.rhs):
        if rel in (LE, EQ):
            g_rows.append(a)
            h_vals.append(rhs)
        if rel in (GE, EQ):
            g_rows.append(-a)
            h_vals.append(-rhs)

    g = np.array(g_rows).reshape(len(g_rows), n)
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
    # a subset holding a row next to its negation (a variable's two bounds,
    # an equality's two halves) is singular
    negated = np.flatnonzero(np.all(g[1:] == -g[:-1], axis=1))
    for chunk in _subsets(len(g), n):
        pairs = np.isin(chunk[:, :-1], negated) & (np.diff(chunk, axis=1) == 1)
        pts = _vertices(g, h, chunk[~pairs.any(axis=1)])
        feas = np.all(g @ pts <= h[:, None] + 1e-7, axis=0)
        if not np.any(feas):
            continue
        vals = c @ pts[:, feas]
        best = int(np.argmin(vals))
        if vals[best] < best_val:
            best_val, best_pt = float(vals[best]), pts[:, feas][:, best].copy()
    if best_pt is None:
        return LpSolution(INFEASIBLE, np.inf, None)
    return LpSolution(OPTIMAL, best_val, best_pt)
