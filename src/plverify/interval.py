"""Interval-arithmetic propagation of per-layer activation bounds.

For an affine layer x_hat = W x + b with incoming bounds [l, u], the output
bounds come from the positive/negative split of the weights,

    lhat[j] = sum_k ( W+[j,k] l[k] + W-[j,k] u[k] ) + b[j]
    uhat[j] = sum_k ( W+[j,k] u[k] + W-[j,k] l[k] ) + b[j]

with a+ = max(a, 0) and a- = min(a, 0). For the first layer the raw box
bounds are used, signs included. ReLU transfer clamps both bounds at zero;
maxpool transfer takes the per-group max of both bounds. A ReLU phase fixed
by a branch clamps the unit's pre-activation bound at zero first.

This module is the one place interval bounds are computed. Each layer takes
two steps: ``pre_bounds`` (what the layer reads, phases clamped) and
``post_bounds`` (what it outputs); ``propagate_box`` chains them over a box,
keeping each ``pre`` entry and the output's lower bound (``LayerBounds``).
A box with 2-D ``lb``/``ub`` holds one box per row, each bounded to the bytes
of a call on that row alone: the Linear step is one matrix-vector product per
row (``np.matvec``), since a matrix product over the stack rounds differently.
``relax`` feeds its LP-tightened bounds through the same two steps layer by
layer, and ``oracle`` bounds a collapsed affine map with one ``pre_bounds``
call.

All arithmetic is plain 64-bit float; directed rounding is out of scope and
soundness tests carry a fixed 1e-9 slack instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BoxDomain, Layer, Linear, Network, Relu

# Phase values for a fixed ReLU: passing means x = x_hat, blocked means x = 0.
PASSING = True
BLOCKED = False

# Maps (relu layer index, unit index) -> PASSING | BLOCKED.
PhaseMap = dict[tuple[int, int], bool]


@dataclass
class LayerBounds:
    """Interval bounds for every layer, plus the lower bound of the output.

    ``pre`` is the layer's view of its input values right before the layer
    applies (for ReLU layers these are the l_i, u_i that all relaxations
    consume; for a Linear layer the affine output bounds). A layer's output
    bounds are ``post_bounds`` of its ``pre`` entry; only the last layer's
    lower half is kept, as ``output_lb``.
    """

    pre_lb: list[np.ndarray]
    pre_ub: list[np.ndarray]
    output_lb: np.ndarray


def pre_bounds(
    layer: Layer, i: int, lb: np.ndarray, ub: np.ndarray, phases: PhaseMap | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``pre`` entry of layer ``i`` from bounds [lb, ub] on its input:
    the affine image for a Linear layer, the input itself otherwise. A ReLU
    unit fixed BLOCKED gets its upper bound clamped to 0, one fixed PASSING
    its lower bound. None when a fixed phase contradicts the bounds (lower
    bound > 0 blocked, upper bound < 0 passing)."""
    if isinstance(layer, Linear):
        wp = np.maximum(layer.weight, 0.0)
        wn = np.minimum(layer.weight, 0.0)
        return np.matvec(wp, lb) + np.matvec(wn, ub) + layer.bias, np.matvec(wp, ub) + np.matvec(wn, lb) + layer.bias
    lo, hi = lb.copy(), ub.copy()
    if isinstance(layer, Relu) and phases:
        if lo.ndim != 1:
            raise ValueError("phases pin the units of one box, not of stacked rows")
        for (l, j), phase in phases.items():
            if l != i:
                continue
            if phase == BLOCKED:
                if lo[j] > 0.0:
                    return None
                hi[j] = min(hi[j], 0.0)
            else:
                if hi[j] < 0.0:
                    return None
                lo[j] = max(lo[j], 0.0)
    return lo, hi


def post_bounds(layer: Layer, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``post`` entry of a layer from its ``pre`` entry [lo, hi]. A ReLU
    unit with hi <= 0, which every unit fixed BLOCKED has after
    ``pre_bounds``, outputs exactly 0."""
    if isinstance(layer, Linear):
        return lo.copy(), hi.copy()
    if isinstance(layer, Relu):
        return np.where(hi > 0.0, np.maximum(lo, 0.0), 0.0), np.maximum(hi, 0.0)
    return (
        np.stack([lo[..., list(g)].max(axis=-1) for g in layer.groups], axis=-1),
        np.stack([hi[..., list(g)].max(axis=-1) for g in layer.groups], axis=-1),
    )


def propagate_box(net: Network, box: BoxDomain, phases: PhaseMap | None = None) -> LayerBounds | None:
    """Sound interval bounds for every pre/post activation over the box,
    with the ReLU phases of ``phases`` pinned (see ``pre_bounds``). None
    when a fixed phase contradicts the bounds: the subdomain is infeasible.
    A 2-D box holds a box per row (no phases), each bounded as by its own call."""
    cur_lb, cur_ub = box.lb, box.ub
    pre_lb, pre_ub = [], []
    for i, layer in enumerate(net.layers):
        pre = pre_bounds(layer, i, cur_lb, cur_ub, phases)
        if pre is None:
            return None
        cur_lb, cur_ub = post_bounds(layer, *pre)
        pre_lb.append(pre[0])
        pre_ub.append(pre[1])
    return LayerBounds(pre_lb, pre_ub, cur_lb)


def ambiguous_units(net: Network, bounds: LayerBounds) -> list[tuple[int, int]]:
    """(layer, unit) pairs of ReLU units whose pre-activation straddles zero."""
    out = []
    for i, layer in enumerate(net.layers):
        if isinstance(layer, Relu):
            lo, hi = bounds.pre_lb[i], bounds.pre_ub[i]
            for j in range(len(lo)):
                if lo[j] < 0.0 < hi[j]:
                    out.append((i, j))
    return out
