"""Reduction of (network, property) pairs to canonical scalar-output form.

A property is a Boolean tree of linear output inequalities. Canonicalization
appends extra layers so that the whole question becomes the sign of a single
scalar: the property holds on the domain iff the minimum of the canonical
network's output over the domain is strictly positive, and any in-box input
driving that output to <= 0 is a counterexample.

Encodings:

* ``Geq(c, b)``  -> one Linear layer with weight row c and bias -b;
* ``Any`` (OR)   -> each child encoded to a scalar, then a MaxPool over all
  child scalars (an OR holds strictly iff the max of the margins is > 0);
* ``All`` (AND)  -> child scalars negated, MaxPooled, negated again, i.e.
  min_i s_i written as -max_i(-s_i), keeping the layer zoo minimal.

Boundary convention: a canonical output of exactly 0 counts as a violation
(the counterexample system uses a non-strict inequality), so verdicts at 0
are SAT. Nested clauses are supported by stacking the child encodings in
parallel, padding shorter branches with singleton MaxPools and identity
Linear layers so every branch has the same layer structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interval import LayerBounds, propagate_box
from .model import BoxDomain, Layer, Linear, MaxPool, Network, Relu, forward_eval, is_relu_only


@dataclass(frozen=True)
class Geq:
    """The atomic property c . out >= b."""

    c: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=np.float64))
        object.__setattr__(self, "b", float(self.b))


@dataclass(frozen=True)
class AnyClause:
    clauses: tuple


@dataclass(frozen=True)
class AllClause:
    clauses: tuple


PropertyClause = Geq | AnyClause | AllClause


@dataclass(frozen=True)
class VerificationProblem:
    canonical_net: Network
    domain: BoxDomain
    original_net: Network
    original_property: PropertyClause


def clause_holds_strict(prop: PropertyClause, out: np.ndarray) -> bool:
    """Strict Boolean evaluation of the clause tree on an output vector."""
    if isinstance(prop, Geq):
        return float(prop.c @ out - prop.b) > 0.0
    if isinstance(prop, AnyClause):
        return any(clause_holds_strict(c, out) for c in prop.clauses)
    return all(clause_holds_strict(c, out) for c in prop.clauses)


def _check_shapes(prop: PropertyClause, width: int) -> None:
    if isinstance(prop, Geq):
        if prop.c.shape != (width,):
            raise ValueError(f"property coefficient length {prop.c.shape} does not match output width {width}")
    else:
        if not prop.clauses:
            raise ValueError("empty any/all clause")
        for c in prop.clauses:
            _check_shapes(c, width)


# A clause encoding is kept in the normal form [Linear (MaxPool Linear)*]:
# it starts and ends with a Linear layer and maps the base output width to a
# single scalar. This makes parallel stacking of sibling encodings purely
# structural.


def _pool_count(suffix: list[Layer]) -> int:
    return sum(1 for l in suffix if isinstance(l, MaxPool))


def _pad_suffix(suffix: list[Layer], pools: int) -> list[Layer]:
    out = list(suffix)
    while _pool_count(out) < pools:
        out.append(MaxPool(((0,),)))
        out.append(Linear(np.eye(1), np.zeros(1)))
    return out


def _stack_parallel(suffixes: list[list[Layer]], in_width: int) -> list[Layer]:
    """Stack scalar child encodings side by side over a shared input."""
    pools = max(_pool_count(s) for s in suffixes)
    suffixes = [_pad_suffix(s, pools) for s in suffixes]
    stages = len(suffixes[0])
    out: list[Layer] = []
    for t in range(stages):
        parts = [s[t] for s in suffixes]
        if t == 0:
            weight = np.vstack([p.weight for p in parts])
            bias = np.concatenate([p.bias for p in parts])
            out.append(Linear(weight, bias))
        elif isinstance(parts[0], MaxPool):
            groups: list[tuple[int, ...]] = []
            offset = 0
            for s in suffixes:
                layer = s[t]
                in_w = Network(in_width, tuple(s[:t])).output_size
                groups.extend(tuple(idx + offset for idx in g) for g in layer.groups)
                offset += in_w
            out.append(MaxPool(tuple(groups)))
        else:
            widths_in = [Network(in_width, tuple(s[:t])).output_size for s in suffixes]
            widths_out = [s[t].out_width for s in suffixes]
            weight = np.zeros((sum(widths_out), sum(widths_in)))
            bias = np.concatenate([s[t].bias for s in suffixes])
            r = c = 0
            for s, wi, wo in zip(suffixes, widths_in, widths_out):
                weight[r : r + wo, c : c + wi] = s[t].weight
                r += wo
                c += wi
            out.append(Linear(weight, bias))
    return out


def _encode_clause(prop: PropertyClause, width: int) -> list[Layer]:
    if isinstance(prop, Geq):
        return [Linear(prop.c.reshape(1, -1), np.array([-prop.b]))]

    children = [_encode_clause(c, width) for c in prop.clauses]
    stacked = _stack_parallel(children, width)
    n = len(children)
    if isinstance(prop, AnyClause):
        return stacked + [MaxPool((tuple(range(n)),)), Linear(np.eye(1), np.zeros(1))]
    # AND: negate the child scalars in the trailing Linear, pool, negate back.
    last = stacked[-1]
    assert isinstance(last, Linear)
    stacked[-1] = Linear(-last.weight, -last.bias)
    return stacked + [MaxPool((tuple(range(n)),)), Linear(-np.eye(1), np.zeros(1))]


def canonicalize(net: Network, prop: PropertyClause, domain: BoxDomain) -> VerificationProblem:
    """Append property layers so that counterexample <=> canonical output <= 0."""
    if domain.lb.ndim != 1:  # a BoxDomain may stack boxes; a problem has one
        raise ValueError(f"domain bounds must be vectors, got shape {domain.lb.shape}")
    if domain.size != net.input_size:
        raise ValueError("domain size does not match network input size")
    _check_shapes(prop, net.output_size)
    suffix = _encode_clause(prop, net.output_size)
    canonical = Network(net.input_size, net.layers + tuple(suffix))
    return VerificationProblem(canonical, domain, net, prop)


def validate_point(net: Network, box: BoxDomain, x0: np.ndarray, tol: float) -> bool:
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (net.input_size,):
        raise ValueError("counterexample has wrong dimension")
    if not box.contains(x0, tol=tol):
        return False
    return bool(forward_eval(net, x0)[0] <= tol)


def validate_counterexample(problem: VerificationProblem, x0: np.ndarray, tol: float) -> bool:
    """True iff x0 is in the box (up to tol) and the canonical output is <= tol.

    Every SAT verdict anywhere in the repository must pass this check before
    being reported; candidates that fail are spurious.
    """
    return validate_point(problem.canonical_net, problem.domain, x0, tol)


def lower_maxpools(problem: VerificationProblem) -> VerificationProblem:
    """The problem with every MaxPool of its canonical net rewritten into
    ReLUs, exactly on its domain; ``problem`` itself when there is none."""
    net = problem.canonical_net
    if is_relu_only(net):
        return problem
    lowered = maxpool_to_relu(net, propagate_box(net, problem.domain))
    return VerificationProblem(lowered, problem.domain, problem.original_net, problem.original_property)


def maxpool_to_relu(net: Network, pre_bounds: LayerBounds) -> Network:
    """Rewrite every MaxPool into Linear/ReLU layers, exactly on the domain.

    Each group is reduced by a balanced binary tree of pairwise maxima, and a
    pairwise maximum is expressed as a sum of two ReLUs,

        max(v1, v2) = max(v1 - v2, 0) + max(v2 - l2, 0) + l2,

    which is an identity whenever v2 >= l2, i.e. whenever l2 is a valid lower
    bound of v2 on the domain used to compute pre_bounds. Slots that are not
    reduced in a round are carried through the ReLU by the same shift trick
    (v = max(v - l, 0) + l). Lower bounds for intermediate maxima are the max
    of the operand bounds.
    """
    layers: list[Layer] = []
    for i, layer in enumerate(net.layers):
        if not isinstance(layer, MaxPool):
            layers.append(layer)
            continue
        if i >= len(pre_bounds.pre_lb):
            raise ValueError("pre_bounds does not cover the maxpool layer")
        lbs = pre_bounds.pre_lb[i]
        if not np.all(np.isfinite(lbs)):
            raise ValueError(f"maxpool layer {i + 1} has non-finite input lower bounds")
        layers.extend(_lower_pool(layer, lbs))
    return Network(net.input_size, tuple(layers))


def _lower_pool(pool: MaxPool, input_lb: np.ndarray) -> list[Layer]:
    width = int(np.sum([len(g) for g in pool.groups]))
    # Per group: list of (slot index, lower bound) still to be reduced.
    groups = [[(idx, float(input_lb[idx])) for idx in g] for g in pool.groups]
    out: list[Layer] = []
    cur_width = width

    if all(len(g) == 1 for g in groups):
        weight = np.zeros((len(groups), cur_width))
        for r, g in enumerate(groups):
            weight[r, g[0][0]] = 1.0
        return [Linear(weight, np.zeros(len(groups)))]

    while any(len(g) > 1 for g in groups):
        rows_a: list[np.ndarray] = []
        bias_a: list[float] = []
        rows_b: list[tuple[list[int], float]] = []  # (input positions, bias)
        new_groups: list[list[tuple[int, float]]] = []
        for g in groups:
            new_g: list[tuple[int, float]] = []
            k = 0
            while k + 1 < len(g):
                (si, li), (sj, lj) = g[k], g[k + 1]
                r1 = np.zeros(cur_width)
                r1[si] += 1.0
                r1[sj] -= 1.0
                r2 = np.zeros(cur_width)
                r2[sj] = 1.0
                pos = len(rows_a)
                rows_a.append(r1)
                bias_a.append(0.0)
                rows_a.append(r2)
                bias_a.append(-lj)
                rows_b.append(([pos, pos + 1], lj))
                new_g.append((len(rows_b) - 1, max(li, lj)))
                k += 2
            if k < len(g):  # odd leftover, carry shifted
                si, li = g[k]
                r = np.zeros(cur_width)
                r[si] = 1.0
                pos = len(rows_a)
                rows_a.append(r)
                bias_a.append(-li)
                rows_b.append(([pos], li))
                new_g.append((len(rows_b) - 1, li))
            new_groups.append(new_g)
        weight_a = np.vstack(rows_a)
        weight_b = np.zeros((len(rows_b), len(rows_a)))
        bias_b = np.zeros(len(rows_b))
        for r, (positions, bias) in enumerate(rows_b):
            for p in positions:
                weight_b[r, p] = 1.0
            bias_b[r] = bias
        out.append(Linear(weight_a, np.array(bias_a)))
        out.append(Relu())
        out.append(Linear(weight_b, bias_b))
        groups = new_groups
        cur_width = len(rows_b)
    return out
