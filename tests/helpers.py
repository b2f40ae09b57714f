"""Shared builders for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from plverify.canon import AnyClause, Geq, PropertyClause, canonicalize, maxpool_to_relu
from plverify.interval import LayerBounds, post_bounds, propagate_box
from plverify.lp import GE, LE, LpModel
from plverify.model import BoxDomain, Linear, MaxPool, Network, Relu


def post_lists(net: Network, bounds: LayerBounds) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The output bounds of every layer, rebuilt from ``bounds.pre_*`` by
    ``interval.post_bounds`` as ``propagate_box`` and the relaxation take
    them: (post_lb, post_ub), one entry per layer."""
    post = [post_bounds(layer, lo, hi) for layer, lo, hi in zip(net.layers, bounds.pre_lb, bounds.pre_ub, strict=True)]
    return [lo for lo, _ in post], [hi for _, hi in post]


def clause_holds_strict(prop: PropertyClause, out: np.ndarray) -> bool:
    """Strict Boolean evaluation of the clause tree on an output vector."""
    if isinstance(prop, Geq):
        return float(prop.c @ out - prop.b) > 0.0
    if isinstance(prop, AnyClause):
        return any(clause_holds_strict(c, out) for c in prop.clauses)
    return all(clause_holds_strict(c, out) for c in prop.clauses)


def toy_net() -> Network:
    """One-hidden-layer net: y = -max(x1+x2, 0) - max(-x1-x2, 0) = -|x1+x2|."""
    return Network(
        2,
        (
            Linear(np.array([[1.0, 1.0], [-1.0, -1.0]]), np.zeros(2)),
            Relu(),
            Linear(np.array([[-1.0, -1.0]]), np.zeros(1)),
        ),
    )


def toy_box() -> BoxDomain:
    return BoxDomain(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))


def toy_problem(b: float):
    """Canonical problem for the property y >= b on the toy net."""
    return canonicalize(toy_net(), Geq(np.array([1.0]), b), toy_box())


def random_net(rng: np.random.Generator, n_in: int, widths: list[int], out: int = 1) -> Network:
    """Random fully-connected ReLU net, Gaussian weights at 1/sqrt(fan_in) scale."""
    layers: list = []
    fan_in = n_in
    for w in widths:
        weight = rng.normal(size=(w, fan_in)) / np.sqrt(fan_in)
        bias = rng.uniform(-0.5, 0.5, size=w)
        layers.append(Linear(weight, bias))
        layers.append(Relu())
        fan_in = w
    weight = rng.normal(size=(out, fan_in)) / np.sqrt(fan_in)
    bias = rng.uniform(-0.5, 0.5, size=out)
    layers.append(Linear(weight, bias))
    return Network(n_in, tuple(layers))


def random_box(rng: np.random.Generator, n_in: int, radius: float = 1.0) -> BoxDomain:
    center = rng.uniform(-0.5, 0.5, size=n_in)
    half = rng.uniform(0.2, radius, size=n_in)
    return BoxDomain(center - half, center + half)


def differential_cases(rng):
    """Random small nets (some with a MaxPool, lowered over the first box,
    which contains every later one), nested boxes, random phase maps; some
    maps contradict the bounds or each other."""
    for _ in range(40):
        n_in = int(rng.integers(1, 4))
        net = random_net(rng, n_in, [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 3)))])
        pooled = rng.random() < 0.25
        if pooled:
            w = 2 * int(rng.integers(1, 3))
            net = Network(n_in, (
                Linear(rng.normal(size=(w, n_in)), rng.uniform(-0.5, 0.5, w)),
                Relu(),
                MaxPool(tuple((k, k + 1) for k in range(0, w, 2))),
                Linear(rng.normal(size=(1, w // 2)), rng.uniform(-0.5, 0.5, 1)),
            ))
        center = rng.uniform(-0.5, 0.5, size=n_in)
        half = rng.uniform(0.3, 1.5, size=n_in)
        if pooled:
            net = maxpool_to_relu(net, propagate_box(net, BoxDomain(center - half, center + half)))
        units = [(i, j) for i, layer in enumerate(net.layers) if isinstance(layer, Relu)
                 for j in range(net.layers[i - 1].out_width)]
        for _ in range(3):
            box = BoxDomain(center - half, center + half)
            for _ in range(3):
                picks = rng.random(len(units)) < 0.4
                phases = {u: bool(rng.random() < 0.5) for u, pick in zip(units, picks) if pick}
                yield net, box, phases
            center = rng.uniform(box.lb, box.ub)
            half = half * rng.uniform(0.3, 0.8, size=n_in)
            center = np.clip(center, box.lb + half, box.ub - half)


def assert_same_solve(got, want) -> None:
    """Two ``lp.solve`` results are the same bytes: status, objective, x and final basis."""
    assert got.status == want.status
    assert float(got.objective).hex() == float(want.objective).hex()
    assert (got.x is None and want.x is None) or got.x.tobytes() == want.x.tobytes()
    assert got.basis == want.basis


def count_calls(monkeypatch, module, name: str, keep=lambda result: True) -> list[int]:
    """Wrap ``module.name`` so that each call whose result passes ``keep``
    adds one to the returned one-element counter."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        if keep(result):
            calls[0] += 1
        return result

    monkeypatch.setattr(module, name, counted)
    return calls


def load_result(path) -> dict:
    """A result document as ``formats.save_result`` wrote it."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def add_var(model: LpModel, lb: float, ub: float) -> int:
    """Add one variable in [lb, ub] to a hand-written LP; its index."""
    model.add_block(np.zeros((0, 0)), [], [], [lb], [ub])
    return model.num_vars - 1


def add_row(model: LpModel, coefs, rel, rhs: float) -> int:
    """Add the row coefs . x (rel) rhs to a hand-written LP, ``coefs`` an
    array over the variables or a dict of entries; its index."""
    model.add_block(model._dense(coefs)[None], [rel], [rhs])
    return len(model.rhs) - 1


def fresh_copy(model: LpModel) -> LpModel:
    """A copy of ``model`` that shares no row set with it, so a solve
    derives its standard form afresh: the bounds, the rows as one block,
    then the objective."""
    fresh = LpModel(model.lower, model.upper)
    fresh.add_block(model.rows, model.rel, model.rhs)
    if model.objective is not None:
        fresh.set_objective(model.objective.copy())
    return fresh


def relu_binaries(enc) -> list[tuple[int, int, int, int, int]]:
    """(layer, unit, delta_var, pre_var, post_var) of each ReLU binary of a
    ``mip.encode_mip`` encoding, read from the layout it documents: the
    inputs come first; a Linear layer adds its x_hat; a ReLU layer adds x
    then d per ambiguous unit, whose rows start x - x_hat >= 0 and
    x - u d <= 0 with u > 0; a MaxPool group adds y then one d per element,
    each d's entries nonnegative."""
    binaries = []
    deltas, rows, rel = set(enc.int_vars), enc.model.rows, enc.model.rel
    n = enc.box.size
    prev = list(range(n))  # the output variables of the last Linear or MaxPool layer
    for i, layer in enumerate(enc.net.layers):
        if isinstance(layer, Linear):
            prev = list(range(n, n + layer.out_width))
            n += layer.out_width
        elif isinstance(layer, Relu):
            while n + 1 in deltas and (rows[:, n + 1] < 0.0).any():
                (first,) = np.flatnonzero((rows[:, n] == 1.0) & (rel == GE))
                (pre,) = np.flatnonzero(rows[first] == -1.0)
                binaries.append((i, prev.index(pre), n + 1, int(pre), n))
                n += 2
        else:
            prev = []
            for group in layer.groups:
                prev.append(n)  # y
                n += 1 + len(group)
    assert n == enc.model.num_vars
    return binaries


def hull_rows(model: LpModel, unit) -> tuple[int, int | None]:
    """(pre_var, chord_row) of a ``relax.HullUnit`` over ``model``, read
    from the rows the relaxation documents: the unit's first row
    x - x_hat >= 0 names x_hat by its -1; in planet mode the chord row
    (u - l) x - u x_hat <= -u l follows it, in reluplex mode no row of the
    unit does (None)."""
    rows, rel = model.rows, model.rel
    (pre,) = np.flatnonzero(rows[unit.row_lower] == -1.0)
    chord = unit.row_lower + 1
    if chord == len(rel) or rel[chord] != LE or rows[chord, unit.var_post] == 0.0:
        return int(pre), None
    return int(pre), chord


def crown_faces(layers: tuple, g: np.ndarray, pre_lb: list, pre_ub: list) -> dict[int, np.ndarray]:
    """The faces CROWN's adaptive backward pass (Zhang et al., arXiv
    1811.00866) takes for each objective row g[r] over the output of the
    ReLU-only ``layers`` and their shared bounds, in the layout of
    ``relax.backward_pass``'s ``faces``, by plain loops over rows and units.

    Through Linear(W, b) a row's coefficient on unit j of the layer's input
    becomes sum_k c[k] W[k, j]. At an ambiguous unit (l < 0 < u) a negative
    coefficient takes the chord, slope u / (u - l); any other the lower
    face, slope 1 if u > -l, else 0. Any other unit keeps its coefficient
    when l >= 0 and drops it otherwise. Under each ReLU layer's index: the
    chord mask over its ambiguous units; under -1: the inputs whose final
    coefficient is negative."""
    chords: dict[int, list] = {i: [] for i, layer in enumerate(layers) if isinstance(layer, Relu)}
    corners = []
    for row in g:
        c = [float(v) for v in row]
        for i in reversed(range(len(layers))):
            layer = layers[i]
            if isinstance(layer, Linear):
                w = layer.weight
                c = [sum(c[k] * w[k, j] for k in range(w.shape[0])) for j in range(w.shape[1])]
                continue
            mask = []
            for j, (l, u) in enumerate(zip(pre_lb[i], pre_ub[i])):
                if l < 0.0 < u:
                    mask.append(c[j] < 0.0)
                    c[j] *= u / (u - l) if c[j] < 0.0 else float(u > -l)
                elif l < 0.0:
                    c[j] = 0.0
            chords[i].append(mask)
        corners.append([v < 0.0 for v in c])
    faces = {i: np.array(masks, dtype=bool).reshape(len(g), -1) for i, masks in chords.items()}
    faces[-1] = np.array(corners, dtype=bool).reshape(len(g), -1)
    return faces
