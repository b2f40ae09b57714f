"""Network representation, structural validation, and exact forward evaluation.

A network is an ordered list of layers over a fixed input dimension:

* ``Linear``  -- dense affine map, weight rows are outputs;
* ``Relu``    -- elementwise max(., 0), width preserving;
* ``MaxPool`` -- per-group maximum over a partition of the previous width.

Values are immutable after construction and safe to share across threads.
Convolutions are out of scope; supply them pre-lowered to ``Linear``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


def whole_number(value, name: str) -> int:
    """``value`` as an int; a ValueError naming ``name`` unless it is a
    whole number (a bool, a fraction or a string is not)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real) or not float(value).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Linear:
    weight: np.ndarray  # shape (out, in), row-major: weight[j, k] feeds output j
    bias: np.ndarray  # shape (out,)

    def __post_init__(self):
        object.__setattr__(self, "weight", np.asarray(self.weight, dtype=np.float64))
        object.__setattr__(self, "bias", np.asarray(self.bias, dtype=np.float64))

    @property
    def out_width(self) -> int:
        return self.weight.shape[0]

    @property
    def in_width(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class MaxPool:
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(tuple(whole_number(i, "maxpool group index") for i in g) for g in self.groups))

    @property
    def out_width(self) -> int:
        return len(self.groups)


Layer = Linear | Relu | MaxPool


@dataclass(frozen=True)
class Network:
    input_size: int
    layers: tuple[Layer, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))

    def layer_widths(self) -> list[int]:
        """Output width of every layer, ignoring validity (best effort)."""
        widths = []
        w = self.input_size
        for layer in self.layers:
            if isinstance(layer, (Linear, MaxPool)):
                w = layer.out_width
            widths.append(w)
        return widths

    @property
    def output_size(self) -> int:
        widths = self.layer_widths()
        return widths[-1] if widths else self.input_size


@dataclass(frozen=True)
class BoxDomain:
    """The input region: a box lb <= x0 <= ub."""

    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lb", np.asarray(self.lb, dtype=np.float64))
        object.__setattr__(self, "ub", np.asarray(self.ub, dtype=np.float64))
        if self.lb.shape != self.ub.shape:
            raise ValueError("box lb/ub shape mismatch")
        if not (np.all(np.isfinite(self.lb)) and np.all(np.isfinite(self.ub))):
            raise ValueError("box bounds must be finite")
        if np.any(self.lb > self.ub):
            raise ValueError("box has lb > ub")

    @property
    def size(self) -> int:
        return len(self.lb)

    def widths(self) -> np.ndarray:
        return self.ub - self.lb

    def contains(self, x0: np.ndarray, tol: float = 0.0) -> bool:
        x0 = np.asarray(x0, dtype=np.float64)
        return bool(np.all(x0 >= self.lb - tol) and np.all(x0 <= self.ub + tol))


def validate_network(net: Network) -> list[str]:
    """Check the structural invariants; returns [] when the network is valid.

    Each violation is reported as a string naming the (1-based) layer index.
    Never raises on malformed input.
    """
    errors: list[str] = []
    if net.input_size <= 0:
        errors.append("input_size must be positive")
    if not net.layers:
        errors.append("network has no layers")
        return errors
    if not isinstance(net.layers[0], Linear):
        errors.append("first layer must be linear")

    width = net.input_size
    for i, layer in enumerate(net.layers, start=1):
        if isinstance(layer, Linear):
            if layer.weight.ndim != 2:
                errors.append(f"layer {i}: linear weight must be a matrix")
                continue
            if layer.bias.ndim != 1 or layer.out_width != len(layer.bias):
                errors.append(f"layer {i}: weight rows and bias length differ")
            if layer.in_width != width:
                errors.append(f"width mismatch at layer {i}")
            width = layer.out_width
        elif isinstance(layer, Relu):
            if i == 1 or not isinstance(net.layers[i - 2], Linear):
                errors.append(f"layer {i}: relu must follow a linear layer")
        elif isinstance(layer, MaxPool):
            if i == 1 or not isinstance(net.layers[i - 2], Linear):
                errors.append(f"layer {i}: maxpool must follow a linear layer")
            seen: set[int] = set()
            ok = True
            for g in layer.groups:
                if len(g) == 0:
                    errors.append(f"layer {i}: empty maxpool group")
                    ok = False
                for idx in g:
                    if idx in seen:
                        errors.append(f"layer {i}: maxpool groups overlap at index {idx}")
                        ok = False
                    seen.add(idx)
            if ok and seen != set(range(width)):
                errors.append(f"layer {i}: maxpool groups must cover indices 0..{width - 1}")
            width = layer.out_width
        else:
            errors.append(f"layer {i}: unknown layer kind {type(layer).__name__}")
    return errors


def forward_eval(net: Network, x0: np.ndarray) -> np.ndarray:
    """Exact evaluation of the network at a single point."""
    x = np.asarray(x0, dtype=np.float64)
    if x.shape != (net.input_size,):
        raise ValueError(f"input has shape {x.shape}, expected ({net.input_size},)")
    for layer in net.layers:
        if isinstance(layer, Linear):
            x = layer.weight @ x + layer.bias
        elif isinstance(layer, Relu):
            x = np.maximum(x, 0.0)
        else:
            x = np.array([np.max(x[list(g)]) for g in layer.groups])
    return x


def forward_batch(net: Network, points: np.ndarray, relu_inputs: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """Evaluate a batch of points, shape (n, input_size) -> (n, out_width).
    ``relu_inputs``, when given, receives each ReLU layer's input batch,
    keyed by layer index."""
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_size:
        raise ValueError(f"batch has shape {x.shape}, expected (n, {net.input_size})")
    for i, layer in enumerate(net.layers):
        if isinstance(layer, Linear):
            x = x @ layer.weight.T + layer.bias
        elif isinstance(layer, Relu):
            if relu_inputs is not None:
                relu_inputs[i] = x
            x = np.maximum(x, 0.0)
        else:
            x = np.stack([np.max(x[:, list(g)], axis=1) for g in layer.groups], axis=1)
    return x


def is_relu_only(net: Network) -> bool:
    return not any(isinstance(layer, MaxPool) for layer in net.layers)
