"""Feed-forward layers: Linear, activations, Dropout, LayerNorm, Sequential."""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn import init as init_schemes
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class Linear(Module):
    """Affine map ``y = x @ W + b`` with configurable initialisation.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    rng:
        Numpy random generator used for weight init (keeps every network in
        the library reproducible from a single seed).
    init:
        One of ``"xavier"``, ``"he"``, ``"fanin"``, ``"final"`` — the last
        two mirror the DDPG paper's initialisation.
    bias:
        Whether to learn an additive bias.
    """

    _INITS: dict = {
        "xavier": init_schemes.xavier_uniform,
        "he": init_schemes.he_uniform,
        "fanin": init_schemes.uniform_fanin,
        "final": init_schemes.final_layer_uniform,
        "orthogonal": init_schemes.orthogonal,
    }

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        init: str = "xavier",
        bias: bool = True,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError(
                f"Linear dims must be positive, got ({in_features}, {out_features})"
            )
        if init not in self._INITS:
            raise ConfigurationError(f"unknown init scheme {init!r}")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(self._INITS[init](in_features, out_features, rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


def _apply_relu(x: Tensor) -> Tensor:
    return x.relu()


def _apply_tanh(x: Tensor) -> Tensor:
    return x.tanh()


def _apply_sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def _apply_leaky_relu(x: Tensor, slope: float) -> Tensor:
    return x.leaky_relu(slope)


class _Activation(Module):
    """Stateless activation wrapper so activations compose in Sequential.

    ``fn`` must be a module-level callable (not a lambda/closure) so that
    trained networks stay picklable: a shard worker started without fork
    receives the served bundle, networks included, pickled.
    """

    def __init__(self, fn: Callable[..., Tensor], name: str):
        super().__init__()
        self._fn = fn
        self._name = name

    def forward(self, x: Tensor) -> Tensor:
        return self._fn(x)

    def __repr__(self) -> str:
        return f"{self._name}()"


class ReLU(_Activation):
    def __init__(self) -> None:
        super().__init__(_apply_relu, "ReLU")


class Tanh(_Activation):
    def __init__(self) -> None:
        super().__init__(_apply_tanh, "Tanh")


class Sigmoid(_Activation):
    def __init__(self) -> None:
        super().__init__(_apply_sigmoid, "Sigmoid")


class LeakyReLU(_Activation):
    def __init__(self, slope: float = 0.01) -> None:
        super().__init__(partial(_apply_leaky_relu, slope=slope), "LeakyReLU")


class Softmax(Module):
    """Softmax along ``axis``; the paper's actor head uses this to produce
    positive weights that sum to one (the 'standard normalisation')."""

    def __init__(self, axis: int = -1):
        super().__init__()
        self.axis = axis

    def forward(self, x: Tensor) -> Tensor:
        return x.softmax(axis=self.axis)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ConfigurationError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep) / keep
        return x * Tensor(mask)


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, features: int, eps: float = 1e-5):
        super().__init__()
        self.gamma = Parameter(np.ones(features))
        self.beta = Parameter(np.zeros(features))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def append(self, layer: Module) -> "Sequential":
        self.layers.append(layer)
        return self

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def __len__(self) -> int:
        return len(self.layers)


def mlp(
    sizes: Sequence[int],
    rng: Optional[np.random.Generator] = None,
    activation: str = "relu",
    output_activation: Optional[str] = None,
    init: str = "xavier",
    final_init: Optional[str] = None,
) -> Sequential:
    """Build a multilayer perceptron from a list of layer widths.

    ``mlp([10, 32, 32, 1])`` yields Linear(10,32)-act-Linear(32,32)-act-
    Linear(32,1)[-output_activation].
    """
    activations = {
        "relu": ReLU,
        "tanh": Tanh,
        "sigmoid": Sigmoid,
        "leaky_relu": LeakyReLU,
        "softmax": Softmax,
    }
    if activation not in activations:
        raise ConfigurationError(f"unknown activation {activation!r}")
    if output_activation is not None and output_activation not in activations:
        raise ConfigurationError(f"unknown output activation {output_activation!r}")
    if len(sizes) < 2:
        raise ConfigurationError("mlp needs at least input and output sizes")
    rng = rng if rng is not None else np.random.default_rng()
    net = Sequential()
    last = len(sizes) - 2
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        layer_init = init
        if i == last and final_init is not None:
            layer_init = final_init
        net.append(Linear(fan_in, fan_out, rng=rng, init=layer_init))
        if i < last:
            net.append(activations[activation]())
    if output_activation is not None:
        net.append(activations[output_activation]())
    return net
