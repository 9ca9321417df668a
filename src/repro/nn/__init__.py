"""Numpy-based neural-network substrate (autograd, layers, optimisers).

The environment ships no deep-learning framework, so this package provides
the pieces the paper's method needs: a reverse-mode autograd
(:mod:`repro.nn.tensor`), feed-forward / recurrent / convolutional layers,
losses, and first-order optimisers. It is intentionally small but complete
enough to train the actor-critic networks and the neural base forecasters.
"""

from repro.nn.conv import Conv1d, GlobalAveragePool1d, MaxPool1d
from repro.nn.layers import (
    Dropout,
    LayerNorm,
    LeakyReLU,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Softmax,
    Tanh,
    mlp,
)
from repro.nn.losses import huber_loss, mae_loss, mse_loss
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, Optimizer, RMSprop, clip_grad_norm
from repro.nn.recurrent import BiLSTM, LSTM, LSTMCell
from repro.nn.serialization import load_module, save_module
from repro.nn.tensor import Tensor, concatenate, stack, tensor

__all__ = [
    "Adam",
    "BiLSTM",
    "Conv1d",
    "Dropout",
    "GlobalAveragePool1d",
    "LSTM",
    "LSTMCell",
    "LayerNorm",
    "LeakyReLU",
    "Linear",
    "MaxPool1d",
    "Module",
    "Optimizer",
    "Parameter",
    "RMSprop",
    "ReLU",
    "SGD",
    "Sequential",
    "Sigmoid",
    "Softmax",
    "Tanh",
    "Tensor",
    "clip_grad_norm",
    "concatenate",
    "huber_loss",
    "load_module",
    "save_module",
    "mae_loss",
    "mlp",
    "mse_loss",
    "stack",
    "tensor",
]
