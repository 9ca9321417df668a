"""Inference-only batched evaluation of per-tenant weight stacks.

Serving hosts many tenants whose networks share one architecture but
(potentially) diverged parameters. Stepping them one at a time costs N
small matmuls per coalesced batch; this module evaluates the whole batch
in one stacked pass: per-layer weights are stacked into 3-D arrays
``(N, in, out)`` — or kept as a single broadcast slice ``(1, in, out)``
when every tenant still shares the same layer object — and applied with
``np.matmul`` over the batch dimension, bypassing autograd entirely.

Bit-identity is the contract, not an aspiration. BLAS picks different
kernels (and different summation orders) for different operand shapes,
so a plain 2-D ``(N, in) @ (in, out)`` gemm does NOT reproduce the
per-row ``(1, in) @ (in, out)`` results to the ulp. Batched ``matmul``
on a 3-D stack runs one ``(1, in) @ (in, out)`` gemm per slice — the
same kernel the per-tenant path uses — so every helper here goes through
that form. ``tests/nn/test_batched_forward.py`` pins the equivalence
against looped references.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "StackedLinears",
    "relu",
    "rowwise_softmax",
]


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0) — trivially bit-identical to the looped form."""
    return np.maximum(x, 0.0)


def rowwise_softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis, row by row.

    Every operation is elementwise or a per-row reduction over a
    contiguous slice, so each row matches the single-row computation
    bitwise.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class StackedLinears:
    """One ``Linear`` layer position stacked across N tenant networks.

    ``weight`` is ``(N, in, out)`` — or ``(1, in, out)`` when every
    tenant still holds the *same* layer object, in which case the single
    slice broadcasts across the batch without copying ~N× the weights.
    """

    __slots__ = ("weight", "bias", "shared")

    def __init__(self, weight: np.ndarray, bias: np.ndarray, shared: bool):
        self.weight = weight
        self.bias = bias
        self.shared = shared

    @classmethod
    def from_layers(cls, layers: Sequence) -> "StackedLinears":
        """Stack the same layer position taken from N sibling networks.

        Object identity is the sharing test: pristine tenant clones that
        substitute the template's layer objects collapse to one broadcast
        slice; any tenant with its own (possibly updated) layer forces a
        true stack.
        """
        first = layers[0]
        if all(layer is first for layer in layers):
            return cls(
                first.weight.data[None, :, :],
                first.bias.data[None, :],
                True,
            )
        weight = np.stack([layer.weight.data for layer in layers])
        bias = np.stack([layer.bias.data for layer in layers])
        return cls(weight, bias, False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``x[i] @ W[i] + b[i]`` for every tenant in one batched matmul.

        ``x`` is ``(N, in)``; returns ``(N, out)``. The ``(1, in)``
        slice-wise gemm plus elementwise bias add reproduces the
        per-tenant ``row @ W + b`` bitwise.
        """
        return np.matmul(x[:, None, :], self.weight)[:, 0, :] + self.bias
