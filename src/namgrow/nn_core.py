"""Minimal dense-MLP engine: batched forward, Adam, softmax cross-entropy.

Everything is float64 numpy and pure-functional except the optimizer, which
mutates its own state and the parameter arrays it is given.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Module-level odometer so pipelines can prove they never trained anything.
_OPTIMIZER_STEPS = 0
# Adam's moment decay rates and denominator guard.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8

# Columns per hidden-layer pass of the forward.  A [9, 1024] float64
# temporary is 72 KiB: below glibc's 128 KiB mmap threshold, so it is
# reused from the heap instead of being mapped, faulted in and unmapped on
# every call, and it stays in L2.
_FORWARD_BLOCK = 1024


def optimizer_step_count() -> int:
    """Total adam_step invocations since process start."""
    return _OPTIMIZER_STEPS


@dataclass
class DenseLayer:
    """Fully-connected layer, weights [out_dim, in_dim], optional bias [out_dim]."""

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be a matrix, got shape "
                             f"{self.weights.shape}")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            if self.bias.shape != (self.weights.shape[0],):
                raise ValueError(
                    f"bias shape {self.bias.shape} does not match "
                    f"weights shape {self.weights.shape}"
                )
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite weights")
        if self.bias is not None and not np.all(np.isfinite(self.bias)):
            raise ValueError("non-finite bias")

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class BranchMlp:
    """Small ReLU MLP: one or more biased hidden layers, then a bias-free
    linear output layer."""

    hidden_layers: list[DenseLayer]
    output_layer: DenseLayer

    def __post_init__(self):
        if not self.hidden_layers:
            raise ValueError("a branch MLP needs at least one hidden layer")
        for k, layer in enumerate(self.hidden_layers):
            if layer.bias is None:
                raise ValueError(f"hidden layer {k} has no bias")
        if self.output_layer.bias is not None:
            raise ValueError("output layer must be bias-free")
        layers = [*self.hidden_layers, self.output_layer]
        for i in range(1, len(layers)):
            if layers[i].in_dim != layers[i - 1].out_dim:
                name = ("output layer" if i == len(layers) - 1
                        else f"hidden layer {i}")
                raise ValueError(f"{name} takes {layers[i].in_dim} inputs, "
                                 f"but the layer before it has "
                                 f"{layers[i - 1].out_dim} outputs")

    @property
    def in_dim(self) -> int:
        return self.hidden_layers[0].in_dim

    @property
    def n_classes(self) -> int:
        return self.output_layer.out_dim


def mlp_arrays(mlp: BranchMlp) -> list[np.ndarray]:
    """The MLP's parameter arrays in layer order: each hidden layer's
    weights and bias, then the output weights."""
    arrays = []
    for layer in mlp.hidden_layers:
        arrays += [layer.weights, layer.bias]
    return arrays + [mlp.output_layer.weights]


def mlp_parameter_count(mlp: BranchMlp) -> int:
    return sum(a.size for a in mlp_arrays(mlp))


def init_branch_mlp(rng: np.random.Generator, n_classes: int) -> BranchMlp:
    """Four 9-wide He-initialised hidden layers on a 9-pixel window, a
    smaller-scale linear output, zero biases."""
    hidden = []
    for _ in range(4):
        w = rng.normal(0.0, np.sqrt(2.0 / 9), size=(9, 9))
        hidden.append(DenseLayer(w, np.zeros(9)))
    w_out = rng.normal(0.0, np.sqrt(1.0 / 9), size=(n_classes, 9))
    return BranchMlp(hidden, DenseLayer(w_out, None))


def mlp_forward_batch(mlp: BranchMlp, x: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Vectorised forward over the columns of x [in_dim, n] -> [n, n_classes].

    The hidden layers run feature-major over blocks of _FORWARD_BLOCK
    columns: each is one GEMM W @ h whose long dimension is the block, then
    the bias and ReLU in place.  The output layer reads h.T into the
    block's rows of one C-ordered [n, n_classes] result, as the row-major
    forward h @ W.T + b on x.T returns.  Each column is the same dot
    products whatever the block, so for the library's 9-wide MLPs the two
    agree bit for bit at any n and BLAS thread count and in either memory
    order of x; wider layers can differ in the last bits.

    The result is written to `out`, a C-ordered float64 [n, n_classes]
    buffer whose every element it overwrites, or to a new array if none is
    given; the bits are the same either way.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != mlp.in_dim:
        raise ValueError(f"input shape {x.shape}, expected ({mlp.in_dim}, n)")
    n = x.shape[1]
    if out is None:
        out = np.empty((n, mlp.n_classes))
    elif (out.shape != (n, mlp.n_classes) or out.dtype != np.float64
          or not out.flags.c_contiguous):
        raise ValueError(f"output buffer is {out.dtype} {out.shape}, expected"
                         f" C-ordered float64 ({n}, {mlp.n_classes})")
    w_out = mlp.output_layer.weights.T
    # A lone last column would take BLAS's matrix-vector kernels, whose sums
    # can round differently from the GEMM's, so it joins the block before.
    stops = range(_FORWARD_BLOCK, n - 1, _FORWARD_BLOCK)
    lo = 0
    for hi in itertools.chain(stops, [n]):
        h = x[:, lo:hi]
        for layer in mlp.hidden_layers:
            h = layer.weights @ h
            h += layer.bias[:, None]
            np.maximum(h, 0.0, out=h)
        np.matmul(h.T, w_out, out=out[lo:hi])
        lo = hi
    return out


def _cross_entropy_terms(logits: np.ndarray, labels: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(shifted logits z, log of the softmax normaliser, per-row losses)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label out of range")
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    losses = log_norm - z[np.arange(n), labels]
    return z, log_norm, losses


def softmax_cross_entropy_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy over rows, without the gradient."""
    return float(_cross_entropy_terms(logits, labels)[2].mean())


def softmax_cross_entropy_batch(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean loss over rows and the per-row gradient (already divided by n)."""
    z, log_norm, losses = _cross_entropy_terms(logits, labels)
    n = z.shape[0]
    grad = np.exp(z - log_norm[:, None])
    grad[np.arange(n), labels] -= 1.0
    return float(losses.mean()), grad / n


class AdamState:
    """Adam moment accumulators for a fixed list of parameter arrays."""

    def __init__(self, params: list[np.ndarray], lr: float):
        self.lr = lr
        self.step = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]


def adam_step(state: AdamState, params: list[np.ndarray],
              grads: list[np.ndarray]) -> None:
    """One Adam update, in place on params."""
    global _OPTIMIZER_STEPS
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("parameter/gradient/state length mismatch")
    state.step += 1
    _OPTIMIZER_STEPS += 1
    t = state.step
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * np.square(g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)
