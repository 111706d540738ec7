"""Joint gradient training for networks made of full MLP branches.

The additive model sums per-branch class vectors, so the cross-entropy
gradient with respect to every branch output is the same softmax residual.
Training therefore vectorizes cleanly across branches: all hidden weights
are stacked into [n_branches, out, in] tensors and each step runs a handful
of batched matmuls instead of a Python loop over branches.  Each branch's
layers are bound to their slices of the stacked tensors, so the optimizer
steps the network's own weights.

The elementwise work between the matmuls runs in place on each matmul's
own output: the ReLU is `np.maximum(h, 0.0, out=h)`, the backward mask
multiplies by the stored `pre > 0` mask and adds 0.0, and each bias
gradient is one `np.einsum("kij->kj", ...)` reduction, which adds the
samples in order as `sum(axis=1)` does.  For finite values the gradients
are bit for bit those of `np.where` and `sum(axis=1)`, save that a -0.0
under a true mask becomes +0.0, which no Adam update can tell apart.  A
non-finite value is not zeroed: a NaN pre-activation passes the ReLU, and
an infinite gradient under a false mask becomes NaN.

Only networks whose branches all carry trainable MLPs (origin "base") can
be trained here; grown and transferred branches expose no MLP gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .data_io import extract_patches
from .nam_model import evaluate
from .nn_core import (AdamState, DenseLayer, adam_step,
                      softmax_cross_entropy_batch)


@dataclass
class EpochMetrics:
    """Metrics recorded after one pass over the training set."""

    epoch: int
    train_loss: float
    eval_accuracy: float
    eval_loss: float


def stack_network(net):
    """Stack every branch MLP of `net` into the flat parameter list the
    optimizer steps, and bind branch k's layers to slice k of each tensor.

    The list holds each hidden layer's weights [n_branches, out, in] and
    then its biases [n_branches, out], and ends with the output weights
    [n_branches, n_classes, width].
    """
    if not net.branches:
        raise ValueError("cannot stack an empty network")
    mlps = []
    for branch in net.branches:
        if branch.origin != "base":
            raise ValueError(
                "joint training requires full-MLP branches; branch %r has "
                "origin %r" % (branch.input_range, branch.origin)
            )
        mlps.append(branch.mlp)
    first = mlps[0]
    for mlp in mlps[1:]:
        if len(mlp.hidden_layers) != len(first.hidden_layers):
            raise ValueError("branches disagree on depth")
    params = []
    for layer_idx in range(len(first.hidden_layers)):
        layers = [mlp.hidden_layers[layer_idx] for mlp in mlps]
        w = np.stack([layer.weights for layer in layers])
        b = np.stack([layer.bias for layer in layers])
        for k, mlp in enumerate(mlps):
            mlp.hidden_layers[layer_idx] = DenseLayer(w[k], b[k])
        params += [w, b]
    out = np.stack([mlp.output_layer.weights for mlp in mlps])
    for k, mlp in enumerate(mlps):
        mlp.output_layer = DenseLayer(out[k])
    params.append(out)
    return params


def _forward_with_cache(params, patches):
    """(summed logits [n, n_classes], (activations, masks)) of a
    `stack_network` parameter list on patches [n_branches, n, in_dim].

    The activations are the input and each hidden layer's ReLU output, the
    masks each hidden layer's `pre > 0`, which the backward pass reads."""
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 3 or patches.shape[0] != len(params[-1]):
        raise ValueError(
            "patches must have shape [n_branches, n, in_dim], got %r"
            % (patches.shape,)
        )
    h = patches
    activations = [h]
    masks = []
    for w, b in zip(params[:-1:2], params[1::2]):
        h = np.matmul(h, np.swapaxes(w, 1, 2))
        h += b[:, None, :]
        masks.append(h > 0.0)
        np.maximum(h, 0.0, out=h)
        activations.append(h)
    per_branch = np.matmul(h, np.swapaxes(params[-1], 1, 2))
    logits = per_branch.sum(axis=0)
    return logits, (activations, masks)


def stacked_loss_and_grads(params, patches, labels):
    """Mean cross-entropy of the summed logits and its gradients.

    Returns (loss, grads) where grads matches the `stack_network`
    parameter list element for element.
    """
    logits, (activations, masks) = _forward_with_cache(params, patches)
    loss, dlogits = softmax_cross_entropy_batch(logits, labels)
    # The sum over branches broadcasts the same residual to every branch.
    # The weight gradients are batched GEMMs, one [out, n] @ [n, in] per
    # branch, so BLAS sets their summation order as it does the forward's.
    grads = [None] * len(params)
    grads[-1] = np.matmul(dlogits.T, activations[-1])
    dh = np.matmul(dlogits[None, :, :], params[-1])
    for layer_idx in range(len(masks) - 1, -1, -1):
        # dh is this layer's own matmul output, so it is masked in place;
        # adding 0.0 turns the -0.0 of a negative gradient times a false
        # mask into the +0.0 np.where gave
        dpre = dh
        dpre *= masks[layer_idx]
        dpre += 0.0
        grads[2 * layer_idx] = np.matmul(dpre.transpose(0, 2, 1),
                                         activations[layer_idx])
        # the samples' order of sum(axis=1), at a fifth of its time
        grads[2 * layer_idx + 1] = np.einsum("kij->kj", dpre)
        if layer_idx > 0:
            dh = np.matmul(dpre, params[2 * layer_idx])
    return loss, grads


def evaluate_stacked(net, dataset):
    """(accuracy, mean cross-entropy) of `net` on a dataset during training.

    The branches read the stacked arrays the optimizer steps, so this is
    the network's own `evaluate` and reports what the saved network does.
    """
    return evaluate(net, dataset)


def train_network(net, train_dataset, config, eval_dataset, on_epoch):
    """Train every branch of `net` jointly on `train_dataset`.

    Runs `config.epochs` passes of seeded-shuffle minibatch Adam on the
    mean cross-entropy of the summed logits, stepping the branch weights of
    `net` in place, and returns one EpochMetrics per epoch, scored on
    `eval_dataset`.  `on_epoch` receives each EpochMetrics as soon as its
    epoch finishes.
    """
    if train_dataset.n_classes != net.n_classes:
        raise ValueError("dataset/network class count mismatch")
    ranges = [branch.input_range for branch in net.branches]
    params = stack_network(net)
    state = AdamState(params, lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(train_dataset.n)
        loss_sum = 0.0
        for start in range(0, train_dataset.n, config.batch_size):
            idx = order[start : start + config.batch_size]
            # the stacked forward and gradients take row-major windows
            patches = np.ascontiguousarray(
                extract_patches(train_dataset, ranges, idx).transpose(0, 2, 1))
            loss, grads = stacked_loss_and_grads(
                params, patches, train_dataset.labels[idx]
            )
            adam_step(state, params, grads)
            loss_sum += loss * idx.size
        train_loss = loss_sum / train_dataset.n
        acc, eval_loss = evaluate_stacked(net, eval_dataset)
        history.append(EpochMetrics(epoch, train_loss, acc, eval_loss))
        on_epoch(history[-1])
    return history
