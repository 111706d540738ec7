"""Reference implementations that only tests use.

The loops here take another memory path than `namgrow.nam_model`'s
branch-by-branch engine and must give the same bits: each chunk gathers
every branch's window into one [n_branches, chunk, 9] tensor, and every
branch, added ones too, adds a full [chunk, n_classes] output matrix.  They
read `nam_model._EVAL_CHUNK` at call time, so a test that patches the chunk
size chunks the oracle and the engine alike.
"""

from __future__ import annotations

import numpy as np

from namgrow import nam_model
from namgrow.data_io import Dataset, extract_patches
from namgrow.nam_model import (
    SIGMA_FLOOR,
    Branch,
    ElectionStats,
    NamNetwork,
    apply_class_mask,
    branch_raw_scalar_batch,
    elect_batch,
    network_forward_batch,
)
from namgrow.nn_core import mlp_forward_batch


def branch_output_batch(branch: Branch, patches: np.ndarray, mode: str,
                        n_classes: int) -> np.ndarray:
    """Class-output matrix [n, n_classes] this branch contributes to the sum."""
    if branch.origin == "base":
        return mlp_forward_batch(branch.mlp, patches)
    raw = branch_raw_scalar_batch(branch, patches)
    out = np.zeros((patches.shape[0], n_classes))
    if mode == "tuning":
        out[:, branch.target_class] = apply_class_mask(branch.mask, raw)
    else:
        out[:, branch.target_class] = (raw > branch.mask.thd).astype(np.float64)
    return out


def _chunks(n: int):
    step = nam_model._EVAL_CHUNK
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


def loop_forward_batch(net: NamNetwork, images: np.ndarray) -> np.ndarray:
    """Summed class-outputs (logits) [n, n_classes] over all branches."""
    if not net.branches:
        raise ValueError("network has no branches")
    if images.shape[1:] != net.input_shape:
        raise ValueError(f"image shape {images.shape[1:]} != {net.input_shape}")
    n = images.shape[0]
    logits = np.zeros((n, net.n_classes))
    for lo, hi in _chunks(n):
        chunk = images[lo:hi]
        patches = extract_patches(chunk, [b.input_range for b in net.branches])
        for k, br in enumerate(net.branches):
            logits[lo:hi] += branch_output_batch(br, patches[k], net.mode,
                                                 net.n_classes)
    return logits


def loop_elect_batch(net: NamNetwork,
                     images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Summed z-scores [n, n_classes] and the per-sample argmax class."""
    if net.election_stats is None:
        raise ValueError("election stats not fitted")
    stats = net.election_stats
    if stats.means.shape[0] != net.n_branches:
        raise ValueError("election stats out of date with branch list")
    n = images.shape[0]
    scores = np.zeros((n, net.n_classes))
    for lo, hi in _chunks(n):
        chunk = images[lo:hi]
        patches = extract_patches(chunk, [b.input_range for b in net.branches])
        for k, br in enumerate(net.branches):
            out = branch_output_batch(br, patches[k], net.mode, net.n_classes)
            scores[lo:hi] += (out - stats.means[k]) / stats.stds[k]
    return scores, np.argmax(scores, axis=1)


def network_forward(net: NamNetwork, image: np.ndarray) -> np.ndarray:
    """The engine's logits for one image [C, H, W]."""
    return network_forward_batch(net, image[None])[0]


def elect(net: NamNetwork, image: np.ndarray) -> tuple[np.ndarray, int]:
    """The engine's z-scores and elected class for one image [C, H, W]."""
    scores, preds = elect_batch(net, image[None])
    return scores[0], int(preds[0])


def branch_outputs_batch(net: NamNetwork, images: np.ndarray) -> np.ndarray:
    """Per-branch class-output tensor [n_branches, n, n_classes]."""
    if not net.branches:
        raise ValueError("network has no branches")
    patches = extract_patches(images, [b.input_range for b in net.branches])
    return np.stack([
        branch_output_batch(br, patches[k], net.mode, net.n_classes)
        for k, br in enumerate(net.branches)
    ])


def fit_election_stats(net: NamNetwork, dataset: Dataset) -> ElectionStats:
    """Per-branch, per-class mean and population std of outputs on the dataset."""
    if dataset.n == 0:
        raise ValueError("empty fitting set")
    k = net.n_branches
    sums = np.zeros((k, net.n_classes))
    sq_sums = np.zeros((k, net.n_classes))
    for lo, hi in _chunks(dataset.n):
        chunk = dataset.images[lo:hi]
        patches = extract_patches(chunk, [b.input_range for b in net.branches])
        for i, br in enumerate(net.branches):
            out = branch_output_batch(br, patches[i], net.mode, net.n_classes)
            sums[i] += out.sum(axis=0)
            sq_sums[i] += np.square(out).sum(axis=0)
    means = sums / dataset.n
    variances = np.maximum(sq_sums / dataset.n - np.square(means), 0.0)
    stds = np.maximum(np.sqrt(variances), SIGMA_FLOOR)
    return ElectionStats(means, stds)
