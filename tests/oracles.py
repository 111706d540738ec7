"""Reference implementations and paper diagnostics that only tests use.

The loops here take another memory path than `namgrow.nam_model`'s
branch-by-branch engine and must give the same bits: they normalize every
image at once into the float64 [n, C, H, W] layout, each chunk gathers
every branch's window into one row-major [n_branches, chunk, 9] tensor,
and every branch, added ones too, adds a full [chunk, n_classes] output
matrix.  They read `nam_model._EVAL_CHUNK` at call time, so a test that
patches the chunk size chunks the oracle and the engine alike.

Test datasets are drawn as uint8 pixels, or rounded to them from designed
float images, and stored pixel-major as the loaders store them.

The single-sample forward, backward and cross-entropy, the row-major
batched forward, the per-image patch and the stacked forward are the
per-sample references the batched library code is checked against; the
`np.where` training step is the reference for training's in-place one.  The
MLP builder takes the hidden width and depth the library's fixed builder
does not, the per-branch mask tuning is the reference for growth's stacked
one (one mask at a time, read back from the branch after every step), and the dense and stride-1 window lists are the references for
the one window-grid builder.  The per-branch matching scan is the reference
for the shared window-major scan growth runs, and the loop mean-shift,
which keeps each cluster's members, is the reference for the clustering
that summarizes them in place.  `ignore` is the progress callback of
runs whose reports a test reads from what they return.  The Hoeffding tail
bounds, the loss-descent values, the clamp-weighted sum and the Gaussian
kernel are the paper's formulas behind qualification and clustering; the
library never evaluates them, and the tests check them as properties of
the paper's theory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from namgrow import nam_model
from namgrow.clustering import (
    BranchPairs,
    ClusterConfig,
    mean_shift_step,
    standardize,
)
from namgrow.data_io import Dataset, InputRange, normalize_pixels, \
    range_flat_indices
from namgrow.growth import CandidateBranch
from namgrow.matching import (
    NormalizationStats,
    match_all,
    normalize_sorted,
    prepare_summaries,
    stats_from_points,
    transfer_first_layer,
)
from namgrow.nam_model import (
    SIGMA_FLOOR,
    Branch,
    NamNetwork,
    add_branch_output,
    apply_class_mask,
    branch_outputs,
    class_mask_grads,
)
from namgrow.nn_core import (
    AdamState,
    BranchMlp,
    DenseLayer,
    adam_step,
    mlp_forward_batch,
    softmax_cross_entropy_batch,
)
from namgrow.training import _forward_with_cache


# ------------------------------------------------------------- datasets

def pixel_dataset(pixels: np.ndarray, labels, tag: str = "t",
                  n_classes: int = 10) -> Dataset:
    """A dataset of uint8 images [n, C, H, W], stored pixel-major."""
    return Dataset(np.ascontiguousarray(np.moveaxis(pixels, 0, 3)),
                   np.asarray(labels, dtype=np.int64), tag, n_classes)


def draw_dataset(rng: np.random.Generator, n: int,
                 shape: tuple[int, int, int], labels=None, tag: str = "t",
                 n_classes: int = 10) -> Dataset:
    """n images of uniformly drawn uint8 pixels, pixel-major; the labels
    are drawn below n_classes unless given."""
    pixels = rng.integers(0, 256, size=(n,) + tuple(shape), dtype=np.uint8)
    if labels is None:
        labels = rng.integers(0, n_classes, size=n)
    return pixel_dataset(pixels, labels, tag, n_classes)


def rounded_dataset(images: np.ndarray, labels, tag: str = "t",
                    n_classes: int = 10) -> Dataset:
    """Designed float images [n, C, H, W] in [-0.5, 0.5], each value
    rounded to the nearest of the 256 normalized pixel values."""
    pixels = np.rint((np.clip(images, -0.5, 0.5) + 0.5) * 255.0)
    return pixel_dataset(pixels.astype(np.uint8), labels, tag, n_classes)


def float_images(data: Dataset) -> np.ndarray:
    """The images of `data` normalized at once, in the float64
    [n, C, H, W] layout."""
    return normalize_pixels(np.moveaxis(data.pixels, 3, 0))


def row_major_patches(images: np.ndarray,
                      ranges: list[InputRange]) -> np.ndarray:
    """Float images [n, C, H, W] -> per-range windows [len(ranges), n, 9],
    each window's row C-ordered."""
    n = images.shape[0]
    flat = images.reshape(n, -1)
    idx = np.stack([range_flat_indices(r, images.shape[1:]) for r in ranges])
    return np.ascontiguousarray(flat[:, idx].transpose(1, 0, 2))


# ------------------------------------------------ per-sample references

def branch_mlp(rng: np.random.Generator, n_classes: int,
               hidden_width: int = 9, n_hidden: int = 4) -> BranchMlp:
    """A branch MLP of any hidden width and depth on a 9-pixel window,
    drawn as `nn_core.init_branch_mlp` draws the library's 9-wide,
    four-layer ones (with the defaults, the same MLP from the same rng)."""
    hidden = []
    dim = 9
    for _ in range(n_hidden):
        w = rng.normal(0.0, np.sqrt(2.0 / dim), size=(hidden_width, dim))
        hidden.append(DenseLayer(w, np.zeros(hidden_width)))
        dim = hidden_width
    w_out = rng.normal(0.0, np.sqrt(1.0 / dim), size=(n_classes, dim))
    return BranchMlp(hidden, DenseLayer(w_out, None))


def full_perception_ranges(shape: tuple[int, int, int]) -> list[InputRange]:
    """Dense tiling: 3x3 windows every 3 pixels, channels outermost."""
    channels, height, width = shape
    return [InputRange(c, r, col) for c in range(channels)
            for r in range(0, (height // 3) * 3, 3)
            for col in range(0, (width // 3) * 3, 3)]


def stride_one_ranges(shape: tuple[int, int, int]) -> list[InputRange]:
    """Every 3x3 window, row-major within each channel, channels
    outermost."""
    channels, height, width = shape
    return [InputRange(c, r, col) for c in range(channels)
            for r in range(height - 2) for col in range(width - 2)]


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def mlp_forward_batch_row_major(mlp: BranchMlp, x: np.ndarray) -> np.ndarray:
    """Row-major batched forward, h @ W.T + b per layer, [n, n_classes].

    The library's feature-major kernel computes the same dot products on
    transposed operands and must return the same bits.
    """
    x = np.asarray(x, dtype=np.float64)
    h = x
    for layer in mlp.hidden_layers:
        h = _relu(h @ layer.weights.T + layer.bias)
    return h @ mlp.output_layer.weights.T


def mlp_forward(mlp: BranchMlp, x: np.ndarray) -> np.ndarray:
    """Class-output vector of one branch for a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (mlp.in_dim,):
        raise ValueError(f"input shape {x.shape}, expected ({mlp.in_dim},)")
    h = x
    for layer in mlp.hidden_layers:
        h = _relu(layer.weights @ h + layer.bias)
    return mlp.output_layer.weights @ h


@dataclass
class MlpGradients:
    """Parameter gradients mirroring BranchMlp shapes, plus the input gradient."""

    hidden: list[tuple[np.ndarray, np.ndarray]]  # (dW, db) per hidden layer
    output: np.ndarray  # dW of the output layer
    input: np.ndarray  # dL/dx


def mlp_backward(mlp: BranchMlp, x: np.ndarray, upstream_grad: np.ndarray) -> MlpGradients:
    """Analytic gradients of upstream_grad . mlp_forward(x) w.r.t. all parameters."""
    x = np.asarray(x, dtype=np.float64)
    upstream_grad = np.asarray(upstream_grad, dtype=np.float64)
    if x.shape != (mlp.in_dim,):
        raise ValueError(f"input shape {x.shape}, expected ({mlp.in_dim},)")
    if upstream_grad.shape != (mlp.n_classes,):
        raise ValueError(
            f"upstream gradient shape {upstream_grad.shape}, "
            f"expected ({mlp.n_classes},)"
        )
    if not np.all(np.isfinite(upstream_grad)):
        raise ValueError("non-finite upstream gradient")

    # Forward, caching pre-activations.
    pre, post = [], [x]
    h = x
    for layer in mlp.hidden_layers:
        z = layer.weights @ h + layer.bias
        pre.append(z)
        h = _relu(z)
        post.append(h)

    d_out = np.outer(upstream_grad, post[-1])
    delta = mlp.output_layer.weights.T @ upstream_grad
    hidden_grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(mlp.hidden_layers)
    for i in reversed(range(len(mlp.hidden_layers))):
        delta = delta * (pre[i] > 0.0)
        hidden_grads[i] = (np.outer(delta, post[i]), delta.copy())
        delta = mlp.hidden_layers[i].weights.T @ delta
    return MlpGradients(hidden=hidden_grads, output=d_out, input=delta)


def softmax_cross_entropy(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Loss and gradient w.r.t. logits; grad = softmax(logits) - one_hot(label)."""
    logits = np.asarray(logits, dtype=np.float64)
    n = logits.shape[0]
    if not 0 <= label < n:
        raise ValueError(f"label {label} out of range [0, {n})")
    z = logits - np.max(logits)
    log_norm = np.log(np.sum(np.exp(z)))
    loss = log_norm - z[label]
    grad = np.exp(z - log_norm)
    grad[label] -= 1.0
    return float(loss), grad


def extract_patch(image: np.ndarray, input_range: InputRange) -> np.ndarray:
    """One image [C,H,W] -> the window's 9-vector (row-major)."""
    r = input_range
    patch = image[r.channel,
                  r.row_start:r.row_start + r.size,
                  r.col_start:r.col_start + r.size]
    if patch.shape != (r.size, r.size):
        raise ValueError(f"input range {r} out of bounds for image {image.shape}")
    return patch.reshape(-1).astype(np.float64)


def stacked_forward(params: list, patches: np.ndarray) -> np.ndarray:
    """Summed class logits of a `stack_network` parameter list for
    per-branch patches [n_branches, n, in_dim]."""
    logits, _ = _forward_with_cache(params, patches)
    return logits


def where_loss_and_grads(params: list, patches: np.ndarray,
                         labels: np.ndarray) -> tuple[float, list]:
    """The stacked training step with `np.where` for the ReLU and its
    backward mask and `sum(axis=1)` for the bias gradients, the same
    matmuls otherwise: the formulation training's in-place step must
    match bit for bit."""
    h = np.asarray(patches, dtype=np.float64)
    activations, masks = [h], []
    for w, b in zip(params[:-1:2], params[1::2]):
        pre = np.matmul(h, np.swapaxes(w, 1, 2)) + b[:, None, :]
        mask = pre > 0.0
        h = np.where(mask, pre, 0.0)
        activations.append(h)
        masks.append(mask)
    logits = np.matmul(h, np.swapaxes(params[-1], 1, 2)).sum(axis=0)
    loss, dlogits = softmax_cross_entropy_batch(logits, labels)
    grads = [None] * len(params)
    grads[-1] = np.matmul(dlogits.T, activations[-1])
    dh = np.matmul(dlogits[None, :, :], params[-1])
    for l in range(len(masks) - 1, -1, -1):
        dpre = np.where(masks[l], dh, 0.0)
        grads[2 * l] = np.matmul(dpre.transpose(0, 2, 1), activations[l])
        grads[2 * l + 1] = dpre.sum(axis=1)
        if l > 0:
            dh = np.matmul(dpre, params[2 * l])
    return loss, grads


def ignore(report) -> None:
    """Progress callback (`on_epoch`, `on_iteration`) for runs whose
    reports a test reads from the returned value."""


def transfer_branch_mlp(mlp: BranchMlp, branch_stats: NormalizationStats,
                        ref_stats: NormalizationStats) -> BranchMlp:
    """The MLP with its first hidden layer transferred, on top of its own
    deeper layer objects."""
    w, b = transfer_first_layer(mlp.hidden_layers[0], branch_stats, ref_stats)
    return BranchMlp([DenseLayer(w, b), *mlp.hidden_layers[1:]],
                     mlp.output_layer)


def normalized_refs(refs: dict) -> dict:
    """Each class's reference samples normalized by their own statistics,
    as `match_all` takes them."""
    return {c: normalize_sorted(points, stats_from_points(points))
            for c, points in refs.items()}


def per_branch_scan(ranges, ref_images_by_class, summary_pairs, source_mlps,
                    keep_fraction: float = 0.8) -> list[CandidateBranch]:
    """Candidates of `summary_pairs` alone, window by window: the scan one
    branch's transfer stream made before all streams shared one pass.

    Each window matches only these pairs, against their own prepared
    summaries; per reference class the closest matched pair wins (ties keep
    the earliest), and each winner gets its first layer transferred at once,
    under the source's own deeper layers.  The references are per-class
    datasets, read through the row-major float path.
    """
    prepared = prepare_summaries(summary_pairs)
    images = {c: float_images(ref) for c, ref in ref_images_by_class.items()}
    candidates = []
    for input_range in ranges:
        refs = {c: row_major_patches(im, [input_range])[0]
                for c, im in images.items()}
        results = match_all(normalized_refs(refs), prepared, keep_fraction)
        best = {}
        for i, res in enumerate(results):
            cur = best.get(res.target_class)
            if res.matched and (cur is None
                                or res.distance < results[cur].distance):
                best[res.target_class] = i
        for target in sorted(best):
            res = results[best[target]]
            source = source_mlps[res.branch_id]
            w, b = transfer_first_layer(source.hidden_layers[0],
                                        prepared.stats[best[target]],
                                        stats_from_points(refs[target]))
            candidates.append(CandidateBranch(
                source_branch_id=res.branch_id,
                branch_class=summary_pairs[best[target]][1].branch_class,
                target_class=target, input_range=input_range,
                distance=res.distance,
                mlp=BranchMlp([DenseLayer(w, b), *source.hidden_layers[1:]],
                              source.output_layer)))
    return candidates


@dataclass
class ReferenceCluster:
    members: list[int]   # indices into the retained pairs, ascending
    center: np.ndarray   # the member with the highest output (first on ties)
    max_output: float


def reference_mean_shift(pairs: BranchPairs, config: ClusterConfig,
                         rng: np.random.Generator) -> list[ReferenceCluster]:
    """Mean-shift partition of one branch-class, one sample at a time.

    Draws from `rng` as `cluster_branch_class` does: one start index among
    the unclaimed samples per cluster.  The start shifts under
    `mean_shift_step` until a step moves it no more than the minimum shift
    distance; every unclaimed sample within the neighbor distance of where
    it stops joins the cluster (the nearest one when none is that close).
    """
    normed, _, _ = standardize(pairs.samples)
    variances = np.full(normed.shape[1], config.bandwidth ** 2)
    alive = list(range(pairs.n))
    clusters = []
    while alive:
        point = normed[alive[int(rng.integers(len(alive)))]].copy()
        for _ in range(config.max_shift_iterations):
            shifted = mean_shift_step(point, normed[alive], variances)
            moved = float(np.linalg.norm(shifted - point))
            point = shifted
            if moved <= config.min_shift_distance:
                break
        dists = [float(np.sqrt(np.sum(np.square(normed[i] - point))))
                 for i in alive]
        members = [i for i, d in zip(alive, dists)
                   if d < config.neighbor_distance]
        if not members:
            members = [alive[dists.index(min(dists))]]
        best = members[0]
        for i in members[1:]:
            if pairs.outputs[i] > pairs.outputs[best]:
                best = i
        clusters.append(ReferenceCluster(members, pairs.samples[best].copy(),
                                         float(pairs.outputs[best])))
        alive = [i for i in alive if i not in members]
    return clusters


def destandardize(points: np.ndarray, mean: np.ndarray,
                  std: np.ndarray) -> np.ndarray:
    return points * std + mean


# ---------------------------------------------------- paper diagnostics

def gaussian_weight(sp1: np.ndarray, sp2: np.ndarray, cov: np.ndarray) -> float:
    """Multivariate Gaussian kernel weight between two points."""
    sp1 = np.asarray(sp1, dtype=np.float64)
    sp2 = np.asarray(sp2, dtype=np.float64)
    cov = np.atleast_2d(np.asarray(cov, dtype=np.float64))
    diag = np.diag(cov)
    if not np.array_equal(cov, np.diag(diag)) or np.any(diag <= 0):
        raise ValueError("covariance must be positive-definite diagonal")
    d = sp1 - sp2
    n = d.shape[0]
    norm = (2.0 * np.pi) ** (-n / 2.0) / np.sqrt(np.prod(diag))
    return float(norm * np.exp(-0.5 * np.sum(d * d / diag)))


def clamp_weighted_sum(values: np.ndarray, labels: np.ndarray,
                       target_class: int) -> float:
    """Diagnostic weighted sum whose weights vanish once the candidate's
    outputs `values` fully separate target from non-target samples.

    Target samples are weighted by how far the worst non-target output still
    exceeds them (clamped at 0); non-target samples by how far they exceed the
    worst target output (negative, clamped at 0)."""
    values = np.asarray(values, dtype=np.float64)
    t = np.asarray(labels) == target_class
    w = np.where(
        t,
        np.maximum(values[~t].max() - values, 0.0),
        np.minimum(values[t].min() - values, 0.0),
    )
    return float(np.sum(w * values))


def hoeffding_bound(t: float, bounds: np.ndarray) -> float:
    """Two-sided tail bound for a sum of independent bounded variables.

    bounds is a list of [l_k, u_k] intervals.  Diagnostic only.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    bounds = np.atleast_2d(np.asarray(bounds, dtype=np.float64))
    spans = bounds[:, 1] - bounds[:, 0]
    if np.any(spans < 0):
        raise ValueError("interval with u < l")
    denom = float(np.sum(np.square(spans)))
    if denom == 0.0:
        return 1.0 if t == 0.0 else 0.0
    return min(1.0, 2.0 * float(np.exp(-2.0 * t * t / denom)))


def binary_hoeffding_bound(eps: float, n_subnetworks: int) -> float:
    """One-sided tail bound for a sum of N 0/1 outputs drifting by eps·N."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    if n_subnetworks < 1:
        raise ValueError("need at least one subnetwork")
    return float(np.exp(-2.0 * eps * eps * n_subnetworks))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def loss_descent_diagnostics(values: np.ndarray, labels: np.ndarray,
                             target_class: int, logits: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample odds ratio tau and the loss-derivative magnitude of adding
    a candidate's outputs `values` to the target-class logit.

    On target-label samples the value is the loss *descent* (1 - 1/(tau+1));
    on other samples it is the loss *increase* (1/(tau+1)).  Both lie in
    (0, 1); tau is the non-target-to-target odds after the candidate's
    contribution.  Matches finite differences of softmax cross-entropy.
    """
    logits = np.asarray(logits, dtype=np.float64)
    contrib = np.asarray(values, dtype=np.float64)
    ct = target_class
    if logits.ndim != 2 or logits.shape[0] != contrib.shape[0] \
            or logits.shape[1] <= ct:
        raise ValueError("logits shape mismatch")
    z_t = logits[:, ct] + contrib
    others = np.delete(logits, ct, axis=1)
    m = others.max(axis=1)
    log_rest = m + np.log(np.exp(others - m[:, None]).sum(axis=1))
    log_tau = log_rest - z_t
    tau = np.exp(log_tau)
    target = np.asarray(labels) == ct
    # descent tau/(tau+1) on target rows, increase 1/(tau+1) elsewhere
    value = np.where(target, _sigmoid(log_tau), _sigmoid(-log_tau))
    return tau, value


# ------------------------------------------------------ network loops

def branch_output_batch(branch: Branch, patches: np.ndarray, mode: str,
                        n_classes: int) -> np.ndarray:
    """Class-output matrix [n, n_classes] this branch contributes to the sum
    from its row-major windows `patches` [n, 9]."""
    y = mlp_forward_batch(branch.mlp, patches.T)
    if branch.origin == "base":
        return y
    raw = y[:, branch.branch_class]
    out = np.zeros((patches.shape[0], n_classes))
    if mode == "tuning":
        out[:, branch.target_class] = apply_class_mask(branch.mask, raw)
    else:
        out[:, branch.target_class] = (raw > branch.mask.thd).astype(np.float64)
    return out


def one_branch_output(branch: Branch, data: Dataset,
                      columns=slice(None)) -> np.ndarray:
    """`branch_outputs` of a lone branch, copied out of its row buffer."""
    return next(branch_outputs([branch], data, columns)).copy()


def _chunks(n: int):
    step = nam_model._EVAL_CHUNK
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


def loop_forward_batch(net: NamNetwork, data: Dataset) -> np.ndarray:
    """Summed class-outputs (logits) [n, n_classes] over all branches."""
    if not net.branches:
        raise ValueError("network has no branches")
    images = float_images(data)
    if images.shape[1:] != net.input_shape:
        raise ValueError(f"image shape {images.shape[1:]} != {net.input_shape}")
    n = images.shape[0]
    logits = np.zeros((n, net.n_classes))
    for lo, hi in _chunks(n):
        chunk = images[lo:hi]
        patches = row_major_patches(chunk, [b.input_range for b in net.branches])
        for k, br in enumerate(net.branches):
            logits[lo:hi] += branch_output_batch(br, patches[k], net.mode,
                                                 net.n_classes)
    return logits


def loop_elect_batch(net: NamNetwork, data: Dataset) -> np.ndarray:
    """Summed z-scores [n, n_classes], each branch's under its own stats."""
    if any(br.election_stats is None for br in net.branches):
        raise ValueError("election stats not fitted")
    images = float_images(data)
    n = images.shape[0]
    scores = np.zeros((n, net.n_classes))
    for lo, hi in _chunks(n):
        chunk = images[lo:hi]
        patches = row_major_patches(chunk, [b.input_range for b in net.branches])
        for k, br in enumerate(net.branches):
            out = branch_output_batch(br, patches[k], net.mode, net.n_classes)
            mean, std = br.election_stats
            scores[lo:hi] += (out - mean) / std
    return scores


def branch_outputs_batch(branches: list[Branch], data: Dataset,
                         mode: str) -> np.ndarray:
    """Per-branch class-output tensor [n_branches, n, n_classes] in
    `mode`."""
    patches = row_major_patches(float_images(data),
                                [b.input_range for b in branches])
    return np.stack([
        branch_output_batch(br, patches[k], mode, br.mlp.n_classes)
        for k, br in enumerate(branches)
    ])


def fit_election_stats(branches: list[Branch], dataset: Dataset
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Per-branch, per-class mean and population std of the branches'
    election-mode outputs on the dataset, as two [n_branches, n_classes]
    arrays."""
    if dataset.n == 0:
        raise ValueError("empty fitting set")
    k = len(branches)
    images = float_images(dataset)
    sums = np.zeros((k, dataset.n_classes))
    sq_sums = np.zeros((k, dataset.n_classes))
    for lo, hi in _chunks(dataset.n):
        chunk = images[lo:hi]
        patches = row_major_patches(chunk, [b.input_range for b in branches])
        for i, br in enumerate(branches):
            out = branch_output_batch(br, patches[i], "election",
                                      dataset.n_classes)
            sums[i] += out.sum(axis=0)
            sq_sums[i] += np.square(out).sum(axis=0)
    means = sums / dataset.n
    variances = np.maximum(sq_sums / dataset.n - np.square(means), 0.0)
    stds = np.maximum(np.sqrt(variances), SIGMA_FLOOR)
    return means, stds


def with_election_stats(branches: list[Branch], means: np.ndarray,
                        stds: np.ndarray) -> list[Branch]:
    """Copies of the branches, branch k carrying the election stats
    (means[k], stds[k]), checked as any new Branch's are; an election
    network is built from such branches."""
    return [replace(br, election_stats=(mean, std))
            for br, mean, std in zip(branches, means, stds, strict=True)]


# ------------------------------------------------------ mask tuning

def per_branch_mask_gradients(frozen_logits: np.ndarray, labels: np.ndarray,
                              branches: list[Branch],
                              raw_values: list[np.ndarray]
                              ) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss and d(loss)/d(a, b) for a batch, given the other branches' sums.

    frozen_logits[j] are the summed class-outputs of every branch except the
    listed ones on sample j; raw_values[k] are branch k's pre-mask scalars.
    """
    logits = frozen_logits.copy()
    for branch, raw in zip(branches, raw_values, strict=True):
        add_branch_output(logits, branch, raw, "tuning")
    loss, dlogits = softmax_cross_entropy_batch(logits, labels)
    da = np.empty(len(branches))
    db = np.empty(len(branches))
    for k, (branch, raw) in enumerate(zip(branches, raw_values)):
        da[k], db[k] = class_mask_grads(branch.mask, raw,
                                        dlogits[:, branch.target_class])
    return loss, da, db


def per_branch_tune_masks(branches: list[Branch], dataset: Dataset,
                          epochs: int, frozen_logits: np.ndarray,
                          raw_values: list[np.ndarray], learning_rate: float,
                          batch_size: int, seed: int) -> None:
    """Train the scale/bias of the masks of `branches` with minibatch Adam.

    `frozen_logits` are the class-output sums of every other branch on
    `dataset`, and `raw_values[k]` are branches[k]'s pre-mask scalars there.
    Only these masks' two scalars move: all MLP weights and every other
    mask stay untouched, and freezing the tuned masks is the acceptance
    step's job.  Zero epochs is a no-op.
    """
    a = np.array([br.mask.a for br in branches])
    b = np.array([br.mask.b for br in branches])
    params = [a, b]
    opt = AdamState(params, lr=learning_rate)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(dataset.n)
        for lo in range(0, dataset.n, batch_size):
            idx = order[lo:lo + batch_size]
            _, da, db = per_branch_mask_gradients(
                frozen_logits[idx], dataset.labels[idx], branches,
                [raw[idx] for raw in raw_values])
            adam_step(opt, params, [da, db])
            for k, br in enumerate(branches):
                br.mask.a = float(a[k])
                br.mask.b = float(b[k])
