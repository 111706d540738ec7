"""The additive network: branches summed per class, masks, and election scoring.

A branch owns one small MLP bound to one input window.  Base branches emit a
full class-output vector.  Added branches are single-purpose: only the output
at their branch_class is read, pushed through a class-mask (tuning mode) or
binarized at the mask threshold (election mode), and credited to target_class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifact import is_count
from .data_io import Dataset, InputRange, base_grid_ranges, \
    extract_patches, range_flat_indices
from .nn_core import BranchMlp, init_branch_mlp, mlp_forward_batch, \
    mlp_parameter_count, softmax_cross_entropy_loss

SIGMA_FLOOR = 1e-6  # stand-in std for branches that are constant on a class

_EVAL_CHUNK = 8192  # images per forward chunk; bounds peak memory


@dataclass
class ClassMask:
    """Gate on a scalar class-output: zero at or below thd, scaled ramp above.

    a and b are the only trainable scalars; thd and v_span are frozen at
    creation (v_span is the output span above thd on the selection set).
    """

    a: float
    b: float
    thd: float
    v_span: float

    def __post_init__(self):
        for name in ("a", "b", "thd", "v_span"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"mask {name} is not finite")
        if not self.v_span > 0.0:
            raise ValueError(f"v_span must be positive, got {self.v_span}")


def _relu(x):
    """max(x, 0.0) element by element, keeping -0.0 as Python's max does
    (np.maximum would return 0.0)."""
    return np.where(x < 0.0, 0.0, x)


def apply_class_mask(mask: ClassMask, y):
    """ReLU(a) * (ReLU((y - thd)/v_span) + 1[y > thd] * ReLU(b)).

    Takes an ndarray of raw outputs.  The mask's a, b, thd and v_span may
    also be [k, 1] columns, one row per mask, for raw outputs [k, n]; each
    row then gets the bits its own mask would give.
    """
    y = np.asarray(y, dtype=np.float64)
    ramp = np.maximum((y - mask.thd) / mask.v_span, 0.0)
    flag = (y > mask.thd).astype(np.float64)
    return _relu(mask.a) * (ramp + flag * _relu(mask.b))


def class_mask_grads(mask: ClassMask, y, upstream):
    """d(loss)/da and d(loss)/db given upstream = d(loss)/d(masked output).

    ReLU subgradient at 0 is taken as 1 so that b can move off its zero
    initialisation.  For raw outputs [n] the gradients are 0-d arrays; for
    [k, n] under [k, 1] mask columns (see `apply_class_mask`) they are [k]
    arrays, each row summed over its n samples as a lone row would be.
    """
    y = np.asarray(y, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    ramp = np.maximum((y - mask.thd) / mask.v_span, 0.0)
    flag = (y > mask.thd).astype(np.float64)
    da = np.sum(upstream * (ramp + flag * _relu(mask.b)), axis=-1,
                keepdims=True) * np.where(mask.a >= 0.0, 1.0, 0.0)
    db = np.sum(upstream * flag, axis=-1, keepdims=True) * _relu(mask.a) \
        * np.where(mask.b >= 0.0, 1.0, 0.0)
    return da[..., 0], db[..., 0]


@dataclass
class Branch:
    mlp: BranchMlp
    input_range: InputRange
    branch_class: int | None = None   # class read from the MLP (added branches)
    target_class: int | None = None   # class credited in the sum (added branches)
    mask: ClassMask | None = None
    origin: str = "base"              # base | grown | transferred
    mask_frozen: bool = False
    # Per-class output (mean, std) over the election fitting set; the std
    # is floored at SIGMA_FLOOR.  Every branch of an election network has
    # them, no branch of a tuning network does.
    election_stats: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.origin not in ("base", "grown", "transferred"):
            raise ValueError(f"unknown origin {self.origin!r}")
        if self.origin != "base":
            if self.branch_class is None or self.target_class is None:
                raise ValueError("added branches need branch_class and target_class")
            if self.mask is None:
                raise ValueError("added branches need a mask")
        window = self.input_range.size ** 2
        if self.mlp.in_dim != window:
            raise ValueError(f"MLP takes {self.mlp.in_dim} inputs, its "
                             f"window {self.input_range} has {window} pixels")
        for name in ("branch_class", "target_class"):
            c = getattr(self, name)
            if c is not None and not (isinstance(c, (int, np.integer))
                                      and not isinstance(c, bool)
                                      and 0 <= c < self.mlp.n_classes):
                raise ValueError(f"{name} {c!r} is not a class index below "
                                 f"{self.mlp.n_classes}")
        if self.election_stats is not None:
            mean, std = (np.asarray(a, dtype=np.float64)
                         for a in self.election_stats)
            want = (self.mlp.n_classes,)
            if mean.shape != want or std.shape != want:
                raise ValueError(f"election stats have shapes {mean.shape}"
                                 f" and {std.shape}, expected {want}")
            if not np.all(np.isfinite(mean)):
                raise ValueError("election stats mean is not finite")
            if not np.all(np.isfinite(std) & (std > 0.0)):
                raise ValueError("election stats std is not finite and "
                                 "positive")
            self.election_stats = (mean, std)


@dataclass
class NamNetwork:
    n_classes: int
    input_shape: tuple[int, int, int]
    mode: str = "tuning"              # tuning | election
    tag: str = ""
    branches: list[Branch] = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in ("tuning", "election"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not is_count(self.n_classes, 1):
            raise ValueError(f"n_classes {self.n_classes!r} is not an "
                             "integer >= 1")
        shape = self.input_shape
        if not (isinstance(shape, (tuple, list)) and len(shape) == 3
                and all(is_count(n, 1) for n in shape)):
            raise ValueError(f"input_shape {shape!r} is not three positive "
                             "integers")
        self.input_shape = tuple(shape)
        for k, br in enumerate(self.branches):
            if br.mlp.n_classes != self.n_classes:
                raise ValueError(f"branch {k} has {br.mlp.n_classes} class "
                                 f"outputs, the network {self.n_classes}")
            try:
                range_flat_indices(br.input_range, self.input_shape)
            except ValueError as exc:
                raise ValueError(f"branch {k}: {exc}") from exc
            fitted = self.mode == "election"
            if (br.election_stats is not None) != fitted:
                raise ValueError(f"branch {k}: election stats must be "
                                 f"{'present' if fitted else 'absent'} in "
                                 f"{self.mode} mode")

    @property
    def n_branches(self) -> int:
        return len(self.branches)


def branch_parameter_count(branch: Branch) -> int:
    """Trainable parameters of a branch: its full MLP for a base branch, the
    2 mask scalars of a grown one, none for a transferred one (its weights
    are copies)."""
    if branch.origin == "base":
        return mlp_parameter_count(branch.mlp)
    return 2 if branch.origin == "grown" else 0


def parameter_count(net: NamNetwork) -> int:
    """Trainable parameters of every branch of the network."""
    return sum(map(branch_parameter_count, net.branches))


def branch_outputs(branches: list[Branch], data: Dataset,
                   columns=slice(None)):
    """Each branch's MLP output on the images of `data` that `columns`
    selects, yielded in branch order: a base branch's class rows
    [n', n_classes], an added branch's raw (pre-mask) scalars [n'] at its
    branch_class.

    Every output is a view of one [n', n_classes] row buffer, which the
    next branch's forward overwrites, so read each before asking for the
    next.  A window's patches are extracted once for each run of
    consecutive branches on it.  The branches share one class count.
    """
    window, patches, rows = None, None, None
    for br in branches:
        if br.input_range != window:
            window = br.input_range
            patches = extract_patches(data, [window], columns)[0]
        if rows is None:
            rows = np.empty((patches.shape[1], br.mlp.n_classes))
        y = mlp_forward_batch(br.mlp, patches, rows)
        yield y if br.origin == "base" else y[:, br.branch_class]


def added_branch_output(branch: Branch, raw: np.ndarray, mode: str) -> np.ndarray:
    """An added branch's contribution to its target class from its raw
    scalars: masked (tuning mode) or flagged at the mask threshold
    (election mode)."""
    if mode == "tuning":
        return apply_class_mask(branch.mask, raw)
    return (raw > branch.mask.thd).astype(np.float64)


def add_branch_output(out: np.ndarray, branch: Branch, y: np.ndarray,
                      mode: str) -> np.ndarray:
    """Add one branch's contribution to the score rows `out` [n, n_classes].

    `y` is a base branch's output rows [n, n_classes] or an added branch's
    raw scalars [n] at its branch_class.  A base branch adds its row.  An
    added branch adds one scalar, masked (tuning) or flagged at its
    threshold (election), to its target column; its other outputs are zero.
    In election mode the contribution is a z-score under the branch's
    election stats, (output - mean) / std, over the whole class row.
    Returns the contribution before z-scoring.
    """
    stats = branch.election_stats if mode == "election" else None
    if branch.origin == "base":
        out += y if stats is None else (y - stats[0]) / stats[1]
        return y
    value = added_branch_output(branch, y, mode)
    t = branch.target_class
    if stats is None:
        out[:, t] += value
        return value
    # The zero outputs of the other classes add one constant z-score row;
    # the target column adds its value's z-score.
    mean, std = stats
    zero_z = (0.0 - mean) / std
    zero_z[t] = 0.0
    out += zero_z
    out[:, t] += (value - mean[t]) / std[t]
    return value


def _branch_sum(net: NamNetwork, data: Dataset) -> np.ndarray:
    """The forward engine: branch contributions summed into [n, n_classes].

    Walks the branches in list order over chunks of _EVAL_CHUNK images.
    `branch_outputs` reads each run of branches on one window from that
    window's 9 contiguous pixel rows of the chunk, so the only temporaries
    are one [9, chunk] patch block per run and one [chunk, n_classes] row
    buffer per chunk.  `add_branch_output` adds each contribution under
    the network's mode.  Each output element receives its additions in
    branch order, whatever the chunking.
    """
    if not net.branches:
        raise ValueError("network has no branches")
    if data.shape != net.input_shape:
        raise ValueError(f"image shape {data.shape} != {net.input_shape}")
    total = np.zeros((data.n, net.n_classes))
    for lo in range(0, data.n, _EVAL_CHUNK):
        hi = min(lo + _EVAL_CHUNK, data.n)
        outputs = branch_outputs(net.branches, data, slice(lo, hi))
        for br, y in zip(net.branches, outputs, strict=True):
            add_branch_output(total[lo:hi], br, y, net.mode)
    return total


def network_forward_batch(net: NamNetwork, data: Dataset) -> np.ndarray:
    """Summed class-outputs (logits) [n, n_classes] of a tuning network."""
    if net.mode != "tuning":
        raise ValueError("network_forward_batch scores tuning networks, "
                         "not election ones")
    return _branch_sum(net, data)


def elect_batch(net: NamNetwork, data: Dataset) -> np.ndarray:
    """Summed z-scores [n, n_classes] of an election network; each sample
    elects their argmax."""
    if net.mode != "election":
        raise ValueError("elect_batch scores election networks, not tuning "
                         "ones")
    return _branch_sum(net, data)


def network_scores(net: NamNetwork, data: Dataset) -> np.ndarray:
    """The scores a network predicts from: summed z-scores in election mode,
    summed class-outputs in tuning mode."""
    if net.mode == "election":
        return elect_batch(net, data)
    return network_forward_batch(net, data)


def score_accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose argmax is their label."""
    return float(np.mean(np.argmax(scores, axis=1) == labels))


def score_metrics(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """(accuracy of the argmax, mean cross-entropy of softmax(scores))."""
    return (score_accuracy(scores, labels),
            softmax_cross_entropy_loss(scores, labels))


def evaluate(net: NamNetwork, dataset: Dataset) -> tuple[float, float]:
    """(accuracy, mean cross-entropy).  Election networks are scored on their
    summed z-scores; the loss is the cross-entropy of softmax(scores)."""
    return score_metrics(network_scores(net, dataset), dataset.labels)


def build_network(input_shape: tuple[int, int, int], n_classes: int,
                  seed: int, spacing: int, tag: str) -> NamNetwork:
    """Freshly initialised base branches on the 3x3 windows every `spacing`
    pixels: 6 for the sparse base grid (25 per channel), 3 for the
    full-perception tiling."""
    ranges = base_grid_ranges(input_shape, spacing)
    seeds = np.random.SeedSequence(seed).spawn(len(ranges))
    branches = [
        Branch(init_branch_mlp(np.random.default_rng(s), n_classes), r)
        for r, s in zip(ranges, seeds)
    ]
    return NamNetwork(n_classes, input_shape, "tuning", tag, branches)
