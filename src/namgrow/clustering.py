"""Mean-shift clustering of a branch's high-response input regions.

For each branch we draw uniform samples from the 9-D patch domain, keep the
top 20% by class-output per class, standardize them, and run mean-shift with
a diagonal Gaussian kernel: shift a random start point to its local density
peak, claim all samples within the neighbor distance as one cluster, remove
them, repeat until no samples remain.  Each cluster is summarized by the
member sample with the highest class-output (its center, in original space).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .nn_core import BranchMlp, mlp_forward_batch

_STD_FLOOR = 1e-12  # degenerate dimension guard; cancels in the round-trip


@dataclass
class ClusterConfig:
    n_samples: int = 10000
    top_fraction: float = 0.2
    neighbor_distance: float = 0.5       # d_nb, in standardized space
    min_shift_distance: float = 1e-3     # d_min, in standardized space
    bandwidth: float = 0.3               # kernel std per dimension
    max_shift_iterations: int = 200

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0.0 < self.top_fraction <= 1.0:
            raise ValueError("top_fraction must be in (0, 1]")
        if self.neighbor_distance <= 0 or self.min_shift_distance <= 0:
            raise ValueError("distances must be positive")
        if not self.min_shift_distance < self.neighbor_distance:
            raise ValueError("min shift distance must be below neighbor distance")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.max_shift_iterations < 1:
            raise ValueError("max_shift_iterations must be >= 1")


@dataclass
class BranchPairs:
    """Retained {sample, class, class-output} pairs for one branch-class."""

    branch_class: int
    samples: np.ndarray   # [m, dim]
    outputs: np.ndarray   # [m]

    @property
    def n(self) -> int:
        return self.samples.shape[0]


def generate_branch_pairs(mlp: BranchMlp, n_samples: int,
                          rng: np.random.Generator,
                          top_fraction: float) -> list[BranchPairs]:
    """Uniform patch samples scored by the branch; keep the top slice per class.

    Ties at the cut are broken by sample index (stable sort), so a constant
    branch retains an arbitrary but deterministic `top_fraction`.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    samples = rng.uniform(-0.5, 0.5, size=(n_samples, mlp.in_dim))
    outputs = mlp_forward_batch(mlp, samples)
    n_keep = max(1, int(n_samples * top_fraction))
    pairs = []
    for c in range(mlp.n_classes):
        order = np.argsort(-outputs[:, c], kind="stable")[:n_keep]
        pairs.append(BranchPairs(c, samples[order], outputs[order, c]))
    return pairs


def mean_shift_step(point: np.ndarray, samples: np.ndarray,
                    variances: np.ndarray) -> np.ndarray:
    """Kernel-weighted average of the samples around `point`, under a
    Gaussian kernel with the given per-dimension variances.

    If every weight underflows to zero (point far from all mass), snap to the
    nearest sample instead of producing NaNs.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] == 0:
        raise ValueError("empty sample set")
    d2 = np.sum(np.square(point[None, :] - samples) / variances[None, :],
                axis=1)
    weights = np.exp(-0.5 * d2)
    z = weights.sum()
    if z == 0.0:
        return samples[int(np.argmin(d2))].copy()
    return (weights / z) @ samples


def standardize(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(standardized samples, mean, std) with the std floored per dimension."""
    mean = samples.mean(axis=0)
    std = np.maximum(samples.std(axis=0), _STD_FLOOR)
    return (samples - mean) / std, mean, std


def cluster_branch_class(pairs: BranchPairs, config: ClusterConfig,
                         rng: np.random.Generator) -> BranchClassClusters:
    """Partition one branch-class's retained pairs into mean-shift clusters
    and summarize each by its member with the highest class-output."""
    if pairs.n == 0:
        raise ValueError("no pairs to cluster")
    normed, _, _ = standardize(pairs.samples)
    variances = np.full(normed.shape[1], config.bandwidth ** 2)
    alive = np.arange(pairs.n)
    best = []
    while alive.size > 0:
        start = alive[int(rng.integers(alive.size))]
        point = normed[start].copy()
        for _ in range(config.max_shift_iterations):
            shifted = mean_shift_step(point, normed[alive], variances)
            shift_distance = float(np.linalg.norm(shifted - point))
            point = shifted
            if shift_distance <= config.min_shift_distance:
                break
        dists = np.linalg.norm(normed[alive] - point[None, :], axis=1)
        near = dists < config.neighbor_distance
        if not near.any():
            near[int(np.argmin(dists))] = True  # claim the nearest: progress
        members = alive[near]
        best.append(members[int(np.argmax(pairs.outputs[members]))])
        alive = alive[~near]
    return BranchClassClusters(
        branch_class=pairs.branch_class,
        centers=pairs.samples[best],
        max_outputs=pairs.outputs[best],
        sample_mean=pairs.samples.mean(axis=0),
        sample_min=pairs.samples.min(axis=0),
        sample_max=pairs.samples.max(axis=0),
        n_pairs=pairs.n,
    )


@dataclass
class BranchClassClusters:
    """Everything matching needs about one (branch, class): cluster centers,
    their peak outputs, and the span statistics of the retained sample set."""

    branch_class: int
    centers: np.ndarray        # [n_clusters, dim], original space
    max_outputs: np.ndarray    # [n_clusters]
    sample_mean: np.ndarray    # [dim], over all retained pairs of the class
    sample_min: np.ndarray     # [dim]
    sample_max: np.ndarray     # [dim]
    n_pairs: int

    @property
    def n_clusters(self) -> int:
        return self.centers.shape[0]


def cluster_branch_mlp(mlp: BranchMlp, config: ClusterConfig,
                       seed) -> list[BranchClassClusters]:
    """Pairs -> cluster summaries for every class of one branch."""
    rng = np.random.default_rng(seed)
    return [cluster_branch_class(pairs, config, rng)
            for pairs in generate_branch_pairs(mlp, config.n_samples, rng,
                                               config.top_fraction)]


def cluster_network(branch_mlps: list[BranchMlp], config: ClusterConfig,
                    seed: int) -> list[list[BranchClassClusters]]:
    """Cluster every branch with independent child seeds (order-stable)."""
    seeds = np.random.SeedSequence(seed).spawn(len(branch_mlps))
    return [cluster_branch_mlp(mlp, config, s)
            for mlp, s in zip(branch_mlps, seeds)]


def clusters_to_json(table: list[list[BranchClassClusters]]) -> str:
    doc = {
        "format": "nam-cluster-cache",
        "version": 1,
        "branches": [
            [
                {
                    "branch_class": summary.branch_class,
                    "centers": summary.centers.tolist(),
                    "max_outputs": summary.max_outputs.tolist(),
                    "sample_mean": summary.sample_mean.tolist(),
                    "sample_min": summary.sample_min.tolist(),
                    "sample_max": summary.sample_max.tolist(),
                    "n_pairs": summary.n_pairs,
                }
                for summary in per_branch
            ]
            for per_branch in table
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def _summary_from_record(rec: dict) -> BranchClassClusters:
    """One cache record, checked field by field: a class index, at least
    one finite center, one finite max_output per center, finite sample
    statistics of the centers' width with min <= max, and at least one
    retained pair per center."""
    c = rec["branch_class"]
    if isinstance(c, bool) or not isinstance(c, int) or c < 0:
        raise ValueError(f"branch_class {c!r} is not a class index")
    centers = np.array(rec["centers"], dtype=np.float64)
    if centers.ndim != 2 or centers.size == 0:
        raise ValueError(f"centers have shape {centers.shape}, expected "
                         "a non-empty matrix")
    max_outputs = np.array(rec["max_outputs"], dtype=np.float64)
    if max_outputs.shape != centers.shape[:1]:
        raise ValueError(f"max_outputs have shape {max_outputs.shape}, "
                         f"expected one per center {centers.shape[:1]}")
    fields = {"centers": centers, "max_outputs": max_outputs}
    for name in ("sample_mean", "sample_min", "sample_max"):
        fields[name] = np.array(rec[name], dtype=np.float64)
        if fields[name].shape != centers.shape[1:]:
            raise ValueError(f"{name} has shape {fields[name].shape}, "
                             f"expected the centers' width "
                             f"{centers.shape[1:]}")
    for name, values in fields.items():
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} are not all finite")
    if np.any(fields["sample_min"] > fields["sample_max"]):
        raise ValueError("sample_min exceeds sample_max")
    n_pairs = rec["n_pairs"]
    if (isinstance(n_pairs, bool) or not isinstance(n_pairs, int)
            or n_pairs < centers.shape[0]):
        raise ValueError(f"n_pairs {n_pairs!r} is not an integer of at least "
                         f"the {centers.shape[0]} centers")
    return BranchClassClusters(branch_class=c, n_pairs=n_pairs, **fields)


def clusters_from_json(text: str) -> list[list[BranchClassClusters]]:
    """Parse and check a cluster cache; a malformed record is a ValueError
    naming its branch, its summary and the field at fault."""
    doc = json.loads(text)
    if (not isinstance(doc, dict) or doc.get("format") != "nam-cluster-cache"
            or doc.get("version") != 1):
        raise ValueError("not a cluster-cache document")
    table = []
    for b, per_branch in enumerate(doc["branches"]):
        summaries = []
        for k, rec in enumerate(per_branch):
            where = f"cluster cache branch {b} summary {k}"
            try:
                summaries.append(_summary_from_record(rec))
            except KeyError as exc:
                raise ValueError(f"{where} has no {exc} key") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where}: {exc}") from exc
        table.append(summaries)
    return table
