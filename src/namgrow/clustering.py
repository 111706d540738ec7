"""Mean-shift clustering of a branch's high-response input regions.

For each branch we draw uniform samples from the 9-D patch domain, keep the
top 20% by class-output per class, standardize them, and run mean-shift with
a diagonal Gaussian kernel: shift a random start point to its local density
peak, claim all samples within the neighbor distance as one cluster, remove
them, repeat until no samples remain.  Each cluster is summarized by the
member sample with the highest class-output (its center, in original space).
A start that provably stops alone after one step is claimed without running
the step (see `_isolated_starts`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import artifact
from .nn_core import BranchMlp, mlp_arrays, mlp_forward_batch

_STD_FLOOR = 1e-12  # degenerate dimension guard; cancels in the round-trip
ISOLATION_BLOCK_ENTRIES = 1 << 16  # 512 KiB block arrays stay in cache


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
        if not self.bandwidth ** 2 >= np.finfo(np.float64).tiny:
            raise ValueError("bandwidth must be positive, with a normal "
                             "float square")
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
    outputs = mlp_forward_batch(mlp, samples.T)
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


def _isolation_limits(n: int, dim: int, variance: float,
                      max_sq_norm: float, config: ClusterConfig
                      ) -> tuple[float, float, float]:
    """(Gram slack, shift limit, squared near limit) of `_isolated_starts`.

    With unit roundoff u = eps/2, gamma_k = k u / (1 - k u), n samples x of
    dimension d, V the variance the step divides by, h = sqrt(V), M the
    largest |x|^2, R = sqrt(M), D = |x_s - x_j|^2, and exp and sqrt taken
    to be within 8 u:
    - Gram form.  D~ = fl(fl(|x_s|^2 + |x_j|^2) - 2 fl(x_s . x_j)), for any
      summation order or FMA, is within 2 gamma_d M + 2 gamma_d M + 6 u M
      of D, so e = 8 (d + 2) u M brackets it: D~ - e <= D <= D~ + e.
    - Shift.  B = sum_{j != s} exp(-D/2V) sqrt(D) is at most
      B~ = sum exp(-max(D~ - e, 0)/2V) sqrt(D~ + e).  Computing B~ adds a
      relative (n + 8) u and, through the exponent's rounding, at most
      0.6 n h u per unit of relative exponent error (t^1.5 exp(-t) is below
      0.41).  The computed step from x_s differs from the real one by: each
      weight's d2 relative error gamma_{d+3} and exp's 8 u, worth at most
      0.6 n h gamma_{d+3} + 8 u B; z's gamma_n and the divisions' u, which
      move the weights' sum off one and the step by (gamma_n + 2 u) R; the
      matrix-vector product's gamma_n sqrt(d) R; and the difference and
      norm's relative gamma_{d+3}.  In all, the computed shift_distance is
      at most B~ (1 + (2n + 2d + 30) u) + n (d + 6) h u
      + (n + 2)(1 + sqrt(d)) u R.  The shift limit subtracts
      4 (n + d + 30)(d + 6) u (d_min + h + (1 + sqrt(d)) R), at least twice
      each of those terms, so a start that passes stops with a computed
      shift (and so a computed distance to itself) below d_min - slack/2,
      and the real point within d_min of x_s.
    - Neighbours.  The computed distance to x_j is then at least
      (sqrt(D) - d_min)(1 - gamma_{d+3}), which reaches d_nb when
      sqrt(D) >= (d_nb + d_min)(1 + 2 gamma_{d+3}).  The squared near limit
      is ((d_nb + d_min)(1 + 4 (d + 6) u))^2, compared with D~ - e; the
      margin also covers forming the limit in floating point.
    """
    u = np.finfo(np.float64).eps / 2.0
    root_d = float(np.sqrt(dim))
    h = float(np.sqrt(variance))
    gram_slack = 8.0 * (dim + 2) * u * max_sq_norm
    shift_slack = 4.0 * (n + dim + 30) * (dim + 6) * u * (
        config.min_shift_distance + h + (1.0 + root_d) * np.sqrt(max_sq_norm))
    near = ((config.neighbor_distance + config.min_shift_distance)
            * (1.0 + 4.0 * (dim + 6) * u))
    return gram_slack, config.min_shift_distance - shift_slack, near * near


def _isolated_starts(normed: np.ndarray, variance: float,
                     config: ClusterConfig) -> np.ndarray:
    """[n] bool: the samples that, as a mean-shift start, form a cluster of
    their own with themselves as its best member, whichever samples are
    still unclaimed.

    A start s weighs exp(0) = 1 in its own step, so z >= 1 and the step
    moves at most B = sum_{j != s} exp(-|x_s - x_j|^2/2V) |x_s - x_j|; the
    terms are nonnegative, so unclaimed subsets only lower it.  When B is
    at most d_min the loop stops after one step, within d_min of x_s; when
    every other sample is at least d_nb + d_min from x_s, s alone lies
    within d_nb of that point.  Both tests run on Gram-form distances, in
    row blocks of ISOLATION_BLOCK_ENTRIES entries (one row at least), with
    the rounding slack of `_isolation_limits`.
    """
    n = normed.shape[0]
    sq = np.einsum("ij,ij->i", normed, normed)
    gram_slack, shift_limit, near_sq = _isolation_limits(
        n, normed.shape[1], variance, float(sq.max()), config)
    isolated = np.empty(n, dtype=bool)
    step = max(1, ISOLATION_BLOCK_ENTRIES // n)
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        own = (np.arange(r1 - r0), np.arange(r0, r1))
        d2 = sq[r0:r1, None] + sq[None, :] - 2.0 * (normed[r0:r1] @ normed.T)
        # a lower bound clipped at 0 keeps exp finite: no inf * 0 below
        terms = (np.exp(np.maximum(d2 - gram_slack, 0.0) * (-0.5 / variance))
                 * np.sqrt(d2 + gram_slack))
        terms[own] = 0.0
        d2[own] = np.inf
        isolated[r0:r1] = ((terms.sum(axis=1) <= shift_limit)
                           & (d2.min(axis=1) - gram_slack >= near_sq))
    return isolated


def cluster_branch_class(pairs: BranchPairs, config: ClusterConfig,
                         rng: np.random.Generator) -> BranchClassClusters:
    """Partition one branch-class's retained pairs into mean-shift clusters
    and summarize each by its member with the highest class-output.

    An isolated start (`_isolated_starts`) is its own cluster and best
    member, so it is claimed without shifting; every other start runs the
    shift loop and the neighbour claim."""
    if pairs.n == 0:
        raise ValueError("no pairs to cluster")
    normed, _, _ = standardize(pairs.samples)
    variance = config.bandwidth ** 2
    variances = np.full(normed.shape[1], variance)
    isolated = _isolated_starts(normed, variance, config)
    # a list while starts are isolated, which drop out one at a time; an
    # array for a start that shifts
    alive = list(range(pairs.n))
    best = []
    while alive:
        pick = int(rng.integers(len(alive)))
        start = alive[pick]
        if isolated[start]:
            best.append(alive.pop(pick))
            continue
        alive = np.array(alive)
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
        alive = alive[~near].tolist()
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


def source_digest(branch_mlps: list[BranchMlp]) -> str:
    """SHA-256 over the layer bytes of `branch_mlps`, in order: all that
    clustering reads of them."""
    h = hashlib.sha256()
    for mlp in branch_mlps:
        for a in mlp_arrays(mlp):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


CACHE_FORMAT = "nam-cluster-cache"
CACHE_VERSION = 2
# Each field is one array over all summaries, in table order: the centers
# and max_outputs row by row of each summary's clusters, the sample
# statistics one row per summary.
_CACHE_ARRAYS = ("centers", "max_outputs", "sample_mean", "sample_min",
                 "sample_max")


def clusters_to_json(table: list[list[BranchClassClusters]],
                     source: dict) -> str:
    """The cluster-cache document of `table`, recording `source`, what the
    table was computed from."""
    summaries = [s for per_branch in table for s in per_branch]

    def joined(name: str, join) -> dict:
        return artifact.write(join([getattr(s, name) for s in summaries]))

    return artifact.dumps({
        "format": CACHE_FORMAT,
        "version": CACHE_VERSION,
        "source": source,
        "branches": [
            [{"branch_class": s.branch_class, "n_clusters": s.n_clusters,
              "n_pairs": s.n_pairs} for s in per_branch]
            for per_branch in table
        ],
        "centers": joined("centers", np.concatenate),
        "max_outputs": joined("max_outputs", np.concatenate),
        "sample_mean": joined("sample_mean", np.stack),
        "sample_min": joined("sample_min", np.stack),
        "sample_max": joined("sample_max", np.stack),
    })


def _flat(record: dict, prefix: str = "") -> dict:
    """A record's fields, nested records' ones named `outer.inner`."""
    fields = {}
    for key, value in record.items():
        if isinstance(value, dict):
            fields.update(_flat(value, f"{prefix}{key}."))
        else:
            fields[f"{prefix}{key}"] = value
    return fields


def _check_summary_record(rec: dict, mlp: BranchMlp) -> None:
    """A class index of `mlp`, at least one cluster, and at least one
    retained pair per cluster."""
    c = rec["branch_class"]
    if not artifact.is_count(c, 0):
        raise ValueError(f"branch_class {c!r} is not a class index")
    if c >= mlp.n_classes:
        raise ValueError(f"branch_class {c} is not below the branch's "
                         f"{mlp.n_classes} classes")
    k = rec["n_clusters"]
    if not artifact.is_count(k, 1):
        raise ValueError(f"n_clusters {k!r} is not an integer >= 1")
    n_pairs = rec["n_pairs"]
    if not artifact.is_count(n_pairs, k):
        raise ValueError(f"n_pairs {n_pairs!r} is not an integer of at least "
                         f"the {k} clusters")


def clusters_from_json(text: str, mlps: list[BranchMlp], source: dict
                       ) -> list[list[BranchClassClusters]]:
    """Parse a cluster cache and check it against the run that re-uses
    `mlps`: its source record must be `source`, and it must hold one list
    of summaries per MLP, each as wide as its MLP's input and of one of its
    classes.  Returns the table.

    A malformed summary is a ValueError naming its branch, its summary and
    the field at fault; a malformed array names the array."""
    doc = artifact.loads(text, CACHE_FORMAT)
    version = doc.get("version")
    if version == 1:
        raise ValueError("cluster cache version 1 is no longer read: "
                         "rebuild it with `namgrow cluster-cache`")
    if type(version) is not int or version != CACHE_VERSION:
        raise ValueError(f"unsupported cluster cache version {version!r}")
    # a stale cache is refused before any payload is decoded
    if not isinstance(doc["source"], dict):
        raise ValueError("cluster cache source is not a record")
    cached = _flat(doc["source"])
    for name, value in _flat(source).items():
        if cached.get(name) != value:
            raise ValueError(f"cluster cache {name} is {cached.get(name)!r}, "
                             f"the run's is {value!r}")
    arrays = {name: artifact.read(doc[name], f"cluster cache {name}")
              for name in _CACHE_ARRAYS}
    if len(doc["branches"]) != len(mlps):
        raise ValueError(f"cluster cache covers {len(doc['branches'])} "
                         f"branches, the run re-uses {len(mlps)}")
    records = []
    for b, (per_branch, mlp) in enumerate(zip(doc["branches"], mlps)):
        for k, rec in enumerate(per_branch):
            artifact.checked(f"cluster cache branch {b} summary {k}",
                             _check_summary_record, rec, mlp)
            records.append((b, k, rec))
    centers = arrays["centers"]
    n_clusters = sum(rec["n_clusters"] for _, _, rec in records)
    if centers.ndim != 2 or centers.shape[0] != n_clusters:
        raise ValueError(f"cluster cache centers have shape {centers.shape},"
                         f" expected one row per cluster ({n_clusters})")
    expected = {"max_outputs": (n_clusters,),
                **dict.fromkeys(("sample_mean", "sample_min", "sample_max"),
                                (len(records), centers.shape[1]))}
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise ValueError(f"cluster cache {name} has shape "
                             f"{arrays[name].shape}, expected {shape}")
    table = [[] for _ in mlps]
    lo = 0
    for row, (b, k, rec) in enumerate(records):
        where = f"cluster cache branch {b} summary {k}"
        hi = lo + rec["n_clusters"]
        if centers.shape[1] != mlps[b].in_dim:
            raise ValueError(f"{where}: centers are {centers.shape[1]} wide, "
                             f"the branch takes {mlps[b].in_dim} inputs")
        if np.any(arrays["sample_min"][row] > arrays["sample_max"][row]):
            raise ValueError(f"{where}: sample_min exceeds sample_max")
        table[b].append(BranchClassClusters(
            branch_class=rec["branch_class"],
            centers=centers[lo:hi],
            max_outputs=arrays["max_outputs"][lo:hi],
            sample_mean=arrays["sample_mean"][row],
            sample_min=arrays["sample_min"][row],
            sample_max=arrays["sample_max"][row],
            n_pairs=rec["n_pairs"],
        ))
        lo = hi
    return table
