"""Match new input ranges to trained branches and transfer their first layer.

Both sides are normalized to comparable shape: subtract the per-dimension
mean, divide by the per-dimension span (max - min), then reorder dimensions
so the means ascend.  A branch-class is compared to a reference class by the
partial average distance: each reference sample walks to its nearest cluster
center, weighted by a softmax over the clusters' peak outputs, and only the
nearest `keep_fraction` of samples count.  The winning pairing gets its first
layer rewritten in closed form so the branch reads raw reference patches as
if they were its own training distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clustering import BranchClassClusters
from .nn_core import DenseLayer

RANGE_FLOOR = 1e-8  # per-dimension span floor for flat dimensions


@dataclass
class NormalizationStats:
    """Per-dimension mean and span plus the mean-ascending dimension order."""

    mean: np.ndarray         # [dim]
    range_: np.ndarray       # [dim], floored at RANGE_FLOOR
    permutation: np.ndarray  # [dim], normalized dim k reads raw dim permutation[k]

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.range_ = np.asarray(self.range_, dtype=np.float64)
        self.permutation = np.asarray(self.permutation, dtype=np.int64)
        if np.any(self.range_ <= 0):
            raise ValueError("non-positive dimension range")
        if sorted(self.permutation.tolist()) != list(range(self.mean.size)):
            raise ValueError("permutation is not a bijection")


def stats_from_points(points: np.ndarray) -> NormalizationStats:
    points = np.asarray(points, dtype=np.float64)
    if points.shape[0] < 2:
        raise ValueError("need at least 2 points for span statistics")
    return _span_stats(points.mean(axis=0), points.min(axis=0),
                       points.max(axis=0))


def stats_from_summary(summary: BranchClassClusters) -> NormalizationStats:
    """Branch-side stats come from the retained sample set, not the centers."""
    return _span_stats(summary.sample_mean, summary.sample_min,
                       summary.sample_max)


def _span_stats(mean: np.ndarray, lo: np.ndarray, hi: np.ndarray
                ) -> NormalizationStats:
    """Stats from a mean and the per-dimension extremes.  A flat dimension
    (lo == hi) takes its mean from the value itself: a computed mean may
    be off by an ulp, and that residue over RANGE_FLOOR would normalize the
    flat values to noise instead of exact zeros."""
    mean = np.where(lo == hi, lo, mean)
    span = np.maximum(hi - lo, RANGE_FLOOR)
    return NormalizationStats(mean, span, np.argsort(mean, kind="stable"))


def normalize_sorted(points: np.ndarray,
                     stats: NormalizationStats | None = None
                     ) -> tuple[np.ndarray, NormalizationStats]:
    """Center, span-scale, and reorder dimensions by ascending mean."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if stats is None:
        stats = stats_from_points(points)
    p = stats.permutation
    normed = (points[:, p] - stats.mean[p]) / stats.range_[p]
    return normed, stats


def cluster_softmax_weights(max_outputs: np.ndarray) -> np.ndarray:
    z = np.asarray(max_outputs, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def partial_average_distance(ref_samples: np.ndarray, centers: np.ndarray,
                             max_outputs: np.ndarray,
                             keep_fraction: float = 0.8
                             ) -> tuple[float, np.ndarray]:
    """Weighted mean distance from reference samples to their nearest centers.

    Both point sets must already be in normalized space.  The farthest
    (1 - keep_fraction) of samples are dropped; returns (distance, indices of
    the kept samples).  An empty sample set yields (inf, empty).
    """
    ref_samples = np.atleast_2d(np.asarray(ref_samples, dtype=np.float64))
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if ref_samples.shape[0] == 0:
        return float("inf"), np.empty(0, dtype=np.int64)
    if centers.shape[0] == 0:
        raise ValueError("no cluster centers")
    if ref_samples.shape[1] != centers.shape[1]:
        raise ValueError("samples and centers differ in dimension")
    weights = cluster_softmax_weights(max_outputs)
    # dimensions are added one after another, in order, whatever the memory
    # layout of the inputs
    d2 = np.zeros((ref_samples.shape[0], centers.shape[0]))
    for r_j, c_j in zip(ref_samples.T, centers.T):
        diff = r_j[:, None] - c_j[None, :]
        d2 += diff * diff
    nearest = np.argmin(d2, axis=1)
    dist = np.sqrt(d2[np.arange(ref_samples.shape[0]), nearest])
    n_keep = max(1, int(ref_samples.shape[0] * keep_fraction))
    kept = np.argsort(dist, kind="stable")[:n_keep]
    d = float(np.sum(weights[nearest[kept]] * dist[kept]) / n_keep)
    return d, kept


def transfer_first_layer(layer: DenseLayer,
                         branch_stats: NormalizationStats,
                         ref_stats: NormalizationStats
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Rewrite (W, b) so raw reference inputs reproduce the branch's outputs.

    The k-th normalized dimension of each space is paired: raw reference
    dimension ir = ref perm[k] plays the role of raw branch dimension
    ib = branch perm[k].  Weights are rescaled by the span ratio and the bias
    absorbs both means.
    """
    w = layer.weights
    sigma_b = branch_stats.range_
    sigma_r = ref_stats.range_
    w_new = np.empty_like(w)
    ib = branch_stats.permutation
    ir = ref_stats.permutation
    w_new[:, ir] = w[:, ib] * (sigma_b[ib] / sigma_r[ir])[None, :]
    b_new = layer.bias - w_new @ ref_stats.mean + w @ branch_stats.mean
    return w_new, b_new


@dataclass
class PreparedSummaries:
    """Range-independent side of matching for one candidate list.

    Built once by `prepare_summaries` and reused for every input range.  The
    normalized centers of all summaries are concatenated in candidate order,
    summary i owning center rows offsets[i]:offsets[i+1].  They are held
    once, as the first dim columns of the Gram rows.
    """

    stats: list[NormalizationStats]  # per summary, from its sample set
    gram_rows: np.ndarray            # [n_centers, dim + 1], centers | |c|^2
    max_sq_norm: np.ndarray          # [n_summaries], largest |c|^2
    weights: np.ndarray              # [n_centers], softmax weights per summary
    offsets: np.ndarray              # [n_summaries + 1]
    segment: np.ndarray              # [n_centers], owning summary of each row


def prepare_summaries(candidates: list[tuple[int, BranchClassClusters]]
                      ) -> PreparedSummaries:
    """Normalize the centers of every candidate summary once, for
    `match_all`.  Rejects summaries without centers, with non-finite ones,
    or with one max_output per center missing.  The Gram rows are
    allocated once, and each summary's normalized centers are written
    straight into its rows."""
    counts = np.array([summary.n_clusters for _, summary in candidates],
                      dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    dim = candidates[0][1].centers.shape[1] if candidates else 0
    # The layout `normalize_sorted` gives a summary's centers: column-major,
    # unless every summary has one center.  The order in which einsum adds
    # each |c|^2, and so its bits, depends on it.
    order = "C" if offsets[-1] == len(candidates) else "F"
    gram_rows = np.empty((offsets[-1], dim + 1), order=order)
    centers = gram_rows[:, :dim]
    stats, weights = [], []
    for (_, summary), lo, hi in zip(candidates, offsets[:-1], offsets[1:]):
        b_stats = stats_from_summary(summary)
        normed, _ = normalize_sorted(summary.centers, b_stats)
        if normed.shape[0] == 0:
            raise ValueError("no cluster centers")
        if normed.shape[1] != dim:
            raise ValueError("cluster centers differ in width")
        centers[lo:hi] = normed
        w = cluster_softmax_weights(summary.max_outputs)
        if w.shape != (hi - lo,):
            raise ValueError("max_outputs do not match the cluster centers")
        stats.append(b_stats)
        weights.append(w)
    sq_norms = np.einsum("ij,ij->i", centers, centers)
    # a finite |c|^2 keeps every Gram value finite: normalized references
    # lie in [-1, 1] per dimension
    if not np.all(np.isfinite(sq_norms)):
        raise ValueError("non-finite or overflowing cluster center")
    gram_rows[:, dim] = sq_norms
    return PreparedSummaries(
        stats=stats,
        gram_rows=gram_rows,
        max_sq_norm=np.maximum.reduceat(sq_norms, offsets[:-1]),
        weights=np.concatenate(weights or [np.empty(0)]),
        offsets=offsets,
        segment=np.repeat(np.arange(counts.size), counts),
    )


# Entries of one Gram block.  A block and its candidate mask take 9 bytes
# per entry, ~18 MiB, whatever the number of summaries (a single summary
# wider than this runs one reference per block).
GRAM_BLOCK_ENTRIES = 1 << 21


def _gram_slack_factor(dim: int) -> float:
    """Multiplier of (|r|^2 + max |c|^2) that bounds Gram-order mistakes.

    With unit roundoff u = eps/2, gamma_n = n u / (1 - n u) and d = dim, for
    one reference r and center c:
    - the exact score D = fl(sum_i fl(fl(r_i - c_i)^2)), summed in order,
      has relative error gamma_{d+2} on nonnegative terms, so
      |D - |r-c|^2| <= gamma_{d+2} |r-c|^2 <= 2 gamma_{d+2} (|r|^2 + |c|^2);
    - the Gram value G = fl([c, s] . [-2 r, 1]), s = fl(|c|^2), is a dot
      product of d + 1 terms, so for any BLAS summation order or FMA use
      |G - (s - 2 c.r)| <= gamma_{d+1} (2 |c||r| + s), and
      |s - |c|^2| <= gamma_d |c|^2; hence
      |G - (|r-c|^2 - |r|^2)| <= gamma_{3d+3} (|r|^2 + |c|^2).
    If k minimizes D and m minimizes G, then G_k <= G_m + 2 (e_D + e_G)
    with both errors taken at M, the summary's largest |c|^2: at most
    (10 d + 14) u (|r|^2 + M).  Forming the limit G_m + slack in floating
    point adds a few u (|r|^2 + M) more.  32 (d + 1) u keeps a margin of
    about three over the sum.
    """
    return 32.0 * (dim + 1) * (np.finfo(np.float64).eps / 2.0)


def _sequential_sq_dist(refs_t: np.ndarray, gram_rows: np.ndarray,
                        ref_idx: np.ndarray, center_idx: np.ndarray
                        ) -> np.ndarray:
    """Squared distances of (ref, center) pairs, dimensions added in order.

    refs_t is [dim, n_refs]; the centers are the first dim columns of
    gram_rows.  This is the order `partial_average_distance` sums in;
    NumPy's pairwise sum over a contiguous axis would differ by ulps.
    """
    centers = gram_rows[center_idx]
    d2 = np.zeros(ref_idx.size)
    for j, r_j in enumerate(refs_t):
        diff = r_j[ref_idx] - centers[:, j]
        d2 += diff * diff
    return d2


def _nearest_block(prepared: PreparedSummaries, s0: int, s1: int,
                   refs_t: np.ndarray, gram_cols: np.ndarray,
                   ref_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[n_refs, s1 - s0] nearest center row and its exact squared distance
    for summaries s0..s1-1; ties keep the first row."""
    k0, k1 = prepared.offsets[s0], prepared.offsets[s1]
    n_summaries = s1 - s0
    bounds = prepared.offsets[s0:s1 + 1] - k0
    gram = gram_cols @ prepared.gram_rows[k0:k1].T       # [n_refs, k1 - k0]
    best = np.minimum.reduceat(gram, bounds[:-1], axis=1)
    limit = best + _gram_slack_factor(refs_t.shape[0]) * (
        ref_sq[:, None] + prepared.max_sq_norm[None, s0:s1])
    candidate = np.empty(gram.shape, dtype=bool)
    for s, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.less_equal(gram[:, a:b], limit[:, s:s + 1], out=candidate[:, a:b])
    del gram
    flat = np.flatnonzero(candidate)
    ref_idx, row = np.divmod(flat, k1 - k0)
    row += k0
    d2 = _sequential_sq_dist(refs_t, prepared.gram_rows, ref_idx, row)
    # candidates come sorted by group = (reference, summary), rows ascending
    # within a group, and every group holds at least its Gram minimum
    group = ref_idx * n_summaries + prepared.segment[row] - s0
    group_min = np.minimum.reduceat(
        d2, np.flatnonzero(np.diff(group, prepend=-1)))
    at_min = np.flatnonzero(d2 == group_min[group])
    first = at_min[np.diff(group[at_min], prepend=-1) != 0]
    return (row[first].reshape(-1, n_summaries),
            d2[first].reshape(-1, n_summaries))


def _nearest_centers(prepared: PreparedSummaries, refs: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """[n_summaries, n_refs] nearest center rows and exact squared distances.

    A Gram-form pass (|c|^2 - 2 c.r, the FAISS decomposition of arXiv
    1702.08734) finds each summary's approximate minimum; every center
    within the proven rounding slack of it is re-scored exactly, so the
    result is the argmin of the exact distances, first index on ties,
    whatever the BLAS or its thread count.
    """
    if not np.all(np.isfinite(refs)):
        raise ValueError("non-finite reference samples")
    n_summaries = prepared.offsets.size - 1
    n_refs = refs.shape[0]
    nearest = np.empty((n_summaries, n_refs), dtype=np.int64)
    sq_dist = np.empty((n_summaries, n_refs))
    refs_t = np.ascontiguousarray(refs.T)
    gram_cols = np.hstack([-2.0 * refs, np.ones((n_refs, 1))])
    ref_sq = np.einsum("ij,ij->i", refs, refs)
    widest = int(np.max(np.diff(prepared.offsets)))
    col_step = max(1, min(n_refs, GRAM_BLOCK_ENTRIES // widest))
    for c0 in range(0, n_refs, col_step):
        cols = slice(c0, min(c0 + col_step, n_refs))
        row_cap = max(1, GRAM_BLOCK_ENTRIES // (cols.stop - c0))
        s0 = 0
        while s0 < n_summaries:
            s1 = int(np.searchsorted(prepared.offsets,
                                     prepared.offsets[s0] + row_cap,
                                     side="right")) - 1
            s1 = max(s0 + 1, s1)
            near, d2 = _nearest_block(prepared, s0, s1, refs_t[:, cols],
                                      gram_cols[cols], ref_sq[cols])
            nearest[s0:s1, cols] = near.T
            sq_dist[s0:s1, cols] = d2.T
            s0 = s1
    return nearest, sq_dist


class MatchResult(NamedTuple):
    branch_id: int
    target_class: int | None          # None when the argmin is tied
    distance: float
    matched: bool


def class_distances(ref_samples_by_class: dict[int, np.ndarray],
                    prepared: PreparedSummaries,
                    keep_fraction: float) -> np.ndarray:
    """[n_summaries, n_classes] partial average distances, reference classes
    in ascending order.

    All summaries are scored against all classes at once; the distances are
    bit-for-bit those of `partial_average_distance`.
    """
    ref_normed = [normalize_sorted(ref_samples_by_class[c])[0]
                  for c in sorted(ref_samples_by_class)]
    nearest, sq_dist = _nearest_centers(prepared, np.concatenate(ref_normed))
    dist = np.sqrt(sq_dist)
    out = np.empty((len(prepared.stats), len(ref_normed)))
    start = 0
    for j, normed in enumerate(ref_normed):
        cols = slice(start, start + normed.shape[0])
        start = cols.stop
        n_keep = max(1, int(normed.shape[0] * keep_fraction))
        kept = np.argsort(dist[:, cols], axis=1, kind="stable")[:, :n_keep]
        terms = (prepared.weights[np.take_along_axis(nearest[:, cols], kept, 1)]
                 * np.take_along_axis(dist[:, cols], kept, 1))
        out[:, j] = np.sum(terms, axis=1) / n_keep
    return out


def match_all(ref_samples_by_class: dict[int, np.ndarray],
              candidates: list[tuple[int, BranchClassClusters]],
              keep_fraction: float,
              prepared: PreparedSummaries) -> list[MatchResult]:
    """Best reference class per (branch, branch-class) at one input range.

    candidates are (branch_id, cluster summary) pairs.  A candidate matches
    the reference class with strictly the smallest partial average distance,
    when that distance is finite; a tie yields no match.  `prepared` is
    `prepare_summaries(candidates)`, built once for every range; its `stats`
    are what `transfer_first_layer` needs on the branch side.
    """
    if len(prepared.stats) != len(candidates):
        raise ValueError("prepared summaries do not match the candidates")
    if not candidates:
        return []
    classes = np.array(sorted(ref_samples_by_class))
    dist = class_distances(ref_samples_by_class, prepared, keep_fraction)
    d_min = dist.min(axis=1)
    matched = ((np.count_nonzero(dist == d_min[:, None], axis=1) == 1)
               & np.isfinite(d_min))
    target = classes[np.argmin(dist, axis=1)]
    return [MatchResult(branch_id, int(t) if ok else None, float(d), bool(ok))
            for (branch_id, _), t, d, ok in zip(candidates, target, d_min,
                                                matched)]
