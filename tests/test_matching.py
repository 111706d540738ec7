"""Normalization, partial average distance, match assignment, and transfer tests."""

import numpy as np
import pytest

from namgrow import matching
from namgrow.clustering import BranchClassClusters
from namgrow.matching import (
    NormalizationStats,
    class_distances,
    cluster_softmax_weights,
    match_all,
    normalize_sorted,
    partial_average_distance,
    prepare_summaries,
    stats_from_points,
    stats_from_summary,
    transfer_first_layer,
)
from namgrow.nn_core import BranchMlp, DenseLayer, init_branch_mlp
from oracles import mlp_forward, transfer_branch_mlp


# ------------------------------------------------------------ normalization

def test_normalize_sorted_identity_permutation_when_means_ascend():
    rng = np.random.default_rng(42)
    base = rng.uniform(-0.1, 0.1, size=(30, 4))
    base += np.array([-0.3, -0.1, 0.1, 0.3])  # ascending dimension means
    _, stats = normalize_sorted(base)
    np.testing.assert_array_equal(stats.permutation, np.arange(4))


def test_normalize_sorted_two_point_range():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    normed, stats = normalize_sorted(pts)
    np.testing.assert_allclose(normed, [[-0.5, -0.5], [0.5, 0.5]],
                               rtol=0, atol=1e-15)
    np.testing.assert_array_equal(stats.range_, [1.0, 1.0])


def test_normalize_sorted_random_cloud_postconditions():
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(100, 9)) * rng.uniform(0.5, 3, size=9) + \
        rng.normal(size=9)
    normed, stats = normalize_sorted(pts)
    np.testing.assert_allclose(normed.mean(axis=0), 0.0, rtol=0, atol=1e-12)
    sorted_means = stats.mean[stats.permutation]
    assert np.all(np.diff(sorted_means) >= 0)
    # span after normalization is exactly 1 per dimension
    np.testing.assert_allclose(normed.max(axis=0) - normed.min(axis=0), 1.0,
                               rtol=0, atol=1e-12)


def test_normalize_sorted_flat_dimension_floored():
    pts = np.zeros((5, 3))
    pts[:, 0] = np.linspace(0, 1, 5)
    normed, stats = normalize_sorted(pts)
    assert np.all(np.isfinite(normed))
    assert stats.range_[1] == 1e-8


def test_normalize_sorted_with_given_stats_reuses_them():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(20, 5))
    _, stats = normalize_sorted(pts)
    other = rng.normal(size=(7, 5))
    normed, stats2 = normalize_sorted(other, stats)
    assert stats2 is stats
    p = stats.permutation
    np.testing.assert_allclose(
        normed, (other[:, p] - stats.mean[p]) / stats.range_[p],
        rtol=0, atol=1e-15)


def test_stats_validation():
    with pytest.raises(ValueError):
        stats_from_points(np.ones((1, 4)))
    with pytest.raises(ValueError):
        NormalizationStats(np.zeros(3), np.array([1.0, 0.0, 1.0]),
                           np.arange(3))
    with pytest.raises(ValueError):
        NormalizationStats(np.zeros(3), np.ones(3), np.array([0, 0, 2]))


# ------------------------------------------------- partial average distance

def test_distance_zero_when_samples_sit_on_center():
    center = np.array([[0.2, -0.1, 0.4]])
    samples = np.tile(center, (6, 1))
    d, kept = partial_average_distance(samples, center, np.array([1.0]))
    assert d == 0.0
    assert kept.shape == (4,)  # nearest 80% of 6 -> 4


def test_distance_single_cluster_single_sample():
    d, kept = partial_average_distance(np.array([[2.0, 0.0]]),
                                       np.array([[0.0, 0.0]]),
                                       np.array([3.7]))
    np.testing.assert_allclose(d, 2.0, rtol=0, atol=1e-12)
    assert kept.tolist() == [0]


def test_distance_matches_naive_loop_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n, m = int(rng.integers(3, 30)), int(rng.integers(1, 8))
        samples = rng.normal(size=(n, 9))
        centers = rng.normal(size=(m, 9))
        y_max = rng.normal(size=m)
        d, kept = partial_average_distance(samples, centers, y_max, 0.8)

        e = np.exp(y_max - y_max.max())
        w = e / e.sum()
        per_sample = []
        for j in range(n):
            dists = [np.linalg.norm(samples[j] - centers[i]) for i in range(m)]
            i_star = int(np.argmin(dists))
            per_sample.append((dists[i_star], w[i_star]))
        order = np.argsort([p[0] for p in per_sample], kind="stable")
        keep = order[:max(1, int(n * 0.8))]
        expected = sum(per_sample[j][0] * per_sample[j][1]
                       for j in keep) / len(keep)
        np.testing.assert_allclose(d, expected, rtol=0, atol=1e-10)
        assert sorted(kept.tolist()) == sorted(keep.tolist())


def test_distance_invariant_to_orderings():
    rng = np.random.default_rng(7)
    samples = rng.normal(size=(12, 9))
    centers = rng.normal(size=(4, 9))
    y_max = rng.normal(size=4)
    d1, _ = partial_average_distance(samples, centers, y_max)
    sp = rng.permutation(12)
    cp = rng.permutation(4)
    d2, _ = partial_average_distance(samples[sp], centers[cp], y_max[cp])
    np.testing.assert_allclose(d1, d2, rtol=0, atol=1e-12)


def test_distance_bits_do_not_depend_on_memory_order():
    """`normalize_sorted` returns F-ordered arrays; C-ordered copies of the
    same points must give the same bits (a pairwise sum over the 9
    dimensions would differ from the in-order sum by ulps)."""
    rng = np.random.default_rng(11)
    F = np.asfortranarray
    for _ in range(50):
        samples = rng.uniform(-1, 1, size=(30, 9))
        centers = rng.uniform(-1, 1, size=(60, 9))
        y_max = rng.normal(size=60)
        d, kept = partial_average_distance(samples, centers, y_max)
        for s, c in [(F(samples), F(centers)), (F(samples), centers),
                     (samples, F(centers))]:
            d2, kept2 = partial_average_distance(s, c, y_max)
            assert d2 == d
            assert kept2.tolist() == kept.tolist()


def test_distance_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        partial_average_distance(np.zeros((3, 9)), np.zeros((2, 8)),
                                 np.zeros(2))


def test_distance_drops_farthest_samples():
    center = np.zeros((1, 2))
    samples = np.zeros((10, 2))
    samples[8] = [100.0, 0.0]
    samples[9] = [0.0, 100.0]
    d, kept = partial_average_distance(samples, center, np.array([0.0]), 0.8)
    assert d == 0.0  # the two outliers fall outside the 80% boundary
    assert set(kept.tolist()) == set(range(8))


def test_distance_empty_samples_sentinel():
    d, kept = partial_average_distance(np.empty((0, 9)), np.zeros((1, 9)),
                                       np.array([0.0]))
    assert d == float("inf") and kept.size == 0


def test_softmax_weights_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = cluster_softmax_weights(rng.normal(scale=5, size=7))
        np.testing.assert_allclose(w.sum(), 1.0, rtol=0, atol=1e-12)
        assert np.all(w > 0)


# ------------------------------------------------------------- match_all

def canonical_shape(rng, n, dim=9):
    """Random point set normalized to zero mean and unit span per dimension."""
    pts = rng.normal(size=(n, dim))
    pts -= pts.mean(axis=0)
    pts /= (pts.max(axis=0) - pts.min(axis=0))
    return pts


def summary_from_shape(shape, scale, shift, branch_class=0):
    """Cluster summary whose centers normalize exactly back to `shape`."""
    centers = shape * scale + shift
    return BranchClassClusters(
        branch_class=branch_class,
        centers=centers,
        max_outputs=np.zeros(shape.shape[0]),
        sample_mean=shift.astype(np.float64),
        sample_min=shift - scale / 2.0,
        sample_max=shift + scale / 2.0,
        n_pairs=shape.shape[0],
    )


def match(refs, candidates):
    """match_all at the default keep fraction, on freshly prepared
    summaries."""
    return match_all(refs, candidates, 0.8, prepare_summaries(candidates))


def test_match_all_prefers_constructed_class():
    rng = np.random.default_rng(42)
    shape_a = canonical_shape(rng, 20)
    shape_b = canonical_shape(rng, 20)
    shift = np.linspace(0.0, 0.8, 9)  # ascending -> identity permutation
    scale = np.full(9, 2.0)
    # reference class 0 realizes shape_a, class 1 realizes shape_b
    refs = {0: shape_a * 1.3 + np.linspace(-1, 1, 9),
            1: shape_b * 0.7 + np.linspace(0, 2, 9)}
    cand = summary_from_shape(shape_a, scale, shift)
    results = match(refs, [(5, cand)])
    assert len(results) == 1
    r = results[0]
    assert r.matched and r.branch_id == 5 and r.target_class == 0
    np.testing.assert_allclose(r.distance, 0.0, rtol=0, atol=1e-10)
    dist = class_distances(refs, prepare_summaries([(5, cand)]), 0.8)
    assert dist[0, 0] == r.distance and dist[0, 1] > 1e-3


def test_match_all_tie_gives_no_match():
    rng = np.random.default_rng(9)
    shape = canonical_shape(rng, 15)
    refs = {0: shape.copy(), 1: shape.copy()}  # identical -> equal distances
    cand = summary_from_shape(shape, np.ones(9), np.linspace(0, 1, 9))
    results = match(refs, [(0, cand)])
    assert not results[0].matched
    assert results[0].target_class is None


def test_match_all_three_way_assignment_matches_exhaustive_oracle():
    rng = np.random.default_rng(42)
    shapes = [canonical_shape(rng, 18) for _ in range(3)]
    refs = {c: shapes[c] * rng.uniform(0.5, 2.0)
            + np.sort(rng.normal(size=9)) for c in range(3)}
    candidates = []
    for k in range(3):
        candidates.append(
            (k, summary_from_shape(shapes[k], np.full(9, 1.5),
                                   np.linspace(-0.4, 0.4, 9), branch_class=k)))
    results = match(refs, candidates)

    from namgrow.matching import stats_from_summary as sfs
    for r, (k, summary) in zip(results, candidates):
        normed_centers, _ = normalize_sorted(summary.centers, sfs(summary))
        oracle = {}
        for c in range(3):
            rn, _ = normalize_sorted(refs[c])
            oracle[c], _ = partial_average_distance(rn, normed_centers,
                                                    summary.max_outputs)
        best = min(oracle, key=oracle.get)
        assert r.matched and r.target_class == best == k
        np.testing.assert_allclose(r.distance, oracle[best], rtol=0, atol=1e-12)


def test_match_all_is_deterministic():
    rng = np.random.default_rng(2)
    shape = canonical_shape(rng, 10)
    refs = {0: rng.normal(size=(12, 9)), 1: rng.normal(size=(12, 9))}
    cand = [(0, summary_from_shape(shape, np.ones(9), np.zeros(9)))]
    assert match(refs, cand) == match(refs, cand)
    prepared = prepare_summaries(cand)
    assert np.array_equal(class_distances(refs, prepared, 0.8),
                          class_distances(refs, prepared, 0.8))


# ------------------------------------------- batched kernel vs the oracle

def oracle_match(refs, candidates, keep_fraction=0.8):
    """([n_candidates, n_classes] class distances, target per candidate)
    from one partial_average_distance call per (summary, class)."""
    ref_normed = {c: normalize_sorted(refs[c])[0] for c in sorted(refs)}
    matrix, targets = [], []
    for _, summary in candidates:
        centers, _ = normalize_sorted(summary.centers,
                                      stats_from_summary(summary))
        dists = {c: partial_average_distance(ref_normed[c], centers,
                                             summary.max_outputs,
                                             keep_fraction)[0]
                 for c in sorted(refs)}
        d_min = min(dists.values())
        winners = [c for c, d in dists.items() if d == d_min]
        unique = len(winners) == 1 and np.isfinite(d_min)
        matrix.append(list(dists.values()))
        targets.append(winners[0] if unique else None)
    return np.array(matrix), targets


def random_summary(rng, n_centers, branch_class=0, far=False,
                   duplicates=False):
    """Summary whose sample statistics come from a random sample set; with
    `far` its centers sit in a tight knot far outside that sample span, and
    with `duplicates` half of them are copies with other peak outputs."""
    samples = rng.normal(size=(max(2, n_centers), 9)) * rng.uniform(0.1, 2, 9)
    centers = samples[:n_centers].copy()
    if far:
        span = samples.max(axis=0) - samples.min(axis=0)
        centers = (samples.mean(axis=0) + span * rng.uniform(1e3, 1e5, 9)
                   + span * 1e-12 * rng.normal(size=(n_centers, 9)))
    if duplicates and n_centers > 1:
        half = n_centers // 2
        centers[half:2 * half] = centers[:half]
    return BranchClassClusters(
        branch_class=branch_class,
        centers=centers,
        max_outputs=rng.normal(size=n_centers),
        sample_mean=samples.mean(axis=0),
        sample_min=samples.min(axis=0),
        sample_max=samples.max(axis=0),
        n_pairs=samples.shape[0],
    )


def random_refs(rng, counts, identical=False, flat_dim=None):
    refs = {}
    for c, n in enumerate(counts):
        refs[c] = (refs[0].copy() if identical and c > 0 else
                   rng.integers(0, 256, size=(n, 9)).astype(np.float64) / 255)
        if flat_dim is not None:
            refs[c][:, flat_dim] = 0.25
    return refs


MATCH_CASES = {
    "unequal centers": dict(centers=[1, 7, 60, 1, 23], refs=[30, 30, 30]),
    "unequal refs": dict(centers=[12, 5, 30], refs=[2, 5, 13, 41]),
    "duplicate centers": dict(centers=[8, 20, 2, 33], refs=[30, 12],
                              duplicates=True),
    "identical classes": dict(centers=[9, 1, 16], refs=[20, 20, 20],
                              identical=True),
    "flat reference dim": dict(centers=[10, 4, 25], refs=[30, 25],
                               flat_dim=3),
    "far centers": dict(centers=[6, 1, 40, 15], refs=[30, 17], far=True),
}


@pytest.mark.parametrize("block_entries",
                         [matching.GRAM_BLOCK_ENTRIES, 7, 100])
@pytest.mark.parametrize("case", sorted(MATCH_CASES))
def test_match_all_equals_oracle_exactly(case, block_entries, monkeypatch):
    spec = MATCH_CASES[case]
    monkeypatch.setattr(matching, "GRAM_BLOCK_ENTRIES", block_entries)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        candidates = [
            (i % 3, random_summary(rng, n, branch_class=i % 2,
                                   far=spec.get("far", False),
                                   duplicates=spec.get("duplicates", False)))
            for i, n in enumerate(spec["centers"])]
        prepared = prepare_summaries(candidates)
        for keep_fraction in (0.8, 0.5, 1.0):
            refs = random_refs(rng, spec["refs"],
                               identical=spec.get("identical", False),
                               flat_dim=spec.get("flat_dim"))
            dist = class_distances(refs, prepared, keep_fraction)
            results = match_all(refs, candidates,
                                keep_fraction=keep_fraction,
                                prepared=prepared)
            want, targets = oracle_match(refs, candidates, keep_fraction)
            assert dist.tobytes() == want.tobytes()
            assert len(results) == len(candidates)
            for res, (branch_id, _), row, target in zip(
                    results, candidates, want, targets):
                assert res.branch_id == branch_id
                assert res.target_class == target
                assert res.matched == (target is not None)
                assert res.distance == row.min()
    if spec.get("identical"):
        assert not any(r.matched for r in results)


def test_match_all_without_candidates_is_empty():
    refs = random_refs(np.random.default_rng(0), [5, 5])
    assert match(refs, []) == []


def test_prepare_summaries_rejects_non_finite_centers():
    rng = np.random.default_rng(0)
    summary = random_summary(rng, 4)
    summary.centers[2, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        prepare_summaries([(0, summary)])


def test_prepared_summaries_hold_each_center_once():
    """Per center: its Gram row (the normalized center and |c|^2), its
    softmax weight and its owning summary; everything else is per
    summary."""
    rng = np.random.default_rng(0)
    dim = 9
    counts = [40, 1, 25, 60]
    candidates = [(i, random_summary(rng, n)) for i, n in enumerate(counts)]
    prepared = prepare_summaries(candidates)
    held = sum(value.nbytes for value in vars(prepared).values()
               if isinstance(value, np.ndarray))
    held += sum(array.nbytes for stats in prepared.stats
                for array in (stats.mean, stats.range_, stats.permutation))
    # per summary: its stats, its largest |c|^2 and its offset
    per_summary = 3 * dim * 8 + 8 + 8
    assert held <= ((dim + 3) * 8 * sum(counts)
                    + per_summary * len(counts) + 8)


def concatenating_build(candidates):
    """The prepared arrays built the first way: every summary's normalized
    centers, then their concatenation, then the Gram rows stacked from it
    and its |c|^2."""
    centers = [normalize_sorted(s.centers, stats_from_summary(s))[0]
               for _, s in candidates]
    counts = np.array([c.shape[0] for c in centers], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    centers = np.concatenate(centers)
    sq_norms = np.einsum("ij,ij->i", centers, centers)
    return {
        "gram_rows": np.hstack([centers, sq_norms[:, None]]),
        "max_sq_norm": np.maximum.reduceat(sq_norms, offsets[:-1]),
        "weights": np.concatenate([cluster_softmax_weights(s.max_outputs)
                                   for _, s in candidates]),
        "offsets": offsets,
        "segment": np.repeat(np.arange(counts.size), counts),
    }


@pytest.mark.parametrize("width, counts", [
    (9, [7]), (4, [1, 40, 25]), (9, [1000, 3, 2500, 1]), (25, [333, 64]),
    (9, [100_000]), (9, [1]), (9, [1] * 300), (4, [1, 1, 2]),
])
def test_prepared_summaries_equal_the_concatenating_build(width, counts):
    rng = np.random.default_rng(width + len(counts))
    candidates = []
    for i, n in enumerate(counts):
        samples = rng.normal(size=(n + 2, width)) * rng.uniform(0.1, 2, width)
        candidates.append((i, BranchClassClusters(
            branch_class=0, centers=samples[:n].copy(),
            max_outputs=rng.normal(size=n),
            sample_mean=samples.mean(axis=0), sample_min=samples.min(axis=0),
            sample_max=samples.max(axis=0), n_pairs=n + 2)))
    prepared = prepare_summaries(candidates)
    for name, want in concatenating_build(candidates).items():
        got = getattr(prepared, name)
        assert (got.dtype, got.shape, got.strides) == \
            (want.dtype, want.shape, want.strides), name
        assert got.tobytes() == want.tobytes(), name


def test_prepare_summaries_rejects_centers_of_another_width():
    rng = np.random.default_rng(0)
    narrow = random_summary(rng, 3)
    narrow.centers = narrow.centers[:, :1]
    for name in ("sample_mean", "sample_min", "sample_max"):
        setattr(narrow, name, getattr(narrow, name)[:1])
    with pytest.raises(ValueError, match="^cluster centers differ in width$"):
        prepare_summaries([(0, random_summary(rng, 4)), (1, narrow)])


def test_match_all_rejects_prepared_side_of_other_candidates():
    rng = np.random.default_rng(0)
    candidates = [(0, random_summary(rng, 4)), (1, random_summary(rng, 5))]
    with pytest.raises(ValueError, match="do not match"):
        match_all(random_refs(rng, [5, 5]), candidates, 0.8,
                  prepare_summaries(candidates[:1]))


# ------------------------------------------------------- parameter transfer

def random_stats(rng, dim=9, lo=0.5, hi=2.0):
    return NormalizationStats(rng.normal(size=dim),
                              rng.uniform(lo, hi, size=dim),
                              rng.permutation(dim))


def map_reference_to_branch(x_r, b_stats, r_stats):
    """Construct the branch-space point whose first-layer output must match."""
    x_b = np.empty_like(x_r)
    for k in range(x_r.size):
        ib = b_stats.permutation[k]
        ir = r_stats.permutation[k]
        x_b[ib] = (b_stats.range_[ib] * (x_r[ir] - r_stats.mean[ir])
                   / r_stats.range_[ir] + b_stats.mean[ib])
    return x_b


def test_transfer_identity_stats_is_noop():
    rng = np.random.default_rng(42)
    layer = DenseLayer(rng.normal(size=(9, 9)), rng.normal(size=9))
    stats = NormalizationStats(np.zeros(9), np.ones(9), np.arange(9))
    w, b = transfer_first_layer(layer, stats, stats)
    np.testing.assert_allclose(w, layer.weights, rtol=0, atol=1e-15)
    np.testing.assert_allclose(b, layer.bias, rtol=0, atol=1e-15)


def test_transfer_pure_scale():
    rng = np.random.default_rng(1)
    layer = DenseLayer(rng.normal(size=(9, 9)), rng.normal(size=9))
    b_stats = NormalizationStats(np.zeros(9), np.full(9, 2.0), np.arange(9))
    r_stats = NormalizationStats(np.zeros(9), np.ones(9), np.arange(9))
    w, b = transfer_first_layer(layer, b_stats, r_stats)
    np.testing.assert_allclose(w, 2.0 * layer.weights, rtol=0, atol=1e-14)
    np.testing.assert_allclose(b, layer.bias, rtol=0, atol=1e-14)


def test_transfer_exactness_1000_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        layer = DenseLayer(rng.normal(size=(9, 9)), rng.normal(size=9))
        b_stats = random_stats(rng)
        r_stats = random_stats(rng)
        w_new, b_new = transfer_first_layer(layer, b_stats, r_stats)
        x_r = rng.normal(size=9)
        x_b = map_reference_to_branch(x_r, b_stats, r_stats)
        lhs = w_new @ x_r + b_new
        rhs = layer.weights @ x_b + layer.bias
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)


def test_transfer_full_mlp_forward_agrees():
    rng = np.random.default_rng(7)
    mlp = init_branch_mlp(rng, n_classes=10)
    b_stats = random_stats(rng)
    r_stats = random_stats(rng)
    moved = transfer_branch_mlp(mlp, b_stats, r_stats)
    for _ in range(20):
        x_r = rng.uniform(-0.5, 0.5, size=9)
        x_b = map_reference_to_branch(x_r, b_stats, r_stats)
        np.testing.assert_allclose(mlp_forward(moved, x_r),
                                   mlp_forward(mlp, x_b), rtol=0, atol=1e-10)
    # deeper layers are shared unchanged
    np.testing.assert_array_equal(moved.hidden_layers[1].weights,
                                  mlp.hidden_layers[1].weights)
    np.testing.assert_array_equal(moved.output_layer.weights,
                                  mlp.output_layer.weights)


def test_transfer_requires_biased_layer():
    """Transfer rewrites the first hidden layer of a branch MLP, and a
    branch MLP refuses a hidden layer without a bias."""
    with pytest.raises(ValueError, match="hidden layer 0 has no bias"):
        BranchMlp([DenseLayer(np.ones((2, 2)), None)],
                  DenseLayer(np.ones((3, 2))))


def test_stats_from_summary_uses_sample_statistics():
    rng = np.random.default_rng(3)
    summary = BranchClassClusters(
        branch_class=1,
        centers=rng.normal(size=(4, 9)),
        max_outputs=rng.normal(size=4),
        sample_mean=np.linspace(0.2, -0.2, 9),  # descending means
        sample_min=np.full(9, -1.0),
        sample_max=np.full(9, 3.0),
        n_pairs=100,
    )
    stats = stats_from_summary(summary)
    np.testing.assert_array_equal(stats.mean, summary.sample_mean)
    np.testing.assert_array_equal(stats.range_, np.full(9, 4.0))
    np.testing.assert_array_equal(stats.permutation, np.arange(9)[::-1])
