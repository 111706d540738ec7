"""Mean-shift clustering tests on synthetic geometry and real branch MLPs."""

import copy
import json
import math

import numpy as np
import pytest

from namgrow import clustering
from namgrow.clustering import (
    BranchPairs,
    ClusterConfig,
    cluster_branch_class,
    cluster_branch_mlp,
    cluster_network,
    clusters_from_json,
    clusters_to_json,
    generate_branch_pairs,
    mean_shift_step,
    source_digest,
    standardize,
)
from namgrow.nn_core import init_branch_mlp
from oracles import destandardize, gaussian_weight, reference_mean_shift

FAST = ClusterConfig(n_samples=400, max_shift_iterations=50)


# -------------------------------------------------------------- pair making

def test_generate_pairs_keeps_exact_top_fraction():
    rng = np.random.default_rng(42)
    mlp = init_branch_mlp(rng, n_classes=10)
    pairs = generate_branch_pairs(mlp, 10, rng, 0.2)
    assert len(pairs) == 10
    for p in pairs:
        assert p.n == 2  # 20% of 10
        assert p.samples.shape == (2, 9)


def test_generate_pairs_constant_branch_ties_by_index():
    rng = np.random.default_rng(1)
    mlp = init_branch_mlp(rng, n_classes=3)
    for layer in mlp.hidden_layers:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    mlp.output_layer.weights[:] = 0.0  # all outputs identically 0
    pairs = generate_branch_pairs(mlp, 20, np.random.default_rng(9), 0.2)
    for p in pairs:
        assert p.n == 4
        np.testing.assert_array_equal(p.outputs, np.zeros(4))
    # stable tie-break keeps the first samples in draw order: outputs equal,
    # so the retained set must be the first 4 generated samples
    rng2 = np.random.default_rng(9)
    raw = rng2.uniform(-0.5, 0.5, size=(20, 9))
    np.testing.assert_array_equal(pairs[0].samples, raw[:4])


def test_generate_pairs_retained_dominate_dropped():
    rng = np.random.default_rng(42)
    mlp = init_branch_mlp(rng, n_classes=4)
    samples_rng = np.random.default_rng(7)
    pairs = generate_branch_pairs(mlp, 200, samples_rng, 0.2)
    # recompute everything by brute sort
    from namgrow.nn_core import mlp_forward_batch
    check_rng = np.random.default_rng(7)
    raw = check_rng.uniform(-0.5, 0.5, size=(200, 9))
    outs = mlp_forward_batch(mlp, raw.T)
    for c, p in enumerate(pairs):
        col = np.sort(outs[:, c])
        dropped_max = col[-41]   # 40 retained out of 200
        assert p.outputs.min() >= dropped_max
        np.testing.assert_allclose(np.sort(p.outputs), col[-40:], atol=1e-12)


def test_generate_pairs_domain():
    rng = np.random.default_rng(3)
    mlp = init_branch_mlp(rng, n_classes=2)
    pairs = generate_branch_pairs(mlp, 50, rng, 0.2)
    for p in pairs:
        assert p.samples.min() >= -0.5 and p.samples.max() <= 0.5


# ------------------------------------------------------------------- kernel

def test_gaussian_weight_at_zero_distance_is_norm_constant():
    cov = np.eye(3) * 0.25
    w = gaussian_weight(np.ones(3), np.ones(3), cov)
    expected = (2 * np.pi) ** (-1.5) / np.sqrt(0.25 ** 3)
    np.testing.assert_allclose(w, expected, rtol=1e-12, atol=0)


def test_gaussian_weight_symmetry():
    rng = np.random.default_rng(42)
    cov = np.eye(9) * 0.09
    for _ in range(10):
        a, b = rng.normal(size=(2, 9))
        assert gaussian_weight(a, b, cov) == gaussian_weight(b, a, cov)


def test_gaussian_weight_2d_hand_case():
    # unit covariance, squared distance 2: (2*pi)^-1 * exp(-1)
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 1.0])
    expected = np.exp(-1.0) / (2 * np.pi)
    np.testing.assert_allclose(gaussian_weight(a, b, np.eye(2)), expected,
                               rtol=1e-12, atol=0)


def test_gaussian_weight_rejects_bad_covariance():
    with pytest.raises(ValueError):
        gaussian_weight(np.zeros(2), np.ones(2), np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        gaussian_weight(np.zeros(2), np.ones(2), np.array([[1.0, 0.5],
                                                           [0.5, 1.0]]))


# --------------------------------------------------------------- shift step

def test_mean_shift_single_sample():
    s = np.array([[0.3, -0.2, 0.1]])
    out = mean_shift_step(np.zeros(3), s, np.full(3, 0.09))
    np.testing.assert_allclose(out, s[0], rtol=0, atol=1e-15)


def test_mean_shift_two_equidistant_samples_give_midpoint():
    s = np.array([[1.0, 0.0], [-1.0, 0.0]])
    out = mean_shift_step(np.array([0.0, 0.5]), s, np.ones(2))
    np.testing.assert_allclose(out, [0.0, 0.0], rtol=0, atol=1e-12)


def test_mean_shift_stays_in_convex_hull():
    rng = np.random.default_rng(42)
    samples = rng.normal(size=(50, 9))
    variances = np.full(9, 0.09)
    for _ in range(10):
        p = rng.normal(size=9)
        out = mean_shift_step(p, samples, variances)
        assert np.all(out >= samples.min(axis=0) - 1e-12)
        assert np.all(out <= samples.max(axis=0) + 1e-12)


def test_mean_shift_underflow_snaps_to_nearest():
    samples = np.array([[0.0, 0.0], [1.0, 1.0]])
    far = np.array([1e4, 1e4])  # all kernel weights underflow to zero
    out = mean_shift_step(far, samples, np.full(2, 0.01))
    np.testing.assert_array_equal(out, samples[1])


# ------------------------------------------------------------ normalization

def test_standardize_roundtrip():
    rng = np.random.default_rng(42)
    x = rng.uniform(-0.5, 0.5, size=(40, 9))
    normed, mean, std = standardize(x)
    np.testing.assert_allclose(destandardize(normed, mean, std), x,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(normed.mean(axis=0), 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(normed.std(axis=0), 1.0, rtol=0, atol=1e-12)


def test_standardize_degenerate_dimension():
    x = np.zeros((5, 3))
    x[:, 1] = np.arange(5)
    normed, mean, std = standardize(x)
    assert np.all(np.isfinite(normed))
    np.testing.assert_allclose(destandardize(normed, mean, std), x,
                               rtol=0, atol=1e-12)


# --------------------------------------------------------------- clustering

def blob_pairs(rng, centers, n_per_blob=30, spread=0.02):
    """Synthetic pairs: tight blobs; output peaks at each blob center."""
    samples, outputs = [], []
    for c in centers:
        pts = c + rng.normal(scale=spread, size=(n_per_blob, len(c)))
        samples.append(pts)
        outputs.append(1.0 - np.linalg.norm(pts - c, axis=1))
    return BranchPairs(0, np.concatenate(samples), np.concatenate(outputs))


def cluster_with_reference(pairs, config, seed):
    """`cluster_branch_class`'s summary and the reference clusters from one
    seed.  The summary's centers and peak outputs are the reference's, bit
    for bit, and both leave the rng in the same state."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    summary = cluster_branch_class(pairs, config, rng)
    clusters = reference_mean_shift(pairs, config, ref_rng)
    assert (summary.centers.tobytes()
            == np.stack([c.center for c in clusters]).tobytes())
    assert (summary.max_outputs.tobytes()
            == np.array([c.max_output for c in clusters]).tobytes())
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return summary, clusters


def test_identical_pairs_form_one_cluster():
    pairs = BranchPairs(2, np.tile([0.1] * 9, (12, 1)), np.full(12, 0.7))
    summary, clusters = cluster_with_reference(pairs, FAST, 0)
    assert summary.n_clusters == 1
    np.testing.assert_array_equal(summary.centers[0], [0.1] * 9)
    assert summary.max_outputs[0] == 0.7
    assert sorted(clusters[0].members) == list(range(12))


def test_two_separated_blobs_give_two_clusters():
    rng = np.random.default_rng(42)
    c1 = np.full(9, 0.4)
    c2 = np.full(9, -0.4)
    pairs = blob_pairs(rng, [c1, c2])
    summary, clusters = cluster_with_reference(pairs, FAST, 1)
    assert summary.n_clusters == 2
    got = sorted(summary.centers[:, 0])
    assert got[0] == pytest.approx(-0.4, abs=0.08)
    assert got[1] == pytest.approx(0.4, abs=0.08)
    # each cluster's center output is the member max
    for c in clusters:
        assert c.max_output == pairs.outputs[c.members].max()


def test_clusters_partition_input_set():
    rng = np.random.default_rng(42)
    pairs = BranchPairs(1, rng.uniform(-0.5, 0.5, size=(80, 9)),
                        rng.normal(size=80))
    summary, clusters = cluster_with_reference(pairs, FAST, 3)
    seen = np.concatenate([c.members for c in clusters])
    assert len(seen) == 80                       # no duplicates, full cover
    assert sorted(seen.tolist()) == list(range(80))
    assert len(clusters) <= 80                   # at most one round per sample
    for c in clusters:
        assert c.max_output == pairs.outputs[c.members].max()


@pytest.mark.parametrize("seed", range(8))
def test_summary_equals_reference_mean_shift(seed):
    """Branch-class pairs of a real branch MLP, with clusters of 1 to ~30
    members: the summary is the reference partition's arg-max members, in
    claim order, and the partition covers every retained pair once.  With
    outputs rounded to one decimal, members tie and the first one wins."""
    mlp = init_branch_mlp(np.random.default_rng(seed), n_classes=3)
    config = ClusterConfig(n_samples=300, neighbor_distance=3.0,
                           bandwidth=1.0, max_shift_iterations=40)
    for pairs in generate_branch_pairs(mlp, config.n_samples,
                                       np.random.default_rng(seed + 100),
                                       config.top_fraction):
        tied = BranchPairs(pairs.branch_class, pairs.samples,
                           np.round(pairs.outputs, 1))
        for p in (pairs, tied):
            summary, clusters = cluster_with_reference(p, config, seed)
            seen = sorted(i for c in clusters for i in c.members)
            assert seen == list(range(p.n))
            assert summary.n_clusters == len(clusters)
            assert summary.n_pairs == p.n


# ----------------------------------------------------------- isolated starts

UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def count_steps(monkeypatch) -> list:
    """Record every `mean_shift_step` call of `cluster_branch_class` (the
    oracle imports its own reference to the function)."""
    calls = []
    step = clustering.mean_shift_step

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(clustering, "mean_shift_step", counted)
    return calls


def distance_two_pair() -> BranchPairs:
    """Two samples that standardize exactly to (+-1, 0, ..., 0): a pair at
    distance 2 with eight flat dimensions."""
    samples = np.zeros((2, 9))
    samples[:, 0] = [0.25, -0.25]
    return BranchPairs(0, samples, np.array([0.3, 0.7]))


def first_shift(pairs: BranchPairs, bandwidth: float) -> float:
    normed, _, _ = standardize(pairs.samples)
    shifted = mean_shift_step(normed[0], normed,
                              np.full(normed.shape[1], bandwidth ** 2))
    return float(np.linalg.norm(shifted - normed[0]))


def uniform_pairs(seed: int, n: int) -> BranchPairs:
    rng = np.random.default_rng(seed)
    return BranchPairs(0, rng.uniform(-0.5, 0.5, size=(n, 9)),
                       rng.normal(size=n))


def pair_beyond_the_near_limit():
    # d = 2 is just beyond d_nb + d_min: isolated at a negligible kernel
    return distance_two_pair(), ClusterConfig(
        neighbor_distance=2 * (1 - 1e-9) - 1e-3, bandwidth=0.1)


def pair_within_the_near_limit():
    return distance_two_pair(), ClusterConfig(
        neighbor_distance=2 * (1 + 1e-9) - 1e-3, bandwidth=0.1)


def pair_claimed_after_the_step():
    # the step moves 2 e^-8 / (1 + e^-8) ~ 6.7e-4 towards the other sample,
    # which starts beyond d_nb and ends within it
    return distance_two_pair(), ClusterConfig(
        neighbor_distance=2 - 3.35e-4, bandwidth=0.5)


def pair_shifting_by_about_the_minimum(ulps: int):
    def build():
        pairs = distance_two_pair()
        shift = first_shift(pairs, 0.5)
        for _ in range(abs(ulps)):
            shift = np.nextafter(shift, np.inf if ulps > 0 else 0.0)
        return pairs, ClusterConfig(neighbor_distance=1.0,
                                    min_shift_distance=float(shift),
                                    bandwidth=0.5)
    build.__name__ = f"minimum_shift_{ulps:+d}_ulps_from_the_first_shift"
    return build


def duplicate_samples():
    pairs = uniform_pairs(11, 40)
    pairs.samples[[3, 17]] = pairs.samples[0]
    pairs.samples[20] = pairs.samples[9]
    return pairs, ClusterConfig()


def one_sample():
    return uniform_pairs(12, 1), ClusterConfig()


def flat_dimensions():
    pairs = uniform_pairs(13, 40)
    pairs.samples[:, [2, 6]] = 0.1
    return pairs, ClusterConfig()


def tight_blobs():
    rng = np.random.default_rng(14)
    return (blob_pairs(rng, [np.full(9, 0.4), np.full(9, -0.4),
                             np.linspace(-0.4, 0.4, 9)], n_per_blob=10),
            FAST)


def blob_among_scattered_samples():
    rng = np.random.default_rng(15)
    blob = blob_pairs(rng, [np.full(9, 0.2)], n_per_blob=12)
    scattered = uniform_pairs(16, 30)
    return (BranchPairs(0, np.concatenate([scattered.samples, blob.samples]),
                        np.concatenate([scattered.outputs, blob.outputs])),
            ClusterConfig())


@pytest.mark.parametrize("block_entries", [1, clustering.ISOLATION_BLOCK_ENTRIES])
@pytest.mark.parametrize("case", [
    pair_beyond_the_near_limit, pair_within_the_near_limit,
    pair_claimed_after_the_step,
    *[pair_shifting_by_about_the_minimum(k) for k in (-2, -1, 0, 1, 2)],
    duplicate_samples, one_sample, flat_dimensions, tight_blobs,
    blob_among_scattered_samples,
])
def test_isolated_starts_equal_the_loop_oracle(case, block_entries,
                                               monkeypatch):
    """Whether a start is claimed alone or shifted, the summary and the rng
    state are the loop oracle's, bit for bit, in blocks of any size."""
    monkeypatch.setattr(clustering, "ISOLATION_BLOCK_ENTRIES", block_entries)
    pairs, config = case()
    for seed in range(3):
        cluster_with_reference(pairs, config, seed)


def test_pair_claimed_after_the_step_is_one_cluster():
    summary, _ = cluster_with_reference(*pair_claimed_after_the_step(), 0)
    assert summary.n_clusters == 1
    assert summary.max_outputs.tolist() == [0.7]


def test_mixed_class_takes_both_paths(monkeypatch):
    calls = count_steps(monkeypatch)
    summary, _ = cluster_with_reference(*blob_among_scattered_samples(), 0)
    assert 0 < len(calls) < summary.n_clusters


@pytest.mark.parametrize("config", [
    # bound 2 e^-8 a relative 1e-12 under d_min, inside the worst-case
    # rounding of the computed step (~5e-12 here); the neighbour is far
    ClusterConfig(neighbor_distance=1.0, bandwidth=0.5,
                  min_shift_distance=2 * math.exp(-8.0) * (1 + 1e-12)),
    # negligible kernel; d_nb + d_min a few ulps under the distance 2
    ClusterConfig(neighbor_distance=2 * (1 - 32 * UNIT_ROUNDOFF) - 1e-3,
                  bandwidth=0.1),
], ids=["shift", "near"])
def test_a_start_within_rounding_of_a_limit_runs_the_loop(config,
                                                          monkeypatch):
    """Rounding could hide so small a margin, so such a start is shifted."""
    calls = count_steps(monkeypatch)
    summary, _ = cluster_with_reference(distance_two_pair(), config, 0)
    assert summary.n_clusters == 2 and len(calls) == 2


def test_isolated_starts_skip_the_shift_loop(monkeypatch):
    """A start with room to spare is claimed without a step: the distance-2
    pair at twice its bound, and nearly every retained pair of a branch at
    the default configuration."""
    calls = count_steps(monkeypatch)
    config = ClusterConfig(neighbor_distance=1.0, bandwidth=0.5,
                           min_shift_distance=4 * math.exp(-8.0))
    summary, _ = cluster_with_reference(distance_two_pair(), config, 0)
    assert summary.n_clusters == 2 and calls == []
    mlp = init_branch_mlp(np.random.default_rng(17), n_classes=10)
    table = cluster_branch_mlp(mlp, ClusterConfig(n_samples=250), 18)
    clusters = sum(s.n_clusters for s in table)
    assert clusters >= 490 and len(calls) * 5 < clusters


def test_clustering_deterministic_for_fixed_seed():
    rng = np.random.default_rng(42)
    mlp = init_branch_mlp(rng, n_classes=3)
    cfg = ClusterConfig(n_samples=60, max_shift_iterations=30)
    a = cluster_branch_mlp(mlp, cfg, 11)
    b = cluster_branch_mlp(mlp, cfg, 11)
    assert len(a) == len(b) == 3
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.centers, sb.centers)
        np.testing.assert_array_equal(sa.max_outputs, sb.max_outputs)
    c = cluster_branch_mlp(mlp, cfg, 12)
    assert any(sa.centers.shape != sc.centers.shape
               or not np.array_equal(sa.centers, sc.centers)
               for sa, sc in zip(a, c))


def test_summary_statistics_cover_pairs():
    rng = np.random.default_rng(5)
    pairs = BranchPairs(4, rng.uniform(-0.5, 0.5, size=(40, 9)),
                        rng.normal(size=40))
    summary, clusters = cluster_with_reference(pairs, FAST, 6)
    np.testing.assert_allclose(summary.sample_mean, pairs.samples.mean(axis=0),
                               rtol=0, atol=1e-12)
    np.testing.assert_array_equal(summary.sample_min, pairs.samples.min(axis=0))
    np.testing.assert_array_equal(summary.sample_max, pairs.samples.max(axis=0))
    assert summary.n_pairs == 40
    assert summary.branch_class == 4
    assert summary.n_clusters == len(clusters)


def test_cluster_cache_json_roundtrip():
    rng = np.random.default_rng(42)
    mlps = [init_branch_mlp(rng, n_classes=2) for _ in range(2)]
    cfg = ClusterConfig(n_samples=40, max_shift_iterations=20)
    table = cluster_network(mlps, cfg, seed=5)
    source = {"for": "grow", "mlp_sha256": source_digest(mlps)}
    text = clusters_to_json(table, source)
    back = clusters_from_json(text, mlps, source)
    with pytest.raises(ValueError, match="^cluster cache for is 'grow', the "
                                         "run's is 'transfer'$"):
        clusters_from_json(text, mlps, {**source, "for": "transfer"})
    assert len(back) == 2
    for per_a, per_b in zip(table, back):
        for sa, sb in zip(per_a, per_b):
            assert sa.branch_class == sb.branch_class
            np.testing.assert_array_equal(sa.centers, sb.centers)
            np.testing.assert_array_equal(sa.max_outputs, sb.max_outputs)
            np.testing.assert_array_equal(sa.sample_mean, sb.sample_mean)
            np.testing.assert_array_equal(sa.sample_min, sb.sample_min)
            np.testing.assert_array_equal(sa.sample_max, sb.sample_max)
            assert sa.n_pairs == sb.n_pairs
    assert clusters_to_json(back, source) == text
    with pytest.raises(ValueError):
        clusters_from_json('{"format":"nope","version":1}', mlps, source)
    with pytest.raises(ValueError, match="^cluster cache version 1 is no "
                                         "longer read: rebuild it with "
                                         "`namgrow cluster-cache`$"):
        clusters_from_json('{"format":"nam-cluster-cache","version":1}',
                           mlps, source)


def test_stale_cache_is_refused_by_source_before_its_arrays_are_read():
    rng = np.random.default_rng(8)
    mlps = [init_branch_mlp(rng, n_classes=2) for _ in range(2)]
    cfg = ClusterConfig(n_samples=40, max_shift_iterations=20)
    source = {"for": "grow", "mlp_sha256": source_digest(mlps)}
    doc = json.loads(clusters_to_json(cluster_network(mlps, cfg, seed=5),
                                      source))
    doc["centers"]["base64"] = "not base64!"
    with pytest.raises(ValueError, match="^cluster cache centers is not "
                                         "valid base64"):
        clusters_from_json(json.dumps(doc), mlps, source)
    with pytest.raises(ValueError, match="^cluster cache for is 'grow', the "
                                         "run's is 'transfer'$"):
        clusters_from_json(json.dumps(doc), mlps,
                           {**source, "for": "transfer"})


def test_source_digest_is_the_layer_bytes():
    """One digest per set of layer values, whatever the objects."""
    rng = np.random.default_rng(3)
    mlps = [init_branch_mlp(rng, n_classes=3) for _ in range(2)]
    copies = [copy.deepcopy(mlp) for mlp in mlps]
    assert source_digest(copies) == source_digest(mlps)
    assert source_digest(mlps[::-1]) != source_digest(mlps)
    copies[1].hidden_layers[2].bias[4] = np.nextafter(
        copies[1].hidden_layers[2].bias[4], 1.0)
    assert source_digest(copies) != source_digest(mlps)


def test_cluster_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(neighbor_distance=0.5, min_shift_distance=0.5)
    with pytest.raises(ValueError):
        ClusterConfig(bandwidth=0.0)
    with pytest.raises(ValueError):
        ClusterConfig(top_fraction=0.0)
    with pytest.raises(ValueError, match="max_shift_iterations"):
        ClusterConfig(max_shift_iterations=0)
