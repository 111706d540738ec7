"""Tests for the growth loop: selection sets, iterations, tuning, rollback."""

import numpy as np
import pytest

from namgrow import growth, matching
from namgrow.checkpoint import network_to_json
from namgrow.clustering import BranchClassClusters, ClusterConfig
from namgrow.data_io import Dataset, InputRange, base_grid_ranges
from namgrow.growth import (
    BranchPoint,
    CandidateBranch,
    GrowthConfig,
    IterationRecord,
    MaskColumns,
    candidate_streams,
    draw_reference_images,
    draw_selection,
    frozen_parameter_hash,
    grow_iteration,
    mask_gradients,
    match_candidates,
    start_growth,
    tune_masks,
)
from namgrow.matching import (
    match_all,
    normalize_sorted,
    prepare_summaries,
    stats_from_points,
    stats_from_summary,
    transfer_first_layer,
)
from namgrow.nam_model import (
    Branch,
    ClassMask,
    NamNetwork,
    apply_class_mask,
    evaluate,
    network_forward_batch,
    network_scores,
    parameter_count,
    score_metrics,
)
from namgrow.nn_core import (
    BranchMlp,
    DenseLayer,
    init_branch_mlp,
    mlp_arrays,
    mlp_forward_batch,
    optimizer_step_count,
)
from namgrow.qualification import qualify
from oracles import draw_dataset, fit_election_stats, float_images, \
    loop_forward_batch, normalized_refs, one_branch_output, \
    per_branch_scan, per_branch_tune_masks, rounded_dataset, row_major_patches

N_CLASSES = 3
RANGE0 = InputRange(0, 0, 0)


def ramp_mlp(branch_class, scale=1.0, n_classes=N_CLASSES):
    """Hand-built branch whose class-output at `branch_class` is
    scale * (patch mean + 1); all other class outputs are 0."""
    mean_w = np.full((9, 9), 1.0 / 9.0)
    identity = np.eye(9)
    layers = [DenseLayer(mean_w, np.ones(9))]
    layers += [DenseLayer(identity.copy(), np.zeros(9)) for _ in range(3)]
    out_w = np.zeros((n_classes, 9))
    out_w[branch_class] = scale / 9.0
    return BranchMlp(hidden_layers=layers, output_layer=DenseLayer(out_w))


def constant_mlp(branch_class, value=0.5, n_classes=N_CLASSES):
    """Branch emitting the same output on every patch."""
    layers = [DenseLayer(np.zeros((9, 9)), np.ones(9))]
    layers += [DenseLayer(np.eye(9), np.zeros(9)) for _ in range(3)]
    out_w = np.zeros((n_classes, 9))
    out_w[branch_class] = value / 9.0
    return BranchMlp(hidden_layers=layers, output_layer=DenseLayer(out_w))


def hand_candidate(mlp, branch_class, target_class, input_range=RANGE0):
    """Candidate whose transferred first layer is the MLP's own (identity)."""
    return CandidateBranch(
        source_branch_id=0, branch_class=branch_class,
        target_class=target_class, input_range=input_range, distance=0.0,
        mlp=mlp)


def windows(data, input_range):
    """Row-major windows [n, 9] of every image of `data` at one range."""
    return row_major_patches(float_images(data), [input_range])[0]


def reference_sets(rng, n_per_class=15):
    """Per-class reference datasets of drawn pixels, as matching reads."""
    return {c: draw_dataset(rng, n_per_class, (1, 6, 6),
                            labels=np.full(n_per_class, c))
            for c in range(N_CLASSES)}


def flat_reference_sets(levels):
    """Per-class reference datasets flat at each class's level."""
    return {c: rounded_dataset(np.full((10, 1, 6, 6), level),
                               np.full(10, c))
            for c, level in enumerate(levels)}


def patch_mean_dataset(means_by_class, n_per_class, noise=0.02, seed=0,
                       tag="synthetic"):
    """Images whose 3x3 patch at RANGE0 has a class-specific mean."""
    rng = np.random.default_rng(seed)
    images, labels = [], []
    for c, mu in enumerate(means_by_class):
        block = rng.uniform(-noise, noise, size=(n_per_class, 1, 6, 6))
        block[:, 0, 0:3, 0:3] += mu
        images.append(block)
        labels.append(np.full(n_per_class, c))
    return rounded_dataset(np.concatenate(images), np.concatenate(labels),
                           tag, len(means_by_class))


def selection_set(data, size, seed):
    """The selection set `draw_selection` picks from `data`."""
    return data.subset(draw_selection(data, size, seed))


def fresh_state(mode="tuning", selection=None, test_set=None, train_set=None,
                columns=None, **config_kw):
    """A growth run on an empty network.  The selection set is the given
    train split's `columns`; without one, `selection` stands in for the
    train split, as all of its columns.  The selection set also stands in
    for a test split that is not given."""
    if train_set is None:
        train_set, columns = selection, np.arange(selection.n)
    config = GrowthConfig(selection_size=len(columns),
                          max_per_iteration=config_kw.pop("max_per_iteration", 64),
                          tuning_epochs=config_kw.pop("tuning_epochs", 2),
                          **config_kw)
    net = NamNetwork(n_classes=train_set.n_classes,
                     input_shape=train_set.shape, mode=mode)
    if test_set is None:
        test_set = train_set.subset(columns)
    return start_growth(net, columns, config, train_set=train_set,
                        test_set=test_set,
                        rng=np.random.default_rng(config.seed))


class TestSelectionSet:
    def make(self, n_per_class=40):
        return patch_mean_dataset([0.3, 0.0, -0.3], n_per_class, seed=3)

    def test_size_equal_to_classes_gives_one_per_class(self):
        sel = selection_set(self.make(), N_CLASSES, seed=0)
        assert sorted(sel.labels.tolist()) == [0, 1, 2]

    def test_same_seed_identical_subset(self):
        data = self.make()
        a = selection_set(data, 30, seed=5)
        b = selection_set(data, 30, seed=5)
        np.testing.assert_array_equal(a.pixels, b.pixels)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = selection_set(data, 30, seed=6)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_histogram_exactly_uniform(self):
        sel = selection_set(self.make(), 60, seed=1)
        assert np.bincount(sel.labels, minlength=N_CLASSES).tolist() == [20, 20, 20]

    def test_errors(self):
        data = self.make(n_per_class=10)
        with pytest.raises(ValueError, match="divisible"):
            draw_selection(data, 10, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            draw_selection(data, 300, seed=0)
        lopsided = Dataset(pixels=data.pixels,
                           labels=np.where(data.labels == 0, 1, data.labels),
                           tag="lopsided", n_classes=N_CLASSES)
        with pytest.raises(ValueError, match="class 0"):
            draw_selection(lopsided, 6, seed=0)

    def test_reference_images_shape_and_determinism(self):
        data = self.make()
        refs = draw_reference_images(data, 7, np.random.default_rng(0))
        assert sorted(refs) == [0, 1, 2]
        assert all(ref.n == 7 and ref.shape == (1, 6, 6)
                   and np.all(ref.labels == c) for c, ref in refs.items())
        refs2 = draw_reference_images(data, 7, np.random.default_rng(0))
        np.testing.assert_array_equal(refs[1].pixels, refs2[1].pixels)
        with pytest.raises(ValueError, match="class"):
            draw_reference_images(data, 1000, np.random.default_rng(0))


class TestCandidateRanges:
    """Growth scans the stride-1 grid."""

    def test_counts_match_geometry(self):
        assert len(base_grid_ranges((3, 32, 32), 1)) == 2700
        assert len(base_grid_ranges((1, 28, 28), 1)) == 676

    def test_scan_order_row_major_channel_major(self):
        ranges = base_grid_ranges((2, 4, 4), 1)
        assert ranges[0] == InputRange(0, 0, 0)
        assert ranges[1] == InputRange(0, 0, 1)
        assert ranges[2] == InputRange(0, 1, 0)
        assert ranges[4] == InputRange(1, 0, 0)


def random_summary_pairs(rng, n_branches):
    """(branch_id, summary) pairs, one per branch and class, each summary's
    centers drawn among its own samples."""
    pairs = []
    for branch_id in range(n_branches):
        for branch_class in range(N_CLASSES):
            samples = rng.normal(size=(12, 9)) * rng.uniform(0.1, 1, 9)
            pairs.append((branch_id, BranchClassClusters(
                branch_class=branch_class, centers=samples[:8],
                max_outputs=rng.normal(size=8),
                sample_mean=samples.mean(axis=0),
                sample_min=samples.min(axis=0),
                sample_max=samples.max(axis=0), n_pairs=12)))
    return pairs


def assert_carries_transfer(cand, source, w, b):
    """The candidate's MLP is the transferred first layer (w, b), bit for
    bit, on top of the source's own deeper layer objects."""
    first, *deeper = cand.mlp.hidden_layers
    assert first.weights.tobytes() == w.tobytes()
    assert first.bias.tobytes() == b.tobytes()
    assert len(deeper) == len(source.hidden_layers) - 1
    assert all(a is s for a, s in zip(deeper, source.hidden_layers[1:]))
    assert cand.mlp.output_layer is source.output_layer


def scan_candidates(ranges, images, pairs, mlps):
    """Every candidate the growth stream of a fresh scan yields."""
    [stream] = candidate_streams(ranges, images, pairs, mlps, 0.8, False)
    return list(stream)


class TestMatchCandidates:
    def test_winners_get_the_closed_form_transfer(self):
        """Per range and reference class the closest matched pair wins, and
        its first layer is transferred from its own sample statistics to
        the winning class's references."""
        rng = np.random.default_rng(4)
        pairs = random_summary_pairs(rng, 3)
        mlps = {b: init_branch_mlp(rng, N_CLASSES) for b in range(3)}
        layers = {b: mlp.hidden_layers[0] for b, mlp in mlps.items()}
        images = reference_sets(rng)

        total = 0
        for input_range in base_grid_ranges((1, 6, 6), 1):
            got = scan_candidates([input_range], images, pairs, mlps)
            refs = {c: windows(im, input_range) for c, im in images.items()}
            best = {}
            results = match_all(normalized_refs(refs),
                                prepare_summaries(pairs), 0.8)
            for res, (_, summary) in zip(results, pairs):
                cur = best.get(res.target_class)
                if res.matched and (cur is None
                                    or res.distance < cur[0].distance):
                    best[res.target_class] = (res, summary)
            expected = [best[c] for c in sorted(best)]
            assert len(got) == len(expected)
            total += len(got)
            for cand, (res, summary) in zip(got, expected):
                assert (cand.source_branch_id, cand.branch_class,
                        cand.target_class, cand.input_range,
                        cand.distance) == (
                    res.branch_id, summary.branch_class, res.target_class,
                    input_range, res.distance)
                w, b = transfer_first_layer(layers[res.branch_id],
                                            stats_from_summary(summary),
                                            stats_from_points(
                                                refs[res.target_class]))
                assert_carries_transfer(cand, mlps[res.branch_id], w, b)
        assert total > 0

    def test_one_pass_streams_equal_per_branch_scans(self, monkeypatch):
        """Each branch's stream of the shared window-major scan yields what
        a scan of that branch's summaries alone yields, field by field and
        bit for bit, while windows span several Gram blocks.  The growth
        stream equals a scan of all summaries.  Branch 3's centers lie so
        far out that every reference is equally far from them: its classes
        tie and its stream stays empty."""
        monkeypatch.setattr(matching, "GRAM_BLOCK_ENTRIES", 40)
        rng = np.random.default_rng(11)
        pairs = random_summary_pairs(rng, 4)
        for _, summary in pairs[-N_CLASSES:]:
            summary.centers = (rng.choice([-1.0, 1.0], size=(8, 9))
                               * rng.uniform(1.0, 2.0, size=(8, 9)) * 1e20)
        mlps = {b: init_branch_mlp(rng, N_CLASSES) for b in range(4)}
        images = reference_sets(rng)
        ranges = base_grid_ranges((1, 6, 6), 1)

        def fields(cand):
            first, *deeper = cand.mlp.hidden_layers
            return (cand.source_branch_id, cand.branch_class,
                    cand.target_class, cand.input_range, cand.distance,
                    first.weights.tobytes(), first.bias.tobytes(),
                    [id(layer) for layer in deeper],
                    id(cand.mlp.output_layer))

        streams = candidate_streams(ranges, images, pairs, mlps, 0.8, True)
        assert len(streams) == 4
        lengths = []
        for branch_id, stream in enumerate(streams):
            got = [fields(c) for c in stream]
            own = [p for p in pairs if p[0] == branch_id]
            want = [fields(c) for c in
                    per_branch_scan(ranges, images, own, mlps)]
            assert got == want
            lengths.append(len(got))
        assert min(lengths[:3]) > 0 and lengths[3] == 0
        got = [fields(c) for c in scan_candidates(ranges, images, pairs, mlps)]
        assert got == [fields(c) for c in
                       per_branch_scan(ranges, images, pairs, mlps)]

    def test_reference_statistics_are_computed_once_per_class(
            self, monkeypatch):
        """One window's match computes each reference class's statistics
        once; they are the statistics of its windows, and winners with the
        same target share one object."""
        calls = []

        def counting(points):
            calls.append(points)
            return stats_from_points(points)

        monkeypatch.setattr(growth, "stats_from_points", counting)
        rng = np.random.default_rng(4)
        prepared = prepare_summaries(random_summary_pairs(rng, 3))
        images = reference_sets(rng)
        shared = 0
        for input_range in base_grid_ranges((1, 6, 6), 1):
            calls.clear()
            winners = match_candidates(input_range, images, prepared, 0.8,
                                       True)
            assert len(calls) == N_CLASSES
            by_target = {}
            for winner in winners:
                assert winner.ref_stats is by_target.setdefault(
                    winner.target_class, winner.ref_stats)
            # winners that found their target's statistics already held
            shared += len(winners) - len(by_target)
            for c, stats in by_target.items():
                want = stats_from_points(windows(images[c], input_range))
                assert stats.mean.tobytes() == want.mean.tobytes()
                assert stats.range_.tobytes() == want.range_.tobytes()
        assert shared > 0

    def test_window_flat_for_every_class_matches_nothing(self):
        """References flat across a window, at a different level per class,
        all normalize to exact zeros: every class ties, so no summary
        matches and the window yields no winner."""
        window = InputRange(0, 0, 0)
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            pairs = random_summary_pairs(rng, 2)
            levels = rng.uniform(-0.5, 0.5, size=N_CLASSES)
            images = flat_reference_sets(levels)
            refs = {c: windows(images[c], window) for c in range(N_CLASSES)}
            for c, patch in refs.items():
                assert np.all(normalize_sorted(
                    patch, stats_from_points(patch)) == 0.0)
            prepared = prepare_summaries(pairs)
            assert not any(res.matched for res in
                           match_all(normalized_refs(refs), prepared, 0.8))
            assert match_candidates(window, images, prepared, 0.8,
                                    False) == []

    def test_flat_reference_windows_transfer_finite_weights(self):
        """References that are constant across a window, as on MNIST
        borders, floor the reference span at RANGE_FLOOR, so the transfer
        scales weights by ~1e8.  The weights stay finite, and on the flat
        patch the transferred first layer gives the source layer's
        pre-activation at the branch-side sample mean, up to the rounding
        of dot products at that scale."""
        u = np.finfo(np.float64).eps / 2
        gamma = 12 * u / (1 - 12 * u)  # two 9-term dot products, 3 adds
        window = InputRange(0, 0, 0)
        for trial in range(10):
            rng = np.random.default_rng(trial)
            pairs = random_summary_pairs(rng, 2)
            mlps = {b: init_branch_mlp(rng, N_CLASSES) for b in range(2)}
            prepared = prepare_summaries(pairs)
            levels = rng.uniform(-0.5, 0.5, size=N_CLASSES)
            images = flat_reference_sets(levels)
            # Flat classes normalize to the same zero patch and tie, so
            # each is matched on its own and is the target.
            for c in range(N_CLASSES):
                got = scan_candidates([window], {c: images[c]}, pairs, mlps)
                assert got
                patch = windows(images[c], window)
                ref_mean = stats_from_points(patch).mean
                for cand in got:
                    w = cand.mlp.hidden_layers[0].weights
                    b = cand.mlp.hidden_layers[0].bias
                    assert np.all(np.isfinite(w)) and np.all(np.isfinite(b))
                    assert np.abs(w).max() > 1e6
                    i = next(i for i, (bid, summary) in enumerate(pairs)
                             if bid == cand.source_branch_id
                             and summary.branch_class == cand.branch_class)
                    branch_mean = prepared.stats[i].mean
                    layer = mlps[cand.source_branch_id].hidden_layers[0]
                    got_pre = w @ patch[0] + b
                    want_pre = layer.weights @ branch_mean + layer.bias
                    scale = (np.abs(w) @ (np.abs(patch[0]) + np.abs(ref_mean))
                             + np.abs(layer.weights) @ np.abs(branch_mean)
                             + np.abs(layer.bias))
                    assert np.all(np.abs(got_pre - want_pre)
                                  <= gamma * scale)


def test_source_cluster_table_logs_its_totals(caplog):
    """One INFO line sums the table's retained pairs and clusters."""
    mlps = [init_branch_mlp(np.random.default_rng(k), n_classes=N_CLASSES)
            for k in range(2)]
    cluster = ClusterConfig(n_samples=40, neighbor_distance=3.0)
    with caplog.at_level("INFO", logger="namgrow.growth"):
        table = growth.source_cluster_table(mlps, cluster, 0)
    summaries = [s for per_branch in table for s in per_branch]
    n_clusters = sum(s.n_clusters for s in summaries)
    assert n_clusters < 2 * N_CLASSES * 8    # some clusters hold several
    assert [r.getMessage() for r in caplog.records] == [
        f"clustered 2 branches: {2 * N_CLASSES * 8} retained pairs into "
        f"{n_clusters} clusters"]


def test_start_growth_refuses_an_election_network_with_branches():
    data = patch_mean_dataset([0.4, -0.2, -0.4], 20)
    columns = draw_selection(data, 30, seed=0)
    branch = Branch(ramp_mlp(1), RANGE0,
                    election_stats=(np.zeros(N_CLASSES), np.ones(N_CLASSES)))
    net = NamNetwork(N_CLASSES, data.shape, mode="election",
                     branches=[branch])
    with pytest.raises(ValueError) as exc:
        start_growth(net, columns, GrowthConfig(selection_size=30), data,
                     data, np.random.default_rng(0))
    assert str(exc.value) == ("an election network grows from no branches, "
                              "not 1")


class TestGrowIterationTuning:
    def test_empty_candidates_appends_record(self):
        selection = selection_set(
            patch_mean_dataset([0.4, -0.2, -0.4], 20), 30, seed=0)
        state = fresh_state(selection=selection)
        record = grow_iteration(state, [])
        assert isinstance(record, IterationRecord)
        assert (record.candidates_seen, record.accepted, record.rejected) == (0, 0, 0)
        assert state.net.n_branches == 0
        assert state.records == [record]
        assert record.selection_loss == pytest.approx(np.log(N_CLASSES))

    def test_separating_candidate_accepted_and_raises_target_logits(self):
        data = patch_mean_dataset([0.4, -0.2, -0.4], 40, seed=1)
        test = patch_mean_dataset([0.4, -0.2, -0.4], 15, seed=2, tag="test")
        selection = selection_set(data, 60, seed=0)
        state = fresh_state(selection=selection, test_set=test)
        mlp = ramp_mlp(branch_class=1)
        record = grow_iteration(state, [hand_candidate(mlp, 1, 0)])

        assert record.accepted == 1
        assert state.net.n_branches == 1
        branch = state.net.branches[0]
        assert branch.origin == "grown"
        assert branch.mask_frozen
        assert parameter_count(state.net) == 2
        assert record.selection_loss < np.log(N_CLASSES)
        # target-class test logits strictly increase where the mask fires
        logits = network_forward_batch(state.net, test)
        raw = mlp_forward_batch(branch.mlp, windows(test, RANGE0).T)[:, 1]
        fired = (raw > branch.mask.thd) & (test.labels == 0)
        assert fired.any()
        assert np.all(logits[fired, 0] > 0.0)
        untouched = ~ (raw > branch.mask.thd)
        assert np.all(logits[untouched, 0] == 0.0)
        # cached test metrics agree with a from-scratch evaluation
        acc, loss = evaluate(state.net, test)
        assert record.test_accuracy == acc
        assert record.test_loss == pytest.approx(loss, abs=1e-12)

    def test_constant_candidate_rejected(self):
        data = patch_mean_dataset([0.4, -0.2, -0.4], 20, seed=1)
        selection = selection_set(data, 30, seed=0)
        state = fresh_state(selection=selection)
        record = grow_iteration(state, [hand_candidate(constant_mlp(1), 1, 0)])
        assert record.accepted == 0 and record.rejected == 1
        assert state.net.n_branches == 0
        assert parameter_count(state.net) == 0
        assert state.candidate_records[0]["reason"] == \
            "no output spread above threshold"

    def test_max_per_iteration_caps_consumption(self):
        data = patch_mean_dataset([0.4, -0.2, -0.4], 40, seed=1)
        selection = selection_set(data, 60, seed=0)
        state = fresh_state(selection=selection, max_per_iteration=1,
                            tuning_epochs=0)
        candidates = [hand_candidate(ramp_mlp(1, scale=s), 1, 0)
                      for s in (1.0, 0.9, 0.8)]
        iterator = iter(candidates)
        first = grow_iteration(state, iterator)
        assert (first.candidates_seen, first.accepted) == (1, 1)
        # The scaled copies rank samples identically, so once the first is
        # in the ensemble they no longer close any within-target spread:
        # both are screened out and the iteration drains the iterator.
        second = grow_iteration(state, iterator)
        assert (second.candidates_seen, second.accepted) == (2, 0)
        assert second.rejected == 2
        third = grow_iteration(state, iterator)
        assert (third.candidates_seen, third.accepted) == (0, 0)

    def adversarial_setup(self):
        """Mean condition passes but the mask only fires on non-targets."""
        rng = np.random.default_rng(7)
        images = rng.uniform(-0.01, 0.01, size=(240, 1, 6, 6))
        labels = np.zeros(240, dtype=np.int64)
        # raw value = patch mean + 1; targets at 1.0, non-targets at 0.8 / 1.3
        images[:120, 0, 0:3, 0:3] = 0.0
        labels[:120] = 0
        images[120:210, 0, 0:3, 0:3] = -0.2
        labels[120:210] = 1
        images[210:, 0, 0:3, 0:3] = 0.3
        labels[210:] = 2
        return rounded_dataset(images, labels, "adv", N_CLASSES)

    def test_adversarial_candidate_rolled_back(self):
        selection = self.adversarial_setup()
        state = fresh_state(selection=selection, tuning_epochs=0)
        before_loss = state.selection.loss
        record = grow_iteration(state, [hand_candidate(ramp_mlp(2), 2, 0)])
        assert record.accepted == 0 and record.rejected == 1
        assert state.net.n_branches == 0
        assert parameter_count(state.net) == 0
        assert record.selection_loss == before_loss
        assert state.candidate_records[0]["qualified"] is True
        assert state.candidate_records[0]["kept"] is False

    def test_selection_loss_series_non_increasing(self):
        data = patch_mean_dataset([0.4, -0.2, -0.4], 40, seed=1)
        selection = selection_set(data, 60, seed=0)
        state = fresh_state(selection=selection, max_per_iteration=1)
        candidates = [
            hand_candidate(ramp_mlp(1), 1, 0),
            hand_candidate(ramp_mlp(2), 2, 0, InputRange(0, 1, 1)),
            hand_candidate(constant_mlp(0), 0, 1),
            hand_candidate(ramp_mlp(0, scale=0.5), 0, 0, InputRange(0, 2, 2)),
        ]
        iterator = iter(candidates)
        points = []
        for _ in range(4):
            grow_iteration(state, iterator)
            points += state.branch_points
        series = [r.selection_loss for r in state.records]
        assert all(b <= a + 1e-15 for a, b in zip(series, series[1:]))
        accepted = sum(r.accepted for r in state.records)
        assert parameter_count(state.net) == 2 * accepted
        assert len(points) == accepted
        assert all(isinstance(p, BranchPoint) for p in points)


class TestTuneMasks:
    def grown_network(self, data, n_grown=2, frozen_extra=False):
        """Tuning net with hand-made grown branches (and optionally one
        frozen branch) over `data`."""
        branches = []
        rng = np.random.default_rng(0)
        base = Branch(mlp=init_branch_mlp(rng, N_CLASSES),
                      input_range=InputRange(0, 3, 3))
        branches.append(base)
        for k in range(n_grown):
            mlp = ramp_mlp(branch_class=k % N_CLASSES, scale=1.0 + 0.2 * k)
            values = mlp_forward_batch(mlp, windows(data, RANGE0).T)[
                :, k % N_CLASSES]
            thd = float(np.quantile(values, 0.8))
            mask = ClassMask(1.0, 0.0, thd, float(values.max() - thd))
            branches.append(Branch(
                mlp=mlp, input_range=RANGE0, branch_class=k % N_CLASSES,
                target_class=k % N_CLASSES, mask=mask, origin="grown",
                mask_frozen=False))
        if frozen_extra:
            branches[-1].mask_frozen = True
        return NamNetwork(n_classes=N_CLASSES, input_shape=data.shape,
                          mode="tuning", branches=branches)

    @staticmethod
    def unfrozen(net):
        return [br for br in net.branches
                if br.mask is not None and not br.mask_frozen]

    def tuning_inputs(self, net, data, branches):
        """The class-output sums of every branch of `net` but `branches`,
        and those branches' raw scalars [k, n], on `data`."""
        raw = np.stack([mlp_forward_batch(br.mlp, windows(data, br.input_range).T)[
                            :, br.branch_class] for br in branches])
        frozen_logits = network_forward_batch(net, data)
        for br, r in zip(branches, raw):
            frozen_logits[:, br.target_class] -= apply_class_mask(br.mask, r)
        return frozen_logits, raw

    def tune(self, net, data, epochs, seed=0, branches=None):
        """tune_masks on `branches` (the unfrozen masks by default) at
        GrowthConfig's default learning rate and batch."""
        config = GrowthConfig()
        branches = self.unfrozen(net) if branches is None else branches
        tune_masks(branches, data, epochs,
                   *self.tuning_inputs(net, data, branches),
                   learning_rate=config.mask_learning_rate,
                   batch_size=config.mask_batch_size, seed=seed)

    def test_zero_epochs_bit_identical(self):
        data = patch_mean_dataset([0.4, -0.2, -0.4], 20, seed=3)
        net = self.grown_network(data)
        before = network_to_json(net)
        self.tune(net, data, 0)
        assert network_to_json(net) == before

    @staticmethod
    def mask_columns(branches):
        return MaskColumns(*(np.array([[getattr(br.mask, name)]
                                       for br in branches])
                             for name in ("a", "b", "thd", "v_span")))

    def test_gradients_match_finite_differences(self):
        data = patch_mean_dataset([0.4, -0.2, -0.4], 30, seed=4)
        net = self.grown_network(data)
        unfrozen = [br for br in net.branches if br.mask is not None]
        for br, (a, b) in zip(unfrozen, [(0.8, 0.3), (1.2, 0.6)]):
            br.mask.a, br.mask.b = a, b
        frozen_logits, raw = self.tuning_inputs(net, data, unfrozen)
        targets = [br.target_class for br in unfrozen]

        def gradients():
            return mask_gradients(frozen_logits, data.labels,
                                  self.mask_columns(unfrozen), targets, raw)

        loss, da, db = gradients()
        h = 1e-5
        for k, br in enumerate(unfrozen):
            for attr, grad in (("a", da[k]), ("b", db[k])):
                saved = getattr(br.mask, attr)
                setattr(br.mask, attr, saved + h)
                up, _, _ = gradients()
                setattr(br.mask, attr, saved - h)
                down, _, _ = gradients()
                setattr(br.mask, attr, saved)
                fd = (up - down) / (2 * h)
                assert abs(grad - fd) <= 1e-4 * max(1.0, abs(fd))

    @pytest.mark.parametrize("targets, n, masks", [
        # one branch, whole minibatches
        ([1], 64, [(1.0, 0.0)]),
        # repeated target classes, a partial last minibatch
        ([0, 2, 2, 1, 0, 2, 1, 1], 70, [(1.0, 0.0)] * 8),
        # signed zeros and negative scalars, a partial last minibatch
        ([2, 0, 2, 1], 50, [(-0.0, -0.0), (-0.5, 0.25), (0.75, -0.3),
                            (0.0, -0.0)]),
    ])
    def test_stacked_tuning_is_bit_identical_to_per_branch(self, targets, n,
                                                           masks):
        """One stacked step per minibatch gives the bits of tuning one mask
        at a time, raw values exactly at the thresholds included."""
        rng = np.random.default_rng(len(targets))
        data = draw_dataset(rng, n, (1, 6, 6), n_classes=N_CLASSES)
        frozen_logits = rng.normal(size=(n, N_CLASSES))
        thd = rng.normal(size=len(targets))
        raw = rng.normal(size=(len(targets), n))
        raw[:, ::5] = thd[:, None]

        def branches():
            return [Branch(mlp=ramp_mlp(0), input_range=RANGE0,
                           branch_class=0, target_class=t,
                           mask=ClassMask(a, b, float(c), 0.6 + 0.1 * k),
                           origin="grown")
                    for k, (t, (a, b), c) in enumerate(zip(targets, masks,
                                                           thd))]

        config = GrowthConfig()
        stacked, per_branch = branches(), branches()
        tune_masks(stacked, data, 3, frozen_logits, raw,
                   learning_rate=config.mask_learning_rate, batch_size=16,
                   seed=7)
        per_branch_tune_masks(per_branch, data, 3, frozen_logits, list(raw),
                              learning_rate=config.mask_learning_rate,
                              batch_size=16, seed=7)
        for name in ("a", "b"):
            got = np.array([getattr(br.mask, name) for br in stacked])
            want = np.array([getattr(br.mask, name) for br in per_branch])
            assert got.tobytes() == want.tobytes()
        assert any(br.mask.a != a for br, (a, _) in zip(stacked, masks))

    def test_tuning_only_touches_unfrozen_scalars(self):
        data = patch_mean_dataset([0.4, -0.2, -0.4], 30, seed=5)
        net = self.grown_network(data, n_grown=2, frozen_extra=True)
        frozen_branch = net.branches[-1]
        frozen_before = (frozen_branch.mask.a, frozen_branch.mask.b)
        hash_before = frozen_parameter_hash(net.branches)
        weights_before = [br.mlp.hidden_layers[0].weights.copy()
                          for br in net.branches]
        tuned = self.unfrozen(net)
        ab_before = [(br.mask.a, br.mask.b) for br in tuned]

        self.tune(net, data, 2, seed=1)

        assert frozen_parameter_hash(net.branches) == hash_before
        assert (frozen_branch.mask.a, frozen_branch.mask.b) == frozen_before
        for br, w in zip(net.branches, weights_before):
            np.testing.assert_array_equal(br.mlp.hidden_layers[0].weights, w)
        assert any((br.mask.a, br.mask.b) != ab
                   for br, ab in zip(tuned, ab_before))
        assert all(not br.mask_frozen for br in tuned)

    def test_moves_only_the_masks_it_is_given(self):
        """An unfrozen mask left out of the batch keeps its scalars, as do
        the frozen parameters, while every given mask moves."""
        data = patch_mean_dataset([0.4, -0.2, -0.4], 30, seed=5)
        net = self.grown_network(data, n_grown=3)
        given, left_out = net.branches[1:3], net.branches[3]
        assert not left_out.mask_frozen
        left_out_before = (left_out.mask.a, left_out.mask.b)
        given_before = [(br.mask.a, br.mask.b) for br in given]
        hash_before = frozen_parameter_hash(net.branches)

        self.tune(net, data, 2, seed=1, branches=given)

        assert (left_out.mask.a, left_out.mask.b) == left_out_before
        assert frozen_parameter_hash(net.branches) == hash_before
        assert all((br.mask.a, br.mask.b) != ab
                   for br, ab in zip(given, given_before))

    def test_tuning_deterministic_per_seed(self):
        data = patch_mean_dataset([0.4, -0.2, -0.4], 30, seed=6)
        results = []
        for _ in range(2):
            net = self.grown_network(data)
            self.tune(net, data, 3, seed=9)
            results.append(network_to_json(net))
        assert results[0] == results[1]


class TestFrozenParameterHash:
    def net(self):
        data = patch_mean_dataset([0.4, -0.2, -0.4], 10, seed=0)
        return TestTuneMasks().grown_network(data, n_grown=1), data

    def test_sensitive_to_mlp_weights(self):
        net, _ = self.net()
        before = frozen_parameter_hash(net.branches)
        net.branches[0].mlp.hidden_layers[0].weights[0, 0] += 1e-9
        assert frozen_parameter_hash(net.branches) != before

    # 4 hidden layers' weights and biases, then the output weights
    @pytest.mark.parametrize("array", range(9))
    def test_sensitive_to_every_mlp_array(self, array):
        net, _ = self.net()
        before = frozen_parameter_hash(net.branches)
        mlp_arrays(net.branches[0].mlp)[array].flat[0] += 1e-9
        assert frozen_parameter_hash(net.branches) != before

    def test_ignores_unfrozen_scale_but_not_frozen_scale(self):
        net, _ = self.net()
        grown = net.branches[-1]
        before = frozen_parameter_hash(net.branches)
        grown.mask.a = 3.0
        assert frozen_parameter_hash(net.branches) == before
        grown.mask_frozen = True
        frozen_now = frozen_parameter_hash(net.branches)
        grown.mask.a = 4.0
        assert frozen_parameter_hash(net.branches) != frozen_now


MODES = ["tuning", "election"]


class TestAcceptanceRule:
    """A batch is kept only when the selection loss does not increase and,
    in election mode, the selection accuracy does not drop.  Each case
    replays one batch against previous metrics set relative to its own."""

    TASKS = {"tuning": ([0.4, -0.2, -0.4], 0),
             "election": ([-0.2, -0.4, 0.4], 2)}

    def kept(self, mode, shift=None):
        """Whether grow_iteration keeps the batch when the previous
        selection (accuracy, loss) are the batch's own plus `shift`, or the
        empty network's when `shift` is None."""
        means, target = self.TASKS[mode]
        selection = selection_set(patch_mean_dataset(means, 40, seed=1),
                                        60, seed=0)
        state = fresh_state(mode, selection)
        if shift is not None:
            accuracy, loss = self.batch_metrics(mode)
            state.selection.accuracy = accuracy + shift[0]
            state.selection.loss = loss + shift[1]
        before = (state.selection.accuracy, state.selection.loss)
        record = grow_iteration(state, [hand_candidate(ramp_mlp(1), 1, target)])
        assert state.net.n_branches == record.accepted
        if not record.accepted:
            after = (state.selection.accuracy, state.selection.loss)
            assert after == before
        return record.accepted == 1

    def batch_metrics(self, mode):
        means, target = self.TASKS[mode]
        selection = selection_set(patch_mean_dataset(means, 40, seed=1),
                                        60, seed=0)
        state = fresh_state(mode, selection)
        record = grow_iteration(state, [hand_candidate(ramp_mlp(1), 1, target)])
        assert record.accepted == 1
        return state.selection.accuracy, state.selection.loss

    @pytest.mark.parametrize("mode", MODES)
    def test_equal_metrics_keep_the_batch(self, mode):
        assert self.kept(mode, (0.0, 0.0))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("accuracy_shift", [0.0, -1 / 60],
                             ids=["equal_accuracy", "higher_accuracy"])
    def test_a_loss_increase_rolls_back(self, mode, accuracy_shift):
        # The batch's accuracy equals or beats the previous one, so only the
        # loss gate can reject it.
        assert not self.kept(mode, (accuracy_shift, -1e-9))

    def test_an_accuracy_drop_rolls_back_election_only(self):
        # The loss falls by 0.1 while the accuracy drops by one sample.
        assert not self.kept("election", (1 / 60, 0.1))
        assert self.kept("tuning", (1 / 60, 0.1))


def two_window_dataset(n_per_class, seed, tag):
    """Noisy images with class evidence in two disjoint 3x3 windows."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(N_CLASSES), n_per_class)
    images = rng.uniform(-0.25, 0.25, size=(labels.size, 1, 6, 6))
    images[:, 0, 0:3, 0:3] += np.array([0.2, 0.0, -0.2])[labels, None, None]
    images[:, 0, 3:6, 3:6] += np.array([-0.1, 0.2, 0.0])[labels, None, None]
    return rounded_dataset(images, labels, tag, N_CLASSES)


class TestScoreCaches:
    @pytest.mark.parametrize("mode", MODES)
    def test_splits_equal_a_fresh_forward_after_every_iteration(self, mode):
        """Each scored split holds exactly what a full forward of the
        current network gives, through kept and rolled-back batches, and
        its accuracy and loss are those scores' metrics.  So are the test
        metrics each record reports, though only a kept batch re-takes
        them."""
        train = two_window_dataset(40, seed=1, tag="train")
        test = two_window_dataset(20, seed=2, tag="test")
        state = fresh_state(mode, test_set=test, train_set=train,
                            columns=draw_selection(train, 60, seed=0),
                            max_per_iteration=1, tuning_epochs=1)
        selection = state.selection.data
        candidates = iter([hand_candidate(ramp_mlp(1), 1, target, r)
                           for r in base_grid_ranges(selection.shape, 1)
                           for target in range(N_CLASSES)])
        kept = rolled_back = 0
        while True:
            record = grow_iteration(state, candidates)
            if record.candidates_seen == 0:
                break
            qualified = any(r["qualified"] for r in state.candidate_records
                            if r["iteration"] == record.iteration)
            kept += record.accepted
            rolled_back += qualified and not record.accepted
            net = state.net
            assert net.branches
            for split, data in ((state.selection, selection),
                                (state.train, train), (state.test, test)):
                assert split.data is data
                fresh = network_scores(net, data)
                assert np.array_equal(split.scores, fresh)
                assert (split.accuracy, split.loss) == score_metrics(
                    fresh, data.labels)
            outputs = loop_forward_batch(net, selection)
            assert np.array_equal(
                state.votes,
                outputs[np.arange(selection.n), selection.labels])
            assert (record.test_accuracy, record.test_loss) == score_metrics(
                network_scores(net, test), test.labels)
        assert kept >= 2 and rolled_back >= 1

    @pytest.mark.parametrize("mode", MODES)
    def test_splits_stay_exact_when_a_batch_shares_a_window(self, mode):
        """Kept batches that put several branches on one window are scored
        from one patch extraction per run of them; the train and test
        scores still equal a full forward of the grown network, bit for
        bit, and each branch point the test metrics of the network up to
        that branch."""
        train = two_window_dataset(40, seed=1, tag="train")
        test = two_window_dataset(20, seed=2, tag="test")
        state = fresh_state(mode, test_set=test, train_set=train,
                            columns=draw_selection(train, 60, seed=0),
                            max_per_iteration=4, tuning_epochs=1)
        # rising and falling ramps flag opposite ends of a window's classes
        candidates = iter([hand_candidate(ramp_mlp(1, scale), 1, target, r)
                           for r in base_grid_ranges(train.shape, 1)
                           for scale in (1.0, -1.0)
                           for target in range(N_CLASSES)])
        shared = 0
        while grow_iteration(state, candidates).candidates_seen:
            net = state.net
            kept = net.branches[net.n_branches - len(state.branch_points):]
            shared += any(a.input_range == b.input_range
                          for a, b in zip(kept, kept[1:]))
            for split, data in ((state.train, train), (state.test, test)):
                assert split.scores.tobytes() == \
                    network_scores(net, data).tobytes()
            for point in state.branch_points:
                prefix = NamNetwork(N_CLASSES, net.input_shape, mode,
                                    branches=net.branches[:point.branch_count])
                assert (point.accuracy, point.loss) == score_metrics(
                    network_scores(prefix, test), test.labels)
        assert shared >= 1

    def grow_recording_train_fits(self, state, monkeypatch):
        """Run `state` over every window's candidates; returns each
        tentative branch with its train values, and the column count of
        every forward over the train split."""
        train = state.train.data
        fits, forwarded = [], []

        def recording_train_values(state, tentative):
            values = real_train_values(state, tentative)
            fits.extend((t.branch, row) for t, row in zip(tentative, values))
            return values

        def counting_branch_outputs(branches, data, columns=slice(None)):
            for out in real_branch_outputs(branches, data, columns):
                if data is train:
                    forwarded.append(len(out))
                yield out

        real_train_values = growth._train_values
        real_branch_outputs = growth.branch_outputs
        monkeypatch.setattr(growth, "_train_values", recording_train_values)
        monkeypatch.setattr(growth, "branch_outputs", counting_branch_outputs)
        candidates = iter([hand_candidate(ramp_mlp(1), 1, target, r)
                           for r in base_grid_ranges(train.shape, 1)
                           for target in range(N_CLASSES)])
        while grow_iteration(state, candidates).candidates_seen:
            pass
        return fits, forwarded

    @pytest.mark.parametrize("mode", MODES)
    def test_train_fits_forward_only_the_columns_outside_the_selection(
            self, mode, monkeypatch):
        """Each tentative branch's train values are a full forward's, bit
        for bit, though the train split's forward gets only the columns
        outside the selection set: the selection's values are reused."""
        train = two_window_dataset(40, seed=1, tag="train")
        state = fresh_state(mode, train_set=train,
                            columns=draw_selection(train, 30, seed=0),
                            max_per_iteration=2, tuning_epochs=1)
        fits, forwarded = self.grow_recording_train_fits(state, monkeypatch)
        assert len(fits) >= 2
        for branch, values in fits:
            assert values.tobytes() == \
                one_branch_output(branch, train).tobytes()
        assert forwarded == [train.n - 30] * len(fits)

    @pytest.mark.parametrize("mode", MODES)
    def test_a_selection_of_the_whole_train_split_forwards_no_column(
            self, mode, monkeypatch):
        """With no train column outside the selection set, the train values
        are the selection's, scattered back to the train split's order."""
        train = two_window_dataset(20, seed=1, tag="train")
        state = fresh_state(mode, train_set=train,
                            columns=draw_selection(train, train.n, seed=0),
                            max_per_iteration=2, tuning_epochs=1)
        assert state.rest_columns.size == 0
        fits, forwarded = self.grow_recording_train_fits(state, monkeypatch)
        assert state.net.n_branches >= 1
        for branch, values in fits:
            assert values.tobytes() == \
                one_branch_output(branch, train).tobytes()
        assert forwarded == [0] * len(fits)
        assert np.array_equal(state.train.scores,
                              network_scores(state.net, train))

    @pytest.mark.parametrize("mode", MODES)
    def test_kept_branches_share_their_source_layers(self, mode):
        """A kept branch holds its candidate's MLP as it is: the candidate's
        own first layer on top of the source's deeper layer objects, as
        `candidate_streams` builds them, with nothing copied."""
        train = two_window_dataset(40, seed=1, tag="train")
        state = fresh_state(mode, train_set=train,
                            columns=draw_selection(train, 60, seed=0),
                            max_per_iteration=2, tuning_epochs=1)
        selection = state.selection.data
        source = ramp_mlp(1)
        first = source.hidden_layers[0]

        def candidate(input_range, target):
            own = DenseLayer(first.weights.copy(), first.bias.copy())
            mlp = BranchMlp([own, *source.hidden_layers[1:]],
                            source.output_layer)
            return hand_candidate(mlp, 1, target, input_range)

        candidates = [candidate(r, target)
                      for r in base_grid_ranges(selection.shape, 1)
                      for target in range(N_CLASSES)]
        firsts = {id(c.mlp.hidden_layers[0]) for c in candidates}
        stream = iter(candidates)
        while grow_iteration(state, stream).candidates_seen:
            pass
        kept = state.net.branches
        assert len(kept) >= 2
        for branch in kept:
            own, *deeper = branch.mlp.hidden_layers
            assert all(a is b for a, b in
                       zip(deeper, source.hidden_layers[1:], strict=True))
            assert branch.mlp.output_layer is source.output_layer
            assert id(own) in firsts and own is not first
        assert len({id(br.mlp.hidden_layers[0]) for br in kept}) == len(kept)

    @pytest.mark.parametrize("mode", MODES)
    def test_each_candidate_is_qualified_against_the_batch_so_far(
            self, mode, monkeypatch):
        """A candidate's votes are a fresh forward's class-output at each
        selection label, plus the outputs of the candidates qualified
        earlier in the same iteration, on their target-label rows only."""
        train = two_window_dataset(40, seed=1, tag="train")
        state = fresh_state(mode, train_set=train,
                            columns=draw_selection(train, 60, seed=0),
                            tuning_epochs=1)
        selection = state.selection.data
        calls = []

        def recording_qualify(values, labels, target_class, votes, mode,
                              thd, n_classes):
            report = qualify(values, labels, target_class, votes, mode,
                             thd, n_classes)
            calls.append((values.copy(), target_class, votes.copy(), thd,
                          report.verdict))
            return report

        monkeypatch.setattr(growth, "qualify", recording_qualify)
        candidates = iter([hand_candidate(ramp_mlp(1), 1, target, r)
                           for r in base_grid_ranges(selection.shape, 1)
                           for target in range(N_CLASSES)])
        rows = np.arange(selection.n)
        most_qualified = 0
        while True:
            expected = (loop_forward_batch(state.net, selection)
                        [rows, selection.labels] if state.net.branches
                        else np.zeros(selection.n))
            calls.clear()
            if grow_iteration(state, candidates).candidates_seen == 0:
                break
            for values, target, votes, thd, verdict in calls:
                assert np.array_equal(votes, expected)
                if verdict:
                    out = ((values > thd).astype(np.float64)
                           if mode == "election" else apply_class_mask(
                               ClassMask(1.0, 0.0, thd, values.max() - thd),
                               values))
                    expected = expected + np.where(
                        selection.labels == target, out, 0.0)
            most_qualified = max(most_qualified,
                                 sum(call[-1] for call in calls))
        assert most_qualified >= 2


class TestGrowIterationElection:
    def test_bootstrap_accepts_separator_and_fits_exact_stats(self):
        data = patch_mean_dataset([-0.2, -0.4, 0.4], 40, seed=1)
        selection = selection_set(data, 60, seed=0)
        state = fresh_state(mode="election", selection=selection)
        steps = optimizer_step_count()
        record = grow_iteration(state, [hand_candidate(ramp_mlp(1), 1, 2)])
        assert optimizer_step_count() - steps == 0
        assert record.accepted == 1
        net = state.net
        assert net.branches[0].origin == "transferred"
        assert parameter_count(net) == 0
        assert all(br.election_stats is not None for br in net.branches)
        # incremental stats equal the generic two-pass fit
        means, stds = fit_election_stats(net.branches, selection)
        np.testing.assert_allclose(
            [br.election_stats[0] for br in net.branches], means, atol=1e-12)
        np.testing.assert_allclose(
            [br.election_stats[1] for br in net.branches], stds, atol=1e-12)
        acc, _ = evaluate(net, selection)
        assert acc == state.selection.accuracy
        assert acc > 1.0 / N_CLASSES

    def test_kept_stats_are_the_train_split_flag_rows(self):
        """Each kept branch carries `_flag_stat_rows` of the flags it
        raises on the train split, not on the selection set."""
        train = two_window_dataset(40, seed=1, tag="train")
        state = fresh_state("election", train_set=train,
                            columns=draw_selection(train, 30, seed=0),
                            max_per_iteration=2)
        selection = state.selection.data
        candidates = iter([hand_candidate(ramp_mlp(1), 1, target, r)
                           for r in base_grid_ranges(selection.shape, 1)
                           for target in range(N_CLASSES)])
        while grow_iteration(state, candidates).candidates_seen:
            pass
        assert state.net.n_branches >= 2
        for br in state.net.branches:
            raw = mlp_forward_batch(br.mlp, windows(train, br.input_range).T)[
                :, br.branch_class]
            flags = (raw > br.mask.thd).astype(np.float64)
            mean, std = growth._flag_stat_rows(float(flags.mean()),
                                               br.target_class, N_CLASSES)
            assert np.array_equal(br.election_stats[0], mean)
            assert np.array_equal(br.election_stats[1], std)

    def test_accuracy_never_decreases(self):
        data = patch_mean_dataset([-0.2, -0.4, 0.4], 40, seed=3)
        selection = selection_set(data, 60, seed=0)
        state = fresh_state(mode="election", selection=selection,
                            max_per_iteration=1)
        candidates = [
            hand_candidate(ramp_mlp(1), 1, 2),
            hand_candidate(ramp_mlp(0), 0, 2, InputRange(0, 1, 1)),
            hand_candidate(ramp_mlp(2), 2, 0, InputRange(0, 2, 2)),
            hand_candidate(constant_mlp(1), 1, 1, InputRange(0, 3, 3)),
        ]
        accs = [state.selection.accuracy]
        iterator = iter(candidates)
        for _ in range(4):
            grow_iteration(state, iterator)
            accs.append(state.selection.accuracy)
        assert all(b >= a for a, b in zip(accs, accs[1:]))

    def disjoint_range_dataset(self):
        """Constant 3x3 blocks; each class peaks inside its own range.

        In range B half of class 1 sits just under the class-0 plateau, so
        a branch reading range B flags all of class 0 plus that half — a
        useful impure separator.  Everything else stays at -0.4.
        """
        images = np.full((60, 1, 6, 6), -0.4)
        labels = np.repeat(np.arange(3), 20).astype(np.int64)
        images[20:40, 0, 0:3, 0:3] = -0.2   # range A: class 1
        images[40:60, 0, 0:3, 0:3] = 0.4    # range A: class 2 peak
        images[0:10, 0, 3:6, 0:3] = 0.39    # range B: class 0 peak (low half)
        images[10:20, 0, 3:6, 0:3] = 0.44   # range B: class 0 peak (high half)
        images[20:30, 0, 3:6, 0:3] = 0.395  # range B: class 1 high half
        images[20:40, 0, 0:3, 3:6] = 0.4    # range C: class 1 peak
        return rounded_dataset(images, labels, "ranges", N_CLASSES)

    def test_iteration_accepts_multiple_before_cap(self):
        selection = self.disjoint_range_dataset()
        state = fresh_state(mode="election", selection=selection,
                            max_per_iteration=2, top_fraction=0.5)
        range_b, range_c = InputRange(0, 3, 0), InputRange(0, 0, 3)
        candidates = [
            hand_candidate(ramp_mlp(1), 1, 2),                 # range A
            hand_candidate(ramp_mlp(1), 1, 0, range_b),
            hand_candidate(ramp_mlp(1), 1, 1, range_c),
        ]
        iterator = iter(candidates)
        first = grow_iteration(state, iterator)
        # The cap stops consumption after two qualifiers; the third stays
        # in the iterator.  Both new flags fire on the right plateaus:
        # class 2 exactly, then class 0 plus the high half of class 1.
        assert (first.candidates_seen, first.accepted) == (2, 2)
        assert state.selection.accuracy == pytest.approx(50 / 60)
        second = grow_iteration(state, iterator)
        assert (second.candidates_seen, second.accepted) == (1, 1)
        # The range-C branch cleans up the half of class 1 that the range-B
        # branch had pulled toward class 0.
        assert state.selection.accuracy == pytest.approx(1.0)
        assert [b.origin for b in state.net.branches] == ["transferred"] * 3

    def test_rolled_back_batch_leaves_no_stats_behind(self):
        """A rolled-back batch takes the stats fitted for it along with
        its branches; the kept branches' stats do not move."""
        selection = self.disjoint_range_dataset()
        state = fresh_state(mode="election", selection=selection,
                            max_per_iteration=2, top_fraction=0.5)
        candidates = iter([
            hand_candidate(ramp_mlp(1), 1, 2),
            hand_candidate(ramp_mlp(1), 1, 0, InputRange(0, 3, 0)),
            hand_candidate(ramp_mlp(1), 1, 1, InputRange(0, 0, 3)),
        ])
        assert grow_iteration(state, candidates).accepted == 2
        kept = list(state.net.branches)
        before = network_to_json(state.net)
        state.selection.loss = -1.0  # no batch can keep the loss
        record = grow_iteration(state, candidates)
        assert state.candidate_records[-1]["qualified"]
        assert record.accepted == 0
        assert state.net.branches == kept
        assert network_to_json(state.net) == before

    def test_constant_candidate_fails_precision(self):
        data = patch_mean_dataset([-0.2, -0.4, 0.4], 20, seed=4)
        selection = selection_set(data, 30, seed=0)
        state = fresh_state(mode="election", selection=selection)
        record = grow_iteration(state, [hand_candidate(constant_mlp(1), 1, 2)])
        assert record.accepted == 0
        assert state.net.n_branches == 0

    def test_growth_log_line_schema(self):
        data = patch_mean_dataset([0.4, -0.2, -0.4], 20, seed=5)
        selection = selection_set(data, 30, seed=0)
        state = fresh_state(selection=selection)
        record = grow_iteration(state, [])
        import json
        parsed = json.loads(record.to_json_line())
        assert list(parsed) == ["iteration", "candidates_seen", "accepted",
                                "rejected", "selection_loss", "test_loss",
                                "test_accuracy", "branch_count",
                                "parameter_count"]
        # the selection set is the test split here: the empty network
        # scores every class alike
        assert parsed["test_loss"] == pytest.approx(np.log(N_CLASSES))
