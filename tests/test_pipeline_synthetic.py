"""End-to-end growth and transfer on a small synthetic task.

Task A on (1, 6, 6) images hides class evidence in two 3x3 blocks: one on
the sparse base grid (the corner) and one straddling grid cells (the
center), so the trained base network leaves signal on the table that
stride-1 growth can pick up.  Task B is task A with every image rolled two
pixels, which relocates the same patterns to new ranges — the situation
branch transfer is meant to handle without any further training.
"""

import copy
import dataclasses
import json

import numpy as np
import pytest

from namgrow import growth
from namgrow.checkpoint import network_from_json, network_to_json
from namgrow.config import ClusterConfig, GrowthConfig, TrainConfig
from namgrow.data_io import Dataset, base_grid_ranges
from namgrow.growth import run_growth, transfer_task
from namgrow.nam_model import (
    Branch,
    NamNetwork,
    evaluate,
    parameter_count,
)
from namgrow.nn_core import (
    init_branch_mlp,
    optimizer_step_count,
)
from namgrow.training import train_network
from oracles import ignore, rounded_dataset

N_CLASSES = 3
SHAPE = (1, 6, 6)
CORNER_MIX = (-0.2, 0.0, 0.2)
CENTER_MIX = (0.2, -0.2, 0.0)


def two_block_task(n_per_class, seed, tag):
    """Corner block (on the base grid) and center block (off-grid) each
    carry a class-dependent brightness shift under uniform pixel noise."""
    rng = np.random.default_rng(seed)
    n = N_CLASSES * n_per_class
    images = rng.uniform(-0.2, 0.2, size=(n,) + SHAPE)
    labels = np.repeat(np.arange(N_CLASSES), n_per_class).astype(np.int64)
    for c in range(N_CLASSES):
        rows = slice(c * n_per_class, (c + 1) * n_per_class)
        images[rows, 0, 0:3, 0:3] += CORNER_MIX[c]
        images[rows, 0, 2:5, 2:5] += CENTER_MIX[c]
    order = rng.permutation(n)
    return rounded_dataset(images[order], labels[order], tag, N_CLASSES)


def rolled(dataset, tag):
    return Dataset(pixels=np.roll(dataset.pixels, (2, 2), axis=(1, 2)),
                   labels=dataset.labels, tag=tag, n_classes=N_CLASSES)


def make_base_network(train_set, seed=0):
    rng = np.random.default_rng(seed)
    branches = [Branch(init_branch_mlp(rng, N_CLASSES), input_range)
                for input_range in base_grid_ranges(SHAPE, spacing=3)]
    net = NamNetwork(n_classes=N_CLASSES, input_shape=SHAPE, mode="tuning",
                     branches=branches, tag="task-a-base")
    train_network(net, train_set,
                  TrainConfig(epochs=15, batch_size=32, learning_rate=3e-3,
                              seed=seed), train_set, on_epoch=ignore)
    return net


def small_growth_config():
    return GrowthConfig(selection_size=120, max_per_iteration=8,
                        reference_per_class=20, seed=5,
                        cluster=ClusterConfig(n_samples=300))


class IterationLog:
    """An `on_iteration` callback that keeps what each iteration leaves on
    the state: its candidate records and branch points, and its record's
    parameter count next to a fresh count of the network."""

    def __init__(self):
        self.candidates, self.points, self.counts = [], [], []

    def __call__(self, state):
        self.candidates += state.candidate_records
        self.points += state.branch_points
        self.counts.append((state.records[-1].parameter_count,
                            parameter_count(state.net)))


@pytest.fixture(scope="module")
def task_a():
    return two_block_task(80, seed=11, tag="task-a"), \
        two_block_task(40, seed=12, tag="task-a-test")


@pytest.fixture(scope="module")
def base_net(task_a):
    return make_base_network(task_a[0])


@pytest.fixture(scope="module")
def grown(task_a, base_net):
    train, test = task_a
    log = IterationLog()
    state = run_growth(copy.deepcopy(base_net), train, small_growth_config(),
                       test_set=test, cluster_table=None, max_iterations=None,
                       on_iteration=log)
    state.log = log
    return state


class TestBaseTraining:
    def test_base_network_learns_the_task(self, task_a, base_net):
        accuracy, _ = evaluate(base_net, task_a[1])
        assert accuracy > 0.55


class TestGrowthRun:
    def test_growth_accepts_branches_and_accounts_parameters(self, grown):
        accepted = sum(r.accepted for r in grown.records)
        assert accepted >= 1
        assert grown.net.n_branches == 4 + accepted
        per_branch = 4 * (81 + 9) + N_CLASSES * 9
        assert parameter_count(grown.net) == 4 * per_branch + 2 * accepted
        assert grown.records[-1].branch_count == grown.net.n_branches
        assert grown.records[-1].parameter_count == parameter_count(grown.net)

    def test_selection_loss_series_is_non_increasing(self, grown):
        losses = [r.selection_loss for r in grown.records]
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_grown_branches_are_masked_and_frozen(self, grown):
        for branch in grown.net.branches[:4]:
            assert branch.origin == "base"
        for branch in grown.net.branches[4:]:
            assert branch.origin == "grown"
            assert branch.mask is not None
            assert branch.mask_frozen

    def test_candidate_log_covers_every_candidate(self, grown):
        """Read through `on_iteration`: the state holds only the last
        iteration's candidate records."""
        candidates = grown.log.candidates
        seen = sum(r.candidates_seen for r in grown.records)
        assert len(candidates) == seen
        accepted = sum(r.accepted for r in grown.records)
        assert sum(1 for c in candidates if c["kept"]) == accepted
        assert len(grown.log.points) == accepted
        for rec in candidates:
            assert {"iteration", "input_range", "source_branch",
                    "target_class", "qualified", "kept"} <= rec.keys()

    def test_recorded_test_metrics_match_direct_evaluation(self, grown, task_a):
        accuracy, loss = evaluate(grown.net, task_a[1])
        assert grown.records[-1].test_accuracy == pytest.approx(accuracy)
        assert grown.records[-1].test_loss == pytest.approx(loss)

    def test_growth_is_deterministic(self, task_a, base_net, grown):
        train, test = task_a
        log = IterationLog()
        again = run_growth(copy.deepcopy(base_net), train,
                           small_growth_config(), test_set=test,
                           cluster_table=None, max_iterations=None,
                           on_iteration=log)
        assert ([r.to_json_line() for r in again.records]
                == [r.to_json_line() for r in grown.records])
        assert log.candidates == grown.log.candidates
        assert log.points == grown.log.points
        assert network_to_json(again.net) == network_to_json(grown.net)

    def test_grown_network_survives_checkpoint_roundtrip(self, grown, task_a):
        text = network_to_json(grown.net)
        restored = network_from_json(text)
        assert network_to_json(restored) == text
        assert evaluate(restored, task_a[1]) == evaluate(grown.net, task_a[1])

    def test_mode_guards(self, task_a, base_net):
        train, test = task_a
        election_net = copy.deepcopy(base_net)
        election_net.mode = "election"
        with pytest.raises(ValueError, match="tuning"):
            run_growth(election_net, train, small_growth_config(), test,
                       None, None, ignore)
        bare = NamNetwork(n_classes=N_CLASSES, input_shape=SHAPE, mode="tuning")
        with pytest.raises(ValueError, match="base"):
            run_growth(bare, train, small_growth_config(), test, None, None,
                       ignore)

    def test_moved_base_weight_is_caught(self, task_a, base_net, monkeypatch):
        """run_growth hashes the branches it starts from on entry and again
        on exit; a mask-tuning step that also moves a base weight fails."""
        calls = []
        net = copy.deepcopy(base_net)

        def nudging_tune_masks(branches, *args, **kwargs):
            calls.append(len(branches))
            net.branches[0].mlp.hidden_layers[0].weights[0, 0] += 1e-9
            return real_tune_masks(branches, *args, **kwargs)

        real_tune_masks = growth.tune_masks
        monkeypatch.setattr(growth, "tune_masks", nudging_tune_masks)
        train, test = task_a
        with pytest.raises(RuntimeError, match="started from"):
            run_growth(net, train, small_growth_config(), test_set=test,
                       cluster_table=None, max_iterations=1,
                       on_iteration=ignore)
        assert calls

    def test_bounded_run_matches_only_the_windows_it_consumes(
            self, task_a, base_net, monkeypatch):
        """A one-iteration run matches windows up to the one holding the
        last candidate it consumed, and none after it, and transfers the
        first layers of exactly the candidates it consumed."""
        windows, started, matched, transfers = [], [], [], []

        def counting_match_all(*args, **kwargs):
            matched.append(started[-1])
            return real_match_all(*args, **kwargs)

        def recording_match_candidates(input_range, *args, **kwargs):
            started.append(input_range)
            found = real_match_candidates(input_range, *args, **kwargs)
            windows.append((input_range, len(found)))
            return found

        def counting_transfer(*args, **kwargs):
            transfers.append(args)
            return real_transfer(*args, **kwargs)

        real_match_all = growth.match_all
        real_match_candidates = growth.match_candidates
        real_transfer = growth.transfer_first_layer
        monkeypatch.setattr(growth, "match_all", counting_match_all)
        monkeypatch.setattr(growth, "match_candidates",
                            recording_match_candidates)
        monkeypatch.setattr(growth, "transfer_first_layer", counting_transfer)
        train, test = task_a
        state = run_growth(copy.deepcopy(base_net), train,
                           small_growth_config(), test_set=test,
                           cluster_table=None, max_iterations=1,
                           on_iteration=ignore)
        assert len(state.records) == 1
        seen = state.records[0].candidates_seen
        total, last = 0, None
        for index, (_, found) in enumerate(windows):
            total += found
            if total >= seen:
                last = index
                break
        ranges = base_grid_ranges(SHAPE, 1)
        assert [r for r, _ in windows] == ranges[:len(windows)]
        assert matched == ranges[:last + 1]
        assert last + 1 < len(ranges)
        assert len(transfers) == seen

    @pytest.mark.parametrize("run", ["grow", "transfer"])
    def test_reference_draw_the_split_cannot_supply_fails_before_clustering(
            self, task_a, base_net, monkeypatch, run):
        """The references are drawn before the source branches are
        clustered, so a train split without enough images per class fails
        before any clustering work."""
        clustered = []
        monkeypatch.setattr(growth, "cluster_network",
                            lambda *args: clustered.append(args))
        train, test = task_a
        config = dataclasses.replace(small_growth_config(),
                                     reference_per_class=81)
        with pytest.raises(ValueError) as exc:
            if run == "grow":
                run_growth(copy.deepcopy(base_net), train, config, test,
                           None, None, ignore)
            else:
                transfer_task(base_net, train, config, test, None, ignore)
        assert str(exc.value) == "class 0 has 80 samples, matching needs 81"
        assert clustered == []

    def test_empty_stream_runs_no_iteration(self, task_a, base_net,
                                            monkeypatch):
        monkeypatch.setattr(growth, "match_candidates",
                            lambda *args, **kwargs: [])
        train, test = task_a
        net = copy.deepcopy(base_net)
        state = run_growth(net, train, small_growth_config(), test_set=test,
                           cluster_table=None, max_iterations=None,
                           on_iteration=ignore)
        assert state.records == [] and state.candidate_records == []
        assert network_to_json(net) == network_to_json(base_net)


@pytest.fixture(scope="module")
def task_b(task_a):
    return rolled(task_a[0], "task-b"), rolled(task_a[1], "task-b-test")


@pytest.fixture(scope="module")
def transferred(grown, task_b):
    train, test = task_b
    steps = optimizer_step_count()
    accuracies = []

    def on_iteration(state):
        accuracies.append((state.selection.accuracy, state.train.accuracy))

    state = transfer_task(grown.net, train, small_growth_config(),
                          test_set=test, cluster_table=None,
                          on_iteration=on_iteration)
    state.optimizer_steps = optimizer_step_count() - steps
    state.selection_accuracies, state.train_accuracies = zip(*accuracies)
    return state


class TestTransferRun:
    def test_transfer_never_calls_the_optimizer(self, transferred):
        assert transferred.optimizer_steps == 0

    def test_transfer_builds_a_useful_election_network(self, transferred,
                                                       task_b):
        net = transferred.net
        assert net.mode == "election"
        assert net.n_branches >= 1
        assert all(b.origin == "transferred" for b in net.branches)
        assert parameter_count(net) == 0
        assert all(br.election_stats[0].shape == (N_CLASSES,)
                   for br in net.branches)
        accuracy, _ = evaluate(net, task_b[1])
        assert accuracy > 1.0 / N_CLASSES

    def test_one_iteration_per_source_branch_at_least(self, transferred,
                                                      grown):
        assert len(transferred.records) >= grown.net.n_branches

    def test_selection_series_are_monotone(self, transferred):
        """Read through `on_iteration`, which gets the state after each
        iteration."""
        accuracies = transferred.selection_accuracies
        assert len(accuracies) == len(transferred.records)
        assert all(b >= a for a, b in zip(accuracies, accuracies[1:]))
        assert accuracies[-1] >= 1.0 / N_CLASSES
        losses = [r.selection_loss for r in transferred.records]
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_train_accuracy_series_tracks_iterations(self, transferred,
                                                     task_b):
        accuracies = transferred.train_accuracies
        assert len(accuracies) == len(transferred.records)
        assert accuracies[-1] == evaluate(transferred.net, task_b[0])[0]

    def test_recorded_test_metrics_match_direct_evaluation(self, transferred,
                                                           task_b):
        accuracy, loss = evaluate(transferred.net, task_b[1])
        assert transferred.records[-1].test_accuracy == pytest.approx(accuracy)
        assert transferred.records[-1].test_loss == pytest.approx(loss)

    def test_transfer_is_deterministic(self, transferred, grown, task_b):
        train, test = task_b
        again = transfer_task(grown.net, train,
                              small_growth_config(), test_set=test,
                              cluster_table=None, on_iteration=ignore)
        assert ([r.to_json_line() for r in again.records]
                == [r.to_json_line() for r in transferred.records])
        assert network_to_json(again.net) == network_to_json(transferred.net)

    def test_mode_guards(self, grown, task_b):
        bare = NamNetwork(n_classes=N_CLASSES, input_shape=SHAPE,
                          mode="election")
        with pytest.raises(ValueError, match="branches"):
            transfer_task(bare, task_b[0], small_growth_config(), task_b[1],
                          None, ignore)

    def test_branch_without_candidates_gets_one_iteration(
            self, grown, task_b, monkeypatch):
        """Source branch 0 matches nothing: its stream still closes one
        empty iteration, and branch 1's candidates start the next."""
        def without_branch_0(*args, **kwargs):
            return [cand for cand in real_match_candidates(*args, **kwargs)
                    if cand.source_branch_id != 0]

        real_match_candidates = growth.match_candidates
        monkeypatch.setattr(growth, "match_candidates", without_branch_0)
        train, test = task_b
        log = IterationLog()
        state = transfer_task(grown.net, train, small_growth_config(),
                              test_set=test, cluster_table=None,
                              on_iteration=log)
        first = state.records[0]
        assert (first.candidates_seen, first.accepted) == (0, 0)
        sources = {rec["source_branch"] for rec in log.candidates
                   if rec["iteration"] == 1}
        assert sources == {1}
        assert all(rec["source_branch"] != 0 for rec in log.candidates)

    def test_first_layer_transferred_as_each_candidate_is_consumed(
            self, grown, task_b, monkeypatch):
        """One scan serves every branch's stream, yet no first layer is
        built ahead of its stream's turn: after each iteration the
        transfers so far equal the candidates consumed so far."""
        transfers = []

        def counting_transfer(*args, **kwargs):
            transfers.append(args)
            return real_transfer(*args, **kwargs)

        def checking_grow_iteration(state, candidates):
            record = real_grow_iteration(state, candidates)
            assert len(transfers) == sum(r.candidates_seen
                                         for r in state.records)
            return record

        real_transfer = growth.transfer_first_layer
        real_grow_iteration = growth.grow_iteration
        monkeypatch.setattr(growth, "transfer_first_layer", counting_transfer)
        monkeypatch.setattr(growth, "grow_iteration", checking_grow_iteration)
        train, test = task_b
        log = IterationLog()
        state = transfer_task(grown.net, train, small_growth_config(),
                              test_set=test, cluster_table=None,
                              on_iteration=log)
        assert len({r["source_branch"] for r in log.candidates}) > 1
        assert len(transfers) == sum(r.candidates_seen
                                     for r in state.records)

    def test_moved_source_weight_is_caught(self, grown, task_b, monkeypatch):
        """transfer_task hashes the source branches on entry and again on
        exit; an iteration that moves a source weight fails the run."""
        def nudging_grow_iteration(state, candidates):
            def nudged():
                for cand in candidates:
                    # deeper layers are the source's own objects
                    cand.mlp.hidden_layers[1].weights[0, 0] += 1e-9
                    yield cand
            return real_grow_iteration(state, nudged())

        real_grow_iteration = growth.grow_iteration
        monkeypatch.setattr(growth, "grow_iteration", nudging_grow_iteration)
        train, test = task_b
        with pytest.raises(RuntimeError, match="started from"):
            transfer_task(copy.deepcopy(grown.net), train,
                          small_growth_config(), test_set=test,
                          cluster_table=None, on_iteration=ignore)


@pytest.mark.parametrize("transfer", [False, True])
def test_each_record_counts_the_network_of_its_iteration(
        task_a, task_b, base_net, grown, monkeypatch, transfer):
    """Each record's parameter count is the network's as its iteration
    ends, yet a run counts the whole network only once: later records add
    the kept batch's parameters to the last record's count."""
    calls = []

    def counting_parameter_count(net):
        calls.append(net)
        return real_parameter_count(net)

    real_parameter_count = growth.parameter_count
    monkeypatch.setattr(growth, "parameter_count", counting_parameter_count)
    log = IterationLog()
    if transfer:
        train, test = task_b
        state = transfer_task(grown.net, train, small_growth_config(),
                              test_set=test, cluster_table=None,
                              on_iteration=log)
    else:
        train, test = task_a
        state = run_growth(copy.deepcopy(base_net), train,
                           small_growth_config(), test_set=test,
                           cluster_table=None, max_iterations=None,
                           on_iteration=log)
    assert len(log.counts) == len(state.records) >= 2
    assert sum(r.accepted for r in state.records) >= 1
    assert all(recorded == fresh for recorded, fresh in log.counts)
    assert len(calls) <= 1
