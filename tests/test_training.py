"""Tests for joint stacked training of full-MLP branch networks."""

import numpy as np
import pytest

from namgrow.data_io import Dataset, InputRange
from namgrow.nam_model import Branch, NamNetwork, evaluate, network_forward_batch
from namgrow.nn_core import (
    AdamState,
    adam_step,
    init_branch_mlp,
    optimizer_step_count,
    softmax_cross_entropy_batch,
)
from namgrow.training import (
    EpochMetrics,
    TrainConfig,
    evaluate_stacked,
    stack_network,
    stacked_loss_and_grads,
    train_network,
)
from oracles import (
    branch_mlp,
    draw_dataset,
    float_images,
    ignore,
    mlp_backward,
    mlp_forward,
    row_major_patches,
    stacked_forward,
    where_loss_and_grads,
)

N_CLASSES = 3
RANGES = [InputRange(0, 0, 0), InputRange(0, 3, 3)]


def small_network(seed=0):
    rng_seeds = np.random.SeedSequence(seed).spawn(len(RANGES))
    branches = []
    for rng_seed, input_range in zip(rng_seeds, RANGES):
        mlp = init_branch_mlp(np.random.default_rng(rng_seed), N_CLASSES)
        branches.append(Branch(mlp=mlp, input_range=input_range))
    return NamNetwork(
        n_classes=N_CLASSES,
        input_shape=(1, 6, 6),
        mode="tuning",
        branches=branches,
    )


def synthetic_dataset(n, seed=0):
    """Images whose label is the tertile of the first patch's mean."""
    rng = np.random.default_rng(seed)
    drawn = draw_dataset(rng, n, (1, 6, 6), labels=np.zeros(n))
    images = float_images(drawn)
    patch_means = images[:, 0, 0:3, 0:3].reshape(n, -1).mean(axis=1)
    edges = np.quantile(patch_means, [1 / 3, 2 / 3])
    labels = np.digitize(patch_means, edges)
    return Dataset(pixels=drawn.pixels, labels=labels, tag="synthetic",
                   n_classes=N_CLASSES)


def patches_of(data):
    """Row-major windows [len(RANGES), n, 9] of every image."""
    return row_major_patches(float_images(data), RANGES)


class TestStackedForward:
    def test_matches_network_forward(self):
        net = small_network(seed=7)
        data = synthetic_dataset(32, seed=1)
        patches = patches_of(data)
        params = stack_network(net)
        got = stacked_forward(params, patches)
        want = network_forward_batch(net, data)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_branches_are_bound_to_their_stacked_slices(self):
        net = small_network(seed=3)
        data = synthetic_dataset(8, seed=2)
        before = network_forward_batch(net, data)
        params = stack_network(net)

        def bound(array, stacked_array, k):
            view = stacked_array[k]
            return (array.shape == view.shape
                    and array.ctypes.data == view.ctypes.data
                    and array.strides == view.strides)

        for k, branch in enumerate(net.branches):
            mlp = branch.mlp
            for l, layer in enumerate(mlp.hidden_layers):
                assert bound(layer.weights, params[2 * l], k)
                assert bound(layer.bias, params[2 * l + 1], k)
            assert bound(mlp.output_layer.weights, params[-1], k)
        np.testing.assert_array_equal(
            network_forward_batch(net, data), before)

    def test_one_adam_step_moves_the_network_without_write_back(self):
        net = small_network(seed=4)
        data = synthetic_dataset(16, seed=3)
        patches = patches_of(data)
        before = network_forward_batch(net, data)
        params = stack_network(net)
        _, grads = stacked_loss_and_grads(params, patches, data.labels)
        adam_step(AdamState(params, lr=1e-2), params, grads)
        after = network_forward_batch(net, data)
        assert not np.allclose(before, after)
        assert np.max(np.abs(after - stacked_forward(params, patches))) <= 1e-10

    def test_rejects_empty_and_non_base_networks(self):
        with pytest.raises(ValueError):
            stack_network(NamNetwork(n_classes=3, input_shape=(1, 6, 6)))
        net = small_network()
        net.branches[1].origin = "grown"
        with pytest.raises(ValueError, match="origin"):
            stack_network(net)

    def test_rejects_mixed_depths_and_keeps_the_layers(self):
        net = small_network()
        net.branches[1].mlp = branch_mlp(np.random.default_rng(1), N_CLASSES,
                                         n_hidden=3)
        layers = [list(br.mlp.hidden_layers) for br in net.branches]
        with pytest.raises(ValueError, match="depth"):
            stack_network(net)
        # a refused network keeps its own layers
        for branch, kept in zip(net.branches, layers):
            assert all(a is b for a, b in zip(branch.mlp.hidden_layers, kept))

    def test_rejects_bad_patch_shape(self):
        net = small_network()
        params = stack_network(net)
        with pytest.raises(ValueError, match="shape"):
            stacked_forward(params, np.zeros((1, 4, 9)))


class TestStackedGradients:
    def oracle_grads(self, net, patches, labels):
        """Per-sample, per-branch backward passes summed by hand."""
        n = labels.size
        logits = np.zeros((n, N_CLASSES))
        for k, branch in enumerate(net.branches):
            for j in range(n):
                logits[j] += mlp_forward(branch.mlp, patches[k, j])
        loss, dlogits = softmax_cross_entropy_batch(logits, labels)
        grads = {}
        for k, branch in enumerate(net.branches):
            acc = None
            for j in range(n):
                g = mlp_backward(branch.mlp, patches[k, j], dlogits[j])
                if acc is None:
                    acc = g
                else:
                    for l, (dw, db) in enumerate(g.hidden):
                        acc.hidden[l] = (
                            acc.hidden[l][0] + dw,
                            acc.hidden[l][1] + db,
                        )
                    acc.output = acc.output + g.output
            grads[k] = acc
        return loss, grads

    # batches of one row and one-branch networks may take BLAS's GEMV and
    # GER paths in place of GEMM
    @pytest.mark.parametrize("n, n_branches", [
        (6, 2), (1, 2), (7, 2), (129, 2), (6, 1), (1, 1), (129, 1)])
    def test_matches_per_branch_backward_oracle(self, n, n_branches):
        net = small_network(seed=11)
        del net.branches[n_branches:]
        data = synthetic_dataset(n, seed=5)
        patches = patches_of(data)[:n_branches]
        params = stack_network(net)
        loss, grads = stacked_loss_and_grads(params, patches, data.labels)
        oracle_loss, oracle = self.oracle_grads(net, patches, data.labels)
        assert abs(loss - oracle_loss) <= 1e-12
        n_hidden = (len(params) - 1) // 2
        for k in range(len(net.branches)):
            for l in range(n_hidden):
                assert np.max(np.abs(grads[2 * l][k] - oracle[k].hidden[l][0])) <= 1e-10
                assert np.max(np.abs(grads[2 * l + 1][k] - oracle[k].hidden[l][1])) <= 1e-10
            assert np.max(np.abs(grads[2 * n_hidden][k] - oracle[k].output)) <= 1e-10

    def test_gradient_shapes_match_params(self):
        net = small_network(seed=2)
        data = synthetic_dataset(4, seed=3)
        patches = patches_of(data)
        params = stack_network(net)
        _, grads = stacked_loss_and_grads(params, patches, data.labels)
        assert len(grads) == len(params)
        for g, p in zip(grads, params):
            assert g.shape == p.shape


def random_params(rng, n_branches, n_classes):
    """A stacked parameter list of 9-wide, four-hidden-layer branches with
    nonzero biases."""
    params = []
    for _ in range(4):
        params += [rng.normal(0.0, np.sqrt(2.0 / 9), (n_branches, 9, 9)),
                   rng.normal(0.0, 0.5, (n_branches, 9))]
    params.append(rng.normal(0.0, np.sqrt(1.0 / 9), (n_branches, n_classes, 9)))
    return params


class TestStepFormulation:
    # one-row batches and one-branch networks may take BLAS's GEMV and GER
    # paths in place of GEMM
    @pytest.mark.parametrize("n_branches, n", [
        (1, 1), (2, 7), (4, 16), (4, 64), (75, 32), (75, 128)])
    def test_adam_steps_equal_the_where_formulation_bytewise(self, n_branches,
                                                             n):
        rng = np.random.default_rng(1000 * n_branches + n)
        params = random_params(rng, n_branches, 10)
        oracle_params = [p.copy() for p in params]
        state = AdamState(params, lr=1e-2)
        oracle_state = AdamState(oracle_params, lr=1e-2)
        for _ in range(3):
            patches = rng.normal(size=(n_branches, n, 9))
            # zeros of both signs
            zeros = rng.random(patches.shape) < 0.1
            patches[zeros] = np.copysign(0.0, patches[zeros])
            labels = rng.integers(0, 10, n)
            loss, grads = stacked_loss_and_grads(params, patches, labels)
            want_loss, want = where_loss_and_grads(oracle_params, patches,
                                                   labels)
            assert loss == want_loss
            for got, expected in zip(grads, want):
                assert got.tobytes() == expected.tobytes()
            adam_step(state, params, grads)
            adam_step(oracle_state, oracle_params, want)
        for got, expected in zip(params, oracle_params):
            assert got.tobytes() == expected.tobytes()


class TestTrainNetwork:
    def test_loss_decreases_on_learnable_data(self):
        net = small_network(seed=0)
        data = synthetic_dataset(512, seed=9)
        config = TrainConfig(epochs=8, batch_size=64, learning_rate=3e-3, seed=1)
        history = train_network(net, data, config, data, on_epoch=ignore)
        assert isinstance(history[0], EpochMetrics)
        assert history[-1].train_loss < history[0].train_loss
        acc, _ = evaluate(net, data)
        assert acc > 1.0 / N_CLASSES + 0.1

    def test_deterministic_for_fixed_seed(self):
        data = synthetic_dataset(128, seed=4)
        config = TrainConfig(epochs=3, batch_size=32, seed=13)
        runs = []
        for _ in range(2):
            net = small_network(seed=21)
            history = train_network(net, data, config, data, on_epoch=ignore)
            runs.append((history, network_forward_batch(net, data)))
        assert runs[0][0] == runs[1][0]
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    def test_zero_epochs_changes_nothing(self):
        net = small_network(seed=5)
        data = synthetic_dataset(32, seed=6)
        before = network_forward_batch(net, data)
        steps = optimizer_step_count()
        history = train_network(net, data, TrainConfig(epochs=0), data,
                                on_epoch=ignore)
        assert history == []
        assert optimizer_step_count() - steps == 0
        np.testing.assert_array_equal(before, network_forward_batch(net, data))

    def test_optimizer_step_accounting(self):
        net = small_network(seed=6)
        data = synthetic_dataset(70, seed=7)
        steps = optimizer_step_count()
        train_network(net, data, TrainConfig(epochs=2, batch_size=32), data,
                      on_epoch=ignore)
        # 70 samples in batches of 32 -> 3 batches per epoch.
        assert optimizer_step_count() - steps == 6

    def test_steps_equal_a_loop_over_row_major_minibatch_windows(self):
        """Training gathers each minibatch's windows from the pixels and
        steps exactly as on the row-major windows of the float images."""
        data = synthetic_dataset(70, seed=12)
        config = TrainConfig(epochs=2, batch_size=32, learning_rate=3e-3,
                             seed=5)
        net = small_network(seed=13)
        train_network(net, data, config, data, on_epoch=ignore)
        oracle = small_network(seed=13)
        params = stack_network(oracle)
        state = AdamState(params, lr=config.learning_rate)
        rng = np.random.default_rng(config.seed)
        patches = patches_of(data)
        for _ in range(config.epochs):
            order = rng.permutation(data.n)
            for start in range(0, data.n, config.batch_size):
                idx = order[start:start + config.batch_size]
                _, grads = stacked_loss_and_grads(params, patches[:, idx],
                                                  data.labels[idx])
                adam_step(state, params, grads)
        for got, want in zip(stack_network(net), params):
            assert got.tobytes() == want.tobytes()

    def test_evaluate_stacked_agrees_with_network_evaluate(self):
        net = small_network(seed=8)
        data = synthetic_dataset(64, seed=8)
        config = TrainConfig(epochs=1, batch_size=16, seed=2)
        reports = []
        history = train_network(net, data, config, data,
                                on_epoch=reports.append)
        assert reports == history
        acc_s, loss_s = evaluate_stacked(net, data)
        acc_n, loss_n = evaluate(net, data)
        assert acc_s == acc_n
        assert loss_s == loss_n
        # the last epoch scored the trained network itself
        assert (history[-1].eval_accuracy, history[-1].eval_loss) == (acc_n,
                                                                      loss_n)

    def test_rejects_class_count_mismatch(self):
        net = small_network()
        data = synthetic_dataset(12)
        bad = Dataset(
            pixels=data.pixels,
            labels=data.labels,
            tag="bad",
            n_classes=N_CLASSES + 2,
        )
        with pytest.raises(ValueError, match="class count"):
            train_network(net, bad, TrainConfig(epochs=1), bad,
                          on_epoch=ignore)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
