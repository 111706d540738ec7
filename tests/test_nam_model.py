"""Additive-forward, mask, election, and checkpoint round-trip tests."""

import copy
import itertools

import numpy as np
import pytest

from namgrow import nam_model
from namgrow.checkpoint import load_checkpoint, network_from_json, \
    network_to_json, save_checkpoint
from namgrow.data_io import InputRange
from namgrow.growth import MaskColumns
from namgrow.nam_model import (
    Branch,
    ClassMask,
    NamNetwork,
    apply_class_mask,
    branch_outputs,
    build_network,
    class_mask_grads,
    elect_batch,
    evaluate,
    network_forward_batch,
    network_scores,
    parameter_count,
    score_metrics,
)
from namgrow.nn_core import init_branch_mlp
from oracles import branch_outputs_batch, draw_dataset, extract_patch, \
    fit_election_stats, float_images, loop_elect_batch, loop_forward_batch, \
    mlp_forward, mlp_forward_batch_row_major, one_branch_output, \
    pixel_dataset, row_major_patches, with_election_stats

SHAPE = (3, 32, 32)


def random_dataset(rng, n, shape=SHAPE, labels=None):
    """n images of drawn uint8 pixels, with drawn labels unless given."""
    return draw_dataset(rng, n, shape, labels)


def make_grown_branch(rng, input_range, branch_class, target_class,
                      thd=0.0, v_span=1.0, a=1.0, b=0.0, origin="grown"):
    return Branch(init_branch_mlp(rng, 10), input_range, branch_class,
                  target_class, ClassMask(a, b, thd, v_span), origin)


# ---------------------------------------------------------------- forward

def test_single_base_branch_equals_mlp_forward():
    rng = np.random.default_rng(42)
    net = NamNetwork(10, SHAPE, branches=[
        Branch(init_branch_mlp(rng, 10), InputRange(1, 4, 7))])
    one = random_dataset(rng, 1)
    patch = extract_patch(float_images(one)[0], InputRange(1, 4, 7))
    np.testing.assert_allclose(network_forward_batch(net, one)[0],
                               mlp_forward(net.branches[0].mlp, patch),
                               rtol=0, atol=1e-12)


def test_two_identical_branches_double_logits():
    rng = np.random.default_rng(1)
    br = Branch(init_branch_mlp(rng, 10), InputRange(0, 0, 0))
    single = NamNetwork(10, SHAPE, branches=[br])
    double = NamNetwork(10, SHAPE, branches=[br, copy.deepcopy(br)])
    one = random_dataset(rng, 1)
    np.testing.assert_allclose(network_forward_batch(double, one)[0],
                               2 * network_forward_batch(single, one)[0],
                               rtol=0, atol=1e-12)


def test_forward_matches_brute_force_sum_over_75_branches():
    rng = np.random.default_rng(42)
    net = build_network(SHAPE, 10, seed=123, spacing=6, tag="")
    assert net.n_branches == 75
    one = random_dataset(rng, 1)
    img = float_images(one)[0]
    expected = np.zeros(10)
    for br in net.branches:
        expected += mlp_forward(br.mlp, extract_patch(img, br.input_range))
    np.testing.assert_allclose(network_forward_batch(net, one)[0], expected,
                               rtol=0, atol=1e-10)


def test_forward_additivity_over_partitions():
    rng = np.random.default_rng(5)
    net = build_network(SHAPE, 10, seed=9, spacing=6, tag="")
    img = random_dataset(rng, 3)
    full = network_forward_batch(net, img)
    for cut in (1, 20, 74):
        left = NamNetwork(10, SHAPE, branches=net.branches[:cut])
        right = NamNetwork(10, SHAPE, branches=net.branches[cut:])
        np.testing.assert_allclose(
            network_forward_batch(left, img) + network_forward_batch(right, img),
            full, rtol=0, atol=1e-10)


def test_empty_network_errors():
    ds = pixel_dataset(np.zeros((1,) + SHAPE, dtype=np.uint8), [0])
    for mode, scorer in (("tuning", network_forward_batch),
                         ("election", elect_batch)):
        net = NamNetwork(10, SHAPE, mode=mode)
        for call in (lambda: scorer(net, ds),
                     lambda: network_scores(net, ds),
                     lambda: evaluate(net, ds)):
            with pytest.raises(ValueError, match="^network has no branches$"):
                call()


def test_grown_branch_contributes_only_target_class():
    rng = np.random.default_rng(2)
    br = make_grown_branch(rng, InputRange(0, 3, 3), branch_class=4,
                           target_class=7, thd=-10.0, v_span=1.0)
    net = NamNetwork(10, SHAPE, branches=[br])
    img = random_dataset(rng, 4)
    out = network_forward_batch(net, img)
    others = np.delete(out, 7, axis=1)
    assert np.all(others == 0.0)
    assert np.all(out[:, 7] >= 0.0)


# ---------------------------------------------------------------- engine

MIXED_SHAPE = (2, 8, 8)


def added_branch(rng, input_range, origin, probe):
    """A grown or transferred branch with drawn mask scalars and its
    threshold at a drawn quantile of its raw outputs on `probe`, so that
    its mask or flag switches on part of the images."""
    br = make_grown_branch(
        rng, input_range, branch_class=int(rng.integers(10)),
        # repeated targets: several branches add into one column
        target_class=int(rng.integers(3)),
        a=float(rng.uniform(-0.5, 2.0)), b=float(rng.uniform(-0.5, 1.0)),
        origin=origin)
    raw = one_branch_output(br, probe)
    br.mask = ClassMask(br.mask.a, br.mask.b,
                        float(np.quantile(raw, rng.uniform(0.2, 0.8))),
                        float(rng.uniform(0.1, 2.0)))
    return br


def mode_network(rng, mode, branches):
    """A network of `branches` in `mode`, with drawn election stats in
    election mode."""
    if mode == "election":
        branches = with_election_stats(
            branches, rng.normal(size=(len(branches), 10)),
            rng.uniform(0.1, 2.0, size=(len(branches), 10)))
    return NamNetwork(10, MIXED_SHAPE, mode=mode, branches=branches)


def mixed_network(rng, mode, n_base=3, n_added=9):
    """Base, grown and transferred branches in one list, on random
    windows."""
    probe = random_dataset(rng, 64, MIXED_SHAPE)
    ranges = [InputRange(int(rng.integers(2)), int(rng.integers(6)),
                         int(rng.integers(6))) for _ in range(n_base + n_added)]
    branches = [Branch(init_branch_mlp(rng, 10), r) for r in ranges[:n_base]]
    branches += [added_branch(rng, r, ("grown", "transferred")[k % 2], probe)
                 for k, r in enumerate(ranges[n_base:])]
    # interleave base and added branches
    order = rng.permutation(len(branches))
    return mode_network(rng, mode, [branches[i] for i in order])


# Runs of consecutive branches on one window; window A comes back after
# other windows, so it starts a second run.
WINDOW_RUNS = [(InputRange(0, 1, 2), 3), (InputRange(1, 0, 0), 1),
               (InputRange(1, 4, 5), 2), (InputRange(0, 1, 2), 2),
               (InputRange(0, 5, 3), 4)]


def window_run_network(rng, mode):
    """Base, grown and transferred branches, mixed within each run of
    WINDOW_RUNS."""
    probe = random_dataset(rng, 64, MIXED_SHAPE)
    origins = itertools.cycle(("base", "grown", "transferred", "grown"))
    branches = []
    for r, count in WINDOW_RUNS:
        for origin in itertools.islice(origins, count):
            branches.append(Branch(init_branch_mlp(rng, 10), r)
                            if origin == "base"
                            else added_branch(rng, r, origin, probe))
    return mode_network(rng, mode, branches)


@pytest.mark.parametrize("n", [1, 7, 25, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_equals_loop_oracle_bit_for_bit(monkeypatch, n, seed):
    monkeypatch.setattr(nam_model, "_EVAL_CHUNK", 7)
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n, MIXED_SHAPE)
    for mode in ("tuning", "election"):
        net = mixed_network(rng, mode)
        if mode == "tuning":
            want = loop_forward_batch(net, ds)
            assert np.array_equal(network_forward_batch(net, ds), want)
        else:
            want = loop_elect_batch(net, ds)
            assert np.array_equal(elect_batch(net, ds), want)
        assert np.array_equal(network_scores(net, ds), want)
        assert evaluate(net, ds) == score_metrics(want, ds.labels)


def test_each_scorer_refuses_the_other_mode():
    rng = np.random.default_rng(0)
    images = random_dataset(rng, 3, MIXED_SHAPE)
    with pytest.raises(ValueError) as exc:
        network_forward_batch(mixed_network(rng, "election"), images)
    assert str(exc.value) == ("network_forward_batch scores tuning "
                              "networks, not election ones")
    with pytest.raises(ValueError) as exc:
        elect_batch(mixed_network(rng, "tuning"), images)
    assert str(exc.value) == ("elect_batch scores election networks, not "
                              "tuning ones")


@pytest.mark.parametrize("n", [1, 7, 25])
@pytest.mark.parametrize("mode", ["tuning", "election"])
def test_engine_reads_each_run_of_branches_on_a_window_once(
        monkeypatch, mode, n):
    """Consecutive branches on one window share one patch extraction per
    chunk, and the sums keep the loop oracle's bits."""
    monkeypatch.setattr(nam_model, "_EVAL_CHUNK", 7)
    rng = np.random.default_rng(n)
    net = window_run_network(rng, mode)
    ds = random_dataset(rng, n, MIXED_SHAPE)
    extracted = []
    original = nam_model.extract_patches

    def recording(data, ranges, columns=slice(None)):
        extracted.append((tuple(ranges), columns))
        return original(data, ranges, columns)

    monkeypatch.setattr(nam_model, "extract_patches", recording)
    want = (loop_forward_batch if mode == "tuning" else loop_elect_batch)(
        net, ds)
    assert network_scores(net, ds).tobytes() == want.tobytes()
    chunks = [slice(lo, min(lo + 7, n)) for lo in range(0, n, 7)]
    assert extracted == [((r,), chunk) for chunk in chunks
                         for r, _ in WINDOW_RUNS]


def test_branch_outputs_overwrite_one_row_buffer():
    """Every output is a view of the same buffer; each equals a lone
    branch's output when read before the next one is asked for."""
    rng = np.random.default_rng(3)
    net = window_run_network(rng, "tuning")
    ds = random_dataset(rng, 9, MIXED_SHAPE)
    bases, yielded = set(), []
    for br, y in branch_outputs(net.branches, ds):
        assert y.tobytes() == one_branch_output(br, ds).tobytes()
        bases.add(id(y.base if y.base is not None else y))
        yielded.append(id(br))
    assert len(bases) == 1
    assert yielded == list(map(id, net.branches))


def test_engine_reads_one_chunk_of_windows_per_call(monkeypatch):
    """Each MLP call reads one branch's windows of one chunk, [9, <= chunk],
    chunk by chunk and, within a chunk, branch by branch."""
    rng = np.random.default_rng(4)
    net = mixed_network(rng, "tuning")
    monkeypatch.setattr(nam_model, "_EVAL_CHUNK", 7)
    rows = []
    original = nam_model.mlp_forward_batch

    def recording(mlp, x, out=None):
        rows.append(x.shape)
        return original(mlp, x, out)

    monkeypatch.setattr(nam_model, "mlp_forward_batch", recording)
    network_forward_batch(net, random_dataset(rng, 25, MIXED_SHAPE))
    assert rows == [(9, m) for m in (7, 7, 7, 4) for _ in net.branches]


def test_branch_output_reads_the_selected_columns():
    """A base branch gives its class rows and an added branch its raw
    scalars at branch_class, for all images or those a slice selects."""
    rng = np.random.default_rng(9)
    ds = random_dataset(rng, 20, MIXED_SHAPE)
    r = InputRange(1, 2, 3)
    base = Branch(init_branch_mlp(rng, 10), r)
    grown = make_grown_branch(rng, r, branch_class=6, target_class=2)
    windows = row_major_patches(float_images(ds), [r])[0]
    wants = [mlp_forward_batch_row_major(base.mlp, windows),
             mlp_forward_batch_row_major(grown.mlp, windows)[:, 6]]
    for columns in (slice(None), slice(4, 11), np.array([17, 3, 3, 0])):
        for (_, y), want in zip(branch_outputs([base, grown], ds, columns),
                                wants, strict=True):
            assert np.array_equal(y, want[columns])


# ---------------------------------------------------------------- masks

def test_mask_zero_at_or_below_threshold():
    mask = ClassMask(a=2.0, b=3.0, thd=0.5, v_span=1.5)
    for y in (-10.0, 0.0, 0.5):
        assert apply_class_mask(mask, y) == 0.0


def test_mask_nonpositive_scale_kills_output():
    for a in (0.0, -1.0):
        mask = ClassMask(a=a, b=1.0, thd=0.0, v_span=1.0)
        assert apply_class_mask(mask, 5.0) == 0.0


def test_mask_unit_point():
    mask = ClassMask(a=1.0, b=0.0, thd=0.2, v_span=0.7)
    np.testing.assert_allclose(apply_class_mask(mask, 0.2 + 0.7), 1.0,
                               rtol=0, atol=1e-15)


def test_mask_nonnegative_and_monotone():
    rng = np.random.default_rng(42)
    mask = ClassMask(a=0.8, b=0.3, thd=0.1, v_span=0.5)
    ys = np.sort(rng.uniform(-2, 2, size=200))
    vals = apply_class_mask(mask, ys)
    assert np.all(vals >= 0.0)
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all(vals[ys <= 0.1] == 0.0)


def test_mask_requires_positive_span():
    with pytest.raises(ValueError):
        ClassMask(1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("k", [None, 1, 3])
def test_mask_gradients_match_finite_differences(k):
    # interior points: a, b > 0 and y away from thd, so no subgradient kinks;
    # one ClassMask on a 1-D batch (k None), or k masks as [k, 1] columns
    rng = np.random.default_rng(42)
    rows = 1 if k is None else k
    for _ in range(20):
        a, b = rng.uniform(0.1, 2.0, size=(2, rows, 1))
        thd = rng.uniform(-0.5, 0.5, size=(rows, 1))
        v_span = rng.uniform(0.2, 2.0, size=(rows, 1))
        y = thd + rng.uniform(0.05, 1.0, size=(rows, 6)) * np.where(
            rng.uniform(size=(rows, 6)) < 0.5, -1.0, 1.0)
        upstream = rng.normal(size=(rows, 6))
        if k is None:
            a, b, thd, v_span = (float(v[0, 0]) for v in (a, b, thd, v_span))
            y, upstream = y[0], upstream[0]
            make_mask = ClassMask
        else:
            make_mask = MaskColumns
        da, db = class_mask_grads(make_mask(a, b, thd, v_span), y, upstream)
        h = 1e-6

        def loss(a, b):
            return np.sum(upstream * apply_class_mask(
                make_mask(a, b, thd, v_span), y), axis=-1)

        fa = (loss(a + h, b) - loss(a - h, b)) / (2 * h)
        fb = (loss(a, b + h) - loss(a, b - h)) / (2 * h)
        assert np.all(np.abs(da - fa) / np.maximum(np.abs(fa), 1e-8) < 1e-4)
        assert np.all(np.abs(db - fb) / np.maximum(np.abs(fb), 1e-8) < 1e-4)


@pytest.mark.parametrize("a, b", [(-0.0, -0.0), (-0.0, 0.5), (0.75, -0.0),
                                  (-1.0, 2.0), (1.5, -1.0)])
def test_mask_scalars_clip_as_python_max(a, b):
    """ReLU(a) and ReLU(b) are Python's max(x, 0.0), which keeps -0.0, in
    the masked outputs and in both gradients, for one mask and for mask
    columns alike."""
    thd, v_span = 0.25, 0.5
    y = np.array([-1.0, 0.25, 0.3, 2.0, 0.7])
    up = np.array([0.5, -1.0, 2.0, -0.25, 1.0])
    ramp = np.maximum((y - thd) / v_span, 0.0)
    flag = (y > thd).astype(np.float64)
    want_out = max(a, 0.0) * (ramp + flag * max(b, 0.0))
    want_da = float(np.sum(up * (ramp + flag * max(b, 0.0)))) \
        * (1.0 if a >= 0.0 else 0.0)
    want_db = float(np.sum(up * flag)) * max(a, 0.0) \
        * (1.0 if b >= 0.0 else 0.0)
    mask = ClassMask(a, b, thd, v_span)
    columns = MaskColumns(*(np.full((2, 1), v) for v in (a, b, thd, v_span)))
    lone, stacked = (apply_class_mask(mask, y),
                     apply_class_mask(columns, np.stack([y, y])))
    assert lone.tobytes() == want_out.tobytes()
    assert stacked.tobytes() == np.stack([want_out, want_out]).tobytes()
    want = np.array([want_da, want_db])
    assert np.array(class_mask_grads(mask, y, up)).tobytes() == want.tobytes()
    da, db = class_mask_grads(columns, np.stack([y, y]), np.stack([up, up]))
    for k in range(2):
        assert np.array([da[k], db[k]]).tobytes() == want.tobytes()


def test_mask_gradient_subgradient_convention_at_zero():
    # b = 0 must still receive gradient, otherwise it could never train
    mask = ClassMask(a=1.0, b=0.0, thd=0.0, v_span=1.0)
    y = np.array([0.5, -0.5, 2.0])
    upstream = np.array([1.0, 1.0, 1.0])
    da, db = class_mask_grads(mask, y, upstream)
    assert db == pytest.approx(2.0)  # two samples above threshold, a = 1
    mask0 = ClassMask(a=0.0, b=0.5, thd=0.0, v_span=1.0)
    da0, _ = class_mask_grads(mask0, y, upstream)
    assert da0 == pytest.approx(0.5 + 0.5 + (2.0 + 0.5))


# ---------------------------------------------------------------- election

def synthetic_branches(rng, n_branches=5):
    return [Branch(init_branch_mlp(rng, 10), InputRange(0, 0, 0))
            for _ in range(n_branches)]


def election_net(branches, means, stds):
    """An election network of the branches, branch k under the stats
    (means[k], stds[k])."""
    return NamNetwork(10, SHAPE, mode="election",
                      branches=with_election_stats(branches, means, stds))


def test_elect_scores_match_hand_summed_zscores():
    rng = np.random.default_rng(42)
    branches = synthetic_branches(rng)
    means = rng.normal(size=(5, 10))
    stds = rng.uniform(0.5, 2.0, size=(5, 10))
    net = election_net(branches, means, stds)
    images = random_dataset(rng, 3)
    outs = branch_outputs_batch(net.branches, images, "election")
    scores = elect_batch(net, images)
    for i in range(3):
        expected = np.zeros(10)
        for k in range(5):
            for c in range(10):
                expected[c] += (outs[k, i, c] - means[k, c]) / stds[k, c]
        np.testing.assert_allclose(scores[i], expected, rtol=0, atol=1e-10)
        assert np.argmax(scores[i]) == np.argmax(expected)


def test_elect_centered_image_scores_zero():
    rng = np.random.default_rng(0)
    branches = synthetic_branches(rng, n_branches=1)
    one = random_dataset(rng, 1)
    out = branch_outputs_batch(branches, one, "election")[0, 0]
    net = election_net(branches, out[None].copy(), np.ones((1, 10)))
    scores = elect_batch(net, one)[0]
    np.testing.assert_allclose(scores, np.zeros(10), rtol=0, atol=1e-12)


def test_elect_one_std_above_mean_wins():
    rng = np.random.default_rng(3)
    branches = synthetic_branches(rng, n_branches=1)
    one = random_dataset(rng, 1)
    out = branch_outputs_batch(branches, one, "election")[0, 0]
    means = out[None].copy()
    means[0, 3] -= 2.0  # class 3 sits two stds above its mean
    net = election_net(branches, means, np.full((1, 10), 2.0))
    scores = elect_batch(net, one)[0]
    pred = np.argmax(scores)
    assert pred == 3
    np.testing.assert_allclose(scores[3], 1.0, rtol=0, atol=1e-12)


def test_elect_requires_stats():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        NamNetwork(10, SHAPE, mode="election",
                   branches=synthetic_branches(rng))


def test_elect_tie_breaks_to_lowest_class():
    rng = np.random.default_rng(4)
    branches = synthetic_branches(rng, n_branches=1)
    one = random_dataset(rng, 1)
    out = branch_outputs_batch(branches, one, "election")[0, 0]
    means = out[None] - 1.0
    # each std is its class's rounded distance to the mean: an exact tie
    net = election_net(branches, means, out[None] - means)
    scores = elect_batch(net, one)[0]
    pred = np.argmax(scores)
    np.testing.assert_allclose(scores, np.ones(10), rtol=0, atol=1e-12)
    assert pred == 0


def test_fit_election_stats_matches_two_pass_oracle():
    rng = np.random.default_rng(42)
    branches = synthetic_branches(rng, n_branches=4)
    ds = random_dataset(rng, 50)
    means, stds = fit_election_stats(branches, ds)
    outs = branch_outputs_batch(branches, ds, "election")  # [K, n, C]
    for k in range(4):
        mean = outs[k].mean(axis=0)
        std = outs[k].std(axis=0)  # population
        np.testing.assert_allclose(means[k], mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stds[k], np.maximum(std, 1e-6),
                                   rtol=0, atol=1e-12)


def test_fit_election_stats_two_point_example_and_floor():
    # branch outputs 0 and 2 across two samples -> mean 1, population std 1
    vals = np.array([[0.0], [2.0]])
    mean = vals.mean()
    std = vals.std()
    assert mean == 1.0 and std == 1.0
    # degenerate constant output -> floored std
    rng = np.random.default_rng(7)
    br = make_grown_branch(rng, InputRange(0, 0, 0), 0, 0, thd=1e9)
    ds = random_dataset(rng, 8, labels=np.zeros(8))
    means, stds = fit_election_stats([br], ds)
    assert np.all(stds == 1e-6)
    assert np.all(means == 0.0)


def test_election_standardization_property():
    rng = np.random.default_rng(42)
    branches = synthetic_branches(rng, n_branches=3)
    ds = random_dataset(rng, 100)
    means, stds = fit_election_stats(branches, ds)
    outs = branch_outputs_batch(branches, ds, "election")
    for k in range(3):
        z = (outs[k] - means[k]) / stds[k]
        np.testing.assert_allclose(z.mean(axis=0), 0.0, rtol=0, atol=1e-9)
        live = stds[k] > 1e-6
        np.testing.assert_allclose(z.std(axis=0)[live], 1.0, rtol=0, atol=1e-9)


def test_elect_argmax_invariant_under_common_scaling():
    rng = np.random.default_rng(8)
    ds = random_dataset(rng, 40)
    branches = synthetic_branches(rng, n_branches=3)
    net = election_net(branches, *fit_election_stats(branches, ds))
    preds = np.argmax(elect_batch(net, ds), axis=1)

    scaled = copy.deepcopy(branches)
    for br in scaled:
        br.mlp.output_layer.weights *= 7.5  # scales every class-output by 7.5
    scaled_net = election_net(scaled, *fit_election_stats(scaled, ds))
    preds_scaled = np.argmax(elect_batch(scaled_net, ds), axis=1)
    np.testing.assert_array_equal(preds, preds_scaled)


# ---------------------------------------------------------------- counting

def test_parameter_count_accounting():
    net = build_network(SHAPE, 10, seed=0, spacing=6, tag="")
    assert parameter_count(net) == 75 * 450
    full = build_network(SHAPE, 10, seed=0, spacing=3, tag="")
    assert parameter_count(full) == 300 * 450
    mnist_full = build_network((1, 28, 28), 10, seed=0, spacing=3, tag="")
    assert parameter_count(mnist_full) == 81 * 450

    rng = np.random.default_rng(1)
    net.branches.append(make_grown_branch(rng, InputRange(0, 1, 1), 2, 2))
    net.branches.append(make_grown_branch(rng, InputRange(0, 2, 2), 3, 3,
                                          origin="transferred"))
    assert parameter_count(net) == 75 * 450 + 2  # transferred adds nothing


def test_build_base_network_deterministic_by_seed():
    a = build_network(SHAPE, 10, seed=42, spacing=6, tag="")
    b = build_network(SHAPE, 10, seed=42, spacing=6, tag="")
    c = build_network(SHAPE, 10, seed=43, spacing=6, tag="")
    np.testing.assert_array_equal(a.branches[0].mlp.hidden_layers[0].weights,
                                  b.branches[0].mlp.hidden_layers[0].weights)
    assert not np.array_equal(a.branches[0].mlp.hidden_layers[0].weights,
                              c.branches[0].mlp.hidden_layers[0].weights)
    # branches get distinct weights
    assert not np.array_equal(a.branches[0].mlp.hidden_layers[0].weights,
                              a.branches[1].mlp.hidden_layers[0].weights)


def test_evaluate_tuning_mode():
    rng = np.random.default_rng(6)
    net = build_network(SHAPE, 10, seed=2, spacing=6, tag="")
    ds = random_dataset(rng, 30)
    acc, loss = evaluate(net, ds)
    assert 0.0 <= acc <= 1.0 and np.isfinite(loss)


def test_branch_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        Branch(init_branch_mlp(rng, 10), InputRange(0, 0, 0), origin="grown")
    with pytest.raises(ValueError):
        Branch(init_branch_mlp(rng, 10), InputRange(0, 0, 0), 1, 1,
               ClassMask(1, 0, 0, 1), origin="weird")


@pytest.mark.parametrize("mean, std, message", [
    (np.zeros(9), np.ones(10),
     "election stats have shapes (9,) and (10,), expected (10,)"),
    (np.zeros(10), np.ones((1, 10)),
     "election stats have shapes (10,) and (1, 10), expected (10,)"),
    (np.r_[np.nan, np.zeros(9)], np.ones(10),
     "election stats mean is not finite"),
    (np.r_[np.inf, np.zeros(9)], np.ones(10),
     "election stats mean is not finite"),
    (np.zeros(10), np.r_[0.0, np.ones(9)],
     "election stats std is not finite and positive"),
    (np.zeros(10), np.r_[-1.0, np.ones(9)],
     "election stats std is not finite and positive"),
    (np.zeros(10), np.r_[np.inf, np.ones(9)],
     "election stats std is not finite and positive"),
    (np.zeros(10), np.r_[np.nan, np.ones(9)],
     "election stats std is not finite and positive"),
])
def test_branch_rejects_malformed_election_stats(mean, std, message):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError) as exc:
        Branch(init_branch_mlp(rng, 10), InputRange(0, 0, 0),
               election_stats=(mean, std))
    assert str(exc.value) == message


def test_branch_keeps_election_stats_as_float_arrays():
    rng = np.random.default_rng(0)
    br = Branch(init_branch_mlp(rng, 10), InputRange(0, 0, 0),
                election_stats=([0] * 10, [1] * 10))
    mean, std = br.election_stats
    assert mean.dtype == std.dtype == np.float64
    np.testing.assert_array_equal(mean, np.zeros(10))
    np.testing.assert_array_equal(std, np.ones(10))


def test_network_rejects_stats_on_only_some_branches():
    rng = np.random.default_rng(0)
    stats = (np.zeros(10), np.ones(10))
    branches = [Branch(init_branch_mlp(rng, 10), InputRange(0, 0, 0),
                       election_stats=stats if k != 1 else None)
                for k in range(3)]
    with pytest.raises(ValueError, match="^branch 1: election stats must "
                                         "be present in election mode$"):
        NamNetwork(10, SHAPE, mode="election", branches=branches)
    for br in branches:
        br.election_stats = stats
    NamNetwork(10, SHAPE, mode="election", branches=branches)


def test_tuning_network_rejects_election_stats():
    rng = np.random.default_rng(0)
    branches = [Branch(init_branch_mlp(rng, 10), InputRange(0, 0, 0))
                for _ in range(3)]
    NamNetwork(10, SHAPE, mode="tuning", branches=branches)
    branches[2].election_stats = (np.zeros(10), np.ones(10))
    with pytest.raises(ValueError, match="^branch 2: election stats must "
                                         "be absent in tuning mode$"):
        NamNetwork(10, SHAPE, mode="tuning", branches=branches)


# ---------------------------------------------------------------- checkpoint

def grown_net_with_stats(rng):
    branches = [Branch(init_branch_mlp(rng, 10), InputRange(2, 5, 8)),
                make_grown_branch(rng, InputRange(0, 1, 2), 3, 6, thd=0.1,
                                  v_span=0.123456789012345, a=1.25,
                                  b=0.0078125, origin="transferred")]
    branches[1].mask_frozen = True
    return NamNetwork(10, SHAPE, mode="election", tag="synthetic",
                      branches=with_election_stats(
                          branches, rng.normal(size=(2, 10)),
                          rng.uniform(0.5, 2, size=(2, 10))))


def test_checkpoint_roundtrip_byte_identity(tmp_path):
    rng = np.random.default_rng(42)
    net = grown_net_with_stats(rng)
    # awkward values that expose any precision loss
    net.branches[0].mlp.hidden_layers[0].weights[0, 0] = 0.1
    net.branches[0].mlp.hidden_layers[0].weights[0, 1] = 1e-300
    net.branches[0].mlp.hidden_layers[0].weights[0, 2] = np.nextafter(1.0, 2.0)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_checkpoint(net, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_values_lossless(tmp_path):
    rng = np.random.default_rng(7)
    net = grown_net_with_stats(rng)
    save_checkpoint(net, tmp_path / "n.json")
    loaded = load_checkpoint(tmp_path / "n.json")
    assert loaded.mode == "election" and loaded.tag == "synthetic"
    assert loaded.input_shape == SHAPE
    for a, b in zip(net.branches, loaded.branches):
        assert a.input_range == b.input_range
        assert a.origin == b.origin
        assert a.branch_class == b.branch_class
        assert a.mask_frozen == b.mask_frozen
        for la, lb in zip(a.mlp.hidden_layers, b.mlp.hidden_layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)
        np.testing.assert_array_equal(a.mlp.output_layer.weights,
                                      b.mlp.output_layer.weights)
        if a.mask is not None:
            assert (a.mask.a, a.mask.b, a.mask.thd, a.mask.v_span) == \
                (b.mask.a, b.mask.b, b.mask.thd, b.mask.v_span)
        np.testing.assert_array_equal(a.election_stats[0],
                                      b.election_stats[0])
        np.testing.assert_array_equal(a.election_stats[1],
                                      b.election_stats[1])


def test_checkpoint_tuning_net_without_stats():
    net = build_network((1, 28, 28), 10, seed=5, spacing=6, tag="x")
    text = network_to_json(net)
    loaded = network_from_json(text)
    assert all(br.election_stats is None for br in loaded.branches)
    assert loaded.n_branches == 25
    assert network_to_json(loaded) == text


def test_checkpoint_rejects_foreign_documents():
    with pytest.raises(ValueError):
        network_from_json('{"format":"something-else","version":1}')
    with pytest.raises(ValueError):
        network_from_json('{"format":"nam-checkpoint","version":99}')
