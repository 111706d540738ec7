"""Acceptance gate: one check per reference criterion, one printed line each.

Checks 1-4 reproduce the published reference runs end to end and need the
real datasets on disk: the CIFAR-10 binary batches (data_batch_*.bin,
test_batch.bin) and the MNIST IDX files.  Point NAMGROW_DATA_DIR at a
directory holding them (several common layouts are probed); the default is
./data.  When the files are absent these checks skip and say so — they are
never faked.  Check 5 is the dataset-free property suite and always runs.

Run `pytest tests/test_acceptance.py -v -s` to see one status line per
criterion:

    ACCEPTANCE 1: PASS (...)
"""

import copy
import os
import time
from pathlib import Path

import numpy as np
import pytest

from namgrow.checkpoint import load_checkpoint, save_checkpoint
from namgrow.clustering import (
    BranchPairs,
    ClusterConfig,
    cluster_branch_class,
    cluster_branch_mlp,
)
from namgrow.data_io import Dataset, InputRange, load_cifar10, load_mnist
from namgrow.growth import GrowthConfig, run_growth, transfer_task
from namgrow.matching import NormalizationStats, transfer_first_layer
from namgrow.nam_model import (
    Branch,
    ClassMask,
    NamNetwork,
    apply_class_mask,
    build_network,
    class_mask_grads,
    evaluate,
    parameter_count,
)
from namgrow.nn_core import (
    DenseLayer,
    init_branch_mlp,
    optimizer_step_count,
    reset_optimizer_step_count,
)
from namgrow.qualification import qualify
from namgrow.training import TrainConfig, train_network
from oracles import (
    binary_hoeffding_bound,
    branch_outputs_batch,
    fit_election_stats,
    hoeffding_bound,
    ignore,
    loss_descent_diagnostics,
    mlp_backward,
    mlp_forward,
    reference_mean_shift,
    softmax_cross_entropy,
    with_election_stats,
)

DATA_ROOT = Path(os.environ.get("NAMGROW_DATA_DIR", "data"))

# artifacts shared between the dataset-backed checks (the grown and the
# transferred networks both start from the same trained base)
_shared: dict = {}


def _finish(criterion: int, failures: list, detail: str) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"\nACCEPTANCE {criterion}: {status} ({detail})", flush=True)
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


def _skip(criterion: int, reason: str) -> None:
    print(f"\nACCEPTANCE {criterion}: SKIP ({reason})", flush=True)
    pytest.skip(reason)


# --------------------------------------------------------- dataset discovery

def _load_cifar():
    for cand in (DATA_ROOT, DATA_ROOT / "cifar10",
                 DATA_ROOT / "cifar-10-batches-bin",
                 DATA_ROOT / "cifar10" / "cifar-10-batches-bin"):
        try:
            return load_cifar10(cand, "train"), load_cifar10(cand, "test")
        except FileNotFoundError:
            continue
    return None


def _load_mnist():
    for cand in (DATA_ROOT, DATA_ROOT / "mnist", DATA_ROOT / "mnist" / "raw",
                 DATA_ROOT / "MNIST" / "raw"):
        try:
            return load_mnist(cand, "train"), load_mnist(cand, "test")
        except FileNotFoundError:
            continue
    return None


@pytest.fixture(scope="module")
def cifar():
    return _load_cifar()


@pytest.fixture(scope="module")
def mnist():
    return _load_mnist()


def _trained_cifar_base(train_set):
    """Train the 75-branch CIFAR-10 base once and share it across checks."""
    if "base" not in _shared:
        net = build_network((3, 32, 32), 10, seed=0, spacing=6,
                            tag="cifar10-base")
        tic = time.monotonic()
        train_network(net, train_set, TrainConfig(), train_set,
                      on_epoch=ignore)
        _shared["base"] = (net, time.monotonic() - tic)
    return _shared["base"]


# ------------------------------------------------- 1: base-network training

def test_criterion_1_cifar10_base_reproduction(cifar):
    if cifar is None:
        _skip(1, f"CIFAR-10 binaries not found under {DATA_ROOT}")
    train, test = cifar
    net, seconds = _trained_cifar_base(train)
    acc, loss = evaluate(net, test)
    _shared["base_test_metrics"] = (acc, loss)
    failures = []
    if not abs(acc - 0.468) <= 0.03:
        failures.append(f"test accuracy {acc:.4f} outside 0.468+-0.03")
    if not abs(loss - 1.4684) <= 0.08:
        failures.append(f"test loss {loss:.4f} outside 1.4684+-0.08")
    if not seconds <= 7200:
        failures.append(f"training took {seconds / 60:.1f} min > 120")
    _finish(1, failures,
            f"75 branches: test accuracy {acc:.4f} (ref 0.468+-0.03), "
            f"loss {loss:.4f} (ref 1.4684+-0.08), "
            f"training {seconds / 60:.1f} min (limit 120)")


# --------------------------------------------- 2: full-perception baselines

def test_criterion_2_full_perception_baselines(cifar, mnist):
    missing = [name for name, d in (("CIFAR-10", cifar), ("MNIST", mnist))
               if d is None]
    if missing:
        _skip(2, f"{' and '.join(missing)} not found under {DATA_ROOT}")
    jobs = [
        ("cifar10", cifar, 0.5022, 0.03, None, None, 135000),
        ("mnist", mnist, 0.9613, 0.02, 0.1362, 0.05, 36450),
    ]
    failures, parts = [], []
    for name, (train, test), ref_acc, acc_tol, ref_loss, loss_tol, ref_p in jobs:
        net = build_network(train.shape, 10, seed=0, spacing=3,
                            tag=f"{name}-full")
        n_params = parameter_count(net)
        train_network(net, train, TrainConfig(), test, on_epoch=ignore)
        acc, loss = evaluate(net, test)
        parts.append(f"{name}: accuracy {acc:.4f}, loss {loss:.4f}, "
                     f"{n_params} params")
        if n_params != ref_p:
            failures.append(f"{name}: {n_params} params != {ref_p}")
        if not abs(acc - ref_acc) <= acc_tol:
            failures.append(f"{name}: accuracy {acc:.4f} outside "
                            f"{ref_acc}+-{acc_tol}")
        if ref_loss is not None and not abs(loss - ref_loss) <= loss_tol:
            failures.append(f"{name}: loss {loss:.4f} outside "
                            f"{ref_loss}+-{loss_tol}")
    _finish(2, failures, "; ".join(parts))


# ---------------------------------------------------- 3: same-task growth

def test_criterion_3_same_task_growth(cifar):
    if cifar is None:
        _skip(3, f"CIFAR-10 binaries not found under {DATA_ROOT}")
    train, test = cifar
    base, _ = _trained_cifar_base(train)
    acc0, loss0 = _shared.get("base_test_metrics") or evaluate(base, test)
    state = run_growth(copy.deepcopy(base), train, GrowthConfig(), test_set=test,
                       cluster_table=None, max_iterations=None,
                       on_iteration=ignore)
    accepted = sum(r.accepted for r in state.records)
    acc1, loss1 = evaluate(state.net, test)
    losses = [r.selection_loss for r in state.records]
    failures = []
    if not state.records:
        failures.append("no growth iterations ran")
    if not acc1 - acc0 >= 0.015:
        failures.append(f"accuracy improvement {acc1 - acc0:+.4f} < +0.015")
    if not loss1 < loss0:
        failures.append(f"test loss {loss1:.4f} did not decrease "
                        f"from {loss0:.4f}")
    if not all(b <= a for a, b in zip(losses, losses[1:])):
        failures.append("selection loss series increased")
    expected_params = parameter_count(base) + 2 * accepted
    if parameter_count(state.net) != expected_params:
        failures.append(f"parameter count {parameter_count(state.net)} != "
                        f"base + 2 x {accepted} = {expected_params}")
    _finish(3, failures,
            f"accuracy {acc0:.4f} -> {acc1:.4f} ({acc1 - acc0:+.4f}, need "
            f">= +0.015; ref +0.0336), loss {loss0:.4f} -> {loss1:.4f}, "
            f"{accepted} branches accepted")


# ---------------------------------------------------- 4: trans-task transfer

def test_criterion_4_transfer_cifar_to_mnist(cifar, mnist):
    missing = [name for name, d in (("CIFAR-10", cifar), ("MNIST", mnist))
               if d is None]
    if missing:
        _skip(4, f"{' and '.join(missing)} not found under {DATA_ROOT}")
    base, _ = _trained_cifar_base(cifar[0])
    mnist_train, mnist_test = mnist
    reset_optimizer_step_count()
    state = transfer_task(base, mnist_train, GrowthConfig(),
                          test_set=mnist_test, cluster_table=None,
                          on_iteration=ignore)
    steps = optimizer_step_count()
    series = state.selection_accuracy_series
    failures = []
    if steps != 0:
        failures.append(f"{steps} optimizer steps ran (must be 0)")
    if not series:
        failures.append("empty accuracy series")
    if not all(b >= a for a, b in zip(series, series[1:])):
        failures.append("accuracy series decreased")
    if state.net.n_branches == 0:
        failures.append("no branch transferred")
        acc = float("nan")
    else:
        acc, _ = evaluate(state.net, mnist_test)
        if not acc >= 0.70:
            failures.append(f"final test accuracy {acc:.4f} < 0.70")
    series_part = (f"selection accuracy {series[0]:.4f} -> {series[-1]:.4f}"
                   if series else "empty accuracy series")
    _finish(4, failures,
            f"{state.net.n_branches} branches transferred with "
            f"{steps} optimizer steps, {series_part}, final test accuracy "
            f"{acc:.4f} (need >= 0.70; ref 0.8813)")


# -------------------------------------- 5: dataset-free property suite

def _check_gradients():
    """Analytic MLP/loss/mask gradients against central differences."""
    rng = np.random.default_rng(11)
    mlp = init_branch_mlp(rng, n_classes=10)
    x = rng.uniform(-0.5, 0.5, size=9)
    upstream = rng.normal(size=10)
    grads = mlp_backward(mlp, x, upstream)
    arrays = [(l.weights, g[0]) for l, g in zip(mlp.hidden_layers, grads.hidden)]
    arrays += [(l.bias, g[1]) for l, g in zip(mlp.hidden_layers, grads.hidden)]
    arrays.append((mlp.output_layer.weights, grads.output))
    h = 1e-5
    for param, grad in arrays:
        flat, gflat = param.reshape(-1), grad.reshape(-1)
        for idx in rng.choice(flat.size, size=min(12, flat.size),
                              replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = float(upstream @ mlp_forward(mlp, x))
            flat[idx] = orig - h
            down = float(upstream @ mlp_forward(mlp, x))
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            an = gflat[idx]
            assert abs(fd - an) / max(abs(fd), abs(an), 1e-8) < 1e-4
    for j in range(9):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        fd = float(upstream @ (mlp_forward(mlp, xp)
                               - mlp_forward(mlp, xm))) / (2 * h)
        an = grads.input[j]
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-8) < 1e-4
    logits = rng.normal(scale=2.0, size=10)
    _, g = softmax_cross_entropy(logits, 4)
    for j in range(10):
        zp, zm = logits.copy(), logits.copy()
        zp[j] += h
        zm[j] -= h
        fd = (softmax_cross_entropy(zp, 4)[0]
              - softmax_cross_entropy(zm, 4)[0]) / (2 * h)
        assert abs(fd - g[j]) / max(abs(fd), abs(g[j]), 1e-8) < 1e-4
    # mask scalars, probed away from the threshold kink
    for _ in range(20):
        a, b = rng.uniform(0.1, 2.0, size=2)
        thd = rng.uniform(-0.5, 0.5)
        v_span = rng.uniform(0.2, 2.0)
        mask = ClassMask(a, b, thd, v_span)
        y = thd + rng.uniform(0.05, 1.0, size=6) * np.where(
            rng.uniform(size=6) < 0.5, -1.0, 1.0)
        up_m = rng.normal(size=6)
        da, db = class_mask_grads(mask, y, up_m)
        hm = 1e-6
        fa = (np.sum(up_m * apply_class_mask(ClassMask(a + hm, b, thd, v_span), y))
              - np.sum(up_m * apply_class_mask(ClassMask(a - hm, b, thd, v_span), y))) / (2 * hm)
        fb = (np.sum(up_m * apply_class_mask(ClassMask(a, b + hm, thd, v_span), y))
              - np.sum(up_m * apply_class_mask(ClassMask(a, b - hm, thd, v_span), y))) / (2 * hm)
        assert abs(da - fa) / max(abs(fa), 1e-8) < 1e-4
        assert abs(db - fb) / max(abs(fb), 1e-8) < 1e-4


def _check_loss_descent_diagnostics():
    """Odds ratio and loss-derivative diagnostics against finite differences."""
    rng = np.random.default_rng(42)
    n, n_classes, ct = 12, 10, 4
    labels = rng.integers(0, n_classes, size=n)
    labels[0] = ct
    logits = rng.normal(scale=2.0, size=(n, n_classes))
    contrib = rng.normal(size=n)
    tau, value = loss_descent_diagnostics(contrib, labels, ct, logits)
    h = 1e-5
    for j in range(n):
        z_t = logits[j, ct] + contrib[j]
        direct_tau = np.sum(np.exp(np.delete(logits[j], ct))) / np.exp(z_t)
        assert abs(tau[j] - direct_tau) / direct_tau < 1e-6

        def loss_at(delta):
            z = logits[j].copy()
            z[ct] += contrib[j] + delta
            return softmax_cross_entropy(z, int(labels[j]))[0]

        fd = (loss_at(h) - loss_at(-h)) / (2 * h)
        expected = -fd if labels[j] == ct else fd
        assert abs(value[j] - expected) < 1e-6


def _check_transfer_exactness():
    """Closed-form first-layer transfer reproduces outputs at 1e-10, x1000."""
    rng = np.random.default_rng(42)
    for _ in range(1000):
        layer = DenseLayer(rng.normal(size=(9, 9)), rng.normal(size=9))
        b_stats = NormalizationStats(rng.normal(size=9),
                                     rng.uniform(0.5, 2.0, size=9),
                                     rng.permutation(9))
        r_stats = NormalizationStats(rng.normal(size=9),
                                     rng.uniform(0.5, 2.0, size=9),
                                     rng.permutation(9))
        w_new, b_new = transfer_first_layer(layer, b_stats, r_stats)
        x_r = rng.normal(size=9)
        x_b = np.empty(9)
        for k in range(9):
            ib, ir = b_stats.permutation[k], r_stats.permutation[k]
            x_b[ib] = (b_stats.range_[ib] * (x_r[ir] - r_stats.mean[ir])
                       / r_stats.range_[ir] + b_stats.mean[ib])
        np.testing.assert_allclose(w_new @ x_r + b_new,
                                   layer.weights @ x_b + layer.bias,
                                   rtol=0, atol=1e-10)


def _check_clustering_blobs():
    """Partition, termination, recovery, and determinism on synthetic blobs."""
    fast = ClusterConfig(n_samples=60, max_shift_iterations=60)
    rng = np.random.default_rng(42)
    pts = np.concatenate([c + rng.normal(scale=0.02, size=(25, 9))
                          for c in (np.full(9, 0.4), np.full(9, -0.4))])
    pairs = BranchPairs(0, pts, rng.normal(size=50))
    summary = cluster_branch_class(pairs, fast, np.random.default_rng(1))
    assert summary.n_clusters == 2
    got = sorted(summary.centers[:, 0])
    assert abs(got[0] + 0.4) < 0.1 and abs(got[1] - 0.4) < 0.1
    # unstructured points: the loop must terminate with a full partition,
    # and each summarized center is its reference cluster's best member
    pairs = BranchPairs(1, rng.uniform(-0.5, 0.5, size=(80, 9)),
                        rng.normal(size=80))
    summary = cluster_branch_class(pairs, fast, np.random.default_rng(3))
    clusters = reference_mean_shift(pairs, fast, np.random.default_rng(3))
    seen = np.concatenate([c.members for c in clusters])
    assert len(seen) == 80
    assert sorted(seen.tolist()) == list(range(80))
    assert len(clusters) <= 80
    assert all(c.max_output == pairs.outputs[c.members].max()
               for c in clusters)
    assert (summary.centers.tobytes()
            == np.stack([c.center for c in clusters]).tobytes())
    assert (summary.max_outputs.tobytes()
            == np.array([c.max_output for c in clusters]).tobytes())
    # determinism under a fixed seed
    mlp = init_branch_mlp(np.random.default_rng(0), n_classes=3)
    cfg = ClusterConfig(n_samples=60, max_shift_iterations=30)
    a = cluster_branch_mlp(mlp, cfg, 11)
    b = cluster_branch_mlp(mlp, cfg, 11)
    assert len(a) == len(b) == 3
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.centers, sb.centers)
        assert np.array_equal(sa.max_outputs, sb.max_outputs)


def _oracle_qualify(values, labels, ct, mode, cumulative, thd, n_classes):
    """Condition-by-condition loop re-derivation of the verdict."""
    work = (values if mode == "tuning"
            else [1.0 if v > thd else 0.0 for v in values])
    t_sums = [c for c, l in zip(cumulative, labels) if l == ct]
    nt_sums = [c for c, l in zip(cumulative, labels) if l != ct]
    e_t, e_nt = sum(t_sums) / len(t_sums), sum(nt_sums) / len(nt_sums)
    weights = [(e_t - c) if l == ct else (e_nt - c)
               for c, l in zip(cumulative, labels)]
    wsum = sum(w * v for w, v in zip(weights, work))
    wsum_ok = all(w == 0.0 for w in weights) or wsum > 0
    if mode == "tuning":
        t_vals = [v for v, l in zip(values, labels) if l == ct]
        nt_vals = [v for v, l in zip(values, labels) if l != ct]
        first = sum(t_vals) / len(t_vals) > sum(nt_vals) / len(nt_vals)
    else:
        flagged = [(v, l) for v, l in zip(work, labels) if v > 0]
        if not flagged:
            first = False
        else:
            prc = sum(1 for _, l in flagged if l == ct) / len(flagged)
            first = prc > 1.0 / n_classes
    return first and wsum_ok


def _check_qualification_oracle():
    """Vectorized gates match the loop oracle on 100 random small tables."""
    rng = np.random.default_rng(42)
    for trial in range(100):
        n_classes = int(rng.integers(2, 6))
        n = int(rng.integers(2 * n_classes, 40))
        labels = rng.integers(0, n_classes, size=n)
        ct = int(rng.integers(n_classes))
        labels[0] = ct
        labels[1] = (ct + 1) % n_classes
        vals = rng.normal(size=n)
        cum = np.zeros(n) if trial % 3 == 0 else rng.normal(size=n)
        mode = "tuning" if trial % 2 == 0 else "election"
        thd = float(np.quantile(vals, 0.8))
        rep = qualify(vals, labels, ct, cum, mode, thd=thd,
                      n_classes=n_classes)
        expected = _oracle_qualify(vals.tolist(), labels.tolist(), ct, mode,
                                   cum.tolist(), thd, n_classes)
        assert rep.verdict == expected, f"trial {trial}"


def _check_hoeffding_monotonicity():
    """Tail bounds shrink along t, eps, and subnetwork-count grids."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        k = int(rng.integers(1, 8))
        lows = rng.normal(size=k)
        bounds = np.stack([lows, lows + rng.uniform(0.1, 2.0, size=k)], axis=1)
        vals = [hoeffding_bound(float(t), bounds)
                for t in np.linspace(0.0, 5.0, 41)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    for n in (1, 2, 5, 17, 100):
        vals = [binary_hoeffding_bound(float(e), n)
                for e in np.linspace(0.01, 0.99, 50)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    for eps in (0.05, 0.3, 0.7):
        vals = [binary_hoeffding_bound(eps, n) for n in range(1, 60)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def _check_election_standardization():
    """Standardized branch scores have mean 0 and unit std on the fit set."""
    rng = np.random.default_rng(42)
    shape = (1, 6, 6)
    branches = [Branch(init_branch_mlp(rng, 10), InputRange(0, 0, 0))
                for _ in range(3)]
    ds = Dataset(rng.uniform(-0.5, 0.5, size=(100,) + shape),
                 rng.integers(0, 10, size=100), "t", 10)
    means, stds = fit_election_stats(branches, ds)
    outs = branch_outputs_batch(branches, ds.images, "election")
    for k in range(3):
        z = (outs[k] - means[k]) / stds[k]
        assert np.max(np.abs(z.mean(axis=0))) < 1e-9
        live = stds[k] > 1e-6  # floored stds mark constant outputs
        assert np.max(np.abs(z.std(axis=0)[live] - 1.0)) < 1e-9


def _check_checkpoint_byte_identity(tmp_path):
    """save -> load -> save is byte-identical, awkward values included."""
    rng = np.random.default_rng(42)
    branches = [
        Branch(init_branch_mlp(rng, 10), InputRange(2, 5, 8)),
        Branch(init_branch_mlp(rng, 10), InputRange(0, 1, 2), 3, 6,
               ClassMask(1.25, 0.0078125, 0.1, 0.123456789012345),
               origin="transferred")]
    branches[1].mask_frozen = True
    net = NamNetwork(10, (3, 12, 12), mode="election", tag="acceptance",
                     branches=with_election_stats(
                         branches, rng.normal(size=(2, 10)),
                         rng.uniform(0.5, 2, size=(2, 10))))
    net.branches[0].mlp.hidden_layers[0].weights[0, 0] = 0.1
    net.branches[0].mlp.hidden_layers[0].weights[0, 1] = 1e-300
    net.branches[0].mlp.hidden_layers[0].weights[0, 2] = np.nextafter(1.0, 2.0)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(net, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_criterion_5_property_suite(tmp_path):
    checks = [
        ("gradient checks", _check_gradients),
        ("loss-descent diagnostics vs finite differences",
         _check_loss_descent_diagnostics),
        ("parameter-transfer exactness", _check_transfer_exactness),
        ("clustering on blobs", _check_clustering_blobs),
        ("qualification vs brute force", _check_qualification_oracle),
        ("tail-bound monotonicity", _check_hoeffding_monotonicity),
        ("election standardization", _check_election_standardization),
        ("checkpoint byte identity",
         lambda: _check_checkpoint_byte_identity(tmp_path)),
    ]
    tic = time.monotonic()
    failures = []
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:  # any breakage must surface in the one line
            failures.append(f"{name}: {exc!r}")
    elapsed = time.monotonic() - tic
    if elapsed > 300:
        failures.append(f"suite took {elapsed:.1f}s > 300s")
    _finish(5, failures,
            f"{len(checks)} dataset-free property families in "
            f"{elapsed:.1f}s (limit 300s)")
