"""Forward/backward/optimizer checks against naive-loop and finite-difference oracles."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from namgrow import nn_core
from namgrow.nn_core import (
    AdamState,
    BranchMlp,
    DenseLayer,
    adam_step,
    init_branch_mlp,
    mlp_forward_batch,
    mlp_parameter_count,
    softmax_cross_entropy_batch,
    softmax_cross_entropy_loss,
)
from oracles import (
    branch_mlp,
    mlp_backward,
    mlp_forward,
    mlp_forward_batch_row_major,
    softmax_cross_entropy,
)

# Column counts around the forward's block: one short, one block, a lone
# column past it, and a lone column past two blocks.
BLOCK = nn_core._FORWARD_BLOCK
BLOCK_ROWS = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]
# Row counts for the kernel's differential test: every tiny n (the GEMM's
# long dimension), a ragged medium one, the block edges, the eval chunk and
# past it.
KERNEL_ROWS = list(range(1, 18)) + [127, 2000, 8192, 10000] + BLOCK_ROWS
# Row counts of the C-contiguous feature-major operand the window gather
# hands the kernel.
FEATURE_MAJOR_ROWS = (1, 2, 7, 128, 8192, 10000, *BLOCK_ROWS)


def naive_forward(mlp, x):
    """Scalar-loop re-computation of the forward pass (oracle)."""
    h = [float(v) for v in x]
    for layer in mlp.hidden_layers:
        out = []
        for i in range(layer.out_dim):
            acc = float(layer.bias[i])
            for j in range(layer.in_dim):
                acc += float(layer.weights[i, j]) * h[j]
            if acc < 0.0:
                acc = 0.0
            out.append(acc)
        h = out
    final = []
    for i in range(mlp.output_layer.out_dim):
        acc = 0.0
        for j in range(mlp.output_layer.in_dim):
            acc += float(mlp.output_layer.weights[i, j]) * h[j]
        final.append(acc)
    return np.array(final)


def flatten_params(mlp):
    arrays = []
    for layer in mlp.hidden_layers:
        arrays.append(layer.weights)
        arrays.append(layer.bias)
    arrays.append(mlp.output_layer.weights)
    return arrays


def flatten_grads(grads):
    arrays = []
    for dw, db in grads.hidden:
        arrays.append(dw)
        arrays.append(db)
    arrays.append(grads.output)
    return arrays


def test_forward_matches_naive_loop():
    rng = np.random.default_rng(42)
    mlp = init_branch_mlp(rng, n_classes=10)
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, size=9)
        np.testing.assert_allclose(mlp_forward(mlp, x), naive_forward(mlp, x),
                                   rtol=0, atol=1e-10)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(7)
    mlp = init_branch_mlp(rng, n_classes=4)
    xs = rng.uniform(-0.5, 0.5, size=(30, 9))
    batch = mlp_forward_batch(mlp, xs.T)
    singles = np.stack([mlp_forward(mlp, x) for x in xs])
    np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-12)


def test_init_branch_mlp_is_the_oracle_builder_at_its_defaults():
    """The library's fixed 9-wide, four-layer builder draws the same MLP
    as the tests' builder at its defaults."""
    got = init_branch_mlp(np.random.default_rng(3), 10)
    want = branch_mlp(np.random.default_rng(3), 10)
    assert len(got.hidden_layers) == 4
    for a, b in zip([*got.hidden_layers, got.output_layer],
                    [*want.hidden_layers, want.output_layer]):
        assert np.array_equal(a.weights, b.weights)
        assert (a.bias is None and b.bias is None
                or np.array_equal(a.bias, b.bias))


def _kernel_mlps(hidden_width=9):
    """MLPs of several depths on 9-pixel windows, with nonzero biases."""
    rng = np.random.default_rng(2024)
    mlps = []
    for n_hidden, n_classes in ((4, 10), (2, 3), (1, 7), (3, 2)):
        mlp = branch_mlp(rng, n_classes, hidden_width=hidden_width,
                         n_hidden=n_hidden)
        for layer in mlp.hidden_layers:
            layer.bias[:] = rng.normal(scale=0.3, size=layer.bias.shape)
        mlps.append(mlp)
    return mlps


@pytest.mark.parametrize("order", ["C", "F"])
def test_forward_batch_is_bit_equal_to_row_major_forward(order):
    """Bit equality holds for the 9-wide MLPs the library builds; the GEMMs
    are W @ h over 9 inputs, for any n and either layout of the
    feature-major operand x.T."""
    rng = np.random.default_rng(31)
    for mlp in _kernel_mlps():
        for n in KERNEL_ROWS:
            x = np.asarray(rng.uniform(-0.5, 0.5, size=(n, mlp.in_dim)),
                           order=order)
            got = mlp_forward_batch(mlp, x.T)
            want = mlp_forward_batch_row_major(mlp, x)
            assert got.shape == (n, mlp.n_classes)
            assert got.flags.c_contiguous
            assert np.array_equal(got, want), (len(mlp.hidden_layers), n,
                                               order)


def test_forward_batch_of_wide_mlps_agrees_to_rounding():
    """Wider hidden layers can take other BLAS kernels in the two layouts,
    so only agreement to float64 rounding is required there."""
    rng = np.random.default_rng(32)
    for width in (5, 16, 32):
        for mlp in _kernel_mlps(hidden_width=width):
            for n in (2, 17, 255, 2000):
                x = rng.uniform(-0.5, 0.5, size=(n, mlp.in_dim))
                np.testing.assert_allclose(
                    mlp_forward_batch(mlp, x.T),
                    mlp_forward_batch_row_major(mlp, x), rtol=1e-12,
                    atol=1e-13)


def test_forward_temporaries_stay_within_two_blocks():
    """At paper scale (n = 50,000) the forward holds no more than two
    [9, block] float64 temporaries beside its output, whose allocator
    reuses them from the heap rather than mapping fresh pages per call."""
    mlp = _kernel_mlps()[0]
    x = np.random.default_rng(9).uniform(-0.5, 0.5, size=(9, 50_000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = mlp_forward_batch(mlp, x)
        peak = tracemalloc.get_traced_memory()[1] - before - y.nbytes
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 9 * BLOCK * 8 + 4096


@pytest.mark.parametrize("n", [1, 2, 1024, 1025, 1026, 3000])
def test_forward_into_a_buffer_equals_a_fresh_forward(n):
    """A forward written into a caller's buffer returns that buffer with a
    fresh call's bytes, whatever the buffer held: it starts full of NaN,
    and a second MLP's forward into it leaves none of the first's rows."""
    rng = np.random.default_rng(n)
    x = rng.uniform(-0.5, 0.5, size=(9, n))
    buffer = np.full((n, 10), np.nan)
    for mlp in (init_branch_mlp(rng, 10), init_branch_mlp(rng, 10)):
        assert mlp_forward_batch(mlp, x, buffer) is buffer
        assert buffer.tobytes() == mlp_forward_batch(mlp, x).tobytes()


@pytest.mark.parametrize("buffer", [
    np.empty((5, 9)), np.empty((4, 10)), np.empty((5, 10), dtype=np.float32),
    np.empty((10, 5)).T], ids=["classes", "rows", "float32", "f-order"])
def test_forward_refuses_a_buffer_of_another_layout(buffer):
    mlp = init_branch_mlp(np.random.default_rng(0), 10)
    with pytest.raises(ValueError, match="output buffer"):
        mlp_forward_batch(mlp, np.zeros((9, 5)), buffer)


def test_forward_batch_leaves_its_input_alone():
    rng = np.random.default_rng(8)
    mlp = _kernel_mlps()[0]
    x = rng.uniform(-0.5, 0.5, size=(9, 50))
    before = x.copy()
    mlp_forward_batch(mlp, x)
    assert np.array_equal(x, before)


def feature_major_mismatches() -> list:
    """(depth, n) of each kernel MLP and row count at which the forward on
    a C-contiguous [9, n] operand differs in any bit from the row-major
    forward on its [n, 9] rows."""
    rng = np.random.default_rng(33)
    mismatches = []
    for mlp in _kernel_mlps():
        for n in FEATURE_MAJOR_ROWS:
            rows = rng.uniform(-0.5, 0.5, size=(n, mlp.in_dim))
            got = mlp_forward_batch(mlp, np.ascontiguousarray(rows.T))
            if not np.array_equal(got, mlp_forward_batch_row_major(mlp, rows)):
                mismatches.append((len(mlp.hidden_layers), n))
    return mismatches


def test_contiguous_feature_major_forward_is_bit_equal_to_row_major():
    """The window gather's operand is a C-contiguous [9, n] array, not the
    transpose of [n, 9] rows; the forward on it must keep the bits."""
    assert feature_major_mismatches() == []


def test_contiguous_feature_major_forward_is_bit_equal_at_two_blas_threads():
    """The same bit equality in a fresh process whose BLAS runs 2 threads:
    the thread cap only takes effect before NumPy is first imported."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(nn_core.__file__).parents[1]), str(tests),
         env.get("PYTHONPATH", "")])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "2"
    proc = subprocess.run(
        [sys.executable, "-c", "import test_nn_core; "
         "print(test_nn_core.feature_major_mismatches())"],
        env=env, cwd=tests, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_forward_is_pure_and_deterministic():
    rng = np.random.default_rng(3)
    mlp = init_branch_mlp(rng, n_classes=10)
    x = rng.uniform(-0.5, 0.5, size=9)
    before = [a.copy() for a in flatten_params(mlp)]
    y1 = mlp_forward(mlp, x)
    y2 = mlp_forward(mlp, x)
    assert np.array_equal(y1, y2)  # bit-identical
    for a, b in zip(flatten_params(mlp), before):
        assert np.array_equal(a, b)


def test_parameter_count_small_branch():
    rng = np.random.default_rng(0)
    mlp = init_branch_mlp(rng, n_classes=10)
    # 4 hidden layers of (9x9 + 9) plus a bias-free 10x9 output.
    assert mlp_parameter_count(mlp) == 4 * (81 + 9) + 90


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(42)
    mlp = init_branch_mlp(rng, n_classes=10)
    x = rng.uniform(-0.5, 0.5, size=9)
    upstream = rng.normal(size=10)
    grads = flatten_grads(mlp_backward(mlp, x, upstream))
    params = flatten_params(mlp)

    h = 1e-5
    for p, g in zip(params, grads):
        flat = p.reshape(-1)
        it = rng.choice(flat.size, size=min(20, flat.size), replace=False)
        for idx in it:
            orig = flat[idx]
            flat[idx] = orig + h
            up = float(upstream @ mlp_forward(mlp, x))
            flat[idx] = orig - h
            down = float(upstream @ mlp_forward(mlp, x))
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            an = g.reshape(-1)[idx]
            denom = max(abs(fd), abs(an), 1e-8)
            assert abs(fd - an) / denom < 1e-4, (fd, an)


def test_backward_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    mlp = init_branch_mlp(rng, n_classes=5)
    x = rng.uniform(-0.5, 0.5, size=9)
    upstream = rng.normal(size=5)
    gin = mlp_backward(mlp, x, upstream).input
    h = 1e-5
    for j in range(9):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        fd = float(upstream @ mlp_forward(mlp, xp) - upstream @ mlp_forward(mlp, xm)) / (2 * h)
        denom = max(abs(fd), abs(gin[j]), 1e-8)
        assert abs(fd - gin[j]) / denom < 1e-4


def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(5)
    mlp = init_branch_mlp(rng, n_classes=3)
    x = rng.uniform(-0.5, 0.5, size=9)
    grads = mlp_backward(mlp, x, np.zeros(3))
    for g in flatten_grads(grads):
        assert np.all(g == 0.0)


def test_softmax_cross_entropy_uniform_logits():
    # Equal logits over 10 classes: loss is the log of the class count.
    loss, grad = softmax_cross_entropy(np.zeros(10), 3)
    np.testing.assert_allclose(loss, np.log(10.0), rtol=0, atol=1e-12)
    expected = np.full(10, 0.1)
    expected[3] -= 1.0
    np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-12)


def test_softmax_cross_entropy_gradient_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(10):
        logits = rng.normal(scale=3.0, size=10)
        label = int(rng.integers(10))
        _, grad = softmax_cross_entropy(logits, label)
        h = 1e-6
        for j in range(10):
            lp, lm = logits.copy(), logits.copy()
            lp[j] += h
            lm[j] -= h
            fd = (softmax_cross_entropy(lp, label)[0]
                  - softmax_cross_entropy(lm, label)[0]) / (2 * h)
            assert abs(fd - grad[j]) < 1e-6, (fd, grad[j])


def test_softmax_cross_entropy_gradient_sums_to_zero():
    rng = np.random.default_rng(2)
    for _ in range(50):
        logits = rng.normal(scale=5.0, size=7)
        _, grad = softmax_cross_entropy(logits, int(rng.integers(7)))
        assert abs(grad.sum()) < 1e-12


def test_softmax_cross_entropy_extreme_logits_stable():
    loss, grad = softmax_cross_entropy(np.array([1e4, 0.0, -1e4]), 0)
    assert np.isfinite(loss) and np.all(np.isfinite(grad))
    loss, grad = softmax_cross_entropy(np.array([1e4, 0.0, -1e4]), 2)
    assert np.isfinite(loss) and np.all(np.isfinite(grad))


def test_softmax_cross_entropy_batch_matches_single():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(16, 10))
    labels = rng.integers(0, 10, size=16)
    loss_b, grad_b = softmax_cross_entropy_batch(logits, labels)
    losses, grads = zip(*[softmax_cross_entropy(l, int(y))
                          for l, y in zip(logits, labels)])
    np.testing.assert_allclose(loss_b, np.mean(losses), rtol=0, atol=1e-12)
    np.testing.assert_allclose(grad_b, np.stack(grads) / 16, rtol=0, atol=1e-12)


def test_loss_only_cross_entropy_equals_batch_loss():
    rng = np.random.default_rng(19)
    for n, c, scale in ((1, 2, 1.0), (16, 10, 3.0), (2000, 10, 30.0),
                        (777, 4, 1e3)):
        logits = rng.normal(scale=scale, size=(n, c))
        labels = rng.integers(0, c, size=n)
        loss = softmax_cross_entropy_loss(logits, labels)
        assert isinstance(loss, float)
        assert loss == softmax_cross_entropy_batch(logits, labels)[0]


def test_loss_only_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError, match="label out of range"):
        softmax_cross_entropy_loss(np.zeros((3, 4)), np.array([0, 4, 1]))


def hand_adam(params, grads_seq, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Transcribed Adam recurrence, scalar loops (oracle)."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_seq, start=1):
        for k, g in enumerate(grads):
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            m_hat = m[k] / (1 - b1 ** t)
            v_hat = v[k] / (1 - b2 ** t)
            params[k] = params[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def test_adam_three_steps_match_hand_recurrence():
    rng = np.random.default_rng(42)
    params = [rng.normal(size=(4, 3)), rng.normal(size=4)]
    grads_seq = [[rng.normal(size=(4, 3)), rng.normal(size=4)] for _ in range(3)]
    expected = hand_adam(params, grads_seq)

    live = [p.copy() for p in params]
    state = AdamState(live, lr=1e-3)
    for grads in grads_seq:
        adam_step(state, live, grads)
    for got, want in zip(live, expected):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_adam_zero_gradient_is_noop():
    rng = np.random.default_rng(1)
    params = [rng.normal(size=(3, 3))]
    before = params[0].copy()
    state = AdamState(params, lr=1e-3)
    adam_step(state, params, [np.zeros((3, 3))])
    np.testing.assert_allclose(params[0], before, rtol=0, atol=0)


def test_adam_counter_increments():
    before = nn_core.optimizer_step_count()
    params = [np.ones(3)]
    state = AdamState(params, lr=1e-3)
    adam_step(state, params, [np.ones(3)])
    adam_step(state, params, [np.ones(3)])
    assert nn_core.optimizer_step_count() - before == 2


def test_adam_rejects_shape_mismatch():
    params = [np.ones((2, 2))]
    state = AdamState(params, lr=1e-3)
    with pytest.raises(ValueError):
        adam_step(state, params, [np.ones(3)])


def test_dense_layer_validation():
    with pytest.raises(ValueError):
        DenseLayer(np.ones((3, 2)), np.ones(2))  # bias length mismatch
    with pytest.raises(ValueError):
        DenseLayer(np.array([[np.nan]]))
    with pytest.raises(ValueError, match="bias-free"):
        BranchMlp([DenseLayer(np.ones((9, 9)), np.ones(9))],
                  DenseLayer(np.ones((2, 9)), np.ones(2)))
    with pytest.raises(ValueError, match="at least one hidden layer"):
        BranchMlp([], DenseLayer(np.ones((2, 9))))


def test_branch_mlp_requires_every_hidden_layer_biased():
    hidden = [DenseLayer(np.ones((9, 9)), np.ones(9)),
              DenseLayer(np.ones((9, 9)), None)]
    with pytest.raises(ValueError, match="^hidden layer 1 has no bias$"):
        BranchMlp(hidden, DenseLayer(np.ones((2, 9))))


def test_forward_rejects_bad_shapes():
    rng = np.random.default_rng(0)
    mlp = init_branch_mlp(rng, n_classes=10)
    with pytest.raises(ValueError):
        mlp_forward(mlp, np.zeros(8))
    with pytest.raises(ValueError):
        mlp_backward(mlp, np.zeros(9), np.zeros(9))
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros(5), 5)
