"""Qualification gates against hand examples, loop oracles, and finite differences."""

import math

import numpy as np
import pytest

from namgrow.qualification import branch_threshold, qualify
from oracles import (
    binary_hoeffding_bound,
    clamp_weighted_sum,
    hoeffding_bound,
    loss_descent_diagnostics,
    softmax_cross_entropy,
)


def tuning(values, labels, target=0, votes=None):
    """Tuning-mode report; zero votes unless given (an empty ensemble).
    The threshold and class count growth passes are not read."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    votes = np.zeros(values.size) if votes is None else votes
    return qualify(values, labels, target, votes, "tuning",
                   branch_threshold(values, 0.2), int(labels.max()) + 1)


def election(values, labels, target, thd, n_classes, votes=None):
    """Election-mode report; zero votes unless given (an empty ensemble)."""
    values = np.asarray(values, dtype=np.float64)
    votes = np.zeros(values.size) if votes is None else votes
    return qualify(values, np.asarray(labels), target, votes, "election",
                   thd=thd, n_classes=n_classes)


# ------------------------------------------------------------ threshold

def test_branch_threshold_is_np_quantile_bit_for_bit():
    """One partition gives np.quantile's linear quantile to the bit: sizes
    1 to 3000, ties, duplicates, signed zeros and a NaN, several top
    fractions; the input is left as it was."""
    rng = np.random.default_rng(77)
    sizes = [*range(1, 41), *map(int, rng.integers(41, 3001, size=40)), 3000]
    fractions = (0.2, 0.01, 0.1, 0.25, 1 / 3, 0.5, 0.75, 0.99)
    for n in sizes:
        draws = (rng.normal(size=n),
                 rng.integers(-3, 4, size=n).astype(np.float64),
                 rng.choice([0.0, -0.0, 1.0, -1.0], size=n),
                 rng.choice([0.0, -0.0], size=n),
                 np.repeat(rng.normal(size=(n + 2) // 3), 3)[:n],
                 np.where(np.arange(n) == n // 2, np.nan, rng.normal(size=n)))
        for values in draws:
            before = values.tobytes()
            for top in (*fractions, float(rng.uniform(0.001, 0.999))):
                got = np.float64(branch_threshold(values, top)).tobytes()
                assert got == np.quantile(values, 1.0 - top).tobytes(), \
                    (n, top, values[:5])
            assert values.tobytes() == before


# ------------------------------------------------------------ mean condition

def test_mean_condition_basic():
    assert tuning([0.5, 0.7, 0.1, 0.2], [0, 0, 1, 1]).mean_condition is True


def test_mean_condition_equal_means_rejects():
    rep = tuning([0.3, 0.5, 0.4, 0.4], [0, 0, 1, 1])
    assert rep.mean_condition is False  # both means 0.4, strict comparison
    assert rep.verdict is False


def test_mean_condition_random_agrees_with_direct_comparison():
    rng = np.random.default_rng(42)
    vals = rng.normal(size=100)
    labels = rng.integers(0, 4, size=100)
    direct = vals[labels == 2].mean() > vals[labels != 2].mean()
    assert tuning(vals, labels, target=2).mean_condition == direct


def test_mean_condition_needs_both_partitions():
    for mode in ("tuning", "election"):
        with pytest.raises(ValueError, match="non-target"):
            qualify(np.array([1.0, 2.0]), np.array([0, 0]), 0, np.zeros(2),
                    mode, thd=1.5, n_classes=2)


# ------------------------------------------------------- clamp weighted sum

def oracle_clamp(values, labels, ct):
    """Naive double-loop transcription of the clamp-weighted sum."""
    t_vals = [v for v, l in zip(values, labels) if l == ct]
    nt_vals = [v for v, l in zip(values, labels) if l != ct]
    total = 0.0
    for v, l in zip(values, labels):
        if l == ct:
            w = max(max(nt_vals) - v, 0.0)
        else:
            w = min(min(t_vals) - v, 0.0)
        total += w * v
    return total


def test_clamp_weighted_sum_separated_is_zero():
    assert clamp_weighted_sum(np.array([1.0, 2.0, 0.1, 0.2]),
                              np.array([0, 0, 1, 1]), 0) == 0.0


def test_clamp_weighted_sum_hand_example():
    # one target at 0, one non-target at 1: weights 1 and -1, sum -1
    assert clamp_weighted_sum(np.array([0.0, 1.0]), np.array([0, 1]),
                              0) == -1.0


def test_clamp_weighted_sum_matches_loop_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(4, 20))
        labels = rng.integers(0, 3, size=n)
        labels[0], labels[1] = 0, 1  # both partitions nonempty
        vals = rng.normal(size=n)
        np.testing.assert_allclose(clamp_weighted_sum(vals, labels, 0),
                                   oracle_clamp(vals.tolist(), labels.tolist(), 0),
                                   rtol=0, atol=1e-12)


def test_clamp_weighted_sum_zero_iff_separated():
    rng = np.random.default_rng(3)
    for _ in range(50):
        labels = np.array([0, 0, 0, 1, 1, 1])
        vals = rng.normal(size=6) + 10.0  # keep everything positive
        separated = vals[:3].min() > vals[3:].max()
        if separated:
            assert clamp_weighted_sum(vals, labels, 0) == 0.0
        else:
            assert clamp_weighted_sum(vals, labels, 0) != 0.0


# ---------------------------------------------------- variance weighted sum

def oracle_variance_sum(values, labels, ct, cumulative):
    t_sums = [c for c, l in zip(cumulative, labels) if l == ct]
    nt_sums = [c for c, l in zip(cumulative, labels) if l != ct]
    e_t = sum(t_sums) / len(t_sums)
    e_nt = sum(nt_sums) / len(nt_sums)
    total = 0.0
    for v, l, c in zip(values, labels, cumulative):
        w = (e_t - c) if l == ct else (e_nt - c)
        total += w * v
    return total


def test_variance_weighted_sum_zero_variance_gives_zero():
    s = np.array([5.0, 5.0, -2.0, -2.0])  # constant within each partition
    rep = tuning([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1], votes=s)
    assert rep.weighted_sum == 0.0
    assert rep.weighted_sum_pass is True  # all-zero weights pass vacuously


def test_variance_weighted_sum_hand_example():
    # target votes 0 and 2 (mean 1) give weights 1 and -1; candidate
    # outputs 1 and 0 produce sum 1.  Non-target rows are inert.
    s = np.array([0.0, 2.0, 5.0, 5.0])
    rep = tuning([1.0, 0.0, 0.0, 0.0], [0, 0, 1, 1], votes=s)
    np.testing.assert_allclose(rep.weighted_sum, 1.0, rtol=0, atol=1e-15)
    assert rep.weighted_sum_pass is True
    rep = tuning([0.0, 1.0, 0.0, 0.0], [0, 0, 1, 1], votes=s)
    np.testing.assert_allclose(rep.weighted_sum, -1.0, rtol=0, atol=1e-15)
    assert rep.weighted_sum_pass is False and rep.verdict is False


def test_variance_weighted_sum_matches_loop_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(4, 25))
        labels = rng.integers(0, 4, size=n)
        labels[0], labels[1] = 1, 0
        vals = rng.normal(size=n)
        cum = rng.normal(size=n)
        np.testing.assert_allclose(
            tuning(vals, labels, target=1, votes=cum).weighted_sum,
            oracle_variance_sum(vals.tolist(), labels.tolist(), 1, cum.tolist()),
            rtol=0, atol=1e-10)


# ------------------------------------------------------------- binarization

def test_threshold_binarize_strict_boundary():
    # only the value strictly above thd is flagged: the sample sitting on
    # thd (label 0) would halve the precision
    rep = election([-1.0, 0.0, 1.0], [0, 0, 1], target=1, thd=0.0,
                   n_classes=2)
    assert rep.precision == 1.0


def test_threshold_binarize_below_min_flags_all():
    rep = election([0.3, 0.5, 0.9], [0, 1, 1], target=1, thd=0.2,
                   n_classes=2)
    assert rep.precision == pytest.approx(2.0 / 3.0)


def test_threshold_binarize_quantile_count_sort_oracle():
    rng = np.random.default_rng(42)
    vals = rng.normal(size=100)  # continuous, no ties
    thd = branch_threshold(vals, top_fraction=0.2)
    # the top sample is the only target one, so precision is 1/flag count
    labels = np.zeros(100, dtype=int)
    labels[np.argmax(vals)] = 1
    rep = election(vals, labels, target=1, thd=thd, n_classes=2)
    above = np.sort(vals)[::-1]
    expected = int(np.sum(above > thd))
    assert rep.precision == 1.0 / expected
    assert expected == 20  # linear-interpolated quantile sits between order stats


# ---------------------------------------------------------------- precision

def test_precision_all_target_flags():
    rep = election([1.0, 1.0, 0.0, 0.0], [3, 3, 1, 2], target=3, thd=0.5,
                   n_classes=10)
    assert rep.precision == 1.0 and rep.precision_pass is True
    assert rep.mean_condition is None


def test_precision_chance_level_fails_strictly():
    labels = np.repeat(np.arange(10), 5)
    rep = election(np.ones(50), labels, target=4, thd=0.5, n_classes=10)
    assert rep.precision == pytest.approx(0.1)
    # exactly 1/N_c, strict comparison rejects
    assert rep.precision_pass is False and rep.verdict is False


def test_precision_counting_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(5, 40))
        labels = rng.integers(0, 5, size=n)
        labels[0], labels[1] = 2, 3  # both partitions nonempty
        flags = (rng.uniform(size=n) < 0.5).astype(float)
        if flags.sum() == 0:
            flags[0] = 1.0
        hits = sum(1 for f, l in zip(flags, labels) if f > 0 and l == 2)
        rep = election(flags, labels, target=2, thd=0.5, n_classes=5)
        assert rep.precision == pytest.approx(hits / flags.sum())
        assert rep.precision_pass == (rep.precision > 0.2)


def test_precision_no_flags_fails_the_gate():
    rep = election(np.zeros(4), [0, 1, 2, 3], target=0, thd=0.0, n_classes=4)
    assert rep.precision is None
    assert rep.precision_pass is False and rep.verdict is False


def test_precision_permutation_invariant():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 5, size=30)
    labels[:2] = [1, 0]
    flags = (rng.uniform(size=30) < 0.4).astype(float)
    flags[0] = 1.0
    one = election(flags, labels, target=1, thd=0.5, n_classes=5)
    perm = rng.permutation(30)
    two = election(flags[perm], labels[perm], target=1, thd=0.5, n_classes=5)
    assert one.precision == two.precision


# ------------------------------------------------------------------ qualify

def test_qualify_perfect_separator_passes_both_modes():
    vals = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    labels = np.array([2, 2, 2, 0, 1, 3])
    # empty ensemble: the weighted sum passes vacuously
    rep = tuning(vals, labels, target=2)
    assert rep.verdict and rep.mean_condition
    assert rep.precision is None and rep.precision_pass is None
    rep = election(vals, labels, target=2, thd=0.5, n_classes=4)
    assert rep.verdict and rep.precision == 1.0


def test_qualify_constant_output_rejected_both_modes():
    vals = np.full(8, 0.7)
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    assert not tuning(vals, labels).verdict  # equal means
    rep = election(vals, labels, target=0, thd=0.7, n_classes=4)
    assert not rep.verdict  # nothing strictly above thd -> no flags


def test_qualify_injected_separation_matches_condition_oracle():
    rng = np.random.default_rng(42)
    labels = np.repeat(np.arange(4), 5)
    vals = rng.normal(scale=0.1, size=20)
    vals[labels == 1] += 0.3
    cum = rng.normal(size=20)
    rep = tuning(vals, labels, target=1, votes=cum)
    mean_ok = vals[labels == 1].mean() > vals[labels != 1].mean()
    wsum = oracle_variance_sum(vals.tolist(), labels.tolist(), 1, cum.tolist())
    assert rep.verdict == (mean_ok and wsum > 0)
    np.testing.assert_allclose(rep.weighted_sum, wsum, rtol=0, atol=1e-10)


def test_qualify_rejects_malformed_arguments():
    labels = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError, match="unknown mode"):
        qualify(np.ones(4), labels, 0, np.zeros(4), "voting", 0.5, 2)
    with pytest.raises(ValueError, match="one length"):
        qualify(np.ones(4), labels, 0, np.zeros(3), "tuning", 0.5, 2)
    with pytest.raises(ValueError, match="non-finite"):
        qualify(np.array([1.0, np.nan, 0.0, 0.0]), labels, 0, np.zeros(4),
                "tuning", 0.5, 2)


def oracle_qualify(values, labels, ct, mode, cumulative, thd, n_classes):
    """Condition-by-condition loop re-derivation of the verdict."""
    work = values if mode == "tuning" else [1.0 if v > thd else 0.0 for v in values]
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


def test_qualify_matches_oracle_on_100_random_tables():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n_classes = int(rng.integers(2, 6))
        n = int(rng.integers(2 * n_classes, 40))
        labels = rng.integers(0, n_classes, size=n)
        ct = int(rng.integers(n_classes))
        labels[0] = ct
        labels[1] = (ct + 1) % n_classes
        vals = rng.normal(size=n)
        if trial % 3 == 0:
            cum = np.zeros(n)  # degenerate ensemble -> vacuous weighted sum
        else:
            cum = rng.normal(size=n)
        mode = "tuning" if trial % 2 == 0 else "election"
        thd = float(np.quantile(vals, 0.8))
        rep = qualify(vals, labels, ct, cum, mode, thd=thd,
                      n_classes=n_classes)
        expected = oracle_qualify(vals.tolist(), labels.tolist(), ct, mode,
                                  cum.tolist(), thd, n_classes)
        assert rep.verdict == expected, f"trial {trial}"


def test_qualify_verdict_invariant_under_sample_duplication():
    rng = np.random.default_rng(11)
    for mode in ("tuning", "election"):
        labels = rng.integers(0, 4, size=16)
        labels[:2] = [0, 1]
        vals = rng.normal(size=16)
        cum = rng.normal(size=16)
        thd = float(np.quantile(vals, 0.8))
        one = qualify(vals, labels, 0, cum, mode, thd=thd, n_classes=4)
        two = qualify(np.tile(vals, 2), np.tile(labels, 2), 0,
                      np.tile(cum, 2), mode, thd=thd, n_classes=4)
        assert one.verdict == two.verdict
        assert one.precision == two.precision


# ----------------------------------------------------------- Hoeffding

def test_hoeffding_bound_zero_t_capped_at_one():
    assert hoeffding_bound(0.0, [[0.0, 1.0]]) == 1.0


def test_hoeffding_bound_unit_interval_value():
    got = hoeffding_bound(1.0, [[0.0, 1.0]])
    np.testing.assert_allclose(got, 2.0 * math.exp(-2.0), rtol=0, atol=1e-15)
    np.testing.assert_allclose(got, 0.2706705664732254, rtol=0, atol=1e-15)


def test_hoeffding_bound_monotone_in_t():
    rng = np.random.default_rng(42)
    bounds = np.sort(rng.normal(size=(8, 2)), axis=1)
    ts = np.linspace(0.0, 10.0, 200)
    vals = [hoeffding_bound(t, bounds) for t in ts]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_hoeffding_bound_degenerate_intervals():
    assert hoeffding_bound(0.5, [[1.0, 1.0], [2.0, 2.0]]) == 0.0
    assert hoeffding_bound(0.0, [[1.0, 1.0]]) == 1.0
    with pytest.raises(ValueError):
        hoeffding_bound(-1.0, [[0.0, 1.0]])
    with pytest.raises(ValueError):
        hoeffding_bound(1.0, [[1.0, 0.0]])


def test_binary_hoeffding_values():
    np.testing.assert_allclose(binary_hoeffding_bound(0.1, 75),
                               math.exp(-1.5), rtol=0, atol=1e-15)
    np.testing.assert_allclose(binary_hoeffding_bound(0.1, 75),
                               0.22313016014842982, rtol=0, atol=1e-15)
    assert binary_hoeffding_bound(1e-9, 10) == pytest.approx(1.0)


def test_binary_hoeffding_log_linear_in_n():
    for eps in (0.05, 0.1, 0.3):
        b1 = binary_hoeffding_bound(eps, 50)
        b2 = binary_hoeffding_bound(eps, 100)
        np.testing.assert_allclose(math.log(b2), 2 * math.log(b1),
                                   rtol=1e-12, atol=0)


def test_binary_hoeffding_monotone_in_eps():
    vals = [binary_hoeffding_bound(e, 30) for e in np.linspace(0.01, 0.99, 99)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        binary_hoeffding_bound(0.0, 10)
    with pytest.raises(ValueError):
        binary_hoeffding_bound(0.5, 0)


# ------------------------------------------------- loss-descent diagnostics

def test_loss_diagnostics_uniform_logits_hand_value():
    # zero candidate output, uniform logits over 10 classes: odds 9, descent 0.9
    logits = np.zeros((2, 10))
    tau, value = loss_descent_diagnostics(np.zeros(2), np.array([3, 5]), 3,
                                          logits)
    np.testing.assert_allclose(tau, [9.0, 9.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(value[0], 0.9, rtol=0, atol=1e-12)   # descent
    np.testing.assert_allclose(value[1], 0.1, rtol=0, atol=1e-12)   # increase


def test_loss_diagnostics_limits():
    labels = np.array([0, 1])
    logits = np.zeros((2, 4))
    tau, value = loss_descent_diagnostics(np.full(2, 50.0), labels, 0, logits)
    assert np.all(tau < 1e-12)
    # huge contribution: target descent saturates to 0 gain... the value
    # 1 - 1/(tau+1) -> 0 as tau -> 0; and tau -> inf gives descent -> 1
    tau2, value2 = loss_descent_diagnostics(np.full(2, -50.0), labels, 0,
                                            logits)
    assert tau2[0] > 1e12
    np.testing.assert_allclose(value2[0], 1.0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(value2[1], 0.0, rtol=0, atol=1e-9)


def test_loss_diagnostics_match_finite_differences():
    rng = np.random.default_rng(42)
    n, n_classes, ct = 12, 10, 4
    labels = rng.integers(0, n_classes, size=n)
    labels[0] = ct
    logits = rng.normal(scale=2.0, size=(n, n_classes))
    contrib = rng.normal(size=n)
    _, value = loss_descent_diagnostics(contrib, labels, ct, logits)

    h = 1e-5
    for j in range(n):
        def loss_at(delta):
            z = logits[j].copy()
            z[ct] += contrib[j] + delta
            return softmax_cross_entropy(z, int(labels[j]))[0]
        fd = (loss_at(h) - loss_at(-h)) / (2 * h)
        expected = -fd if labels[j] == ct else fd
        assert abs(value[j] - expected) < 1e-6
