"""Branch qualification: does a candidate branch deserve a place in the sum?

A candidate is judged on one vector: its scalar output on every
selection-set sample, split into target-class and non-target samples.
Gates (strict inequalities everywhere):

  tuning mode   -> target mean above non-target mean, and a positive
                   variance-weighted sum against the ensemble's votes;
  election mode -> precision of the thresholded (0/1) output above chance,
                   and the same weighted sum computed on the 0/1 outputs.

The Hoeffding tail bounds and loss-derivative values that motivate these
gates never gate acceptance; they live with the tests, in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def branch_threshold(values: np.ndarray, top_fraction: float) -> float:
    """Output level above which the top `top_fraction` of samples sit.

    This is `np.quantile(values, 1 - top_fraction)`, its default linear
    method, computed as NumPy computes it but from one partition of a copy:
    the same virtual index, neighbour indices (-1, the maximum, at or past
    the last), kth list, NaN rule and interpolation, so the same bits.
    """
    if not 0.0 < top_fraction < 1.0:
        raise ValueError("top_fraction must be in (0, 1)")
    values = np.array(values, dtype=np.float64).ravel()
    n = values.size
    virtual = (n - 1) * (1.0 - top_fraction)
    below = -1 if virtual >= n - 1 else math.floor(virtual)
    above = -1 if below == -1 else below + 1
    values.partition(sorted({0, -1, below, above}))
    if np.isnan(values[-1]):
        return float(values[-1])
    a, b, t = values[below], values[above], virtual - below
    diff = b - a
    return float(a + diff * t if t < 0.5 else b - diff * (1 - t))


@dataclass
class QualificationReport:
    """Each gate's result; the gate a mode does not apply reads None."""

    mean_condition: bool | None
    weighted_sum: float
    weighted_sum_pass: bool
    precision: float | None
    precision_pass: bool | None
    verdict: bool


def qualify(values: np.ndarray, labels: np.ndarray, target_class: int,
            votes: np.ndarray, mode: str, thd: float,
            n_classes: int) -> QualificationReport:
    """Apply the mode's gates to one candidate and report every gate.

    values[j] is the candidate's output on sample j; votes[j] is the
    current ensemble's class-output on sample j at its own label (existing
    network plus candidates accepted earlier in the round).  The weighted
    sum weighs each sample by (its partition's mean vote - its vote), so
    samples the ensemble under-serves get positive weight.  Weights that
    are all zero (an ensemble with no spread, e.g. an empty network) pass
    the weighted-sum gate vacuously; otherwise the sum must be positive.

    Election mode flags the samples whose value is strictly above thd,
    applies both gates to the 0/1 flags and sets chance precision at
    1/n_classes; tuning mode reads neither.  A candidate that flags no
    sample fails the precision gate.
    """
    if mode not in ("tuning", "election"):
        raise ValueError(f"unknown mode {mode!r}")
    values = np.asarray(values, dtype=np.float64)
    votes = np.asarray(votes, dtype=np.float64)
    labels = np.asarray(labels)
    if values.ndim != 1 or values.shape != labels.shape \
            or votes.shape != labels.shape:
        raise ValueError("values, labels and votes must be vectors of one "
                         "length")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite candidate output")
    target = labels == target_class
    if not target.any() or target.all():
        raise ValueError("need at least one target and one non-target sample")
    weights = np.where(target, votes[target].mean() - votes,
                       votes[~target].mean() - votes)

    mean_ok = prc = prc_ok = None
    if mode == "tuning":
        mean_ok = bool(values[target].mean() > values[~target].mean())
        gated = values
    else:
        flagged = values > thd
        gated = flagged.astype(np.float64)
        n_flagged = int(flagged.sum())
        prc_ok = False
        if n_flagged:
            prc = float(np.sum(flagged & target) / n_flagged)
            prc_ok = prc > 1.0 / n_classes
    wsum = float(np.sum(weights * gated))
    wsum_ok = bool(np.all(weights == 0.0)) or wsum > 0.0
    first_ok = mean_ok if mode == "tuning" else prc_ok
    return QualificationReport(mean_ok, wsum, wsum_ok, prc, prc_ok,
                               bool(first_ok and wsum_ok))
