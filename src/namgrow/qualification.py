"""Branch qualification: does a candidate branch deserve a place in the sum?

A candidate is judged on a class-output table: its scalar output on every
selection-set sample, partitioned into target-class and non-target samples.
Gates (strict inequalities everywhere):

  tuning mode   -> target mean above non-target mean, and a positive
                   variance-weighted sum against the ensemble's cumulative
                   outputs;
  election mode -> precision of the thresholded (0/1) output above chance,
                   and the same weighted sum computed on the 0/1 outputs.

The Hoeffding tail bounds and loss-derivative values that motivate these
gates never gate acceptance; they live with the tests, in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UndefinedPrecisionError(ValueError):
    """No sample was flagged, so precision has an empty denominator."""


@dataclass
class ClassOutputTable:
    """Per-sample scalar outputs of candidate branches on a labelled sample set.

    values[j, k] is candidate k's class-output on sample j.
    """

    values: np.ndarray        # [n_samples, n_branches]
    labels: np.ndarray        # [n_samples]
    target_class: int

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        self.labels = np.asarray(self.labels)
        if self.values.shape[0] != self.labels.shape[0]:
            raise ValueError("values/labels length mismatch")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite class-output value")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    def target_mask(self) -> np.ndarray:
        return self.labels == self.target_class


def _partitions(table: ClassOutputTable) -> tuple[np.ndarray, np.ndarray]:
    t = table.target_mask()
    if not t.any() or t.all():
        raise ValueError("need at least one target and one non-target sample")
    return t, ~t


def mean_condition(table: ClassOutputTable, k: int) -> bool:
    """Target-sample mean strictly above non-target mean."""
    t, nt = _partitions(table)
    col = table.values[:, k]
    return bool(col[t].mean() > col[nt].mean())


def variance_weighted_sum(table: ClassOutputTable, k: int,
                          cumulative_sums: np.ndarray) -> float:
    """Weighted sum steering candidates toward reducing ensemble variance.

    cumulative_sums[j] is the current ensemble's class-output on sample j at
    that sample's own label class (existing network plus candidates accepted
    earlier in the round).  Weights are (partition mean - cumulative sum), so
    samples the ensemble under-serves get positive weight.
    """
    t, nt = _partitions(table)
    s = np.asarray(cumulative_sums, dtype=np.float64)
    if s.shape != (table.n_samples,):
        raise ValueError("cumulative sums length mismatch")
    w = np.where(t, s[t].mean() - s, s[nt].mean() - s)
    return float(np.sum(w * table.values[:, k]))


def _zero_weights(table: ClassOutputTable, cumulative_sums: np.ndarray) -> bool:
    """True when every variance weight is exactly zero (degenerate ensemble)."""
    t, nt = _partitions(table)
    s = np.asarray(cumulative_sums, dtype=np.float64)
    w = np.where(t, s[t].mean() - s, s[nt].mean() - s)
    return bool(np.all(w == 0.0))


def branch_threshold(values: np.ndarray, top_fraction: float = 0.2) -> float:
    """Output level above which the top `top_fraction` of samples sit."""
    if not 0.0 < top_fraction < 1.0:
        raise ValueError("top_fraction must be in (0, 1)")
    return float(np.quantile(np.asarray(values, dtype=np.float64),
                             1.0 - top_fraction))


def threshold_binarize(values: np.ndarray, thd: float) -> np.ndarray:
    """1.0 where value strictly exceeds thd, else 0.0."""
    return (np.asarray(values, dtype=np.float64) > thd).astype(np.float64)


def precision_condition(flags: np.ndarray, labels: np.ndarray,
                        target_class: int, n_classes: int) -> tuple[float, bool]:
    """Fraction of flagged samples that are target-class; pass iff above 1/N_c."""
    flags = np.asarray(flags, dtype=np.float64)
    flagged = flags > 0.0
    n_flagged = int(flagged.sum())
    if n_flagged == 0:
        raise UndefinedPrecisionError("no sample flagged; precision undefined")
    prc = float(np.sum(flagged & (np.asarray(labels) == target_class)) / n_flagged)
    return prc, prc > 1.0 / n_classes


@dataclass
class QualificationReport:
    branch: int
    target_class: int
    mode: str
    mean_condition: bool | None
    weighted_sum: float
    weighted_sum_pass: bool
    precision: float | None
    precision_pass: bool | None
    threshold: float | None
    verdict: bool


def qualify(table: ClassOutputTable, k: int, mode: str,
            cumulative_sums: np.ndarray,
            thd: float | None = None,
            n_classes: int | None = None) -> QualificationReport:
    """Apply the mode's gates to candidate k and report every condition.

    Election mode thresholds the candidate's outputs at thd, applies both
    gates to the 0/1 values and sets chance precision at 1/n_classes; it
    requires thd and n_classes.  A weight vector that is
    identically zero (an ensemble with no spread, e.g. an empty network)
    passes the weighted-sum gate vacuously; otherwise strictly positive sums
    are required.
    """
    if mode not in ("tuning", "election"):
        raise ValueError(f"unknown mode {mode!r}")
    vacuous = _zero_weights(table, cumulative_sums)

    if mode == "tuning":
        mean_ok = mean_condition(table, k)
        wsum = variance_weighted_sum(table, k, cumulative_sums)
        wsum_ok = vacuous or wsum > 0.0
        return QualificationReport(
            branch=k, target_class=int(table.target_class), mode=mode,
            mean_condition=mean_ok, weighted_sum=wsum,
            weighted_sum_pass=wsum_ok, precision=None, precision_pass=None,
            threshold=None, verdict=bool(mean_ok and wsum_ok))

    if thd is None:
        raise ValueError("election mode requires a threshold")
    if n_classes is None:
        raise ValueError("election mode requires the class count")
    flags = threshold_binarize(table.values[:, k], thd)
    try:
        prc, prc_ok = precision_condition(flags, table.labels,
                                          table.target_class, n_classes)
    except UndefinedPrecisionError:
        prc, prc_ok = None, False
    binary_table = ClassOutputTable(flags[:, None], table.labels,
                                    table.target_class)
    wsum = variance_weighted_sum(binary_table, 0, cumulative_sums)
    wsum_ok = vacuous or wsum > 0.0
    return QualificationReport(
        branch=k, target_class=int(table.target_class), mode=mode,
        mean_condition=None, weighted_sum=wsum, weighted_sum_pass=wsum_ok,
        precision=prc, precision_pass=prc_ok, threshold=float(thd),
        verdict=bool(prc_ok and wsum_ok))
