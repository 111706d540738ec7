"""Iterative network growth: match, qualify, add, fit, keep or roll back.

Both ways of growing run one loop, `grow_iteration`.  Candidate placements
of source branches are matched by cluster distance, qualified on a
class-balanced selection set and added in batches.  The batch is fitted on
the training set, scored into the cached scores of every split, and kept
only when the selection-set loss did not increase.  The network's mode
decides the rest:

- same-task growth runs in tuning mode: each added branch sits behind a
  class mask whose two scalars are tuned for a couple of epochs;
- trans-task transfer runs in election mode: each added branch emits a
  0/1 flag, z-scored with statistics fitted on the new task's training set,
  and a batch is also rolled back when the selection-set accuracy drops.
  No gradient step ever runs in election mode.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .clustering import ClusterConfig, cluster_network, source_digest
from .data_io import Dataset, InputRange, base_grid_ranges, extract_patches
from .matching import (
    NormalizationStats,
    PreparedSummaries,
    match_all,
    normalize_sorted,
    prepare_summaries,
    stats_from_points,
    transfer_first_layer,
)
from .nam_model import (
    SIGMA_FLOOR,
    Branch,
    ClassMask,
    NamNetwork,
    add_branch_output,
    added_branch_output,
    apply_class_mask,
    branch_outputs,
    branch_parameter_count,
    class_mask_grads,
    network_scores,
    parameter_count,
    score_accuracy,
)
from .nn_core import (
    AdamState,
    BranchMlp,
    DenseLayer,
    adam_step,
    mlp_forward_batch,
    softmax_cross_entropy_batch,
    softmax_cross_entropy_loss,
)
from .qualification import branch_threshold, qualify

log = logging.getLogger(__name__)


@dataclass
class GrowthConfig:
    """Knobs of the growth loop; the network's mode picks tuning or election
    behaviour."""

    selection_size: int = 5000
    max_per_iteration: int = 64
    tuning_epochs: int = 2
    mask_learning_rate: float = 1e-2
    mask_batch_size: int = 128
    keep_fraction: float = 0.8       # matching partial-average keep share
    top_fraction: float = 0.2        # samples above the branch threshold
    reference_per_class: int = 100   # images per class used for matching
    seed: int = 0
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    def __post_init__(self):
        if self.selection_size < 1:
            raise ValueError("selection_size must be >= 1")
        if self.max_per_iteration < 1:
            raise ValueError("max_per_iteration must be >= 1")
        if self.tuning_epochs < 0:
            raise ValueError("tuning_epochs must be >= 0")
        if not self.mask_learning_rate > 0.0:
            raise ValueError("mask_learning_rate must be positive")
        if self.mask_batch_size < 1:
            raise ValueError("mask_batch_size must be >= 1")
        if not 0.0 < self.top_fraction < 1.0:
            raise ValueError("top_fraction must be in (0, 1)")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        if self.reference_per_class < 2:
            raise ValueError("reference_per_class must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class IterationRecord:
    """One growth-log line; metric values are post-decision."""

    iteration: int
    candidates_seen: int
    accepted: int
    rejected: int
    selection_loss: float
    test_loss: float
    test_accuracy: float
    branch_count: int
    parameter_count: int

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))


@dataclass
class BranchPoint:
    """Metric point recorded after each individual accepted branch."""

    iteration: int
    branch_count: int
    accuracy: float                  # test accuracy
    loss: float


class Winner(NamedTuple):
    """A summary that won a target class at one window, before transfer.

    `row` indexes the prepared summaries.  `input_range` and `ref_stats`
    (the target class's reference statistics there) are shared by all of
    the window's winners, so a pending winner holds no arrays of its own.
    """

    source_branch_id: int
    row: int
    target_class: int
    distance: float
    input_range: InputRange
    ref_stats: NormalizationStats


@dataclass
class CandidateBranch:
    """A matched placement: source branch, its class, and the target class
    at one input range.  `mlp` is the transferred first layer on top of the
    source's own deeper layer objects; a kept branch holds it as it is."""

    source_branch_id: int
    branch_class: int
    target_class: int
    input_range: InputRange
    distance: float
    mlp: BranchMlp


@dataclass(eq=False)
class ScoredSplit:
    """A dataset split and what `network_scores` gives for the current
    network on it: the summed class-outputs in tuning mode, the summed
    z-scores in election mode.  `accuracy` and `loss` are computed the first
    time they are read after the scores change."""

    data: Dataset
    scores: np.ndarray

    @functools.cached_property
    def accuracy(self) -> float:
        return score_accuracy(self.scores, self.data.labels)

    @functools.cached_property
    def loss(self) -> float:
        return softmax_cross_entropy_loss(self.scores, self.data.labels)

    def add(self, branches: list[Branch], raw_values: list[np.ndarray],
            mode: str) -> list[np.ndarray]:
        """Add the branches' outputs, in order, to the scores in place;
        returns each one's contribution before z-scoring."""
        out = [add_branch_output(self.scores, branch, raw, mode)
               for branch, raw in zip(branches, raw_values, strict=True)]
        self.__dict__.pop("accuracy", None)
        self.__dict__.pop("loss", None)
        return out


@dataclass
class GrowthState:
    """A growth run: the evolving network, its scored splits and records.

    `votes[j]` holds selection sample j's summed class-output at its own
    label, before any z-scoring, which weighs the qualification gates.
    Like the splits' scores, the votes change only when a batch is kept.
    The selection set is the train split's `selection_columns`;
    `rest_columns` are its other columns, ascending.  An iteration's number
    is the count of records before it.  The branch points and candidate
    records are the last iteration's only, so a run holds none of them
    beyond the iteration that made them.
    """

    net: NamNetwork
    config: GrowthConfig
    selection: ScoredSplit
    train: ScoredSplit
    test: ScoredSplit
    votes: np.ndarray
    selection_columns: np.ndarray
    rest_columns: np.ndarray
    rng: np.random.Generator
    records: list = field(default_factory=list)
    branch_points: list = field(default_factory=list)
    candidate_records: list = field(default_factory=list)


def draw_selection(dataset: Dataset, size: int, seed) -> np.ndarray:
    """Column indices in `dataset` of a class-balanced random selection
    set, classes in order, deterministic per seed (any seed accepted by
    numpy's default_rng)."""
    picks = _draw_per_class(dataset, _selection_per_class(dataset, size),
                            np.random.default_rng(seed), "selection")
    return np.concatenate(picks)


def draw_reference_images(dataset: Dataset, per_class: int,
                          rng: np.random.Generator) -> dict[int, Dataset]:
    """Per-class reference images used on the distribution side of matching."""
    picks = _draw_per_class(dataset, per_class, rng, "matching")
    return {c: dataset.subset(idx) for c, idx in enumerate(picks)}


def check_draws(train_set: Dataset, config: GrowthConfig) -> None:
    """Raise the ValueError that a run's selection or reference draw would
    raise on `train_set`, before the run does any work."""
    per_class = _selection_per_class(train_set, config.selection_size)
    _class_pools(train_set, per_class, "selection")
    _class_pools(train_set, config.reference_per_class, "matching")


def _selection_per_class(dataset: Dataset, size: int) -> int:
    if size > dataset.n:
        raise ValueError(f"selection size {size} exceeds dataset size {dataset.n}")
    if size % dataset.n_classes != 0:
        raise ValueError(
            f"selection size {size} not divisible by {dataset.n_classes} classes")
    return size // dataset.n_classes


def _class_pools(dataset: Dataset, per_class: int,
                 purpose: str) -> list[np.ndarray]:
    """Each class's sample indices, classes in order; `purpose` names the
    draw when a class has fewer than `per_class`."""
    pools = [np.flatnonzero(dataset.labels == c)
             for c in range(dataset.n_classes)]
    for c, pool in enumerate(pools):
        if pool.size < per_class:
            raise ValueError(
                f"class {c} has {pool.size} samples, {purpose} needs {per_class}")
    return pools


def _draw_per_class(dataset: Dataset, per_class: int,
                    rng: np.random.Generator, purpose: str) -> list[np.ndarray]:
    """`per_class` distinct sample indices of each class, classes in order."""
    return [rng.choice(pool, size=per_class, replace=False)
            for pool in _class_pools(dataset, per_class, purpose)]


def match_candidates(input_range: InputRange, ref_images_by_class,
                     prepared: PreparedSummaries, keep_fraction: float,
                     per_branch: bool) -> list[Winner]:
    """Match one input range and pick its winners.

    Every prepared summary is matched to its best reference class, then per
    reference class the closest summary wins, among all summaries or, with
    `per_branch`, among each branch's own.  Ties keep the earliest summary.
    Winners come sorted by branch (when `per_branch`), then target class,
    and share their target class's reference statistics.
    """
    ref_stats, ref_normed = {}, {}
    for c, ref in ref_images_by_class.items():
        # row-major [n, 9]: the statistics' means sum by memory order
        points = np.ascontiguousarray(extract_patches(ref, [input_range])[0].T)
        ref_stats[c] = stats_from_points(points)
        ref_normed[c] = normalize_sorted(points, ref_stats[c])
    results = match_all(ref_normed, prepared, keep_fraction)
    best = {}
    for i, res in enumerate(results):
        if not res.matched:
            continue
        key = (res.branch_id if per_branch else 0, res.target_class)
        cur = best.get(key)
        if cur is None or res.distance < results[cur].distance:
            best[key] = i
    winners = []
    for key in sorted(best):
        res, target = results[best[key]], key[1]
        winners.append(Winner(res.branch_id, best[key], target, res.distance,
                              input_range, ref_stats[target]))
    return winners


def candidate_streams(ranges, ref_images_by_class, summary_pairs,
                      source_mlps, keep_fraction: float,
                      per_branch: bool) -> list:
    """Candidate streams of one window-major matching pass over every
    source summary, prepared once.

    Without `per_branch` (growth) it returns one lazy stream over all
    summaries: a window is matched only when the stream has yielded every
    candidate of the windows before it, so a consumer that stops early
    leaves the later windows unmatched.  With `per_branch` (transfer) it
    matches every window now and returns one stream per source branch over
    that branch's winners, window by window.  Either way, a winner's first
    layer is transferred only when its stream yields it.
    """
    prepared = prepare_summaries(summary_pairs)

    def winners(input_range: InputRange) -> list[Winner]:
        return match_candidates(input_range, ref_images_by_class, prepared,
                                keep_fraction, per_branch)

    def transferred(winner: Winner) -> CandidateBranch:
        source = source_mlps[winner.source_branch_id]
        first = DenseLayer(*transfer_first_layer(
            source.hidden_layers[0], prepared.stats[winner.row],
            winner.ref_stats))
        return CandidateBranch(
            source_branch_id=winner.source_branch_id,
            branch_class=prepared.branch_classes[winner.row],
            target_class=winner.target_class,
            input_range=winner.input_range,
            distance=winner.distance,
            mlp=BranchMlp([first, *source.hidden_layers[1:]],
                          source.output_layer),
        )

    if not per_branch:
        return [map(transferred,
                    itertools.chain.from_iterable(map(winners, ranges)))]
    filed = [[] for _ in source_mlps]
    for input_range in ranges:
        for winner in winners(input_range):
            filed[winner.source_branch_id].append(winner)
    return [map(transferred, branch_winners) for branch_winners in filed]


def start_growth(net: NamNetwork, selection_columns: np.ndarray,
                 config: GrowthConfig, train_set: Dataset, test_set: Dataset,
                 rng: np.random.Generator) -> GrowthState:
    """Score the network on the train and test splits and open a growth run
    whose selection set is the train split's `selection_columns`.

    A sample's scores do not depend on the others', so the selection's are
    its rows of the train scores.  An election network starts empty, so in
    either mode they are the summed class-outputs the votes are read from."""
    if net.mode == "election" and net.branches:
        raise ValueError(f"an election network grows from no branches, "
                         f"not {net.n_branches}")

    def scored(data: Dataset) -> ScoredSplit:
        scores = (network_scores(net, data) if net.branches
                  else np.zeros((data.n, net.n_classes)))
        return ScoredSplit(data, scores)

    train = scored(train_set)
    selection = train_set.subset(selection_columns)
    sel = ScoredSplit(selection, train.scores[selection_columns])
    rest = np.setdiff1d(np.arange(train_set.n), selection_columns)
    return GrowthState(net=net, config=config, selection=sel, train=train,
                       test=scored(test_set),
                       votes=sel.scores[np.arange(selection.n),
                                        selection.labels],
                       selection_columns=selection_columns,
                       rest_columns=rest, rng=rng)


def _flag_stat_rows(p: float, target_class: int,
                    n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Election mean/std rows of a branch emitting a 0/1 flag at one class."""
    mean = np.zeros(n_classes)
    std = np.full(n_classes, SIGMA_FLOOR)
    mean[target_class] = p
    std[target_class] = max(math.sqrt(max(p * (1.0 - p), 0.0)), SIGMA_FLOOR)
    return mean, std


@dataclass
class _Tentative:
    branch: Branch
    values_sel: np.ndarray
    record: dict


def grow_iteration(state: GrowthState, candidates) -> IterationRecord:
    """Consume candidates until `max_per_iteration` qualify (or none remain),
    then fit the batch and keep or roll it back as a whole on the selection
    set.  Appends one IterationRecord to the state, and replaces its branch
    points and candidate records with this iteration's: the rejected
    candidates' records first, then the batch's.  A record's parameter
    count adds the kept batch's to the last record's; only a run's first
    record counts the whole network."""
    net, config = state.net, state.config
    mode = net.mode
    iteration = len(state.records)
    selection, labels = state.selection.data, state.selection.data.labels
    seen = 0
    tentative: list[_Tentative] = []
    rejected_records = []
    votes = state.votes.copy()
    memo_range, memo_patches = None, None

    for cand in candidates:
        seen += 1
        if cand.input_range != memo_range:
            memo_range = cand.input_range
            memo_patches = extract_patches(selection, [cand.input_range])[0]
        values = mlp_forward_batch(cand.mlp, memo_patches)[:, cand.branch_class]
        thd = branch_threshold(values, config.top_fraction)
        v_span = float(values.max() - thd)
        record = {
            "iteration": iteration,
            "input_range": list(cand.input_range.as_tuple()),
            "source_branch": cand.source_branch_id,
            "branch_class": cand.branch_class,
            "target_class": cand.target_class,
            "distance": cand.distance,
            "threshold": thd,
            "v_span": v_span,
            "qualified": False,
            "kept": False,
        }
        if mode == "tuning" and v_span <= 0.0:
            record["reason"] = "no output spread above threshold"
            rejected_records.append(record)
            continue
        report = qualify(values, labels, cand.target_class, votes, mode, thd,
                         net.n_classes)
        record["qualified"] = bool(report.verdict)
        if not report.verdict:
            rejected_records.append(record)
            continue
        branch = Branch(mlp=cand.mlp, input_range=cand.input_range,
                        branch_class=cand.branch_class,
                        target_class=cand.target_class,
                        mask=ClassMask(1.0, 0.0, thd, v_span),
                        origin="grown" if mode == "tuning" else "transferred")
        on = labels == cand.target_class
        votes[on] += added_branch_output(branch, values, mode)[on]
        tentative.append(_Tentative(branch, values, record))
        if len(tentative) >= config.max_per_iteration:
            break

    state.branch_points = _finish_iteration(state, tentative)
    state.candidate_records = rejected_records + [t.record for t in tentative]
    accepted = len(state.branch_points)
    kept = net.branches[net.n_branches - accepted:]
    record = IterationRecord(
        iteration=iteration,
        candidates_seen=seen,
        accepted=accepted,
        rejected=seen - accepted,
        selection_loss=state.selection.loss,
        test_loss=state.test.loss,
        test_accuracy=state.test.accuracy,
        branch_count=net.n_branches,
        parameter_count=(state.records[-1].parameter_count
                         + sum(map(branch_parameter_count, kept))
                         if state.records else parameter_count(net)),
    )
    state.records.append(record)
    log.info("iteration %d: %d/%d candidates accepted, selection loss %.6f",
             record.iteration, record.accepted, record.candidates_seen,
             record.selection_loss)
    return record


def _finish_iteration(state: GrowthState,
                      tentative: list[_Tentative]) -> list[BranchPoint]:
    """Fit the new branches, score them, then keep or revert the batch;
    returns a metric point per kept branch.

    The branches are fitted on the train split: tuning mode tunes their
    masks, election mode fits each branch the flag statistics that z-score
    its outputs.  A branch's train values reuse its selection values and
    forward only the other train columns.  The batch is kept only when the
    selection-set loss did not increase and, in election mode, the
    selection-set accuracy did not drop, so both are monotone there.  The
    selection trial is scored on a copy of the selection scores.  Only a
    kept batch joins the network: the trial becomes the selection split,
    and the batch is added to the votes and to the train and test splits;
    a rolled-back one leaves them as they were.
    """
    if not tentative:
        return []
    net, config = state.net, state.config
    mode = net.mode
    iteration = len(state.records)
    branches = [t.branch for t in tentative]
    raw_fit = _train_values(state, tentative)
    if mode == "election":
        for branch, raw in zip(branches, raw_fit):
            flags = added_branch_output(branch, raw, mode)
            branch.election_stats = _flag_stat_rows(
                float(flags.mean()), branch.target_class, net.n_classes)
    elif config.tuning_epochs > 0:
        tune_masks(branches, state.train.data, config.tuning_epochs,
                   state.train.scores, raw_fit,
                   learning_rate=config.mask_learning_rate,
                   batch_size=config.mask_batch_size,
                   seed=int(state.rng.integers(2 ** 31)))

    prev = state.selection
    trial = ScoredSplit(prev.data, prev.scores.copy())
    out_sel = trial.add(branches, [t.values_sel for t in tentative], mode)
    if trial.loss > prev.loss or (
            mode == "election" and trial.accuracy < prev.accuracy):
        log.info("iteration %d rolled back: selection loss %.6f (prev %.6f),"
                 " accuracy %.4f (prev %.4f)", iteration, trial.loss,
                 prev.loss, trial.accuracy, prev.accuracy)
        return []
    base_count = net.n_branches
    for t in tentative:
        t.branch.mask_frozen = True
        t.record["kept"] = True
        net.branches.append(t.branch)
    state.selection = trial
    for branch, out in zip(branches, out_sel):
        on = trial.data.labels == branch.target_class
        state.votes[on] += out[on]
    state.train.add(branches, raw_fit, mode)
    test = state.test
    points = []
    outputs = branch_outputs(branches, test.data)
    for k, (branch, y) in enumerate(zip(branches, outputs, strict=True)):
        test.add([branch], [y], mode)
        points.append(BranchPoint(
            iteration=iteration, branch_count=base_count + k + 1,
            accuracy=test.accuracy, loss=test.loss))
    return points


def _train_values(state: GrowthState,
                  tentative: list[_Tentative]) -> np.ndarray:
    """The tentative branches' raw values on the train split, one row per
    branch [k, n], forwarding only the columns outside the selection set."""
    train = state.train.data
    raw = np.empty((len(tentative), train.n))
    outputs = branch_outputs([t.branch for t in tentative], train,
                             state.rest_columns)
    for row, t, y in zip(raw, tentative, outputs, strict=True):
        row[state.selection_columns] = t.values_sel
        row[state.rest_columns] = y
    return raw


class MaskColumns(NamedTuple):
    """The class masks of k branches as [k, 1] columns, which
    `apply_class_mask` and `class_mask_grads` take in place of one
    ClassMask to work on k rows of raw outputs at once."""

    a: np.ndarray
    b: np.ndarray
    thd: np.ndarray
    v_span: np.ndarray


def mask_gradients(frozen_logits: np.ndarray, labels: np.ndarray,
                   masks: MaskColumns, targets: list[int], raw: np.ndarray
                   ) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss and d(loss)/d(a, b) [k] for a batch, given the other branches'
    sums.

    frozen_logits[j] are the summed class-outputs of every branch except
    the k tuned ones on sample j; raw[k] are branch k's pre-mask scalars,
    masked by row k of `masks` and credited to class targets[k].  Each
    branch's masked column is added to the logits in branch order, as the
    network adds its branches.
    """
    logits = frozen_logits.copy()
    for t, value in zip(targets, apply_class_mask(masks, raw), strict=True):
        logits[:, t] += value
    loss, dlogits = softmax_cross_entropy_batch(logits, labels)
    # each branch's upstream gradient is a C-contiguous row, so its sum
    # runs as a lone 1-D sum would
    upstream = np.ascontiguousarray(dlogits.T[targets])
    da, db = class_mask_grads(masks, raw, upstream)
    return loss, da, db


def tune_masks(branches: list[Branch], dataset: Dataset, epochs: int,
               frozen_logits: np.ndarray, raw_values: np.ndarray,
               learning_rate: float, batch_size: int, seed: int) -> None:
    """Train the scale/bias of the masks of `branches` with minibatch Adam.

    `frozen_logits` are the class-output sums of every other branch on
    `dataset`, and `raw_values[k]` are branches[k]'s pre-mask scalars
    there, one row [k, n] per branch.  Each minibatch is one stacked step
    over all k masks.  Only these masks' two scalars move: all MLP weights
    and every other mask stay untouched, and freezing the tuned masks is
    the acceptance step's job.  Zero epochs is a no-op.
    """
    a = np.array([br.mask.a for br in branches])
    b = np.array([br.mask.b for br in branches])
    # the a and b columns are views of the parameters Adam steps in place
    masks = MaskColumns(a[:, None], b[:, None],
                        np.array([[br.mask.thd] for br in branches]),
                        np.array([[br.mask.v_span] for br in branches]))
    targets = [br.target_class for br in branches]
    params = [a, b]
    opt = AdamState(params, lr=learning_rate)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(dataset.n)
        for lo in range(0, dataset.n, batch_size):
            idx = order[lo:lo + batch_size]
            _, da, db = mask_gradients(frozen_logits[idx], dataset.labels[idx],
                                       masks, targets, raw_values[:, idx])
            adam_step(opt, params, [da, db])
    for k, br in enumerate(branches):
        br.mask.a = float(a[k])
        br.mask.b = float(b[k])


def frozen_parameter_hash(branches: list[Branch]) -> str:
    """SHA-256 over everything growth must never change in `branches`: the
    MLPs' `source_digest`, mask thresholds and spans, and the scale/bias of
    already-frozen masks.  Kept branches share their source's deeper layer
    objects, so a hash of the sources covers those layers too."""
    h = hashlib.sha256(source_digest([b.mlp for b in branches]).encode())
    for branch in branches:
        if branch.mask is not None:
            h.update(np.float64([branch.mask.thd, branch.mask.v_span]).tobytes())
            if branch.mask_frozen:
                h.update(np.float64([branch.mask.a, branch.mask.b]).tobytes())
    return h.hexdigest()


def clustering_seed(seed: int) -> int:
    """The seed a run clusters with: child 1 of the four seeds it derives
    from its run seed (selection, clustering, references, growth)."""
    seeds = np.random.SeedSequence(seed).spawn(4)
    return int(seeds[1].generate_state(1)[0])


def cluster_source(branch_mlps, cluster: ClusterConfig, seed: int,
                   target: str) -> dict:
    """Everything `source_cluster_table(branch_mlps, cluster, seed)`
    depends on, for the `target` command (grow or transfer): the SHA-256 of
    the MLPs' layer bytes, the cluster config and the clustering seed.  A
    cluster cache records it, and `grow` and `transfer` refuse a cache
    whose record is not their own."""
    return {"for": target, "mlp_sha256": source_digest(branch_mlps),
            "cluster": asdict(cluster), "seed": clustering_seed(seed)}


def source_cluster_table(branch_mlps, cluster: ClusterConfig, seed: int):
    """Cluster source branches as `run_growth`/`transfer_task` do under
    the run seed `seed`.

    Both call this when they are given no `cluster_table`, so a table
    precomputed with it and passed back through that parameter reproduces
    the uncached run bit for bit.
    """
    table = cluster_network(branch_mlps, cluster, clustering_seed(seed))
    summaries = [s for per_branch in table for s in per_branch]
    log.info("clustered %d branches: %d retained pairs into %d clusters",
             len(table), sum(s.n_pairs for s in summaries),
             sum(s.n_clusters for s in summaries))
    return table


def source_mlps(net: NamNetwork, transfer: bool) -> list[BranchMlp]:
    """The MLPs of the branches a run re-uses: every branch of the network
    for a transfer to a new task, only its trained base branches for growth
    on its own task."""
    sources = [br.mlp for br in net.branches
               if transfer or br.origin == "base"]
    if not sources:
        raise ValueError(f"network has no {'' if transfer else 'base '}"
                         "branches to re-use")
    return sources


def run_growth(net: NamNetwork, train_set: Dataset, config: GrowthConfig,
               test_set: Dataset, cluster_table,
               max_iterations: int | None, on_iteration) -> GrowthState:
    """Same-task growth: scan every stride-1 window, add qualified masked
    branches iteration by iteration, and return the full growth state.

    `max_iterations` bounds the number of iterations (None runs until the
    candidate scan is exhausted; 0 returns the network untouched).  Windows
    are matched as iterations consume their candidates, so a bounded run
    matches none past the last window it uses.  `on_iteration` is called
    with the state as soon as an iteration's record is final, so callers
    can stream logs.  Raises RuntimeError when the branches the network
    started with have changed by the end.
    """
    if net.mode != "tuning":
        raise ValueError("network must be in tuning mode")
    return _grow(net, net, train_set, config, test_set, cluster_table,
                 max_iterations, on_iteration)


def transfer_task(base_net: NamNetwork, train_set: Dataset,
                  config: GrowthConfig, test_set: Dataset,
                  cluster_table, on_iteration) -> GrowthState:
    """Trans-task transfer: apply the source branches one by one to the new
    task's input ranges in election mode, never calling the optimizer.

    Each source branch is one iteration at least; its matched placements
    are qualified, binarized, and kept only when the selection accuracy does
    not drop.  Returns the growth state; the grown network may be empty when
    no placement qualifies (prediction on it then fails as an empty
    network).  Raises RuntimeError when the source branches have changed by
    the end."""
    net = NamNetwork(n_classes=train_set.n_classes,
                     input_shape=train_set.shape, mode="election",
                     tag=f"{base_net.tag}->{train_set.tag}")
    return _grow(base_net, net, train_set, config, test_set, cluster_table,
                 None, on_iteration)


def _grow(source_net: NamNetwork, net: NamNetwork, train_set: Dataset,
          config: GrowthConfig, test_set: Dataset, cluster_table,
          max_iterations: int | None, on_iteration) -> GrowthState:
    """Grow `net` from the source branches of `source_net`.

    `candidate_streams` matches each window once.  Growth runs iterations
    while its one stream over all source branches yields, and matches
    windows as they pull its candidates.  Transfer (an election-mode `net`)
    has one stream per source branch, and each stream gets one iteration
    at least.
    A given `cluster_table` holds one list of summaries per source branch,
    each fitting its branch; `clusters_from_json` checks a cached one as it
    reads it.
    """
    transfer = net.mode == "election"
    sources = source_mlps(source_net, transfer)
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    columns = draw_selection(train_set, config.selection_size, seeds[0])
    state = start_growth(net, columns, config, train_set, test_set,
                         np.random.default_rng(seeds[3]))
    if max_iterations == 0:
        return state
    started = list(source_net.branches)
    start_hash = frozen_parameter_hash(started)
    # The references have their own seed: drawn before clustering, they
    # are the same draws, and a split too small for them fails first.
    refs = draw_reference_images(train_set, config.reference_per_class,
                                 np.random.default_rng(seeds[2]))
    if cluster_table is None:
        log.info("clustering %d branch MLPs", len(sources))
        cluster_table = source_cluster_table(sources, config.cluster,
                                             config.seed)
    pairs = [(i, summary) for i, summaries in enumerate(cluster_table)
             for summary in summaries]
    ranges = base_grid_ranges(net.input_shape, 1)
    log.info("matching %d ranges against %d cluster summaries",
             len(ranges), len(pairs))
    for stream in candidate_streams(ranges, refs, pairs, sources,
                                    config.keep_fraction, transfer):
        ran = False
        while max_iterations is None or len(state.records) < max_iterations:
            head = next(stream, None)
            if head is None and (ran or not transfer):
                break
            batch = stream if head is None else itertools.chain([head], stream)
            grow_iteration(state, batch)
            ran = True
            on_iteration(state)
    if frozen_parameter_hash(started) != start_hash:
        raise RuntimeError("growth changed the branches it started from")
    return state
