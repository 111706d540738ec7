"""Spans and work counters around namgrow's layers, recorded from outside.

Run as a script, this module executes one namgrow CLI command with
wrappers installed around the public functions of each namgrow module:

    python perfbench/tracing.py TRACE.json -- grow --config ... --threads 1

Each wrapped call records a span (name, start, end, parent) in memory and
may add to named counters; both are written to TRACE.json when the command
exits.  Nothing under src/ changes.  run.py imports
`layer_metrics` to turn the trace files of one repetition into the
per-layer metrics that BENCHMARK.json lists.

A metric named `<layer>.<function>_s` is self time: the time inside that
function's spans minus the time covered by their child spans, so the self
times of one repetition, plus the CLI's own share, add up to its wall time.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import statistics
import sys
import time

# Environment variables the namgrow CLI sets from --threads; the traced
# process must set them itself because wrapping imports NumPy first.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_sha256(counters, args, kwargs, result):
    counters["data_io.sha256_bytes"] += os.path.getsize(
        _arg(args, kwargs, 0, "path"))


def _count_patches(counters, args, kwargs, result):
    counters["data_io.patch_rows"] += result.shape[0] * result.shape[1]


def _count_mlp_rows(counters, args, kwargs, result):
    counters["nn_core.mlp_rows"] += result.shape[0]


def _count_train(counters, args, kwargs, result):
    dataset = _arg(args, kwargs, 1, "train_dataset")
    config = _arg(args, kwargs, 2, "config")
    counters["training.images_seen"] += dataset.n * config.epochs


def _count_branch_passes(counters, args, kwargs, result):
    net = _arg(args, kwargs, 0, "net")
    images = _arg(args, kwargs, 1, "images")
    counters["nam_model.branch_passes"] += net.n_branches * images.shape[0]


def _count_clusters(counters, args, kwargs, result):
    counters["clustering.retained_pairs"] += sum(s.n_pairs for s in result)
    counters["clustering.clusters"] += sum(s.n_clusters for s in result)


def _count_matches(counters, args, kwargs, result):
    counters["matching.results"] += len(result)
    counters["matching.matched"] += sum(r.matched for r in result)


def _count_center_pairs(counters, args, kwargs, result):
    refs = _arg(args, kwargs, 0, "ref_samples")
    centers = _arg(args, kwargs, 1, "centers")
    counters["matching.center_pairs"] += len(refs) * len(centers)


def _count_qualified(counters, args, kwargs, result):
    counters["qualification.passed"] += bool(result.verdict)


def _count_candidates(counters, args, kwargs, result):
    counters["growth.candidates"] += len(result)


def _count_iteration(counters, args, kwargs, result):
    """Seen and accepted candidates; a rollback is an iteration whose
    qualified candidates were all dropped again."""
    state = _arg(args, kwargs, 0, "state")
    counters["growth.candidates_seen"] += result.candidates_seen
    counters["growth.accepted"] += result.accepted
    qualified = 0
    for rec in reversed(state.candidate_records):
        if rec["iteration"] != result.iteration:
            break
        qualified += rec["qualified"]
    counters["growth.rollbacks"] += qualified > 0 and result.accepted == 0


def _count_saved(counters, args, kwargs, result):
    counters["checkpoint.bytes"] += os.path.getsize(
        _arg(args, kwargs, 1, "path"))


def _count_loaded(counters, args, kwargs, result):
    counters["checkpoint.bytes"] += os.path.getsize(
        _arg(args, kwargs, 0, "path"))


# (module, function, span name or None for a counter-only wrapper, counter)
WRAPPED = [
    ("data_io", "load_cifar10", "data_io.load", None),
    ("data_io", "load_mnist", "data_io.load", None),
    ("data_io", "sha256_file", "data_io.sha256", _count_sha256),
    ("data_io", "extract_patches", "data_io.extract_patches", _count_patches),
    ("nn_core", "mlp_forward_batch", "nn_core.mlp_forward_batch",
     _count_mlp_rows),
    ("nn_core", "adam_step", "nn_core.adam_step", None),
    ("nn_core", "softmax_cross_entropy_batch", "nn_core.softmax_xent", None),
    ("training", "train_network", "training.train_network", _count_train),
    ("training", "evaluate_stacked", "training.evaluate_stacked", None),
    ("nam_model", "network_forward_batch", "nam_model.network_forward_batch",
     _count_branch_passes),
    ("nam_model", "elect_batch", "nam_model.elect_batch",
     _count_branch_passes),
    ("nam_model", "evaluate", "nam_model.evaluate", None),
    ("nam_model", "apply_class_mask", None, None),
    ("nam_model", "class_mask_grads", "nam_model.class_mask_grads", None),
    ("clustering", "cluster_branch_mlp", "clustering.cluster_branch_mlp",
     _count_clusters),
    ("clustering", "mean_shift_step", None, None),
    ("matching", "match_all", "matching.match_all", _count_matches),
    ("matching", "partial_average_distance", "matching.pad",
     _count_center_pairs),
    ("matching", "transfer_first_layer", None, None),
    ("qualification", "qualify", "qualification.qualify", _count_qualified),
    ("qualification", "branch_threshold", "qualification.branch_threshold",
     None),
    ("growth", "match_candidates", "growth.match_candidates",
     _count_candidates),
    ("growth", "start_growth", "growth.start_growth", None),
    ("growth", "grow_iteration", "growth.grow_iteration", _count_iteration),
    ("growth", "tune_masks", "growth.tune_masks", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save", _count_saved),
    ("checkpoint", "load_checkpoint", "checkpoint.load", _count_loaded),
]

NAMGROW_MODULES = ("data_io", "nn_core", "nam_model", "training",
                   "qualification", "clustering", "matching", "growth",
                   "checkpoint", "cli")


class Tracer:
    """In-memory span list (name id, start, end, parent index) and counters."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = collections.defaultdict(int)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, call_counter: str, span: str | None, count):
        """Wrapper that counts calls, optionally records a span, then lets
        `count` add to counters from the call's arguments and result."""
        counters = self.counters
        counters[call_counter] = 0

        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counters[call_counter] += 1
                return result
            return counted

        spans, stack, clock = self.spans, self.stack, time.perf_counter
        name_id = self._name_id(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            counters[call_counter] += 1
            if count is not None:
                count(counters, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Replace each wrapped function in every namgrow module that binds
        it, so `from .matching import match_all` callers see the wrapper."""
        import importlib

        modules = [importlib.import_module(f"namgrow.{m}")
                   for m in NAMGROW_MODULES]
        for module_name, fn_name, span, count in WRAPPED:
            original = getattr(importlib.import_module(f"namgrow.{module_name}"),
                               fn_name)
            wrapper = self.wrap(original, f"{module_name}.{fn_name}.calls",
                                span, count)
            for module in modules:
                if module.__dict__.get(fn_name) is original:
                    setattr(module, fn_name, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters}, fh)


def summarize_trace(doc) -> tuple[dict, dict, float]:
    """One trace file -> (self seconds per span name, inclusive seconds per
    span name, seconds covered by root spans)."""
    names = doc["names"]
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = {n: 0.0 for n in names}
    total_s = {n: 0.0 for n in names}
    root_s = 0.0
    for i, (name_id, start, end, parent) in enumerate(spans):
        duration = end - start
        self_s[names[name_id]] += duration - child[i]
        total_s[names[name_id]] += duration
        if parent < 0:
            root_s += duration
    return self_s, total_s, root_s


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace_docs, process_wall_s: float) -> dict:
    """Per-layer metrics of one repetition from its commands' trace files.

    `process_wall_s` is the summed wall time of the traced processes; what
    no span covers (interpreter start, imports, config, output writing) is
    the CLI's own self time.
    """
    self_s, total_s, counters = {}, {}, {}
    root_s = 0.0
    for doc in trace_docs:
        s, t, r = summarize_trace(doc)
        for k, v in s.items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in t.items():
            total_s[k] = total_s.get(k, 0.0) + v
        for k, v in doc["counters"].items():
            counters[k] = counters.get(k, 0) + v
        root_s += r
    s = lambda name: self_s.get(name, 0.0)  # noqa: E731
    t = lambda name: total_s.get(name, 0.0)  # noqa: E731
    c = lambda name: counters.get(name, 0)  # noqa: E731
    mlp_calls = c("nn_core.mlp_forward_batch.calls")
    ranges = c("matching.match_all.calls")
    branches = c("clustering.cluster_branch_mlp.calls")
    return {
        "cli.self_s": process_wall_s - root_s,
        "data_io.load_s": s("data_io.load"),
        "data_io.sha256_s": s("data_io.sha256"),
        "data_io.sha256_bytes": c("data_io.sha256_bytes"),
        "data_io.extract_patches_s": s("data_io.extract_patches"),
        "data_io.extract_patches_calls": c("data_io.extract_patches.calls"),
        "data_io.patch_rows": c("data_io.patch_rows"),
        "nn_core.mlp_forward_batch_s": s("nn_core.mlp_forward_batch"),
        "nn_core.mlp_forward_batch_calls": mlp_calls,
        "nn_core.mlp_rows": c("nn_core.mlp_rows"),
        "nn_core.rows_per_call": _ratio(c("nn_core.mlp_rows"), mlp_calls),
        "nn_core.adam_steps": c("nn_core.adam_step.calls"),
        "nn_core.adam_step_s": s("nn_core.adam_step"),
        "nn_core.softmax_xent_s": s("nn_core.softmax_xent"),
        "training.train_network_s": s("training.train_network"),
        "training.images_seen": c("training.images_seen"),
        "training.images_per_s": _ratio(c("training.images_seen"),
                                        t("training.train_network")),
        "training.evaluate_stacked_s": s("training.evaluate_stacked"),
        "nam_model.network_forward_batch_s":
            s("nam_model.network_forward_batch"),
        "nam_model.elect_batch_s": s("nam_model.elect_batch"),
        "nam_model.evaluate_s": s("nam_model.evaluate"),
        "nam_model.branch_passes": c("nam_model.branch_passes"),
        "nam_model.apply_class_mask_calls":
            c("nam_model.apply_class_mask.calls"),
        "nam_model.class_mask_grads_s": s("nam_model.class_mask_grads"),
        "clustering.cluster_branch_mlp_s": s("clustering.cluster_branch_mlp"),
        "clustering.s_per_branch": _ratio(t("clustering.cluster_branch_mlp"),
                                          branches),
        "clustering.mean_shift_steps": c("clustering.mean_shift_step.calls"),
        "clustering.retained_pairs": c("clustering.retained_pairs"),
        "clustering.clusters": c("clustering.clusters"),
        "clustering.clusters_per_pair": _ratio(c("clustering.clusters"),
                                               c("clustering.retained_pairs")),
        "matching.match_all_s": s("matching.match_all"),
        "matching.ranges": ranges,
        "matching.s_per_range": _ratio(t("matching.match_all"), ranges),
        "matching.pad_calls": c("matching.partial_average_distance.calls"),
        "matching.pad_s": s("matching.pad"),
        "matching.center_pairs": c("matching.center_pairs"),
        "matching.matched_ratio": _ratio(c("matching.matched"),
                                         c("matching.results")),
        "matching.transfer_first_layer_calls":
            c("matching.transfer_first_layer.calls"),
        "qualification.qualify_s": s("qualification.qualify"),
        "qualification.qualify_calls": c("qualification.qualify.calls"),
        "qualification.pass_ratio": _ratio(c("qualification.passed"),
                                           c("qualification.qualify.calls")),
        "qualification.branch_threshold_s":
            s("qualification.branch_threshold"),
        "growth.match_candidates_s": s("growth.match_candidates"),
        "growth.candidates": c("growth.candidates"),
        "growth.start_growth_s": s("growth.start_growth"),
        "growth.grow_iteration_s": s("growth.grow_iteration"),
        "growth.tune_masks_s": s("growth.tune_masks"),
        "growth.iterations": c("growth.grow_iteration.calls"),
        "growth.candidates_seen": c("growth.candidates_seen"),
        "growth.kept_ratio": _ratio(c("growth.accepted"),
                                    c("growth.candidates_seen")),
        "growth.rollbacks": c("growth.rollbacks"),
        "checkpoint.save_s": s("checkpoint.save"),
        "checkpoint.load_s": s("checkpoint.load"),
        "checkpoint.bytes": c("checkpoint.bytes"),
    }


# Counters that must repeat exactly between runs of one seed.
EXACT_COUNTERS = ("matching.pad_calls", "matching.center_pairs",
                  "growth.candidates_seen", "qualification.qualify_calls",
                  "nn_core.adam_steps", "nn_core.mlp_rows",
                  "clustering.mean_shift_steps")


def median_metrics(per_rep: list[dict]) -> dict:
    """Median of each metric over repetitions; counts stay whole numbers."""
    def median(values):
        if all(isinstance(v, int) for v in values):
            return statistics.median_low(values)
        return statistics.median(values)
    return {k: median([m[k] for m in per_rep]) for k in per_rep[0]}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py TRACE.json -- <namgrow arguments>",
              file=sys.stderr)
        return 1
    out_path, cli_args = argv[0], argv[2:]
    if "--threads" in cli_args:
        threads = cli_args[cli_args.index("--threads") + 1]
        if int(threads) > 0:
            for var in THREAD_VARS:
                os.environ[var] = threads
    tracer = Tracer()
    tracer.install()
    from namgrow import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
