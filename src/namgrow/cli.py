"""Command-line driver binding the pipeline stages to reproducible runs.

Five commands cover the whole workflow:

    namgrow train-base    --config run.ini          # train a network
    namgrow grow          --config run.ini --checkpoint base.json
    namgrow transfer      --config run.ini --checkpoint base.json
    namgrow eval          --checkpoint net.json --dataset mnist --data-dir d/
    namgrow cluster-cache --checkpoint base.json    # precompute clustering

`cluster-cache` saves the mean-shift cluster summaries of a checkpoint's
branches so repeated grow/transfer runs can skip the clustering stage via
`--cluster-cache`; a cached run is byte-identical to an uncached one.

Every run reads one INI config (flags override individual keys), writes its
fully-resolved config and a run_meta.json with input SHA-256 hashes next to
its outputs, and is deterministic given (config, seed, input files).

Exit codes: 0 success, 1 usage/config error, 2 data or format error,
3 internal invariant violation.
"""

import argparse
import configparser
import contextlib
import csv
import dataclasses
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path

log = logging.getLogger("namgrow.cli")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

DEFAULT_CONFIG = {
    "run": {"seed": "0", "out_dir": "runs/run", "threads": "0"},
    "data": {"dataset": "cifar10", "data_dir": "data"},
    "model": {"grid": "base"},
    "train": {"epochs": "40", "batch_size": "128", "learning_rate": "1e-3"},
    "growth": {
        "selection_size": "5000",
        "max_per_iteration": "64",
        "tuning_epochs": "2",
        "mask_learning_rate": "1e-2",
        "mask_batch_size": "128",
        "keep_fraction": "0.8",
        "top_fraction": "0.2",
        "reference_per_class": "100",
        "max_iterations": "-1",
    },
    "cluster": {
        "n_samples": "10000",
        "top_fraction": "0.2",
        "neighbor_distance": "0.5",
        "min_shift_distance": "1e-3",
        "bandwidth": "0.3",
        "max_shift_iterations": "200",
    },
}

# Each override flag: the [section] key it sets and its argparse keywords;
# its help is "override [section] key" unless the keywords give one.
_FLAGS = {
    "--seed": ("run", "seed", {"type": int}),
    "--dataset": ("data", "dataset", {"choices": ["cifar10", "mnist"]}),
    "--data-dir": ("data", "data_dir", {}),
    "--out-dir": ("run", "out_dir", {}),
    "--threads": ("run", "threads", {
        "type": int, "help": "BLAS/OpenMP thread cap (0 = all cores)"}),
    "--grid": ("model", "grid", {"choices": ["base", "full"]}),
    "--epochs": ("train", "epochs", {"type": int}),
    "--max-iterations": ("growth", "max_iterations", {
        "type": int,
        "help": "override [growth] max_iterations (-1 = no limit)"}),
}


class ConfigError(Exception):
    """Bad config file or option values — a usage error, not a data error."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def resolve_config(args) -> configparser.ConfigParser:
    """Defaults <- config file <- command-line flags, in that order; each
    flag's destination is the "section.key" it sets.

    A section or key the defaults lack is refused: a misspelt one would
    otherwise run silently with the default it meant to change."""
    cfg = configparser.ConfigParser()
    cfg.read_dict(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        cfg.read(path)
        _refuse_unknown_keys(cfg)
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            cfg[section][key] = str(value)
    return cfg


def _refuse_unknown_keys(cfg) -> None:
    for key in cfg.defaults():
        raise ConfigError(f"unknown config key [DEFAULT] {key}")
    for section in cfg.sections():
        known = DEFAULT_CONFIG.get(section)
        for key in cfg[section]:
            if known is None or key not in known:
                raise ConfigError(f"unknown config key [{section}] {key}")
        if known is None:
            raise ConfigError(f"unknown config section [{section}]")


def _config_value(cfg, section: str, key: str, parse):
    """One config value parsed by `parse` (int or float); a value it refuses,
    or a float that is not finite, is a ConfigError naming its section and
    key."""
    text = cfg[section][key]
    try:
        value = parse(text)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc
    if parse is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: {text!r} is not finite")
    return value


def _set_thread_limit(cfg) -> None:
    """Cap BLAS/OpenMP threads; must run before numpy is first imported."""
    threads = _config_value(cfg, "run", "threads", int)
    if threads < 0:
        raise ConfigError("threads must be >= 0 (0 = all available cores)")
    if threads > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(threads)


def _section_config(cfg, cls, section: str, label: str, **given):
    """The config dataclass `cls`, built from `given` and, for each of its
    other fields, the `section` key of that name parsed by the type of the
    field's default; a value `cls` refuses is a ConfigError that begins
    with `label`."""
    values = {f.name: _config_value(cfg, section, f.name, type(f.default))
              for f in dataclasses.fields(cls) if f.name not in given}
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _train_config(cfg):
    from .training import TrainConfig

    return _section_config(cfg, TrainConfig, "train", "train config",
                           seed=_config_value(cfg, "run", "seed", int))


def _growth_config(cfg):
    from .clustering import ClusterConfig
    from .growth import GrowthConfig

    label = "growth/cluster config"
    cluster = _section_config(cfg, ClusterConfig, "cluster", label)
    return _section_config(cfg, GrowthConfig, "growth", label,
                           seed=_config_value(cfg, "run", "seed", int),
                           cluster=cluster)


def _cluster_config(cfg):
    """(ClusterConfig, run seed): all that clustering reads, and so all
    that `cluster-cache` reads of a config."""
    from .clustering import ClusterConfig

    label = "cluster config"
    seed = _config_value(cfg, "run", "seed", int)
    if seed < 0:
        raise ConfigError(f"{label}: seed must be >= 0")
    return _section_config(cfg, ClusterConfig, "cluster", label), seed


def _load_split(cfg, split):
    from . import data_io

    name = cfg["data"]["dataset"].strip().lower()
    data_dir = cfg["data"]["data_dir"]
    loaders = {"cifar10": data_io.load_cifar10, "mnist": data_io.load_mnist}
    if name not in loaders:
        raise ConfigError(f"unknown dataset {name!r} (expected cifar10 or mnist)")
    dataset = loaders[name](data_dir, split)
    log.info("loaded %s %s split: %d samples of shape %s", name, split,
             dataset.n, dataset.shape)
    return dataset


def _data_hashes(cfg) -> dict:
    from .data_io import sha256_file

    root = Path(cfg["data"]["data_dir"])
    if not root.is_dir():
        raise FileNotFoundError(f"data directory not found: {root}")
    return {str(p.relative_to(root)): sha256_file(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def _input_hashes(cfg, args) -> dict:
    from .data_io import sha256_file

    hashes = {"data": _data_hashes(cfg)}
    if getattr(args, "config", None):
        hashes["config"] = sha256_file(args.config)
    if getattr(args, "checkpoint", None):
        hashes["checkpoint"] = sha256_file(args.checkpoint)
    if getattr(args, "cluster_cache", None):
        hashes["cluster_cache"] = sha256_file(args.cluster_cache)
    return hashes


def _prepare_out_dir(cfg, args) -> Path:
    out_dir = Path(cfg["run"]["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.ini", "w") as fh:
        fh.write(f"# resolved configuration for: namgrow {args.command}\n")
        cfg.write(fh)
    return out_dir


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _check_geometry(net, dataset) -> None:
    if tuple(net.input_shape) != tuple(dataset.shape):
        raise ValueError(f"checkpoint expects input shape {net.input_shape}, "
                         f"dataset has {dataset.shape}")
    if net.n_classes != dataset.n_classes:
        raise ValueError(f"checkpoint has {net.n_classes} classes, "
                         f"dataset has {dataset.n_classes}")


class _IterationWriter:
    """Streams every growth output but the checkpoint and run_meta.json, as
    each iteration ends: the growth log, the Fig-style metric CSV, the
    iteration's candidate records and branch points and, for a transfer,
    its train/test accuracy series.  `close` closes every file; if one
    fails to open, those opened before it are closed at once."""

    def __init__(self, out_dir: Path, transfer: bool):
        names = ["growth_log.jsonl", "candidates.jsonl", "metrics.csv",
                 "branch_series.csv"]
        names += ["transfer_series.csv"] if transfer else []
        with contextlib.ExitStack() as opened:
            self.files = [opened.enter_context(open(out_dir / name, "w",
                                                    newline=""))
                          for name in names]
            self.close = opened.pop_all().close
        self.log, self.candidates = self.files[:2]
        self.metrics, self.branch_series, *self.series = [
            csv.writer(fh) for fh in self.files[2:]]
        for writer in (self.metrics, self.branch_series):
            writer.writerow(["iteration", "branches", "accuracy", "loss"])
        for series in self.series:
            series.writerow(["iteration", "branches", "train_accuracy",
                             "test_accuracy"])

    def __call__(self, state):
        record = state.records[-1]
        self.log.write(record.to_json_line() + "\n")
        for rec in state.candidate_records:
            self.candidates.write(json.dumps(rec, sort_keys=True) + "\n")
        self.metrics.writerow([record.iteration, record.branch_count,
                               record.test_accuracy, record.test_loss])
        for point in state.branch_points:
            self.branch_series.writerow([point.iteration, point.branch_count,
                                         point.accuracy, point.loss])
        for series in self.series:
            series.writerow([record.iteration, record.branch_count,
                             state.train.accuracy, record.test_accuracy])
        for fh in self.files:
            fh.flush()


def cmd_train_base(args, cfg) -> int:
    from .checkpoint import save_checkpoint
    from .nam_model import build_network, evaluate, parameter_count
    from .nn_core import optimizer_step_count
    from .training import train_network

    train = _load_split(cfg, "train")
    test = _load_split(cfg, "test")
    grid = cfg["model"]["grid"].strip().lower()
    spacings = {"base": 6, "full": 3}
    if grid not in spacings:
        raise ConfigError(f"unknown grid {grid!r} (expected base or full)")
    train_config = _train_config(cfg)
    seed = train_config.seed
    name = cfg["data"]["dataset"].strip().lower()
    net = build_network(train.shape, train.n_classes, seed, spacings[grid],
                        tag=f"{name}-{grid}")
    log.info("training %d branches (%d parameters) for %d epochs",
             net.n_branches, parameter_count(net), train_config.epochs)
    out_dir = _prepare_out_dir(cfg, args)
    steps = optimizer_step_count()
    with open(out_dir / "epochs.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "eval_accuracy", "eval_loss"])
        fh.flush()

        def on_epoch(metrics):
            writer.writerow([metrics.epoch, metrics.train_loss,
                             metrics.eval_accuracy, metrics.eval_loss])
            fh.flush()
            log.info("epoch %d: train loss %.4f, test accuracy %.4f",
                     metrics.epoch, metrics.train_loss, metrics.eval_accuracy)

        history = train_network(net, train, train_config, eval_dataset=test,
                                on_epoch=on_epoch)
    save_checkpoint(net, out_dir / "checkpoint.json")
    # The last epoch already scored the trained network on the test split.
    if history:
        accuracy, loss = history[-1].eval_accuracy, history[-1].eval_loss
    else:
        accuracy, loss = evaluate(net, test)
    _write_json(out_dir / "run_meta.json", {
        "command": "train-base",
        "dataset": name,
        "grid": grid,
        "seed": seed,
        "input_hashes": _input_hashes(cfg, args),
        "optimizer_steps": optimizer_step_count() - steps,
        "branch_count": net.n_branches,
        "parameter_count": parameter_count(net),
        "test_accuracy": accuracy,
        "test_loss": loss,
    })
    log.info("done: test accuracy %.4f, loss %.4f -> %s", accuracy, loss,
             out_dir)
    return EXIT_OK


def cmd_growth(args, cfg) -> int:
    """`grow` and `transfer`: grow a network from a checkpoint's branches
    and write the run's outputs."""
    from . import artifact
    from .checkpoint import load_checkpoint, save_checkpoint
    from .clustering import clusters_from_json
    from .growth import check_draws, cluster_source, run_growth, \
        source_mlps, transfer_task
    from .nam_model import parameter_count
    from .nn_core import optimizer_step_count

    transfer = args.command == "transfer"
    net = load_checkpoint(args.checkpoint)
    train = _load_split(cfg, "train")
    test = _load_split(cfg, "test")
    # transfer reads the key too, so a bad value is refused, not recorded
    limit = _config_value(cfg, "growth", "max_iterations", int)
    if limit < -1:
        raise ConfigError("[growth] max_iterations must be >= -1 "
                          "(-1 = no limit)")
    run = transfer_task
    if not transfer:
        _check_geometry(net, train)
        run = functools.partial(run_growth,
                                max_iterations=None if limit == -1 else limit)
    growth_config = _growth_config(cfg)
    check_draws(train, growth_config)
    cluster_table = None
    if args.cluster_cache:
        mlps = source_mlps(net, transfer)
        cluster_table = artifact.load(
            args.cluster_cache, "cluster cache", clusters_from_json, mlps,
            cluster_source(mlps, growth_config.cluster, growth_config.seed,
                           args.command))
    out_dir = _prepare_out_dir(cfg, args)
    steps = optimizer_step_count()
    writer = _IterationWriter(out_dir, transfer)
    try:
        state = run(net, train, growth_config, test_set=test,
                    cluster_table=cluster_table, on_iteration=writer)
    finally:
        writer.close()
    steps = optimizer_step_count() - steps
    if transfer and steps != 0:
        raise RuntimeError(
            f"transfer must never train, but {steps} optimizer steps ran")
    save_checkpoint(state.net, out_dir / "checkpoint.json")
    accepted = sum(r.accepted for r in state.records)
    final = state.records[-1] if state.records else None
    meta = {
        "command": args.command,
        "dataset": cfg["data"]["dataset"].strip().lower(),
        "seed": growth_config.seed,
        "input_hashes": _input_hashes(cfg, args),
        "optimizer_steps": steps,
        "iterations": len(state.records),
        "accepted_branches": accepted,
        "branch_count": state.net.n_branches,
        "parameter_count": parameter_count(state.net),
        "test_accuracy": final.test_accuracy if final else None,
        "test_loss": final.test_loss if final else None,
    }
    if transfer:
        meta["empty_network"] = state.net.n_branches == 0
        if meta["empty_network"]:
            log.warning("no placement qualified: transfer produced an empty "
                        "election network (eval refuses it)")
        meta["train_accuracy"] = (state.train.accuracy if state.records
                                  else None)
    else:
        meta["candidates_seen"] = sum(r.candidates_seen for r in state.records)
        meta["selection_loss"] = state.selection.loss
    _write_json(out_dir / "run_meta.json", meta)
    log.info("%s done: %d branches accepted, %d optimizer steps, test "
             "accuracy %s -> %s", args.command, accepted, steps,
             f"{final.test_accuracy:.4f}" if final else "n/a", out_dir)
    return EXIT_OK


def cmd_cluster_cache(args, cfg) -> int:
    from .checkpoint import load_checkpoint
    from .clustering import clusters_to_json
    from .data_io import sha256_file
    from .growth import cluster_source, source_cluster_table, source_mlps

    net = load_checkpoint(args.checkpoint)
    mlps = source_mlps(net, transfer=args.target_command == "transfer")
    cluster, seed = _cluster_config(cfg)
    out_dir = _prepare_out_dir(cfg, args)
    log.info("clustering %d branch MLPs (cache for %s)", len(mlps),
             args.target_command)
    table = source_cluster_table(mlps, cluster, seed)
    source = cluster_source(mlps, cluster, seed, args.target_command)
    (out_dir / "cluster_cache.json").write_text(
        clusters_to_json(table, source) + "\n")
    hashes = {"checkpoint": sha256_file(args.checkpoint)}
    if getattr(args, "config", None):
        hashes["config"] = sha256_file(args.config)
    _write_json(out_dir / "run_meta.json", {
        "command": "cluster-cache",
        "for": args.target_command,
        "seed": seed,
        "input_hashes": hashes,
        "source_branches": len(mlps),
        "cluster_counts": [[s.n_clusters for s in per_branch]
                           for per_branch in table],
    })
    log.info("cluster cache for %d branches -> %s", len(mlps), out_dir)
    return EXIT_OK


def cmd_eval(args, cfg) -> int:
    import numpy as np

    from .checkpoint import load_checkpoint
    from .nam_model import network_scores, parameter_count, score_metrics

    net = load_checkpoint(args.checkpoint)
    if net.n_branches == 0:
        raise ValueError(f"checkpoint {args.checkpoint} has no branches: "
                         f"there is nothing to evaluate")
    dataset = _load_split(cfg, args.split)
    _check_geometry(net, dataset)
    scores = network_scores(net, dataset)
    accuracy, loss = score_metrics(scores, dataset.labels)
    preds = np.argmax(scores, axis=1)
    # A class the split lacks has no accuracy: null, never a NaN.
    per_class = [float(np.mean(preds[dataset.labels == c] == c))
                 if np.any(dataset.labels == c) else None
                 for c in range(net.n_classes)]
    doc = {
        "checkpoint": str(args.checkpoint),
        "dataset": cfg["data"]["dataset"].strip().lower(),
        "split": args.split,
        "mode": net.mode,
        "accuracy": accuracy,
        "loss": loss,
        "per_class_accuracy": per_class,
        "branch_count": net.n_branches,
        "parameter_count": parameter_count(net),
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return EXIT_OK


def _offer(parser, *flags) -> None:
    """Offer each of `flags` on `parser`, bound to its [section] key."""
    for flag in flags:
        section, key, keywords = _FLAGS[flag]
        keywords = {"help": f"override [{section}] {key}", **keywords}
        parser.add_argument(flag, dest=f"{section}.{key}", metavar=(
            None if "choices" in keywords else key.upper()), **keywords)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="namgrow",
        description="Grow neural additive models by re-using trained branches.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, *flags):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="INI config file")
        _offer(p, *flags)
        return p

    common = ("--seed", "--dataset", "--data-dir", "--out-dir", "--threads")
    command("train-base", cmd_train_base,
            "train a base or full-perception network",
            *common, "--grid", "--epochs")

    p = command("grow", cmd_growth, "grow a trained network on its own task",
                *common)
    p.add_argument("--checkpoint", required=True, help="base checkpoint JSON")
    _offer(p, "--max-iterations")
    p.add_argument("--cluster-cache", dest="cluster_cache",
                   help="precomputed cluster_cache.json (skips clustering)")

    p = command("transfer", cmd_growth,
                "transfer branches to a new task (election mode)", *common)
    p.add_argument("--checkpoint", required=True,
                   help="source-task checkpoint JSON")
    p.add_argument("--cluster-cache", dest="cluster_cache",
                   help="precomputed cluster_cache.json (skips clustering)")

    p = command("eval", cmd_eval, "evaluate a checkpoint on a dataset split",
                "--dataset", "--data-dir", "--threads")
    p.add_argument("--checkpoint", required=True, help="checkpoint JSON")
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.add_argument("--out", help="also write the metrics JSON to this file")

    p = command("cluster-cache", cmd_cluster_cache,
                "precompute branch cluster summaries for re-use",
                "--seed", "--out-dir", "--threads")
    p.add_argument("--checkpoint", required=True, help="checkpoint JSON")
    p.add_argument("--for", dest="target_command",
                   choices=["grow", "transfer"], default="grow",
                   help="consumer command (grow clusters only the original "
                        "trained branches, transfer clusters all branches)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = resolve_config(args)
        _set_thread_limit(cfg)
        return args.handler(args, cfg)
    except (ConfigError, configparser.Error) as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except Exception:
        log.exception("internal error")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
