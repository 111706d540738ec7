"""The benchmark's workloads: inputs, timed namgrow commands, output checks.

Each workload gets its own data directory, because the CLI hashes every
file under `data_dir`.  The data seed comes from the benchmark's --seed;
the program's own seed ([run] seed in each config) stays fixed at 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import synth

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# The class patterns are fixed, so every seed poses the same task and the
# seed draws labels and pixel noise.  With seeded patterns the amount of
# growth, and with it the work of a run, varied by a fifth between seeds.
TEMPLATE_SEED = 20220117
# Pixel noise and class-pattern amplitudes, in 0-255 grey levels.  Strong
# enough patterns keep the test accuracy, a reported metric, within a few
# percent between seeds.
NOISE = 100.0
CIFAR_AMPLITUDE = 90.0
GROW_AMPLITUDE = 80.0
TRANSFER_AMPLITUDE = 100.0
# eval runs this many times in each untraced repetition.  It takes about a
# second or less, and single timings of it spread by a third; a quartile
# over a dozen runs is steady where one run per repetition was not.
EVAL_SAMPLES = 3
# 10x10 single-channel images: the base grid (spacing 6) has windows at
# rows and columns 0 and 6, so 4 base branches and 64 stride-1 windows.
MNIST_SIDE = 10


@dataclass
class Command:
    """One namgrow CLI invocation of a repetition."""

    name: str                  # metric stem: train_base, grow, eval, ...
    args: list[str]            # arguments after `python -m namgrow.cli`
    outputs: tuple[str, ...]   # files whose SHA-256 must repeat
    samples: int = 1           # timed runs per untraced repetition


@dataclass
class Workload:
    name: str
    why: str                   # why the benchmark runs it
    setup: Callable            # (ws, seed, run_cli) -> None
    commands: Callable         # (ws, rep) -> list[Command]
    checks: Callable           # (ws, rep) -> list[(name, ok, detail)]
    eval_images: int           # images of the split eval scores


def _read_json(path: Path):
    return json.loads(path.read_text())


def _templates(n_blocks: int, amplitude: float) -> np.ndarray:
    return synth.class_templates(np.random.default_rng(TEMPLATE_SEED),
                                 n_blocks, amplitude)


def _cli_args(ws: Path, config: str, data: str, *args: str) -> list[str]:
    return [*args, "--config", str(CONFIG_DIR / config),
            "--data-dir", str(ws / data)]


def _eval(ws: Path, rep: Path, config: str, data: str,
          checkpoint: Path) -> Command:
    return Command("eval", _cli_args(ws, config, data, "eval", "--checkpoint",
                                     str(checkpoint), "--out",
                                     str(rep / "eval.json")), (),
                   EVAL_SAMPLES)


def _eval_matches_producer(rep: Path, producer: str):
    """eval's accuracy equals the accuracy the producing command recorded."""
    produced = _read_json(rep / producer / "run_meta.json")["test_accuracy"]
    evaluated = _read_json(rep / "eval.json")["accuracy"]
    return ("eval accuracy == run_meta test_accuracy",
            produced == evaluated, f"{evaluated} vs {produced}")


def _growth_log_checks(rep: Path, producer: str):
    """Checks shared by grow and transfer outputs."""
    meta = _read_json(rep / producer / "run_meta.json")
    lines = lambda name: (rep / producer / name).read_text().splitlines()  # noqa: E731
    losses = [json.loads(line)["selection_loss"]
              for line in lines("growth_log.jsonl")]
    kept = sum(json.loads(line)["kept"] for line in lines("candidates.jsonl"))
    accepted = meta["accepted_branches"]
    return meta, [
        ("selection loss never increases",
         all(b <= a for a, b in zip(losses, losses[1:])),
         f"{len(losses)} iterations"),
        ("kept candidates == accepted", kept == accepted,
         f"{kept} vs {accepted}"),
        ("some branches accepted", accepted > 0, f"{accepted} accepted"),
    ]


# --- cifar-base -------------------------------------------------------------
# Paper-shaped (3,32,32) CIFAR-10 binary data and the 75-branch base
# network, 10 classes.  train-base (two epochs), cluster-cache --for grow
# (n_samples cut from 10000) and eval on a 10000-image test split: training,
# clustering, the nam_model forward and data loading or hashing do the work,
# while matching, qualification and growth do none, so optimisations to
# those should leave this workload unchanged.

CIFAR_PER_BATCH = 800      # x5 training batches
CIFAR_TEST = 10000
# Three windows on the 6-pixel base grid, two off it.
CIFAR_BLOCKS = [(0, 0, 0), (1, 12, 12), (2, 24, 24), (0, 15, 15), (1, 6, 21)]


def _cifar_setup(ws: Path, seed: int, run_cli) -> None:
    synth.write_cifar10(ws / "data", np.random.default_rng(seed),
                        CIFAR_PER_BATCH, CIFAR_TEST, CIFAR_BLOCKS,
                        _templates(len(CIFAR_BLOCKS), CIFAR_AMPLITUDE), NOISE)


def _cifar_commands(ws: Path, rep: Path) -> list[Command]:
    ckpt = rep / "train_base" / "checkpoint.json"
    return [
        Command("train_base", _cli_args(ws, "cifar_base.ini", "data",
                                        "train-base", "--out-dir",
                                        str(rep / "train_base")),
                ("train_base/checkpoint.json",)),
        Command("cluster_cache",
                ["cluster-cache", "--config",
                 str(CONFIG_DIR / "cifar_base.ini"), "--checkpoint", str(ckpt),
                 "--for", "grow", "--out-dir", str(rep / "cluster_cache")],
                ("cluster_cache/cluster_cache.json",)),
        _eval(ws, rep, "cifar_base.ini", "data", ckpt),
    ]


def _cifar_checks(ws: Path, rep: Path):
    return [_eval_matches_producer(rep, "train_base")]


# --- grow-scan --------------------------------------------------------------
# Same-task growth in tuning mode on single-channel MNIST-IDX images with a
# reduced side.  The run clusters its own source branches (no cache), so
# the whole stride-1 scan, qualification, mask tuning and the
# accept-or-rollback rule all run; eval then scores a grown network of
# hundreds of masked branches.  Class signal lies both on the base grid
# and off it, so the base learns and growth has something to find.
# Matching dominates.

GROW_TRAIN = 2000
GROW_TEST = 4000
GROW_BLOCKS = [(0, 0, 0), (0, 6, 6), (0, 3, 3), (0, 6, 1)]


def _grow_setup(ws: Path, seed: int, run_cli) -> None:
    synth.write_mnist(ws / "data", np.random.default_rng(seed), MNIST_SIDE,
                      GROW_TRAIN, GROW_TEST, GROW_BLOCKS,
                      _templates(len(GROW_BLOCKS), GROW_AMPLITUDE), NOISE)
    run_cli("train_base", _cli_args(ws, "grow_scan.ini", "data", "train-base",
                                    "--out-dir", str(ws / "base")))


def _grow_commands(ws: Path, rep: Path) -> list[Command]:
    return [
        Command("grow", _cli_args(ws, "grow_scan.ini", "data", "grow",
                                  "--checkpoint",
                                  str(ws / "base" / "checkpoint.json"),
                                  "--out-dir", str(rep / "grow")),
                ("grow/checkpoint.json", "grow/candidates.jsonl")),
        _eval(ws, rep, "grow_scan.ini", "data",
              rep / "grow" / "checkpoint.json"),
    ]


def _grow_checks(ws: Path, rep: Path):
    meta, checks = _growth_log_checks(rep, "grow")
    base = _read_json(ws / "base" / "run_meta.json")["parameter_count"]
    expected = base + 2 * meta["accepted_branches"]
    checks.append(("parameter_count == base + 2 x accepted",
                   meta["parameter_count"] == expected,
                   f"{meta['parameter_count']} vs {expected}"))
    checks.append(_eval_matches_producer(rep, "grow"))
    return checks


# --- transfer-elect ---------------------------------------------------------
# Election-mode transfer of a small trained source network onto a task
# whose class patterns sit in other windows, then eval.  A small matching
# kernel (few reference images and cluster samples) against a large train
# and selection set makes per-candidate scoring, qualification and the
# fitting of election statistics dominate, with matching the smaller share.
# It runs the same growth, qualification and nam_model code as grow-scan in
# the other mode, so a gain in one mode that costs the other shows.  The
# source network sees all four patterns on its base grid; the target task
# moves them off it.  Transfer must keep branches, as in the paper: a run
# that keeps none fails the checks, and eval of the empty network fails.

SOURCE_TRAIN = 2000
SOURCE_TEST = 500
TARGET_TRAIN = 8000
TARGET_TEST = 2500
SOURCE_BLOCKS = [(0, 0, 0), (0, 0, 6), (0, 6, 0), (0, 6, 6)]
TARGET_BLOCKS = [(0, 1, 1), (0, 1, 6), (0, 6, 2), (0, 5, 7)]


def _transfer_setup(ws: Path, seed: int, run_cli) -> None:
    rng = np.random.default_rng(seed)
    templates = _templates(len(SOURCE_BLOCKS), TRANSFER_AMPLITUDE)
    synth.write_mnist(ws / "source", rng, MNIST_SIDE, SOURCE_TRAIN,
                      SOURCE_TEST, SOURCE_BLOCKS, templates, NOISE)
    synth.write_mnist(ws / "target", rng, MNIST_SIDE, TARGET_TRAIN,
                      TARGET_TEST, TARGET_BLOCKS, templates, NOISE)
    run_cli("train_base", _cli_args(ws, "transfer_elect.ini", "source",
                                    "train-base", "--out-dir",
                                    str(ws / "base")))


def _transfer_commands(ws: Path, rep: Path) -> list[Command]:
    return [
        Command("transfer", _cli_args(ws, "transfer_elect.ini", "target",
                                      "transfer", "--checkpoint",
                                      str(ws / "base" / "checkpoint.json"),
                                      "--out-dir", str(rep / "transfer")),
                ("transfer/checkpoint.json", "transfer/candidates.jsonl")),
        _eval(ws, rep, "transfer_elect.ini", "target",
              rep / "transfer" / "checkpoint.json"),
    ]


def _transfer_checks(ws: Path, rep: Path):
    meta, checks = _growth_log_checks(rep, "transfer")
    checks.append(("optimizer_steps == 0", meta["optimizer_steps"] == 0,
                   f"{meta['optimizer_steps']} steps"))
    checks.append(_eval_matches_producer(rep, "transfer"))
    return checks


WORKLOADS = {w.name: w for w in [
    Workload("cifar-base",
             "training, clustering, the model forward and data loading work "
             "on paper-shaped data; matching, qualification and growth idle",
             _cifar_setup, _cifar_commands, _cifar_checks, CIFAR_TEST),
    Workload("grow-scan",
             "tuning-mode growth over every stride-1 window with uncached "
             "clustering, then eval of hundreds of masked branches; matching "
             "dominates",
             _grow_setup, _grow_commands, _grow_checks, GROW_TEST),
    Workload("transfer-elect",
             "election-mode transfer with a small matching kernel and large "
             "train and selection sets; scoring, qualification and election "
             "statistics dominate, no optimizer steps",
             _transfer_setup, _transfer_commands, _transfer_checks,
             TARGET_TEST),
]}
