"""CLI tests against a fabricated miniature IDX dataset.

The images are 12x12 with ten classes, each class brightening one 3x3
block.  Only four blocks sit on the sparse base grid, so the base network
tops out early and growth has genuine headroom; the rest of the pipeline
(transfer, eval) runs on the same files.
"""

import configparser
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import namgrow
from namgrow.cli import DEFAULT_CONFIG, main

BLOCKS = [(0, 0), (0, 6), (6, 0), (6, 6), (0, 3),
          (3, 0), (3, 3), (3, 6), (6, 3), (2, 2)]


def _write_idx(path, array, magic):
    with open(path, "wb") as fh:
        fh.write(magic.to_bytes(4, "big"))
        for dim in array.shape:
            fh.write(int(dim).to_bytes(4, "big"))
        fh.write(array.astype(np.uint8).tobytes())


def _block_images(rng, n_per_class):
    n = 10 * n_per_class
    images = rng.integers(90, 131, size=(n, 12, 12)).astype(np.int64)
    labels = np.repeat(np.arange(10), n_per_class).astype(np.uint8)
    for c, (row, col) in enumerate(BLOCKS):
        rows = slice(c * n_per_class, (c + 1) * n_per_class)
        images[rows, row:row + 3, col:col + 3] += 90
    order = rng.permutation(n)
    return np.clip(images, 0, 255)[order], labels[order]


def _parser_of(value):
    """int or float, whichever parses a numeric default; None for text."""
    for parse in (int, float):
        try:
            parse(value)
            return parse
        except ValueError:
            pass
    return None


def _run_in_subprocess(args, threads, cwd=None):
    """Run the CLI in its own process: the --threads cap only takes effect
    before NumPy is first imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(namgrow.__file__).parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "namgrow.cli", *args,
         "--threads", str(threads)],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("idx-mini")
    rng = np.random.default_rng(0)
    images, labels = _block_images(rng, 30)
    _write_idx(root / "train-images-idx3-ubyte", images, 2051)
    _write_idx(root / "train-labels-idx1-ubyte", labels, 2049)
    images, labels = _block_images(rng, 10)
    _write_idx(root / "t10k-images-idx3-ubyte", images, 2051)
    _write_idx(root / "t10k-labels-idx1-ubyte", labels, 2049)
    return root


@pytest.fixture(scope="module")
def config_file(tmp_path_factory, data_dir):
    path = tmp_path_factory.mktemp("cfg") / "run.ini"
    path.write_text(f"""
[data]
dataset = mnist
data_dir = {data_dir}

[train]
epochs = 8
batch_size = 64
learning_rate = 3e-3

[growth]
selection_size = 100
max_per_iteration = 16
tuning_epochs = 1
reference_per_class = 10
max_iterations = 4

[cluster]
n_samples = 200
""")
    return path


@pytest.fixture(scope="module")
def base_run(tmp_path_factory, config_file):
    out = tmp_path_factory.mktemp("base")
    code = main(["train-base", "--config", str(config_file),
                 "--out-dir", str(out), "--seed", "3"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def grow_run(tmp_path_factory, config_file, base_run):
    out = tmp_path_factory.mktemp("grown")
    code = main(["grow", "--config", str(config_file),
                 "--checkpoint", str(base_run / "checkpoint.json"),
                 "--out-dir", str(out), "--seed", "3"])
    assert code == 0
    return out


class TestTrainBase:
    def test_outputs_present(self, base_run):
        for name in ("checkpoint.json", "epochs.csv", "run_meta.json",
                     "config.ini"):
            assert (base_run / name).is_file()

    @pytest.mark.parametrize("grid, spacing", [("base", 6), ("full", 3)])
    def test_grid_places_branches_on_its_spacing(self, tmp_path, config_file,
                                                 grid, spacing):
        from namgrow.data_io import base_grid_ranges

        out = tmp_path / grid
        code = main(["train-base", "--config", str(config_file),
                     "--out-dir", str(out), "--grid", grid, "--epochs", "0"])
        assert code == 0
        doc = json.loads((out / "checkpoint.json").read_text())
        windows = [tuple(rec["input_range"]) for rec in doc["branches"]]
        assert windows == [r.as_tuple()
                           for r in base_grid_ranges((1, 12, 12), spacing)]
        assert {rec["activation"] for rec in doc["branches"]} == {"relu"}

    def test_epoch_csv_has_all_epochs(self, base_run):
        lines = (base_run / "epochs.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,eval_accuracy,eval_loss"
        assert len(lines) == 1 + 8

    def test_run_meta_reports_the_run(self, base_run):
        meta = json.loads((base_run / "run_meta.json").read_text())
        assert meta["command"] == "train-base"
        assert meta["seed"] == 3
        assert meta["branch_count"] == 4
        assert meta["parameter_count"] == 4 * 450
        # 8 epochs of 300 samples in batches of 64 -> 5 steps per epoch
        assert meta["optimizer_steps"] == 8 * 5
        assert meta["test_accuracy"] > 0.25
        assert set(meta["input_hashes"]["data"]) == {
            "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
            "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"}

    def test_last_epoch_row_is_the_reported_test_metrics(self, base_run):
        rows = (base_run / "epochs.csv").read_text().splitlines()
        last = rows[-1].split(",")
        meta = json.loads((base_run / "run_meta.json").read_text())
        assert float(last[2]) == meta["test_accuracy"]
        assert float(last[3]) == meta["test_loss"]

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_scores_the_test_split_once_per_epoch(
            self, monkeypatch, tmp_path, config_file, epochs):
        """Each epoch scores the test split through the network's engine,
        and the reported metrics reuse the last epoch's score; without
        epochs the untrained network is scored once."""
        from namgrow import nam_model

        scored = []
        original = nam_model.network_scores

        def counting(net, images):
            scored.append(images.shape[0])
            return original(net, images)

        monkeypatch.setattr(nam_model, "network_scores", counting)
        out = tmp_path / "run"
        assert main(["train-base", "--config", str(config_file),
                     "--out-dir", str(out), "--seed", "3",
                     "--epochs", str(epochs)]) == 0
        assert scored == [100] * max(epochs, 1)  # the test split holds 100
        rows = (out / "epochs.csv").read_text().splitlines()
        assert len(rows) == 1 + epochs
        meta = json.loads((out / "run_meta.json").read_text())
        assert isinstance(meta["test_accuracy"], float)
        assert isinstance(meta["test_loss"], float)
        if epochs:
            last = rows[-1].split(",")
            assert float(last[2]) == meta["test_accuracy"]
            assert float(last[3]) == meta["test_loss"]

    def test_training_is_reproducible(self, tmp_path, config_file, base_run):
        out = tmp_path / "again"
        code = main(["train-base", "--config", str(config_file),
                     "--out-dir", str(out), "--seed", "3"])
        assert code == 0
        assert ((out / "checkpoint.json").read_bytes()
                == (base_run / "checkpoint.json").read_bytes())
        assert ((out / "epochs.csv").read_bytes()
                == (base_run / "epochs.csv").read_bytes())


    def test_training_is_identical_across_blas_thread_counts(
            self, tmp_path, config_file):
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            _run_in_subprocess(["train-base", "--config", str(config_file),
                                "--out-dir", str(out), "--seed", "3"],
                               threads)
            outputs.append(out)
        for name in ("checkpoint.json", "epochs.csv"):
            assert ((outputs[0] / name).read_bytes()
                    == (outputs[1] / name).read_bytes()), name


class TestGrow:
    def test_outputs_present(self, grow_run):
        for name in ("checkpoint.json", "growth_log.jsonl", "metrics.csv",
                     "branch_series.csv", "candidates.jsonl", "run_meta.json",
                     "config.ini"):
            assert (grow_run / name).is_file()

    def test_growth_log_matches_meta(self, grow_run):
        meta = json.loads((grow_run / "run_meta.json").read_text())
        records = [json.loads(line) for line in
                   (grow_run / "growth_log.jsonl").read_text().splitlines()]
        assert len(records) == meta["iterations"] <= 4
        assert meta["accepted_branches"] >= 1
        assert meta["branch_count"] == 4 + meta["accepted_branches"]
        assert meta["parameter_count"] == 4 * 450 + 2 * meta["accepted_branches"]
        losses = [r["selection_loss"] for r in records]
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        assert records[-1]["branch_count"] == meta["branch_count"]

    def test_metrics_csv_schema(self, grow_run):
        lines = (grow_run / "metrics.csv").read_text().splitlines()
        assert lines[0] == "iteration,branches,accuracy,loss"
        meta = json.loads((grow_run / "run_meta.json").read_text())
        assert len(lines) == 1 + meta["iterations"]

    def test_candidates_log_parses(self, grow_run):
        meta = json.loads((grow_run / "run_meta.json").read_text())
        records = [json.loads(line) for line in
                   (grow_run / "candidates.jsonl").read_text().splitlines()]
        assert len(records) == meta["candidates_seen"]
        kept = sum(1 for r in records if r["kept"])
        assert kept == meta["accepted_branches"]

    def test_growing_is_reproducible(self, tmp_path, config_file, base_run,
                                     grow_run):
        out = tmp_path / "again"
        code = main(["grow", "--config", str(config_file),
                     "--checkpoint", str(base_run / "checkpoint.json"),
                     "--out-dir", str(out), "--seed", "3"])
        assert code == 0
        for name in ("checkpoint.json", "growth_log.jsonl", "metrics.csv"):
            assert ((out / name).read_bytes()
                    == (grow_run / name).read_bytes())

    def test_growing_is_identical_across_blas_thread_counts(
            self, tmp_path, config_file, base_run):
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            _run_in_subprocess(["grow", "--config", str(config_file),
                                "--checkpoint",
                                str(base_run / "checkpoint.json"),
                                "--out-dir", str(out), "--seed", "3"],
                               threads)
            outputs.append(out)
        for name in ("checkpoint.json", "candidates.jsonl"):
            assert ((outputs[0] / name).read_bytes()
                    == (outputs[1] / name).read_bytes())

    def test_zero_iterations_returns_input_checkpoint(self, tmp_path,
                                                      config_file, base_run):
        out = tmp_path / "noop"
        code = main(["grow", "--config", str(config_file),
                     "--checkpoint", str(base_run / "checkpoint.json"),
                     "--out-dir", str(out), "--seed", "3",
                     "--max-iterations", "0"])
        assert code == 0
        assert ((out / "checkpoint.json").read_bytes()
                == (base_run / "checkpoint.json").read_bytes())
        assert (out / "growth_log.jsonl").read_text() == ""
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines == ["iteration,branches,accuracy,loss"]

    def test_moved_base_weight_is_an_internal_error(self, tmp_path,
                                                    config_file, base_run,
                                                    monkeypatch, caplog):
        """The run-time frozen-weight check turns a base weight that moved
        during growth into exit code 3."""
        from namgrow import growth

        nets = []

        def recording_start_growth(net, *args, **kwargs):
            nets.append(net)
            return real_start_growth(net, *args, **kwargs)

        def nudging_tune_masks(branches, *args, **kwargs):
            nets[0].branches[0].mlp.hidden_layers[0].weights[0, 0] += 1e-9
            return real_tune_masks(branches, *args, **kwargs)

        real_start_growth = growth.start_growth
        real_tune_masks = growth.tune_masks
        monkeypatch.setattr(growth, "start_growth", recording_start_growth)
        monkeypatch.setattr(growth, "tune_masks", nudging_tune_masks)
        code = main(["grow", "--config", str(config_file),
                     "--checkpoint", str(base_run / "checkpoint.json"),
                     "--out-dir", str(tmp_path / "moved"), "--seed", "3",
                     "--max-iterations", "1"])
        assert code == 3
        assert "changed the branches it started from" in caplog.text

    def test_write_through_a_kept_branch_is_an_internal_error(
            self, tmp_path, config_file, base_run, monkeypatch, caplog):
        """A kept branch shares its source's deeper layer objects, so a
        write through it in a later iteration moves a base weight, and the
        run ends with exit code 3."""
        from namgrow import growth

        nudged = []

        def nudging_grow_iteration(state, candidates):
            kept = [br for br in state.net.branches if br.origin == "grown"]
            if kept and not nudged:
                kept[0].mlp.hidden_layers[1].weights[0, 0] += 1e-9
                nudged.append(kept[0])
            return real_grow_iteration(state, candidates)

        real_grow_iteration = growth.grow_iteration
        monkeypatch.setattr(growth, "grow_iteration", nudging_grow_iteration)
        code = main(["grow", "--config", str(config_file),
                     "--checkpoint", str(base_run / "checkpoint.json"),
                     "--out-dir", str(tmp_path / "moved"), "--seed", "3"])
        assert nudged and code == 3
        assert "changed the branches it started from" in caplog.text


@pytest.fixture(scope="module")
def cache_run(tmp_path_factory, config_file, base_run):
    out = tmp_path_factory.mktemp("cache")
    code = main(["cluster-cache", "--config", str(config_file),
                 "--checkpoint", str(base_run / "checkpoint.json"),
                 "--out-dir", str(out), "--seed", "3"])
    assert code == 0
    return out


class TestClusterCache:
    def test_outputs_present(self, cache_run):
        for name in ("cluster_cache.json", "run_meta.json", "config.ini"):
            assert (cache_run / name).is_file()

    def test_cache_document_and_meta(self, cache_run):
        doc = json.loads((cache_run / "cluster_cache.json").read_text())
        assert doc["format"] == "nam-cluster-cache"
        assert len(doc["branches"]) == 4
        assert all(len(per_branch) == 10 for per_branch in doc["branches"])
        meta = json.loads((cache_run / "run_meta.json").read_text())
        assert meta["command"] == "cluster-cache"
        assert meta["for"] == "grow"
        assert meta["source_branches"] == 4
        assert meta["cluster_counts"] == [
            [len(rec["centers"]) for rec in per_branch]
            for per_branch in doc["branches"]]
        assert set(meta["input_hashes"]) == {"checkpoint", "config"}

    def test_cache_is_identical_across_blas_thread_counts(
            self, tmp_path, config_file, base_run):
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            _run_in_subprocess(["cluster-cache", "--config", str(config_file),
                                "--checkpoint",
                                str(base_run / "checkpoint.json"),
                                "--out-dir", str(out), "--seed", "3"],
                               threads)
            outputs.append(out)
        assert ((outputs[0] / "cluster_cache.json").read_bytes()
                == (outputs[1] / "cluster_cache.json").read_bytes())

    def test_transfer_cache_of_base_network_matches_grow_cache(
            self, tmp_path, config_file, base_run, cache_run):
        # every branch of a freshly trained network has origin "base", so
        # the grow and transfer subsets coincide and so must the caches
        out = tmp_path / "for_transfer"
        code = main(["cluster-cache", "--config", str(config_file),
                     "--checkpoint", str(base_run / "checkpoint.json"),
                     "--out-dir", str(out), "--seed", "3",
                     "--for", "transfer"])
        assert code == 0
        assert ((out / "cluster_cache.json").read_bytes()
                == (cache_run / "cluster_cache.json").read_bytes())

    def test_cached_grow_matches_uncached(self, tmp_path, config_file,
                                          base_run, grow_run, cache_run):
        out = tmp_path / "cached"
        code = main(["grow", "--config", str(config_file),
                     "--checkpoint", str(base_run / "checkpoint.json"),
                     "--cluster-cache", str(cache_run / "cluster_cache.json"),
                     "--out-dir", str(out), "--seed", "3"])
        assert code == 0
        for name in ("checkpoint.json", "growth_log.jsonl", "metrics.csv",
                     "candidates.jsonl"):
            assert (out / name).read_bytes() == (grow_run / name).read_bytes()
        meta = json.loads((out / "run_meta.json").read_text())
        assert "cluster_cache" in meta["input_hashes"]

    def test_cached_transfer_matches_uncached(self, tmp_path, config_file,
                                              base_run, transfer_run,
                                              cache_run):
        out = tmp_path / "cached"
        code = main(["transfer", "--config", str(config_file),
                     "--checkpoint", str(base_run / "checkpoint.json"),
                     "--cluster-cache", str(cache_run / "cluster_cache.json"),
                     "--out-dir", str(out), "--seed", "3"])
        assert code == 0
        for name in ("checkpoint.json", "growth_log.jsonl",
                     "transfer_series.csv"):
            assert ((out / name).read_bytes()
                    == (transfer_run / name).read_bytes())

    def test_malformed_cache_is_a_data_error(self, tmp_path, config_file,
                                             base_run):
        bad = tmp_path / "bad.json"
        for text in ("{}", "[]"):
            bad.write_text(text)
            code = main(["grow", "--config", str(config_file),
                         "--checkpoint", str(base_run / "checkpoint.json"),
                         "--cluster-cache", str(bad),
                         "--out-dir", str(tmp_path / "out"), "--seed", "3"])
            assert code == 2
        code = main(["grow", "--config", str(config_file),
                     "--checkpoint", str(base_run / "checkpoint.json"),
                     "--cluster-cache", str(tmp_path / "absent.json"),
                     "--out-dir", str(tmp_path / "out"), "--seed", "3"])
        assert code == 2


def _cache_class_out_of_range(rec):
    rec["branch_class"] = 12


def _cache_bool_class(rec):
    rec["branch_class"] = True


def _cache_narrow_centers(rec):
    rec["centers"] = [row[:8] for row in rec["centers"]]


def _cache_narrow_record(rec):
    for key in ("sample_mean", "sample_min", "sample_max"):
        rec[key] = rec[key][:8]
    _cache_narrow_centers(rec)


def _cache_no_centers(rec):
    rec["centers"] = []


def _cache_nan_center(rec):
    rec["centers"][0][4] = float("nan")


def _cache_huge_integer_center(rec):
    rec["centers"][0][4] = 10 ** 400


def _cache_short_max_outputs(rec):
    rec["max_outputs"] = rec["max_outputs"][:-1]


def _cache_min_above_max(rec):
    rec["sample_min"], rec["sample_max"] = rec["sample_max"], rec["sample_min"]


def _cache_n_pairs(value):
    def corrupt(rec):
        rec["n_pairs"] = value
    corrupt.__name__ = f"_cache_n_pairs_{value!r}"
    return corrupt


def _cache_n_pairs_below_centers(rec):
    rec["n_pairs"] = len(rec["centers"]) - 1


class TestMalformedClusterCaches:
    """A cache record that does not fit the run is a data error (exit 2)
    naming its branch and field, whether the cache itself is malformed or
    it does not fit the checkpoint's branch MLPs."""

    @pytest.mark.parametrize("command", ["grow", "transfer"])
    @pytest.mark.parametrize("corrupt, message", [
        (_cache_class_out_of_range, "cluster cache branch 1 summary 2: "
                                    "branch_class 12 is not below the "
                                    "branch's 10 classes"),
        (_cache_bool_class, "cluster cache branch 1 summary 2: branch_class "
                            "True is not a class index"),
        (_cache_narrow_centers, "cluster cache branch 1 summary 2: "
                                "sample_mean has shape (9,), expected the "
                                "centers' width (8,)"),
        (_cache_narrow_record, "cluster cache branch 1 summary 2: centers "
                               "are 8 wide, the branch takes 9 inputs"),
        (_cache_no_centers, "cluster cache branch 1 summary 2: centers have "
                            "shape (0,), expected a non-empty matrix"),
        (_cache_nan_center, "cluster cache branch 1 summary 2: centers are "
                            "not all finite"),
        (_cache_huge_integer_center, "cluster cache branch 1 summary 2: "
                                     "int too large to convert to float"),
        (_cache_short_max_outputs, "cluster cache branch 1 summary 2: "
                                   "max_outputs have shape"),
        (_cache_min_above_max, "cluster cache branch 1 summary 2: "
                               "sample_min exceeds sample_max"),
        *[(_cache_n_pairs(value), f"cluster cache branch 1 summary 2: "
                                  f"n_pairs {value!r} is not an integer of "
                                  f"at least the ")
          for value in ("x", -3, True, 0, 2.5, None)],
        (_cache_n_pairs_below_centers, "cluster cache branch 1 summary 2: "
                                       "n_pairs "),
    ])
    def test_is_a_data_error_naming_the_branch(
            self, tmp_path, config_file, base_run, cache_run, caplog,
            command, corrupt, message):
        doc = json.loads((cache_run / "cluster_cache.json").read_text())
        corrupt(doc["branches"][1][2])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main([command, "--config", str(config_file),
                     "--checkpoint", str(base_run / "checkpoint.json"),
                     "--cluster-cache", str(bad),
                     "--out-dir", str(tmp_path / "out"), "--seed", "3"])
        assert code == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].startswith(message), errors

    def test_error_names_the_cache_file(self, tmp_path, config_file,
                                        base_run, cache_run, caplog):
        doc = json.loads((cache_run / "cluster_cache.json").read_text())
        _cache_nan_center(doc["branches"][1][2])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["grow", "--config", str(config_file),
                     "--checkpoint", str(base_run / "checkpoint.json"),
                     "--cluster-cache", str(bad),
                     "--out-dir", str(tmp_path / "out"), "--seed", "3"])
        assert code == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == ["cluster cache branch 1 summary 2: centers are not "
                          f"all finite (cluster cache {bad})"]

    def test_cache_of_other_branches_is_a_data_error(
            self, tmp_path, config_file, grow_run, caplog):
        """A grow cache of a grown checkpoint covers only its base
        branches, while a transfer re-uses every branch."""
        cache = tmp_path / "cache"
        assert main(["cluster-cache", "--config", str(config_file),
                     "--checkpoint", str(grow_run / "checkpoint.json"),
                     "--out-dir", str(cache), "--seed", "3",
                     "--for", "grow"]) == 0
        branches = json.loads(
            (grow_run / "run_meta.json").read_text())["branch_count"]
        assert branches > 4
        path = cache / "cluster_cache.json"
        code = main(["transfer", "--config", str(config_file),
                     "--checkpoint", str(grow_run / "checkpoint.json"),
                     "--cluster-cache", str(path),
                     "--out-dir", str(tmp_path / "out"), "--seed", "3"])
        assert code == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == [f"cluster cache covers 4 branches, the run re-uses "
                          f"{branches} (cluster cache {path})"]


@pytest.fixture(scope="module")
def transfer_run(tmp_path_factory, config_file, base_run):
    out = tmp_path_factory.mktemp("transferred")
    code = main(["transfer", "--config", str(config_file),
                 "--checkpoint", str(base_run / "checkpoint.json"),
                 "--out-dir", str(out), "--seed", "3"])
    assert code == 0
    return out


class TestTransfer:
    def test_no_training_happens(self, transfer_run):
        meta = json.loads((transfer_run / "run_meta.json").read_text())
        assert meta["optimizer_steps"] == 0
        assert meta["parameter_count"] == 0

    def test_election_network_written(self, transfer_run):
        meta = json.loads((transfer_run / "run_meta.json").read_text())
        assert meta["branch_count"] >= 1
        assert meta["empty_network"] is False
        doc = json.loads((transfer_run / "checkpoint.json").read_text())
        assert doc["mode"] == "election"
        assert all(b["origin"] == "transferred" for b in doc["branches"])
        assert meta["test_accuracy"] > 0.1

    def test_transfer_and_eval_are_identical_across_blas_thread_counts(
            self, tmp_path, config_file, data_dir, base_run, grow_run):
        """eval of the transferred (election) and the grown (tuning)
        network runs in the transfer's output directory, so eval.json names
        the same checkpoint path in both runs."""
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            _run_in_subprocess(["transfer", "--config", str(config_file),
                                "--checkpoint",
                                str(base_run / "checkpoint.json"),
                                "--out-dir", str(out), "--seed", "3"],
                               threads)
            for name, checkpoint in (
                    ("eval_transferred.json", "checkpoint.json"),
                    ("eval_grown.json", str(grow_run / "checkpoint.json"))):
                _run_in_subprocess(["eval", "--checkpoint", checkpoint,
                                    "--dataset", "mnist",
                                    "--data-dir", str(data_dir),
                                    "--out", name], threads, cwd=out)
            outputs.append(out)
        for name in ("checkpoint.json", "candidates.jsonl",
                     "transfer_series.csv", "eval_transferred.json",
                     "eval_grown.json"):
            assert ((outputs[0] / name).read_bytes()
                    == (outputs[1] / name).read_bytes()), name

    def test_moved_source_weight_is_an_internal_error(self, tmp_path,
                                                      config_file, base_run,
                                                      monkeypatch, caplog):
        """The run-time frozen-weight check turns a source weight that
        moved during transfer into exit code 3."""
        from namgrow import growth

        def nudging_grow_iteration(state, candidates):
            def nudged():
                for cand in candidates:
                    # deeper layers are the source's own objects
                    cand.mlp.hidden_layers[1].weights[0, 0] += 1e-9
                    yield cand
            return real_grow_iteration(state, nudged())

        real_grow_iteration = growth.grow_iteration
        monkeypatch.setattr(growth, "grow_iteration", nudging_grow_iteration)
        code = main(["transfer", "--config", str(config_file),
                     "--checkpoint", str(base_run / "checkpoint.json"),
                     "--out-dir", str(tmp_path / "moved"), "--seed", "3"])
        assert code == 3
        assert "changed the branches it started from" in caplog.text

    def test_transfer_series_tracks_iterations(self, transfer_run):
        meta = json.loads((transfer_run / "run_meta.json").read_text())
        lines = (transfer_run / "transfer_series.csv").read_text().splitlines()
        assert lines[0] == "iteration,branches,train_accuracy,test_accuracy"
        assert len(lines) == 1 + meta["iterations"]


class TestStoppedRuns:
    @pytest.mark.parametrize("command, full_run", [("grow", "grow_run"),
                                                   ("transfer",
                                                    "transfer_run")])
    def test_keeps_the_lines_of_finished_iterations(
            self, tmp_path, config_file, base_run, request, monkeypatch,
            command, full_run):
        """Every output but the checkpoint and run_meta.json is streamed:
        a run stopped after k iterations leaves each file's header and the
        lines of those k iterations, as the full run wrote them."""
        from namgrow import growth

        full = request.getfixturevalue(full_run)
        k = 2

        def stopping_grow_iteration(state, candidates):
            if len(state.records) == k:
                raise RuntimeError("stopped")
            return real_grow_iteration(state, candidates)

        real_grow_iteration = growth.grow_iteration
        monkeypatch.setattr(growth, "grow_iteration", stopping_grow_iteration)
        out = tmp_path / "stopped"
        code = main([command, "--config", str(config_file),
                     "--checkpoint", str(base_run / "checkpoint.json"),
                     "--out-dir", str(out), "--seed", "3"])
        assert code == 3

        def lines(run, name):
            return (run / name).read_text().splitlines()

        names = ["growth_log.jsonl", "metrics.csv"]
        names += ["transfer_series.csv"] if command == "transfer" else []
        for name in names:
            headers = 0 if name.endswith(".jsonl") else 1
            assert len(lines(full, name)) > headers + k
            assert lines(out, name) == lines(full, name)[:headers + k], name
        candidates = lines(full, "candidates.jsonl")
        finished = [line for line in candidates
                    if json.loads(line)["iteration"] < k]
        assert finished and len(finished) < len(candidates)
        assert lines(out, "candidates.jsonl") == finished
        points = lines(full, "branch_series.csv")
        assert lines(out, "branch_series.csv") == points[:1] + [
            line for line in points[1:] if int(line.split(",")[0]) < k]
        assert len(lines(out, "branch_series.csv")) > 1


class TestEval:
    def test_eval_matches_training_report_and_is_deterministic(
            self, tmp_path, data_dir, base_run, capsys):
        args = ["eval", "--checkpoint", str(base_run / "checkpoint.json"),
                "--dataset", "mnist", "--data-dir", str(data_dir),
                "--split", "test"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(first)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        meta = json.loads((base_run / "run_meta.json").read_text())
        assert printed["accuracy"] == meta["test_accuracy"]
        assert printed["loss"] == meta["test_loss"]
        assert printed["branch_count"] == 4
        assert len(printed["per_class_accuracy"]) == 10

    @pytest.mark.parametrize("run", ["base_run", "grow_run", "transfer_run"])
    def test_eval_scores_each_branch_once_per_chunk(
            self, request, monkeypatch, tmp_path, data_dir, run, capsys):
        """accuracy, loss and per-class accuracy all come from one pass."""
        from namgrow import nam_model

        checkpoint = request.getfixturevalue(run) / "checkpoint.json"
        monkeypatch.setattr(nam_model, "_EVAL_CHUNK", 7)
        calls = []
        original = nam_model.mlp_forward_batch

        def counting(mlp, x):
            calls.append(x.shape[0])
            return original(mlp, x)

        monkeypatch.setattr(nam_model, "mlp_forward_batch", counting)
        assert main(["eval", "--checkpoint", str(checkpoint),
                     "--dataset", "mnist", "--data-dir", str(data_dir),
                     "--split", "test"]) == 0
        branches = json.loads(capsys.readouterr().out)["branch_count"]
        chunks = -(-100 // 7)  # the test split holds 100 images
        assert len(calls) == branches * chunks
        assert sum(calls) == branches * 100

    @pytest.mark.parametrize("mode", ["tuning", "election"])
    def test_empty_network_is_a_data_error(self, tmp_path, data_dir, caplog,
                                           mode):
        from namgrow.checkpoint import save_checkpoint
        from namgrow.nam_model import NamNetwork

        empty = tmp_path / "empty.json"
        save_checkpoint(NamNetwork(10, (1, 12, 12), mode=mode), empty)
        code = main(["eval", "--checkpoint", str(empty), "--dataset", "mnist",
                     "--data-dir", str(data_dir)])
        assert code == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == [f"checkpoint {empty} has no branches: "
                          f"there is nothing to evaluate"]

    def test_a_class_missing_from_the_split_scores_null(self, tmp_path,
                                                         base_run):
        """eval.json stays JSON: a class the split lacks has a null
        per-class accuracy, never a NaN."""
        other = tmp_path / "no-class-9"
        other.mkdir()
        images, labels = _block_images(np.random.default_rng(6), 10)
        present = labels != 9
        _write_idx(other / "t10k-images-idx3-ubyte", images[present], 2051)
        _write_idx(other / "t10k-labels-idx1-ubyte", labels[present], 2049)
        out = tmp_path / "eval.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["eval", "--checkpoint",
                         str(base_run / "checkpoint.json"), "--dataset",
                         "mnist", "--data-dir", str(other), "--split", "test",
                         "--out", str(out)])
        assert code == 0

        def no_constants(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(out.read_text(), parse_constant=no_constants)
        per_class = doc["per_class_accuracy"]
        assert len(per_class) == 10 and per_class[9] is None
        assert all(isinstance(a, float) and 0.0 <= a <= 1.0
                   for a in per_class[:9])

    def test_geometry_mismatch_is_a_data_error(self, tmp_path, base_run):
        other = tmp_path / "other"
        other.mkdir()
        rng = np.random.default_rng(5)
        images = rng.integers(0, 256, size=(20, 16, 16)).astype(np.uint8)
        labels = np.tile(np.arange(10), 2).astype(np.uint8)
        _write_idx(other / "t10k-images-idx3-ubyte", images, 2051)
        _write_idx(other / "t10k-labels-idx1-ubyte", labels, 2049)
        code = main(["eval", "--checkpoint", str(base_run / "checkpoint.json"),
                     "--dataset", "mnist", "--data-dir", str(other),
                     "--split", "test"])
        assert code == 2


class TestShippedConfigs:
    def test_presets_resolve_to_valid_configs(self):
        import argparse

        from namgrow.cli import _growth_config, _train_config, resolve_config

        root = Path(__file__).resolve().parent.parent
        presets = sorted([*(root / "configs").glob("*.ini"),
                          *(root / "perfbench" / "configs").glob("*.ini")])
        assert len(presets) >= 8
        for preset in presets:
            cfg = resolve_config(argparse.Namespace(config=str(preset)))
            assert cfg["data"]["dataset"] in ("cifar10", "mnist")
            assert cfg["model"]["grid"] in ("base", "full")
            _train_config(cfg)
            _growth_config(cfg)

    def test_defaults_parse_to_the_dataclass_defaults(self):
        """DEFAULT_CONFIG's train, growth and cluster values are the
        defaults of the configs they build, so the two cannot drift
        apart."""
        import argparse

        from namgrow.cli import _growth_config, _train_config, resolve_config
        from namgrow.growth import GrowthConfig
        from namgrow.training import TrainConfig

        cfg = resolve_config(argparse.Namespace())
        assert _train_config(cfg) == TrainConfig()
        assert _growth_config(cfg) == GrowthConfig()


class TestErrorPaths:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["grow"])
        assert err.value.code == 1

    def test_missing_config_file_is_usage_error(self, tmp_path):
        code = main(["eval", "--checkpoint", "x.json",
                     "--config", str(tmp_path / "absent.ini")])
        assert code == 1

    def test_unknown_dataset_is_usage_error(self, tmp_path, base_run):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[data]\ndataset = imagenet\n")
        code = main(["eval", "--checkpoint",
                     str(base_run / "checkpoint.json"), "--config", str(cfg)])
        assert code == 1

    @pytest.mark.parametrize("text, message", [
        ("[growth]\nmask_batchsize = 7\n",
         "unknown config key [growth] mask_batchsize"),
        ("[grwoth]\nmask_batch_size = 7\n",
         "unknown config key [grwoth] mask_batch_size"),
        ("[grwoth]\n", "unknown config section [grwoth]"),
        ("[DEFAULT]\nseed = 7\n[run]\nthreads = 1\n",
         "unknown config key [DEFAULT] seed"),
    ])
    def test_unknown_config_key_is_usage_error(self, tmp_path, data_dir,
                                               caplog, text, message):
        """A misspelt section or key is refused instead of running with
        the default it meant to change."""
        cfg = tmp_path / "typo.ini"
        cfg.write_text(f"[data]\ndataset = mnist\ndata_dir = {data_dir}\n"
                       + text)
        code = main(["train-base", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == [message]
        assert not (tmp_path / "out").exists()

    def test_negative_threads_is_usage_error(self, data_dir):
        code = main(["eval", "--checkpoint", "x.json", "--dataset", "mnist",
                     "--data-dir", str(data_dir), "--threads", "-2"])
        assert code == 1

    @pytest.mark.parametrize("stem", ["train", "t10k"])
    def test_empty_split_is_a_data_error(self, tmp_path, data_dir, caplog,
                                         stem):
        """An IDX pair that holds zero images is refused at load, naming
        the file, before any epoch runs."""
        empty = tmp_path / "empty-split"
        shutil.copytree(data_dir, empty)
        _write_idx(empty / f"{stem}-images-idx3-ubyte",
                   np.zeros((0, 12, 12), dtype=np.uint8), 2051)
        _write_idx(empty / f"{stem}-labels-idx1-ubyte",
                   np.zeros(0, dtype=np.uint8), 2049)
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\ndataset = mnist\ndata_dir = {empty}\n"
                       "[train]\nepochs = 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["train-base", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "out"), "--seed", "3"])
        assert code == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == [f"{empty / f'{stem}-images-idx3-ubyte'}: "
                          "holds no images"]
        assert not (tmp_path / "out" / "epochs.csv").exists()

    def test_non_integer_max_iterations_is_usage_error(
            self, tmp_path, data_dir, base_run, caplog):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[data]\ndataset = mnist\ndata_dir = {data_dir}\n"
                       "[growth]\nmax_iterations = abc\n")
        code = main(["grow", "--config", str(cfg),
                     "--checkpoint", str(base_run / "checkpoint.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == ["[growth] max_iterations: invalid literal for "
                          "int() with base 10: 'abc'"]

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, values in DEFAULT_CONFIG.items()
        for key, value in values.items() if _parser_of(value)])
    def test_unparsable_number_is_usage_error_naming_its_key(
            self, tmp_path, config_file, base_run, caplog, section, key):
        """A numeric value that does not parse is refused with exit code 1,
        naming its section and key, by a command that reads it."""
        cfg = configparser.ConfigParser()
        cfg.read(config_file)
        if not cfg.has_section(section):
            cfg.add_section(section)
        cfg[section][key] = "1.5x"
        bad = tmp_path / "bad.ini"
        with open(bad, "w") as fh:
            cfg.write(fh)
        command = (["train-base"] if section in ("run", "train") else
                   ["grow", "--checkpoint", str(base_run / "checkpoint.json")])
        code = main([*command, "--config", str(bad),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        parse = _parser_of(DEFAULT_CONFIG[section][key])
        with pytest.raises(ValueError) as exc:
            parse("1.5x")
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == [f"[{section}] {key}: {exc.value}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        (section, key, value) for section, values in DEFAULT_CONFIG.items()
        for key, default in values.items() if _parser_of(default) is float
        for value in ("inf", "-inf", "nan")])
    def test_non_finite_float_is_usage_error_naming_its_key(
            self, tmp_path, config_file, base_run, caplog, section, key,
            value):
        """A float value that parses but is not finite (a learning rate of
        inf would turn every weight NaN) is refused with exit code 1,
        naming its section and key, before the command writes anything."""
        cfg = configparser.ConfigParser()
        cfg.read(config_file)
        cfg[section][key] = value
        bad = tmp_path / "bad.ini"
        with open(bad, "w") as fh:
            cfg.write(fh)
        command = (["train-base"] if section == "train" else
                   ["grow", "--checkpoint", str(base_run / "checkpoint.json")])
        code = main([*command, "--config", str(bad),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == [f"[{section}] {key}: {value!r} is not finite"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("growth", "mask_batch_size", "0", "mask_batch_size must be >= 1"),
        ("growth", "mask_learning_rate", "-1e-2",
         "mask_learning_rate must be positive"),
        ("cluster", "max_shift_iterations", "0",
         "max_shift_iterations must be >= 1"),
        ("cluster", "bandwidth", "1e-200",
         "bandwidth must be positive, with a normal float square"),
    ])
    def test_unrunnable_growth_setting_is_usage_error(
            self, tmp_path, config_file, base_run, caplog, section, key,
            value, message):
        """A growth or cluster setting the run cannot use is refused before
        clustering, naming its key."""
        cfg = configparser.ConfigParser()
        cfg.read(config_file)
        cfg[section][key] = value
        bad = tmp_path / "bad.ini"
        with open(bad, "w") as fh:
            cfg.write(fh)
        code = main(["grow", "--config", str(bad),
                     "--checkpoint", str(base_run / "checkpoint.json"),
                     "--out-dir", str(tmp_path / "out"), "--seed", "3"])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == [f"growth/cluster config: {message}"]

    def test_missing_data_dir_is_data_error(self, tmp_path, base_run):
        code = main(["eval", "--checkpoint",
                     str(base_run / "checkpoint.json"), "--dataset", "mnist",
                     "--data-dir", str(tmp_path / "nowhere")])
        assert code == 2

    def test_corrupt_checkpoint_is_data_error(self, tmp_path, data_dir):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = main(["eval", "--checkpoint", str(bad), "--dataset", "mnist",
                     "--data-dir", str(data_dir)])
        assert code == 2

    def test_truncated_idx_is_data_error(self, tmp_path, base_run):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "t10k-images-idx3-ubyte").write_bytes(b"\x00\x00\x08\x03")
        (broken / "t10k-labels-idx1-ubyte").write_bytes(b"\x00\x00\x08\x01")
        code = main(["eval", "--checkpoint",
                     str(base_run / "checkpoint.json"), "--dataset", "mnist",
                     "--data-dir", str(broken)])
        assert code == 2


def _drop_mask(doc, k):
    del doc["branches"][k]["mask"]


def _narrow_hidden_layer(doc, k):
    layer = doc["branches"][k]["hidden_layers"][1]
    layer["weights"] = [row[:-1] for row in layer["weights"]]


def _narrow_output_layer(doc, k):
    rec = doc["branches"][k]
    rec["output_weights"] = [row[:-1] for row in rec["output_weights"]]


def _flatten_first_layer(doc, k):
    layer = doc["branches"][k]["hidden_layers"][0]
    layer["weights"] = [w for row in layer["weights"] for w in row]


def _fractional_window_row(doc, k):
    doc["branches"][k]["input_range"][1] += 0.5


def _shrink_window(doc, k):
    doc["branches"][k]["input_range"][3] = 2


def _move_window_off_image(doc, k):
    doc["branches"][k]["input_range"][1] = 10  # rows 10..12 of 12


def _branch_class_out_of_range(doc, k):
    doc["branches"][k]["branch_class"] = 10


def _negative_target_class(doc, k):
    doc["branches"][k]["target_class"] = -1


def _bool_branch_class(doc, k):
    doc["branches"][k]["branch_class"] = True


def _short_stats_row(doc, k):
    stats = doc["branches"][k]["election_stats"]
    stats["mean"] = stats["mean"][:-1]


def _nan_stats_mean(doc, k):
    doc["branches"][k]["election_stats"]["mean"][0] = float("nan")


def _zero_stats_std(doc, k):
    doc["branches"][k]["election_stats"]["std"][0] = 0.0


def _non_finite_mask(name, value):
    def corrupt(doc, k):
        doc["branches"][k]["mask"][name] = value
    return corrupt


def _drop_hidden_layers(doc, k):
    doc["branches"][k]["hidden_layers"] = []


def _linear_activation(doc, k):
    doc["branches"][k]["activation"] = "linear"


class TestMalformedCheckpoints:
    """Every structural defect of a checkpoint is a data error (exit 2)
    found at load time, whose message names the branch at fault."""

    @pytest.mark.parametrize("corrupt, message", [
        (_drop_mask, "checkpoint branch {k} has no 'mask' key"),
        (_narrow_hidden_layer, "checkpoint branch {k}: hidden layer 1 takes "
                               "8 inputs, but the layer before it has 9"),
        (_narrow_output_layer, "checkpoint branch {k}: output layer takes "
                               "8 inputs, but the layer before it has 9"),
        (_flatten_first_layer, "checkpoint branch {k}: weights must be a "
                               "matrix, got shape (81,)"),
        (_fractional_window_row, "branch {k}: input range (0, {row}, "),
        (_shrink_window, "checkpoint branch {k}: MLP takes 9 inputs, its "
                         "window c0[{row}:{row_end},"),
        (_move_window_off_image, "branch {k}: input range c0[10:13,"),
        (_branch_class_out_of_range, "checkpoint branch {k}: branch_class "
                                     "10 is not a class index below 10"),
        (_negative_target_class, "checkpoint branch {k}: target_class -1 is "
                                 "not a class index below 10"),
        (_bool_branch_class, "checkpoint branch {k}: branch_class True is "
                             "not a class index below 10"),
        (_short_stats_row, "checkpoint branch {k}: election stats have "
                           "shapes (9,) and (10,), expected (10,)"),
        (_nan_stats_mean, "checkpoint branch {k}: election stats mean is "
                          "not finite"),
        (_zero_stats_std, "checkpoint branch {k}: election stats std is not "
                          "finite and positive"),
        (_non_finite_mask("a", float("nan")), "checkpoint branch {k}: mask "
                                              "a is not finite"),
        (_non_finite_mask("b", float("-inf")), "checkpoint branch {k}: mask "
                                               "b is not finite"),
        (_non_finite_mask("thd", float("inf")), "checkpoint branch {k}: "
                                                "mask thd is not finite"),
        (_non_finite_mask("v_span", float("inf")), "checkpoint branch {k}: "
                                                   "mask v_span is not "
                                                   "finite"),
        (_non_finite_mask("a", 10 ** 400), "checkpoint branch {k}: int too "
                                           "large to convert to float"),
        (_drop_hidden_layers, "checkpoint branch {k}: a branch MLP needs at "
                              "least one hidden layer"),
        (_linear_activation, "checkpoint branch {k}: activation 'linear' is "
                             "not 'relu'"),
    ])
    def test_is_a_data_error_naming_the_branch(
            self, tmp_path, data_dir, transfer_run, caplog, corrupt,
            message):
        doc = json.loads((transfer_run / "checkpoint.json").read_text())
        k = 1
        assert doc["branches"][k]["origin"] == "transferred"
        corrupt(doc, k)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", str(bad), "--dataset", "mnist",
                     "--data-dir", str(data_dir)])
        assert code == 2
        row = doc["branches"][k]["input_range"][1]
        expected = message.format(k=k, row=row, row_end=row + 2)
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].startswith(expected), errors
        assert errors[0].endswith(f" (checkpoint {bad})"), errors

    def test_error_names_the_checkpoint_file(self, tmp_path, data_dir,
                                             transfer_run, caplog):
        doc = json.loads((transfer_run / "checkpoint.json").read_text())
        _drop_mask(doc, 1)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", str(bad), "--dataset", "mnist",
                     "--data-dir", str(data_dir)])
        assert code == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == ["checkpoint branch 1 has no 'mask' key "
                          f"(checkpoint {bad})"]

    def test_stats_on_only_some_branches_is_a_data_error(
            self, tmp_path, data_dir, transfer_run, caplog):
        doc = json.loads((transfer_run / "checkpoint.json").read_text())
        assert len(doc["branches"]) >= 2
        assert all(rec["election_stats"] for rec in doc["branches"])
        doc["branches"][1]["election_stats"] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", str(bad), "--dataset", "mnist",
                     "--data-dir", str(data_dir)])
        assert code == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == ["branch 1: election stats must be present in "
                          f"election mode (checkpoint {bad})"]

    def test_stats_on_a_tuning_branch_is_a_data_error(
            self, tmp_path, data_dir, base_run, caplog):
        doc = json.loads((base_run / "checkpoint.json").read_text())
        assert doc["mode"] == "tuning"
        doc["branches"][2]["election_stats"] = {"mean": [0.0] * 10,
                                                "std": [1.0] * 10}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", str(bad), "--dataset", "mnist",
                     "--data-dir", str(data_dir)])
        assert code == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == ["branch 2: election stats must be absent in "
                          f"tuning mode (checkpoint {bad})"]

    def test_missing_network_field_is_a_data_error(self, tmp_path, data_dir,
                                                   base_run, caplog):
        doc = json.loads((base_run / "checkpoint.json").read_text())
        del doc["n_classes"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", str(bad), "--dataset", "mnist",
                     "--data-dir", str(data_dir)])
        assert code == 2
        assert "checkpoint has no 'n_classes' key" in caplog.text

    @pytest.mark.parametrize("field, value, branchless, message", [
        ("n_classes", "10", False, "n_classes '10' is not an integer >= 1"),
        ("n_classes", True, True, "n_classes True is not an integer >= 1"),
        ("input_shape", [12, 12], True,
         "input_shape [12, 12] is not three positive integers"),
    ])
    def test_mistyped_network_field_is_a_data_error(
            self, tmp_path, data_dir, base_run, caplog, field, value,
            branchless, message):
        doc = json.loads((base_run / "checkpoint.json").read_text())
        doc[field] = value
        if branchless:
            doc["branches"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", str(bad), "--dataset", "mnist",
                     "--data-dir", str(data_dir)])
        assert code == 2
        errors = [r.getMessage() for r in caplog.records
                  if r.levelname == "ERROR"]
        assert errors == [f"{message} (checkpoint {bad})"]
