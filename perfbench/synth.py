"""Seeded synthetic datasets written in the real on-disk formats.

The namgrow CLI only reads CIFAR-10 binary batches and MNIST IDX files, so
the benchmark writes its inputs in exactly those formats.  Every image is
uniform pixel noise plus, for its class, a fixed 3x3 brightness pattern in
each of a few signal blocks.  Which blocks carry signal decides which layers
have work to do: blocks on the sparse 6-pixel base grid let the base network
learn, blocks off that grid leave something for stride-1 growth to find, and
moving the blocks between two tasks gives transfer a new placement to find.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

N_CLASSES = 10
CIFAR_SHAPE = (3, 32, 32)
CIFAR_TRAIN_BATCHES = 5


def class_templates(rng: np.random.Generator, n_blocks: int,
                    amplitude: float) -> np.ndarray:
    """Per-class, per-block 3x3 pixel offsets [n_classes, n_blocks, 3, 3]."""
    return rng.uniform(-amplitude, amplitude, size=(N_CLASSES, n_blocks, 3, 3))


def make_images(rng: np.random.Generator, n: int, shape, blocks, templates,
                noise: float) -> tuple[np.ndarray, np.ndarray]:
    """n uint8 images of `shape` with class patterns at `blocks`.

    blocks are (channel, row, col) top-left corners of 3x3 signal windows;
    labels are balanced and shuffled.
    """
    labels = np.arange(n, dtype=np.int64) % N_CLASSES
    rng.shuffle(labels)
    images = 127.5 + rng.uniform(-noise, noise, size=(n,) + tuple(shape))
    for k, (ch, r, c) in enumerate(blocks):
        images[:, ch, r:r + 3, c:c + 3] += templates[labels, k]
    return np.clip(np.rint(images), 0, 255).astype(np.uint8), labels


def write_cifar10(data_dir: Path, rng: np.random.Generator,
                  per_batch: int, n_test: int, blocks, templates: np.ndarray,
                  noise: float) -> None:
    """data_batch_1..5.bin and test_batch.bin in CIFAR-10 binary format."""
    data_dir.mkdir(parents=True, exist_ok=True)
    files = [f"data_batch_{i}.bin" for i in range(1, CIFAR_TRAIN_BATCHES + 1)]
    for name, n in [(f, per_batch) for f in files] + [("test_batch.bin", n_test)]:
        images, labels = make_images(rng, n, CIFAR_SHAPE, blocks, templates,
                                     noise)
        records = np.concatenate(
            [labels.astype(np.uint8)[:, None], images.reshape(n, -1)], axis=1)
        (data_dir / name).write_bytes(records.tobytes())


def _write_idx(path: Path, array: np.ndarray, magic: int) -> None:
    header = magic.to_bytes(4, "big") + b"".join(
        d.to_bytes(4, "big") for d in array.shape)
    path.write_bytes(header + array.astype(np.uint8).tobytes())


def write_mnist(data_dir: Path, rng: np.random.Generator, side: int,
                n_train: int, n_test: int, blocks, templates: np.ndarray,
                noise: float) -> None:
    """train-/t10k- image and label files in MNIST IDX format."""
    data_dir.mkdir(parents=True, exist_ok=True)
    for stem, n in (("train", n_train), ("t10k", n_test)):
        images, labels = make_images(rng, n, (1, side, side), blocks,
                                     templates, noise)
        _write_idx(data_dir / f"{stem}-images-idx3-ubyte", images[:, 0], 2051)
        _write_idx(data_dir / f"{stem}-labels-idx1-ubyte", labels, 2049)
