"""Dataset loading and input-window geometry.

Images are kept as uint8 pixels, pixel-major [channels, height, width, n].
Each network branch reads one square window (an InputRange) flattened
row-major into 9 pixel rows, which `extract_patches`, the pixels' only
reader, scales to [-0.5, 0.5] via x/255 - 0.5.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CIFAR10_RECORD_BYTES = 1 + 3 * 32 * 32  # label byte + 3072 pixel bytes


@dataclass(frozen=True)
class InputRange:
    """One square input window: channel plus top-left corner, size x size pixels."""

    channel: int
    row_start: int
    col_start: int
    size: int = 3

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.channel, self.row_start, self.col_start, self.size)

    def __str__(self) -> str:
        return (f"c{self.channel}[{self.row_start}:{self.row_start + self.size},"
                f"{self.col_start}:{self.col_start + self.size}]")


@dataclass
class Dataset:
    pixels: np.ndarray  # [channels, height, width, n] uint8, C-contiguous
    labels: np.ndarray  # [n] int64
    tag: str
    n_classes: int

    def __post_init__(self):
        if self.pixels.dtype != np.uint8 or self.pixels.ndim != 4:
            raise ValueError(f"pixels must be 4-d uint8, got {self.pixels.dtype}"
                             f" of shape {self.pixels.shape}")
        if self.labels.shape != (self.n,):
            raise ValueError("labels length does not match image count")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.n_classes):
            raise ValueError("label out of range")

    @property
    def n(self) -> int:
        return self.pixels.shape[3]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.pixels.shape[:3]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(np.take(self.pixels, indices, axis=3),
                       self.labels[indices], self.tag, self.n_classes)


def normalize_pixels(raw: np.ndarray) -> np.ndarray:
    """uint8 pixels -> float64 in [-0.5, 0.5], scaled in place in one copy."""
    images = raw.astype(np.float64)
    images /= 255.0
    images -= 0.5
    return images


def _pixel_major(images: np.ndarray) -> np.ndarray:
    """uint8 images [n, ...] -> C-contiguous [..., n], copied 1024 images at
    a time: one strided copy of the whole array is several times slower."""
    out = np.empty(images.shape[1:] + images.shape[:1], dtype=np.uint8)
    for lo in range(0, len(images), 1024):
        out[..., lo:lo + 1024] = np.moveaxis(images[lo:lo + 1024], 0, -1)
    return out


def _open_maybe_gzip(path: Path):
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def load_cifar10_batch(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """One CIFAR-10 binary batch file -> (pixels [n,3,32,32] uint8, labels).

    The pixels are a view of the file's bytes; `load_cifar10` lays them
    out pixel-major once the batches are joined."""
    path = Path(path)
    with _open_maybe_gzip(path) as fh:
        raw = fh.read()
    if len(raw) == 0 or len(raw) % CIFAR10_RECORD_BYTES != 0:
        raise ValueError(
            f"{path}: size {len(raw)} is not a positive multiple of "
            f"{CIFAR10_RECORD_BYTES}"
        )
    count = len(raw) // CIFAR10_RECORD_BYTES
    records = np.frombuffer(raw, dtype=np.uint8).reshape(count, CIFAR10_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.max() >= 10:
        raise ValueError(f"{path}: label byte exceeds 9")
    return records[:, 1:].reshape(count, 3, 32, 32), labels


def load_cifar10(data_dir: str | Path, split: str) -> Dataset:
    """CIFAR-10 binary-version directory -> Dataset for 'train' or 'test'."""
    data_dir = Path(data_dir)
    if split == "train":
        files = [data_dir / f"data_batch_{i}.bin" for i in range(1, 6)]
    elif split == "test":
        files = [data_dir / "test_batch.bin"]
    else:
        raise ValueError(f"unknown split {split!r}")
    missing = [str(f) for f in files if not f.exists()]
    if missing:
        raise FileNotFoundError(f"missing CIFAR-10 files: {missing}")
    pixels, labels = zip(*[load_cifar10_batch(f) for f in files])
    # joining drops the file bytes before the pixel-major copy is made
    pixels = np.concatenate(pixels)
    return Dataset(_pixel_major(pixels), np.concatenate(labels),
                   f"cifar10-{split}", 10)


def _read_idx(path: Path, expected_magic: int) -> np.ndarray:
    """IDX file (big-endian, unsigned byte payload) -> ndarray of its dims."""
    with _open_maybe_gzip(path) as fh:
        header = fh.read(4)
        if len(header) != 4:
            raise ValueError(f"{path}: truncated IDX header")
        magic = int.from_bytes(header, "big")
        if magic != expected_magic:
            raise ValueError(f"{path}: IDX magic {magic}, expected {expected_magic}")
        n_dims = magic & 0xFF
        dims = []
        for _ in range(n_dims):
            chunk = fh.read(4)
            if len(chunk) != 4:
                raise ValueError(f"{path}: truncated IDX dimension header")
            dims.append(int.from_bytes(chunk, "big"))
        payload = fh.read()
    expected = int(np.prod(dims)) if dims else 0
    if len(payload) != expected:
        raise ValueError(f"{path}: payload {len(payload)} bytes, expected {expected}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def _find_idx_file(data_dir: Path, stem: str, kind: str) -> Path:
    """Locate e.g. train-images-idx3-ubyte under its common filename variants."""
    candidates = [
        f"{stem}-{kind}-idx3-ubyte" if kind == "images" else f"{stem}-{kind}-idx1-ubyte",
        f"{stem}-{kind}.idx3-ubyte" if kind == "images" else f"{stem}-{kind}.idx1-ubyte",
    ]
    candidates += [c + ".gz" for c in candidates]
    for name in candidates:
        p = data_dir / name
        if p.exists():
            return p
    raise FileNotFoundError(
        f"no MNIST {stem} {kind} file in {data_dir} (tried {candidates})"
    )


def load_mnist(data_dir: str | Path, split: str) -> Dataset:
    """MNIST IDX directory -> Dataset for 'train' or 'test'."""
    data_dir = Path(data_dir)
    stem = {"train": "train", "test": "t10k"}.get(split)
    if stem is None:
        raise ValueError(f"unknown split {split!r}")
    images_path = _find_idx_file(data_dir, stem, "images")
    images_raw = _read_idx(images_path, 2051)
    labels = _read_idx(_find_idx_file(data_dir, stem, "labels"), 2049).astype(np.int64)
    if images_raw.ndim != 3:
        raise ValueError("MNIST image file is not 3-dimensional")
    if images_raw.shape[0] == 0:
        raise ValueError(f"{images_path}: holds no images")
    if images_raw.shape[0] != labels.shape[0]:
        raise ValueError("MNIST image/label counts differ")
    if labels.size and labels.max() >= 10:
        raise ValueError("MNIST label exceeds 9")
    return Dataset(_pixel_major(images_raw[:, None]), labels, f"mnist-{split}",
                   10)


def base_grid_ranges(shape: tuple[int, int, int],
                     spacing: int) -> list[InputRange]:
    """3x3 windows every `spacing` pixels, scanned row-major within each
    channel, channels outermost: spacing 6 is the sparse base grid, 3 the
    full-perception tiling and 1 the stride-1 growth scan."""
    channels, height, width = shape
    ranges = []
    for c in range(channels):
        for r in range(0, height - 2, spacing):
            for col in range(0, width - 2, spacing):
                ranges.append(InputRange(c, r, col))
    return ranges


def range_flat_indices(input_range: InputRange,
                       shape: tuple[int, int, int]) -> np.ndarray:
    """Flat pixel indices (into a flattened [C*H*W] image) of one window,
    row-major, read-only.  The range is checked on every call; the indices
    are derived once per window and image shape."""
    channels, height, width = shape
    r = input_range
    if not all(isinstance(v, (int, np.integer)) for v in r.as_tuple()):
        raise ValueError(f"input range {r.as_tuple()} has non-integer fields")
    if not (0 <= r.channel < channels and r.size >= 1
            and 0 <= r.row_start <= height - r.size
            and 0 <= r.col_start <= width - r.size):
        raise ValueError(f"input range {r} out of bounds for shape {shape}")
    return _window_indices(*r.as_tuple(), height, width)


@functools.cache
def _window_indices(channel: int, row: int, col: int, size: int,
                    height: int, width: int) -> np.ndarray:
    rows = np.arange(row, row + size)
    cols = np.arange(col, col + size)
    grid = channel * height * width + rows[:, None] * width + cols[None, :]
    grid = grid.reshape(-1)
    grid.flags.writeable = False
    return grid


def extract_patches(data: Dataset, ranges: list[InputRange],
                    columns=slice(None)) -> np.ndarray:
    """Windows [len(ranges), size*size, n'] of the images that `columns`
    (a slice or index array) selects, feature-major, normalized elementwise
    as they are read."""
    flat = data.pixels.reshape(-1, data.n)
    idx = np.stack([range_flat_indices(r, data.shape) for r in ranges])
    if isinstance(columns, slice):  # a view, then contiguous row pieces
        return normalize_pixels(flat[:, columns][idx])
    return normalize_pixels(flat.take(idx[:, :, None] * data.n + columns))


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
