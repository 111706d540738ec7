"""Loader and window-geometry tests on synthetic files written to tmp_path."""

import gzip
import struct

import numpy as np
import pytest

from namgrow.data_io import (
    CIFAR10_RECORD_BYTES,
    Dataset,
    InputRange,
    base_grid_ranges,
    extract_patches,
    load_cifar10,
    load_cifar10_batch,
    load_mnist,
    normalize_pixels,
    range_flat_indices,
    sha256_file,
)
from oracles import draw_dataset, extract_patch, float_images, \
    full_perception_ranges, pixel_dataset, row_major_patches, \
    stride_one_ranges

GRID_SHAPES = [(3, 32, 32), (1, 28, 28), (2, 10, 11), (1, 3, 3)]


def write_cifar_batch(path, images_u8, labels):
    """images_u8: [n,3,32,32] uint8 laid out as the binary format expects."""
    with open(path, "wb") as fh:
        for img, y in zip(images_u8, labels):
            fh.write(bytes([y]))
            fh.write(img.tobytes())


def write_idx(path, array, magic, compress=False):
    header = magic.to_bytes(4, "big")
    for d in array.shape:
        header += struct.pack(">I", d)
    blob = header + array.tobytes()
    if compress:
        with gzip.open(path, "wb") as fh:
            fh.write(blob)
    else:
        with open(path, "wb") as fh:
            fh.write(blob)


@pytest.fixture
def cifar_dir(tmp_path):
    rng = np.random.default_rng(42)
    for i in range(1, 6):
        imgs = rng.integers(0, 256, size=(4, 3, 32, 32), dtype=np.uint8)
        write_cifar_batch(tmp_path / f"data_batch_{i}.bin", imgs,
                          rng.integers(0, 10, size=4))
    imgs = rng.integers(0, 256, size=(6, 3, 32, 32), dtype=np.uint8)
    write_cifar_batch(tmp_path / "test_batch.bin", imgs,
                      rng.integers(0, 10, size=6))
    return tmp_path


@pytest.fixture
def mnist_dir(tmp_path):
    rng = np.random.default_rng(7)
    tr_img = rng.integers(0, 256, size=(12, 28, 28), dtype=np.uint8)
    tr_lab = rng.integers(0, 10, size=12, dtype=np.uint8)
    te_img = rng.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
    te_lab = rng.integers(0, 10, size=5, dtype=np.uint8)
    write_idx(tmp_path / "train-images-idx3-ubyte", tr_img, 2051)
    write_idx(tmp_path / "train-labels-idx1-ubyte", tr_lab, 2049)
    write_idx(tmp_path / "t10k-images.idx3-ubyte", te_img, 2051, compress=False)
    write_idx(tmp_path / "t10k-labels.idx1-ubyte", te_lab, 2049)
    return tmp_path, tr_img, tr_lab, te_img, te_lab


def test_normalize_pixels_range():
    raw = np.array([0, 255, 128], dtype=np.uint8)
    out = normalize_pixels(raw)
    np.testing.assert_allclose(out, [-0.5, 0.5, 128 / 255 - 0.5], rtol=0, atol=1e-15)
    assert out.dtype == np.float64


def test_cifar_record_count_comes_from_file_size(tmp_path, cifar_dir):
    images, labels = load_cifar10_batch(cifar_dir / "test_batch.bin")
    assert images.shape == (6, 3, 32, 32) and images.dtype == np.uint8
    assert labels.shape == (6,)
    # truncated file -> size not a multiple of the record length
    blob = (cifar_dir / "data_batch_1.bin").read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(blob[:-10])
    with pytest.raises(ValueError, match="multiple"):
        load_cifar10_batch(bad)


def test_cifar_train_concatenates_batches(cifar_dir):
    ds = load_cifar10(cifar_dir, "train")
    assert ds.n == 20 and ds.shape == (3, 32, 32)
    assert ds.pixels.dtype == np.uint8 and ds.pixels.flags.c_contiguous
    assert ds.n_classes == 10


@pytest.mark.parametrize("split, names", [
    ("train", [f"data_batch_{i}.bin" for i in range(1, 6)]),
    ("test", ["test_batch.bin"]),
])
def test_cifar_split_is_the_pixel_major_join_of_raw_records(cifar_dir, split,
                                                           names):
    """pixels[..., j] is the j-th record's image, byte for byte."""
    records = np.concatenate([
        np.frombuffer((cifar_dir / name).read_bytes(), dtype=np.uint8)
        .reshape(-1, CIFAR10_RECORD_BYTES) for name in names])
    ds = load_cifar10(cifar_dir, split)
    assert ds.pixels.shape == (3, 32, 32, len(records))
    for j, record in enumerate(records):
        assert ds.pixels[..., j].tobytes() == record[1:].tobytes()
    np.testing.assert_array_equal(ds.labels, records[:, 0])


def test_cifar_bad_label_names_its_batch(cifar_dir):
    path = cifar_dir / "data_batch_3.bin"
    blob = bytearray(path.read_bytes())
    blob[2 * CIFAR10_RECORD_BYTES] = 10  # label byte of the third record
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError) as err:
        load_cifar10(cifar_dir, "train")
    assert str(err.value) == f"{path}: label byte exceeds 9"


def test_cifar_pixel_layout_roundtrip(cifar_dir):
    # first record of batch 1: label byte then 3072 bytes channel-major row-major
    raw = (cifar_dir / "data_batch_1.bin").read_bytes()[:CIFAR10_RECORD_BYTES]
    ds = load_cifar10(cifar_dir, "train")
    expected = normalize_pixels(
        np.frombuffer(raw[1:], dtype=np.uint8).reshape(3, 32, 32))
    np.testing.assert_array_equal(float_images(ds)[0], expected)
    assert ds.labels[0] == raw[0]


def test_cifar_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_cifar10(tmp_path, "train")


def test_mnist_loads_both_filename_styles(mnist_dir):
    d, tr_img, tr_lab, te_img, te_lab = mnist_dir
    train = load_mnist(d, "train")
    test = load_mnist(d, "test")
    assert train.n == 12 and test.n == 5
    assert train.shape == (1, 28, 28)
    np.testing.assert_array_equal(train.labels, tr_lab)
    np.testing.assert_array_equal(test.labels, te_lab)
    for ds, img in ((train, tr_img), (test, te_img)):
        assert ds.pixels.shape == (1, 28, 28, len(img))
        assert ds.pixels.dtype == np.uint8 and ds.pixels.flags.c_contiguous
        for j in range(len(img)):
            assert ds.pixels[0, ..., j].tobytes() == img[j].tobytes()


def test_loaders_copy_several_blocks_pixel_major(tmp_path):
    """Splits of more than one 1024-image copy block keep every image's
    bytes at its column, for both loaders."""
    rng = np.random.default_rng(5)
    mnist = rng.integers(0, 256, size=(2500, 4, 5), dtype=np.uint8)
    write_idx(tmp_path / "t10k-images-idx3-ubyte", mnist, 2051)
    write_idx(tmp_path / "t10k-labels-idx1-ubyte",
              np.zeros(2500, dtype=np.uint8), 2049)
    cifar = rng.integers(0, 256, size=(2100, 3, 32, 32), dtype=np.uint8)
    write_cifar_batch(tmp_path / "test_batch.bin", cifar, [0] * 2100)
    for ds, images in ((load_mnist(tmp_path, "test"), mnist[:, None]),
                       (load_cifar10(tmp_path, "test"), cifar)):
        assert ds.pixels.flags.c_contiguous
        np.testing.assert_array_equal(ds.pixels, np.moveaxis(images, 0, -1))


def test_mnist_gzip_transparent(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(3, 28, 28), dtype=np.uint8)
    lab = rng.integers(0, 10, size=3, dtype=np.uint8)
    write_idx(tmp_path / "train-images-idx3-ubyte.gz", img, 2051, compress=True)
    write_idx(tmp_path / "train-labels-idx1-ubyte.gz", lab, 2049, compress=True)
    ds = load_mnist(tmp_path, "train")
    np.testing.assert_array_equal(ds.labels, lab)


def test_mnist_magic_checked_before_load(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(2, 28, 28), dtype=np.uint8)
    write_idx(tmp_path / "train-images-idx3-ubyte", img, 2052)  # wrong magic
    write_idx(tmp_path / "train-labels-idx1-ubyte",
              np.zeros(2, dtype=np.uint8), 2049)
    with pytest.raises(ValueError, match="magic"):
        load_mnist(tmp_path, "train")


def test_mnist_count_mismatch(tmp_path):
    rng = np.random.default_rng(1)
    write_idx(tmp_path / "train-images-idx3-ubyte",
              rng.integers(0, 256, size=(2, 28, 28), dtype=np.uint8), 2051)
    write_idx(tmp_path / "train-labels-idx1-ubyte",
              np.zeros(3, dtype=np.uint8), 2049)
    with pytest.raises(ValueError, match="counts differ"):
        load_mnist(tmp_path, "train")


def test_base_grid_counts_and_order():
    ranges = base_grid_ranges((3, 32, 32), 6)
    assert len(ranges) == 75  # 3 channels x 5x5 grid at 6-pixel spacing
    assert ranges[0] == InputRange(0, 0, 0)
    assert ranges[1] == InputRange(0, 0, 6)    # columns fastest
    assert ranges[5] == InputRange(0, 6, 0)    # then rows
    assert ranges[25] == InputRange(1, 0, 0)   # channels outermost
    starts = {(r.row_start, r.col_start) for r in ranges}
    assert starts == {(6 * i, 6 * j) for i in range(5) for j in range(5)}


def test_full_perception_counts():
    assert len(base_grid_ranges((3, 32, 32), 3)) == 300  # 3 x 10 x 10
    assert len(base_grid_ranges((1, 28, 28), 3)) == 81   # 1 x 9 x 9
    for r in base_grid_ranges((3, 32, 32), 3):
        assert r.row_start + r.size <= 32 and r.col_start + r.size <= 32


@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_grid_at_spacing_3_is_the_full_perception_tiling(shape):
    """range(0, h - 2, 3) and range(0, (h // 3) * 3, 3) list the same rows
    for every h, so the dense tiling is the grid at spacing 3."""
    assert base_grid_ranges(shape, 3) == full_perception_ranges(shape)


@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_grid_at_spacing_1_is_the_stride_one_scan(shape):
    assert base_grid_ranges(shape, 1) == stride_one_ranges(shape)


def test_extract_patch_row_major():
    img = np.arange(2 * 5 * 5, dtype=np.float64).reshape(2, 5, 5)
    patch = extract_patch(img, InputRange(1, 1, 2))
    expected = img[1, 1:4, 2:5].reshape(-1)
    np.testing.assert_array_equal(patch, expected)
    # row-major means consecutive triples come from consecutive rows
    assert patch[3] == img[1, 2, 2]


def test_extract_patches_matches_single():
    rng = np.random.default_rng(42)
    ds = draw_dataset(rng, 7, (3, 32, 32))
    images = float_images(ds)
    ranges = base_grid_ranges((3, 32, 32), 6)[:10] + [InputRange(2, 29, 29)]
    batch = extract_patches(ds, ranges)
    assert batch.shape == (11, 9, 7) and batch.flags.c_contiguous
    for k, r in enumerate(ranges):
        for i in range(7):
            np.testing.assert_array_equal(batch[k, :, i],
                                          extract_patch(images[i], r))


def test_gather_normalizes_every_pixel_value_as_normalize_pixels():
    """All 256 values, in every one of a window's 9 rows, read bit for bit
    as `normalize_pixels` makes them."""
    values = np.arange(256, dtype=np.uint8)
    ds = pixel_dataset(np.repeat(values, 9).reshape(256, 1, 3, 3),
                       np.zeros(256))
    got = extract_patches(ds, [InputRange(0, 0, 0)])
    want = np.broadcast_to(normalize_pixels(values), (1, 9, 256))
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("columns", [
    slice(None), slice(3, 17), slice(40, 41),
    np.array([5, 0, 33, 5, 12]), np.arange(41)[::-1]])
def test_gather_equals_the_float_layout_at_random_windows(columns):
    """A column slice or index array reads the same bits as normalizing
    every image into the float [n, C, H, W] layout and gathering row-major
    windows from it."""
    rng = np.random.default_rng(8)
    ds = draw_dataset(rng, 41, (3, 11, 9))
    ranges = [InputRange(int(rng.integers(3)), int(rng.integers(9)),
                         int(rng.integers(7))) for _ in range(12)]
    got = extract_patches(ds, ranges, columns)
    want = row_major_patches(float_images(ds)[columns], ranges)
    assert got.flags.c_contiguous
    assert got.tobytes() == np.ascontiguousarray(
        want.transpose(0, 2, 1)).tobytes()


def test_range_flat_indices_bounds():
    with pytest.raises(ValueError):
        range_flat_indices(InputRange(0, 30, 30), (3, 32, 32))
    with pytest.raises(ValueError):
        range_flat_indices(InputRange(3, 0, 0), (3, 32, 32))
    idx = range_flat_indices(InputRange(1, 0, 0), (3, 32, 32))
    assert idx[0] == 32 * 32 and idx.shape == (9,)


def test_window_indices_are_derived_once_and_checked_every_time():
    """Each (window, shape) derives its read-only indices once; the range
    is still checked on every call, also one equal to a derived window."""
    shape = (3, 32, 32)
    first = range_flat_indices(InputRange(1, 2, 3), shape)
    assert range_flat_indices(InputRange(1, 2, 3), shape) is first
    assert not first.flags.writeable
    other = range_flat_indices(InputRange(1, 2, 3), (3, 32, 33))
    assert other is not first and other[3] == 32 * 33 + 3 * 33 + 3
    with pytest.raises(ValueError) as exc:
        range_flat_indices(InputRange(1, 2.0, 3), shape)
    assert str(exc.value) == "input range (1, 2.0, 3, 3) has non-integer fields"
    with pytest.raises(ValueError) as exc:
        range_flat_indices(InputRange(1, 2, 3), (1, 32, 32))
    assert str(exc.value) == ("input range c1[2:5,3:6] out of bounds for "
                              "shape (1, 32, 32)")


def test_dataset_validation():
    pixels = np.zeros((1, 4, 4, 2), dtype=np.uint8)
    with pytest.raises(ValueError, match="label out of range"):
        Dataset(pixels, np.array([0, 10]), "t", 10)
    with pytest.raises(ValueError, match="labels length"):
        Dataset(pixels, np.array([0]), "t", 10)


@pytest.mark.parametrize("pixels, message", [
    (np.zeros((1, 4, 4, 2)), "pixels must be 4-d uint8, got float64 of "
                             "shape (1, 4, 4, 2)"),
    (np.zeros((4, 4, 2), dtype=np.uint8), "pixels must be 4-d uint8, got "
                                          "uint8 of shape (4, 4, 2)"),
])
def test_dataset_refuses_pixels_that_are_not_4d_uint8(pixels, message):
    with pytest.raises(ValueError) as err:
        Dataset(pixels, np.zeros(2, dtype=np.int64), "t", 10)
    assert str(err.value) == message


def test_subset_gathers_columns_pixel_major():
    ds = draw_dataset(np.random.default_rng(2), 9, (2, 4, 5))
    idx = np.array([7, 2, 2, 0])
    sub = ds.subset(idx)
    assert sub.pixels.flags.c_contiguous and sub.shape == ds.shape
    np.testing.assert_array_equal(sub.pixels, ds.pixels[..., idx])
    np.testing.assert_array_equal(sub.labels, ds.labels[idx])


def test_sha256_file(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"abc")
    assert sha256_file(p) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
