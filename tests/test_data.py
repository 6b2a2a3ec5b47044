"""Dataset ingestion tests: fabricated CIFAR binaries and synthetic data."""

import numpy as np
import pytest

from tokenskip import data


def _write_cifar_file(path, labels, pixels):
    """labels: [n] uint8, pixels: [n, 3072] uint8."""
    records = np.concatenate([labels[:, None], pixels], axis=1).astype(np.uint8)
    records.tofile(path)


def _fabricate_root(root, per_file=4, seed=0):
    rng = np.random.default_rng(seed)
    all_labels, all_pixels = [], []
    names = data.CIFAR_TRAIN_FILES + [data.CIFAR_TEST_FILE]
    for name in names:
        labels = rng.integers(0, 10, size=per_file).astype(np.uint8)
        pixels = rng.integers(0, 256, size=(per_file, 3072)).astype(np.uint8)
        _write_cifar_file(root / name, labels, pixels)
        all_labels.append(labels)
        all_pixels.append(pixels)
    return all_labels, all_pixels


class TestCifarIngest:
    def test_round_trip(self, tmp_path):
        labels, pixels = _fabricate_root(tmp_path, per_file=4)
        train, test = data.load_cifar10(tmp_path)
        assert train.images.shape == (20, 3, 32, 32)
        assert test.images.shape == (4, 3, 32, 32)
        assert train.labels.dtype == np.int64
        np.testing.assert_array_equal(
            train.labels, np.concatenate(labels[:5]).astype(np.int64))
        np.testing.assert_array_equal(test.labels, labels[5])
        # Pixel values come back as value / 255 in channel-major order.
        expected = pixels[5].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
        np.testing.assert_allclose(test.images, expected)

    def test_accepts_conventional_subdirectory(self, tmp_path):
        sub = tmp_path / "cifar-10-batches-bin"
        sub.mkdir()
        _fabricate_root(sub, per_file=2)
        train, test = data.load_cifar10(tmp_path)
        assert len(train) == 10 and len(test) == 2

    def test_truncated_file_names_byte_offset(self, tmp_path):
        _fabricate_root(tmp_path, per_file=2)
        path = tmp_path / "data_batch_3.bin"
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(data.IngestError, match="byte offset"):
            data.load_cifar10(tmp_path)

    def test_invalid_label_names_record(self, tmp_path):
        _fabricate_root(tmp_path, per_file=3)
        path = tmp_path / "test_batch.bin"
        raw = bytearray(path.read_bytes())
        raw[2 * data.CIFAR_RECORD_BYTES] = 200
        path.write_bytes(bytes(raw))
        with pytest.raises(data.IngestError, match="label 200 at record 2"):
            data.load_cifar10(tmp_path)

    def test_missing_batch_file(self, tmp_path):
        _fabricate_root(tmp_path, per_file=1)
        (tmp_path / "data_batch_4.bin").unlink()
        with pytest.raises(FileNotFoundError, match="data_batch_4"):
            data.load_cifar10(tmp_path)


class TestSynthetic:
    def test_deterministic_for_seed(self):
        a = data.synthetic(7, 32)
        b = data.synthetic(7, 32)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = data.synthetic(8, 32)
        assert not np.array_equal(a.images, c.images)

    def test_shapes_and_range(self):
        split = data.synthetic(0, 16, classes=10, image_size=32)
        assert split.images.shape == (16, 3, 32, 32)
        assert split.images.dtype == np.float32
        assert split.images.min() >= 0.0 and split.images.max() <= 1.0
        assert set(np.unique(split.labels)) <= set(range(10))

    def test_class_cell_is_brighter(self):
        split = data.synthetic(1, 64, classes=10, image_size=32)
        grid, cell = 4, 8
        for i in range(len(split)):
            r, c = divmod(int(split.labels[i]), grid)
            patch = split.images[i, :, r * cell:(r + 1) * cell,
                                 c * cell:(c + 1) * cell]
            assert patch.mean() > split.images[i].mean() + 0.2


class TestNormalize:
    def test_normalized_stats_are_standard(self):
        split = data.synthetic(3, 256)
        stats = data.channel_stats(split)
        out = data.normalize(split, stats)
        np.testing.assert_allclose(out.images.mean(axis=(0, 2, 3)),
                                   np.zeros(3), atol=1e-5)
        np.testing.assert_allclose(out.images.std(axis=(0, 2, 3)),
                                   np.ones(3), atol=1e-4)

    def test_zero_std_channel_is_safe(self):
        images = np.zeros((4, 3, 8, 8), dtype=np.float32)
        split = data.Split(images, np.zeros(4, dtype=np.int64))
        stats = data.channel_stats(split)
        out = data.normalize(split, stats)
        assert np.isfinite(out.images).all()


class TestLoadDataset:
    def test_synthetic_source(self):
        train, val = data.load_dataset("synthetic", seed=5, synthetic_n=64,
                                       synthetic_val_n=16, image_size=8)
        assert len(train) == 64 and len(val) == 16
        assert train.images.shape[2:] == (8, 8)
        # Both splits are normalized with the training statistics.
        np.testing.assert_allclose(train.images.mean(), 0.0, atol=1e-5)

    def test_cifar_takes_leading_records(self, tmp_path):
        labels, _ = _fabricate_root(tmp_path, per_file=8)
        train, val = data.load_dataset("cifar10", tmp_path, synthetic_n=12,
                                       synthetic_val_n=3)
        assert len(train) == 12 and len(val) == 3
        np.testing.assert_array_equal(
            train.labels, np.concatenate(labels[:5])[:12].astype(np.int64))
        np.testing.assert_array_equal(val.labels, labels[5][:3])
        # Normalized with the statistics of the 12 records used.
        np.testing.assert_allclose(train.images.mean(axis=(0, 2, 3)),
                                   np.zeros(3), atol=1e-5)

    def test_unknown_source(self):
        with pytest.raises(ValueError, match="unknown dataset source"):
            data.load_dataset("imagenet")

    def test_cifar_requires_root(self):
        with pytest.raises(FileNotFoundError, match="dataset.root"):
            data.load_dataset("cifar10")

    @pytest.mark.parametrize("classes", [5, 20])
    def test_cifar_rejects_other_class_count(self, tmp_path, classes):
        _fabricate_root(tmp_path, per_file=2)
        with pytest.raises(ValueError, match=f"10 classes.* is {classes}"):
            data.load_dataset("cifar10", tmp_path, classes=classes)
