"""Dataset ingestion tests: fabricated CIFAR binaries and synthetic data."""

import gc
import hashlib
import tracemalloc

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
        train, test = data.load_cifar10(tmp_path, 20, 4)
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
        train, test = data.load_cifar10(tmp_path, 10, 2)
        assert len(train) == 10 and len(test) == 2

    def test_decodes_only_the_leading_records(self, tmp_path):
        labels, pixels = _fabricate_root(tmp_path, per_file=4)
        train, test = data.load_cifar10(tmp_path, 6, 1)
        assert train.images.shape == (6, 3, 32, 32)
        np.testing.assert_array_equal(
            train.labels, np.concatenate(labels[:2])[:6].astype(np.int64))
        expected = np.concatenate(pixels[:2])[:6].reshape(-1, 3, 32, 32)
        np.testing.assert_array_equal(train.images, expected / np.float32(255))
        np.testing.assert_array_equal(test.labels, labels[5][:1])

    def test_truncated_file_names_byte_offset(self, tmp_path):
        _fabricate_root(tmp_path, per_file=2)
        path = tmp_path / "data_batch_3.bin"
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        # The corrupt file lies past the one record decoded.
        with pytest.raises(data.IngestError, match="byte offset"):
            data.load_cifar10(tmp_path, 1, 1)

    def test_invalid_label_names_record(self, tmp_path):
        _fabricate_root(tmp_path, per_file=3)
        path = tmp_path / "test_batch.bin"
        raw = bytearray(path.read_bytes())
        raw[2 * data.CIFAR_RECORD_BYTES] = 200
        path.write_bytes(bytes(raw))
        with pytest.raises(data.IngestError, match="label 200 at record 2"):
            data.load_cifar10(tmp_path, 1, 1)

    def test_invalid_label_past_the_prefix_names_record(self, tmp_path):
        _fabricate_root(tmp_path, per_file=3)
        path = tmp_path / "data_batch_5.bin"
        raw = bytearray(path.read_bytes())
        raw[data.CIFAR_RECORD_BYTES] = 10
        path.write_bytes(bytes(raw))
        with pytest.raises(data.IngestError, match="label 10 at record 1 "
                                                   r"\(byte offset 3073\)"):
            data.load_cifar10(tmp_path, 2, 3)

    def test_missing_batch_file(self, tmp_path):
        _fabricate_root(tmp_path, per_file=1)
        (tmp_path / "data_batch_4.bin").unlink()
        with pytest.raises(FileNotFoundError, match="data_batch_4"):
            data.load_cifar10(tmp_path, 1, 1)

    def test_missing_test_file(self, tmp_path):
        _fabricate_root(tmp_path, per_file=1)
        (tmp_path / "test_batch.bin").unlink()
        with pytest.raises(FileNotFoundError, match="test_batch"):
            data.load_cifar10(tmp_path, 1, 1)

    @pytest.mark.parametrize("train_n, val_n, message", [
        (21, 4, "dataset.train_n is 21, but CIFAR-10 holds 20 records"),
        (20, 5, "dataset.val_n is 5, but CIFAR-10 holds 4 records")])
    def test_count_beyond_the_files(self, tmp_path, train_n, val_n, message):
        _fabricate_root(tmp_path, per_file=4)
        with pytest.raises(ValueError, match=message):
            data.load_cifar10(tmp_path, train_n, val_n)


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

    @pytest.mark.parametrize("source", data.SOURCES)
    def test_empty_train_split_has_no_statistics(self, tmp_path, source):
        _fabricate_root(tmp_path, per_file=2)
        with pytest.raises(ValueError, match="dataset.train_n is 0"):
            data.load_dataset(source, tmp_path, synthetic_n=0,
                              synthetic_val_n=2)

    @pytest.mark.parametrize("classes", [5, 20])
    def test_cifar_rejects_other_class_count(self, tmp_path, classes):
        _fabricate_root(tmp_path, per_file=2)
        with pytest.raises(ValueError, match=f"10 classes.* is {classes}"):
            data.load_dataset("cifar10", tmp_path, classes=classes)


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# sha256 of the loader's output as first recorded: by a generator that drew
# all n samples' noise in one float64 array, and by a CIFAR-10 reader that
# decoded every record before taking the prefix. Chunked drawing and prefix
# decoding must give the same bytes; n = 255 and 257 straddle one chunk.
SYNTHETIC_DIGESTS = {
    1: ("2fc3b354f4ddfff49ee2a1a37bdf57bc517ddd9b15c8c7f61a25a658a18a7b59",
        "6cc16abd70eefb90dc0ba0d14fb088630873b2c6ad943f7442356735984c35a3"),
    255: (
        "a53dd24d371a163652164398468abaabd39a0c96636694af7398bca3c84ae584",
        "c7271ac7b1cd28087b6205ee460494b809f1690cb7667d38e52c9a9e6dd6b249"),
    257: (
        "ad861aed8e4b77e9f32ec5ae89e683e02e8a213162ae019de39756c1ecc28601",
        "03dd678033e847fbce28ef701d46b6c6ed6b53d2bc366b4ee217c28b241bf5e3"),
    4096: ("ebb9a27e09d8006d58628bd089d374e87cbed08fc4b7be00e80b1eef9681e223",
           "ebe7eb827f89fd2a9d9cd2de1f2d20ac74b66c93405ec94b40a95cdbafeb3976"),
}


class TestGoldenBytes:
    def test_chunk_size_is_the_one_the_digests_straddle(self):
        assert data.SYNTHETIC_CHUNK == 256

    @pytest.mark.parametrize("n", SYNTHETIC_DIGESTS)
    def test_synthetic(self, n):
        split = data.synthetic(3, n)
        assert (_sha256(split.images), _sha256(split.labels)) \
            == SYNTHETIC_DIGESTS[n]

    def test_load_synthetic(self):
        train, val = data.load_dataset("synthetic", seed=0)
        assert [_sha256(a) for a in (train.images, train.labels,
                                     val.images, val.labels)] == [
            "e9a3a292e0ae27f8042dac62a6346fae6bea5a9d2cd8a7d49ce5ef4525916b67",
            "19a13565f314f10e0688238289dbff0e305a016d97ea13fe0ef864e6db939d60",
            "41f2e4bf5cd39b3c3663c232ad6ddc954d0749450ef06553d9c5cd381adec6ae",
            "3e4d6c6e25310badd0190ae36cbdf485b29dcc278a77648b01b0647329709485"]

    def test_load_cifar10_prefix_ending_inside_a_file(self, tmp_path):
        _fabricate_root(tmp_path, per_file=8)
        train, val = data.load_dataset("cifar10", tmp_path, synthetic_n=12,
                                       synthetic_val_n=3)
        assert [_sha256(a) for a in (train.images, train.labels,
                                     val.images, val.labels)] == [
            "33eafbbf6a45865fe8e184d89a66f6fbc313e26665850dafde83c74973da0536",
            "1eebe88c63d27aa2c0799d9cb37dc2dadb38f49c24c309fef65e8244586b2c35",
            "261e4e9f869c6e61c4687b731c5b09955c3317b4267f21cae1e945ef65e75dd3",
            "0057aef4fe5ef616b042e0b2499380693a5dd10cce41444305b7a28e75980d69"]


class TestLoaderMemory:
    # The tracemalloc peak of load_dataset over the bytes it returns. Both
    # sources peak at about 1.8-1.9x while normalizing: the returned splits
    # plus one more train-sized array (the deviation inside std, then the
    # normalized copy beside the raw split). A generator that draws all its
    # noise in float64 at once peaked at 4.4x, and a CIFAR-10 reader that
    # decodes every record before taking the prefix at 5.5x.
    BOUND = 2.25

    def _peak_over_returned(self, *args, **kwargs):
        gc.collect()
        tracemalloc.start()
        try:
            splits = data.load_dataset(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / sum(s.images.nbytes + s.labels.nbytes for s in splits)

    def test_synthetic(self):
        ratio = self._peak_over_returned("synthetic", synthetic_n=1024,
                                         synthetic_val_n=128)
        assert ratio < self.BOUND, f"{ratio:.2f}x"

    def test_cifar10_with_records_past_the_prefix(self, tmp_path):
        _fabricate_root(tmp_path, per_file=100)
        ratio = self._peak_over_returned("cifar10", tmp_path, synthetic_n=150,
                                         synthetic_val_n=50)
        assert ratio < self.BOUND, f"{ratio:.2f}x"
