import math
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spd_agg import (
    DenseParams,
    FtsDataset,
    FtsParseError,
    MixParams,
    NonFiniteError,
    Params,
    PipelineConfig,
    ShapeMismatchError,
    StiefelPoint,
    fts_read,
    fts_write,
    load_checkpoint,
    save_checkpoint,
    seeded_rng,
    split_by_class,
    synth_generate,
    stiefel_init,
)
from spd_agg.cli import DEFAULT_GRADCHECK_PIPELINE


def random_dataset(rng, n_per_class=3, num_classes=2, c=4, h=2, w=3):
    samples = (
        rng.standard_normal((n_per_class * num_classes, c, h, w))
        .astype(np.float32)
        .astype(np.float64)
    )
    labels = np.repeat(np.arange(num_classes), n_per_class)
    return FtsDataset(samples=samples, labels=labels, num_classes=num_classes)


class TestFtsRoundTrip:
    def test_write_read_bit_identical(self, tmp_path):
        rng = seeded_rng(0)
        for i in range(3):
            ds = random_dataset(rng, num_classes=2 + i)
            path = tmp_path / f"ds{i}.fts"
            fts_write(ds, path)
            back = fts_read(path)
            assert np.array_equal(back.samples, ds.samples)
            assert np.array_equal(back.labels, ds.labels)
            assert back.num_classes == ds.num_classes

    def test_truncated_file_names_lengths(self, tmp_path):
        ds = random_dataset(seeded_rng(1))
        path = tmp_path / "ds.fts"
        fts_write(ds, path)
        blob = path.read_bytes()
        (tmp_path / "cut.fts").write_bytes(blob[:-7])
        with pytest.raises(FtsParseError, match=r"expected \d+ bytes, found \d+"):
            fts_read(tmp_path / "cut.fts")

    def test_label_equal_to_num_classes_rejected(self, tmp_path):
        ds = random_dataset(seeded_rng(2))
        path = tmp_path / "ds.fts"
        fts_write(ds, path)
        blob = bytearray(path.read_bytes())
        blob[32] = ds.num_classes  # first label u32 low byte
        (tmp_path / "bad.fts").write_bytes(bytes(blob))
        with pytest.raises(FtsParseError, match="label"):
            fts_read(tmp_path / "bad.fts")

    def test_bad_magic_rejected(self, tmp_path):
        ds = random_dataset(seeded_rng(3))
        path = tmp_path / "ds.fts"
        fts_write(ds, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        (tmp_path / "bad.fts").write_bytes(bytes(blob))
        with pytest.raises(FtsParseError, match="magic"):
            fts_read(tmp_path / "bad.fts")

    def test_bad_magic_names_its_offset(self, tmp_path):
        path = tmp_path / "bad.fts"
        fts_write(random_dataset(seeded_rng(3)), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FtsParseError, match=r"bad magic .* \(at byte 0\)$"):
            fts_read(path)

    def test_header_fuzz_sample(self, tmp_path):
        ds = random_dataset(seeded_rng(4))
        path = tmp_path / "ds.fts"
        fts_write(ds, path)
        blob = path.read_bytes()
        rng = seeded_rng(5)
        for _ in range(100):
            pos = int(rng.integers(0, 32))
            new = int(rng.integers(0, 256))
            if new == blob[pos]:
                new = (new + 1) % 256
            corrupted = bytearray(blob)
            corrupted[pos] = new
            (tmp_path / "fuzz.fts").write_bytes(bytes(corrupted))
            with pytest.raises(FtsParseError):
                fts_read(tmp_path / "fuzz.fts")

    def test_uncovered_class_rejected_on_write(self, tmp_path):
        rng = seeded_rng(6)
        samples = rng.standard_normal((4, 2, 2, 2))
        ds = FtsDataset(samples=samples, labels=np.zeros(4, dtype=int), num_classes=2)
        with pytest.raises(ValueError, match="num_classes"):
            fts_write(ds, tmp_path / "bad.fts")


def traced_peak(fn) -> int:
    """Peak bytes that ``tracemalloc`` sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFtsMemory:
    """A dataset stays float32 from the generator or the file on, and
    FTS1 I/O copies no whole payload."""

    @pytest.fixture
    def float32_set(self):
        # 200 samples of 8 x 8 x 8 maps: a 400 KiB payload
        return synth_generate(num_classes=2, per_class=100, c0=8, h=8, w=8, seed=3)

    def test_float32_kept_and_read_samples_writable(self, tmp_path, float32_set):
        samples = float32_set.samples
        assert samples.dtype == np.float32
        assert FtsDataset(samples, float32_set.labels, 2).samples is samples
        widened = FtsDataset(samples.astype(np.float16), float32_set.labels, 2).samples
        assert widened.dtype == np.float64
        path = tmp_path / "ds.fts"
        fts_write(float32_set, path)
        back = fts_read(path).samples
        assert back.dtype == np.float32 and back.flags.writeable
        assert np.array_equal(back, samples)
        back[0, 0, 0, 0] = 1.0

    def test_read_peak_below_one_and_a_half_file_sizes(self, tmp_path, float32_set):
        path = tmp_path / "ds.fts"
        fts_write(float32_set, path)
        assert traced_peak(lambda: fts_read(path)) < 1.5 * path.stat().st_size

    def test_mapped_read_peak_below_a_tenth_of_the_file(self, tmp_path):
        # 4 MB of samples: the payload is mapped, not copied, and its
        # non-finite check makes no payload-sized mask.
        samples = seeded_rng(4).standard_normal((250, 16, 16, 16)).astype(np.float32)
        path = tmp_path / "ds.fts"
        fts_write(FtsDataset(samples, np.arange(250) % 2, 2), path)
        assert path.stat().st_size > 4_000_000
        assert traced_peak(lambda: fts_read(path)) < 0.1 * path.stat().st_size

    def test_float32_write_peak_below_half_the_payload(self, tmp_path, float32_set):
        peak = traced_peak(lambda: fts_write(float32_set, tmp_path / "ds.fts"))
        assert peak < 0.5 * float32_set.samples.nbytes


def fts_bytes(labels, payload, c=1, h=1, w=1, num_classes=None) -> bytes:
    """A hand-built FTS1 file; ``num_classes`` defaults to 1 + max(labels)."""
    num_classes = max(labels) + 1 if num_classes is None else num_classes
    return (
        struct.pack("<4sIIIIII", b"FTS1", 1, len(labels), c, h, w, num_classes)
        + struct.pack(f"<{len(labels)}I", *labels)
        + struct.pack(f"<{len(payload)}f", *payload)
    )


class TestFtsRefusals:
    """Headers and payloads that no writer produces, refused with the
    offset of the offending bytes."""

    @pytest.mark.parametrize("field, offset", [("n", 8), ("c", 12), ("h", 16), ("w", 20)])
    def test_zero_count_names_its_offset(self, tmp_path, field, offset):
        dims = {"n": 1, "c": 1, "h": 1, "w": 1, field: 0}
        labels = [0] * dims.pop("n")
        payload = [0.5] * (len(labels) * math.prod(dims.values()))
        path = tmp_path / "zero.fts"
        path.write_bytes(fts_bytes(labels, payload, num_classes=1, **dims))
        with pytest.raises(FtsParseError, match=r"must (contain|be >= 1)") as info:
            fts_read(path)
        assert info.value.offset == offset

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("sample, entry", [(0, 0), (1, 3), (2, 2)])
    def test_non_finite_payload_names_its_sample(self, tmp_path, value, sample, entry):
        # three samples of 1 x 2 x 2 maps; one entry of one sample is bad
        payload = np.arange(12, dtype=np.float64) / 8.0
        payload[4 * sample + entry] = value
        path = tmp_path / "nan.fts"
        path.write_bytes(fts_bytes([0, 1, 1], payload.tolist(), h=2, w=2))
        with pytest.raises(FtsParseError, match=f"sample {sample} contains non-finite") as info:
            fts_read(path)
        assert info.value.offset == 28 + 4 * 3 + 4 * 4 * sample

    def test_write_refuses_empty_set(self, tmp_path):
        empty = FtsDataset(samples=np.empty((0, 2, 1, 1)), labels=[], num_classes=1)
        with pytest.raises(ValueError, match="at least one sample"):
            fts_write(empty, tmp_path / "empty.fts")
        assert not (tmp_path / "empty.fts").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_write_refuses_non_finite_payload(self, tmp_path, value):
        ds = random_dataset(seeded_rng(7))
        ds.samples[1, 2, 0, 1] = value
        with pytest.raises(NonFiniteError, match="non-finite"):
            fts_write(ds, tmp_path / "bad.fts")
        assert not (tmp_path / "bad.fts").exists()


class TestSynthGenerate:
    def test_same_seed_identical(self):
        a = synth_generate(2, 5, 4, 3, 3, seed=11)
        b = synth_generate(2, 5, 4, 3, 3, seed=11)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)

    def test_per_position_covariance_approaches_target(self):
        c0, h, w, per_class = 8, 6, 6, 300  # 300*36 = 10800 position vectors
        ds = synth_generate(2, per_class, c0, h, w, seed=12)
        # rebuild the class covariances from the same seed (factors are
        # drawn first, one per class, before any sample draws)
        rng = seeded_rng(12)
        targets = []
        for _ in range(2):
            a = rng.standard_normal((c0, c0))
            targets.append(a @ a.T + 0.1 * np.eye(c0))
        for k in range(2):
            cls = ds.samples[ds.labels == k].reshape(per_class, c0, h * w)
            positions = np.concatenate([cls[i].T for i in range(per_class)], axis=0)
            emp = np.cov(positions.T, ddof=1)
            rel = np.linalg.norm(emp - targets[k]) / np.linalg.norm(targets[k])
            assert rel < 0.1, rel

    def test_class_means_carry_no_signal(self):
        ds = synth_generate(2, 100, 8, 4, 4, seed=13)
        means = []
        for k in range(2):
            cls = ds.samples[ds.labels == k]
            means.append(cls.mean(axis=(0, 2, 3)))  # average-pooled channel means
        std = ds.samples.std()
        assert np.linalg.norm(means[0] - means[1]) < 0.1 * std

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="two classes"):
            synth_generate(1, 5, 4, 2, 2, seed=0)


class TestSplit:
    def test_split_counts_and_balance(self):
        ds = synth_generate(2, 150, 4, 2, 2, seed=14)
        train_ds, test_ds = split_by_class(ds, 100)
        assert len(train_ds) == 200 and len(test_ds) == 100
        assert (np.bincount(train_ds.labels) == [100, 100]).all()
        assert (np.bincount(test_ds.labels) == [50, 50]).all()


#: A checkpoint committed once; the format may not move under it.
GOLDEN_CHECKPOINT = Path(__file__).parent / "golden" / "gradcheck_pipeline.ftsp"


def golden_checkpoint() -> tuple[Params, PipelineConfig]:
    """What ``GOLDEN_CHECKPOINT`` holds: the gradcheck pipeline, with
    parameters that are exact binary fractions, different in every
    mixer and head entry, and an exactly orthonormal W.  Rewrite the file
    with ``save_checkpoint(GOLDEN_CHECKPOINT, *golden_checkpoint())``
    only when the format changes on purpose."""
    pipeline = DEFAULT_GRADCHECK_PIPELINE  # 6 -> 5 channels, C' = 3, 3 classes
    steps = (np.arange(56) - 27.5) / 16
    w = np.zeros((5, 3))
    w[0, 0], w[1, 0], w[2, 1], w[3, 2], w[4, 2] = 0.6, 0.8, -1.0, 0.28, 0.96
    params = Params(
        mix=MixParams(weights=steps[:30].reshape(5, 6), bias=steps[30:35]),
        transform=StiefelPoint(w),
        head=DenseParams(weights=steps[35:53].reshape(3, 6), bias=steps[53:]),
    )
    return params, pipeline


def reseal(blob: bytearray) -> bytearray:
    """Rewrite an edited FTSP v2 file's CRC32 trailer to match its bytes."""
    blob[-4:] = struct.pack("<I", zlib.crc32(blob[:-4]))
    return blob


def assert_same_params(a: Params, b: Params) -> None:
    assert (a.mix is None) == (b.mix is None)
    if a.mix is not None:
        assert np.array_equal(a.mix.weights, b.mix.weights)
        assert np.array_equal(a.mix.bias, b.mix.bias)
    assert np.array_equal(a.transform.w, b.transform.w)
    assert np.array_equal(a.head.weights, b.head.weights)
    assert np.array_equal(a.head.bias, b.head.bias)


class TestCheckpoint:
    def test_params_round_trip(self, tmp_path):
        rng = seeded_rng(16)
        pipeline = PipelineConfig(
            in_channels=6, mixed_channels=5, transform_dim=3, num_classes=4,
            use_spd_relu=True, aggregator="covariance",
            power_norm=False, l2_norm=True,
        )
        params = Params(
            mix=MixParams(weights=rng.standard_normal((5, 6)), bias=rng.standard_normal(5)),
            transform=stiefel_init(5, 3, rng),
            head=DenseParams(weights=rng.standard_normal((4, 6)), bias=rng.standard_normal(4)),
        )
        path = tmp_path / "model.ftsp"
        save_checkpoint(path, params, pipeline)
        loaded, cfg = load_checkpoint(path)
        assert cfg == pipeline
        assert_same_params(loaded, params)

    def test_no_mixer_round_trip(self, tmp_path):
        rng = seeded_rng(17)
        pipeline = PipelineConfig(
            in_channels=5, mixed_channels=0, transform_dim=2, num_classes=2
        )
        params = Params(
            mix=None,
            transform=stiefel_init(5, 2, rng),
            head=DenseParams(weights=rng.standard_normal((2, 3)), bias=rng.standard_normal(2)),
        )
        path = tmp_path / "model.ftsp"
        save_checkpoint(path, params, pipeline)
        loaded, cfg = load_checkpoint(path)
        assert cfg == pipeline and loaded.mix is None

    def test_golden_file_loads_exactly(self):
        params, pipeline = golden_checkpoint()
        loaded, cfg = load_checkpoint(GOLDEN_CHECKPOINT)
        assert cfg == pipeline
        assert_same_params(loaded, params)

    def test_save_reproduces_golden_bytes(self, tmp_path):
        path = tmp_path / "model.ftsp"
        save_checkpoint(path, *golden_checkpoint())
        golden = GOLDEN_CHECKPOINT.read_bytes()
        assert len(golden) == 40 + 8 * (30 + 5 + 15 + 18 + 3) + 4
        assert path.read_bytes() == golden

    def test_save_refuses_params_of_another_pipeline(self, tmp_path):
        params, _ = golden_checkpoint()
        no_mixer = PipelineConfig(in_channels=5, mixed_channels=0, transform_dim=3, num_classes=3)
        with pytest.raises(ShapeMismatchError, match="do not match the pipeline"):
            save_checkpoint(tmp_path / "model.ftsp", params, no_mixer)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ftsp"
        path.write_bytes(b"JUNKxxxxxxxxxxxx")
        with pytest.raises(FtsParseError, match="magic") as info:
            load_checkpoint(path)
        assert info.value.offset == 0

    def test_truncated_block_rejected(self, tmp_path):
        blob = GOLDEN_CHECKPOINT.read_bytes()
        path = tmp_path / "cut.ftsp"
        path.write_bytes(blob[:-4])
        with pytest.raises(FtsParseError, match="checksum mismatch") as info:
            load_checkpoint(path)
        assert info.value.offset == len(blob) - 8
        path.write_bytes(blob[:43])
        with pytest.raises(FtsParseError, match="truncated header: need 44 bytes") as info:
            load_checkpoint(path)
        assert info.value.offset == 43

    def test_version_1_file_refused(self, tmp_path):
        # A one-block file in the retired named-block layout.
        name = b"pipeline_config"
        v1 = (
            b"FTSP" + struct.pack("<III", 1, 1, len(name)) + name
            + struct.pack("<II", 1, 8) + np.zeros(8).tobytes()
        )
        path = tmp_path / "v1.ftsp"
        path.write_bytes(v1)
        with pytest.raises(FtsParseError) as info:
            load_checkpoint(path)
        assert str(info.value) == "unsupported version 1, expected 2 (at byte 4)"

    @pytest.mark.parametrize("field", range(4))
    def test_each_code_names_its_offset(self, tmp_path, field):
        # relu, aggregator, power and l2 follow the magic, the version and
        # the four dimensions.
        blob = bytearray(GOLDEN_CHECKPOINT.read_bytes())
        struct.pack_into("<I", blob, 24 + 4 * field, 2)
        path = tmp_path / "model.ftsp"
        path.write_bytes(reseal(blob))
        with pytest.raises(FtsParseError, match="must be 0 or 1, got 2") as info:
            load_checkpoint(path)
        assert info.value.offset == 24 + 4 * field

    def test_huge_config_fails_on_length_before_reading(self, tmp_path):
        blob = bytearray(GOLDEN_CHECKPOINT.read_bytes())
        struct.pack_into("<4I", blob, 8, 2**31, 2**31, 2**16, 2**31)
        path = tmp_path / "model.ftsp"
        path.write_bytes(reseal(blob))
        tracemalloc.start()
        try:
            with pytest.raises(FtsParseError, match="length mismatch"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def _mutations(size: int):
    """One byte replaced by another value, the file cut short, or one
    byte inserted."""
    return st.one_of(
        st.tuples(st.just("replace"), st.integers(0, size - 1), st.integers(1, 255)),
        st.tuples(st.just("truncate"), st.integers(0, size - 1), st.just(0)),
        st.tuples(st.just("insert"), st.integers(0, size), st.integers(0, 255)),
    )


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    """A valid checkpoint's path and bytes; tests may overwrite the file."""
    rng = seeded_rng(19)
    pipeline = PipelineConfig(in_channels=3, mixed_channels=2, transform_dim=2, num_classes=2)
    params = Params(
        mix=MixParams(weights=rng.standard_normal((2, 3)), bias=rng.standard_normal(2)),
        transform=stiefel_init(2, 2, rng),
        head=DenseParams(weights=rng.standard_normal((2, 3)), bias=rng.standard_normal(2)),
    )
    path = tmp_path_factory.mktemp("mutation") / "model.ftsp"
    save_checkpoint(path, params, pipeline)
    return path, path.read_bytes()


class TestCheckpointMutation:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(data=st.data())
    def test_edited_checkpoint_is_refused(self, checkpoint_file, data):
        path, blob = checkpoint_file
        kind, at, byte = data.draw(_mutations(len(blob)))
        if kind == "replace":
            # ``byte`` is a nonzero step, so the value always changes
            blob = blob[:at] + bytes([(blob[at] + byte) % 256]) + blob[at + 1 :]
        elif kind == "truncate":
            blob = blob[:at]
        else:
            blob = blob[:at] + bytes([byte]) + blob[at:]
        path.write_bytes(blob)
        with pytest.raises(FtsParseError):
            load_checkpoint(path)

    def test_1000_single_byte_replacements_refused(self, checkpoint_file):
        """Criterion 10's header fuzz, over every byte of a checkpoint."""
        path, blob = checkpoint_file
        rng = seeded_rng(110)
        refused = 0
        for _ in range(1000):
            at = int(rng.integers(0, len(blob)))
            new = int(rng.integers(0, 256))
            if new == blob[at]:
                new = (new + 1) % 256
            path.write_bytes(blob[:at] + bytes([new]) + blob[at + 1 :])
            try:
                load_checkpoint(path)
            except FtsParseError:
                refused += 1
        assert refused == 1000


class TestDatasetValidation:
    def test_label_range_checked(self):
        with pytest.raises(ValueError, match="labels must lie"):
            FtsDataset(samples=np.zeros((2, 1, 1, 1)), labels=np.array([0, 2]), num_classes=2)

    def test_shape_mismatch_checked(self):
        with pytest.raises(Exception):
            FtsDataset(samples=np.zeros((2, 1, 1)), labels=np.array([0, 1]), num_classes=2)

    @pytest.mark.parametrize(
        "labels, message",
        [([0.7, 1.2], "label 0.7 at position 0"), ([0.0, np.inf], "label inf at position 1")],
    )
    def test_non_integer_label_refused(self, labels, message):
        # A cast to int64 would store [0, 1] for [0.7, 1.2].
        with pytest.raises(ValueError, match=f"^{message} is not an integer$"):
            FtsDataset(samples=np.zeros((2, 1, 1, 1)), labels=labels, num_classes=2)

    def test_column_of_labels_refused_by_shape(self):
        with pytest.raises(ShapeMismatchError, match=r"got shape \(2, 1\)$"):
            FtsDataset(samples=np.zeros((2, 1, 1, 1)), labels=[[0], [1]], num_classes=2)

    def test_whole_float_labels_stored_as_integers(self):
        ds = FtsDataset(samples=np.zeros((2, 1, 1, 1)), labels=[1.0, 0.0], num_classes=2)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]
