"""Binary dataset and checkpoint containers, plus the synthetic generator.

FTS1 dataset layout (little-endian throughout)::

    magic "FTS1" | version u32 = 1 | num_samples u32 | C u32 | H u32 |
    W u32 | num_classes u32 | labels: num_samples x u32 |
    payload: num_samples x C*H*W float32, row-major (C, H, W) per sample

Storage is float32; values are widened to float64 in memory (and
quantized to float32 representables on generation, so write -> read is
bit-identical).  Integrity rules beyond raw shape consistency: at least
one sample, every count >= 1, every label < num_classes, and
``num_classes == 1 + max(labels)``.  The last rule makes the manifest
field redundant with the label block, which is what lets single-byte
header corruption always be detected — there is no checksum.

FTSP checkpoint layout::

    magic "FTSP" | version u32 = 1 | block_count u32 | per block:
    name_len u32 | name utf-8 | rows u32 | cols u32 |
    rows*cols float64 row-major

Parameters and an encoded pipeline configuration ride in named blocks so
one parser handles both containers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FtsParseError, NonFiniteError, ShapeMismatchError
from .head import DenseParams
from .linalg import matmul, seeded_rng
from .network import MixParams, NormFlags, Params, PipelineConfig
from .stiefel import StiefelPoint

__all__ = [
    "FtsDataset",
    "fts_read",
    "fts_write",
    "synth_generate",
    "split_by_class",
    "checkpoint_read",
    "checkpoint_write",
    "save_checkpoint",
    "load_checkpoint",
]

MAGIC = b"FTS1"
CKPT_MAGIC = b"FTSP"
VERSION = 1
_HEADER = struct.Struct("<4sIIIIII")  # magic, version, n, c, h, w, num_classes


@dataclass
class FtsDataset:
    """In-memory dataset: float64 feature stacks plus integer labels."""

    samples: np.ndarray  # (n, C, H, W) float64
    labels: np.ndarray  # (n,) int64
    num_classes: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.samples.ndim != 4:
            raise ShapeMismatchError(f"samples must be (n, C, H, W), got {self.samples.shape}")
        if self.labels.shape != (self.samples.shape[0],):
            raise ShapeMismatchError(
                f"{self.samples.shape[0]} samples but {self.labels.shape} labels"
            )
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}), got "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.samples.shape[1:]

    def __len__(self) -> int:
        return self.samples.shape[0]


def _validate_manifest(ds: FtsDataset) -> None:
    if len(ds) < 1:
        raise ValueError("dataset must contain at least one sample")
    if min(ds.shape) < 1 or ds.num_classes < 1:
        raise ValueError(f"counts must be >= 1, got shape {ds.shape}, {ds.num_classes} classes")
    if int(ds.labels.max()) + 1 != ds.num_classes:
        raise ValueError(
            f"num_classes must equal 1 + max(labels): {ds.num_classes} vs "
            f"{int(ds.labels.max()) + 1}"
        )
    if not np.isfinite(ds.samples).all():
        raise NonFiniteError("dataset payload contains non-finite values")


def fts_write(dataset: FtsDataset, path) -> None:
    """Serialize a dataset; the payload is quantized to float32."""
    _validate_manifest(dataset)
    n, (c, h, w) = len(dataset), dataset.shape
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, n, c, h, w, dataset.num_classes))
        f.write(dataset.labels.astype("<u4").tobytes())
        f.write(dataset.samples.astype("<f4").tobytes())


def fts_read(path) -> FtsDataset:
    """Parse and validate an FTS1 file.

    Raises :class:`FtsParseError` (with the offending byte offset) on any
    malformed header, length mismatch, or label/payload violation.
    """
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < _HEADER.size:
        raise FtsParseError(
            f"truncated header: need {_HEADER.size} bytes, file has {len(buf)}", offset=len(buf)
        )
    magic, version, n, c, h, w, num_classes = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise FtsParseError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != VERSION:
        raise FtsParseError(f"unsupported version {version}, expected {VERSION}", offset=4)
    if n < 1:
        raise FtsParseError("dataset must contain at least one sample", offset=8)
    for off, name, val in ((12, "C", c), (16, "H", h), (20, "W", w)):
        if val < 1:
            raise FtsParseError(f"count {name} must be >= 1, got {val}", offset=off)
    if num_classes < 1:
        raise FtsParseError(f"num_classes must be >= 1, got {num_classes}", offset=24)

    labels_bytes = 4 * n
    payload_bytes = 4 * n * c * h * w
    expected = _HEADER.size + labels_bytes + payload_bytes
    if len(buf) != expected:
        raise FtsParseError(
            f"length mismatch: expected {expected} bytes, found {len(buf)}",
            offset=min(len(buf), expected),
        )

    labels = np.frombuffer(buf, dtype="<u4", count=n, offset=_HEADER.size).astype(np.int64)
    bad = np.nonzero(labels >= num_classes)[0]
    if bad.size:
        i = int(bad[0])
        raise FtsParseError(
            f"label {int(labels[i])} at index {i} >= num_classes {num_classes}",
            offset=_HEADER.size + 4 * i,
        )
    if int(labels.max()) + 1 != num_classes:
        raise FtsParseError(
            f"num_classes must equal 1 + max(labels): {num_classes} vs {int(labels.max()) + 1}",
            offset=24,
        )
    payload = np.frombuffer(
        buf, dtype="<f4", count=n * c * h * w, offset=_HEADER.size + labels_bytes
    )
    samples = payload.astype(np.float64).reshape(n, c, h, w)
    if not np.isfinite(samples).all():
        i = int(np.nonzero(~np.isfinite(samples.reshape(n, -1)).all(axis=1))[0][0])
        raise FtsParseError(
            f"sample {i} contains non-finite values",
            offset=_HEADER.size + labels_bytes + 4 * i * c * h * w,
        )
    return FtsDataset(samples=samples, labels=labels, num_classes=num_classes)


def synth_generate(
    num_classes: int, per_class: int, c0: int, h: int, w: int, seed: int
) -> FtsDataset:
    """Synthetic dataset whose classes differ only in second-order structure.

    Class k draws every spatial position independently from
    N(0, A_k A_k^T + 0.1 I) with A_k a fixed standard-normal matrix drawn
    once per class from the seed.  All classes share the zero mean, so
    first-order (average-pooled) statistics carry no class signal; the
    per-position covariance carries all of it.
    """
    if num_classes < 2:
        raise ValueError(f"need at least two classes, got {num_classes}")
    if per_class < 1 or min(c0, h, w) < 1:
        raise ValueError("per_class and tensor dimensions must be >= 1")
    rng = seeded_rng(seed)
    factors = []
    for _ in range(num_classes):
        a = rng.standard_normal((c0, c0))
        factors.append(np.linalg.cholesky(matmul(a, a.T) + 0.1 * np.eye(c0)))
    samples = np.empty((num_classes * per_class, c0, h, w))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    i = 0
    for k in range(num_classes):
        for _ in range(per_class):
            draws = matmul(factors[k], rng.standard_normal((c0, h * w)))
            # quantize to float32 representables so disk round-trips are exact
            samples[i] = draws.reshape(c0, h, w).astype(np.float32).astype(np.float64)
            labels[i] = k
            i += 1
    return FtsDataset(samples=samples, labels=labels, num_classes=num_classes)


def split_by_class(dataset: FtsDataset, train_per_class: int) -> tuple[FtsDataset, FtsDataset]:
    """Per class, the first ``train_per_class`` samples (in dataset order)
    go to the train split, the rest to the test split."""
    train_idx: list[int] = []
    test_idx: list[int] = []
    seen = {k: 0 for k in range(dataset.num_classes)}
    for i, lab in enumerate(dataset.labels.tolist()):
        if seen[lab] < train_per_class:
            train_idx.append(i)
            seen[lab] += 1
        else:
            test_idx.append(i)
    if not train_idx or not test_idx:
        raise ValueError("split leaves an empty side; lower train_per_class")
    return (
        FtsDataset(dataset.samples[train_idx], dataset.labels[train_idx], dataset.num_classes),
        FtsDataset(dataset.samples[test_idx], dataset.labels[test_idx], dataset.num_classes),
    )


def checkpoint_write(path, blocks: dict[str, np.ndarray]) -> None:
    """Write named float64 matrices in the FTSP container."""
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<II", VERSION, len(blocks)))
        for name, mat in blocks.items():
            mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<II", mat.shape[0], mat.shape[1]))
            f.write(mat.astype("<f8").tobytes())


def checkpoint_read(path) -> dict[str, np.ndarray]:
    """Parse an FTSP container back into named float64 matrices."""
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < 12:
        raise FtsParseError(f"truncated header: need 12 bytes, file has {len(buf)}", offset=len(buf))
    if buf[:4] != CKPT_MAGIC:
        raise FtsParseError(f"bad magic {buf[:4]!r}, expected {CKPT_MAGIC!r}", offset=0)
    version, count = struct.unpack_from("<II", buf, 4)
    if version != VERSION:
        raise FtsParseError(f"unsupported version {version}, expected {VERSION}", offset=4)
    off = 12
    blocks: dict[str, np.ndarray] = {}
    for _ in range(count):
        if len(buf) < off + 4:
            raise FtsParseError("truncated block name length", offset=off)
        (name_len,) = struct.unpack_from("<I", buf, off)
        off += 4
        if len(buf) < off + name_len + 8:
            raise FtsParseError("truncated block header", offset=off)
        try:
            name = buf[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError as e:
            raise FtsParseError(f"block name is not UTF-8: {e.reason}", offset=off) from e
        off += name_len
        rows, cols = struct.unpack_from("<II", buf, off)
        off += 8
        nbytes = 8 * rows * cols
        if len(buf) < off + nbytes:
            raise FtsParseError(
                f"truncated payload for block {name!r}: need {nbytes} bytes", offset=off
            )
        blocks[name] = (
            np.frombuffer(buf, dtype="<f8", count=rows * cols, offset=off)
            .reshape(rows, cols)
            .copy()
        )
        off += nbytes
    if off != len(buf):
        raise FtsParseError(f"{len(buf) - off} trailing bytes after last block", offset=off)
    return blocks


_AGG_CODES = {"kernel": 0.0, "covariance": 1.0}


def save_checkpoint(path, params: Params, pipeline: PipelineConfig) -> None:
    """Serialize trained parameters plus the pipeline configuration."""
    blocks: dict[str, np.ndarray] = {
        "pipeline_config": np.array(
            [
                [
                    pipeline.in_channels,
                    pipeline.mixed_channels,
                    pipeline.transform_dim,
                    pipeline.num_classes,
                    float(pipeline.use_spd_relu),
                    _AGG_CODES[pipeline.aggregator],
                    float(pipeline.normalizations.power),
                    float(pipeline.normalizations.l2),
                ]
            ]
        )
    }
    if params.mix is not None:
        blocks["mix.weights"] = params.mix.weights
        blocks["mix.bias"] = params.mix.bias[None, :]
    blocks["stiefel.w"] = params.transform.w
    blocks["dense.weights"] = params.head.weights
    blocks["dense.bias"] = params.head.bias[None, :]
    checkpoint_write(path, blocks)


#: Largest ||W^T W - I||_F accepted for a checkpoint's compression matrix.
CKPT_ORTHO_TOL = 1e-8


def _pipeline_config(block: np.ndarray) -> PipelineConfig:
    """Decode the 1x8 ``pipeline_config`` block written by :func:`save_checkpoint`."""
    if block.shape != (1, 8):
        raise FtsParseError(
            f"pipeline_config block must be 1x8, got {block.shape[0]}x{block.shape[1]}"
        )
    cfg = block[0]
    if not (np.isfinite(cfg).all() and (cfg == np.round(cfg)).all()):
        raise FtsParseError(f"pipeline_config entries must be finite integers, got {cfg.tolist()}")
    if not np.isin(cfg[4:], (0.0, 1.0)).all():
        raise FtsParseError(
            f"pipeline_config relu, aggregator and normalization codes must be 0 or 1, "
            f"got {cfg[4:].tolist()}"
        )
    try:
        return PipelineConfig(
            in_channels=int(cfg[0]),
            mixed_channels=int(cfg[1]),
            transform_dim=int(cfg[2]),
            num_classes=int(cfg[3]),
            use_spd_relu=bool(cfg[4]),
            aggregator="covariance" if cfg[5] else "kernel",
            normalizations=NormFlags(power=bool(cfg[6]), l2=bool(cfg[7])),
        )
    except ValueError as e:
        raise FtsParseError(f"pipeline_config is not a valid pipeline: {e}") from e


def _block_shapes(pipeline: PipelineConfig) -> dict[str, tuple[int, int]]:
    """The parameter blocks :func:`save_checkpoint` writes for ``pipeline``,
    with their shapes."""
    shapes = {}
    if pipeline.mixed_channels:
        shapes["mix.weights"] = (pipeline.mixed_channels, pipeline.in_channels)
        shapes["mix.bias"] = (1, pipeline.mixed_channels)
    shapes["stiefel.w"] = (pipeline.feature_channels, pipeline.transform_dim)
    shapes["dense.weights"] = (pipeline.num_classes, pipeline.head_dim)
    shapes["dense.bias"] = (1, pipeline.num_classes)
    return shapes


def _dims(rows: int, cols: int) -> str:
    return f"{rows} row{'s' * (rows != 1)} x {cols} column{'s' * (cols != 1)}"


def load_checkpoint(path) -> tuple[Params, PipelineConfig]:
    """Rebuild (params, pipeline config) from a checkpoint file.

    Raises :class:`FtsParseError` for a malformed container or
    configuration, a missing or unexpected block, a block whose shape
    does not match the configuration, a non-finite parameter, or a
    compression matrix whose columns are not orthonormal.
    """
    blocks = checkpoint_read(path)
    if "pipeline_config" not in blocks:
        raise FtsParseError("checkpoint is missing block 'pipeline_config'")
    pipeline = _pipeline_config(blocks.pop("pipeline_config"))
    shapes = _block_shapes(pipeline)
    for name, shape in shapes.items():
        if name not in blocks:
            raise FtsParseError(f"checkpoint is missing block {name!r}")
        if blocks[name].shape != shape:
            raise FtsParseError(
                f"block {name!r} must be {_dims(*shape)} under the pipeline config, "
                f"got {_dims(*blocks[name].shape)}"
            )
        if not np.isfinite(blocks[name]).all():
            raise FtsParseError(f"block {name!r} contains non-finite values")
    extra = sorted(set(blocks) - set(shapes))
    if extra:
        raise FtsParseError(f"unexpected blocks {extra}")
    mix = None
    if pipeline.mixed_channels:
        mix = MixParams(weights=blocks["mix.weights"], bias=blocks["mix.bias"][0])
    params = Params(
        mix=mix,
        transform=StiefelPoint(blocks["stiefel.w"]),
        head=DenseParams(weights=blocks["dense.weights"], bias=blocks["dense.bias"][0]),
    )
    orth = params.transform.orthogonality_error()
    if not orth <= CKPT_ORTHO_TOL:
        raise FtsParseError(
            f"stiefel.w columns are not orthonormal: "
            f"||W^T W - I||_F = {orth:.3e} > {CKPT_ORTHO_TOL:g}"
        )
    return params, pipeline
