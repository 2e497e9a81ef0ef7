"""Binary dataset and checkpoint formats, plus the synthetic generator.

FTS1 dataset layout (little-endian throughout)::

    magic "FTS1" | version u32 = 1 | num_samples u32 | C u32 | H u32 |
    W u32 | num_classes u32 | labels: num_samples x u32 |
    payload: num_samples x C*H*W float32, row-major (C, H, W) per sample

Storage is float32, and a dataset stays float32 in memory: :func:`fts_read`
returns a view of a private mapping of the file and :func:`synth_generate`
fills a float32 array, so write -> read is bit-identical.  The pipeline widens
each slice to float64 as it runs it, which is exact.  Integrity rules
beyond raw shape consistency: at least one sample, every count >= 1,
every label < num_classes, and ``num_classes == 1 + max(labels)``.  The
last rule makes the manifest field redundant with the label block, which
is what lets single-byte header corruption always be detected — there
is no checksum.

FTSP checkpoint layout, version 2; the pipeline configuration in the
header fixes every other byte::

    magic "FTSP" | version u32 = 2 | in_channels u32 | mixed_channels u32 |
    transform_dim u32 | num_classes u32 | use_spd_relu u32 |
    aggregator u32 (index into network.AGGREGATORS) | power u32 | l2 u32 |
    payload: float64 row-major, in the order of network.param_shapes:
    mix.weights, mix.bias (both only when mixed_channels > 0), stiefel.w,
    dense.weights, dense.bias |
    CRC32 u32 of every byte before it

The four codes are 0 or 1.  A file of any other length than the header
implies is refused before its payload is read.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import FtsParseError, NonFiniteError, ShapeMismatchError
from .linalg import matmul, seeded_rng
from .network import AGGREGATORS, Params, PipelineConfig, integer_labels, param_shapes

__all__ = [
    "FtsDataset",
    "fts_read",
    "fts_write",
    "synth_generate",
    "split_by_class",
    "save_checkpoint",
    "load_checkpoint",
]

MAGIC = b"FTS1"
VERSION = 1
_HEADER = struct.Struct("<4sIIIIII")  # magic, version, n, c, h, w, num_classes
CKPT_MAGIC = b"FTSP"
CKPT_VERSION = 2
_CKPT_HEADER = struct.Struct("<4s9I")  # magic, version, eight config fields
_CRC = struct.Struct("<I")


@dataclass
class FtsDataset:
    """In-memory dataset: feature stacks plus integer labels.

    Float32 samples are kept as given, without a copy, as FTS1 stores
    them; samples of any other type become float64.
    """

    samples: np.ndarray  # (n, C, H, W) float32 or float64
    labels: np.ndarray  # (n,) int64
    num_classes: int

    def __post_init__(self):
        samples = np.asarray(self.samples)
        self.samples = samples if samples.dtype == np.float32 else samples.astype(np.float64)
        self.labels = integer_labels(self.labels, self.num_classes)
        if self.samples.ndim != 4:
            raise ShapeMismatchError(f"samples must be (n, C, H, W), got {self.samples.shape}")
        if self.labels.shape != (self.samples.shape[0],):
            raise ShapeMismatchError(
                f"{self.samples.shape[0]} samples but {self.labels.shape} labels"
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
    """Serialize a dataset; the payload is quantized to float32.  Float32
    samples are written from their own memory, without a copy."""
    _validate_manifest(dataset)
    n, (c, h, w) = len(dataset), dataset.shape
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, n, c, h, w, dataset.num_classes))
        f.write(dataset.labels.astype("<u4"))
        f.write(np.ascontiguousarray(dataset.samples, dtype="<f4"))


def fts_read(path) -> FtsDataset:
    """Parse and validate an FTS1 file.

    The file is mapped copy-on-write (``mmap.ACCESS_COPY``), and the
    samples are a float32 view of its payload: nothing is copied until a
    sample is written to, and a write changes the process's copy of the
    page, never the file.  One caveat of the mapping: if another process
    truncates the file while it is mapped, touching a page past the new
    end kills this process with SIGBUS.  Raises :class:`FtsParseError`
    (with the offending byte offset) on any malformed header, length
    mismatch, or label/payload violation.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < _HEADER.size:
            raise FtsParseError(
                f"truncated header: need {_HEADER.size} bytes, file has {size}", offset=size
            )
        buf = mmap.mmap(f.fileno(), size, access=mmap.ACCESS_COPY)
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
    samples = np.frombuffer(
        buf, dtype="<f4", count=n * c * h * w, offset=_HEADER.size + labels_bytes
    ).reshape(n, c, h, w)
    # min and max carry any NaN or infinity, without a payload-sized mask
    if not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
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
    samples = np.empty((num_classes * per_class, c0, h, w), dtype=np.float32)
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    i = 0
    for k in range(num_classes):
        for _ in range(per_class):
            draws = matmul(factors[k], rng.standard_normal((c0, h * w)))
            # stored as float32, as on disk, so disk round-trips are exact
            samples[i] = draws.reshape(c0, h, w)
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


def save_checkpoint(path, params: Params, pipeline: PipelineConfig) -> None:
    """Serialize trained parameters plus the pipeline configuration."""
    arrays = params.blocks()
    shapes = param_shapes(pipeline)
    got = {name: np.shape(a) for name, a in arrays.items()}
    if got != shapes:
        raise ShapeMismatchError(f"parameter shapes {got} do not match the pipeline's {shapes}")
    header = _CKPT_HEADER.pack(
        CKPT_MAGIC, CKPT_VERSION, pipeline.in_channels, pipeline.mixed_channels,
        pipeline.transform_dim, pipeline.num_classes, pipeline.use_spd_relu,
        AGGREGATORS.index(pipeline.aggregator), pipeline.power_norm, pipeline.l2_norm,
    )
    blob = header + b"".join(np.asarray(arrays[name], dtype="<f8").tobytes() for name in shapes)
    with open(path, "wb") as f:
        f.write(blob + _CRC.pack(zlib.crc32(blob)))


#: Largest ||W^T W - I||_F accepted for a checkpoint's compression matrix.
CKPT_ORTHO_TOL = 1e-8


def load_checkpoint(path) -> tuple[Params, PipelineConfig]:
    """Rebuild (params, pipeline config) from an FTSP file.

    Raises :class:`FtsParseError`, in this order, for: a bad magic, a
    short file, a version other than 2, a checksum mismatch, a 0/1 code
    that is neither, a header that describes no valid pipeline, a length
    that differs from what the header implies, a non-finite parameter,
    and a compression matrix whose columns are not orthonormal.
    """
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != CKPT_MAGIC:
        raise FtsParseError(f"bad magic {buf[:4]!r}, expected {CKPT_MAGIC!r}", offset=0)
    least = _CKPT_HEADER.size + _CRC.size
    if len(buf) < least:
        raise FtsParseError(
            f"truncated header: need {least} bytes, file has {len(buf)}", offset=len(buf)
        )
    _, version, *dims, relu, agg, power, l2 = _CKPT_HEADER.unpack_from(buf)
    if version != CKPT_VERSION:
        raise FtsParseError(f"unsupported version {version}, expected {CKPT_VERSION}", offset=4)
    if _CRC.unpack_from(buf, len(buf) - 4)[0] != zlib.crc32(memoryview(buf)[:-4]):
        raise FtsParseError("checksum mismatch", offset=len(buf) - 4)
    for j, code in enumerate((relu, agg, power, l2)):
        if code > 1:
            raise FtsParseError(
                f"relu, aggregator and normalization codes must be 0 or 1, got {code}",
                offset=24 + 4 * j,
            )
    try:
        pipeline = PipelineConfig(
            *dims,
            use_spd_relu=bool(relu),
            aggregator=AGGREGATORS[agg],
            power_norm=bool(power), l2_norm=bool(l2),
        )
    except ValueError as e:
        raise FtsParseError(f"header is not a valid pipeline: {e}") from e
    shapes = param_shapes(pipeline)
    sizes = [math.prod(shape) for shape in shapes.values()]
    expected = least + 8 * sum(sizes)
    if len(buf) != expected:
        raise FtsParseError(
            f"length mismatch: expected {expected} bytes, found {len(buf)}",
            offset=min(len(buf), expected),
        )
    payload = np.frombuffer(buf, dtype="<f8", count=sum(sizes), offset=_CKPT_HEADER.size)
    parts = np.split(payload.astype(np.float64), np.cumsum(sizes)[:-1])
    blocks = {}
    for (name, shape), part in zip(shapes.items(), parts):
        if not np.isfinite(part).all():
            raise FtsParseError(f"block {name!r} contains non-finite values")
        blocks[name] = part.reshape(shape)
    params = Params.from_blocks(blocks)
    # Orthonormal columns have entries in [-1, 1]; refusing larger ones
    # first keeps W^T W from overflowing.
    if np.abs(params.transform.w).max() > 1.0 + CKPT_ORTHO_TOL:
        raise FtsParseError(
            f"stiefel.w columns are not orthonormal: an entry exceeds 1 + {CKPT_ORTHO_TOL:g} "
            f"in magnitude"
        )
    orth = params.transform.orthogonality_error()
    if not orth <= CKPT_ORTHO_TOL:
        raise FtsParseError(
            f"stiefel.w columns are not orthonormal: "
            f"||W^T W - I||_F = {orth:.3e} > {CKPT_ORTHO_TOL:g}"
        )
    return params, pipeline
