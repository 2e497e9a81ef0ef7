"""Pipeline assembly and training.

Data flow per sample (every step also runs on a stack of samples along a
leading axis, as one batch, with the same bits per sample):

    features -> 1x1 channel mix + ReLU (optional) -> kernel or covariance
    aggregation -> bilinear compression on the orthonormal-column manifold
    -> (optional elementwise ReLU) -> upper-triangle vectorization ->
    power normalization -> l2 normalization -> dense softmax cross-entropy

Training follows plain SGD in two stages: stage 1 freezes the channel
mixer and trains the new layers, stage 2 fine-tunes everything.  The
compression parameters are updated by projecting the minibatch gradient
onto the tangent space and retracting by QR; everything else by vanilla
``theta -= lr * grad``.  The loop consumes randomness only from one
seeded generator, so one (seed, config, dataset) triple yields one
bit-exact run.
Training and evaluation run the chain on slices of stacked samples (see
:data:`SLICE_VALUES`); a slice gives each sample exactly the bits it gets
on its own.  The slices of one minibatch, or of one held-out evaluation,
run on up to :data:`WORKERS` threads (:class:`_Workers`), and the calling
thread reduces their results in sample order, so the worker count
changes no bit either.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import json
import math
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError, SingularMatrixError
from .head import (
    DenseGrads,
    DenseParams,
    dense_logits,
    dense_softmax_ce,
    l2_normalize,
    l2_normalize_backward,
    L2Tape,
    power_normalize,
    power_normalize_backward,
    vectorize,
    vectorize_backward,
)
from .kernel import (
    KernelTape,
    as_feature_matrix,
    covariance_backward,
    covariance_forward,
    kernel_backward,
    kernel_forward,
)
from .linalg import matmul, seeded_rng
from .stiefel import (
    StiefelPoint,
    TransformTape,
    retract_step,
    spd_relu,
    spd_relu_mask,
    stiefel_init,
    tangent_project,
    transform_backward_input,
    transform_backward_param,
    transform_forward,
)

__all__ = [
    "AGGREGATORS",
    "PipelineConfig",
    "TrainConfig",
    "MixParams",
    "Params",
    "MetricsRecord",
    "GradCheckReport",
    "param_shapes",
    "init_params",
    "mix_forward",
    "mix_backward",
    "forward",
    "predict",
    "backward",
    "evaluate_accuracy",
    "train",
    "grad_check",
    "gradcheck_instance",
]

#: The plateau schedule of :func:`train`: an epoch whose mean training
#: loss improves by less than ``MIN_LOSS_DELTA`` is a plateau epoch, and
#: after ``PLATEAU_PATIENCE`` of them in a row the rate of the stage is
#: divided by ``DECAY_FACTOR``.
MIN_LOSS_DELTA = 1e-4
PLATEAU_PATIENCE = 3
DECAY_FACTOR = 10.0

#: The aggregation layers, in the order of their FTSP checkpoint codes.
AGGREGATORS = ("kernel", "covariance")

#: Float64 values (512 KiB) the widest per-sample array of a slice may
#: hold across the slice (:func:`_widest_array`).  Larger slices stop
#: paying once a layer's stack leaves the cache (2 MiB of L2 per core on
#: the machine this was sized on), and they raise peak memory.  Below four
#: samples, :func:`_slice_size` stacks up to four within 4 x this budget.
SLICE_VALUES = 65_536


#: glibc's mmap threshold as :func:`_pin_malloc_thresholds` pins it: just
#: above the largest slice array (2 MiB), since glibc compares a request
#: plus its chunk header (up to 16 bytes more) with the threshold.
_MMAP_THRESHOLD = 4 * SLICE_VALUES * 8 + 32


@functools.cache
def _pin_malloc_thresholds() -> bool:
    """Have glibc serve a slice's arrays from its heap, not fresh pages;
    returns whether it did.  :class:`_Workers` calls this before the
    first slice of the process runs, so importing the package changes no
    allocator setting; the cache makes later calls free.

    glibc maps every block above its mmap threshold (128 KiB at start)
    from the kernel and unmaps it on free, so each such array faults in
    its pages anew; it raises the threshold only after freeing a larger
    mapped block, which a float32 dataset may never make.  A slice's
    stacked arrays reach ``4 * SLICE_VALUES`` float64 values (2 MiB; see
    :func:`_slice_size`), and must stay below the threshold
    (:data:`_MMAP_THRESHOLD`), else every slice maps them afresh; the
    free heap top is kept up to 32 x :data:`SLICE_VALUES` values (16 MiB),
    so that what one slice frees serves the next.  Without glibc this
    sets nothing.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return False
    if not glibc:
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    mallopt(-1, 32 * SLICE_VALUES * 8)  # M_TRIM_THRESHOLD
    return True


#: Threads that :class:`_Workers` runs slices on: one per CPU of the
#: process's affinity mask, or of the machine where there is no such mask.
if hasattr(os, "sched_getaffinity"):
    WORKERS = len(os.sched_getaffinity(0))
else:
    WORKERS = os.cpu_count() or 1


@dataclass(frozen=True)
class PipelineConfig:
    """Architecture knobs.  ``mixed_channels = 0`` skips the 1x1 mixer."""

    in_channels: int
    mixed_channels: int
    transform_dim: int
    num_classes: int
    use_spd_relu: bool = False
    aggregator: str = "kernel"
    power_norm: bool = True
    l2_norm: bool = True

    def __post_init__(self):
        if self.in_channels < 1 or self.transform_dim < 1 or self.num_classes < 1:
            raise ValueError("channel, transform, and class counts must be >= 1")
        if self.mixed_channels < 0:
            raise ValueError("mixed_channels must be >= 0 (0 disables the mixer)")
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        if self.transform_dim > self.feature_channels:
            raise ValueError(
                f"transform_dim {self.transform_dim} exceeds feature channels {self.feature_channels}"
            )

    @property
    def feature_channels(self) -> int:
        return self.mixed_channels if self.mixed_channels else self.in_channels

    @property
    def head_dim(self) -> int:
        return self.transform_dim * (self.transform_dim + 1) // 2


@dataclass(frozen=True)
class TrainConfig:
    """Optimization knobs.  The rate of a stage drives the Euclidean and
    the manifold steps alike.

    ``freeze_stiefel`` keeps the randomly initialized compression fixed
    (the no-learning ablation).
    """

    lr_stage1: float = 0.1
    lr_stage2: float = 0.001
    batch_size: int = 32
    epochs_per_stage: int = 15
    seed: int = 0
    freeze_stiefel: bool = False

    def __post_init__(self):
        for key in ("lr_stage1", "lr_stage2"):
            value = getattr(self, key)
            # Compared, not converted: an int beyond float64 has no float.
            if not 0 <= value <= sys.float_info.max:
                raise ValueError(f"{key} must be a finite float64 >= 0, got {value}")
        if self.batch_size < 1 or self.epochs_per_stage < 0:
            raise ValueError("batch size must be >= 1, epochs >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


#: The 1x1 channel mixer's parameters: a 1x1 convolution is a dense layer
#: at every spatial position.
MixParams = DenseParams


def param_shapes(config: PipelineConfig) -> dict[str, tuple[int, ...]]:
    """The parameter blocks of ``config`` with their shapes, in checkpoint
    order.  These names key :meth:`Params.blocks`, the gradients of
    :func:`backward` and the gradient check."""
    shapes = {}
    if config.mixed_channels:
        shapes["mix.weights"] = (config.mixed_channels, config.in_channels)
        shapes["mix.bias"] = (config.mixed_channels,)
    shapes["stiefel.w"] = (config.feature_channels, config.transform_dim)
    shapes["dense.weights"] = (config.num_classes, config.head_dim)
    shapes["dense.bias"] = (config.num_classes,)
    return shapes


@dataclass
class Params:
    mix: MixParams | None
    transform: StiefelPoint
    head: DenseParams

    def blocks(self) -> dict[str, np.ndarray]:
        """The parameter arrays (not copies) under the names of
        :func:`param_shapes`, in its order."""
        blocks = {}
        if self.mix is not None:
            blocks["mix.weights"] = self.mix.weights
            blocks["mix.bias"] = self.mix.bias
        blocks["stiefel.w"] = self.transform.w
        blocks["dense.weights"] = self.head.weights
        blocks["dense.bias"] = self.head.bias
        return blocks

    @classmethod
    def from_blocks(cls, blocks: dict[str, np.ndarray]) -> Params:
        """The inverse of :meth:`blocks`; the mixer only when its blocks
        are there."""
        mix = None
        if "mix.weights" in blocks:
            mix = MixParams(weights=blocks["mix.weights"], bias=blocks["mix.bias"])
        return cls(
            mix=mix,
            transform=StiefelPoint(blocks["stiefel.w"]),
            head=DenseParams(weights=blocks["dense.weights"], bias=blocks["dense.bias"]),
        )


@dataclass(frozen=True)
class MixTape:
    """Arrays of one sample, or of a stack along a leading axis."""

    m0: np.ndarray  # (in_channels, N) input maps
    pre: np.ndarray  # (mixed_channels, N) pre-activation
    weights: np.ndarray  # the weights the forward used


@dataclass(frozen=True)
class PipelineTapes:
    """Forward caches of one sample, or of a stack along a leading axis;
    a layer that did not run, or that :func:`backward` need not
    differentiate (see there), leaves its fields None."""

    x: np.ndarray | None
    mix: MixTape | None
    agg_input: np.ndarray | None  # (C, H, W) maps entering aggregation
    kernel: KernelTape | None  # None for the covariance aggregator
    transform: TransformTape
    relu_mask: np.ndarray | None
    power_tape: np.ndarray | None
    l2_tape: L2Tape | None
    logits: np.ndarray
    dense_grads: DenseGrads


@dataclass(frozen=True)
class MetricsRecord:
    """One training epoch.  ``wall_ms`` never reaches the metrics file:
    serialized metrics must be bit-identical across replays of a seed."""

    epoch: int
    stage: int
    mean_train_loss: float
    train_accuracy: float
    test_accuracy: float | None
    lr: float
    stiefel_orthogonality_error: float
    wall_ms: float

    def to_json_line(self) -> str:
        record = asdict(self)
        del record["wall_ms"]
        return json.dumps(record, allow_nan=False)


def _assert_finite(name: str, arr) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values first appeared in: {name}", layer=name)


def init_params(config: PipelineConfig, rng: np.random.Generator) -> Params:
    """Draw initial parameters from ``rng`` (order of draws is fixed):
    every block of :func:`param_shapes` starts at zero, then the mixer
    weights and the compression are drawn.

    The dense head stays at zero: its gradient does not suffer from
    symmetric-initialization stalls.
    """
    shapes = param_shapes(config)
    blocks = {name: np.zeros(shape) for name, shape in shapes.items()}
    if config.mixed_channels:
        scale = math.sqrt(config.in_channels)
        blocks["mix.weights"] = rng.standard_normal(shapes["mix.weights"]) / scale
    blocks["stiefel.w"] = stiefel_init(*shapes["stiefel.w"], rng).w
    return Params.from_blocks(blocks)


def mix_forward(x, params: MixParams) -> tuple[np.ndarray, MixTape]:
    """Per-position channel mixing followed by ReLU, for one (C, H, W)
    sample or a (B, C, H, W) stack.

    out[:, p] = max(0, W x[:, p] + b) at every spatial position p.  A
    channel count other than the weights' is refused by ``matmul``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (3, 4):
        raise ShapeMismatchError(
            f"mixer input must be (C, H, W) or (B, C, H, W), got shape {x.shape}"
        )
    m0 = as_feature_matrix(x)
    pre = matmul(params.weights, m0) + params.bias[:, None]
    out = np.maximum(pre, 0.0)
    tape = MixTape(m0=m0, pre=pre, weights=params.weights)
    return out.reshape(pre.shape[:-1] + x.shape[-2:]), tape


def mix_backward(
    tape: MixTape, grad_out: np.ndarray, *, input: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gradients for (weights, bias, input maps); ReLU subgradient at 0 is 0.

    ``input=False`` skips the input-map gradient and returns None for it.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != tape.pre.shape:
        raise ShapeMismatchError(
            f"upstream gradient shape {grad_out.shape} does not match {tape.pre.shape}"
        )
    gz = grad_out * (tape.pre > 0.0)
    d_input = matmul(tape.weights.T, gz) if input else None
    return matmul(gz, tape.m0.swapaxes(-1, -2)), gz.sum(axis=-1), d_input


def _aggregate(
    x, params: Params, config: PipelineConfig, sigma: float | np.ndarray | None = None
) -> tuple[np.ndarray, dict]:
    """The prefix of the chain: input checks, the mixer, then the kernel
    or covariance aggregation; returns (aggregated matrix, prefix tape
    fields).  ``sigma`` overrides the kernel bandwidth, as in
    :func:`~spd_agg.kernel.kernel_forward`."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (3, 4):
        raise ShapeMismatchError(f"input must be (C, H, W) or (B, C, H, W), got shape {x.shape}")
    if x.shape[-3] != config.in_channels:
        raise ShapeMismatchError(
            f"input has {x.shape[-3]} channels, config expects {config.in_channels}"
        )
    _assert_finite("input feature tensor", x)
    feats, mix_tape = x, None
    if config.mixed_channels:
        feats, mix_tape = mix_forward(x, params.mix)
    if config.aggregator == "kernel":
        aggregate, kernel_tape = kernel_forward(feats, sigma=sigma)
    else:
        kernel_tape = None
        aggregate = covariance_forward(feats)
    _assert_finite("aggregated matrix", aggregate)
    return aggregate, dict(x=x, mix=mix_tape, agg_input=feats, kernel=kernel_tape)


#: Prefix tape fields of a training slice whose backward differentiates
#: nothing below the compression.
_NO_PREFIX = dict(x=None, mix=None, agg_input=None, kernel=None)


def _logits(
    aggregate: np.ndarray, params: Params, config: PipelineConfig
) -> tuple[np.ndarray, np.ndarray, dict]:
    """The suffix of the chain, from the aggregated matrix up to the
    classifier logits; returns (head vector, logits, tape fields)."""
    y, transform_tape = transform_forward(aggregate, params.transform)
    relu_mask = None
    if config.use_spd_relu:
        relu_mask = spd_relu_mask(y)
        y = spd_relu(y)
    _assert_finite("compressed matrix", y)

    v = vectorize(y)
    power_tape = None
    l2_tape = None
    if config.power_norm:
        v, power_tape = power_normalize(v)
    if config.l2_norm:
        v, l2_tape = l2_normalize(v)

    logits = dense_logits(v, params.head)
    _assert_finite("classifier logits", logits)
    return v, logits, dict(
        transform=transform_tape, relu_mask=relu_mask, power_tape=power_tape, l2_tape=l2_tape
    )


def _loss(
    aggregate: np.ndarray, prefix: dict, label, params: Params, config: PipelineConfig
) -> tuple[float | np.ndarray, int | np.ndarray, PipelineTapes]:
    """The suffix with the loss: (loss, argmax class, tapes), the tapes
    completed by the ``prefix`` fields."""
    v, logits, fields = _logits(aggregate, params, config)
    loss, dense_grads = dense_softmax_ce(v, logits, params.head, label)
    _assert_finite("loss", loss)
    tapes = PipelineTapes(**prefix, **fields, logits=logits, dense_grads=dense_grads)
    return loss, np.argmax(logits, axis=-1), tapes


def _classes(aggregate: np.ndarray, params: Params, config: PipelineConfig) -> np.ndarray:
    """Argmax class of each aggregated matrix: the suffix without a loss."""
    return np.argmax(_logits(aggregate, params, config)[1], axis=-1)


def forward(
    x, label: int | np.ndarray, params: Params, config: PipelineConfig
) -> tuple[float | np.ndarray, int | np.ndarray, PipelineTapes]:
    """Run the full chain for one sample; returns (loss, argmax class, tapes).

    A (B, C, H, W) stack of samples with B labels runs as one batch and
    returns per-sample losses and classes, and stacked tapes; each sample
    gets the bits it gets on its own.
    """
    aggregate, prefix = _aggregate(x, params, config)
    return _loss(aggregate, prefix, label, params, config)


def predict(x, params: Params, config: PipelineConfig) -> int | np.ndarray:
    """Argmax class for one sample, or per sample of a stack: the forward
    chain without a loss."""
    return _classes(_aggregate(x, params, config)[0], params, config)


def backward(tapes: PipelineTapes) -> dict[str, np.ndarray]:
    """Chain all layer adjoints back from the loss, for one sample or per
    sample of a stack.

    The tapes say which layers ran (a None tape: it did not) and which
    blocks to return, under the names of :func:`param_shapes`, in its
    order, then ``"input"``: below the compression only with
    ``agg_input``, the mixer blocks with ``mix`` as well, and ``"input"``
    with ``x`` as well.  ``"stiefel.w"`` is the raw Euclidean partial
    (what entrywise finite differences measure); :func:`train` projects
    the minibatch sum onto the tangent space once, as projection is linear.
    """
    dv = tapes.dense_grads.v
    if tapes.l2_tape is not None:
        dv = l2_normalize_backward(tapes.l2_tape, dv)
    if tapes.power_tape is not None:
        dv = power_normalize_backward(tapes.power_tape, dv)
    grad_y = vectorize_backward(dv, tapes.transform.w.cols)
    if tapes.relu_mask is not None:
        grad_y = grad_y * tapes.relu_mask

    grads = {}
    if tapes.agg_input is not None:
        grad_agg = transform_backward_input(tapes.transform, grad_y)
        if tapes.kernel is not None:
            grad_input = kernel_backward(tapes.kernel, grad_agg)
        else:
            grad_input = covariance_backward(tapes.agg_input, grad_agg)
        if tapes.mix is not None:
            grads["mix.weights"], grads["mix.bias"], grad_input = mix_backward(
                tapes.mix, grad_input, input=tapes.x is not None
            )

    grads["stiefel.w"] = transform_backward_param(tapes.transform, grad_y)
    grads["dense.weights"] = tapes.dense_grads.weights
    grads["dense.bias"] = tapes.dense_grads.bias
    if tapes.x is not None and tapes.agg_input is not None:
        grads["input"] = grad_input.reshape(tapes.x.shape)
    return grads


def _widest_array(config: PipelineConfig, positions: int, train_mix: bool = False) -> int:
    """Values per sample of the widest array a slice stacks at N =
    ``positions``: the input maps (C0 x N, widened from the stored samples
    one slice at a time), the aggregated maps (C x N), the aggregated
    matrix (C x C) and, in a stage that trains the mixer (``train_mix``),
    the mixer's weight gradient (C x C0), which ``mix_backward`` stacks
    per sample."""
    c0, c = config.in_channels, config.feature_channels
    arrays = [c0 * positions, c * positions, c * c]
    if train_mix:
        arrays.append(c * c0)
    return max(arrays)


def _slice_size(config: PipelineConfig, positions: int, train_mix: bool = False) -> int:
    """Samples per slice at N = ``positions``: as many as keep the widest
    per-sample array (:func:`_widest_array`) within :data:`SLICE_VALUES`,
    but at least four where four fit in ``4 * SLICE_VALUES`` (as many as
    fit where fewer do), and at least 1.  One paper-scale sample fills
    over a quarter of the budget, and one-sample slices pay every call of
    the chain per sample.  Each stack :func:`_widest_array` counts thus
    holds at most ``4 * SLICE_VALUES`` values, or one sample's where that
    is more."""
    widest = _widest_array(config, positions, train_mix)
    return max(1, SLICE_VALUES // widest, min(4, 4 * SLICE_VALUES // widest))


def _cache_fits(config: PipelineConfig, samples: np.ndarray) -> bool:
    """Whether :func:`train` may cache the aggregated matrices of the
    (n, C0, H, W) ``samples``: only when a C x C matrix holds no more
    values than the sample it comes from.  The matrices are float64, so
    the cache takes at most twice the bytes of float32 samples."""
    return config.feature_channels**2 <= math.prod(samples.shape[1:])


def _slices(n: int, step: int):
    """Consecutive slices of ``step`` samples out of ``n``."""
    return (slice(start, start + step) for start in range(0, n, step))


class _Workers:
    """Maps a function over independent items on up to :data:`WORKERS`
    threads, for the life of a ``with`` block.

    The calling thread and the pool threads take the items in order, each
    the next one not yet taken, so a thread that starts late or shares its
    CPU with another process takes fewer items and delays none.  A pool
    thread runs each item in a copy of the caller's context, so the
    caller's ``np.errstate`` holds there too.  numpy releases the
    interpreter lock in its products and large elementwise loops, which is
    where the threads overlap.  A map uses one thread per item, up to
    :data:`WORKERS`, so a map of one item runs on the caller alone, and a
    block without a larger one neither starts a thread nor imports
    ``concurrent.futures``.  The pool stops when the block exits.
    Entering a block pins the allocator (:func:`_pin_malloc_thresholds`).
    """

    def __init__(self):
        self._pool = None

    def __enter__(self) -> _Workers:
        _pin_malloc_thresholds()
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)

    def map(self, fn, items: list) -> list:
        """``[fn(item) for item in items]``.  Once an item raises, no thread
        takes another; after every thread has stopped, the error of the
        first item in order to raise is raised here."""
        threads = min(WORKERS, len(items))
        if threads > 1 and self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(WORKERS - 1)
        results: list = [None] * len(items)
        errors: dict[int, BaseException] = {}
        order = iter(range(len(items)))
        lock = threading.Lock()

        def drain(run) -> None:
            while not errors:
                with lock:
                    i = next(order, None)
                if i is None:
                    return
                try:
                    results[i] = run(items[i])
                except BaseException as e:
                    errors[i] = e

        context = contextvars.copy_context()
        pool_runs = [
            self._pool.submit(drain, lambda item: context.copy().run(fn, item))
            for _ in range(threads - 1)
        ]
        drain(fn)
        for run in pool_runs:
            run.result()
        if errors:
            raise errors[min(errors)]
        return results


def _located(run, ids, n: int, name: str, epoch: int | None):
    """``run(ids)`` for a slice or index array ``ids`` into a set of ``n``
    samples, called ``name``.  On a non-finite value, each sample of
    ``ids`` runs again on its own, as a one-sample stack through the same
    ``run``, and the error is raised as ``non-finite value at epoch
    <epoch>, <name> i: <layer>`` (without the epoch where it is None) for
    the first sample ``i`` that fails, with those three as its
    attributes.  It runs in the thread that runs the slice;
    :meth:`_Workers.map` raises the error of the earliest slice that
    fails, so the sample named is the first of the set that fails on its
    own."""
    try:
        return run(ids)
    except NonFiniteError:
        for i in np.arange(n)[ids]:
            try:
                run(slice(i, i + 1))
            except NonFiniteError as e:
                where = name if epoch is None else f"epoch {epoch}, {name}"
                raise NonFiniteError(
                    f"non-finite value at {where} {i}: {e}",
                    epoch=epoch, sample=int(i), layer=e.layer,
                ) from e
        raise


def integer_labels(labels, num_classes: int) -> np.ndarray:
    """``labels``, one per sample, as an int64 array.  Labels that are not
    1-D are refused with ``ShapeMismatchError``; a label that is not a
    whole number (0.7, NaN, infinity, or beyond int64), where a cast would
    truncate it silently, or that lies outside ``[0, num_classes)``, with
    ``ValueError`` naming it."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeMismatchError(f"labels must be one per sample (1-D), got shape {labels.shape}")
    with np.errstate(invalid="ignore"):
        ints = labels.astype(np.int64)
    if labels.dtype.kind not in "biu":
        bad = np.flatnonzero(ints != labels)
        if bad.size:
            label = labels[bad[0]].item()
            raise ValueError(f"label {label!r} at position {bad[0]} is not an integer")
    if ints.size and (ints.min() < 0 or ints.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range [{ints.min()}, {ints.max()}]"
        )
    return ints


def _check_set(samples: np.ndarray, labels, config: PipelineConfig, name: str) -> np.ndarray:
    """The labels of the (n, C, H, W) ``samples`` of the set called
    ``name``, through :func:`integer_labels`; run before any slice.
    Samples that are not 4-D, or whose channel count is not the config's,
    are refused with ``ShapeMismatchError``; a label count other than n,
    or an empty set, with ``ValueError``."""
    if samples.ndim != 4:
        raise ShapeMismatchError(f"samples must be (n, C, H, W), got shape {samples.shape}")
    if samples.shape[1] != config.in_channels:
        raise ShapeMismatchError(
            f"{name} set has {samples.shape[1]} channels, config expects {config.in_channels}"
        )
    labels = integer_labels(labels, config.num_classes)
    if len(labels) != len(samples):
        raise ValueError(f"got {len(labels)} labels for {len(samples)} samples")
    if len(samples) == 0:
        raise ValueError("dataset is empty")
    return labels


def _accuracy(
    classes, labels: np.ndarray, step: int, workers: _Workers, name: str, epoch: int | None
) -> float:
    """Fraction of ``labels`` matched by ``classes(ids)``, taken over
    slices of ``step`` samples run by ``workers`` and counted in dataset
    order; a non-finite value is located by :func:`_located`."""
    n = len(labels)
    slices = list(_slices(n, step))
    found = workers.map(lambda ids: _located(classes, ids, n, name, epoch), slices)
    return sum(int((pred == labels[ids]).sum()) for ids, pred in zip(slices, found)) / n


def evaluate_accuracy(samples, labels, params: Params, config: PipelineConfig) -> float:
    """Fraction of correct argmax predictions over (n, C, H, W) samples,
    predicted in slices of stacked samples on up to :data:`WORKERS`
    threads and counted in dataset order.  A non-finite value names the
    first sample, in dataset order, that fails on its own, and the
    layer.  The set is checked by :func:`_check_set`, as the
    ``evaluation`` set, before any slice runs.  Each slice is widened to
    float64 on its own, so float32 samples are never copied whole."""
    samples = np.asarray(samples)
    labels = _check_set(samples, labels, config, "evaluation")
    step = _slice_size(config, samples.shape[-2] * samples.shape[-1])
    with _Workers() as workers:
        return _accuracy(
            lambda ids: predict(samples[ids], params, config), labels, step, workers, "sample", None
        )


def _ordered_sum(total: np.ndarray | None, stack: np.ndarray) -> np.ndarray:
    """``total + stack[0] + stack[1] + ...`` from left to right, or
    ``stack[0] + stack[1] + ...`` without a total: starting from the first
    sample, not from zeros, keeps signed zeros.  numpy reduces an axis
    that is not the fast one in memory one term after another, and every
    gradient block keeps its sample axis outermost; a block of one value
    makes the sample axis the fast one, where numpy pairs the terms up,
    so it goes through a sequential ``np.cumsum``."""
    if total is not None:
        # The total takes the first row and the last sample is added after
        # the rest, so no array outgrows the slice's own stack.
        return _ordered_sum(None, np.concatenate([total[None], stack[:-1]])) + stack[-1]
    if stack[0].size < 2:
        return np.cumsum(stack, axis=0)[-1]
    return np.add.reduce(stack, axis=0, initial=None)


@dataclass
class _TrainState:
    """Everything that decides the rest of a :func:`train` run.
    :func:`_epoch` updates it in place, so a deep copy taken between two
    epochs finishes the run with the bits of the run it was taken from."""

    params: Params
    rng: np.random.Generator
    epoch: int = 0  # epochs run
    decay: float = 1.0  # what the stage's rate is divided by
    best_loss: float = math.inf  # the stage's best epoch mean loss
    bad_epochs: int = 0  # plateau epochs in a row
    # Per sample of each set while the prefix is frozen: the aggregated
    # matrix where it fits, else the kernel bandwidth.  None when no
    # record is kept.
    frozen: list[np.ndarray] | None = None


def train(
    dataset,
    pipeline: PipelineConfig,
    tc: TrainConfig,
    test_dataset=None,
) -> tuple[Params, list[MetricsRecord]]:
    """Two-stage SGD over the pipeline; returns final params and metrics.

    ``dataset`` and the optional ``test_dataset`` are
    :class:`~spd_agg.data.FtsDataset` objects, which :func:`_check_set`
    checks, as the ``training`` and ``held-out`` sets, before any slice
    runs.  The run is ``2 * epochs_per_stage`` calls of :func:`_epoch`
    on one :class:`_TrainState`.  Stage 1 trains the new layers with the
    channel mixer frozen; stage 2 trains everything.  The learning rate
    of a stage, used by the Euclidean and the manifold steps alike, is
    divided by ``DECAY_FACTOR`` whenever the epoch mean training loss
    fails to improve by ``MIN_LOSS_DELTA`` for ``PLATEAU_PATIENCE``
    consecutive epochs.  Batch gradients are ordered sums over the batch
    divided by the batch size; every random choice comes from the seeded
    generator, so runs are reproducible bit-for-bit.

    While a stage does not train the mixer, each sample's aggregated
    matrix is a constant, and so is its kernel bandwidth.  The first
    such epoch aggregates in its own training and held-out slices, as
    any epoch does, and records each sample's matrix where the matrices
    fit (:func:`_cache_fits`), else, for the kernel, its bandwidth (one
    float64 per sample).  Each epoch visits every sample once, so later
    epochs start every slice from the recorded matrices, or aggregate
    with the recorded bandwidths.  Whether an epoch records, reads or
    keeps no record is fixed when it starts.  A stage that trains the
    mixer drops the records, and is the only one whose :func:`backward`
    starts below the compression; its slices keep the prefix tapes,
    without ``x``.

    A training slice holds at most the batch size, and in a stage that
    trains the mixer :func:`_slice_size` counts its weight gradient too.
    The slices of one minibatch, and of one held-out evaluation, run on
    up to :data:`WORKERS` threads (:class:`_Workers`).  The calling thread
    takes their losses, correct counts and gradient sums in sample order,
    so the worker count changes no bit.

    Every slice, training and held-out, reports a non-finite value
    through :func:`_located`, naming the epoch, the sample and the
    layer; where two slices fail, the earlier one's sample is named.  A
    non-finite epoch mean loss names the epoch.
    """
    sets = [dataset] if test_dataset is None else [dataset, test_dataset]
    for ds, name in zip(sets, ("training", "held-out")):
        _check_set(ds.samples, ds.labels, pipeline, name)
    rng = seeded_rng(tc.seed)
    state = _TrainState(init_params(pipeline, rng), rng)
    with _Workers() as workers:
        history = [
            _epoch(state, sets, pipeline, tc, workers) for _ in range(2 * tc.epochs_per_stage)
        ]
    return state.params, history


def _epoch(
    state: _TrainState, sets: list, pipeline: PipelineConfig, tc: TrainConfig, workers: _Workers
) -> MetricsRecord:
    """The next epoch of :func:`train` over ``sets`` (the training set,
    then the held-out set if there is one); updates ``state`` in place
    and returns the epoch's metrics.  The stage, its rate and the start
    of its plateau schedule follow from ``state.epoch``."""
    t0 = time.perf_counter()
    stage = 1 + state.epoch // tc.epochs_per_stage
    if state.epoch % tc.epochs_per_stage == 0:
        state.decay, state.best_loss, state.bad_epochs = 1.0, math.inf, 0
    state.epoch += 1
    train_mix = state.params.mix is not None and stage == 2
    if train_mix:
        state.frozen = None
    # The frozen-prefix mode of the epoch: it records, it reads the
    # record, or there is no record.
    fits = all(_cache_fits(pipeline, ds.samples) for ds in sets)
    recording = state.frozen is None and not train_mix and (fits or pipeline.aggregator == "kernel")
    if recording:
        shape = (pipeline.feature_channels,) * 2 if fits else ()
        state.frozen = [np.empty((len(ds),) + shape) for ds in sets]
    reads = None if recording else state.frozen

    def aggregated(which: int, ids) -> tuple[np.ndarray, dict]:
        """Aggregated matrices of set ``which`` at ``ids``, and the prefix
        tapes the stage's backward reads."""
        if reads is not None and fits:
            return reads[which][ids], _NO_PREFIX
        sigma = None if reads is None else reads[which][ids]
        aggregate, prefix = _aggregate(sets[which].samples[ids], state.params, pipeline, sigma)
        if recording:
            state.frozen[which][ids] = aggregate if fits else prefix["kernel"].sigma
        return aggregate, {**prefix, "x": None} if train_mix else _NO_PREFIX

    labels = sets[0].labels
    n = len(labels)

    def train_slice(ids) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """Losses, argmax classes and gradient blocks of training samples
        ``ids``."""
        loss, pred, tapes = _located(
            lambda j: _loss(*aggregated(0, j), labels[j], state.params, pipeline),
            ids, n, "sample", state.epoch,
        )
        return loss, pred, backward(tapes)

    lr = (tc.lr_stage1 if stage == 1 else tc.lr_stage2) / state.decay
    step = min(tc.batch_size, _slice_size(pipeline, math.prod(sets[0].shape[1:]), train_mix))
    order = state.rng.permutation(n)
    losses: list[float] = []
    correct = 0
    max_orth = state.params.transform.orthogonality_error()

    for batch_no, span in enumerate(_slices(n, tc.batch_size), 1):
        batch = order[span]
        # Parameters are fixed within a minibatch, so its slices of
        # stacked samples run at once; their losses, counts and blocks
        # are reduced here, in sample order.
        parts = [batch[s] for s in _slices(len(batch), step)]
        total: dict[str, np.ndarray] = {}
        for ids, (loss, pred, grads) in zip(parts, workers.map(train_slice, parts)):
            losses.extend(loss.tolist())
            correct += int((pred == labels[ids]).sum())
            total = {k: _ordered_sum(total.get(k), g) for k, g in grads.items()}
        scale = 1.0 / len(batch)

        # W takes the manifold step, every other block the Euclidean one.
        blocks = state.params.blocks()
        for name, grad in total.items():
            if name != "stiefel.w":
                if lr != 0.0:
                    blocks[name] = blocks[name] - lr * (grad * scale)
            elif not tc.freeze_stiefel:
                try:
                    tangent = tangent_project(state.params.transform, grad * scale)
                    blocks[name] = retract_step(state.params.transform, tangent, lr).w
                except (NonFiniteError, SingularMatrixError) as e:
                    failed = f"retraction failed at epoch {state.epoch}, batch {batch_no}: {e}"
                    if isinstance(e, NonFiniteError):
                        raise NonFiniteError(failed, epoch=state.epoch) from e
                    raise SingularMatrixError(failed) from e
        state.params = Params.from_blocks(blocks)
        max_orth = max(max_orth, state.params.transform.orthogonality_error())

    # np.cumsum adds in sample order on every Python version (sum()
    # compensates from Python 3.12 on).
    epoch_loss = float(np.cumsum(losses)[-1]) / n
    if not math.isfinite(epoch_loss):
        raise NonFiniteError(
            f"non-finite mean training loss at epoch {state.epoch}", epoch=state.epoch
        )
    if epoch_loss <= state.best_loss - MIN_LOSS_DELTA:
        state.best_loss = epoch_loss
        state.bad_epochs = 0
    else:
        state.bad_epochs += 1
        if state.bad_epochs >= PLATEAU_PATIENCE:
            state.decay *= DECAY_FACTOR
            state.bad_epochs = 0

    test_acc = None
    if len(sets) > 1:
        test_acc = _accuracy(
            lambda ids: _classes(aggregated(1, ids)[0], state.params, pipeline),
            sets[1].labels,
            _slice_size(pipeline, math.prod(sets[1].shape[1:])),
            workers,
            "held-out sample",
            state.epoch,
        )
    return MetricsRecord(
        epoch=state.epoch,
        stage=stage,
        mean_train_loss=epoch_loss,
        train_accuracy=correct / n,
        test_accuracy=test_acc,
        lr=lr,
        stiefel_orthogonality_error=max_orth,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )


@dataclass
class GradCheckReport:
    """Per-block max relative error of analytic vs central-difference
    gradients; a block passes iff its max error is below the tolerance."""

    tolerance: float
    max_rel_err: dict[str, float] = field(default_factory=dict)
    block_pass: dict[str, bool] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(self.block_pass.values())

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "all_passed": self.all_passed})


#: Central-difference step for all gradient checks.
FD_STEP = 1e-5

#: grad_check refuses configurations above this many parameters (the
#: check is O(parameters) full forward passes).
GRADCHECK_PARAM_CAP = 5000


def gradcheck_instance(pipeline: PipelineConfig, seed: int) -> tuple[np.ndarray, int, Params]:
    """The (input, label, params) triple :func:`grad_check` derives from a
    seed; the input is one sample of 3 x 3 maps.  The dense head is drawn
    at random after :func:`init_params`: a zero head would zero every
    upstream gradient and make the check vacuous."""
    rng = seeded_rng(seed)
    x = rng.standard_normal((pipeline.in_channels, 3, 3))
    label = int(rng.integers(pipeline.num_classes))
    params = init_params(pipeline, rng)
    params.head = DenseParams(
        weights=0.5 * rng.standard_normal(params.head.weights.shape),
        bias=0.1 * rng.standard_normal(params.head.bias.shape),
    )
    return x, label, params


def grad_check(
    pipeline: PipelineConfig, seed: int = 0, tolerance: float = 1e-5
) -> GradCheckReport:
    """Compare every analytic gradient block against central differences.

    One random sample and randomly initialized parameters are drawn from
    ``seed``; the kernel bandwidth is frozen at its baseline value so the
    probe differentiates exactly the path the analytic backward covers.
    Relative error uses the denominator max(1, |analytic|).
    """
    n_params = sum(math.prod(shape) for shape in param_shapes(pipeline).values())
    if n_params > GRADCHECK_PARAM_CAP:
        raise ValueError(
            f"configuration has {n_params} parameters; the finite-difference "
            f"check is capped at {GRADCHECK_PARAM_CAP}"
        )

    x, label, params = gradcheck_instance(pipeline, seed)

    _, _, tapes = forward(x, label, params, pipeline)
    frozen = tapes.kernel.sigma if tapes.kernel is not None else None
    analytic = backward(tapes)

    def loss() -> float:
        return _loss(*_aggregate(x, params, pipeline, frozen), label, params, pipeline)[0]

    report = GradCheckReport(tolerance=tolerance)
    # The arrays themselves: perturbing an entry perturbs the forward.
    for name, value in (params.blocks() | {"input": x}).items():
        numeric = np.zeros_like(value)
        flat = value.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = loss()
            flat[i] = orig - FD_STEP
            down = loss()
            flat[i] = orig
            num_flat[i] = (up - down) / (2.0 * FD_STEP)
        grad = analytic[name]
        rel = np.abs(grad - numeric) / np.maximum(1.0, np.abs(grad))
        worst = float(rel.max()) if rel.size else 0.0
        report.max_rel_err[name] = worst
        report.block_pass[name] = bool(worst < tolerance)
    return report
