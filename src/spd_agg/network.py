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
``theta -= lr * grad``.  The loop is single-threaded and consumes
randomness only from one seeded generator, so one (seed, config,
dataset) triple yields one bit-exact run.
Training and evaluation run the chain on slices of stacked samples (see
:data:`SLICE_VALUES`); a slice gives each sample exactly the bits it gets
on its own.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

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

#: Float64 values (256 KiB) the widest per-sample array of a slice may
#: hold across the slice: the input maps (C0 x N), the aggregated maps
#: (C x N) or the aggregated matrix (C x C).  Larger slices stop paying
#: once a layer's stack leaves the cache, and they raise peak memory.
SLICE_VALUES = 32_768


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
        if self.aggregator not in ("kernel", "covariance"):
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
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        if self.lr_stage1 < 0 or self.lr_stage2 < 0:
            raise ValueError("learning rates must be >= 0")
        if self.batch_size < 1 or self.epochs_per_stage < 0:
            raise ValueError("batch size must be >= 1, epochs >= 0")


@dataclass
class MixParams:
    """1x1 convolution = per-position channel mixing."""

    weights: np.ndarray  # (mixed_channels, in_channels)
    bias: np.ndarray  # (mixed_channels,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ShapeMismatchError(
                f"mixer shapes inconsistent: weights {self.weights.shape}, bias {self.bias.shape}"
            )


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
        return json.dumps(
            {
                "epoch": self.epoch,
                "stage": self.stage,
                "mean_train_loss": self.mean_train_loss,
                "train_accuracy": self.train_accuracy,
                "test_accuracy": self.test_accuracy,
                "lr": self.lr,
                "stiefel_orthogonality_error": self.stiefel_orthogonality_error,
            },
            allow_nan=False,
        )


def _assert_finite(name: str, arr) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values first appeared in: {name}")


def init_params(
    config: PipelineConfig, rng: np.random.Generator, random_head: bool = False
) -> Params:
    """Draw initial parameters from ``rng`` (order of draws is fixed).

    The dense head starts at zero — its gradient does not suffer from
    symmetric-initialization stalls — except for gradient checking, where
    a zero head would zero out every upstream gradient and make the check
    vacuous (``random_head=True``).
    """
    mix = None
    if config.mixed_channels:
        mix = MixParams(
            weights=rng.standard_normal((config.mixed_channels, config.in_channels))
            / math.sqrt(config.in_channels),
            bias=np.zeros(config.mixed_channels),
        )
    transform = stiefel_init(config.feature_channels, config.transform_dim, rng)
    if random_head:
        head = DenseParams(
            weights=0.5 * rng.standard_normal((config.num_classes, config.head_dim)),
            bias=0.1 * rng.standard_normal(config.num_classes),
        )
    else:
        head = DenseParams(
            weights=np.zeros((config.num_classes, config.head_dim)),
            bias=np.zeros(config.num_classes),
        )
    return Params(mix=mix, transform=transform, head=head)


def mix_forward(x, params: MixParams) -> tuple[np.ndarray, MixTape]:
    """Per-position channel mixing followed by ReLU, for one (C, H, W)
    sample or a (B, C, H, W) stack.

    out[:, p] = max(0, W x[:, p] + b) at every spatial position p.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (3, 4):
        raise ShapeMismatchError(
            f"mixer input must be (C, H, W) or (B, C, H, W), got shape {x.shape}"
        )
    c0, h, w = x.shape[-3:]
    if c0 != params.weights.shape[1]:
        raise ShapeMismatchError(
            f"input has {c0} channels but mixer expects {params.weights.shape[1]}"
        )
    m0 = x.reshape(x.shape[:-2] + (h * w,))
    pre = matmul(params.weights, m0) + params.bias[:, None]
    out = np.maximum(pre, 0.0)
    tape = MixTape(m0=m0, pre=pre, weights=params.weights)
    return out.reshape(pre.shape[:-1] + (h, w)), tape


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
    x, params: Params, config: PipelineConfig, frozen_sigma: float | np.ndarray | None = None
) -> tuple[np.ndarray, dict]:
    """The prefix of the chain: input checks, the mixer, then the kernel
    or covariance aggregation; returns (aggregated matrix, prefix tape
    fields)."""
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
        aggregate, kernel_tape = kernel_forward(feats, sigma=frozen_sigma)
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
    x,
    label: int | np.ndarray,
    params: Params,
    config: PipelineConfig,
    frozen_sigma: float | np.ndarray | None = None,
) -> tuple[float | np.ndarray, int | np.ndarray, PipelineTapes]:
    """Run the full chain for one sample; returns (loss, argmax class, tapes).

    A (B, C, H, W) stack of samples with B labels runs as one batch and
    returns per-sample losses and classes, and stacked tapes; each sample
    gets the bits it gets on its own.  ``frozen_sigma`` pins the kernel
    bandwidth to a reference value so finite-difference probes measure
    only the differentiated path.
    """
    aggregate, prefix = _aggregate(x, params, config, frozen_sigma)
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


def _slice_size(config: PipelineConfig, positions: int) -> int:
    """Samples per slice at N = ``positions``: as many as keep the widest
    per-sample array of the chain within :data:`SLICE_VALUES`, at least 1."""
    c0, c = config.in_channels, config.feature_channels
    return max(1, SLICE_VALUES // max(c0 * positions, c * positions, c * c))


def _cache_fits(config: PipelineConfig, samples: np.ndarray) -> bool:
    """Whether :func:`train` may cache the aggregated matrices of the
    (n, C0, H, W) ``samples``: only when a C x C matrix holds no more
    float64 values than the sample it comes from."""
    return config.feature_channels**2 <= math.prod(samples.shape[1:])


def _slices(n: int, step: int):
    """Consecutive slices of ``step`` samples out of ``n``."""
    return (slice(start, start + step) for start in range(0, n, step))


def _located(run, ids, n: int, where: str):
    """``run(ids)`` for a slice or index array ``ids`` into a set of ``n``
    samples.  On a non-finite value, each sample of ``ids`` runs again on
    its own, as a one-sample stack through the same ``run``, and the error
    is raised as ``non-finite value at <where> i: <layer>`` for the first
    sample ``i`` that fails."""
    try:
        return run(ids)
    except NonFiniteError:
        for i in np.arange(n)[ids]:
            try:
                run(slice(i, i + 1))
            except NonFiniteError as e:
                raise NonFiniteError(f"non-finite value at {where} {i}: {e}") from e
        raise


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    """Refuse an empty set, or a label outside ``[0, num_classes)``."""
    if len(labels) == 0:
        raise ValueError("dataset is empty")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range [{labels.min()}, {labels.max()}]"
        )


def _accuracy(classes, labels: np.ndarray, step: int, where: str) -> float:
    """Fraction of ``labels`` matched by ``classes(ids)``, taken over
    slices of ``step`` samples in dataset order; a non-finite value is
    located by :func:`_located`."""
    n = len(labels)
    correct = sum(
        int((_located(classes, ids, n, where) == labels[ids]).sum()) for ids in _slices(n, step)
    )
    return correct / n


def evaluate_accuracy(samples, labels, params: Params, config: PipelineConfig) -> float:
    """Fraction of correct argmax predictions over (n, C, H, W) samples,
    predicted in slices of stacked samples, in dataset order.  A
    non-finite value names the sample and the layer.  Samples that are
    not 4-D are refused with ``ShapeMismatchError``; an empty set, a
    label count other than the sample count, or a label outside
    ``[0, num_classes)`` with ``ValueError``."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 4:
        raise ShapeMismatchError(f"samples must be (n, C, H, W), got shape {samples.shape}")
    labels = np.asarray(labels)
    if len(labels) != len(samples):
        raise ValueError(f"got {len(labels)} labels for {len(samples)} samples")
    _check_labels(labels, config.num_classes)
    step = _slice_size(config, samples.shape[-2] * samples.shape[-1])
    return _accuracy(
        lambda ids: predict(samples[ids], params, config), labels, step, "sample"
    )


def _ordered_sum(total: np.ndarray | None, stack: np.ndarray) -> np.ndarray:
    """``total + stack[0] + stack[1] + ...`` from left to right, or
    ``stack[0] + stack[1] + ...`` without a total: starting from the first
    sample, not from zeros, keeps signed zeros.  ``np.cumsum`` adds in
    order; ``np.sum`` over the sample axis would pair the terms up."""
    if total is not None:
        stack = np.concatenate([total[None], stack])
    return np.cumsum(stack, axis=0)[-1]


def train(
    dataset,
    pipeline: PipelineConfig,
    tc: TrainConfig,
    test_dataset=None,
) -> tuple[Params, list[MetricsRecord]]:
    """Two-stage SGD over the pipeline; returns final params and metrics.

    ``dataset`` and the optional ``test_dataset`` are
    :class:`~spd_agg.data.FtsDataset` objects, neither empty, with labels
    in ``[0, num_classes)``.  Stage 1 trains the new layers with the
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
    with the recorded bandwidths.  A stage that trains the mixer drops
    the records, and is the only one whose :func:`backward` starts below
    the compression; its slices keep the prefix tapes, without ``x``.

    Every slice, training and held-out, reports a non-finite value
    through :func:`_located`, naming the epoch, the sample and the
    layer; a non-finite epoch mean loss names the epoch.
    """
    sets = [dataset] if test_dataset is None else [dataset, test_dataset]
    for ds in sets:
        _check_labels(ds.labels, pipeline.num_classes)
    labels = dataset.labels
    n = len(labels)
    names = ("sample", "held-out sample")
    steps = [_slice_size(pipeline, ds.shape[1] * ds.shape[2]) for ds in sets]
    step = min(tc.batch_size, steps[0])
    fits = all(_cache_fits(pipeline, ds.samples) for ds in sets)
    # Per sample of each set while the prefix is frozen: the aggregated
    # matrix where it fits, else the kernel bandwidth.  The first epoch of
    # a frozen stage records them from its own slices; later epochs read
    # them.
    frozen: list[np.ndarray] | None = None
    recording = False

    rng = seeded_rng(tc.seed)
    params = init_params(pipeline, rng)
    history: list[MetricsRecord] = []
    global_epoch = 0

    def aggregated(which: int, ids) -> tuple[np.ndarray, dict]:
        """Aggregated matrices of set ``which`` at ``ids``, and the prefix
        tapes the stage's backward reads."""
        cached = frozen is not None and not recording
        if cached and fits:
            return frozen[which][ids], _NO_PREFIX
        sigma = frozen[which][ids] if cached else None
        aggregate, prefix = _aggregate(sets[which].samples[ids], params, pipeline, sigma)
        if recording:
            frozen[which][ids] = aggregate if fits else prefix["kernel"].sigma
        return aggregate, {**prefix, "x": None} if train_mix else _NO_PREFIX

    def where(which: int) -> str:
        return f"epoch {global_epoch}, {names[which]}"

    for stage in (1, 2):
        base_lr = tc.lr_stage1 if stage == 1 else tc.lr_stage2
        decay_mult = 1.0
        best_loss = math.inf
        bad_epochs = 0
        train_mix = params.mix is not None and stage == 2
        if train_mix:
            frozen = None

        for _ in range(tc.epochs_per_stage):
            t0 = time.perf_counter()
            global_epoch += 1
            recording = (
                frozen is None and not train_mix and (fits or pipeline.aggregator == "kernel")
            )
            if recording:
                shape = (pipeline.feature_channels,) * 2 if fits else ()
                frozen = [np.empty((len(ds),) + shape) for ds in sets]
            lr = base_lr / decay_mult
            order = rng.permutation(n)
            losses: list[float] = []
            correct = 0
            max_orth = params.transform.orthogonality_error()

            for batch_no, start in enumerate(range(0, n, tc.batch_size), 1):
                batch = order[start : start + tc.batch_size]
                # Parameters are fixed within a minibatch, so it runs in
                # slices of stacked samples; its blocks are summed in
                # sample order.
                total: dict[str, np.ndarray] = {}
                for s in range(0, len(batch), step):
                    ids = batch[s : s + step]
                    loss, pred, tapes = _located(
                        lambda j: _loss(*aggregated(0, j), labels[j], params, pipeline),
                        ids,
                        n,
                        where(0),
                    )
                    grads = backward(tapes)
                    losses.extend(loss.tolist())
                    correct += int((pred == labels[ids]).sum())
                    total = {k: _ordered_sum(total.get(k), g) for k, g in grads.items()}
                scale = 1.0 / len(batch)

                # W takes the manifold step, every other block the
                # Euclidean one.
                blocks = params.blocks()
                for name, grad in total.items():
                    if name != "stiefel.w":
                        if lr != 0.0:
                            blocks[name] = blocks[name] - lr * (grad * scale)
                    elif not tc.freeze_stiefel:
                        try:
                            tangent = tangent_project(params.transform, grad * scale)
                            blocks[name] = retract_step(params.transform, tangent, lr).w
                        except SingularMatrixError as e:
                            raise SingularMatrixError(
                                f"retraction failed at epoch {global_epoch}, batch {batch_no}: {e}"
                            ) from e
                params = Params.from_blocks(blocks)
                max_orth = max(max_orth, params.transform.orthogonality_error())

            # np.cumsum adds in sample order on every Python version
            # (sum() compensates from Python 3.12 on).
            epoch_loss = float(np.cumsum(losses)[-1]) / n
            if not math.isfinite(epoch_loss):
                raise NonFiniteError(f"non-finite mean training loss at epoch {global_epoch}")
            if epoch_loss <= best_loss - MIN_LOSS_DELTA:
                best_loss = epoch_loss
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= PLATEAU_PATIENCE:
                    decay_mult *= DECAY_FACTOR
                    bad_epochs = 0

            test_acc = None
            if len(sets) > 1:
                test_acc = _accuracy(
                    lambda ids: _classes(aggregated(1, ids)[0], params, pipeline),
                    sets[1].labels,
                    steps[1],
                    where(1),
                )
            history.append(
                MetricsRecord(
                    epoch=global_epoch,
                    stage=stage,
                    mean_train_loss=epoch_loss,
                    train_accuracy=correct / n,
                    test_accuracy=test_acc,
                    lr=lr,
                    stiefel_orthogonality_error=max_orth,
                    wall_ms=(time.perf_counter() - t0) * 1000.0,
                )
            )
    return params, history


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
        return json.dumps(
            {
                "tolerance": self.tolerance,
                "max_rel_err": self.max_rel_err,
                "block_pass": self.block_pass,
                "all_passed": self.all_passed,
            }
        )


#: Central-difference step for all gradient checks.
FD_STEP = 1e-5

#: grad_check refuses configurations above this many parameters (the
#: check is O(parameters) full forward passes).
GRADCHECK_PARAM_CAP = 5000


def gradcheck_instance(pipeline: PipelineConfig, seed: int) -> tuple[np.ndarray, int, Params]:
    """The (input, label, params) triple :func:`grad_check` derives from a
    seed; the input is one sample of 3 x 3 maps."""
    rng = seeded_rng(seed)
    x = rng.standard_normal((pipeline.in_channels, 3, 3))
    label = int(rng.integers(pipeline.num_classes))
    return x, label, init_params(pipeline, rng, random_head=True)


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

    def loss_with(p: Params, xs: np.ndarray) -> float:
        return forward(xs, label, p, pipeline, frozen_sigma=frozen)[0]

    report = GradCheckReport(tolerance=tolerance)
    # The arrays themselves: perturbing an entry perturbs the forward.
    for name, value in (params.blocks() | {"input": x}).items():
        numeric = np.zeros_like(value)
        flat = value.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = loss_with(params, x)
            flat[i] = orig - FD_STEP
            down = loss_with(params, x)
            flat[i] = orig
            num_flat[i] = (up - down) / (2.0 * FD_STEP)
        grad = analytic[name]
        rel = np.abs(grad - numeric) / np.maximum(1.0, np.abs(grad))
        worst = float(rel.max()) if rel.size else 0.0
        report.max_rel_err[name] = worst
        report.block_pass[name] = bool(worst < tolerance)
    return report
