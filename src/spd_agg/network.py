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
    "NormFlags",
    "PipelineConfig",
    "TrainConfig",
    "MixParams",
    "Params",
    "Grads",
    "MetricsRecord",
    "GradCheckReport",
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

#: Epoch-loss improvement below this counts as a plateau epoch.
MIN_LOSS_DELTA = 1e-4

#: Float64 values (256 KiB) the widest per-sample array of a slice may
#: hold across the slice: the input maps (C0 x N), the aggregated maps
#: (C x N) or the aggregated matrix (C x C).  Larger slices stop paying
#: once a layer's stack leaves the cache, and they raise peak memory.
SLICE_VALUES = 32_768


@dataclass(frozen=True)
class NormFlags:
    power: bool = True
    l2: bool = True


@dataclass(frozen=True)
class PipelineConfig:
    """Architecture knobs.  ``mixed_channels = 0`` skips the 1x1 mixer."""

    in_channels: int
    mixed_channels: int
    transform_dim: int
    num_classes: int
    use_spd_relu: bool = False
    aggregator: str = "kernel"
    normalizations: NormFlags = NormFlags()

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
    """Optimization knobs.  ``lr_stiefel = None`` tracks the Euclidean rate.

    ``freeze_stiefel`` keeps the randomly initialized compression fixed
    (the no-learning ablation); ``train_mix_in_stage1`` overrides the
    default stage-1 freeze of the channel mixer.
    """

    lr_stage1: float = 0.1
    lr_stage2: float = 0.001
    lr_stiefel: float | None = None
    decay_factor: float = 10.0
    plateau_patience: int = 3
    batch_size: int = 32
    epochs_per_stage: int = 15
    seed: int = 0
    freeze_stiefel: bool = False
    train_mix_in_stage1: bool = False

    def __post_init__(self):
        if self.lr_stage1 < 0 or self.lr_stage2 < 0:
            raise ValueError("learning rates must be >= 0")
        if self.lr_stiefel is not None and self.lr_stiefel < 0:
            raise ValueError("lr_stiefel must be >= 0 when given")
        if self.decay_factor <= 1.0:
            raise ValueError("decay_factor must exceed 1")
        if self.plateau_patience < 1 or self.batch_size < 1 or self.epochs_per_stage < 0:
            raise ValueError("patience and batch size must be >= 1, epochs >= 0")


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


@dataclass
class Params:
    mix: MixParams | None
    transform: StiefelPoint
    head: DenseParams


@dataclass(frozen=True)
class MixTape:
    """Arrays of one sample, or of a stack along a leading axis."""

    m0: np.ndarray  # (in_channels, N) input maps
    pre: np.ndarray  # (mixed_channels, N) pre-activation
    weights: np.ndarray  # the weights the forward used


@dataclass(frozen=True)
class PipelineTapes:
    """Forward caches of one sample, or of a stack along a leading axis."""

    x: np.ndarray
    mix: MixTape | None
    agg_input: np.ndarray  # (C, H, W) maps entering aggregation
    kernel: KernelTape | None  # None for the covariance aggregator
    transform: TransformTape  # .k is the (C, C) aggregated matrix
    relu_mask: np.ndarray | None
    power_tape: np.ndarray | None
    l2_tape: L2Tape | None
    logits: np.ndarray
    dense_grads: DenseGrads


@dataclass
class Grads:
    """Gradient blocks of one sample, or per sample of a stack.  ``None``
    marks a block :func:`backward` was asked to skip (or no mixer).
    ``stiefel_euclid`` is the Euclidean partial in W, not projected onto
    the tangent space."""

    mix_weights: np.ndarray | None
    mix_bias: np.ndarray | None
    stiefel_euclid: np.ndarray
    dense_weights: np.ndarray
    dense_bias: np.ndarray
    input: np.ndarray | None


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
            }
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


def _logits(
    x, params: Params, config: PipelineConfig, frozen_sigma: float | None = None
) -> tuple[np.ndarray, np.ndarray, dict]:
    """The chain :func:`forward` and :func:`predict` share, up to the
    classifier logits; returns (head vector, logits, tape fields)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (3, 4):
        raise ShapeMismatchError(f"input must be (C, H, W) or (B, C, H, W), got shape {x.shape}")
    if x.shape[-3] != config.in_channels:
        raise ShapeMismatchError(
            f"input has {x.shape[-3]} channels, config expects {config.in_channels}"
        )
    _assert_finite("input feature tensor", x)

    mix_tape = None
    feats = x
    if config.mixed_channels:
        feats, mix_tape = mix_forward(x, params.mix)
        _assert_finite("mixed feature tensor", feats)

    if config.aggregator == "kernel":
        aggregate, kernel_tape = kernel_forward(feats, sigma=frozen_sigma)
    else:
        kernel_tape = None
        aggregate = covariance_forward(feats)
    _assert_finite("aggregated matrix", aggregate)

    y, transform_tape = transform_forward(aggregate, params.transform)
    relu_mask = None
    if config.use_spd_relu:
        relu_mask = spd_relu_mask(y)
        y = spd_relu(y)
    _assert_finite("compressed matrix", y)

    v = vectorize(y)
    power_tape = None
    l2_tape = None
    if config.normalizations.power:
        v, power_tape = power_normalize(v)
    if config.normalizations.l2:
        v, l2_tape = l2_normalize(v)
    _assert_finite("head vector", v)

    logits = dense_logits(v, params.head)
    _assert_finite("classifier logits", logits)
    return v, logits, dict(
        x=x,
        mix=mix_tape,
        agg_input=feats,
        kernel=kernel_tape,
        transform=transform_tape,
        relu_mask=relu_mask,
        power_tape=power_tape,
        l2_tape=l2_tape,
    )


def forward(
    x,
    label: int | np.ndarray,
    params: Params,
    config: PipelineConfig,
    frozen_sigma: float | None = None,
) -> tuple[float | np.ndarray, int | np.ndarray, PipelineTapes]:
    """Run the full chain for one sample; returns (loss, argmax class, tapes).

    A (B, C, H, W) stack of samples with B labels runs as one batch and
    returns per-sample losses and classes, and stacked tapes; each sample
    gets the bits it gets on its own.  ``frozen_sigma`` pins the kernel
    bandwidth to a reference value so finite-difference probes measure
    only the differentiated path.
    """
    v, logits, fields = _logits(x, params, config, frozen_sigma)
    loss, dense_grads = dense_softmax_ce(v, logits, params.head, label)
    tapes = PipelineTapes(**fields, logits=logits, dense_grads=dense_grads)
    return loss, np.argmax(logits, axis=-1), tapes


def predict(x, params: Params, config: PipelineConfig) -> int | np.ndarray:
    """Argmax class for one sample, or per sample of a stack: the forward
    chain without a loss."""
    return np.argmax(_logits(x, params, config)[1], axis=-1)


def backward(
    tapes: PipelineTapes,
    params: Params,
    config: PipelineConfig,
    *,
    mix: bool = True,
    input: bool = True,
) -> Grads:
    """Chain all layer adjoints back from the loss, for one sample or per
    sample of a stack.

    The compression gradient is the raw Euclidean partial (what entrywise
    finite differences measure); :func:`train` projects the minibatch sum
    onto the tangent space once, as projection is linear.
    ``mix=False`` skips the mixer gradients and ``input=False`` the input
    gradient; with neither wanted, nothing below the compression is
    differentiated.
    """
    dv = tapes.dense_grads.v
    if config.normalizations.l2:
        dv = l2_normalize_backward(tapes.l2_tape, dv)
    if config.normalizations.power:
        dv = power_normalize_backward(tapes.power_tape, dv)
    grad_y = vectorize_backward(dv, config.transform_dim)
    if tapes.relu_mask is not None:
        grad_y = grad_y * tapes.relu_mask

    stiefel_euclid = transform_backward_param(tapes.transform, grad_y)

    d_weights = d_bias = grad_input = None
    if input or (mix and tapes.mix is not None):
        grad_agg = transform_backward_input(tapes.transform, grad_y)
        if config.aggregator == "kernel":
            grad_maps = kernel_backward(tapes.kernel, grad_agg)
        else:
            grad_maps = covariance_backward(tapes.agg_input, grad_agg)
        grad_input = grad_maps
        if tapes.mix is not None:
            d_weights, d_bias, grad_input = mix_backward(tapes.mix, grad_maps, input=input)
            if not mix:
                d_weights = d_bias = None
        if input:
            grad_input = grad_input.reshape(tapes.x.shape)

    return Grads(
        mix_weights=d_weights,
        mix_bias=d_bias,
        stiefel_euclid=stiefel_euclid,
        dense_weights=tapes.dense_grads.weights,
        dense_bias=tapes.dense_grads.bias,
        input=grad_input,
    )


def _slice_size(config: PipelineConfig, positions: int) -> int:
    """Samples per slice at N = ``positions``: as many as keep the widest
    per-sample array of the chain within :data:`SLICE_VALUES`, at least 1."""
    c0, c = config.in_channels, config.feature_channels
    return max(1, SLICE_VALUES // max(c0 * positions, c * positions, c * c))


def evaluate_accuracy(samples, labels, params: Params, config: PipelineConfig) -> float:
    """Fraction of correct argmax predictions over (n, C, H, W) samples,
    predicted in slices of stacked samples, in dataset order."""
    samples = np.asarray(samples, dtype=np.float64)
    labels = np.asarray(labels)
    step = _slice_size(config, samples.shape[-2] * samples.shape[-1])
    correct = 0
    for start in range(0, len(labels), step):
        end = start + step
        correct += int((predict(samples[start:end], params, config) == labels[start:end]).sum())
    return correct / len(labels)


def _ordered_sum(total: np.ndarray | None, stack: np.ndarray) -> np.ndarray:
    """``total + stack[0] + stack[1] + ...`` from left to right, or
    ``stack[0] + stack[1] + ...`` without a total: starting from the first
    sample, not from zeros, keeps signed zeros.  ``np.cumsum`` adds in
    order; ``np.sum`` over the sample axis would pair the terms up."""
    if total is not None:
        stack = np.concatenate([total[None], stack])
    return np.cumsum(stack, axis=0)[-1]


def _dataset_arrays(dataset) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(dataset, tuple):
        samples, labels = dataset
    else:
        samples, labels = dataset.samples, dataset.labels
    samples = np.asarray(samples, dtype=np.float64)
    labels = np.asarray(labels)
    if samples.ndim != 4 or len(samples) != len(labels):
        raise ShapeMismatchError(
            f"dataset needs (n, C, H, W) samples with matching labels, got {samples.shape}"
        )
    if len(labels) == 0:
        raise ValueError("dataset is empty")
    return samples, labels


def train(
    dataset,
    pipeline: PipelineConfig,
    tc: TrainConfig,
    test_dataset=None,
) -> tuple[Params, list[MetricsRecord]]:
    """Two-stage SGD over the pipeline; returns final params and metrics.

    Stage 1 trains the new layers with the channel mixer frozen; stage 2
    trains everything.  The learning rate of a stage is divided by
    ``decay_factor`` whenever the epoch mean training loss fails to
    improve by ``MIN_LOSS_DELTA`` for ``plateau_patience`` consecutive
    epochs.  Batch gradients are ordered sums over the batch divided by
    the batch size; every random choice comes from the seeded generator,
    so runs are reproducible bit-for-bit.
    """
    samples, labels = _dataset_arrays(dataset)
    n = len(labels)
    if labels.min() < 0 or labels.max() >= pipeline.num_classes:
        raise ValueError(
            f"labels must lie in [0, {pipeline.num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    test_arrays = _dataset_arrays(test_dataset) if test_dataset is not None else None
    step = min(tc.batch_size, _slice_size(pipeline, samples.shape[2] * samples.shape[3]))

    rng = seeded_rng(tc.seed)
    params = init_params(pipeline, rng)
    history: list[MetricsRecord] = []
    global_epoch = 0

    for stage in (1, 2):
        base_lr = tc.lr_stage1 if stage == 1 else tc.lr_stage2
        decay_mult = 1.0
        best_loss = math.inf
        bad_epochs = 0
        train_mix = params.mix is not None and (stage == 2 or tc.train_mix_in_stage1)
        # The gradient blocks the update below applies.
        applied = ["dense_weights", "dense_bias"]
        applied += [] if tc.freeze_stiefel else ["stiefel_euclid"]
        applied += ["mix_weights", "mix_bias"] if train_mix else []

        for _ in range(tc.epochs_per_stage):
            t0 = time.perf_counter()
            global_epoch += 1
            lr = base_lr / decay_mult
            stiefel_lr = (tc.lr_stiefel if tc.lr_stiefel is not None else base_lr) / decay_mult
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
                    loss, pred, tapes = forward(samples[ids], labels[ids], params, pipeline)
                    bad = ~np.isfinite(loss)
                    if bad.any():
                        raise NonFiniteError(
                            f"non-finite loss at epoch {global_epoch}, "
                            f"sample {int(ids[np.argmax(bad)])}"
                        )
                    grads = backward(tapes, params, pipeline, mix=train_mix, input=False)
                    losses.extend(loss.tolist())
                    correct += int((pred == labels[ids]).sum())
                    total = {k: _ordered_sum(total.get(k), getattr(grads, k)) for k in applied}
                scale = 1.0 / len(batch)

                if train_mix and lr != 0.0:
                    params.mix.weights = params.mix.weights - lr * (total["mix_weights"] * scale)
                    params.mix.bias = params.mix.bias - lr * (total["mix_bias"] * scale)
                if not tc.freeze_stiefel:
                    try:
                        tangent = tangent_project(params.transform, total["stiefel_euclid"] * scale)
                        params.transform = retract_step(params.transform, tangent, stiefel_lr)
                    except SingularMatrixError as e:
                        raise SingularMatrixError(
                            f"retraction failed at epoch {global_epoch}, batch {batch_no}: {e}"
                        ) from e
                if lr != 0.0:
                    params.head.weights = params.head.weights - lr * (
                        total["dense_weights"] * scale
                    )
                    params.head.bias = params.head.bias - lr * (total["dense_bias"] * scale)
                max_orth = max(max_orth, params.transform.orthogonality_error())

            # np.cumsum adds in sample order on every Python version
            # (sum() compensates from Python 3.12 on).
            epoch_loss = float(np.cumsum(losses)[-1]) / n
            if epoch_loss <= best_loss - MIN_LOSS_DELTA:
                best_loss = epoch_loss
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= tc.plateau_patience:
                    decay_mult *= tc.decay_factor
                    bad_epochs = 0

            test_acc = (
                evaluate_accuracy(test_arrays[0], test_arrays[1], params, pipeline)
                if test_arrays is not None
                else None
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


def gradcheck_instance(
    pipeline: PipelineConfig, seed: int, height: int = 3, width: int = 3
) -> tuple[np.ndarray, int, Params]:
    """The (input, label, params) triple :func:`grad_check` derives from a seed."""
    rng = seeded_rng(seed)
    x = rng.standard_normal((pipeline.in_channels, height, width))
    label = int(rng.integers(pipeline.num_classes))
    return x, label, init_params(pipeline, rng, random_head=True)


def grad_check(
    pipeline: PipelineConfig,
    seed: int = 0,
    tolerance: float = 1e-5,
    height: int = 3,
    width: int = 3,
) -> GradCheckReport:
    """Compare every analytic gradient block against central differences.

    One random sample and randomly initialized parameters are drawn from
    ``seed``; the kernel bandwidth is frozen at its baseline value so the
    probe differentiates exactly the path the analytic backward covers.
    Relative error uses the denominator max(1, |analytic|).
    """
    n_params = (
        (pipeline.mixed_channels * pipeline.in_channels + pipeline.mixed_channels)
        + pipeline.feature_channels * pipeline.transform_dim
        + pipeline.num_classes * (pipeline.head_dim + 1)
    )
    if n_params > GRADCHECK_PARAM_CAP:
        raise ValueError(
            f"configuration has {n_params} parameters; the finite-difference "
            f"check is capped at {GRADCHECK_PARAM_CAP}"
        )

    x, label, params = gradcheck_instance(pipeline, seed, height, width)

    _, _, tapes = forward(x, label, params, pipeline)
    frozen = tapes.kernel.sigma if tapes.kernel is not None else None
    analytic = backward(tapes, params, pipeline)

    def loss_with(p: Params, xs: np.ndarray) -> float:
        return forward(xs, label, p, pipeline, frozen_sigma=frozen)[0]

    blocks: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    if params.mix is not None:
        blocks["mix.weights"] = (params.mix.weights, analytic.mix_weights)
        blocks["mix.bias"] = (params.mix.bias, analytic.mix_bias)
    blocks["stiefel.w"] = (params.transform.w, analytic.stiefel_euclid)
    blocks["dense.weights"] = (params.head.weights, analytic.dense_weights)
    blocks["dense.bias"] = (params.head.bias, analytic.dense_bias)
    blocks["input"] = (x, analytic.input)

    report = GradCheckReport(tolerance=tolerance)
    for name, (value, grad) in blocks.items():
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
        rel = np.abs(grad - numeric) / np.maximum(1.0, np.abs(grad))
        worst = float(rel.max()) if rel.size else 0.0
        report.max_rel_err[name] = worst
        report.block_pass[name] = bool(worst < tolerance)
    return report
