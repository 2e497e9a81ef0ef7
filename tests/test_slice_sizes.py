"""How many samples a slice stacks, how large its stacked arrays grow,
and which form of product its stacks take.

Every slice size gives each sample the same bits, which
``tests/test_network.py`` checks at sizes it sets itself; the mutation
probe's slice rows run that file and survive.  This file pins the sizes
at the benchmark's shapes, the cap that keeps a slice's arrays on
glibc's heap (``network._pin_malloc_thresholds``), the path each
benchmark stack takes through ``linalg.gram`` and ``linalg.matmul``
(both forms of each give the same bits, so only this file sees which one
ran) and the memory layout of the gradient blocks each benchmark stack
returns, which ``network._ordered_sum`` reads."""

import dataclasses
import itertools

import numpy as np
import pytest

from spd_agg import PipelineConfig, StiefelPoint, kernel_forward, transform_forward
from spd_agg import network as network_mod
from spd_agg.stiefel import TransformTape, transform_backward_input

#: (C0, C, N) with the slice size at that shape: criterion 08
#: (``train_desk``), C=64 maps of N=4 without a mixer (``train_c64n4``)
#: and the paper-scale mixer over 14 x 14 maps (``eval_c64n196``).
BENCHMARK_SHAPES = [((16, 12, 36), 113), ((64, 0, 4), 16), ((96, 64, 196), 4)]


def _pipeline(c0, c):
    return PipelineConfig(in_channels=c0, mixed_channels=c, transform_dim=1, num_classes=2)


def _widest(config, positions, train_mix):
    c0, c = config.in_channels, config.feature_channels
    return max(c0 * positions, c * positions, c * c, c * c0 if train_mix else 0)


@pytest.mark.parametrize("shape, step", BENCHMARK_SHAPES, ids=["desk", "c64n4", "c64n196"])
def test_slice_size_at_the_benchmark_shapes(shape, step):
    c0, c, positions = shape
    assert network_mod._slice_size(_pipeline(c0, c), positions) == step
    if c:  # the mixer's weight gradient is never the widest array there
        assert network_mod._slice_size(_pipeline(c0, c), positions, train_mix=True) == step


def test_mixer_weight_gradient_counted_where_the_stage_trains_the_mixer():
    # C0=512 mixed to C=64 over N=4: the aggregated matrix (4,096 values)
    # sets the size until the stage stacks 32,768-value weight gradients.
    config = _pipeline(512, 64)
    assert network_mod._slice_size(config, 4) == network_mod.SLICE_VALUES // 4096
    assert network_mod._slice_size(config, 4, train_mix=True) == 4


@pytest.mark.parametrize("extra", [0, 1, 1000])
def test_one_sample_wider_than_four_budgets(extra):
    # 128 channels of 2048 positions fill 4 x SLICE_VALUES exactly.
    config = _pipeline(128, 0)
    assert _widest(config, 2048, False) == 4 * network_mod.SLICE_VALUES
    assert network_mod._slice_size(config, 2048 + extra) == 1


def test_widest_stacked_array_within_four_budgets_or_one_sample():
    budget = network_mod.SLICE_VALUES
    for c0, c, positions, train_mix in itertools.product(
        (1, 6, 16, 64, 96, 128, 300, 512), (0, 5, 12, 64, 256), (1, 4, 36, 196, 1000, 5000),
        (False, True),
    ):
        if train_mix and not c:  # no mixer to train
            continue
        config = _pipeline(c0, c)
        widest = _widest(config, positions, train_mix)
        assert network_mod._widest_array(config, positions, train_mix) == widest
        step = network_mod._slice_size(config, positions, train_mix)
        shape = (c0, c, positions, train_mix)
        assert step * widest <= max(4 * budget, widest), shape
        if budget // widest >= 4:  # the budget alone sets the size
            assert step == budget // widest, shape
        else:  # four samples wherever four fit in 4 x SLICE_VALUES
            assert step == min(4, max(1, 4 * budget // widest)), shape


def test_widest_stacked_array_stays_below_the_mmap_threshold():
    # glibc maps a block afresh once the request plus its chunk header
    # (at most 16 bytes for float64 arrays) reaches the threshold.
    assert 4 * network_mod.SLICE_VALUES * 8 + 16 < network_mod._MMAP_THRESHOLD


#: ``np.einsum`` subscripts of the three product forms.
STACKED = "...ik,...kj->...ij"
SAMPLES_INNERMOST = "ik...,jk...->ij..."
SIDE_BY_SIDE = "ik,k...j->i...j"


@pytest.fixture
def einsums(monkeypatch):
    """The subscripts of every ``np.einsum`` call, in order."""
    calls = []
    einsum = np.einsum

    def spy(subscripts, *operands, **kwargs):
        calls.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    return calls


#: (C0, C, N) and C' of each benchmark shape, the stacks it runs (its
#: 32-sample batches and 100-sample held-out sets cut to the slice sizes
#: of ``BENCHMARK_SHAPES``), and the form of the mixer, the Gram, the
#: compression ``W^T K`` and ``W G`` in a stage that trains the mixer
#: (None: the shape has no mixer).  ``W G`` folds wherever C' < 64.
PATHS = [
    ((16, 12, 36), 8, [32, 100], (SIDE_BY_SIDE, SAMPLES_INNERMOST, SIDE_BY_SIDE, SIDE_BY_SIDE)),
    ((64, 0, 4), 32, [16], (None, STACKED, STACKED, None)),
    ((96, 64, 196), 32, [4], (STACKED, STACKED, STACKED, SIDE_BY_SIDE)),
]


@pytest.mark.parametrize("shape, c_prime, stacks, forms", PATHS, ids=["desk", "c64n4", "c64n196"])
def test_product_form_at_the_benchmark_shapes(shape, c_prime, stacks, forms, einsums):
    step = dict(BENCHMARK_SHAPES)[shape]
    assert stacks == sorted({min(32, step), min(100, step)})
    c0, mixed, positions = shape
    c = _pipeline(c0, mixed).feature_channels
    mixer, gram, compression, w_g = forms
    rng = np.random.default_rng(0)
    w = StiefelPoint(np.linalg.qr(rng.standard_normal((c, c_prime)))[0])
    for stack in stacks:
        x = rng.standard_normal((stack, c0, 1, positions))
        if mixed:
            mix = network_mod.MixParams(rng.standard_normal((c, c0)), np.zeros(c))
            del einsums[:]
            x = network_mod.mix_forward(x, mix)[0]
            assert einsums == [mixer], "mixer"
        del einsums[:]
        k = kernel_forward(x)[0]
        assert einsums == [gram], "Gram"
        del einsums[:]
        transform_forward(k, w)
        assert einsums == [compression, STACKED], "compression"
        if mixed:
            del einsums[:]
            g = np.zeros((stack, c_prime, c_prime))
            transform_backward_input(TransformTape(w=w, t=k[:, :c_prime]), g)
            assert einsums == [w_g, STACKED], "W G W^T"


def _fastest_axis(a):
    """The axis of ``a`` longer than one with the smallest stride."""
    return min((ax for ax in range(a.ndim) if a.shape[ax] > 1), key=lambda ax: abs(a.strides[ax]))


@pytest.mark.parametrize("shape, c_prime", [path[:2] for path in PATHS],
                         ids=["desk", "c64n4", "c64n196"])
@pytest.mark.parametrize("stage", [1, 2])
def test_gradient_blocks_keep_the_sample_axis_slow(shape, c_prime, stage):
    # network._ordered_sum adds one sample after another only where the
    # sample axis is not the fast one in memory; a stage-2 backward runs
    # the prefix, with its folded products, as training does.
    c0, mixed, positions = shape
    stack = min(32, dict(BENCHMARK_SHAPES)[shape])
    config = PipelineConfig(in_channels=c0, mixed_channels=mixed, transform_dim=c_prime,
                            num_classes=2)
    rng = np.random.default_rng(1)
    params = network_mod.init_params(config, rng)
    x = rng.standard_normal((stack, c0, 1, positions))
    _, _, tapes = network_mod.forward(x, rng.integers(2, size=stack), params, config)
    prefix = dict(x=None) if stage == 2 else network_mod._NO_PREFIX
    grads = network_mod.backward(dataclasses.replace(tapes, **prefix))
    assert ("mix.weights" in grads) == (stage == 2 and bool(mixed))
    for name, block in grads.items():
        assert len(block) == stack and block[0].size > 1, name
        assert _fastest_axis(block) != 0, (name, block.shape, block.strides)
