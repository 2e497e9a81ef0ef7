"""How many samples a slice stacks, and how large its stacked arrays grow.

Every slice size gives each sample the same bits, which
``tests/test_network.py`` checks at sizes it sets itself; the mutation
probe's slice rows run that file and survive.  This file pins the sizes
at the benchmark's shapes, and the cap that keeps a slice's arrays on
glibc's heap (``network._pin_malloc_thresholds``)."""

import itertools

import pytest

from spd_agg import PipelineConfig
from spd_agg import network as network_mod

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
