import copy
import dataclasses
import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spd_agg.kernel as kernel_mod
import spd_agg.network as network_mod
from spd_agg import (
    DenseParams,
    FtsDataset,
    MetricsRecord,
    MixParams,
    NonFiniteError,
    Params,
    PipelineConfig,
    ShapeMismatchError,
    SingularMatrixError,
    TrainConfig,
    backward,
    certify,
    covariance_forward,
    evaluate_accuracy,
    forward,
    grad_check,
    init_params,
    kernel_forward,
    mix_backward,
    mix_forward,
    param_shapes,
    retract_step,
    save_checkpoint,
    seeded_rng,
    split_by_class,
    synth_generate,
    tangent_project,
    train,
)
from _oracles import (
    ADJOINT_RTOL,
    adjoint_gap,
    central_diff,
    glibc,
    ordered_sum_formula,
    rel_err,
    run_child,
)

SMALL = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=3)


def tiny_dataset(seed=0, per_class=8, c0=6, h=3, w=3):
    return synth_generate(num_classes=2, per_class=per_class, c0=c0, h=h, w=w, seed=seed)


def random_head_params(config, rng):
    """:func:`init_params`, then a random dense head drawn from the same
    ``rng`` (weights, then bias), as the gradient check draws it: a zero
    head would zero every gradient below it."""
    params = init_params(config, rng)
    params.head = DenseParams(
        weights=0.5 * rng.standard_normal((config.num_classes, config.head_dim)),
        bias=0.1 * rng.standard_normal(config.num_classes),
    )
    return params


def spy_aggregate(monkeypatch) -> list:
    """Replace ``network._aggregate`` with a wrapper that records each call
    in the list it returns."""
    calls, true_aggregate = [], network_mod._aggregate

    def counted(*args, **kwargs):
        calls.append(args)
        return true_aggregate(*args, **kwargs)

    monkeypatch.setattr(network_mod, "_aggregate", counted)
    return calls


def set_slice_samples(monkeypatch, step) -> list:
    """Have ``train`` and ``evaluate_accuracy`` run slices of up to
    ``step`` samples by replacing ``network._slice_size``, whatever
    ``SLICE_VALUES`` and its floor of four samples would give.  Returns a
    list that gets the sample count of each stack ``_aggregate`` runs, by
    which a test checks that its slices had the size it names."""
    monkeypatch.setattr(network_mod, "_slice_size", lambda config, positions, train_mix=False: step)
    sizes, true_aggregate = [], network_mod._aggregate

    def counted(x, *args, **kwargs):
        sizes.append(len(x))
        return true_aggregate(x, *args, **kwargs)

    monkeypatch.setattr(network_mod, "_aggregate", counted)
    return sizes


def assert_located(error, epoch, sample, layer):
    """The attributes of a ``NonFiniteError``, which its message names."""
    assert (error.epoch, error.sample, error.layer) == (epoch, sample, layer)


def poison_compression(monkeypatch, bad_sample, aggregate=lambda x: kernel_forward(x)[0]):
    """Make the compressed matrix NaN wherever the aggregated matrix is
    ``aggregate(bad_sample)`` (for a pipeline without a mixer): a failure
    above the compression keyed on the sample's content, not on its row
    in a slice."""
    key = aggregate(bad_sample)
    true_transform = network_mod.transform_forward

    def poisoned(k, w):
        y, tape = true_transform(k, w)
        hit = np.all(k == key, axis=(-2, -1))
        return np.where(hit[..., None, None], np.nan, y), tape

    monkeypatch.setattr(network_mod, "transform_forward", poisoned)


#: Each aggregator with the layer its refusal of a non-finite input names.
AGGREGATOR_INPUTS = [("kernel", "kernel aggregation input"), ("covariance", "covariance input")]


def overflowing_mixer(aggregator):
    """A pipeline with a mixer, and a set of all-ones maps.  With every
    mixer weight at 1e308, each mixed value adds six of them and
    overflows, so every sample fails at the aggregator's own check of its
    input."""
    pipe = PipelineConfig(
        in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2, aggregator=aggregator
    )
    ds = tiny_dataset(seed=4)
    return pipe, FtsDataset(np.ones_like(ds.samples), ds.labels, 2)


class TestMixLayer:
    def test_identity_on_nonnegative_input(self):
        x = np.abs(seeded_rng(0).standard_normal((4, 3, 3)))
        params = MixParams(weights=np.eye(4), bias=np.zeros(4))
        out, _ = mix_forward(x, params)
        assert np.array_equal(out, x)

    def test_large_negative_bias_saturates(self):
        x = seeded_rng(1).standard_normal((4, 2, 2))
        params = MixParams(weights=np.eye(4), bias=np.full(4, -1e9))
        out, _ = mix_forward(x, params)
        assert np.array_equal(out, np.zeros_like(x))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            mix_forward(np.ones((3, 2, 2)), MixParams(weights=np.eye(4), bias=np.zeros(4)))

    def test_gradients_match_finite_differences(self):
        rng = seeded_rng(2)
        x = rng.standard_normal((4, 3, 3))
        weights = rng.standard_normal((3, 4))
        bias = rng.standard_normal(3)
        upstream = rng.standard_normal((3, 9))

        _, tape = mix_forward(x, MixParams(weights.copy(), bias.copy()))
        d_w, d_b, d_in = mix_backward(tape, upstream)

        def loss_w(wm):
            out, _ = mix_forward(x, MixParams(wm, bias))
            return float((upstream * out.reshape(3, 9)).sum())

        def loss_b(bb):
            out, _ = mix_forward(x, MixParams(weights, bb))
            return float((upstream * out.reshape(3, 9)).sum())

        def loss_x(xx):
            out, _ = mix_forward(xx, MixParams(weights, bias))
            return float((upstream * out.reshape(3, 9)).sum())

        assert rel_err(d_w, central_diff(loss_w, weights.copy())) < 1e-6
        assert rel_err(d_b, central_diff(loss_b, bias.copy())) < 1e-6
        assert rel_err(d_in.reshape(4, 3, 3), central_diff(loss_x, x.copy())) < 1e-6


class TestMixAdjoint:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6), st.integers(1, 9)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_adjoint_in_weights_bias_and_input(self, shape, seed):
        """<J (dW, db, dx), G> = <dW, gW> + <db, gb> + <dx, gx> for a
        (B, C0, 1, N) stack and B per-sample gradients, to ``ADJOINT_RTOL``
        relative to ||J|| ||(dW, db, dx)|| ||G|| with
        ||J|| <= ||m|| + sqrt(B N) + ||W||."""
        stack, c, c0, n = shape
        rng = seeded_rng(seed)
        x, dx = (rng.standard_normal((stack, c0, 1, n)) for _ in range(2))
        weights, d_weights = (rng.standard_normal((c, c0)) for _ in range(2))
        bias, d_bias = (rng.standard_normal(c) for _ in range(2))
        g = rng.standard_normal((stack, c, n))
        _, tape = mix_forward(x, MixParams(weights, bias))
        m, dm = (a.reshape(stack, c0, n) for a in (x, dx))
        jx = (tape.pre > 0.0) * (d_weights @ m + weights @ dm + d_bias[:, None])
        g_weights, g_bias, g_input = mix_backward(tape, g)
        pairs = [(d_weights, g_weights.sum(axis=0)), (d_bias, g_bias.sum(axis=0)), (dm, g_input)]
        gap = adjoint_gap(jx, g, pairs)
        op_norm = np.linalg.norm(m) + math.sqrt(stack * n) + np.linalg.norm(weights)
        size = math.sqrt(sum(np.linalg.norm(a) ** 2 for a in (d_weights, d_bias, dm)))
        assert gap <= ADJOINT_RTOL * op_norm * size * np.linalg.norm(g)


class TestForward:
    def test_zero_head_gives_uniform_loss(self):
        pipe = PipelineConfig(in_channels=5, mixed_channels=4, transform_dim=2, num_classes=2)
        params = init_params(pipe, seeded_rng(3))
        x = seeded_rng(4).standard_normal((5, 3, 3))
        loss, _, _ = forward(x, 1, params, pipe)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_covariance_aggregator_path(self):
        pipe = PipelineConfig(
            in_channels=5, mixed_channels=4, transform_dim=2, num_classes=2,
            aggregator="covariance",
        )
        params = init_params(pipe, seeded_rng(5))
        x = seeded_rng(6).standard_normal((5, 4, 4))
        _, _, tapes = forward(x, 0, params, pipe)
        assert tapes.kernel is None
        aggregate, _ = network_mod._aggregate(x, params, pipe)
        assert np.array_equal(aggregate, covariance_forward(tapes.agg_input))

    def test_bit_identical_across_runs(self):
        params = init_params(SMALL, seeded_rng(7))
        x = seeded_rng(8).standard_normal((6, 3, 3))
        a = forward(x, 2, params, SMALL)
        b = forward(x, 2, params, SMALL)
        assert a[0] == b[0] and a[1] == b[1]

    def test_definiteness_contrast_between_aggregators(self):
        # C=12 maps over N=4 positions: kernel aggregate stays definite,
        # covariance is singular (rank <= N-1 = 3).
        x = seeded_rng(9).standard_normal((12, 2, 2))
        for agg, check in (("kernel", lambda e: e > 0), ("covariance", lambda e: e <= 1e-10)):
            pipe = PipelineConfig(
                in_channels=12, mixed_channels=0, transform_dim=4, num_classes=2,
                aggregator=agg,
            )
            params = init_params(pipe, seeded_rng(10))
            aggregate, _ = network_mod._aggregate(x, params, pipe)
            assert check(certify(aggregate))

    def test_spd_relu_path_runs(self):
        pipe = PipelineConfig(
            in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2,
            use_spd_relu=True,
        )
        params = init_params(pipe, seeded_rng(11))
        x = seeded_rng(12).standard_normal((6, 3, 3))
        loss, _, tapes = forward(x, 0, params, pipe)
        assert math.isfinite(loss)
        assert tapes.relu_mask is not None

    def test_nan_input_named(self):
        params = init_params(SMALL, seeded_rng(13))
        x = np.ones((6, 3, 3))
        x[0, 0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="input feature tensor") as caught:
            forward(x, 0, params, SMALL)
        assert_located(caught.value, None, None, "input feature tensor")


class TestBackward:
    def test_saturated_head_zeroes_every_gradient(self):
        # logits gap ~800 makes the softmax exactly one-hot in float64,
        # so the loss gradient vanishes and must propagate as exact zeros.
        pipe = SMALL
        params = random_head_params(pipe, seeded_rng(14))
        params.head.bias = np.array([800.0, 0.0, 0.0])
        x = seeded_rng(15).standard_normal((6, 3, 3))
        _, _, tapes = forward(x, 0, params, pipe)
        grads = backward(tapes)
        assert tuple(grads) == GRAD_BLOCKS
        for block in grads.values():
            assert not np.any(block)


class TestGradCheck:
    def test_small_config_passes(self):
        report = grad_check(SMALL, seed=0, tolerance=1e-5)
        assert report.all_passed, report.max_rel_err
        assert set(report.max_rel_err) == {
            "mix.weights", "mix.bias", "stiefel.w", "dense.weights", "dense.bias", "input",
        }

    def test_covariance_config_passes(self):
        pipe = PipelineConfig(
            in_channels=6, mixed_channels=5, transform_dim=3, num_classes=3,
            aggregator="covariance",
        )
        report = grad_check(pipe, seed=0, tolerance=1e-5)
        assert report.all_passed, report.max_rel_err

    def test_no_mixer_and_no_norms_pass(self):
        pipe = PipelineConfig(
            in_channels=6, mixed_channels=0, transform_dim=3, num_classes=2,
            power_norm=False, l2_norm=False,
        )
        report = grad_check(pipe, seed=1, tolerance=1e-5)
        assert report.all_passed, report.max_rel_err

    def test_corrupted_gradient_detected(self, monkeypatch):
        true_backward = network_mod.backward

        def corrupted(tapes):
            grads = true_backward(tapes)
            grads["stiefel.w"] = grads["stiefel.w"] * 1.01
            return grads

        monkeypatch.setattr(network_mod, "backward", corrupted)
        report = network_mod.grad_check(SMALL, seed=0, tolerance=1e-5)
        assert not report.block_pass["stiefel.w"]

    def test_infinite_tolerance_always_passes(self):
        report = grad_check(SMALL, seed=0, tolerance=math.inf)
        assert report.all_passed

    def test_parameter_cap_enforced(self):
        big = PipelineConfig(
            in_channels=64, mixed_channels=64, transform_dim=32, num_classes=10
        )
        with pytest.raises(ValueError, match="capped"):
            grad_check(big)

    def test_report_serializes(self):
        import json

        report = grad_check(SMALL, seed=0, tolerance=1e-5)
        decoded = json.loads(report.to_json())
        assert decoded["all_passed"] is True


class TestTrain:
    def test_zero_learning_rate_is_null_step(self):
        ds = tiny_dataset()
        tc = TrainConfig(lr_stage1=0.0, lr_stage2=0.0, epochs_per_stage=2, seed=5, batch_size=4)
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        params, history = train(ds, pipe, tc)
        initial = init_params(pipe, seeded_rng(5))
        assert np.array_equal(params.mix.weights, initial.mix.weights)
        assert np.array_equal(params.mix.bias, initial.mix.bias)
        assert np.array_equal(params.transform.w, initial.transform.w)
        assert np.array_equal(params.head.weights, initial.head.weights)
        assert np.array_equal(params.head.bias, initial.head.bias)
        assert len(history) == 4

    def test_zero_epochs_return_the_initial_params(self):
        # No epoch runs, so no stage is worked out from the epoch count.
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        tc = TrainConfig(epochs_per_stage=0, seed=5)
        params, history = train(tiny_dataset(), pipe, tc, test_dataset=tiny_dataset(seed=1))
        assert history == []
        initial = init_params(pipe, seeded_rng(5)).blocks()
        assert params.blocks().keys() == initial.keys()
        for name, block in params.blocks().items():
            assert block.tobytes() == initial[name].tobytes(), name

    def test_stage1_freezes_mixer(self):
        ds = tiny_dataset()
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        # lr_stage2 = 0 isolates stage 1's effect on the mixer
        tc = TrainConfig(lr_stage1=0.05, lr_stage2=0.0, epochs_per_stage=2, seed=6, batch_size=8)
        params, _ = train(ds, pipe, tc)
        initial = init_params(pipe, seeded_rng(6))
        assert np.array_equal(params.mix.weights, initial.mix.weights)
        assert not np.array_equal(params.head.weights, initial.head.weights)

    def test_frozen_stiefel_ablation(self):
        ds = tiny_dataset()
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        tc = TrainConfig(epochs_per_stage=2, seed=7, batch_size=8, freeze_stiefel=True)
        params, _ = train(ds, pipe, tc)
        assert np.array_equal(params.transform.w, init_params(pipe, seeded_rng(7)).transform.w)

    def test_plateau_divides_the_rate_and_each_stage_starts_over(self):
        # At a rate of 1e-9 no epoch improves the loss by MIN_LOSS_DELTA:
        # the first epoch of a stage sets its best loss, and each run of
        # PLATEAU_PATIENCE epochs after it divides the rate by DECAY_FACTOR.
        assert network_mod.PLATEAU_PATIENCE == 3
        base = 1e-9
        tc = TrainConfig(lr_stage1=base, lr_stage2=base, epochs_per_stage=9, seed=5, batch_size=8)
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        _, history = train(tiny_dataset(), pipe, tc)
        decays = [0, 0, 0, 0, 1, 1, 1, 2, 2]
        assert [r.stage for r in history] == [1] * 9 + [2] * 9
        assert [r.lr for r in history] == [base / network_mod.DECAY_FACTOR**k for k in decays * 2]

    @pytest.mark.parametrize("drop, decays", [(3e-4, [0] * 6), (1.5e-5, [0, 0, 0, 0, 1, 1])])
    def test_plateau_is_a_drop_below_min_loss_delta(self, monkeypatch, drop, decays):
        # Every sample loss of epoch e reads 1 - e * drop (16 samples, one
        # slice per epoch), so each epoch improves on the last by `drop`.
        # A drop of 3e-4 clears MIN_LOSS_DELTA = 1e-4 and never decays the
        # rate (three of them add up to less than 1e-3).  One of 1.5e-5
        # (more than 1e-5) is a plateau epoch, and so are the next ones,
        # as the best loss stays put and 5 drops add up to less than
        # 1e-4: epochs 2-4 decay the rate from epoch 5 on.
        true_loss = network_mod.dense_softmax_ce
        epochs = []

        def scheduled(v, logits, head, label):
            loss, grads = true_loss(v, logits, head, label)
            epochs.append(1)
            return np.full_like(loss, 1.0 - len(epochs) * drop), grads

        monkeypatch.setattr(network_mod, "dense_softmax_ce", scheduled)
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        tc = TrainConfig(lr_stage1=0.1, epochs_per_stage=6, seed=5, batch_size=16)
        _, history = train(tiny_dataset(), pipe, tc)
        assert len(epochs) == 12
        assert [r.lr for r in history[:6]] == [0.1 / network_mod.DECAY_FACTOR**k for k in decays]

    @pytest.mark.parametrize("freeze", [False, True])
    def test_one_tangent_projection_per_minibatch(self, monkeypatch, freeze):
        # 16 samples in batches of 5: 4 minibatches in each of 4 epochs,
        # each run in slices of 2 samples.
        sizes = set_slice_samples(monkeypatch, 2)
        projected, stepped = [], []

        def spy_project(w, grad):
            projected.append(grad)
            return tangent_project(w, grad)

        def spy_retract(w, step, lr):
            wt_step = w.w.T @ step
            stepped.append(np.linalg.norm(wt_step + wt_step.T))
            return retract_step(w, step, lr)

        monkeypatch.setattr(network_mod, "tangent_project", spy_project)
        monkeypatch.setattr(network_mod, "retract_step", spy_retract)
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        tc = TrainConfig(epochs_per_stage=2, seed=10, batch_size=5, freeze_stiefel=freeze)
        train(tiny_dataset(seed=6), pipe, tc)
        assert max(sizes) == 2
        calls = 0 if freeze else 16
        assert len(projected) == calls and len(stepped) == calls
        assert all(norm <= 1e-12 for norm in stepped), max(stepped)

    @pytest.mark.parametrize("aggregator", ["kernel", "covariance"])
    @pytest.mark.parametrize("side", [3, 2])
    def test_backward_gets_only_the_tapes_it_reads(self, monkeypatch, aggregator, side):
        # Matrices recorded (3 x 3 maps) or bandwidths (2 x 2, kernel
        # only): stage 1, its recording epoch included, hands backward no
        # prefix; stage 2 trains the mixer and hands it all but x.
        pipe = PipelineConfig(
            in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2,
            aggregator=aggregator,
        )
        held = {"agg_input", "mix", "x"}
        epochs = [[]]
        true_backward, true_record = network_mod.backward, network_mod.MetricsRecord

        def spy(tapes):
            epochs[-1].append({name for name in held if getattr(tapes, name) is not None})
            return true_backward(tapes)

        def record(*args, **kwargs):
            epochs.append([])
            return true_record(*args, **kwargs)

        monkeypatch.setattr(network_mod, "backward", spy)
        monkeypatch.setattr(network_mod, "MetricsRecord", record)
        ds = tiny_dataset(seed=4, h=side, w=side)
        tc = TrainConfig(epochs_per_stage=2, seed=0, batch_size=5)
        train(ds, pipe, tc, test_dataset=tiny_dataset(seed=5, h=side, w=side))
        assert epochs[-1] == [] and all(epochs[:-1])
        for stage, want in ((1, set()), (2, {"agg_input", "mix"})):
            for got in epochs[2 * stage - 2 : 2 * stage]:
                assert got == [want] * len(got), stage

    def test_bit_identical_replay(self):
        ds = tiny_dataset(seed=1)
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        tc = TrainConfig(epochs_per_stage=3, seed=8, batch_size=8)
        params_a, hist_a = train(ds, pipe, tc)
        params_b, hist_b = train(ds, pipe, tc)
        assert [h.mean_train_loss for h in hist_a] == [h.mean_train_loss for h in hist_b]
        assert [h.train_accuracy for h in hist_a] == [h.train_accuracy for h in hist_b]
        assert np.array_equal(params_a.transform.w, params_b.transform.w)
        assert np.array_equal(params_a.head.weights, params_b.head.weights)
        assert np.array_equal(params_a.mix.weights, params_b.mix.weights)

    def test_orthonormality_every_epoch(self):
        ds = tiny_dataset(seed=2, per_class=16)
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        tc = TrainConfig(epochs_per_stage=4, seed=9, batch_size=4)
        _, history = train(ds, pipe, tc)
        assert all(h.stiefel_orthogonality_error < 1e-8 for h in history)

    def test_loss_descends_early_on_benchmark_set(self):
        from spd_agg import split_by_class

        full = synth_generate(num_classes=2, per_class=150, c0=16, h=6, w=6, seed=7)
        ds, _ = split_by_class(full, 100)
        pipe = PipelineConfig(in_channels=16, mixed_channels=12, transform_dim=8, num_classes=2)
        tc = TrainConfig(epochs_per_stage=6, seed=7, batch_size=32)
        _, history = train(ds, pipe, tc)
        losses = [h.mean_train_loss for h in history[:6]]
        drops = sum(losses[i + 1] <= losses[i] for i in range(5))
        assert drops >= 4, losses

    def test_nan_sample_aborts_with_name(self):
        # A NaN seen while the aggregated matrices are cached (stage 1
        # freezes the mixer), in a training slice (covariance, no mixer
        # and 2 x 2 maps: C*C = 36 > C0*N = 24, so nothing is cached) and
        # in the held-out set: each names epoch, sample and layer.
        cached = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        uncached = PipelineConfig(
            in_channels=6, mixed_channels=0, transform_dim=3, num_classes=2,
            aggregator="covariance",
        )
        layer = ": non-finite values first appeared in: input feature tensor$"
        cases = [
            (cached, 3, 0, False, "at epoch 1, sample 0" + layer),
            (uncached, 2, 5, False, "at epoch 1, sample 5" + layer),
            (cached, 3, 5, True, "at epoch 1, held-out sample 5" + layer),
        ]
        tc = TrainConfig(epochs_per_stage=1, seed=0, batch_size=4)
        for pipe, side, index, held_out, message in cases:
            ds = tiny_dataset(seed=4, h=side, w=side)
            bad = tiny_dataset(seed=4, h=side, w=side)
            bad.samples[index, 0, 0, 0] = np.nan
            assert network_mod._cache_fits(pipe, ds.samples) == (pipe is cached)
            with pytest.raises(NonFiniteError, match=message) as caught:
                if held_out:
                    train(ds, pipe, tc, test_dataset=bad)
                else:
                    train(bad, pipe, tc)
            assert_located(caught.value, 1, index, "input feature tensor")

    @pytest.mark.parametrize("mixed", [0, 5])
    @pytest.mark.parametrize("held_out", [False, True])
    def test_nan_sample_named_while_bandwidths_are_recorded(
        self, monkeypatch, mixed, held_out
    ):
        # Kernel at 2 x 2 maps: C*C = 36 or 25 > C0*N = 24, so epoch 1
        # records every bandwidth from its own slices.  The slice that
        # carries the NaN finds it, names epoch, sample and layer, and
        # stops training there: the training sample the epoch takes last
        # sits in its fourth and last minibatch (16 samples, batches of 4),
        # after 3 steps; a held-out sample fails after all 4.
        pipe = PipelineConfig(in_channels=6, mixed_channels=mixed, transform_dim=3, num_classes=2)
        ds = tiny_dataset(seed=4, h=2, w=2)
        assert not network_mod._cache_fits(pipe, ds.samples)
        rng = seeded_rng(0)
        init_params(pipe, rng)
        last = int(rng.permutation(len(ds.labels))[-1])
        bad = tiny_dataset(seed=4, h=2, w=2)
        bad.samples[last, 0, 0, 0] = np.nan
        steps = []

        def counted(w, step, lr):
            steps.append(lr)
            return retract_step(w, step, lr)

        monkeypatch.setattr(network_mod, "retract_step", counted)
        name = "held-out sample" if held_out else "sample"
        message = (
            f"^non-finite value at epoch 1, {name} {last}: "
            "non-finite values first appeared in: input feature tensor$"
        )
        tc = TrainConfig(epochs_per_stage=1, seed=0, batch_size=4)
        with pytest.raises(NonFiniteError, match=message) as caught:
            if held_out:
                train(ds, pipe, tc, test_dataset=bad)
            else:
                train(bad, pipe, tc)
        assert_located(caught.value, 1, last, "input feature tensor")
        assert len(steps) == (4 if held_out else 3)

    def test_nan_loss_aborts(self):
        # lr_stage1 = 1.7e308 with W frozen: after the first minibatch the
        # head weights are about 1e307, and finite logits overflow the
        # softmax shift.  The loss is the last checked layer.
        ds = tiny_dataset(seed=5)
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        tc = TrainConfig(
            epochs_per_stage=1, seed=0, batch_size=4, lr_stage1=1.7e308, freeze_stiefel=True
        )
        message = "at epoch 1, sample 14: non-finite values first appeared in: loss$"
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match=message) as caught:
            train(ds, pipe, tc)
        assert_located(caught.value, 1, 14, "loss")

    def test_overflow_above_compression_names_epoch_and_sample(self):
        # Covariance of maps scaled by 1e100, no normalization: the head
        # grows to about 1e199 in the first minibatch, then the logits
        # overflow in a training slice.  The maps are widened before the
        # scaling, which would overflow float32.
        ds = tiny_dataset(seed=4)
        pipe = PipelineConfig(
            in_channels=6, mixed_channels=0, transform_dim=3, num_classes=2,
            aggregator="covariance", power_norm=False, l2_norm=False,
        )
        tc = TrainConfig(epochs_per_stage=1, seed=0, batch_size=4)
        message = "at epoch 1, sample 2: non-finite values first appeared in: classifier logits$"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match=message) as caught:
                train(FtsDataset(ds.samples.astype(np.float64) * 1e100, ds.labels, 2), pipe, tc)
        assert_located(caught.value, 1, 2, "classifier logits")

    def test_held_out_failure_above_compression_named(self, monkeypatch):
        ds, held_out = tiny_dataset(seed=4), tiny_dataset(seed=9)
        pipe = PipelineConfig(in_channels=6, mixed_channels=0, transform_dim=3, num_classes=2)
        poison_compression(monkeypatch, held_out.samples[3])
        message = (
            "at epoch 1, held-out sample 3: non-finite values first appeared in: compressed matrix$"
        )
        with pytest.raises(NonFiniteError, match=message) as caught:
            train(ds, pipe, TrainConfig(epochs_per_stage=1, seed=0), test_dataset=held_out)
        assert_located(caught.value, 1, 3, "compressed matrix")

    def test_first_sample_failing_alone_named_at_any_slice_size(self, monkeypatch):
        # Two bad samples in the first minibatch: the earlier fails at the
        # compression, the later (a NaN) at the input.  A slice holding
        # both fails at the input first, yet the message names the
        # earlier sample, as a slice of one does.  With no mixer and
        # C*C = 36 > C0*N = 24, nothing is cached, and the covariance
        # has no bandwidth to cache.
        ds = tiny_dataset(seed=3, h=2, w=2)
        pipe = PipelineConfig(
            in_channels=6, mixed_channels=0, transform_dim=3, num_classes=2,
            aggregator="covariance",
        )
        rng = seeded_rng(0)
        init_params(pipe, rng)
        order = rng.permutation(len(ds.labels))
        first, later = int(order[0]), int(order[2])
        samples = ds.samples.copy()
        samples[later, 0, 0, 0] = np.nan
        poison_compression(monkeypatch, samples[first], covariance_forward)
        message = (
            f"non-finite value at epoch 1, sample {first}: "
            "non-finite values first appeared in: compressed matrix"
        )
        for step in (1, 3, 7):
            with monkeypatch.context() as patch, pytest.raises(NonFiniteError) as caught:
                sizes = set_slice_samples(patch, step)
                train(
                    FtsDataset(samples, ds.labels, 2), pipe,
                    TrainConfig(epochs_per_stage=1, batch_size=7),
                )
            assert max(sizes) == step
            assert str(caught.value) == message, step
            assert_located(caught.value, 1, first, "compressed matrix")

    @pytest.mark.parametrize("aggregator, layer", AGGREGATOR_INPUTS)
    def test_mixer_overflow_named_at_the_aggregator(self, monkeypatch, aggregator, layer):
        pipe, ds = overflowing_mixer(aggregator)
        true_init = network_mod.init_params

        def overflowing(config, rng):
            params = true_init(config, rng)
            params.mix.weights[:] = 1e308
            return params

        monkeypatch.setattr(network_mod, "init_params", overflowing)
        rng = seeded_rng(0)
        true_init(pipe, rng)
        first = int(rng.permutation(len(ds.labels))[0])
        message = (
            f"^non-finite value at epoch 1, sample {first}: {layer} contains non-finite values$"
        )
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match=message) as caught:
            train(ds, pipe, TrainConfig(epochs_per_stage=1, seed=0, batch_size=4))
        assert_located(caught.value, 1, first, layer)

    def test_non_finite_epoch_loss_aborts(self):
        # Every sample loss is finite (about 1e307), but their sequential
        # sum overflows in epoch 4; "Infinity" is not JSON.
        ds = synth_generate(num_classes=3, per_class=8, c0=6, h=3, w=3, seed=4)
        pipe = PipelineConfig(in_channels=6, mixed_channels=0, transform_dim=3, num_classes=3)
        tc = TrainConfig(freeze_stiefel=True, batch_size=4, lr_stage1=1e307, lr_stage2=1e307)
        with np.errstate(over="ignore"), pytest.raises(
            NonFiniteError, match="^non-finite mean training loss at epoch 4$"
        ) as caught:
            train(ds, pipe, tc)
        assert_located(caught.value, 4, None, None)
        record = MetricsRecord(
            epoch=1, stage=1, mean_train_loss=math.inf, train_accuracy=0.5, test_accuracy=None,
            lr=0.1, stiefel_orthogonality_error=0.0, wall_ms=1.0,
        )
        with pytest.raises(ValueError):
            record.to_json_line()

    def test_singular_retraction_names_epoch_and_batch(self, monkeypatch):
        ds = tiny_dataset(seed=5)  # 16 samples: 4 batches of 4 per epoch
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        true_retract = network_mod.retract_step
        calls = []

        def failing(w, grad, lr):
            calls.append(1)
            if len(calls) == 6:
                raise SingularMatrixError("column 2 is numerically rank deficient")
            return true_retract(w, grad, lr)

        monkeypatch.setattr(network_mod, "retract_step", failing)
        with pytest.raises(SingularMatrixError, match="epoch 2, batch 2: column 2"):
            network_mod.train(ds, pipe, TrainConfig(epochs_per_stage=2, seed=0, batch_size=4))

    def test_non_finite_retraction_names_epoch_and_batch(self, monkeypatch):
        ds = tiny_dataset(seed=5)
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        true_project = network_mod.tangent_project
        calls = []

        def overflowing(w, grad):
            calls.append(1)
            tangent = true_project(w, grad)
            return np.full_like(tangent, np.inf) if len(calls) == 6 else tangent

        monkeypatch.setattr(network_mod, "tangent_project", overflowing)
        with pytest.raises(
            NonFiniteError, match="epoch 2, batch 2: qr input contains non-finite"
        ) as caught:
            network_mod.train(ds, pipe, TrainConfig(epochs_per_stage=2, seed=0, batch_size=4))
        assert_located(caught.value, 2, None, None)

    def test_empty_dataset_rejected(self):
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        with pytest.raises(ValueError, match="empty"):
            train(
                FtsDataset(np.zeros((0, 6, 3, 3)), np.zeros(0, dtype=int), 2), pipe,
                TrainConfig(epochs_per_stage=1),
            )

    def test_out_of_range_held_out_label_rejected(self):
        # Labels of 5 make a valid 6-class held-out set, out of range for
        # a 2-class pipeline.
        ds = tiny_dataset()
        held_out = FtsDataset(ds.samples[:3], np.full(3, 5), 6)
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\), got range \[5, 5\]"):
            train(ds, pipe, TrainConfig(epochs_per_stage=1), test_dataset=held_out)

    def test_out_of_range_label_rejected(self):
        # A valid 3-class dataset reaches train's own check of the labels
        # against a 2-class pipeline.
        ds = synth_generate(num_classes=3, per_class=4, c0=6, h=3, w=3, seed=6)
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\), got range \[0, 2\]"):
            train(ds, pipe, TrainConfig(epochs_per_stage=1))

    @pytest.mark.parametrize("mixed", [5, 0])
    @pytest.mark.parametrize("where, name", [(0, "training"), (1, "held-out")])
    def test_wrong_channel_count_refused_before_any_slice(self, monkeypatch, mixed, where, name):
        # A set of 7-channel maps for a 6-channel config is refused, naming
        # the set and both counts, before any sample is aggregated.
        pipe = PipelineConfig(in_channels=6, mixed_channels=mixed, transform_dim=3, num_classes=2)
        sets = [tiny_dataset(), tiny_dataset()]
        sets[where] = tiny_dataset(c0=7)
        calls = spy_aggregate(monkeypatch)
        with pytest.raises(ShapeMismatchError, match=f"^{name} set has 7 channels, config expects 6$"):
            train(sets[0], pipe, TrainConfig(epochs_per_stage=1), test_dataset=sets[1])
        assert calls == []


#: Pipelines whose stage 1 caches the aggregated matrices of the 3 x 3
#: tiny dataset: kernel with mixer, covariance with matrix ReLU, no mixer
#: (C*C = 36 <= C0*N = 54) and normalizations off.
CACHED_PIPELINES = [
    PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2),
    PipelineConfig(
        in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2, aggregator="covariance",
        use_spd_relu=True,
    ),
    PipelineConfig(in_channels=6, mixed_channels=0, transform_dim=3, num_classes=2),
    PipelineConfig(
        in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2,
        power_norm=False, l2_norm=False,
    ),
]


def assert_cache_changes_no_bit(monkeypatch, pipe, shape, count=16, slice_samples=None):
    """Train ``pipe`` on the first ``count`` samples of ``shape`` maps (and
    half as many held-out samples) as it is, then never caching: with
    ``_cache_fits`` refusing every set and ``_aggregate`` ignoring a
    recorded bandwidth.  The metrics lines and every parameter block must
    be identical.  ``slice_samples`` sets slices of that many samples."""
    h, w = shape
    ds = tiny_dataset(seed=11, h=h, w=w)
    held_out = tiny_dataset(seed=12, per_class=4, h=h, w=w)
    ds, held_out = (
        FtsDataset(d.samples[:m], d.labels[:m], 2)
        for d, m in ((ds, count), (held_out, (count + 1) // 2))
    )
    if slice_samples is not None:
        sizes = set_slice_samples(monkeypatch, slice_samples)
    # A stage-2 rate that moves the mixer, so a stale cache would show.
    tc = TrainConfig(epochs_per_stage=2, seed=3, batch_size=5, lr_stage2=0.05)
    runs = []
    for replace in (False, True):
        if replace:
            aggregate = network_mod._aggregate
            monkeypatch.setattr(network_mod, "_cache_fits", lambda config, samples: False)
            monkeypatch.setattr(
                network_mod, "_aggregate",
                lambda x, params, config, sigma=None: aggregate(x, params, config),
            )
        params, history = train(ds, pipe, tc, test_dataset=held_out)
        runs.append(([r.to_json_line() for r in history], params.blocks()))
    if slice_samples is not None:
        assert max(sizes) == slice_samples
    (lines, cached), (plain_lines, plain) = runs
    assert lines == plain_lines
    assert cached.keys() == plain.keys()
    for block in cached:
        assert np.array_equal(cached[block], plain[block]), block


class TestAggregateCache:
    @pytest.mark.parametrize("pipe", CACHED_PIPELINES)
    def test_cache_changes_no_bit(self, monkeypatch, pipe):
        assert network_mod._cache_fits(pipe, tiny_dataset(seed=11).samples)
        assert_cache_changes_no_bit(monkeypatch, pipe, (3, 3))

    # No mixer, then a mixer: at 2 x 2 maps C*C = 36 or 25 > C0*N = 24.
    @pytest.mark.parametrize("pipe", [CACHED_PIPELINES[2], CACHED_PIPELINES[0]])
    def test_bandwidth_cache_changes_no_bit(self, monkeypatch, pipe):
        assert not network_mod._cache_fits(pipe, tiny_dataset(seed=11, h=2, w=2).samples)
        assert_cache_changes_no_bit(monkeypatch, pipe, (2, 2))

    # Matrices (3 x 3 maps), then bandwidths (2 x 2), each recorded from
    # slices of 2 samples: 13 training samples in batches of 5 give
    # slices of 2, 2, 1, 2, 2, 1, 2, 1, and 7 held-out ones 2, 2, 2, 1.
    @pytest.mark.parametrize("pipe", [CACHED_PIPELINES[2], CACHED_PIPELINES[0]])
    @pytest.mark.parametrize("shape", [(3, 3), (2, 2)])
    def test_cache_recorded_from_short_slices_changes_no_bit(self, monkeypatch, pipe, shape):
        assert network_mod._cache_fits(pipe, tiny_dataset(h=shape[0], w=shape[1]).samples) == (
            shape == (3, 3)
        )
        assert_cache_changes_no_bit(monkeypatch, pipe, shape, count=13, slice_samples=2)

    @pytest.mark.parametrize(
        "pipe, shape, per_epoch",
        [
            # Stage 1 aggregates once; stage 2 trains the mixer.
            (CACHED_PIPELINES[0], (3, 3), ([26, 0, 26, 26], [26, 0, 26, 26])),
            (CACHED_PIPELINES[1], (3, 3), ([26, 0, 26, 26], [0, 0, 0, 0])),
            # No mixer: both stages share one cache ...
            (CACHED_PIPELINES[2], (3, 3), ([26, 0, 0, 0], [26, 0, 0, 0])),
            # ... unless C*C = 36 > C0*N = 24: then they share the
            # bandwidths ...
            (CACHED_PIPELINES[2], (2, 2), ([26, 26, 26, 26], [26, 0, 0, 0])),
            # ... which with a mixer (25 > 24) last only while stage 1
            # freezes it.
            (CACHED_PIPELINES[0], (2, 2), ([26, 26, 26, 26], [26, 0, 26, 26])),
        ],
    )
    def test_samples_aggregated_per_epoch(self, monkeypatch, pipe, shape, per_epoch):
        # Samples aggregated, and bandwidths computed, per epoch; an epoch
        # ends with its record.
        aggregated, bandwidths = [0], [0]
        true_record = network_mod.MetricsRecord

        def spy(module, name, counts, sample_ndim=3):
            fn = getattr(module, name)

            def counted(x, *args, **kwargs):
                counts[-1] += int(np.prod(np.shape(x)[:-sample_ndim]))
                return fn(x, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        def record(*args, **kwargs):
            aggregated.append(0)
            bandwidths.append(0)
            return true_record(*args, **kwargs)

        spy(network_mod, "kernel_forward", aggregated)
        spy(network_mod, "covariance_forward", aggregated)
        # kernel_forward calls compute_sigma from its own module, on a
        # (..., C, C) stack of squared distances.
        spy(kernel_mod, "compute_sigma", bandwidths, sample_ndim=2)
        monkeypatch.setattr(network_mod, "MetricsRecord", record)
        h, w = shape
        ds = tiny_dataset(seed=13, h=h, w=w)
        held_out = tiny_dataset(seed=14, per_class=5, h=h, w=w)
        tc = TrainConfig(epochs_per_stage=2, seed=0, batch_size=5)
        train(ds, pipe, tc, test_dataset=held_out)
        assert (aggregated[:-1], bandwidths[:-1]) == per_epoch
        assert aggregated[-1] == bandwidths[-1] == 0


def run_epochs(state, sets, pipe, tc, count) -> list[str]:
    """The metrics lines of ``count`` more epochs of the run ``state``,
    each through ``network._epoch``."""
    with network_mod._Workers() as workers:
        return [
            network_mod._epoch(state, sets, pipe, tc, workers).to_json_line() for _ in range(count)
        ]


class TestTrainState:
    # Six epochs a stage: k = 3 and 9 split a stage, k = 6 splits the
    # run at the stage boundary.  Each pipeline has a held-out set, at
    # maps whose shape sets what a frozen stage records: the matrices
    # (C*C = 25 <= C0*N = 54; stage 2 trains the mixer and drops them),
    # the bandwidths (the kernel without a mixer, 36 > 24, kept for both
    # stages) or nothing (the covariance, 25 > 24).
    @pytest.mark.parametrize(
        "pipe, side, recorded",
        [
            (CACHED_PIPELINES[0], 3, (16, 5, 5)),
            (CACHED_PIPELINES[2], 2, (16,)),
            (CACHED_PIPELINES[1], 2, None),
        ],
    )
    @pytest.mark.parametrize("k", [3, 6, 9])
    def test_a_copy_of_the_state_finishes_the_run(self, pipe, side, recorded, k):
        # Run k epochs, copy the state, then finish the run from the
        # original and from the copy: each must give the metrics lines
        # and parameter bits of one uninterrupted run.  The rates make
        # the plateau schedule divide a rate in each of these runs.
        sets = [tiny_dataset(seed=11, h=side, w=side)]
        sets.append(tiny_dataset(seed=12, per_class=4, h=side, w=side))
        tc = TrainConfig(lr_stage1=0.01, lr_stage2=0.001, epochs_per_stage=6, seed=3, batch_size=5)
        params, history = train(sets[0], pipe, tc, test_dataset=sets[1])
        assert any(r.lr < (tc.lr_stage1, tc.lr_stage2)[r.stage - 1] for r in history)
        rng = seeded_rng(tc.seed)
        state = network_mod._TrainState(init_params(pipe, rng), rng)
        head = run_epochs(state, sets, pipe, tc, k)
        saved = copy.deepcopy(state)
        if recorded is not None and (k <= tc.epochs_per_stage or pipe.mixed_channels == 0):
            assert state.frozen[0].shape == recorded
        else:
            assert state.frozen is None
        for run in (state, saved):
            lines = head + run_epochs(run, sets, pipe, tc, 2 * tc.epochs_per_stage - k)
            assert lines == [r.to_json_line() for r in history]
            assert run.params.blocks().keys() == params.blocks().keys()
            for name, block in params.blocks().items():
                assert run.params.blocks()[name].tobytes() == block.tobytes(), name


class TestEvaluateAccuracy:
    def test_empty_set_rejected(self):
        params = init_params(SMALL, seeded_rng(0))
        with pytest.raises(ValueError, match="^dataset is empty$"):
            evaluate_accuracy(np.zeros((0, 6, 3, 3)), np.zeros(0, dtype=int), params, SMALL)

    def test_wrong_channel_count_refused_before_any_slice(self, monkeypatch):
        params = init_params(SMALL, seeded_rng(0))
        samples = seeded_rng(1).standard_normal((2, 7, 3, 3))
        calls = spy_aggregate(monkeypatch)
        message = "^evaluation set has 7 channels, config expects 6$"
        with pytest.raises(ShapeMismatchError, match=message):
            evaluate_accuracy(samples, [0, 1], params, SMALL)
        assert calls == []

    @pytest.mark.parametrize("label", [-1, 3])
    def test_out_of_range_label_rejected(self, label):
        params = init_params(SMALL, seeded_rng(0))
        samples = seeded_rng(1).standard_normal((2, 6, 3, 3))
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            evaluate_accuracy(samples, np.array([0, label]), params, SMALL)

    @pytest.mark.parametrize("count", [2, 7])
    def test_label_count_must_match_samples(self, monkeypatch, count):
        # In slices of one sample, 2 labels for 5 samples would score 2
        # of them; the set is refused before any slice runs.
        sizes = set_slice_samples(monkeypatch, 1)
        params = init_params(SMALL, seeded_rng(0))
        samples = seeded_rng(1).standard_normal((5, 6, 3, 3))
        with pytest.raises(ValueError, match=f"^got {count} labels for 5 samples$"):
            evaluate_accuracy(samples, np.zeros(count, dtype=int), params, SMALL)
        assert sizes == []


    @pytest.mark.parametrize("labels, bad", [([0.0, 0.5], "0.5"), ([np.nan, 1.0], "nan")])
    def test_non_integer_label_rejected(self, labels, bad):
        # 0.5 matches no class, so it used to read as a wrong prediction.
        params = init_params(SMALL, seeded_rng(0))
        samples = seeded_rng(1).standard_normal((2, 6, 3, 3))
        with pytest.raises(ValueError, match=f"^label {bad} at position [01] is not an integer$"):
            evaluate_accuracy(samples, labels, params, SMALL)

    def test_whole_float_labels_accepted(self):
        params = init_params(SMALL, seeded_rng(0))
        samples = seeded_rng(1).standard_normal((2, 6, 3, 3))
        assert evaluate_accuracy(samples, [0.0, 2.0], params, SMALL) == evaluate_accuracy(
            samples, [0, 2], params, SMALL
        )

    @pytest.mark.parametrize("shape", [(16, 6, 6), (6, 3, 3), (2, 1, 6, 3, 3)])
    def test_samples_must_be_4d(self, shape):
        # One (C, H, W) sample with as many labels as channels used to be
        # read as one sample whose class was broadcast against every label.
        pipe = PipelineConfig(in_channels=16, mixed_channels=12, transform_dim=8, num_classes=2)
        params = init_params(pipe, seeded_rng(0))
        samples = seeded_rng(1).standard_normal(shape)
        message = f"^samples must be \\(n, C, H, W\\), got shape {re.escape(str(shape))}$"
        with pytest.raises(ShapeMismatchError, match=message):
            evaluate_accuracy(samples, np.zeros(shape[0], dtype=int), params, pipe)

    @pytest.mark.parametrize(
        "labels", [np.zeros((8, 1), dtype=int), np.array(0)], ids=["8x1", "0d"]
    )
    def test_labels_must_be_one_per_sample(self, labels):
        # (8, 1) labels used to broadcast against the 8 predictions, so the
        # count could exceed the sample count; 0-d labels had no length.
        params = init_params(SMALL, seeded_rng(0))
        samples = seeded_rng(1).standard_normal((labels.size, 6, 3, 3))
        message = re.escape(f"labels must be one per sample (1-D), got shape {labels.shape}")
        with pytest.raises(ShapeMismatchError, match=f"^{message}$"):
            evaluate_accuracy(samples, labels, params, SMALL)

    @pytest.mark.parametrize("aggregator, layer", AGGREGATOR_INPUTS)
    def test_mixer_overflow_named_at_the_aggregator(self, aggregator, layer):
        pipe, ds = overflowing_mixer(aggregator)
        params = init_params(pipe, seeded_rng(2))
        params.mix.weights[:] = 1e308
        message = f"^non-finite value at sample 0: {layer} contains non-finite values$"
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match=message) as caught:
            evaluate_accuracy(ds.samples, ds.labels, params, pipe)
        assert_located(caught.value, None, 0, layer)

    def test_float32_set_is_widened_one_slice_at_a_time(self, monkeypatch):
        # 999 samples of 6 x 4 x 4 maps in slices of 8: a float64 copy of
        # the float32 set would take 767 KB, twice what the set takes.
        sizes = set_slice_samples(monkeypatch, 8)
        ds = synth_generate(num_classes=3, per_class=333, c0=6, h=4, w=4, seed=1)
        samples = ds.samples.astype(np.float32)
        params = random_head_params(SMALL, seeded_rng(2))
        tracemalloc.start()
        try:
            evaluate_accuracy(samples, ds.labels, params, SMALL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(sizes) == 8
        assert peak < samples.nbytes / 2


class TestConfigValidation:
    def test_transform_dim_capped_by_channels(self):
        with pytest.raises(ValueError, match="exceeds"):
            PipelineConfig(in_channels=4, mixed_channels=3, transform_dim=5, num_classes=2)

    def test_unknown_aggregator(self):
        with pytest.raises(ValueError, match="aggregator"):
            PipelineConfig(
                in_channels=4, mixed_channels=3, transform_dim=2, num_classes=2,
                aggregator="gaussian",
            )

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_stage1=-0.1)


#: Pipelines the batched chain must reproduce sample by sample: both
#: aggregators, with and without mixer, matrix ReLU and normalizations.
BATCH_PIPELINES = [
    PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=3),
    PipelineConfig(in_channels=6, mixed_channels=0, transform_dim=4, num_classes=2),
    PipelineConfig(
        in_channels=6, mixed_channels=5, transform_dim=3, num_classes=3, aggregator="covariance"
    ),
    PipelineConfig(
        in_channels=6, mixed_channels=0, transform_dim=3, num_classes=2, aggregator="covariance",
        use_spd_relu=True,
    ),
    PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2,
                   use_spd_relu=True),
    PipelineConfig(
        in_channels=6, mixed_channels=5, transform_dim=3, num_classes=3,
        power_norm=False, l2_norm=False,
    ),
]

GRAD_BLOCKS = ("mix.weights", "mix.bias", "stiefel.w", "dense.weights", "dense.bias", "input")


class TestParamTable:
    @pytest.mark.parametrize("pipe", BATCH_PIPELINES)
    def test_blocks_follow_the_table(self, pipe):
        params = random_head_params(pipe, seeded_rng(22))
        blocks = params.blocks()
        assert [(k, v.shape) for k, v in blocks.items()] == list(param_shapes(pipe).items())
        assert (params.mix is None) == ("mix.weights" not in blocks)
        rebuilt = Params.from_blocks(blocks).blocks()
        assert rebuilt.keys() == blocks.keys()
        for name in blocks:
            assert np.array_equal(rebuilt[name], blocks[name]), name


class TestBatchedChain:
    @pytest.mark.parametrize("pipe", BATCH_PIPELINES)
    @pytest.mark.parametrize("step", [1, 2, 3, 7])
    def test_slices_match_single_samples(self, pipe, step):
        rng = seeded_rng(20)
        xs = rng.standard_normal((7, pipe.in_channels, 3, 3))
        labels = rng.integers(pipe.num_classes, size=7)
        params = random_head_params(pipe, rng)

        # B = 1 calls, gradients summed in sample order from the first.
        single_losses, single_logits, single_total = [], [], {}
        for x, label in zip(xs, labels):
            loss, _, tapes = forward(x, int(label), params, pipe)
            grads = backward(tapes)
            single_losses.append(loss)
            single_logits.append(tapes.logits)
            for name, block in grads.items():
                if name in single_total:
                    single_total[name] += block
                else:
                    single_total[name] = block.copy()

        losses, logits, total = [], [], {}
        for start in range(0, 7, step):
            loss, _, tapes = forward(xs[start:start + step], labels[start:start + step],
                                     params, pipe)
            grads = backward(tapes)
            losses.extend(loss)
            logits.extend(tapes.logits)
            for name, block in grads.items():
                total[name] = network_mod._ordered_sum(total.get(name), block)

        assert np.array_equal(losses, single_losses)
        assert np.array_equal(logits, single_logits)
        assert total.keys() == single_total.keys()
        for name in total:
            assert np.array_equal(total[name], single_total[name]), name

    def test_backward_writes_no_tape_array(self):
        rng = seeded_rng(22)
        xs = rng.standard_normal((4, 6, 3, 3))
        params = random_head_params(SMALL, rng)
        _, _, tapes = forward(xs, np.array([0, 1, 2, 0]), params, SMALL)

        def tape_bytes():
            arrays = [xs, tapes.x, tapes.mix.m0, tapes.mix.pre, tapes.agg_input, tapes.kernel.m,
                      tapes.kernel.k, tapes.kernel.sigma, tapes.transform.t, tapes.power_tape,
                      *tapes.l2_tape, tapes.logits, *tapes.dense_grads,
                      *(block for block in params.blocks().values())]
            return [np.asarray(a).tobytes() for a in arrays]

        before = tape_bytes()
        backward(tapes)
        assert tape_bytes() == before

    def test_skipped_blocks_leave_the_rest_unchanged(self):
        # Tapes without x give no input gradient; tapes without the
        # aggregation's give nothing below the compression, x or not.
        rng = seeded_rng(21)
        xs = rng.standard_normal((4, 6, 3, 3))
        params = random_head_params(SMALL, rng)
        _, _, tapes = forward(xs, np.array([0, 1, 2, 0]), params, SMALL)
        full = backward(tapes)
        for stripped, kept in (
            (dataclasses.replace(tapes, x=None), GRAD_BLOCKS[:-1]),
            (dataclasses.replace(tapes, **network_mod._NO_PREFIX), GRAD_BLOCKS[2:-1]),
            (dataclasses.replace(tapes, mix=None, agg_input=None, kernel=None), GRAD_BLOCKS[2:-1]),
        ):
            part = backward(stripped)
            assert tuple(part) == kept
            for name in kept:
                assert np.array_equal(part[name], full[name]), name

    @pytest.mark.parametrize("pipe", BATCH_PIPELINES[:3])
    def test_training_independent_of_slice_size(self, monkeypatch, pipe):
        ds = tiny_dataset(seed=3)
        tc = TrainConfig(epochs_per_stage=2, seed=4, batch_size=7)
        runs = []
        for step in (1, 3, 7):
            with monkeypatch.context() as patch:
                sizes = set_slice_samples(patch, step)
                params, history = train(ds, pipe, tc, test_dataset=ds)
            assert max(sizes) == step
            runs.append(([h.to_json_line() for h in history], params))
        for lines, params in runs[1:]:
            assert lines == runs[0][0]
            assert np.array_equal(params.transform.w, runs[0][1].transform.w)
            assert np.array_equal(params.head.weights, runs[0][1].head.weights)
            if params.mix is not None:
                assert np.array_equal(params.mix.weights, runs[0][1].mix.weights)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_value_blocks_independent_of_slice_size(self, monkeypatch, workers):
        # One mixed channel compressed to 1 x 1: mix.bias and stiefel.w
        # hold one value per sample, where numpy's sum over the sample
        # axis pairs the terms up.  Without the L2 norm, whose gradient
        # is zero for one value, the gradient reaches them.
        pipe = PipelineConfig(in_channels=6, mixed_channels=1, transform_dim=1, num_classes=2,
                              aggregator="covariance", l2_norm=False)
        ds = tiny_dataset(seed=3, per_class=24)
        tc = TrainConfig(epochs_per_stage=2, seed=4, batch_size=24)
        monkeypatch.setattr(network_mod, "WORKERS", workers)
        runs = []
        for step in (1, 5, 24):
            with monkeypatch.context() as patch:
                sizes = set_slice_samples(patch, step)
                params, history = train(ds, pipe, tc, test_dataset=ds)
            assert max(sizes) == step
            blocks = params.blocks()
            assert blocks["mix.bias"].size == blocks["stiefel.w"].size == 1
            runs.append(([h.to_json_line() for h in history], blocks))
        for lines, blocks in runs[1:]:
            assert lines == runs[0][0]
            for name in blocks:
                assert blocks[name].tobytes() == runs[0][1][name].tobytes(), name


def _map(fn, items):
    with network_mod._Workers() as workers:
        return workers.map(fn, items)


#: Stacks of per-sample blocks as the gradient blocks come: the
#: compression's (8, 64, 32) with the transposed layout of
#: ``transform_backward_param``, the desk head's, one sample, and blocks
#: of one value, as 0-d and as (1,) entries.
SUM_STACKS = [
    lambda rng: rng.standard_normal((8, 32, 64)).swapaxes(-1, -2),
    lambda rng: rng.standard_normal((8, 2, 528)),
    lambda rng: rng.standard_normal((32, 12, 8)),
    lambda rng: rng.standard_normal((32, 2)),
    lambda rng: rng.standard_normal((1, 64, 32)),
    lambda rng: rng.standard_normal(8) * 10.0 ** rng.integers(-8, 8, size=8),
    lambda rng: rng.standard_normal((32, 1)) * 10.0 ** rng.integers(-8, 8, size=(32, 1)),
]


class TestOrderedSum:
    @pytest.mark.parametrize("make", SUM_STACKS)
    @pytest.mark.parametrize("with_total", [False, True])
    def test_bits_match_concatenate_then_cumsum(self, make, with_total):
        for seed in range(10):
            rng = seeded_rng(seed)
            stack = make(rng)
            total = rng.standard_normal(stack.shape[1:]) if with_total else None
            inputs = [a.tobytes() for a in (stack, total) if a is not None]
            got = network_mod._ordered_sum(total, stack)
            ref = ordered_sum_formula(total, stack)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), seed
            assert [a.tobytes() for a in (stack, total) if a is not None] == inputs

    @pytest.mark.parametrize("shape", [(5,), (5, 3), (4, 64, 32)])
    def test_signed_zeros_kept(self, shape):
        # -0.0 + -0.0 is -0.0; a zero-started sum would give +0.0.
        negative = np.full(shape, -0.0)
        for total, want in ((None, -0.0), (np.full(shape[1:], -0.0), -0.0),
                            (np.zeros(shape[1:]), 0.0)):
            got = network_mod._ordered_sum(total, negative)
            ref = ordered_sum_formula(total, negative)
            assert got.tobytes() == ref.tobytes() == np.full(shape[1:], want).tobytes()

    def test_total_takes_no_more_memory_than_the_stack(self):
        # The carried total takes the last sample's row, so the rows summed
        # hold no more than the slice's own stack, which stays below the
        # pinned mmap threshold; the stack plus the total would outgrow it.
        rng = seeded_rng(3)
        stack, total = rng.standard_normal((4, 64, 32)), rng.standard_normal((64, 32))
        tracemalloc.start()
        try:
            network_mod._ordered_sum(total, stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack.nbytes + 1.5 * total.nbytes


class TestWorkers:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_map_runs_each_item_once_in_order(self, monkeypatch, workers):
        # The caller and at most workers - 1 pool threads take the items.
        monkeypatch.setattr(network_mod, "WORKERS", workers)
        caller = threading.get_ident()
        ran = []

        def square(i):
            ran.append((i, threading.get_ident()))
            return i * i

        assert _map(square, list(range(7))) == [i * i for i in range(7)]
        assert sorted(i for i, _ in ran) == list(range(7))
        assert len({thread for _, thread in ran} - {caller}) <= workers - 1

    @pytest.mark.parametrize("workers", [2, 3])
    def test_held_up_pool_thread_delays_no_item(self, monkeypatch, workers):
        # A pool thread holds its first item until all eight have started:
        # the caller takes the others instead of waiting for the pool.
        monkeypatch.setattr(network_mod, "WORKERS", workers)
        caller = threading.get_ident()
        lock, all_started = threading.Lock(), threading.Event()
        ran = {}

        def run(i):
            with lock:
                ran[i] = threading.get_ident()
                if len(ran) == 8:
                    all_started.set()
            if ran[i] != caller:
                assert all_started.wait(10.0)
            return i

        assert _map(run, list(range(8))) == list(range(8))
        assert len([i for i, thread in ran.items() if thread != caller]) <= workers - 1

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("items", [1, 2, 3])
    def test_one_thread_per_item_up_to_workers(self, monkeypatch, workers, items):
        # Each item waits until min(workers, items) threads hold one, so
        # the map must start that many.  One item runs on the caller
        # without concurrent.futures; two need it.
        monkeypatch.setattr(network_mod, "WORKERS", workers)
        if items == 1:
            monkeypatch.setitem(sys.modules, "concurrent.futures", None)
        want = min(workers, items)
        lock, all_started, threads = threading.Lock(), threading.Event(), set()

        def run(i):
            with lock:
                threads.add(threading.get_ident())
                if len(threads) == want:
                    all_started.set()
            assert all_started.wait(10.0)
            return i

        assert _map(run, list(range(items))) == list(range(items))
        assert len(threads) == want
        if items == 1:
            assert threads == {threading.get_ident()}
            with pytest.raises(ImportError):
                _map(abs, [-3, -4])

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("failing", [(1, 2), (2, 3), (3, 4)])
    def test_map_raises_the_first_error_in_order(self, monkeypatch, workers, failing):
        # Two failing items, on whichever threads take them: the earlier
        # one's error is raised, whichever failed first.
        monkeypatch.setattr(network_mod, "WORKERS", workers)

        def check(i):
            if i in failing:
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match=f"^item {failing[0]}$"):
            _map(check, list(range(8)))

    def test_error_stops_the_other_threads(self, monkeypatch):
        # Item 0 fails on the caller while the one pool thread runs item 1;
        # no thread takes an item after that.
        monkeypatch.setattr(network_mod, "WORKERS", 2)
        started, pool_busy, failed = [], threading.Event(), threading.Event()

        def run(i):
            started.append(i)
            if i == 0:
                assert pool_busy.wait(10.0)
                failed.set()
                raise ValueError("first")
            pool_busy.set()
            assert failed.wait(10.0)
            time.sleep(0.1)
            return i

        with pytest.raises(ValueError, match="^first$"):
            _map(run, list(range(8)))
        assert sorted(started) == [0, 1]

    def test_callers_errstate_holds_on_the_pool(self, monkeypatch):
        # The caller holds item 0 until the pool thread has run item 1.
        monkeypatch.setattr(network_mod, "WORKERS", 2)
        caller = threading.get_ident()
        items = [np.ones(4)] + [np.full(4, 1e308)] * 3

        def scale(x):
            if threading.get_ident() == caller:
                assert pool_ran.wait(10.0)
                return x * 10.0
            try:
                return x * 10.0
            finally:
                pool_ran.set()

        pool_ran = threading.Event()
        with np.errstate(over="ignore"):
            assert np.isinf(_map(scale, items)[1]).all()
        pool_ran = threading.Event()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _map(scale, items)

    def test_worker_count_changes_no_bit(self, monkeypatch, tmp_path):
        # C = 64 maps of N = 4 without a mixer: 8-sample slices, so a batch
        # of 32 runs in 4 slices and the 32 held-out samples in 4; epoch 1
        # of each stage records bandwidths from slices that either thread
        # runs.  A short switch interval makes the threads interleave often.
        ds = synth_generate(num_classes=2, per_class=40, c0=64, h=2, w=2, seed=2)
        train_ds, held_out = split_by_class(ds, 24)
        pipe = PipelineConfig(in_channels=64, mixed_channels=0, transform_dim=8, num_classes=2)
        tc = TrainConfig(lr_stage1=1.0, lr_stage2=0.1, epochs_per_stage=2, batch_size=32, seed=3)
        monkeypatch.setattr(network_mod, "SLICE_VALUES", 8 * 64 * 64)
        assert network_mod._slice_size(pipe, 4) == 8
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(network_mod, "WORKERS", workers)
                params, history = train(train_ds, pipe, tc, test_dataset=held_out)
                path = tmp_path / f"workers{workers}.ftsp"
                save_checkpoint(path, params, pipe)
                accuracy = evaluate_accuracy(held_out.samples, held_out.labels, params, pipe)
                runs.append(([h.to_json_line() for h in history], path.read_bytes(), accuracy))
        finally:
            sys.setswitchinterval(interval)
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("held_out", [False, True])
    def test_earlier_of_two_failing_slices_named(self, monkeypatch, workers, held_out):
        # Slices of 2 samples (covariance without a mixer at 2 x 2 maps
        # caches nothing) and batches of 8: NaN samples in slices 2 and 3
        # of the first batch, or of the held-out set, each of 4 slices, so
        # at 2 and 3 workers the caller and a pool thread share them.
        pipe = PipelineConfig(
            in_channels=6, mixed_channels=0, transform_dim=3, num_classes=2,
            aggregator="covariance",
        )
        sizes = set_slice_samples(monkeypatch, 2)
        monkeypatch.setattr(network_mod, "WORKERS", workers)
        ds = tiny_dataset(seed=4, h=2, w=2)
        rng = seeded_rng(0)
        init_params(pipe, rng)
        order = np.arange(len(ds.labels)) if held_out else rng.permutation(len(ds.labels))
        first, later = int(order[4]), int(order[6])
        bad = tiny_dataset(seed=4, h=2, w=2)
        bad.samples[[first, later], 0, 0, 0] = np.nan
        name = "held-out sample" if held_out else "sample"
        message = (
            f"^non-finite value at epoch 1, {name} {first}: "
            "non-finite values first appeared in: input feature tensor$"
        )
        tc = TrainConfig(epochs_per_stage=1, seed=0, batch_size=8)
        with pytest.raises(NonFiniteError, match=message) as caught:
            if held_out:
                train(ds, pipe, tc, test_dataset=bad)
            else:
                train(bad, pipe, tc)
        assert max(sizes) == 2
        assert_located(caught.value, 1, first, "input feature tensor")


#: Minor page faults (``getrusage``) the child of
#: ``test_slices_reuse_heap_pages`` may take inside one ``train`` call, on
#: 2 CPUs.  C = 64 maps of N = 4 took about 1,300 with the allocator pin
#: and 9,500-10,000 without it, each slice array mapped afresh.  The C0 =
#: 512 mixer took 2,000-2,500, and 7,400 with its weight gradient left
#: out of the slice size (14,000 with 8-sample slices and a 1 MiB pin).
TRAIN_FAULT_BOUND = 4000

_FAULT_CHILD = """
import os
import resource
import sys
if hasattr(os, "sched_setaffinity"):  # at most 2 workers: the caller and 1 pool thread
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
from spd_agg import PipelineConfig, TrainConfig, split_by_class, synth_generate, train
c0, mixed = int(sys.argv[1]), int(sys.argv[2])
ds = synth_generate(num_classes=2, per_class=150, c0=c0, h=2, w=2, seed=7)
train_ds, test_ds = split_by_class(ds, 100)
pipe = PipelineConfig(in_channels=c0, mixed_channels=mixed, transform_dim=32, num_classes=2)
tc = TrainConfig(seed=7, lr_stage1=1.0, lr_stage2=0.1, epochs_per_stage=1, batch_size=32)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(train_ds, pipe, tc, test_dataset=test_ds)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

#: A child that records glibc ``mallopt`` calls, passed on to glibc: none
#: at import, the two pins at the first evaluation, none after.
_PIN_CHILD = """
import ctypes
import types
libc_mallopt = ctypes.CDLL(None).mallopt
calls = []
def mallopt(param, value):
    calls.append((param, value))
    return libc_mallopt(param, value)
ctypes.CDLL = lambda name: types.SimpleNamespace(mallopt=mallopt)
import spd_agg
print(calls)
pipe = spd_agg.PipelineConfig(in_channels=4, mixed_channels=0, transform_dim=2, num_classes=2)
params = spd_agg.init_params(pipe, spd_agg.seeded_rng(0))
samples = spd_agg.seeded_rng(1).standard_normal((3, 4, 2, 2))
for _ in range(2):
    spd_agg.evaluate_accuracy(samples, [0, 1, 0], params, pipe)
    print(calls)
"""


@pytest.mark.skipif(not glibc(), reason="the allocator is pinned only under glibc")
class TestAllocator:
    def test_slices_reuse_heap_pages(self):
        # C = 64 maps of N = 4 in 16-sample slices, whose 512 KiB arrays
        # sit above glibc's initial 128 KiB mmap threshold.  With a C0 =
        # 512 mixer, stage 2 stacks 256 KiB weight gradients per sample, in
        # 4-sample slices.
        for c0, mixed in ((64, 0), (512, 64)):
            assert int(run_child(_FAULT_CHILD, c0, mixed)) < TRAIN_FAULT_BOUND, (c0, mixed)

    def test_pinned_when_slices_first_run_not_at_import(self):
        pins = [(-3, network_mod._MMAP_THRESHOLD), (-1, 32 * network_mod.SLICE_VALUES * 8)]
        assert run_child(_PIN_CHILD).splitlines() == [
            "[]", str(pins), str(pins)
        ]
