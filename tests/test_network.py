import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spd_agg.kernel as kernel_mod
import spd_agg.network as network_mod
from spd_agg import (
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
    seeded_rng,
    synth_generate,
    tangent_project,
    train,
)
from _oracles import ADJOINT_RTOL, adjoint_gap, central_diff, rel_err

SMALL = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=3)


def tiny_dataset(seed=0, per_class=8, c0=6, h=3, w=3):
    return synth_generate(num_classes=2, per_class=per_class, c0=c0, h=h, w=w, seed=seed)


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
        with pytest.raises(NonFiniteError, match="input feature tensor"):
            forward(x, 0, params, SMALL)


class TestBackward:
    def test_saturated_head_zeroes_every_gradient(self):
        # logits gap ~800 makes the softmax exactly one-hot in float64,
        # so the loss gradient vanishes and must propagate as exact zeros.
        pipe = SMALL
        params = init_params(pipe, seeded_rng(14), random_head=True)
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

    @pytest.mark.parametrize("freeze", [False, True])
    def test_one_tangent_projection_per_minibatch(self, monkeypatch, freeze):
        # 16 samples in batches of 5: 4 minibatches in each of 4 epochs,
        # each run in slices of 2 samples (widest array: 6 x 9 values).
        monkeypatch.setattr(network_mod, "SLICE_VALUES", 2 * 6 * 9)
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
            with pytest.raises(NonFiniteError, match=message):
                if held_out:
                    train(ds, pipe, tc, test_dataset=bad)
                else:
                    train(bad, pipe, tc)

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
        with pytest.raises(NonFiniteError, match=message):
            if held_out:
                train(ds, pipe, tc, test_dataset=bad)
            else:
                train(bad, pipe, tc)
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
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match=message):
            train(ds, pipe, tc)

    def test_overflow_above_compression_names_epoch_and_sample(self):
        # Covariance of maps scaled by 1e100, no normalization: the head
        # grows to about 1e199 in the first minibatch, then the logits
        # overflow in a training slice.
        ds = tiny_dataset(seed=4)
        pipe = PipelineConfig(
            in_channels=6, mixed_channels=0, transform_dim=3, num_classes=2,
            aggregator="covariance", power_norm=False, l2_norm=False,
        )
        tc = TrainConfig(epochs_per_stage=1, seed=0, batch_size=4)
        message = "at epoch 1, sample 2: non-finite values first appeared in: classifier logits$"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match=message):
                train(FtsDataset(ds.samples * 1e100, ds.labels, 2), pipe, tc)

    def test_held_out_failure_above_compression_named(self, monkeypatch):
        ds, held_out = tiny_dataset(seed=4), tiny_dataset(seed=9)
        pipe = PipelineConfig(in_channels=6, mixed_channels=0, transform_dim=3, num_classes=2)
        poison_compression(monkeypatch, held_out.samples[3])
        message = (
            "at epoch 1, held-out sample 3: non-finite values first appeared in: compressed matrix$"
        )
        with pytest.raises(NonFiniteError, match=message):
            train(ds, pipe, TrainConfig(epochs_per_stage=1, seed=0), test_dataset=held_out)

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
            monkeypatch.setattr(network_mod, "SLICE_VALUES", step * 36)
            with pytest.raises(NonFiniteError) as caught:
                train(
                    FtsDataset(samples, ds.labels, 2), pipe,
                    TrainConfig(epochs_per_stage=1, batch_size=7),
                )
            assert str(caught.value) == message, step

    def test_non_finite_epoch_loss_aborts(self):
        # Every sample loss is finite (about 1e307), but their sequential
        # sum overflows in epoch 4; "Infinity" is not JSON.
        ds = synth_generate(num_classes=3, per_class=8, c0=6, h=3, w=3, seed=4)
        pipe = PipelineConfig(in_channels=6, mixed_channels=0, transform_dim=3, num_classes=3)
        tc = TrainConfig(freeze_stiefel=True, batch_size=4, lr_stage1=1e307, lr_stage2=1e307)
        with np.errstate(over="ignore"), pytest.raises(
            NonFiniteError, match="^non-finite mean training loss at epoch 4$"
        ):
            train(ds, pipe, tc)
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
        c = pipe.feature_channels
        widest = max(pipe.in_channels * h * w, c * h * w, c * c)
        monkeypatch.setattr(network_mod, "SLICE_VALUES", slice_samples * widest)
        assert network_mod._slice_size(pipe, h * w) == slice_samples
    # A stage-2 rate that moves the mixer, so a stale cache would show.
    tc = TrainConfig(epochs_per_stage=2, seed=3, batch_size=5, lr_stage2=0.05)
    runs = []
    for replace in (False, True):
        if replace:
            aggregate = network_mod._aggregate
            monkeypatch.setattr(network_mod, "_cache_fits", lambda config, samples: False)
            monkeypatch.setattr(
                network_mod, "_aggregate",
                lambda x, params, config, frozen_sigma=None: aggregate(x, params, config),
            )
        params, history = train(ds, pipe, tc, test_dataset=held_out)
        runs.append(([r.to_json_line() for r in history], params.blocks()))
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

        def spy(module, name, counts):
            fn = getattr(module, name)

            def counted(x, *args, **kwargs):
                counts[-1] += 1 if np.ndim(x) == 3 else len(x)
                return fn(x, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        def record(*args, **kwargs):
            aggregated.append(0)
            bandwidths.append(0)
            return true_record(*args, **kwargs)

        spy(network_mod, "kernel_forward", aggregated)
        spy(network_mod, "covariance_forward", aggregated)
        # kernel_forward calls compute_sigma from its own module.
        spy(kernel_mod, "compute_sigma", bandwidths)
        monkeypatch.setattr(network_mod, "MetricsRecord", record)
        h, w = shape
        ds = tiny_dataset(seed=13, h=h, w=w)
        held_out = tiny_dataset(seed=14, per_class=5, h=h, w=w)
        tc = TrainConfig(epochs_per_stage=2, seed=0, batch_size=5)
        train(ds, pipe, tc, test_dataset=held_out)
        assert (aggregated[:-1], bandwidths[:-1]) == per_epoch
        assert aggregated[-1] == bandwidths[-1] == 0


class TestEvaluateAccuracy:
    def test_empty_set_rejected(self):
        params = init_params(SMALL, seeded_rng(0))
        with pytest.raises(ValueError, match="^dataset is empty$"):
            evaluate_accuracy(np.zeros((0, 6, 3, 3)), np.zeros(0, dtype=int), params, SMALL)

    @pytest.mark.parametrize("label", [-1, 3])
    def test_out_of_range_label_rejected(self, label):
        params = init_params(SMALL, seeded_rng(0))
        samples = seeded_rng(1).standard_normal((2, 6, 3, 3))
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            evaluate_accuracy(samples, np.array([0, label]), params, SMALL)

    @pytest.mark.parametrize("count", [2, 7])
    def test_label_count_must_match_samples(self, monkeypatch, count):
        # One sample per slice, the default at the eval_c64n196 shape:
        # 2 labels for 5 samples would score 2 of them.
        monkeypatch.setattr(network_mod, "SLICE_VALUES", 6 * 9)
        params = init_params(SMALL, seeded_rng(0))
        samples = seeded_rng(1).standard_normal((5, 6, 3, 3))
        with pytest.raises(ValueError, match=f"^got {count} labels for 5 samples$"):
            evaluate_accuracy(samples, np.zeros(count, dtype=int), params, SMALL)


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
        params = init_params(pipe, seeded_rng(22), random_head=True)
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
        params = init_params(pipe, rng, random_head=True)

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

    def test_skipped_blocks_leave_the_rest_unchanged(self):
        # Tapes without x give no input gradient; tapes without the
        # aggregation's give nothing below the compression, x or not.
        rng = seeded_rng(21)
        xs = rng.standard_normal((4, 6, 3, 3))
        params = init_params(SMALL, rng, random_head=True)
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
        widest = max(pipe.in_channels, pipe.feature_channels) * 9
        runs = []
        for step in (1, 3, 7):
            monkeypatch.setattr(network_mod, "SLICE_VALUES", step * widest)
            params, history = train(ds, pipe, tc, test_dataset=ds)
            runs.append(([h.to_json_line() for h in history], params))
        for lines, params in runs[1:]:
            assert lines == runs[0][0]
            assert np.array_equal(params.transform.w, runs[0][1].transform.w)
            assert np.array_equal(params.head.weights, runs[0][1].head.weights)
            if params.mix is not None:
                assert np.array_equal(params.mix.weights, runs[0][1].mix.weights)
