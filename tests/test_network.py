import math

import numpy as np
import pytest

import spd_agg.network as network_mod
from spd_agg import (
    MixParams,
    NonFiniteError,
    NormFlags,
    PipelineConfig,
    ShapeMismatchError,
    SingularMatrixError,
    TrainConfig,
    backward,
    certify,
    covariance_forward,
    forward,
    grad_check,
    init_params,
    mix_backward,
    mix_forward,
    retract_step,
    seeded_rng,
    synth_generate,
    tangent_project,
    train,
)
from _oracles import central_diff, rel_err

SMALL = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=3)


def tiny_dataset(seed=0, per_class=8, c0=6, h=3, w=3):
    return synth_generate(num_classes=2, per_class=per_class, c0=c0, h=h, w=w, seed=seed)


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
        assert np.array_equal(tapes.transform.k, covariance_forward(tapes.agg_input))

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
            _, _, tapes = forward(x, 0, params, pipe)
            assert check(certify(tapes.transform.k))

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
        grads = backward(tapes, params, pipe)
        for block in (
            grads.mix_weights,
            grads.mix_bias,
            grads.stiefel_euclid,
            grads.dense_weights,
            grads.dense_bias,
            grads.input,
        ):
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
            normalizations=NormFlags(power=False, l2=False),
        )
        report = grad_check(pipe, seed=1, tolerance=1e-5)
        assert report.all_passed, report.max_rel_err

    def test_corrupted_gradient_detected(self, monkeypatch):
        true_backward = network_mod.backward

        def corrupted(tapes, params, config):
            grads = true_backward(tapes, params, config)
            grads.stiefel_euclid = grads.stiefel_euclid * 1.01
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

    def test_stage1_mixer_override(self):
        ds = tiny_dataset()
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        tc = TrainConfig(
            lr_stage1=0.05, lr_stage2=0.0, epochs_per_stage=2, seed=6, batch_size=8,
            train_mix_in_stage1=True,
        )
        params, _ = train(ds, pipe, tc)
        initial = init_params(pipe, seeded_rng(6))
        assert not np.array_equal(params.mix.weights, initial.mix.weights)

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
        ds = tiny_dataset(seed=4)
        ds.samples[0, 0, 0, 0] = np.nan
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        with pytest.raises(NonFiniteError, match="input feature tensor"):
            train(
                (ds.samples, ds.labels), pipe,
                TrainConfig(epochs_per_stage=1, seed=0, batch_size=4),
            )

    def test_nan_loss_aborts(self, monkeypatch):
        # Poison the loss from the second sample of each slice on: the
        # message names the first poisoned sample in batch order.
        ds = tiny_dataset(seed=5)
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        true_loss = network_mod.dense_softmax_ce

        def poisoned(v, logits, params, label):
            loss, grads = true_loss(v, logits, params, label)
            loss = np.array(loss, dtype=np.float64)
            loss[1:] = np.nan
            return loss, grads

        monkeypatch.setattr(network_mod, "dense_softmax_ce", poisoned)
        rng = seeded_rng(0)
        init_params(pipe, rng)
        second = int(rng.permutation(len(ds.labels))[1])
        with pytest.raises(NonFiniteError, match=f"non-finite loss at epoch 1, sample {second}$"):
            network_mod.train(ds, pipe, TrainConfig(epochs_per_stage=1, seed=0, batch_size=4))

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
                (np.zeros((0, 6, 3, 3)), np.zeros(0, dtype=int)), pipe,
                TrainConfig(epochs_per_stage=1),
            )

    def test_out_of_range_label_rejected(self):
        ds = tiny_dataset(seed=6)
        pipe = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
        labels = ds.labels.copy()
        labels[0] = 5
        with pytest.raises(ValueError, match="labels must lie"):
            train((ds.samples, labels), pipe, TrainConfig(epochs_per_stage=1))


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

    def test_decay_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            TrainConfig(decay_factor=1.0)


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
        normalizations=NormFlags(power=False, l2=False),
    ),
]

GRAD_BLOCKS = (
    "mix_weights", "mix_bias", "stiefel_euclid", "dense_weights", "dense_bias", "input",
)


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
            grads = backward(tapes, params, pipe)
            single_losses.append(loss)
            single_logits.append(tapes.logits)
            for name in GRAD_BLOCKS:
                block = getattr(grads, name)
                if block is None:
                    continue
                if name in single_total:
                    single_total[name] += block
                else:
                    single_total[name] = block.copy()

        losses, logits, total = [], [], {}
        for start in range(0, 7, step):
            loss, _, tapes = forward(xs[start:start + step], labels[start:start + step],
                                     params, pipe)
            grads = backward(tapes, params, pipe)
            losses.extend(loss)
            logits.extend(tapes.logits)
            for name in GRAD_BLOCKS:
                if getattr(grads, name) is not None:
                    total[name] = network_mod._ordered_sum(total.get(name), getattr(grads, name))

        assert np.array_equal(losses, single_losses)
        assert np.array_equal(logits, single_logits)
        assert total.keys() == single_total.keys()
        for name in total:
            assert np.array_equal(total[name], single_total[name]), name

    def test_skipped_blocks_leave_the_rest_unchanged(self):
        rng = seeded_rng(21)
        xs = rng.standard_normal((4, 6, 3, 3))
        params = init_params(SMALL, rng, random_head=True)
        _, _, tapes = forward(xs, np.array([0, 1, 2, 0]), params, SMALL)
        full = backward(tapes, params, SMALL)
        for mix in (True, False):
            part = backward(tapes, params, SMALL, mix=mix, input=False)
            assert part.input is None
            for name in GRAD_BLOCKS[:-1]:
                block = getattr(part, name)
                if name.startswith("mix") and not mix:
                    assert block is None
                else:
                    assert np.array_equal(block, getattr(full, name)), name

    @pytest.mark.parametrize("pipe", BATCH_PIPELINES[:3])
    def test_training_independent_of_slice_size(self, monkeypatch, pipe):
        ds = tiny_dataset(seed=3)
        tc = TrainConfig(epochs_per_stage=2, seed=4, batch_size=7, train_mix_in_stage1=True)
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
