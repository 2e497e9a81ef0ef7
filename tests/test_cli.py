import json
import warnings

import numpy as np
import pytest

from spd_agg.cli import main, parse_config
from spd_agg import (
    NormFlags,
    PipelineConfig,
    checkpoint_read,
    checkpoint_write,
    init_params,
    save_checkpoint,
    seeded_rng,
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL_CONFIG = {
    "in_channels": 6,
    "mixed_channels": 5,
    "transform_dim": 3,
    "num_classes": 2,
    "epochs_per_stage": 2,
    "batch_size": 8,
    "seed": 3,
}


@pytest.fixture
def small_run(tmp_path, capsys):
    """Synth data + config files for a fast end-to-end CLI run."""
    data = tmp_path / "train.fts"
    code, out, _ = run(
        capsys,
        ["synth", "--classes", "2", "--per-class", "10", "--channels", "6",
         "--spatial", "3", "--seed", "1", "--out", str(data)],
    )
    assert code == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    return data, config


class TestParseConfig:
    def test_defaults(self):
        pipeline, tc = parse_config({})
        assert pipeline.in_channels == 16 and pipeline.aggregator == "kernel"
        assert tc.lr_stage1 == 0.1 and tc.epochs_per_stage == 15

    def test_nested_normalizations(self):
        pipeline, _ = parse_config({"normalizations": {"power": False, "l2": True}})
        assert pipeline.normalizations == NormFlags(power=False, l2=True)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            parse_config({"learning_rate": 0.1})

    def test_unknown_normalization_rejected(self):
        with pytest.raises(ValueError, match="normalization"):
            parse_config({"normalizations": {"batch": True}})


class TestSynth:
    def test_writes_manifest(self, tmp_path, capsys):
        out_path = tmp_path / "ds.fts"
        code, out, _ = run(
            capsys,
            ["synth", "--classes", "3", "--per-class", "4", "--channels", "5",
             "--spatial", "2", "--seed", "9", "--out", str(out_path)],
        )
        assert code == 0
        manifest = json.loads(out)
        assert manifest["samples"] == 12 and manifest["num_classes"] == 3
        assert out_path.exists()

    def test_deterministic_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a.fts", tmp_path / "b.fts"]
        for p in paths:
            code, _, _ = run(
                capsys,
                ["synth", "--classes", "2", "--per-class", "3", "--channels", "4",
                 "--spatial", "2", "--seed", "5", "--out", str(p)],
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestTrainEval:
    def test_train_then_eval(self, small_run, tmp_path, capsys):
        data, config = small_run
        metrics = tmp_path / "metrics.jsonl"
        ckpt = tmp_path / "model.ftsp"
        code, out, _ = run(
            capsys,
            ["train", "--data", str(data), "--test", str(data), "--config", str(config),
             "--out-metrics", str(metrics), "--out-ckpt", str(ckpt)],
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["epochs"] == 4

        lines = metrics.read_text().strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {
                "epoch", "stage", "mean_train_loss", "train_accuracy",
                "test_accuracy", "lr", "stiefel_orthogonality_error",
            }
            assert rec["stiefel_orthogonality_error"] < 1e-8

        code, out, _ = run(capsys, ["eval", "--data", str(data), "--ckpt", str(ckpt)])
        assert code == 0
        result = json.loads(out)
        assert result["samples"] == 20 and 0.0 <= result["accuracy"] <= 1.0

    def test_seed_flag_overrides_config(self, small_run, tmp_path, capsys):
        data, config = small_run
        outs = []
        for seed, name in (("3", "a"), ("4", "b"), ("3", "c")):
            metrics = tmp_path / f"m{name}.jsonl"
            code, _, _ = run(
                capsys,
                ["train", "--data", str(data), "--config", str(config),
                 "--seed", seed, "--out-metrics", str(metrics)],
            )
            assert code == 0
            outs.append(metrics.read_text())
        assert outs[0] == outs[2]
        assert outs[0] != outs[1]

    def test_channel_mismatch_fails_cleanly(self, small_run, tmp_path, capsys):
        data, _ = small_run
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, "in_channels": 7, "mixed_channels": 5}))
        code, _, err = run(
            capsys, ["train", "--data", str(data), "--config", str(bad)]
        )
        assert code == 1
        assert "channels" in err

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        code, _, err = run(capsys, ["eval", "--data", str(tmp_path / "no.fts"),
                                    "--ckpt", str(tmp_path / "no.ftsp")])
        assert code == 1
        assert "error:" in err


def _three_entries(blocks):
    blocks["pipeline_config"] = blocks["pipeline_config"][:, :3]


def _inf_entry(blocks):
    blocks["pipeline_config"][0, 0] = np.inf


def _fractional_aggregator(blocks):
    blocks["pipeline_config"][0, 5] = 0.5


def _aggregator_code_two(blocks):
    blocks["pipeline_config"][0, 5] = 2.0


def _empty_bias(blocks):
    blocks["dense.bias"] = np.zeros((0, 2))


def _non_orthonormal_w(blocks):
    blocks["stiefel.w"] = 5.0 * np.ones_like(blocks["stiefel.w"])


def _huge_w_entry(blocks):
    # Finite, but its square overflows: refused before W^T W is formed.
    blocks["stiefel.w"][0, 0] = 1e300


def _three_class_head(blocks):
    blocks["dense.weights"] = np.zeros((3, blocks["dense.weights"].shape[1]))
    blocks["dense.bias"] = np.zeros((1, 3))


def _narrow_w_and_head(blocks):
    # An orthonormal 5x2 W with a head sized for it, under transform_dim=3.
    blocks["stiefel.w"] = blocks["stiefel.w"][:, :2]
    blocks["dense.weights"] = blocks["dense.weights"][:, :3]


def _no_input_channels(blocks):
    blocks["pipeline_config"][0, 0] = 0.0


def _transform_dim_above_channels(blocks):
    blocks["pipeline_config"][0, 2] = 6.0


def _wide_bias(blocks):
    blocks["dense.bias"] = np.zeros((1, 3))


def _transposed_w(blocks):
    blocks["stiefel.w"] = blocks["stiefel.w"].T.copy()


def _nan_dense_weight(blocks):
    blocks["dense.weights"][0, 0] = np.nan


def _extra_block(blocks):
    blocks["spare"] = np.zeros((1, 1))


class TestCheckpointValidation:
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_three_entries, "1x8"),
            (_inf_entry, "finite integers"),
            (_fractional_aggregator, "finite integers"),
            (_aggregator_code_two, "0 or 1"),
            (_empty_bias, "1 row"),
            (_non_orthonormal_w, "orthonormal"),
            (_huge_w_entry, "exceeds 1"),
            (_three_class_head, "must be 2 rows x 6 columns"),
            (_narrow_w_and_head, "must be 5 rows x 3 columns"),
            (_no_input_channels, "not a valid pipeline"),
            (_transform_dim_above_channels, "not a valid pipeline"),
            (_wide_bias, "must be 1 row x 2 columns"),
            (_transposed_w, "must be 5 rows x 3 columns"),
            (_nan_dense_weight, "'dense.weights' contains non-finite"),
            (_extra_block, "unexpected blocks ['spare']"),
        ],
    )
    def test_bad_checkpoint_fails_cleanly(self, small_run, tmp_path, capsys, corrupt, message):
        data, _ = small_run
        pipeline = PipelineConfig(
            in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2
        )
        ckpt = tmp_path / "model.ftsp"
        save_checkpoint(ckpt, init_params(pipeline, seeded_rng(2)), pipeline)
        blocks = checkpoint_read(ckpt)
        corrupt(blocks)
        checkpoint_write(ckpt, blocks)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["eval", "--data", str(data), "--ckpt", str(ckpt)])
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err
        assert not caught, [str(w.message) for w in caught]


def test_semantic_checkpoint_error_has_no_byte_offset(small_run, tmp_path, capsys):
    data, _ = small_run
    pipeline = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
    ckpt = tmp_path / "model.ftsp"
    save_checkpoint(ckpt, init_params(pipeline, seeded_rng(2)), pipeline)
    blocks = checkpoint_read(ckpt)
    _non_orthonormal_w(blocks)
    checkpoint_write(ckpt, blocks)
    code, _, err = run(capsys, ["eval", "--data", str(data), "--ckpt", str(ckpt)])
    assert code == 1 and "orthonormal" in err
    assert "at byte" not in err


class TestGradcheck:
    def test_default_config_passes(self, capsys):
        code, out, _ = run(capsys, ["gradcheck"])
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert report["tolerance"] == 1e-5

    def test_custom_tolerance_in_report(self, capsys):
        code, out, _ = run(capsys, ["gradcheck", "--tol", "0.5"])
        assert code == 0
        assert json.loads(out)["tolerance"] == 0.5

    def test_failing_block_exits_nonzero(self, capsys):
        # an impossible tolerance forces every block to fail
        code, out, _ = run(capsys, ["gradcheck", "--tol", "1e-20"])
        assert code == 1
        assert json.loads(out)["all_passed"] is False

    def test_deterministic_under_seed(self, capsys):
        _, out_a, _ = run(capsys, ["gradcheck", "--seed", "5"])
        _, out_b, _ = run(capsys, ["gradcheck", "--seed", "5"])
        assert out_a == out_b


class TestCertify:
    def test_kernel_definite_where_covariance_degenerates(self, capsys):
        args = ["--channels", "64", "--spatial", "2", "--trials", "5", "--seed", "0"]
        code, out, _ = run(capsys, ["certify", "--aggregator", "kernel", *args])
        assert code == 0
        kernel_report = json.loads(out)
        assert kernel_report["min_eig_aggregate"] > 0.0
        assert kernel_report["min_eig_transformed"] > 0.0

        code, out, _ = run(capsys, ["certify", "--aggregator", "covariance", *args])
        assert code == 0
        cov_report = json.loads(out)
        assert cov_report["min_eig_aggregate"] <= 1e-10

    def test_deterministic_output(self, capsys):
        args = ["certify", "--aggregator", "kernel", "--channels", "8",
                "--spatial", "3", "--trials", "3", "--seed", "42"]
        _, out_a, _ = run(capsys, args)
        _, out_b, _ = run(capsys, args)
        assert out_a == out_b


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--classes", "2"])
        assert exc.value.code == 2

    def test_bad_aggregator_choice_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--aggregator", "poly", "--channels", "4",
                  "--spatial", "2", "--trials", "1", "--seed", "0"])
        assert exc.value.code == 2
