import argparse
import dataclasses
import json
import os
import pathlib
import re
import struct
import subprocess
import sys
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spd_agg.cli as cli
from spd_agg.cli import _FIELD_TYPES, _JSON_TYPES, main, parse_config
from spd_agg import (
    PipelineConfig,
    TrainConfig,
    evaluate_accuracy,
    fts_read,
    init_params,
    load_checkpoint,
    save_checkpoint,
    seeded_rng,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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

    def test_flat_normalization_keys(self):
        pipeline, _ = parse_config({"power_norm": False, "l2_norm": True})
        assert not pipeline.power_norm and pipeline.l2_norm

    def test_readme_example_holds_every_field(self):
        # The README example is the full config: every field of the two
        # dataclasses, and nothing else; every field type has a JSON type.
        section = README.read_text(encoding="utf-8").split("### Config JSON", 1)[1]
        raw = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
        parse_config(raw)
        fields = {f.name for cls in (PipelineConfig, TrainConfig) for f in dataclasses.fields(cls)}
        assert set(raw) == fields
        assert set(_FIELD_TYPES.values()) == set(_JSON_TYPES)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            parse_config({"learning_rate": 0.1})

    @pytest.mark.parametrize(
        "removed",
        [
            {"normalizations": {"power": True, "l2": True}},
            {"lr_stiefel": None},
            {"decay_factor": 10.0},
            {"plateau_patience": 3},
            {"train_mix_in_stage1": False},
        ],
        ids=lambda removed: next(iter(removed)),
    )
    def test_removed_key_fails_cleanly(self, small_run, tmp_path, capsys, removed):
        data, _ = small_run
        old = tmp_path / "old.json"
        old.write_text(json.dumps({**SMALL_CONFIG, **removed}))
        code, out, err = run(capsys, ["train", "--data", str(data), "--config", str(old)])
        assert code == 1 and out == ""
        assert err == f"error: unknown config keys: {list(removed)}\n"

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"batch_size": 2.5}', "batch_size"),
            ('{"epochs_per_stage": "2"}', "epochs_per_stage"),
            ('{"in_channels": 16.0}', "in_channels"),
            ('{"use_spd_relu": "yes"}', "use_spd_relu"),
            ('{"seed": 1.5}', "seed"),
            ('{"seed": -1}', "seed"),
            ('{"batch_size": null}', "batch_size"),
            ('{"power_norm": "no"}', "power_norm"),
            ('{"l2_norm": 1}', "l2_norm"),
            ('{"lr_stage1": NaN}', "lr_stage1"),
            ('{"lr_stage2": Infinity}', "lr_stage2"),
        ],
    )
    def test_malformed_value_fails_cleanly(self, small_run, tmp_path, capsys, text, key):
        data, _ = small_run
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, **json.loads(text)}))
        code, out, err = run(capsys, ["train", "--data", str(data), "--config", str(bad)])
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:") and key in err

    @pytest.mark.parametrize(
        "command, text, message",
        [
            pytest.param(
                command, f'{{"{key}": {sign}1{"0" * 400}}}', f"{key} must be a finite float64 >= 0",
                id=f"{command}-{key}-{sign}1e400",
            )
            for command in ("train", "gradcheck")
            for key in ("lr_stage1", "lr_stage2")
            for sign in ("", "-")
        ]
        + [
            pytest.param(
                "gradcheck", '{"seed": -1}', "seed must be >= 0, got -1",
                id="gradcheck-seed-minus-1",
            )
        ],
    )
    def test_out_of_range_value_fails_cleanly(
        self, small_run, tmp_path, capsys, command, text, message
    ):
        # An integer beyond float64 is a JSON number, so it passes the
        # type check; the range check must refuse it without converting.
        # gradcheck reads no seed from the config, yet refuses a negative
        # one, as train does.
        data, _ = small_run
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, **json.loads(text)}))
        argv = [command, "--config", str(bad)]
        if command == "train":
            argv += ["--data", str(data)]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")
        assert "Traceback" not in err


_BEYOND_FLOAT = st.sampled_from([10**400, -(10**400), 2**1024])

#: Every type of JSON value Python's ``json`` reads, nested: integers
#: beyond float64 among them, and NaN and infinities, which it reads too.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _BEYOND_FLOAT | st.floats() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)

#: Values of each field's JSON type, extremes included.
_TYPED_VALUES = {
    "bool": st.booleans(),
    "int": st.integers() | _BEYOND_FLOAT,
    "float": st.integers() | _BEYOND_FLOAT | st.floats(),
    "str": st.sampled_from(["kernel", "covariance"]) | st.text(max_size=8),
}


@st.composite
def _raw_configs(draw):
    """A config object: known keys with values of their type or of any
    type, and now and then an unknown key."""
    keys = draw(st.lists(st.sampled_from(sorted(_FIELD_TYPES)), unique=True, max_size=6))
    raw = {key: draw(_TYPED_VALUES[_FIELD_TYPES[key]] | _JSON_VALUES) for key in keys}
    return raw | draw(st.dictionaries(st.text(max_size=12), _JSON_VALUES, max_size=1))


class TestParseConfigProperty:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(raw=_raw_configs())
    @example(raw={"lr_stage1": 10**400})
    def test_any_object_gives_configs_or_value_error(self, raw):
        try:
            pipeline, tc = parse_config(raw)
        except ValueError:
            return
        assert type(pipeline) is PipelineConfig and type(tc) is TrainConfig
        fields = dataclasses.asdict(pipeline) | dataclasses.asdict(tc)
        assert all(fields[key] == value for key, value in raw.items())


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

    def test_zero_epochs_write_empty_metrics(self, small_run, tmp_path, capsys):
        data, config = small_run
        config.write_text(json.dumps({**SMALL_CONFIG, "epochs_per_stage": 0}))
        metrics = tmp_path / "metrics.jsonl"
        ckpt = tmp_path / "model.ftsp"
        code, out, _ = run(
            capsys,
            ["train", "--data", str(data), "--test", str(data), "--config", str(config),
             "--out-metrics", str(metrics), "--out-ckpt", str(ckpt)],
        )
        assert code == 0
        assert json.loads(out)["epochs"] == 0
        assert metrics.read_bytes() == b""
        params, pipeline = load_checkpoint(ckpt)
        initial = init_params(pipeline, seeded_rng(SMALL_CONFIG["seed"])).blocks()
        assert params.blocks().keys() == initial.keys()
        for name, block in params.blocks().items():
            assert block.tobytes() == initial[name].tobytes(), name

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

    def test_negative_seed_flag_fails_cleanly(self, small_run, capsys):
        data, config = small_run
        code, out, err = run(
            capsys, ["train", "--data", str(data), "--config", str(config), "--seed", "-1"]
        )
        assert code == 1 and out == ""
        assert err == "error: seed must be >= 0, got -1\n"

    def test_channel_mismatch_fails_cleanly(self, small_run, tmp_path, capsys):
        data, _ = small_run
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, "in_channels": 7, "mixed_channels": 5}))
        code, out, err = run(
            capsys, ["train", "--data", str(data), "--config", str(bad)]
        )
        assert (code, out) == (1, "")
        assert err == "error: training set has 6 channels, config expects 7\n"

    @pytest.mark.parametrize("where, name", [("test", "held-out"), ("eval", "evaluation")])
    def test_wrong_channel_count_names_the_set(self, small_run, tmp_path, capsys, where, name):
        # A 7-channel held-out or eval file where the config takes 6: one
        # error line that names the set and both counts.
        data, config = small_run
        seven = tmp_path / "seven.fts"
        argv = ["synth", "--classes", "2", "--per-class", "4", "--channels", "7",
                "--spatial", "3", "--seed", "1", "--out", str(seven)]
        assert run(capsys, argv)[0] == 0
        if where == "eval":
            ckpt = tmp_path / "model.ftsp"
            argv = ["train", "--data", str(data), "--config", str(config), "--out-ckpt", str(ckpt)]
            assert run(capsys, argv)[0] == 0
            argv = ["eval", "--data", str(seven), "--ckpt", str(ckpt)]
        else:
            argv = ["train", "--data", str(data), "--test", str(seven), "--config", str(config)]
        assert run(capsys, argv) == (
            1, "", f"error: {name} set has 7 channels, config expects 6\n"
        )

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        code, _, err = run(capsys, ["eval", "--data", str(tmp_path / "no.fts"),
                                    "--ckpt", str(tmp_path / "no.ftsp")])
        assert code == 1
        assert "error:" in err


class TestLabelRule:
    """A file's labels are checked against the config's class count: a file
    may lack the highest class, and a label at or beyond the count is
    refused with one error line."""

    def synth(self, capsys, path, classes):
        code, _, _ = run(
            capsys,
            ["synth", "--classes", str(classes), "--per-class", "6", "--channels", "6",
             "--spatial", "3", "--seed", "1", "--out", str(path)],
        )
        assert code == 0
        return str(path)

    def config(self, tmp_path, classes):
        path = tmp_path / f"config{classes}.json"
        path.write_text(json.dumps({**SMALL_CONFIG, "num_classes": classes}))
        return str(path)

    def test_file_without_the_top_class_is_scored(self, tmp_path, capsys):
        three = self.synth(capsys, tmp_path / "three.fts", 3)
        two = self.synth(capsys, tmp_path / "two.fts", 2)
        ckpt = tmp_path / "model.ftsp"
        code, out, err = run(
            capsys,
            ["train", "--data", three, "--test", two, "--config", self.config(tmp_path, 3),
             "--out-ckpt", str(ckpt)],
        )
        assert code == 0, err
        assert 0.0 <= json.loads(out)["final_test_accuracy"] <= 1.0
        code, out, err = run(capsys, ["eval", "--data", two, "--ckpt", str(ckpt)])
        assert code == 0, err
        ds = fts_read(two)
        assert json.loads(out) == {
            "accuracy": evaluate_accuracy(ds.samples, ds.labels, *load_checkpoint(ckpt)),
            "samples": 12,
        }

    @pytest.mark.parametrize("where", ["train", "test", "eval"])
    def test_label_beyond_the_config_exits_1(self, tmp_path, capsys, where):
        three = self.synth(capsys, tmp_path / "three.fts", 3)
        two = self.synth(capsys, tmp_path / "two.fts", 2)
        config = self.config(tmp_path, 2)
        if where == "eval":
            ckpt = str(tmp_path / "model.ftsp")
            argv = ["train", "--data", two, "--config", config, "--out-ckpt", ckpt]
            assert run(capsys, argv)[0] == 0
            argv = ["eval", "--data", three, "--ckpt", ckpt]
        else:
            data, test = (three, two) if where == "train" else (two, three)
            argv = ["train", "--data", data, "--test", test, "--config", config]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err == "error: labels must lie in [0, 2), got range [0, 2]\n"


class TestParserBuiltOnce:
    def test_two_calls_build_one_parser(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(2):
            assert run(capsys, ["gradcheck", "--tol", "nan"])[0] == 1
        # the top-level parser and one per subcommand, once
        assert built.count("spd-agg") == 1 and len(built) == 6

    def test_seed_flag_does_not_outlive_its_call(self, small_run, tmp_path, monkeypatch, capsys):
        data, _ = small_run
        config = tmp_path / "seed5.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "seed": 5}))
        seeds = []
        true_train = cli.train

        def recording_train(dataset, pipeline, tc, test_dataset=None):
            seeds.append(tc.seed)
            return true_train(dataset, pipeline, tc, test_dataset=test_dataset)

        monkeypatch.setattr(cli, "train", recording_train)
        for flag in (["--seed", "3"], []):
            argv = ["train", "--data", str(data), "--config", str(config), *flag]
            assert run(capsys, argv)[0] == 0
        assert seeds == [3, 5]


def _doctored_checkpoint(path, corrupt):
    """The small pipeline's checkpoint at ``path``, with ``corrupt``
    applied to its bytes and the CRC32 trailer re-sealed over the result."""
    pipeline = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
    save_checkpoint(path, init_params(pipeline, seeded_rng(2)), pipeline)
    blob = bytearray(path.read_bytes())
    corrupt(blob)
    blob[-4:] = struct.pack("<I", zlib.crc32(blob[:-4]))
    path.write_bytes(blob)


def _floats(blob):
    """The payload of an FTSP v2 file, writable through ``blob``."""
    return np.frombuffer(blob, dtype="<f8", offset=40, count=(len(blob) - 44) // 8)


# In the small pipeline's payload, W follows 30 mixer weights and 5 mixer
# biases, and the dense weights follow the 15 entries of W.
W_AT, DENSE_AT = 35, 50


def _aggregator_code_two(blob):
    struct.pack_into("<I", blob, 28, 2)


def _non_orthonormal_w(blob):
    _floats(blob)[W_AT:DENSE_AT] = 5.0


def _w_entry_moved(blob):
    # ||W^T W - I||_F near 1e-6: above the 1e-8 tolerance, not gross.
    _floats(blob)[W_AT] += 1e-6


def _huge_w_entry(blob):
    # Finite, but its square overflows: refused before W^T W is formed.
    _floats(blob)[W_AT] = 1e300


def _no_input_channels(blob):
    struct.pack_into("<I", blob, 8, 0)


def _transform_dim_above_channels(blob):
    struct.pack_into("<I", blob, 16, 6)


def _nan_dense_weight(blob):
    _floats(blob)[DENSE_AT] = np.nan


def _short_payload(blob):
    del blob[-12:-4]


def _long_payload(blob):
    blob[-4:-4] = bytes(8)


class TestCheckpointValidation:
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_aggregator_code_two, "0 or 1"),
            (_non_orthonormal_w, "orthonormal"),
            (_w_entry_moved, "orthonormal"),
            (_huge_w_entry, "exceeds 1"),
            (_no_input_channels, "not a valid pipeline"),
            (_transform_dim_above_channels, "not a valid pipeline"),
            (_nan_dense_weight, "'dense.weights' contains non-finite"),
            (_short_payload, "length mismatch"),
            (_long_payload, "length mismatch"),
        ],
    )
    def test_bad_checkpoint_fails_cleanly(self, small_run, tmp_path, capsys, corrupt, message):
        data, _ = small_run
        ckpt = tmp_path / "model.ftsp"
        _doctored_checkpoint(ckpt, corrupt)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["eval", "--data", str(data), "--ckpt", str(ckpt)])
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err and len(err.splitlines()) == 1
        assert not caught, [str(w.message) for w in caught]


def test_eval_overflow_names_sample_and_layer(small_run, tmp_path, capsys):
    data, _ = small_run
    pipeline = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
    params = init_params(pipeline, seeded_rng(2))
    params.head.weights[:] = 1e308
    ckpt = tmp_path / "model.ftsp"
    save_checkpoint(ckpt, params, pipeline)
    with np.errstate(over="ignore"):
        code, out, err = run(capsys, ["eval", "--data", str(data), "--ckpt", str(ckpt)])
    assert code == 1 and out == ""
    assert err == (
        "error: non-finite value at sample 0: "
        "non-finite values first appeared in: classifier logits\n"
    )


def test_semantic_checkpoint_error_has_no_byte_offset(small_run, tmp_path, capsys):
    data, _ = small_run
    ckpt = tmp_path / "model.ftsp"
    _doctored_checkpoint(ckpt, _non_orthonormal_w)
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


class TestRefusedFlags:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["synth", "--classes", "2", "--per-class", "2", "--channels", "3",
              "--spatial", "2", "--seed", "-1", "--out", "ds.fts"], "seed must be >= 0, got -1"),
            (["gradcheck", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["certify", "--aggregator", "kernel", "--channels", "4", "--spatial", "2",
              "--trials", "1", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["certify", "--aggregator", "kernel", "--channels", "4", "--spatial", "2",
              "--trials", "0", "--seed", "0"], "--trials must be >= 1, got 0"),
            (["certify", "--aggregator", "covariance", "--channels", "4", "--spatial", "2",
              "--trials", "-2", "--seed", "0"], "--trials must be >= 1, got -2"),
            (["gradcheck", "--tol", "nan"], "--tol must be finite, got nan"),
            (["gradcheck", "--tol", "inf"], "--tol must be finite, got inf"),
        ],
        ids=["synth-seed", "gradcheck-seed", "certify-seed", "trials-0", "trials-minus-2",
             "tol-nan", "tol-inf"],
    )
    def test_value_refused_by_name(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"
        assert not (tmp_path / "ds.fts").exists()


class TestModuleEntry:
    """``python3 -m spd_agg.cli`` runs the CLI, exit code included, with
    every warning an error."""

    def run_module(self, *argv):
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "spd_agg.cli", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error"},
        )

    def test_gradcheck_prints_report(self):
        done = self.run_module("gradcheck")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["all_passed"] is True
        assert done.stderr == ""

    def test_refused_value_exits_1(self):
        done = self.run_module(
            "certify", "--aggregator", "kernel", "--channels", "4", "--spatial", "2",
            "--trials", "0", "--seed", "0",
        )
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == "error: --trials must be >= 1, got 0\n"

    def test_too_deeply_nested_config_exits_1(self, small_run, tmp_path):
        data, _ = small_run
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        done = self.run_module("train", "--data", str(data), "--config", str(deep))
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == "error: config file nests too deeply\n"


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
