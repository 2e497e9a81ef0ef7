"""Public refusals that no other test runs in-process: each call is refused
with the exception type and message it names."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spd_agg import (
    DenseParams,
    FtsDataset,
    FtsParseError,
    MixParams,
    NonFiniteError,
    PipelineConfig,
    ShapeMismatchError,
    StiefelPoint,
    TrainConfig,
    covariance_backward,
    covariance_forward,
    dense_logits,
    forward,
    fts_read,
    fts_write,
    init_params,
    matmul,
    mix_backward,
    mix_forward,
    qr_reduced,
    retract_step,
    save_checkpoint,
    seeded_rng,
    split_by_class,
    stiefel_init,
    sym_eigvals,
    synth_generate,
    tangent_project,
    vectorize,
)
from spd_agg.cli import main
from spd_agg.kernel import as_feature_matrix

MIXED = PipelineConfig(in_channels=6, mixed_channels=5, transform_dim=3, num_classes=2)
UNMIXED = PipelineConfig(in_channels=6, mixed_channels=0, transform_dim=3, num_classes=2)


def _point():
    return stiefel_init(4, 2, seeded_rng(0))


def _mix_tape():
    params = init_params(MIXED, seeded_rng(0))
    return mix_forward(np.zeros((6, 3, 3)), params.mix)[1]


CASES = {
    "stiefel-point-wide": (
        lambda: StiefelPoint(np.zeros((2, 3))),
        ShapeMismatchError, "needs rows >= cols >= 1, got shape (2, 3)",
    ),
    "tangent-project-grad": (
        lambda: tangent_project(_point(), np.zeros((4, 3))),
        ShapeMismatchError, "gradient shape (4, 3) does not match point shape (4, 2)",
    ),
    "retract-step-grad": (
        lambda: retract_step(_point(), np.zeros((3, 2)), 0.1),
        ShapeMismatchError, "gradient shape (3, 2) does not match point shape (4, 2)",
    ),
    "vectorize-non-square": (
        lambda: vectorize(np.zeros((2, 3))),
        ShapeMismatchError, "vectorize input must be square, got shape (2, 3)",
    ),
    "dense-params-bias": (
        lambda: DenseParams(np.zeros((2, 3)), np.zeros(3)),
        ShapeMismatchError, "shapes inconsistent: weights (2, 3), bias (3,)",
    ),
    "mix-params-bias": (
        lambda: MixParams(np.zeros((5, 6)), np.zeros(6)),
        ShapeMismatchError, "shapes inconsistent: weights (5, 6), bias (6,)",
    ),
    "dense-logits-length": (
        lambda: dense_logits(np.zeros(5), DenseParams(np.zeros((2, 3)), np.zeros(2))),
        ShapeMismatchError, "input length (5,) does not match weight columns (3,)",
    ),
    "feature-matrix-1d": (
        lambda: as_feature_matrix(np.zeros(4)),
        ShapeMismatchError, "got shape (4,)",
    ),
    "covariance-nan": (
        lambda: covariance_forward(np.array([[0.0, np.nan], [1.0, 2.0]])),
        NonFiniteError, "covariance input contains non-finite values",
    ),
    "covariance-backward-grad": (
        lambda: covariance_backward(np.zeros((3, 4)), np.zeros((2, 2))),
        ShapeMismatchError, "gradient shape (2, 2) does not match covariance shape (3, 3)",
    ),
    "qr-1d": (
        lambda: qr_reduced(np.zeros(3)),
        ShapeMismatchError, "qr input must be 2-D, got shape (3,)",
    ),
    "matmul-1d": (
        lambda: matmul(np.zeros(3), np.zeros((3, 2))),
        ShapeMismatchError, "operands must be at least 2-D, got (3,) and (3, 2)",
    ),
    "eigvals-non-square": (
        lambda: sym_eigvals(np.zeros((2, 3))),
        ShapeMismatchError, "eigvals input must be square, got (2, 3)",
    ),
    "negative-mixed-channels": (
        lambda: PipelineConfig(in_channels=6, mixed_channels=-1, transform_dim=3, num_classes=2),
        ValueError, "mixed_channels must be >= 0",
    ),
    "batch-size-0": (
        lambda: TrainConfig(batch_size=0),
        ValueError, "batch size must be >= 1",
    ),
    "mix-forward-2d": (
        lambda: mix_forward(np.zeros((6, 9)), init_params(MIXED, seeded_rng(0)).mix),
        ShapeMismatchError, "mixer input must be (C, H, W) or (B, C, H, W), got shape (6, 9)",
    ),
    "mix-forward-channels": (
        lambda: mix_forward(np.zeros((5, 3, 3)), init_params(MIXED, seeded_rng(0)).mix),
        ShapeMismatchError, "inner dimensions differ: 5x6 times 5x9",
    ),
    "mix-backward-grad": (
        lambda: mix_backward(_mix_tape(), np.zeros((5, 8))),
        ShapeMismatchError, "upstream gradient shape (5, 8) does not match (5, 9)",
    ),
    "forward-2d": (
        lambda: forward(np.zeros((6, 9)), 0, init_params(MIXED, seeded_rng(0)), MIXED),
        ShapeMismatchError, "input must be (C, H, W) or (B, C, H, W), got shape (6, 9)",
    ),
    "forward-channels-without-mixer": (
        lambda: forward(np.zeros((5, 3, 3)), 0, init_params(UNMIXED, seeded_rng(0)), UNMIXED),
        ShapeMismatchError, "input has 5 channels, config expects 6",
    ),
    "fts-dataset-label-count": (
        lambda: FtsDataset(np.zeros((3, 1, 2, 2)), [0, 1], 2),
        ShapeMismatchError, "3 samples but (2,) labels",
    ),
    "fts-write-zero-dimension": (
        lambda: fts_write(FtsDataset(np.zeros((2, 1, 0, 3)), [0, 1], 2), "unwritten.fts"),
        ValueError, "counts must be >= 1, got shape (1, 0, 3)",
    ),
    "synth-per-class-0": (
        lambda: synth_generate(num_classes=2, per_class=0, c0=3, h=2, w=2, seed=0),
        ValueError, "per_class and tensor dimensions must be >= 1",
    ),
    "split-empty-side": (
        lambda: split_by_class(synth_generate(2, 2, 3, 2, 2, seed=0), train_per_class=2),
        ValueError, "split leaves an empty side",
    ),
}


@pytest.mark.parametrize("call, error, fragment", CASES.values(), ids=CASES.keys())
def test_refused(tmp_path, monkeypatch, call, error, fragment):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error, match=re.escape(fragment)) as refused:
        call()
    assert type(refused.value) is error
    assert list(tmp_path.iterdir()) == []


def test_cli_refusals(tmp_path, monkeypatch, capsys):
    """A config file holding a JSON list, ``gradcheck --config`` past the
    parameter cap, and ``train`` on the default config without
    ``--config``: each exits 1 with one error line."""
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--classes", "2", "--per-class", "2", "--channels", "6",
                 "--spatial", "3", "--seed", "0", "--out", "six.fts"]) == 0
    json_list = tmp_path / "list.json"
    json_list.write_text("[1, 2]")
    large = tmp_path / "large.json"
    large.write_text(json.dumps({"in_channels": 64, "mixed_channels": 64, "transform_dim": 32}))
    capsys.readouterr()
    for argv, message in [
        (["train", "--data", "six.fts", "--config", str(json_list)],
         "config file must hold one JSON object"),
        (["gradcheck", "--config", str(large)],
         "configuration has 7266 parameters; the finite-difference check is capped at 5000"),
        (["train", "--data", "six.fts"], "training set has 6 channels, config expects 16"),
    ]:
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("size", [0, 4, 27])
def test_file_shorter_than_the_fts_header(tmp_path, monkeypatch, capsys, size):
    """The first ``size`` bytes of an FTS1 file, short of its 28-byte
    header: refused with the file length as the offset, in-process and
    through ``eval`` (exit 1, one error line)."""
    monkeypatch.chdir(tmp_path)
    fts_write(synth_generate(2, 2, 6, 3, 3, seed=0), "full.fts")
    (tmp_path / "short.fts").write_bytes((tmp_path / "full.fts").read_bytes()[:size])
    message = f"truncated header: need 28 bytes, file has {size} (at byte {size})"
    with pytest.raises(FtsParseError, match=f"^{re.escape(message)}$") as refused:
        fts_read("short.fts")
    assert refused.value.offset == size
    save_checkpoint("model.ftsp", init_params(UNMIXED, seeded_rng(0)), UNMIXED)
    assert main(["eval", "--data", "short.fts", "--ckpt", "model.ftsp"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


#: Paths that hold no FTS1 file, each as a function of a scratch
#: directory, with what ``fts_read`` raises for it.
NOT_FTS = {
    "empty": (lambda d: _written(d, b""), FtsParseError, "file has 0"),
    "five-bytes": (lambda d: _written(d, b"FTS1\x01"), FtsParseError, "file has 5"),
    "directory": (lambda d: d, IsADirectoryError, "Is a directory"),
    "dev-null": (lambda d: os.devnull, FtsParseError, "file has 0"),
}


def _written(directory, data: bytes) -> str:
    path = directory / "data.fts"
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("make, error, fragment", NOT_FTS.values(), ids=NOT_FTS.keys())
def test_mapped_read_refuses_what_is_no_fts_file(tmp_path, make, error, fragment):
    """``fts_read`` refuses each path before it maps anything, and
    ``spd-agg eval`` on it exits 1 with one error line, in a fresh
    process with every warning an error."""
    path = make(tmp_path)
    with pytest.raises(error, match=re.escape(fragment)):
        fts_read(path)
    save_checkpoint(tmp_path / "model.ftsp", init_params(UNMIXED, seeded_rng(0)), UNMIXED)
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "spd_agg.cli", "eval", "--data", str(path),
         "--ckpt", str(tmp_path / "model.ftsp")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "error"},
    )
    assert done.returncode == 1 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")
    assert fragment in done.stderr and "Traceback" not in done.stderr
