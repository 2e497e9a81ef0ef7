"""The benchmark's three workloads: inputs, one measured round, checks.

Each workload is a closed-loop batch job in one process.  ``setup`` makes
the inputs from the benchmark seed, ``run_round`` makes one whole round
of the same operations, and ``check`` compares the program's outputs
with properties the method must have or with ``reference.py``.  Every
call into the program goes through a module attribute (``network.train``,
``cli.main`` ...), so the tracer sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from spd_agg import cli, data, kernel, network

#: Held-out accuracy that ends ``time_to_target_s`` (criterion 08's bar).
TARGET_ACCURACY = 0.95

#: ``stiefel_orthogonality_error`` allowed in any epoch.
ORTHO_TOL = 1e-10

#: Allowed relative logit difference between program and reference.
LOGIT_TOL = 1e-10

#: Held-out accuracy train_c64n4 must end at, above the 0.5 of chance.
CHANCE_MARGIN = 0.25

#: A training round splits its evaluations into this many blocks.
EVAL_BLOCKS = 5


@dataclass
class Figures:
    """What one set-up or one round measured."""

    ops: int = 0
    failed: int = 0
    #: (start, end, samples stepped, time to target or None) per train call
    train_calls: list = field(default_factory=list)
    #: (start, end, predictions) per successful eval call
    eval_calls: list = field(default_factory=list)
    history: list = field(default_factory=list)
    eval_outputs: list = field(default_factory=list)

    @property
    def time_to_target_s(self) -> float | None:
        return self.train_calls[0][3] if self.train_calls else None


def timed_train(train_ds, test_ds, pipeline, tc, figures: Figures):
    """``network.train`` with per-epoch held-out evaluation; records the
    rate, the time to target and the operations it made."""
    start = time.perf_counter()
    params, history = network.train(train_ds, pipeline, tc, test_dataset=test_ds)
    end = time.perf_counter()
    epochs = len(history)
    figures.ops += epochs * (len(train_ds) + len(test_ds))
    target_s, elapsed_ms = None, 0.0
    for rec in history:
        elapsed_ms += rec.wall_ms
        if rec.test_accuracy >= TARGET_ACCURACY:
            target_s = elapsed_ms / 1000.0
            break
    figures.train_calls.append((start, end, epochs * len(train_ds), target_s))
    figures.history = history
    return params


def timed_eval(eval_path: Path, ckpt_path: Path, samples: int, figures: Figures) -> None:
    """``spd-agg eval`` through ``cli.main``; parsing and checkpoint
    loading are inside the timed call, as a user pays for them."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["eval", "--data", str(eval_path), "--ckpt", str(ckpt_path)])
    end = time.perf_counter()
    figures.ops += samples
    if code != 0:
        figures.failed += samples
        figures.eval_outputs.append({"exit_code": code})
        return
    figures.eval_calls.append((start, end, samples))
    figures.eval_outputs.append(json.loads(out.getvalue().splitlines()[-1]))


def permuted(ds, rng):
    """The same samples in a seed-drawn order."""
    order = rng.permutation(len(ds))
    return data.FtsDataset(ds.samples[order], ds.labels[order], ds.num_classes)


def param_arrays(params) -> dict:
    """Trained parameters as plain arrays under the checkpoint block names."""
    arrays = {
        "stiefel.w": params.transform.w,
        "dense.weights": params.head.weights,
        "dense.bias": params.head.bias,
    }
    if params.mix is not None:
        arrays["mix.weights"] = params.mix.weights
        arrays["mix.bias"] = params.mix.bias
    return arrays


class TrainWorkload:
    """Train through ``network.train``, write the checkpoint, then evaluate
    it with ``spd-agg eval`` on the held-out set.

    The training inputs are fixed: the epoch at which held-out accuracy
    first reaches the target moves by several epochs from one data seed
    to the next (see README), which would swamp ``time_to_target_s``.
    The benchmark seed draws the order of the evaluation file and the
    probe samples.
    """

    min_rounds = 2  # repeats are compared byte for byte

    def __init__(self, synth: dict, train_per_class: int, pipeline, tc, evals_per_round: int,
                 calibration, final_accuracy=None):
        self.synth = synth
        self.calibration = calibration
        self.evals_per_round = evals_per_round
        self.train_per_class = train_per_class
        self.pipeline = pipeline
        self.tc = tc
        self.final_accuracy = final_accuracy

    def setup(self, workdir: Path, seed: int):
        full = data.synth_generate(**self.synth)
        train_ds, test_ds = data.split_by_class(full, self.train_per_class)
        rng = np.random.default_rng(seed)
        eval_path = workdir / "eval.fts"
        data.fts_write(permuted(test_ds, rng), eval_path)
        probes = rng.choice(len(test_ds), size=4, replace=False)
        state = {
            "train": train_ds,
            "test": test_ds,
            "eval_path": eval_path,
            "ckpt_path": workdir / "model.ftsp",
            "probes": test_ds.samples[probes],
        }
        return state, Figures()

    def run_round(self, state, pause) -> Figures:
        """``pause`` runs after the training call and between blocks of
        evaluations, so each timed call has a calibration slice nearby."""
        figures = Figures()
        params = timed_train(state["train"], state["test"], self.pipeline, self.tc, figures)
        data.save_checkpoint(state["ckpt_path"], params, self.pipeline)
        for _ in range(EVAL_BLOCKS):
            pause()
            for _ in range(self.evals_per_round // EVAL_BLOCKS):
                timed_eval(state["eval_path"], state["ckpt_path"], len(state["test"]), figures)
        return figures

    def check(self, state, setups, rounds) -> list[str]:
        problems = []
        lines = ["\n".join(r.to_json_line() for r in f.history) for f in rounds]
        if any(line != lines[0] for line in lines):
            problems.append("repeated training runs wrote different metrics lines")
        history = rounds[0].history
        if not all(math.isfinite(r.mean_train_loss) for r in history):
            problems.append("a mean training loss is not finite")
        worst = max(r.stiefel_orthogonality_error for r in history)
        if not worst <= ORTHO_TOL:
            problems.append(f"orthogonality error {worst:.3e} > {ORTHO_TOL:g}")
        best = max(r.test_accuracy for r in history)
        if rounds[0].time_to_target_s is None:
            problems.append(f"best held-out accuracy {best} < {TARGET_ACCURACY}")
        final = history[-1].test_accuracy
        for f in rounds:
            for out in f.eval_outputs:
                if out.get("accuracy") != final or out.get("samples") != len(state["test"]):
                    problems.append(f"spd-agg eval printed {out}, in-memory model gives {final}")
        if self.final_accuracy is not None:
            problems += self._check_regime(state, history)
        return problems

    def _check_regime(self, state, history) -> list[str]:
        """C > N: the training loss falls, accuracy ends above chance, and
        the kernel matrix stays definite where covariance is singular."""
        problems = []
        first, last = history[0].mean_train_loss, history[-1].mean_train_loss
        if not last < first:
            problems.append(f"final training loss {last} is not below the first {first}")
        final = history[-1].test_accuracy
        if final < self.final_accuracy:
            problems.append(f"final held-out accuracy {final} < {self.final_accuracy}")
        for x in state["probes"]:
            maps = x.reshape(x.shape[0], -1)
            min_eig = kernel.certify(kernel.kernel_forward(x)[0])
            cov_rank = np.linalg.matrix_rank(np.cov(maps))
            if not (min_eig > 0.0 and cov_rank < maps.shape[0]):
                problems.append(
                    f"probe: kernel min eigenvalue {min_eig:.3e}, covariance rank {cov_rank}"
                )
        return problems


class EvalWorkload:
    """Forward-only inference with ``spd-agg eval`` at paper scale.

    Set-up makes the FTS1 file and an FTSP checkpoint.  The checkpoint
    comes from a short ``network.train`` run, because an untrained head is
    all zeros and every logit would be 0; that run also gives this
    workload's training figures.  As in :class:`TrainWorkload`, the data
    are fixed and the benchmark seed draws the order of the evaluation
    file and the probe samples.  The measured rounds run no backward pass
    and no retraction.
    """

    min_rounds = 1

    def __init__(self, synth: dict, setup_per_class: int, pipeline, tc, calibration):
        self.synth = synth
        self.calibration = calibration
        self.setup_per_class = setup_per_class
        self.pipeline = pipeline
        self.tc = tc

    def setup(self, workdir: Path, seed: int):
        full = data.synth_generate(**self.synth)
        train_ds, rest = data.split_by_class(full, self.setup_per_class)
        test_ds, eval_ds = data.split_by_class(rest, self.setup_per_class)
        figures = Figures()
        params = timed_train(train_ds, test_ds, self.pipeline, self.tc, figures)
        ckpt_path = workdir / "model.ftsp"
        data.save_checkpoint(ckpt_path, params, self.pipeline)
        rng = np.random.default_rng(seed)
        eval_ds = permuted(eval_ds, rng)
        eval_path = workdir / "eval.fts"
        data.fts_write(eval_ds, eval_path)
        state = {
            "eval": eval_ds,
            "eval_path": eval_path,
            "ckpt_path": ckpt_path,
            "arrays": param_arrays(params),
            "probes": eval_ds.samples[rng.choice(len(eval_ds), size=4, replace=False)],
        }
        return state, figures

    def run_round(self, state, pause) -> Figures:
        figures = Figures()
        timed_eval(state["eval_path"], state["ckpt_path"], len(state["eval"]), figures)
        return figures

    def check(self, state, setups, rounds) -> list[str]:
        problems = []
        if any(f.time_to_target_s is None for f in setups):
            problems.append(f"checkpoint training stayed below {TARGET_ACCURACY} accuracy")
        ds = state["eval"]
        ref_acc = reference.accuracy(ds.samples, ds.labels, state["arrays"])
        for f in rounds:
            for out in f.eval_outputs:
                if out.get("accuracy") != ref_acc or out.get("samples") != len(ds):
                    problems.append(f"spd-agg eval printed {out}, reference gives {ref_acc}")
        params, pipeline = data.load_checkpoint(state["ckpt_path"])
        for x in state["probes"]:
            program = network.forward(x, 0, params, pipeline)[2].logits
            err = reference.max_logit_error(program, reference.logits(x, state["arrays"]))
            if not err <= LOGIT_TOL:
                problems.append(f"probe logits differ from the reference by {err:.3e}")
        return problems


#: ``calibration`` is (Gram shape C x N, loop iterations per second on the
#: reference machine); see calibration.py.
WORKLOADS = {
    # Criterion 08 of the acceptance suite, exactly: the run users make.
    "train_desk": TrainWorkload(
        synth=dict(num_classes=2, per_class=150, c0=16, h=6, w=6, seed=7),
        train_per_class=100,
        pipeline=network.PipelineConfig(in_channels=16, mixed_channels=12,
                                        transform_dim=8, num_classes=2),
        tc=network.TrainConfig(seed=7, epochs_per_stage=15, batch_size=32),
        evals_per_round=50,
        calibration=((12, 36), 7000.0),
    ),
    # C=64 maps of N=4 positions: covariance is singular, the kernel is not.
    "train_c64n4": TrainWorkload(
        synth=dict(num_classes=2, per_class=150, c0=64, h=2, w=2, seed=7),
        train_per_class=100,
        pipeline=network.PipelineConfig(in_channels=64, mixed_channels=0,
                                        transform_dim=32, num_classes=2),
        tc=network.TrainConfig(seed=7, lr_stage1=1.0, lr_stage2=0.1,
                               epochs_per_stage=3, batch_size=32),
        evals_per_round=10,
        calibration=((64, 4), 18000.0),
        final_accuracy=0.5 + CHANCE_MARGIN,
    ),
    # Paper-scale inference: a 96 -> 64 mixer over 14x14 maps, C'=32.
    "eval_c64n196": EvalWorkload(
        synth=dict(num_classes=2, per_class=116, c0=96, h=14, w=14, seed=7),
        setup_per_class=8,
        pipeline=network.PipelineConfig(in_channels=96, mixed_channels=64,
                                        transform_dim=32, num_classes=2),
        tc=network.TrainConfig(seed=7, epochs_per_stage=1),
        calibration=((64, 196), 420.0),
    ),
}
