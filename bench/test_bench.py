"""Self-tests of the benchmark: its checks catch a wrong program, its
tracer counts exactly, and it refuses to run without the program.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import tracing
import workloads
from spd_agg import kernel, linalg, network

BENCH = Path(__file__).resolve().parent


def small_eval_workload():
    """The eval workload's code at small shapes."""
    return workloads.EvalWorkload(
        synth=dict(num_classes=2, per_class=36, c0=24, h=8, w=8, seed=7),
        setup_per_class=8,
        pipeline=network.PipelineConfig(in_channels=24, mixed_channels=16,
                                        transform_dim=8, num_classes=2),
        tc=network.TrainConfig(seed=7, epochs_per_stage=1),
        calibration=((16, 64), 1.0),
    )


def run_checks(workload, tmp_path):
    state, setup = workload.setup(tmp_path, seed=3)
    rounds = [workload.run_round(state, pause=lambda: None)]
    return workload.check(state, [setup], rounds)


def mean_squared_sigma(m):
    """The bandwidth convention the program does not use."""
    m = kernel.as_feature_matrix(m)
    diffs = m[:, None, :] - m[None, :, :]
    sq = (diffs * diffs).sum(axis=2)
    return float(sq[np.triu_indices(m.shape[0], k=1)].mean())


def test_checks_pass_on_the_program(tmp_path):
    assert run_checks(small_eval_workload(), tmp_path) == []


def test_checks_flag_a_mean_squared_distance_bandwidth(tmp_path, monkeypatch):
    monkeypatch.setattr(kernel, "compute_sigma", mean_squared_sigma)
    problems = run_checks(small_eval_workload(), tmp_path)
    assert any("probe logits differ" in p for p in problems), problems


def test_reference_variant_differs_beyond_tolerance():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 5, 5))
    arrays = {
        "mix.weights": rng.standard_normal((6, 8)),
        "mix.bias": rng.standard_normal(6),
        "stiefel.w": np.linalg.qr(rng.standard_normal((6, 3)))[0],
        "dense.weights": rng.standard_normal((4, 6)),
        "dense.bias": rng.standard_normal(4),
    }
    right = reference.logits(x, arrays)
    wrong = reference.logits(x, arrays, reference.mean_squared_distance_bandwidth)
    assert reference.max_logit_error(wrong, right) > 1e3 * workloads.LOGIT_TOL


def test_tracer_counts_rank1_updates_and_restores():
    tracer = tracing.Tracer()
    original = kernel.matmul
    tracer.install()
    try:
        with tracer.recording("round"):
            kernel.kernel_forward(np.arange(35.0).reshape(5, 7) ** 0.5)
    finally:
        tracer.uninstall()
    assert kernel.matmul is original and linalg.matmul is original
    summary = tracer.summary("round", per=1)
    assert summary["kernel.kernel_forward"]["calls"] == 1
    assert summary["kernel.compute_sigma"]["calls"] == 1
    assert summary["linalg.matmul"]["calls"] == 1
    assert summary["linalg.matmul"]["count"] == 7  # Gram product over N = 7
    outer = summary["kernel.kernel_forward"]["s"]
    assert 0.0 < summary["linalg.matmul"]["s"] < outer


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "train_desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_json_names_every_workload(name):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert name in {w["name"] for w in spec["workloads"]}
