"""Acceptance suite.

One test per criterion, each pinned at its stated tolerance and printing
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import spd_agg
import spd_agg.kernel as kernel_mod
import spd_agg.network as network_mod
from spd_agg import (
    FtsDataset,
    FtsParseError,
    PipelineConfig,
    certify,
    covariance_forward,
    fts_read,
    fts_write,
    grad_check,
    gradcheck_instance,
    kernel_forward,
    matmul,
    retract_step,
    seeded_rng,
    split_by_class,
    stiefel_init,
    symmetrize,
    synth_generate,
    tangent_project,
    transform_forward,
    vectorize,
    vectorize_backward,
)
from spd_agg.cli import DEFAULT_GRADCHECK_PIPELINE, main
from spd_agg.network import forward
from _oracles import central_diff, kernel_entrywise, covariance_inner_products, rel_err


def report(num: int, ok: bool, text: str) -> None:
    print(f"\nCRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_kernel_forward_equivalence():
    rng = seeded_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        c = int(rng.integers(2, 33))
        n = int(rng.integers(2, 65))
        m = rng.standard_normal((c, n)) * float(rng.uniform(0.2, 3.0))
        k, tape = kernel_forward(m)
        worst = max(worst, float(np.abs(k - kernel_entrywise(m, tape.sigma)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 10.0
    report(1, ok, f"dense vs entrywise kernel: max abs diff {worst:.2e} "
                  f"(tol 1e-12), 200 inputs in {elapsed:.1f}s (< 10s)")


def test_criterion_02_kernel_definiteness_vs_covariance():
    rng = seeded_rng(102)
    t0 = time.perf_counter()
    min_kernel = np.inf
    max_cov = -np.inf
    for trial in range(100):
        if trial < 50:
            c, n_side = 64, 2  # C=64, N=4
        else:
            c = int(rng.integers(8, 33))
            n_side = int(rng.integers(1, 3))
        x = rng.standard_normal((c, n_side, 2))  # N = 2*n_side in {2, 4}, always < C
        k, _ = kernel_forward(x)
        min_kernel = min(min_kernel, certify(k))
        max_cov = max(max_cov, certify(covariance_forward(x)))
    elapsed = time.perf_counter() - t0
    ok = min_kernel > 0.0 and max_cov <= 1e-10 and elapsed < 30.0
    report(2, ok, f"kernel min eig {min_kernel:.2e} > 0 while covariance min eig "
                  f"<= {max_cov:.2e} (tol 1e-10) on 100 C>N inputs in {elapsed:.1f}s (< 30s)")


def test_criterion_03_global_gradient_check_five_seeds():
    t0 = time.perf_counter()
    pipeline = DEFAULT_GRADCHECK_PIPELINE
    # the signed-sqrt slope is singular at 0: pick the first five seeds
    # whose baseline head vector stays away from it (|V_i| > 1e-3)
    seeds = []
    candidate = 0
    while len(seeds) < 5:
        x, label, params = gradcheck_instance(pipeline, candidate)
        _, _, tapes = forward(x, label, params, pipeline)
        if np.abs(tapes.power_tape).min() > 1e-3:
            seeds.append(candidate)
        candidate += 1
    worst = 0.0
    for seed in seeds:
        rep = grad_check(pipeline, seed=seed, tolerance=1e-5)
        worst = max(worst, max(rep.max_rel_err.values()))
        assert rep.all_passed, (seed, rep.max_rel_err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 120.0
    report(3, ok, f"full-pipeline analytic vs central differences: worst block "
                  f"rel err {worst:.2e} (tol 1e-5) over seeds {seeds} in {elapsed:.1f}s (< 2min)")


def test_criterion_04_stiefel_contract():
    rng = seeded_rng(104)
    a = rng.standard_normal((16, 16))
    a = a @ a.T + 0.5 * np.eye(16)
    w = stiefel_init(16, 8, rng)
    worst_step = 0.0
    for _ in range(1000):
        grad = 2.0 * matmul(a, w.w)
        w = retract_step(w, tangent_project(w, grad), 1e-3)
        worst_step = max(worst_step, w.orthogonality_error())
    worst_skew = 0.0
    for _ in range(100):
        wp = stiefel_init(12, 5, rng)
        t = tangent_project(wp, rng.standard_normal((12, 5)))
        wt = matmul(wp.w.T, t)
        worst_skew = max(worst_skew, float(np.linalg.norm(wt + wt.T)))
    ok = worst_step < 1e-10 and worst_skew < 1e-10
    report(4, ok, f"1000 retraction steps: worst ||W^T W - I||_F {worst_step:.2e} "
                  f"(tol 1e-10, implies 1e-8); worst tangency defect {worst_skew:.2e} (tol 1e-10)")


def test_criterion_05_compression_preserves_definiteness():
    rng = seeded_rng(105)
    dims = [4, 8, 16]
    positive = 0
    for trial in range(100):
        base = rng.standard_normal((16, 16))
        k = symmetrize(base @ base.T + 0.5 * np.eye(16))
        w = stiefel_init(16, dims[trial % 3], rng)
        y, _ = transform_forward(k, w)
        positive += certify(y) > 0.0
    ok = positive == 100
    report(5, ok, f"compressed matrix stayed positive definite in {positive}/100 trials "
                  f"(C=16, C' in {{4, 8, 16}})")


def test_criterion_06_vectorization_norm_bridge_and_adjoint():
    rng = seeded_rng(106)
    worst_norm = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 13))
        base = rng.standard_normal((dim, dim))
        y = (base + base.T) / 2.0
        worst_norm = max(
            worst_norm, abs(float(np.linalg.norm(vectorize(y))) - float(np.linalg.norm(y)))
        )
    # adjoint vs finite differences through the vectorizer
    worst_adj = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        coeff = rng.standard_normal(dim * (dim + 1) // 2)
        base = rng.standard_normal((dim, dim))
        y = (base + base.T) / 2.0

        def functional(ym):
            v = vectorize((ym + ym.T) / 2.0)
            return float(np.dot(coeff, v) + 0.5 * np.dot(v, v))

        numeric = central_diff(functional, y.copy(), h=1e-5)
        analytic = vectorize_backward(coeff + vectorize(y), dim)
        worst_adj = max(worst_adj, rel_err(analytic, numeric))
    ok = worst_norm < 1e-12 and worst_adj < 1e-8
    report(6, ok, f"||vectorize(Y)||_2 vs ||Y||_F: max abs diff {worst_norm:.2e} (tol 1e-12); "
                  f"adjoint vs finite differences rel err {worst_adj:.2e} (tol 1e-8)")


def test_criterion_07_covariance_as_inner_products():
    rng = seeded_rng(107)
    worst = 0.0
    for _ in range(50):
        c = int(rng.integers(2, 10))
        n = int(rng.integers(2, 16))
        m = rng.standard_normal((c, n))
        worst = max(
            worst, float(np.abs(covariance_forward(m) - covariance_inner_products(m)).max())
        )
    ok = worst < 1e-12
    report(7, ok, f"covariance vs centered inner-product construction: "
                  f"max abs diff {worst:.2e} (tol 1e-12) over 50 inputs")


#: Committed bytes of the golden runs: ``<name>_metrics.jsonl`` and the
#: final checkpoint ``<name>.ftsp`` per run.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_SUFFIXES = ("_metrics.jsonl", ".ftsp")

BENCH_CONFIG = {
    "in_channels": 16,
    "mixed_channels": 12,
    "transform_dim": 8,
    "num_classes": 2,
    "epochs_per_stage": 15,
    "batch_size": 32,
    "seed": 7,
}

#: Per golden run: the ``synth_generate`` arguments, the training samples
#: per class (the rest are held out) and the config.  Besides the
#: criterion-08 run, each small run takes a path that one does not: the
#: covariance with SPD-ReLU; no mixer with C > N, whose frozen stages
#: record bandwidths; both normalizations off.
GOLDEN_RUNS = {
    "criterion_08_seed7": (
        dict(num_classes=2, per_class=150, c0=16, h=6, w=6, seed=7), 100, BENCH_CONFIG
    ),
    "covariance_relu_mixer": (
        dict(num_classes=2, per_class=30, c0=6, h=4, w=4, seed=1), 20,
        {"in_channels": 6, "mixed_channels": 5, "transform_dim": 3, "aggregator": "covariance",
         "use_spd_relu": True, "lr_stage2": 0.05, "epochs_per_stage": 4, "batch_size": 8,
         "seed": 1},
    ),
    "kernel_c32_n4": (
        dict(num_classes=2, per_class=30, c0=32, h=2, w=2, seed=1), 20,
        {"in_channels": 32, "mixed_channels": 0, "transform_dim": 16, "lr_stage2": 0.05,
         "epochs_per_stage": 4, "batch_size": 8, "seed": 1},
    ),
    "kernel_mixer_no_norms": (
        dict(num_classes=2, per_class=30, c0=6, h=4, w=4, seed=1), 20,
        {"in_channels": 6, "mixed_channels": 5, "transform_dim": 3, "power_norm": False,
         "l2_norm": False, "lr_stage2": 0.05, "epochs_per_stage": 4, "batch_size": 8,
         "seed": 1},
    ),
}


def golden_inputs(root) -> dict:
    """Write the train, held-out and config files of every golden run
    under ``root``; returns them by name."""
    files = {}
    for name, (data, train_per_class, config) in GOLDEN_RUNS.items():
        train_ds, test_ds = split_by_class(synth_generate(**data), train_per_class)
        files[name] = tuple(root / f"{name}.{ext}" for ext in ("train.fts", "test.fts", "json"))
        fts_write(train_ds, files[name][0])
        fts_write(test_ds, files[name][1])
        files[name][2].write_text(json.dumps(config))
    return files


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    """Train, held-out and config files of every golden run, by name."""
    root = tmp_path_factory.mktemp("golden")
    return root, golden_inputs(root)


@pytest.fixture(scope="module")
def benchmark_files(golden_files):
    """Seed-7 synthetic benchmark: 200/100 split plus config files."""
    root, files = golden_files
    train_path, test_path, config = files["criterion_08_seed7"]
    ablated = root / "ablated.json"
    ablated.write_text(json.dumps({**BENCH_CONFIG, "freeze_stiefel": True}))
    return root, train_path, test_path, config, ablated


def _train_args(files, out) -> list[str]:
    """``spd-agg train`` arguments for one run's files, writing the
    golden file names with the prefix ``out``."""
    train_path, test_path, config = files
    return ["train", "--data", str(train_path), "--test", str(test_path),
            "--config", str(config), "--out-metrics", f"{out}{GOLDEN_SUFFIXES[0]}",
            "--out-ckpt", f"{out}{GOLDEN_SUFFIXES[1]}"]


def _same_bytes(out_a, out_b) -> bool:
    return all(Path(f"{out_a}{s}").read_bytes() == Path(f"{out_b}{s}").read_bytes()
               for s in GOLDEN_SUFFIXES)


def _run_train(files, config, name):
    """Train on the benchmark files with ``config``; the metrics records."""
    root, train_path, test_path, _, _ = files
    assert main(_train_args((train_path, test_path, config), root / name)) == 0
    metrics = root / f"{name}{GOLDEN_SUFFIXES[0]}"
    return [json.loads(line) for line in metrics.read_text().splitlines()]


def test_criterion_08_synthetic_benchmark(benchmark_files, capsys):
    t0 = time.perf_counter()
    learned = _run_train(benchmark_files, benchmark_files[3], "learned")
    elapsed = time.perf_counter() - t0
    best_learned = max(r["test_accuracy"] for r in learned)
    ablated = _run_train(benchmark_files, benchmark_files[4], "ablated")
    best_ablated = max(r["test_accuracy"] for r in ablated)

    # the written checkpoint must evaluate just as well through the CLI
    root, _, test_path, _, _ = benchmark_files
    capsys.readouterr()
    code = main(["eval", "--data", str(test_path),
                 "--ckpt", str(root / "learned.ftsp")])
    eval_acc = json.loads(capsys.readouterr().out)["accuracy"]

    ok = (
        best_learned >= 0.95
        and len(learned) <= 30
        and elapsed < 300.0
        and best_ablated < best_learned
        and code == 0
        and eval_acc >= 0.95
    )
    with capsys.disabled():
        report(8, ok, f"learned compression: test accuracy {best_learned:.3f} (>= 0.95) in "
                      f"{len(learned)} epochs, {elapsed:.1f}s (< 5min); checkpoint eval "
                      f"{eval_acc:.3f}; frozen-random ablation {best_ablated:.3f} < {best_learned:.3f}")


def test_criterion_09_training_determinism(golden_files, capsys):
    root, files = golden_files
    replay, golden = {}, {}
    for name, paths in files.items():
        a, b = root / f"{name}.replay_a", root / f"{name}.replay_b"
        assert main(_train_args(paths, a)) == 0
        assert main(_train_args(paths, b)) == 0
        replay[name] = _same_bytes(a, b)
        golden[name] = _same_bytes(a, GOLDEN / name)
    with capsys.disabled():
        report(9, all(replay.values()) and all(golden.values()),
               f"two same-seed training runs of each golden config wrote bit-identical "
               f"metrics and checkpoint files ({replay}), byte-equal to {GOLDEN.name}/ ({golden})")


def _replay_in_child(golden_files, tag, env=None, prelude=""):
    """Replay every golden run in one fresh process, with ``env`` added
    to its environment and the Python statements ``prelude`` run before
    the program is imported.  Returns the child's ``network.WORKERS`` and
    the names of the runs whose files differ from the golden ones.  Every
    warning in the child is an error, as in the in-process tests."""
    root, files = golden_files
    outs = {name: root / f"{name}.{tag}" for name in files}
    src = str(Path(spd_agg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONWARNINGS": "error", **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c",
         f"import json, os, sys; {prelude}"
         "from spd_agg import network; from spd_agg.cli import main; print(network.WORKERS); "
         "sys.exit(max(main(args) for args in json.loads(sys.argv[1])))",
         json.dumps([_train_args(files[name], out) for name, out in outs.items()])],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    return (int(run.stdout.splitlines()[0]),
            [name for name, out in outs.items() if not _same_bytes(out, GOLDEN / name)])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_metrics_at_blas_thread_count(golden_files, threads):
    """Every golden run, in one fresh process with OpenBLAS limited to
    ``threads`` threads, writes the golden bytes."""
    _, differ = _replay_in_child(
        golden_files, f"threads{threads}", env={"OPENBLAS_NUM_THREADS": threads}
    )
    assert differ == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity mask")
@pytest.mark.parametrize("cpus", ["one", "all"])
def test_golden_metrics_at_cpu_affinity(golden_files, cpus):
    """Every golden run, in one fresh process that keeps the CPUs of its
    affinity mask or narrows the mask to one CPU before the program is
    imported, writes the golden bytes; the default worker count is the
    size of the mask."""
    prelude = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); " if cpus == "one" else ""
    workers, differ = _replay_in_child(golden_files, f"cpus_{cpus}", prelude=prelude)
    assert workers == (1 if cpus == "one" else len(os.sched_getaffinity(0)))
    assert differ == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_golden_metrics_at_worker_count(golden_files, monkeypatch, workers):
    """Every golden run writes the golden bytes with ``workers`` threads
    running its slices."""
    monkeypatch.setattr(network_mod, "WORKERS", workers)
    root, files = golden_files
    differ = []
    for name, paths in files.items():
        out = root / f"{name}.workers{workers}"
        assert main(_train_args(paths, out)) == 0
        if not _same_bytes(out, GOLDEN / name):
            differ.append(name)
    assert differ == []


#: Slice size per golden run for :func:`test_golden_metrics_from_pool_threads`:
#: criterion 08 cuts each 32-sample batch into 24 + 8 and its 100 held-out
#: samples into 4 x 24 + 4, so its Grams fall on both sides of the 2C = 24
#: stack rule of ``linalg.gram``; the small runs cut their 8-sample
#: batches and 20 held-out samples into slices of 4.
SMALL_SLICES = {"criterion_08_seed7": 24, "covariance_relu_mixer": 4, "kernel_c32_n4": 4,
                "kernel_mixer_no_norms": 4}


@pytest.mark.parametrize("workers", [2, 3])
def test_golden_metrics_from_pool_threads(golden_files, monkeypatch, workers):
    """Every golden run writes the golden bytes with ``workers`` threads
    and ``SLICE_VALUES`` lowered so that its training batches and its
    held-out set each run as several slices, on the pool threads too."""
    monkeypatch.setattr(network_mod, "WORKERS", workers)
    maps, grams = [], []
    workers_map, gram = network_mod._Workers.map, kernel_mod.gram

    def map_spy(self, fn, items):
        maps.append(len(items))
        return workers_map(self, fn, items)

    def gram_spy(m):
        grams.append(m.shape[:-1])
        return gram(m)

    monkeypatch.setattr(network_mod._Workers, "map", map_spy)
    monkeypatch.setattr(kernel_mod, "gram", gram_spy)
    root, files = golden_files
    differ = []
    for name, paths in files.items():
        data, _, config = GOLDEN_RUNS[name]
        fields = {k: v for k, v in config.items() if k in PipelineConfig.__dataclass_fields__}
        pipeline = PipelineConfig(**{"num_classes": data["num_classes"], **fields})
        widest = network_mod._widest_array(pipeline, data["h"] * data["w"])
        monkeypatch.setattr(network_mod, "SLICE_VALUES", SMALL_SLICES[name] * widest)
        del maps[:]
        out = root / f"{name}.pool{workers}"
        assert main(_train_args(paths, out)) == 0
        assert {2, 5} <= set(maps), name  # slices per batch and per held-out set
        if not _same_bytes(out, GOLDEN / name):
            differ.append(name)
    assert differ == []
    assert {(24, 12), (8, 12)} <= set(grams)  # stacks on both sides of 2C


def test_criterion_10_fts_robustness(tmp_path):
    rng = seeded_rng(110)
    # round-trip identity on 20 random datasets
    round_trips = 0
    for i in range(20):
        nc = int(rng.integers(2, 5))
        per = int(rng.integers(1, 5))
        c, h, w = (int(rng.integers(1, 6)) for _ in range(3))
        samples = (
            rng.standard_normal((nc * per, c, h, w)).astype(np.float32).astype(np.float64)
        )
        labels = np.repeat(np.arange(nc), per)
        ds = FtsDataset(samples=samples, labels=labels, num_classes=nc)
        path = tmp_path / f"rt{i}.fts"
        fts_write(ds, path)
        back = fts_read(path)
        round_trips += (
            np.array_equal(back.samples, ds.samples)
            and np.array_equal(back.labels, ds.labels)
            and back.num_classes == ds.num_classes
        )
    # 1000 single-byte header corruptions: all rejected, none crash
    base = synth_generate(num_classes=2, per_class=4, c0=3, h=2, w=2, seed=3)
    path = tmp_path / "base.fts"
    fts_write(base, path)
    blob = path.read_bytes()
    rejected = 0
    for _ in range(1000):
        pos = int(rng.integers(0, 32))
        new = int(rng.integers(0, 256))
        if new == blob[pos]:
            new = (new + 1) % 256
        corrupted = bytearray(blob)
        corrupted[pos] = new
        target = tmp_path / "fuzz.fts"
        target.write_bytes(bytes(corrupted))
        try:
            fts_read(target)
        except FtsParseError:
            rejected += 1
    ok = round_trips == 20 and rejected == 1000
    report(10, ok, f"round-trip identity {round_trips}/20; header corruptions rejected "
                   f"{rejected}/1000 with structured errors, zero crashes")
