"""Benchmark entry point for spd-agg.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/``
(no install step).  The run sets up its inputs several times (set-up
time is their median), then makes whole rounds of the workload until
``--seconds`` have passed, checks the program's outputs and prints one
JSON line last: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``).  The same object, with machine
details, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # a clean checkout stays clean; imports cost the same every run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

#: Set-ups per run; ``setup_s`` adds the import time to their median.
SETUPS = 5

#: BLAS threads; one process on small matrices gains nothing from more,
#: and other tenants of the machine add noise to each extra thread.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import numpy and spd_agg from this checkout's ``src/``; returns the
    start and end of the import."""
    src = ROOT / "src"
    if not (src / "spd_agg" / "__init__.py").is_file():
        raise SystemExit(f"error: no spd_agg package under {src}")
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import spd_agg  # noqa: F401  (timed import)

    t1 = time.perf_counter()
    if Path(spd_agg.__file__).resolve().parent != src / "spd_agg":
        raise SystemExit(f"error: spd_agg was imported from {spd_agg.__file__}, not {src}")
    return t0, t1


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def end_to_end(import_span, setup_spans, figures, speed) -> dict:
    """End-to-end figures with each timed call's wall time multiplied by
    ``speed(start, end)``, the machine speed around it (1 gives the raw
    figures).  Rates pool every timed call of the run, work over time,
    which varies less from run to run here than a median of per-call
    rates."""

    def scaled(start, end):
        return (end - start) * speed(start, end)

    train = [c for f in figures for c in f.train_calls]
    evals = [c for f in figures for c in f.eval_calls]
    targets = [target * speed(start, end) for start, end, _, target in train if target]
    return {
        "setup_s": scaled(*import_span) + statistics.median(scaled(*s) for s in setup_spans),
        "train_samples_per_s": sum(c[2] for c in train) / sum(scaled(*c[:2]) for c in train)
        if train else None,
        "eval_samples_per_s": sum(c[2] for c in evals) / sum(scaled(*c[:2]) for c in evals)
        if evals else None,
        "time_to_target_s": statistics.mean(targets) if targets else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, n_setups, n_rounds, overhead_s) -> dict:
    """Per-round figures of every traced layer; ``data.*`` figures add
    one set-up, where the inputs are made and written."""
    rnd = tracer.summary("round", n_rounds)
    stp = tracer.summary("setup", n_setups)
    out = {"trace.overhead_s": overhead_s}
    for group in rnd:
        both = group.startswith("data.")
        s = rnd[group]["s"] + (stp[group]["s"] if both else 0.0)
        out[f"{group}.s"] = s
        out[f"{group}.calls"] = rnd[group]["calls"] + (stp[group]["calls"] if both else 0)
        out[f"{group}.self_s"] = rnd[group]["self_s"]
    out["linalg.matmul.rank1_updates"] = rnd["linalg.matmul"]["count"]
    out["data.fts_read.bytes"] = rnd["data.fts_read"]["count"] + stp["data.fts_read"]["count"]
    # Every round repeats the same calls, so counts come out whole.
    return {k: int(v) if k.endswith((".calls", ".rank1_updates", ".bytes")) and float(v).is_integer()
            else v for k, v in out.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    import_span = import_program()

    import calibration
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    specs = metric_specs()
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    calibrator = calibration.Calibrator(*workload.calibration)

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_spans, setups = [], []
        calibrator.run_slice()
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            with tracer.recording("setup" if args.trace else None):
                state, figures = workload.setup(workdir, args.seed)
            setup_spans.append((t0, time.perf_counter()))
            setups.append(figures)
            calibrator.run_slice()

        # A traced run alternates untraced and traced rounds; the untraced
        # ones are the base of the tracing overhead.
        rounds, round_spans = [], []
        start = time.perf_counter()
        while len(rounds) < max(workload.min_rounds, 1 + args.trace) or (
            time.perf_counter() - start < args.seconds
        ):
            traced = bool(args.trace) and len(rounds) % 2 == 1
            t0 = time.perf_counter()
            with tracer.recording("round" if traced else None):
                rounds.append(workload.run_round(state, calibrator.run_slice))
            round_spans.append((t0, time.perf_counter(), traced))
            calibrator.run_slice()

        problems = workload.check(state, setups, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = end_to_end(import_span, setup_spans, setups + rounds, lambda start, end: 1.0)
    if args.trace:
        scaled = {True: [], False: []}
        for t0, t1, traced in round_spans:
            scaled[traced].append((t1 - t0) * calibrator.speed(t0, t1))
        overhead_s = statistics.median(scaled[True]) - statistics.median(scaled[False])
        values = per_layer(tracer, SETUPS, len(scaled[True]), overhead_s)
        wanted = specs["per_layer"]
    else:
        values = end_to_end(import_span, setup_spans, setups + rounds, calibrator.speed)
        wanted = specs["end_to_end"]
    metrics = {}
    for m in wanted:
        if values.get(m["name"]) is None:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    result = {
        "correct": not problems,
        "attempted": sum(f.ops for f in setups + rounds),
        "failed": sum(f.failed for f in setups + rounds),
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": machine_info(),
        "setups": SETUPS,
        "rounds": len(rounds),
        "round_walls_s": [t1 - t0 for t0, t1, _ in round_spans],
        "machine_speed": calibrator.mean_speed(),
        "raw_end_to_end": raw,
        "problems": problems,
        **result,
    }
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if args.trace:
        tracer.dump(RESULTS / f"{stem}.spans.json")
        tracer.uninstall()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"machine": record["machine"], "rounds": len(rounds)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
