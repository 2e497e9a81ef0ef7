"""Compare the speed of two checkouts in one process, call by call.

    python3 tests/interleave.py BASE NEW --workload train_desk --mode eval
    python3 tests/interleave.py BASE BASE --workload train_desk --mode eval

Loads the ``spd_agg`` under ``src/`` of each checkout as a package of
its own (``spd_agg_a`` and ``spd_agg_b``) into this process.  It builds
the inputs of the named workload of ``bench/workloads.py`` with each
package, and checks that the two give the same outputs: the metrics
lines and parameter bytes of ``network.train`` (``--mode train``), or
the line ``spd-agg eval`` prints for a checkpoint trained by the first
(``--mode eval``).  It then times ``--pairs`` pairs of calls, the order
within a pair alternating (A B, B A, ...), and prints per checkout the
median and quartiles of the time per call, the ratio of the medians
(B / A) and in how many pairs B was faster.  Naming one checkout twice
is the A/A control: its ratio should read 1 and B should win about half
the pairs.

Both checkouts share this process, so a setting that acts on the whole
process applies to both sides once either sets it: the first
``network._Workers`` block pins glibc's allocator thresholds for both,
and a value read from the environment at import reads the same for
both.  Such settings cannot be compared here; compare them in fresh
processes, one checkout per process.

Standard library and numpy only; pytest does not collect this file.  The
workload table is read from this checkout's ``bench/workloads.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(checkout: Path, name: str):
    """The ``spd_agg`` package under ``checkout/src``, imported as ``name``."""
    where = checkout / "src" / "spd_agg"
    spec = importlib.util.spec_from_file_location(
        name, where / "__init__.py", submodule_search_locations=[str(where)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def workload(name: str):
    """The named workload of this checkout's benchmark: its synth
    arguments, the training samples per class, whether it evaluates a
    third split (the paper-scale evaluation) rather than the held-out
    set, and its configs as dicts."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    third = hasattr(w, "setup_per_class")
    per_class = w.setup_per_class if third else w.train_per_class
    return w.synth, per_class, third, dataclasses.asdict(w.pipeline), dataclasses.asdict(w.tc)


class Side:
    """One checkout's package with the workload's inputs built by it."""

    def __init__(self, package, spec, workdir: Path, tag: str):
        synth, per_class, third, pipeline, tc = spec
        self.package = package
        self.cli = importlib.import_module(f"{package.__name__}.cli")
        self.pipeline = package.PipelineConfig(**pipeline)
        self.tc = package.TrainConfig(**tc)
        full = package.synth_generate(**synth)
        self.train_ds, self.test_ds = package.split_by_class(full, per_class)
        evaluated = self.test_ds
        if third:
            self.test_ds, evaluated = package.split_by_class(self.test_ds, per_class)
        self.eval_path = workdir / f"eval_{tag}.fts"
        package.fts_write(evaluated, self.eval_path)

    def train(self):
        params, history = self.package.network.train(
            self.train_ds, self.pipeline, self.tc, test_dataset=self.test_ds
        )
        blocks = b"".join(a.tobytes() for a in params.blocks().values())
        return [r.to_json_line() for r in history], blocks

    def eval(self, ckpt: Path) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["eval", "--data", str(self.eval_path), "--ckpt", str(ckpt)])
        if code != 0:
            raise SystemExit(f"spd-agg eval exited {code}")
        return out.getvalue()


def quartiles(times: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return q1, median, q3


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path, help="checkout A")
    p.add_argument("new", type=Path, help="checkout B (A again for the A/A control)")
    p.add_argument("--workload", required=True, help="a workload of bench/workloads.py")
    p.add_argument("--mode", choices=("eval", "train"), required=True)
    p.add_argument("--pairs", type=int, default=100)
    args = p.parse_args(argv)

    spec = workload(args.workload)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        a = Side(load(args.base.resolve(), "spd_agg_a"), spec, workdir, "a")
        b = Side(load(args.new.resolve(), "spd_agg_b"), spec, workdir, "b")
        if args.mode == "train":
            calls = [a.train, b.train]
        else:
            ckpt = workdir / "model.ftsp"
            params = a.package.network.train(a.train_ds, a.pipeline, a.tc)[0]
            a.package.save_checkpoint(ckpt, params, a.pipeline)
            calls = [lambda: a.eval(ckpt), lambda: b.eval(ckpt)]
        outputs = [call() for call in calls]  # also the warm-up call of each
        if outputs[0] != outputs[1]:
            print("the two checkouts give different outputs")
            return 1
        times: list[list[float]] = [[], []]
        for pair in range(args.pairs):
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                start = time.perf_counter()
                calls[side]()
                times[side].append(time.perf_counter() - start)
    wins = sum(tb < ta for ta, tb in zip(*times))
    for label, path, t in zip("AB", (args.base, args.new), times):
        q1, median, q3 = quartiles(t)
        print(f"{label} {path}: median {median * 1e3:.3f} ms, "
              f"quartiles {q1 * 1e3:.3f} - {q3 * 1e3:.3f} ms per call")
    ratio = quartiles(times[1])[1] / quartiles(times[0])[1]
    print(f"{args.workload} {args.mode}: B / A median {ratio:.3f}; "
          f"B faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
