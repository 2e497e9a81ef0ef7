"""Mutation probe: does the suite notice when a documented value or guard
changes?

    python3 tests/mutants.py [NAME ...]

Each row of :data:`MUTANTS` gives a file under ``src/``, an exact piece
of its text, the text to put in its place, and the test file expected to
fail once it is there (to kill the mutant).  The probe copies this
checkout, without ``.git`` and caches, to a temporary directory and
runs each row's test file there once as it stands, which must pass.
Then, one row at a time (or only the rows NAMEd), it puts the new text
in, runs the row's test file with pytest up to its first failure, and
puts the old text back.  A row with a ``survives`` reason is an
expected survivor: a value that only sets speed or memory, with which
its test file must still pass.  Prints one line per row and a summary,
and exits 1 if a row no longer applies, if a test file fails
unmutated, or if any row's outcome is not the expected one.

Standard library only; pytest does not collect this file.  A row's old
text must occur exactly once in its file; ``tests/test_package.py``
checks that of every row, so the table cannot rot.  A change that adds
a documented constant or guard adds its row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    kills: str  # the test file expected to fail, relative to the checkout
    survives: str | None = None  # why no test can fail: an expected survivor


MUTANTS = [
    Mutant("stiefel-grad-factor", "src/spd_agg/stiefel.py",
           "    product *= 2.0\n", "", "tests/test_stiefel.py"),
    Mutant("tangent-unprojected", "src/spd_agg/stiefel.py",
           "return g - matmul(w.w, matmul(g.swapaxes(-1, -2), w.w))", "return g",
           "tests/test_stiefel.py"),
    Mutant("retract-zero-shortcut", "src/spd_agg/stiefel.py",
           "if lr == 0.0 or not g.any():", "if lr == 0.0:", "tests/test_stiefel.py"),
    Mutant("sigma-floor", "src/spd_agg/kernel.py",
           "SIGMA_FLOOR = 1e-12", "SIGMA_FLOOR = 1e-6", "tests/test_kernel.py"),
    Mutant("distance-clamp", "src/spd_agg/kernel.py",
           "    np.maximum(k, 0.0, out=k)\n", "", "tests/test_kernel.py"),
    Mutant("coincident-mask", "src/spd_agg/kernel.py",
           "    coeff[tape.k == 1.0] = 0.0\n", "", "tests/test_kernel.py"),
    Mutant("pairwise-row-sum", "src/spd_agg/kernel.py",
           "np.cumsum(coeff, axis=-1)[..., -1:]", "coeff.sum(axis=-1, keepdims=True)",
           "tests/test_kernel.py"),
    Mutant("power-eps", "src/spd_agg/head.py",
           "POWER_EPS = 1e-8", "POWER_EPS = 1e-6", "tests/test_head.py"),
    Mutant("fold-off", "src/spd_agg/linalg.py",
           "if a.ndim == 2 and b.ndim > 2 and n < FOLD_ROWS:", "if False:",
           "tests/test_slice_sizes.py"),
    Mutant("fold-rows", "src/spd_agg/linalg.py",
           "FOLD_ROWS = 64", "FOLD_ROWS = 256", "tests/test_slice_sizes.py"),
    Mutant("gram-samples-innermost-off", "src/spd_agg/linalg.py",
           "if math.prod(m.shape[:-2]) < 2 * m.shape[-2]:", "if True:",
           "tests/test_slice_sizes.py"),
    Mutant("gram-stack-rule", "src/spd_agg/linalg.py",
           "if math.prod(m.shape[:-2]) < 2 * m.shape[-2]:",
           "if math.prod(m.shape[:-2]) < 2:", "tests/test_slice_sizes.py"),
    Mutant("qr-rank-tol", "src/spd_agg/linalg.py",
           "QR_RANK_TOL = 1e-12", "QR_RANK_TOL = 1e-14", "tests/test_linalg.py"),
    Mutant("sym-tol", "src/spd_agg/linalg.py",
           "SYM_TOL = 1e-10", "SYM_TOL = 1e-8", "tests/test_linalg.py"),
    Mutant("ckpt-ortho-tol", "src/spd_agg/data.py",
           "CKPT_ORTHO_TOL = 1e-8", "CKPT_ORTHO_TOL = 1e-2", "tests/test_cli.py"),
    Mutant("min-loss-delta", "src/spd_agg/network.py",
           "MIN_LOSS_DELTA = 1e-4", "MIN_LOSS_DELTA = 1e-3", "tests/test_network.py"),
    Mutant("stage-schedule-reset", "src/spd_agg/network.py",
           "    if state.epoch % tc.epochs_per_stage == 0:\n"
           "        state.decay, state.best_loss, state.bad_epochs = 1.0, math.inf, 0\n",
           "", "tests/test_network.py"),
    Mutant("mixer-stage-drops-records", "src/spd_agg/network.py",
           "    if train_mix:\n        state.frozen = None\n", "", "tests/test_network.py"),
    Mutant("rate-beyond-float64", "src/spd_agg/network.py",
           "if not 0 <= value <= sys.float_info.max:", "if not 0 <= value < math.inf:",
           "tests/test_cli.py"),
    Mutant("negative-seed", "src/spd_agg/network.py",
           "if self.seed < 0:", "if self.seed < -1:", "tests/test_cli.py"),
    Mutant("set-channel-check", "src/spd_agg/network.py",
           "if samples.shape[1] != config.in_channels:", "if False:",
           "tests/test_network.py"),
    Mutant("kernel-refusal-layer", "src/spd_agg/kernel.py",
           'layer="kernel aggregation input"', "layer=None", "tests/test_network.py"),
    Mutant("covariance-refusal-layer", "src/spd_agg/kernel.py",
           'layer="covariance input"', "layer=None", "tests/test_network.py"),
    Mutant("gradcheck-live-sigma", "src/spd_agg/network.py",
           "_aggregate(x, params, pipeline, frozen)", "_aggregate(x, params, pipeline)",
           "tests/test_network.py"),
    Mutant("gradcheck-zero-head", "src/spd_agg/network.py",
           "weights=0.5 * rng.standard_normal(params.head.weights.shape),",
           "weights=np.zeros(params.head.weights.shape),",
           "tests/test_network.py"),
    Mutant("slice-values", "src/spd_agg/network.py",
           "SLICE_VALUES = 65_536", "SLICE_VALUES = 32_768", "tests/test_network.py",
           survives="sets how many samples a slice stacks; every slice size gives "
                    "each sample the same bits (tests/test_slice_sizes.py pins the sizes)"),
    Mutant("slice-floor", "src/spd_agg/network.py",
           "min(4, 4 * SLICE_VALUES // widest)", "min(1, 4 * SLICE_VALUES // widest)",
           "tests/test_network.py",
           survives="sets how many samples a paper-scale slice stacks; every slice size "
                    "gives each sample the same bits (tests/test_slice_sizes.py pins the "
                    "sizes)"),
    Mutant("mmap-threshold", "src/spd_agg/network.py",
           "_MMAP_THRESHOLD = 4 * SLICE_VALUES * 8 + 32", "_MMAP_THRESHOLD = 4 * SLICE_VALUES * 8",
           "tests/test_slice_sizes.py"),
    Mutant("one-value-guard", "src/spd_agg/network.py",
           "if stack[0].size < 2:", "if stack[0].size < 1:", "tests/test_network.py"),
    Mutant("total-appended", "src/spd_agg/network.py",
           "np.concatenate([total[None], stack[:-1]])) + stack[-1]",
           "np.concatenate([total[None], stack]))", "tests/test_network.py"),
    Mutant("workers", "src/spd_agg/network.py",
           "    WORKERS = len(os.sched_getaffinity(0))", "    WORKERS = 1",
           "tests/test_network.py",
           survives="sets how many threads run slices; the caller reduces their "
                    "results in sample order"),
    Mutant("thread-per-slice", "src/spd_agg/network.py",
           "min(WORKERS, len(items))", "min(WORKERS, len(items) // 2)",
           "tests/test_network.py"),
]


def table_faults(root: Path = ROOT) -> list[str]:
    """Rows whose old text does not occur exactly once in their file, or
    whose test file is missing; one line each."""
    faults = []
    for m in MUTANTS:
        count = (root / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            faults.append(f"{m.name}: old text occurs {count} times in {m.path}")
        if not (root / m.kills).is_file():
            faults.append(f"{m.name}: no test file {m.kills}")
    if len({m.name for m in MUTANTS}) != len(MUTANTS):
        faults.append("row names repeat")
    return faults


def _fails(copy: Path, test_file: str) -> bool:
    """Whether pytest fails ``test_file`` of the copy.  Bytecode is not
    written, so a mutant never meets a cached compile of the old text."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test_file],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode != 0


def main(argv: list[str]) -> int:
    faults = table_faults()
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        faults.append(f"no rows named {sorted(unknown)}")
    if faults:
        print("\n".join(faults))
        return 1
    rows = [m for m in MUTANTS if not argv or m.name in argv]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        shutil.copytree(ROOT, copy, ignore=ignore)

        broken = [f for f in dict.fromkeys(m.kills for m in rows) if _fails(copy, f)]
        if broken:
            print(f"fails unmutated: {', '.join(broken)}")
            return 1
        outcomes = []
        for m in rows:
            target = copy / m.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(m.old, m.new), encoding="utf-8")
            t0 = time.perf_counter()
            try:
                killed = _fails(copy, m.kills)
            finally:
                target.write_text(text, encoding="utf-8")
            outcomes.append(killed)
            note = "" if killed == (m.survives is None) else "  UNEXPECTED"
            why = f" ({m.survives})" if m.survives and not killed else ""
            print(f"{m.name:<26} {'killed' if killed else 'survived':<9} {m.kills:<24} "
                  f"{time.perf_counter() - t0:5.1f} s{why}{note}")
    wrong = sum(killed != (m.survives is None) for m, killed in zip(rows, outcomes))
    print(f"{len(rows)} rows: {sum(outcomes)} killed, {len(rows) - sum(outcomes)} survived, "
          f"{wrong} unexpected; {time.perf_counter() - start:.0f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
