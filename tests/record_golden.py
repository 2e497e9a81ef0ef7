"""Re-record the golden runs under ``tests/golden/`` and report what moved.

    PYTHONPATH=src python tests/record_golden.py

Trains every run of ``test_acceptance.GOLDEN_RUNS`` with the arguments
the replay tests use, writes its metrics file and final checkpoint over
the committed ones, and prints one line per run: ``unchanged``, or
``moved`` with the files that moved, the first epoch whose metrics line
differs and the fields that differ there, and the largest |change| of
``mean_train_loss`` over the epochs.  The golden bytes should move only
on purpose; ROADMAP.md gives the rules for a re-record.  pytest does not
collect this file.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from spd_agg.cli import main
from test_acceptance import GOLDEN, GOLDEN_SUFFIXES, golden_inputs, _train_args


def _report(name: str, old: dict, new: dict) -> str:
    """One report line from the old and new bytes of a run, by suffix."""
    if old == new:
        return f"{name}: unchanged"
    moved = [s for s in GOLDEN_SUFFIXES if old[s] != new[s]]
    old_epochs, new_epochs = (
        [json.loads(line) for line in files[GOLDEN_SUFFIXES[0]].splitlines()]
        for files in (old, new)
    )
    differ = [
        f"{i} ({', '.join(k for k in b if a.get(k) != b[k])})"
        for i, (a, b) in enumerate(zip(old_epochs, new_epochs), 1)
        if a != b
    ]
    loss = max(
        abs(a["mean_train_loss"] - b["mean_train_loss"]) for a, b in zip(old_epochs, new_epochs)
    )
    first = f"first differing epoch {differ[0]}" if differ else "no epoch differs"
    return f"{name}: moved ({', '.join(moved)}); {first}; largest |delta mean_train_loss| {loss:.3e}"


def record() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, paths in golden_inputs(root).items():
            out = root / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(_train_args(paths, out))
            if code != 0:
                print(f"{name}: training failed", file=sys.stderr)
                return 1
            golden = GOLDEN / name
            old = {s: Path(f"{golden}{s}").read_bytes() for s in GOLDEN_SUFFIXES}
            new = {s: Path(f"{out}{s}").read_bytes() for s in GOLDEN_SUFFIXES}
            for s, data in new.items():
                Path(f"{golden}{s}").write_bytes(data)
            print(_report(name, old, new))
    return 0


if __name__ == "__main__":
    sys.exit(record())
