"""Spans around calls into spd_agg, recorded from outside the package.

The tracer replaces public functions at every module attribute that
holds them (``network.matmul``, ``kernel.matmul``, ``cli.fts_read`` ...),
so calls the program makes between its own modules are timed without a
line of tracing code inside ``src/``.  Spans stay in memory while the
workload runs; :meth:`Tracer.dump` writes them once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time

import numpy as np

#: Per-layer metric -> the functions whose spans it sums.  A span nested
#: inside another span of the same metric (``dense_logits`` inside
#: ``dense_softmax_ce``) is not counted twice.
GROUPS = {
    "linalg.matmul": ["linalg.matmul"],
    "linalg.qr_reduced": ["linalg.qr_reduced"],
    "kernel.compute_sigma": ["kernel.compute_sigma"],
    "kernel.kernel_forward": ["kernel.kernel_forward"],
    "kernel.kernel_backward": ["kernel.kernel_backward"],
    "stiefel.transform_forward": ["stiefel.transform_forward"],
    "stiefel.transform_backward": [
        "stiefel.transform_backward_input",
        "stiefel.transform_backward_param",
    ],
    "stiefel.tangent_project": ["stiefel.tangent_project"],
    "stiefel.retract_step": ["stiefel.retract_step"],
    "stiefel.orthogonality_error": ["stiefel.StiefelPoint.orthogonality_error"],
    "head.vectorize": ["head.vectorize", "head.vectorize_backward"],
    "head.normalize": [
        "head.power_normalize",
        "head.power_normalize_backward",
        "head.l2_normalize",
        "head.l2_normalize_backward",
    ],
    "head.dense": ["head.dense_logits", "head.dense_softmax_ce"],
    "head.dense_logits": ["head.dense_logits"],
    "network.mix": ["network.mix_forward", "network.mix_backward"],
    "network.forward": ["network.forward"],
    "network.backward": ["network.backward"],
    "network.predict": ["network.predict"],
    "network.train": ["network.train"],
    "data.synth_generate": ["data.synth_generate"],
    "data.fts_write": ["data.fts_write"],
    "data.fts_read": ["data.fts_read"],
    "data.load_checkpoint": ["data.load_checkpoint"],
    "cli.main": ["cli.main"],
}


def _rank1_updates(args) -> int:
    """Inner dimension of a ``matmul`` call: one rank-1 update per index."""
    return int(np.shape(args[0])[1])


def _bytes_read(args) -> int:
    return os.path.getsize(args[0])


#: Exact work counts attached to a function's spans.
COUNTERS = {"linalg.matmul": _rank1_updates, "data.fts_read": _bytes_read}

PACKAGE = "spd_agg"
MODULES = ("linalg", "kernel", "stiefel", "head", "network", "data", "cli")


class Tracer:
    """Records (function, parent span, phase, start, end, count) per call.

    Only calls made while :attr:`phase` is set are recorded, so the
    benchmark's own checks, which also call the program, stay out of the
    figures.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.phase: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def recording(self, phase: str | None):
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    def _wrap(self, name: str, fn, counter):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            index = len(spans)
            count = counter(args) if counter else 0
            span = [name_id, stack[-1] if stack else -1, self.phase, clock(), 0, count]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()

        return traced

    def install(self) -> None:
        """Replace each traced function at every attribute that holds it."""
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        names = sorted({fn for fns in GROUPS.values() for fn in fns})
        for name in names:
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            traced = self._wrap(name, original, COUNTERS.get(name))
            if len(path) > 1:  # a method: patch the class that defines it
                self._patch(owner, path[-1], traced)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, traced)

    def _patch(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def summary(self, phase: str, per: int) -> dict[str, dict[str, float]]:
        """Calls, exact counts, inclusive and self seconds per metric group,
        summed over ``phase`` and divided by ``per`` (set-ups or rounds)."""
        group_of: dict[int, list[str]] = {}
        for group, fns in GROUPS.items():
            for fn in fns:
                if fn in self.names:
                    group_of.setdefault(self.names.index(fn), []).append(group)
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                child_ns[span[1]] += span[4] - span[3]
        out = {g: {"calls": 0, "count": 0, "s": 0.0, "self_s": 0.0} for g in GROUPS}
        for i, (name_id, parent, span_phase, start, end, count) in enumerate(self.spans):
            if span_phase != phase:
                continue
            for group in group_of[name_id]:
                entry = out[group]
                entry["calls"] += 1
                entry["count"] += count
                entry["self_s"] += (end - start - child_ns[i]) * 1e-9
                if not self._inside_group(parent, group, group_of):
                    entry["s"] += (end - start) * 1e-9
        for entry in out.values():
            for key in entry:
                entry[key] /= per
        return out

    def _inside_group(self, parent: int, group: str, group_of) -> bool:
        while parent >= 0:
            span = self.spans[parent]
            if group in group_of[span[0]]:
                return True
            parent = span[1]
        return False

    def dump(self, path) -> None:
        """Write every span as one JSON object: names plus
        ``[name_id, parent, phase, start_ns, end_ns, count]`` rows."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"names": self.names, "spans": self.spans}, f, separators=(",", ":"))
