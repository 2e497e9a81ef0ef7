"""Command-line interface.

Subcommands::

    spd-agg synth     --classes N --per-class N --channels C --spatial S --seed S --out F
    spd-agg train     --data F --test F [--config F.json] [--seed S]
                      [--out-metrics F] [--out-ckpt F]
    spd-agg eval      --data F --ckpt F
    spd-agg gradcheck [--config F.json] [--tol T] [--seed S]
    spd-agg certify   --aggregator kernel|covariance --channels C --spatial S
                      --trials N --seed S

Exit codes: 0 success, 1 runtime failure (diagnostic on stderr), 2 usage
error.  ``gradcheck`` exits 1 if any gradient block fails its tolerance.

The config JSON is one flat object of scalar values, one key per field
of the pipeline and training dataclasses (lower_snake_case).  Unknown
keys, and values of the wrong JSON type for their field, are rejected.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from .data import fts_read, fts_write, load_checkpoint, save_checkpoint, synth_generate
from .kernel import certify, covariance_forward, kernel_forward
from .linalg import seeded_rng
from .network import (
    AGGREGATORS, PipelineConfig, TrainConfig, evaluate_accuracy, grad_check, train,
)
from .stiefel import stiefel_init, transform_forward

__all__ = ["main", "entry", "parse_config", "DEFAULT_GRADCHECK_PIPELINE"]

_PIPELINE_KEYS = tuple(f.name for f in dataclasses.fields(PipelineConfig))
_TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig))
_FIELD_TYPES = {
    f.name: f.type for cls in (PipelineConfig, TrainConfig) for f in dataclasses.fields(cls)
}

#: What a config value may be, by the annotation of its dataclass field:
#: a description and the exact Python types ``json`` parses it to (so a
#: bool is no integer, and 16.0 is no integer either).
_JSON_TYPES = {
    "bool": ("true or false", (bool,)),
    "int": ("an integer", (int,)),
    "float": ("a number", (int, float)),
    "str": ("a string", (str,)),
}

#: Desk-scale defaults used when a config file omits architecture fields.
_PIPELINE_DEFAULTS = {
    "in_channels": 16,
    "mixed_channels": 12,
    "transform_dim": 8,
    "num_classes": 2,
}

#: Small shapes for the self-contained gradient check.
DEFAULT_GRADCHECK_PIPELINE = PipelineConfig(
    in_channels=6, mixed_channels=5, transform_dim=3, num_classes=3
)


def parse_config(raw: dict) -> tuple[PipelineConfig, TrainConfig]:
    """Split one flat config mapping into the two config dataclasses.
    Each value must have the JSON type of its field; the dataclasses
    check the ranges."""
    unknown = set(raw) - set(_FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        name, types = _JSON_TYPES[_FIELD_TYPES[key]]
        if type(value) not in types:
            raise ValueError(f"config key {key!r} must be {name}, got {json.dumps(value)}")
    pd = dict(_PIPELINE_DEFAULTS)
    pd.update({k: raw[k] for k in _PIPELINE_KEYS if k in raw})
    pipeline = PipelineConfig(**pd)
    tc = TrainConfig(**{k: raw[k] for k in _TRAIN_KEYS if k in raw})
    return pipeline, tc


def _load_config(path) -> tuple[PipelineConfig, TrainConfig]:
    if path is None:
        return parse_config({})
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except RecursionError:
            raise ValueError("config file nests too deeply") from None
    if not isinstance(raw, dict):
        raise ValueError("config file must hold one JSON object")
    return parse_config(raw)


def cmd_synth(args) -> int:
    ds = synth_generate(
        num_classes=args.classes,
        per_class=args.per_class,
        c0=args.channels,
        h=args.spatial,
        w=args.spatial,
        seed=args.seed,
    )
    fts_write(ds, args.out)
    print(
        json.dumps(
            {
                "out": str(args.out),
                "samples": len(ds),
                "channels": ds.shape[0],
                "height": ds.shape[1],
                "width": ds.shape[2],
                "num_classes": ds.num_classes,
            }
        )
    )
    return 0


def cmd_train(args) -> int:
    pipeline, tc = _load_config(args.config)
    if args.seed is not None:
        tc = dataclasses.replace(tc, seed=args.seed)
    train_ds = fts_read(args.data)
    test_ds = fts_read(args.test) if args.test else None

    params, history = train(train_ds, pipeline, tc, test_dataset=test_ds)

    if args.out_metrics:
        with open(args.out_metrics, "w", encoding="utf-8") as f:
            for rec in history:
                f.write(rec.to_json_line() + "\n")
    if args.out_ckpt:
        save_checkpoint(args.out_ckpt, params, pipeline)

    final = history[-1] if history else None
    test_accs = [r.test_accuracy for r in history if r.test_accuracy is not None]
    print(
        json.dumps(
            {
                "epochs": len(history),
                "final_train_loss": final.mean_train_loss if final else None,
                "final_test_accuracy": final.test_accuracy if final else None,
                "best_test_accuracy": max(test_accs) if test_accs else None,
                "wall_ms_total": sum(r.wall_ms for r in history),
            }
        )
    )
    return 0


def cmd_eval(args) -> int:
    params, pipeline = load_checkpoint(args.ckpt)
    ds = fts_read(args.data)
    acc = evaluate_accuracy(ds.samples, ds.labels, params, pipeline)
    print(json.dumps({"accuracy": acc, "samples": len(ds)}))
    return 0


def cmd_gradcheck(args) -> int:
    if args.config:
        pipeline, _ = _load_config(args.config)
    else:
        pipeline = DEFAULT_GRADCHECK_PIPELINE
    if not math.isfinite(args.tol):
        raise ValueError(f"--tol must be finite, got {args.tol}")
    report = grad_check(pipeline, seed=args.seed, tolerance=args.tol)
    print(report.to_json())
    return 0 if report.all_passed else 1


def cmd_certify(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    rng = seeded_rng(args.seed)
    transform_dim = max(1, args.channels // 2)
    min_agg = None
    min_y = None
    for _ in range(args.trials):
        x = rng.standard_normal((args.channels, args.spatial, args.spatial))
        if args.aggregator == "kernel":
            aggregate, _ = kernel_forward(x)
        else:
            aggregate = covariance_forward(x)
        w = stiefel_init(args.channels, transform_dim, rng)
        y, _ = transform_forward(aggregate, w)
        eig_a = certify(aggregate)
        eig_y = certify(y)
        min_agg = eig_a if min_agg is None else min(min_agg, eig_a)
        min_y = eig_y if min_y is None else min(min_y, eig_y)
    print(
        json.dumps(
            {
                "aggregator": args.aggregator,
                "channels": args.channels,
                "spatial": args.spatial,
                "transform_dim": transform_dim,
                "trials": args.trials,
                "min_eig_aggregate": min_agg,
                "min_eig_transformed": min_y,
            }
        )
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    p = argparse.ArgumentParser(
        prog="spd-agg",
        description="Second-order feature aggregation with a learnable manifold compression.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic covariance-structured dataset")
    s.add_argument("--classes", type=int, required=True)
    s.add_argument("--per-class", type=int, required=True)
    s.add_argument("--channels", type=int, required=True)
    s.add_argument("--spatial", type=int, required=True, help="height = width")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)

    t = sub.add_parser("train", help="two-stage SGD training run")
    t.add_argument("--data", required=True, help="training FTS file")
    t.add_argument("--test", default=None, help="held-out FTS file")
    t.add_argument("--config", default=None, help="JSON config file")
    t.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    t.add_argument("--out-metrics", default=None, help="JSON-lines metrics output")
    t.add_argument("--out-ckpt", default=None, help="checkpoint output")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="accuracy of a checkpoint on a dataset")
    e.add_argument("--data", required=True)
    e.add_argument("--ckpt", required=True)
    e.set_defaults(func=cmd_eval)

    g = sub.add_parser("gradcheck", help="finite-difference audit of all gradients")
    g.add_argument("--config", default=None)
    g.add_argument("--tol", type=float, default=1e-5)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gradcheck)

    c = sub.add_parser(
        "certify",
        help="eigenvalue audit of aggregated and compressed matrices "
        "(compression uses transform_dim = max(1, channels // 2))",
    )
    c.add_argument("--aggregator", choices=AGGREGATORS, required=True)
    c.add_argument("--channels", type=int, required=True)
    c.add_argument("--spatial", type=int, required=True, help="height = width")
    c.add_argument("--trials", type=int, required=True)
    c.add_argument("--seed", type=int, required=True)
    c.set_defaults(func=cmd_certify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:  # the package's own errors subclass ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
