"""Command line front end.

Subcommands: gen, train, distill, eval, bench. ``train`` and ``distill`` run
one command body; ``distill`` trains the student and may name a teacher.

Exit codes are chosen in one place, ``main``, by one rule: 0 success; 2 a
usage or configuration error (``UsageError``); 3 an I/O error, that is any
``OSError`` or a ``ValueError`` caused by one (a missing or unreadable
checkpoint), so a missing file or a directory where a file is expected is an
I/O error (3); 4 any other ``ValueError``, a semantic error (incompatible
models, a malformed dataset or checkpoint, a model driven to a non-finite
value). Loaders raise nothing else for bad input.

JSON config files must carry ``schema_version`` = 1; unknown keys and values
of the wrong JSON type are rejected rather than ignored. Every long-running
command writes a run manifest (<out>.run.json) describing the invocation
before work starts.

Thread count is controlled by the TDISTILL_THREADS environment variable
(default: leave the BLAS defaults alone); ``bench`` always pins itself to a
single thread for stable latency numbers. Pinning happens before numpy is
imported, which is why this module defers all heavy imports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

CONFIG_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SEMANTIC = 4

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class UsageError(Exception):
    pass


def _pin_threads(force_single: bool = False) -> None:
    n = "1" if force_single else os.environ.get("TDISTILL_THREADS")
    if n is None:
        return
    if "numpy" in sys.modules and not force_single:
        return  # too late to take effect; leave whatever is configured
    for var in _THREAD_VARS:
        os.environ[var] = n


def _load_config(path: str | None, cls, overrides: dict) -> object:
    """Build a dataclass config from an optional JSON file plus CLI overrides."""
    from . import train as tr

    values: dict = {}
    if path is not None:
        with open(path) as fh:
            try:
                values = json.load(fh)
            except ValueError as exc:
                raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(values, dict):
            raise UsageError(f"config {path} must be a JSON object")
        version = values.pop("schema_version", None)
        if version != CONFIG_SCHEMA_VERSION:
            raise UsageError(
                f"config {path}: schema_version must be {CONFIG_SCHEMA_VERSION}, got {version!r}"
            )
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return tr.config_from_dict(cls, values)
    except ValueError as exc:
        raise UsageError(f"invalid {cls.__name__}: {exc}") from exc


def _dataset_hash(path: str) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_prefix: str, command: str, payload: dict) -> str:
    from . import __version__

    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "command": command,
        "argv": sys.argv[1:],
        "tool_version": __version__,
        "started_unix": time.time(),
        **payload,
    }
    path = out_prefix + ".run.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    from . import scenegen as sg

    cfg = _load_config(
        args.config, sg.GenConfig,
        {"num_scenes": args.num_scenes, "seed": args.seed},
    )
    _write_manifest(
        args.out, "gen",
        {"seed": cfg.seed, "config": asdict(cfg), "artifacts": [args.out]},
    )
    sg.write_dataset(cfg, args.out)
    scenes = sg.load_dataset(args.out)
    targets = multimodal = 0
    for scene in scenes:
        for agent in scene.prediction_targets():
            targets += 1
            if agent.intent_probs is not None and float(max(agent.intent_probs)) < 1.0:
                multimodal += 1
    frac = multimodal / targets if targets else 0.0
    print(
        f"wrote {len(scenes)} scenes to {args.out} "
        f"(sha256 {_dataset_hash(args.out)[:16]}); "
        f"{targets} targets, {frac:.0%} with multimodal intent"
    )
    return EXIT_OK


def _cmd_fit(args) -> int:
    """``train`` and ``distill``: the teacher trains on the base objective,
    the student on the configured method, against ``--teacher`` if given."""
    import numpy as np

    from . import models as md
    from . import scenegen as sg
    from . import train as tr

    cfg = _load_config(
        args.config, tr.TrainConfig,
        {
            "steps": args.steps, "seed": args.seed, "lr": args.lr,
            "clip_norm": args.clip_norm, "method": args.method,
            "lambda_mode": args.lambda_mode,
        },
    )
    cfg_cls = md.TeacherConfig if args.model == "teacher" else md.StudentConfig
    model_cfg = _load_config(args.model_config, cfg_cls, {"num_modes": args.k})
    scenes = sg.load_dataset(args.data)
    teacher = tr.load_checkpoint(args.teacher) if args.teacher else None
    _write_manifest(
        args.out, args.command,
        {
            "seed": cfg.seed, "model": args.model, "method": cfg.method,
            "config": asdict(cfg), "model_config": asdict(model_cfg), "data": args.data,
            "teacher": args.teacher, "dataset_sha256": _dataset_hash(args.data),
            "artifacts": [args.out + ".manifest.json", args.out + ".weights.bin"],
        },
    )
    params = md.init_params(model_cfg, np.random.default_rng(cfg.seed))
    log = tr.TrainLog(args.log) if args.log else None
    if args.model == "teacher":
        log = tr.train_teacher(scenes, params, cfg, log=log)
    else:
        log = tr.distill_student(scenes, params, cfg, teacher=teacher, log=log)
    if not log.records:
        raise ValueError("no training step had a predictable agent")
    tr.save_checkpoint(params, args.out)
    print(
        f"trained {args.model} for {len(log.records)} steps, skipped {cfg.steps - len(log.records)} "
        f"with no target to predict; final loss {log.records[-1].loss:.4f}"
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    from . import metrics as mt
    from . import scenegen as sg
    from . import train as tr

    params = tr.load_checkpoint(args.ckpt)
    scenes = sg.load_dataset(args.data)
    preds, gts = tr.predict_dataset(scenes, params)
    if not preds:
        raise ValueError("no predictable agents in the dataset")
    report = mt.evaluate(
        preds, gts, k=args.k, run_id=args.run_id, dataset=os.path.basename(args.data),
        model=params.kind, method=args.method,
    )
    mt.write_csv(args.out, [report])
    print(
        f"minADE {report.min_ade:.4f}  minFDE {report.min_fde:.4f}  "
        f"MR {report.miss_rate:.4f}  mAP {report.mean_ap:.4f}  (n={report.n_agents})"
    )
    return EXIT_OK


def _parse_agents(text: str) -> list[int]:
    try:
        agents = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --agents {text!r}; expected like '8,16,32'") from exc
    if not agents or any(n < 1 for n in agents):
        raise UsageError(f"bad --agents {text!r}")
    return agents


def _cmd_bench(args) -> int:
    import numpy as np

    from . import benchlat as bl
    from . import models as md

    sizes = [(n, args.m) for n in _parse_agents(args.agents)]
    _write_manifest(
        args.out, "bench",
        {"sizes": sizes, "models": args.model, "reps": args.reps, "seed": args.seed,
         "artifacts": [args.out] + ([args.svg] if args.svg else [])},
    )
    kinds = ("teacher", "student") if args.model == "both" else (args.model,)
    points = []
    for kind in kinds:
        if kind == "teacher":
            cfg = md.TeacherConfig(
                max_neighbors=max(n for n, _ in sizes),
                max_polylines=max(args.m, 1),
            )
        else:
            cfg = md.StudentConfig()
        params = md.init_params(cfg, np.random.default_rng(args.seed))
        points.extend(bl.run_bench(kind, params, sizes, reps=args.reps, seed=args.seed))
    bl.write_bench_csv(points, args.out)
    if args.svg:
        bl.render_scaling_svg(points, args.svg)
    for p in points:
        print(f"{p.model} n={p.n_agents} m={p.m_road} median {p.median_s * 1e3:.2f} ms")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajdistill", description="trajectory forecasting teacher/student toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic scene dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--num-scenes", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON GenConfig")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="train a model on the base objective")
    p.add_argument("--model", default="teacher", choices=["teacher", "student"])
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint prefix")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lr", type=float, default=None, help="default 0.0005")
    p.add_argument("--clip", "--clip-norm", dest="clip_norm", type=float, default=None,
                   help="global gradient-norm threshold, default 10")
    p.add_argument("--k", type=int, default=None, help="mixture modes, default 6")
    p.add_argument("--config", default=None, help="JSON training config")
    p.add_argument("--model-config", default=None, help="JSON model config")
    p.add_argument("--log", default=None, help="JSON-lines step log path")
    p.set_defaults(func=_cmd_fit, teacher=None, method=None, lambda_mode=None)

    p = sub.add_parser("distill", help="train the scene-centric student")
    p.add_argument("--data", required=True)
    p.add_argument("--teacher", default=None, help="teacher checkpoint prefix")
    p.add_argument("--out", required=True, help="checkpoint prefix")
    p.add_argument(
        "--method", default=None, choices=["none", "set", "sample", "distribution"]
    )
    p.add_argument("--lambda-mode", default=None, choices=["constant", "warmup25"])
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--clip", "--clip-norm", dest="clip_norm", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON training config")
    p.add_argument("--model-config", default=None, help="JSON student model config")
    p.add_argument("--log", default=None)
    p.set_defaults(func=_cmd_fit, model="student")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True, help="checkpoint prefix")
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--run-id", default="")
    p.add_argument("--method", default="")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="latency benchmark (single-threaded)")
    p.add_argument("--out", required=True, help="bench CSV path")
    p.add_argument("--svg", default=None, help="optional scaling plot")
    p.add_argument("--model", default="both", choices=["teacher", "student", "both"])
    p.add_argument("--agents", default="8,16,32,64,128", help="comma-separated agent counts")
    p.add_argument("--m", type=int, default=16, help="road polylines per scene")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    _pin_threads(force_single=args.command == "bench")
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        # the one map from a failure to an exit code (see the module docstring)
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            return EXIT_USAGE
        if isinstance(exc, OSError) or isinstance(exc.__cause__, OSError):
            return EXIT_IO
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
