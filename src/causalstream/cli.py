"""Command-line surface: generate, analyze, evaluate, preset.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import SIGNIFICANCE_LEVELS, acf, ljung_box, mmd_heatmap
from .config import (
    AnalysisOptions,
    ConfigError,
    EvalOptions,
    RunConfig,
    config_to_document,
    load_config,
)
from .drift import concept_id
from .evaluate import (
    DelayedLabels,
    drift_response_metrics,
    make_learner,
    prequential_run,
)
from .generator import build_stream, collect
from .presets import describe_preset, list_presets, preset_config
from .stream_io import (
    StreamFormatError,
    format_value,
    read_stream_csv,
    sidecar_path,
    write_sidecar,
    write_stream_csv,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalstream",
        description="Causal-graph data stream generation, analysis, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a stream CSV plus metadata sidecar")
    gen.add_argument("--config", help="JSON run configuration")
    gen.add_argument("--preset", help="named preset instead of a config file")
    gen.add_argument("--seed", type=int, help="overrides the config seed")
    gen.add_argument("--out", help="output CSV path")

    ana = sub.add_parser("analyze", help="autocorrelation, Ljung-Box, or MMD report")
    ana.add_argument("mode", choices=("acf", "ljungbox", "mmd"))
    ana.add_argument("input", help="stream CSV to analyze")
    ana.add_argument("--config", help="JSON config carrying analysis options")
    ana.add_argument("--lags", type=int, help="number of lags (acf, ljungbox)")
    ana.add_argument("--batch-size", type=int, help="batch size (mmd)")
    ana.add_argument("--seed", type=int, default=0, help="bandwidth subsample seed (mmd)")
    ana.add_argument("--out", help="report path")

    ev = sub.add_parser("evaluate", help="prequential evaluation of a stream")
    ev.add_argument("input", nargs="?", help="stream CSV (omit to generate from config)")
    ev.add_argument("--config", help="JSON run configuration")
    ev.add_argument("--preset", help="named preset instead of a config file")
    ev.add_argument("--seed", type=int, help="overrides the config seed")
    ev.add_argument("--window", type=int, help="prequential window W")
    ev.add_argument("--delay", type=int, help="label delay in instances")
    ev.add_argument("--label-fraction", type=float, help="labeled share of the stream")
    ev.add_argument("--out", help="curve CSV path")

    pre = sub.add_parser("preset", help="list or describe the shipped presets")
    pre.add_argument("action", choices=("list", "describe"))
    pre.add_argument("name", nargs="?", help="preset name for describe")
    return parser


def _replaced(obj, **changes):
    """``obj`` with every change that is not ``None``; a value that ``obj``'s
    checks reject is a ``ConfigError``."""
    try:
        return replace(obj, **{k: v for k, v in changes.items() if v is not None})
    except ValueError as e:
        raise ConfigError(str(e)) from None


@contextmanager
def _staged(out: Path):
    """A new directory beside ``out`` to write a command's files in; they
    are renamed beside ``out`` when the block completes, and a failed block
    or rename leaves no output file."""
    stage = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    stage.mkdir()
    moved = []
    try:
        yield stage
        for f in sorted(stage.iterdir()):
            os.replace(f, out.parent / f.name)
            moved.append(out.parent / f.name)
    except BaseException:
        for path in moved:
            path.unlink(missing_ok=True)
        raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _resolve_run(args) -> RunConfig:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        run = load_config(args.config)
    elif args.preset:
        try:
            cfg = preset_config(args.preset, seed=args.seed)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        return RunConfig(generator=cfg)
    else:
        raise ConfigError("a --config file or --preset name is required")
    return replace(run, generator=_replaced(run.generator, seed=args.seed))


def _cmd_generate(args) -> int:
    run = _resolve_run(args)
    cfg = run.generator
    out = Path(args.out or run.out or "stream.csv")
    gen = build_stream(cfg)
    with _staged(out) as stage:
        rows = write_stream_csv(
            stage / out.name, (gen.step() for _ in range(cfg.dataset_size)), gen.feature_names
        )
        write_sidecar(stage / out.name, _sidecar_meta(cfg, gen, rows))
    print(f"wrote {rows} rows to {out} (metadata: {sidecar_path(out)})")
    return 0


def _sidecar_meta(cfg, gen, rows: int) -> dict:
    boundaries = [{"id": concept_id(0), "t_start": 0}]
    for i, event in enumerate(cfg.schedule):
        boundaries.append(
            {
                "id": concept_id(i + 1),
                "t_start": event.t_start,
                "t_end": event.t_end,
                "kind": event.kind,
                "rate": event.rate,
            }
        )
    return {
        "seed": cfg.seed,
        "rows": rows,
        "task": cfg.task,
        "config": config_to_document(cfg),
        "schedule": cfg.schedule.to_dict(),
        "concept_boundaries": boundaries,
        "feature_columns": {
            name: node for name, node in zip(gen.feature_names, gen.emitted_features)
        },
        "format": {"missing": "empty field", "categories": "integer codes"},
    }


def _analysis_columns(frame) -> list[tuple[str, np.ndarray]]:
    cols = [(name, frame.X[:, j]) for j, name in enumerate(frame.feature_names)]
    # the label enters the tests as a plain real series (class index for
    # classification streams)
    cols.append(("y", np.asarray(frame.y, dtype=float)))
    return cols


def _cmd_analyze(args) -> int:
    opts = load_config(args.config).analysis if args.config else AnalysisOptions()
    opts = _replaced(opts, lags=args.lags, batch_size=args.batch_size)
    frame = read_stream_csv(args.input)
    out = Path(args.out or f"analysis_{args.mode}.csv")

    if args.mode in ("acf", "ljungbox"):
        if frame.missing_mask.any():
            raise ConfigError(
                "autocorrelation analysis needs a complete stream "
                "(this one has missing values)"
            )
        lines = []
        if args.mode == "acf":
            lines.append("column,lag,acf")
            for name, col in _analysis_columns(frame):
                result = acf(col, opts.lags)
                for lag, value in enumerate(result.correlations):
                    lines.append(f"{name},{lag},{format_value(float(value))}")
        else:
            header = ["column", "Q", "p_value"] + [
                f"reject_{lvl}" for lvl in SIGNIFICANCE_LEVELS
            ]
            lines.append(",".join(header))
            for name, col in _analysis_columns(frame):
                r = ljung_box(col, opts.lags)
                fields = [name, format_value(r.Q), format_value(r.p_value)]
                fields += [
                    "1" if r.reject_at[lvl] else "0" for lvl in SIGNIFICANCE_LEVELS
                ]
                lines.append(",".join(fields))
        with _staged(out) as stage, open(stage / out.name, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.mode} report to {out}")
        return 0

    if frame.missing_mask.any():
        raise ConfigError("MMD analysis needs a complete stream")
    matrix = mmd_heatmap(
        frame.X,
        opts.batch_size,
        y=frame.y,
        include_label=opts.include_label,
        seed=args.seed,
    )
    B = matrix.n_batches
    grid = out.with_suffix(".grid.csv")
    with _staged(out) as stage:
        with open(stage / out.name, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# squared MMD matrix; bandwidth={format_value(matrix.bandwidth)}\n")
            fh.write("," + ",".join(str(j) for j in range(B)) + "\n")
            for i in range(B):
                row = ",".join(format_value(float(v)) for v in matrix.values[i])
                fh.write(f"{i},{row}\n")
        with open(stage / grid.name, "w", encoding="utf-8", newline="") as fh:
            fh.write("batch_i,batch_j,mmd2\n")
            for i in range(B):
                for j in range(B):
                    fh.write(f"{i},{j},{format_value(float(matrix.values[i, j]))}\n")
    print(f"wrote MMD matrix to {out} and grid to {grid}")
    return 0


def _cmd_evaluate(args) -> int:
    run = None
    schedule = None
    if args.config or args.preset:
        run = _resolve_run(args)
    if run is None and not args.input:
        raise ConfigError("need a stream CSV, a --config, or a --preset")

    if args.input:
        frame = read_stream_csv(args.input)
        if run is not None:
            schedule = run.generator.schedule
    else:
        gen = build_stream(run.generator)
        frame = collect(gen, run.generator.dataset_size)
        schedule = run.generator.schedule

    ev = _replaced(
        run.evaluation if run is not None else EvalOptions(),
        window=args.window,
        delay=args.delay,
        label_fraction=args.label_fraction,
    )

    n_classes = None
    if frame.task == "classification":
        n_classes = int(np.max(frame.y)) + 1 if frame.n else 2
        if run is not None and run.generator.concept is not None:
            n_classes = max(n_classes, run.generator.concept.n_classes)
    learner_name = ev.learner
    if learner_name is None:
        learner_name = "logistic" if frame.task == "classification" else "linear"
    try:
        learner = make_learner(
            learner_name, frame.task, frame.X.shape[1], n_classes
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None

    overlay = DelayedLabels(delay=ev.delay, label_fraction=ev.label_fraction)
    curve = prequential_run(
        frame, learner, W=ev.window, initial_train=ev.initial_train, overlay=overlay
    )

    # the event scores may still fail, so they come before any output opens
    events = None
    if schedule is not None and len(schedule):
        events = drift_response_metrics(curve, schedule)
    out = Path(args.out or (run.out if run else None) or "curve.csv")
    ev_out = out.with_suffix(".events.csv")
    msg = f"wrote {curve.metric} curve to {out}"
    with _staged(out) as stage:
        with open(stage / out.name, "w", encoding="utf-8", newline="") as fh:
            fh.write(
                f"# prequential {curve.metric}; W={curve.W}; learner={learner_name}; "
                f"warmup t<{curve.initial_train} excluded from the curve\n"
            )
            fh.write(f"t,{curve.metric}\n")
            for t, v in zip(curve.t, curve.series):
                fh.write(f"{t},{format_value(float(v))}\n")
        if events is not None:
            with open(stage / ev_out.name, "w", encoding="utf-8", newline="") as fh:
                fh.write("event,kind,t_start,drop,recovery,min_t\n")
                for e in events:
                    fh.write(
                        f"{e['event']},{e['kind']},{e['t_start']},"
                        f"{format_value(e['drop'])},{format_value(e['recovery'])},"
                        f"{e['min_t']}\n"
                    )
            msg += f" and event summary to {ev_out}"
    print(msg)
    return 0


def _cmd_preset(args) -> int:
    if args.action == "list":
        for name in list_presets():
            print(name)
        return 0
    if not args.name:
        raise ConfigError("describe needs a preset name")
    try:
        print(describe_preset(args.name))
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "analyze": _cmd_analyze,
        "evaluate": _cmd_evaluate,
        "preset": _cmd_preset,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except StreamFormatError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
