"""Command-line front end: synth, detect, boost, and ablate.

Settings resolve in priority order: explicit flags, then a JSON config file
(--config; a previously emitted report also works, its "config" key is
used), then the UADB_SEED environment variable for the seed, then the
defaults. Each flag declares its default once, read from the library's
TrainSpec, BoosterConfig or DetectorParams where those hold it; a config
file becomes the subcommand's defaults and the command line is parsed
again. Every report embeds the fully resolved config, so re-running a
command from its own report reproduces the artifacts byte for byte.

Exit codes: 0 success, 2 usage errors, 1 data/runtime errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .booster import (
    BoosterConfig,
    BoosterResult,
    Strategy,
    ablation_scores,
    iteration_metrics,
    run_booster,
    score_points,
)
from .data import (
    DataError,
    Dataset,
    SyntheticKind,
    generate_synthetic,
    import_scores,
    load_csv,
    minmax_values,
    read_text,
    save_csv,
    save_scores,
    scale_features,
    write_csv,
)
from .detectors import DetectorKind, DetectorParams, fit_score
from .metrics import aucroc, average_precision, correction_rate, variance_gap
from .nn import Loss, TrainSpec


class UsageError(Exception):
    """Missing or contradictory settings after config resolution."""


def _load_config(path: str) -> dict:
    try:
        blob = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    if isinstance(blob, dict) and isinstance(blob.get("config"), dict):
        blob = blob["config"]  # a report was passed; reuse its embedded config
    if not isinstance(blob, dict):
        raise DataError(f"{path}: config must be a JSON object")
    return blob


def _fits_flag(action: argparse.Action, value) -> bool:
    """Whether a config-file value has the type and choice its flag declares."""
    if isinstance(action, argparse.BooleanOptionalAction):
        return isinstance(value, bool)
    expected = (int, float) if action.type is float else action.type or str
    return (
        isinstance(value, expected)
        and not isinstance(value, bool)
        and (action.choices is None or value in action.choices)
    )


def _apply_config(p: argparse.ArgumentParser, config: dict) -> None:
    """Make config-file values the subcommand's defaults; a JSON null leaves a default as is."""
    flags = {a.dest: a for a in p._actions if a.dest not in ("help", "config")}
    unknown = set(config) - set(flags)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    config = {key: value for key, value in config.items() if value is not None}
    for key, value in config.items():
        if not _fits_flag(flags[key], value):
            raise UsageError(f"config value {key}={value!r} is not a valid --{key.replace('_', '-')}")
    p.set_defaults(**config)


def _require(cfg: dict, key: str) -> None:
    if cfg.get(key) is None:
        raise UsageError(f"--{key.replace('_', '-')} is required (flag or config)")


def _write_json(blob: dict, path: str) -> None:
    Path(path).write_text(json.dumps(blob, indent=2) + "\n", encoding="utf-8")


def _load_dataset(cfg: dict) -> Dataset:
    ds = load_csv(cfg["data"], cfg["label_column"])
    if ds.labels is not None and ds.labels.min() == ds.labels.max():
        raise DataError(f"label column {cfg['label_column']!r} holds one class; metrics need both 0 and 1")
    return scale_features(ds) if cfg["scale"] else ds


def _detector_params(cfg: dict, kind: str) -> DetectorParams:
    """Settings for detector `kind`; those it refuses on any dataset are usage errors."""
    try:
        return DetectorParams(
            kind=DetectorKind(kind),
            trees=cfg["trees"],
            subsample=cfg["subsample"],
            bins=cfg["bins"],
            k=cfg["k"],
            components=cfg["components"],
            seed=cfg["seed"],
        )
    except DataError as exc:
        raise UsageError(str(exc)) from None


def _teacher_params(cfg: dict) -> DetectorParams | None:
    """The native teacher's settings, or None when scores come from --teacher-scores."""
    if (cfg["teacher"] is None) == (cfg["teacher_scores"] is None):
        raise UsageError("exactly one of --teacher / --teacher-scores is required")
    return None if cfg["teacher"] is None else _detector_params(cfg, cfg["teacher"])


def _teacher_scores(ds: Dataset, cfg: dict, params: DetectorParams | None, seed: int) -> np.ndarray:
    if params is None:
        return import_scores(cfg["teacher_scores"], ds.n)
    return fit_score(ds, replace(params, seed=seed))


def _booster_config(cfg: dict, strategy: Strategy) -> BoosterConfig:
    """The run's BoosterConfig at seed cfg["seed"]; bad settings are usage errors."""
    try:
        train = TrainSpec(
            epochs=cfg["epochs"],
            batch_size=cfg["batch_size"],
            learning_rate=cfg["learning_rate"],
            loss=Loss(cfg["loss"]),
        )
        return BoosterConfig(
            T=cfg["iterations"],
            fold_count=cfg["folds"],
            strategy=strategy,
            train=train,
            seed=cfg["seed"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _run_metrics(ds: Dataset, teacher: np.ndarray, result: BoosterResult) -> dict:
    y = ds.labels
    out = {
        "teacher": {"aucroc": aucroc(teacher, y), "ap": average_precision(teacher, y)},
        "booster": {
            "aucroc": aucroc(result.final_scores, y),
            "ap": average_precision(result.final_scores, y),
            "correction_rate": correction_rate(teacher, result.final_scores, y),
        },
        "iterations": iteration_metrics(result, y),
    }
    if result.variance_history.shape[1]:
        out["booster"]["variance_gap"] = variance_gap(result.variance_history[:, -1], y)
    return out


def _save_history(result: BoosterResult, path: str) -> None:
    """Label history as CSV, one column per iteration (y1 = teacher)."""
    matrix = result.label_history
    write_csv(path, [f"y{t + 1}" for t in range(matrix.shape[1])], matrix.tolist())


def _save_grid(result: BoosterResult, ds: Dataset, path: str, grid_size: int) -> None:
    """Booster scores over a 2-d mesh spanning the (scaled) feature ranges."""
    lo = ds.features.min(axis=0)
    hi = ds.features.max(axis=0)
    xs = np.linspace(lo[0], hi[0], grid_size)
    ys = np.linspace(lo[1], hi[1], grid_size)
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel()])
    write_csv(path, ["x1", "x2", "score"], np.column_stack([points, score_points(result, points)]).tolist())


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(cfg: dict) -> tuple[dict, list[str]]:
    _require(cfg, "kind")
    try:  # n and rate are settings: bad ones are usage errors, like a bad detector setting
        ds = generate_synthetic(SyntheticKind(cfg["kind"]), cfg["n"], cfg["rate"], cfg["seed"])
    except DataError as exc:
        raise UsageError(str(exc)) from None
    if cfg["out"] is not None:
        save_csv(ds, cfg["out"])
    report = {
        "command": "synth",
        "config": cfg,
        "n": ds.n,
        "d": ds.d,
        "n_anomalies": ds.n_anomalies,
    }
    lines = [f"{ds.name}: n={ds.n} d={ds.d} anomalies={ds.n_anomalies}"]
    if cfg["out"] is not None:
        lines.append(f"wrote {cfg['out']}")
    return report, lines


def cmd_detect(cfg: dict) -> tuple[dict, list[str]]:
    _require(cfg, "data")
    _require(cfg, "detector")
    params = _detector_params(cfg, cfg["detector"])
    ds = _load_dataset(cfg)
    scores = minmax_values(fit_score(ds, params))
    if cfg["scores_out"] is not None:
        save_scores(scores, cfg["scores_out"])
    report = {"command": "detect", "config": cfg, "n": ds.n, "d": ds.d, "metrics": None}
    lines = [f"{cfg['detector']} on {ds.name}: n={ds.n} d={ds.d}"]
    if ds.labels is not None:
        report["metrics"] = {
            "aucroc": aucroc(scores, ds.labels),
            "ap": average_precision(scores, ds.labels),
            "n_pos": int(ds.labels.sum()),
            "n_neg": int(ds.n - ds.labels.sum()),
        }
        lines.append(
            f"aucroc={report['metrics']['aucroc']:.4f} ap={report['metrics']['ap']:.4f}"
        )
    if cfg["scores_out"] is not None:
        lines.append(f"wrote {cfg['scores_out']}")
    return report, lines


def cmd_boost(cfg: dict) -> tuple[dict, list[str]]:
    _require(cfg, "data")
    if cfg["repeat"] < 1:
        raise UsageError(f"need repeat >= 1, got {cfg['repeat']}")
    if cfg["grid_size"] < 2:
        raise UsageError(f"need grid_size >= 2, got {cfg['grid_size']}")
    strategy = Strategy(cfg["strategy"])
    booster = _booster_config(cfg, strategy)
    teacher_params = _teacher_params(cfg)
    ds = _load_dataset(cfg)
    if cfg["grid_out"] is not None and ds.d != 2:
        raise DataError(f"grid export needs d=2 data, got d={ds.d}")

    runs = []
    first_result = None
    for r in range(cfg["repeat"]):
        seed = cfg["seed"] + r  # independent runs, reproducible sequence
        teacher = _teacher_scores(ds, cfg, teacher_params, seed)
        result = run_booster(ds, teacher, replace(booster, seed=seed))
        if r == 0:
            first_result = result
        entry = {"seed": seed}
        if ds.labels is not None:
            entry.update(_run_metrics(ds, teacher, result))
        runs.append(entry)

    report = {
        "command": "boost",
        "config": cfg,
        "n": ds.n,
        "d": ds.d,
        "runs": runs,
    }
    lines = [f"{strategy.value} boost of {cfg['teacher'] or cfg['teacher_scores']} on {ds.name}"]
    if ds.labels is not None:
        mean = {
            "teacher_aucroc": float(np.mean([r["teacher"]["aucroc"] for r in runs])),
            "teacher_ap": float(np.mean([r["teacher"]["ap"] for r in runs])),
            "booster_aucroc": float(np.mean([r["booster"]["aucroc"] for r in runs])),
            "booster_ap": float(np.mean([r["booster"]["ap"] for r in runs])),
        }
        report["mean"] = mean
        lines.append(
            f"teacher aucroc={mean['teacher_aucroc']:.4f} -> booster aucroc={mean['booster_aucroc']:.4f}"
            f" (over {cfg['repeat']} run{'s' if cfg['repeat'] > 1 else ''})"
        )
    if cfg["scores_out"] is not None:
        save_scores(first_result.final_scores, cfg["scores_out"])
        lines.append(f"wrote {cfg['scores_out']}")
    if cfg["history_out"] is not None:
        _save_history(first_result, cfg["history_out"])
        lines.append(f"wrote {cfg['history_out']}")
    if cfg["grid_out"] is not None:
        _save_grid(first_result, ds, cfg["grid_out"], cfg["grid_size"])
        lines.append(f"wrote {cfg['grid_out']}")
    return report, lines


def cmd_ablate(cfg: dict) -> tuple[dict, list[str]]:
    _require(cfg, "data")
    booster = _booster_config(cfg, Strategy.UADB)
    teacher_params = _teacher_params(cfg)
    ds = _load_dataset(cfg)
    if ds.labels is None:
        raise DataError("ablate requires labeled data (--label-column)")
    teacher = _teacher_scores(ds, cfg, teacher_params, cfg["seed"])
    variants = {"origin": minmax_values(teacher)}
    variants.update((s.value, scores) for s, scores in ablation_scores(ds, teacher, booster).items())
    rows = [
        {"variant": name, "aucroc": aucroc(scores, ds.labels), "ap": average_precision(scores, ds.labels)}
        for name, scores in variants.items()
    ]

    report = {"command": "ablate", "config": cfg, "n": ds.n, "d": ds.d, "rows": rows}
    width = max(len(r["variant"]) for r in rows)
    lines = [f"{'variant'.ljust(width)}  {'aucroc':>8}  {'ap':>8}"]
    for r in rows:
        lines.append(f"{r['variant'].ljust(width)}  {r['aucroc']:8.4f}  {r['ap']:8.4f}")
    return report, lines


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, seed: str) -> None:
    p.add_argument("--config", help="JSON config file (or a previously emitted report)")
    # a str default goes through type=int only when it is used
    p.add_argument("--seed", type=int, default=seed, help="base random seed (default: $UADB_SEED or 0)")
    p.add_argument("--report", help="write the JSON report to this path")


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="input dataset CSV")
    p.add_argument("--label-column", help="name of the 0/1 ground-truth column")
    p.add_argument(
        "--scale",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="min-max scale features before fitting (default: on)",
    )


def _add_detector_args(p: argparse.ArgumentParser) -> None:
    d = DetectorParams
    p.add_argument("--trees", type=int, default=d.trees, help="isolation forest tree count")
    p.add_argument("--subsample", type=int, default=d.subsample, help="isolation forest subsample size")
    p.add_argument("--bins", type=int, default=d.bins, help="histogram detector bin count")
    p.add_argument("--k", type=int, help="neighbor count for lof/knn")
    p.add_argument("--components", type=int, help="retained components for pca")


def _add_booster_args(p: argparse.ArgumentParser) -> None:
    teacher = p.add_mutually_exclusive_group()
    teacher.add_argument(
        "--teacher", choices=[k.value for k in DetectorKind], help="native teacher detector"
    )
    teacher.add_argument("--teacher-scores", help="file of precomputed teacher scores")
    b, t = BoosterConfig, TrainSpec
    p.add_argument("--iterations", type=int, default=b.T, help="boosting iterations T")
    p.add_argument("--folds", type=int, default=b.fold_count, help="cross-fitting fold count (1 disables)")
    p.add_argument("--epochs", type=int, default=t.epochs, help="training epochs per iteration")
    p.add_argument("--batch-size", type=int, default=t.batch_size)
    p.add_argument("--learning-rate", type=float, default=t.learning_rate)
    p.add_argument("--loss", choices=[kind.value for kind in Loss], default=t.loss.value)
    _add_detector_args(p)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="uadb",
        description="Boost unsupervised anomaly detectors with variance-corrected pseudo labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = os.environ.get("UADB_SEED", "0")

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset CSV")
    p.add_argument("--kind", choices=[k.value for k in SyntheticKind])
    p.add_argument("--n", type=int, default=300, help="total rows (default %(default)s)")
    p.add_argument("--rate", type=float, default=0.15, help="anomaly rate (default %(default)s)")
    p.add_argument("--out", help="output CSV path")
    _add_common(p, seed)

    p = sub.add_parser("detect", help="fit one detector and write normalized scores")
    _add_data_args(p)
    p.add_argument("--detector", choices=[k.value for k in DetectorKind])
    _add_detector_args(p)
    p.add_argument("--scores-out", help="write one score per line to this path")
    _add_common(p, seed)

    p = sub.add_parser("boost", help="run a boosting strategy on a teacher")
    _add_data_args(p)
    _add_booster_args(p)
    p.add_argument("--strategy", choices=[s.value for s in Strategy], default=BoosterConfig.strategy.value)
    p.add_argument("--repeat", type=int, default=1, help="average metrics over this many seeded runs")
    p.add_argument("--scores-out", help="write final booster scores to this path")
    p.add_argument("--history-out", help="write the pseudo-label history CSV to this path")
    p.add_argument("--grid-out", help="write a 2-d grid of booster scores to this path")
    p.add_argument("--grid-size", type=int, default=100, help="grid points per axis (default %(default)s)")
    _add_common(p, seed)

    p = sub.add_parser("ablate", help="compare the teacher and all five strategies")
    _add_data_args(p)
    _add_booster_args(p)
    _add_common(p, seed)
    return parser, sub.choices


_HANDLERS = {
    "synth": cmd_synth,
    "detect": cmd_detect,
    "boost": cmd_boost,
    "ablate": cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # restores the caller's showwarning; filters stay as they are
        warnings.showwarning = lambda message, *_, **__: print(f"warning: {message}", file=sys.stderr)
        try:
            if args.config:
                _apply_config(commands[args.command], _load_config(args.config))
                args = parser.parse_args(argv)
            cfg = {key: value for key, value in vars(args).items() if key not in ("command", "config")}
            report, lines = _HANDLERS[args.command](cfg)
            if report["config"].get("report") is not None:
                _write_json(report, report["config"]["report"])
                lines.append(f"wrote {report['config']['report']}")
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        except (DataError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
