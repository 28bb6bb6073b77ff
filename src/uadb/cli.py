"""Command-line front end: synth, detect, boost, and ablate.

Settings resolve in priority order: explicit flags, then a JSON config file
(--config; a previously emitted report also works, its "config" key is
used), then the UADB_SEED environment variable for the seed, then the
defaults. Each flag declares its default once, read from the library's
BoosterConfig or DetectorParams where those hold it, and each of those two
is built from its own fields, every field set by its flag. The parser is
built once per UADB_SEED value; a config file becomes the subcommand's
defaults in a parser built for that call, and the command line is parsed
again. Every report embeds the fully resolved config, so re-running a
command from its own report reproduces the artifacts byte for byte.

Each subcommand returns its report, stdout lines and {setting: writer} for
its output files; main writes and announces each set path, the report last,
each under a temporary name renamed into place once all writes succeed.

Exit codes: 0 success, 2 usage errors, 1 data/runtime errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from dataclasses import fields, replace
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
    _at_least,
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
from .nn import Loss


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


def _setting(check, *args, **kwargs):
    """check(*args, **kwargs), whose refusal of a setting (a ValueError; DataError is one) is a usage error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _require(cfg: dict, key: str) -> None:
    if cfg.get(key) is None:
        raise UsageError(f"--{key.replace('_', '-')} is required (flag or config)")


def _load_dataset(cfg: dict) -> Dataset:
    ds = load_csv(cfg["data"], cfg["label_column"])
    if ds.labels is not None and ds.labels.min() == ds.labels.max():
        raise DataError(f"label column {cfg['label_column']!r} holds one class; metrics need both 0 and 1")
    return scale_features(ds) if cfg["scale"] else ds


# the flags named otherwise than the library fields they set
_FIELD_FLAGS = {"T": "iterations", "fold_count": "folds"}


def _settings(cls, cfg: dict, **fixed):
    """cls with `fixed` and each other field read from its flag in cfg; a setting cls refuses is a usage error."""
    flagged = {f.name: cfg[_FIELD_FLAGS.get(f.name, f.name)] for f in fields(cls) if f.name not in fixed}
    return _setting(cls, **flagged, **fixed)


def _teacher_params(cfg: dict) -> DetectorParams | None:
    """The native teacher's settings, or None when scores come from --teacher-scores."""
    if (cfg["teacher"] is None) == (cfg["teacher_scores"] is None):
        raise UsageError("exactly one of --teacher / --teacher-scores is required")
    return None if cfg["teacher"] is None else _settings(DetectorParams, cfg, kind=DetectorKind(cfg["teacher"]))


def _teacher_scores(ds: Dataset, cfg: dict, params: DetectorParams | None, seed: int) -> np.ndarray:
    if params is None:
        return import_scores(cfg["teacher_scores"], ds.n)
    return fit_score(ds, replace(params, seed=seed))


def _ranking(scores: np.ndarray, labels: np.ndarray) -> dict:
    """The report's ranking metrics of scores against labels."""
    return {"aucroc": aucroc(scores, labels), "ap": average_precision(scores, labels)}


def _run_metrics(ds: Dataset, teacher: np.ndarray, result: BoosterResult) -> dict:
    y = ds.labels
    out = {
        "teacher": _ranking(teacher, y),
        "booster": {
            **_ranking(result.final_scores, y),
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
    """The fold models' mean output over a 2-d mesh spanning the (scaled) feature ranges."""
    lo = ds.features.min(axis=0)
    hi = ds.features.max(axis=0)
    xs = np.linspace(lo[0], hi[0], grid_size)
    ys = np.linspace(lo[1], hi[1], grid_size)
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel()])
    write_csv(path, ["x1", "x2", "score"], np.column_stack([points, score_points(result, points)]).tolist())


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(cfg: dict) -> tuple[dict, list[str], dict]:
    _require(cfg, "kind")
    ds = _setting(generate_synthetic, SyntheticKind(cfg["kind"]), cfg["n"], cfg["rate"], cfg["seed"])
    report = {"command": "synth", "config": cfg, "n": ds.n, "d": ds.d, "n_anomalies": ds.n_anomalies}
    lines = [f"{ds.name}: n={ds.n} d={ds.d} anomalies={ds.n_anomalies}"]
    return report, lines, {"out": lambda path: save_csv(ds, path)}


def cmd_detect(cfg: dict) -> tuple[dict, list[str], dict]:
    _require(cfg, "data")
    _require(cfg, "detector")
    params = _settings(DetectorParams, cfg, kind=DetectorKind(cfg["detector"]))
    ds = _load_dataset(cfg)
    scores = minmax_values(fit_score(ds, params))
    report = {"command": "detect", "config": cfg, "n": ds.n, "d": ds.d, "metrics": None}
    lines = [f"{cfg['detector']} on {ds.name}: n={ds.n} d={ds.d}"]
    if ds.labels is not None:
        report["metrics"] = {
            **_ranking(scores, ds.labels),
            "n_pos": int(ds.labels.sum()),
            "n_neg": int(ds.n - ds.labels.sum()),
        }
        lines.append(f"aucroc={report['metrics']['aucroc']:.4f} ap={report['metrics']['ap']:.4f}")
    return report, lines, {"scores_out": lambda path: save_scores(scores, path)}


def cmd_boost(cfg: dict) -> tuple[dict, list[str], dict]:
    _require(cfg, "data")
    _setting(_at_least, cfg, {"repeat": 1, "grid_size": 2})
    strategy = Strategy(cfg["strategy"])
    booster = _settings(BoosterConfig, cfg, strategy=strategy, loss=Loss(cfg["loss"]))
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

    report = {"command": "boost", "config": cfg, "n": ds.n, "d": ds.d, "runs": runs}
    lines = [f"{strategy.value} boost of {cfg['teacher'] or cfg['teacher_scores']} on {ds.name}"]
    if ds.labels is not None:
        mean = {
            f"{side}_{metric}": float(np.mean([r[side][metric] for r in runs]))
            for side in ("teacher", "booster")
            for metric in ("aucroc", "ap")
        }
        report["mean"] = mean
        lines.append(
            f"teacher aucroc={mean['teacher_aucroc']:.4f} -> booster aucroc={mean['booster_aucroc']:.4f}"
            f" (over {cfg['repeat']} run{'s' if cfg['repeat'] > 1 else ''})"
        )
    return report, lines, {
        "scores_out": lambda path: save_scores(first_result.final_scores, path),
        "history_out": lambda path: _save_history(first_result, path),
        "grid_out": lambda path: _save_grid(first_result, ds, path, cfg["grid_size"]),
    }


def cmd_ablate(cfg: dict) -> tuple[dict, list[str], dict]:
    _require(cfg, "data")
    booster = _settings(BoosterConfig, cfg, strategy=Strategy.UADB, loss=Loss(cfg["loss"]))
    teacher_params = _teacher_params(cfg)
    ds = _load_dataset(cfg)
    if ds.labels is None:
        raise DataError("ablate requires labeled data (--label-column)")
    teacher = _teacher_scores(ds, cfg, teacher_params, cfg["seed"])
    variants = {"origin": minmax_values(teacher)}
    variants.update((s.value, scores) for s, scores in ablation_scores(ds, teacher, booster).items())
    rows = [{"variant": name, **_ranking(scores, ds.labels)} for name, scores in variants.items()]

    report = {"command": "ablate", "config": cfg, "n": ds.n, "d": ds.d, "rows": rows}
    width = max(len(r["variant"]) for r in rows)
    lines = [f"{'variant'.ljust(width)}  {'aucroc':>8}  {'ap':>8}"]
    for r in rows:
        lines.append(f"{r['variant'].ljust(width)}  {r['aucroc']:8.4f}  {r['ap']:8.4f}")
    return report, lines, {}


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
    b = BoosterConfig
    p.add_argument("--iterations", type=int, default=b.T, help="boosting iterations T")
    p.add_argument("--folds", type=int, default=b.fold_count, help="cross-fitting fold count (1 disables)")
    p.add_argument("--epochs", type=int, default=b.epochs, help="training epochs per iteration")
    p.add_argument("--batch-size", type=int, default=b.batch_size)
    p.add_argument("--learning-rate", type=float, default=b.learning_rate)
    p.add_argument("--loss", choices=[kind.value for kind in Loss], default=b.loss.value)
    _add_detector_args(p)


def _build_parser(seed: str) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name; seed ($UADB_SEED) is the --seed default."""
    parser = argparse.ArgumentParser(
        prog="uadb",
        description="Boost unsupervised anomaly detectors with variance-corrected pseudo labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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


# built once per $UADB_SEED value; a --config run builds its own, as it changes the defaults
_shared_parser = functools.lru_cache(maxsize=1)(_build_parser)


def _write_all(writes: list) -> None:
    """Run each (path, writer); a failure creates or changes no regular file.

    A missing path or regular file is written to a temporary file beside it, renamed into place
    after the last write; any other path (/dev/null, a pipe) is written in place, as a rename would replace it.
    """
    renames = []
    try:
        for i, (path, write) in enumerate(writes):
            if os.path.exists(path) and not os.path.isfile(path):
                write(path)
                continue
            renames.append((f"{path}.{os.getpid()}.{i}.tmp", path))  # i: two outputs may share a path
            try:
                write(renames[-1][0])
            except OSError as exc:
                if exc.filename == renames[-1][0]:
                    exc.filename = path  # name the file asked for
                raise
        for temporary, path in renames:
            os.replace(temporary, path)
    finally:
        for temporary, _ in renames:
            Path(temporary).unlink(missing_ok=True)


_HANDLERS = {
    "synth": cmd_synth,
    "detect": cmd_detect,
    "boost": cmd_boost,
    "ablate": cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    seed = os.environ.get("UADB_SEED", "0")
    parser, _ = _shared_parser(seed)
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # restores the caller's showwarning; filters stay as they are
        warnings.showwarning = lambda message, *_, **__: print(f"warning: {message}", file=sys.stderr)
        try:
            if args.config:
                parser, commands = _build_parser(seed)
                _apply_config(commands[args.command], _load_config(args.config))
                args = parser.parse_args(argv)
            cfg = {key: value for key, value in vars(args).items() if key not in ("command", "config")}
            report, lines, outputs = _HANDLERS[args.command](cfg)
            outputs["report"] = lambda path: Path(path).write_text(
                json.dumps(report, indent=2) + "\n", encoding="utf-8"
            )
            writes = [(cfg[key], write) for key, write in outputs.items() if cfg[key] is not None]
            _write_all(writes)
            lines += [f"wrote {path}" for path, _ in writes]
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        except (DataError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except MemoryError as exc:  # numpy's names the allocation it refused; Python's own is bare
            detail = f" ({exc})" if str(exc) else ""
            print(f"error: out of memory{detail}", file=sys.stderr)
            return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
