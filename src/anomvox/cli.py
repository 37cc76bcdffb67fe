"""Command-line pipeline driver.

Commands mirror the pipeline stages (synth, split, train, threshold, infer,
score, evaluate, report) plus `run`, which executes everything end to end.
Every command runs its stages through the pipeline's one stage runner, so
each writes the stage markers that `run --resume` skips by, and the
per-split commands share `run`'s split loop, `--jobs` included.
Configuration resolves in this order: JSON config file (or the --quick
preset, or a config.json already frozen in the output directory), then the
flags, merged like the same keys in a config file.  `synth` and `run` freeze
the resolved config next to the outputs, so later single-stage commands
pointed at the same --out read it.

Exit codes: 0 success, 1 validation error, 2 runtime stage failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .config import ConfigError, PipelineConfig, config_from_dict, load_config, quick_profile, save_config
from .pipeline import (
    SPLIT_STAGES, Logger, StageFailure, ValidationFailure, check_cohort_absent, run_paths, run_pipeline,
    run_splits, run_stage, stage_report, stage_split, stage_synth,
)
from .sampling import BalanceError
from .volume import VolumeError

OUT_ROOT_ENV = "ANOMVOX_OUT_ROOT"

# Each override flag and the config fields it sets.  A flag's argparse type
# (and nargs, for a tuple) comes from its first field's default, and its value
# is merged into the config like the same keys in a config file.
FLAGS = {
    "--seed": ("seed", "ae_train.seed", "sae_train.seed"),
    "--models": ("models",),
    "--jobs": ("jobs",),
    "--n-controls": ("phantom.n_controls",),
    "--n-patients": ("phantom.n_patients",),
    "--dims": ("phantom.dims",),
    "--delta": ("phantom.anomaly_magnitude",),
    "--lesion-radius": ("phantom.lesion_radius",),
    "--lesions": ("phantom.lesions_per_patient",),
    "--sigma": ("phantom.noise_sigma",),
    "--n-splits": ("split.n_samples",),
    "--n-train": ("split.n_train",),
    "--n-test": ("split.n_test",),
    "--slice-count": ("sampling.slice_count",),
    "--patches-per-subject": ("sampling.patches_per_subject",),
    "--ae-epochs": ("ae_train.epochs",),
    "--sae-epochs": ("sae_train.epochs",),
    "--ae-lr": ("ae_train.learning_rate",),
    "--sae-lr": ("sae_train.learning_rate",),
    "--alpha": ("sae_train.alpha",),
    "--quantile": ("anomaly.quantile",),
    "--aggregate": ("anomaly.aggregate",),
}


def _models(text: str) -> tuple[str, ...]:
    return ("ae", "sae") if text == "both" else tuple(text.split(","))


def _flag_kwargs(fields: tuple[str, ...]) -> dict:
    if fields[0] == "models":
        return {"type": _models, "help": "comma list: ae, sae, or both"}
    default = functools.reduce(getattr, fields[0].split("."), PipelineConfig())
    kwargs = {"type": type(default), "help": "sets " + ", ".join(fields)}
    if isinstance(default, tuple):
        kwargs.update(type=type(default[0]), nargs=len(default))
    return kwargs


class _Parser(argparse.ArgumentParser):
    """A bad flag is a validation error: exit 1 with one `error:` line."""

    def error(self, message: str):
        raise ValidationFailure(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help=f"output directory (default: ${OUT_ROOT_ENV}/run)")
    parser.add_argument("--quick", action="store_true", help="desk-scale quick profile preset")
    parser.add_argument("--json-logs", action="store_true", help="machine-readable log lines")
    for flag, fields in FLAGS.items():
        parser.add_argument(flag, **_flag_kwargs(fields))


def _resolve_out(args) -> str | None:
    if args.out:
        return args.out
    root = os.environ.get(OUT_ROOT_ENV)
    if root:
        return str(Path(root) / ("quick" if args.quick else "run"))
    return None


def resolve_config(args) -> PipelineConfig:
    if args.config and args.quick:
        raise ValidationFailure("--config and --quick are mutually exclusive")
    out = _resolve_out(args)
    stored = Path(out) / "config.json" if out else None

    if args.config:
        cfg = load_config(args.config)
    elif args.quick:
        cfg = quick_profile(out_dir=out or "runs/quick")
    elif stored is not None and stored.exists():
        cfg = load_config(stored)
    else:
        cfg = PipelineConfig()
    # The flags form one JSON-shaped overlay, merged in one step: the config's
    # cross-field validation must see the final state, not intermediates.
    overlay: dict = {"out_dir": out} if out else {}
    for flag, fields in FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        for name in fields:
            section, _, key = name.rpartition(".")
            (overlay.setdefault(section, {}) if section else overlay)[key] = value
    return config_from_dict(overlay, base=cfg)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anomvox",
        description="Unsupervised anomaly detection on multi-channel brain volumes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "synth": "generate the phantom cohort, ground truth and atlases",
        "split": "draw balanced bootstrap control splits",
        "train": "train models for one or all splits",
        "threshold": "fix control-population abnormality thresholds",
        "infer": "write voxel-wise error maps for test subjects",
        "score": "binarize maps and tabulate per-region percentages",
        "evaluate": "select pathological thresholds by g-mean ROC",
        "report": "aggregate splits and emit figures",
        "run": "execute the full pipeline",
    }
    parsers = {}
    for name, help_text in specs.items():
        parsers[name] = sub.add_parser(name, help=help_text)
        _add_common(parsers[name])
    parsers["synth"].add_argument("--force", action="store_true", help="overwrite an existing cohort")
    for name in SPLIT_STAGES:
        parsers[name].add_argument("--split", type=int, help="restrict to one sample index")
    parsers["run"].add_argument("--resume", action="store_true", help="skip completed stages")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        log = Logger(json_mode=args.json_logs)
        cfg = resolve_config(args)
        paths = run_paths(cfg)
        if args.command == "synth":
            check_cohort_absent(cfg, args.force)  # before config.json or the marker changes
            save_config(cfg, paths.config)
            run_stage(cfg, "synth", str(cfg.cohort_path),
                      lambda: stage_synth(cfg, log, force=args.force), log)
        elif args.command == "split":
            run_stage(cfg, "split", str(paths.splits_file), lambda: stage_split(cfg, paths, log), log)
        elif args.command == "report":
            run_stage(cfg, "report", str(paths.summary), lambda: stage_report(cfg, paths, log), log)
        elif args.command == "run":
            run_pipeline(cfg, resume=args.resume, log=log)
        else:
            indices = None if args.split is None else [args.split]
            run_splits(cfg, indices, stages=(args.command,), log=log)
    except (ValidationFailure, ConfigError, VolumeError, BalanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
