"""Command-line pipeline driver.

Commands mirror the pipeline stages (synth, split, train, threshold, infer,
score, evaluate, report) plus `run`, which executes everything end to end.
Every command runs its stages through the pipeline's one stage runner, so
each writes the stage markers that `run --resume` skips by.  Configuration
resolves in this order: JSON config file (or the --quick preset, or a
config.json already frozen in the output directory), then individual flag
overrides.  `synth` and `run` freeze the resolved config next to the
outputs, so later single-stage commands pointed at the same --out read it.

Exit codes: 0 success, 1 validation error, 2 runtime stage failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .config import ConfigError, PipelineConfig, load_config, quick_profile, save_config
from .pipeline import (
    Logger,
    StageFailure,
    ValidationFailure,
    load_splits,
    run_paths,
    run_pipeline,
    run_split,
    run_stage,
    stage_report,
    stage_split,
    stage_synth,
)
from .sampling import BalanceError
from .volume import VolumeError

OUT_ROOT_ENV = "ANOMVOX_OUT_ROOT"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help=f"output directory (default: ${OUT_ROOT_ENV}/run)")
    parser.add_argument("--quick", action="store_true", help="desk-scale quick profile preset")
    parser.add_argument("--json-logs", action="store_true", help="machine-readable log lines")
    parser.add_argument("--seed", type=int, help="run seed")
    parser.add_argument("--models", help="comma list: ae, sae, or both")
    parser.add_argument("--jobs", type=int, help="parallel split workers")
    # phantom overrides
    parser.add_argument("--n-controls", type=int)
    parser.add_argument("--n-patients", type=int)
    parser.add_argument("--dims", type=int, nargs=3, metavar=("D", "H", "W"))
    parser.add_argument("--delta", type=float, help="lesion intensity offset")
    parser.add_argument("--lesion-radius", type=float)
    parser.add_argument("--lesions", type=int, help="lesions per patient")
    parser.add_argument("--sigma", type=float, help="phantom noise sigma")
    # split overrides
    parser.add_argument("--n-splits", type=int)
    parser.add_argument("--n-train", type=int)
    parser.add_argument("--n-test", type=int)
    # sampling / training overrides
    parser.add_argument("--slice-count", type=int)
    parser.add_argument("--patches-per-subject", type=int)
    parser.add_argument("--ae-epochs", type=int)
    parser.add_argument("--sae-epochs", type=int)
    parser.add_argument("--ae-lr", type=float)
    parser.add_argument("--sae-lr", type=float)
    parser.add_argument("--alpha", type=float, help="latent-similarity weight")
    # anomaly overrides
    parser.add_argument("--quantile", type=float)
    parser.add_argument("--aggregate", choices=["center", "overlap-mean"])


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
    def overrides(fields: dict) -> dict:
        return {k: v for k, v in fields.items() if v is not None}

    # Collect every override, then rebuild the config once: the config's
    # cross-field validation must see the final state, not intermediates.
    top: dict = {}
    if out:
        top["out_dir"] = out
    if args.seed is not None:
        top["seed"] = args.seed
    if args.models:
        top["models"] = ("ae", "sae") if args.models == "both" else tuple(args.models.split(","))
    if args.jobs is not None:
        top["jobs"] = args.jobs

    phantom = overrides(
        {
            "n_controls": args.n_controls,
            "n_patients": args.n_patients,
            "dims": tuple(args.dims) if args.dims else None,
            "anomaly_magnitude": args.delta,
            "lesion_radius": args.lesion_radius,
            "lesions_per_patient": args.lesions,
            "noise_sigma": args.sigma,
        }
    )
    if phantom:
        top["phantom"] = dataclasses.replace(cfg.phantom, **phantom)
    split = overrides({"n_samples": args.n_splits, "n_train": args.n_train, "n_test": args.n_test})
    if split:
        top["split"] = dataclasses.replace(cfg.split, **split)
    sampling = overrides(
        {"slice_count": args.slice_count, "patches_per_subject": args.patches_per_subject}
    )
    if sampling:
        top["sampling"] = dataclasses.replace(cfg.sampling, **sampling)
    ae = overrides({"epochs": args.ae_epochs, "learning_rate": args.ae_lr})
    if args.seed is not None:
        ae["seed"] = args.seed
    if ae:
        top["ae_train"] = dataclasses.replace(cfg.ae_train, **ae)
    sae = overrides({"epochs": args.sae_epochs, "learning_rate": args.sae_lr, "alpha": args.alpha})
    if args.seed is not None:
        sae["seed"] = args.seed
    if sae:
        top["sae_train"] = dataclasses.replace(cfg.sae_train, **sae)
    anomaly = overrides({"quantile": args.quantile, "aggregate": args.aggregate})
    if anomaly:
        top["anomaly"] = dataclasses.replace(cfg.anomaly, **anomaly)
    return dataclasses.replace(cfg, **top) if top else cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
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
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        parsers[name] = p
    parsers["synth"].add_argument("--force", action="store_true", help="overwrite an existing cohort")
    for name in ("train", "threshold", "infer", "score", "evaluate"):
        parsers[name].add_argument("--split", type=int, help="restrict to one sample index")
    parsers["run"].add_argument("--resume", action="store_true", help="skip completed stages")

    args = parser.parse_args(argv)
    log = Logger(json_mode=args.json_logs)

    try:
        cfg = resolve_config(args)
        paths = run_paths(cfg)
        if args.command == "synth":
            paths.out.mkdir(parents=True, exist_ok=True)
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
            if args.split is None:
                indices = [p.sample_index for p in load_splits(paths)]
            else:
                indices = [args.split]
            cohort = None
            for i in indices:
                cohort = run_split(cfg, i, cohort=cohort, log=log, stages=(args.command,))
    except (ValidationFailure, ConfigError, VolumeError, BalanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
