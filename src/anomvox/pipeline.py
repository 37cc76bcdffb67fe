"""End-to-end run orchestration: synth, split, per-split train/threshold/
infer/score/evaluate, then cross-split aggregation and figures.

Every stage, whether `run` or a single-stage command starts it, goes through
one runner, `run_stage`: it skips a stage whose completion marker (keyed by
the resolved config hash) is done when resuming, reports any failure but a
validation failure as a `StageFailure`, and writes the marker.  So `run
--resume` also skips work the single-stage commands already did for the same
configuration.  All randomness is derived from the run seed through labeled
sub-streams, and emitted files contain no timestamps, so rerunning a config
reproduces every artifact byte for byte.

Results tree:

    out_dir/
      config.json                 frozen resolved config
      cohort/                     volumes, manifest, truth, atlases (synth)
      splits.json                 bootstrap split plans
      splits/split_NN/            per-split checkpoints, logs, thresholds,
                                  error maps, score tables, ROC sweeps
      summary/                    bootstrap_summary.csv and SVG figures
      stage_status/               resume markers
"""

from __future__ import annotations

import dataclasses
import functools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .anomaly import (
    abnormality_threshold,
    binarize,
    error_volume_ae,
    error_volume_sae,
    load_error_map,
    load_threshold,
    save_error_map,
    save_threshold,
)
from .artifacts import save_csv, save_json, save_text
from .atlas import AtlasError, LabelAtlas, load_atlas, make_core_atlas, make_octant_atlas, save_atlas
from .config import PipelineConfig, config_hash, config_to_dict, load_config, save_config
from .evaluation import (
    aggregate_bootstrap,
    build_score_table,
    evaluate_split,
    load_score_table,
    save_score_table,
    save_summary,
)
from .models import AEModel, SAEModel, load_model, save_model, train
from .phantom import VOXEL_SIZE_MM, PhantomSpecError, ellipsoid_support, synth_cohort
from .report import write_report
from .sampling import (
    BalanceError,
    BalanceReport,
    SplitPlan,
    bootstrap_split,
    build_similar_pairs,
    eligible_patch_centers,
    extract_axial_slices,
    extract_patches,
)
from .volume import (
    BrainMask,
    CohortManifest,
    SubjectMeta,
    Volume,
    compute_brain_mask,
    load_manifest,
    load_mvol,
    normalize_channels,
    save_manifest,
    save_mvol,
)


class ValidationFailure(Exception):
    """Bad inputs detected before any work (exit code 1)."""


class StageFailure(Exception):
    """A pipeline stage aborted; carries the stage name and artifact path."""

    def __init__(self, stage: str, artifact: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed at {artifact}: {cause}")
        self.stage = stage
        self.artifact = artifact
        self.cause = cause

    def __reduce__(self):  # a split worker's failure reaches the parent intact
        return StageFailure, (self.stage, self.artifact, self.cause)


class Logger:
    """Line logger; --json-logs switches to one JSON object per line."""

    def __init__(self, json_mode: bool = False, quiet: bool = False):
        self.json_mode = json_mode
        self.quiet = quiet

    def info(self, stage: str, message: str, **fields) -> None:
        if self.quiet:
            return
        if self.json_mode:
            print(json.dumps({"stage": stage, "message": message, **fields}, sort_keys=True))
        else:
            extras = " ".join(f"{k}={v}" for k, v in fields.items())
            print(f"[{stage}] {message}" + (f" ({extras})" if extras else ""))


@dataclass(frozen=True)
class RunPaths:
    out: Path

    @property
    def config(self) -> Path:
        return self.out / "config.json"

    @property
    def splits_file(self) -> Path:
        return self.out / "splits.json"

    @property
    def status(self) -> Path:
        return self.out / "stage_status"

    @property
    def summary(self) -> Path:
        return self.out / "summary"

    def split_dir(self, index: int) -> Path:
        return self.out / "splits" / f"split_{index:02d}"


def run_paths(cfg: PipelineConfig) -> RunPaths:
    return RunPaths(out=Path(cfg.out_dir))


def run_stage(
    cfg: PipelineConfig,
    name: str,
    artifact: str,
    fn: Callable[[], object],
    log: Logger,
    marker: str | None = None,
    resume: bool = False,
) -> None:
    """Run one stage, then write its completion marker (default: its name),
    which records the config hash.

    With resume, a stage whose marker matches the config is skipped.  A
    stage that runs loses its old marker until it completes again.  A
    ValidationFailure, or a BalanceError (a control pool with no balanced
    split), passes through; any other exception becomes a StageFailure
    naming the stage and the artifact it was writing.
    """
    marker = marker or name
    path = run_paths(cfg).status / f"{marker}.json"
    record = json.dumps({"stage": marker, "config": config_hash(cfg), "done": True}, sort_keys=True)
    if resume and path.exists() and path.read_text() == record:
        log.info("run", f"skipping completed {marker}")
        return
    path.unlink(missing_ok=True)  # a rerun that fails leaves no stale marker
    try:
        fn()
    except (ValidationFailure, BalanceError):
        raise
    except Exception as exc:
        raise StageFailure(name, artifact, exc) from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    save_text(path, record)


# ---------------------------------------------------------------------------
# cohort on disk
# ---------------------------------------------------------------------------


def check_cohort_absent(cfg: PipelineConfig, force: bool) -> None:
    """Refuse, as bad input, to make a cohort over an existing one unless
    forced."""
    if (cfg.cohort_path / "manifest.json").exists() and not force:
        raise ValidationFailure(f"cohort already exists at {cfg.cohort_path}; pass --force to regenerate")


def stage_synth(cfg: PipelineConfig, log: Logger, force: bool = False) -> None:
    """Generate the phantom cohort, ground truth and synthetic atlases.  The
    atlases and their patch coverage are checked before any volume is made;
    a phantom spec that no atlas or lesion fits is bad input."""
    check_cohort_absent(cfg, force)
    cohort = cfg.cohort_path
    dims = cfg.phantom.dims
    try:
        atlases = [make_octant_atlas(dims), make_core_atlas(dims, inplane_margin=cfg.sampling.patch_size // 2)]
    except AtlasError as exc:
        raise ValidationFailure(str(exc)) from exc
    support = ellipsoid_support(dims)
    eligible = eligible_patch_centers(BrainMask(mask=support), cfg.sampling.patch_size)
    for atlas in atlases:
        for label, name in atlas.regions():
            if not ((atlas.labels == label) & eligible).any():
                raise ValidationFailure(
                    f"atlas {atlas.atlas_id} region {name} misses patch coverage; "
                    f"phantom dims {dims} are too small"
                )
    seed = cfg.seeded("phantom")
    try:
        volumes, metas, truths = synth_cohort(cfg.phantom, seed)
    except PhantomSpecError as exc:
        raise ValidationFailure(str(exc)) from exc

    (cohort / "volumes").mkdir(parents=True, exist_ok=True)
    (cohort / "truth").mkdir(parents=True, exist_ok=True)
    (cohort / "atlases").mkdir(parents=True, exist_ok=True)
    paths: dict[str, str] = {}
    truth_doc: dict[str, dict] = {}
    for vol, truth in zip(volumes, truths):
        rel = f"volumes/{vol.subject_id}.mvol"
        save_mvol(vol, cohort / rel)
        paths[vol.subject_id] = rel
        entry: dict = {
            "lesion_centers": [list(c) for c in truth.lesion_centers],
            "anomaly_magnitudes": list(truth.anomaly_magnitudes),
        }
        if truth.is_patient:
            mask_rel = f"truth/{vol.subject_id}_mask.mvol"
            mask = Volume(vol.subject_id, VOXEL_SIZE_MM,
                          truth.anomaly_mask.astype(np.float32)[None], ("anomaly_mask",))
            save_mvol(mask, cohort / mask_rel)
            entry["mask_path"] = mask_rel
        truth_doc[vol.subject_id] = entry
    save_json(cohort / "truth.json", truth_doc)
    for atlas in atlases:
        save_atlas(
            atlas,
            cohort / "atlases" / f"{atlas.atlas_id}.labels.mvol",
            cohort / "atlases" / f"{atlas.atlas_id}.names.json",
        )

    manifest = CohortManifest(
        subjects=tuple(metas),
        paths=paths,
        extra={
            "phantom": config_to_dict(cfg)["phantom"],
            "phantom_seed": seed,
            "brain_support_voxels": int(support.sum()),
            "dims": list(dims),
            "atlases": [atlas.atlas_id for atlas in atlases],
        },
    )
    save_manifest(manifest, cohort / "manifest.json")
    log.info("synth", f"wrote {len(volumes)} subjects", cohort=str(cohort))


@dataclass
class Cohort:
    """Loaded, normalized cohort with masks and atlases."""

    manifest: CohortManifest
    volumes: dict[str, Volume]
    masks: dict[str, BrainMask]
    atlases: list[LabelAtlas]

    def meta(self, subject_id: str) -> SubjectMeta:
        for m in self.manifest.subjects:
            if m.subject_id == subject_id:
                return m
        raise KeyError(subject_id)


def _cohort_manifest(cfg: PipelineConfig) -> CohortManifest:
    """The cohort's manifest, if the cohort was made from cfg's phantom spec
    and seed."""
    manifest_path = cfg.cohort_path / "manifest.json"
    if not manifest_path.exists():
        raise ValidationFailure(f"no cohort manifest at {manifest_path}; run synth first")
    try:
        manifest = load_manifest(manifest_path)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationFailure(f"corrupt cohort manifest {manifest_path}: {exc!r}") from exc
    made_from = (manifest.extra.get("phantom"), manifest.extra.get("phantom_seed"))
    if made_from != (config_to_dict(cfg)["phantom"], cfg.seeded("phantom")):
        raise ValidationFailure(
            f"cohort at {cfg.cohort_path} was not made from this config's phantom spec "
            "and seed; regenerate it with `anomvox synth --force`"
        )
    return manifest


def load_cohort(cfg: PipelineConfig) -> Cohort:
    cohort_dir = cfg.cohort_path
    manifest = _cohort_manifest(cfg)
    volumes: dict[str, Volume] = {}
    masks: dict[str, BrainMask] = {}
    for meta in manifest.subjects:
        vol = normalize_channels(load_mvol(cohort_dir / manifest.paths[meta.subject_id]))
        volumes[meta.subject_id] = vol
        masks[meta.subject_id] = compute_brain_mask(vol)
    atlases = []
    for atlas_id in manifest.extra.get("atlases", []):
        labels = cohort_dir / "atlases" / f"{atlas_id}.labels.mvol"
        names = cohort_dir / "atlases" / f"{atlas_id}.names.json"
        if not labels.exists() or not names.exists():
            raise ValidationFailure(f"atlas files for {atlas_id!r} missing under {cohort_dir}")
        atlases.append(load_atlas(labels, names))
    if not atlases:
        raise ValidationFailure(f"cohort at {cohort_dir} declares no atlases")
    return Cohort(manifest=manifest, volumes=volumes, masks=masks, atlases=atlases)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def stage_split(cfg: PipelineConfig, paths: RunPaths, log: Logger) -> list[SplitPlan]:
    cohort_manifest = _cohort_manifest(cfg)
    plans = bootstrap_split(
        cohort_manifest.controls(),
        n_samples=cfg.split.n_samples,
        n_train=cfg.split.n_train,
        n_test=cfg.split.n_test,
        seed=cfg.seeded("split"),
        age_tolerance=cfg.split.age_tolerance,
        female_range=cfg.split.female_range,
    )
    doc = [
        {
            "sample_index": p.sample_index,
            "train_ids": list(p.train_ids),
            "test_ids": list(p.test_ids),
            "balance": dataclasses.asdict(p.balance),
        }
        for p in plans
    ]
    paths.out.mkdir(parents=True, exist_ok=True)
    save_json(paths.splits_file, doc)
    log.info("split", f"wrote {len(plans)} balanced split plans")
    return plans


def load_splits(paths: RunPaths) -> list[SplitPlan]:
    if not paths.splits_file.exists():
        raise ValidationFailure(f"no split plans at {paths.splits_file}; run split first")
    try:
        return [
            SplitPlan(
                sample_index=row["sample_index"],
                train_ids=tuple(row["train_ids"]),
                test_ids=tuple(row["test_ids"]),
                balance=BalanceReport(**row["balance"]),
            )
            for row in json.loads(paths.splits_file.read_text())
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationFailure(f"corrupt split plans {paths.splits_file}: {exc!r}") from exc


def select_plan(plans: list[SplitPlan], sample_index: int) -> SplitPlan:
    plan = next((p for p in plans if p.sample_index == sample_index), None)
    if plan is None:
        raise ValidationFailure(f"no split plan with sample_index {sample_index}")
    return plan


# ---------------------------------------------------------------------------
# per-split stages
# ---------------------------------------------------------------------------


def _save_trained(split: SplitPlan, split_dir: Path, model, curve: list, log: Logger):
    """Write a trained model's checkpoint and loss log; returns the model."""
    kind = model.kind
    save_model(model, split_dir / f"{kind}.anom", meta={"split": split.sample_index})
    save_csv(
        split_dir / f"{kind}_train_log.csv",
        [["epoch", "mean_loss"], *([r.epoch, f"{r.mean_loss:.8f}"] for r in curve)],
    )
    log.info("train", f"split {split.sample_index}: {kind} done", final_loss=f"{curve[-1].mean_loss:.5f}")
    return model


def stage_train(
    cfg: PipelineConfig, split: SplitPlan, cohort: Cohort, split_dir: Path, log: Logger
) -> dict:
    """Train the selected models on this split's training controls: the AE on
    their central axial slices, the SAE on similar pairs of their patches."""
    split_dir.mkdir(parents=True, exist_ok=True)
    train_vols = {sid: cohort.volumes[sid] for sid in split.train_ids}
    models: dict[str, object] = {}

    if "ae" in cfg.models:
        tc = dataclasses.replace(cfg.ae_train, seed=cfg.seeded("train-ae", split.sample_index))
        slices = np.concatenate([
            extract_axial_slices(train_vols[sid], cfg.sampling.slice_count)
            for sid in split.train_ids
        ])
        model = AEModel(slices.shape[2:], seed=tc.seed)
        curve = train(model, slices, tc)
        del slices  # freed before the SAE section builds its pairs
        models["ae"] = _save_trained(split, split_dir, model, curve, log)

    if "sae" in cfg.models:
        centers = {
            sid: extract_patches(
                train_vols[sid],
                cohort.masks[sid],
                count=cfg.sampling.patches_per_subject,
                patch_size=cfg.sampling.patch_size,
                seed=cfg.seeded("patches", split.sample_index, sid),
            )
            for sid in split.train_ids
        }
        pairs = build_similar_pairs(
            centers, train_vols, seed=cfg.seeded("pairs", split.sample_index),
            patch_size=cfg.sampling.patch_size,
        )
        tc = dataclasses.replace(cfg.sae_train, seed=cfg.seeded("train-sae", split.sample_index))
        model = SAEModel(alpha=tc.alpha, seed=tc.seed)
        curve = train(model, pairs, tc)
        models["sae"] = _save_trained(split, split_dir, model, curve, log)
    return models


def load_models(cfg: PipelineConfig, split_dir: Path) -> dict:
    models: dict[str, object] = {}
    for kind in cfg.models:
        path = split_dir / f"{kind}.anom"
        if not path.exists():
            raise ValidationFailure(f"missing checkpoint {path}; run train first")
        models[kind] = load_model(path, kind)
    return models


def _error_map(cfg: PipelineConfig, kind: str, model, vol: Volume, mask: BrainMask):
    if kind == "ae":
        return error_volume_ae(model, vol, mask, band_count=cfg.sampling.slice_count)
    return error_volume_sae(model, vol, mask, aggregate=cfg.anomaly.aggregate)


def stage_threshold(
    cfg: PipelineConfig, split: SplitPlan, cohort: Cohort, models: Mapping[str, object],
    split_dir: Path, log: Logger,
) -> None:
    """Fix the abnormality threshold on this split's training controls."""
    for kind, model in models.items():
        maps = [
            _error_map(cfg, kind, model, cohort.volumes[sid], cohort.masks[sid])
            for sid in split.train_ids
        ]
        threshold = abnormality_threshold(maps, q=cfg.anomaly.quantile)
        save_threshold(threshold, split_dir / f"threshold_{kind}.json")
        log.info(
            "threshold",
            f"split {split.sample_index}: {kind} q={cfg.anomaly.quantile}",
            value=f"{threshold.value:.6f}",
            pool=threshold.pool_size,
        )


def _eval_subjects(cohort: Cohort, split: SplitPlan) -> list[SubjectMeta]:
    test_controls = [cohort.meta(sid) for sid in split.test_ids]
    return test_controls + cohort.manifest.patients()


def stage_infer(
    cfg: PipelineConfig, split: SplitPlan, cohort: Cohort, models: Mapping[str, object],
    split_dir: Path, log: Logger,
) -> None:
    """Write error-map volumes for the test controls and all patients."""
    maps_dir = split_dir / "maps"
    maps_dir.mkdir(parents=True, exist_ok=True)
    subjects = _eval_subjects(cohort, split)
    for kind, model in models.items():
        for meta in subjects:
            emap = _error_map(cfg, kind, model, cohort.volumes[meta.subject_id], cohort.masks[meta.subject_id])
            save_error_map(emap, maps_dir / f"{meta.subject_id}_{kind}.mvol")
        log.info("infer", f"split {split.sample_index}: {kind} maps for {len(subjects)} subjects")


def stage_score(
    cfg: PipelineConfig, split: SplitPlan, cohort: Cohort, split_dir: Path, log: Logger
) -> None:
    """Binarize error maps and tabulate per-ROI abnormal percentages."""
    subjects = _eval_subjects(cohort, split)
    for kind in cfg.models:
        tpath = split_dir / f"threshold_{kind}.json"
        if not tpath.exists():
            raise ValidationFailure(f"missing threshold {tpath}; run threshold first")
        threshold = load_threshold(tpath)
        bmaps = {}
        for meta in subjects:
            mpath = split_dir / "maps" / f"{meta.subject_id}_{kind}.mvol"
            if not mpath.exists():
                raise ValidationFailure(f"missing error map {mpath}; run infer first")
            bmaps[meta.subject_id] = binarize(load_error_map(mpath), threshold)
        table = build_score_table(bmaps, subjects, cohort.atlases)
        save_score_table(table, split_dir / f"scores_{kind}.csv")
        log.info("score", f"split {split.sample_index}: {kind} table {table.values.shape}")


def stage_evaluate(cfg: PipelineConfig, split: SplitPlan, split_dir: Path, log: Logger) -> None:
    """ROC threshold selection per ROI for every model of this split."""
    tables = {}
    for kind in cfg.models:
        spath = split_dir / f"scores_{kind}.csv"
        if not spath.exists():
            raise ValidationFailure(f"missing score table {spath}; run score first")
        tables[kind] = load_score_table(spath)
    results = evaluate_split(tables)
    for kind, per_roi in results.items():
        doc = {roi: res.to_dict() for roi, res in per_roi.items()}
        save_json(split_dir / f"roc_{kind}.json", doc)
        best = max(per_roi.items(), key=lambda kv: kv[1].gmean)
        log.info(
            "evaluate",
            f"split {split.sample_index}: {kind} best region",
            roi=best[0],
            gmean=f"{best[1].gmean:.4f}",
        )


def stage_report(cfg: PipelineConfig, paths: RunPaths, log: Logger) -> None:
    """Aggregate across completed splits and emit the figure bundle."""
    split_gmeans = []
    sample_indices = []
    for plan in load_splits(paths):
        rocs = {kind: paths.split_dir(plan.sample_index) / f"roc_{kind}.json" for kind in cfg.models}
        if all(path.exists() for path in rocs.values()):
            split_gmeans.append({
                kind: {roi: doc["chosen"]["gmean"] for roi, doc in json.loads(path.read_text()).items()}
                for kind, path in rocs.items()
            })
            sample_indices.append(plan.sample_index)
    if not split_gmeans:
        raise ValidationFailure("no completed split evaluations to report")

    summary = aggregate_bootstrap(split_gmeans, sample_indices)
    paths.summary.mkdir(parents=True, exist_ok=True)
    save_summary(summary, paths.summary / "bootstrap_summary.csv")

    first_dir = paths.split_dir(sample_indices[0])
    split1_tables = {
        kind: load_score_table(first_dir / f"scores_{kind}.csv") for kind in cfg.models
    }
    roi_order = list(next(iter(split1_tables.values())).columns)
    write_report(summary, roi_order, split1_tables, paths.summary, models=tuple(cfg.models))
    for kind in cfg.models:
        row = summary.row(kind, "whole-brain")
        log.info(
            "report",
            f"whole-brain {kind}",
            mean_gmean=f"{row.mean_gmean:.4f}",
            std=f"{row.std_gmean:.4f}",
            best=f"{row.best_gmean:.4f}",
        )


# ---------------------------------------------------------------------------
# whole-run driver
# ---------------------------------------------------------------------------


# The per-split stages in run order, each with the inputs it takes between
# (cfg, plan) and (split_dir, log).  The stage functions themselves are looked
# up by name when they run, so a rebound module attribute is honored.
_SPLIT_INPUTS = {
    "train": ("cohort",),
    "threshold": ("cohort", "models"),
    "infer": ("cohort", "models"),
    "score": ("cohort",),
    "evaluate": (),
}
SPLIT_STAGES = tuple(_SPLIT_INPUTS)


def run_split(
    cfg: PipelineConfig,
    plan: SplitPlan,
    cohort: Cohort | None = None,
    resume: bool = False,
    log: Logger | None = None,
    stages: tuple[str, ...] = SPLIT_STAGES,
) -> Cohort | None:
    """Run the given per-split stages of one split through `run_stage`.

    The cohort and the checkpoints are loaded the first time a stage needs
    them; models trained in this call are reused.  Returns the cohort (None
    if no stage needed it), so a caller looping over splits loads it once.
    """
    log = log or Logger()
    split_dir = run_paths(cfg).split_dir(plan.sample_index)
    inputs = {"cohort": cohort, "models": None}

    def need(key: str):
        if inputs[key] is None:
            inputs[key] = load_cohort(cfg) if key == "cohort" else load_models(cfg, split_dir)
        return inputs[key]

    for name in stages:
        def call() -> None:
            args = [need(key) for key in _SPLIT_INPUTS[name]]
            result = globals()[f"stage_{name}"](cfg, plan, *args, split_dir, log)
            if name == "train":
                inputs["models"] = result

        run_stage(
            cfg, name, str(split_dir), call, log,
            marker=f"split{plan.sample_index:02d}_{name}", resume=resume,
        )
    return inputs["cohort"]


def _split_worker(cfg, stages, resume, log, plan) -> None:
    # Returns nothing, so the cohort run_split loaded is not sent back.
    run_split(cfg, plan, resume=resume, log=log, stages=stages)


def run_splits(
    cfg: PipelineConfig,
    indices: list[int] | None = None,
    stages: tuple[str, ...] = SPLIT_STAGES,
    resume: bool = False,
    log: Logger | None = None,
) -> None:
    """Run the given per-split stages on the given splits (default: every
    planned one), in `cfg.jobs` worker processes when there are several,
    but never more processes than splits.  Every index is checked against
    the plans before any work starts."""
    log = log or Logger()
    plans = load_splits(run_paths(cfg))
    if indices is not None:
        plans = [select_plan(plans, i) for i in indices]
    if cfg.jobs > 1 and len(plans) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(plans))) as pool:
            list(pool.map(functools.partial(_split_worker, cfg, stages, resume, log), plans))
    else:
        cohort = None
        for plan in plans:
            cohort = run_split(cfg, plan, cohort=cohort, resume=resume, log=log, stages=stages)


def run_pipeline(
    cfg: PipelineConfig, resume: bool = False, log: Logger | None = None
) -> None:
    """Execute the full pipeline under the resolved config."""
    log = log or Logger()
    paths = run_paths(cfg)
    paths.out.mkdir(parents=True, exist_ok=True)

    if paths.config.exists() and resume:
        stored = load_config(paths.config)
        if config_hash(stored) != config_hash(cfg):
            raise ValidationFailure(
                f"{paths.config} belongs to a different configuration; "
                "rerun without --resume or point --out elsewhere"
            )
    have_cohort = (cfg.cohort_path / "manifest.json").exists()
    if have_cohort:
        _cohort_manifest(cfg)  # a stale cohort stops the run before it writes anything
    save_config(cfg, paths.config)

    def synth() -> None:
        if have_cohort:
            log.info("run", f"using existing cohort at {cfg.cohort_path}")
        else:
            stage_synth(cfg, log)

    run_stage(cfg, "synth", str(cfg.cohort_path), synth, log, resume=resume)
    run_stage(
        cfg, "split", str(paths.splits_file), lambda: stage_split(cfg, paths, log), log,
        resume=resume,
    )

    run_splits(cfg, resume=resume, log=log)
    run_stage(
        cfg, "report", str(paths.summary), lambda: stage_report(cfg, paths, log), log,
        resume=resume,
    )
    log.info("run", "pipeline complete", out=str(paths.out))
