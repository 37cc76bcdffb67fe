"""The benchmark's workloads: inputs made from the seed, the timed phase run
through the pipeline's stage functions, and the output checks.

Each workload is a closed loop with one client: the pipeline runs one step
(a batch update, or one subject's error maps) at a time, in one process, with
jobs=1.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from anomvox import anomaly
from anomvox import pipeline as P
from anomvox.config import PipelineConfig, SamplingConfig, SplitConfig, quick_profile
from anomvox.models import AEModel, SAEModel, TrainConfig
from anomvox.nn import grad_check
from anomvox.phantom import PhantomSpec
from anomvox.sampling import BalanceError, eligible_patch_centers, slice_band
from anomvox.volume import load_mvol

from probes import Deadline, Patcher, Probe, instrument_tracing

LOG = P.Logger(quiet=True)
# Training runs until the benchmark's deadline stops it, never to the end.
UNBOUNDED_EPOCHS = 1_000_000
SETUP_REPEATS = 3
GRADCHECK_TOLERANCE = 1e-4  # acceptance criterion 2


class BenchError(Exception):
    """The benchmark could not run the workload as defined."""


@dataclass
class Check:
    name: str
    attempted: int
    failed: int
    detail: str = ""


@dataclass
class Phase:
    """The timed pass: wall and CPU seconds, per-step times with whether
    each step ran traced, items done, and the artifacts' hashes."""

    wall_s: float
    cpu_s: float
    steps_ms: list[float]
    traced: list[bool]
    items: int
    probe: Probe
    hashes: dict[str, str] = field(default_factory=dict)

    def untraced_steps(self) -> list[float]:
        return [ms for ms, t in zip(self.steps_ms, self.traced) if not t]

    def traced_steps(self) -> list[float]:
        return [ms for ms, t in zip(self.steps_ms, self.traced) if t]


@dataclass
class State:
    cfg: PipelineConfig
    plan: object = None
    cohort: object = None
    models: dict = field(default_factory=dict)

    @property
    def split_dir(self) -> Path:
        return P.run_paths(self.cfg).split_dir(self.plan.sample_index)


def make_cohort(cfg: PipelineConfig) -> State:
    """Synthesize the phantom cohort, draw the split plans, load and
    normalize the cohort with its masks."""
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    P.stage_synth(cfg, LOG)
    plans = P.stage_split(cfg, P.run_paths(cfg), LOG)
    return State(cfg=cfg, plan=plans[0], cohort=P.load_cohort(cfg))


def choose_inputs(cfg: PipelineConfig, candidates: int = 64) -> PipelineConfig:
    """cfg with the first run seed, from cfg.seed on, whose phantom cohort
    admits a balanced split.

    For some seeds the quick cohort's controls hold too many or too few
    women, or ages too far apart, for any split to meet the balance rule, and
    stage_split raises BalanceError as designed (seed 18 is one).  The
    benchmark then moves on to the next candidate seed, so one --seed always
    gives the same inputs and no run fails on an infeasible cohort.
    """
    for k in range(candidates):
        trial = cfg if k == 0 else dataclasses.replace(
            cfg, seed=2**31 + cfg.seed * candidates + k)
        try:
            make_cohort(trial)
        except BalanceError:
            continue
        return trial
    raise BenchError(f"no balanced split in {candidates} cohorts from seed {cfg.seed}")


def timed_phase(workload, state: State, seconds: float, tracer=None, labels=None) -> Phase:
    patcher = Patcher()
    if tracer is not None:
        instrument_tracing(patcher, tracer, labels)
    probe = Probe(tracer, labels)
    probe.install(patcher)
    try:
        t0, c0 = perf_counter(), process_time()
        workload.run(state, probe, seconds)
        wall, cpu = perf_counter() - t0, process_time() - c0
    finally:
        patcher.restore()
    steps_ms, traced, items = workload.steps(probe)
    return Phase(wall_s=wall, cpu_s=cpu, steps_ms=steps_ms, traced=traced, items=items,
                 probe=probe, hashes=workload.artifacts(state))


class Workload:
    """A workload makes its config from the seed, sets up, and then runs,
    splits into steps, checks and rates (quality) one timed phase."""

    name: str
    why: str
    item: str

    def config(self, out_dir: Path, seed: int) -> PipelineConfig:
        raise NotImplementedError

    def setup(self, cfg: PipelineConfig) -> State:
        """The set-up that run.py repeats and times."""
        return make_cohort(cfg)

    def prepare(self, state: State) -> None:
        """Set-up work done once after the repeated set-ups."""

    def artifacts(self, state: State) -> dict[str, str]:
        """Hashes of the files the timed phase wrote, for the repeat check."""
        return {}


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------


class TrainWorkload(Workload):
    """stage_train for one model, stopped by the deadline after --seconds."""

    item = "pair"
    model_kind = "sae"

    def dataset_size(self, cfg: PipelineConfig) -> int:
        raise NotImplementedError

    def run(self, state: State, probe: Probe, seconds: float) -> None:
        probe.deadline = perf_counter() + seconds
        try:
            P.stage_train(state.cfg, state.plan, state.cohort, state.split_dir, LOG)
        except Deadline:
            return
        raise BenchError("training finished before the deadline; raise UNBOUNDED_EPOCHS")

    def steps(self, probe: Probe) -> tuple[list[float], list[bool], int]:
        ends = probe.step_ends
        # The first step also pays for lazy optimizer set-up, so it is left
        # out; each later step runs from one Adam update to the next.
        steps_ms = [1000.0 * (b - a) for a, b in zip(ends, ends[1:])]
        return steps_ms, probe.step_traced[1:], int(sum(probe.batch_sizes[: len(ends)]))

    def final_loss(self, cfg: PipelineConfig, probe: Probe) -> float:
        """Mean loss over the last complete epoch, or over the steps run when
        the deadline came before the first epoch ended."""
        batch = self.train_config(cfg).batch_size
        per_epoch = math.ceil(self.dataset_size(cfg) / batch)
        n = len(probe.step_ends)
        done = (n // per_epoch) * per_epoch
        lo, hi = (done - per_epoch, done) if done else (0, n)
        sizes = probe.batch_sizes[lo:hi]
        return float(np.dot(probe.losses[lo:hi], sizes) / sum(sizes))

    def train_config(self, cfg: PipelineConfig) -> TrainConfig:
        return cfg.sae_train if self.model_kind == "sae" else cfg.ae_train

    def quality(self, state: State, phase: Phase) -> dict[str, tuple[float, str]]:
        return {"final_loss": (self.final_loss(state.cfg, phase.probe), "loss")}

    def check(self, state: State, phase: Phase, seed: int) -> list[Check]:
        probe = phase.probe
        losses = probe.losses[: len(probe.step_ends)]
        bad = sum(1 for v in losses if not math.isfinite(v))
        final = self.final_loss(state.cfg, probe)
        checks = [
            Check("finite step loss", len(losses), bad),
            Check("last-epoch loss below first batch loss", 1, int(not final < losses[0]),
                  f"{final:.6g} vs {losses[0]:.6g}"),
        ]
        report = grad_check(self.float64_copy(probe.model), self.small_batch(probe),
                            tolerance=GRADCHECK_TOLERANCE, samples_per_param=3, seed=seed)
        checks.append(Check("grad_check on a float64 copy of the trained model", 1,
                            int(not report.passed), f"max rel err {report.max_rel_err:.3g}"))
        return checks


class SAETrain(TrainWorkload):
    name = "sae-train"
    why = ("SAE pair training on the quick cohort: 16-channel valid/full 3x3 convs "
           "on 15x15 patches, pool/upsample and pair sampling; no transposed conv "
           "or batch norm")

    def config(self, out_dir: Path, seed: int) -> PipelineConfig:
        cfg = quick_profile(out_dir=str(out_dir), seed=seed)
        return dataclasses.replace(
            cfg, models=("sae",), jobs=1,
            sae_train=dataclasses.replace(cfg.sae_train, epochs=UNBOUNDED_EPOCHS),
        )

    def dataset_size(self, cfg: PipelineConfig) -> int:
        return cfg.split.n_train * cfg.sampling.patches_per_subject

    def float64_copy(self, model: SAEModel) -> SAEModel:
        copy = SAEModel(model.patch_size, model.channels, model.alpha, dtype=np.float64)
        copy.set_params(model.params())
        return copy

    def small_batch(self, probe: Probe):
        x1, x2 = probe.sample_batch
        return x1[:3].astype(np.float64), x2[:3].astype(np.float64)


class AETrain(TrainWorkload):
    name = "ae-train"
    item = "slice"
    model_kind = "ae"
    why = ("AE slice training at the paper's 145x121 geometry: stride-2 convs, "
           "transposed convs and batch norm, activations larger than the last-level cache")

    # Five training controls x 40 central slices = 200 slices, five full
    # batches of 40 per epoch.
    def config(self, out_dir: Path, seed: int) -> PipelineConfig:
        return PipelineConfig(
            out_dir=str(out_dir), seed=seed, models=("ae",), jobs=1,
            phantom=PhantomSpec(n_controls=6, n_patients=0, dims=(48, 145, 121)),
            split=SplitConfig(n_samples=1, n_train=5, n_test=1,
                              age_tolerance=1e9, female_range=(0.0, 1.0)),
            sampling=SamplingConfig(slice_count=40, patches_per_subject=1, patch_size=15),
            ae_train=TrainConfig(epochs=UNBOUNDED_EPOCHS, batch_size=40,
                                 learning_rate=1e-3, seed=seed),
        )

    def dataset_size(self, cfg: PipelineConfig) -> int:
        return cfg.split.n_train * cfg.sampling.slice_count

    # The gradient check runs the trained weights on a central crop of 4
    # slices.  At the full 145x121 slice the central-difference estimate
    # itself is off by more than the 1e-4 gate: the L1 loss is ~1e4 and many
    # ReLU/sign kinks fall inside the stencil (an untrained float64 AE
    # measures 9.9e-5 at h=1e-7 and worse at larger h).  Conv weights do not
    # depend on the slice size, so the same parameters load into a smaller
    # AE.  Of the crops tried on five trained models (17x15, 25x21, 33x29;
    # batch 2 or 4), 17x15 at batch 4 had the smallest worst case, 1.8e-5;
    # 33x29 at batch 2 once reached 7e-3.
    GRADCHECK_HW = (17, 15)
    GRADCHECK_BATCH = 4

    def float64_copy(self, model: AEModel) -> AEModel:
        copy = AEModel(self.GRADCHECK_HW, model.channels, dtype=np.float64)
        copy.set_params(model.params())
        copy.set_state(model.state())
        return copy

    def small_batch(self, probe: Probe):
        x = probe.sample_batch[: self.GRADCHECK_BATCH]
        h, w = self.GRADCHECK_HW
        top, left = (x.shape[2] - h) // 2, (x.shape[3] - w) // 2
        return x[:, :, top : top + h, left : left + w].astype(np.float64)


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

# The short set-up training: one epoch of each model, with few SAE patches.
BRIEF_PATCHES_PER_SUBJECT = 50
FASTPATH_SUBJECTS = 2
FASTPATH_VOXELS = 64
REPEAT_SUBJECTS = 2


def partition_quantile(values: np.ndarray, q: float) -> float:
    """The linear-interpolation quantile from two order statistics found by
    np.partition: an oracle for interpolated_quantile that does not sort."""
    n = values.size
    pos = q * (n - 1)
    j = math.floor(pos)
    if j + 1 >= n:
        return float(values.max())
    lo, hi = np.partition(values.astype(np.float64), (j, j + 1))[[j, j + 1]]
    return float(lo + (pos - j) * (hi - lo))


def sample_subjects(state: State, rng: np.random.Generator, n: int) -> list[str]:
    """A seeded sample of the subjects stage_infer maps (test controls and
    patients)."""
    ids = list(state.plan.test_ids) + [m.subject_id for m in state.cohort.manifest.patients()]
    return [ids[i] for i in rng.choice(len(ids), n, replace=False)]


def artifact_hashes(state: State) -> dict[str, str]:
    split_dir = state.split_dir
    files = sorted(split_dir.glob("maps/*.mvol"))
    for pattern in ("threshold_*.json", "scores_*.csv", "roc_*.json"):
        files += sorted(split_dir.glob(pattern))
    files += sorted(P.run_paths(state.cfg).summary.glob("*"))
    return {str(f.relative_to(state.cfg.out_dir)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in files}


class Maps(Workload):
    """Threshold, infer, score, evaluate for split 1, then report, for both
    models with center aggregation: 90 error maps, forward passes only."""

    name = "maps"
    item = "map"
    why = ("forward-only error maps for both models on split 1 (dense SAE slice path, "
           "AE slice batches), the control quantile pool, MVOL I/O, scores and the ROC")

    def config(self, out_dir: Path, seed: int) -> PipelineConfig:
        return dataclasses.replace(quick_profile(out_dir=str(out_dir), seed=seed),
                                   models=("ae", "sae"), jobs=1)

    def prepare(self, state: State) -> None:
        cfg = state.cfg
        brief = dataclasses.replace(
            cfg,
            ae_train=dataclasses.replace(cfg.ae_train, epochs=1),
            sae_train=dataclasses.replace(cfg.sae_train, epochs=1),
            sampling=dataclasses.replace(cfg.sampling,
                                         patches_per_subject=BRIEF_PATCHES_PER_SUBJECT),
        )
        state.models = P.stage_train(brief, state.plan, state.cohort, state.split_dir, LOG)

    def run(self, state: State, probe: Probe, seconds: float) -> None:
        cfg, plan, cohort, models, split_dir = (
            state.cfg, state.plan, state.cohort, state.models, state.split_dir)
        for stage, call in (
            ("threshold", lambda: P.stage_threshold(cfg, plan, cohort, models, split_dir, LOG)),
            ("infer", lambda: P.stage_infer(cfg, plan, cohort, models, split_dir, LOG)),
            ("score", lambda: P.stage_score(cfg, plan, cohort, split_dir, LOG)),
            ("evaluate", lambda: P.stage_evaluate(cfg, plan, split_dir, LOG)),
            ("report", lambda: P.stage_report(cfg, P.run_paths(cfg), LOG)),
        ):
            probe.stage = stage
            call()

    def artifacts(self, state: State) -> dict[str, str]:
        return artifact_hashes(state)

    def steps(self, probe: Probe) -> tuple[list[float], list[bool], int]:
        # A step is one subject's error maps, from both models, in one stage.
        per_subject: dict[tuple[str, str], float] = {}
        traced: dict[tuple[str, str], bool] = {}
        for m in probe.maps:
            key = (m["stage"], m["subject"])
            per_subject[key] = per_subject.get(key, 0.0) + 1000.0 * m["seconds"]
            traced[key] = m["traced"]
        return list(per_subject.values()), list(traced.values()), len(probe.maps)

    def quality(self, state: State, phase: Phase) -> dict[str, tuple[float, str]]:
        """Smaller of the AE and SAE lesion/background mean-error ratios."""
        cfg, split_dir = state.cfg, state.split_dir
        ratios = {}
        for kind in cfg.models:
            inside, outside = [], []
            for meta in state.cohort.manifest.patients():
                sid = meta.subject_id
                emap = anomaly.load_error_map(split_dir / "maps" / f"{sid}_{kind}.mvol")
                truth = load_mvol(cfg.cohort_path / "truth" / f"{sid}_mask.mvol").data[0] > 0.5
                inside.append(emap.data[emap.coverage & truth])
                outside.append(emap.data[emap.coverage & ~truth])
            ratios[kind] = float(np.concatenate(inside).mean() / np.concatenate(outside).mean())
        return {"lesion_ratio": (min(ratios.values()), "ratio"),
                **{f"lesion_ratio_{k}": (v, "ratio") for k, v in ratios.items()}}

    def check(self, state: State, phase: Phase, seed: int) -> list[Check]:
        cfg, cohort = state.cfg, state.cohort
        expected = {}
        for sid, mask in cohort.masks.items():
            band = slice_band(mask.mask.shape[0], cfg.sampling.slice_count)
            expected[("ae", sid)] = int(mask.mask[band.start : band.stop].sum())
            expected[("sae", sid)] = int(eligible_patch_centers(mask, cfg.sampling.patch_size).sum())
        probe = phase.probe
        bad = [m for m in probe.maps
               if not m["valid"] or m["covered"] != expected[(m["kind"], m["subject"])]]
        return [
            Check("map values and coverage", len(probe.maps), len(bad),
                  ", ".join(f"{m['subject']}_{m['kind']}" for m in bad[:5])),
            self._check_thresholds(state, probe),
            self._check_whole_brain(state, probe),
            self._check_fast_path(state, seed),
            self._check_repeat(state, phase, seed),
        ]

    def _check_thresholds(self, state: State, probe: Probe) -> Check:
        failed, detail = 0, []
        for kind, (pool, threshold) in zip(state.models, probe.pools):
            saved = anomaly.load_threshold(state.split_dir / f"threshold_{kind}.json")
            q = state.cfg.anomaly.quantile
            want = anomaly.interpolated_quantile(pool, q)
            ok = (threshold.value == want == saved.value == partition_quantile(pool, q)
                  and threshold.pool_size == pool.size)
            failed += int(not ok)
            detail.append(f"{kind} {saved.value:.6g} of {pool.size}")
        return Check("threshold = interpolated_quantile(pooled control errors)",
                     len(probe.pools), failed, "; ".join(detail))

    def _check_whole_brain(self, state: State, probe: Probe) -> Check:
        macro = next(a for a in state.cohort.atlases if a.atlas_id == "macro")
        failed, worst = 0, 0.0
        for kind, table in zip(state.cfg.models, probe.tables):
            cols = [f"macro:{name}" for _, name in macro.regions()]
            for i, sid in enumerate(table.subject_ids):
                cov = anomaly.load_error_map(state.split_dir / "maps" / f"{sid}_{kind}.mvol").coverage
                weights = np.array([int((cov & (macro.labels == label)).sum())
                                    for label, _ in macro.regions()], dtype=np.float64)
                pct = np.array([table.column(c)[i] for c in cols])
                want = float((pct * weights).sum() / weights.sum())
                err = abs(want - table.column("whole-brain")[i])
                worst = max(worst, err)
                failed += int(err > 1e-9)
        return Check("whole-brain % = coverage-weighted macro-region %",
                     len(probe.tables), failed, f"max abs diff {worst:.2e}")

    def _check_fast_path(self, state: State, seed: int) -> Check:
        """SAE center fast path against per-patch reconstruct."""
        rng = np.random.default_rng(seed)
        model = state.models["sae"]
        half = model.patch_size // 2
        worst, failed = 0.0, 0
        for sid in sample_subjects(state, rng, FASTPATH_SUBJECTS):
            emap = anomaly.load_error_map(state.split_dir / "maps" / f"{sid}_sae.mvol")
            covered = np.argwhere(emap.coverage)
            picks = covered[rng.choice(len(covered), FASTPATH_VOXELS, replace=False)]
            data = state.cohort.volumes[sid].data
            patches = np.stack([data[:, z, y - half : y + half + 1, x - half : x + half + 1]
                                for z, y, x in picks])
            recon = model.reconstruct(patches)
            ref = anomaly.joint_error(patches[:, :, half, half].T, recon[:, :, half, half].T)
            got = emap.data[tuple(picks.T)]
            worst = max(worst, float(np.abs(got - ref).max()))
            failed += int(not np.allclose(got, ref, rtol=1e-5, atol=1e-6))
        return Check("SAE center fast path = per-patch reconstruct on sampled voxels",
                     FASTPATH_SUBJECTS, failed, f"max abs diff {worst:.2e}")

    def _check_repeat(self, state: State, phase: Phase, seed: int) -> Check:
        """Repeat part of the pass and compare every artifact's bytes: the
        error maps of a seeded sample of subjects, both thresholds (rewritten
        from the pooled errors), then score, evaluate and report in full."""
        cfg, cohort = state.cfg, state.cohort
        rng = np.random.default_rng(seed + 1)
        for sid in sample_subjects(state, rng, REPEAT_SUBJECTS):
            vol, mask = cohort.volumes[sid], cohort.masks[sid]
            for kind, model in state.models.items():
                if kind == "ae":
                    emap = anomaly.error_volume_ae(model, vol, mask,
                                                   band_count=cfg.sampling.slice_count)
                else:
                    emap = anomaly.error_volume_sae(model, vol, mask,
                                                    aggregate=cfg.anomaly.aggregate)
                anomaly.save_error_map(emap, state.split_dir / "maps" / f"{sid}_{kind}.mvol")
        for kind, (pool, _) in zip(state.models, phase.probe.pools):
            path = state.split_dir / f"threshold_{kind}.json"
            saved = anomaly.load_threshold(path)
            value = anomaly.interpolated_quantile(pool, cfg.anomaly.quantile)
            anomaly.save_threshold(dataclasses.replace(saved, value=value), path)
        P.stage_score(cfg, state.plan, cohort, state.split_dir, LOG)
        P.stage_evaluate(cfg, state.plan, state.split_dir, LOG)
        P.stage_report(cfg, P.run_paths(cfg), LOG)
        before, after = phase.hashes, artifact_hashes(state)
        diff = sorted(k for k in before if before[k] != after.get(k))
        return Check("artifacts byte-identical on repetition", 1, int(bool(diff)),
                     ", ".join(diff[:5]))


WORKLOADS = {w.name: w for w in (SAETrain(), AETrain(), Maps())}
