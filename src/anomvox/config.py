"""Pipeline configuration: defaults mirror the published training recipe, and
a named quick profile shrinks everything to desk scale for CI and phantoms.

Configs round-trip through JSON (documented schema below); command-line flags
override file values field by field.  A resolved config is frozen next to the
run outputs, and the hash of its canonical JSON (all fields but `jobs` and
`out_dir`) keys the stage-resume markers.

Schema (all keys optional in a file; omitted ones take defaults):

    {
      "out_dir": str, "cohort_dir": str, "models": ["ae", "sae"],
      "seed": int, "jobs": int,
      "phantom": {"n_controls", "n_patients", "dims", "anomaly_magnitude",
                   "lesion_radius", "lesions_per_patient", "noise_sigma"},
      "split":   {"n_samples", "n_train", "n_test", "age_tolerance",
                   "female_range"},
      "sampling": {"slice_count", "patches_per_subject", "patch_size"},
      "ae_train": {"epochs", "batch_size", "learning_rate", "checkpoint_every"},
      "sae_train": {"epochs", "batch_size", "learning_rate", "alpha",
                    "checkpoint_every"},
      "anomaly": {"quantile", "aggregate"}
    }
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .artifacts import save_text
from .models import TrainConfig, ae_train_defaults, sae_train_defaults
from .phantom import PhantomSpec


class ConfigError(Exception):
    """Invalid or inconsistent pipeline configuration."""


@dataclass
class SplitConfig:
    n_samples: int = 10
    n_train: int = 41
    n_test: int = 15
    age_tolerance: float = 2.0
    female_range: tuple[float, float] = (0.30, 0.50)


@dataclass
class SamplingConfig:
    slice_count: int = 40
    patches_per_subject: int = 15_000
    patch_size: int = 15


@dataclass
class AnomalyConfig:
    quantile: float = 0.98
    aggregate: str = "center"  # or "overlap-mean"

    def __post_init__(self) -> None:
        if not (0.0 < self.quantile < 1.0):
            raise ConfigError(f"quantile must be in (0, 1), got {self.quantile}")
        if self.aggregate not in ("center", "overlap-mean"):
            raise ConfigError(f"unknown aggregation mode {self.aggregate!r}")


@dataclass
class PipelineConfig:
    out_dir: str = "runs/out"
    cohort_dir: str = ""  # defaults to <out_dir>/cohort
    models: tuple[str, ...] = ("ae", "sae")
    seed: int = 1234
    jobs: int = 1
    phantom: PhantomSpec = field(default_factory=lambda: PhantomSpec(n_controls=56, n_patients=15))
    split: SplitConfig = field(default_factory=SplitConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    ae_train: TrainConfig = field(default_factory=ae_train_defaults)
    sae_train: TrainConfig = field(default_factory=sae_train_defaults)
    anomaly: AnomalyConfig = field(default_factory=AnomalyConfig)

    def __post_init__(self) -> None:
        for m in self.models:
            if m not in ("ae", "sae"):
                raise ConfigError(f"unknown model {m!r}; choose from ae, sae")
        if not self.models:
            raise ConfigError("at least one model must be selected")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.phantom.n_controls != self.split.n_train + self.split.n_test:
            raise ConfigError(
                f"control count {self.phantom.n_controls} must equal "
                f"n_train + n_test = {self.split.n_train + self.split.n_test}"
            )

    @property
    def cohort_path(self) -> Path:
        return Path(self.cohort_dir) if self.cohort_dir else Path(self.out_dir) / "cohort"

    def seeded(self, *streams: str | int) -> int:
        """Derive a sub-seed from the run seed and a stream label."""
        digest = hashlib.sha256("/".join(str(s) for s in (self.seed, *streams)).encode()).digest()
        return int.from_bytes(digest[:4], "little")


def quick_profile(out_dir: str = "runs/quick", seed: int = 1234) -> PipelineConfig:
    """Desk-scale preset: small phantom dims, reduced epochs, 2 splits.

    Completes the full two-model pipeline in minutes on a laptop CPU.
    """
    return PipelineConfig(
        out_dir=out_dir,
        seed=seed,
        phantom=PhantomSpec(
            n_controls=30,
            n_patients=15,
            dims=(48, 56, 48),
            anomaly_magnitude=0.15,
            lesion_radius=4.0,
            lesions_per_patient=3,
            noise_sigma=0.02,
        ),
        split=SplitConfig(n_samples=2, n_train=22, n_test=8),
        sampling=SamplingConfig(slice_count=32, patches_per_subject=1200),
        ae_train=TrainConfig(epochs=20, batch_size=40, learning_rate=1e-3, seed=seed),
        sae_train=TrainConfig(epochs=4, batch_size=225, learning_rate=1e-3, alpha=0.005, seed=seed),
    )


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def config_to_dict(cfg: PipelineConfig) -> dict:
    doc = dataclasses.asdict(cfg)
    doc["models"] = list(cfg.models)
    doc["phantom"]["dims"] = list(cfg.phantom.dims)
    doc["phantom"]["voxel_size_mm"] = list(cfg.phantom.voxel_size_mm)
    doc["split"]["female_range"] = list(cfg.split.female_range)
    return doc


def _merge_section(cls, defaults, doc: dict, section: str):
    base = dataclasses.asdict(defaults)
    overrides = doc.get(section, {})
    unknown = set(overrides) - set(base)
    if unknown:
        raise ConfigError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
    base.update(overrides)
    for key in ("dims", "voxel_size_mm", "female_range"):
        if key in base and isinstance(base[key], list):
            base[key] = tuple(base[key])
    return cls(**base)


def config_from_dict(doc: dict) -> PipelineConfig:
    base = PipelineConfig()
    top_known = {f.name for f in dataclasses.fields(PipelineConfig)}
    try:
        unknown = set(doc) - top_known
        if unknown:
            raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
        kwargs = {
            "out_dir": doc.get("out_dir", base.out_dir),
            "cohort_dir": doc.get("cohort_dir", base.cohort_dir),
            "models": tuple(doc.get("models", base.models)),
            "seed": int(doc.get("seed", base.seed)),
            "jobs": int(doc.get("jobs", base.jobs)),
            "phantom": _merge_section(PhantomSpec, base.phantom, doc, "phantom"),
            "split": _merge_section(SplitConfig, base.split, doc, "split"),
            "sampling": _merge_section(SamplingConfig, base.sampling, doc, "sampling"),
            "ae_train": _merge_section(TrainConfig, base.ae_train, doc, "ae_train"),
            "sae_train": _merge_section(TrainConfig, base.sae_train, doc, "sae_train"),
            "anomaly": _merge_section(AnomalyConfig, base.anomaly, doc, "anomaly"),
        }
        return PipelineConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def canonical_json(cfg: PipelineConfig) -> str:
    """The config's result-determining fields as canonical JSON.  `jobs` and
    `out_dir` are left out: neither changes a result, so a run can be resumed
    with another worker count or after its directory moved."""
    doc = config_to_dict(cfg)
    del doc["jobs"], doc["out_dir"]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: PipelineConfig) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()[:16]


def save_config(cfg: PipelineConfig, path: str | Path) -> None:
    save_text(path, json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")


def load_config(path: str | Path) -> PipelineConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)
