"""Pipeline configuration: defaults mirror the published training recipe, and
a named quick profile shrinks everything to desk scale for CI and phantoms.

Configs round-trip through JSON: a file is a (possibly partial) nested
object whose keys are the field names of `PipelineConfig` and of its
section dataclasses (`PhantomSpec`, `SplitConfig`, `SamplingConfig`,
`TrainConfig` for `ae_train`, its subclass `SAETrainConfig` with the pair
loss's `alpha` for `sae_train`, `AnomalyConfig`); omitted keys
take the defaults, tuples are JSON lists.  Command-line flags are merged
through the same path.  A resolved config is frozen next to the run outputs,
and the hash of its canonical JSON (all fields but `jobs` and `out_dir`)
keys the stage-resume markers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .artifacts import save_text
from .models import SAE_PATCH_SIZE, SAETrainConfig, TrainConfig
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


# The lowest value each count, rate and tolerance may take, and whether it is
# excluded: a run cannot train, sample or split with less.
_TRAIN_RANGES = {
    "epochs": (1, False),
    "batch_size": (1, False),
    "learning_rate": (0, True),
}
_RANGES = {
    **{f"{s}.{k}": r for s in ("ae_train", "sae_train") for k, r in _TRAIN_RANGES.items()},
    "sae_train.alpha": (0, False),
    "split.n_samples": (1, False),
    "split.n_train": (1, False),
    "split.n_test": (1, False),
    "split.age_tolerance": (0, False),
    "sampling.slice_count": (1, False),
    "sampling.patches_per_subject": (1, False),
}


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
    ae_train: TrainConfig = field(
        default_factory=lambda: TrainConfig(epochs=160, batch_size=40, learning_rate=1e-3)
    )
    sae_train: SAETrainConfig = field(
        default_factory=lambda: SAETrainConfig(epochs=30, batch_size=225, learning_rate=1e-3, alpha=0.005)
    )
    anomaly: AnomalyConfig = field(default_factory=AnomalyConfig)

    def __post_init__(self) -> None:
        for m in self.models:
            if m not in ("ae", "sae"):
                raise ConfigError(f"unknown model {m!r}; choose from ae, sae")
            if self.models.count(m) > 1:
                raise ConfigError(f"model {m!r} selected more than once")
        if not self.models:
            raise ConfigError("at least one model must be selected")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.phantom.n_controls != self.split.n_train + self.split.n_test:
            raise ConfigError(
                f"control count {self.phantom.n_controls} must equal "
                f"n_train + n_test = {self.split.n_train + self.split.n_test}"
            )
        for name, (low, strict) in _RANGES.items():
            section, key = name.split(".")
            value = getattr(getattr(self, section), key)
            if not (math.isfinite(value) and (value > low if strict else value >= low)):
                raise ConfigError(
                    f"{name} must be a finite number {'>' if strict else '>='} {low}, got {value!r}"
                )
        low, high = self.split.female_range
        if not 0 <= low <= high <= 1:
            raise ConfigError(
                f"split.female_range must be an ordered pair of fractions in [0, 1], got {[low, high]}"
            )
        if "sae" in self.models and self.sampling.patch_size != SAE_PATCH_SIZE:
            raise ConfigError(
                f"the SAE takes {SAE_PATCH_SIZE}x{SAE_PATCH_SIZE} patches, "
                f"got sampling.patch_size {self.sampling.patch_size}"
            )
        if "ae" in self.models and self.sampling.slice_count > self.phantom.dims[0]:
            raise ConfigError(
                f"sampling.slice_count {self.sampling.slice_count} exceeds the phantom depth "
                f"{self.phantom.dims[0]}"
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
        sae_train=SAETrainConfig(epochs=4, batch_size=225, learning_rate=1e-3, alpha=0.005, seed=seed),
    )


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def config_to_dict(cfg: PipelineConfig) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


def _type_name(tp) -> str:
    items = typing.get_args(tp)
    if not items:
        return tp.__name__
    if items[-1] is Ellipsis:
        return f"list of {_type_name(items[0])}"
    return f"list of {len(items)} {_type_name(items[0])}"


def _fits(tp, value) -> bool:
    """Whether a JSON value can stand for a field of type `tp`: the same type
    (an int also for a float), a list of fitting values for a tuple."""
    items = typing.get_args(tp)
    if items:
        if not isinstance(value, (list, tuple)):
            return False
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        return len(value) == len(items) and all(_fits(t, v) for t, v in zip(items, value))
    if isinstance(value, bool):
        return tp is bool
    if tp is float:
        return isinstance(value, (int, float))
    return isinstance(value, tp)


def _merge(base, doc, where: str = ""):
    """`base` with the JSON-shaped overrides in `doc`, each checked against
    its field's declared type; a section merges key by key."""
    label = where or "top level"
    if not isinstance(doc, dict):
        raise ConfigError(f"bad config value {label}: expected an object, got {doc!r}")
    types = typing.get_type_hints(type(base))
    unknown = set(doc) - {f.name for f in dataclasses.fields(base)}
    if unknown:
        raise ConfigError(f"unknown keys in config {label}: {sorted(unknown)}")
    changes = {}
    for key, value in doc.items():
        name = f"{where}.{key}" if where else key
        if dataclasses.is_dataclass(getattr(base, key)):
            changes[key] = _merge(getattr(base, key), value, name)
        elif _fits(types[key], value):
            changes[key] = tuple(value) if isinstance(value, list) else value
        else:
            raise ConfigError(
                f"bad config value {name}: expected {_type_name(types[key])}, got {value!r}"
            )
    return dataclasses.replace(base, **changes)


def config_from_dict(doc: dict, base: PipelineConfig | None = None) -> PipelineConfig:
    """The config that `doc`, a JSON-shaped (possibly partial) config,
    makes of `base` (default: the paper-scale defaults)."""
    return _merge(base or PipelineConfig(), doc)


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
